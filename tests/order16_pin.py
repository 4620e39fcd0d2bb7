"""Pin the order-16 skew brace catalog: 14 groups, their brace counts and
the manifest sha256.  Every order-16 brace goes through canonical_form,
canonical_pair and the GroupTable constructor, so a change there that
alters a catalog byte shows here.

Not collected by pytest (it takes about 50 s and 260 MiB).  Run it from
the root of a checkout:

    PYTHONPATH=src python tests/order16_pin.py

It prints the figures it read and exits 0 when all of them match, 1 when
any differs.
"""

import sys
import time

from bracekit.enumeration import catalog_manifest, groups_of_order, skew_braces_of_order

GROUPS = 14
# braces on each additive group, in groups_of_order order
PER_GROUP = (39, 161, 227, 191, 83, 66, 118, 190, 152, 66, 80, 144, 8, 80)
TOTAL = 1605
SHA256 = "9006a26ba2fbe375e9e063b169c8233058df39cdb1d0604a485faa9c4409ae4b"


def main() -> int:
    start = time.perf_counter()
    groups = groups_of_order(16, cap=16)
    catalog = skew_braces_of_order(16, cap=16)
    per_group = tuple(sum(e.brace.add.op == G.op for e in catalog.entries) for G in groups)
    manifest = catalog_manifest(catalog)
    seen = {
        "groups": len(groups),
        "per_group": per_group,
        "total": manifest["count"],
        "sha256": manifest["sha256"],
    }
    expected = {"groups": GROUPS, "per_group": PER_GROUP, "total": TOTAL, "sha256": SHA256}
    bad = [k for k in expected if seen[k] != expected[k]]
    for k in expected:
        print(f"{k}: {seen[k]}" + (f" (expected {expected[k]})" if k in bad else ""))
    print(f"{time.perf_counter() - start:.1f} s; " + ("FAIL: " + ", ".join(bad) if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
