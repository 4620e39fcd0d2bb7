"""Pin the order-16 skew brace catalog and the theorem verdicts over it:
14 groups, their brace counts, the manifest sha256, and the status, count
checked and notes of each of the 13 theorems.  Every order-16 brace goes
through canonical_form, canonical_brace and the GroupTable constructor,
and every checker (isoclinism among them) runs over all 1,605 braces, so
a change there that alters a catalog byte or a verdict shows here.

Not collected by pytest (it takes about 50 s and 260 MiB).  Run it from
the root of a checkout:

    PYTHONPATH=src python tests/order16_pin.py

It prints the figures it read and exits 0 when all of them match, 1 when
any differs.
"""

import sys
import time

from bracekit.enumeration import catalog_manifest, groups_of_order, skew_braces_of_order
from bracekit.verify import run_theorems

GROUPS = 14
# braces on each additive group, in groups_of_order order
PER_GROUP = (39, 161, 227, 191, 83, 66, 118, 190, 152, 66, 80, 144, 8, 80)
TOTAL = 1605
SHA256 = "9006a26ba2fbe375e9e063b169c8233058df39cdb1d0604a485faa9c4409ae4b"
# (theorem_id, status, checked, notes) of run_theorems, in THEOREMS order
VERDICTS = (
    ("gap-5/8", "pass", 1605, ()),
    ("three-quarters-iff-index-2", "pass", 1605, ()),
    ("five-eighths", "pass", 1605, ("Pb = 5/8 attained by 33 braces",)),
    ("bounds", "pass", 1605, ("strict-centralizer hypothesis held for 170 braces",)),
    ("monotonicity", "pass", 38312, ()),
    ("prime-index", "pass", 22, ()),
    ("p-squared", "vacuous", 0, ()),
    ("gamma2-order-2", "pass", 335, ()),
    ("two-sided-prime-power", "pass", 1059, ()),
    (
        "nilpotent-65/128",
        "pass",
        143,
        ("scope-limited: catalog orders only, not the full proof range",),
    ),
    (
        "isoclinism-invariance",
        "pass",
        341,
        (
            "341 isoclinism classes",
            "20 classes not checked for a stem member: its order is outside the catalog",
        ),
    ),
    ("cyclic-formula", "pass", 4, ()),
    ("ann-gamma-equivalence", "pass", 1605, ()),
)


def main() -> int:
    start = time.perf_counter()
    groups = groups_of_order(16, cap=16)
    catalog = skew_braces_of_order(16, cap=16)
    per_group = tuple(sum(e.brace.add.op == G.op for e in catalog.entries) for G in groups)
    manifest = catalog_manifest(catalog)
    verdicts = run_theorems([(e.id, e.brace) for e in catalog.entries], "orders 16..16")
    seen = {
        "groups": len(groups),
        "per_group": per_group,
        "total": manifest["count"],
        "sha256": manifest["sha256"],
        "verdicts": tuple((v.theorem_id, v.status, v.checked, tuple(v.notes)) for v in verdicts),
    }
    expected = {
        "groups": GROUPS,
        "per_group": PER_GROUP,
        "total": TOTAL,
        "sha256": SHA256,
        "verdicts": VERDICTS,
    }
    bad = [k for k in expected if seen[k] != expected[k]]
    for k in expected:
        print(f"{k}: {seen[k]}" + (f" (expected {expected[k]})" if k in bad else ""))
    print(f"{time.perf_counter() - start:.1f} s; " + ("FAIL: " + ", ".join(bad) if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
