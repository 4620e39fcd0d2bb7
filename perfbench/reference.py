"""Reference outputs the benchmark checks bracekit against.

None of these come from the run being checked:

- skew brace counts for orders 1..10 are the published ones (Guarnieri and
  Vendramin, "Skew braces and the Yang-Baxter equation", Math. Comp. 2017);
- the manifest sha256 of orders 8, 9 and 10 and the 13 theorem verdicts of
  `verify --orders 1..8` were recorded from the first bracekit release
  (catalog version "1"); a change that alters a catalog byte must bump
  `GROUP_CATALOG_VERSION` and update them here;
- `cyclic_pb` computes Pb of the cyclic brace Z_n, x o y = x + y + dxy, from
  the gcd sum sum_x gcd(dx mod n, n) / n^2, independently of bracekit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

BRACE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47, 9: 4, 10: 6}

MANIFEST_SHA256 = {
    8: "7d1aaf8659e2d890a8a27621413f6613360b8f1be1b8caa3ed2306ffb369f2d7",
    9: "bb6d8d7ff546174bceb118addc8096408f2930e648c4ef3ce46cc74d5f04a3d0",
    10: "001586cf4bd3e5c204ee449abbd9c795081a5350ac42d1348cacc6dca414cdf8",
}

# (theorem id, status, braces or cases checked) of `verify --orders 1..8`
VERDICTS_1_8 = (
    ("gap-5/8", "pass", 62),
    ("three-quarters-iff-index-2", "pass", 62),
    ("five-eighths", "pass", 62),
    ("bounds", "pass", 62),
    ("monotonicity", "pass", 683),
    ("prime-index", "pass", 14),
    ("p-squared", "pass", 4),
    ("gamma2-order-2", "pass", 34),
    ("two-sided-prime-power", "pass", 50),
    ("nilpotent-65/128", "pass", 35),
    ("isoclinism-invariance", "pass", 25),
    ("cyclic-formula", "pass", 11),
    ("ann-gamma-equivalence", "pass", 62),
)


def cyclic_pb(n: int, d: int) -> Fraction:
    return Fraction(sum(gcd((d * x) % n, n) for x in range(n)), n * n)


REFERENCE = {
    "counts": BRACE_COUNTS,
    "sha256": MANIFEST_SHA256,
    "verdicts": VERDICTS_1_8,
    "cyclic_pb": cyclic_pb,
}
