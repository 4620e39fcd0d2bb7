"""Brace centralizers, exact commuting probability, and the bound predicates."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from .braces import SkewBrace, annihilator, cyclic_brace
from .errors import GapViolation, check_indices, require
from .groups import ElementSet, group_commuting_probability, prime_divisors


@dataclass(frozen=True)
class CentralizerSuite:
    """The five centralizer-style sets attached to one element."""

    x: int
    cb: ElementSet
    cb_left: ElementSet
    cb_right: ElementSet
    fix_left: ElementSet
    fix_right: ElementSet


def centralizer_suite(B: SkewBrace, x: int) -> CentralizerSuite:
    """Cb, Cb^l, Cb^r, Fix^l, Fix^r of x: row x of the brace's centralizer
    masks, which are computed and cross-checked once per brace."""
    (x,) = check_indices(B.n, x)
    c = B.centralizers

    def row(mask) -> ElementSet:
        return tuple(np.flatnonzero(mask[x]).tolist())

    return CentralizerSuite(
        x=x, cb=row(c.cb), cb_left=row(c.cb_left), cb_right=row(c.cb_right),
        fix_left=row(c.fix_left), fix_right=row(c.fix_right),
    )


def commuting_probability(B: SkewBrace) -> Fraction:
    """Exact Pb(B), computed once per brace by the direct pair count of the
    defining triple condition and, independently, by the centralizer sum;
    both must agree."""
    return B.centralizers.pb


def cyclic_gcd_formula(n: int, d: int) -> Fraction:
    """Closed-form Pb for the brace Z_n with x o y = x + y + dxy: the sum of
    gcd(dx mod n, n) over x, with gcd(0, n) = n, over n^2."""
    return Fraction(sum(gcd((d * x) % n, n) for x in range(n)), n * n)


def cyclic_pb_formula(n: int, d: int) -> Fraction:
    """cyclic_gcd_formula(n, d), checked against the pair-count probability of
    the constructed table.  Raises BadCyclicParameter unless p | d | n for
    every prime p | n."""
    B = cyclic_brace(n, d)
    value = cyclic_gcd_formula(n, d)
    require(value == commuting_probability(B), "gcd formula and pair count disagree")
    return value


@dataclass(frozen=True)
class BoundVerdict:
    name: str
    applicable: bool
    holds: Optional[bool]
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "holds": self.holds,
            "lhs": frac_json(self.lhs),
            "rhs": frac_json(self.rhs),
        }


def frac_json(x: Optional[Fraction]) -> Optional[dict]:
    """A Fraction as {"num", "den"} decimal strings, the one JSON form of a rational."""
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


@dataclass(frozen=True)
class BoundReport:
    d: int
    pb: Fraction
    verdicts: tuple[BoundVerdict, ...]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts if v.applicable)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "pb": frac_json(self.pb),
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }


def bound_report(B: SkewBrace) -> BoundReport:
    """Evaluate every commuting-probability bound whose hypotheses hold for B."""
    n = B.n
    pb = commuting_probability(B)
    ann = annihilator(B)
    d = n // len(ann)
    primes = prime_divisors(n)
    p = primes[0] if primes else None
    verdicts: list[BoundVerdict] = []

    def add(name: str, applicable: bool, lhs=None, rhs=None, holds=None):
        verdicts.append(BoundVerdict(name, applicable, holds, lhs, rhs))

    # 2/|B| <= Pb, for |B| > 1
    if n > 1:
        lhs = Fraction(2, n)
        add("lower-2-over-order", True, lhs, pb, lhs <= pb)
    else:
        add("lower-2-over-order", False)

    # (2d-1)/d^2 <= Pb <= (d+1)/(2d)
    lo, hi = Fraction(2 * d - 1, d * d), Fraction(d + 1, 2 * d)
    add("lower-annihilator-index", True, lo, pb, lo <= pb)
    add("upper-annihilator-index", True, pb, hi, pb <= hi)

    # Pb <= min(Pr(B,+), Pr(B,o))
    gm = min(group_commuting_probability(B.add), group_commuting_probability(B.mul))
    add("upper-group-min", True, pb, gm, pb <= gm)

    # Pb <= (p+d-1)/(pd), smallest prime p of |B|
    if p is not None:
        rhs = Fraction(p + d - 1, p * d)
        add("upper-smallest-prime", True, pb, rhs, pb <= rhs)
    else:
        add("upper-smallest-prime", False)

    # strict-centralizer refinement: if Ann ⊊ Cb(x) for all x, Pb >= (pd+d-p)/d^2
    if p is not None and d > 1 and strict_centralizer_hypothesis(B):
        lhs = Fraction(p * d + d - p, d * d)
        add("lower-strict-centralizers", True, lhs, pb, lhs <= pb)
    else:
        add("lower-strict-centralizers", False)

    # non-prime-power quotient refinement; d divides n, so n has a second prime q
    if len(prime_divisors(d)) >= 2:
        q = primes[1]
        s = q if p * p > q else p * p
        rhs = (
            Fraction(1, p)
            + Fraction(len(ann) * (p - 1) - 1, p * n)
            + Fraction(1, s * n)
        )
        add("upper-non-prime-power", True, pb, rhs, pb <= rhs)
    else:
        add("upper-non-prime-power", False)

    # trivial-annihilator refinement for n = p^e, so p^(e+2) = n p^2, unless
    # (B, o) is elementary abelian
    if (
        len(primes) == 1
        and len(ann) == 1
        and not (B.mul.is_abelian and set(B.mul.element_orders) <= {1, p})
    ):
        rhs = Fraction(1, p) + Fraction((p - 1) ** 2, n * p * p)
        add("upper-trivial-annihilator", True, pb, rhs, pb <= rhs)
    else:
        add("upper-trivial-annihilator", False)

    return BoundReport(d=d, pb=pb, verdicts=tuple(verdicts))


def strict_centralizer_hypothesis(B: SkewBrace) -> bool:
    """Whether Ann(B) is a proper subset of Cb(x) for every x."""
    cb, ann = B.centralizers.cb, list(annihilator(B))
    return bool(cb[:, ann].all() and (np.count_nonzero(cb, axis=1) > len(ann)).all())


def outer_centralizer_sizes(B: SkewBrace) -> np.ndarray:
    """|Cb(x)| for every x outside Ann(B), in element order."""
    return np.delete(np.count_nonzero(B.centralizers.cb, axis=1), annihilator(B))


def has_five_eighths_shape(B: SkewBrace) -> bool:
    """Whether [B:Ann] = 4 and |Cb(x)| = |B|/2 for every x outside Ann: the
    characterization of Pb = 5/8."""
    return B.n // len(annihilator(B)) == 4 and bool((2 * outer_centralizer_sizes(B) == B.n).all())


class GapClass(enum.Enum):
    ONE = "ONE"
    THREE_QUARTERS = "THREE_QUARTERS"
    AT_MOST_5_8 = "AT_MOST_5_8"


def gap_classify(B: SkewBrace) -> GapClass:
    """Place Pb(B) in the gap trichotomy 1 / 3/4 / (0, 5/8].

    Checks the exact characterizations: Pb = 3/4 iff the annihilator has
    index 2, and Pb = 5/8 iff the index is 4 with every outer centralizer of
    order |B|/2.  A value in (5/8, 1) other than 3/4 raises GapViolation.
    """
    pb = commuting_probability(B)
    ann = annihilator(B)
    d = B.n // len(ann)
    if pb == 1:
        require(d == 1, "Pb = 1 but Ann != B")
        return GapClass.ONE
    require(d > 1, "Ann = B but Pb != 1")
    if pb == Fraction(3, 4):
        require(d == 2, "Pb = 3/4 but [B:Ann] != 2")
        return GapClass.THREE_QUARTERS
    require(d != 2, "[B:Ann] = 2 but Pb != 3/4")
    if pb > Fraction(5, 8):
        raise GapViolation(f"Pb = {pb} lies in (5/8, 1) \\ {{3/4}}")
    require(
        (pb == Fraction(5, 8)) == has_five_eighths_shape(B),
        "Pb = 5/8 disagrees with its characterization",
    )
    return GapClass.AT_MOST_5_8
