"""Acceptance gate: the ten headline checks, one pass/fail line each."""

import functools
import random
import time
from fractions import Fraction

from bracekit.braces import (
    annihilator,
    cyclic_brace,
    direct_product,
    nilpotency_class,
    opposite_brace,
    quotient_brace,
    series,
    trivial_brace,
)
from bracekit.enumeration import brute_force_oracle, skew_braces_of_order
from bracekit.groups import (
    cyclic_group,
    dihedral_group,
    direct_product_group,
    is_isomorphic,
    klein_four_group,
    quaternion_group,
)
from bracekit.isoclinism import are_isoclinic
from bracekit.probability import (
    centralizer_suite,
    commuting_probability,
    cyclic_pb_formula,
)


def criterion(num, desc):
    """Tag the test with its criterion line; conftest reports pass/fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{desc}]: FAIL", flush=True)
                raise
            print(f"criterion {num:2d} [{desc}]: PASS", flush=True)

        return wrapper

    return deco


def _catalog_entries(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        out.extend(skew_braces_of_order(n).entries)
    return out


@criterion(1, "cyclic order-4 example")
def test_criterion_01_cyclic_example():
    B = cyclic_brace(4, 2)
    assert commuting_probability(B) == Fraction(3, 4)
    cbs = [centralizer_suite(B, x).cb for x in range(4)]
    assert cbs == [(0, 1, 2, 3), (0, 2), (0, 1, 2, 3), (0, 2)]
    assert B.n // len(annihilator(B)) == 2
    assert nilpotency_class(B) == 2


@criterion(2, "opposite quaternion brace")
def test_criterion_02_opposite_quaternion():
    B = opposite_brace(quaternion_group())
    assert commuting_probability(B) == Fraction(5, 8)
    ann = annihilator(B)
    assert B.n // len(ann) == 4
    outside = [x for x in range(8) if x not in set(ann)]
    assert all(len(centralizer_suite(B, x).cb) == 4 for x in outside)
    Q, _ = quotient_brace(B, ann)
    k4 = klein_four_group()
    assert is_isomorphic(Q.add, k4) and is_isomorphic(Q.mul, k4)


@criterion(3, "catalog counts and oracle agreement")
def test_criterion_03_catalogs():
    start = time.monotonic()
    counts = [len(skew_braces_of_order(n).entries) for n in range(1, 9)]
    assert counts == [1, 1, 1, 4, 1, 6, 1, 47]
    order8 = skew_braces_of_order(8).entries
    nts = [e for e in order8 if not e.report.flags.two_sided]
    assert len(nts) == 5
    assert all(e.report.pb <= Fraction(1, 2) for e in nts)
    for n in range(1, 9):
        holo = skew_braces_of_order(n)
        brute = brute_force_oracle(n)
        assert [(e.brace.add.op, e.brace.mul.op) for e in holo.entries] == [
            (e.brace.add.op, e.brace.mul.op) for e in brute.entries
        ]
    assert time.monotonic() - start < 300


@criterion(4, "gap theorem sweep")
def test_criterion_04_gap_sweep():
    for e in _catalog_entries(1, 8):
        B = e.brace
        pb = e.report.pb
        d = B.n // len(e.report.annihilator)
        assert pb == 1 or pb == Fraction(3, 4) or pb <= Fraction(5, 8)
        assert (pb == Fraction(3, 4)) == (d == 2)
        assert (pb == 1) == (d == 1)


@criterion(5, "bounds sweep")
def test_criterion_05_bounds_sweep():
    from bracekit.probability import bound_report

    for e in _catalog_entries(1, 8):
        rep = bound_report(e.brace)
        assert rep.all_hold, (e.id, rep.to_json_dict())


@criterion(6, "monotonicity sweep")
def test_criterion_06_monotonicity():
    from bracekit.verify import run_theorems

    start = time.monotonic()
    entries = [(e.id, e.brace) for e in _catalog_entries(1, 8)]
    (v,) = run_theorems(entries, "orders 1..8", ["monotonicity"])
    assert v.status == "pass", v.violations
    assert v.checked > 600
    assert time.monotonic() - start < 600


@criterion(7, "cyclic gcd formula to order 100")
def test_criterion_07_cyclic_formula():
    from bracekit.groups import prime_divisors

    start = time.monotonic()
    checked = 0
    for n in range(1, 101):
        rad = 1
        for p in prime_divisors(n):
            rad *= p
        for d in range(1, n + 1):
            if n % d == 0 and d % rad == 0:
                # agreement with the pair count is asserted inside
                cyclic_pb_formula(n, d)
                checked += 1
    assert checked == 172
    assert time.monotonic() - start < 120


@criterion(8, "nilpotency criteria")
def test_criterion_08_nilpotency():
    for e in _catalog_entries(1, 8):
        B = e.brace
        ann_terms = series(B, "ann")
        gamma_terms = series(B, "gamma")
        assert (len(ann_terms[-1]) == B.n) == (len(gamma_terms[-1]) == 1)
        if e.report.pb > Fraction(65, 128):
            # scope-limited: catalog orders only
            assert e.report.nilpotency_class is not None
    for n, cap in ((4, 8), (9, 9)):
        p = 2 if n == 4 else 3
        for e in skew_braces_of_order(n, cap=cap).entries:
            assert e.report.nilpotency_class is not None
            assert e.report.pb in (Fraction(1), Fraction(2 * p - 1, p * p))


@criterion(9, "isoclinism with trivial factors")
def test_criterion_09_isoclinism():
    entries = _catalog_entries(1, 8)
    factors = [
        trivial_brace(cyclic_group(2)),
        trivial_brace(cyclic_group(3)),
        trivial_brace(cyclic_group(4)),
        trivial_brace(klein_four_group()),
    ]
    rng = random.Random(20260824)
    for _ in range(20):
        B = rng.choice(entries).brace
        T = rng.choice(factors)
        C = direct_product(B, T)
        w1 = are_isoclinic(B, C)
        assert w1 is not None
        assert commuting_probability(B) == commuting_probability(C)
        assert are_isoclinic(B, C) == w1
    braces = [e.brace for e in _catalog_entries(1, 6)]
    for i, A in enumerate(braces):
        assert are_isoclinic(A, A) is not None
        for B in braces[i + 1 :]:
            assert (are_isoclinic(A, B) is None) == (are_isoclinic(B, A) is None)


@criterion(10, "order-8 centralizer pathology")
def test_criterion_10_pathology():
    z2z4 = direct_product_group(cyclic_group(2), cyclic_group(4))
    d8 = dihedral_group(4)
    witnesses = []
    for e in skew_braces_of_order(8).entries:
        B = e.brace
        if not (is_isomorphic(B.add, z2z4) and is_isomorphic(B.mul, d8)):
            continue
        for x in range(8):
            cb = set(centralizer_suite(B, x).cb)
            if len(cb) != 2:
                continue
            mul_closed = all(B.mul.op[a][b] in cb for a in cb for b in cb)
            add_closed = all(B.add.op[a][b] in cb for a in cb for b in cb)
            if mul_closed and not add_closed:
                witnesses.append((e.id, x))
    assert witnesses
