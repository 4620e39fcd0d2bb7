"""Commuting probability: centralizer suites, exact values, bounds, the gap."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.braces import annihilator, cyclic_brace, opposite_brace, trivial_brace
from bracekit.enumeration import skew_braces_of_order
from bracekit.errors import BadCyclicParameter
from bracekit.groups import cyclic_group, dihedral_group, quaternion_group
from bracekit.probability import (
    GapClass,
    bound_report,
    centralizer_suite,
    commuting_probability,
    cyclic_pb_formula,
    gap_classify,
)


def test_cyclic_example_centralizers():
    B = cyclic_brace(4, 2)
    suites = [centralizer_suite(B, x) for x in range(4)]
    assert [s.cb for s in suites] == [(0, 1, 2, 3), (0, 2), (0, 1, 2, 3), (0, 2)]
    assert commuting_probability(B) == Fraction(3, 4)


def test_centralizer_suite_intersection_law():
    B = opposite_brace(quaternion_group())
    for x in range(8):
        s = centralizer_suite(B, x)
        assert s.cb == tuple(sorted(set(s.cb_left) & set(s.cb_right)))
        assert set(s.cb_left) <= set(s.fix_left)
        assert set(s.cb_right) <= set(s.fix_right)


def test_opposite_quaternion_probability():
    B = opposite_brace(quaternion_group())
    assert commuting_probability(B) == Fraction(5, 8)
    ann = set(annihilator(B))
    assert len(ann) == 2
    assert all(len(centralizer_suite(B, x).cb) == 4 for x in range(8) if x not in ann)


def test_trivial_brace_probability_is_group_probability():
    assert commuting_probability(trivial_brace(dihedral_group(3))) == Fraction(1, 2)
    assert commuting_probability(trivial_brace(cyclic_group(5))) == 1


def test_pair_count_against_raw_tables():
    # independent recomputation straight from the tables
    for n in (4, 6):
        for entry in skew_braces_of_order(n).entries:
            B = entry.brace
            add, mul = B.add, B.mul
            count = 0
            for a in range(n):
                for b in range(n):
                    lam_ab = add.op[add.np_inv[a]][mul.op[a][b]]
                    lam_ba = add.op[add.np_inv[b]][mul.op[b][a]]
                    star_ab = add.op[lam_ab][add.np_inv[b]]
                    star_ba = add.op[lam_ba][add.np_inv[a]]
                    comm = add.op[add.op[add.op[a][b]][add.np_inv[a]]][add.np_inv[b]]
                    if star_ab == 0 and star_ba == 0 and comm == 0:
                        count += 1
            assert commuting_probability(B) == Fraction(count, n * n)


def test_cyclic_formula_values():
    assert cyclic_pb_formula(4, 2) == Fraction(3, 4)
    assert cyclic_pb_formula(9, 3) == Fraction(5, 9)
    assert cyclic_pb_formula(8, 2) == Fraction(1, 2)
    assert cyclic_pb_formula(8, 4) == Fraction(3, 4)
    assert cyclic_pb_formula(8, 8) == 1
    assert cyclic_pb_formula(12, 6) == Fraction(3, 4)


def test_cyclic_formula_rejects_bad_parameters():
    with pytest.raises(BadCyclicParameter):
        cyclic_pb_formula(4, 1)
    with pytest.raises(BadCyclicParameter):
        cyclic_pb_formula(6, 2)
    with pytest.raises(BadCyclicParameter):
        cyclic_pb_formula(0, 1)
    with pytest.raises(BadCyclicParameter):
        cyclic_pb_formula(-4, 2)


@settings(deadline=None)
@given(st.sampled_from([(n, d) for n in range(2, 31) for d in range(1, 31)
                        if n % d == 0 and d > 1 or (n, d) == (2, 2)]))
def test_cyclic_formula_agreement_random(nd):
    n, d = nd
    try:
        value = cyclic_pb_formula(n, d)
    except BadCyclicParameter:
        return
    assert 0 < value <= 1


def test_bound_report_opposite_quaternion():
    B = opposite_brace(quaternion_group())
    rep = bound_report(B)
    assert rep.d == 4
    assert rep.all_hold
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["upper-annihilator-index"].rhs == Fraction(5, 8)
    assert by_name["lower-annihilator-index"].lhs == Fraction(7, 16)
    assert by_name["upper-group-min"].rhs == Fraction(5, 8)


def test_bound_report_trivial():
    rep = bound_report(trivial_brace(cyclic_group(1)))
    assert rep.d == 1
    assert rep.pb == 1
    assert rep.all_hold


def test_bound_report_json_rationals_are_strings():
    d = bound_report(cyclic_brace(4, 2)).to_json_dict()
    assert d["pb"] == {"num": "3", "den": "4"}
    assert all(
        v["lhs"] is None or isinstance(v["lhs"]["num"], str) for v in d["verdicts"]
    )


def _factor(n):
    """{p: e} for n = prod p^e, by repeated division."""
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def test_refined_upper_bounds_on_orders_up_to_12():
    applicable = {"upper-trivial-annihilator": 0, "upper-non-prime-power": 0}
    for n in range(1, 13):
        exps = _factor(n)
        for entry in skew_braces_of_order(n, cap=12).entries:
            B = entry.brace
            verdicts = {v.name: v for v in bound_report(B).verdicts}
            v = verdicts["upper-trivial-annihilator"]
            if v.applicable:
                [(p, e)] = exps.items()
                assert v.rhs == Fraction(1, p) + Fraction((p - 1) ** 2, p ** (e + 2))
            v = verdicts["upper-non-prime-power"]
            if v.applicable:
                p, q = sorted(exps)[:2]
                s = q if p * p > q else p * p
                a = len(annihilator(B))
                assert v.rhs == Fraction(1, p) + Fraction(a * (p - 1) - 1, p * n) + Fraction(1, s * n)
            for name in applicable:
                applicable[name] += verdicts[name].applicable
    assert applicable == {"upper-trivial-annihilator": 2, "upper-non-prime-power": 44}


def test_gap_classification():
    assert gap_classify(trivial_brace(cyclic_group(6))) is GapClass.ONE
    assert gap_classify(cyclic_brace(4, 2)) is GapClass.THREE_QUARTERS
    assert gap_classify(opposite_brace(quaternion_group())) is GapClass.AT_MOST_5_8
    assert gap_classify(cyclic_brace(9, 3)) is GapClass.AT_MOST_5_8


def test_gap_sweep_orders_up_to_6():
    for n in range(1, 7):
        for entry in skew_braces_of_order(n).entries:
            pb = commuting_probability(entry.brace)
            assert pb == 1 or pb == Fraction(3, 4) or pb <= Fraction(5, 8)
            gap_classify(entry.brace)


def test_bounds_sweep_orders_up_to_6():
    for n in range(1, 7):
        for entry in skew_braces_of_order(n).entries:
            assert bound_report(entry.brace).all_hold
