"""The once-per-brace invariant layer against the scalar routines it replaced.

The references below are those routines, computed element by element from
the Cayley tables: the exhaustive centralizer suite, the pair-count
probability, the centre as an intersection of centralizers, the annihilator
from the kernel of lambda and both centres, the steps of all four
series, and the per-element loops that tested the 5/8 shape and the
strict-centralizer hypothesis.  Further tests corrupt one cell of a cached table and check that the
cross-checks of the layer see it, also under ``python -O``, and that no result
depends on which invariant a caller asks for first.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit
from bracekit.braces import (
    annihilator,
    cyclic_brace,
    opposite_brace,
    series,
    socle_and_annihilator,
    validate_skew_brace,
)
from bracekit.enumeration import skew_braces_of_order
from bracekit.errors import IndexOutOfRange, InvariantViolation
from bracekit.groups import center, is_subgroup, prime_divisors, quaternion_group
from bracekit.probability import (
    CentralizerSuite,
    bound_report,
    centralizer_suite,
    commuting_probability,
    gap_classify,
    has_five_eighths_shape,
    strict_centralizer_hypothesis,
)
from bracekit.report import brace_report

BRACES = [e.brace for n in range(1, 9) for e in skew_braces_of_order(n).entries]
CYCLIC = [
    (n, d)
    for n in range(1, 65)
    for d in range(1, n + 1)
    if n % d == 0 and all(d % p == 0 for p in prime_divisors(n))
]


# -- scalar references -------------------------------------------------------


def _lam(B, a, b):
    return B.add.op[B.add.np_inv[a]][B.mul.op[a][b]]


def _star(B, a, b):
    return B.add.op[_lam(B, a, b)][B.add.np_inv[b]]


def _commutator(G, a, b):
    return G.op[G.op[G.op[a][b]][G.np_inv[a]]][G.np_inv[b]]


def _centralizer_suite_reference(B, x):
    n = B.n
    c_mul = {b for b in range(n) if B.mul.op[x][b] == B.mul.op[b][x]}
    c_add = {b for b in range(n) if B.add.op[x][b] == B.add.op[b][x]}
    fix_left = tuple(b for b in range(n) if _lam(B, b, x) == x)
    fix_right = tuple(b for b in range(n) if _lam(B, x, b) == b)
    cb_left = tuple(b for b in fix_left if b in c_mul)
    cb_right = tuple(b for b in fix_right if b in c_add)
    cb = tuple(
        b
        for b in range(n)
        if _star(B, x, b) == 0
        and _commutator(B.mul, x, b) == 0
        and _commutator(B.add, x, b) == 0
    )
    assert cb == tuple(sorted(set(cb_left) & set(cb_right)))
    assert is_subgroup(B.mul, cb)
    return CentralizerSuite(
        x=x, cb=cb, cb_left=cb_left, cb_right=cb_right,
        fix_left=fix_left, fix_right=fix_right,
    )


def _commuting_probability_reference(B):
    n = B.n
    direct = sum(
        1
        for a in range(n)
        for b in range(n)
        if _star(B, a, b) == 0 and _star(B, b, a) == 0 and _commutator(B.add, a, b) == 0
    )
    assert direct == sum(len(_centralizer_suite_reference(B, x).cb) for x in range(n))
    return Fraction(direct, n * n)


def _center_reference(G):
    members = set(range(G.n))
    for x in range(G.n):
        members &= {y for y in range(G.n) if G.op[x][y] == G.op[y][x]}
    return tuple(sorted(members))


def _socle_and_annihilator_reference(B):
    ker = tuple(a for a in range(B.n) if B.add.op[a] == B.mul.op[a])
    zadd, zmul = set(_center_reference(B.add)), set(_center_reference(B.mul))
    soc = tuple(a for a in ker if a in zadd)
    return ker, soc, tuple(a for a in soc if a in zmul)


def _subgroup_generated(G, gens):
    members = {0} | set(gens)
    while True:
        grown = members | {G.op[a][b] for a in members for b in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


def _series_reference(B, kind):
    n = B.n
    if kind == "ann":
        terms = [_socle_and_annihilator_reference(B)[2]]
        while True:
            prev = set(terms[-1])
            nxt = tuple(
                a
                for a in range(n)
                if all(
                    _star(B, a, b) in prev
                    and _star(B, b, a) in prev
                    and _commutator(B.add, a, b) in prev
                    for b in range(n)
                )
            )
            if set(nxt) == prev or len(terms) > n:
                return terms
            terms.append(nxt)
    terms = [tuple(range(n))]
    while True:
        prev = terms[-1]
        gens = set()
        if kind in ("gamma", "star_left"):
            gens |= {_star(B, a, u) for a in range(n) for u in prev}
        if kind in ("gamma", "star_right"):
            gens |= {_star(B, u, a) for a in range(n) for u in prev}
        if kind == "gamma":
            gens |= {_commutator(B.add, a, u) for a in range(n) for u in prev}
        nxt = _subgroup_generated(B.add, gens)
        if nxt == prev or len(terms) > n:
            return terms
        terms.append(nxt)


def _relabelled_cyclic(n, d, rest):
    sigma = [0, *rest]
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            add[sigma[x]][sigma[y]] = sigma[(x + y) % n]
            mul[sigma[x]][sigma[y]] = sigma[(x + y + d * x * y) % n]
    return validate_skew_brace(add, mul)


def _assert_layer_matches_references(B):
    suites = [_centralizer_suite_reference(B, x) for x in range(B.n)]
    for x in range(B.n):
        assert centralizer_suite(B, x) == suites[x]
    assert commuting_probability(B) == _commuting_probability_reference(B)
    assert center(B.add) == _center_reference(B.add)
    assert center(B.mul) == _center_reference(B.mul)
    assert socle_and_annihilator(B) == _socle_and_annihilator_reference(B)
    ann = set(_socle_and_annihilator_reference(B)[2])
    assert strict_centralizer_hypothesis(B) == all(ann < set(s.cb) for s in suites)
    assert has_five_eighths_shape(B) == (
        B.n // len(ann) == 4 and all(2 * len(s.cb) == B.n for s in suites if s.x not in ann)
    )
    for kind in ("ann", "gamma", "star_left", "star_right"):
        assert series(B, kind) == _series_reference(B, kind)


# -- the layer against the references ----------------------------------------


def test_layer_matches_references_on_catalog_braces():
    assert len(BRACES) == 62
    for B in BRACES:
        _assert_layer_matches_references(B)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_layer_matches_references_on_relabelled_cyclic_braces(data):
    n, d = data.draw(st.sampled_from(CYCLIC))
    rest = data.draw(st.permutations(range(1, n)))
    _assert_layer_matches_references(_relabelled_cyclic(n, d, rest))


def test_centralizer_suite_rejects_bad_index():
    B = cyclic_brace(4, 2)
    for x in (-1, 4):
        with pytest.raises(IndexOutOfRange):
            centralizer_suite(B, x)


def test_layer_is_computed_once_per_brace():
    B = opposite_brace(quaternion_group())
    commuting_probability(B)
    layer, ann_data = B.centralizers, B.ker_soc_ann
    bound_report(B), gap_classify(B), brace_report(B), centralizer_suite(B, 3)
    assert B.centralizers is layer and B.ker_soc_ann is ann_data
    assert not layer.cb.flags.writeable


# -- fault injection ---------------------------------------------------------


def _pair_count_fault():
    """A fresh brace and a cell (b, a) of its star table such that writing 0
    there adds the commuting pairs (a, b) and (b, a) to the direct count but
    leaves every Cb(x) unchanged, since [a, b]_o != 0."""
    for B in BRACES:
        S, add, gc = B.star_table, B.add.np_op, B.gamma_circ_table
        for a, b in itertools.product(range(B.n), repeat=2):
            if S[a, b] == 0 and add[a, b] == add[b, a] and gc[a, b] != 0:
                return validate_skew_brace(B.add.op, B.mul.op), (b, a)
    raise AssertionError("no catalog brace isolates the pair count")


FAULTS = {
    # Cb(1) loses 0, which Cb^l(1) & Cb^r(1) keeps
    "gamma_circ_table": (
        lambda: (opposite_brace(quaternion_group()), (1, 0), 1),
        r"Cb\(x\) != Cb\^l\(x\) & Cb\^r\(x\)",
    ),
    "star_table": (
        lambda: (*_pair_count_fault(), 0),
        "pair count and centralizer sum disagree",
    ),
}


def _corrupt(B, name, cell, value):
    table = getattr(B, name).copy()
    table[cell] = value
    B.__dict__[name] = table


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_corrupted_table_raises(name):
    make, message = FAULTS[name]
    B, cell, value = make()
    _corrupt(B, name, cell, value)
    with pytest.raises(InvariantViolation, match=message):
        commuting_probability(B)


FAULT_SCRIPT = """
import json, sys
if not sys.flags.optimize:
    sys.exit(3)
from bracekit.braces import validate_skew_brace
from bracekit.errors import InvariantViolation
from bracekit.probability import commuting_probability
add, mul, name, cell, value = json.loads(sys.argv[1])
B = validate_skew_brace(add, mul)
table = getattr(B, name).copy()
table[tuple(cell)] = value
B.__dict__[name] = table
try:
    commuting_probability(B)
except InvariantViolation as exc:
    print(exc)
    sys.exit(1)
"""


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_corrupted_table_raises_under_python_O(name):
    make, message = FAULTS[name]
    B, cell, value = make()
    src = str(Path(bracekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fault = json.dumps([B.add.op, B.mul.op, name, cell, value])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULT_SCRIPT, fault],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip() == message.replace("\\", "")


# -- no result depends on call history ---------------------------------------

CALLS = {"brace_report": brace_report, "bound_report": bound_report, "gap_classify": gap_classify}


@pytest.mark.parametrize("first", sorted(CALLS))
def test_results_do_not_depend_on_call_order(first):
    samples = [BRACES[i] for i in (0, 5, 20, 40, 61)] + [cyclic_brace(16, 4)]
    for B in samples:
        expected = {name: f(validate_skew_brace(B.add.op, B.mul.op)) for name, f in CALLS.items()}
        fresh = validate_skew_brace(B.add.op, B.mul.op)
        order = [first] + [name for name in sorted(CALLS) if name != first]
        got = {name: CALLS[name](fresh) for name in order}
        assert got == expected
        assert annihilator(fresh) == expected["brace_report"].annihilator
