"""Axiom checks on generators against the n^3 scans they replaced.

validate_group, validate_skew_brace, is_two_sided, is_symmetric,
is_lambda_homomorphic and the lambda-law cross-check let one argument of each
law run over a generating sequence only.  The references below are the full
scans over all triples (or, for lambda, over all rows).  The tests compare
verdicts, structure flags and the fault each check names: on catalog braces,
on relabelled cyclic braces, on non-associative Latin squares, on pulled
tables that are not braces, and on pairs of groups that are not braces at all.
"""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit
from bracekit.braces import (
    SkewBrace,
    StructureFlags,
    _assert_lambda_laws,
    cyclic_brace,
    structure_flags,
    validate_skew_brace,
)
from bracekit.enumeration import groups_of_order, skew_braces_of_order
from bracekit.errors import DistributivityFails, InvariantViolation, NotAssociative
from bracekit.groups import prime_divisors, validate_group

BRACES = [e.brace for n in range(1, 9) for e in skew_braces_of_order(n).entries]
BRACES_12 = [e.brace for e in skew_braces_of_order(12, cap=12).entries]
CYCLIC = [
    (n, d)
    for n in range(1, 65)
    for d in range(1, n + 1)
    if n % d == 0 and all(d % p == 0 for p in prime_divisors(n))
]


# -- the n^3 references --------------------------------------------------------


def _associativity_failures_reference(arr):
    return arr[arr] != arr[:, arr]  # (xy)z != x(yz) at [x, y, z]


def _distributivity_failures_reference(add, neg, mul):
    lhs = mul[:, add]  # a o (b + c)
    rhs = add[add[mul, neg[:, None]][:, :, None], mul[:, None, :]]  # (a o b) - a + (a o c)
    return lhs != rhs


def _is_two_sided_reference(B):
    add, neg, mul = B.add.np_op, B.add.np_inv, B.mul.np_op
    lhs = mul[add[:, :, None], np.arange(B.n)[None, None, :]]  # (b + c) o a
    rhs = add[add[mul, neg[None, :]][:, None, :], mul[None, :, :]]  # (b o a) - a + (c o a)
    return bool((lhs == rhs).all())


def _is_symmetric_reference(B):
    mask = _distributivity_failures_reference(B.mul.np_op, B.mul.np_inv, B.add.np_op)
    return not mask.any()


def _is_lambda_homomorphic_reference(B):
    L, add = B.lambdas, B.add.np_op
    return all((L[add[a]] == L[a][L]).all() for a in range(B.n))


def _lambda_laws_reference(B):
    """The message of the first lambda law that fails, row by row, or None."""
    L, add, mul = B.lambdas, B.add.np_op, B.mul.np_op
    if not (mul == add[np.arange(B.n)[:, None], L]).all():
        return "a o b != a + lam_a(b)"
    for a in range(B.n):
        la = L[a]
        if not (len(set(la.tolist())) == B.n and la[0] == 0):
            return "lam_a is not bijective or moves 0"
        if not (la[add] == add[la[:, None], la[None, :]]).all():
            return "lam_a is not additive"
        if not (L[mul[a]] == la[L]).all():
            return "lam_(a o b) != lam_a . lam_b"
    return None


def _first(mask):
    bad = np.argwhere(mask)
    return tuple(bad[0].tolist()) if len(bad) else None


def _lambda_laws_outcome(B):
    try:
        _assert_lambda_laws(B)
    except InvariantViolation as exc:
        return str(exc)
    return None


# -- braces: verdicts and structure flags --------------------------------------


def _assert_checks_match_references(B):
    B = validate_skew_brace(B.add.op, B.mul.op)  # validated anew, on generators
    for G in (B.add, B.mul):
        assert not _associativity_failures_reference(G.np_op).any()
    assert not _distributivity_failures_reference(B.add.np_op, B.add.np_inv, B.mul.np_op).any()
    assert _lambda_laws_reference(B) is None
    flags = StructureFlags(
        trivial=B.add.op == B.mul.op,
        two_sided=_is_two_sided_reference(B),
        symmetric=_is_symmetric_reference(B),
        lambda_homomorphic=_is_lambda_homomorphic_reference(B),
    )
    assert structure_flags(B) == flags
    return flags


@pytest.mark.parametrize("braces", [BRACES, BRACES_12], ids=["orders-1-8", "order-12"])
def test_flags_match_references_on_catalog_braces(braces):
    assert len(braces) in (62, 38)
    flags = [_assert_checks_match_references(B) for B in braces]
    # every flag is seen both ways, so no comparison is vacuous
    for name in ("two_sided", "symmetric", "lambda_homomorphic"):
        assert {getattr(f, name) for f in flags} == {False, True}


def _relabelled_cyclic(n, d, rest):
    sigma = [0, *rest]
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            add[sigma[x]][sigma[y]] = sigma[(x + y) % n]
            mul[sigma[x]][sigma[y]] = sigma[(x + y + d * x * y) % n]
    return validate_skew_brace(add, mul)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_flags_match_references_on_relabelled_cyclic_braces(data):
    n, d = data.draw(st.sampled_from(CYCLIC))
    rest = data.draw(st.permutations(range(1, n)))
    _assert_checks_match_references(_relabelled_cyclic(n, d, rest))


# -- groups: the triple NotAssociative names --------------------------------------


def _intercalate_switches(op, limit=12):
    """Latin squares with identity 0 made from op by swapping the two values of
    a 2x2 subsquare off row 0 and column 0; at most `limit`, spread over all."""
    n = len(op)
    found = [
        (i, k, j, m)
        for i, k in itertools.combinations(range(1, n), 2)
        for j, m in itertools.combinations(range(1, n), 2)
        if op[i][j] == op[k][m] and op[i][m] == op[k][j]
    ]
    for i, k, j, m in found[:: max(1, len(found) // limit)][:limit]:
        table = [list(row) for row in op]
        table[i][j], table[i][m] = table[i][m], table[i][j]
        table[k][j], table[k][m] = table[k][m], table[k][j]
        yield table


SWITCHED = [
    table
    for n in range(1, 13)
    for G in groups_of_order(n, cap=12)
    for table in _intercalate_switches(G.op)
]


def test_not_associative_names_the_reference_triple():
    failing = 0
    for table in SWITCHED:
        expected = _first(_associativity_failures_reference(np.array(table)))
        if expected is None:
            validate_group(table)  # the switch gave a group again
            continue
        failing += 1
        with pytest.raises(NotAssociative) as exc:
            validate_group(table)
        assert exc.value.triple == expected
    assert failing > 100


# -- braces: the triple DistributivityFails names --------------------------------


def _pulled_pairs(n):
    """(A, M') for groups A, M of order n and M' = M pulled back along every
    bijection fixing 0, as the brute-force oracle builds them."""
    groups = groups_of_order(n)
    for A, M in itertools.product(groups, repeat=2):
        for per in itertools.permutations(range(1, n)):
            f = np.array((0,) + per)
            pulled = np.argsort(f)[M.np_op[np.ix_(f, f)]]
            yield A, validate_group(pulled.tolist())


def test_distributivity_fault_matches_reference_on_pulled_tables():
    outcomes = {True: 0, False: 0}
    for n in range(1, 7):
        for A, M in _pulled_pairs(n):
            expected = _first(_distributivity_failures_reference(A.np_op, A.np_inv, M.np_op))
            outcomes[expected is None] += 1
            if expected is None:
                validate_skew_brace(A, M)
                continue
            with pytest.raises(DistributivityFails) as exc:
                validate_skew_brace(A, M)
            assert exc.value.triple == expected
    assert min(outcomes.values()) > 50


# -- the lambda-law cross-check ---------------------------------------------------


def test_lambda_laws_name_the_reference_fault_on_non_braces():
    """Unvalidated pairs of groups that are no braces break the lambda laws;
    the check on generators must name the same law as the row-by-row loop.
    Given a o b = a + lam_a(b), row a of the homomorphism law is row a of
    the additive law with c = -b + (b o c), so the additive law always
    fails first."""
    seen = set()
    for n in range(2, 7):
        for A, M in _pulled_pairs(n):
            B = SkewBrace(n=n, add=A, mul=M)
            expected = _lambda_laws_reference(B)
            assert _lambda_laws_outcome(B) == expected
            seen.add(expected)
    assert seen == {None, "lam_a is not additive"}


def _corrupt_lambdas(B, cell, value):
    L = B.lambdas.copy()
    L[cell] = value
    B.__dict__["lambdas"] = L


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_corrupted_lambdas_raise(data):
    source = data.draw(st.sampled_from(BRACES[1:]))
    B = validate_skew_brace(source.add.op, source.mul.op)
    cell = (data.draw(st.integers(0, B.n - 1)), data.draw(st.integers(0, B.n - 1)))
    value = data.draw(st.integers(0, B.n - 1).filter(lambda v: v != B.lambdas[cell]))
    _corrupt_lambdas(B, cell, value)
    expected = _lambda_laws_reference(B)
    assert expected is not None
    with pytest.raises(InvariantViolation) as exc:
        _assert_lambda_laws(B)
    assert str(exc.value) == expected


LAMBDA_SCRIPT = """
import json, sys
if not sys.flags.optimize:
    sys.exit(3)
from bracekit.braces import SkewBrace, _assert_lambda_laws, validate_skew_brace
from bracekit.errors import InvariantViolation
from bracekit.groups import validate_group
cases = json.loads(sys.argv[1])
for add, mul, cell, value in cases:
    if cell is None:  # a pair of groups that is no brace
        B = SkewBrace(n=len(add), add=validate_group(add), mul=validate_group(mul))
    else:
        B = validate_skew_brace(add, mul)
        L = B.lambdas.copy()
        L[tuple(cell)] = value
        B.__dict__["lambdas"] = L
    try:
        _assert_lambda_laws(B)
        print("none")
    except InvariantViolation as exc:
        print(exc)
"""


def test_lambda_laws_raise_under_python_O():
    cases, expected = [], []
    B = cyclic_brace(8, 2)
    for cell, value in [((3, 5), 0), ((0, 1), 2)]:
        cases.append([B.add.op, B.mul.op, cell, value])
        C = validate_skew_brace(B.add.op, B.mul.op)
        _corrupt_lambdas(C, cell, value)
        expected.append(_lambda_laws_reference(C))
    kept = {}
    for A, M in _pulled_pairs(4):
        message = _lambda_laws_reference(SkewBrace(n=4, add=A, mul=M))
        kept.setdefault(message, [A.op, M.op, None, None])
    for message, case in sorted(kept.items(), key=str):
        cases.append(case)
        expected.append(message)
    assert set(expected) >= {"a o b != a + lam_a(b)", "lam_a is not additive", None}
    src = str(Path(bracekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LAMBDA_SCRIPT, json.dumps(cases)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [m or "none" for m in expected]


# -- memory ------------------------------------------------------------------------


def test_structure_flags_memory_stays_small():
    # the n^3 masks of order 128 held about 35 MiB at once
    tracemalloc.start()
    try:
        flags = structure_flags(cyclic_brace(128, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags == StructureFlags(
        trivial=False, two_sided=True, symmetric=False, lambda_homomorphic=False
    )
    assert peak < 8 * 2**20

