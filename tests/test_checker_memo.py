"""The monotonicity and isoclinism checkers derive each distinct table once
per call.  The un-memoised loops are kept here as references: verdicts and
partitions must be identical, and a second call must redo all the work.
The references list sub-braces with the two-table closure search of
test_braces, not with the sub_braces under test."""

from fractions import Fraction

import numpy as np
import pytest

from bracekit import isoclinism, verify
from bracekit.braces import brace_isomorphisms, classify_subset, quotient_brace
from bracekit.enumeration import DEFAULT_CAP, skew_braces_of_order
from bracekit.isoclinism import _witness, induced_brace, isoclinism_classes, isoclinism_data
from bracekit.probability import commuting_probability
from bracekit.verify import TheoremVerdict, check_monotonicity
from test_braces import _sub_braces_closure_reference

CATALOGS = [("holomorph", 8), ("brute", 4)]


def _entries(method, hi):
    return [
        (e.id, e.brace)
        for n in range(1, hi + 1)
        for e in skew_braces_of_order(n, method=method, cap=max(hi, DEFAULT_CAP)).entries
    ]


def _check_monotonicity_reference(entries, scope, pb_of=commuting_probability):
    """One induced brace per sub-brace and per ideal, one classification in
    the ideal filter, one quotient per ideal; nothing shared."""
    violations = []
    checked = 0
    for cid, B in entries:
        pb = pb_of(B)
        subs = _sub_braces_closure_reference(B)
        for members in subs:
            checked += 1
            H = induced_brace(B, members)
            ph = pb_of(H)
            idx = B.n // H.n
            if pb > ph:
                violations.append((cid, f"Pb(B) > Pb(H) for H = {members}"))
            if len(members) < B.n and not ph / (idx * idx) < pb:
                violations.append((cid, f"index-squared bound fails for {members}"))
        for members in (S for S in subs if classify_subset(B, S).is_ideal):
            checked += 1
            N = induced_brace(B, members)
            Q, _ = quotient_brace(B, members)
            if pb > pb_of(N) * pb_of(Q):
                violations.append((cid, f"Pb(B) > Pb(N)Pb(B/N) for N = {members}"))
    return TheoremVerdict("monotonicity", scope, checked, tuple(violations))


def _diagram_commutes_reference(dA, dB, xi, theta):
    m = dA.quotient.n
    return all(
        theta[dA.phi_plus[i][j]] == dB.phi_plus[xi[i]][xi[j]]
        and theta[dA.phi_star[i][j]] == dB.phi_star[xi[i]][xi[j]]
        for i in range(m)
        for j in range(m)
    )


def _witness_reference(dA, dB):
    if dA.quotient.n != dB.quotient.n or dA.gamma2.n != dB.gamma2.n:
        return None
    xis = brace_isomorphisms(dA.quotient, dB.quotient)
    if not xis:
        return None
    thetas = brace_isomorphisms(dA.gamma2, dB.gamma2)
    for xi in xis:
        for theta in thetas:
            if _diagram_commutes_reference(dA, dB, xi, theta):
                return xi, theta
    return None


def _isoclinism_classes_reference(braces):
    """Union-find over pairwise witness searches, two brace_isomorphisms
    searches per pair reached."""
    parent = list(range(len(braces)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    data = [isoclinism_data(b) for b in braces]
    for i in range(len(braces)):
        for j in range(i + 1, len(braces)):
            if find(i) != find(j) and _witness_reference(data[i], data[j]) is not None:
                parent[find(j)] = find(i)
    classes = {}
    for i in range(len(braces)):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


def test_witness_matches_reference_on_every_ordered_pair():
    # pins the chosen (xi, theta), not only whether one exists
    data = [isoclinism_data(B) for _, B in _entries("holomorph", 8)]
    isoclinic = 0
    for dA in data:
        for dB in data:
            got = _witness(dA, dB, brace_isomorphisms)
            assert (None if got is None else (got.xi, got.theta)) == _witness_reference(dA, dB)
            isoclinic += got is not None
    assert (len(data) ** 2, isoclinic) == (3844, 274)


def _table_pb(B):
    """An arbitrary Pb-like value read from the tables alone, so that the
    bounds fail often and the violation lists are long."""
    return Fraction(1, (7 * int(B.mul.np_op.sum()) + B.n) % 11 + 1)


@pytest.mark.parametrize("method, hi", CATALOGS + [("holomorph", 12)])
def test_monotonicity_matches_reference(method, hi):
    entries = _entries(method, hi)
    scope = f"orders 1..{hi}"
    got = check_monotonicity(entries, scope)
    assert got == _check_monotonicity_reference(entries, scope)
    assert got.checked > len(entries) and not got.violations


@pytest.mark.parametrize("method, hi, bounds_failed", [("holomorph", 8, 3), ("brute", 4, 2)])
def test_monotonicity_violations_match_reference(monkeypatch, method, hi, bounds_failed):
    entries = _entries(method, hi)
    monkeypatch.setattr(verify, "commuting_probability", _table_pb)
    got = check_monotonicity(entries, "s")
    assert got == _check_monotonicity_reference(entries, "s", pb_of=_table_pb)
    kinds = {details.split(" for ")[0] for _, details in got.violations}
    assert len(kinds) == bounds_failed, kinds


@pytest.mark.parametrize("method, hi", CATALOGS)
def test_isoclinism_classes_match_reference(method, hi):
    braces = [B for _, B in _entries(method, hi)]
    assert isoclinism_classes(braces) == _isoclinism_classes_reference(braces)


def test_isoclinism_classes_match_reference_to_order_12():
    braces = [e.brace for n in range(1, 13) for e in skew_braces_of_order(n, cap=12).entries]
    classes = isoclinism_classes(braces)
    assert classes == _isoclinism_classes_reference(braces)
    assert (len(braces), len(classes)) == (111, 50)


def _distinct_derived_tables(entries):
    """(add bytes, mul bytes) of every induced sub-brace and quotient."""
    found = set()
    for _, B in entries:
        for members in _sub_braces_closure_reference(B):
            derived = [induced_brace(B, members)]
            if classify_subset(B, members).is_ideal:
                derived.append(quotient_brace(B, members)[0])
            found |= {(D.add.np_op.tobytes(), D.mul.np_op.tobytes()) for D in derived}
    return found


def test_monotonicity_validates_each_distinct_table_once_per_call(monkeypatch):
    entries = _entries("holomorph", 8)
    expected = _distinct_derived_tables(entries)
    validated, measured = [], []
    validate, measure = verify.validate_skew_brace, verify.commuting_probability

    def counting_validate(add, mul):
        validated.append((np.asarray(add).tobytes(), np.asarray(mul).tobytes()))
        return validate(add, mul)

    def counting_measure(B):
        measured.append(B)
        return measure(B)

    monkeypatch.setattr(verify, "validate_skew_brace", counting_validate)
    monkeypatch.setattr(verify, "commuting_probability", counting_measure)
    runs = []
    for _ in range(2):  # the second call recomputes everything
        validated.clear()
        measured.clear()
        runs.append(check_monotonicity(entries, "orders 1..8"))
        assert len(validated) == len(set(validated)) == len(expected)
        assert set(validated) == expected
        assert len(measured) == len(entries) + len(expected)
    assert runs[0] == runs[1]
    assert len(expected) < runs[0].checked


def test_isoclinism_classes_search_each_distinct_pair_once_per_call(monkeypatch):
    braces = [B for _, B in _entries("holomorph", 8)]
    asked = []
    original = isoclinism.brace_isomorphisms

    def counting(A, B):
        asked.append((A, B))
        return original(A, B)

    monkeypatch.setattr(isoclinism, "brace_isomorphisms", counting)
    runs = []
    for _ in range(2):  # the second call searches again, in the same order
        before = len(asked)
        runs.append(isoclinism_classes(braces))
        searched = asked[before:]
        assert 0 < len(searched) == len(set(searched))
    assert runs[0] == runs[1]
    assert asked[: len(asked) // 2] == asked[len(asked) // 2 :]
