"""groups.closure against the separate closure routines it replaced.

The references below are the routines closure replaced: a capped frontier
closure under a multiplication callback (once used by regular_subgroups), a
worklist subgroup closure that also adds inverses, and a snapshot fixpoint
over a list of rule generators (once behind sub_brace_closure and
ideal_closure).  The capped form of closure itself lives in test_groups.py
beside the regular-subgroup table search that calls it.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.braces import ideal_closure, sub_brace_closure
from bracekit.enumeration import groups_of_order, skew_braces_of_order
from bracekit.groups import closure, holomorph, subgroup_closure

from test_groups import _capped_closure

GROUPS = [G for n in range(1, 9) for G in groups_of_order(n)]
BRACES = [e.brace for n in range(1, 9) for e in skew_braces_of_order(n).entries]


def _closure_capped_reference(mul_row, gens, cap):
    members = {0}
    members.update(gens)
    frontier = list(members)
    while frontier:
        if len(members) > cap:
            return None
        new = []
        for a in frontier:
            for b in list(members):
                for c in (mul_row(a, b), mul_row(b, a)):
                    if c not in members:
                        members.add(c)
                        new.append(c)
                        if len(members) > cap:
                            return None
        frontier = new
    return frozenset(members)


def _subgroup_closure_reference(G, S):
    members = {0}
    work = []
    for s in S:
        if s not in members:
            members.add(s)
            work.append(s)
    while work:
        x = work.pop()
        for new in (G.np_inv[x],) + tuple(G.op[x][y] for y in tuple(members)) + tuple(
            G.op[y][x] for y in tuple(members)
        ):
            if new not in members:
                members.add(new)
                work.append(new)
    return tuple(sorted(members))


def _rule_list_closure_reference(B, S, rules):
    members = {0}
    members.update(S)
    changed = True
    while changed:
        changed = False
        snapshot = tuple(members)
        for rule in rules:
            for x in rule(B, snapshot):
                if x not in members:
                    members.add(x)
                    changed = True
    return tuple(sorted(members))


def _both_groups(B, snapshot):
    for a in snapshot:
        yield B.add.np_inv[a]
        yield B.mul.np_inv[a]
        for b in snapshot:
            yield B.add.op[a][b]
            yield B.mul.op[a][b]


def _lam_images(B, snapshot):
    for a in range(B.n):
        for x in snapshot:
            yield int(B.lambdas[a, x])


def _conjugates(B, snapshot):
    for g in range(B.n):
        for x in snapshot:
            yield B.add.op[B.add.op[g][x]][B.add.np_inv[g]]
            yield B.mul.op[B.mul.op[g][x]][B.mul.np_inv[g]]


def _numpy_closure(op, S):
    """Subgroup generated by S: grow a mask by all products until it is stable."""
    mask = np.zeros(len(op), dtype=bool)
    mask[[0, *S]] = True
    while True:
        idx = np.flatnonzero(mask)
        grown = mask.copy()
        grown[op[np.ix_(idx, idx)].ravel()] = True
        if (grown == mask).all():
            return tuple(idx.tolist())
        mask = grown


@lru_cache(maxsize=None)
def _holomorph_table(i):
    """Cayley table of Hol(G) on the indices of its sorted permutations, as
    lists and as an array."""
    P = np.array(holomorph(GROUPS[i]).perms)
    slot = {p.tobytes(): k for k, p in enumerate(P)}
    op = [[slot[q.tobytes()] for q in P[g][P]] for g in range(len(P))]
    return op, np.array(op)


def _subset(data, n, max_size=3):
    return data.draw(st.lists(st.integers(0, n - 1), max_size=max_size))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_group_closure_matches_references(data):
    G = GROUPS[data.draw(st.integers(0, len(GROUPS) - 1))]
    S = _subset(data, G.n)
    got = closure((G.op,), S)
    assert got == subgroup_closure(G, S) == _subgroup_closure_reference(G, S)
    capped = _closure_capped_reference(lambda a, b: G.op[a][b], S, G.n)
    assert got == tuple(sorted(capped))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_brace_closures_match_rule_list_references(data):
    B = BRACES[data.draw(st.integers(0, len(BRACES) - 1))]
    S = _subset(data, B.n)
    sub = _rule_list_closure_reference(B, S, [_both_groups])
    assert closure((B.add.op, B.mul.op), S) == sub_brace_closure(B, S) == sub
    ideal = _rule_list_closure_reference(B, S, [_both_groups, _lam_images, _conjugates])
    assert ideal_closure(B, S) == ideal


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_capped_closure_on_holomorphs(data):
    i = data.draw(st.integers(0, len(GROUPS) - 1))
    (op, table), n = _holomorph_table(i), GROUPS[i].n
    S = _subset(data, len(op))
    got = _capped_closure((op,), S, cap=n)
    full = _numpy_closure(table, S)
    assert (got is None) == (len(full) > n)
    if got is not None:
        assert got == full
    ref = _closure_capped_reference(lambda a, b: op[a][b], S, n)
    assert got == (None if ref is None else tuple(sorted(ref)))
