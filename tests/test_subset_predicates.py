"""The subset predicates against the quadratic scans they replaced.

`groups.is_subgroup` walks inside H from greedy generators of its own;
`is_conjugation_closed`, the left-ideal and ideal tests of
`braces.classify_subset` and `braces.ideal_closure` let the acting element
run over the generators of a group alone; and the Cb(x) subgroup test of the
centralizer layer skips the rows equal to B.  The references below are the
scans those routines replaced: every product of two members, every
conjugate by every element, lam_a for every a, and the n^3 boolean mask over
every row.  Each is compared with its routine on structured subsets (every
subgroup, subgroups without 0, unions of cosets, subsets normal in one group
of a brace and not in the other) and on arbitrary ones drawn by hypothesis,
for every group and brace of order <= 12.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.braces import (
    SubsetClass,
    _rows_are_subgroups,
    annihilator,
    classify_subset,
    cyclic_brace,
    ideal_closure,
    trivial_brace,
)
from bracekit.enumeration import groups_of_order, skew_braces_of_order
from bracekit.groups import (
    cyclic_group,
    dihedral_group,
    greedy_generators,
    is_conjugation_closed,
    is_isomorphic,
    is_normal,
    is_subgroup,
    prime_divisors,
    quaternion_group,
    relabel,
    trusted_group,
)

GROUPS = [G for n in range(1, 13) for G in groups_of_order(n, cap=12)]
BRACES = [e.brace for n in range(1, 13) for e in skew_braces_of_order(n, cap=12).entries]


# -- the quadratic scans ------------------------------------------------------


def _is_subgroup_reference(G, H):
    """H holds 0 and every product of two members."""
    members = set(H)
    return 0 in members and all(
        members.issuperset(map(G.op[a].__getitem__, members)) for a in members
    )


def _conjugates(G):
    """Row x lists g x g^-1 for g = 0..n-1."""
    op = G.np_op
    return op[op.T, G.np_inv[None, :]].tolist()


def _is_conjugation_closed_reference(G, H):
    """H holds every conjugate of every member, by every element of G."""
    members, conjugates = set(H), _conjugates(G)
    return all(members.issuperset(conjugates[h]) for h in members)


def _classify_subset_reference(B, S):
    """lam_a(S) inside S for every a, and conjugation by every element."""
    members = set(S)
    sub = _is_subgroup_reference(B.add, members) and _is_subgroup_reference(B.mul, members)
    left_ideal = sub and members.issuperset(B.lambdas[:, list(members)].ravel().tolist())
    ideal = (
        left_ideal
        and _is_conjugation_closed_reference(B.add, members)
        and _is_conjugation_closed_reference(B.mul, members)
    )
    return SubsetClass(sub, left_ideal, ideal)


def _ideal_closure_reference(B, S):
    """From {0} and S, add every product in both groups, lam_a(x) for every
    a and every conjugate by every element, until nothing is new."""
    maps = B.lambdas.tolist() + [list(r) for r in zip(*_conjugates(B.add))]
    maps += [list(r) for r in zip(*_conjugates(B.mul))]  # row g: x -> g x g^-1
    members = {0, *S}
    while True:
        grown = set(members)
        for x, y in itertools.product(members, repeat=2):
            grown |= {B.add.op[x][y], B.mul.op[x][y]}
        grown |= {m[x] for m in maps for x in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


def _rows_are_subgroups_reference(mask, op):
    """The n^3 mask over every row: mask[x, a b] wherever mask[x, a] and
    mask[x, b], and 0 in every row."""
    closed = (mask[:, op] | ~(mask[:, :, None] & mask[:, None, :])).all()
    return bool(mask[:, 0].all() and closed)


# -- structured subsets -------------------------------------------------------


def _structured_subsets(G, seed):
    """Every subgroup of G, each without 0, the unions of one or two left
    cosets of each subgroup, and a few seeded random subsets."""
    rng = random.Random(seed)
    out = []
    for K in G.subgroups:
        out += [K, K[1:]]
        cosets = sorted({tuple(sorted(G.op[x][k] for k in K)) for x in range(G.n)})
        out += [tuple(sorted(set(a) | set(b))) for a, b in itertools.combinations(cosets, 2)]
        out += cosets
    out += [tuple(x for x in range(G.n) if rng.random() < 0.5) for _ in range(8)]
    return out


@pytest.mark.parametrize("i", range(len(GROUPS)))
def test_group_predicates_match_references_on_structured_subsets(i):
    G = GROUPS[i]
    for H in _structured_subsets(G, i):
        sub, conj = _is_subgroup_reference(G, H), _is_conjugation_closed_reference(G, H)
        assert is_subgroup(G, H) == sub, H
        assert is_conjugation_closed(G, H) == conj, H
        assert is_normal(G, H) == (sub and conj), H


@pytest.mark.parametrize("n", range(1, 13))
def test_brace_routines_match_references_on_structured_subsets(n):
    for k, B in enumerate(e.brace for e in skew_braces_of_order(n, cap=12).entries):
        subsets = _structured_subsets(B.add, k) + _structured_subsets(B.mul, k)
        for S in subsets:
            assert classify_subset(B, S) == _classify_subset_reference(B, S), S
        for x in range(B.n):
            assert ideal_closure(B, (x,)) == _ideal_closure_reference(B, (x,)), x


def _normal_in_one_group_only(G):
    """(brace, subset) pairs over the catalog braces with a group isomorphic
    to G: the subsets holding 0 that are normal subgroups of one group of
    the brace and not of the other."""
    found = []
    for B in BRACES:
        if B.n == G.n and (is_isomorphic(B.add, G) or is_isomorphic(B.mul, G)):
            for rest in itertools.product((False, True), repeat=B.n - 1):
                S = (0,) + tuple(itertools.compress(range(1, B.n), rest))
                if is_normal(B.add, S) != is_normal(B.mul, S):
                    found.append((B, S))
    return found


@pytest.mark.parametrize(
    "G, sub_braces",
    [(dihedral_group(3), 3), (dihedral_group(4), 24), (quaternion_group(), 0)],
    ids=["S3", "D8", "Q8"],
)
def test_subsets_normal_in_one_group_of_a_brace_only(G, sub_braces):
    """In S3 and D8 some of them are sub-braces, a subgroup of both groups
    normal in one only; every subgroup of Q8 is normal, and those of its
    braces are not subgroups of the other group."""
    found = _normal_in_one_group_only(G)
    assert found
    kinds = [classify_subset(B, S) for B, S in found]
    assert sum(k.is_sub_brace for k in kinds) == sub_braces
    for (B, S), kind in zip(found, kinds):
        assert kind == _classify_subset_reference(B, S) and not kind.is_ideal
        for H, T in itertools.product((S, S[1:]), (B.add, B.mul)):
            sub, conj = _is_subgroup_reference(T, H), _is_conjugation_closed_reference(T, H)
            assert is_subgroup(T, H) == sub and is_conjugation_closed(T, H) == conj
            assert is_normal(T, H) == (sub and conj)


# -- arbitrary subsets --------------------------------------------------------


def _draw_subset(data, n):
    return data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_predicates_match_references_on_arbitrary_subsets(data):
    G = GROUPS[data.draw(st.integers(0, len(GROUPS) - 1))]
    H = _draw_subset(data, G.n)
    sub, conj = _is_subgroup_reference(G, H), _is_conjugation_closed_reference(G, H)
    assert is_subgroup(G, H) == sub
    assert is_conjugation_closed(G, H) == conj
    assert is_normal(G, H) == (sub and conj)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brace_routines_match_references_on_arbitrary_subsets(data):
    B = BRACES[data.draw(st.integers(0, len(BRACES) - 1))]
    S = _draw_subset(data, B.n)
    assert classify_subset(B, S) == _classify_subset_reference(B, S)
    assert ideal_closure(B, S) == _ideal_closure_reference(B, S)


# -- the Cb(x) subgroup test --------------------------------------------------


def test_cb_test_matches_mask_on_cyclic_braces_up_to_64():
    braces = [
        cyclic_brace(n, d)
        for n in range(1, 65)
        for d in range(1, n + 1)
        if n % d == 0 and all(d % p == 0 for p in prime_divisors(n))
    ]
    assert len(braces) == 108
    for B in braces:
        cb = B.centralizers.cb
        assert _rows_are_subgroups(cb, B.mul.np_op) is True
        assert _rows_are_subgroups_reference(cb, B.mul.np_op) is True


def test_cb_test_matches_mask_with_trivial_annihilator():
    B = trivial_brace(dihedral_group(3))
    assert annihilator(B) == (0,)
    cb = B.centralizers.cb
    assert cb.all(axis=1).tolist() == [True] + [False] * 5  # only the row of 0 is skipped
    assert _rows_are_subgroups(cb, B.mul.np_op) == _rows_are_subgroups_reference(cb, B.mul.np_op)


def _one_row_changed(cb):
    """Copies of cb with one cell of one row flipped: every cell of the
    first row that is not all of B and of the first row that is."""
    rows = [int(np.argmin(cb.all(axis=1))), int(np.argmax(cb.all(axis=1)))]
    for x, b in itertools.product(dict.fromkeys(rows), range(cb.shape[1])):
        mask = cb.copy()
        mask[x, b] = not mask[x, b]
        yield mask


@pytest.mark.parametrize(
    "B",
    [cyclic_brace(8, 2), cyclic_brace(16, 4), cyclic_brace(27, 3), trivial_brace(dihedral_group(4))]
    + [BRACES[i] for i in range(0, len(BRACES), 7)],
)
def test_cb_test_matches_mask_on_one_changed_row(B):
    mul = B.mul.np_op
    for mask in _one_row_changed(B.centralizers.cb):
        assert _rows_are_subgroups(mask, mul) == _rows_are_subgroups_reference(mask, mul)


# -- work count ---------------------------------------------------------------


class _CountingRow(tuple):
    """A table row that counts the cells read from it."""

    reads = 0

    def __getitem__(self, i):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, i)


def test_is_subgroup_reads_at_most_h_times_gens_cells():
    rng = random.Random(64)
    rest = list(range(1, 64))
    rng.shuffle(rest)
    G = trusted_group(relabel(cyclic_group(64).np_op, [0] + rest))
    counted = dataclasses.replace(G, op=tuple(map(_CountingRow, G.op)))
    H = range(64)
    # the walk takes the members in the order of the set it builds
    gens = greedy_generators(list(set(H)), lambda x, g: G.op[x][g])
    _CountingRow.reads = 0
    assert is_subgroup(counted, H)
    assert _CountingRow.reads <= 64 * len(gens) < 4096
    _CountingRow.reads = 0
    assert _is_subgroup_reference(counted, H)
    assert _CountingRow.reads == 4096
