"""Group table layer: validation, invariants, isomorphism, holomorphs."""

import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit
from bracekit.braces import validate_skew_brace
from bracekit.enumeration import groups_of_order
from bracekit.errors import (
    IdentityNotZero,
    IndexOutOfRange,
    NotAssociative,
    NotLatinSquare,
    check_indices,
)
from bracekit.groups import (
    ElementSet,
    GroupTable,
    _uniform_cycle_length,
    as_rows,
    automorphism_group,
    canonical_form,
    center,
    centralizer,
    commutator_subgroup,
    conjugacy_class_sizes,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    generators,
    group_commuting_probability,
    holomorph,
    is_conjugation_closed,
    is_isomorphic,
    is_normal,
    is_subgroup,
    isomorphisms,
    klein_four_group,
    quaternion_group,
    quotient_group,
    quotient_table,
    regular_subgroups,
    relabel,
    subgroup_closure,
    trusted_group,
    validate_group,
)

# a Latin square with identity 0 that is not a group
NONASSOC = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


def test_validate_rejects_identity_elsewhere():
    with pytest.raises(IdentityNotZero):
        validate_group([[1, 0], [0, 1]])


def test_validate_rejects_repeated_entry():
    with pytest.raises(NotLatinSquare):
        validate_group([[0, 1, 2], [1, 1, 0], [2, 0, 1]])


def test_validate_rejects_nonassociative_loop():
    with pytest.raises(NotAssociative):
        validate_group(NONASSOC)


def test_constructors_validate():
    for G in (
        cyclic_group(1),
        cyclic_group(7),
        klein_four_group(),
        dihedral_group(4),
        quaternion_group(),
        direct_product_group(cyclic_group(2), cyclic_group(4)),
    ):
        validate_group(G.op)


def test_cyclic_group_orders():
    G = cyclic_group(6)
    assert sorted(G.element_orders) == [1, 2, 3, 3, 6, 6]
    assert G.is_abelian


def test_quaternion_structure():
    q8 = quaternion_group()
    assert center(q8) == (0, 1)
    assert sorted(q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not q8.is_abelian
    assert commutator_subgroup(q8) == (0, 1)


# quaternion_group as first written: products by unit name and sign
def _quaternion_group_reference() -> GroupTable:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k as indices 0..7."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul_name(a: str, b: str) -> str:
        def split(x: str) -> tuple[int, str]:
            return (-1, x[1:]) if x.startswith("-") else (1, x)

        sa, ua = split(a)
        sb, ub = split(b)
        base = {
            ("1", "1"): (1, "1"),
            ("1", "i"): (1, "i"),
            ("1", "j"): (1, "j"),
            ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"),
            ("j", "1"): (1, "j"),
            ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"),
            ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"),
            ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        s, u = base[(ua, ub)]
        s *= sa * sb
        return u if s == 1 else "-" + u

    idx = {name: i for i, name in enumerate(names)}
    return validate_group(
        [[idx[mul_name(a, b)] for b in names] for a in names]
    )


def test_quaternion_index_arithmetic_matches_named_units():
    assert quaternion_group().op == _quaternion_group_reference().op


def test_commutator_table_and_subgroup_match_the_scalar_formula():
    for G in [G for n in range(1, 13) for G in groups_of_order(n, cap=12)]:
        scalar = [
            [G.op[G.op[x][y]][G.op[G.inv[x]][G.inv[y]]] for y in range(G.n)] for x in range(G.n)
        ]
        table = G.commutator_table
        assert table.tobytes() == np.array(scalar, dtype=np.int64).tobytes()
        assert table.shape == (G.n, G.n) and not table.flags.writeable
        assert commutator_subgroup(G) == subgroup_closure(G, {c for row in scalar for c in row})


def test_dihedral_structure():
    d3 = dihedral_group(3)
    assert len(commutator_subgroup(d3)) == 3
    assert sorted(conjugacy_class_sizes(d3)) == [1, 2, 3]
    assert center(d3) == (0,)


def test_centralizer_and_subgroups():
    q8 = quaternion_group()
    # the cyclic subgroup generated by i
    assert subgroup_closure(q8, {2}) == (0, 1, 2, 3)
    assert is_subgroup(q8, (0, 1, 2, 3))
    assert is_normal(q8, (0, 1, 2, 3))
    assert centralizer(q8, 2) == (0, 1, 2, 3)


def test_quotient_of_quaternion_by_center():
    q8 = quaternion_group()
    Q, cmap = quotient_group(q8, center(q8))
    assert Q.n == 4
    assert set(Q.element_orders) <= {1, 2}
    assert len(set(cmap)) == 4


@pytest.mark.parametrize("bad", [99, -2])
@pytest.mark.parametrize(
    "routine", [is_subgroup, is_conjugation_closed, is_normal, quotient_table, quotient_group]
)
def test_subgroup_routines_reject_members_out_of_range(routine, bad):
    # -2 would otherwise be read as a negative Python index
    with pytest.raises(IndexOutOfRange, match=f"element index {bad} out of range for order 4"):
        routine(cyclic_group(4), [0, bad])


def _quotient_table_reference(G, H):
    """The coset loop quotient_table replaced: each coset xH built and sorted
    in turn, labelled by the rank of its least element."""
    members = set(H)
    coset_of, reps = {}, []
    for x in range(G.n):
        if x in coset_of:
            continue
        coset = sorted(G.op[x][h] for h in members)
        for y in coset:
            coset_of[y] = len(reps)
        reps.append(coset[0])
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    relabel = {old: new for new, old in enumerate(order)}
    cmap = tuple(relabel[coset_of[x]] for x in range(G.n))
    reps = [reps[i] for i in order]
    return np.array(cmap, dtype=np.int64)[G.np_op[np.ix_(reps, reps)]], cmap


def _all_subgroups(G):
    """Every subgroup of G: joins of the trivial subgroup with one element
    at a time, to a fixpoint."""
    found, work = {(0,)}, [(0,)]
    for H in work:
        for x in range(G.n):
            K = subgroup_closure(G, H + (x,))
            if K not in found:
                found.add(K)
                work.append(K)
    return sorted(found)


@pytest.mark.parametrize("n", range(1, 13))
def test_quotient_table_matches_coset_loop(n):
    for G in groups_of_order(n, cap=12):
        for H in filter(lambda H: is_normal(G, H), _all_subgroups(G)):
            table, cmap = quotient_table(G, H)
            ref_table, ref_cmap = _quotient_table_reference(G, H)
            assert table.dtype == ref_table.dtype
            assert np.array_equal(table, ref_table) and cmap == ref_cmap


def test_commuting_probability_values():
    assert group_commuting_probability(dihedral_group(3)) == Fraction(1, 2)
    assert group_commuting_probability(quaternion_group()) == Fraction(5, 8)
    assert group_commuting_probability(dihedral_group(4)) == Fraction(5, 8)
    assert group_commuting_probability(cyclic_group(12)) == 1


def test_isomorphism_classification_order_4():
    z4, k4 = cyclic_group(4), klein_four_group()
    assert not is_isomorphic(z4, k4)
    assert is_isomorphic(dihedral_group(2), k4)
    assert isomorphisms(z4, k4) == []


def _isomorphisms_reference(G, H):
    """Every bijection fixing 0 that carries the table of G onto that of H."""
    if G.n != H.n:
        return []
    maps = np.array([(0, *p) for p in itertools.permutations(range(1, G.n))])
    ok = (maps[:, G.np_op] == H.np_op[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))
    return sorted(map(tuple, maps[ok].tolist()))


SMALL_GROUPS = [G for n in range(1, 7) for G in groups_of_order(n)]


def test_isomorphisms_match_reference_on_small_groups():
    for G, H in itertools.product(SMALL_GROUPS, repeat=2):
        expected = _isomorphisms_reference(G, H)
        assert isomorphisms(G, H) == expected
        assert isomorphisms(G, H, first_only=True) == expected[:1]


@pytest.mark.parametrize("index", range(5))
@given(st.data())
@settings(max_examples=10, deadline=None)
def test_isomorphisms_match_reference_on_relabelled_order_8(index, data):
    G = groups_of_order(8)[index]
    sigma = [0] + data.draw(st.permutations(range(1, 8)))
    H = validate_group(relabel(G.np_op, sigma).tolist())
    expected = _isomorphisms_reference(G, H)
    assert len(expected) == len(automorphism_group(G))
    assert isomorphisms(G, H) == expected
    assert isomorphisms(H, G) == _isomorphisms_reference(H, G)


def test_automorphism_counts():
    assert len(automorphism_group(cyclic_group(4))) == 2
    assert len(automorphism_group(klein_four_group())) == 6
    assert len(automorphism_group(quaternion_group())) == 24
    c2 = cyclic_group(2)
    e8 = direct_product_group(direct_product_group(c2, c2), c2)
    assert len(automorphism_group(e8)) == 168


@given(st.permutations(list(range(1, 4))))
def test_canonical_form_relabeling_invariant(tail):
    sigma = [0] + list(tail)
    G = dihedral_group(2)
    H = validate_group(as_rows(relabel(G.np_op, sigma).tolist()))
    assert canonical_form(G)[0].op == canonical_form(H)[0].op


@given(st.permutations(list(range(1, 8))))
@settings(max_examples=25, deadline=None)
def test_canonical_form_relabeling_invariant_q8(tail):
    sigma = [0] + list(tail)
    G = quaternion_group()
    H = validate_group(as_rows(relabel(G.np_op, sigma).tolist()))
    assert canonical_form(G)[0].op == canonical_form(H)[0].op


def _canonical_form_reference(G):
    """The (n-1)! relabeling scan, the oracle for canonical_form: every
    bijection fixing 0 is applied to the table in one array step, and the
    first row-major least table in itertools.permutations order is kept."""
    n = G.n
    if n == 1:
        return G, (0,)
    perms = np.array(list(itertools.permutations(range(1, n))), dtype=np.int64)
    sigmas = np.hstack([np.zeros((len(perms), 1), dtype=np.int64), perms])
    pre = np.argsort(sigmas, axis=1)
    # cell (i, j) of relabeling k is sigma_k(pre_k(i) pre_k(j))
    old = G.np_op[pre[:, :, None], pre[:, None, :]].reshape(len(sigmas), n * n)
    tables = np.take_along_axis(sigmas, old, axis=1)
    k = np.lexsort(tables.T[::-1])[0]  # lexsort is stable: the first least row
    return trusted_group(as_rows(tables[k].reshape(n, n).tolist())), tuple(sigmas[k].tolist())


def _canonical_form_branch_and_bound_reference(G):
    """The row-1 branch-and-bound that canonical_form replaced, kept as a
    reference for it on orders beyond the (n-1)! scan.  Row 1 lists the
    labels of p[1] * p[j] (p the inverse of sigma) and assigns every label:
    a label with no preimage yet branches over the unlabelled elements, an
    unlabelled product takes the smallest free label, and a branch whose
    row-1 prefix exceeds the best one's is cut."""
    n = G.n
    if n == 1:
        return G, (0,)
    op = G.op
    label = [0] + [-1] * (n - 1)  # sigma, -1 while unlabelled
    pre = [0] * n  # p on the labels handed out so far
    row1 = [1] + [0] * (n - 1)
    best: list[list[int]] = []
    best_sigma: tuple = ()

    def leaf() -> None:
        nonlocal best, best_sigma
        rows = [list(range(n)), row1[:]]
        tied = bool(best) and row1 == best[1]
        for i in range(2, n):
            r = op[pre[i]]
            row = [label[r[pre[j]]] for j in range(n)]
            if tied:
                if row > best[i]:
                    return
                tied = row == best[i]
            rows.append(row)
        sigma = tuple(label)
        if not tied:
            best, best_sigma = rows, sigma
        elif sigma < best_sigma:
            best_sigma = sigma

    def column(j: int, k: int) -> None:
        # row-1 cells 0..j-1 are set and labels 0..k-1 have preimages
        if j == n:
            leaf()
        elif j < k:
            cell(j, k)
        else:
            for x in range(1, n):
                if label[x] < 0:
                    label[x], pre[j] = j, x
                    cell(j, k + 1)
                    label[x] = -1

    def cell(j: int, k: int) -> None:
        y = op[pre[1]][pre[j]]
        fresh = label[y] < 0
        if fresh:
            label[y], pre[k] = k, y
            k += 1
        row1[j] = label[y]
        if not best or row1[: j + 1] <= best[1][: j + 1]:
            column(j + 1, k)
        if fresh:
            label[y] = -1

    column(1, 1)
    del column  # column and cell refer to each other: free both now, not at the next gc
    return trusted_group(as_rows(best)), best_sigma


def _canonical_form_coset_walk_reference(G):
    """The unpruned coset walk that canonical_form prunes by Aut(G), kept as
    a reference for it.  With m the least order above 1, it walks every
    relabeling that sends 0..m-1 to x^0..x^(m-1) for an x of order m and then
    k..k+m-1 to u, xu, ..., x^(m-1) u for each unlabelled u, x and each u in
    index order, and keeps the lex-smallest sigma among the least tables."""
    n = G.n
    if n == 1:
        return G, (0,)
    op, orders = G.op, G.element_orders
    m = min(k for k in orders if k > 1)
    label = [-1] * n  # sigma, -1 while unlabelled
    pre = [0] * n  # p on the labels handed out so far
    best: list[list[int]] = []  # rows m..n-1 of the least table so far
    best_sigma: tuple = ()

    def walk(k: int, starts: Iterable[int]) -> None:
        # labels 0..k-1 are handed out; give k..k+m-1 to a coset <x> u
        nonlocal best, best_sigma
        if k == n:
            rows = []
            tied = bool(best_sigma)
            for i in range(m, n):
                r = op[pre[i]]
                row = [label[r[y]] for y in pre]
                if tied:
                    if row > best[i - m]:
                        return
                    tied = row == best[i - m]
                rows.append(row)
            sigma = tuple(label)
            if not tied:
                best, best_sigma = rows, sigma
            elif sigma < best_sigma:
                best_sigma = sigma
            return
        for u in starts:
            if label[u] < 0:
                y = u
                for i in range(k, k + m):
                    label[y], pre[i] = i, y
                    y = xrow[y]
                walk(k + m, range(1, n))
                for y in pre[k : k + m]:
                    label[y] = -1

    for x in range(1, n):
        if orders[x] == m:
            xrow = op[x]  # y -> x y
            walk(0, (0,))
    del walk  # walk refers to itself: free it now, not at the next gc
    return trusted_group(as_rows(relabel(G.np_op, best_sigma).tolist())), best_sigma


GROUPS_UP_TO_12 = [
    (n, i)
    for n, count in enumerate([1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5], start=1)
    for i in range(count)
]
GROUPS_UP_TO_8 = [(n, i) for n, i in GROUPS_UP_TO_12 if n <= 8]


@pytest.mark.parametrize("n,index", GROUPS_UP_TO_8)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_canonical_form_matches_reference_scan(n, index, data):
    G = groups_of_order(n)[index]
    sigma = [0] + data.draw(st.permutations(list(range(1, n))))
    H = validate_group(as_rows(relabel(G.np_op, sigma).tolist()))
    C, witness = canonical_form(H)
    C_ref, witness_ref = _canonical_form_reference(H)
    assert C.op == C_ref.op
    assert witness == witness_ref


@pytest.mark.parametrize("n,index", GROUPS_UP_TO_12)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_canonical_form_matches_branch_and_bound(n, index, data):
    G = groups_of_order(n, cap=12)[index]
    sigma = [0] + data.draw(st.permutations(list(range(1, n))))
    H = validate_group(as_rows(relabel(G.np_op, sigma).tolist()))
    C, witness = canonical_form(H)
    C_ref, witness_ref = _canonical_form_branch_and_bound_reference(H)
    assert C.op == C_ref.op
    assert witness == witness_ref


def test_canonical_witness_recovers_canonical_table():
    G = dihedral_group(4)
    C, sigma = canonical_form(G)
    assert as_rows(relabel(G.np_op, sigma).tolist()) == C.op


@pytest.mark.parametrize("n,index", GROUPS_UP_TO_12)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_canonical_form_matches_coset_walk(n, index, data):
    G = groups_of_order(n, cap=12)[index]
    sigma = [0] + data.draw(st.permutations(list(range(1, n))))
    H = validate_group(as_rows(relabel(G.np_op, sigma).tolist()))
    C, witness = canonical_form(H)
    C_ref, witness_ref = _canonical_form_coset_walk_reference(H)
    assert C.op == C_ref.op
    assert witness == witness_ref


def test_canonical_form_order_16():
    # Z4 x Z4: |Aut| = 96, so the pruned walk has 1,935,360 / 96 = 20,160 leaves
    G = direct_product_group(cyclic_group(4), cyclic_group(4))
    sigma = [0] + (np.random.default_rng(16).permutation(15) + 1).tolist()
    H = validate_group(as_rows(relabel(G.np_op, sigma).tolist()))
    C, witness = canonical_form(G)
    assert canonical_form(H)[0].op == C.op
    assert as_rows(relabel(G.np_op, witness).tolist()) == C.op
    sigmas = np.array(witness)[np.array(automorphism_group(G))]  # witness o alpha
    assert min(map(tuple, sigmas.tolist())) == witness


CANONICAL_FAULT_SCRIPT = """
import sys
from bracekit import groups
from bracekit.errors import InvariantViolation
if not sys.flags.optimize:
    sys.exit(3)
G = {group}
auts = groups.automorphism_group(G)
fake = (0, 2, 1) + tuple(range(3, G.n))  # swaps 1 and 2
if fake in auts:
    sys.exit(4)
groups.automorphism_group = lambda H: auts + (fake,)
try:
    groups.canonical_form(G)
except InvariantViolation as e:
    print(e)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "group",
    [
        "groups.direct_product_group(groups.klein_four_group(), groups.cyclic_group(2))",
        "groups.dihedral_group(4)",
    ],
    ids=["Z2^3", "D4"],
)
def test_canonical_form_leaf_count_catches_a_non_automorphism_under_python_O(group):
    """The leaf count of canonical_form's pruned walk times |Aut(G)| must be
    the unpruned count; one relabeling that is not an automorphism, passed
    off as one, breaks it, also under python -O.  The check also catches a
    dropped automorphism, except where |Aut(G)| = 2: the identity alone
    prunes nothing, and the walk then has the unpruned count.
    test_canonical_form_matches_coset_walk covers that case."""
    src = str(Path(bracekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CANONICAL_FAULT_SCRIPT.format(group=group)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "leaves times |Aut(G)| is not the coset-walk count\n"


def test_holomorph_orders_and_regular_subgroups():
    k4 = klein_four_group()
    hol = holomorph(k4)
    assert hol.group is k4
    assert len(hol.perms) == 24
    assert len(regular_subgroups(hol)) == 4

    z4 = cyclic_group(4)
    hol4 = holomorph(z4)
    assert len(hol4.perms) == 8
    assert len(regular_subgroups(hol4)) == 2


def test_regular_subgroups_are_regular():
    hol = holomorph(cyclic_group(6))
    for N in regular_subgroups(hol):
        # transitive on points and free: row a is the one member sending 0 to a
        assert [row[0] for row in N] == list(range(6))


@pytest.mark.parametrize(
    "G",
    [G for n in range(1, 9) for G in groups_of_order(n) if G.n * len(automorphism_group(G)) <= 200]
    + [cyclic_group(17)],
)
def test_holomorph_table_composes_sorted_permutations(G):
    hol = holomorph(G)
    assert list(hol.perms) == sorted(set(hol.perms))
    assert hol.perms[0] == tuple(range(G.n))
    perms = set(hol.perms)
    assert all(tuple(g[x] for x in h) in perms for g in hol.perms for h in hol.perms)


# groups.closure as it was with a cap, kept for the table search below
def _capped_closure(
    tables: Sequence[Sequence[Sequence[int]]],
    S: Iterable[int],
    cap: Optional[int] = None,
    actions: Sequence[Sequence[Sequence[int]]] = (),
) -> Optional[ElementSet]:
    """Smallest set containing 0 and S that is closed under every table and
    every action, as a sorted tuple; None once it exceeds cap elements.

    A table is a square table with identity 0, not necessarily a group;
    closure under it adds the products of members in both orders.  In a
    finite group that is the generated subgroup, since inverses are positive
    powers.  An action lists in row x the elements that must join whenever
    x does, e.g. its conjugates.  Worklist fixpoint: each new member is
    combined once with every member present when it is taken up, and later
    members are combined with it in turn.
    """
    n = len((tables or actions)[0])
    limit = n if cap is None else cap
    S = tuple(S)
    check_indices(n, *S)
    members = {0}
    work = []
    for s in S:
        if s not in members:
            members.add(s)
            work.append(s)
    if len(members) > limit:
        return None
    for x in work:
        images = [z for act in actions for z in act[x]]
        for t in tables:
            row = t[x]
            images += [row[y] for y in members]
            images += [t[y][x] for y in members]
        for z in images:
            if z not in members:
                members.add(z)
                work.append(z)
                if len(members) > limit:
                    return None
    return tuple(sorted(members))


def _regular_subgroups_reference(G):
    """An independent search: the full Cayley table of Hol(G) on its sorted
    permutations, with compositions found by np.searchsorted on the
    permutations' big-endian bytes, and each candidate set grown by one
    candidate at a time and closed in that table by _capped_closure.  Each
    subgroup is returned as its members in index order, which for a regular
    subgroup is the order of their images of 0."""
    n = G.n
    auts = automorphism_group(G)
    perms = sorted({tuple(G.op[a][phi[x]] for x in range(n)) for a in range(n) for phi in auts})
    P = np.array(perms)
    be = np.ascontiguousarray(P, dtype=">u4")
    void = np.dtype((np.void, 4 * n))
    keys = be.view(void)[:, 0]
    op = tuple(
        tuple(np.searchsorted(keys, np.ascontiguousarray(be[g][P]).view(void)[:, 0]).tolist())
        for g in range(len(perms))
    )
    candidates = [
        g
        for g in range(1, len(perms))
        if (L := _uniform_cycle_length(perms[g])) is not None and n % L == 0
    ]
    cand_set = set(candidates)
    results, seen = set(), set()

    def extend(S, last):
        for g in candidates:
            if g <= last or g in S:
                continue
            T = _capped_closure((op,), S + (g,), cap=n)
            if T is None or not cand_set.issuperset(T[1:]) or T in seen:
                continue
            seen.add(T)
            if len(T) == n:
                results.add(T)
            elif n % len(T) == 0:
                extend(T, g)

    if n == 1:
        results.add((0,))
    else:
        extend((0,), -1)
    return sorted(tuple(perms[r] for r in R) for R in results)


HOLOMORPH_GROUPS = [
    (n, i)
    for n, count in enumerate([1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5], start=1)
    for i in range(count)
] + [(17, 0)]


def _assert_regular_subgroups_match_reference(G):
    hol = holomorph(G)
    found = regular_subgroups(hol)
    assert len(set(found)) == len(found)  # each subgroup is reached once
    assert found == _regular_subgroups_reference(G)
    held = set(map(id, hol.perms))
    for N in found:
        assert [row[0] for row in N] == list(range(G.n))
        assert all(id(row) in held for row in N)  # the rows of hol.perms, not copies


@pytest.mark.parametrize("n,index", HOLOMORPH_GROUPS)
def test_regular_subgroups_match_table_reference(n, index):
    _assert_regular_subgroups_match_reference(groups_of_order(n, cap=17)[index])


@pytest.mark.parametrize(
    "G",
    [cyclic_group(16), direct_product_group(cyclic_group(8), cyclic_group(2))],
    ids=["Z16", "Z8xZ2"],
)
def test_regular_subgroups_match_table_reference_order_16(G):
    _assert_regular_subgroups_match_reference(G)


def test_regular_subgroups_memory_stays_small():
    # Hol(Z2^3) has 1344 elements: its full Cayley table held 58.7 MiB
    G = direct_product_group(klein_four_group(), cyclic_group(2))
    automorphism_group.cache_clear()
    tracemalloc.start()
    try:
        hol = holomorph(G)
        found = regular_subgroups(hol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hol.perms) == 1344
    assert len(found) == 232
    assert peak < 16 * 2**20


def test_regular_subgroups_of_z4_z4_compose_lazily():
    # Hol(Z4 x Z4) has 1536 elements, 645 of them candidates: a table of
    # candidate products peaked at 4.1 MiB; the table reference agrees on
    # the 880 subgroups but takes too long for this suite
    hol = holomorph(direct_product_group(cyclic_group(4), cyclic_group(4)))
    tracemalloc.start()
    try:
        found = regular_subgroups(hol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 880
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "search",
    [
        holomorph,
        lambda G: regular_subgroups(holomorph(G)),
        lambda G: canonical_form.__wrapped__(G),  # past the cache
        lambda G: isomorphisms(G, G),
    ],
    ids=["holomorph", "regular_subgroups", "canonical_form", "isomorphisms"],
)
def test_searches_leave_no_reference_cycles(search):
    G = dihedral_group(5)
    search(G)  # fill the caches the search reads
    gc.collect()
    gc.disable()
    try:
        search(G)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _generating_sequence(G):
    """The routine generators replaced: the least element outside the
    subgroup generated so far, the subgroup recomputed for each generator."""
    gens = []
    closed = (0,)
    while len(closed) < G.n:
        gens.append(next(x for x in range(G.n) if x not in set(closed)))
        closed = subgroup_closure(G, gens)
    return gens


GENERATOR_GROUPS = [G for n in range(1, 13) for G in groups_of_order(n, cap=12)] + [
    cyclic_group(17)
]


@pytest.mark.parametrize(
    "G", GENERATOR_GROUPS, ids=[f"{G.n}-{i}" for i, G in enumerate(GENERATOR_GROUPS)]
)
def test_generators_match_reference(G):
    expected = tuple(_generating_sequence(G))
    assert generators(G.op) == expected
    assert G.generators == expected
    assert validate_group(G.op).generators == expected  # handed over, not recomputed


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_generators_match_reference_on_relabelled_tables(data):
    G = data.draw(st.sampled_from(GENERATOR_GROUPS))
    sigma = [0] + data.draw(st.permutations(range(1, G.n)))
    H = validate_group(relabel(G.np_op, sigma).tolist())
    assert H.generators == generators(H.op) == tuple(_generating_sequence(H))


def test_direct_product_group_shape():
    G = direct_product_group(cyclic_group(2), cyclic_group(3))
    assert G.n == 6
    assert is_isomorphic(G, cyclic_group(6))


def _validate_group_reference(table):
    """The Python scans validate_group ran before its array tests, in order."""
    op = as_rows(table)
    n = len(op)
    if n == 0:
        raise IdentityNotZero(0, 0)
    for i, row in enumerate(op):
        if len(row) != n:
            raise NotLatinSquare(i, len(row), -1)
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise NotLatinSquare(i, j, v)
    for j in range(n):
        if op[0][j] != j:
            raise IdentityNotZero(0, j)
    for i in range(n):
        if op[i][0] != i:
            raise IdentityNotZero(i, 0)
    for i in range(n):
        if len(set(op[i])) != n:
            seen: set[int] = set()
            for j, v in enumerate(op[i]):
                if v in seen:
                    raise NotLatinSquare(i, j, v)
                seen.add(v)
    for j in range(n):
        col = [op[i][j] for i in range(n)]
        if len(set(col)) != n:
            seen = set()
            for i, v in enumerate(col):
                if v in seen:
                    raise NotLatinSquare(i, j, v)
                seen.add(v)
    arr = np.array(op, dtype=np.int64)
    bad = np.argwhere(arr[arr] != arr[:, arr])
    if len(bad):
        raise NotAssociative(*map(int, bad[0]))
    return trusted_group(op)


def _outcome(f, table):
    try:
        return f(table)
    except (IdentityNotZero, NotLatinSquare, NotAssociative) as exc:
        return type(exc), exc.args


VALIDATION_GROUPS = [G for n in range(1, 9) for G in groups_of_order(n)] + [
    cyclic_group(12),
    dihedral_group(6),
]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_validate_group_matches_reference_scan_on_corrupted_tables(data):
    G = data.draw(st.sampled_from(VALIDATION_GROUPS))
    n = G.n
    table = [list(row) for row in G.op]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[i][j] = data.draw(
        st.one_of(st.integers(-2, n + 1), st.sampled_from([2**63, -(2**64), 10**30]))
    )
    assert _outcome(validate_group, table) == _outcome(_validate_group_reference, table)


@pytest.mark.parametrize(
    "table,cell",
    [
        ([[0, 1.7], [1, 0]], (0, 1, 1.7)),
        ([["0", "1"], ["1", "0"]], (0, 0, "0")),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 0, np.float64(0))),
        ([[0, 1], [1, np.float64(0)]], (1, 1, np.float64(0))),
        ([[0, 5, 2], [1, 2, 0], [2, 0, 1.5]], (2, 2, 1.5)),  # before the range check
        ([1, 2], (0, 0, 1)),  # a row that is not iterable is its own cell (i, 0)
        (5, (0, 0, 5)),  # so is a table that is not iterable, at (0, 0)
        (None, (0, 0, None)),
        ([[0, 1], 5], (1, 0, 5)),
    ],
    ids=[
        "float", "strings", "float-array", "numpy-float", "after-out-of-range",
        "int-rows", "int", "none", "int-second-row",
    ],
)
def test_non_integer_cells_are_not_truncated(table, cell):
    z2 = [[0, 1], [1, 0]]
    for validate in (
        validate_group,
        lambda t: validate_skew_brace(t, z2),
        lambda t: validate_skew_brace(z2, t),
    ):
        with pytest.raises(NotLatinSquare) as exc:
            validate(table)
        assert exc.value.cell == cell
        assert type(exc.value.cell[2]) is type(cell[2])


def test_numpy_integer_cells_still_validate():
    z2 = [[0, 1], [1, 0]]
    for table in (np.array(z2, dtype=np.uint8), [[np.int8(0), 1], [1, np.uint64(0)]]):
        assert validate_group(table).op == ((0, 1), (1, 0))
