"""Skew brace layer: validation, star maps, ideals, series, canonical forms."""

import functools
import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit import braces
from bracekit.braces import (
    SkewBrace,
    annihilator,
    brace_isomorphisms,
    canonical_brace,
    canonical_pair,
    classify_subset,
    cyclic_brace,
    direct_product,
    gamma_circ,
    gamma_plus,
    ideal_closure,
    ideals,
    is_brace_isomorphic,
    ker_lambda,
    nilpotency_class,
    opposite_brace,
    quotient_brace,
    quotient_tables,
    series,
    socle_and_annihilator,
    star,
    structure_flags,
    sub_brace_closure,
    sub_braces,
    trivial_brace,
    validate_skew_brace,
)
from bracekit.enumeration import groups_of_order, skew_braces_of_order
from bracekit.errors import BadCyclicParameter, DistributivityFails, IndexOutOfRange, ParseError
from bracekit.groups import (
    automorphism_group,
    canonical_form,
    centralizer,
    closure,
    cyclic_group,
    dihedral_group,
    is_conjugation_closed,
    is_normal,
    is_subgroup,
    klein_four_group,
    quaternion_group,
    quotient_group,
    quotient_table,
    relabel,
    subgroup_closure,
    validate_group,
)
from bracekit.isoclinism import gamma2, induced_brace, isoclinism_data
from bracekit.probability import centralizer_suite
from bracekit.report import brace_report
from bracekit.verify import check_ann_gamma
from test_groups import as_rows

BRACES = [e.brace for n in range(1, 9) for e in skew_braces_of_order(n).entries]


def test_validate_rejects_distributivity_failure():
    with pytest.raises(DistributivityFails):
        validate_skew_brace(cyclic_group(6).op, dihedral_group(3).op)
    with pytest.raises(DistributivityFails):
        validate_skew_brace(dihedral_group(3).op, cyclic_group(6).op)


def test_validate_rejects_twisted_cyclic():
    z4 = cyclic_group(4)
    twisted = as_rows(relabel(z4.np_op, [0, 2, 1, 3]).tolist())
    with pytest.raises(DistributivityFails):
        validate_skew_brace(z4.op, twisted)


def _first_distributivity_failure_reference(add, mul):
    """The triple loop that once named the failing triple: the first
    (a, b, c) with a o (b + c) != (a o b) - a + (a o c), or None."""
    for a in range(add.n):
        for b in range(add.n):
            for c in range(add.n):
                left = mul.op[a][add.op[b][c]]
                right = add.op[add.op[mul.op[a][b]][add.np_inv[a]]][mul.op[a][c]]
                if left != right:
                    return (a, b, c)
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distributivity_fault_matches_triple_loop(data):
    n = data.draw(st.integers(1, 8))
    tables = []
    for _ in range(2):
        G = data.draw(st.sampled_from(groups_of_order(n)))
        sigma = [0] + data.draw(st.permutations(range(1, n)))
        tables.append(validate_group(relabel(G.np_op, sigma).tolist()))
    A, M = tables
    expected = _first_distributivity_failure_reference(A, M)
    if expected is None:
        validate_skew_brace(A, M)
    else:
        with pytest.raises(DistributivityFails) as exc:
            validate_skew_brace(A, M)
        assert exc.value.triple == expected


def test_trivial_brace_star_vanishes():
    B = trivial_brace(dihedral_group(3))
    assert all(star(B, a, b) == 0 for a in range(6) for b in range(6))
    assert structure_flags(B).trivial


def test_opposite_brace_of_quaternions():
    B = opposite_brace(quaternion_group())
    flags = structure_flags(B)
    assert flags.two_sided and not flags.trivial
    # a*b equals the additive commutator [-a, b]
    add = B.add
    for a in range(8):
        for b in range(8):
            na = add.np_inv[a]
            # [-a,b]+ = -a + b + a - b
            expect = add.op[add.op[add.op[na][b]][a]][add.np_inv[b]]
            assert star(B, a, b) == expect


def test_cyclic_brace_example():
    B = cyclic_brace(4, 2)
    assert star(B, 1, 1) == 2
    assert gamma_plus(B, 1, 3) == 0
    assert gamma_circ(B, 1, 3) == 0
    ker, soc, ann = socle_and_annihilator(B)
    assert ann == (0, 2)
    assert soc == (0, 2)
    assert ker == (0, 2)
    assert nilpotency_class(B) == 2


def test_cyclic_brace_parameter_check():
    with pytest.raises(BadCyclicParameter):
        cyclic_brace(4, 1)
    with pytest.raises(BadCyclicParameter):
        cyclic_brace(4, 3)
    cyclic_brace(4, 4)
    cyclic_brace(12, 6)


@pytest.mark.parametrize("n, d", [(0, 1), (-4, 2)])
def test_cyclic_brace_rejects_orders_below_one(n, d):
    # prime_divisors(0) and prime_divisors(-4) are empty, so the prime test alone lets these by
    with pytest.raises(BadCyclicParameter):
        cyclic_brace(n, d)


@given(st.sampled_from([(2, 2), (4, 2), (8, 2), (9, 3), (12, 6), (16, 4)]))
def test_cyclic_brace_always_validates(nd):
    n, d = nd
    B = cyclic_brace(n, d)
    validate_skew_brace(B.add, B.mul)


def test_socle_annihilator_nesting_on_catalog():
    from bracekit.enumeration import skew_braces_of_order

    for n in (4, 6, 8):
        for entry in skew_braces_of_order(n).entries:
            ker, soc, ann = socle_and_annihilator(entry.brace)
            assert set(ann) <= set(soc) <= set(ker)


def test_series_of_cyclic_example():
    B = cyclic_brace(4, 2)
    assert [len(t) for t in series(B, "gamma")] == [4, 2, 1]
    assert [len(t) for t in series(B, "ann")] == [2, 4]
    assert [len(t) for t in series(B, "star_left")] == [4, 2, 1]
    assert [len(t) for t in series(B, "star_right")] == [4, 2, 1]


def test_commutators_match_the_scalar_formula():
    B = opposite_brace(quaternion_group())  # neither group is abelian
    for a in range(B.n):
        for b in range(B.n):
            for G, value in ((B.add, gamma_plus(B, a, b)), (B.mul, gamma_circ(B, a, b))):
                assert value == G.op[G.op[G.op[a][b]][G.np_inv[a]]][G.np_inv[b]]


def test_commutator_tables_are_the_group_tables_and_match_the_scalar_formula():
    for B in (e.brace for n in range(1, 9) for e in skew_braces_of_order(n).entries):
        for G, table in ((B.add, B.gamma_plus_table), (B.mul, B.gamma_circ_table)):
            assert table is G.commutator_table
            scalar = [[G.op[G.op[G.op[a][b]][G.np_inv[a]]][G.np_inv[b]] for b in range(B.n)] for a in range(B.n)]
            assert table.tobytes() == np.array(scalar, dtype=np.int64).tobytes()


def test_unknown_series_kind_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown series kind 'lower'"):
        series(cyclic_brace(4, 2), "lower")


def test_series_returns_a_new_list_each_call():
    B = validate_skew_brace(BRACES[-1].add.op, BRACES[-1].mul.op)
    for kind in ("ann", "gamma", "star_left", "star_right"):
        terms = series(B, kind)
        expected = list(terms)
        terms.append((0,))
        terms[0] = ()
        assert series(B, kind) == expected


def test_ann_and_gamma_chains_are_derived_once_per_brace(monkeypatch):
    derived = []
    chain = braces._chain

    def counting(B, kind):
        derived.append(kind)
        return chain(B, kind)

    monkeypatch.setattr(braces, "_chain", counting)
    for C in BRACES:
        B = validate_skew_brace(C.add.op, C.mul.op)  # a fresh copy: nothing is kept on it yet
        derived.clear()
        for _ in range(2):
            nilpotency_class(B), gamma2(B), brace_report(B), isoclinism_data(B)
            check_ann_gamma([((B.n, 1), B)], "s")
        assert sorted(derived) == ["ann", "gamma"]
        series(B, "star_left"), series(B, "star_right"), series(B, "star_left")
        assert sorted(derived[2:]) == ["star_left", "star_left", "star_right"]  # derived per call


def test_element_arguments_are_range_checked():
    B = cyclic_brace(4, 2)
    calls = [
        lambda x: star(B, x, 0),
        lambda x: star(B, 0, x),
        lambda x: gamma_plus(B, 0, x),
        lambda x: gamma_circ(B, x, 0),
        lambda x: classify_subset(B, (0, x)),
        lambda x: closure((B.add.op,), (1, x)),
        lambda x: centralizer(B.add, x),
        lambda x: centralizer_suite(B, x),
    ]
    for call in calls:
        for x in (-1, 4):
            with pytest.raises(IndexOutOfRange, match=f"element index {x} out of range for order 4"):
                call(x)


def test_element_arguments_take_numpy_ints_and_bools():
    B = cyclic_brace(4, 2)
    calls = [
        lambda x: star(B, x, 3),
        lambda x: star(B, 3, x),
        lambda x: gamma_plus(B, x, 3),
        lambda x: gamma_circ(B, 3, x),
        lambda x: centralizer(B.add, x),
        lambda x: astuple(centralizer_suite(B, x)),
    ]
    for call in calls:
        for x in (True, np.uint8(1)):
            got = call(x)
            assert got == call(1) and _int_types(got) <= {int}, x


B4 = cyclic_brace(4, 2)
# {0, 1} and {0, 2} are ideals of V4, so every routine returns a value for both, not an error
V4 = trivial_brace(klein_four_group())
SUBSET_ROUTINES = {
    "is_subgroup": lambda B, S: is_subgroup(B.add, S),
    "is_conjugation_closed": lambda B, S: is_conjugation_closed(B.mul, S),
    "is_normal": lambda B, S: is_normal(B.add, S),
    "subgroup_closure": lambda B, S: subgroup_closure(B.add, S),
    "quotient_table": lambda B, S: quotient_table(B.add, S),
    "quotient_group": lambda B, S: quotient_group(B.add, S),
    "classify_subset": classify_subset,
    "sub_brace_closure": sub_brace_closure,
    "ideal_closure": ideal_closure,
    "quotient_tables": quotient_tables,
    "quotient_brace": quotient_brace,
    "induced_brace": induced_brace,
}


@pytest.mark.parametrize("bad", ["a", 1.0, 2.5, None], ids=["str", "float", "fraction", "none"])
@pytest.mark.parametrize("routine", SUBSET_ROUTINES.values(), ids=SUBSET_ROUTINES)
def test_subset_routines_reject_non_integer_members(routine, bad):
    # 1.0 and 2.5 lie in range: only the integer check rejects them
    with pytest.raises(IndexOutOfRange, match="out of range for order 4") as exc:
        routine(B4, [0, bad])
    assert exc.value.index is bad


def _plain(x):
    """x with arrays as lists, inside tuples too, so that == compares values."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    return tuple(map(_plain, x)) if isinstance(x, tuple) else x


def _int_types(x):
    """The types of the ints inside the tuples of x, nested ones too: ==
    cannot tell True or np.int64(1) from 1."""
    if not isinstance(x, tuple):
        return set()
    return {type(v) for v in x if isinstance(v, (int, np.integer))}.union(*map(_int_types, x))


def _outcome(routine, B, members):
    """The result, or the type of the error raised (its message may quote
    the members)."""
    try:
        return _plain(routine(B, members))
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("routine", SUBSET_ROUTINES.values(), ids=SUBSET_ROUTINES)
def test_subset_routines_take_numpy_ints_and_bools(routine):
    cases = [
        ([np.int64(0), np.uint8(2)], [0, 2]),
        ([False, True], [0, 1]),
        ([np.uint8(0), np.int64(1)], [0, 1]),
        ([0, 1, 1], [0, 1]),
        ([0, 2, 2], [0, 2]),
    ]
    for B in (B4, V4):
        for members, ints in cases:
            got = _outcome(routine, B, members)
            assert got == _outcome(routine, B, ints) and _int_types(got) <= {int}, members
        assert _outcome(routine, B, iter([0, 2])) == _outcome(routine, B, [0, 2])


def test_nilpotency_of_trivial_nonnilpotent_group():
    B = trivial_brace(dihedral_group(3))
    assert nilpotency_class(B) is None
    assert nilpotency_class(trivial_brace(cyclic_group(1))) == 0
    assert nilpotency_class(trivial_brace(cyclic_group(5))) == 1


def test_classify_subset():
    B = cyclic_brace(4, 2)
    full = classify_subset(B, range(4))
    assert full.is_sub_brace and full.is_left_ideal and full.is_ideal
    half = classify_subset(B, (0, 2))
    assert half.is_ideal
    assert not classify_subset(B, (0, 1)).is_sub_brace
    assert not classify_subset(B, ()).is_sub_brace


def test_closures():
    B = opposite_brace(quaternion_group())
    assert sub_brace_closure(B, {2}) == (0, 1, 2, 3)
    assert ideal_closure(B, {2}) == (0, 1, 2, 3)
    assert ideal_closure(B, {1}) == (0, 1)


def test_sub_braces_and_ideals_of_cyclic_example():
    B = cyclic_brace(4, 2)
    assert sub_braces(B) == [(0,), (0, 2), (0, 1, 2, 3)]
    assert ideals(B) == [(0,), (0, 2), (0, 1, 2, 3)]


def _sub_braces_reference(B):
    """Every subset containing 0 that is closed under both operations (so,
    being finite, a subgroup of both), in the order sub_braces returns."""
    found = []
    for mask in range(1 << (B.n - 1)):
        S = (0,) + tuple(x for x in range(1, B.n) if mask >> (x - 1) & 1)
        members = set(S)
        if all(B.add.op[a][b] in members and B.mul.op[a][b] in members for a in S for b in S):
            found.append(S)
    return sorted(found, key=lambda s: (len(s), s))


def test_sub_braces_match_subset_scan():
    assert len(BRACES) == 62
    for B in BRACES:
        assert sub_braces(B) == _sub_braces_reference(B)


def _sub_braces_closure_reference(B):
    """The search sub_braces ran before it read the additive subgroup
    lattice: from {0}, the closure in both tables of each sub-brace found
    with each element outside it, until no closure is new."""
    found = {(0,), tuple(range(B.n))}
    frontier = [(0,)]
    while frontier:
        new = []
        for S in frontier:
            for g in range(1, B.n):
                if g in S:
                    continue
                T = closure((B.add.op, B.mul.op), S + (g,))
                if T not in found:
                    found.add(T)
                    new.append(T)
        frontier = new
    return sorted(found, key=lambda s: (len(s), s))


def test_sub_braces_match_closure_reference_to_order_12():
    catalog = [e.brace for n in range(1, 13) for e in skew_braces_of_order(n, cap=12).entries]
    assert len(catalog) == 111
    for B in catalog:
        assert sub_braces(B) == _sub_braces_closure_reference(B)


def test_quotient_brace_cosets_agree():
    B = opposite_brace(quaternion_group())
    Q, cmap = quotient_brace(B, annihilator(B))
    assert Q.n == 4
    # both quotient groups are Klein four
    assert set(Q.add.element_orders) <= {1, 2}
    assert set(Q.mul.element_orders) <= {1, 2}
    assert cmap[0] == 0


def test_brace_isomorphism_distinguishes():
    assert not is_brace_isomorphic(cyclic_brace(4, 2), trivial_brace(cyclic_group(4)))
    assert is_brace_isomorphic(cyclic_brace(4, 2), cyclic_brace(4, 2))


@functools.cache
def _identity_fixing_bijections(n):
    """All bijections of 0..n-1 fixing 0, as rows in lexicographic order."""
    P = np.array([(0, *tail) for tail in itertools.permutations(range(1, n))])
    P.flags.writeable = False
    return P


def _brace_isomorphisms_reference(A, B):
    """Every identity-fixing bijection that carries both tables of A onto
    those of B, by a scan over all (n-1)! of them, in lexicographic order."""
    P = _identity_fixing_bijections(A.n)
    for ta, tb in ((A.add.np_op, B.add.np_op), (A.mul.np_op, B.mul.np_op)):
        # keep the f with f(x y) = f(x) f(y) at every cell
        P = P[(P[:, ta] == tb[P[:, :, None], P[:, None, :]]).all(axis=(1, 2))]
    return [tuple(f) for f in P.tolist()]


def _reversed_tail(B):
    """B relabelled by 0 -> 0 and x -> n - x, a brace isomorphic to B with
    other tables."""
    sigma = [0] + list(range(B.n - 1, 0, -1))
    return validate_skew_brace(
        relabel(B.add.np_op, sigma).tolist(), relabel(B.mul.np_op, sigma).tolist()
    )


def test_brace_isomorphisms_match_bijection_scan():
    small = [B for B in BRACES if B.n <= 6]
    pairs = [(A, B) for A in small for B in small if A.n == B.n]
    pairs += [(A, _reversed_tail(B)) for A, B in pairs]
    pairs += [(B, B) for B in BRACES if B.n == 8]
    assert len(pairs) == 2 * 56 + 47
    for A, B in pairs:
        expected = _brace_isomorphisms_reference(A, B)
        assert brace_isomorphisms(A, B) == expected
        assert brace_isomorphisms(A, B, first_only=True) == expected[:1]
    assert brace_isomorphisms(small[-1], BRACES[-1]) == []  # orders 6 and 8


def test_direct_product_flags_and_order():
    B = direct_product(cyclic_brace(4, 2), trivial_brace(cyclic_group(3)))
    assert B.n == 12
    validate_skew_brace(B.add, B.mul)
    assert ker_lambda(B) != ()


@given(st.permutations(list(range(1, 4))))
def test_canonical_pair_relabeling_invariant(tail):
    sigma = [0] + list(tail)
    B = cyclic_brace(4, 2)
    add = as_rows(relabel(B.add.np_op, sigma).tolist())
    mul = as_rows(relabel(B.mul.np_op, sigma).tolist())
    C = validate_skew_brace(add, mul)
    assert canonical_pair(B) == canonical_pair(C)


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_canonical_pair_relabeling_invariant_order_8(tail):
    sigma = [0] + list(tail)
    B = opposite_brace(quaternion_group())
    add = as_rows(relabel(B.add.np_op, sigma).tolist())
    mul = as_rows(relabel(B.mul.np_op, sigma).tolist())
    C = validate_skew_brace(add, mul)
    assert canonical_pair(B) == canonical_pair(C)


def _canonical_pair_reference(B):
    """The per-automorphism loop canonical_pair replaced, with its own
    relabelling: cell (i, j) is sigma(mul[p(i)][p(j)]), p = sigma^-1."""
    add_c, sigma0 = canonical_form(B.add)
    mul8 = B.mul.np_op.astype(np.uint8)
    s0 = np.array(sigma0, dtype=np.uint8)
    best = None
    for alpha in automorphism_group(add_c):
        sigma = np.array(alpha, dtype=np.uint8)[s0]
        p = np.argsort(sigma)
        m = sigma[mul8[np.ix_(p, p)]].tobytes()
        if best is None or m < best:
            best = m
    return add_c.op, as_rows(np.frombuffer(best, dtype=np.uint8).reshape(B.n, B.n).tolist())


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_canonical_pair_matches_per_automorphism_reference(data):
    assert len(BRACES) == 62
    for B in BRACES:
        sigma = [0] + data.draw(st.permutations(range(1, B.n)))
        C = validate_skew_brace(
            relabel(B.add.np_op, sigma).tolist(), relabel(B.mul.np_op, sigma).tolist()
        )
        # catalog braces are already canonical
        assert canonical_pair(C) == _canonical_pair_reference(C) == (B.add.op, B.mul.op)


def test_canonical_brace_shares_the_additive_canonical_form():
    B = BRACES[-1]
    sigma = [0] + list(range(B.n - 1, 0, -1))
    C = validate_skew_brace(
        relabel(B.add.np_op, sigma).tolist(), relabel(B.mul.np_op, sigma).tolist()
    )
    assert canonical_brace(C).add is canonical_form(C.add)[0]
    # the 47 braces of order 8 hold one additive table per group of order 8
    adds = [canonical_brace(B).add for B in BRACES if B.n == 8]
    assert len(adds) == 47 and len({id(A) for A in adds}) == 5


def test_canonical_brace_copies_its_table_out_of_the_stack():
    # a view would keep the |Aut(A)| x n x n stack of relabelled tables alive
    # with the brace: 20,160 x 16 x 16 int64 cells over Z2^4
    over_z2_cubed = [B for B in BRACES if B.n == 8 and max(B.add.element_orders) == 2]
    assert len(over_z2_cubed) == 8
    for B in over_z2_cubed:
        assert canonical_brace(B).mul.np_op.base is None


def test_structure_flags_of_known_braces():
    assert structure_flags(cyclic_brace(4, 2)).two_sided
    assert structure_flags(trivial_brace(klein_four_group())).symmetric
    flags = structure_flags(opposite_brace(quaternion_group()))
    assert flags.two_sided and flags.symmetric
