"""Skew left braces on Cayley-table pairs: validation, lambda maps, star
products, ideals, quotients, series and nilpotency."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadCyclicParameter,
    DistributivityFails,
    IdentityMismatch,
    NotAnIdeal,
    ParseError,
    check_indices,
    require,
)
from .groups import (
    Bijection,
    ElementSet,
    GroupTable,
    automorphism_group,
    canonical_form,
    closure,
    direct_product_group,
    is_conjugation_closed,
    is_subgroup,
    isomorphisms,
    prime_divisors,
    quotient_table,
    relabel,
    subgroup_closure,
    trusted_group,
    validate_group,
)


@dataclass(frozen=True)
class SkewBrace:
    """Two group tables on a shared element set with identity 0, satisfying
    skew left distributivity.  Immutable; build via validate_skew_brace."""

    n: int
    add: GroupTable
    mul: GroupTable

    @cached_property
    def lambdas(self) -> np.ndarray:
        """lam[a, b] = -a + (a o b); each row is an automorphism of (B, +)."""
        arr = self.add.np_op[self.add.np_inv[:, None], self.mul.np_op]
        arr.flags.writeable = False
        return arr

    @cached_property
    def star_table(self) -> np.ndarray:
        """star[a, b] = lam_a(b) - b."""
        arr = self.add.np_op[self.lambdas, self.add.np_inv[None, :]]
        arr.flags.writeable = False
        return arr

    @cached_property
    def gamma_plus_table(self) -> np.ndarray:
        """[a, b]_+ = a + b - a - b."""
        return self.add.commutator_table

    @cached_property
    def gamma_circ_table(self) -> np.ndarray:
        """[a, b]_o = a o b o a^-1 o b^-1."""
        return self.mul.commutator_table

    @cached_property
    def centralizers(self) -> Centralizers:
        return _centralizers(self)

    @cached_property
    def ker_soc_ann(self) -> tuple[ElementSet, ElementSet, ElementSet]:
        """(Ker(lambda), Soc(B), Ann(B)), from the rows a with a + b = a o b,
        then also a + b = b + a, then also a o b = b o a, for all b; Ann is
        verified to be an ideal."""
        add, mul = self.add.np_op, self.mul.np_op
        ker = (add == mul).all(1)
        soc = ker & (add == add.T).all(1)
        ann = soc & (mul == mul.T).all(1)
        ker, soc, ann = (tuple(np.flatnonzero(m).tolist()) for m in (ker, soc, ann))
        require(classify_subset(self, ann).is_ideal, "Ann(B) is not an ideal")
        return ker, soc, ann

    @cached_property
    def ann_chain(self) -> tuple[ElementSet, ...]:
        """series(B, 'ann'), computed once per brace."""
        return tuple(_chain(self, "ann"))

    @cached_property
    def gamma_chain(self) -> tuple[ElementSet, ...]:
        """series(B, 'gamma'), computed once per brace."""
        return tuple(_chain(self, "gamma"))


@dataclass(frozen=True, eq=False)
class Centralizers:
    """The centralizer-style sets of every element as read-only n x n boolean
    masks (row x of cb is Cb(x), and so on), with the exact Pb."""

    cb: np.ndarray
    cb_left: np.ndarray
    cb_right: np.ndarray
    fix_left: np.ndarray
    fix_right: np.ndarray
    pb: Fraction


def _centralizers(B: SkewBrace) -> Centralizers:
    """Cb(x) = {b : x*b = 0, [x, b]_o = 0, [x, b]_+ = 0} for every x at once.

    Cross-checks: Cb = Cb^l & Cb^r, where Cb^l and Cb^r come from the lambda
    maps and the commutation masks of the two groups alone; every Cb(x) is a
    subgroup of (B, o); and the direct count of pairs with a*b = b*a = 0 and
    a + b = b + a equals the sum of the |Cb(x)|.
    """
    L, S = B.lambdas, B.star_table
    add, mul = B.add.np_op, B.mul.np_op
    ids = np.arange(B.n)
    fix_left = L.T == ids[:, None]  # lam_b(x) = x
    fix_right = L == ids[None, :]  # lam_x(b) = b
    cb_left = fix_left & (mul == mul.T)
    cb_right = fix_right & (add == add.T)
    cb = (S == 0) & (B.gamma_circ_table == 0) & (B.gamma_plus_table == 0)
    require((cb == (cb_left & cb_right)).all(), "Cb(x) != Cb^l(x) & Cb^r(x)")
    # cb[x, a o b] wherever a and b both lie in Cb(x)
    closed = (cb[:, mul] | ~(cb[:, :, None] & cb[:, None, :])).all()
    require(bool(cb[:, 0].all() and closed), "Cb(x) is not a subgroup of (B, o)")
    pairs = int(np.count_nonzero((S == 0) & (S.T == 0) & (add == add.T)))
    require(pairs == np.count_nonzero(cb), "pair count and centralizer sum disagree")
    masks = (cb, cb_left, cb_right, fix_left, fix_right)
    for m in masks:
        m.flags.writeable = False
    return Centralizers(*masks, pb=Fraction(pairs, B.n * B.n))


def distributivity_failures(
    add: np.ndarray, neg: np.ndarray, mul: np.ndarray, cs: Sequence[int] | slice = slice(None)
) -> np.ndarray:
    """Boolean mask, True at [a, b, k] where a o (b + c) != (a o b) - a + (a o c)
    for c = cs[k]; every c by default.

    For each a the law says that x -> -a + (a o x) is additive, so c need
    only run over a generating sequence of (B, +) to decide it.
    """
    lhs = mul[:, add[:, cs]]  # lhs[a,b,k] = a o (b + c)
    t1 = add[mul, neg[:, None]]  # (a o b) - a
    rhs = add[t1[:, :, None], mul[:, None, cs]]
    return lhs != rhs


def validate_skew_brace(
    add_table: Sequence[Sequence[int]] | GroupTable,
    mul_table: Sequence[Sequence[int]] | GroupTable,
) -> SkewBrace:
    """Validate both groups and skew left distributivity, with c over the
    additive generators; on failure DistributivityFails names the first
    failing (a, b, c) over all triples in row-major order."""
    add = add_table if isinstance(add_table, GroupTable) else validate_group(add_table)
    mul = mul_table if isinstance(mul_table, GroupTable) else validate_group(mul_table)
    if add.n != mul.n:
        raise IdentityMismatch(f"orders differ: {add.n} vs {mul.n}")
    if distributivity_failures(add.np_op, add.np_inv, mul.np_op, list(add.generators)).any():
        fails = distributivity_failures(add.np_op, add.np_inv, mul.np_op)
        a, b, c = np.argwhere(fails)[0].tolist()
        raise DistributivityFails(a, b, c)
    B = SkewBrace(n=add.n, add=add, mul=mul)
    _assert_lambda_laws(B)
    return B


def _assert_lambda_laws(B: SkewBrace) -> None:
    """lam_a is an additive automorphism; a -> lam_a is multiplicative-side
    homomorphic; a o b = a + lam_a(b).  These follow from the axioms, so a
    failure means a construction bug.

    Given the first law (so lam_0 = id) and bijective rows fixing 0, the
    other two hold for all arguments once they hold with c over the additive
    and b over the multiplicative generators: the c with lam_a(b + c) =
    lam_a(b) + lam_a(c) for all b, and the b with lam_(a o b) = lam_a lam_b
    for all a, contain 0 and are closed under the group operation.  Only a
    failure, or entries out of range, runs the per-row loop that names it.
    """
    L, add, mul = B.lambdas, B.add.np_op, B.mul.np_op
    n = B.n
    ids = np.arange(n)
    require((mul == add[ids[:, None], L]).all(), "a o b != a + lam_a(b)")
    if ((L >= 0) & (L < n)).all():
        hit = np.zeros((n, n), dtype=bool)
        hit[ids[:, None], L] = True  # row a marks the values of lam_a
        cs, bs = list(B.add.generators), list(B.mul.generators)
        if (
            hit.all()
            and (L[:, 0] == 0).all()
            and (L[:, add[:, cs]] == add[L[:, :, None], L[:, None, cs]]).all()
            and (L[mul[:, bs]] == L[:, L[bs]]).all()
        ):
            return
    for a in range(n):
        la = L[a]
        require(len(set(la.tolist())) == n and la[0] == 0, "lam_a is not bijective or moves 0")
        require((la[add] == add[la[:, None], la[None, :]]).all(), "lam_a is not additive")
        require((L[mul[a]] == la[L]).all(), "lam_(a o b) != lam_a . lam_b")


def star(B: SkewBrace, a: int, b: int) -> int:
    """a * b = lam_a(b) - b."""
    a, b = check_indices(B.n, a, b)
    return int(B.star_table[a, b])


def gamma_plus(B: SkewBrace, a: int, b: int) -> int:
    a, b = check_indices(B.n, a, b)
    return int(B.gamma_plus_table[a, b])


def gamma_circ(B: SkewBrace, a: int, b: int) -> int:
    a, b = check_indices(B.n, a, b)
    return int(B.gamma_circ_table[a, b])


def commutators(B: SkewBrace, a: int, b: int) -> tuple[int, int]:
    """Additive and multiplicative commutators of (a, b)."""
    return gamma_plus(B, a, b), gamma_circ(B, a, b)


# -- constructors ------------------------------------------------------------


def trivial_brace(G: GroupTable) -> SkewBrace:
    return validate_skew_brace(G, G)


def opposite_brace(G: GroupTable) -> SkewBrace:
    return validate_skew_brace(G, validate_group(G.np_op.T))


def cyclic_brace(n: int, d: int) -> SkewBrace:
    """Z_n with x o y = x + y + dxy; requires p | d | n for every prime p | n."""
    if n < 1 or d <= 0 or n % d != 0 or any(d % p != 0 for p in prime_divisors(n)):
        raise BadCyclicParameter(d, n)
    x, y = np.ogrid[:n, :n]
    return validate_skew_brace((x + y) % n, (x + y + d * x * y) % n)


def direct_product(B1: SkewBrace, B2: SkewBrace) -> SkewBrace:
    """Componentwise brace product with pair (i, j) encoded as i + B1.n * j."""
    return validate_skew_brace(
        direct_product_group(B1.add, B2.add), direct_product_group(B1.mul, B2.mul)
    )


# -- structure flags ---------------------------------------------------------


@dataclass(frozen=True)
class StructureFlags:
    trivial: bool
    two_sided: bool
    symmetric: bool
    lambda_homomorphic: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def is_two_sided(B: SkewBrace) -> bool:
    """(b + c) o a = (b o a) - a + (c o a) for all triples, as skew left
    distributivity on the transposed tables: (c + b) o a = (c o a) - a +
    (b o a) with c over the additive generators, the left summand.  That
    suffices: for fixed a, the x with (x + y) o a = (x o a) - a + (y o a)
    for all y contain 0 and are closed under +, a subgroup of (B, +)."""
    cs = list(B.add.generators)
    return not distributivity_failures(B.add.np_op.T, B.add.np_inv, B.mul.np_op.T, cs).any()


def is_symmetric(B: SkewBrace) -> bool:
    """Skew left distributivity with the roles of + and o swapped."""
    cs = list(B.mul.generators)
    return not distributivity_failures(B.mul.np_op, B.mul.np_inv, B.add.np_op, cs).any()


def is_lambda_homomorphic(B: SkewBrace) -> bool:
    """lam_{a+b} = lam_a . lam_b for all pairs.  The b where this holds for
    every a contain 0 and are closed under +, so b runs over the additive
    generators."""
    L, add = B.lambdas, B.add.np_op
    bs = list(B.add.generators)
    return bool((L[add[:, bs]] == L[:, L[bs]]).all())


def structure_flags(B: SkewBrace) -> StructureFlags:
    return StructureFlags(
        trivial=B.add.op == B.mul.op,
        two_sided=is_two_sided(B),
        symmetric=is_symmetric(B),
        lambda_homomorphic=is_lambda_homomorphic(B),
    )


# -- socle, annihilator, subsets, ideals ------------------------------------


def ker_lambda(B: SkewBrace) -> ElementSet:
    """{a : a + b = a o b for all b}."""
    return socle_and_annihilator(B)[0]


def socle_and_annihilator(B: SkewBrace) -> tuple[ElementSet, ElementSet, ElementSet]:
    """(Ker(lambda), Soc(B), Ann(B)), computed once per brace."""
    return B.ker_soc_ann


def annihilator(B: SkewBrace) -> ElementSet:
    return socle_and_annihilator(B)[2]


@dataclass(frozen=True)
class SubsetClass:
    is_sub_brace: bool
    is_left_ideal: bool
    is_ideal: bool


def classify_subset(B: SkewBrace, S: Iterable[int]) -> SubsetClass:
    members = set(check_indices(B.n, *S))
    sub = is_subgroup(B.add, members) and is_subgroup(B.mul, members)
    left_ideal = sub and members.issuperset(B.lambdas[:, list(members)].ravel().tolist())
    ideal = (
        left_ideal
        and is_conjugation_closed(B.add, members)
        and is_conjugation_closed(B.mul, members)
    )
    return SubsetClass(sub, left_ideal, ideal)


def sub_brace_closure(B: SkewBrace, S: Iterable[int]) -> ElementSet:
    """Smallest sub-skew brace containing S (closure in both groups)."""
    return closure((B.add.op, B.mul.op), S)


def ideal_closure(B: SkewBrace, S: Iterable[int]) -> ElementSet:
    """Smallest ideal containing S: a sub-skew brace closed under every lam_a
    and under conjugation in both groups."""
    actions = (B.lambdas.T.tolist(), B.add.conjugates, B.mul.conjugates)
    return closure((B.add.op, B.mul.op), S, actions=actions)


def quotient_brace(B: SkewBrace, I: Iterable[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient by an ideal; additive and multiplicative cosets coincide.

    Coset representatives are minimal elements; the coset of 0 maps to 0.
    """
    add_q, mul_q, cmap = quotient_tables(B, I)
    return validate_skew_brace(add_q, mul_q), cmap


def quotient_tables(B: SkewBrace, I: Iterable[int]) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The additive and multiplicative tables of B/I, not yet validated, and
    the coset map; raises NotAnIdeal unless I is an ideal, and checks that
    the two groups have the same cosets."""
    members = sorted(set(check_indices(B.n, *I)))
    if not classify_subset(B, members).is_ideal:
        raise NotAnIdeal(f"{members} is not an ideal")
    add_q, cmap = quotient_table(B.add, members)
    mul_q, mul_cmap = quotient_table(B.mul, members)
    require(cmap == mul_cmap, "additive and multiplicative cosets differ")
    return add_q, mul_q, cmap


# -- series and nilpotency ---------------------------------------------------


def series(B: SkewBrace, kind: str) -> list[ElementSet]:
    """Terms of one of the four standard chains, until stabilization, as a
    new list.

    kind 'ann' ascends from Ann(B).  'gamma', 'star_left' and 'star_right'
    descend from B: after G comes the additive subgroup generated by B*G,
    G*B and [B, G]_+, by B*G, or by G*B, read from the tables.  Gamma and
    star_right terms are verified to be ideals, star_left terms left ideals.
    The ann and gamma chains are kept on the brace; the star chains are
    derived per call.
    """
    if kind == "ann":
        return list(B.ann_chain)
    if kind == "gamma":
        return list(B.gamma_chain)
    return _chain(B, kind)


def _chain(B: SkewBrace, kind: str) -> list[ElementSet]:
    """The terms of series(B, kind), derived from the tables."""
    S, gp = B.star_table, B.gamma_plus_table
    if kind == "ann":
        terms = [annihilator(B)]
        while True:
            prev = np.zeros(B.n, dtype=bool)
            prev[list(terms[-1])] = True
            # a joins when a*b, b*a and [a, b]_+ lie in the previous term for all b
            nxt = tuple(np.flatnonzero((prev[S] & prev[S.T] & prev[gp]).all(axis=1)).tolist())
            if nxt == terms[-1] or len(terms) > B.n:
                break
            terms.append(nxt)
        return terms
    if kind not in ("gamma", "star_left", "star_right"):
        raise ParseError(f"unknown series kind {kind!r}")
    terms = [tuple(range(B.n))]
    while True:
        prev = list(terms[-1])
        gens = np.zeros(B.n, dtype=bool)
        if kind != "star_right":
            gens[S[:, prev]] = True  # B * G
        if kind != "star_left":
            gens[S[prev, :]] = True  # G * B
        if kind == "gamma":
            gens[gp[:, prev]] = True  # [B, G]_+
        nxt = subgroup_closure(B.add, np.flatnonzero(gens).tolist())
        require(kind != "gamma" or set(nxt) <= set(prev), "gamma series is not descending")
        if nxt == terms[-1] or len(terms) > B.n:
            return terms
        sub = classify_subset(B, nxt)
        require(kind != "gamma" or sub.is_ideal, "gamma term is not an ideal")
        require(kind != "star_left" or sub.is_left_ideal, "star_left term not a left ideal")
        require(kind != "star_right" or sub.is_ideal, "star_right term is not an ideal")
        terms.append(nxt)


def nilpotency_class(B: SkewBrace) -> Optional[int]:
    """Least n with Ann_n(B) = B, or None; cross-checked against the
    vanishing of the gamma chain."""
    if B.n == 1:
        return 0
    ann_terms = series(B, "ann")
    gamma_terms = series(B, "gamma")
    gamma_vanishes = gamma_terms[-1] == (0,)
    if len(ann_terms[-1]) == B.n:
        cls = len(ann_terms)
        require(gamma_vanishes and len(gamma_terms) == cls + 1, "ann and gamma classes differ")
        return cls
    require(not gamma_vanishes, "gamma chain vanishes but ann chain stops short of B")
    return None


# -- brace isomorphisms and canonical forms ----------------------------------


def brace_isomorphisms(
    A: SkewBrace, B: SkewBrace, first_only: bool = False
) -> list[Bijection]:
    """Bijections that are isomorphisms for both tables, sorted by map: the
    additive isomorphisms, already sorted, that also preserve o."""
    out = []
    for f in isomorphisms(A.add, B.add):
        m = np.array(f)
        if (m[A.mul.np_op] == B.mul.np_op[m[:, None], m[None, :]]).all():
            out.append(f)
            if first_only:
                break
    return out


def is_brace_isomorphic(A: SkewBrace, B: SkewBrace) -> bool:
    return bool(brace_isomorphisms(A, B, first_only=True))


def canonical_pair(B: SkewBrace) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Lexicographically minimal (add, mul) table pair over relabelings
    fixing 0: the tables of canonical_brace(B)."""
    C = canonical_brace(B)
    return C.add.op, C.mul.op


def canonical_brace(B: SkewBrace) -> SkewBrace:
    """The relabeling of B fixing 0 with the lexicographically minimal
    (add, mul) table pair.

    The minimizers of the add component are exactly sigma0 o alpha, for the
    witness sigma0 of the additive canonical form and every alpha in
    Aut(B.add), so only those need scanning for the mul component: all of
    them are applied to the mul table at once, and the row-major least
    result is kept, copied out of the stack of tables.
    """
    add_c, sigma0 = canonical_form(B.add)
    sigmas = np.array(sigma0)[np.array(automorphism_group(B.add))]  # sigma0 . alpha_k
    tables = relabel(B.mul.np_op, sigmas)
    least = tables[np.lexsort(tables.reshape(len(sigmas), -1).T[::-1])[0]]
    return SkewBrace(n=B.n, add=add_c, mul=trusted_group(least.copy()))


def sub_braces(B: SkewBrace) -> list[ElementSet]:
    """All sub-skew braces, sorted by (order, members): the subgroups of
    (B, +) that are closed under o, from the subgroup lattice kept on the
    additive table."""
    return [H for H in B.add.subgroups if is_subgroup(B.mul, H)]


def ideals(B: SkewBrace) -> list[ElementSet]:
    return [S for S in sub_braces(B) if classify_subset(B, S).is_ideal]
