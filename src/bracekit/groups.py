"""Finite group arithmetic on Cayley tables.

Groups are given as n x n multiplication tables over elements 0..n-1 with the
identity pinned at index 0.  Element subsets are sorted tuples of indices and
bijections (isomorphisms, automorphisms) are length-n tuples mapping old index
to new index.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Container, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    IdentityNotZero,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    check_indices,
    require,
)

ElementSet = tuple[int, ...]
Bijection = tuple[int, ...]


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a Cayley table with identity 0.  Immutable; built
    by trusted_group, with the table and the inverses also as read-only
    int64 arrays."""

    n: int
    op: tuple[tuple[int, ...], ...]
    np_op: np.ndarray = field(compare=False, repr=False)
    np_inv: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.np_op == self.np_op.T).all())

    @cached_property
    def commutator_table(self) -> np.ndarray:
        """comm[x, y] = x y x^-1 y^-1."""
        op, inv = self.np_op, self.np_inv
        arr = op[op[op, inv[:, None]], inv[None, :]]
        arr.flags.writeable = False
        return arr

    @cached_property
    def conjugations(self) -> tuple[tuple[int, ...], ...]:
        """Row k is the map x -> g x g^-1 for g the k-th generator."""
        op, gens = self.np_op, list(self.generators)
        return tuple(map(tuple, op[op[gens], self.np_inv[gens, None]].tolist()))

    @cached_property
    def generators(self) -> ElementSet:
        return generators(self.op)

    @cached_property
    def subgroups(self) -> tuple[ElementSet, ...]:
        """Every subgroup, sorted by (order, members): from the trivial
        subgroup, the closure of each subgroup found with each element
        outside it, until no closure is new."""
        found = [(0,)]
        for S in found:  # found grows while it is walked
            for g in range(1, self.n):
                if g not in S:
                    T = closure((self.op,), S + (g,))
                    if T not in found:
                        found.append(T)
        return tuple(sorted(found, key=lambda s: (len(s), s)))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for a in range(self.n):
            k, x = 1, a
            while x != 0:
                x = self.op[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)


def trusted_group(table: Sequence[Sequence[int]] | np.ndarray) -> GroupTable:
    """The GroupTable of a table known to be a group, unchecked: the one
    constructor.  validate_group calls it once the rows are permutations,
    and relabelings of a group come here directly.  An int64 array is kept,
    not copied, and made read-only.  The inverse of x is the column of the
    0 in row x."""
    arr = np.asarray(table, dtype=np.int64)
    inv = arr.argmin(axis=1)
    arr.flags.writeable = inv.flags.writeable = False
    op = tuple(map(tuple, arr.tolist()))
    return GroupTable(n=len(op), op=op, np_op=arr, np_inv=inv)


def validate_group(table: Sequence[Sequence[int]]) -> GroupTable:
    """Validate a Cayley table and return the corresponding GroupTable.

    Each test runs once on the int64 table and raises for the first cell it
    finds: NotLatinSquare out of range, row-major; IdentityNotZero in row 0,
    then column 0; NotLatinSquare at the first repeat of the first row that
    is not a permutation.  Light's test takes z over the generating sequence
    S: the z with (xy)z = x(yz) for all x, y include 0 and are closed under
    products, so they are everything once they hold S.  The columns need no
    test before it: an associative table with identity whose rows are
    permutations has inverses.  A table that fails it is searched for the
    first repeat in a column, column-major, then for the first bad triple.
    The GroupTable is built once the rows are permutations, for the
    generating sequence, and returned once Light's test passes.
    """
    cells, arr = _square_cells(table)
    n = len(cells)
    out = (cells < 0) | (cells >= n)
    if out.any():
        i, j = map(int, np.argwhere(out)[0])
        raise NotLatinSquare(i, j, int(cells[i, j]))
    ids = np.arange(n)
    off_row, off_col = np.flatnonzero(arr[0] != ids), np.flatnonzero(arr[:, 0] != ids)
    if len(off_row):
        raise IdentityNotZero(0, int(off_row[0]))
    if len(off_col):
        raise IdentityNotZero(int(off_col[0]), 0)
    repeat = _first_repeat(arr)
    if repeat is not None:
        i, j = repeat
        raise NotLatinSquare(i, j, int(arr[i, j]))
    G = trusted_group(arr)
    C = arr[:, list(G.generators)]  # C[y, k] = y s_k
    if not (C[arr] == np.take(arr, C, axis=1)).all():
        repeat = _first_repeat(arr.T)
        if repeat is not None:
            j, i = repeat
            raise NotLatinSquare(i, j, int(arr[i, j]))
        bad = np.argwhere(arr[arr] != arr[:, arr])  # (xy)z != x(yz) at [x, y, z]
        require(len(bad) > 0, "Light's test and the associativity scan disagree")
        raise NotAssociative(*map(int, bad[0]))
    return G


def _first_repeat(arr: np.ndarray) -> Optional[tuple[int, int]]:
    """(i, j) for the first row i of a square table over 0..n-1 that is not
    a permutation and the first j whose value occurs earlier in row i, or
    None if every row is a permutation."""
    n = len(arr)
    in_row = np.zeros((n, n), dtype=bool)
    in_row[np.arange(n)[:, None], arr] = True  # the value of cell (i, j) occurs in row i
    if in_row.all():
        return None
    i = int(np.argmin(in_row.all(axis=1)))
    first = np.zeros(n, dtype=bool)
    first[np.unique(arr[i], return_index=True)[1]] = True  # the first cell of each value
    return i, int(np.argmin(first))


def _square_cells(table: Sequence[Sequence[int]]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The cells as an array and as an int64 array: the same one, or None
    where some cell does not fit and the cells are Python ints.  Raises for
    an empty or a non-square table, at a table or row that is not iterable
    (as cell (0, 0) or (i, 0) of that value), or at the first cell, in
    row-major order, that is not an integer.

    A table numpy reads as a square integer array is converted once, by
    numpy.  Anything else (huge ints, ragged rows, non-integer cells) is
    read cell by cell with operator.index, which takes Python and numpy
    ints but not floats or strings.
    """
    try:
        arr = np.array(table)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.dtype.kind == "i" and arr.ndim == 2 and len(arr) == arr.shape[1] > 0:
        arr = arr.astype(np.int64, copy=False)
        return arr, arr
    rows = enumerate(_cells(0, table))
    op = tuple(tuple(_int_cell(i, j, v) for j, v in enumerate(_cells(i, row))) for i, row in rows)
    n = len(op)
    if n == 0:
        raise IdentityNotZero(0, 0)
    for i, row in enumerate(op):
        if len(row) != n:
            raise NotLatinSquare(i, len(row), -1)
    try:
        arr = np.array(op, dtype=np.int64)
    except OverflowError:
        return np.array(op, dtype=object), None
    return arr, arr


def _cells(i: int, v: object) -> Iterable:
    """iter(v), or NotLatinSquare(i, 0, v) if v is not iterable."""
    try:
        return iter(v)
    except TypeError:
        raise NotLatinSquare(i, 0, v) from None


def _int_cell(i: int, j: int, v: object) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise NotLatinSquare(i, j, v) from None


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def centralizer(G: GroupTable, x: int) -> ElementSet:
    """Elements commuting with x."""
    (x,) = check_indices(G.n, x)
    return tuple(np.flatnonzero(G.np_op[x] == G.np_op[:, x]).tolist())


def center(G: GroupTable) -> ElementSet:
    return tuple(np.flatnonzero((G.np_op == G.np_op.T).all(axis=1)).tolist())


def closure(
    tables: Sequence[Sequence[Sequence[int]]],
    S: Iterable[int],
    actions: Sequence[Sequence[Sequence[int]]] = (),
) -> ElementSet:
    """Smallest set containing 0 and S that is closed under every table and
    every action, as a sorted tuple.

    A table is a square table with identity 0, not necessarily a group;
    closure under it adds the products of members in both orders.  In a
    finite group that is the generated subgroup, since inverses are positive
    powers.  An action is a map, as a row: the image of x must join
    whenever x does, e.g. a conjugation.  Worklist fixpoint: each new
    member is combined once with every member present when it is taken up,
    and later members are combined with it in turn.
    """
    n = len((tables or actions)[0])
    members = {0}
    work = []
    for s in check_indices(n, *S):
        if s not in members:
            members.add(s)
            work.append(s)
    for x in work:
        images = [act[x] for act in actions]
        for t in tables:
            row = t[x]
            images += [row[y] for y in members]
            images += [t[y][x] for y in members]
        for z in images:
            if z not in members:
                members.add(z)
                work.append(z)
    return tuple(sorted(members))


def subgroup_closure(G: GroupTable, S: Iterable[int]) -> ElementSet:
    """Smallest subgroup of G containing S."""
    return closure((G.op,), S)


def is_subgroup(G: GroupTable, H: Iterable[int]) -> bool:
    """Whether H contains 0 and is closed under products (so, being finite,
    under inverses too)."""
    return members_form_subgroup(G, set(check_indices(G.n, *H)))


def members_form_subgroup(G: GroupTable, members: set[int]) -> bool:
    """is_subgroup of checked ints, by a greedy walk inside them: a member
    not yet reached from 0 becomes a generator, each reached member is
    multiplied once by each generator, and the first product outside fails.
    Else H is what the walk reached, the subgroup its generators generate,
    after |H| |gens| products."""
    if 0 not in members:
        return False
    op, reached, gens, seen = G.op, [0], [], {0}
    for g in members:
        if g in seen:
            continue
        gens.append(g)
        known = len(reached)
        for i, x in enumerate(reached):  # reached grows while it is walked
            row = op[x]
            for h in gens if i >= known else gens[-1:]:
                y = row[h]
                if y not in seen:
                    if y not in members:
                        return False
                    seen.add(y)
                    reached.append(y)
    return True


def is_conjugation_closed(G: GroupTable, H: Iterable[int]) -> bool:
    """Whether g h g^-1 lies in H for every g in G and h in H.  The g with
    g H g^-1 inside H contain 0 and are closed under products, so they form
    a subgroup, and g runs over the generators alone."""
    return closed_under_maps(set(check_indices(G.n, *H)), G.conjugations)


def closed_under_maps(members: set[int], maps: Iterable[Sequence[int]]) -> bool:
    """Whether each map, given as a row, sends the checked ints members into
    members."""
    return all(members.issuperset(map(row.__getitem__, members)) for row in maps)


def is_normal(G: GroupTable, H: Iterable[int]) -> bool:
    members = set(check_indices(G.n, *H))
    return members_form_subgroup(G, members) and closed_under_maps(members, G.conjugations)


def conjugacy_class_sizes(G: GroupTable) -> tuple[int, ...]:
    """The class sizes, sorted: the orbits of the conjugations by the
    generators, which generate every conjugation."""
    seen, sizes = [False] * G.n, []
    for x in range(G.n):
        if not seen[x]:
            seen[x] = True
            orbit = [x]
            for y in orbit:  # orbit grows while it is walked
                for row in G.conjugations:
                    if not seen[row[y]]:
                        seen[row[y]] = True
                        orbit.append(row[y])
            sizes.append(len(orbit))
    return tuple(sorted(sizes))


def quotient_group(G: GroupTable, H: Iterable[int]) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient of G by a normal subgroup H; returns (quotient, coset map)."""
    table, cmap = quotient_table(G, H)
    return validate_group(table), cmap


def quotient_table(G: GroupTable, H: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Cayley table of G/H, not yet validated, and the coset map;
    raises NotNormal unless H is a normal subgroup."""
    members = set(check_indices(G.n, *H))
    if not (members_form_subgroup(G, members) and closed_under_maps(members, G.conjugations)):
        raise NotNormal(f"subgroup {sorted(members)} is not normal")
    return coset_table(G, members)


def coset_table(G: GroupTable, members: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """quotient_table of the checked ints of a normal subgroup, unchecked.
    Cosets are labelled by rank of their least member, 0 for the identity."""
    # row x of np_op[:, H] is the coset xH, and x represents it if x is its least element
    mins = G.np_op[:, list(members)].min(axis=1)
    is_rep = mins == np.arange(G.n)
    reps = np.flatnonzero(is_rep)
    cmap = (np.cumsum(is_rep) - 1)[mins]
    return cmap[G.np_op[np.ix_(reps, reps)]], tuple(cmap.tolist())


def greedy_generators(elements: Sequence, product: Callable) -> list:
    """Greedy generating sequence of elements (identity first) under product,
    e.g. a Cayley table's indices or Aut(A)'s permutations: each generator
    is the first element not yet reachable from the identity by right
    products with the earlier ones.  In a group, the first element outside
    the subgroup the earlier ones generate.

    Incremental: when g joins, the elements reached so far are multiplied by
    g alone, and each newly reached element by every generator, so each
    product is taken once.
    """
    members = [elements[0]]
    reached = set(members)
    gens: list = []
    for g in elements:
        if len(members) == len(elements):
            break
        if g in reached:
            continue
        gens.append(g)
        known = len(members)
        for i, x in enumerate(members):  # members grows while it is walked
            for h in gens if i >= known else gens[-1:]:
                y = product(x, h)
                if y not in reached:
                    reached.add(y)
                    members.append(y)
    return gens


def generators(op: Sequence[Sequence[int]]) -> ElementSet:
    """greedy_generators of a square table with identity 0, in index order."""
    return tuple(greedy_generators(range(len(op)), lambda x, g: op[x][g]))


def _extend_by_words(
    G: GroupTable, H: GroupTable, gens: Sequence[int], images: Sequence[int]
) -> Optional[Bijection]:
    """The isomorphism G -> H sending the generators gens of G to images, or
    None.  One walk from 0 by right products with the generators defines
    img(x g) = img(x) img(g) on all of G; the map is kept if it is a
    bijective homomorphism."""
    img = [0] + [-1] * (G.n - 1)
    walk = [0]
    for x in walk:  # walk grows while it is read
        for g, im in zip(gens, images):
            y = G.op[x][g]
            if img[y] < 0:
                img[y] = H.op[img[x]][im]
                walk.append(y)
    mapped = tuple(img)
    if sorted(mapped) != list(range(G.n)):
        return None
    m = np.array(mapped)
    if not (m[G.np_op] == H.np_op[m[:, None], m[None, :]]).all():
        return None
    return mapped


def isomorphisms(
    G: GroupTable, H: GroupTable, first_only: bool = False
) -> list[Bijection]:
    """All group isomorphisms G -> H, lexicographically sorted by map.

    Tries every injective choice of generator images of matching element
    orders, once the element-order and conjugacy-class profiles agree.
    """
    if G.n != H.n:
        return []
    if sorted(G.element_orders) != sorted(H.element_orders):
        return []
    if conjugacy_class_sizes(G) != conjugacy_class_sizes(H):
        return []
    gens = G.generators
    cands = [
        [y for y in range(H.n) if H.element_orders[y] == G.element_orders[g]]
        for g in gens
    ]
    out: list[Bijection] = []
    for images in itertools.product(*cands):
        if len(set(images)) < len(images):
            continue
        m = _extend_by_words(G, H, gens, images)
        if m is not None:
            out.append(m)
            if first_only:
                break
    out.sort()
    return out


def is_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    return bool(isomorphisms(G, H, first_only=True))


@lru_cache(maxsize=None)
def automorphism_group(G: GroupTable) -> tuple[Bijection, ...]:
    """Aut(G), sorted by map; a tuple, so callers share the cached value."""
    return tuple(isomorphisms(G, G))


def relabel(G_op: np.ndarray, sigma: Sequence[int] | np.ndarray) -> np.ndarray:
    """Relabel a Cayley table by a bijection sigma (old index -> new index):
    cell (i, j) becomes sigma(op[p(i)][p(j)]), for p the inverse of sigma.
    A k x n stack of bijections gives the k x n x n stack of tables."""
    s = np.asarray(sigma)
    p = np.argsort(s, axis=-1)  # preimages: p[new] = old
    return np.take_along_axis(s[..., None, :], G_op[p[..., :, None], p[..., None, :]], axis=-1)


@lru_cache(maxsize=None)
def canonical_form(G: GroupTable) -> tuple[GroupTable, Bijection]:
    """Lexicographically minimal relabeling of G fixing 0, with a witness map.

    The table is the row-major lexmin of relabel(G.np_op, sigma) over all
    bijections sigma (old -> new) with sigma[0] = 0; the witness is the
    lex-smallest sigma attaining it.

    Write p for the inverse of sigma, x = p[1] and m for the least order
    above 1 in G.  Row 1 sends label j to the label of x p[j]: a permutation
    whose cycles are the right cosets of <x>, of length ord(x).  It is least,
    1, ..., m-1, 0, m+1, ..., 2m-1, m, ..., exactly when ord(x) = m and the
    labels go out m at a time along those cosets: 0..m-1 to x^0..x^(m-1),
    then k..k+m-1 to u, xu, ..., x^(m-1) u for an unlabelled u, and so on.
    There are |{x : ord x = m}| * (n-m) * (n-2m) * ... * m such relabelings:
    15 * 14 * 12 * ... * 2 = 9,676,800 for Z2^4.

    Aut(G) acts freely on them by p -> alpha p, and relabelings in one orbit
    give the same table (McKay-Piperno, Practical graph isomorphism II, JSC
    60, 2014).  So the search walks one per orbit, and checks that it walked
    the count above over |Aut(G)|, 480 for Z2^4: x least in its Aut(G)-orbit,
    then each u least in its orbit under the automorphisms fixing x and every
    labelled element, which fix the coset <x> u.  Leaves are compared on
    rows m..n-1, as rows 0..m-1 are the same at each.  The relabelings that
    give the least table are sigma o alpha, for its leaf sigma and every
    alpha in Aut(G); the witness is the least of them, found by one lexsort.
    """
    n = G.n
    if n == 1:
        return G, (0,)
    op, orders = G.op, G.element_orders
    auts = np.array(automorphism_group(G))
    m = min(k for k in orders if k > 1)
    label = [-1] * n  # sigma, -1 while unlabelled
    pre = [0] * n  # p on the labels handed out so far
    best: list[list[int]] = []  # rows m..n-1 of the least table so far
    best_sigma: Bijection = ()
    leaves = 0

    def walk(k: int, u: int, stab: np.ndarray) -> None:
        # labels 0..k-1 are handed out, stab fixes their elements: give k..k+m-1 to <x> u
        nonlocal best, best_sigma, leaves
        y = u
        for i in range(k, k + m):
            label[y], pre[i] = i, y
            y = xrow[y]
        if k + m == n:
            leaves += 1
            for p, b in zip(pre[m:], best):  # up to the first row that differs
                row = [label[y] for y in map(op[p].__getitem__, pre)]
                if row != b:
                    break
            if not best or row < b:
                best = [[label[y] for y in map(op[p].__getitem__, pre)] for p in pre[m:]]
                best_sigma = tuple(label)
        else:
            if len(stab) > 1:  # else stab is the identity alone, and each orbit one element
                stab = stab[stab[:, u] == u]
            least = stab.min(axis=0) if len(stab) > 1 else stab[0]  # least of each orbit
            for v in range(1, n):
                if label[v] < 0 and least[v] == v:
                    walk(k + m, v, stab)
        for y in pre[k : k + m]:
            label[y] = -1

    least = auts.min(axis=0)
    for x in range(1, n):
        if orders[x] == m and least[x] == x:
            xrow = op[x]  # y -> x y
            walk(0, 0, auts[auts[:, x] == x])
    del walk  # walk refers to itself: free it now, not at the next gc
    walks = orders.count(m) * math.prod(range(n - m, 0, -m))
    require(leaves * len(auts) == walks, "leaves times |Aut(G)| is not the coset-walk count")
    sigmas = np.array(best_sigma)[auts]  # sigma o alpha for every alpha
    witness = tuple(sigmas[np.lexsort(sigmas.T[::-1])[0]].tolist())
    return trusted_group(relabel(G.np_op, witness)), witness


def group_commuting_probability(G: GroupTable) -> Fraction:
    """Pr(G): fraction of commuting pairs, exact."""
    count = int((G.np_op == G.np_op.T).sum())
    return Fraction(count, G.n * G.n)


# -- standard small groups ---------------------------------------------------


def cyclic_group(n: int) -> GroupTable:
    return validate_group([[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product_group(G: GroupTable, H: GroupTable) -> GroupTable:
    """Direct product with pair (i, j) encoded as i + G.n * j."""
    pairs = np.arange(G.n * H.n)
    i, j = pairs % G.n, pairs // G.n
    return validate_group(G.np_op[i[:, None], i] + G.n * H.np_op[j[:, None], j])


def klein_four_group() -> GroupTable:
    return direct_product_group(cyclic_group(2), cyclic_group(2))


def dihedral_group(m: int) -> GroupTable:
    """Dihedral group of order 2m: rotations r^i -> i, reflections s r^i -> m + i."""
    n = 2 * m

    def mul(a: int, b: int) -> int:
        ra, fa = a % m, a // m
        rb, fb = b % m, b // m
        # (s^fa r^ra)(s^fb r^rb) = s^(fa+fb) r^(rb + (-1)^fb ra)  with s r = r^-1 s
        r = (rb + (ra if fb == 0 else -ra)) % m
        return r + m * ((fa + fb) % 2)

    return validate_group([[mul(a, b) for b in range(n)] for a in range(n)])


def quaternion_group() -> GroupTable:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k as indices 0..7: unit
    u (1, i, j, k as 0..3) and sign bit s at index 2u + s."""

    def mul(a: int, b: int) -> int:
        u, v = a >> 1, b >> 1
        # units multiply as u ^ v (ij = k, jk = i, ki = j); the sign of a
        # product of i, j, k flips unless v follows u in the cycle i -> j -> k
        neg = u and v and (v - u) % 3 != 1
        return 2 * (u ^ v) + ((a ^ b) & 1 ^ neg)

    return validate_group([[mul(a, b) for b in range(8)] for a in range(8)])


# -- holomorph and regular subgroups ----------------------------------------


@dataclass(frozen=True)
class Holomorph:
    """Hol(G) = G x Aut(G) acting faithfully on 0..G.n-1 as x -> a + phi(x),
    as its permutations in lexicographic order, so the identity is element 0."""

    group: GroupTable
    perms: tuple[tuple[int, ...], ...]


def holomorph(G: GroupTable) -> Holomorph:
    """Row (a, phi) of the gather is x -> a phi(x).  It sends 0 to a, so it
    determines a and then phi: the n |Aut(G)| rows are distinct."""
    rows = G.np_op[:, np.array(automorphism_group(G))].reshape(-1, G.n)
    return Holomorph(group=G, perms=tuple(map(tuple, rows[np.lexsort(rows.T[::-1])].tolist())))


def _uniform_cycle_length(perm: Sequence[int]) -> Optional[int]:
    """Cycle length if all cycles of perm have equal length > 1, else None."""
    n = len(perm)
    seen = [False] * n
    length = None
    for start in range(n):
        if seen[start]:
            continue
        k, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            k += 1
        if k == 1:
            return None
        if length is None:
            length = k
        elif length != k:
            return None
    return length


def regular_subgroups(hol: Holomorph) -> list[tuple[Bijection, ...]]:
    """All order-n subgroups of Hol acting regularly on 0..n-1, each as its
    Cayley table: the members ordered by image of 0, so row a is the member
    sending 0 to a and the rows are objects of hol.perms.  Sorted.  The
    search runs through every member sending 0 to 1."""
    found = regular_subgroups_through(hol, range(len(hol.perms)))
    return sorted(tuple(map(hol.perms.__getitem__, N)) for N in found)


def regular_subgroups_through(hol: Holomorph, members: Container[int]) -> list[ElementSet]:
    """The regular subgroups of Hol that hold hol.perms[i] for some i in
    members with hol.perms[i] sending 0 to 1 (for n = 1, the trivial one),
    each keyed by the hol.perms indices of its Cayley table rows (N[a] sends
    0 to a), in search order.

    Only the identity and the fixed-point-free elements with uniform cycle
    length (the candidates) can sit in a semiregular subgroup T, held as a
    dict from image of 0 to member.  A uniform cycle length L always divides
    n, since the n points fall into n/L cycles.  T is extended by each
    candidate sending 0 to m, the least point outside T's orbit of 0: a
    regular N containing T holds exactly one, so each N is reached along
    one path.  At the root, m = 1 and only the candidates in members are
    tried.  A semiregular subgroup of order n is regular.
    """
    n = hol.group.n
    index = {}  # candidate -> its index in hol.perms
    by_image: list[list[Bijection]] = [[] for _ in range(n)]
    for i, perm in enumerate(hol.perms):
        if i == 0 or _uniform_cycle_length(perm) is not None:
            index[perm] = i
            if perm[0] != 1 or i in members:
                by_image[perm[0]].append(perm)
    found: list[ElementSet] = []

    def extend(T: dict[int, Bijection]) -> None:
        if len(T) == n:
            found.append(tuple(index[T[a]] for a in range(n)))
            return
        m = next(x for x in range(n) if x not in T)
        for g in by_image[m]:
            U = _semiregular_closure(T, g, index)
            if U is not None:
                extend(U)

    extend({0: hol.perms[0]})
    del extend  # extend refers to itself: free it and the candidates now, not at the next gc
    return found


def _semiregular_closure(T: dict[int, Bijection], g: Bijection, candidates: dict) -> Optional[dict]:
    """The group generated by the group T and g, keyed by image of 0; None
    once a member is not in candidates or shares its image of 0 with
    another.  It is the union of right cosets T r, from r = g, each new one
    joining whole (Dimino's algorithm), with r s a further representative
    for every s in T and g.

    Kept apart from closure: Hol has no Cayley table, its members are
    permutations keyed by image of 0, and a candidate is rejected at its
    first bad product."""
    members = list(T.values())
    U = dict(T)
    reps = [g]
    for r in reps:  # reps grows while it is walked
        held = U.get(r[0])
        if held is not None:
            if held != r:
                return None
            continue
        for t in members:
            p = tuple(map(t.__getitem__, r))  # t after r
            if p[0] in U or p not in candidates:
                return None
            U[p[0]] = p
        reps += [tuple(map(r.__getitem__, s)) for s in members + [g]]
    return U
