"""Isoclinism of skew braces: commutator data, witness search, stem detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .braces import (
    SkewBrace,
    annihilator,
    brace_isomorphisms,
    quotient_brace,
    series,
    validate_skew_brace,
)
from .errors import require
from .groups import Bijection, ElementSet


@dataclass(frozen=True)
class IsoclinismData:
    """Quotient by the annihilator, the first derived ideal as a brace, and
    the two commutator maps over quotient pairs."""

    quotient: SkewBrace
    gamma2: SkewBrace
    gamma2_members: ElementSet
    phi_plus: tuple[tuple[int, ...], ...]
    phi_star: tuple[tuple[int, ...], ...]


def gamma2(B: SkewBrace) -> ElementSet:
    terms = series(B, "gamma")
    # a one-term chain means the series already stabilized at its first term
    return terms[1] if len(terms) > 1 else terms[0]


def induced_brace(B: SkewBrace, members: ElementSet) -> SkewBrace:
    """Sub-brace on members with elements relabelled by rank (0 stays 0)."""
    idx = {x: i for i, x in enumerate(members)}
    add = [[idx[B.add.op[x][y]] for y in members] for x in members]
    mul = [[idx[B.mul.op[x][y]] for y in members] for x in members]
    return validate_skew_brace(add, mul)


def isoclinism_data(B: SkewBrace) -> IsoclinismData:
    """Build the commutator maps over coset representatives and re-check
    representative independence over every pair of elements."""
    ann = annihilator(B)
    quotient, cmap = quotient_brace(B, ann)
    g2 = gamma2(B)
    g2_brace = induced_brace(B, g2)
    g2_idx = {x: i for i, x in enumerate(g2)}
    m = quotient.n
    reps = [cmap.index(i) for i in range(m)]
    phi_plus = tuple(
        tuple(g2_idx[int(B.gamma_plus_table[a, b])] for b in reps) for a in reps
    )
    phi_star = tuple(
        tuple(g2_idx[int(B.star_table[a, b])] for b in reps) for a in reps
    )
    require(
        all(
            g2_idx[int(B.gamma_plus_table[a, b])] == phi_plus[cmap[a]][cmap[b]]
            and g2_idx[int(B.star_table[a, b])] == phi_star[cmap[a]][cmap[b]]
            for a in range(B.n)
            for b in range(B.n)
        ),
        "commutator maps depend on the coset representatives",
    )
    return IsoclinismData(
        quotient=quotient,
        gamma2=g2_brace,
        gamma2_members=g2,
        phi_plus=phi_plus,
        phi_star=phi_star,
    )


@dataclass(frozen=True)
class IsoclinismWitness:
    """A commuting pair of brace isomorphisms (quotient map, gamma2 map)."""

    xi: Bijection
    theta: Bijection

    def to_json_dict(self) -> dict:
        return {"xi": list(self.xi), "theta": list(self.theta)}


def _diagram_commutes(
    dA: IsoclinismData, dB: IsoclinismData, xi: Sequence[int], theta: Sequence[int]
) -> bool:
    m = dA.quotient.n
    for i in range(m):
        for j in range(m):
            if theta[dA.phi_plus[i][j]] != dB.phi_plus[xi[i]][xi[j]]:
                return False
            if theta[dA.phi_star[i][j]] != dB.phi_star[xi[i]][xi[j]]:
                return False
    return True


def are_isoclinic(A: SkewBrace, B: SkewBrace) -> Optional[IsoclinismWitness]:
    """First witness pair in canonical (lexicographic xi, then theta) order,
    or None when the braces are not isoclinic."""
    return _witness(isoclinism_data(A), isoclinism_data(B))


def _witness(dA: IsoclinismData, dB: IsoclinismData) -> Optional[IsoclinismWitness]:
    if dA.quotient.n != dB.quotient.n or dA.gamma2.n != dB.gamma2.n:
        return None
    xis = brace_isomorphisms(dA.quotient, dB.quotient)
    if not xis:
        return None
    thetas = brace_isomorphisms(dA.gamma2, dB.gamma2)
    for xi in xis:
        for theta in thetas:
            if _diagram_commutes(dA, dB, xi, theta):
                return IsoclinismWitness(xi=xi, theta=theta)
    return None


def is_stem(B: SkewBrace) -> bool:
    """Ann(B) contained in the first derived ideal."""
    return set(annihilator(B)) <= set(gamma2(B))


def isoclinism_classes(braces: Sequence[SkewBrace]) -> list[list[int]]:
    """Partition indices into isoclinism classes by union-find over pairwise
    witness searches."""
    parent = list(range(len(braces)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    data = [isoclinism_data(b) for b in braces]
    for i in range(len(braces)):
        for j in range(i + 1, len(braces)):
            if find(i) == find(j):
                continue
            if _witness(data[i], data[j]) is not None:
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(braces)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())
