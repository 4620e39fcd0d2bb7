"""Isoclinism of skew braces: commutator data, witness search, stem detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .braces import (
    SkewBrace,
    SubsetClass,
    annihilator,
    brace_isomorphisms,
    classify_subset,
    quotient_brace,
    series,
    validate_skew_brace,
)
from .errors import NotASubBrace, check_indices, require
from .groups import Bijection, ElementSet


@dataclass(frozen=True, eq=False)
class IsoclinismData:
    """Quotient by the annihilator, the first derived ideal as a brace, and
    the two commutator maps over quotient pairs, as read-only int64 arrays:
    phi_plus[x, y] is the index in gamma2_members of [a, b]_+ for a in coset
    x and b in coset y, and phi_star likewise of a * b."""

    quotient: SkewBrace
    gamma2: SkewBrace
    gamma2_members: ElementSet
    phi_plus: np.ndarray
    phi_star: np.ndarray


def gamma2(B: SkewBrace) -> ElementSet:
    terms = series(B, "gamma")
    # a one-term chain means the series already stabilized at its first term
    return terms[1] if len(terms) > 1 else terms[0]


def induced_brace(B: SkewBrace, members: Iterable[int]) -> SkewBrace:
    """Sub-brace on members with elements relabelled by rank (0 stays 0)."""
    members = check_indices(B.n, *members)
    return validate_skew_brace(*induced_tables(B, members, classify_subset(B, members)))


def induced_tables(
    B: SkewBrace, members: ElementSet, kind: SubsetClass
) -> tuple[np.ndarray, np.ndarray]:
    """The additive and multiplicative tables of the sub-brace on members,
    relabelled by rank and not yet validated; kind is
    classify_subset(B, members), and NotASubBrace is raised unless it says
    sub-brace."""
    members = sorted(set(check_indices(B.n, *members)))
    if not kind.is_sub_brace:
        raise NotASubBrace(f"{members} is not a sub-brace")
    rank = np.zeros(B.n, dtype=np.int64)
    rank[members] = np.arange(len(members))
    cells = np.ix_(members, members)
    return rank[B.add.np_op[cells]], rank[B.mul.np_op[cells]]


def isoclinism_data(B: SkewBrace) -> IsoclinismData:
    """Build the commutator maps by scattering every pair's value into its
    coset-pair cell, and re-check representative independence by reading the
    maps back at every pair of elements."""
    quotient, cmap = quotient_brace(B, annihilator(B))
    g2 = gamma2(B)
    g2_brace = induced_brace(B, g2)
    rank = np.zeros(B.n, dtype=np.int64)  # the index of each member of Gamma_2
    rank[list(g2)] = np.arange(len(g2))
    coset = np.array(cmap)
    pairs = (coset[:, None], coset[None, :])
    plus, star = rank[B.gamma_plus_table], rank[B.star_table]
    phi_plus = np.empty((quotient.n, quotient.n), dtype=np.int64)
    phi_star = np.empty_like(phi_plus)
    phi_plus[pairs], phi_star[pairs] = plus, star
    require(
        (phi_plus[pairs] == plus).all() and (phi_star[pairs] == star).all(),
        "commutator maps depend on the coset representatives",
    )
    phi_plus.flags.writeable = phi_star.flags.writeable = False
    return IsoclinismData(quotient, g2_brace, g2, phi_plus, phi_star)


@dataclass(frozen=True)
class IsoclinismWitness:
    """A commuting pair of brace isomorphisms (quotient map, gamma2 map)."""

    xi: Bijection
    theta: Bijection

    def to_json_dict(self) -> dict:
        return {"xi": list(self.xi), "theta": list(self.theta)}


def are_isoclinic(A: SkewBrace, B: SkewBrace) -> Optional[IsoclinismWitness]:
    """First witness pair in canonical (lexicographic xi, then theta) order,
    or None when the braces are not isoclinic."""
    return _witness(isoclinism_data(A), isoclinism_data(B), brace_isomorphisms)


def _witness(
    dA: IsoclinismData,
    dB: IsoclinismData,
    isos: Callable[[SkewBrace, SkewBrace], list[Bijection]],
) -> Optional[IsoclinismWitness]:
    """The first witness, with isos(A, B) giving the brace isomorphisms
    A -> B in order.  For each xi, one array comparison tests the diagram
    theta . phi = phi' . (xi x xi), for phi_plus and phi_star, against every
    theta at once."""
    if dA.quotient.n != dB.quotient.n or dA.gamma2.n != dB.gamma2.n:
        return None
    xis = isos(dA.quotient, dB.quotient)
    thetas = isos(dA.gamma2, dB.gamma2) if xis else []
    if not thetas:
        return None
    T = np.array(thetas)
    fA = np.array([dA.phi_plus, dA.phi_star])
    fB = np.array([dB.phi_plus, dB.phi_star])
    images = T[:, fA]  # images[t] is theta_t applied to both maps of A
    for xi in xis:
        x = np.array(xi)
        hits = np.flatnonzero((images == fB[:, x[:, None], x]).all(axis=(1, 2, 3)))
        if hits.size:
            return IsoclinismWitness(xi=xi, theta=thetas[hits[0]])
    return None


def is_stem(B: SkewBrace) -> bool:
    """Ann(B) contained in the first derived ideal."""
    return set(annihilator(B)) <= set(gamma2(B))


def isoclinism_classes(braces: Sequence[SkewBrace]) -> list[list[int]]:
    """Partition indices into isoclinism classes, in order of first member.

    Isoclinism is an equivalence relation, so a brace belongs to a class
    exactly when it is isoclinic to the class's first member: each brace is
    searched against one member per class, and starts a new class when no
    search finds a witness."""
    # Many braces share their quotient and Gamma_2 tables, so each pair of
    # equal-valued braces is searched once per call.
    found: dict[tuple[SkewBrace, SkewBrace], list[Bijection]] = {}

    def isos(A: SkewBrace, B: SkewBrace) -> list[Bijection]:
        if (A, B) not in found:
            found[A, B] = brace_isomorphisms(A, B)
        return found[A, B]

    data = [isoclinism_data(b) for b in braces]
    classes: list[list[int]] = []
    for i, d in enumerate(data):
        cls = next((c for c in classes if _witness(data[c[0]], d, isos) is not None), None)
        if cls is None:
            classes.append([i])
        else:
            cls.append(i)
    return classes
