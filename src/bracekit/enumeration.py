"""Exhaustive catalogs: all groups and all skew braces of a small order, up to
isomorphism, with an independent brute-force oracle for cross-checking."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .braces import (
    SkewBrace,
    canonical_brace,
    distributivity_failures,
    validate_skew_brace,
)
from .errors import BraceKitError, OrderCapExceeded, ParseError, require
from .groups import (
    Bijection,
    GroupTable,
    Holomorph,
    automorphism_group,
    canonical_form,
    cyclic_group,
    greedy_generators,
    holomorph,
    is_isomorphic,
    prime_divisors,
    regular_subgroups_through,
    relabel,
    trusted_group,
    validate_group,
)
from .report import BraceReport, brace_report

DEFAULT_CAP = 8
GROUP_CATALOG_VERSION = "1"
CAP_ENV_VAR = "BRACEKIT_CAP"


def resolve_cap(cap: Optional[int] = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{CAP_ENV_VAR}={env!r} is not an integer") from None
    return DEFAULT_CAP


def _check_cap(n: int, cap: Optional[int]) -> None:
    if n < 1:
        raise ParseError(f"order must be positive, got {n}")
    limit = resolve_cap(cap)
    if n > limit:
        raise OrderCapExceeded(n, limit)


# -- groups of a given order -------------------------------------------------


def _cyclic_extensions(N: GroupTable, p: int) -> Iterator[GroupTable]:
    """Candidate extensions of N by a cyclic group of prime order p.

    Every solvable group has a normal subgroup of prime index, so running this
    over all (smaller group, prime) pairs reaches every group in the supported
    order range.  Invalid (automorphism, t^p) choices simply fail validation.
    """
    m = N.n
    n = m * p
    ident = tuple(range(m))
    for alpha in automorphism_group(N):
        powers = [ident]
        for _ in range(p - 1):
            powers.append(tuple(alpha[x] for x in powers[-1]))
        for z in range(m):
            zpow = [0]
            for _ in range(p):
                zpow.append(N.op[zpow[-1]][z])
            table = [
                [
                    N.op[N.op[x][powers[i][y]]][zpow[(i + j) // p]] + m * ((i + j) % p)
                    for y, j in ((c % m, c // m) for c in range(n))
                ]
                for x, i in ((r % m, r // m) for r in range(n))
            ]
            try:
                yield validate_group(table)
            except BraceKitError:
                continue


_GROUPS_CACHE: dict[int, list[GroupTable]] = {}


def groups_of_order(n: int, cap: Optional[int] = None) -> list[GroupTable]:
    """All isomorphism classes of groups of order n, as canonical tables
    sorted by canonical form."""
    _check_cap(n, cap)
    if n in _GROUPS_CACHE:
        return list(_GROUPS_CACHE[n])
    if n == 1:
        out = [cyclic_group(1)]
    else:
        reps: list[GroupTable] = []
        for p in prime_divisors(n):
            for N in groups_of_order(n // p, cap=resolve_cap(cap)):
                for G in _cyclic_extensions(N, p):
                    if not any(is_isomorphic(G, R) for R in reps):
                        reps.append(G)
        out = [canonical_form(G)[0] for G in reps]
        out.sort(key=lambda G: G.op)
    _GROUPS_CACHE[n] = out
    return list(out)


# -- skew brace catalogs -----------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    id: tuple[int, int]
    brace: SkewBrace
    report: BraceReport


@dataclass(frozen=True)
class BraceCatalog:
    order: int
    entries: tuple[CatalogEntry, ...]
    method: str
    cap: int
    group_catalog_version: str = GROUP_CATALOG_VERSION

    @property
    def braces(self) -> list[SkewBrace]:
        return [e.brace for e in self.entries]


def _conjugacy_orbits(
    hol: Holomorph, gens: list[Bijection]
) -> list[tuple[tuple[Bijection, ...], int]]:
    """Orbits of the regular subgroups of hol under conjugation by the group
    that gens generates, as (first subgroup, orbit size) in the order of
    regular_subgroups; a subgroup is its Cayley table, whose row a is the
    member of hol.perms sending 0 to a.

    Conjugation by alpha sends p to alpha p alpha^-1, which sends 0 to
    alpha(p(0)).  So an orbit of members meets those sending 0 to 1 in one
    class under the alpha fixing 1, and its least member is the least of
    that class, hol.perms being sorted: the root.  The search runs through
    the roots alone.  N holds a member sending 0 to 1, conjugate to a root
    by some alpha fixing 1, and conjugating N by alpha gives a subgroup
    found through that root.  One walk closes the subgroups found under
    conjugation by gens, row alpha^-1(b) of N becoming row b of its image;
    a subgroup is keyed by the hol.perms indices of its rows, with one index
    map per generator.  The subgroups in the closure whose member sending 0
    to 1 is a root must be exactly those found.
    """
    P = np.array(hol.perms)
    maps = []  # for each alpha in gens: i -> index of alpha hol.perms[i] alpha^-1, and alpha^-1
    for alpha in gens:
        a = np.array(alpha)
        inv = np.argsort(a)
        order = np.lexsort(a[P[:, inv]].T[::-1])  # row order[j] of the conjugates is P[j], P being sorted
        maps.append((np.argsort(order), inv))
    ids = np.arange(len(P))
    least = ids  # the least index in each orbit, once no generator's image lowers it
    while True:
        step = np.minimum.reduce([least] + [least[conj] for conj, _ in maps])
        step = step[step]  # and the least found for that one, in the same orbit
        if (step == least).all():
            break
        least = step
    roots = {i for i in np.flatnonzero(least == ids).tolist() if hol.perms[i][0] == 1}
    found = regular_subgroups_through(hol, roots)
    done: set[tuple[int, ...]] = set()
    orbits = []
    for first in found:
        if first not in done:
            done.add(first)
            orbit = [first]
            for N in orbit:  # orbit grows while it is walked
                key = np.array(N)
                for conj, inv in maps:
                    image = tuple(conj[key[inv]].tolist())
                    if image not in done:
                        done.add(image)
                        orbit.append(image)
            orbits.append((min(orbit), len(orbit)))
    rooted = {N for N in done if roots.issuperset(N[1:2])}  # n = 1: no member sends 0 to 1
    require(rooted == set(found), "the search through the roots and the orbit walk disagree")
    return [(tuple(map(hol.perms.__getitem__, first)), size) for first, size in sorted(orbits)]


def skew_braces_on(A: GroupTable, cap: Optional[int] = None) -> list[SkewBrace]:
    """All skew braces with additive group A up to brace isomorphism, via
    regular subgroups of the holomorph of A.  Returns canonical-form braces,
    sorted by their tables.

    By Guarnieri-Vendramin (Skew braces and the Yang-Baxter equation, Math.
    Comp. 86, 2017, Prop. 4.3) the braces on A up to isomorphism are the
    regular subgroups of Hol(A) up to conjugation by Aut(A), and the
    stabiliser of a subgroup is Aut(B) of its brace B.  So one subgroup per
    Aut(A)-orbit is validated and canonicalised, and two exact cross-checks
    hold: orbit size times |Aut(B)| is |Aut(A)| (orbit-stabiliser), with
    |Aut(B)| counted, by one array test over the stacked Aut(A), as the
    automorphisms of A that preserve B's multiplication, and distinct orbits
    give distinct canonical braces.
    """
    _check_cap(A.n, cap)
    hol = holomorph(A)
    auts = automorphism_group(A)
    gens = greedy_generators(auts, lambda x, g: tuple(map(x.__getitem__, g)))  # x after g
    stacked = np.array(auts)  # row k is alpha_k
    out = set()
    for mul_rows, size in _conjugacy_orbits(hol, gens):
        regular = all(row[0] == a for a, row in enumerate(mul_rows))
        require(regular, "regular subgroup does not act regularly")
        B = validate_skew_brace(A, validate_group(mul_rows))
        mul = B.mul.np_op
        # [k, x, y]: alpha_k(x o y) == alpha_k(x) o alpha_k(y)
        kept = stacked[:, mul] == mul[stacked[:, :, None], stacked[:, None, :]]
        stabiliser = int(np.count_nonzero(kept.reshape(len(auts), -1).all(axis=1)))
        require(size * stabiliser == len(auts), "orbit size times |Aut(B)| is not |Aut(A)|")
        canonical = canonical_brace(B)
        require(canonical not in out, "two Aut(A)-orbits give isomorphic braces")
        out.add(canonical)
    return sorted(out, key=lambda B: B.mul.op)


def _build_catalog(
    braces: Iterable[SkewBrace], order: int, method: str, cap: int
) -> BraceCatalog:
    braces = sorted(braces, key=lambda b: (b.add.op, b.mul.op))
    entries = tuple(
        CatalogEntry(id=(order, k + 1), brace=b, report=brace_report(b))
        for k, b in enumerate(braces)
    )
    return BraceCatalog(order=order, entries=entries, method=method, cap=cap)


_CATALOG_CACHE: dict[tuple[int, str, int], BraceCatalog] = {}


def skew_braces_of_order(
    n: int, method: str = "holomorph", cap: Optional[int] = None
) -> BraceCatalog:
    """Catalog of all skew braces of order n up to brace isomorphism."""
    if method not in ("holomorph", "brute"):
        raise ParseError(f"unknown method {method!r}")
    _check_cap(n, cap)
    key = (n, method, resolve_cap(cap))
    if key in _CATALOG_CACHE:
        return _CATALOG_CACHE[key]
    if method == "brute":
        catalog = brute_force_oracle(n, cap=cap)
    else:
        # canonical add tables differ between groups, so no brace repeats
        braces = [B for A in groups_of_order(n, cap=cap) for B in skew_braces_on(A, cap=cap)]
        catalog = _build_catalog(braces, n, "holomorph", resolve_cap(cap))
    _CATALOG_CACHE[key] = catalog
    return catalog


def brute_force_oracle(n: int, cap: Optional[int] = None) -> BraceCatalog:
    """Catalog by raw bijection scan, with no holomorph machinery.

    For each additive group A and abstract group M, pull the multiplication
    back along every identity-fixing bijection onto M and keep the pairs
    satisfying skew left distributivity.
    """
    _check_cap(n, cap)
    if n > 8:
        raise OrderCapExceeded(n, 8, "the brute-force oracle's limit")
    groups = groups_of_order(n, cap=cap)
    sigmas = np.array([(0,) + per for per in itertools.permutations(range(1, n))])
    raw = set()  # |Aut(M)| bijections give the same tables: canonicalise them once
    for M in groups:
        pulled = relabel(M.np_op, sigmas)
        for A in groups:
            for mul in pulled:
                if not distributivity_failures(A.np_op, A.np_inv, mul).any():
                    raw.add(SkewBrace(n=n, add=A, mul=trusted_group(mul)))
    braces = {canonical_brace(B) for B in raw}
    return _build_catalog(braces, n, "brute_force", resolve_cap(cap))


# -- serialization -----------------------------------------------------------


def catalog_to_jsonl(catalog: BraceCatalog) -> str:
    lines = []
    for e in catalog.entries:
        lines.append(
            json.dumps(
                {
                    "id": list(e.id),
                    "add": [list(r) for r in e.brace.add.op],
                    "mul": [list(r) for r in e.brace.mul.op],
                    "report": e.report.to_json_dict(),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def catalog_manifest(catalog: BraceCatalog) -> dict:
    body = catalog_to_jsonl(catalog)
    return {
        "order": catalog.order,
        "count": len(catalog.entries),
        "method": catalog.method,
        "cap": catalog.cap,
        "group_catalog_version": catalog.group_catalog_version,
        "sha256": hashlib.sha256(body.encode()).hexdigest(),
    }


def _int_table(obj: dict, key: str) -> list:
    table = obj.get(key)
    if not (
        isinstance(table, list)
        and all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in table
        )
    ):
        raise ParseError(f"{key!r} must be a list of lists of integers")
    return table


def brace_from_json_dict(obj: object) -> SkewBrace:
    """Validate a decoded JSON brace {"add": .., "mul": .., optional "n"}.

    Anything but an object with two integer tables (and a matching "n") raises
    ParseError; tables that are not a skew brace raise the validation error.
    """
    if not isinstance(obj, dict):
        raise ParseError("expected an object with 'add' and 'mul' tables")
    add, mul = _int_table(obj, "add"), _int_table(obj, "mul")
    if "n" in obj and not (type(obj["n"]) is int and obj["n"] == len(add)):
        raise ParseError("declared order does not match table size")
    return validate_skew_brace(add, mul)


def catalog_from_jsonl(text: str) -> list[tuple[tuple[int, int], SkewBrace]]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc)) from exc
        brace = brace_from_json_dict(obj)
        cid = obj.get("id", [0, 0])
        if not (isinstance(cid, list) and len(cid) == 2 and all(type(k) is int for k in cid)):
            raise ParseError("catalog id must be a list of two integers")
        out.append((tuple(cid), brace))
    return out
