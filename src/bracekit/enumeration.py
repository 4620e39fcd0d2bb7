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
    as_rows,
    automorphism_group,
    canonical_form,
    cyclic_group,
    greedy_generators,
    holomorph,
    is_isomorphic,
    prime_divisors,
    regular_subgroups,
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
    regular_subgroups.

    A regular subgroup N is held as regular_subgroups gives it, as the rows
    of its Cayley table: row a is the member sending 0 to a.  Conjugation by
    alpha sends member p to x -> alpha(p(alpha^-1(x))), which sends 0 to
    alpha(p(0)), so row alpha^-1(b) of N becomes row b of its image.  Each
    orbit is collected by a walk from its first subgroup along the
    generators."""
    conjugators = [(alpha, np.argsort(alpha).tolist()) for alpha in gens]
    tables = regular_subgroups(hol)
    todo = set(tables)
    orbits = []
    for first in tables:
        if first not in todo:
            continue
        todo.remove(first)
        orbit = [first]
        for N in orbit:  # orbit grows while it is walked
            for alpha, inv in conjugators:
                rows = (map(alpha.__getitem__, map(N[i].__getitem__, inv)) for i in inv)
                image = tuple(map(tuple, rows))
                if image in todo:
                    todo.remove(image)
                    orbit.append(image)
        orbits.append((first, len(orbit)))
    return orbits


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
    |Aut(B)| counted as the automorphisms of A that preserve B's
    multiplication, and distinct orbits give distinct canonical braces.
    """
    _check_cap(A.n, cap)
    hol = holomorph(A)
    auts = automorphism_group(A)
    gens = greedy_generators(auts, lambda x, g: tuple(map(x.__getitem__, g)))  # x after g
    out = set()
    for mul_rows, size in _conjugacy_orbits(hol, gens):
        regular = all(row[0] == a for a, row in enumerate(mul_rows))
        require(regular, "regular subgroup does not act regularly")
        B = validate_skew_brace(A, validate_group(mul_rows))
        mul = B.mul.np_op
        stabiliser = 0
        for alpha in auts:
            m = np.array(alpha)
            stabiliser += bool((m[mul] == mul[m[:, None], m[None, :]]).all())
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
    raw = set()  # |Aut(M)| bijections give the same tables: canonicalise them once
    for A in groups:
        a_op, a_neg = A.np_op, A.np_inv
        for M in groups:
            m_op = M.np_op
            for per in itertools.permutations(range(1, n)):
                f = np.array((0,) + per)
                finv = np.argsort(f)
                pulled = finv[m_op[np.ix_(f, f)]]
                if not distributivity_failures(a_op, a_neg, pulled).any():
                    raw.add(SkewBrace(n=n, add=A, mul=trusted_group(as_rows(pulled.tolist()))))
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
