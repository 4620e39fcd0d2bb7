"""Catalog generation: group counts, brace counts, oracle agreement, JSONL."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit
from bracekit import enumeration
from bracekit.cli import main
from bracekit.braces import (
    SkewBrace,
    brace_isomorphisms,
    canonical_brace,
    cyclic_brace,
    distributivity_failures,
    is_brace_isomorphic,
    opposite_brace,
    validate_skew_brace,
)
from bracekit.enumeration import (
    _conjugacy_orbits,
    _cyclic_extensions,
    brute_force_oracle,
    catalog_from_jsonl,
    catalog_manifest,
    catalog_to_jsonl,
    groups_of_order,
    resolve_cap,
    skew_braces_of_order,
    skew_braces_on,
)
from bracekit.errors import OrderCapExceeded, ParseError
from bracekit.groups import (
    automorphism_group,
    cyclic_group,
    direct_product_group,
    greedy_generators,
    holomorph,
    is_isomorphic,
    klein_four_group,
    quaternion_group,
    regular_subgroups,
    relabel,
    trusted_group,
    validate_group,
)
from test_groups import _regular_subgroups_all_roots_reference, as_rows

GROUP_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5]
BRACE_COUNTS = [1, 1, 1, 4, 1, 6, 1, 47]


def all_group_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every Cayley table on 0..n-1 with identity 0 that forms a group.

    Independent cross-check for groups_of_order: backtracking over cells with
    Latin-square masks and associativity propagation, plus a full
    associativity re-check on completion.
    """
    if n == 1:
        yield ((0,),)
        return
    op = [[-1] * n for _ in range(n)]
    for j in range(n):
        op[0][j] = j
    for i in range(n):
        op[i][0] = i
    row_free = [set(range(n)) - {i} - {0} if i else set() for i in range(n)]
    col_free = [set(range(n)) - {j} - {0} if j else set() for j in range(n)]
    for i in range(1, n):
        row_free[i] = set(range(n)) - set(op[i][j] for j in range(n) if op[i][j] != -1)
        col_free[i] = set(range(n)) - set(op[a][i] for a in range(n) if op[a][i] != -1)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def assign(i: int, j: int, k: int, trail: list) -> bool:
        queue = [(i, j, k)]
        while queue:
            a, b, v = queue.pop()
            cur = op[a][b]
            if cur != -1:
                if cur != v:
                    return False
                continue
            if v not in row_free[a] or v not in col_free[b]:
                return False
            op[a][b] = v
            row_free[a].discard(v)
            col_free[b].discard(v)
            trail.append((a, b, v))
            # (a.b).c = a.(b.c) with the new cell as the pair (a, b)
            for c in range(n):
                u = op[b][c]
                if u == -1:
                    continue
                w1, w2 = op[v][c], op[a][u]
                if w1 != -1 and w2 == -1:
                    queue.append((a, u, w1))
                elif w2 != -1 and w1 == -1:
                    queue.append((v, c, w2))
                elif w1 != -1 and w1 != w2:
                    return False
            # (x.a).b = x.(a.b) with the new cell as the pair (a, b)
            for x in range(n):
                u = op[x][a]
                if u == -1:
                    continue
                w1, w2 = op[u][b], op[x][v]
                if w1 != -1 and w2 == -1:
                    queue.append((x, v, w1))
                elif w2 != -1 and w1 == -1:
                    queue.append((u, b, w2))
                elif w1 != -1 and w1 != w2:
                    return False
        return True

    def undo(trail: list, mark: int) -> None:
        while len(trail) > mark:
            a, b, v = trail.pop()
            op[a][b] = -1
            row_free[a].add(v)
            col_free[b].add(v)

    def search(trail: list) -> Iterator[tuple[tuple[int, ...], ...]]:
        target = next(((i, j) for (i, j) in cells if op[i][j] == -1), None)
        if target is None:
            rows = as_rows(op)
            arr = np.array(rows)
            if (arr[arr] == arr[:, arr]).all():
                yield rows
            return
        i, j = target
        for k in sorted(row_free[i] & col_free[j]):
            mark = len(trail)
            if assign(i, j, k, trail):
                yield from search(trail)
            undo(trail, mark)

    yield from search([])


def test_group_counts():
    assert [len(groups_of_order(n)) for n in range(1, 9)] == GROUP_COUNTS


def test_groups_cross_check_against_table_enumeration():
    # independent route: complete Cayley tables, then collapse isomorphism
    for n in range(1, 7):
        reps = []
        for table in all_group_tables(n):
            G = validate_group(table)
            if not any(is_isomorphic(G, R) for R in reps):
                reps.append(G)
        assert len(reps) == len(groups_of_order(n))


def test_groups_are_canonical_and_distinct():
    for n in (4, 6, 8):
        groups = groups_of_order(n)
        for i, G in enumerate(groups):
            validate_group(G.op)
            for H in groups[i + 1 :]:
                assert not is_isomorphic(G, H)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        groups_of_order(9)
    with pytest.raises(OrderCapExceeded):
        skew_braces_of_order(9)
    assert len(groups_of_order(9, cap=9)) == 2
    with pytest.raises(OrderCapExceeded, match="^order 7 exceeds the configured cap 5$"):
        brute_force_oracle(7, cap=5)
    with pytest.raises(OrderCapExceeded, match="^order 9 exceeds the brute-force oracle's limit 8$"):
        brute_force_oracle(9, cap=9)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("BRACEKIT_CAP", "10")
    assert resolve_cap() == 10
    monkeypatch.delenv("BRACEKIT_CAP")
    assert resolve_cap() == 8
    assert resolve_cap(12) == 12


def test_skew_braces_on_small_groups():
    assert len(skew_braces_on(cyclic_group(2))) == 1
    z4_braces = skew_braces_on(cyclic_group(4))
    assert len(z4_braces) == 2
    assert any(is_brace_isomorphic(b, cyclic_brace(4, 2)) for b in z4_braces)
    q8_braces = skew_braces_on(quaternion_group())
    assert any(is_brace_isomorphic(b, opposite_brace(quaternion_group())) for b in q8_braces)
    assert len(skew_braces_on(klein_four_group())) == 2


@pytest.mark.parametrize("p", [17, 19, 23])
def test_prime_order_above_16_has_only_the_trivial_brace(p):
    # Hol(Z_p) has a unique Sylow p-subgroup, so Z_p carries one skew brace
    (entry,) = skew_braces_of_order(p, cap=p).entries
    assert entry.brace.add.op == entry.brace.mul.op == cyclic_group(p).op


def test_brace_counts():
    assert [len(skew_braces_of_order(n).entries) for n in range(1, 9)] == BRACE_COUNTS


def test_catalog_entries_validate_and_are_distinct():
    for n in (4, 6):
        entries = skew_braces_of_order(n).entries
        for i, e in enumerate(entries):
            validate_skew_brace(e.brace.add, e.brace.mul)
            assert e.id == (n, i + 1)
            for f in entries[i + 1 :]:
                assert brace_isomorphisms(e.brace, f.brace) == []


def test_oracle_matches_holomorph_method():
    for n in range(1, 7):
        holo = skew_braces_of_order(n)
        brute = brute_force_oracle(n)
        key = lambda c: [(e.brace.add.op, e.brace.mul.op) for e in c.entries]
        assert key(holo) == key(brute)


def _add_side_oracle_reference(n):
    """The mirrored bijection scan: for each additive group A and abstract
    group M, pull the addition back along every identity-fixing bijection
    onto A, keep the pairs satisfying skew left distributivity, and return
    their canonical (add, mul) tables in catalog order."""
    groups = groups_of_order(n)
    raw = set()
    for A in groups:
        a_op = A.np_op
        for M in groups:
            m_op = M.np_op
            for per in itertools.permutations(range(1, n)):
                f = np.array((0,) + per)
                finv = np.argsort(f)
                pulled = finv[a_op[np.ix_(f, f)]]
                neg = (pulled == 0).argmax(axis=1)
                if not distributivity_failures(pulled, neg, m_op).any():
                    raw.add(SkewBrace(n=n, add=trusted_group(as_rows(pulled.tolist())), mul=M))
    return sorted((B.add.op, B.mul.op) for B in {canonical_brace(B) for B in raw})


def test_oracle_add_side_scan_agrees():
    for n in (4, 6):
        mul_side = brute_force_oracle(n)
        assert [(e.brace.add.op, e.brace.mul.op) for e in mul_side.entries] == _add_side_oracle_reference(n)


def test_serialization_round_trip():
    catalog = skew_braces_of_order(6)
    text = catalog_to_jsonl(catalog)
    back = catalog_from_jsonl(text)
    assert [i for i, _ in back] == [e.id for e in catalog.entries]
    assert all(
        b.add.op == e.brace.add.op and b.mul.op == e.brace.mul.op
        for (_, b), e in zip(back, catalog.entries)
    )


@pytest.mark.parametrize("cid", [5, "ab", [1], [1, "2"], [1, True]])
def test_catalog_id_must_be_two_integers(cid):
    line = json.dumps({"id": cid, "add": [[0]], "mul": [[0]]})
    with pytest.raises(ParseError, match="two integers"):
        catalog_from_jsonl(line)


def test_catalog_id_defaults_to_zero_pair():
    [(cid, B)] = catalog_from_jsonl('{"add": [[0]], "mul": [[0]]}')
    assert cid == (0, 0) and B.n == 1


def test_manifest_hash_matches_body():
    catalog = skew_braces_of_order(4)
    manifest = catalog_manifest(catalog)
    body = catalog_to_jsonl(catalog)
    assert manifest["sha256"] == hashlib.sha256(body.encode()).hexdigest()
    assert manifest["count"] == 4
    assert manifest["method"] == "holomorph"
    # regression pin: catalog ids and content are stable across runs
    assert (
        manifest["sha256"]
        == "ed2722f3ec3d733753aa92b6abc625c69141955df9cb98c1380b44d1fb7092d0"
    )


# regression pins for the orders no other test pins; the bytes are the JSONL body
CATALOG_SHA256 = {
    1: "04acf3b4083fb79a1e0a75029fb367c09f6622d3155dccd33a6be69e64f072d6",
    2: "dfbc3a953b30637bbdd5ce3ef24c8ba596e97f1032eb0a3e11e0c75ac755d4e8",
    3: "128782c89dbc2a07d88ff2ef4e42b57b5409cdab2ad274688ae0f1bdd158d718",
    5: "af196db1b006786d9588e24a5c4ad646685a0089024680d3e529bdcabb9faa73",
    6: "8cb54f19b677af5898bb00148a253a5f24cbe39cffc265a9778d1a18112664fb",
    7: "cdbb362f9e0eb0a2e3b10358df66e32abac9d7db96f11019fd56f6825f41e867",
}


@pytest.mark.parametrize("n", sorted(CATALOG_SHA256))
def test_small_catalog_bytes_are_pinned(n):
    assert catalog_manifest(skew_braces_of_order(n))["sha256"] == CATALOG_SHA256[n]


def test_order_8_catalog_bytes_are_pinned():
    assert (
        catalog_manifest(skew_braces_of_order(8))["sha256"]
        == "7d1aaf8659e2d890a8a27621413f6613360b8f1be1b8caa3ed2306ffb369f2d7"
    )


def test_reach_to_order_12(capsys):
    # published skew brace counts; orders 9, 10 and 12 keep their catalog bytes
    assert [len(groups_of_order(n, cap=12)) for n in range(9, 13)] == [2, 2, 1, 5]
    catalogs = {n: skew_braces_of_order(n, cap=12) for n in range(9, 13)}
    assert [len(catalogs[n].entries) for n in range(9, 13)] == [4, 6, 1, 38]
    assert (
        catalog_manifest(catalogs[9])["sha256"]
        == "bb6d8d7ff546174bceb118addc8096408f2930e648c4ef3ce46cc74d5f04a3d0"
    )
    assert (
        catalog_manifest(catalogs[10])["sha256"]
        == "001586cf4bd3e5c204ee449abbd9c795081a5350ac42d1348cacc6dca414cdf8"
    )
    assert (
        catalog_manifest(catalogs[12])["sha256"]
        == "7d6e6b0cf5a6211df320c0b5fc07064d347606c25707c0e3c6d27e367c004ed6"
    )
    # and the theorem verdicts over orders 1..12, to the byte
    assert main(["verify", "--orders", "1..12", "--cap", "12"]) == 0
    out = capsys.readouterr().out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "fe820bd9a90910709a6a41509c1a19d757083c75426915bc9ffe38ec416e78f5"
    )


def test_manifest_cap_does_not_depend_on_call_history(monkeypatch):
    monkeypatch.delenv("BRACEKIT_CAP", raising=False)
    assert catalog_manifest(skew_braces_of_order(4))["cap"] == 8
    assert catalog_manifest(skew_braces_of_order(4, cap=12))["cap"] == 12
    assert catalog_manifest(skew_braces_of_order(4))["cap"] == 8


def test_extension_construction_errors_propagate(monkeypatch):
    def broken(table):
        raise RuntimeError("construction bug")

    monkeypatch.setattr(enumeration, "validate_group", broken)
    with pytest.raises(RuntimeError):
        list(_cyclic_extensions(cyclic_group(2), 2))


def test_not_two_sided_count_at_order_8():
    entries = skew_braces_of_order(8).entries
    nts = [e for e in entries if not e.report.flags.two_sided]
    assert len(nts) == 5


def test_unknown_method_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown method 'magic'"):
        skew_braces_of_order(4, method="magic")


# -- one canonicalisation per Aut(A)-orbit -------------------------------------


def _skew_braces_on_reference(A):
    """Validate and canonicalise every regular subgroup of Hol(A), then
    deduplicate the canonical braces: no orbit walk."""
    out = set()
    for mul_rows in regular_subgroups(holomorph(A)):
        out.add(canonical_brace(validate_skew_brace(A, validate_group(mul_rows))))
    return sorted(out, key=lambda B: B.mul.op)


def _compose(x, g):
    """x after g, as permutations."""
    return tuple(map(x.__getitem__, g))


def _generating_set(auts):
    """Generators of the permutation group auts (identity first): each element
    is kept only if the group the kept ones generate lacks it, and the scan
    stops once that group is all of auts.  The group grows incrementally:
    when g joins, the members so far are composed with g alone, and each new
    member with every generator."""
    members = [auts[0]]
    reached = {auts[0]}
    gens = []
    for alpha in auts:
        if len(members) == len(auts):
            break
        if alpha in reached:
            continue
        gens.append(alpha)
        known = len(members)
        for i, x in enumerate(members):  # members grows while it is walked
            for g in gens if i >= known else gens[-1:]:
                y = _compose(x, g)
                if y not in reached:
                    reached.add(y)
                    members.append(y)
    return gens


AUT_GROUPS = [G for n in range(1, 13) for G in groups_of_order(n, cap=12)] + [
    quaternion_group(),
    klein_four_group(),
]


@pytest.mark.parametrize("A", AUT_GROUPS, ids=[f"{A.n}-{i}" for i, A in enumerate(AUT_GROUPS)])
def test_greedy_generators_of_aut_match_reference(A):
    auts = automorphism_group(A)
    gens = greedy_generators(auts, _compose)
    assert gens == _generating_set(auts)
    # the generators give all of Aut(A), by a closure independent of both walks
    group = {auts[0]}
    frontier = [auts[0]]
    for x in frontier:
        for g in gens:
            y = _compose(x, g)
            if y not in group:
                group.add(y)
                frontier.append(y)
    assert group == set(auts)


# enumeration._conjugacy_orbits as it was before the walk ran on hol.perms
# indices: every subgroup hashed as a tuple of n row tuples
def _conjugacy_orbits_tuple_hash_reference(hol, gens):
    """(first subgroup, orbit size) for the orbits of the regular subgroups
    of hol under conjugation by the group gens generates, in the order of
    the subgroups.  Conjugation by alpha sends row alpha^-1(b) of N to row b
    of its image; each orbit is collected by a walk from its first subgroup
    along the generators."""
    conjugators = [(alpha, np.argsort(alpha).tolist()) for alpha in gens]
    tables = _regular_subgroups_all_roots_reference(hol)
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


def _assert_orbits_match_reference(A):
    hol = holomorph(A)
    gens = greedy_generators(automorphism_group(A), _compose)
    orbits = _conjugacy_orbits(hol, gens)
    assert orbits == _conjugacy_orbits_tuple_hash_reference(hol, gens)
    held = set(map(id, hol.perms))
    assert all(id(row) in held for first, _ in orbits for row in first)
    return orbits


def _tables(braces_):
    return [(B.add.op, B.mul.op) for B in braces_]


# (regular subgroups of Hol(A), Aut(A)-orbits) for each group A of order n,
# in groups_of_order order
ORBIT_COUNTS = {
    1: [(1, 1)],
    2: [(1, 1)],
    3: [(1, 1)],
    4: [(4, 2), (2, 2)],
    5: [(1, 1)],
    6: [(2, 2), (8, 4)],
    7: [(1, 1)],
    8: [(232, 8), (28, 14), (20, 12), (6, 5), (28, 8)],
    9: [(9, 2), (3, 2)],
    10: [(2, 2), (12, 4)],
    11: [(1, 1)],
    12: [(12, 5), (28, 10), (42, 8), (6, 5), (28, 10)],
}


@pytest.mark.parametrize("n", sorted(ORBIT_COUNTS))
def test_orbit_walk_matches_reference_and_pinned_counts(n):
    counts = []
    for A in groups_of_order(n, cap=12):
        auts = automorphism_group(A)
        hol = holomorph(A)
        orbits = _assert_orbits_match_reference(A)
        subgroups = sum(size for _, size in orbits)
        counts.append((subgroups, len(orbits)))
        assert subgroups == len(regular_subgroups(hol))
        found = skew_braces_on(A, cap=12)
        assert _tables(found) == _tables(_skew_braces_on_reference(A))
        # orbit-stabiliser again, with |Aut(B)| from the brace isomorphism search
        assert sum(len(auts) // len(brace_isomorphisms(B, B)) for B in found) == subgroups
    assert counts == ORBIT_COUNTS[n]


@pytest.mark.parametrize(
    "A,subgroups,count",
    [
        (cyclic_group(16), 16, 8),
        (direct_product_group(cyclic_group(8), cyclic_group(2)), 160, 66),
        (direct_product_group(cyclic_group(4), cyclic_group(4)), 880, 83),
    ],
    ids=["Z16", "Z8xZ2", "Z4xZ4"],
)
def test_orbit_walk_matches_tuple_hash_reference_at_order_16(A, subgroups, count):
    orbits = _assert_orbits_match_reference(A)
    assert (sum(size for _, size in orbits), len(orbits)) == (subgroups, count)


@pytest.mark.parametrize("make", [quaternion_group, klein_four_group])
def test_orbit_walk_matches_reference_on_named_groups(make):
    A = make()
    assert _tables(skew_braces_on(A)) == _tables(_skew_braces_on_reference(A))


@pytest.mark.parametrize("index", range(5))
@given(st.data())
@settings(max_examples=3, deadline=None)
def test_orbit_walk_matches_reference_on_relabelled_order_8(index, data):
    G = groups_of_order(8)[index]
    sigma = [0] + data.draw(st.permutations(range(1, 8)))
    A = validate_group(relabel(G.np_op, sigma).tolist())
    assert _tables(skew_braces_on(A)) == _tables(_skew_braces_on_reference(A))


def test_one_canonicalisation_per_brace_on_orders_1_to_8(monkeypatch, capsys):
    calls = []
    real = enumeration.canonical_brace

    def counting(B):
        calls.append(B.n)
        return real(B)

    monkeypatch.setattr(enumeration, "_CATALOG_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_brace", counting)
    assert main(["verify", "--orders", "1..8"]) == 0
    assert len(calls) == sum(BRACE_COUNTS) == 62


# Faults injected into the orbit walk; each must end in a failed cross-check,
# exit 1, also under python -O.
ORBIT_FAULTS = {
    "no generators": (
        "enumeration.greedy_generators = lambda elements, product: []",
        "orbit size times |Aut(B)| is not |Aut(A)|",
    ),
    "merged orbits": (
        "real = enumeration._conjugacy_orbits\n"
        "def merged(hol, gens):\n"
        "    orbits = real(hol, gens)\n"
        "    if len(orbits) < 2:\n"
        "        return orbits\n"
        "    (first, s), (_, t) = orbits[:2]\n"
        "    return [(first, s + t)] + orbits[2:]\n"
        "enumeration._conjugacy_orbits = merged",
        "orbit size times |Aut(B)| is not |Aut(A)|",
    ),
    # the subgroups below the least root are lost, but the walk from the
    # other roots reaches some of them
    "dropped root": (
        "from bracekit import groups\n"
        "real = groups._semiregular_closure\n"
        "def dropped(T, g, candidates):\n"
        "    if len(T) == 1 and g == min(p for p in candidates if p[0] == 1):\n"
        "        return None\n"
        "    return real(T, g, candidates)\n"
        "groups._semiregular_closure = dropped",
        "the search through the roots and the orbit walk disagree",
    ),
    # a proper subgroup of Aut(A) passes orbit-stabiliser; only the distinct
    # canonical braces check sees its split orbits
    "identity as Aut(A)": (
        "enumeration.groups_of_order(8)\n"
        "enumeration.automorphism_group = lambda G: [tuple(range(G.n))]",
        "two Aut(A)-orbits give isomorphic braces",
    ),
}

FAULT_SCRIPT = """
import sys
from bracekit import enumeration
from bracekit.cli import main
if not sys.flags.optimize:
    sys.exit(3)
{patch}
sys.exit(main(["enumerate", "8"]))
"""


@pytest.mark.parametrize("fault", sorted(ORBIT_FAULTS))
def test_orbit_faults_trip_a_cross_check_under_python_O(fault):
    patch, message = ORBIT_FAULTS[fault]
    src = str(Path(bracekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULT_SCRIPT.format(patch=patch)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: cross-check failed: {message}\n"
    assert proc.stdout == ""
