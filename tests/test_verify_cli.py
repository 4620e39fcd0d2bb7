"""Theorem suites and the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit
from bracekit import braces, cli, verify
from bracekit.braces import annihilator, classify_subset, cyclic_brace, series, sub_braces
from bracekit.cli import main
from bracekit.enumeration import skew_braces_of_order
from bracekit.errors import InvariantViolation, ParseError
from bracekit.probability import strict_centralizer_hypothesis
from bracekit.verify import THEOREMS, CatalogEntries, TheoremVerdict, run_theorems


def _entries(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        out.extend((e.id, e.brace) for e in skew_braces_of_order(n).entries)
    return out


def test_verdict_status_logic():
    v = TheoremVerdict("t", "orders 1..1", 3, ())
    assert v.status == "pass"
    v = TheoremVerdict("t", "orders 1..1", 0, ())
    assert v.status == "vacuous"
    v = TheoremVerdict("t", "orders 1..1", 3, (((1, 1), "boom"),))
    assert v.status == "fail"
    assert v.to_json_dict()["violations"] == [{"id": [1, 1], "details": "boom"}]


def test_all_theorems_pass_orders_1_to_6():
    verdicts = run_theorems(_entries(1, 6), "orders 1..6")
    assert len(verdicts) == len(THEOREMS)
    for v in verdicts:
        assert v.status == "pass", (v.theorem_id, v.violations)
    checked = {v.theorem_id: v.checked for v in verdicts}
    assert checked["gap-5/8"] == 14
    assert checked["monotonicity"] == 89
    assert checked["p-squared"] == 4
    assert checked["isoclinism-invariance"] == 7


def test_theorem_selection_and_unknown_name():
    verdicts = run_theorems(_entries(1, 4), "orders 1..4", ["gap-5/8", "bounds"])
    assert [v.theorem_id for v in verdicts] == ["gap-5/8", "bounds"]
    with pytest.raises(ParseError, match="unknown theorems: no-such-theorem, other"):
        run_theorems(_entries(1, 2), "orders 1..2", ["no-such-theorem", "bounds", "other"])


def test_scope_limited_note_on_65_128():
    (v,) = run_theorems(_entries(1, 4), "orders 1..4", ["nilpotent-65/128"])
    assert any("scope-limited" in note for note in v.notes)


def test_check_gap_compares_values(monkeypatch):
    monkeypatch.setattr(verify, "commuting_probability", lambda B: Fraction(7, 10))
    (v,) = run_theorems([((4, 2), cyclic_brace(4, 2))], "orders 4..4", ["gap-5/8"])
    assert v.status == "fail"
    assert v.violations == (((4, 2), "Pb = 7/10 lies outside {1, 3/4} and (0, 5/8]"),)


def _open_question_observations(entries: CatalogEntries) -> dict:
    """Observations on open questions, not asserted as theorems:

    - whether any non-trivial brace satisfies the strict-centralizer
      hypothesis Ann subsetneq Cb(x) for all x,
    - whether any non-trivial brace has no proper non-trivial sub-brace
      (a non-trivial simple-like candidate),
    - whether some left-star chain term fails to be an ideal.
    """
    strict = []
    no_proper_sub = []
    star_left_non_ideal = []
    for cid, B in entries:
        if 1 < len(annihilator(B)) < B.n and strict_centralizer_hypothesis(B):
            strict.append(list(cid))
        if B.n > 1 and all(len(s) in (1, B.n) for s in sub_braces(B)):
            no_proper_sub.append(list(cid))
        for term in series(B, "star_left"):
            if not classify_subset(B, term).is_ideal:
                star_left_non_ideal.append(list(cid))
                break
    return {
        "strict_centralizer_hypothesis": strict,
        "no_proper_nontrivial_sub_brace": no_proper_sub,
        "left_star_chain_term_not_ideal": star_left_non_ideal,
    }


def test_open_question_observations():
    obs = _open_question_observations(_entries(1, 8))
    # the only braces with no proper non-trivial sub-brace are the trivial
    # braces of prime order
    assert obs["no_proper_nontrivial_sub_brace"] == [[2, 1], [3, 1], [5, 1], [7, 1]]
    assert len(obs["strict_centralizer_hypothesis"]) == 9
    assert obs["left_star_chain_term_not_ideal"] == [[8, 8], [8, 22]]


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def brace_file(tmp_path):
    B = cyclic_brace(4, 2)
    path = tmp_path / "z4.json"
    path.write_text(
        json.dumps(
            {
                "n": 4,
                "add": [list(r) for r in B.add.op],
                "mul": [list(r) for r in B.mul.op],
            }
        )
    )
    return str(path)


def test_cli_validate(brace_file, capsys):
    assert main(["validate", brace_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"valid": True, "n": 4}


def test_cli_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2

    nonbrace = tmp_path / "nonbrace.json"
    nonbrace.write_text(json.dumps({"n": 2, "add": [[0, 1], [1, 0]], "mul": [[1, 0], [0, 1]]}))
    assert main(["validate", str(nonbrace)]) == 2


def test_cli_validate_reports_a_failed_cross_check_as_exit_1(brace_file, capsys, monkeypatch):
    def broken(B):
        raise InvariantViolation("injected")

    monkeypatch.setattr(braces, "_assert_lambda_laws", broken)
    for command in ("validate", "analyze"):
        assert main([command, brace_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cross-check failed: injected\n"


def test_cli_analyze(brace_file, capsys):
    assert main(["analyze", brace_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pb"] == "3/4"
    assert out["nilpotency_class"] == 2
    assert out["annihilator"] == [0, 2]


def test_cli_enumerate_to_stdout(capsys):
    assert main(["enumerate", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["id"] == [1, 1]


def test_cli_enumerate_writes_catalog_and_manifest(tmp_path, capsys):
    out = tmp_path / "c4.jsonl"
    assert main(["enumerate", "4", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 4
    manifest = json.loads((tmp_path / "c4.jsonl.manifest.json").read_text())
    assert manifest["order"] == 4 and manifest["count"] == 4


@pytest.mark.parametrize("where", ["missing/c2.jsonl", "."])
def test_cli_enumerate_unwritable_out_exits_2(tmp_path, where, capsys):
    # a missing directory raises FileNotFoundError, a directory IsADirectoryError
    out = tmp_path / where
    assert main(["enumerate", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: [Errno ")


def test_cli_enumerate_cap(capsys):
    assert main(["enumerate", "9"]) == 2
    assert main(["enumerate", "9", "--cap", "9"]) == 0


def test_cli_isoclinic(brace_file, capsys):
    assert main(["isoclinic", brace_file, brace_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["xi"] == [0, 1]


def test_cli_isoclinic_none(brace_file, tmp_path, capsys):
    t2 = tmp_path / "t2.json"
    t2.write_text(json.dumps({"n": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 1], [1, 0]]}))
    assert main(["isoclinic", brace_file, str(t2)]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_cli_verify_passes(capsys):
    assert main(["verify", "--orders", "1..4", "--theorems", "gap-5/8,bounds"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["theorem_id"] for r in report] == ["gap-5/8", "bounds"]
    assert all(r["status"] == "pass" for r in report)


def test_cli_verify_deterministic_output(capsys):
    args = ["verify", "--orders", "1..4", "--theorems", "gap-5/8"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("orders", ["3", "2..8"])
def test_cli_verify_passes_without_the_stem_orders(orders, capsys):
    # the trivial brace's class has its stem member at order 1
    assert main(["verify", "--orders", orders]) == 0
    report = {r["theorem_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert report["isoclinism-invariance"]["notes"][1:] == [
        "1 classes not checked for a stem member: its order is outside the catalog"
    ]


def test_cli_verify_stem_fault_still_fails_in_range(monkeypatch, capsys):
    monkeypatch.setattr(verify, "is_stem", lambda B: False)
    assert main(["verify", "--orders", "1..8", "--theorems", "isoclinism-invariance"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["notes"] == ["25 isoclinism classes"]
    assert [v["details"] for v in report["violations"]] == ["class without a stem brace"] * 25


def test_cli_verify_bad_inputs(capsys):
    assert main(["verify", "--orders", "4..1"]) == 2
    assert main(["verify", "--orders", "x..y"]) == 2
    assert main(["verify", "--orders", "1..4", "--theorems", "bogus"]) == 2


def test_cli_verify_brute_method(capsys):
    assert main(
        ["verify", "--orders", "4..4", "--method", "brute", "--theorems", "gap-5/8"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["checked"] == 4


VERIFY_8_SHA256 = "178de0d43c6b3112eb2ca2c8ccd4dcf8f3dd36305b3e5c087b722946ef494cd3"


def test_cli_verify_orders_1_to_8_bytes_are_pinned(capsys):
    assert main(["verify", "--orders", "1..8"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_8_SHA256


def test_cli_verify_orders_1_to_8_bytes_are_pinned_under_python_O():
    src = str(Path(bracekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bracekit.cli", "verify", "--orders", "1..8"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_8_SHA256


BRUTE_LIMIT = "order 9 exceeds the brute-force oracle's limit 8"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "9", "--method", "brute", "--cap", "9"], BRUTE_LIMIT),
        (["verify", "--orders", "9", "--cap", "9", "--method", "brute"], BRUTE_LIMIT),
        (["enumerate", "9", "--method", "brute", "--cap", "12"], BRUTE_LIMIT),
        (["enumerate", "9", "--method", "brute"], "order 9 exceeds the configured cap 8"),
        (["enumerate", "7", "--method", "brute", "--cap", "5"], "order 7 exceeds the configured cap 5"),
    ],
)
def test_cli_brute_method_names_the_limit_it_exceeds(argv, message, capsys, monkeypatch):
    monkeypatch.delenv("BRACEKIT_CAP", raising=False)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_default_range_follows_the_cap_option(capsys, monkeypatch):
    monkeypatch.delenv("BRACEKIT_CAP", raising=False)
    assert main(["verify", "--cap", "9", "--theorems", "gap-5/8"]) == 0
    by_option = capsys.readouterr().out
    monkeypatch.setenv("BRACEKIT_CAP", "9")
    assert main(["verify", "--theorems", "gap-5/8"]) == 0
    assert capsys.readouterr().out == by_option
    (verdict,) = json.loads(by_option)
    assert (verdict["scope"], verdict["checked"]) == ("orders 1..9", 66)


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--orders", "1..20", "--cap", "16"], None, "order 17 exceeds the configured cap 16"),
        (["--orders", "12..20"], None, "order 12 exceeds the configured cap 8"),
        (["--orders", "5..11"], "10", "order 11 exceeds the configured cap 10"),
        (["--orders", "1..9", "--method", "brute"], None, "order 9 exceeds the configured cap 8"),
    ],
)
def test_verify_rejects_an_out_of_cap_range_before_building_a_catalog(
    argv, env, message, capsys, monkeypatch
):
    calls = []

    def building(n, **kwargs):
        calls.append(n)
        raise RuntimeError(f"catalog of order {n} built")

    monkeypatch.setattr(cli, "skew_braces_of_order", building)
    monkeypatch.delenv("BRACEKIT_CAP", raising=False)
    if env is not None:
        monkeypatch.setenv("BRACEKIT_CAP", env)
    assert main(["verify"] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


# -- malformed input ---------------------------------------------------------


Z2 = [[0, 1], [1, 0]]


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "doc",
    [
        {"add": 5, "mul": 5},
        {"add": [[0, 1], [1, "x"]], "mul": Z2},
        {"add": [[0, 1], [1, 0.5]], "mul": Z2},  # int() would truncate it to Z2
        {"add": [[0, True], [True, 0]], "mul": Z2},
        {"add": Z2},
        {"n": 3, "add": Z2, "mul": Z2},
        {"n": "2", "add": Z2, "mul": Z2},
        [Z2, Z2],
    ],
)
def test_cli_malformed_brace_exits_2(tmp_path, doc, capsys):
    path = _write(tmp_path / "doc.json", doc)
    assert main(["validate", path]) == 2
    assert json.loads(capsys.readouterr().out)["valid"] is False
    assert main(["analyze", path]) == 2


def test_cli_bad_cap_env_and_order_exit_2(monkeypatch, capsys):
    assert main(["enumerate", "0"]) == 2
    monkeypatch.setenv("BRACEKIT_CAP", "abc")
    assert main(["verify", "--orders", "1..2"]) == 2
    assert main(["verify"]) == 2
    assert main(["enumerate", "2"]) == 2
    assert "BRACEKIT_CAP" in capsys.readouterr().err


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=2)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_VALID_TABLES = [
    [list(r) for r in t]
    for t in (
        ((0,),),
        tuple(map(tuple, Z2)),
        cyclic_brace(4, 2).add.op,
        cyclic_brace(4, 2).mul.op,
        cyclic_brace(3, 3).add.op,
    )
]


@st.composite
def _tables(draw):
    kind = draw(st.sampled_from(["valid", "mutated", "random", "json"]))
    if kind == "json":
        return draw(_JSON)
    if kind == "random":
        return draw(st.lists(st.lists(_SCALARS, max_size=4), max_size=4))
    table = [row[:] for row in draw(st.sampled_from(_VALID_TABLES))]
    if kind == "mutated":
        i = draw(st.integers(0, len(table) - 1))
        j = draw(st.integers(0, len(table[i]) - 1))
        table[i][j] = draw(_SCALARS)
    return table


_DOCS = _JSON | st.fixed_dictionaries(
    {"add": _tables(), "mul": _tables()}, optional={"n": st.integers(-1, 5) | _JSON}
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_cli_fuzz_json_shapes_exit_0_or_2(fuzz_path, doc):
    path = _write(fuzz_path, doc)
    rc = main(["validate", path])
    assert rc in (0, 2)
    assert main(["analyze", path]) == rc


# -- cross-checks under python -O ---------------------------------------------


FAULTY_GCD = """
import math, sys
import bracekit.probability as probability
from bracekit.cli import main
if not sys.flags.optimize:
    sys.exit(3)
probability.gcd = lambda a, n: math.gcd(a, n) + (n == 4)
sys.exit(main(["verify", "--theorems", "cyclic-formula", "--orders", "4"]))
"""


def test_cross_checks_survive_python_O():
    src = str(Path(bracekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_GCD],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    (verdict,) = json.loads(proc.stdout)
    assert verdict["status"] == "fail"
    assert [v["id"] for v in verdict["violations"]] == [[4, 2], [4, 4]]
