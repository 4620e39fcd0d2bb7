"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They start real cold samples of every workload, one untraced and one traced
(about a minute and a half on two cores), and keep every file they write
under perfbench/.work.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
from reference import REFERENCE
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TEST_DIR = run.WORK_DIR / f"tests-{os.getpid()}"
SAMPLE_ONLY = {"result.json", "spans.bin", "spans.json", "log.txt"}


@pytest.fixture(scope="module")
def samples():
    """{workload: (untraced sample, traced sample)}, seed 1."""
    shutil.rmtree(TEST_DIR, ignore_errors=True)
    out = {
        name: tuple(
            run.spawn(name, 1, traced, TEST_DIR / f"{name}-{int(traced)}")
            for traced in (False, True)
        )
        for name in WORKLOADS
    }
    yield out
    shutil.rmtree(TEST_DIR, ignore_errors=True)


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=HERE,
        env=run.child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_sample_passes(samples):
    for name, pair in samples.items():
        for s in pair:
            assert s["exit"] == 0, s.get("failures")
            assert (s["attempted"], s["failed"]) == (WORKLOADS[name].ops, 0), s["failures"]


def test_traced_and_untraced_outputs_are_byte_identical(samples):
    for name, (plain, traced) in samples.items():
        files = sorted(p.name for p in plain["dir"].iterdir() if p.name not in SAMPLE_ONLY)
        assert files == sorted(
            p.name for p in traced["dir"].iterdir() if p.name not in SAMPLE_ONLY
        )
        assert "outputs.json" in files
        for f in files:
            assert (plain["dir"] / f).read_bytes() == (traced["dir"] / f).read_bytes(), (name, f)
    assert {"stdout.txt", "c10.jsonl", "c10.jsonl.manifest.json"} <= {
        p.name for p in samples["enumerate-10"][0]["dir"].iterdir()
    }


def _corrupt(**changes) -> dict:
    ref = dict(REFERENCE)
    for key, value in changes.items():
        if isinstance(ref[key], dict):
            ref[key] = {**ref[key], **value}
        else:
            ref[key] = value
    return ref


def _bad_verdicts(index: int, field: int, value) -> tuple:
    rows = [list(v) for v in REFERENCE["verdicts"]]
    rows[index][field] = value
    return tuple(tuple(r) for r in rows)


CORRUPTED = [
    ("enumerate-10", _corrupt(counts={10: 7})),
    ("enumerate-10", _corrupt(sha256={10: "0" * 64})),
    ("verify-8", _corrupt(counts={8: 46})),
    ("verify-8", _corrupt(sha256={8: "0" * 64})),
    ("verify-8", _corrupt(verdicts=_bad_verdicts(4, 1, "fail"))),
    ("verify-8", _corrupt(verdicts=_bad_verdicts(10, 2, 24))),
    ("cyclic-invariants", _corrupt(cyclic_pb=lambda n, d: REFERENCE["cyclic_pb"](n + 1, d))),
    ("cyclic-invariants", _corrupt(cyclic_pb=lambda n, d: Fraction(1))),
]


@pytest.mark.parametrize("name,ref", CORRUPTED)
def test_corrupted_reference_raises_failed_frac(samples, name, ref):
    plain = samples[name][0]
    outputs = json.loads((plain["dir"] / "outputs.json").read_text())
    failures = WORKLOADS[name].check(outputs, plain["dir"], ref)
    assert failures
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = run.summarize(
        name, 1, WORKLOADS[name].ops, [], [dict(plain, failed=len(failures))], bench, False
    )
    assert summary["failed"] / summary["attempted"] > 0
    # the pinned reference itself accepts the same outputs
    assert not WORKLOADS[name].check(outputs, plain["dir"], REFERENCE)


def test_order_9_catalog_matches_reference():
    out = TEST_DIR / "order9"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        proc = _python(
            "import sys, bracekit.cli; sys.exit(bracekit.cli.main(sys.argv[1:]))",
            "enumerate", "9", "--cap", "9", "--out", str(out / "c9.jsonl"),
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(proc.stdout)
        assert manifest["count"] == REFERENCE["counts"][9]
        assert manifest["sha256"] == REFERENCE["sha256"][9]
        body = (out / "c9.jsonl").read_bytes()
        assert hashlib.sha256(body).hexdigest() == REFERENCE["sha256"][9]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_metric_names_are_legal(samples):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name, pair in samples.items():
        names += list(spans.layer_metrics(pair[1]["dir"]))
        summary = run.summarize(name, 1, WORKLOADS[name].ops, [], list(pair), bench, True)
        names += [*summary["metrics"], *summary["layers"]]
        assert set(summary["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    bad = [n for n in names if not spans.LEGAL_NAME.match(n)]
    assert not bad


def test_theorem_ids_map_to_layer_names():
    assert spans.theorem_layer("gap-5/8") == "verify.gap-5_8"
    assert spans.theorem_layer("nilpotent-65/128") == "verify.nilpotent-65_128"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    for theorem_id, _, _ in REFERENCE["verdicts"]:
        assert f"{spans.theorem_layer(theorem_id)}.incl_s" in per_layer


def test_traced_run_yields_every_per_layer_metric(samples):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced_wall = samples["verify-8"][0]["t1"] - samples["verify-8"][0]["t0"]
    layers = run.traced_metrics(list(samples["verify-8"]), bench["per_layer"], untraced_wall)
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert layers["groups.canonical_form.cache_misses"]["value"] > 0
    assert layers["verify.gap-5_8.incl_s"]["value"] > 0


WARM_SAMPLE = """
import json, sys
from pathlib import Path
import bracekit, bracekit.cli, sample, workloads, reference
checked, warm = sample.warm_caches(bracekit)
assert not warm, warm
bracekit.canonical_form(bracekit.cyclic_group(3))
w = workloads.WORKLOADS["verify-8"]
out = Path(sys.argv[1])
print(json.dumps(sample.run_sample(bracekit, w, w.build(1, out), out, False, reference.REFERENCE)))
"""


def test_cold_cache_guard_fails_a_warm_sample():
    out = TEST_DIR / "warm"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        proc = _python(WARM_SAMPLE, str(out))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert result["failed"] == result["attempted"] == 1
    assert "canonical_form" in result["failures"][0]
    for cache in (
        "bracekit.enumeration._GROUPS_CACHE",
        "bracekit.enumeration._CATALOG_CACHE",
        "bracekit.groups.canonical_form",
        "bracekit.groups._automorphisms_cached",
    ):
        assert cache in result["caches_checked"]


def test_refuses_to_run_without_the_program():
    bare = TEST_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-8", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_stats_self_and_inclusive_time():
    # f(0..10) calls g(1..4) which recurses into g(2..3); f also calls h(5..9)
    layers = ["f", "g", "h"]
    stats = spans.layer_stats(
        layers,
        [0, 1, 1, 2],
        [-1, 0, 1, 0],
        [0.0, 1.0, 2.0, 5.0],
        [10.0, 4.0, 3.0, 9.0],
    )
    assert stats["f"] == {"calls": 1, "self_s": 3.0, "incl_s": 10.0}
    assert stats["g"] == {"calls": 2, "self_s": 3.0, "incl_s": 3.0}
    assert stats["h"] == {"calls": 1, "self_s": 4.0, "incl_s": 4.0}


def test_high_percentile_needs_ten_samples_above():
    assert run.high_percentile([1.0] * 10) is None
    p, value = run.high_percentile([float(v) for v in range(20)])
    assert (p, value) == (50.0, 9.0)
