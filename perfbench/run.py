"""bracekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `--workload all` runs every workload in
turn.  The benchmark is a closed loop with one client: each sample is one
cold `python` process (see sample.py), started only after the previous one
has ended, because bracekit's catalog and canonical-form caches are global to
the process and every command-line user pays them cold.  Before the samples,
SETUP_PROBES processes only import bracekit and build the inputs.  A sample
starts only while the run, with one more sample of the median length so far,
fits in S seconds, but there are at least MIN_SAMPLES; with tracing, samples
alternate between untraced and traced.

End-to-end metrics come from the untraced samples:

- wall_s: median, over samples, of the time from the first timed call to a
  checked result;
- setup_s: median, over probes and samples, of the time from spawning the
  process to bracekit imported and inputs built;
- peak_rss_mib: median peak resident memory of a sample process, from the
  rusage `wait4` returns for it;
- failed_frac (printed; in the JSON it is `failed` / `attempted`): failed
  operations over attempted ones.  An operation fails on a non-zero exit, an
  exception, an output that differs from `reference.REFERENCE`, or an output
  that differs between samples of the run (traced or not).

With `--trace 1` the per-layer metrics named in BENCHMARK.json come from the
traced samples (median over them); `trace.overhead_frac` is the traced minus
the untraced median wall time over the untraced one.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Exit status: 0 when every output was correct, 1 when
some output was wrong, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"
SETUP_PROBES = 8
MIN_SAMPLES = 2
SAMPLE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BRACEKIT_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with os.wait4, for its own rusage; kill it after timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def spawn(workload: str, seed: int, trace: bool, out_dir: Path, setup_only=False) -> dict:
    """Run one sample process; return its result.json plus exit code and rss."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "sample.py"), workload, str(seed), str(int(trace)), str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    with open(out_dir / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            code, usage = _wait(proc, SAMPLE_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
    result = {"exit": code, "rss_mib": usage.ru_maxrss / 1024, "trace": trace, "dir": out_dir}
    result_file = out_dir / "result.json"
    if code == 0 and result_file.is_file():
        result.update(json.loads(result_file.read_text()))
        result["setup_s"] = result["t_ready"] - t_spawn
    else:
        log_text = (out_dir / "log.txt").read_text(errors="replace")
        result["failures"] = [f"sample exited {code}: {log_text[-2000:]}"]
    return result


def high_percentile(values: list[float]):
    """(p, value) for the highest percentile with at least ten samples above
    it, or None with fewer than 11 samples."""
    k = len(values)
    if k < 11:
        return None
    return 100 * (k - 10) / k, sorted(values)[k - 11]


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    workload = WORKLOADS[name]
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        start = time.monotonic()
        probes = [
            spawn(name, seed, False, work / f"setup{i}", setup_only=True)
            for i in range(SETUP_PROBES)
        ]
        samples, lengths = [], []
        while len(samples) < MIN_SAMPLES or (
            time.monotonic() - start + statistics.median(lengths) <= seconds
        ):
            traced = trace and len(samples) % 2 == 1
            began = time.monotonic()
            samples.append(spawn(name, seed, traced, work / f"sample{len(samples)}"))
            lengths.append(time.monotonic() - began)
        return summarize(name, seed, workload.ops, probes, samples, bench, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(name, seed, ops, probes, samples, bench, trace) -> dict:
    attempted = failed = 0
    failures = []
    first_digest = next((s["digest"] for s in samples if "digest" in s), None)
    for s in samples:
        attempted += ops
        if "digest" not in s:
            failed += ops
        elif s["digest"] != first_digest:
            failed += ops
            failures.append(f"sample {s['dir'].name}: outputs differ from the first sample")
        else:
            failed += s["failed"]
        failures.extend(s.get("failures", []))
    for p in probes:
        if "setup_s" not in p:
            raise BenchError("\n".join(p["failures"]))
    ok = [s for s in samples if "digest" in s]
    untraced = [s for s in ok if not s["trace"]]
    walls = [s["t1"] - s["t0"] for s in untraced]
    setups = [s["setup_s"] for s in probes + ok]
    metrics = {}
    if walls:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(s["rss_mib"] for s in untraced),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]
        }
    summary = {
        "name": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "walls": walls,
        "setups": setups,
        "metrics": metrics,
    }
    if trace:
        wall = metrics["wall_s"]["value"] if metrics else None
        summary["layers"] = traced_metrics(ok, bench["per_layer"], wall)
    return summary


def traced_metrics(samples, per_layer, untraced_wall) -> dict:
    traced = [s for s in samples if s["trace"]]
    if not traced or not untraced_wall:
        return {}
    per_sample = [layer_metrics(s["dir"]) for s in traced]
    traced_wall = statistics.median(s["t1"] - s["t0"] for s in traced)
    for m in per_sample:
        m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out = {}
    for spec in per_layer:
        name = spec["name"]
        if name not in per_sample[0]:
            raise BenchError(f"BENCHMARK.json names per-layer metric {name!r}, which no layer yields")
        out[name] = {"value": statistics.median(m[name] for m in per_sample), "unit": spec["unit"]}
    return out


def print_summary(s: dict, seconds: int, trace: bool) -> None:
    print(
        f"workload {s['name']}: seed {s['seed']}, {seconds} s, trace {int(trace)}; "
        "closed loop, 1 client, one cold process per sample"
    )
    if not WORKLOADS[s["name"]].seeded:
        print("  the input is fixed: the seed has no effect on this workload")
    m = s["metrics"]
    if "wall_s" in m:
        walls = s["walls"]
        hp = high_percentile(walls)
        tail = f"p{hp[0]:.0f} {hp[1]:.4f} s" if hp else "no percentile has 10 samples above it"
        print(f"  wall_s        {m['wall_s']['value']:.4f} s    median of {len(walls)} samples; {tail}")
        print("    samples: " + " ".join(f"{w:.3f}" for w in walls))
        print(f"  setup_s       {m['setup_s']['value']:.4f} s    median of {len(s['setups'])} processes")
        print(f"  peak_rss_mib  {m['peak_rss_mib']['value']:.1f} MiB  median of {len(walls)} samples")
    frac = s["failed"] / s["attempted"]
    print(f"  failed_frac   {frac:.4g}         {s['failed']} of {s['attempted']} operations failed")
    for reason in s["failures"][:5]:
        print(f"    {reason.strip()[:500]}")
    layers = s.get("layers") or {}
    if layers:
        timed = sorted(
            ((k, v["value"]) for k, v in layers.items() if k.endswith(".self_s")),
            key=lambda kv: -kv[1],
        )
        print("  traced self time, top layers:")
        for k, v in timed[:8]:
            print(f"    {k:45s} {v:.4f} s")
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']['value']:+.4f}")


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    if not (ROOT / "src" / "bracekit" / "__init__.py").is_file():
        raise BenchError(f"no bracekit source under {ROOT / 'src'}")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so `spawn` kills and reaps its sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        bench = load_benchmark()
        seconds = args.seconds or bench["run_seconds"]
        summaries = [run_workload(n, args.seed, seconds, trace, bench) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        print_summary(s, seconds, trace)
    key = "layers" if trace else "metrics"
    if len(summaries) == 1:
        metrics = summaries[0][key]
    else:
        metrics = {f"{s['name']}.{k}": v for s in summaries for k, v in s[key].items()}
    result = {
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
