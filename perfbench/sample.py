"""One cold sample of one workload, in a process of its own.

    python3 perfbench/sample.py WORKLOAD SEED TRACE DIR [--setup-only]

Imports bracekit from the checkout's `src`, builds the workload's inputs
(set-up ends here), checks that every process-global cache of the package is
empty, runs the workload, traced when TRACE is 1, and checks its outputs.  It
writes DIR/result.json and, when traced, DIR/spans.bin and DIR/spans.json.
Times are `time.monotonic()` readings, which share one clock with the parent
process.  `run.py` starts this script; nothing else needs to.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "bracekit"
RESULT_FILE = "result.json"
OUTPUTS_FILE = "outputs.json"


def warm_caches(bk) -> tuple[list[str], list[str]]:
    """(checked, warm): every process-global cache in the package — each
    `lru_cache` and each module-level `*_CACHE` dict — and those not empty."""
    from spans import MODULES

    checked, warm, seen = [], [], set()
    modules = [importlib.import_module(f"{bk.__name__}.{m}") for m in MODULES]
    for module in [*modules, bk]:
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                size = obj.cache_info().currsize
            elif isinstance(obj, dict) and attr.endswith("_CACHE"):
                size = len(obj)
            else:
                continue
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            name = f"{module.__name__}.{attr}"
            checked.append(name)
            if size:
                warm.append(f"{name} holds {size} entries")
    return checked, warm


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file the sample left, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == RESULT_FILE or path.name.startswith("spans."):
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv: list[str]) -> None:
    workload_name, seed, trace, out_dir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    setup_only = "--setup-only" in argv[4:]

    import bracekit
    import bracekit.cli  # noqa: F401  (the CLI workloads call bracekit.cli.main)

    if Path(bracekit.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(f"bracekit was imported from {bracekit.__file__}, not {PACKAGE_DIR}")
    from reference import REFERENCE
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.build(seed, out_dir)
    result = {"t_ready": time.monotonic()}
    if not setup_only:
        result.update(
            run_sample(bracekit, workload, inputs, out_dir, trace, REFERENCE)
        )
    (out_dir / RESULT_FILE).write_text(json.dumps(result, sort_keys=True))


def run_sample(bk, workload, inputs, out_dir: Path, trace: bool, reference) -> dict:
    checked, warm = warm_caches(bk)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(bk)
    recording = tracer.recording if tracer else contextlib.nullcontext
    t0 = time.monotonic()
    if warm:
        failures = {i: "caches not cold: " + "; ".join(warm) for i in range(workload.ops)}
    else:
        outputs = workload.run(bk, inputs, out_dir, recording)
        failures = workload.check(outputs, out_dir, reference)
    t1 = time.monotonic()
    if not warm:
        (out_dir / OUTPUTS_FILE).write_text(json.dumps(outputs, sort_keys=True))
    if tracer:
        tracer.dump(out_dir)
    return {
        "t0": t0,
        "t1": t1,
        "attempted": workload.ops,
        "failed": len(failures),
        "failures": [failures[i] for i in sorted(failures)[:5]],
        "caches_checked": checked,
        "digest": output_digest(out_dir),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
