"""The benchmark's workloads: inputs from a seed, the timed calls into
bracekit, and the checks of every output against `reference.REFERENCE`.

A workload is a `Workload`; `build` runs during set-up, `run` is timed (its
`recording` argument brackets the calls the tracer should see) and `check`
maps failed operation indices to a reason.  `run` returns JSON-ready data and
leaves any file the program writes under the sample directory, so traced and
untraced samples can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

CYCLIC_MAX_ORDER = 64


def _cli(bk, argv: list[str], out_dir: Path) -> dict:
    """Run `bracekit <argv>` in this process; keep its exit code and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = bk.cli.main(argv)
        error = None
    except SystemExit as exc:
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception:
        rc, error = None, traceback.format_exc()
    (out_dir / "stdout.txt").write_text(buf.getvalue())
    return {"rc": rc, "stdout": buf.getvalue(), "error": error}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- enumerate-10 ------------------------------------------------------------


def build_enumerate(seed: int, out_dir: Path) -> dict:
    return {"argv": ["enumerate", "10", "--cap", "10", "--out", str(out_dir / "c10.jsonl")]}


def run_enumerate(bk, inputs: dict, out_dir: Path, recording) -> dict:
    with recording():
        return _cli(bk, inputs["argv"], out_dir)


def check_enumerate(outputs: dict, out_dir: Path, ref: dict) -> dict[int, str]:
    if outputs["error"] or outputs["rc"] != 0:
        return {0: f"exit {outputs['rc']}: {outputs['error']}"}
    body = out_dir / "c10.jsonl"
    manifest_file = out_dir / "c10.jsonl.manifest.json"
    if not body.is_file() or not manifest_file.is_file():
        return {0: "catalog or manifest file missing"}
    try:
        printed = json.loads(outputs["stdout"])
        written = json.loads(manifest_file.read_text())
    except json.JSONDecodeError as exc:
        return {0: f"manifest is not JSON: {exc}"}
    lines = body.read_text().splitlines()
    want = {"order": 10, "count": ref["counts"][10], "sha256": ref["sha256"][10]}
    got = {k: printed.get(k) for k in want}
    if got != want:
        return {0: f"manifest {got} != {want}"}
    if written != printed:
        return {0: "manifest file differs from printed manifest"}
    if _sha256(body) != ref["sha256"][10] or len(lines) != ref["counts"][10]:
        return {0: "catalog file does not match the reference sha256 and count"}
    return {}


# -- verify-8 ----------------------------------------------------------------


def build_verify(seed: int, out_dir: Path) -> dict:
    return {"argv": ["verify", "--orders", "1..8"]}


def run_verify(bk, inputs: dict, out_dir: Path, recording) -> dict:
    with recording():
        outputs = _cli(bk, inputs["argv"], out_dir)
    # the catalogs verify used, read back from the package's catalog cache
    catalogs = [bk.skew_braces_of_order(n) for n in range(1, 9)]
    outputs["counts"] = [len(c.entries) for c in catalogs]
    outputs["sha256_8"] = bk.catalog_manifest(catalogs[-1])["sha256"]
    return outputs


def check_verify(outputs: dict, out_dir: Path, ref: dict) -> dict[int, str]:
    if outputs["error"] or outputs["rc"] != 0:
        return {0: f"exit {outputs['rc']}: {outputs['error']}"}
    try:
        verdicts = json.loads(outputs["stdout"])
        got = tuple((v["theorem_id"], v["status"], v["checked"]) for v in verdicts)
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        return {0: f"verdicts unreadable: {exc}"}
    if got != tuple(ref["verdicts"]):
        return {0: f"verdicts {got} != reference"}
    want_counts = [ref["counts"][n] for n in range(1, 9)]
    if outputs["counts"] != want_counts:
        return {0: f"counts {outputs['counts']} != {want_counts}"}
    if outputs["sha256_8"] != ref["sha256"][8]:
        return {0: "order-8 manifest sha256 differs from the reference"}
    return {}


# -- cyclic-invariants -------------------------------------------------------


def _radical(n: int) -> int:
    r, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            r *= p
            while m % p == 0:
                m //= p
        p += 1
    return r * m if m > 1 else r


def cyclic_pairs(max_order: int = CYCLIC_MAX_ORDER) -> list[tuple[int, int]]:
    """Every (n, d) with n <= max_order and p | d | n for each prime p | n."""
    return [
        (n, d)
        for n in range(1, max_order + 1)
        for d in range(1, n + 1)
        if n % d == 0 and d % _radical(n) == 0
    ]


def build_cyclic(seed: int, out_dir: Path, max_order: int = CYCLIC_MAX_ORDER) -> dict:
    """Both tables of each cyclic brace, relabelled by a seeded permutation
    that fixes the identity 0."""
    rng = random.Random(seed)
    tables = []
    for n, d in cyclic_pairs(max_order):
        rest = list(range(1, n))
        rng.shuffle(rest)
        sigma = [0] + rest
        add = [[0] * n for _ in range(n)]
        mul = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                add[sigma[x]][sigma[y]] = sigma[(x + y) % n]
                mul[sigma[x]][sigma[y]] = sigma[(x + y + d * x * y) % n]
        tables.append((n, d, add, mul))
    return {"tables": tables}


def run_cyclic(bk, inputs: dict, out_dir: Path, recording) -> dict:
    results = []
    with recording():
        for n, d, add, mul in inputs["tables"]:
            try:
                B = bk.validate_skew_brace(add, mul)
                report = bk.brace_report(B)
                bounds = bk.bound_report(B)
                gap = bk.gap_classify(B)
            except Exception:
                results.append({"n": n, "d": d, "error": traceback.format_exc()})
                continue
            results.append(
                {
                    "n": n,
                    "d": d,
                    "pb": str(report.pb),
                    "bound_pb": str(bounds.pb),
                    "all_hold": bounds.all_hold,
                    "gap": gap.name,
                }
            )
    return {"results": results}


def _gap_class(pb: Fraction) -> str:
    if pb == 1:
        return "ONE"
    if pb == Fraction(3, 4):
        return "THREE_QUARTERS"
    return "AT_MOST_5_8"


def check_cyclic(outputs: dict, out_dir: Path, ref: dict) -> dict[int, str]:
    failures = {}
    for i, r in enumerate(outputs["results"]):
        n, d = r["n"], r["d"]
        if "error" in r:
            failures[i] = f"({n}, {d}) raised: {r['error']}"
            continue
        want = ref["cyclic_pb"](n, d)
        if Fraction(r["pb"]) != want or Fraction(r["bound_pb"]) != want:
            failures[i] = f"({n}, {d}) Pb {r['pb']} / {r['bound_pb']} != {want}"
        elif not r["all_hold"]:
            failures[i] = f"({n}, {d}) an applicable bound fails"
        elif r["gap"] != _gap_class(want):
            failures[i] = f"({n}, {d}) gap class {r['gap']} for Pb {want}"
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int  # operations attempted per sample
    seeded: bool  # whether the seed changes the inputs
    build: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enumerate-10", 1, False, build_enumerate, run_enumerate, check_enumerate),
        Workload("verify-8", 1, False, build_verify, run_verify, check_verify),
        Workload(
            "cyclic-invariants",
            len(cyclic_pairs()),
            True,
            build_cyclic,
            run_cyclic,
            check_cyclic,
        ),
    )
}
