"""Command-line interface: validate, analyze, enumerate, isoclinic, verify."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .enumeration import (
    brace_from_json_dict,
    catalog_manifest,
    catalog_to_jsonl,
    resolve_cap,
    skew_braces_of_order,
)
from .errors import BraceKitError, InvariantViolation, OrderCapExceeded, ParseError
from .isoclinism import are_isoclinic
from .report import brace_report
from .verify import run_theorems, select_theorems

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2


def _load_brace(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return brace_from_json_dict(obj)


def _render(obj):
    """Recursively turn {'num': .., 'den': ..} rationals into 'num/den' strings."""
    if isinstance(obj, dict):
        if set(obj) == {"num", "den"}:
            return f"{obj['num']}/{obj['den']}"
        return {k: _render(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_render(v) for v in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(_render(obj), sort_keys=True, indent=2))


def _parse_orders(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            a, b = text.split("..")
        else:
            a = b = text
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise ParseError(f"bad --orders value {text!r}") from exc
    if lo < 1 or hi < lo:
        raise ParseError(f"bad --orders range {text!r}")
    return lo, hi


def cmd_validate(args) -> int:
    try:
        brace = _load_brace(args.path)
    except InvariantViolation:
        raise  # a failed cross-check, not bad input: main exits 1
    except BraceKitError as exc:
        _emit({"valid": False, "error": str(exc)})
        return EXIT_INPUT_ERROR
    _emit({"valid": True, "n": brace.n})
    return EXIT_OK


def cmd_analyze(args) -> int:
    brace = _load_brace(args.path)
    _emit(brace_report(brace).to_json_dict())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    catalog = skew_braces_of_order(args.order, method=args.method, cap=args.cap)
    body = catalog_to_jsonl(catalog)
    manifest = catalog_manifest(catalog)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
            with open(args.out + ".manifest.json", "w") as fh:
                json.dump(manifest, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ParseError(f"{args.out}: {exc}") from exc
        _emit(manifest)
    else:
        sys.stdout.write(body)
    return EXIT_OK


def cmd_isoclinic(args) -> int:
    A = _load_brace(args.path_a)
    B = _load_brace(args.path_b)
    witness = are_isoclinic(A, B)
    if witness is None:
        print("none")
    else:
        _emit(witness.to_json_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    cap = resolve_cap(args.cap)
    lo, hi = _parse_orders(args.orders or f"1..{cap}")
    names = [t.strip() for t in args.theorems.split(",") if t.strip()] if args.theorems else []
    select_theorems(names)  # fail on a bad name before building any catalog
    if hi > cap:  # and on an order past the cap
        raise OrderCapExceeded(max(lo, cap + 1), cap)
    entries = []
    for n in range(lo, hi + 1):
        catalog = skew_braces_of_order(n, method=args.method, cap=cap)
        entries.extend((e.id, e.brace) for e in catalog.entries)
    verdicts = run_theorems(entries, f"orders {lo}..{hi}", names)
    _emit([v.to_json_dict() for v in verdicts])
    if any(v.status == "fail" for v in verdicts):
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracekit", description="finite skew brace toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that a brace file is a skew brace")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="invariant report for a brace file")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="catalog of all skew braces of an order")
    p.add_argument("order", type=int)
    p.add_argument("--method", choices=("holomorph", "brute"), default="holomorph")
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("isoclinic", help="isoclinism witness for two brace files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_isoclinic)

    p = sub.add_parser("verify", help="run the theorem suites over catalogs")
    p.add_argument("--orders", default=None)
    p.add_argument("--method", choices=("holomorph", "brute"), default="holomorph")
    p.add_argument("--theorems", default="")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: cross-check failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except BraceKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
