"""Per-layer tracing of bracekit from outside the package.

`Tracer.install` replaces every public function of the bracekit modules, in
every namespace that binds it (the defining module, the modules that import
it and the `bracekit` package itself), by one shared wrapper, so calls made
inside the package are recorded too.  The entries of `verify.THEOREMS` are
wrapped under their theorem ids.  Each call becomes a span: layer name,
start, end and the span that was open when it began.  Spans stay in memory,
in flat arrays, until `Tracer.dump` writes them out; `layer_stats` turns them
into calls, self time and inclusive time per layer.

Layer names are `<module>.<function>`, with the module that defines the
function, e.g. `groups.canonical_form` also when called through `braces`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = (
    "groups",
    "braces",
    "probability",
    "isoclinism",
    "enumeration",
    "report",
    "verify",
    "cli",
)

# Element-level helpers: each call computes one table entry or relabels one
# table, and they run millions of times per sample (`relabel` 18 * 9! times
# on enumerate-10).  A wrapper there costs more than the work it measures and
# the spans would not fit in memory, so their time stays in the caller's
# self time.
UNTRACED = frozenset(
    {
        "groups.relabel",
        "braces.star",
        "braces.gamma_plus",
        "braces.gamma_circ",
        "braces.commutators",
    }
)

LEGAL_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

STATS = ("calls", "self_s", "incl_s")


def legal_name(text: str) -> str:
    """Map any text to a legal metric name: every character outside
    [A-Za-z0-9_.-] becomes '_'."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


def theorem_layer(theorem_id: str) -> str:
    """`gap-5/8` -> `verify.gap-5_8`."""
    return "verify." + legal_name(theorem_id)


def _brace_key(B) -> tuple:
    return (B.add.op, B.mul.op)


def _count_distinct(name):
    def hook(tracer, args, kwargs, result):
        brace = args[0] if args else next(iter(kwargs.values()))
        tracer.distinct[name].add(_brace_key(brace))

    return hook


def _add_counter(name, measure):
    def hook(tracer, args, kwargs, result):
        tracer.counters[name] += measure(result)

    return hook


# Counters taken at the layer boundary, after the wrapped call returns.
HOOKS = {
    "groups.holomorph": _add_counter(
        "groups.holomorph.order_sum", lambda hol: hol.group.n
    ),
    "groups.regular_subgroups": _add_counter("groups.regular_subgroups.found", len),
    "enumeration.skew_braces_on": _add_counter("enumeration.skew_braces_on.kept", len),
    "isoclinism.are_isoclinic": _add_counter(
        "isoclinism.are_isoclinic.witnesses", lambda w: int(w is not None)
    ),
    "probability.commuting_probability": _count_distinct(
        "probability.commuting_probability"
    ),
    "isoclinism.isoclinism_data": _count_distinct("isoclinism.isoclinism_data"),
}


def _public_functions(module, package_name: str):
    """(attribute, function) pairs of `module` defined inside the package."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        origin = getattr(obj, "__module__", None) or ""
        if origin.startswith(package_name + "."):
            yield attr, obj


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.active = False
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = {
            "groups.holomorph.order_sum": 0,
            "groups.regular_subgroups.found": 0,
            "enumeration.skew_braces_on.kept": 0,
            "isoclinism.are_isoclinic.witnesses": 0,
        }
        self.distinct: dict[str, set] = {
            "probability.commuting_probability": set(),
            "isoclinism.isoclinism_data": set(),
        }
        self.originals: dict[str, object] = {}

    def wrap(self, layer: str, fn):
        layer_id = len(self.layers)
        self.layers.append(layer)
        self.originals[layer] = fn
        hook = HOOKS.get(layer)
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.span_layer)
            tr.span_layer.append(layer_id)
            tr.span_parent.append(tr.current)
            tr.span_end.append(0.0)
            tr.current = idx
            tr.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.raised[layer] += 1
                raise
            finally:
                tr.span_end[idx] = clock()
                tr.current = tr.span_parent[idx]
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        name = package.__name__
        modules = [importlib.import_module(f"{name}.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for module in [*modules, package]:
            for attr, fn in _public_functions(module, name):
                layer = f"{fn.__module__[len(name) + 1:]}.{fn.__name__}"
                if layer in UNTRACED:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(layer, fn)
                setattr(module, attr, wrappers[id(fn)])
        theorems = importlib.import_module(f"{name}.verify").THEOREMS
        for theorem_id, fn in list(theorems.items()):
            theorems[theorem_id] = self.wrap(theorem_layer(theorem_id), fn)

    @contextlib.contextmanager
    def recording(self):
        """Record spans only inside this block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def counter_values(self) -> dict[str, int]:
        out = dict(self.counters)
        for layer, seen in self.distinct.items():
            out[f"{layer}.distinct"] = len(seen)
        for layer in self.layers:
            out[f"{layer}.raised"] = self.raised.get(layer, 0)
        canonical = self.originals.get("groups.canonical_form")
        if canonical is not None:
            out["groups.canonical_form.cache_misses"] = canonical.cache_info().misses
        return out

    def dump(self, directory: Path) -> None:
        """Write the spans (binary arrays) and the layer table (JSON)."""
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {
            "layers": self.layers,
            "spans": len(self.span_layer),
            "counters": self.counter_values(),
        }
        (directory / "spans.json").write_text(json.dumps(meta, sort_keys=True))


def load_spans(directory: Path):
    """Read back what `Tracer.dump` wrote: (meta, layer, parent, start, end)."""
    meta = json.loads((directory / "spans.json").read_text())
    count = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(directory / "spans.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return (meta, *arrays)


def layer_stats(layers, span_layer, span_parent, span_start, span_end) -> dict:
    """{layer: {calls, self_s, incl_s}} for every layer, called or not.

    Self time is a span's duration minus the durations of its direct child
    spans.  Inclusive time sums only the outermost span of each layer, so a
    recursive layer is not counted twice.
    """
    n = len(span_layer)
    dur = [span_end[i] - span_start[i] for i in range(n)]
    in_children = [0.0] * n
    for i in range(n):
        p = span_parent[i]
        if p >= 0:
            in_children[p] += dur[i]
    stats = {layer: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for layer in layers}
    for i in range(n):
        layer = span_layer[i]
        s = stats[layers[layer]]
        s["calls"] += 1
        s["self_s"] += dur[i] - in_children[i]
        p = span_parent[i]
        while p >= 0 and span_layer[p] != layer:
            p = span_parent[p]
        if p < 0:
            s["incl_s"] += dur[i]
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(directory: Path) -> dict[str, float]:
    """Every per-layer metric one traced sample yields, by metric name."""
    meta, *spans = load_spans(directory)
    layers = meta["layers"]
    counters = meta["counters"]
    out: dict[str, float] = {}
    stats = layer_stats(layers, *spans)
    for layer, s in stats.items():
        for stat in STATS:
            out[f"{layer}.{stat}"] = s[stat]
    for name in (
        "groups.holomorph.order_sum",
        "groups.regular_subgroups.found",
        "groups.canonical_form.cache_misses",
    ):
        out[name] = counters[name]
    out["groups.validate_group.fail_ratio"] = _ratio(
        counters["groups.validate_group.raised"], stats["groups.validate_group"]["calls"]
    )
    out["enumeration.kept_ratio"] = _ratio(
        counters["enumeration.skew_braces_on.kept"],
        counters["groups.regular_subgroups.found"],
    )
    out["isoclinism.are_isoclinic.witness_ratio"] = _ratio(
        counters["isoclinism.are_isoclinic.witnesses"],
        stats["isoclinism.are_isoclinic"]["calls"],
    )
    for layer in ("probability.commuting_probability", "isoclinism.isoclinism_data"):
        out[f"{layer}.per_brace"] = _ratio(
            stats[layer]["calls"], counters[f"{layer}.distinct"]
        )
    return out
