"""Per-layer spans around biconcert's public functions, recorded from outside.

:class:`Tracer` replaces every public function of the layer modules with a
wrapper, under every name a biconcert module binds it to: the package uses
``from .spectral import symmetric_eigen`` and similar imports, so one
function is reachable as an attribute of several modules. Each call appends
a span ``(function, start, end, parent, note)`` to an in-memory list;
:meth:`Tracer.uninstall` restores the originals. Self times, counts and the
computed kernel sizes are derived from the spans afterwards by
:func:`layer_metrics`.

Functions reached only through a private table (the ``cmd_*`` handlers in
``cli._COMMANDS``) stay unwrapped, so their time is self time of ``cli.main``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("graph_core", "spectral", "bicon", "verify", "cli")


def _order(args, kwargs) -> int:
    m = args[0] if args else next(iter(kwargs.values()))
    return len(m)


def _certify_counts(report) -> tuple[int, int, int]:
    nodes = report.nodes
    return (
        sum(c.locally_biconnected for c in nodes),
        sum(c.lambda3_perturbed is not None for c in nodes),
        sum(c.certified for c in nodes),
    )


# What a span notes besides its times, from the call's arguments and result.
NOTES = {
    "spectral.symmetric_eigen": lambda args, kwargs, result: _order(args, kwargs),
    "spectral.general_eigen": lambda args, kwargs, result: _order(args, kwargs),
    "graph_core.perturbed_laplacian": lambda args, kwargs, result: len(result),
    "bicon.certify_graph": lambda args, kwargs, result: _certify_counts(result),
    "cli.main": lambda args, kwargs, result: (args[0] if args else kwargs["argv"])[0],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"biconcert.{layer}")
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "biconcert" and not name.startswith("biconcert."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _child_time(spans: list) -> list[float]:
    """Per span, the time covered by its direct children."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    return children


@dataclass
class Totals:
    """Per-function sums over all spans, from which every layer metric is read."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    whole_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    module_self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    orders: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    skips: int = 0
    eigensolves: int = 0
    certified: int = 0
    corpus_s: float = 0.0
    overhead_ratio: float = 0.0


CORPUS = {"verify.suite_corpus", "verify.random_connected_graph", "verify.random_graph", "verify.seed_graphs"}


def totals(spans: list) -> Totals:
    t = Totals()
    children = _child_time(spans)
    for k, (name, start, end, parent, note) in enumerate(spans):
        t.self_s[name] += end - start - children[k]
        t.module_self_s[name.split(".")[0]] += end - start - children[k]
        t.whole_s[name] += end - start
        t.calls[name] += 1
        if name in ("spectral.symmetric_eigen", "spectral.general_eigen", "graph_core.perturbed_laplacian"):
            t.orders[name].append(note)
        elif name == "bicon.certify_graph":
            t.skips, t.eigensolves, t.certified = t.skips + note[0], t.eigensolves + note[1], t.certified + note[2]
        if name in CORPUS and (parent < 0 or spans[parent][0] not in CORPUS):
            t.corpus_s += end - start
    return t


# Metrics not read by the naming rule of layer_metrics, as totals over the run.
SPECIAL = {
    "graph_core.graph_from_dict_s": lambda t: t.whole_s["graph_core.graph_from_dict"],
    "graph_core.matrix_bytes_built": lambda t: sum(8 * n * n for n in t.orders["graph_core.perturbed_laplacian"]),
    "spectral.symmetric_eigen_flops": lambda t: sum(4 * n**3 / 3 for n in t.orders["spectral.symmetric_eigen"]),
    "spectral.general_eigen_flops": lambda t: sum(10 * n**3 for n in t.orders["spectral.general_eigen"]),
    "bicon.local_skips": lambda t: t.skips,
    "bicon.eigensolves": lambda t: t.eigensolves,
    "bicon.certified_per_eigensolve": lambda t: t.certified / t.eigensolves if t.eigensolves else None,
    "bicon.report_serialize_s": lambda t: t.self_s["bicon.report_to_dict"] + t.self_s["bicon.report_csv_rows"],
    "verify.corpus_s": lambda t: t.corpus_s,
    "trace.overhead_ratio": lambda t: t.overhead_ratio,
}


def layer_metrics(spans: list, traced_cycles: list[float], plain_cycles: list[float]) -> dict[str, float | None]:
    """Every metric of :data:`LAYER_METRICS`, per traced cycle unless a ratio.

    Names follow a rule, with the exceptions in :data:`SPECIAL`:
    ``<layer>.self_s`` is the layer's self time, ``<function>_calls`` a call
    count, and ``<function>_s`` or ``<function>_self_s`` the function's self
    time (its spans minus their wrapped children). A ratio with no
    denominator is None, not 0.
    """
    t = totals(spans)
    t.overhead_ratio = sum(traced_cycles) / sum(plain_cycles)
    values = {}
    for name, unit, _, _ in LAYER_METRICS:
        layer, rest = name.split(".", 1)
        if name in SPECIAL:
            value = SPECIAL[name](t)
        elif rest == "self_s":
            value = t.module_self_s[layer]
        elif name.endswith("_calls"):
            value = t.calls[name.removesuffix("_calls")]
        elif name.endswith("_s"):
            value = t.self_s[name.removesuffix("_s").removesuffix("_self")]
        else:
            raise ValueError(f"no rule computes layer metric {name}")
        values[name] = value if value is None or unit == "ratio" else value / len(traced_cycles)
    return values


def op_breakdown(spans: list, top: int = 5) -> dict[str, list[tuple[str, float]]]:
    """Per subcommand: traced wall time, then its top functions by self time."""
    children = _child_time(spans)
    op = [""] * len(spans)
    for k, (name, start, end, parent, note) in enumerate(spans):
        op[k] = op[parent] if parent >= 0 else note if name == "cli.main" else ""
    wall: dict[str, float] = defaultdict(float)
    self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for k, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            wall[op[k]] += end - start
        self_s[op[k]][name] += end - start - children[k]
    return {
        cmd: [("wall", wall[cmd])] + sorted(self_s[cmd].items(), key=lambda kv: -kv[1])[:top]
        for cmd in sorted(wall)
    }


# Every per-layer metric: name, unit, better, and the end-to-end metric it should
# move and on which workload. BENCHMARK.json lists those of them that are
# non-zero on every workload.
LAYER_METRICS = [
    ("graph_core.self_s", "s", "lower", "all subcommands; summary of the layer"),
    ("graph_core.proximity_graph_s", "s", "lower", "gen_s on disk-pipeline"),
    ("graph_core.proximity_graph_calls", "count", "lower", "gen_s on disk-pipeline"),
    ("graph_core.graph_from_dict_s", "s", "lower", "check_s, oracle_s, export_s on disk-pipeline"),
    ("graph_core.perturbed_laplacian_s", "s", "lower", "check_s, sweep_s on grid-eigen"),
    ("graph_core.perturbed_laplacian_calls", "count", "lower", "check_s, sweep_s on grid-eigen"),
    ("graph_core.matrix_bytes_built", "B", "lower", "check_s, sweep_s on grid-eigen (computed: 8 n^2 per call)"),
    ("graph_core.reduced_graph_s", "s", "lower", "verify_s on verify-suite"),
    ("graph_core.reduced_graph_calls", "count", "lower", "verify_s on verify-suite"),
    ("graph_core.intermediate_matrix_s", "s", "lower", "verify_s on verify-suite"),
    ("spectral.self_s", "s", "lower", "all subcommands; summary of the layer"),
    ("spectral.symmetric_eigen_s", "s", "lower", "check_s, check_nodes_per_s, sweep_s on grid-eigen; verify_s on verify-suite"),
    ("spectral.symmetric_eigen_calls", "count", "lower", "check_s, sweep_s on grid-eigen; verify_s on verify-suite"),
    ("spectral.symmetric_eigen_flops", "flop", "lower", "check_s, sweep_s on grid-eigen (computed: sum 4/3 n^3)"),
    ("spectral.general_eigen_s", "s", "lower", "verify_s on verify-suite"),
    ("spectral.general_eigen_calls", "count", "lower", "verify_s on verify-suite"),
    ("spectral.general_eigen_flops", "flop", "lower", "verify_s on verify-suite (computed: sum 10 n^3)"),
    ("spectral.is_connected_bfs_s", "s", "lower", "gen_s, check_s, export_s on disk-pipeline"),
    ("spectral.is_connected_bfs_calls", "count", "lower", "gen_s, check_s, export_s on disk-pipeline"),
    ("bicon.self_s", "s", "lower", "all subcommands; summary of the layer"),
    ("bicon.certify_graph_self_s", "s", "lower", "check_s on disk-pipeline"),
    ("bicon.local_skips", "count", "higher", "check_nodes_per_s, certified_fraction"),
    ("bicon.eigensolves", "count", "lower", "check_nodes_per_s, certified_fraction"),
    ("bicon.certified_per_eigensolve", "ratio", "higher", "check_nodes_per_s, certified_fraction"),
    ("bicon.exact_norm_bound_s", "s", "lower", "check_s on grid-eigen"),
    ("bicon.simplified_bound_s", "s", "lower", "check_s on grid-eigen"),
    ("bicon.locally_biconnected_s", "s", "lower", "export_s on disk-pipeline"),
    ("bicon.locally_biconnected_calls", "count", "lower", "export_s on disk-pipeline"),
    ("bicon.articulation_points_oracle_s", "s", "lower", "oracle_s, and check_s with --oracle, on disk-pipeline"),
    ("bicon.spectral_certificate_s", "s", "lower", "verify_s on verify-suite"),
    ("bicon.articulation_points_bruteforce_s", "s", "lower", "verify_s on verify-suite"),
    ("bicon.report_serialize_s", "s", "lower", "check_s on disk-pipeline"),
    ("verify.self_s", "s", "lower", "verify_s on verify-suite; summary of the layer"),
    ("verify.check_intermediate_spectrum_s", "s", "lower", "verify_s on verify-suite"),
    ("verify.check_combination_realness_s", "s", "lower", "verify_s on verify-suite"),
    ("verify.check_eigenvalue_gap_bound_s", "s", "lower", "verify_s on verify-suite"),
    ("verify.check_rank_one_update_spectrum_s", "s", "lower", "verify_s on verify-suite"),
    ("verify.check_null_drift_derivative_s", "s", "lower", "verify_s on verify-suite"),
    ("verify.counterexample_search_s", "s", "lower", "verify_s on verify-suite"),
    ("verify.corpus_s", "s", "lower", "verify_s on verify-suite"),
    ("cli.self_s", "s", "lower", "every subcommand, mostly on disk-pipeline"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced cycle time, per workload"),
]
