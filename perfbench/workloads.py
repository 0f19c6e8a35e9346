"""The three workloads: their inputs, one cycle of CLI calls, and its checks.

Calls go through ``biconcert.cli.main(argv)`` in this process, one at a time
(a closed loop with one client). The module attribute is looked up on every
call, so a traced run reaches the wrapped ``main``.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from speed import calibrated, lapack_probe, python_probe


@dataclass(frozen=True)
class Scale:
    disk_n: int = 200
    disk_radius: float = 0.14
    grid_ks: tuple[int, ...] = (12, 14, 16)
    grid_epsilon: str = "1e-4"
    verify_graphs: int = 20
    verify_trials: int = 60


FULL = Scale()
TINY = Scale(disk_n=30, disk_radius=0.3, grid_ks=(3, 4, 5), verify_graphs=5, verify_trials=5)

SWEEP_GRID = [float(x) for x in np.geomspace(1e-4, 1.0, 13)]  # the CLI's default grid, 1e-4:1:13
GEN_SIGMA = 0.125  # the CLI's default --sigma


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Session:
    """Runs CLI calls, times them and tallies the verdicts of their checks."""

    def __init__(self, cli, work: Path, probe, seed: int) -> None:
        self.cli = cli
        self.work = work
        self.probe = probe
        self.rng = np.random.default_rng(seed)  # picks the nodes whose spectra are recomputed
        self.argvs: list[list[str]] = []
        self.samples: dict[str, list[float]] = defaultdict(list)  # calibrated seconds
        self.calls: list[tuple[str, float, float, float]] = []  # subcommand, wall, probe before, after
        self.busy = 0.0  # calibrated seconds spent in calls
        self.attempted = 0
        self.failed = 0
        self.unsound = 0
        self.problems: list[str] = []
        self.check_nodes = 0
        self.check_safe_nodes = 0

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(problem)

    def call(self, argv: list[str], expect=(0,)) -> int | None:
        """One timed CLI call; its exit code, or None if it raised or exited unexpectedly."""
        self.attempted += 1
        self.argvs.append(argv)
        sink = io.StringIO()
        before = self.probe()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            rc = exc
        wall = perf_counter() - start
        after = self.probe()
        seconds = calibrated(wall, before, after)
        self.calls.append((argv[0], wall, before, after))
        self.samples[argv[0]].append(seconds)
        self.busy += seconds
        if rc in expect:
            return rc
        self._fail(f"{' '.join(argv)}: {rc!r} {sink.getvalue()[-200:]!r}")
        return None

    def judge(self, verdict) -> None:
        """Apply one output check, a callable returning a Verdict, to the last call."""
        try:
            v = verdict()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            v = checks.Verdict([f"unreadable output: {exc!r}"])
        self.unsound += v.unsound
        if v.problems or v.unsound:
            self._fail("; ".join(v.problems + [f"{v.unsound} unsound certificates"] * bool(v.unsound)))

    def check(self, ref: checks.Reference, graph: Path, report: Path, extra: list[str], with_oracle: bool,
              expect=(0, 2)) -> None:
        """``check`` on one graph file; its report feeds certified_fraction."""
        argv = ["check", "--input", str(graph)] + extra + ["--oracle"] * with_oracle + ["--output", str(report)]
        rc = self.call(argv, expect)
        if rc is None:
            return
        doc = _read_json(report)
        self.check_nodes += len(doc["nodes"])
        self.check_safe_nodes += sum(bool(c["locally_biconnected"] or c["certified"]) for c in doc["nodes"])
        self.judge(lambda: checks.check_report(ref, doc, rc, with_oracle, self.rng))


class DiskPipeline:
    """Seeded disk-model graphs through gen, check --oracle, oracle and export."""

    name = "disk-pipeline"
    subcommands = ("gen", "check", "oracle", "export")
    probe = staticmethod(python_probe)

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.rng = np.random.default_rng(seed)

    def write_inputs(self, work: Path) -> None:
        """gen makes this workload's graphs, inside the timed cycle."""

    def prepare(self, work: Path) -> None:
        pass

    def next_cycle(self) -> int:
        return int(self.rng.integers(2**31))

    def cycle(self, s: Session, graph_seed: int) -> None:
        sc = self.scale
        graph, again = s.work / "graph.json", s.work / "graph-again.json"
        gen = ["gen", "--n", str(sc.disk_n), "--seed", str(graph_seed), "--radius", str(sc.disk_radius)]
        if s.call(gen + ["--output", str(graph)]) is None or s.call(gen + ["--output", str(again)]) is None:
            return
        text = graph.read_text(encoding="utf-8")
        s.judge(lambda: checks.check_gen(text, again.read_text(encoding="utf-8"), sc.disk_n, sc.disk_radius, GEN_SIGMA))
        ref = checks.Reference.from_doc(json.loads(text))
        s.check(ref, graph, s.work / "report.json", [], with_oracle=True)
        oracle, dot = s.work / "oracle.json", s.work / "graph.dot"
        if s.call(["oracle", "--input", str(graph), "--output", str(oracle)]) is not None:
            s.judge(lambda: checks.check_oracle(ref, _read_json(oracle)))
        if s.call(["export", "--input", str(graph), "--output", str(dot)]) is not None:
            s.judge(lambda: checks.check_export(ref, dot.read_text(encoding="utf-8")))


def grid_doc(k: int, perm: np.ndarray) -> dict:
    """k x k unit grid with node r*k+c relabelled perm[r*k+c]; each edge once, i < j."""
    edges = []
    for r in range(k):
        for c in range(k):
            u = r * k + c
            for v in ([u + 1] if c + 1 < k else []) + ([u + k] if r + 1 < k else []):
                i, j = sorted((int(perm[u]), int(perm[v])))
                edges.append([i, j, 1.0])
    edges.sort()
    return {"n": k * k, "edges": edges, "positions": None}


class GridEigen:
    """Unit grids with seeded node labels: check at a small epsilon, sweep the smallest.

    No node of a grid is a cut vertex, and epsilon 1e-4 certifies every one,
    so each check must exit 0.
    """

    name = "grid-eigen"
    subcommands = ("check", "sweep")
    probe = staticmethod(lapack_probe)

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.refs: dict[int, checks.Reference] = {}

    def write_inputs(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        for k in self.scale.grid_ks:
            text = json.dumps(grid_doc(k, rng.permutation(k * k)))
            (work / f"grid{k}.json").write_text(text, encoding="utf-8")

    def prepare(self, work: Path) -> None:
        for k in self.scale.grid_ks:
            self.refs[k] = checks.Reference.from_doc(_read_json(work / f"grid{k}.json"))

    def next_cycle(self) -> None:
        return None

    def cycle(self, s: Session, _: None) -> None:
        eps = ["--epsilon", self.scale.grid_epsilon]
        for k in self.scale.grid_ks:
            s.check(self.refs[k], s.work / f"grid{k}.json", s.work / f"report{k}.json", eps, with_oracle=False,
                    expect=(0,))
        k = self.scale.grid_ks[0]
        sweep = s.work / "sweep.csv"
        if s.call(["sweep", "--input", str(s.work / f"grid{k}.json"), "--output", str(sweep)]) is not None:
            s.judge(lambda: checks.check_sweep(self.refs[k], sweep.read_text(encoding="utf-8"), SWEEP_GRID, s.rng))


class VerifySuite:
    """verify on a small seeded corpus, a new seed every cycle."""

    name = "verify-suite"
    subcommands = ("verify",)
    probe = staticmethod(python_probe)

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.rng = np.random.default_rng(seed)

    def write_inputs(self, work: Path) -> None:
        """verify builds its corpus from --seed; there is no input file."""

    def prepare(self, work: Path) -> None:
        pass

    def next_cycle(self) -> int:
        return int(self.rng.integers(2**31))

    def cycle(self, s: Session, suite_seed: int) -> None:
        out = s.work / "suite.json"
        argv = ["verify", "--seed", str(suite_seed), "--graphs", str(self.scale.verify_graphs),
                "--trials", str(self.scale.verify_trials), "--output", str(out)]
        rc = s.call(argv, expect=(0, 2))
        if rc is not None:
            s.judge(lambda: checks.check_verify(rc, _read_json(out)))


WORKLOADS = {w.name: w for w in (DiskPipeline, GridEigen, VerifySuite)}
