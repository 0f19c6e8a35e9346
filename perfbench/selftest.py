"""Self-test of the benchmark at tiny size: ``python3 perfbench/selftest.py``.

Runs every workload with ``--tiny --seconds 1``, untraced and traced, and
checks that each run is correct and reports every metric with its unit.
Feeds the output checks wrong answers, some of them made by editing what
the program wrote, and requires that they catch them; checks that tracing
wraps every binding of a function and restores it; and checks that the
benchmark fails without a result when the program's sources are missing.
Exits 1 if anything fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys

import numpy as np

import checks
import run
import tracing
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def cli_run(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def rng():
    return np.random.default_rng(0)


def tiny_runs() -> None:
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seen_e2e: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170,
            )
            what = f"{name} trace={trace}"
            expect(proc.returncode == 0, f"{what}: exits 0")
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: correct")
            wanted = contract["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in wanted}, f"{what}: every BENCHMARK.json metric, with its unit")
            doc = json.loads((run.OUT / f"results-{name}-seed5-trace{trace}.json").read_text(encoding="utf-8"))
            seen_e2e.update({k: v["unit"] for k, v in doc["end_to_end"].items()})
            expect(doc["environment"]["nproc"] >= 1 and "blas" in doc["environment"], f"{what}: environment record")
            if trace:
                layers = {k: v["unit"] for k, v in doc["per_layer"].items()}
                expect(layers == {n: u for n, u, _, _ in tracing.LAYER_METRICS}, f"{what}: every per-layer metric")
                zero = [k for k, v in result["metrics"].items() if not v["value"]]
                expect(not zero, f"{what}: no BENCHMARK.json per-layer metric is 0 {zero or ''}")
    missing = {k: u for k, u in run.END_TO_END.items() if seen_e2e.get(k) != u}
    expect(not missing, f"every end-to-end metric appears with its unit across the workloads {missing or ''}")


def injected_wrong_answers(cli) -> None:
    work = run.OUT / "selftest-answers"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        path3 = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "positions": None}
        (work / "p3.json").write_text(json.dumps(path3), encoding="utf-8")
        rc = cli_run(cli, ["check", "--input", str(work / "p3.json"), "--oracle", "--output", str(work / "p3r.json")])
        honest = json.loads((work / "p3r.json").read_text(encoding="utf-8"))
        path_reports(checks.Reference.from_doc(path3), honest, rc)
        grid = workloads.grid_doc(3, np.random.default_rng(0).permutation(9))
        (work / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
        rc = cli_run(cli, ["check", "--input", str(work / "grid.json"), "--epsilon", "1e-4",
                           "--output", str(work / "report.json")])
        cli_run(cli, ["sweep", "--input", str(work / "grid.json"), "--output", str(work / "sweep.csv")])
        grid_reports(checks.Reference.from_doc(grid), json.loads((work / "report.json").read_text(encoding="utf-8")),
                     rc, (work / "sweep.csv").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    other_outputs()


def path_reports(ref: checks.Reference, honest: dict, rc: int) -> None:
    """The unit 3-path, whose middle node 1 is a cut vertex."""
    expect(rc == 2 and checks.check_report(ref, honest, rc, True, rng()) == checks.Verdict(),
           "the program's P3 report passes")
    lying = copy.deepcopy(honest)
    lying["nodes"][1]["certified"] = lying["graph_certified"] = True
    expect(checks.check_report(ref, lying, 0, True, rng()).unsound == 1, "a report certifying node 1 of P3 counts as unsound")
    expect(checks.check_report(ref, honest, 0, True, rng()).problems != [], "a wrong check exit code is caught")
    local = copy.deepcopy(honest)
    local["nodes"][0]["locally_biconnected"] = False
    expect(checks.check_report(ref, local, rc, True, rng()).problems != [], "a wrong locally_biconnected flag is caught")
    expect(checks.check_oracle(ref, {"articulation_points": [1], "biconnected": False, "n": 3}) == checks.Verdict(),
           "an honest oracle document passes")
    expect(checks.check_oracle(ref, {"articulation_points": [], "biconnected": False, "n": 3}).problems != [],
           "an oracle document missing a cut vertex fails")


def grid_reports(ref: checks.Reference, honest: dict, rc: int, sweep: str) -> None:
    """A 3x3 grid at epsilon 1e-4: every node needs, and gets, a certificate."""
    grid = workloads.SWEEP_GRID
    expect(rc == 0 and checks.check_report(ref, honest, rc, False, rng()) == checks.Verdict(),
           "the program's grid report passes, every node certified")
    off = copy.deepcopy(honest)
    for c in off["nodes"]:
        c["lambda3"] *= 1.001
    expect(checks.check_report(ref, off, rc, False, rng()).problems != [], "a wrong lambda3 on a grid is caught")
    none = copy.deepcopy(honest)
    for c in none["nodes"]:
        c["certified"] = False
    none["graph_certified"] = False
    expect(checks.check_report(ref, none, 2, False, rng()).problems != [], "a grid report certifying no node is caught")
    bound = copy.deepcopy(honest)
    for c in bound["nodes"]:
        c["exact_norm_bound"] *= 2
    expect(checks.check_report(ref, bound, rc, False, rng()).problems != [], "a wrong exact bound is caught")
    expect(checks.check_sweep(ref, sweep, grid, rng()) == checks.Verdict(), "the program's grid sweep passes")
    head, *rows = sweep.splitlines()
    cells = [r.split(",") for r in rows]
    off = [c[:2] + [format(float(c[2]) * 1.001, ".6g")] + c[3:] for c in cells]
    expect(checks.check_sweep(ref, "\n".join([head] + [",".join(c) for c in off]), grid, rng()).problems != [],
           "a wrong sweep lambda3 is caught")
    flipped = [c[:6] + ["false" if c[6] == "true" else "true"] for c in cells]
    expect(checks.check_sweep(ref, "\n".join([head] + [",".join(c) for c in flipped]), grid, rng()).problems != [],
           "a flipped sweep certified_exact flag is caught")
    expect(checks.check_sweep(ref, "\n".join([head] + rows[:-1]), grid, rng()).problems != [],
           "a sweep missing a row is caught")


def other_outputs() -> None:
    ref = checks.Reference.from_doc({"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "positions": None})
    dot = "graph g {\n  node [shape=circle];\n  0 [locally_biconnected=true];\n  1;\n  2 [locally_biconnected=true];\n"
    dot += '  0 -- 1 [label="1"];\n  1 -- 2 [label="1"];\n}\n'
    expect(checks.check_export(ref, dot).problems != [], "an export without the articulation mark fails")
    rows = "node,epsilon,lambda3,simplified_bound,exact_bound,certified_simplified,certified_exact\n"
    rows += "".join(f"{i},0.1,1,1,1,false,{'true' if i == 1 else 'false'}\n" for i in range(3))
    expect(checks.check_sweep(ref, rows, [0.1], rng()).unsound == 1, "a sweep row certifying a cut vertex counts as unsound")
    expect(checks.check_verify(0, [{"name": "combination-realness", "passed": False}]).problems != [],
           "a failing verify check is caught")
    w = math.exp(-0.01 / 0.25)
    disk = {"n": 3, "edges": [[0, 1, w], [1, 2, w]], "positions": [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]}
    text = json.dumps(disk)
    expect(checks.check_gen(text, text, 3, 0.15, 0.125) == checks.Verdict(), "an honest gen output passes")
    expect(checks.check_gen(text, text.replace("0.2", "0.25"), 3, 0.15, 0.125).problems != [],
           "gen outputs that differ between repeats fail")
    wrong = json.dumps({**disk, "edges": [[0, 1, w], [1, 2, 0.5]]})
    expect(checks.check_gen(wrong, wrong, 3, 0.15, 0.125).problems != [], "a wrong disk-model weight fails")


def tracer_bindings() -> None:
    import biconcert
    import biconcert.bicon as bicon
    import biconcert.spectral as spectral

    triangle = biconcert.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    original = spectral.symmetric_eigen
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = bicon.symmetric_eigen is spectral.symmetric_eigen is not original
        biconcert.certify_graph(triangle, biconcert.PerturbationConfig(0.01))
    finally:
        tracer.uninstall()
    expect(wrapped, "tracing wraps a function under every module that imports it")
    expect(bicon.symmetric_eigen is original and spectral.symmetric_eigen is original, "uninstall restores originals")
    names = [s[0] for s in tracer.spans]
    expect("bicon.certify_graph" in names and "spectral.is_connected_bfs" in names, "spans record nested calls")


def absent_program() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid-eigen", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "without src/ the run fails and prints no result")


if __name__ == "__main__":
    run.OUT.mkdir(parents=True, exist_ok=True)
    injected_wrong_answers(run.load_cli())
    tracer_bindings()
    absent_program()
    tiny_runs()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
