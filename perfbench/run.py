"""Benchmark of the biconcert CLI: end-to-end timings and a traced per-layer run.

    python3 perfbench/run.py --workload disk-pipeline --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/``. The run repeats the workload's cycle of CLI calls
until ``--seconds`` would be exceeded, checks every output against
networkx, prints a table of every metric (median, tail percentile, sample
count), writes a results file with the environment record under
``perfbench/out/``, and ends with one JSON line holding the metrics that
BENCHMARK.json names: its ``end_to_end`` metrics with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.

With ``--trace 1`` every cycle runs twice on the same input, untraced and
then traced; the per-layer numbers are per traced cycle, and
``trace.overhead_ratio`` is traced over untraced time. ``--tiny`` shrinks
every input, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Imports biconcert.cli in a fresh interpreter, as a CLI user pays it, between
# two runs of the Python probe in that same process; prints all three times.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import python_probe
before = python_probe()
start = time.perf_counter()
import biconcert.cli
print(time.perf_counter() - start, before, python_probe())
"""

# Replays one cycle's CLI calls in a fresh interpreter that imports only
# biconcert, and prints that process's peak resident set in MB. It reads
# VmHWM, because Linux carries ru_maxrss across fork and exec, so the
# child's ru_maxrss would be at least the benchmark process's.
RSS_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import biconcert.cli
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        biconcert.cli.main(argv)
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
"""

# Name and unit of every end-to-end metric. The first four are reported by
# every workload, so BENCHMARK.json may bound them; the subcommand times and
# check figures appear only on the workloads that run those calls.
END_TO_END = {
    "setup_s": "s", "cycle_s": "s", "call_geomean_s": "s", "peak_rss_mb": "MB",
    "gen_s": "s", "check_s": "s", "oracle_s": "s", "export_s": "s", "sweep_s": "s", "verify_s": "s",
    "check_nodes_per_s": "1/s", "certified_fraction": "ratio",
    "unsound_certificates": "count", "ops_failed": "count", "ops_attempted": "count",
}


def load_cli():
    """The checkout's biconcert.cli; exits without a result when it is absent."""
    src = ROOT / "src"
    if not (src / "biconcert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no biconcert sources under {src}")
    sys.path.insert(0, str(src))
    import biconcert.cli

    if Path(biconcert.cli.__file__).resolve().parent != (src / "biconcert").resolve():
        raise SystemExit(f"perfbench: imported biconcert from {biconcert.cli.__file__}, not {src}")
    return biconcert.cli


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
    }


def measure_setup(workload, work: Path) -> tuple[list[float], list[float]]:
    """Import in a fresh interpreter plus writing the inputs, several times.

    Returns calibrated and wall seconds, calibrated by the Python probe run
    in the importing process.
    """
    import speed

    samples, walls = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
                              capture_output=True, text=True, check=True, timeout=120)
        imported, before, after = map(float, proc.stdout.split())
        start = perf_counter()
        workload.write_inputs(work)
        wall = imported + perf_counter() - start
        walls.append(wall)
        samples.append(speed.calibrated(wall, before, after))
    return samples, walls


def run_cycles(workload, plain, traced, tracer, seconds: float) -> tuple[list[float], list[float], list[float], int]:
    """Cycles while one more and the memory replay would end by ``seconds``.

    Returns the calibrated and wall busy time of each untraced cycle, the
    calibrated time of each traced one, and the index in ``plain.argvs`` of
    the last cycle's first call. A cycle's time is the sum of its calls, so
    checking outputs is not in it. With a tracer, each cycle is repeated
    traced on the same input.
    """
    plain_times, plain_walls, traced_times = [], [], []
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        arg = workload.next_cycle()
        busy, first = plain.busy, len(plain.calls)
        workload.cycle(plain, arg)
        plain_times.append(plain.busy - busy)
        plain_walls.append(sum(call[1] for call in plain.calls[first:]))
        if tracer is not None:
            busy = traced.busy
            tracer.install()
            try:
                workload.cycle(traced, arg)
            finally:
                tracer.uninstall()
            traced_times.append(traced.busy - busy)
        now = perf_counter()
        if (now - start) + 2 * (now - cycle_start) > seconds:
            return plain_times, plain_walls, traced_times, first


def peak_rss_mb(argvs: list[list[str]]) -> float:
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, str(ROOT / "src")], input=json.dumps(argvs),
                          capture_output=True, text=True, check=True, timeout=150)
    return float(proc.stdout)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return None, None


def timing(values: list[float], walls: list[float] | None = None) -> dict:
    """Median, tail and count of calibrated seconds, with the median wall time."""
    p, t = tail(values)
    m = {"value": statistics.median(values), "unit": "s", "tail_pct": p, "tail": t, "samples": len(values)}
    if walls:
        m["wall"] = statistics.median(walls)
    return m


def end_to_end(workload, session, setup, setup_wall, cycles, cycle_walls, rss_mb) -> dict:
    walls = {c: [wall for cmd, wall, _, _ in session.calls if cmd == c] for c in session.samples}

    def geomean(medians):
        return math.exp(statistics.fmean(math.log(medians[c]) for c in workload.subcommands))

    m = {
        "setup_s": timing(setup, setup_wall),
        "cycle_s": timing(cycles, cycle_walls),
        "call_geomean_s": {
            "value": geomean({c: statistics.median(v) for c, v in session.samples.items()}),
            "unit": "s",
            "wall": geomean({c: statistics.median(v) for c, v in walls.items()}),
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    for c, values in session.samples.items():
        m[f"{c}_s"] = timing(values, walls[c])
    if session.check_nodes:
        m["check_nodes_per_s"] = {"value": session.check_nodes / sum(session.samples["check"]), "unit": "1/s"}
        m["certified_fraction"] = {"value": session.check_safe_nodes / session.check_nodes, "unit": "ratio"}
    return m


def print_table(title: str, metrics: dict) -> None:
    print(title)
    print(f"  {'metric':<40} {'unit':<6} {'median/value':>14} {'tail':>16} {'samples':>7} {'wall median':>12}")
    for name, m in metrics.items():
        tail_text = "-" if m.get("tail") is None else f"p{m['tail_pct']:g}={m['tail']:.6g}"
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        wall = f"{m['wall']:.6g}" if "wall" in m else ""
        note = f"  {m['note']}" if m.get("note") else ""
        print(f"  {name:<40} {m['unit']:<6} {value:>14} {tail_text:>16} {m.get('samples', '')!s:>7} {wall:>12}{note}")


def run_one(args) -> int:
    cli = load_cli()
    import tracing
    import workloads

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scale = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](scale, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_wall = measure_setup(workload, work)
        workload.prepare(work)
        plain = workloads.Session(cli, work, workload.probe, args.seed)
        traced = workloads.Session(cli, work, workload.probe, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        cycles, cycle_walls, traced_cycles, last = run_cycles(workload, plain, traced, tracer, args.seconds)
        rss_mb = peak_rss_mb(plain.argvs[last:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(workload, plain, setup, setup_wall, cycles, cycle_walls, rss_mb)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    unsound = plain.unsound + traced.unsound
    e2e["unsound_certificates"] = {"value": unsound, "unit": "count"}
    e2e["ops_failed"] = {"value": failed, "unit": "count"}
    e2e["ops_attempted"] = {"value": attempted, "unit": "count"}
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print("env: " + json.dumps(env, sort_keys=True))
    print_table("end to end (untraced cycles; calibrated seconds, see README):", e2e)

    layers = {}
    if tracer is not None:
        values = tracing.layer_metrics(tracer.spans, traced_cycles, cycles)
        layers = {name: {"value": values[name], "unit": unit, "better": better, "moves": moves,
                         "note": "computed" if unit in ("flop", "B") else ""}
                  for name, unit, better, moves in tracing.LAYER_METRICS}
        print_table(f"per layer (per traced cycle, {len(traced_cycles)} cycles):", layers)
        print("traced time by subcommand, then the largest self times:")
        for cmd, rows in tracing.op_breakdown(tracer.spans).items():
            wall = rows[0][1]
            parts = ", ".join(f"{name} {t / wall:.0%}" for name, t in rows[1:])
            print(f"  {cmd}: {wall:.4g} s: {parts}")
        tracer.write(OUT / f"spans-{tag}.jsonl.gz")
    for problem in (plain.problems + traced.problems)[:20]:
        print(f"FAILED: {problem}")

    defined = {**END_TO_END, **{n: u for n, u, _, _ in tracing.LAYER_METRICS}}
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    for m in wanted:
        if defined.get(m["name"]) != m["unit"]:
            raise SystemExit(f"perfbench: BENCHMARK.json metric {m['name']} ({m['unit']}) is not measured here")
    source = layers if args.trace else e2e
    result = {
        "correct": failed == 0 and unsound == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }
    results_path = OUT / f"results-{tag}.json"
    results_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "environment": env, "end_to_end": e2e, "per_layer": layers,
        "samples": {"setup_s": setup, "cycle_s": cycles, "traced_cycle_s": traced_cycles,
                    **{f"{c}_s": v for c, v in plain.samples.items()}},
        "setup_wall_s": setup_wall,
        "cycle_wall_s": cycle_walls,
        "calls": plain.calls,
        "problems": plain.problems + traced.problems, "result": result,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + ["--tiny"] * args.tiny
        status = subprocess.run(argv).returncode or status
    return status


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
