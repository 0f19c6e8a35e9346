"""What a fresh interpreter loads: :mod:`biconcert.verify` only when it is used.

Only the ``verify`` command runs the verification suite, so every other
command, and ``import biconcert.cli`` itself, must leave it unimported. Each
test runs its script in a new Python process: this test session has long
since imported the suite.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from biconcert.verify import SUITE_TOLERANCES

SRC = Path(__file__).resolve().parents[1] / "src"

# biconcert.__all__, in order; the package reads VERIFY_NAMES from biconcert.verify.
EXPECTED_ALL = [
    "__version__",
    "BiconnectivityReport",
    "BoundMode",
    "CheckOutcome",
    "CombinationParams",
    "EigenConvergenceError",
    "GraphInputError",
    "NodeCertificate",
    "NodeId",
    "PerturbationConfig",
    "PreconditionError",
    "ProximityModel",
    "SpectralTest",
    "WeightedGraph",
    "algebraic_connectivity",
    "articulation_points_bruteforce",
    "articulation_points_oracle",
    "certify_graph",
    "check_combination_realness",
    "check_eigenvalue_gap_bound",
    "check_intermediate_spectrum",
    "check_null_drift_derivative",
    "check_rank_one_update_spectrum",
    "counterexample_search",
    "coupling_matrix",
    "doubly_connected_oracle",
    "exact_norm_bound",
    "from_edge_list",
    "general_eigen",
    "graph_from_dict",
    "graph_to_dict",
    "intermediate_matrix",
    "is_biconnected_oracle",
    "is_connected_bfs",
    "is_connected_spectral",
    "laplacian",
    "locally_biconnected",
    "neighbor_weight_vector",
    "perturbed_laplacian",
    "proximity_graph",
    "random_connected_graph",
    "random_graph",
    "reduced_graph",
    "report_csv_rows",
    "report_to_dict",
    "run_suite",
    "simplified_bound",
    "spectral_certificate",
    "spectral_tests",
    "spectral_tests_many",
    "suite_passed",
    "symmetric_eigen",
]
VERIFY_NAMES = [
    "CheckOutcome",
    "CombinationParams",
    "check_combination_realness",
    "check_eigenvalue_gap_bound",
    "check_intermediate_spectrum",
    "check_null_drift_derivative",
    "check_rank_one_update_spectrum",
    "counterexample_search",
    "random_connected_graph",
    "random_graph",
    "run_suite",
    "suite_passed",
]

# Runs main(argv) with its stdout kept out of the script's own.
PRELUDE = """
import contextlib, io, json, sys

def quiet_main(argv):
    from biconcert.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

def verify_loaded():
    return "biconcert.verify" in sys.modules
"""


def run_fresh(script: str, cwd: Path) -> list:
    """Runs ``script`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_verify_loads_the_suite(tmp_path):
    loaded = run_fresh(
        """
import biconcert.cli
steps = [("import", verify_loaded())]
for argv in (
    ["gen", "--n", "30", "--seed", "1", "--radius", "0.4", "--output", "g.json"],
    ["check", "--input", "g.json", "--oracle", "--output", "r.json"],
    ["sweep", "--input", "g.json", "--output", "s.csv"],
    ["oracle", "--input", "g.json", "--output", "o.json"],
    ["export", "--input", "g.json", "--output", "g.dot"],
    ["verify", "--seed", "1", "--graphs", "1", "--trials", "1"],
):
    assert quiet_main(argv) in (0, 2), argv
    steps.append((argv[0], verify_loaded()))
print(json.dumps(steps))
""",
        tmp_path,
    )
    assert loaded == [
        ["import", False],
        ["gen", False],
        ["check", False],
        ["sweep", False],
        ["oracle", False],
        ["export", False],
        ["verify", True],
    ]


def test_package_reads_verify_names_on_first_use(tmp_path):
    got = run_fresh(
        f"""
import biconcert
before = verify_loaded()
from biconcert import CheckOutcome, run_suite
import biconcert.verify as verify
same = [getattr(biconcert, name) is getattr(verify, name) for name in {VERIFY_NAMES!r}]
missing = [name for name in biconcert.__all__ if not hasattr(biconcert, name)]
try:
    biconcert.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([before, run_suite is verify.run_suite, CheckOutcome is verify.CheckOutcome,
                  same, missing, unknown, biconcert.__all__]))
""",
        tmp_path,
    )
    before, run_suite_same, outcome_same, same, missing, unknown, names = got
    assert before is False
    assert run_suite_same and outcome_same and all(same)
    assert missing == []
    assert unknown == "module 'biconcert' has no attribute 'no_such_name'"
    assert names == EXPECTED_ALL


def test_verify_help_lists_every_tolerance_flag(tmp_path):
    code, text = run_fresh(
        """
with contextlib.redirect_stdout(io.StringIO()) as out:
    from biconcert.cli import main
    try:
        main(["verify", "--help"])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue()]))
""",
        tmp_path,
    )
    assert code == 0
    flags = set(re.findall(r"--tol-[a-z-]+", text))
    assert flags == {f"--tol-{name.replace('_', '-')}" for name in SUITE_TOLERANCES}


def test_parser_built_once_per_process(tmp_path):
    # The verify parser adds its --tol-* flags on its first parse only: a
    # second verify call in the process must not add them again.
    got = run_fresh(
        """
import biconcert.cli as cli

built = []
original = cli.build_parser
cli.build_parser = lambda: built.append(1) or original()
codes = [
    quiet_main(["gen", "--n", "12", "--seed", "5", "--radius", "0.6", "--output", "g.json"]),
    quiet_main(["verify", "--seed", "1", "--tol-gap", "nan"]),
    quiet_main(["verify", "--seed", "1", "--graphs", "1", "--trials", "1", "--tol-gap", "1e-9"]),
    quiet_main(["verify", "--help"]),
    quiet_main(["check", "--input", "g.json"]),
]
print(json.dumps([codes, len(built), cli._parser.cache_info().misses]))
""",
        tmp_path,
    )
    codes, built, misses = got
    assert codes[:2] == [0, 4] and codes[2] in (0, 2) and codes[3] == 0 and codes[4] in (0, 2)
    assert built == 1 and misses == 1
