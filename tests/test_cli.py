"""CLI behavior: exit codes, file formats, determinism, round trips."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import biconcert.spectral
import biconcert.cli
from biconcert import graph_from_dict, is_connected_bfs
from biconcert.bicon import spectral_tests, sweep_csv_rows
from biconcert.cli import DEFAULT_EPS_GRID, EXIT_NUMERICAL, main, parse_eps_grid
from biconcert.errors import EigenConvergenceError, GraphInputError
from biconcert.verify import SUITE_TOLERANCES


def run(args):
    return main(args)


def write_graph(path, doc):
    path.write_text(json.dumps(doc))


P3_DOC = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "positions": None}
C4_DOC = {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0]], "positions": None}
K4_DOC = {
    "n": 4,
    "edges": [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0], [1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0]],
    "positions": None,
}


# Out-of-range flags, and what stderr must name; check also gets an --input.
OUT_OF_RANGE = [
    (["gen", "--seed", "1", "--n", "0"], "argument --n: must be >= 1"),
    (["gen", "--seed", "1", "--n", "-1"], "argument --n: must be >= 1"),
    (["gen", "--n", "5", "--seed", "-1"], "argument --seed: must be >= 0"),
    (["verify", "--seed", "1", "--graphs", "0"], "argument --graphs: must be >= 1"),
    (["verify", "--seed", "1", "--graphs", "-1"], "argument --graphs: must be >= 1"),
    (["verify", "--seed", "1", "--trials", "-1"], "argument --trials: must be >= 1"),
    (["verify", "--seed", "-1"], "argument --seed: must be >= 0"),
    (["check", "--epsilon", "0"], "epsilon"),
    (["check", "--epsilon", "-1"], "epsilon"),
    (["check", "--epsilon", "nan"], "nan"),
]


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["gen", "--n", "10", "--seed", "42", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_connected_and_loadable(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--n", "12", "--seed", "7", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        g = graph_from_dict(doc)
        assert g.n == 12
        assert is_connected_bfs(g)
        assert doc["meta"]["rng"] == "numpy-pcg64"
        assert doc["meta"]["seed"] == 7

    def test_single_node(self, tmp_path):
        out = tmp_path / "one.json"
        assert run(["gen", "--n", "1", "--seed", "1", "--output", str(out)]) == 0
        g = graph_from_dict(json.loads(out.read_text()))
        assert g.n == 1

    def test_zero_radius_fails_as_bad_input(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        for n in ("1", "2", "5"):
            for radius in ("0", "-0.5"):
                code = run(
                    ["gen", "--n", n, "--seed", "1", "--radius", radius, "--output", str(out)]
                )
                assert code == 4
                assert "radius must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_retry_exhaustion(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run(
            [
                "gen",
                "--n",
                "30",
                "--seed",
                "1",
                "--radius",
                "0.01",
                "--output",
                str(out),
            ]
        )
        assert code == 3
        assert "increase --radius" in capsys.readouterr().err


class TestCheck:
    def test_k4_certified_exit_zero(self, tmp_path):
        g = tmp_path / "k4.json"
        write_graph(g, K4_DOC)
        assert run(["check", "--input", str(g)]) == 0

    def test_path3_not_certified_exit_two(self, tmp_path, capsys):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        out = tmp_path / "report.json"
        code = run(["check", "--input", str(g), "--output", str(out), "--oracle"])
        assert code == 2
        report = json.loads(out.read_text())
        middle = report["nodes"][1]
        assert middle["locally_biconnected"] is False
        assert middle["certified"] is False
        assert middle["oracle_is_articulation"] is True
        csv_text = (tmp_path / "report.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("node,locally_biconnected,lambda3")
        assert len(lines) == 4

    def test_simplified_mode_certifies_path3(self, tmp_path):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run(["check", "--input", str(g), "--mode", "simplified"]) == 0

    def test_disconnected_exit_three(self, tmp_path):
        g = tmp_path / "split.json"
        write_graph(g, {"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]], "positions": None})
        assert run(["check", "--input", str(g)]) == 3

    def test_malformed_json_exit_four(self, tmp_path):
        g = tmp_path / "bad.json"
        g.write_text("{not json")
        assert run(["check", "--input", str(g)]) == 4

    @pytest.mark.parametrize(
        "text",
        [b'\xff{"n": 3, "edges": []}', b'{"n": ' + b"1" * 5000 + b', "edges": []}'],
        ids=["non-utf8", "integer-past-digit-limit"],
    )
    @pytest.mark.parametrize("command", ["check", "oracle", "sweep", "export"])
    def test_unreadable_json_exit_four(self, tmp_path, capsys, command, text):
        g = tmp_path / "bad.json"
        g.write_bytes(text)
        assert run([command, "--input", str(g)]) == 4
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "Traceback" not in err

    def test_bad_schema_exit_four(self, tmp_path):
        g = tmp_path / "bad.json"
        write_graph(g, {"n": 3})
        assert run(["check", "--input", str(g)]) == 4

    def test_missing_file_exit_four(self, tmp_path):
        assert run(["check", "--input", str(tmp_path / "nope.json")]) == 4


class TestOracle:
    def test_path3(self, tmp_path, capsys):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run(["oracle", "--input", str(g)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["articulation_points"] == [1]
        assert doc["biconnected"] is False

    def test_n_too_large_for_a_dense_matrix_exit_four(self, tmp_path, capsys):
        # numpy refuses a 10**10 x 10**10 array before it allocates anything.
        g = tmp_path / "huge.json"
        write_graph(g, {"n": 10**10, "edges": []})
        assert run(["oracle", "--input", str(g)]) == 4
        err = capsys.readouterr().err
        assert "n=10000000000" in err and "Traceback" not in err


def one_error_line(capsys) -> str:
    """The single stderr line a usage error leaves, without its "error: " prefix."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0][len("error: ") :]


# Sizes this host's allocator refuses outright rather than reserving: an
# n x n matrix of 728 TiB, 2**40 positions of 16 TiB, a grid of 7 PiB, and a
# grid past numpy's largest array size.
@pytest.mark.parametrize("n", [10_000_000, 2**40])
def test_gen_n_too_large_for_a_dense_matrix_exit_four(tmp_path, capsys, n):
    out = tmp_path / "g.json"
    assert run(["gen", "--n", str(n), "--seed", "1", "--output", str(out)]) == 4
    assert one_error_line(capsys) == f"node count n={n} is too large for a dense weight matrix"
    assert not out.exists()


@pytest.mark.parametrize("count", [10**15, 2**70])
def test_sweep_grid_count_too_large_exit_four(tmp_path, capsys, count):
    g, out = tmp_path / "p3.json", tmp_path / "sweep.csv"
    write_graph(g, P3_DOC)
    grid = f"1e-4:1:{count}"
    assert run(["sweep", "--input", str(g), "--eps-grid", grid, "--output", str(out)]) == 4
    assert one_error_line(capsys).startswith(f"bad grid spec '{grid}': ")
    assert not out.exists()


class TestSweep:
    def test_output_is_bicon_rows(self, tmp_path):
        g = tmp_path / "k4.json"
        write_graph(g, K4_DOC)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--input", str(g), "--output", str(out)]) == 0
        graph = graph_from_dict(K4_DOC)
        rows = sweep_csv_rows(spectral_tests(graph, range(graph.n), parse_eps_grid(DEFAULT_EPS_GRID)))
        assert out.read_text() == biconcert.cli._csv_text(rows)

    def test_path3_rows(self, tmp_path):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        out = tmp_path / "sweep.csv"
        assert (
            run(
                [
                    "sweep",
                    "--input",
                    str(g),
                    "--eps-grid",
                    "1e-4:1:9",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 9
        # middle node rows: simplified certifies at every epsilon, exact never
        middle = [ln.split(",") for ln in lines[1:] if ln.startswith("1,")]
        assert len(middle) == 9
        assert all(row[5] == "true" for row in middle)
        assert all(row[6] == "false" for row in middle)

    def test_deterministic_bytes(self, tmp_path):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["sweep", "--input", str(g), "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_rejected(self, tmp_path):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run(["sweep", "--input", str(g), "--eps-grid", ""]) == 4

    def test_grid_parser(self):
        assert parse_eps_grid("0.01,0.1") == [0.01, 0.1]
        grid = parse_eps_grid("1e-4:1:13")
        assert len(grid) == 13
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1.0)
        with pytest.raises(GraphInputError):
            parse_eps_grid("1:2")
        with pytest.raises(GraphInputError):
            parse_eps_grid("1e-4:1:0")


class TestExport:
    def test_path3_dot(self, tmp_path, capsys):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run(["export", "--input", str(g)]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("graph g {")
        assert "1 [articulation=true" in dot
        assert '0 -- 1 [label="1"]' in dot
        assert dot.count(" -- ") == 2

    def test_k4_no_marks(self, tmp_path, capsys):
        g = tmp_path / "k4.json"
        write_graph(g, K4_DOC)
        assert run(["export", "--input", str(g)]) == 0
        dot = capsys.readouterr().out
        assert "articulation" not in dot

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]], "positions": None},
            {"n": 1, "edges": [], "positions": None},
        ],
        ids=["disconnected", "one-node"],
    )
    def test_graph_without_marks_exported_bare(self, tmp_path, capsys, doc):
        g = tmp_path / "bare.json"
        write_graph(g, doc)
        assert run(["export", "--input", str(g)]) == 0
        dot = capsys.readouterr().out
        assert "articulation=true" not in dot and "locally_biconnected=true" not in dot
        nodes = [f"  {i};" for i in range(doc["n"])]
        edges = [f'  {i} -- {j} [label="1"];' for i, j, _ in doc["edges"]]
        assert dot.splitlines() == ["graph g {", "  node [shape=circle];", *nodes, *edges, "}"]

    def test_positions_emitted(self, tmp_path, capsys):
        g = tmp_path / "pos.json"
        write_graph(
            g,
            {
                "n": 2,
                "edges": [[0, 1, 0.5]],
                "positions": [[0.25, 0.5], [0.75, 0.5]],
            },
        )
        assert run(["export", "--input", str(g)]) == 0
        dot = capsys.readouterr().out
        assert 'pos="0.25,0.5!"' in dot
        assert 'label="0.5"' in dot

    def test_malformed_exit_four(self, tmp_path):
        g = tmp_path / "bad.json"
        g.write_text("[1, 2")
        assert run(["export", "--input", str(g)]) == 4


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = run(
            ["verify", "--seed", "3", "--graphs", "6", "--trials", "10", "--output", str(out)]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "intermediate-spectrum-match" in table
        assert "PASS" in table
        doc = json.loads(out.read_text())
        names = {entry["name"] for entry in doc}
        assert "certificate-search-simplified" in names

    def test_zero_trials_rejected(self):
        assert run(["verify", "--seed", "3", "--trials", "0"]) == 4

    def test_deterministic_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                run(
                    [
                        "verify",
                        "--seed",
                        "3",
                        "--graphs",
                        "5",
                        "--trials",
                        "8",
                        "--output",
                        str(out),
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_unknown_flag_exit_four(self):
        assert run(["check", "--nope"]) == 4

    @pytest.mark.parametrize(
        "argv, missing",
        [(["check", "--nope"], "--input"), (["verify", "--nope"], "--seed"), (["--nope"], "command")],
        ids=["check", "verify", "no-command"],
    )
    def test_unknown_flag_named_next_to_missing_required_flag(self, capsys, argv, missing):
        # argparse alone reports only the missing flag
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert "--nope" in err and missing in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["gen", "--n", "0", "--seed", "1", "--nope"], "argument --n: must be >= 1, got 0"),
            (["gen", "--n", "5", "--se", "-1", "--nope"], "argument --seed: must be >= 0, got -1"),
            (["verify", "--seed", "1", "--tol-gap=nan", "--nope"], "argument --tol-gap"),
        ],
        ids=["bad-value", "abbreviated-flag-negative-value", "flag-equals-value"],
    )
    def test_unknown_flag_named_next_to_bad_value(self, capsys, argv, problem):
        # argparse alone reports only the bad value; abbreviated flags and
        # negative numbers are not named as unrecognised
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert problem in err
        assert err.rstrip().endswith("; unrecognized arguments: --nope")

    @pytest.mark.parametrize(
        "argv, named", OUT_OF_RANGE, ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE]
    )
    def test_out_of_range_flag_exit_four(self, tmp_path, capsys, argv, named):
        g = tmp_path / "k4.json"
        write_graph(g, K4_DOC)
        if argv[0] == "check":
            argv = argv + ["--input", str(g)]
        out = tmp_path / "out.json"
        assert run(argv + ["--output", str(out)]) == 4
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k4.json"]

    def test_unset_flags_take_parser_defaults(self, tmp_path, capsys):
        g = tmp_path / "k4.json"
        write_graph(g, K4_DOC)
        assert run(["check", "--input", str(g)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["epsilon"], report["mode"]) == (0.05, "exact")
        out = tmp_path / "g.json"
        assert run(["gen", "--n", "5", "--seed", "1", "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert (meta["radius"], meta["sigma"]) == (0.5, 0.125)

    def test_round_trip_gen_check(self, tmp_path):
        g = tmp_path / "g.json"
        assert run(["gen", "--n", "8", "--seed", "13", "--output", str(g)]) == 0
        assert run(["check", "--input", str(g)]) in (0, 2)
        assert run(["oracle", "--input", str(g), "--output", str(tmp_path / "o.json")]) == 0
        assert run(["sweep", "--input", str(g), "--output", str(tmp_path / "s.csv")]) == 0
        assert run(["export", "--input", str(g), "--output", str(tmp_path / "g.dot")]) == 0

    def test_parser_built_once_and_reused(self, tmp_path, monkeypatch, capsys):
        # Repeated main() calls in one process share one parser; a usage
        # error after a successful call still exits 4.
        built = []
        original = biconcert.cli.build_parser
        monkeypatch.setattr(biconcert.cli, "build_parser", lambda: built.append(1) or original())
        biconcert.cli._parser.cache_clear()
        graph = str(tmp_path / "g.json")
        assert main(["gen", "--n", "12", "--seed", "5", "--radius", "0.6", "--output", graph]) == 0
        assert main(["check", "--input", graph, "--output", str(tmp_path / "r.json")]) in (0, 2)
        capsys.readouterr()
        assert main(["check", "--input", graph, "--epsilon", "not-a-number"]) == 4
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("biconcert ")
        assert len(built) == 1


INF_WEIGHT_TEXT = '{"n": 3, "edges": [[0, 1, Infinity], [1, 2, 1.0]]}'


class TestNonFiniteInput:
    def test_infinite_weight_check_exit_four(self, tmp_path, capsys):
        g = tmp_path / "inf.json"
        g.write_text(INF_WEIGHT_TEXT)
        assert run(["check", "--input", str(g)]) == 4
        assert "finite" in capsys.readouterr().err

    def test_infinite_weight_export_exit_four(self, tmp_path, capsys):
        g = tmp_path / "inf.json"
        g.write_text(INF_WEIGHT_TEXT)
        assert run(["export", "--input", str(g)]) == 4
        assert 'label="inf"' not in capsys.readouterr().out

    def test_non_numeric_weight_exit_four(self, tmp_path):
        g = tmp_path / "null.json"
        write_graph(g, {"n": 3, "edges": [[0, 1, None], [1, 2, 1.0]]})
        assert run(["check", "--input", str(g)]) == 4

    def test_infinite_epsilon_exit_four(self, tmp_path):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run(["check", "--input", str(g), "--epsilon", "inf"]) == 4

    @pytest.mark.parametrize("grid", ["inf", "1e-4,nan", "1e-4:inf:3", "nan:1:3"])
    def test_non_finite_eps_grid_exit_four(self, tmp_path, grid):
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run(["sweep", "--input", str(g), "--eps-grid", grid]) == 4

    # On the unit 4-cycle, 1e308 overflows the bounds; at 5e307 they stay
    # finite, but ||L_i(eps)||_1 = 4 eps, and with it tau, overflows.
    @pytest.mark.parametrize("eps", ["1e308", "5e307"])
    @pytest.mark.parametrize(
        "argv",
        [["check", "--epsilon", "{}"], ["sweep", "--eps-grid", "1e-4,{}"]],
        ids=["check", "sweep"],
    )
    def test_overflowing_epsilon_exit_four(self, tmp_path, capsys, argv, eps):
        g = tmp_path / "c4.json"
        write_graph(g, C4_DOC)
        argv = [arg.format(eps) for arg in argv] + ["--input", str(g), "--output", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
        assert list(tmp_path.iterdir()) == [g]

    # Finite weights whose weighted degree overflows: the Laplacian would hold
    # inf, so no eigensolve may start. The oracles read only the edges.
    OVERFLOWING_DEGREE = {
        "n": 5,
        "edges": [[0, 1, 1e308], [1, 2, 1e308], [0, 2, 1e308], [3, 0, 1.0], [3, 1, 1.0], [3, 4, 1.0]],
    }

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_overflowing_degree_exit_four(self, tmp_path, capsys, command):
        g = tmp_path / "big.json"
        write_graph(g, self.OVERFLOWING_DEGREE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--input", str(g), "--output", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "weighted degree" in err
        assert list(tmp_path.iterdir()) == [g]

    @pytest.mark.parametrize("command", ["oracle", "export"])
    def test_overflowing_degree_oracles_exit_zero(self, tmp_path, command):
        g = tmp_path / "big.json"
        write_graph(g, self.OVERFLOWING_DEGREE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--input", str(g), "--output", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("name", [name.replace("_", "-") for name in SUITE_TOLERANCES])
    def test_bad_tolerance_exit_four(self, capsys, name, value):
        argv = ["verify", "--seed", "3", "--graphs", "5", "--trials", "5"]
        assert run(argv + [f"--tol-{name}", value]) == 4
        assert f"argument --tol-{name}: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "5"])
    @pytest.mark.parametrize("flag", ["--radius", "--sigma"])
    def test_infinite_model_gen_exit_four(self, tmp_path, capsys, flag, n):
        out = tmp_path / "g.json"
        argv = ["gen", "--n", n, "--seed", "1", "--radius", "0.9", flag, "inf"]
        assert run(argv + ["--output", str(out)]) == 4
        assert f"{flag[2:]} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x", [float("nan"), "a"])
    @pytest.mark.parametrize("command", ["export", "check"])
    def test_bad_position_exit_four(self, tmp_path, capsys, command, x):
        g = tmp_path / "bad.json"
        write_graph(g, {**P3_DOC, "positions": [[x, 0.0], [1.0, 0.0], [2.0, 0.0]]})
        assert run([command, "--input", str(g)]) == 4
        captured = capsys.readouterr()
        assert "node positions must be" in captured.err
        assert captured.out == ""

    # JSON true and "2.5" are not numbers, and an integer past float range has
    # no float value; float() would accept the first two and overflow on the last.
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({**P3_DOC, "edges": [[0, 1, True], [1, 2, 1.0]]}, "edge weight in [0, 1, True] is not a number"),
            ({**P3_DOC, "edges": [[0, 1, "2.5"], [1, 2, 1.0]]}, "edge weight in [0, 1, '2.5'] is not a number"),
            ({**P3_DOC, "edges": [[0, 1, 10**400], [1, 2, 1.0]]}, "is not a number"),
            ({**P3_DOC, "positions": [[True, 0], [1, 0], [2, 0]]}, "node positions must be numbers"),
            ({**P3_DOC, "positions": [["0", 0], [1, 0], [2, 0]]}, "node positions must be numbers"),
            ({**P3_DOC, "positions": [[10**400, 0], [1, 0], [2, 0]]}, "node positions must be numbers"),
        ],
        ids=["true-weight", "string-weight", "huge-weight", "true-position", "string-position", "huge-position"],
    )
    @pytest.mark.parametrize("command", ["check", "oracle", "export"])
    def test_weight_or_position_not_a_number_exit_four(self, tmp_path, capsys, command, doc, message):
        g = tmp_path / "bad.json"
        write_graph(g, doc)
        assert run([command, "--input", str(g)]) == 4
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_eigensolver_failure_exit_five(self, tmp_path, capsys, monkeypatch, command):
        def failing(m, want_vectors=False):
            raise EigenConvergenceError("symmetric eigensolve failed: injected")

        monkeypatch.setattr(biconcert.spectral, "symmetric_eigen", failing)
        g = tmp_path / "p3.json"
        write_graph(g, P3_DOC)
        assert run([command, "--input", str(g)]) == EXIT_NUMERICAL == 5
        assert "injected" in capsys.readouterr().err


# sha256 of the files `gen --n 200 --radius 0.14 --seed S`, then `oracle` and
# `export` on that graph, write. They hold no eigenvalue, so their bytes do not
# depend on the LAPACK build; they pin the generator, edge order, weights and
# oracle marks across refactors of the graph code.
GOLDEN_SHA256 = {
    1: (
        "37170e0255c1411d53c0b8759425e2967e0f2179a7c36a1253917c2759877b5a",
        "767abbe3bef1541fccda8050bb79c94211c04f80c19f5bcb2b048e8991127aef",
        "80d29c2b1c463032b8b0cf58014f4f2e0ca1752d923e86c61424d971ca8c6121",
    ),
    2: (
        "5ffe3cc621d404dd326b86f46d003c998ce3320a3cd28490c3a9698cd9d98596",
        "8759027bfe9169c66938db760038c0856954b99a5e56c32845772f9b2f41e6af",
        "da864ea9a58bf64f9cc9bca4ddf3178ad216b8375945457a246dd4fc748aba12",
    ),
    3: (
        "992ec09ffd6ccbae8c019085c377b3f34404e4a71f281d26e5675d041719cd50",
        "ecee19ce37db934816b88a6954434cf1ccff81156352a502023c8268e4862e88",
        "0158e1de165e7642e0f28780a5d1a64425fc1968fe232c7bda88d87f747c2b51",
    ),
}


def gen_disk200(tmp_path, seed):
    g = tmp_path / f"g{seed}.json"
    argv = ["gen", "--n", "200", "--seed", str(seed), "--radius", "0.14"]
    assert run(argv + ["--output", str(g)]) == 0
    return g


class TestGoldenOutputs:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
    def test_gen_oracle_export_bytes(self, tmp_path, seed):
        g = gen_disk200(tmp_path, seed)
        o, d = tmp_path / "o.json", tmp_path / "g.dot"
        assert run(["oracle", "--input", str(g), "--output", str(o)]) == 0
        assert run(["export", "--input", str(g), "--output", str(d)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (g, o, d))
        assert digests == GOLDEN_SHA256[seed]

    @pytest.mark.parametrize(
        "argv", [["export"], ["oracle"], ["check", "--oracle"]], ids=" ".join
    )
    def test_one_connectivity_search_per_command(self, tmp_path, searched, argv):
        g = gen_disk200(tmp_path, 1)
        searched.clear()  # gen's own draws
        out = tmp_path / "out"
        assert run(argv + ["--input", str(g), "--output", str(out)]) in (0, 2)
        assert [graph.n for graph in searched] == [200]
