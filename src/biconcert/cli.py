"""Command line front end.

Subcommands: ``gen`` (random disk-model graph), ``check`` (per-node
certificates plus graph verdict), ``oracle`` (exact articulation points),
``sweep`` (certificate quantities over an epsilon grid), ``export``
(Graphviz DOT), and ``verify`` (the numerical check suite). ``check`` and
``sweep`` take every lambda3, bound and verdict from one call of
:func:`biconcert.bicon.spectral_tests`, which on large graphs solves the
whole call with one eigendecomposition; ``check``'s JSON ``lambda3`` can then
differ from a direct dense eigensolve in its last digits. Either way a node
is certified only when lambda3 minus its error bound clears the bound, so a
verdict never rests on those digits and does not change with the unit of the
weights. Their CSV rows come from :mod:`biconcert.bicon`; this module writes
them.

Exit codes: 0 success or certified, 2 not certified, 3 precondition failure
(disconnected input, impossible generation), 4 malformed input or usage
(including non-finite weights, positions, epsilon or epsilon-grid values, a
graph file or ``gen --n`` whose node count is too large for a dense weight
matrix, an epsilon-grid count too large to hold in memory, a radius or
sigma that is not finite and positive, a ``--n``, ``--graphs`` or ``--trials``
below 1, a ``--seed`` below 0, a ``--tol-*`` value that is not finite and
>= 0, an epsilon so large that a certificate bound, a lambda3 or its error
bound overflows, which makes ``check`` and ``sweep`` write no file; and an
``--output`` path that cannot be written), 5 numerical failure (an
eigensolver, or the batched lambda3 solver's inertia count, did not converge).
Identical invocations (including ``--seed``) produce byte-identical output
files; randomness comes from numpy's seeded PCG64 generator, which is
recorded in generated file metadata. Every JSON file is byte-identical to
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline; the writer
hands lists of numbers, such as a graph's edges and positions, to json's C
encoder instead of its pure-Python indenting one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .bicon import (
    BoundMode,
    articulation_points_oracle,
    certify_graph,
    locally_biconnected,
    report_csv_rows,
    report_to_dict,
    spectral_tests,
    sweep_csv_rows,
)
from .errors import EigenConvergenceError, GraphInputError, PreconditionError
from .graph_core import (
    PerturbationConfig,
    ProximityModel,
    WeightedGraph,
    graph_from_dict,
    graph_to_dict,
    node_zeros,
    proximity_graph,
)
from .spectral import is_connected_bfs
from .verify import (
    INFORMATIONAL_CHECKS,
    SUITE_TOLERANCES,
    outcome_to_dict,
    run_suite,
    suite_passed,
)

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 2
EXIT_PRECONDITION = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5

GEN_MAX_ATTEMPTS = 500
RNG_NAME = "numpy-pcg64"
DEFAULT_EPS_GRID = "1e-4:1:13"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # not-certified exit code; surface them as input errors instead.
    def error(self, message: str) -> None:
        raise GraphInputError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse stops at a missing required flag or a bad value before it
        # reports unrecognised flags, so name those in the error too. Each
        # parser scans its own tokens: those up to a subcommand's name, which
        # the subcommand's parser gets the rest of. As in argparse, --flag=value
        # names --flag, a prefix of a flag names the flag, and a negative number
        # is a value.
        try:
            return super().parse_known_args(args, namespace)
        except GraphInputError as exc:
            subparsers = [a for a in self._actions if isinstance(a, argparse._SubParsersAction)]
            extras = []
            for token in sys.argv[1:] if args is None else args:
                if any(token in a.choices for a in subparsers):
                    break
                flag = token.split("=", 1)[0]
                if (
                    flag.startswith("-")
                    and not self._negative_number_matcher.match(flag)
                    and not any(opt.startswith(flag) for opt in self._option_string_actions)
                ):
                    extras.append(token)
            if not extras:
                raise
            raise GraphInputError(f"{exc}; unrecognized arguments: {' '.join(extras)}") from exc


def _at_least(convert, low: float, rule: str):
    """An argparse ``type=``: ``convert(text)``, which must lie in [low, inf).

    Counts, seeds and tolerances are checked here, as they are parsed;
    epsilon, radius, sigma and the epsilon grid by the types that use them.
    """

    def parse(text: str):
        value = convert(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse says "invalid int value: ..."
    return parse


_count = _at_least(int, 1, ">= 1")
_seed = _at_least(int, 0, ">= 0")
_tolerance = _at_least(float, 0.0, "finite and >= 0")


def parse_eps_grid(spec: str) -> list[float]:
    """Parse ``lo:hi:count`` (log spaced) or a comma list of explicit values."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise GraphInputError(f"bad grid spec {spec!r}, expected lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise GraphInputError(f"bad grid spec {spec!r}: {exc}") from exc
        if count < 1 or not all(0 < v < math.inf for v in (lo, hi)):
            raise GraphInputError(
                f"bad grid spec {spec!r}: need positive finite bounds and count >= 1"
            )
        try:
            return np.geomspace(lo, hi, count).tolist()
        except (ValueError, MemoryError) as exc:
            raise GraphInputError(
                f"bad grid spec {spec!r}: {count} values do not fit in memory"
            ) from exc
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise GraphInputError(f"bad grid value in {spec!r}: {exc}") from exc
    if not values:
        raise GraphInputError("epsilon grid must not be empty")
    if not all(0 < v < math.inf for v in values):
        raise GraphInputError("epsilon grid values must be positive and finite")
    return values


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


_SCALAR_TEXT = {
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, byte for byte.

    Raises ``TypeError`` where ``json.dumps`` does; a container that holds
    itself raises ``RecursionError``, where ``json.dumps`` raises
    ``ValueError``. A list of scalars, or of non-empty rows of scalars (a
    graph's ``edges`` and ``positions``), is written by json's C encoder,
    which ignores ``indent`` but writes numbers as the pure-Python encoder
    does (``int.__repr__``, ``float.__repr__``, ``NaN``, ``Infinity``): its
    item separator carries the indent, and one replacement indents the rows'
    brackets. Dicts and lists that hold strings, dicts or deeper lists
    recurse.
    """
    return _indented(obj, "\n") + "\n"


def _indented(o, nl: str) -> str:
    """``o`` as indented JSON; ``nl`` is a newline and the indent of the line ``o`` starts on."""
    scalar = _SCALAR_TEXT.get(type(o))
    if scalar is not None:
        return scalar(o)
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        kinds = set(map(type, o))
        if kinds <= _SCALAR_TEXT.keys():
            return f"[{inner}{_c_encode(o, inner)[1:-1]}{nl}]"
        if kinds <= {list, tuple} and all(o):
            cell = inner + "  "
            text = _c_encode(o, cell)
            # Rows of scalars: one bracket per row and no string, which every
            # non-empty dict holds as a key (an empty one reads {} either way).
            if text.count("[") == len(o) + 1 and '"' not in text:
                rows = text[2:-2].replace(f"],{cell}[", f"{inner}],{inner}[{cell}")
                return f"[{inner}[{cell}{rows}{inner}]{nl}]"
        items = f",{inner}".join([_indented(v, inner) for v in o])
        return f"[{inner}{items}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = f",{inner}".join([f"{_key(k)}: {_indented(v, inner)}" for k, v in sorted(o.items())])
        return f"{{{inner}{items}{nl}}}"
    if isinstance(o, int):  # bool is in _SCALAR_TEXT
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    return json.JSONEncoder().default(o)  # raises TypeError


def _c_encode(o: list | tuple, indent: str) -> str:
    """``o`` by json's C encoder, items separated by a comma and ``indent``."""
    return json.JSONEncoder(separators=("," + indent, ":"), check_circular=False).encode(o)


def _key(k) -> str:
    """A dict key as JSON: a string, or a bool, None, int or float written as one."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):  # bool is an int
            raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
        k = _indented(k, "")
    return json.encoder.encode_basestring_ascii(k)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise GraphInputError(f"cannot write {path}: {exc}") from exc


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _load_graph(path: str) -> WeightedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also undecodable UTF-8 and integers past int's digit limit
        raise GraphInputError(f"{path} is not valid JSON: {exc}") from exc
    return graph_from_dict(doc)


def _csv_sibling(path: str) -> str:
    return path[: -len(".json")] + ".csv" if path.endswith(".json") else path + ".csv"


def cmd_gen(args: argparse.Namespace) -> int:
    """Random connected disk-model graph in the unit square."""
    model = ProximityModel(radius=args.radius, sigma=args.sigma)
    rng = np.random.default_rng(args.seed)
    meta = {
        "seed": args.seed,
        "rng": RNG_NAME,
        "radius": args.radius,
        "sigma": args.sigma,
    }
    if args.n == 1:
        doc = graph_to_dict(
            WeightedGraph(n=1, weights=np.zeros((1, 1)), positions=rng.random((1, 2)))
        )
        doc["meta"] = meta
        _write_text(args.output_path, _dump_json(doc))
        return EXIT_OK
    for attempt in range(GEN_MAX_ATTEMPTS):
        # rng.random fills the array as it would allocate it: same draws
        g = proximity_graph(rng.random(out=node_zeros(args.n, 2)), model)
        if is_connected_bfs(g):
            doc = graph_to_dict(g)
            doc["meta"] = {**meta, "attempt": attempt}
            _write_text(args.output_path, _dump_json(doc))
            return EXIT_OK
    raise PreconditionError(
        f"no connected layout in {GEN_MAX_ATTEMPTS} attempts for n={args.n}, "
        f"radius={args.radius}; increase --radius or lower --n"
    )


def cmd_check(args: argparse.Namespace) -> int:
    """Certify a graph file; writes the JSON report (and CSV next to it)."""
    g = _load_graph(args.input_path)
    report = certify_graph(
        g, PerturbationConfig(args.epsilon), BoundMode(args.mode), with_oracle=args.oracle
    )
    _write_text(args.output_path, _dump_json(report_to_dict(report)))
    if args.output_path is not None:
        _write_text(_csv_sibling(args.output_path), _csv_text(report_csv_rows(report)))
    return EXIT_OK if report.graph_certified else EXIT_NOT_CERTIFIED


def cmd_oracle(args: argparse.Namespace) -> int:
    """Exact combinatorial answers for a graph file."""
    g = _load_graph(args.input_path)
    points = sorted(articulation_points_oracle(g))
    doc = {
        "articulation_points": points,
        "biconnected": g.n >= 3 and not points,
        "n": g.n,
    }
    _write_text(args.output_path, _dump_json(doc))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    """Certificate quantities for every node over an epsilon grid (CSV)."""
    grid = parse_eps_grid(args.eps_grid)
    g = _load_graph(args.input_path)
    _write_text(args.output_path, _csv_text(sweep_csv_rows(spectral_tests(g, range(g.n), grid))))
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    """Graphviz DOT with oracle and local-biconnectedness marks.

    Marks need a connected graph with n >= 2; any other is exported bare.
    """
    g = _load_graph(args.input_path)
    try:
        points = articulation_points_oracle(g)
        local = {i for i in range(g.n) if locally_biconnected(g, i)}
    except PreconditionError:
        points, local = set(), set()
    lines = ["graph g {", "  node [shape=circle];"]
    for i in range(g.n):
        attrs = []
        if g.positions is not None:
            attrs.append(f'pos="{g.positions[i, 0]:.6g},{g.positions[i, 1]:.6g}!"')
        if i in points:
            attrs.append("articulation=true")
            attrs.append("color=red")
        if i in local:
            attrs.append("locally_biconnected=true")
            attrs.append("style=filled")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {i}{suffix};")
    for i, j, w in g.edges():
        lines.append(f'  {i} -- {j} [label="{w:.4g}"];')
    lines.append("}")
    _write_text(args.output_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the numerical check suite; informational checks never gate."""
    outcomes = run_suite(
        seed=args.seed,
        n_graphs=args.graphs,
        trials=args.trials,
        tolerances={
            name: value
            for name in SUITE_TOLERANCES
            if (value := getattr(args, f"tol_{name}")) is not None
        },
    )
    width = max(len(o.name) for o in outcomes)
    lines = []
    for o in outcomes:
        tag = "INFO" if o.name in INFORMATIONAL_CHECKS else ("PASS" if o.passed else "FAIL")
        cases = (o.details or {}).get("cases", (o.details or {}).get("trials", ""))
        extra = ""
        if o.name == "null-drift-derivative":
            extra = f"  matches={ (o.details or {}).get('candidate_matches') }"
        if o.name.startswith("certificate-search"):
            extra = f"  witnesses={(o.details or {}).get('witnesses')}"
        lines.append(
            f"{o.name:<{width}}  {tag}  cases={cases}  max_error={o.max_error:.3e}{extra}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.output_path is not None:
        _write_text(
            args.output_path, _dump_json([outcome_to_dict(o) for o in outcomes])
        )
    return EXIT_OK if suite_passed(outcomes) else EXIT_NOT_CERTIFIED


_COMMANDS = {
    "gen": cmd_gen,
    "check": cmd_check,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "export": cmd_export,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biconcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random connected disk-model graph")
    gen.add_argument("--n", type=_count, required=True, help="number of nodes")
    gen.add_argument("--seed", type=_seed, required=True)
    gen.add_argument("--radius", type=float, default=0.5)
    gen.add_argument("--sigma", type=float, default=0.125)
    gen.add_argument("--output", dest="output_path")

    check = sub.add_parser("check", help="certify every node of a graph file")
    check.add_argument("--input", dest="input_path", required=True)
    check.add_argument("--output", dest="output_path")
    check.add_argument("--epsilon", type=float, default=0.05)
    check.add_argument(
        "--mode", choices=[m.value for m in BoundMode], default=BoundMode.EXACT_NORM.value
    )
    check.add_argument("--oracle", action="store_true", help="add exact-oracle columns")

    oracle = sub.add_parser("oracle", help="exact articulation points and verdict")
    oracle.add_argument("--input", dest="input_path", required=True)
    oracle.add_argument("--output", dest="output_path")

    sweep = sub.add_parser("sweep", help="certificate quantities over an epsilon grid")
    sweep.add_argument("--input", dest="input_path", required=True)
    sweep.add_argument("--output", dest="output_path")
    sweep.add_argument(
        "--eps-grid",
        dest="eps_grid",
        default=DEFAULT_EPS_GRID,
        help="lo:hi:count (log spaced) or comma-separated values",
    )

    export = sub.add_parser("export", help="Graphviz DOT with oracle marks")
    export.add_argument("--input", dest="input_path", required=True)
    export.add_argument("--output", dest="output_path")

    verify = sub.add_parser("verify", help="run the numerical check suite")
    verify.add_argument("--seed", type=_seed, required=True)
    verify.add_argument("--trials", type=_count, default=200, help="counterexample search trials")
    verify.add_argument("--graphs", type=_count, default=60, help="corpus size for the checks")
    verify.add_argument("--output", dest="output_path")
    for name in SUITE_TOLERANCES:
        verify.add_argument(f"--tol-{name.replace('_', '-')}", dest=f"tol_{name}", type=_tolerance)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of main, not at import, then reused: parsing
    # leaves no state behind in the parser.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EigenConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
