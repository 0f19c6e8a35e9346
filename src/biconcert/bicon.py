"""Articulation-point certificates and exact combinatorial oracles.

The spectral certificate probes a node by scaling its incident edge weights
by a factor epsilon and comparing the third smallest eigenvalue of the
resulting Laplacian against an eigenvalue-gap bound. If the eigenvalue clears
the bound, removing the node cannot disconnect the graph: the certificate is
*sufficient only*, a node can fail it and still be harmless.

Two bound variants exist:

* ``EXACT_NORM``: epsilon times the Frobenius norm of the actual coupling
  matrix ``diag(a) + a 1^T``, which is the quantity the gap inequality
  bounds, computed in its closed form ``eps * sqrt((n + 2) * sum a_k^2)``.
  This mode is sound and is the default.
* ``SIMPLIFIED``: ``epsilon * sqrt(n) * sqrt(sum a_k^2)``, a closed form that
  treats the coupling matrix as if its rows were constant. It evaluates below
  the true Frobenius norm ``sqrt((n + 2) * sum a_k^2)``, so it can certify a
  node that *is* an articulation point (the unit-weight path on three nodes
  is the standard counterexample). It is kept for comparison and for the
  counterexample search in :mod:`biconcert.verify`.

:func:`spectral_tests_many` is the one certificate function: it takes a
list of cases ``(graph, nodes, epsilons)`` and returns, for each (node,
epsilon) problem of each case, lambda3, its error bound tau, both bounds and
the one comparison ``lambda3 - tau > bound``. The dense problems of all
cases of one order form one flat list, solved a stack at a time; each reads
``||L||_1`` from its own graph's cached ``degrees``. ``check`` and ``sweep``
hand all their problems to :func:`spectral_tests`, its one-case call; the
counterexample search hands it a block of trials at a time. A
:class:`NodeCertificate` holds the :class:`SpectralTest` it was judged by,
tau included. The CSV rows of ``check`` and ``sweep`` come from
:func:`report_csv_rows` and :func:`sweep_csv_rows`.

The combinatorial oracles (DFS low-link articulation points, brute-force
remove-and-check, vertex-capacity max flow for internally disjoint paths)
are exact: an edge exists iff its weight is strictly positive. Every public
function that needs a connected graph first calls :func:`require_connected`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GraphInputError, PreconditionError
from .graph_core import (
    NodeId,
    PerturbationConfig,
    WeightedGraph,
    _check_node,
    reduced_graph,
)
# symmetric_eigen is bound here for perfbench/selftest.py's tracer check only.
from .spectral import is_connected_bfs, perturbed_lambda3_many, symmetric_eigen

# Bytes of the weight rows the bounds read at a time. Blocks of 1 MiB raised
# a grid-eigen cycle's peak RSS by 0.5 MB.
_BOUND_BLOCK_BYTES = 1 << 17


class BoundMode(Enum):
    """Which right-hand side the certificate compares lambda3 against."""

    SIMPLIFIED = "simplified"
    EXACT_NORM = "exact"


@dataclass(frozen=True)
class NodeCertificate:
    """Per-node record of the local test and the spectral test it was judged by.

    ``certified`` is ``test.certified(mode)``. ``test`` is ``None``, and
    ``certified`` false, when the node passed the local biconnectedness
    shortcut and the eigenvalue check was skipped.
    """

    node: NodeId
    locally_biconnected: bool
    test: SpectralTest | None
    certified: bool
    oracle_is_articulation: bool | None = None

    @property
    def lambda3_perturbed(self) -> float | None:
        # Kept for perfbench/tracing.py, which counts eigensolved nodes by it.
        return None if self.test is None else self.test.lambda3


@dataclass(frozen=True)
class BiconnectivityReport:
    """Graph-level verdict: every node locally biconnected or certified."""

    nodes: tuple[NodeCertificate, ...]
    graph_certified: bool
    epsilon: float
    mode: BoundMode
    oracle_biconnected: bool | None = None


def simplified_bound(eps: float | np.ndarray, n: int, a: np.ndarray) -> float | np.ndarray:
    """Closed-form threshold ``eps * sqrt(n) * sqrt(sum a_k^2)``.

    A float for a scalar ``eps`` and one vector ``a``. ``eps`` may be an
    array and ``a`` a stack of vectors along its last axis; the bounds then
    broadcast like ``eps * sum a_k^2``, each bit-identical to its scalar
    call on one vector.
    """
    a = np.asarray(a, dtype=float)
    bound = eps * np.sqrt(n) * np.sqrt(np.sum(a * a, axis=-1))
    return bound if isinstance(bound, np.ndarray) else float(bound)


def exact_norm_bound(eps: float | np.ndarray, a: np.ndarray) -> float | np.ndarray:
    """``eps * ||diag(a) + a 1^T||_F`` in closed form.

    Row k of the coupling matrix holds ``2 a_k`` once and ``a_k`` m - 1
    times (m = len(a)), so the norm is ``sqrt((m + 3) * sum a_k^2)``: with
    node i's m = n - 1 weights, ``eps * sqrt((n + 2) * sum a_k^2)``. Takes
    and returns scalars, arrays and stacks like :func:`simplified_bound`.
    """
    a = np.asarray(a, dtype=float)
    bound = eps * np.sqrt((a.shape[-1] + 3) * np.sum(a * a, axis=-1))
    return bound if isinstance(bound, np.ndarray) else float(bound)


@dataclass(frozen=True)
class SpectralTest:
    """lambda3 of ``L_i(eps)``, its error bound ``tau`` and both bounds, for one node at one epsilon."""

    node: NodeId
    epsilon: float
    lambda3: float
    simplified_bound: float
    exact_norm_bound: float
    tau: float

    def bound(self, mode: BoundMode) -> float:
        if mode is BoundMode.SIMPLIFIED:
            return self.simplified_bound
        return self.exact_norm_bound

    def certified(self, mode: BoundMode) -> bool:
        """The certificate comparison: ``lambda3 - tau > bound``.

        The exact lambda3 lies within ``tau`` of the computed one, so it
        clears the bound whenever this holds. ``tau`` covers the bound's own
        rounding too: the bound is at most ``eps * sqrt(n + 2) * s_i`` (s_i
        the weight sum of node i), which is at most ``sqrt(n + 2) / 2 *
        ||L_i(eps)||_1``, so its few ulps of error stay far inside
        ``tau >= 64 * n * u * ||L_i(eps)||_1``. Every term scales with the
        weights, so the verdict does not depend on their unit.
        """
        return self.lambda3 - self.tau > self.bound(mode)


def spectral_tests(g: WeightedGraph, nodes, epsilons) -> list[SpectralTest]:
    """The spectral test of every node in ``nodes`` at every epsilon, node-major.

    The one-case call of :func:`spectral_tests_many`.
    """
    return spectral_tests_many([(g, nodes, epsilons)])[0]


def spectral_tests_many(cases) -> list[list[SpectralTest]]:
    """The spectral tests of every case ``(g, nodes, epsilons)``, one list per case.

    A case's list holds the test of every node in ``nodes`` at every
    epsilon, node-major. Each ``g`` must be connected with n >= 3. lambda3
    and its error bound tau come from one call of
    :func:`biconcert.spectral.perturbed_lambda3_many`, which solves the dense
    problems of all cases of one order in shared stacks; a test's values do
    not depend on the other cases. Weights whose weighted degree
    (``g.degrees``), or twice the largest one (``||L||_1``), overflows, and
    an epsilon or a weight so large that a bound, a lambda3 or a tau
    overflows, raise :class:`GraphInputError`: the degrees and the bounds of
    every case are checked before any solve.
    """
    problems, bounds = [], []
    for g, nodes, epsilons in cases:
        require_connected(g, 3)
        nodes = list(nodes)
        cfgs = [PerturbationConfig(eps) for eps in epsilons]
        eps = np.array([c.epsilon for c in cfgs])
        for i in nodes:
            _check_node(g, i)
        if not np.isfinite(2.0 * float(g.degrees.max())):  # degrees are >= 0: a finite 2 max covers them all
            raise GraphInputError("a weighted degree, or twice the largest, overflows; rescale the weights")
        # Node i's weight vector is row i of the weights without its diagonal
        # entry; as a stack of one vector, its bounds come out node-major.
        simple = np.empty((len(nodes), len(eps)))
        exact = np.empty_like(simple)
        rows = max(1, _BOUND_BLOCK_BYTES // (8 * g.n))
        for start in range(0, len(nodes), rows):
            block = np.array(nodes[start : start + rows])
            a = g.weights[block][np.arange(g.n) != block[:, None]].reshape(len(block), 1, g.n - 1)
            with np.errstate(over="ignore"):  # an overflow is reported below
                simple[start : start + rows] = simplified_bound(eps, g.n, a)
                exact[start : start + rows] = exact_norm_bound(eps, a)
        simple, exact = simple.ravel(), exact.ravel()
        _require_finite("a certificate bound", eps, simple, exact)
        # One problem per (node, epsilon), node-major like the bounds.
        problems.append((g, [i for i in nodes for _ in cfgs], cfgs * len(nodes)))
        bounds.append((eps, simple, exact))
    tests = []
    for (_, nodes, cfgs), (eps, simple, exact), (lam3, tau) in zip(
        problems, bounds, perturbed_lambda3_many(problems)
    ):
        _require_finite("lambda3 or its error bound", eps, lam3, tau)
        tests.append(
            [
                SpectralTest(i, cfg.epsilon, lam, s, e, t)
                for i, cfg, lam, s, e, t in zip(
                    nodes, cfgs, lam3.tolist(), simple.tolist(), exact.tolist(), tau.tolist()
                )
            ]
        )
    return tests


def _require_finite(what: str, eps: np.ndarray, *values: np.ndarray) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise GraphInputError(
            f"{what} overflows at epsilon up to {eps.max():.6g}; lower epsilon or rescale the weights"
        )


def require_connected(g: WeightedGraph, min_n: int = 1) -> None:
    """Raise :class:`PreconditionError` unless n >= ``min_n`` (checked first) and g is connected."""
    if g.n < min_n:
        raise PreconditionError(f"graph must have at least {min_n} nodes, got {g.n}")
    if not is_connected_bfs(g):
        raise PreconditionError("graph must be connected")


def locally_biconnected(g: WeightedGraph, i: NodeId) -> bool:
    """True when node i's neighborhood subgraph guarantees it is not a cut vertex.

    Decided by connectivity of the subgraph induced on the open neighborhood
    N_i (a single neighbor counts as connected). Only 1-hop information about
    the edges among i's neighbors is consulted: the search walks the cached
    neighbour lists (:attr:`WeightedGraph.adjacency`) of N_i's members and
    keeps the members of N_i it reaches, tested by set membership.
    """
    require_connected(g, 2)
    nbrs = g.neighbors(i)
    # The closed neighborhood {i} + N_i is a block iff the subgraph induced
    # on N_i alone is connected: i is adjacent to all of N_i, so i is the
    # only removal that can split it.
    unseen = set(nbrs[1:])
    stack = nbrs[:1]
    while stack and unseen:
        for v in g.adjacency[stack.pop()]:
            if v in unseen:
                unseen.remove(v)
                stack.append(v)
    return not unseen


def spectral_certificate(
    g: WeightedGraph,
    i: NodeId,
    cfg: PerturbationConfig,
    mode: BoundMode = BoundMode.EXACT_NORM,
) -> NodeCertificate:
    """Certify that node i is not an articulation point, via eigenvalues only.

    Computes lambda3 of the perturbed Laplacian, its error bound tau and
    both bound variants; ``certified`` is true iff lambda3 - tau strictly
    exceeds the selected bound.
    """
    (test,) = spectral_tests(g, [i], [cfg.epsilon])
    return NodeCertificate(i, locally_biconnected(g, i), test, test.certified(mode))


def certify_graph(
    g: WeightedGraph,
    cfg: PerturbationConfig,
    mode: BoundMode = BoundMode.EXACT_NORM,
    with_oracle: bool = False,
) -> BiconnectivityReport:
    """Run the full per-node workflow and aggregate the graph verdict.

    Nodes that pass the local biconnectedness shortcut skip the eigenvalue
    check entirely; the graph is certified when every node is either locally
    biconnected or spectrally certified. ``with_oracle`` annotates each node
    with the exact articulation oracle for validation output.
    """
    require_connected(g, 3)
    local = [locally_biconnected(g, i) for i in range(g.n)]
    tests = spectral_tests(g, [i for i in range(g.n) if not local[i]], [cfg.epsilon])
    by_node = {t.node: t for t in tests}
    points = articulation_points_oracle(g) if with_oracle else None
    certs = [
        NodeCertificate(i, local[i], t, t is not None and t.certified(mode), None if points is None else i in points)
        for i, t in enumerate(map(by_node.get, range(g.n)))
    ]
    return BiconnectivityReport(
        nodes=tuple(certs),
        graph_certified=all(c.locally_biconnected or c.certified for c in certs),
        epsilon=cfg.epsilon,
        mode=mode,
        oracle_biconnected=None if points is None else not points,
    )


def articulation_points_oracle(g: WeightedGraph) -> set[NodeId]:
    """Exact cut vertices via a single DFS low-link pass."""
    require_connected(g)
    n = g.n
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    points: set[NodeId] = set()
    disc[0] = low[0] = 0
    timer = 1
    root_children = 0
    stack = [0]
    iters = [iter(adj[0])]
    while stack:
        u = stack[-1]
        pushed = False
        for v in iters[-1]:
            if disc[v] == -1:
                parent[v] = u
                disc[v] = low[v] = timer
                timer += 1
                if u == 0:
                    root_children += 1
                stack.append(v)
                iters.append(iter(adj[v]))
                pushed = True
                break
            if v != parent[u]:
                low[u] = min(low[u], disc[v])
        if not pushed:
            stack.pop()
            iters.pop()
            if stack:
                p = stack[-1]
                low[p] = min(low[p], low[u])
                if p != 0 and low[u] >= disc[p]:
                    points.add(p)
    if root_children > 1:
        points.add(0)
    return points


def articulation_points_bruteforce(g: WeightedGraph) -> set[NodeId]:
    """Independent cross-check: remove each node and test connectivity."""
    require_connected(g)
    if g.n < 2:
        return set()
    return {i for i in range(g.n) if not is_connected_bfs(reduced_graph(g, i))}


def is_biconnected_oracle(g: WeightedGraph) -> bool:
    """No articulation point; a bare edge (n = 2) does not count as biconnected."""
    require_connected(g)
    return g.n >= 3 and not articulation_points_oracle(g)


def doubly_connected_oracle(g: WeightedGraph, i: NodeId, j: NodeId) -> bool:
    """Two internally vertex-disjoint i-j paths, decided by unit-capacity max flow.

    Every node other than the endpoints is split into an in/out pair joined
    by a unit arc, so no interior node can be reused; each undirected edge
    becomes a unit arc in both directions (the direct i-j edge, if present,
    is one such arc and counts as one path). Flow value >= 2 from i to j is
    then exactly the existence of two internally disjoint paths.
    """
    require_connected(g)
    _check_node(g, i)
    _check_node(g, j)
    if i == j:
        raise PreconditionError("doubly-connected test needs two distinct nodes")
    # node 2k = entry copy, 2k + 1 = exit copy
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {}

    def add_arc(u: int, v: int) -> None:
        if (u, v) not in cap:
            cap[(u, v)] = 0
            cap[(v, u)] = cap.get((v, u), 0)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        cap[(u, v)] += 1

    for k in range(g.n):
        if k != i and k != j:
            add_arc(2 * k, 2 * k + 1)
    for u, v, _w in g.edges():
        add_arc(2 * u + 1, 2 * v)
        add_arc(2 * v + 1, 2 * u)
    source, sink = 2 * i + 1, 2 * j
    flow = 0
    while flow < 2:
        pred: dict[int, int | None] = {source: None}
        queue = deque([source])
        while queue and sink not in pred:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in pred and cap.get((u, v), 0) > 0:
                    pred[v] = u
                    queue.append(v)
        if sink not in pred:
            break
        v = sink
        while pred[v] is not None:
            u = pred[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1
    return flow >= 2


CSV_COLUMNS = [
    "node",
    "locally_biconnected",
    "lambda3",
    "simplified_bound",
    "exact_bound",
    "certified",
    "oracle",
]

SWEEP_COLUMNS = [
    "node",
    "epsilon",
    "lambda3",
    "simplified_bound",
    "exact_bound",
    "certified_simplified",
    "certified_exact",
]


def report_to_dict(r: BiconnectivityReport) -> dict:
    """JSON-ready report; floats keep full round-trip precision."""
    return {
        "epsilon": r.epsilon,
        "mode": r.mode.value,
        "graph_certified": r.graph_certified,
        "oracle_biconnected": r.oracle_biconnected,
        "nodes": [
            {
                "node": c.node,
                "locally_biconnected": c.locally_biconnected,
                **dict(zip(("lambda3", "simplified_bound", "exact_norm_bound"), _test_values(c.test))),
                "certified": c.certified,
                "oracle_is_articulation": c.oracle_is_articulation,
            }
            for c in r.nodes
        ],
    }


def _csv_num(x: float | None) -> str:
    return "" if x is None else format(x, ".6g")


def _csv_flag(x: bool | None) -> str:
    return "" if x is None else ("true" if x else "false")


def _test_values(t: SpectralTest | None) -> tuple[float | None, ...]:
    """lambda3 and both bounds of a test, or three ``None``: the report's and both CSVs' columns for it."""
    return (None,) * 3 if t is None else (t.lambda3, t.simplified_bound, t.exact_norm_bound)


def report_csv_rows(r: BiconnectivityReport) -> list[list[str]]:
    """``check``'s CSV: header plus one row per node; floats at 6 significant digits."""
    return [list(CSV_COLUMNS)] + [
        [
            str(c.node),
            _csv_flag(c.locally_biconnected),
            *map(_csv_num, _test_values(c.test)),
            _csv_flag(c.certified),
            _csv_flag(c.oracle_is_articulation),
        ]
        for c in r.nodes
    ]


def sweep_csv_rows(tests: list[SpectralTest]) -> list[list[str]]:
    """``sweep``'s CSV: header plus one row per test with both verdicts, cells as for ``check``."""
    return [list(SWEEP_COLUMNS)] + [
        [
            str(t.node),
            _csv_num(t.epsilon),
            *map(_csv_num, _test_values(t)),
            _csv_flag(t.certified(BoundMode.SIMPLIFIED)),
            _csv_flag(t.certified(BoundMode.EXACT_NORM)),
        ]
        for t in tests
    ]
