"""Weighted undirected graphs and the matrix constructions built on them.

Everything here is a pure function over an immutable :class:`WeightedGraph`:
adjacency, degree and Laplacian matrices, node removal, per-node edge
scaling, the per-node intermediate matrix whose spectrum mirrors the scaled
Laplacian, and the disk-based proximity model for planar layouts.
:attr:`WeightedGraph.connected` runs :func:`reachable`, the one graph search,
on first use and keeps the answer; the search also takes a stack of
adjacency matrices with one start each and searches every member at once.
:attr:`WeightedGraph.degrees`, the one sum of the weighted degrees ``W 1``,
is kept the same way as ``connected``.
:func:`perturbed_laplacian` builds ``L_i(eps)`` densely: it is the reference
path of the certificate, which large batches of (node, epsilon) problems
replace by one eigendecomposition of :func:`laplacian` (see
:mod:`biconcert.spectral`). :func:`perturbed_laplacians` and
:func:`reduced_laplacians` build many such matrices of one graph as one
``(count, k, k)`` stack for a stacked eigensolve; each member equals its
one-matrix definition bit for bit. Both turn the weights they copy into
Laplacians in place, equal bit for bit to a diagonal matrix minus ``W``
like :func:`laplacian`, without a second matrix of that size.

Weights are stored densely; the intended scale is a few hundred nodes, where
dense O(n^2) storage and O(n^3) eigensolves are cheap. Edge lists and the
proximity model's candidate pairs come from numpy scans; the proximity model
then decides and weighs each candidate with ``math.hypot`` and ``math.exp``,
whose results (unlike numpy's, which can differ in the last ulp) fix the
bytes of generated graph files. :attr:`WeightedGraph.adjacency`, every
node's neighbour list, comes from one scan on first use and is kept, like
``connected`` and ``degrees``; :meth:`WeightedGraph.neighbors`, the local
test and the oracles read it.

The loader is vectorized: :func:`graph_from_dict` checks the shape and the
types of every edge entry in one pass over their types and lengths; it and
:func:`from_edge_list` check endpoint range, self loops, duplicates and
weights with numpy, then fill the weight matrix once. A malformed entry is
named by the same message a per-edge loop would give: shape and type faults
of all entries first, then the first edge with a faulty value. Edge weights,
node positions, epsilon and the proximity model's radius and sigma must be
finite: ``inf`` and ``nan`` are rejected with :class:`GraphInputError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphInputError, PreconditionError

NodeId = int


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on nodes 0..n-1 with a symmetric nonnegative weight matrix.

    ``weights[i, j] > 0`` means an edge between i and j. The diagonal is zero
    (no self loops). ``positions`` optionally carries the 2D point each node
    was placed at when the graph came from a proximity model.

    Instances are immutable after construction; the arrays are marked
    read-only, so graphs are safe to share across threads.
    """

    n: int
    weights: np.ndarray
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphInputError(f"node count must be >= 1, got {self.n}")
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise GraphInputError(
                f"weight matrix shape {w.shape} does not match n={self.n}"
            )
        if not np.array_equal(w, w.T):
            raise GraphInputError("weight matrix must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise GraphInputError("self loops are not allowed (nonzero diagonal)")
        if np.any(w < 0.0):
            raise GraphInputError("weights must be nonnegative")
        object.__setattr__(self, "weights", _readonly(w))
        if self.positions is not None:
            try:
                p = np.array(self.positions, dtype=float)
            except (TypeError, ValueError) as exc:
                raise GraphInputError("node positions must be numbers") from exc
            if p.shape != (self.n, 2):
                raise GraphInputError(
                    f"positions shape {p.shape} does not match ({self.n}, 2)"
                )
            if not np.all(np.isfinite(p)):
                raise GraphInputError("node positions must be finite")
            object.__setattr__(self, "positions", _readonly(p))

    @cached_property
    def connected(self) -> bool:
        """Every node reachable from node 0; searched on first use, then kept."""
        return bool(reachable(self.weights > 0.0, 0).all())

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degrees ``weights.sum(axis=1)``, read-only; summed on first use, then kept.

        A degree past the float range is ``inf``, without a warning.
        """
        with np.errstate(over="ignore"):
            return _readonly(self.weights.sum(axis=1))

    @cached_property
    def adjacency(self) -> tuple[tuple[NodeId, ...], ...]:
        """Entry i holds the j with ``weights[i, j] > 0``, ascending, as Python ints.

        One scan of the matrix on first use, then kept.
        """
        rows, cols = np.nonzero(self.weights > 0.0)
        ends = np.cumsum(np.bincount(rows, minlength=self.n)).tolist()
        cols = cols.tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))

    def neighbors(self, i: NodeId) -> list[NodeId]:
        """Indices j with ``weights[i, j] > 0``, ascending, as Python ints; a new list."""
        _check_node(self, i)
        return list(self.adjacency[i])

    def edges(self) -> list[tuple[NodeId, NodeId, float]]:
        """Every undirected edge once, as (i, j, w) with i < j, in index order."""
        rows, cols = np.nonzero(np.triu(self.weights, 1) > 0.0)
        return list(zip(rows.tolist(), cols.tolist(), self.weights[rows, cols].tolist()))


@dataclass(frozen=True)
class PerturbationConfig:
    """Scale factor applied to every edge incident to the probed node."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:
            raise GraphInputError(
                f"epsilon must be positive and finite, got {self.epsilon}"
            )


@dataclass(frozen=True)
class ProximityModel:
    """Disk model: nodes within ``radius`` get weight exp(-d^2 / (2 sigma)).

    The boundary is inclusive: a pair at distance exactly ``radius`` is
    connected.
    """

    radius: float
    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise GraphInputError(
                f"radius must be positive and finite, got {self.radius}"
            )
        if not 0.0 < self.sigma < math.inf:
            raise GraphInputError(
                f"sigma must be positive and finite, got {self.sigma}"
            )


def reachable(adj, start) -> np.ndarray:
    """Boolean mask of the nodes reachable from ``start`` over ``adj``.

    ``adj`` is a square boolean adjacency matrix (for a graph,
    ``g.weights > 0``). The search expands the whole frontier in one numpy
    step, so it takes O(diameter) steps and O(n^2) work in total: each node
    joins the frontier once and contributes its row once.

    ``adj`` may also be a ``(..., n, n)`` stack, with ``start`` an integer
    array of one start per member (shape ``adj.shape[:-2]``). The result is
    then the ``(..., n)`` stack of each member's mask, equal to its 2-D call.
    One step expands every member's frontier by a boolean matrix product, so
    the search takes as many steps as the largest member's eccentricity from
    its start, each O(n^2) per member.
    """
    adj = np.asarray(adj, dtype=bool)
    seen = np.zeros(adj.shape[:-1], dtype=bool)
    if adj.ndim == 2:
        seen[start] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        return seen
    np.put_along_axis(seen, np.asarray(start)[..., None], True, axis=-1)
    frontier = seen.copy()
    while frontier.any():
        frontier = (frontier[..., None, :] @ adj)[..., 0, :] & ~seen
        seen |= frontier
    return seen


def _check_node(g: WeightedGraph, i: NodeId) -> None:
    if not 0 <= i < g.n:
        raise GraphInputError(f"node {i} out of range [0, {g.n})")


def from_edge_list(
    n: int, edges: list[tuple[NodeId, NodeId, float]]
) -> WeightedGraph:
    """Build a graph from (i, j, w) triples; both orientations get weight w.

    Self loops and duplicate edges are rejected rather than merged so that
    input mistakes surface immediately.
    """
    return WeightedGraph(n=n, weights=_weight_matrix(n, *_columns(list(edges))))


def _columns(edges: list) -> tuple[tuple, tuple, tuple]:
    """The endpoint and weight columns of a list of (i, j, w) triples."""
    return tuple(zip(*edges)) if edges else ((), (), ())


def node_zeros(n: int, columns: int) -> np.ndarray:
    """A zero ``(n, columns)`` float array: one row per node of an n-node graph.

    Raises :class:`GraphInputError` when numpy cannot allocate it. The dense
    n x n weight matrix is the largest such array, so the message names it.
    """
    try:
        return np.zeros((n, columns))
    except (ValueError, MemoryError) as exc:
        raise GraphInputError(f"node count n={n} is too large for a dense weight matrix") from exc


def _weight_matrix(n: int, i: tuple, j: tuple, w: tuple) -> np.ndarray:
    """The symmetric n x n weight matrix of the edges ``zip(i, j, w)``.

    Raises :class:`GraphInputError` for the first edge, in input order, that
    is out of range, a self loop, a repeat of an earlier edge or not of
    positive finite weight, checked in that order.
    """
    if n < 1:
        raise GraphInputError(f"node count must be >= 1, got {n}")
    weights = node_zeros(n, n)
    # Python's min and max read any integer, also one past int64, so numpy
    # only sees the edges before the first endpoint out of range.
    m = len(w)
    good = m
    if m and not (0 <= min(i) and 0 <= min(j) and max(i) < n and max(j) < n):
        good = next(k for k in range(m) if not (0 <= i[k] < n and 0 <= j[k] < n))
    a = np.array(i[:good], dtype=np.intp)
    b = np.array(j[:good], dtype=np.intp)
    x = np.array(w[:good], dtype=float)
    # An edge repeats an earlier one when its key min * n + max does; the
    # stable sort keeps equal keys in input order, so every one but the
    # first of a run is a repeat.
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(good, dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = (a == b) | repeat | ~((x > 0.0) & (x < math.inf))
    first = int(bad.argmax()) if bad.any() else good
    if first < m:
        p, q = i[first], j[first]
        if first == good:
            raise GraphInputError(f"edge ({p}, {q}) out of range for n={n}")
        if p == q:
            raise GraphInputError(f"self loop ({p}, {p}) is not allowed")
        if repeat[first]:
            raise GraphInputError(f"duplicate edge ({p}, {q})")
        raise GraphInputError(
            f"edge ({p}, {q}) must have positive weight and be finite, got {w[first]}"
        )
    weights[a, b] = x
    weights[b, a] = x
    return weights


def proximity_graph(positions, model: ProximityModel) -> WeightedGraph:
    """Weight every pair within the disk radius by exp(-d^2 / (2 sigma))."""
    pts = np.array(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise GraphInputError(f"positions must be an (n, 2) array, got {pts.shape}")
    n = pts.shape[0]
    w = node_zeros(n, n)  # first: the candidate pairs below take more memory
    rows, cols = np.triu_indices(n, 1)
    dx = pts[rows, 0] - pts[cols, 0]
    dy = pts[rows, 1] - pts[cols, 1]
    # numpy's hypot and exp can differ from libm's in the last ulp, which
    # would change generated files. numpy only preselects candidate pairs,
    # with slack far above that ulp; math decides and weighs each candidate.
    near = np.flatnonzero(np.hypot(dx, dy) <= model.radius * (1.0 + 1e-9))
    for i, j, x, y in zip(
        rows[near].tolist(), cols[near].tolist(), dx[near].tolist(), dy[near].tolist()
    ):
        if math.hypot(x, y) <= model.radius:
            w[i, j] = w[j, i] = math.exp(-(x * x + y * y) / (2.0 * model.sigma))
    return WeightedGraph(n=n, weights=w, positions=pts)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Degree matrix minus adjacency: symmetric PSD with zero row sums."""
    return np.diag(g.degrees) - g.weights


def neighbor_weight_vector(g: WeightedGraph, i: NodeId) -> np.ndarray:
    """Row i of the weight matrix with entry i removed, order preserved."""
    if g.n < 2:
        raise PreconditionError("neighbor weight vector needs n >= 2")
    _check_node(g, i)
    return np.delete(g.weights[i], i)


def reduced_graph(g: WeightedGraph, i: NodeId) -> WeightedGraph:
    """Remove node i and its incident edges; remaining indices shift down.

    Note the result is the graph induced on the remaining nodes, so its
    Laplacian differs from the principal submatrix of ``laplacian(g)``: the
    degree entries no longer count the edges into i.
    """
    if g.n < 2:
        raise PreconditionError("cannot remove a node from a single-node graph")
    _check_node(g, i)
    w = np.delete(np.delete(g.weights, i, axis=0), i, axis=1)
    pos = None if g.positions is None else np.delete(g.positions, i, axis=0)
    return WeightedGraph(n=g.n - 1, weights=w, positions=pos)


def perturbed_laplacian(
    g: WeightedGraph, i: NodeId, cfg: PerturbationConfig
) -> np.ndarray:
    """Laplacian of the graph with every edge at node i scaled by epsilon.

    For epsilon = 1 this is exactly ``laplacian(g)``.
    """
    if g.n < 2:
        raise PreconditionError("perturbed Laplacian needs n >= 2")
    _check_node(g, i)
    w = g.weights.copy()
    w[i, :] *= cfg.epsilon
    w[:, i] *= cfg.epsilon
    return _laplacians_in_place(w)


def reduced_laplacians(g: WeightedGraph, nodes) -> np.ndarray:
    """``laplacian(reduced_graph(g, i))`` for every i in ``nodes``: a ``(len(nodes), n - 1, n - 1)`` stack."""
    if g.n < 2:
        raise PreconditionError("cannot remove a node from a single-node graph")
    nodes = np.asarray(nodes, dtype=np.intp)
    for i in nodes.tolist():
        _check_node(g, i)
    j = np.arange(g.n - 1)
    keep = j + (j >= nodes[:, None])  # every node but i, in order
    return _laplacians_in_place(g.weights[keep[:, :, None], keep[:, None, :]])


def _laplacians_in_place(w: np.ndarray) -> np.ndarray:
    """Turn a C-contiguous stack of zero-diagonal weight matrices into their Laplacians, in place; returns ``w``.

    Each member equals ``np.diag(w.sum(axis=-1)) - w`` bit for bit. Off the
    diagonal that is ``0.0 - w``, never ``-w``: negating a zero weight
    would give -0.0, and LAPACK's Householder reflections see that sign.
    """
    n = w.shape[-1]
    d = w.sum(axis=-1)
    np.subtract(0.0, w, out=w)
    w.reshape(w.shape[:-2] + (n * n,))[..., :: n + 1] = d
    return w


def perturbed_laplacians(g: WeightedGraph, nodes, cfgs) -> np.ndarray:
    """``perturbed_laplacian(g, i, cfg)`` for every pair of ``zip(nodes, cfgs)``: a ``(len(nodes), n, n)`` stack.

    Each member comes from :func:`perturbed_laplacian` itself; building it
    costs little next to solving it.
    """
    if len(nodes) != len(cfgs):
        raise ValueError(f"{len(nodes)} nodes but {len(cfgs)} perturbations")
    stack = [perturbed_laplacian(g, i, cfg) for i, cfg in zip(nodes, cfgs)]
    return np.array(stack).reshape(len(nodes), g.n, g.n)


def intermediate_matrix(
    g: WeightedGraph, i: NodeId, cfg: PerturbationConfig
) -> np.ndarray:
    """Reduced Laplacian plus the scaled coupling term of node i.

    Returns ``L_reduced + eps * (diag(a) + outer(a, ones))`` where ``a`` is
    node i's weight vector to the remaining nodes. Its eigenvalues equal the
    nonzero eigenvalues of :func:`perturbed_laplacian`; the matrix itself is
    generally not symmetric because of the rank-one term.
    """
    if g.n < 2:
        raise PreconditionError("intermediate matrix needs n >= 2")
    _check_node(g, i)
    a = neighbor_weight_vector(g, i)
    return laplacian(reduced_graph(g, i)) + cfg.epsilon * (np.diag(a) + np.outer(a, np.ones(len(a))))


def coupling_matrix(g: WeightedGraph, i: NodeId) -> np.ndarray:
    """The unscaled coupling term ``diag(a) + outer(a, ones)`` for node i."""
    a = neighbor_weight_vector(g, i)
    return np.diag(a) + np.outer(a, np.ones(g.n - 1))


def graph_to_dict(g: WeightedGraph) -> dict:
    """JSON-ready form: ``{"n", "edges", "positions"}`` with each edge once (i < j)."""
    return {
        "n": g.n,
        "edges": [[i, j, w] for i, j, w in g.edges()],
        "positions": None if g.positions is None else g.positions.tolist(),
    }


def graph_from_dict(d: dict) -> WeightedGraph:
    """Parse the JSON graph schema; raises :class:`GraphInputError` on bad shape."""
    if not isinstance(d, dict):
        raise GraphInputError("graph document must be a JSON object")
    for key in ("n", "edges"):
        if key not in d:
            raise GraphInputError(f"graph document is missing the '{key}' key")
    n = d["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphInputError(f"'n' must be an integer, got {n!r}")
    edges = d["edges"]
    if not isinstance(edges, list):
        raise GraphInputError("'edges' must be a list of [i, j, w] triples")
    weights = _weight_matrix(n, *_edge_columns(edges))
    pos = d.get("positions")
    if pos is not None and not all(map(_is_number, np.array(pos, dtype=object).ravel())):
        raise GraphInputError("node positions must be numbers")
    return WeightedGraph(n=n, weights=weights, positions=pos)


def _edge_columns(edges: list) -> tuple[tuple, tuple, tuple]:
    """The columns of a document's edge entries, each an [i, j, w] of two ints and a number.

    One pass over the entries' types and lengths accepts the usual document,
    whose entries are lists of two ints and a float. Any other entry sends
    the list through a per-entry check, which names the first bad one.
    """
    if set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {3}:
        i, j, w = _columns(edges)
        if set(map(type, i)) | set(map(type, j)) <= {int} and set(map(type, w)) <= {float}:
            return i, j, w
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise GraphInputError(f"edge entry {e!r} is not an [i, j, w] triple")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in e[:2]):
            raise GraphInputError(f"edge endpoints must be integers, got {e!r}")
        if not _is_number(e[2]):
            raise GraphInputError(f"edge weight in {e!r} is not a number")
    return _columns([(e[0], e[1], float(e[2])) for e in edges])


def _is_number(x) -> bool:  # true, "2.5" and integers past float range are not
    return isinstance(x, float) or type(x) is int and abs(x) <= sys.float_info.max
