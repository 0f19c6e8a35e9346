"""The vectorized loader and the cached neighbour lists against the loops they replaced.

``graph_from_dict_loop`` and ``from_edge_list_loop`` are the per-edge
loaders the package used before its loader checked shape, types, range,
self loops, duplicates and weights in bulk. On every malformed document the
loader must raise the same message as the loop: shape and type faults of
all entries first, then the first edge whose value is at fault, in input
order. ``locally_biconnected_loop`` is the local test that indexed the
weight matrix for every pair of neighbours.
"""

import math
import sys
from collections import deque

import numpy as np
import pytest

from biconcert import (
    GraphInputError,
    WeightedGraph,
    from_edge_list,
    graph_from_dict,
    locally_biconnected,
    proximity_graph,
    ProximityModel,
)
from biconcert import graph_core
from biconcert.verify import suite_corpus


def _is_number(x):
    return isinstance(x, float) or type(x) is int and abs(x) <= sys.float_info.max


def from_edge_list_loop(n, edges):
    if n < 1:
        raise GraphInputError(f"node count must be >= 1, got {n}")
    try:
        w = np.zeros((n, n))
    except (ValueError, MemoryError) as exc:
        raise GraphInputError(f"node count n={n} is too large for a dense weight matrix") from exc
    seen = set()
    for i, j, wt in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise GraphInputError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise GraphInputError(f"self loop ({i}, {i}) is not allowed")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphInputError(f"duplicate edge ({i}, {j})")
        if not 0.0 < wt < math.inf:
            raise GraphInputError(
                f"edge ({i}, {j}) must have positive weight and be finite, got {wt}"
            )
        seen.add(key)
        w[i, j] = w[j, i] = wt
    return WeightedGraph(n=n, weights=w)


def graph_from_dict_loop(d):
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
    triples = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise GraphInputError(f"edge entry {e!r} is not an [i, j, w] triple")
        i, j, w = e
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise GraphInputError(f"edge endpoints must be integers, got {e!r}")
        if not _is_number(w):
            raise GraphInputError(f"edge weight in {e!r} is not a number")
        triples.append((i, j, float(w)))
    g = from_edge_list_loop(n, triples)
    pos = d.get("positions")
    if pos is None:
        return g
    if not all(map(_is_number, np.array(pos, dtype=object).ravel())):
        raise GraphInputError("node positions must be numbers")
    return WeightedGraph(n=n, weights=g.weights, positions=pos)


def locally_biconnected_loop(g, i):
    nbrs = np.flatnonzero(g.weights[i] > 0.0).tolist()
    if len(nbrs) == 1:
        return True
    seen = {nbrs[0]}
    queue = deque([nbrs[0]])
    while queue:
        u = queue.popleft()
        for v in nbrs:
            if v not in seen and g.weights[u, v] > 0.0:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(nbrs)


def doc(edges, n=4, **extra):
    return {"n": n, "edges": edges, **extra}


OK = [0, 1, 1.0]
# One document per fault kind, then documents with two faults, where the one
# the loop meets first must win: shape and type faults of every entry before
# any value fault, and among value faults the earliest edge.
MALFORMED = {
    "not-an-object": [OK],
    "missing-edges": {"n": 3},
    "bool-n": {"n": True, "edges": []},
    "edges-not-a-list": {"n": 3, "edges": {"0": OK}},
    "entry-not-a-list": doc([OK, "0,1,1.0"]),
    "short-entry": doc([OK, [1, 2]]),
    "long-entry": doc([OK, [1, 2, 1.0, 0]]),
    "bool-endpoint": doc([OK, [True, 2, 1.0]]),
    "bool-second-endpoint": doc([OK, [2, False, 1.0]]),
    "float-endpoint": doc([OK, [1.0, 2, 1.0]]),
    "string-endpoint": doc([OK, ["1", 2, 1.0]]),
    "true-weight": doc([OK, [1, 2, True]]),
    "string-weight": doc([OK, [1, 2, "2.5"]]),
    "null-weight": doc([OK, [1, 2, None]]),
    "weight-past-float-range": doc([OK, [1, 2, 10**400]]),
    "negative-weight-past-float-range": doc([OK, [1, 2, -(10**309)]]),
    "n-below-one": {"n": 0, "edges": [OK]},
    "n-too-large": {"n": 10**10, "edges": []},
    "endpoint-past-int64": doc([OK, [1, 2**64, 1.0]]),
    "negative-endpoint-past-int64": doc([OK, [-(2**70), 1, 1.0]]),
    "negative-endpoint": doc([OK, [1, -1, 1.0]]),
    "endpoint-equal-to-n": doc([OK, [4, 1, 1.0]]),
    "self-loop": doc([OK, [2, 2, 1.0]]),
    "duplicate": doc([OK, [1, 2, 1.0], [0, 1, 2.0]]),
    "duplicate-both-orientations": doc([OK, [1, 2, 1.0], [1, 0, 2.0]]),
    "zero-weight": doc([OK, [1, 2, 0.0]]),
    "zero-int-weight": doc([OK, [1, 2, 0]]),
    "negative-weight": doc([OK, [1, 2, -0.5]]),
    "negative-zero-weight": doc([OK, [1, 2, -0.0]]),
    "nan-weight": doc([OK, [1, 2, float("nan")]]),
    "inf-weight": doc([OK, [1, 2, float("inf")]]),
    "value-fault-then-shape-fault": doc([[0, 1, 0.0], [1, 2]]),
    "value-fault-then-type-fault": doc([[0, 9, 1.0], [1, True, 1.0]]),
    "two-value-faults-weight-first": doc([[0, 1, -1.0], [2, 2, 1.0]]),
    "two-value-faults-loop-first": doc([[2, 2, 1.0], [0, 1, -1.0]]),
    "range-before-loop-on-one-edge": doc([OK, [7, 7, 1.0]]),
    "range-before-later-duplicate": doc([OK, [1, 9, 1.0], [1, 0, 1.0]]),
    "duplicate-before-weight-on-one-edge": doc([OK, [1, 0, -1.0]]),
    "weight-fault-before-later-duplicate": doc([[0, 1, 1.0], [2, 3, 0.0], [1, 0, 1.0]]),
    # Every edge of a long path again, reversed: the loop names the first
    # repeat, edge 300, so the repeat search must keep equal keys in order.
    "many-repeats": doc([[k, k + 1, 1.0] for k in range(300)] + [[k + 1, k, 1.0] for k in range(300)], n=301),
    "bad-position": doc([OK], positions=[[0, 0], [1, "a"], [2, 0], [3, 0]]),
    "bool-position": doc([OK], positions=[[0, 0], [1, True], [2, 0], [3, 0]]),
    "ragged-positions": doc([OK], positions=[[0, 0], [1], [2, 0], [3, 0]]),
    "short-positions": doc([OK], positions=[[0, 0], [1, 0]]),
    "nan-position": doc([OK], positions=[[0, 0], [1, float("nan")], [2, 0], [3, 0]]),
    "edge-fault-before-position-fault": doc([[0, 1, -1.0]], positions=[[0, "a"]]),
}


def raised(load, d):
    with pytest.raises(GraphInputError) as err:
        load(d)
    return str(err.value)


@pytest.mark.parametrize("d", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_message_matches_loop(d):
    assert raised(graph_from_dict, d) == raised(graph_from_dict_loop, d)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 1.0), (1, 2, 0)],
        [(0, 1, 1.0), (1, 2, -1)],
        [(0, 1, 1.0), (1, 2, np.float64(-1.0))],
        [(0, 1, 1.0), (np.int64(2), np.int64(2), 1.0)],
        [(0, 1, 1.0), (1, 0, 1.0)],
        [(0, 1, 1.0), (1, 5, 1.0)],
    ],
)
def test_from_edge_list_message_matches_loop(edges):
    assert raised(lambda e: from_edge_list(4, e), edges) == raised(lambda e: from_edge_list_loop(4, e), edges)


def random_docs():
    """Seeded documents with float weights, int weights, tuples and positions, in shuffled order."""
    rng = np.random.default_rng(3)
    out = []
    for n in (1, 2, 5, 30, 200):
        w = np.triu(rng.random((n, n)) < 0.2, 1) * rng.random((n, n))
        i, j = np.nonzero(w)
        edges = [[a, b, x] for a, b, x in zip(i.tolist(), j.tolist(), w[i, j].tolist())]
        rng.shuffle(edges)
        flipped = [[b, a, x] if k % 2 else (a, b, x) for k, (a, b, x) in enumerate(edges)]
        ints = [[a, b, int(1 + 10 * x)] for a, b, x in edges]
        out += [doc(edges, n), doc(flipped, n), doc(ints, n), doc(edges, n, positions=rng.random((n, 2)).tolist())]
    return out


def test_valid_documents_load_as_in_loop():
    for d in random_docs():
        got, want = graph_from_dict(d), graph_from_dict_loop(d)
        assert np.array_equal(got.weights, want.weights)
        assert (got.positions is None) == (want.positions is None)
        if got.positions is not None:
            assert np.array_equal(got.positions, want.positions)


def test_one_graph_built_per_document_with_positions(monkeypatch):
    built = []
    init = graph_core.WeightedGraph.__post_init__
    monkeypatch.setattr(graph_core.WeightedGraph, "__post_init__", lambda g: built.append(g) or init(g))
    g = graph_from_dict(doc([OK, [1, 2, 0.5], [2, 3, 2.0]], positions=[[0, 0], [1, 0], [2, 0], [3, 0]]))
    assert built == [g]


def graphs():
    """Seeded corpus and disk graphs, n = 1 and a split graph."""
    rng = np.random.default_rng(17)
    out = list(suite_corpus(np.random.default_rng(5), 30))
    out += [proximity_graph(rng.random((n, 2)), ProximityModel(r, 0.125)) for n, r in ((1, 0.5), (50, 0.2), (200, 0.14))]
    out.append(from_edge_list(5, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0)]))
    return out


def test_neighbors_returns_a_new_list():
    g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    first = g.neighbors(1)
    first.append(7)
    first[0] = 9
    assert g.neighbors(1) == [0, 2]
    assert g.adjacency[1] == (0, 2)


def test_locally_biconnected_matches_loop():
    for g in graphs():
        if g.n >= 2 and g.connected:
            for i in range(g.n):
                assert locally_biconnected(g, i) == locally_biconnected_loop(g, i)
