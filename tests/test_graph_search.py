"""The numpy graph scans against the per-element Python loops they replaced.

The reference functions below are the scalar loops the package used before
its neighbour lists (now one scan per graph, kept as
``WeightedGraph.adjacency``), edge lists, proximity pair selection and
connectivity searches became numpy scans. The arithmetic is unchanged (the proximity
model still tests and weighs each pair with ``math``), so every comparison
is exact equality, including Python types and list order. The random-graph
references are the two Erdos-Renyi loops that ``random_graph`` and
``random_connected_graph`` each carried before they shared one sampler; the
seeded corpora must not move, so their weights must be bit-equal.
"""

import math
from collections import deque

import numpy as np
import pytest

from biconcert import (
    ProximityModel,
    WeightedGraph,
    from_edge_list,
    is_connected_bfs,
    proximity_graph,
    reduced_graph,
)
from biconcert import verify
from biconcert.graph_core import reachable
from biconcert.verify import _GraphCase, random_graph, seed_graphs, suite_corpus


def neighbors_loop(g, i):
    return [j for j in range(g.n) if g.weights[i, j] > 0.0]


def edges_loop(g):
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            w = g.weights[i, j]
            if w > 0.0:
                out.append((i, j, float(w)))
    return out


def reachable_loop(g, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in range(g.n):
            if g.weights[u, v] > 0.0 and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def components_loop(g):
    seen = set()
    components = 0
    for start in range(g.n):
        if start not in seen:
            components += 1
            seen |= reachable_loop(g, start)
    return components


def proximity_loop(positions, model):
    pts = np.array(positions, dtype=float)
    n = pts.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[i, 0] - pts[j, 0]
            dy = pts[i, 1] - pts[j, 1]
            if math.hypot(dx, dy) <= model.radius:
                w[i, j] = w[j, i] = math.exp(-(dx * dx + dy * dy) / (2.0 * model.sigma))
    return WeightedGraph(n=n, weights=w, positions=pts)


def disk_layouts():
    """(positions, model) pairs: seeded disk layouts plus edge cases."""
    rng = np.random.default_rng(11)
    cases = []
    for n, radius in ((30, 0.35), (200, 0.14), (200, 0.05)):
        for _ in range(3):
            cases.append((rng.random((n, 2)), ProximityModel(radius, 0.125)))
    cases.append((rng.random((1, 2)), ProximityModel(0.5, 0.125)))
    # 3-4-5 triangle: the pair sits at exactly the radius (inclusive boundary)
    cases.append(([(0.0, 0.0), (3.0, 4.0), (9.0, 0.0)], ProximityModel(5.0, 2.0)))
    return cases


def graphs():
    """Corpus graphs, disk graphs (some disconnected), n=1 and a split graph."""
    out = list(suite_corpus(np.random.default_rng(5), 40))
    out += [proximity_loop(p, m) for p, m in disk_layouts()]
    out.append(from_edge_list(5, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0)]))
    return out


@pytest.mark.parametrize("positions, model", disk_layouts())
def test_proximity_graph_matches_loop(positions, model):
    got, want = proximity_graph(positions, model), proximity_loop(positions, model)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.positions, want.positions)


# A pair whose np.hypot distance is one ulp above its math.hypot distance.
NP_HYPOT_ABOVE = [
    [0.8600405275554288, 0.7138786034477888],
    [0.14883130948880796, 0.11025265113634064],
]


def test_proximity_radius_at_pair_distance_is_inclusive():
    # The radius is set to each pair's own math.hypot distance, so every
    # decision falls exactly on the boundary the numpy preselection must keep.
    rng = np.random.default_rng(2)
    for pts in [np.array(NP_HYPOT_ABOVE)] + [rng.random((2, 2)) for _ in range(200)]:
        radius = math.hypot(*(pts[0] - pts[1]))
        got = proximity_graph(pts, ProximityModel(radius, 0.125))
        want = proximity_loop(pts, ProximityModel(radius, 0.125))
        assert got.weights[0, 1] > 0.0
        assert np.array_equal(got.weights, want.weights)


def test_neighbors_and_edges_match_loops():
    for g in graphs():
        assert g.edges() == edges_loop(g)
        assert all(type(w) is float for _, _, w in g.edges())
        assert len(g.adjacency) == g.n
        assert g.adjacency is g.adjacency  # scanned once, then kept
        for i in range(g.n):
            assert g.neighbors(i) == neighbors_loop(g, i)
            assert g.adjacency[i] == tuple(np.flatnonzero(g.weights[i] > 0.0).tolist())
            assert all(type(j) is int for j in g.adjacency[i])


def test_reachable_matches_loop():
    for g in graphs():
        adj = g.weights > 0.0
        for start in range(min(g.n, 6)):
            mask = reachable(adj, start)
            assert set(np.flatnonzero(mask).tolist()) == reachable_loop(g, start)
        assert is_connected_bfs(g) == (len(reachable_loop(g, 0)) == g.n)


@pytest.mark.parametrize("n", range(1, 25))
def test_stacked_reachable_matches_each_member(n):
    # A (3, 5) stack of directed adjacency matrices, from empty to dense,
    # each searched from its own random start, against one 2-D call each.
    rng = np.random.default_rng(n)
    adj = rng.random((3, 5, n, n)) < rng.uniform(0.0, 0.5, size=(3, 5, 1, 1))
    start = rng.integers(0, n, size=(3, 5))
    got = reachable(adj, start)
    assert got.shape == (3, 5, n) and got.dtype == bool
    for index in np.ndindex(3, 5):
        assert np.array_equal(got[index], reachable(adj[index], int(start[index])))


def test_component_count_matches_loop():
    for g in suite_corpus(np.random.default_rng(5), 40):
        want = [components_loop(reduced_graph(g, i)) for i in range(g.n)]
        assert _GraphCase(g, range(g.n)).null_multiplicity == want


def random_graph_loop(rng, n, p):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = 1.0 - rng.random()
    return WeightedGraph(n=n, weights=w)


def random_connected_graph_loop(rng, n, style):
    if n == 1:
        return WeightedGraph(n=1, weights=np.zeros((1, 1)))
    if style == "geometric":
        for _ in range(40):
            pts = rng.random((n, 2))
            radius = float(rng.uniform(0.35, 0.8))
            g = proximity_graph(pts, ProximityModel(radius=radius, sigma=radius**2 / 2.0))
            if is_connected_bfs(g):
                return g
    else:
        p = float(rng.uniform(0.15, 0.9))
        for _ in range(40):
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        w[i, j] = w[j, i] = 1.0 - rng.random()
            g = WeightedGraph(n=n, weights=w)
            if is_connected_bfs(g):
                return g
    w = np.zeros((n, n))
    for k in range(1, n):
        j = int(rng.integers(0, k))
        w[k, j] = w[j, k] = 1.0 - rng.random()
    p = float(rng.uniform(0.05, 0.4))
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0.0 and rng.random() < p:
                w[i, j] = w[j, i] = 1.0 - rng.random()
    return WeightedGraph(n=n, weights=w)


def suite_corpus_loop(rng, n_graphs, n_range=(3, 17)):
    graphs = list(seed_graphs())
    for t in range(max(0, n_graphs - len(graphs))):
        style = "geometric" if t % 2 else "er"
        n = int(rng.integers(n_range[0], n_range[1]))
        graphs.append(random_connected_graph_loop(rng, n, style))
    return graphs[:n_graphs]


@pytest.mark.parametrize("seed", [1, 7, 19, 101])
def test_suite_corpus_matches_loop(seed, monkeypatch):
    # (2, 6): small graphs, where many ER draws are disconnected and redrawn.
    for n_range in ((3, 17), (2, 6)):
        monkeypatch.setattr(verify, "_SUITE_N_RANGE", n_range)
        got = suite_corpus(np.random.default_rng(seed), 40)
        want = suite_corpus_loop(np.random.default_rng(seed), 40, n_range)
        assert len(got) == len(want) == 40
        for a, b in zip(got, want):
            assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("seed", [1, 7, 19, 101])
def test_random_graph_matches_loop(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for n, p in [(1, 0.5), (2, 0.0), (5, 1.0)] + [(k, k / 40.0) for k in range(3, 24)]:
        assert np.array_equal(random_graph(rng, n, p).weights, random_graph_loop(ref, n, p).weights)
    # both generators must end in the same state, so later draws agree too
    assert rng.random() == ref.random()
