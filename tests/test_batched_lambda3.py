"""The batched lambda3 solver against the dense path it replaces.

The dense path, ``eigvalsh(perturbed_laplacian(g, i, eps))``, is the
reference throughout: the batched lambda3 must lie within its error bound tau
of it, tau must be the dense path's, and a verdict ``lambda3 - tau > bound``
may differ from the dense path's only within ``2 tau`` of the bound, where
neither path certifies a node whose dense lambda3 does not clear it.
"""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import biconcert.bicon as bicon
import biconcert.spectral as spectral
from biconcert import (
    BoundMode,
    GraphInputError,
    PerturbationConfig,
    ProximityModel,
    WeightedGraph,
    exact_norm_bound,
    from_edge_list,
    is_connected_bfs,
    laplacian,
    perturbed_laplacian,
    proximity_graph,
    simplified_bound,
)
from biconcert.bicon import spectral_tests
from biconcert.cli import EXIT_NUMERICAL, main
from biconcert.spectral import _lambda3_batched, symmetric_eigen
from biconcert.verify import random_connected_graph

EPSILONS = (1e-16, 1e-9, 1e-4, 0.05, 0.5, 1.0, 3.0)


def grid(k, seed=0):
    """k x k unit grid with node labels shuffled by ``seed``."""
    perm = np.random.default_rng(seed).permutation(k * k)
    edges = []
    for r in range(k):
        for c in range(k):
            u = r * k + c
            for v in ([u + 1] if c + 1 < k else []) + ([u + k] if r + 1 < k else []):
                edges.append((int(perm[u]), int(perm[v]), 1.0))
    return from_edge_list(k * k, edges)


def disk_graph(seed, n=200, radius=0.14):
    rng = np.random.default_rng(seed)
    while True:
        g = proximity_graph(rng.random((n, 2)), ProximityModel(radius, 0.125))
        if is_connected_bfs(g):
            return g


def dense_lambda3(g, i, eps):
    return float(np.linalg.eigvalsh(perturbed_laplacian(g, i, PerturbationConfig(eps)))[2])


def dense_tau(g, i, eps):
    """64 n u max(||L||_1, ||L_i(eps)||_1), from the two matrices."""
    m = perturbed_laplacian(g, i, PerturbationConfig(eps))
    norm = max(np.abs(laplacian(g)).sum(axis=0).max(), np.abs(m).sum(axis=0).max())
    return spectral.LAMBDA3_TAU_FACTOR * g.n * (np.finfo(float).eps / 2) * norm


def verdicts(g, i, eps, lam3, tau):
    a = np.delete(g.weights[i], i)
    bounds = (simplified_bound(eps, g.n, a), exact_norm_bound(eps, a))
    return [lam3 - tau > b for b in bounds], bounds


def assert_matches_dense(g, nodes):
    nodes = np.asarray(nodes)
    probe_nodes = np.repeat(nodes, len(EPSILONS))
    probe_eps = np.tile(EPSILONS, len(nodes))
    lam3, tau = _lambda3_batched(g, probe_nodes, probe_eps)
    assert np.all(np.isfinite(tau)) and np.all(tau > 0.0)
    for got, t, i, eps in zip(lam3, tau, probe_nodes, probe_eps):
        i, eps = int(i), float(eps)
        want, want_tau = dense_lambda3(g, i, eps), dense_tau(g, i, eps)
        assert abs(got - want) <= t, (i, eps, got, want, t)
        assert t == pytest.approx(want_tau, rel=1e-12)
        got_flags, bounds = verdicts(g, i, eps, got, t)
        want_flags, _ = verdicts(g, i, eps, want, want_tau)
        # a batched certificate is one the dense lambda3 backs, and away
        # from the bound the two verdicts agree
        for g_flag, w_flag, b in zip(got_flags, want_flags, bounds):
            assert want > b or not g_flag
            assert abs(got - t - b) <= 2.0 * t or g_flag == w_flag


@pytest.mark.parametrize("k", [8, 9, 12])
def test_grids_match_dense(k):
    # grids have highly repeated Laplacian eigenvalues, which bisection
    # midpoints hit exactly
    assert_matches_dense(grid(k, seed=k), range(k * k))


def test_large_grid_matches_dense():
    g = grid(16, seed=16)
    nodes = np.random.default_rng(16).choice(g.n, 24, replace=False)
    assert_matches_dense(g, nodes)


@pytest.mark.parametrize("seed", [1, 2])
def test_disk_graphs_match_dense(seed):
    g = disk_graph(seed)
    nodes = np.random.default_rng(seed).choice(g.n, 16, replace=False)
    assert_matches_dense(g, nodes)


@pytest.mark.parametrize("power", [-12, -6, 0, 4, 8])
def test_scaled_random_graphs_match_dense(power):
    rng = np.random.default_rng(300 + power)
    for _ in range(12):
        g = random_connected_graph(rng, int(rng.integers(3, 30)))
        g = WeightedGraph(n=g.n, weights=g.weights * 10.0**power)
        assert_matches_dense(g, range(g.n))


def complete_graph(n):
    return from_edge_list(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def star_graph(n):
    return from_edge_list(n, [(0, j, 1.0) for j in range(1, n)])


def path_graph(n):
    return from_edge_list(n, [(i, i + 1, 1.0) for i in range(n - 1)])


@pytest.mark.parametrize("family", [complete_graph, cycle_graph, star_graph, path_graph])
@pytest.mark.parametrize("n", range(5, 13))
def test_repeated_eigenvalues_and_poles_match_dense(family, n):
    # Laplacian eigenvalues of multiplicity up to n - 1, nodes whose U rows
    # vanish on whole eigenspaces (removable poles of S(mu)), and degree-1
    # nodes padded to the call's width; EPSILONS includes rho = 0 and rho < 0
    assert_matches_dense(family(n), range(n))


def force_batched(monkeypatch):
    monkeypatch.setattr(spectral, "BATCH_MIN_ORDER", 0)
    monkeypatch.setattr(spectral, "BATCH_MIN_WORK", 0)
    monkeypatch.setattr(spectral, "BATCH_DEGREE_RATIO", 0)


def force_dense(monkeypatch):
    monkeypatch.setattr(spectral, "BATCH_MIN_ORDER", math.inf)


@pytest.mark.parametrize("power", [-12, 0, 8])
def test_spectral_tests_verdicts_equal_dense_path(monkeypatch, power):
    rng = np.random.default_rng(40 + power)
    graphs = [random_connected_graph(rng, int(rng.integers(3, 20))) for _ in range(10)]
    graphs = [WeightedGraph(n=g.n, weights=g.weights * 10.0**power) for g in graphs]
    for g in graphs:
        force_batched(monkeypatch)
        fast = spectral_tests(g, range(g.n), EPSILONS)
        force_dense(monkeypatch)
        slow = spectral_tests(g, range(g.n), EPSILONS)
        for f, s in zip(fast, slow):
            assert (f.node, f.epsilon) == (s.node, s.epsilon)
            assert (f.simplified_bound, f.exact_norm_bound) == (s.simplified_bound, s.exact_norm_bound)
            for mode in BoundMode:
                assert f.certified(mode) == s.certified(mode)


def test_sweep_strings_equal_dense_path(monkeypatch):
    g = grid(9, seed=3)
    grid_eps = [float(x) for x in np.geomspace(1e-4, 1.0, 13)]
    rows = []
    for force in (force_batched, force_dense):
        force(monkeypatch)
        rows.append(
            [
                (format(t.lambda3, ".6g"), t.certified(BoundMode.SIMPLIFIED), t.certified(BoundMode.EXACT_NORM))
                for t in spectral_tests(g, range(g.n), grid_eps)
            ]
        )
    assert rows[0] == rows[1]


def test_near_threshold_falls_back_to_dense(monkeypatch):
    """A problem on the threshold is solved again densely only because its bracket did not converge."""
    g = grid(8)
    eps = 1e-4
    a = np.delete(g.weights[5], 5)
    threshold = exact_norm_bound(eps, a)

    def on_the_threshold(graph, nodes, epsilons):
        return np.full(len(nodes), threshold), np.full(len(nodes), math.inf)

    force_batched(monkeypatch)
    monkeypatch.setattr(spectral, "_lambda3_batched", on_the_threshold)
    (test,) = spectral_tests(g, [5], [eps])
    want, want_tau = dense_lambda3(g, 5, eps), dense_tau(g, 5, eps)
    assert test.lambda3 == want
    assert test.tau == pytest.approx(want_tau, rel=1e-12)
    for mode in BoundMode:
        assert test.certified(mode) == (want - test.tau > test.bound(mode))


@pytest.mark.parametrize("on", [0, 1], ids=["simplified", "exact"])
def test_perturbed_lambda3_solves_densely_exactly_the_problems_on_a_threshold_or_not_whose_tau_is_inf(
    monkeypatch, on
):
    g = grid(8)
    nodes, epsilons = [5, 5, 9, 20], [1e-4, 0.05, 0.05, 0.5]
    cfgs = [PerturbationConfig(eps) for eps in epsilons]
    a = np.array([np.delete(g.weights[i], i) for i in nodes])
    eps = np.array(epsilons)
    bounds = [simplified_bound(eps, g.n, a), exact_norm_bound(eps, a)]
    assert abs(bounds[0][1] - bounds[1][1]) > 1e-6
    away = max(b.max() for b in bounds) + 1.0
    fake_lam3 = np.full(len(nodes), away)
    fake_lam3[1] = bounds[on][1]  # problem 1 sits on one bound only, with a finite tau
    fake_tau = np.array([1e-6, 1e-6, math.inf, 1e-6])  # problem 2's bracket did not converge

    def batched(graph, probe_nodes, probe_eps):
        assert (list(probe_nodes), list(probe_eps)) == (nodes, epsilons)
        return fake_lam3.copy(), fake_tau.copy()

    built = []
    original = spectral.perturbed_laplacian

    def spy(graph, i, cfg):
        built.append((i, cfg.epsilon))
        return original(graph, i, cfg)

    force_batched(monkeypatch)
    monkeypatch.setattr(spectral, "_lambda3_batched", batched)
    monkeypatch.setattr(spectral, "perturbed_laplacian", spy)
    lam3, tau = spectral.perturbed_lambda3_many([(g, nodes, cfgs)])[0]
    assert built == [(9, 0.05)]
    assert lam3[2] == dense_lambda3(g, 9, 0.05)
    assert tau[2] == pytest.approx(dense_tau(g, 9, 0.05), rel=1e-12)
    assert lam3[[0, 1, 3]].tolist() == fake_lam3[[0, 1, 3]].tolist()
    assert tau[[0, 1, 3]].tolist() == [1e-6] * 3


@pytest.mark.parametrize("node", [-1, 64])
def test_perturbed_lambda3_rejects_a_node_out_of_range_on_the_batched_path(monkeypatch, node):
    force_batched(monkeypatch)
    with pytest.raises(GraphInputError, match=f"node {node} out of range"):
        spectral.perturbed_lambda3_many([(grid(8), [node], [PerturbationConfig(0.1)])])


def count_calls(monkeypatch, module, name):
    counts = Counter()
    original = getattr(module, name)

    def spy(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return counts


def grid_file(tmp_path, k):
    g = grid(k, seed=1)
    path = tmp_path / f"grid{k}.json"
    edges = [[i, j, w] for i, j, w in g.edges()]
    path.write_text(json.dumps({"n": g.n, "edges": edges, "positions": None}))
    return path


@pytest.mark.parametrize(
    "argv",
    [["check", "--epsilon", "1e-4"], ["sweep"]],
    ids=["check", "sweep"],
)
def test_one_eigendecomposition_per_command(tmp_path, monkeypatch, argv):
    path = grid_file(tmp_path, 12)
    eigen = count_calls(monkeypatch, spectral, "symmetric_eigen")
    build = count_calls(monkeypatch, spectral, "perturbed_laplacian")
    out = tmp_path / "out"
    assert main([argv[0], "--input", str(path), *argv[1:], "--output", str(out)]) == 0
    # 144 and 1,872 dense solves on the dense path
    assert eigen["symmetric_eigen"] == 1
    assert build["perturbed_laplacian"] == 0


def count_schur_matrices(monkeypatch):
    """Count the ``eigvalsh`` calls, and the matrices of every stacked (3-D) ``eigvalsh`` or ``eigh`` call."""
    counted = Counter()
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def spy(m, *args, _original=original, _name=name, **kwargs):
            if _name == "eigvalsh":
                counted["calls"] += 1
            if np.ndim(m) == 3:
                counted["matrices"] += len(m)
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return counted


@pytest.fixture(scope="module")
def sweep_counts(tmp_path_factory):
    """The ``eigvalsh`` counts of one default ``sweep`` of a 12x12 grid."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    path = grid_file(tmp_path, 12)
    with pytest.MonkeyPatch.context() as mp:
        counted = count_schur_matrices(mp)
        assert main(["sweep", "--input", str(path), "--output", str(tmp_path / "s.csv")]) == 0
    return counted


def test_sweep_needs_at_most_20_inertia_counts_per_problem(sweep_counts):
    # 144 nodes x 13 epsilons; pure bisection needs 39 counts per problem
    assert sweep_counts["matrices"] <= 20 * 144 * 13


def test_sweep_solves_one_schur_complement_per_node_and_trial_point(sweep_counts):
    # 144 nodes x 13 epsilons; one solve per problem and step took 23,801,
    # one per distinct (node, mu) of a step 14,089 (7.53 per problem), and
    # one per run of problems sharing a point, each count read by every
    # problem of the node whose bracket holds it, takes 10,438 (5.58)
    assert sweep_counts["matrices"] <= 10_438


def test_sweep_makes_one_stacked_inertia_solve_per_step(sweep_counts):
    # one bracket loop for all 1,872 problems; chunks of 75 problems, each
    # with its own loop, made 458 calls
    assert sweep_counts["calls"] <= 40


@pytest.mark.parametrize("epsilons", [[1e-9, 0.05, 1.0, 3.0], [1e-4]], ids=["four-eps", "one-eps"])
@pytest.mark.parametrize("graph", [grid(12, seed=1), disk_graph(1)], ids=["grid12", "disk200"])
def test_repeated_problems_share_every_schur_solve(monkeypatch, graph, epsilons):
    # one eps per node, as in check, leaves no two problems of the call
    # at one (node, mu) until the copies come in
    probe_nodes = np.repeat(np.arange(graph.n), len(epsilons))
    probe_eps = np.tile(epsilons, graph.n)
    counted = count_schur_matrices(monkeypatch)
    lam3, tau = _lambda3_batched(graph, probe_nodes, probe_eps)
    once = counted["matrices"]
    twice = np.random.default_rng(0).permutation(np.tile(np.arange(len(probe_nodes)), 2))
    lam3_twice, tau_twice = _lambda3_batched(graph, probe_nodes[twice], probe_eps[twice])
    assert counted["matrices"] == 2 * once
    assert lam3_twice.tobytes() == lam3[twice].tobytes()
    assert tau_twice.tobytes() == tau[twice].tobytes()


@pytest.mark.parametrize("k", [12, 16])
def test_check_needs_at_most_11_solves_per_problem_on_grids(tmp_path, monkeypatch, k):
    # 13.6 and 15.0 per problem when the step rule halved toward the pole
    # at lam_3; every node of a grid needs a lambda3
    path = grid_file(tmp_path, k)
    counted = count_schur_matrices(monkeypatch)
    assert main(["check", "--input", str(path), "--epsilon", "1e-4", "--output", str(tmp_path / "c")]) == 0
    assert counted["matrices"] <= 11 * k * k


def per_problem_solves(monkeypatch, graph, nodes, epsilons):
    counted = count_schur_matrices(monkeypatch)
    probe_nodes = np.repeat(nodes, len(epsilons))
    lam3, tau = _lambda3_batched(graph, probe_nodes, np.tile(epsilons, len(nodes)))
    assert np.all(np.isfinite(tau))
    return counted["matrices"] / len(probe_nodes)


def test_disk_graph_needs_no_more_solves_than_halving_toward_poles(monkeypatch):
    # the nodes check solves on this n = 200 disk graph, at its default eps:
    # 18.1 solves per problem before the pole-free det
    g = disk_graph(2)
    nodes = [i for i in range(g.n) if not bicon.locally_biconnected(g, i)]
    assert len(nodes) == 9
    assert per_problem_solves(monkeypatch, g, nodes, [0.05]) <= 18.1


def test_a_hub_does_not_multiply_the_solves(monkeypatch):
    # 20 x 20 grid plus a degree-40 hub, every node: 40.0 solves per problem
    # before, more than the 39 of pure bisection
    assert per_problem_solves(monkeypatch, HUB, range(HUB.n), [1e-4]) <= 40.0


def test_no_trial_point_comes_within_scale_of_an_eigenvalue_of_l(monkeypatch):
    """A trial point 1e-26 above lam_4 of L, where the count read 2 instead of 3, is moved off it.

    The graph is the n = 23 one of ``test_scaled_random_graphs_match_dense[-12]``,
    node 11 at eps = 3, whose scale is about 5e-26. A bracket planted around
    lambda3 with its midpoint 1e-26 above lam_4 makes the first trial point
    land there unless the guard moves it.
    """
    rng = np.random.default_rng(300 - 12)
    graphs = [random_connected_graph(rng, int(rng.integers(3, 30))) for _ in range(12)]
    (g,) = [WeightedGraph(n=h.n, weights=h.weights * 1e-12) for h in graphs if h.n == 23]
    trial = []
    original = spectral._shrink_brackets

    def plant(lam, schur_eigenvalues, node, inv_rho, shift, lo, hi, scale):
        lo = np.full(1, lam[2])
        hi = 2.0 * (lam[3] + 1e-26) - lo
        assert 0.5 * (lo[0] + hi[0]) - lam[3] < scale[0]  # the midpoint is within scale of lam_4

        def spy(nodes, mu):
            trial.append((mu.copy(), np.abs(lam - mu[0]).min(), scale[0]))
            return schur_eigenvalues(nodes, mu)

        return original(lam, spy, node, inv_rho, shift, lo, hi, scale)

    monkeypatch.setattr(spectral, "_shrink_brackets", plant)
    (lam3,), (tau,) = _lambda3_batched(g, np.array([11]), np.array([3.0]))
    # the guard moved the first point off lam_4, to lam_k -+ scale rounded
    assert trial[0][1] >= 0.99 * trial[0][2]
    assert all(distance >= 0.99 * scale for _, distance, scale in trial)
    assert abs(lam3 - dense_lambda3(g, 11, 3.0)) <= tau


def test_a_bracket_the_model_never_halves_still_converges(monkeypatch):
    # every model point at lo, clamped to scale / 2 above it: only the
    # halving rule shrinks the brackets, by one midpoint per
    # _HALVING_STEPS + 1 steps, and they still converge within the cap
    g = grid(12, seed=1)
    nodes = np.arange(0, g.n, 12)
    monkeypatch.setattr(spectral, "_trial_points", lambda lam, lo, hi, scale, state: lo)
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    lam3, tau = _lambda3_batched(g, nodes, np.full(len(nodes), 1e-4))
    assert np.all(np.isfinite(tau))
    assert 200 < calls["eigvalsh"] <= spectral._MAX_STEPS
    for i, lam3_i, tau_i in zip(nodes, lam3, tau):
        assert abs(lam3_i - dense_lambda3(g, i, 1e-4)) <= tau_i


def test_call_without_problems_solves_nothing(monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    lam3, tau = _lambda3_batched(grid(8), np.array([], dtype=int), np.array([]))
    assert lam3.shape == tau.shape == (0,)
    assert calls["eigvalsh"] == 0


def grid_with_hub(k=20, degree=40, seed=0):
    """k x k grid plus node k * k joined to ``degree`` seeded grid nodes."""
    g = grid(k, seed=seed)
    spokes = np.random.default_rng(seed).choice(g.n, degree, replace=False)
    return from_edge_list(g.n + 1, g.edges() + [(int(j), g.n, 1.0) for j in spokes])


HUB = grid_with_hub()


@pytest.mark.parametrize(
    "graph, nodes, epsilons",
    [
        (grid(12, seed=1), range(144), [float(x) for x in np.geomspace(1e-4, 1.0, 13)]),
        (disk_graph(1), None, [1e-4]),
        # degrees 2 to 5 padded to the hub's 40: the hub, its spokes and 40 more
        (HUB, [400, *HUB.adjacency[400], *range(0, 400, 10)], [1e-9, 0.05, 3.0]),
    ],
    ids=["grid12-sweep", "disk200-check", "grid20-hub40"],
)
def test_lambda3_and_tau_do_not_depend_on_the_chunk_size(monkeypatch, graph, nodes, epsilons):
    if nodes is None:  # the nodes check solves: those not locally biconnected
        nodes = [i for i in range(graph.n) if not bicon.locally_biconnected(graph, i)]
    probe_nodes = np.repeat(nodes, len(epsilons))
    probe_eps = np.tile(epsilons, len(nodes))
    results = []
    # one (node, mu) per sub-chunk and one node per bracket loop, the
    # defaults, everything in one
    for batch, factor in [(1, 1), (spectral._BATCH_BYTES, spectral._FACTOR_BYTES), (64 << 20, 64 << 20)]:
        monkeypatch.setattr(spectral, "_BATCH_BYTES", batch)
        monkeypatch.setattr(spectral, "_FACTOR_BYTES", factor)
        results.append(_lambda3_batched(graph, probe_nodes, probe_eps))
    for lam3, tau in results[1:]:
        assert lam3.tobytes() == results[0][0].tobytes()
        assert tau.tobytes() == results[0][1].tobytes()


def test_node_chunks_bound_the_memory_of_a_call(monkeypatch):
    g = grid(16, seed=1)
    g.adjacency  # built once and kept by the graph, not by the call
    tracemalloc.start()
    try:
        symmetric_eigen(laplacian(g), want_vectors=True)
        _, factorization = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # the 256 nodes' U^T take 2 MiB; an eighth of that per chunk
        monkeypatch.setattr(spectral, "_FACTOR_BYTES", 256 << 10)
        monkeypatch.setattr(spectral, "_BATCH_BYTES", 256 << 10)
        _lambda3_batched(g, np.arange(g.n), np.full(g.n, 1e-4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= factorization + spectral._FACTOR_BYTES + spectral._BATCH_BYTES


def test_small_or_dense_graphs_stay_on_the_dense_path(monkeypatch):
    def fail(*args):
        raise AssertionError("batched solver called")

    monkeypatch.setattr(spectral, "_lambda3_batched", fail)
    spectral_tests(grid(7), range(49), EPSILONS)  # n below the crossover
    spectral_tests(grid(12), range(4), [0.05])  # too few problems
    hub = from_edge_list(80, [(0, j, 1.0) for j in range(1, 80)] + [(j, j + 1, 1.0) for j in range(1, 79)])
    spectral_tests(hub, range(80), [0.05])  # degree 79 > n / 10


def mixed_cases():
    """Cases of orders 7, 5, 9 and 6, interleaved, and a 9 x 9 grid past the crossover.

    The two cases of order 6 are one graph at weights x 1 and x 1e8: a tau
    read with the other case's ``||L||_1`` would be off by a factor 1e8.
    """
    rng = np.random.default_rng(8)
    cases = [(grid(9), range(81), [1e-4])]
    for n in (7, 5, 7, 9, 5, 7):
        g = random_connected_graph(rng, n)
        cases.append((g, range(g.n), [1e-4, 0.05]))
    cases.append((cases[1][0], [3, 3, 0], [0.5, 1.0, 3.0]))  # a graph twice, repeated nodes
    g = random_connected_graph(rng, 6)
    for scale in (1.0, 1e8):
        cases.append((WeightedGraph(g.n, g.weights * scale), range(g.n), [1e-4, 0.05]))
    return cases


@pytest.mark.parametrize("per_chunk", [1, 5, None])
def test_spectral_tests_many_equals_one_call_per_case(monkeypatch, per_chunk):
    cases = mixed_cases()
    want = [spectral_tests(*case) for case in cases]  # SpectralTest ==: every float bit for bit
    original = np.linalg.eigvalsh
    stacks = []

    def spy(m, *args, **kwargs):
        stacks.append(m.shape)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    if per_chunk:
        monkeypatch.setattr(spectral, "_BATCH_BYTES", per_chunk * 8 * 7 * 7)
    assert bicon.spectral_tests_many(cases) == want
    dense = [(count, n) for count, n, _ in stacks if n in (5, 6, 7, 9)]  # the grid's Schur solves are 4 x 4
    if per_chunk is None:
        # every dense problem of one order in one stack, orders as they first appear
        assert dense == [(3 * 7 * 2 + 9, 7), (2 * 5 * 2, 5), (9 * 2, 9), (2 * 6 * 2, 6)]
    else:
        assert all(count <= max(1, spectral._BATCH_BYTES // (8 * n * n)) for count, n in dense)
        assert sum(count for count, n in dense if n == 7) == 3 * 7 * 2 + 9


def test_spectral_tests_many_checks_every_case_before_any_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("solved before every case was checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    cases = mixed_cases()
    with pytest.raises(GraphInputError, match="a certificate bound overflows"):
        bicon.spectral_tests_many(cases + [(cases[1][0], [0], [1e308])])
    with pytest.raises(GraphInputError, match="node 7 out of range"):
        bicon.spectral_tests_many(cases + [(cases[1][0], [7], [0.1])])


@pytest.mark.parametrize("per_chunk", [1, 5])
def test_dense_chunks_match_one_stack(monkeypatch, per_chunk):
    g = grid(7, seed=3)  # n below the crossover: every problem is dense
    monkeypatch.setattr(spectral, "_BATCH_BYTES", 1 << 40)
    whole = spectral_tests(g, range(g.n), EPSILONS)
    original = np.linalg.eigvalsh
    stacks = []

    def spy(m, *args, **kwargs):
        stacks.append(len(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(spectral, "_BATCH_BYTES", per_chunk * 8 * g.n * g.n)
    chunked = spectral_tests(g, range(g.n), EPSILONS)
    problems = g.n * len(EPSILONS)
    assert stacks == [min(per_chunk, problems - s) for s in range(0, problems, per_chunk)]
    assert chunked == whole  # every lambda3 bit for bit


def test_inertia_failure_exits_numerical(tmp_path, monkeypatch, capsys):
    path = grid_file(tmp_path, 12)
    original = np.linalg.eigvalsh

    def failing(m, *args, **kwargs):
        if np.ndim(m) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    assert main(["check", "--input", str(path), "--epsilon", "1e-4"]) == EXIT_NUMERICAL == 5
    assert "batched inertia count failed" in capsys.readouterr().err

