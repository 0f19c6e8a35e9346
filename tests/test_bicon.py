"""Certificates, bounds, and the exact combinatorial oracles.

The three-node unit path is the load-bearing hand computation: with the
middle node probed, lambda3 of the perturbed Laplacian is exactly 3 eps,
the simplified bound is eps * sqrt(6), and the exact coupling-norm bound is
eps * sqrt(10). The simplified constant therefore certifies the middle node
even though it is an articulation point, while the exact norm does not.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from biconcert import (
    BiconnectivityReport,
    BoundMode,
    CombinationParams,
    GraphInputError,
    NodeCertificate,
    PerturbationConfig,
    PreconditionError,
    ProximityModel,
    SpectralTest,
    WeightedGraph,
    articulation_points_bruteforce,
    articulation_points_oracle,
    certify_graph,
    check_combination_realness,
    check_eigenvalue_gap_bound,
    check_intermediate_spectrum,
    check_null_drift_derivative,
    check_rank_one_update_spectrum,
    doubly_connected_oracle,
    exact_norm_bound,
    from_edge_list,
    intermediate_matrix,
    is_biconnected_oracle,
    locally_biconnected,
    neighbor_weight_vector,
    perturbed_laplacian,
    proximity_graph,
    reduced_graph,
    report_csv_rows,
    report_to_dict,
    simplified_bound,
    spectral_certificate,
    spectral_tests,
)
from biconcert.bicon import sweep_csv_rows
from biconcert.verify import random_connected_graph, rank_one_update_matrix


def path3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])


def k3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def k4():
    return from_edge_list(
        4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    )


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def bowtie():
    # two triangles sharing vertex 2
    return from_edge_list(
        5,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0)],
    )


class TestLocallyBiconnected:
    def test_k3_all_nodes(self):
        for i in range(3):
            assert locally_biconnected(k3(), i)

    def test_path_middle_false(self):
        assert not locally_biconnected(path3(), 1)

    def test_path_leaf_true(self):
        assert locally_biconnected(path3(), 0)
        assert locally_biconnected(path3(), 2)

    def test_disconnected_rejected(self):
        g = WeightedGraph(n=3, weights=np.zeros((3, 3)))
        with pytest.raises(PreconditionError):
            locally_biconnected(g, 0)


class TestSpectralCertificate:
    def test_path3_hand_computation(self):
        g = path3()
        for eps in (1e-3, 0.01, 0.1):
            cert_simple = spectral_certificate(
                g, 1, PerturbationConfig(eps), BoundMode.SIMPLIFIED
            )
            assert cert_simple.lambda3_perturbed == pytest.approx(3 * eps, abs=1e-12)
            assert cert_simple.test.simplified_bound == pytest.approx(
                eps * math.sqrt(6.0), abs=1e-12
            )
            assert cert_simple.test.exact_norm_bound == pytest.approx(
                eps * math.sqrt(10.0), abs=1e-12
            )
            # simplified constant certifies an actual articulation point
            assert cert_simple.certified
            cert_exact = spectral_certificate(
                g, 1, PerturbationConfig(eps), BoundMode.EXACT_NORM
            )
            assert not cert_exact.certified

    def test_k4_certified_in_both_modes(self):
        g = k4()
        cfg = PerturbationConfig(0.01)
        for mode in BoundMode:
            for i in range(4):
                cert = spectral_certificate(g, i, cfg, mode)
                assert cert.certified
        assert articulation_points_oracle(g) == set()

    def test_bound_helpers_example_arithmetic(self):
        # published-style numbers: eps 0.05, n 10, root-sum-square 0.062
        a = np.zeros(9)
        a[0] = 0.062
        bound = simplified_bound(0.05, 10, a)
        assert bound == pytest.approx(0.0098, abs=1e-4)
        assert 0.034 > bound

    def test_exact_norm_bound_matches_manual_frobenius(self):
        a = np.array([0.3, 0.0, 0.7])
        m = np.diag(a) + np.outer(a, np.ones(3))
        manual = math.sqrt(float(np.sum(m * m)))
        assert exact_norm_bound(2.0, a) == pytest.approx(2.0 * manual, abs=1e-15)
        # the closed form stays within 4 ulp of the explicit norm at any size
        # and weight scale
        rng = np.random.default_rng(9)
        for size in (1, 2, 5, 40, 199):
            for scale in (1e-12, 1.0, 1e8):
                a = rng.random(size) * scale
                m = np.diag(a) + np.outer(a, np.ones(size))
                assert exact_norm_bound(0.05, a) == pytest.approx(
                    0.05 * float(np.linalg.norm(m)), rel=4 * np.finfo(float).eps, abs=0.0
                )

    def test_bounds_of_an_epsilon_array_equal_scalar_calls(self):
        # spectral_tests takes every bound of a node from one call per bound
        # function with all its epsilons; each value must be bit-identical to
        # the scalar closed forms (eps sqrt(n)) sqrt(sum a^2) and
        # eps sqrt((m + 3) sum a^2)
        eps = np.concatenate([[1e-16, 1e-9, 1e-4, 0.05, 0.5, 1.0, 3.0], np.geomspace(1e-16, 3.0, 41)])
        rng = np.random.default_rng(17)
        for size in (1, 2, 5, 40, 199):
            for scale in 10.0 ** np.arange(-12, 9):
                a = rng.random(size) * scale
                n = size + 1
                simple, exact = simplified_bound(eps, n, a), exact_norm_bound(eps, a)
                assert simple.shape == exact.shape == eps.shape
                for e, s, x in zip(eps.tolist(), simple.tolist(), exact.tolist()):
                    assert s == simplified_bound(e, n, a) == float(e * np.sqrt(n) * np.sqrt(np.sum(a * a)))
                    assert x == exact_norm_bound(e, a) == e * float(np.sqrt((size + 3) * np.sum(a * a)))
        assert type(simplified_bound(0.05, 4, a)) is float
        assert type(exact_norm_bound(0.05, a)) is float

    def test_spectral_tests_bounds_equal_scalar_calls(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 12)
        eps = [1e-16, 1e-4, 0.05, 1.0, 3.0]
        tests = spectral_tests(g, range(g.n), eps)
        assert [(t.node, t.epsilon) for t in tests] == [(i, e) for i in range(g.n) for e in eps]
        for t in tests:
            a = np.delete(g.weights[t.node], t.node)
            assert type(t.simplified_bound) is float and type(t.exact_norm_bound) is float
            assert t.simplified_bound == simplified_bound(t.epsilon, g.n, a)
            assert t.exact_norm_bound == exact_norm_bound(t.epsilon, a)

    def test_small_graph_rejected(self):
        g = from_edge_list(2, [(0, 1, 1.0)])
        with pytest.raises(PreconditionError):
            spectral_certificate(g, 0, PerturbationConfig(0.1))

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(PreconditionError):
            spectral_certificate(g, 0, PerturbationConfig(0.1))


class TestCertifyGraph:
    def test_k4_local_shortcut_skips_spectral(self):
        report = certify_graph(k4(), PerturbationConfig(0.01))
        assert report.graph_certified
        for cert in report.nodes:
            assert cert.locally_biconnected
            assert cert.lambda3_perturbed is None

    def test_path3_not_certified(self):
        report = certify_graph(path3(), PerturbationConfig(0.01), BoundMode.EXACT_NORM)
        assert not report.graph_certified
        middle = report.nodes[1]
        assert not middle.locally_biconnected
        assert not middle.certified
        assert middle.lambda3_perturbed is not None

    def test_cycle5_certified_exact_mode_small_eps(self):
        report = certify_graph(cycle(5), PerturbationConfig(0.01), BoundMode.EXACT_NORM)
        assert report.graph_certified

    def test_invariant_graph_certified(self):
        rng = np.random.default_rng(21)
        for k in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            report = certify_graph(g, PerturbationConfig(0.01))
            assert report.graph_certified == all(
                c.locally_biconnected or c.certified for c in report.nodes
            )

    def test_with_oracle_annotations(self):
        report = certify_graph(path3(), PerturbationConfig(0.01), with_oracle=True)
        assert report.oracle_biconnected is False
        assert [c.oracle_is_articulation for c in report.nodes] == [False, True, False]


class TestArticulationOracles:
    def test_path3(self):
        assert articulation_points_oracle(path3()) == {1}

    def test_k4_empty(self):
        assert articulation_points_oracle(k4()) == set()

    def test_bowtie_shared_vertex(self):
        assert articulation_points_oracle(bowtie()) == {2}

    def test_star(self):
        star = from_edge_list(5, [(0, i, 1.0) for i in range(1, 5)])
        assert articulation_points_oracle(star) == {0}

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(PreconditionError):
            articulation_points_oracle(g)

    def test_matches_bruteforce_random(self):
        for g in (from_edge_list(1, []), from_edge_list(2, [(0, 1, 1.0)])):  # K1, K2
            assert articulation_points_oracle(g) == articulation_points_bruteforce(g) == set()
        rng = np.random.default_rng(22)
        for k in range(200):
            style = "geometric" if k % 2 else "er"
            g = random_connected_graph(rng, int(rng.integers(2, 16)), style=style)
            assert articulation_points_oracle(g) == articulation_points_bruteforce(g)


class TestBiconnectedOracle:
    def test_cycle5(self):
        assert is_biconnected_oracle(cycle(5))

    def test_path3(self):
        assert not is_biconnected_oracle(path3())

    def test_k4_minus_edge(self):
        g = from_edge_list(
            4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
        )
        assert is_biconnected_oracle(g)

    def test_single_edge_not_biconnected(self):
        assert not is_biconnected_oracle(from_edge_list(2, [(0, 1, 1.0)]))


class TestDoublyConnected:
    def test_cycle_all_pairs(self):
        g = cycle(5)
        for i in range(5):
            for j in range(i + 1, 5):
                assert doubly_connected_oracle(g, i, j)

    def test_path_leaf_to_leaf(self):
        assert not doubly_connected_oracle(path3(), 0, 2)

    def test_k4_all_pairs(self):
        g = k4()
        for i in range(4):
            for j in range(i + 1, 4):
                assert doubly_connected_oracle(g, i, j)

    def test_adjacent_on_single_edge(self):
        g = from_edge_list(2, [(0, 1, 1.0)])
        assert not doubly_connected_oracle(g, 0, 1)

    def test_same_node_rejected(self):
        with pytest.raises(PreconditionError):
            doubly_connected_oracle(path3(), 1, 1)

    def test_equivalence_with_biconnectivity_small(self):
        rng = np.random.default_rng(23)
        for k in range(120):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            all_pairs = all(
                doubly_connected_oracle(g, i, j)
                for i in range(g.n)
                for j in range(i + 1, g.n)
            )
            assert all_pairs == is_biconnected_oracle(g)


EPS = PerturbationConfig(0.1)

# Every public function that needs a connected graph, with the smallest n it takes.
NEEDS_CONNECTED = {
    "locally_biconnected": (lambda g: locally_biconnected(g, 0), 2),
    "spectral_certificate": (lambda g: spectral_certificate(g, 0, EPS), 3),
    "certify_graph": (lambda g: certify_graph(g, EPS), 3),
    "articulation_points_oracle": (articulation_points_oracle, 1),
    "articulation_points_bruteforce": (articulation_points_bruteforce, 1),
    "is_biconnected_oracle": (is_biconnected_oracle, 1),
    "doubly_connected_oracle": (lambda g: doubly_connected_oracle(g, 0, 1), 1),
    "spectral_tests": (lambda g: spectral_tests(g, [0], [0.1]), 3),
    "check_intermediate_spectrum": (lambda g: check_intermediate_spectrum(g, 0, 0.1), 3),
    "check_combination_realness": (
        lambda g: check_combination_realness(g, 0, CombinationParams(1.0, 1.0, 0.1)),
        1,
    ),
    "check_eigenvalue_gap_bound": (lambda g: check_eigenvalue_gap_bound(g, 0, 0.1), 1),
    "check_rank_one_update_spectrum": (lambda g: check_rank_one_update_spectrum(g, 0, 1.0, 1e-3), 3),
    "check_null_drift_derivative": (lambda g: check_null_drift_derivative(g, 0), 3),
}


class TestConnectivityPrecondition:
    @pytest.mark.parametrize("name", sorted(NEEDS_CONNECTED))
    def test_disconnected_or_too_small_rejected(self, name):
        call, min_n = NEEDS_CONNECTED[name]
        with pytest.raises(PreconditionError, match="graph must be connected"):
            call(from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        if min_n > 1:
            # The size is checked before connectivity: a graph one node short
            # gets the size error whether or not it is connected.
            k = min_n - 1
            for g in (from_edge_list(k, [(0, 1, 1.0)] if k == 2 else []), WeightedGraph(k, np.zeros((k, k)))):
                with pytest.raises(PreconditionError, match=f"at least {min_n} nodes, got {k}"):
                    call(g)

    def test_every_function_reads_one_search(self, searched):
        g = bowtie()
        for i in range(g.n):
            locally_biconnected(g, i)
        articulation_points_oracle(g)
        is_biconnected_oracle(g)
        doubly_connected_oracle(g, 0, 3)
        spectral_certificate(g, 2, EPS)
        certify_graph(g, EPS, with_oracle=True)
        assert len(searched) == 1 and searched[0] is g


# Every public function that takes a node, called with node i.
TAKES_A_NODE = {
    "spectral_tests": lambda g, i: spectral_tests(g, [i], [0.1]),
    "spectral_certificate": lambda g, i: spectral_certificate(g, i, EPS),
    "locally_biconnected": locally_biconnected,
    "doubly_connected_oracle-i": lambda g, i: doubly_connected_oracle(g, i, 0),
    "doubly_connected_oracle-j": lambda g, i: doubly_connected_oracle(g, 0, i),
    "check_intermediate_spectrum": lambda g, i: check_intermediate_spectrum(g, i, 0.1),
    "check_combination_realness": lambda g, i: check_combination_realness(
        g, i, CombinationParams(1.0, 1.0, 0.1)
    ),
    "check_eigenvalue_gap_bound": lambda g, i: check_eigenvalue_gap_bound(g, i, 0.1),
    "check_rank_one_update_spectrum": lambda g, i: check_rank_one_update_spectrum(g, i, 1.0, 1e-3),
    "check_null_drift_derivative": check_null_drift_derivative,
    "neighbor_weight_vector": neighbor_weight_vector,
    "reduced_graph": reduced_graph,
    "perturbed_laplacian": lambda g, i: perturbed_laplacian(g, i, EPS),
    "intermediate_matrix": lambda g, i: intermediate_matrix(g, i, EPS),
    "rank_one_update_matrix": lambda g, i: rank_one_update_matrix(g, i, 1.0, 1e-3),
}


@pytest.mark.parametrize("node", [-1, 4])
@pytest.mark.parametrize("name", sorted(TAKES_A_NODE))
def test_node_out_of_range_is_input_error(name, node):
    # numpy would read node -1 as node n - 1 without a word
    with pytest.raises(GraphInputError, match=rf"node {node} out of range \[0, 4\)"):
        TAKES_A_NODE[name](cycle(4), node)


class TestSoundness:
    # The certificate is sufficient only: the converse (every non-articulation
    # node is certified) must NOT be asserted anywhere; the path graph's leaves
    # under a large epsilon already break it.

    def test_exact_mode_never_certifies_articulation_points(self):
        rng = np.random.default_rng(24)
        for k in range(120):
            style = "geometric" if k % 2 else "er"
            g = random_connected_graph(rng, int(rng.integers(3, 14)), style=style)
            points = articulation_points_oracle(g)
            for eps in (1e-3, 1e-2, 1e-1):
                cfg = PerturbationConfig(eps)
                for i in range(g.n):
                    cert = spectral_certificate(g, i, cfg, BoundMode.EXACT_NORM)
                    if cert.certified:
                        assert i not in points

    def test_local_shortcut_never_marks_articulation_points(self):
        rng = np.random.default_rng(25)
        for k in range(120):
            g = random_connected_graph(rng, int(rng.integers(3, 14)))
            points = articulation_points_oracle(g)
            for i in range(g.n):
                if locally_biconnected(g, i):
                    assert i not in points

    def test_graph_certificate_implies_biconnected(self):
        rng = np.random.default_rng(26)
        for k in range(80):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            report = certify_graph(g, PerturbationConfig(0.01), BoundMode.EXACT_NORM)
            if report.graph_certified:
                assert is_biconnected_oracle(g)

    # Graphs 16, 22 and 32 of the corpus below: under an absolute margin on
    # lambda3 (1e-12), their verdicts moved with the unit of the weights, and
    # at eps = 1e-16 cut vertices of 16 (weights x 1e4) and 22 (x 1e8) were
    # certified. The comparison lambda3 - tau > bound scales with the weights.

    @pytest.mark.parametrize("index", [16, 22, 32])
    def test_verdicts_do_not_move_with_the_weight_scale(self, index):
        g = corpus_graph(index)
        unit = scaled_verdicts(g, 1.0, (1e-16, 1e-4, 0.05))
        for k in (-46, -20, 20, 40):
            assert scaled_verdicts(g, 2.0**k, (1e-16, 1e-4, 0.05)) == unit, k

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_no_cut_vertex_certified_at_a_tiny_epsilon_with_large_weights(self, scale):
        for index in (16, 22):
            g = corpus_graph(index)
            points = articulation_points_oracle(g)
            certified = {i for i, _, (_, exact) in scaled_verdicts(g, scale, [1e-16]) if exact}
            assert not certified & points, index


def corpus_graph(index):
    """Graph ``index`` of ``random_connected_graph(default_rng(3), n in [5, 30))``."""
    rng = np.random.default_rng(3)
    for _ in range(index):
        random_connected_graph(rng, int(rng.integers(5, 30)))
    return random_connected_graph(rng, int(rng.integers(5, 30)))


def scaled_verdicts(g, scale, epsilons):
    """(node, eps, (simplified, exact) verdicts) of every node with g's weights times ``scale``."""
    scaled = WeightedGraph(n=g.n, weights=g.weights * scale)
    return [
        (t.node, t.epsilon, tuple(t.certified(mode) for mode in BoundMode))
        for t in spectral_tests(scaled, range(g.n), epsilons)
    ]


class TestSerialization:
    def test_report_dict_is_json_ready(self):
        report = certify_graph(path3(), PerturbationConfig(0.05), with_oracle=True)
        doc = json.loads(json.dumps(report_to_dict(report)))
        assert doc["epsilon"] == 0.05
        assert doc["mode"] == "exact"
        assert doc["graph_certified"] is False
        assert doc["oracle_biconnected"] is False
        assert len(doc["nodes"]) == 3
        assert doc["nodes"][0]["lambda3"] is None  # leaf skipped the eigensolve
        assert doc["nodes"][1]["lambda3"] == pytest.approx(0.15, abs=1e-12)

    def test_csv_rows(self):
        report = certify_graph(path3(), PerturbationConfig(0.05), with_oracle=True)
        rows = report_csv_rows(report)
        assert rows[0] == [
            "node",
            "locally_biconnected",
            "lambda3",
            "simplified_bound",
            "exact_bound",
            "certified",
            "oracle",
        ]
        assert len(rows) == 4
        assert rows[2][0] == "1"
        assert rows[2][1] == "false"
        assert rows[2][2] == "0.15"
        assert rows[2][6] == "true"

    def test_csv_cells_from_hand_built_records(self):
        # Hand-made records: the cell rules, not LAPACK's last bits, decide the text.
        report = BiconnectivityReport(
            nodes=(
                NodeCertificate(1234567, True, None, certified=False),
                NodeCertificate(
                    node=3,
                    locally_biconnected=False,
                    test=SpectralTest(3, 0.05, 0.123456789, 0.1, 2.0, 0.001),
                    certified=True,
                    oracle_is_articulation=False,
                ),
            ),
            graph_certified=True,
            epsilon=0.05,
            mode=BoundMode.EXACT_NORM,
        )
        assert report_csv_rows(report)[1:] == [
            ["1234567", "true", "", "", "", "false", ""],
            ["3", "false", "0.123457", "0.1", "2", "true", "false"],
        ]

    def test_sweep_csv_rows_from_hand_built_tests(self):
        between = SpectralTest(1234567, 0.123456789, 0.5, 0.4, 0.6, 0.05)  # simplified < lambda3 - tau < exact
        above = SpectralTest(2, 1e-4, 3.0, 1.0, 2.0, 0.5)
        rows = sweep_csv_rows([between, above])
        assert rows[0] == [
            "node",
            "epsilon",
            "lambda3",
            "simplified_bound",
            "exact_bound",
            "certified_simplified",
            "certified_exact",
        ]
        assert rows[1:] == [
            ["1234567", "0.123457", "0.5", "0.4", "0.6", "true", "false"],
            ["2", "0.0001", "3", "1", "2", "true", "true"],
        ]
        assert sweep_csv_rows([]) == [rows[0]]


def test_oracle_only_adds_the_oracle_fields():
    rng = np.random.default_rng(12)
    graphs = [path3(), bowtie(), k4()] + [random_connected_graph(rng, 9) for _ in range(5)]
    for g in graphs:
        for mode in BoundMode:
            plain = certify_graph(g, PerturbationConfig(0.05), mode)
            full = certify_graph(g, PerturbationConfig(0.05), mode, with_oracle=True)
            points = articulation_points_oracle(g)
            assert [c.oracle_is_articulation for c in full.nodes] == [i in points for i in range(g.n)]
            assert full.oracle_biconnected is (not points)
            assert plain.oracle_biconnected is None
            assert all(c.oracle_is_articulation is None for c in plain.nodes)
            assert dataclasses.replace(
                full,
                nodes=tuple(dataclasses.replace(c, oracle_is_articulation=None) for c in full.nodes),
                oracle_biconnected=None,
            ) == plain


def grid(k):
    edges = [(r * k + c, r * k + c + 1, 1.0) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c, 1.0) for r in range(k - 1) for c in range(k)]
    return from_edge_list(k * k, edges)


def disk_graph(seed, n=200, radius=0.14):
    rng = np.random.default_rng(seed)
    while True:
        g = proximity_graph(rng.random((n, 2)), ProximityModel(radius, 0.125))
        if g.connected:
            return g


@pytest.mark.parametrize("mode", list(BoundMode), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "make",
    [path3, bowtie, lambda: cycle(5), lambda: grid(12), lambda: disk_graph(1)],
    ids=["path3", "bowtie", "cycle5", "grid12", "disk200"],
)
def test_a_report_reproduces_its_own_verdicts(make, mode):
    # every node that needs an eigensolve keeps the test it was judged by,
    # tau included, and the report's numbers are that test's
    g = make()
    for eps in (1e-4, 0.05):
        report = certify_graph(g, PerturbationConfig(eps), mode)
        rows = report_to_dict(report)["nodes"]
        for c, row in zip(report.nodes, rows, strict=True):
            assert (c.test is None) == c.locally_biconnected
            assert c.certified == (c.test is not None and c.test.certified(report.mode))
            written = (row["lambda3"], row["simplified_bound"], row["exact_norm_bound"])
            if c.test is None:
                assert written == (None, None, None)
                continue
            assert (c.test.node, c.test.epsilon) == (c.node, eps)
            assert math.isfinite(c.test.tau)
            assert written == (c.test.lambda3, c.test.simplified_bound, c.test.exact_norm_bound)
