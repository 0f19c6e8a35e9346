"""Graph construction and matrix builders.

Expected spectra come from closed forms computed independently of the
library: the path Laplacian eigenvalues 2 - 2 cos(k pi / n), the complete
graph spectrum {0, n, ..., n}, and direct hand evaluation of the small
matrices involved.
"""

import math
import warnings

import numpy as np
import pytest

from biconcert import (
    GraphInputError,
    PerturbationConfig,
    PreconditionError,
    ProximityModel,
    WeightedGraph,
    coupling_matrix,
    from_edge_list,
    graph_from_dict,
    graph_to_dict,
    intermediate_matrix,
    laplacian,
    neighbor_weight_vector,
    perturbed_laplacian,
    proximity_graph,
    reduced_graph,
)
from biconcert.graph_core import reduced_laplacians


def path3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])


def k3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def path_spectrum(n):
    # closed form for the unit path graph Laplacian
    return sorted(2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(n))


class TestConstruction:
    def test_path_graph(self):
        g = path3()
        assert g.weights[0, 1] == 1.0
        assert g.weights[2, 1] == 1.0
        assert g.weights[0, 2] == 0.0

    def test_single_node(self):
        g = from_edge_list(1, [])
        assert g.n == 1
        assert g.weights.shape == (1, 1)
        assert g.weights[0, 0] == 0.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError, match=r"self loop \(0, 0\)"):
            from_edge_list(3, [(0, 0, 1.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphInputError, match=r"duplicate edge \(1, 0\)"):
            from_edge_list(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError, match="out of range"):
            from_edge_list(3, [(0, 3, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphInputError, match="positive weight"):
            from_edge_list(3, [(0, 1, 0.0)])
        for bad in (math.inf, math.nan):
            with pytest.raises(GraphInputError, match="finite"):
                from_edge_list(3, [(0, 1, bad)])

    def test_asymmetric_matrix_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(GraphInputError, match="symmetric"):
            WeightedGraph(n=2, weights=w)

    def test_weights_are_readonly(self):
        g = path3()
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_degrees_are_the_kept_read_only_row_sums(self):
        rng = np.random.default_rng(4)
        w = np.triu(rng.random((9, 9)) * (rng.random((9, 9)) < 0.5), 1)
        g = WeightedGraph(n=9, weights=w + w.T)
        d = g.degrees
        assert d.tobytes() == g.weights.sum(axis=1).tobytes()
        assert g.degrees is d
        with pytest.raises(ValueError):
            d[0] = 5.0
        # the triangle of weights 1e308 plus a tail: nodes 0, 1 and 2 overflow
        edges = [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308), (3, 0, 1.0), (3, 1, 1.0), (3, 4, 1.0)]
        big = from_edge_list(5, edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big.degrees.tolist() == [math.inf, math.inf, math.inf, 3.0, 1.0]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(GraphInputError):
            PerturbationConfig(0.0)
        with pytest.raises(GraphInputError):
            PerturbationConfig(-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(GraphInputError, match="finite"):
                PerturbationConfig(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_rejected(self, bad):
        pts = [[0.0, 0.0], [1.0, bad], [2.0, 0.0]]
        with pytest.raises(GraphInputError, match="positions must be finite"):
            WeightedGraph(n=3, weights=path3().weights, positions=pts)


class TestProximity:
    MODEL = ProximityModel(radius=0.5, sigma=0.125)

    def test_zero_distance(self):
        g = proximity_graph([(0.2, 0.2), (0.2, 0.2)], self.MODEL)
        assert g.weights[0, 1] == 1.0

    def test_boundary_distance_inclusive(self):
        # d = 0.5 exactly: weight exp(-0.25 / 0.25) = 1/e
        g = proximity_graph([(0.0, 0.0), (0.5, 0.0)], self.MODEL)
        assert g.weights[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_beyond_radius(self):
        g = proximity_graph([(0.0, 0.0), (0.51, 0.0)], self.MODEL)
        assert g.weights[0, 1] == 0.0

    def test_positions_stored(self):
        pts = [(0.1, 0.2), (0.3, 0.4)]
        g = proximity_graph(pts, self.MODEL)
        assert np.allclose(g.positions, pts)

    def test_invariants_on_random_layouts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = proximity_graph(rng.random((8, 2)), self.MODEL)
            assert np.array_equal(g.weights, g.weights.T)
            assert np.all(np.diag(g.weights) == 0.0)
            assert np.all(g.weights >= 0.0)

    def test_bad_model_rejected(self):
        with pytest.raises(GraphInputError):
            ProximityModel(radius=0.0, sigma=0.125)
        with pytest.raises(GraphInputError):
            ProximityModel(radius=0.5, sigma=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_model_rejected(self, bad):
        with pytest.raises(GraphInputError, match="finite"):
            ProximityModel(radius=bad, sigma=0.125)
        with pytest.raises(GraphInputError, match="finite"):
            ProximityModel(radius=0.5, sigma=bad)


class TestLaplacian:
    def test_k3(self):
        expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert np.array_equal(laplacian(k3()), expected)

    def test_path3_spectrum(self):
        eigs = np.linalg.eigvalsh(laplacian(path3()))
        assert np.allclose(eigs, path_spectrum(3), atol=1e-12)

    def test_single_node(self):
        assert np.array_equal(laplacian(from_edge_list(1, [])), [[0.0]])

    def test_row_sums_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        w[i, j] = w[j, i] = 10.0 * rng.random()
            lap = laplacian(WeightedGraph(n=n, weights=w))
            assert np.max(np.abs(lap @ np.ones(n))) <= 1e-12


class TestNeighborVector:
    def test_middle(self):
        assert np.array_equal(neighbor_weight_vector(path3(), 1), [1.0, 1.0])

    def test_leaf(self):
        assert np.array_equal(neighbor_weight_vector(path3(), 0), [1.0, 0.0])

    def test_k3(self):
        for i in range(3):
            assert np.array_equal(neighbor_weight_vector(k3(), i), [1.0, 1.0])

    def test_single_node_rejected(self):
        with pytest.raises(PreconditionError):
            neighbor_weight_vector(from_edge_list(1, []), 0)


class TestReducedGraph:
    def test_remove_middle_of_path(self):
        rg = reduced_graph(path3(), 1)
        assert rg.n == 2
        assert np.array_equal(rg.weights, np.zeros((2, 2)))

    def test_remove_from_k3(self):
        rg = reduced_graph(k3(), 0)
        # one unit edge: Laplacian spectrum {0, 2}
        assert np.allclose(np.linalg.eigvalsh(laplacian(rg)), [0.0, 2.0], atol=1e-12)

    def test_remove_leaf(self):
        rg = reduced_graph(path3(), 0)
        assert rg.n == 2
        assert rg.weights[0, 1] == 1.0

    def test_single_node_rejected(self):
        with pytest.raises(PreconditionError):
            reduced_graph(from_edge_list(1, []), 0)

    def test_reduced_laplacian_is_not_principal_submatrix(self):
        # removing the middle of the path drops the leaves' degrees too
        g = path3()
        full = laplacian(g)
        principal = np.delete(np.delete(full, 1, axis=0), 1, axis=1)
        induced = laplacian(reduced_graph(g, 1))
        assert np.array_equal(induced, np.zeros((2, 2)))
        assert not np.array_equal(principal, induced)

    def test_reduced_laplacian_matches_induced_subgraph(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        w[i, j] = w[j, i] = rng.random()
            g = WeightedGraph(n=n, weights=w)
            i = int(rng.integers(0, n))
            keep = [k for k in range(n) if k != i]
            sub = w[np.ix_(keep, keep)]
            expected = np.diag(sub.sum(axis=1)) - sub
            assert np.array_equal(laplacian(reduced_graph(g, i)), expected)


class TestPerturbedLaplacian:
    def test_path_middle_scales_whole_matrix(self):
        g = path3()
        for eps in (0.1, 0.5, 2.0):
            lp = perturbed_laplacian(g, 1, PerturbationConfig(eps))
            assert np.allclose(lp, eps * laplacian(g), atol=0.0)
            eigs = np.linalg.eigvalsh(lp)
            assert np.allclose(eigs, [eps * v for v in path_spectrum(3)], atol=1e-12)

    def test_identity_perturbation(self):
        g = k3()
        assert np.array_equal(
            perturbed_laplacian(g, 0, PerturbationConfig(1.0)), laplacian(g)
        )

    def test_k3_half(self):
        lp = perturbed_laplacian(k3(), 0, PerturbationConfig(0.5))
        # edges (0,1), (0,2) at 0.5, edge (1,2) at 1
        assert lp[0, 1] == -0.5 and lp[0, 2] == -0.5 and lp[1, 2] == -1.0
        assert np.max(np.abs(lp @ np.ones(3))) <= 1e-12

    def test_symmetry_and_row_sums_random(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        w[i, j] = w[j, i] = 10.0 * rng.random()
            g = WeightedGraph(n=n, weights=w)
            i = int(rng.integers(0, n))
            lp = perturbed_laplacian(g, i, PerturbationConfig(float(rng.uniform(0.01, 2))))
            assert np.array_equal(lp, lp.T)
            assert np.max(np.abs(lp @ np.ones(n))) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_in_place_build_matches_diag_minus_w_bit_for_bit(self, scale):
        """The builders' bytes equal a diagonal matrix minus W, the formula they replaced.

        Half the weights are zero, so a -0.0 off the diagonal would show.
        """
        rng = np.random.default_rng(24)
        for n in (2, 3, 5, 8, 13, 40, 64):
            w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), 1)
            w = (w + w.T) * scale
            g = WeightedGraph(n=n, weights=w)
            for eps in (1e-4, 0.05, 1.0, 2.5):
                i = int(rng.integers(0, n))
                want = g.weights.copy()
                want[i, :] *= eps
                want[:, i] *= eps
                want = np.diag(want.sum(axis=1)) - want
                got = perturbed_laplacian(g, i, PerturbationConfig(eps))
                assert got.tobytes() == want.tobytes(), (n, eps)
            nodes = np.arange(n)
            j = np.arange(n - 1)
            keep = j + (j >= nodes[:, None])
            sub = g.weights[keep[:, :, None], keep[:, None, :]]
            d = np.zeros(sub.shape)
            d.reshape(n, (n - 1) ** 2)[:, ::n] = sub.sum(axis=-1)
            assert reduced_laplacians(g, nodes).tobytes() == (d - sub).tobytes(), n


class TestIntermediateMatrix:
    def test_path_middle_closed_form(self):
        eps = 0.3
        p = intermediate_matrix(path3(), 1, PerturbationConfig(eps))
        assert np.allclose(p, eps * np.array([[2.0, 1.0], [1.0, 2.0]]), atol=0.0)
        assert np.allclose(np.linalg.eigvalsh(p), [eps, 3 * eps], atol=1e-14)

    def test_small_epsilon_approaches_reduced_laplacian(self):
        g = k3()
        lr = laplacian(reduced_graph(g, 0))
        p = intermediate_matrix(g, 0, PerturbationConfig(1e-12))
        assert np.max(np.abs(p - lr)) <= 1e-11

    def test_k3_spectrum_matches_perturbed_laplacian(self):
        g = k3()
        cfg = PerturbationConfig(1.0)
        p_eigs = np.sort(np.linalg.eigvals(intermediate_matrix(g, 0, cfg)).real)
        l_eigs = np.linalg.eigvalsh(perturbed_laplacian(g, 0, cfg))
        assert np.allclose(p_eigs, l_eigs[1:], atol=1e-10)

    def test_difference_is_scaled_coupling(self):
        # dyadic weights make the identity exact in floating point
        g = from_edge_list(4, [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.25), (0, 3, 2.0)])
        eps = 0.5
        for i in range(4):
            p = intermediate_matrix(g, i, PerturbationConfig(eps))
            lr = laplacian(reduced_graph(g, i))
            assert np.array_equal(p - lr, eps * coupling_matrix(g, i))

    def test_difference_random_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        w[i, j] = w[j, i] = rng.random()
            g = WeightedGraph(n=n, weights=w)
            i = int(rng.integers(0, n))
            eps = float(rng.uniform(0.001, 1.0))
            p = intermediate_matrix(g, i, PerturbationConfig(eps))
            lr = laplacian(reduced_graph(g, i))
            diff = p - lr - eps * coupling_matrix(g, i)
            assert np.max(np.abs(diff)) <= 1e-14


class TestJsonSchema:
    def test_round_trip(self):
        g = proximity_graph(
            [(0.0, 0.0), (0.3, 0.0), (0.6, 0.0)], ProximityModel(0.5, 0.125)
        )
        back = graph_from_dict(graph_to_dict(g))
        assert back.n == g.n
        assert np.array_equal(back.weights, g.weights)
        assert np.array_equal(back.positions, g.positions)

    def test_round_trip_without_positions(self):
        g = path3()
        d = graph_to_dict(g)
        assert d["positions"] is None
        assert d["edges"] == [[0, 1, 1.0], [1, 2, 1.0]]
        back = graph_from_dict(d)
        assert np.array_equal(back.weights, g.weights)

    def test_missing_key_rejected(self):
        with pytest.raises(GraphInputError, match="missing"):
            graph_from_dict({"n": 3})

    def test_bad_edge_rejected(self):
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 3, "edges": [[0, 1]]})

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 3, "edges": [[0.5, 1, 1.0]]})

    @pytest.mark.parametrize("edge", [[True, 3, 1.0], [3, False, 1.0]])
    def test_bool_endpoint_rejected(self, edge):
        # numpy would index a whole row and column with a bool
        with pytest.raises(GraphInputError, match="edge endpoints must be integers"):
            graph_from_dict({"n": 4, "edges": [[0, 1, 1.0], edge, [1, 2, 1.0]]})
