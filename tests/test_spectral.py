"""Eigensolvers and connectivity tests."""

import numpy as np
import pytest

from biconcert import (
    PreconditionError,
    WeightedGraph,
    algebraic_connectivity,
    from_edge_list,
    general_eigen,
    is_connected_bfs,
    is_connected_spectral,
    laplacian,
    symmetric_eigen,
)
from biconcert.verify import random_graph


def path3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])


def k3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def random_weighted(rng, n, p):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = 1.0 - rng.random()
    return WeightedGraph(n=n, weights=w)


class TestSymmetricEigen:
    def test_k3_spectrum(self):
        # complete graph spectrum: {0, n, ..., n}
        eigs = symmetric_eigen(laplacian(k3()))
        assert np.allclose(eigs, [0.0, 3.0, 3.0], atol=1e-12)

    def test_zero_matrix(self):
        assert np.array_equal(symmetric_eigen(np.zeros((4, 4))), np.zeros(4))

    def test_path3_spectrum(self):
        eigs = symmetric_eigen(laplacian(path3()))
        assert np.allclose(eigs, [0.0, 1.0, 3.0], atol=1e-12)

    def test_ascending_order(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.normal(size=(7, 7))
            m = m + m.T
            eigs = symmetric_eigen(m)
            assert np.all(np.diff(eigs) >= 0.0)

    def test_vectors_orthonormal_and_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rng.normal(size=(8, 8))
            m = m + m.T
            lam, v = symmetric_eigen(m, want_vectors=True)
            assert np.max(np.abs(v.T @ v - np.eye(8))) <= 1e-8
            scale = max(1.0, np.linalg.norm(m))
            for k in range(8):
                res = np.linalg.norm(m @ v[:, k] - lam[k] * v[:, k])
                assert res <= 1e-8 * scale

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = rng.normal(size=(9, 9))
            m = m + m.T
            eigs = symmetric_eigen(m)
            assert abs(eigs.sum() - np.trace(m)) <= 1e-8 * max(1.0, abs(np.trace(m)))

    def test_asymmetric_rejected_with_diagnostic(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 5\.0"):
            symmetric_eigen(m)


class TestGeneralEigen:
    def test_rotation_matrix(self):
        eigs = general_eigen(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(eigs, [-1j, 1j], atol=1e-12)

    def test_matches_symmetric_solver(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            m = rng.normal(size=(6, 6))
            m = m + m.T
            ge = general_eigen(m)
            assert np.max(np.abs(ge.imag)) <= 1e-8
            se = symmetric_eigen(m)
            assert np.max(np.abs(np.sort(ge.real) - se)) <= 1e-8

    def test_path3_intermediate_closed_form(self):
        eps = 0.1
        p = eps * np.array([[2.0, 1.0], [1.0, 2.0]])
        eigs = general_eigen(p)
        assert np.allclose(eigs, [eps, 3 * eps], atol=1e-12)

    def test_characteristic_polynomial_residual(self):
        # det(M - lambda I) should vanish at each reported eigenvalue
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            m = rng.normal(size=(n, n))
            norm = max(1.0, np.linalg.norm(m))
            for lam in general_eigen(m):
                res = abs(np.linalg.det(m - lam * np.eye(n)))
                assert res <= 1e-7 * norm**n


class TestStacks:
    """Both solvers take a stack (..., k, k); each row equals the one-matrix call."""

    def symmetric_stack(self, rng, shape, k):
        m = rng.normal(size=shape + (k, k))
        return m + m.swapaxes(-1, -2)

    def test_symmetric_rows_equal_single_calls(self):
        stack = self.symmetric_stack(np.random.default_rng(16), (3, 4), 7)
        lam, vecs = symmetric_eigen(stack, want_vectors=True)
        assert lam.shape == (3, 4, 7)
        for idx in np.ndindex(3, 4):
            one_lam, one_vecs = symmetric_eigen(stack[idx], want_vectors=True)
            assert np.array_equal(lam[idx], one_lam)
            assert np.array_equal(vecs[idx], one_vecs)

    def test_asymmetric_member_rejected_with_its_asymmetry(self):
        stack = self.symmetric_stack(np.random.default_rng(17), (2, 3), 4)
        stack[1, 2, 0, 3] += 0.25
        with pytest.raises(ValueError, match=r"stack member \(1, 2\) .* = 2\.500e-01"):
            symmetric_eigen(stack)

    def test_general_rows_sorted_like_single_calls(self):
        rng = np.random.default_rng(18)
        stack = rng.normal(size=(6, 5, 5))
        stack[0] = stack[0] + stack[0].T  # a real spectrum beside complex ones
        stack[1] = np.array(  # a complex pair tied in real part: sorted by imaginary part
            [[0.0, 1.0, 0, 0, 0], [-1.0, 0.0, 0, 0, 0], [0, 0, 2.0, 0, 0], [0, 0, 0, 2.0, 0], [0, 0, 0, 0, -1.0]]
        )
        eigs = general_eigen(stack)
        for r in range(len(stack)):
            one = general_eigen(stack[r])
            assert np.array_equal(eigs[r].real, one.real)
            assert np.array_equal(eigs[r].imag, np.imag(one))
        assert np.array_equal(eigs[1], [-1.0, -1j, 1j, 2.0, 2.0])

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_and_one_member_stacks(self, count):
        stack = self.symmetric_stack(np.random.default_rng(19), (count,), 4)
        sym = symmetric_eigen(stack)
        gen = general_eigen(stack)
        assert sym.shape == gen.shape == (count, 4)
        if count:
            assert np.array_equal(sym[0], symmetric_eigen(stack[0]))
            assert np.array_equal(gen[0], general_eigen(stack[0]))

    def test_results_are_plain_arrays(self):
        m = self.symmetric_stack(np.random.default_rng(20), (2,), 3)
        assert type(symmetric_eigen(m)) is np.ndarray
        assert type(general_eigen(m)) is np.ndarray
        lam, vecs = symmetric_eigen(m, want_vectors=True)
        assert lam.shape == (2, 3) and vecs.shape == (2, 3, 3)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_eigen(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            general_eigen(np.zeros(3))


class TestConnectivity:
    def test_algebraic_connectivity_values(self):
        assert algebraic_connectivity(k3()) == pytest.approx(3.0, abs=1e-12)
        assert algebraic_connectivity(path3()) == pytest.approx(1.0, abs=1e-12)
        two = WeightedGraph(n=2, weights=np.zeros((2, 2)))
        assert algebraic_connectivity(two) == pytest.approx(0.0, abs=1e-12)

    def test_single_node_rejected(self):
        with pytest.raises(PreconditionError):
            algebraic_connectivity(from_edge_list(1, []))

    def test_spectral_flags(self):
        assert is_connected_spectral(path3(), 1e-9)
        assert is_connected_spectral(k3(), 1e-9)
        split = WeightedGraph(n=2, weights=np.zeros((2, 2)))
        assert not is_connected_spectral(split, 1e-9)
        assert is_connected_spectral(from_edge_list(1, []), 1e-9)

    def test_bfs_flags(self):
        assert is_connected_bfs(path3())
        star = from_edge_list(5, [(0, i, 1.0) for i in range(1, 5)])
        assert is_connected_bfs(star)
        assert not is_connected_bfs(WeightedGraph(n=2, weights=np.zeros((2, 2))))

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(2, 31))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.7)))
            assert is_connected_spectral(g, 1e-9) == is_connected_bfs(g)

    def test_monotonicity_under_edge_addition(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(3, 12))
            g = random_weighted(rng, n, 0.4)
            lam = algebraic_connectivity(g)
            # add one random absent edge
            absent = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if g.weights[i, j] == 0.0
            ]
            if not absent:
                continue
            i, j = absent[int(rng.integers(0, len(absent)))]
            w = np.array(g.weights)
            w[i, j] = w[j, i] = 1.0 - rng.random()
            lam_bigger = algebraic_connectivity(WeightedGraph(n=n, weights=w))
            assert lam_bigger >= lam - 1e-9
