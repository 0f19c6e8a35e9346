"""Eigenvalue machinery and connectivity tests.

Symmetric matrices go through LAPACK's symmetric solver (``numpy.linalg.eigh``),
general square matrices through the real-Schur based solver
(``numpy.linalg.eigvals``). Results come back in small value types that carry
the ordering guarantees the rest of the package relies on: ascending real
eigenvalues for symmetric input, complex eigenvalues sorted by real then
imaginary part otherwise.

:func:`_lambda3_batched` gets lambda3 of many perturbed Laplacians
``L_i(eps)`` of one graph from a single eigendecomposition of ``L``, by
bisection on exact eigenvalue counts (Sylvester inertia of small Schur
complements); its error bound scales with ``||L||``, not with
``||L_i(eps)||`` alone. numpy only: no scipy import.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EigenConvergenceError, PreconditionError
from .graph_core import WeightedGraph, laplacian

SYMMETRY_RTOL = 1e-10
CONNECTIVITY_TOL = 1e-9
MULTIPLICITY_TOL = 1e-8

# Error bound of the batched lambda3: tau = LAMBDA3_TAU_FACTOR * n * u *
# max(||L||_1, ||L_i(eps)||_1), u the unit roundoff.
LAMBDA3_TAU_FACTOR = 64.0
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
# Bytes of the batched solver's three per-problem n x deg arrays, per chunk.
_BATCH_BYTES = 1 << 20
# Each bisection step halves a bracket of width at most about ||L_i(eps)||
# down to n u ||L||, so some 60 steps suffice; the cap only stops a loop
# that no longer shrinks.
_MAX_BISECTIONS = 200


class MultiplicityWarning(UserWarning):
    """The second smallest eigenvalue is not numerically simple."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues, optionally with orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


@dataclass(frozen=True)
class GeneralSpectrum:
    """Complex eigenvalues sorted by real part, ties broken by imaginary part."""

    eigenvalues: np.ndarray


def symmetric_eigen(m, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a real symmetric matrix, ascending.

    Input must be symmetric to within ``SYMMETRY_RTOL`` relative to its
    largest entry; anything worse is rejected with the measured asymmetry.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max |M - M^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(m)
            return Spectrum(eigenvalues=vals, eigenvectors=vecs)
        return Spectrum(eigenvalues=np.linalg.eigvalsh(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenConvergenceError(f"symmetric eigensolve failed: {exc}") from exc


def general_eigen(m) -> GeneralSpectrum:
    """Complex spectrum of any real square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenConvergenceError(f"general eigensolve failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return GeneralSpectrum(eigenvalues=vals[order])


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second smallest Laplacian eigenvalue; tiny negative roundoff is clamped."""
    if g.n < 2:
        raise PreconditionError("algebraic connectivity needs n >= 2")
    lam2 = float(symmetric_eigen(laplacian(g)).eigenvalues[1])
    if -1e-10 < lam2 < 0.0:
        return 0.0
    return lam2


def fiedler_vector(g: WeightedGraph, mult_tol: float = MULTIPLICITY_TOL) -> np.ndarray:
    """Unit eigenvector for the second smallest Laplacian eigenvalue.

    The result is always orthogonal to the all-ones vector: when the
    eigenvalue is part of a numerical cluster (a :class:`MultiplicityWarning`
    is emitted), the vector is taken from the cluster's span with the ones
    direction projected out. The sign is fixed so the entry of largest
    magnitude is positive.
    """
    if g.n < 2:
        raise PreconditionError("Fiedler vector needs n >= 2")
    spec = symmetric_eigen(laplacian(g), want_vectors=True)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    lam2 = vals[1]
    cluster = np.abs(vals - lam2) <= mult_tol
    if cluster.sum() > 1:
        warnings.warn(
            f"second smallest eigenvalue {lam2:.6e} has numerical multiplicity "
            f"{int(cluster.sum())}; returning one vector from the eigenspace",
            MultiplicityWarning,
            stacklevel=2,
        )
    block = vecs[:, cluster]
    ones = np.full(g.n, 1.0 / np.sqrt(g.n))
    block = block - np.outer(ones, ones @ block)
    norms = np.linalg.norm(block, axis=0)
    v = block[:, int(np.argmax(norms))]
    v = v / np.linalg.norm(v)
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    return v


def is_connected_spectral(g: WeightedGraph, tol: float = CONNECTIVITY_TOL) -> bool:
    """Connectivity via the spectrum: second smallest eigenvalue above ``tol``."""
    if g.n == 1:
        return True
    return algebraic_connectivity(g) > tol


def _lambda3_batched(
    g: WeightedGraph, nodes: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda3 of every ``L_i(eps)`` from one eigendecomposition of ``L``.

    ``nodes`` and ``eps`` are equal-length arrays, one problem ``(i, eps)``
    per entry, on a graph with n >= 3. Returns lambda3 per problem and its
    error bound ``tau`` (``inf`` where bisection did not converge).

    With ``L = Q diag(lam) Q^T`` and ``B_i`` the columns ``sqrt(w_ij) (e_i -
    e_j)`` over the neighbours j of i, ``L_i(eps) = L - rho B_i B_i^T`` with
    ``rho = 1 - eps``. Inertia additivity on ``[[diag(lam) - mu, U],
    [U^T, I / rho]]`` with ``U = Q^T B_i`` gives the exact count

        #{eig of L_i(eps) < mu} = #{lam_k < mu} + neg(S) - [rho < 0] d,
        S = I / rho - U^T (diag(lam) - mu)^-1 U,

    where neg counts negative eigenvalues of S and d is its order: the
    largest degree among ``nodes``, since every ``U`` is padded with zero
    columns to that width. Bisection on mu then brackets lambda3 of every
    problem at once. Brackets come from interlacing: lambda3 lies in
    ``[0, lam_3]`` for eps < 1 and in ``[lam_3, lam_{3+deg(i)}]`` for
    eps > 1; eps = 1 is ``lam_3`` itself.
    """
    n = g.n
    w = g.weights
    spec = symmetric_eigen(laplacian(g), want_vectors=True)
    lam, q = spec.eigenvalues, spec.eigenvectors
    strength = w.sum(axis=1)
    norm_l = 2.0 * float(strength.max())  # ||L||_1
    nodes = np.asarray(nodes, dtype=np.intp)
    eps = np.asarray(eps, dtype=float)
    adj = w > 0.0
    deg = adj.sum(axis=1)[nodes]
    width = max(int(deg.max(initial=0)), 1)
    eye = np.eye(width)
    lam3 = np.empty(len(nodes))
    tau = np.empty(len(nodes))
    per = max(1, _BATCH_BYTES // (3 * 8 * n * width))
    for s in range(0, len(nodes), per):
        c = slice(s, s + per)
        i, rho, d = nodes[c], 1.0 - eps[c], deg[c]
        # Neighbours of i first; the padding's weights are 0.
        nbr = np.argsort(~adj[i], axis=1, kind="stable")[:, :width]
        wn = np.take_along_axis(w[i], nbr, axis=1)
        ut = (q[i][:, None, :] - q[nbr]) * np.sqrt(wn)[:, :, None]  # U^T per problem
        # n u max(||L||_1, ||L_i(eps)||_1): column j of L_i(eps) sums to
        # 2 (s_j - rho w_ij), column i to 2 eps s_i.
        cols = 2.0 * np.maximum((strength[nbr] - rho[:, None] * wn).max(axis=1), eps[c] * strength[i])
        scale = n * _UNIT_ROUNDOFF * np.maximum(cols, norm_l)
        tau[c] = LAMBDA3_TAU_FACTOR * scale
        neg = rho < 0.0
        shift = np.where(neg, width, 0)
        inv_rho = 1.0 / np.where(rho == 0.0, 1.0, rho)
        top = np.where(2 + d < n, lam[np.minimum(2 + d, n - 1)], lam[2] - 2.0 * rho * strength[i])
        lo = np.where(rho == 0.0, lam[2], np.where(neg, lam[2], 0.0) - tau[c])
        hi = np.where(rho == 0.0, lam[2], np.where(neg, top, lam[2]) + tau[c])
        for _ in range(_MAX_BISECTIONS):
            wide = hi - lo > scale
            if not wide.any():
                break
            mu = 0.5 * (lo + hi)
            while True:  # mu = lam_k would divide by zero: step off it
                below = np.searchsorted(lam, mu)
                tie = lam[np.minimum(below, n - 1)] == mu
                if not tie.any():
                    break
                mu[tie] = np.nextafter(mu[tie], np.inf)
            schur = inv_rho[:, None, None] * eye - (
                ut / (lam - mu[:, None])[:, None, :]
            ) @ ut.transpose(0, 2, 1)
            try:
                negative = (np.linalg.eigvalsh(schur) < 0.0).sum(axis=1)
            except np.linalg.LinAlgError as exc:
                raise EigenConvergenceError(f"batched inertia count failed: {exc}") from exc
            above = below + negative - shift >= 3
            hi = np.where(wide & above, mu, hi)
            lo = np.where(wide & ~above, mu, lo)
        lam3[c] = 0.5 * (lo + hi)
        # A bracket still wider than its scale has no error bound.
        tau[c][hi - lo > scale] = np.inf
    return lam3, tau


def reachable(adj, start: int) -> np.ndarray:
    """Boolean mask of the nodes reachable from ``start`` over ``adj``.

    ``adj`` is a square boolean adjacency matrix (for a graph,
    ``g.weights > 0``). The search expands the whole frontier in one numpy
    step, so it takes O(diameter) steps and O(n^2) work in total: each node
    joins the frontier once and contributes its row once.
    """
    adj = np.asarray(adj, dtype=bool)
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def is_connected_bfs(g: WeightedGraph) -> bool:
    """Combinatorial connectivity: every node reachable from node 0."""
    return bool(reachable(g.weights > 0.0, 0).all())
