"""Eigenvalue machinery and connectivity tests.

Symmetric matrices go through LAPACK's symmetric solver (``numpy.linalg.eigh``),
general square matrices through the real-Schur based solver
(``numpy.linalg.eigvals``). Results come back in small value types that carry
the ordering guarantees the rest of the package relies on: ascending real
eigenvalues for symmetric input, complex eigenvalues sorted by real then
imaginary part otherwise.
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
