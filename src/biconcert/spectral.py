"""Eigenvalue machinery and connectivity tests.

Symmetric matrices go through LAPACK's symmetric solver (``numpy.linalg.eigh``),
general square matrices through the real-Schur based solver
(``numpy.linalg.eigvals``). Both accept one ``(k, k)`` matrix or a stack
``(..., k, k)`` of them: a stack is solved by one numpy gufunc call, which
runs the same LAPACK routine on each member, so row ``r`` of a stack's result
equals the one-matrix call on member ``r`` bit for bit while the per-call
overhead is paid once. Results come back as numpy arrays in the order the
rest of the package relies on: ascending real eigenvalues for symmetric
input, complex eigenvalues sorted by real then imaginary part otherwise, per
row for a stack.

:func:`perturbed_lambda3_many` owns lambda3 of the perturbed Laplacians
``L_i(eps)`` of a list of cases, each one graph and its problems;
:func:`perturbed_lambda3` is its one-case call. Below a measured crossover
a case's problems are solved densely, in stacks shared by every case of the
same order; past it, :func:`_lambda3_batched` takes them all from a single
eigendecomposition of the case's ``L``. That narrows a bracket per problem
whose ends move only by exact eigenvalue counts (Sylvester inertia of small
Schur complements); secant steps place the trial points, and the bracket, not the
step rule, carries the error bound. Both paths return lambda3 with the
same error bound ``tau``, which scales with ``max(||L||, ||L_i(eps)||)``;
only a problem whose bracket did not converge is solved again densely. The
Schur complement is ``S(mu) = I / rho - M(mu)`` with ``rho = 1 - eps`` and
an eps-free ``M(mu) = U^T (diag(lam) - mu)^-1 U`` whose factor ``U`` belongs
to the node alone. Each node's ``U^T`` is built once per call, for chunks of
nodes whose ``U^T`` fits in ``_FACTOR_BYTES``; one loop narrows every bracket
of a chunk, and each step solves ``M`` once per distinct (node, mu) among its
open problems, all in one stacked ``eigvalsh``, formed in sub-chunks of
``_BATCH_BYTES``.
numpy only: no scipy import. :func:`is_connected_bfs` returns the graph's
cached ``connected``.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .errors import EigenConvergenceError, PreconditionError
from .graph_core import WeightedGraph, _check_node, laplacian, perturbed_laplacians

SYMMETRY_RTOL = 1e-10
CONNECTIVITY_TOL = 1e-9

# Error bound of lambda3 on both paths: tau = LAMBDA3_TAU_FACTOR * n * u *
# max(||L||_1, ||L_i(eps)||_1), u the unit roundoff. The dense solver is
# backward stable, so by Weyl's inequality its lambda3 is off by a small
# multiple of n u ||L_i(eps)||; the batched bracket stops at n u of the max.
LAMBDA3_TAU_FACTOR = 64.0
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
# Bytes per chunk: of the batched solver's working arrays (two n x deg floats
# per distinct (node, mu) of a step, U^T and its quotient by lam - mu) and of
# one stacked dense solve's n x n matrices.
_BATCH_BYTES = 1 << 20
# Bytes of U^T the batched solver keeps at once, deg x n floats per node with
# deg the call's largest degree: the call's distinct nodes are split into
# chunks that fit, each with its own bracket loop. 4 MiB keeps the 16 x 16
# grid (2 MiB) in one loop; 1 MiB split it and lost most of the gain.
_FACTOR_BYTES = 4 << 20
# A bracket of width at most about ||L_i(eps)|| shrinks to n u ||L|| in some
# 60 halvings, and secant steps need fewer; the cap only stops a loop that
# no longer shrinks.
_MAX_STEPS = 200
# The crossover of :func:`_batched_pays`, measured on unit grids and disk
# graphs (n = 64 to 400) with 2 cores and OpenBLAS.
BATCH_MIN_ORDER = 64
BATCH_MIN_WORK = 1024
BATCH_DEGREE_RATIO = 10


def _square_stack(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def symmetric_eigen(m, want_vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a real symmetric matrix, or of each one in a stack, ascending.

    Returns the eigenvalues, or with ``want_vectors`` the pair ``(eigenvalues,
    eigenvectors)`` of ``numpy.linalg.eigh``, whose column ``[..., :, k]``
    belongs to eigenvalue ``[..., k]``. Every member must be symmetric to
    within ``SYMMETRY_RTOL`` relative to its largest entry; the first one
    worse than that is rejected with its measured asymmetry.
    """
    m = _square_stack(m)
    if m.size:
        flat = m.shape[:-2] + (-1,)
        asym = np.abs(m - m.swapaxes(-1, -2)).reshape(flat).max(axis=-1)
        scale = np.maximum(1.0, np.abs(m).reshape(flat).max(axis=-1))
        bad = asym > SYMMETRY_RTOL * scale
        if bad.any():
            at = tuple(np.argwhere(bad)[0].tolist())
            member = f"stack member {at}" if at else "matrix"
            raise ValueError(
                f"{member} is not symmetric: max |M - M^T| = {float(asym[at]):.3e} "
                f"exceeds {SYMMETRY_RTOL:.0e} * {float(scale[at]):.3e}"
            )
    try:
        return np.linalg.eigh(m) if want_vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenConvergenceError(f"symmetric eigensolve failed: {exc}") from exc


def general_eigen(m) -> np.ndarray:
    """Complex spectrum of any real square matrix, or of each one in a stack.

    Sorted by real part, ties broken by imaginary part, per row.
    numpy returns a real array when every eigenvalue of the call is real, so
    a stack's row can be complex with zero imaginary parts where the
    one-matrix call is real; the values are the same.
    """
    m = _square_stack(m)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenConvergenceError(f"general eigensolve failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second smallest Laplacian eigenvalue; tiny negative roundoff is clamped."""
    if g.n < 2:
        raise PreconditionError("algebraic connectivity needs n >= 2")
    lam2 = float(symmetric_eigen(laplacian(g))[1])
    if -1e-10 < lam2 < 0.0:
        return 0.0
    return lam2


def is_connected_spectral(g: WeightedGraph, tol: float = CONNECTIVITY_TOL) -> bool:
    """Connectivity via the spectrum: second smallest eigenvalue above ``tol``."""
    if g.n == 1:
        return True
    return algebraic_connectivity(g) > tol


def _batched_pays(g: WeightedGraph, nodes) -> bool:
    """Whether :func:`_lambda3_batched` beats one dense solve per problem of ``nodes``.

    The batched solver pays one eigendecomposition with vectors per call,
    then some 10 to 20 count evaluations per problem whose cost grows with
    n * deg^2 for the largest degree deg among ``nodes``; a dense solve costs
    O(n^3) per problem. The measured crossover: the batched solver wins when
    n >= BATCH_MIN_ORDER, problems * n >= BATCH_MIN_WORK and
    deg <= n / BATCH_DEGREE_RATIO.
    """
    if g.n < BATCH_MIN_ORDER or len(nodes) * g.n < BATCH_MIN_WORK:
        return False
    nodes = set(nodes)
    for i in nodes:
        _check_node(g, i)
    degree = max((len(g.adjacency[i]) for i in nodes), default=0)
    return degree * BATCH_DEGREE_RATIO <= g.n


def perturbed_lambda3(g: WeightedGraph, nodes, cfgs) -> tuple[np.ndarray, np.ndarray]:
    """lambda3 of ``perturbed_laplacian(g, i, cfg)`` and its error bound, for every pair of ``zip(nodes, cfgs)``.

    ``g`` must have n >= 3; ``nodes`` and ``cfgs`` hold one entry per
    problem. Returns ``(lam3, tau)``: each lambda3 lies within its ``tau =
    LAMBDA3_TAU_FACTOR * n * u * max(||L||_1, ||L_i(eps)||_1)`` of the exact
    one, on either path; it is ``inf`` where ``||L_i(eps)||_1`` overflows.
    The one-case call of :func:`perturbed_lambda3_many`.
    """
    return perturbed_lambda3_many([(g, nodes, cfgs)])[0]


def perturbed_lambda3_many(cases) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`perturbed_lambda3` of every case ``(g, nodes, cfgs)``, one ``(lam3, tau)`` per case.

    Past the crossover of :func:`_batched_pays`, a case's problems go to
    :func:`_lambda3_batched`, and only those whose bracket did not converge
    (``tau = inf``) are solved densely. The dense problems of every case of
    one order n share their stacks: in case order, at most ``_BATCH_BYTES``
    of n x n matrices per ``symmetric_eigen`` call. Every dense problem reads
    ``||L_i(eps)||_1`` from its own matrix (largest column sum). A stack's
    member is solved as it would be alone, so how the cases are grouped
    never changes a lambda3 or a tau.
    """
    results, dense = [], {}
    for c, (g, nodes, cfgs) in enumerate(cases):
        if _batched_pays(g, nodes):
            lam3, tau = _lambda3_batched(g, nodes, [cfg.epsilon for cfg in cfgs])
            todo = np.flatnonzero(np.isinf(tau)).tolist()
        else:
            lam3, tau, todo = np.empty(len(nodes)), np.empty(len(nodes)), range(len(nodes))
        results.append((lam3, tau))
        dense.setdefault(g.n, []).extend((c, k) for k in todo)
    for n, problems in dense.items():
        per = max(1, _BATCH_BYTES // (8 * n * n))
        for start in range(0, len(problems), per):
            runs = [
                (c, [k for _, k in run])
                for c, run in itertools.groupby(problems[start : start + per], key=operator.itemgetter(0))
            ]
            parts = [
                perturbed_laplacians(cases[c][0], [cases[c][1][k] for k in ks], [cases[c][2][k] for k in ks])
                for c, ks in runs
            ]
            stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
            lam = symmetric_eigen(stack)[:, 2]
            with np.errstate(over="ignore"):  # tau = inf tells the caller
                cols = np.abs(stack, out=stack).sum(axis=1).max(axis=1)  # ||L_i(eps)||_1
            at = 0
            for c, ks in runs:
                lam3, tau = results[c]
                lam3[ks] = lam[at : at + len(ks)]
                tau[ks] = LAMBDA3_TAU_FACTOR * _roundoff_scale(cases[c][0], cols[at : at + len(ks)])
                at += len(ks)
    return results


def _roundoff_scale(g: WeightedGraph, cols: np.ndarray) -> np.ndarray:
    """``n * u * max(||L||_1, ||L_i(eps)||_1)`` per problem, given ``cols = ||L_i(eps)||_1``."""
    return g.n * _UNIT_ROUNDOFF * np.maximum(cols, 2.0 * float(g.weights.sum(axis=1).max()))


def _lambda3_batched(
    g: WeightedGraph, nodes: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda3 of every ``L_i(eps)`` from one eigendecomposition of ``L``.

    ``nodes`` and ``eps`` are equal-length arrays, one problem ``(i, eps)``
    per entry, on a graph with n >= 3. Returns lambda3 per problem and its
    error bound ``tau`` (``inf`` where the bracket did not converge).

    With ``L = Q diag(lam) Q^T`` and ``B_i`` the columns ``sqrt(w_ij) (e_i -
    e_j)`` over the neighbours j of i, ``L_i(eps) = L - rho B_i B_i^T`` with
    ``rho = 1 - eps``. Inertia additivity on ``[[diag(lam) - mu, U],
    [U^T, I / rho]]`` with ``U = Q^T B_i`` gives the exact count

        #{eig of L_i(eps) < mu} = #{lam_k < mu} + neg(S) - [rho < 0] d,
        S = I / rho - M(mu),   M(mu) = U^T (diag(lam) - mu)^-1 U,

    where neg counts negative eigenvalues of S and d is its order: the
    largest degree among ``nodes``, since every ``U`` is padded with zero
    columns to that width. Brackets come from interlacing: lambda3 lies in
    ``[0, lam_3]`` for eps < 1 and in ``[lam_3, lam_{3+deg(i)}]`` for
    eps > 1; eps = 1 is ``lam_3`` itself. :func:`_shrink_brackets` then
    narrows every bracket of a node chunk in one loop, moving its ends only
    by that count.

    ``M(mu)`` depends on the node and mu but not on eps, so the eigenvalues
    of S are ``1 / rho - m_j(mu)`` for the eigenvalues ``m_j`` of M. Each
    step solves M once per distinct (node, mu) among the open problems, and
    every problem at that pair reads its count from the same ``m_j``; the
    eps < 1 problems of a node start from one bracket and share their first
    trial points. Adding ``1 / rho`` after the solve keeps the large
    diagonal ``I / rho`` out of the rounded matrix.

    ``U^T`` depends on the node alone, so it is built once per call from
    rows of ``Q`` and the node's neighbours (``g.adjacency``) and weights,
    d x n floats per node. The call's distinct nodes are split into chunks
    whose ``U^T`` fits in ``_FACTOR_BYTES``, and each chunk runs its own
    loop over its own problems; a step gathers ``U^T`` by node and forms M
    for ``_BATCH_BYTES`` of n x d arrays at a time. Besides arrays of at
    most n x n entries, like ``Q``, memory is those two budgets plus O(d^2)
    floats per (node, mu) pair of one chunk's step. How the problems are
    split or repeated never changes a problem's arithmetic, since d stays
    the call's largest degree in every chunk: its lambda3 and tau are the
    same bit for bit.
    """
    n = g.n
    w = g.weights
    lam, q = symmetric_eigen(laplacian(g), want_vectors=True)
    strength = w.sum(axis=1)
    nodes = np.asarray(nodes, dtype=np.intp)
    eps = np.asarray(eps, dtype=float)
    distinct, at = np.unique(nodes, return_inverse=True)
    adjacency = [g.adjacency[i] for i in distinct.tolist()]
    width = max(max(map(len, adjacency), default=0), 1)
    deg = np.array([len(a) for a in adjacency], dtype=np.intp)[at]
    # Per distinct node: neighbours first, then the smallest other indices,
    # whose weights are 0.
    nbr = np.array(
        [a + tuple(sorted(set(range(width)).difference(a)))[: width - len(a)] for a in adjacency],
        dtype=np.intp,
    ).reshape(len(distinct), width)
    wn = w[distinct[:, None], nbr]
    root_w = np.sqrt(wn)
    rho = 1.0 - eps
    # n u max(||L||_1, ||L_i(eps)||_1): column j of L_i(eps) sums to
    # 2 (s_j - rho w_ij), column i to 2 eps s_i.
    cols = 2.0 * np.maximum((strength[nbr[at]] - rho[:, None] * wn[at]).max(axis=1), eps * strength[nodes])
    scale = _roundoff_scale(g, cols)
    tau = LAMBDA3_TAU_FACTOR * scale
    neg = rho < 0.0
    shift = np.where(neg, width, 0)
    inv_rho = 1.0 / np.where(rho == 0.0, 1.0, rho)
    top = np.where(2 + deg < n, lam[np.minimum(2 + deg, n - 1)], lam[2] - 2.0 * rho * strength[nodes])
    lo = np.where(rho == 0.0, lam[2], np.where(neg, lam[2], 0.0) - tau)
    hi = np.where(rho == 0.0, lam[2], np.where(neg, top, lam[2]) + tau)
    per = max(1, _BATCH_BYTES // (2 * 8 * n * width))

    def schur_spectrum(ut, node, inv_rho, rows, mu):
        """Ascending eigenvalues of S(mu[r]) of problem ``rows[r]``, with U^T ``ut[node[rows[r]]]``, one M per (node, mu)."""
        node = node[rows]
        order = np.lexsort((mu, node))
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (np.diff(node[order]) != 0) | (np.diff(mu[order]) != 0)
        group = np.empty(len(rows), dtype=np.intp)
        group[order] = np.cumsum(first) - 1
        heads = order[first]
        m = np.empty((len(heads), width, width))
        for c in range(0, len(heads), per):
            r = heads[c : c + per]
            x = ut[node[r]]
            m[c : c + per] = (x / (lam - mu[r, None])[:, None, :]) @ x.transpose(0, 2, 1)
        try:
            m = np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(f"batched inertia count failed: {exc}") from exc
        return inv_rho[rows, None] - m[group, ::-1]

    lam3 = np.empty(len(nodes))
    converged = np.empty(len(nodes), dtype=bool)
    per_chunk = max(1, _FACTOR_BYTES // (8 * n * width))
    for start in range(0, len(distinct), per_chunk):
        stop = start + per_chunk
        ut = q[nbr[start:stop]]  # U^T of every node of the chunk, built in place
        np.subtract(q[distinct[start:stop], None, :], ut, out=ut)
        ut *= root_w[start:stop, :, None]
        rows = np.flatnonzero((start <= at) & (at < stop))
        spectrum = functools.partial(schur_spectrum, ut, at[rows] - start, inv_rho[rows])
        lam3[rows], converged[rows] = _shrink_brackets(lam, spectrum, shift[rows], lo[rows], hi[rows], scale[rows])
    # A bracket still wider than its scale has no error bound.
    tau[~converged] = np.inf
    return lam3, tau


def _shrink_brackets(lam, schur_spectrum, shift, lo, hi, scale) -> tuple[np.ndarray, np.ndarray]:
    """Narrow every bracket ``[lo, hi]`` around lambda3 to width ``scale``.

    One entry per problem of :func:`_lambda3_batched`; ``schur_spectrum(rows,
    mu)`` gives the ascending eigenvalues ``sigma`` of ``S(mu)`` of the
    problems ``rows``, from one stacked ``eigvalsh``. Each step evaluates the
    count at one mu per problem and moves ``hi`` to mu if at least three
    eigenvalues lie below it, ``lo`` otherwise, so every bracket holds
    lambda3 whatever mu is. Only the choice of mu is heuristic: an
    Anderson-Bjorck regula falsi step on ``f(mu) = sigma_k(S(mu))``,
    ``k = 2 - #{lam_j < mu} + shift``, the eigenvalue of S whose sign decides
    the count (``f < 0`` exactly when the count reaches 3). ``f`` decreases
    between the eigenvalues of L, and across a simple pole at ``lam`` too,
    where k drops by one as one eigenvalue of S passes from -inf to +inf.
    At an eigenvalue of L of multiplicity m, or one whose rows of ``U^T``
    vanish or nearly vanish (a removable pole), k drops by up to m while S
    stays bounded, so f jumps there. The bracket stays sound, since it moves
    only by counts, but the secant model is wrong at such a point, and
    convergence near it rests on the Anderson-Bjorck scaling and the
    midpoint fallback alone. An end whose f
    is unknown or infinite (k outside S's order) gets the midpoint instead,
    and mu keeps ``scale / 2`` from both ends. Only problems still wider
    than ``scale`` are evaluated, all of them in one ``schur_spectrum``
    call per step. Returns the bracket midpoints and which brackets
    converged within ``_MAX_STEPS`` steps.
    """
    n = len(lam)
    mid = np.empty(len(lo))
    converged = np.zeros(len(lo), dtype=bool)
    idx = np.arange(len(lo))
    f_lo = np.full(len(lo), np.nan)
    f_hi = np.full(len(lo), np.nan)
    last = np.zeros(len(lo))  # end the last step moved: -1 lo, +1 hi
    for _ in range(_MAX_STEPS):
        wide = hi - lo > scale
        if not wide.all():
            done = idx[~wide]
            mid[done] = 0.5 * (lo[~wide] + hi[~wide])
            converged[done] = True
            idx, lo, hi, f_lo, f_hi, last, shift, scale = (
                x[wide] for x in (idx, lo, hi, f_lo, f_hi, last, shift, scale)
            )
        if not idx.size:
            break
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mu = lo + f_lo / (f_lo - f_hi) * (hi - lo)
        known = np.isfinite(f_lo) & np.isfinite(f_hi) & np.isfinite(mu)
        mu = np.where(known, mu, 0.5 * (lo + hi))
        mu = np.minimum(np.maximum(mu, lo + 0.5 * scale), hi - 0.5 * scale)
        while True:  # mu = lam_k would divide by zero: step off it
            below = np.searchsorted(lam, mu)
            tie = lam[np.minimum(below, n - 1)] == mu
            if not tie.any():
                break
            mu[tie] = np.nextafter(mu[tie], np.inf)
        sigma = schur_spectrum(idx, mu)
        width = sigma.shape[1]
        above = below + (sigma < 0.0).sum(axis=1) - shift >= 3
        k = 2 - below + shift
        f = sigma[np.arange(len(k)), np.minimum(np.maximum(k, 0), width - 1)]
        f = np.where(k < 0, -np.inf, np.where(k >= width, np.inf, f))
        # Anderson-Bjorck: an end that stays put twice running has its f
        # scaled by 1 - f(mu) / f(moved end), or halved if that is not > 0.
        with np.errstate(invalid="ignore", divide="ignore"):
            m = 1.0 - f / np.where(above, f_hi, f_lo)
        m = np.where(m > 0.0, m, 0.5)
        side = np.where(above, 1.0, -1.0)
        f_lo = np.where(above, np.where(last == side, m * f_lo, f_lo), f)
        f_hi = np.where(above, f, np.where(last == side, m * f_hi, f_hi))
        lo = np.where(above, lo, mu)
        hi = np.where(above, mu, hi)
        last = side
    mid[idx] = 0.5 * (lo + hi)
    converged[idx] = hi - lo <= scale
    return mid, converged


def is_connected_bfs(g: WeightedGraph) -> bool:
    """Combinatorial connectivity: every node reachable from node 0 (:attr:`WeightedGraph.connected`)."""
    return g.connected
