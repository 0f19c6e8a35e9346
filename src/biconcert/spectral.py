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
``L_i(eps)`` of a list of cases, each one graph and its problems. Below a
measured crossover a case's problems are solved densely: the dense problems
of every case of one order form one flat list, cut into stacks of
``_BATCH_BYTES``; past it, :func:`_lambda3_batched` takes them all from a
single eigendecomposition of the case's ``L``. That narrows a bracket per
problem whose ends move only by exact eigenvalue counts (Sylvester inertia of small
Schur complements); interpolation on a determinant freed of the poles next
to the bracket places the trial points, and the bracket, not the step rule,
carries the error bound. Both paths return lambda3 with the
same error bound ``tau``, which scales with ``max(||L||, ||L_i(eps)||)``,
``||L||_1`` twice the largest of the graph's cached ``degrees``;
only a problem whose bracket did not converge is solved again densely. The
Schur complement is ``S(mu) = I / rho - M(mu)`` with ``rho = 1 - eps`` and
an eps-free ``M(mu) = U^T (diag(lam) - mu)^-1 U`` whose factor ``U`` belongs
to the node alone. Each node's ``U^T`` is built once per call, for chunks of
nodes whose ``U^T`` fits in ``_FACTOR_BYTES``; one loop narrows every bracket
of a chunk, and each step solves ``M`` once per run of a node's problems that
share a bracket and so a trial point, all in one stacked ``eigvalsh``, formed
in sub-chunks of ``_BATCH_BYTES``; every problem of the run reads its count
there.
numpy only: no scipy import. :func:`is_connected_bfs` returns the graph's
cached ``connected``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import EigenConvergenceError, PreconditionError
from .graph_core import WeightedGraph, _check_node, laplacian, perturbed_laplacian

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
# The step rule of :func:`_shrink_brackets`: a bracket that has not halved
# in _HALVING_STEPS steps takes its midpoint (on the 12 x 12 benchmark grid's
# sweep, six took 23 steps, eight and more 21), and a one-sided trial point
# goes this share of its step past the linear and the quadratic model's
# root, fitted on the benchmark grids and n = 200 disk graphs.
_HALVING_STEPS = 8
_LINEAR_OVERSHOOT = 0.5
_QUADRATIC_OVERSHOOT = 0.05
# Every bracket halves at least once per _HALVING_STEPS + 1 steps, and one
# of width at most about ||L_i(eps)|| shrinks to n u ||L|| in at most 53
# halvings for n >= 3; the cap only stops a loop that no longer shrinks.
_MAX_STEPS = 60 * (_HALVING_STEPS + 1)
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


def perturbed_lambda3_many(cases) -> list[tuple[np.ndarray, np.ndarray]]:
    """lambda3 of ``perturbed_laplacian(g, i, cfg)`` and its error bound, for every case ``(g, nodes, cfgs)``.

    Each ``g`` must have n >= 3; ``nodes`` and ``cfgs`` hold one entry per
    problem. Returns one ``(lam3, tau)`` per case: each lambda3 lies within
    its ``tau = LAMBDA3_TAU_FACTOR * n * u * max(||L||_1, ||L_i(eps)||_1)``
    of the exact one, on either path; it is ``inf`` where ``||L_i(eps)||_1``
    overflows. Past the crossover of :func:`_batched_pays`, a case's
    problems go to :func:`_lambda3_batched`, and only those whose bracket
    did not converge (``tau = inf``) are solved densely. The dense problems
    of every case of one order n form one list, in case order, cut into
    stacks of at most ``_BATCH_BYTES`` of n x n matrices per
    ``symmetric_eigen`` call. Every dense problem reads ``||L_i(eps)||_1``
    from its own matrix (largest column sum) and ``||L||_1`` from its own
    case. A stack's member is solved as it would be alone, so how the cases
    are grouped never changes a lambda3 or a tau.
    """
    results, dense, norms = [], {}, []
    for c, (g, nodes, cfgs) in enumerate(cases):
        if _batched_pays(g, nodes):
            lam3, tau = _lambda3_batched(g, nodes, [cfg.epsilon for cfg in cfgs])
            todo = np.flatnonzero(np.isinf(tau)).tolist()
        else:
            lam3, tau, todo = np.empty(len(nodes)), np.empty(len(nodes)), range(len(nodes))
        results.append((lam3, tau))
        dense.setdefault(g.n, []).extend((c, k) for k in todo)
        norms.append(2.0 * float(g.degrees.max()))  # ||L||_1
    for n, problems in dense.items():
        per = max(1, _BATCH_BYTES // (8 * n * n))
        for start in range(0, len(problems), per):
            chunk = problems[start : start + per]
            stack = np.array([perturbed_laplacian(cases[c][0], cases[c][1][k], cases[c][2][k]) for c, k in chunk])
            lam = symmetric_eigen(stack)[:, 2]
            with np.errstate(over="ignore"):  # tau = inf tells the caller
                cols = np.abs(stack, out=stack).sum(axis=1).max(axis=1)  # ||L_i(eps)||_1
            tau = LAMBDA3_TAU_FACTOR * _roundoff_scale(n, np.array([norms[c] for c, _ in chunk]), cols)
            for (c, k), x, t in zip(chunk, lam.tolist(), tau.tolist()):
                results[c][0][k], results[c][1][k] = x, t
    return results


def _roundoff_scale(n: int, norm, cols: np.ndarray) -> np.ndarray:
    """``n * u * max(||L||_1, ||L_i(eps)||_1)`` per problem, given ``norm = ||L||_1`` and ``cols = ||L_i(eps)||_1``."""
    return n * _UNIT_ROUNDOFF * np.maximum(cols, norm)


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
    step solves M once per run of a node's problems that share a bracket,
    and so a trial point, and each problem of the run reads its own count
    from the same ``m_j``: the eps < 1 problems of a node start from one
    bracket and share their points until the counts part them. A point
    parts a run into brackets that no longer overlap, so no problem of
    another run holds it, but for the eps < 1 and eps > 1 brackets, which
    meet only within tau of ``lam_3``. Comparing ``m_j`` with ``1 / rho``
    keeps the large diagonal ``I / rho`` out of the rounded matrix.

    ``U^T`` depends on the node alone, so it is built once per call from
    rows of ``Q`` and the node's neighbours (``g.adjacency``) and weights,
    d x n floats per node. The call's distinct nodes are split into chunks
    whose ``U^T`` fits in ``_FACTOR_BYTES``, and each chunk runs its own
    loop over its own problems; a step gathers ``U^T`` by node, or slices it
    where it solves for each node of the chunk once and in order, and forms
    M for ``_BATCH_BYTES`` of n x d arrays at a time. Besides arrays of at
    most n x n entries, like ``Q``, memory is those two budgets plus O(d^2)
    floats per solve of one chunk's step. How the problems are split or
    repeated never changes a problem's arithmetic, since d stays the call's
    largest degree in every chunk and a repeated problem joins its twin's
    run: its lambda3 and tau are the same bit for bit.
    """
    n = g.n
    w = g.weights
    lam, q = symmetric_eigen(laplacian(g), want_vectors=True)
    strength = g.degrees
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
    scale = _roundoff_scale(n, 2.0 * float(strength.max()), cols)
    tau = LAMBDA3_TAU_FACTOR * scale
    neg = rho < 0.0
    shift = np.where(neg, width, 0)
    inv_rho = 1.0 / np.where(rho == 0.0, 1.0, rho)
    top = np.where(2 + deg < n, lam[np.minimum(2 + deg, n - 1)], lam[2] - 2.0 * rho * strength[nodes])
    lo = np.where(rho == 0.0, lam[2], np.where(neg, lam[2], 0.0) - tau)
    hi = np.where(rho == 0.0, lam[2], np.where(neg, top, lam[2]) + tau)
    per = max(1, _BATCH_BYTES // (2 * 8 * n * width))

    def schur_eigenvalues(ut, node, mu):
        """Ascending eigenvalues of M(mu[h]) with U^T ``ut[node[h]]``, one per (node, mu) pair ``h``."""
        whole = len(node) == len(ut) and (np.diff(node) == 1).all()
        m = np.empty((len(node), width, width))
        for c in range(0, len(node), per):
            x = ut[c : c + per] if whole else ut[node[c : c + per]]
            m[c : c + per] = (x / (lam - mu[c : c + per, None])[:, None, :]) @ x.transpose(0, 2, 1)
        try:
            return np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(f"batched inertia count failed: {exc}") from exc

    lam3 = np.empty(len(nodes))
    converged = np.empty(len(nodes), dtype=bool)
    per_chunk = max(1, _FACTOR_BYTES // (8 * n * width))
    for start in range(0, len(distinct), per_chunk):
        stop = start + per_chunk
        ut = q[nbr[start:stop]]  # U^T of every node of the chunk, built in place
        np.subtract(q[distinct[start:stop], None, :], ut, out=ut)
        ut *= root_w[start:stop, :, None]
        rows = np.flatnonzero((start <= at) & (at < stop))
        lam3[rows], converged[rows] = _shrink_brackets(
            lam, functools.partial(schur_eigenvalues, ut), at[rows] - start,
            inv_rho[rows], shift[rows], lo[rows], hi[rows], scale[rows],
        )
    # A bracket still wider than its scale has no error bound.
    tau[~converged] = np.inf
    return lam3, tau


def _off_poles(lam, mu, lo, hi, scale) -> np.ndarray:
    """Move each trial point ``mu`` at least ``scale`` away from every eigenvalue ``lam`` of L.

    Within about ``u lam_k`` of an eigenvalue ``lam_k`` one term of ``S(mu)``
    swamps the others, and the count read there can be wrong. A point within
    ``scale`` of some ``lam_k`` moves to ``scale`` below the lowest, or above
    the highest, eigenvalue of the run of ``lam`` spaced less than ``2
    scale`` apart around it, whichever is nearer and still at least ``scale
    / 2`` inside its bracket ``[lo, hi]``. Where neither is, it stays, but
    never on an eigenvalue, where ``M(mu)`` would divide by zero.
    """
    n = len(lam)
    k = np.searchsorted(lam, mu)
    near = np.flatnonzero(np.minimum(mu - lam[np.maximum(k - 1, 0)], lam[np.minimum(k, n - 1)] - mu) < scale)
    if not near.size:
        return mu
    x, lo, hi, scale = mu[near], lo[near], hi[near], scale[near]
    moved = []
    for side in (-1, 1):
        point = x.copy()
        todo = np.arange(len(x))
        last = np.full(len(x), n if side < 0 else -1)  # the run's end so far: each pass passes one more
        while todo.size:
            y, s = point[todo], scale[todo]
            if side < 0:  # the lowest eigenvalue above y - s
                k = np.searchsorted(lam, y - s, side="right")
                keep = (k < last[todo]) & (lam[np.minimum(k, n - 1)] < y + s)
            else:  # the highest eigenvalue below y + s
                k = np.searchsorted(lam, y + s, side="left") - 1
                keep = (k > last[todo]) & (lam[np.maximum(k, 0)] > y - s)
            todo, k = todo[keep], k[keep]
            last[todo] = k
            point[todo] = lam[k] + side * scale[todo]
            room = point[todo] - lo[todo] if side < 0 else hi[todo] - point[todo]
            todo = todo[room >= 0.5 * scale[todo]]
        moved.append(point)
    down, up = moved
    fits_down = (down != x) & (down - lo >= 0.5 * scale)
    fits_up = (up != x) & (hi - up >= 0.5 * scale)
    x = np.where(fits_up & (~fits_down | (up - x < x - down)), up, np.where(fits_down, down, x))
    while True:
        tie = lam[np.minimum(np.searchsorted(lam, x), n - 1)] == x
        if not tie.any():
            break
        x[tie] = np.nextafter(x[tie], np.inf)
    mu = mu.copy()
    mu[near] = x
    return mu


def _secant(a, fa, b, fb):
    """Root of the line through ``(a, fa)`` and ``(b, fb)``."""
    return a - fa * (a - b) / (fa - fb)


def _pole_free(lam, lo, scale):
    """``first``, the index of p, p, its multiplicity and the pole-free det ``smooth(x, g)`` at each ``lo``."""
    # p, the lowest eigenvalue of L above lo, and q, the highest at or below
    # it, each with the eigenvalues within scale of it; q is never lam_1 = 0,
    # whose term of M vanishes on a connected graph
    n = len(lam)
    first = lam.searchsorted(lo, side="right")
    p = lam[np.minimum(first, n - 1)]
    p_mult = np.where(first < n, lam.searchsorted(p + scale, side="right") - first, 0)
    q = lam[np.maximum(first - 1, 0)]
    q_mult = np.maximum(first - np.maximum(lam.searchsorted(q - scale, side="left"), 1), 0)

    def smooth(x, g):  # the det at x times the powers of |p - x| and |x - q|
        return g * np.abs(p - x) ** p_mult * np.abs(x - q) ** q_mult

    return first, p, p_mult, smooth


def _trial_points(lam, lo, hi, scale, state) -> np.ndarray:
    """The model's trial point in each bracket of :func:`_shrink_brackets`, which describes the rule.

    ``nan`` where no model applies; a point may also be infinite or outside
    ``[lo, hi]``, which the caller replaces by the midpoint or clamps.
    """
    mu = np.full(len(lo), np.nan)
    # a model needs lo verified, that is, a point lo held before, and hi
    # verified or the det at that point
    verified = ~np.isnan(state[4])
    two = verified & (state[8] > 0.0)
    r = two.nonzero()[0]
    if r.size:
        # both ends verified: regula falsi on the pole-free det, else on
        # sigma_k in t = 1 / (p - mu) where no eigenvalue of L lies inside
        a, b = lo[r], hi[r]
        det_lo, sigma_lo, det_hi, sigma_hi = state[:4, r]
        first, p, p_mult, smooth = _pole_free(lam, a, scale[r])
        inner = lam.searchsorted(b, side="left") - first
        line = _secant(a, smooth(a, det_lo), b, smooth(b, det_hi))
        t = _secant(1.0 / (p - a), sigma_lo, 1.0 / (p - b), sigma_hi)
        det_ok = np.isfinite(line) & (inner <= np.where(p < b, p_mult, 0))
        mu[r] = np.where(det_ok, line, np.where((inner <= 0) & (first < len(lam)), p - 1.0 / t, np.nan))
    r = (verified & ~two & ~np.isnan(state[5])).nonzero()[0]
    if r.size:
        # only lo verified: extrapolate toward hi by the parabola through the
        # last three points below the root, or the line through two, past
        # the model's root
        a, det_lo = lo[r], state[0, r]
        x2, g2, x3, g3 = state[4:8, r]
        smooth = _pole_free(lam, a, scale[r])[3]
        ga, gb = smooth(a, det_lo), smooth(x2, g2)
        line = _secant(a, ga, x2, gb)
        d1 = (ga - gb) / (a - x2)
        a2 = (d1 - (gb - smooth(x3, g3)) / (x2 - x3)) / (a - x3)
        b1 = d1 + a2 * (a - x2)
        step = -2.0 * ga / (b1 - np.sqrt(b1 * b1 - 4.0 * a2 * ga))  # the parabola's root above lo
        quad = np.isfinite(step) & (step > 0.0)
        ext = a + np.where(quad, (1.0 + _QUADRATIC_OVERSHOOT) * step, (1.0 + _LINEAR_OVERSHOOT) * (line - a))
        mu[r] = np.where(ext > a, ext, np.nan)
    return mu


def _shrink_brackets(lam, schur_eigenvalues, node, inv_rho, shift, lo, hi, scale) -> tuple[np.ndarray, np.ndarray]:
    """Narrow every bracket ``[lo, hi]`` around lambda3 to width ``scale``.

    One entry per problem of :func:`_lambda3_batched`, on chunk-local nodes;
    ``schur_eigenvalues(node, mu)`` gives the ascending eigenvalues ``m`` of
    ``M(mu)``, one stacked ``eigvalsh`` per step. Every count is exact
    (``#{lam < mu} + #{m > 1 / rho} - shift``): ``hi`` moves to a point
    counting at least 3, ``lo`` to one counting fewer, so every bracket
    holds lambda3 whatever the points are. Only their choice is heuristic.

    The value interpolated is the determinant ``D(mu) = det(I - rho
    M(mu))``, the ratio of the characteristic polynomials of ``L_i(eps)``
    and ``L``: its zeros are the eigenvalues of ``L_i(eps)`` and its poles
    those of L. ``(-1)^#{lam < mu} D`` is positive where the count is 2
    and negative where it is 3; times ``|p - mu|^a |mu - q|^b``, with p and
    q the eigenvalues of L next to ``lo`` and a, b their multiplicities, it
    has no pole there, and a bracket between counts 2 and 3 holds its one
    zero. The eigenvalue ``sigma_k`` of ``S(mu)`` whose sign decides the
    count, ``k = 2 - #{lam < mu} + shift``, has a simple pole at p, near
    which it is close to linear in ``t = 1 / (p - mu)``, and a simple zero
    at lambda3 even where lambda3 is multiple. Per bracket and step,
    :func:`_trial_points` places:

    - only ``lo`` verified (``hi`` the interlacing bound ``lam_3``, often
      a pole just above lambda3): the root above ``lo`` of the parabola
      through the last three points of the pole-free determinant, or where
      it has none, of the line through two, placed
      ``_QUADRATIC_OVERSHOOT`` or ``_LINEAR_OVERSHOOT`` of its step beyond,
      so that the count there verifies ``hi``;
    - both verified: regula falsi on the pole-free determinant with the
      Anderson-Bjorck scaling of an end that stays put, or, where it has
      no value (counts other than 2 and 3, a further eigenvalue of L inside
      the bracket), on ``sigma_k`` in t, where no eigenvalue of L lies
      inside.

    Every other bracket takes its midpoint: one whose ``lo`` is not
    verified, one where the model has no finite point, and one that
    has not halved in ``_HALVING_STEPS`` steps, so that every bracket
    halves at least once per ``_HALVING_STEPS + 1`` steps. A point keeps
    ``scale / 2`` from both ends, and :func:`_off_poles` keeps it ``scale``
    from every eigenvalue of L, where counts lose their accuracy.

    Problems come sorted by node and eps, so that a node's problems sharing
    a bracket form a run: one trial point and one solve per run, the point
    of the run's lower-median eps, whose count each problem of the run
    reads. Only problems still wider than ``scale`` are evaluated. Returns
    the bracket midpoints and which brackets converged within
    ``_MAX_STEPS`` steps.
    """
    count = len(lo)
    mid = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    # by node, then eps: the problems of a node that share a bracket sit together
    idx = np.lexsort((inv_rho, hi, lo, node))
    node, inv_rho, shift, lo, hi, scale = (x[idx] for x in (node, inv_rho, shift, lo, hi, scale))
    # rows: det and sigma at lo, at hi, the two points lo held before and
    # their det (nan until lo is verified), whether hi is verified, steps
    # since the bracket last halved, the end the last step moved (-1 lo, +1
    # hi), the width then
    state = np.full((12, count), np.nan)
    state[8:11] = 0.0
    state[11] = hi - lo
    # where a run of a node's problems that share a bracket starts; runs only
    # split, where a count parts them, and converge whole
    new = np.ones(count, dtype=bool)
    new[1:] = (np.diff(node) != 0) | (np.diff(lo) != 0) | (np.diff(hi) != 0)
    width = hi - lo
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_MAX_STEPS):
            wide = width > scale
            if not wide.all():
                mid[idx[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
                converged[idx[~wide]] = True
                idx, node, inv_rho, shift, lo, hi, width, scale, new = (
                    x[wide] for x in (idx, node, inv_rho, shift, lo, hi, width, scale, new)
                )
                state = state[:, wide]
            if not idx.size:
                break
            # one trial point and one solve per run, each of whose problems
            # reads its own count there
            start = new.nonzero()[0]
            run = new.cumsum() - 1
            # a run's point is its lower-median problem's; views if all runs are one
            pick = (start + np.concatenate((start[1:], [len(lo)])) - 1) // 2 if len(start) < len(lo) else slice(None)
            a, b, sc, at = lo[pick], hi[pick], scale[pick], state[:, pick]
            mu = _trial_points(lam, a, b, sc, at)
            mu = np.where(np.isfinite(mu) & (at[9] < _HALVING_STEPS), mu, 0.5 * (a + b))
            mu = _off_poles(lam, np.minimum(np.maximum(mu, a + 0.5 * sc), b - 0.5 * sc), a, b, sc)
            # one row per eigenvalue of M, one column per problem: numpy
            # reduces over the rows of a few long ones faster than along them
            m = schur_eigenvalues(node[start], mu).T.take(run, axis=1)
            mu = mu[run]
            below = lam.searchsorted(mu)
            got = below + (m > inv_rho).sum(axis=0) - shift
            up = got >= 3
            down = ~up
            new[1:] |= up[1:] != up[:-1]
            # (det, sigma_k) at mu: det = (-1)^below det(I - rho M(mu)), nan
            # where the count is neither 2 nor 3, and sigma_k, k = 2 - below +
            # shift, the eigenvalue of S(mu) whose sign decides the count, nan
            # where k is outside S's order
            d = len(m)
            k = 2 - below + shift
            values = np.empty((2, len(mu)))
            np.multiply.reduce(1.0 - m / inv_rho, axis=0, out=values[0])
            np.negative(values[0], out=values[0], where=below % 2 == 1)
            values[0, (got < 2) | (got > 3)] = np.nan
            np.subtract(inv_rho, m[d - 1 - np.minimum(np.maximum(k, 0), d - 1), np.arange(len(mu))], out=values[1])
            values[1, (k < 0) | (k >= d)] = np.nan
            # Anderson-Bjorck: an end that stays put while the other moves
            # twice running has its values scaled by 1 - v(mu) / v(replaced
            # end), or halved if that is not > 0
            ab = 1.0 - values / np.where(up, state[2:4], state[0:2])
            side = np.where(up, 1.0, -1.0)
            ab = np.where(state[10] == side, np.where(ab > 0.0, ab, 0.5), 1.0)
            # the points lo held, for extrapolating toward an unverified hi
            np.copyto(state[4:8], [lo, state[0], state[4], state[5]], where=down)
            np.multiply(ab, state[0:2], out=state[0:2], where=up)
            np.copyto(state[0:2], values, where=down)
            np.multiply(ab, state[2:4], out=state[2:4], where=down)
            np.copyto(state[2:4], values, where=up)
            np.copyto(lo, mu, where=down)
            np.copyto(hi, mu, where=up)
            np.subtract(hi, lo, out=width)
            halved = width <= 0.5 * state[11]
            np.copyto(state[8], 1.0, where=up)
            state[9] = np.where(halved, 0.0, state[9] + 1.0)
            state[10] = side
            np.copyto(state[11], width, where=halved)
    mid[idx] = 0.5 * (lo + hi)
    converged[idx] = width <= scale
    return mid, converged


def is_connected_bfs(g: WeightedGraph) -> bool:
    """Combinatorial connectivity: every node reachable from node 0 (:attr:`WeightedGraph.connected`)."""
    return g.connected
