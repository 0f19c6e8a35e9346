"""Numerical verification suite for the identities behind the certificate.

Each check compares eigenvalues against a claimed identity or bound for
one (graph, node, parameters) case and reports the worst deviation. A
failing check carries a JSON-ready witness (full graph plus parameters) so
the exact case can be replayed.

A case covers one graph and a set of its nodes. It derives each value
once, on first use, for all of its nodes together: the weight vectors, the
reduced Laplacians, their spectra and null multiplicities, the reduced graphs'
component counts, and per tuple of epsilons the intermediate matrices and
their spectra. Within one graph all these matrices share one order, so each
check family builds its matrices as one ``(nodes, params, k, k)`` stack and
solves it with one call of
:func:`biconcert.spectral.symmetric_eigen` or
:func:`biconcert.spectral.general_eigen`; every member equals its
one-matrix definition bit for bit, so the results are those of one solve
per matrix, in node-major order. :func:`run_suite` builds one case per
corpus graph over all of its nodes. The public ``check_*`` functions run the
same check on a one-node case. Each, like ``run_suite`` per graph, first
calls :func:`biconcert.bicon.require_connected` (connected input, and n >= 3
where stated); the rank-one check also needs gamma != 0.

The checks:

* :func:`check_intermediate_spectrum` - the intermediate matrix's eigenvalues
  equal the perturbed Laplacian's with the null one dropped.
* :func:`check_combination_realness` - every real linear combination of the
  reduced Laplacian and the intermediate matrix has a real spectrum.
* :func:`check_eigenvalue_gap_bound` - the rank-paired eigenvalue gap between
  the intermediate matrix and the reduced Laplacian is bounded by the
  Frobenius norm of their difference.
* :func:`check_rank_one_update_spectrum` - the spectrum of
  ``gamma * L_reduced + eta * a 1^T`` splits into gamma times the nonzero
  reduced spectrum, a preserved null cluster, and one eigenvalue at
  ``eta * sum(a)``.
* :func:`check_null_drift_derivative` - the finite-difference derivative of
  the eigenvalue that leaves zero, compared against two candidate closed
  forms (``sum(a)`` and ``(n - 1) * sum(a)``); which one matches is reported,
  not assumed.
* :func:`counterexample_search` - randomized hunt for unsound certificates
  under a chosen bound mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .bicon import (
    BoundMode,
    articulation_points_oracle,
    require_connected,
    spectral_tests,
)
from .errors import PreconditionError
from .graph_core import (
    NodeId,
    PerturbationConfig,
    ProximityModel,
    WeightedGraph,
    from_edge_list,
    graph_to_dict,
    laplacian,
    neighbor_weight_vector,
    perturbed_laplacians,
    proximity_graph,
    reachable,
    reduced_graph,
    reduced_laplacians,
)
from .spectral import (
    CONNECTIVITY_TOL,
    general_eigen,
    is_connected_bfs,
    is_connected_spectral,
    symmetric_eigen,
)

SPECTRUM_TOL_FACTOR = 1e-7
IMAG_TOL = 1e-8
REALNESS_TOL_FACTOR = 1e-7
GAP_TOL = 1e-9
RANK_ONE_TOL = 1e-7
DERIVATIVE_TOL = 1e-3
NULL_TOL = 1e-9
FD_STEP = 1e-5


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one numerical check.

    ``passed`` is ``max_error <= `` the check's stated tolerance; ``witness``
    serializes the inputs of a failing case, ``details`` carries per-check
    diagnostics (measured quantities, reference values, tolerances).
    """

    name: str
    passed: bool
    max_error: float
    witness: dict | None = None
    details: dict | None = None


@dataclass(frozen=True)
class CombinationParams:
    """Coefficients for the mixed matrix ``alpha * L_reduced + beta * P``.

    ``gamma`` and ``eta`` are derived, never set independently.
    """

    alpha: float
    beta: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("alpha and beta must not both be zero")

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta

    @property
    def eta(self) -> float:
        return self.beta * self.epsilon


def _witness(g: WeightedGraph, i: NodeId, **params) -> dict:
    return {"graph": graph_to_dict(g), "node": i, **params}


def _outcomes(
    name: str, g: WeightedGraph, nodes, params: list[dict], err, passed, **details
) -> list[CheckOutcome]:
    """One outcome per node and entry of ``params``, node-major.

    ``err``, ``passed`` and every ``details`` column broadcast to
    ``(len(nodes), len(params))`` and come out as plain Python values;
    ``params`` holds each column's witness parameters for failing cases.
    """
    shape = (len(nodes), len(params))
    err, passed, *columns = (
        np.broadcast_to(x, shape).ravel().tolist() for x in (err, passed, *details.values())
    )
    return [
        CheckOutcome(
            name=name,
            passed=ok,
            max_error=e,
            witness=None if ok else _witness(g, i, **p),
            details=dict(zip(details, row)),
        )
        for (i, p), e, ok, *row in zip(product(nodes, params), err, passed, *columns)
    ]


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a stack.

    Taken as ``f @ f`` of each flattened matrix, which numpy computes with
    BLAS ``ddot`` as ``np.linalg.norm`` does for one matrix;
    ``np.linalg.norm(m, axis=(-2, -1))`` can differ from that in the last ulp.
    """
    f = m.reshape(m.shape[:-2] + (1, m.shape[-2] * m.shape[-1]))
    return np.sqrt(f @ f.swapaxes(-1, -2))[..., 0, 0]


class _GraphCase:
    """Nodes of graph g; each derived stack is computed on first use and kept.

    Row r of every stack belongs to ``nodes[r]``, and the next axis, where
    there is one, to a check's parameters. Checks no precondition: callers
    prove connectivity (and n >= 3 where a check needs it) before they read
    anything.
    """

    def __init__(self, g: WeightedGraph, nodes) -> None:
        self.g = g
        self.nodes = list(nodes)
        self._intermediate_eigs: dict[tuple[float, ...], np.ndarray] = {}

    @cached_property
    def a(self) -> np.ndarray:
        return np.array([neighbor_weight_vector(self.g, i) for i in self.nodes])

    @cached_property
    def lr(self) -> np.ndarray:
        return reduced_laplacians(self.g, self.nodes)

    @cached_property
    def lr_eigs(self) -> np.ndarray:
        return symmetric_eigen(self.lr)

    @cached_property
    def components(self) -> list[int]:
        """Component count of each reduced graph: its edges are its Laplacian's negative entries."""
        counts = []
        for adj in self.lr < 0.0:
            seen, count = np.zeros(len(adj), dtype=bool), 0
            while not seen.all():
                seen |= reachable(adj, int(np.argmin(seen)))
                count += 1
            counts.append(count)
        return counts

    @cached_property
    def null_multiplicity(self) -> list[int]:
        """Null multiplicity of each reduced Laplacian, cross-checked by component count."""
        counts = np.sum(self.lr_eigs < NULL_TOL, axis=1).tolist()
        if counts != self.components:
            raise RuntimeError(
                f"null multiplicities {counts} disagree with component counts {self.components}"
            )
        return counts

    def intermediate(self, eps: tuple[float, ...]) -> np.ndarray:
        """:func:`~biconcert.graph_core.intermediate_matrix` of every node at every epsilon.

        Raises GraphInputError unless every epsilon is positive and finite.
        """
        e = np.array([PerturbationConfig(x).epsilon for x in eps])
        m = self.a.shape[1]
        coupling = np.zeros(self.a.shape + (m,))  # diag(a) + outer(a, ones)
        coupling[:, np.arange(m), np.arange(m)] = self.a
        coupling += self.a[:, :, None]
        return self.lr[:, None] + e[:, None, None] * coupling[:, None]

    def intermediate_eigs(self, eps: tuple[float, ...]) -> np.ndarray:
        if eps not in self._intermediate_eigs:
            self._intermediate_eigs[eps] = general_eigen(self.intermediate(eps))
        return self._intermediate_eigs[eps]

    def perturbed(self, eps: tuple[float, ...]) -> np.ndarray:
        """:func:`perturbed_laplacian` of every node at every epsilon."""
        n, count = self.g.n, len(self.nodes)
        cfgs = [PerturbationConfig(x) for x in eps] * count
        stack = perturbed_laplacians(self.g, np.repeat(self.nodes, len(eps)), cfgs)
        return stack.reshape(count, len(eps), n, n)

    def combination(self, params: list[CombinationParams]) -> np.ndarray:
        """``alpha * L_reduced + beta * P`` of every node for every entry of ``params``."""
        alpha = np.array([p.alpha for p in params])[:, None, None]
        beta = np.array([p.beta for p in params])[:, None, None]
        return alpha * self.lr[:, None] + beta * self.intermediate(tuple(p.epsilon for p in params))

    def rank_one(self, gamma: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """:func:`rank_one_update_matrix` of every node at every ``(gamma, eta)`` pair of the two arrays."""
        return gamma[:, None, None] * self.lr[:, None] + eta[:, None, None] * self.a[:, None, :, None]


def _intermediate_spectrum(
    case: _GraphCase, eps: tuple[float, ...], tol_factor: float
) -> list[CheckOutcome]:
    p_eigs = case.intermediate_eigs(eps)
    l_mat = case.perturbed(eps)
    l_eigs = symmetric_eigen(l_mat)
    real = np.abs(np.sort(p_eigs.real, axis=-1) - l_eigs[..., 1:]).max(axis=-1)
    imag = np.abs(p_eigs.imag).max(axis=-1)
    tol = tol_factor * np.maximum(1.0, _frobenius(l_mat))
    return _outcomes(
        "intermediate-spectrum-match",
        case.g,
        case.nodes,
        [{"epsilon": x} for x in eps],
        np.maximum(real, imag),
        (real <= tol) & (imag <= IMAG_TOL),
        real_error=real,
        imag_error=imag,
        tolerance=tol,
    )


def check_intermediate_spectrum(
    g: WeightedGraph, i: NodeId, eps: float, tol_factor: float = SPECTRUM_TOL_FACTOR
) -> CheckOutcome:
    """Eigenvalues of the intermediate matrix vs the perturbed Laplacian.

    Ascending real parts of the intermediate spectrum must match the
    perturbed Laplacian's eigenvalues with the smallest dropped, index by
    index; imaginary parts must vanish.
    """
    require_connected(g, 3)
    (outcome,) = _intermediate_spectrum(_GraphCase(g, [i]), (eps,), tol_factor)
    return outcome


def _combination_realness(
    case: _GraphCase, params: list[CombinationParams], tol_factor: float
) -> list[CheckOutcome]:
    f = case.combination(params)
    err = np.abs(general_eigen(f).imag).max(axis=-1)
    tol = tol_factor * np.maximum(1.0, _frobenius(f))
    witness = [{"alpha": p.alpha, "beta": p.beta, "epsilon": p.epsilon} for p in params]
    return _outcomes(
        "combination-realness", case.g, case.nodes, witness, err, err <= tol, tolerance=tol
    )


def check_combination_realness(
    g: WeightedGraph,
    i: NodeId,
    params: CombinationParams,
    tol_factor: float = REALNESS_TOL_FACTOR,
) -> CheckOutcome:
    """``alpha * L_reduced + beta * P`` must have a purely real spectrum."""
    require_connected(g)
    (outcome,) = _combination_realness(_GraphCase(g, [i]), [params], tol_factor)
    return outcome


def _eigenvalue_gap_bound(
    case: _GraphCase, eps: tuple[float, ...], tol: float
) -> list[CheckOutcome]:
    a_desc = np.sort(case.intermediate_eigs(eps).real, axis=-1)[..., ::-1]
    b_desc = np.sort(case.lr_eigs, axis=-1)[:, None, ::-1]
    gap = np.abs(a_desc - b_desc).max(axis=-1)
    norm = _frobenius(case.intermediate(eps) - case.lr[:, None])
    err = np.maximum(0.0, gap - norm)
    return _outcomes(
        "eigenvalue-gap-bound",
        case.g,
        case.nodes,
        [{"epsilon": x} for x in eps],
        err,
        err <= tol,
        gap=gap,
        frobenius_norm=norm,
    )


def check_eigenvalue_gap_bound(
    g: WeightedGraph, i: NodeId, eps: float, tol: float = GAP_TOL
) -> CheckOutcome:
    """Rank-paired eigenvalue gap vs Frobenius norm of the perturbation.

    Both spectra are sorted descending and compared position by position;
    the maximum absolute difference must not exceed the Frobenius norm of
    the matrix difference (plus ``tol`` of slack for roundoff).
    """
    require_connected(g)
    (outcome,) = _eigenvalue_gap_bound(_GraphCase(g, [i]), (eps,), tol)
    return outcome


def rank_one_update_matrix(
    g: WeightedGraph, i: NodeId, gamma: float, eta: float
) -> np.ndarray:
    """``gamma * L_reduced + eta * outer(a, ones)`` for node i."""
    a = neighbor_weight_vector(g, i)
    return gamma * laplacian(reduced_graph(g, i)) + eta * np.outer(a, np.ones(len(a)))


def _rank_one_update_spectrum(
    case: _GraphCase, params: list[tuple[float, float]], tol: float
) -> list[CheckOutcome]:
    """One outcome per node and ``(gamma, eta)`` pair of ``params``."""
    gamma, eta = np.array(params).T
    q_eigs = general_eigen(case.rank_one(gamma, eta))
    l_null = np.array(case.null_multiplicity)[:, None]
    moving = eta * np.sum(case.a, axis=1)[:, None]
    # gamma times the nonzero reduced spectrum, l - 1 zeros, and the moving
    # eigenvalue in the first of the l null slots
    below_null = np.arange(case.lr_eigs.shape[1]) < l_null[..., None]
    expected = np.where(below_null, 0.0, gamma[:, None] * case.lr_eigs[:, None])
    expected[..., 0] = moving
    real = np.abs(np.sort(q_eigs.real, axis=-1) - np.sort(expected, axis=-1)).max(axis=-1)
    imag = np.abs(q_eigs.imag).max(axis=-1)
    err = np.maximum(real, imag)
    return _outcomes(
        "rank-one-update-spectrum",
        case.g,
        case.nodes,
        [{"gamma": gm, "eta": et} for gm, et in params],
        err,
        err <= tol,
        null_multiplicity=l_null,
        moving_eigenvalue=moving,
        real_error=real,
        imag_error=imag,
    )


def check_rank_one_update_spectrum(
    g: WeightedGraph,
    i: NodeId,
    gamma: float,
    eta: float,
    tol: float = RANK_ONE_TOL,
) -> CheckOutcome:
    """Spectrum of the rank-one updated reduced Laplacian.

    With l the null multiplicity of the reduced Laplacian, the expected
    multiset is gamma times its nonzero eigenvalues, a zero of multiplicity
    l - 1, and one eigenvalue at ``eta * sum(a)`` (positive whenever eta > 0,
    since a connected graph forces sum(a) > 0). Sorted real parts are
    compared against this multiset; imaginary parts must vanish.
    """
    require_connected(g, 3)
    if gamma == 0.0:
        raise PreconditionError("gamma must be nonzero")
    (outcome,) = _rank_one_update_spectrum(_GraphCase(g, [i]), [(gamma, eta)], tol)
    return outcome


def _match_moving_eigenvalue(
    actual: np.ndarray, stationary: np.ndarray
) -> tuple[float, list[float]]:
    """Split a spectrum into the stationary matches and the one leftover.

    Greedy nearest-value matching: for each expected stationary eigenvalue
    (largest magnitude first) remove the closest remaining actual value; the
    single value left over is the one that moved off the null cluster.
    Returns (moving value, matched stationary actual values in expected order).
    """
    pool = list(actual)
    matched = [0.0] * len(stationary)
    order = sorted(range(len(stationary)), key=lambda k: -abs(stationary[k]))
    for k in order:
        target = stationary[k]
        best = min(range(len(pool)), key=lambda idx: abs(pool[idx] - target))
        matched[k] = pool.pop(best)
    assert len(pool) == 1
    return pool[0], matched


def _null_drift_derivative(case: _GraphCase, step: float, tol: float) -> list[CheckOutcome]:
    # gamma = 1 at eta = +step and eta = -step
    eigs = general_eigen(case.rank_one(np.ones(2), np.array([step, -step]))).real
    movers, null_drift = [], []
    for r, l_null in enumerate(case.null_multiplicity):
        stationary = np.concatenate([np.zeros(l_null - 1), case.lr_eigs[r][l_null:]])
        mover_plus, matched_plus = _match_moving_eigenvalue(eigs[r, 0], stationary)
        mover_minus, matched_minus = _match_moving_eigenvalue(eigs[r, 1], stationary)
        movers.append(mover_plus - mover_minus)
        drift = np.subtract(matched_plus[: l_null - 1], matched_minus[: l_null - 1]) / (2.0 * step)
        null_drift.append(np.max(np.abs(drift), initial=0.0))
    derivative = np.array(movers)[:, None] / (2.0 * step)
    trace = np.sum(case.a, axis=1)[:, None]
    scaled = (case.g.n - 1) * trace
    err_trace = np.abs(derivative - trace) / np.maximum(1e-300, np.abs(trace))
    err_scaled = np.abs(derivative - scaled) / np.maximum(1e-300, np.abs(scaled))
    null_drift = np.array(null_drift)[:, None]
    err = np.maximum(np.minimum(err_trace, err_scaled), null_drift)
    return _outcomes(
        "null-drift-derivative",
        case.g,
        case.nodes,
        [{"step": step}],
        err,
        err <= tol,
        fd_derivative=derivative,
        trace_candidate=trace,
        scaled_candidate=scaled,
        matched_candidate=np.where(
            err_trace <= tol, "trace", np.where(err_scaled <= tol, "scaled", "none")
        ),
        null_drift=null_drift,
    )


def check_null_drift_derivative(
    g: WeightedGraph,
    i: NodeId,
    step: float = FD_STEP,
    tol: float = DERIVATIVE_TOL,
) -> CheckOutcome:
    """Finite-difference derivative of the eigenvalue that leaves zero.

    At eta = 0 the rank-one update (gamma = 1) has l null eigenvalues, where
    l is the reduced Laplacian's null multiplicity; for small eta, l - 1 stay
    put and one moves right. The mover is located at eta = +/- step by
    nearest-value matching against the stationary spectrum, and its central
    difference is compared against two candidate closed forms: ``sum(a)``
    (the trace of the rank-one term) and ``(n - 1) * sum(a)``. Which one the
    measurement matches is reported in ``details``; the check passes when one
    of them does and every stationary null eigenvalue drifts less than
    ``tol``.
    """
    require_connected(g, 3)
    (outcome,) = _null_drift_derivative(_GraphCase(g, [i]), step, tol)
    return outcome


# ---------------------------------------------------------------------------
# Random corpora


def random_connected_graph(
    rng: np.random.Generator, n: int, style: str = "er"
) -> WeightedGraph:
    """Random connected graph on n nodes with weights in (0, 1].

    ``style="er"`` samples uniform edge probability graphs and rejects
    disconnected draws; ``style="geometric"`` samples disk-model layouts in
    the unit square. Both fall back to a random-tree backbone with extra
    edges if rejection sampling runs out of attempts, so the function always
    returns a connected graph.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return WeightedGraph(n=1, weights=np.zeros((1, 1)))
    if style == "geometric":
        for _ in range(40):
            pts = rng.random((n, 2))
            radius = float(rng.uniform(0.35, 0.8))
            g = proximity_graph(pts, ProximityModel(radius=radius, sigma=radius**2 / 2.0))
            if is_connected_bfs(g):
                return g
    elif style == "er":
        p = float(rng.uniform(0.15, 0.9))
        for _ in range(40):
            g = random_graph(rng, n, p)
            if is_connected_bfs(g):
                return g
    else:
        raise ValueError(f"unknown style {style!r}")
    # Fallback: random tree backbone plus extra edges, connected by construction.
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


def random_graph(rng: np.random.Generator, n: int, p: float) -> WeightedGraph:
    """Uniform edge-probability graph, possibly disconnected, weights in (0, 1].

    Each pair i < j, in row-major order, draws one uniform; below p, a second
    draw gives the edge its weight. The seeded corpora depend on this order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = 1.0 - rng.random()
    return WeightedGraph(n=n, weights=w)


def seed_graphs() -> list[WeightedGraph]:
    """Small structured graphs every random corpus starts with.

    The unit path on three nodes is the known case where the simplified
    bound certifies an articulation point; the bowtie (two triangles glued
    at a vertex) is the textbook cut vertex; the star and cycle cover the
    locally-degenerate and everywhere-biconnected extremes.
    """
    path3 = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    bowtie = from_edge_list(
        5,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0)],
    )
    star4 = from_edge_list(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    cycle5 = from_edge_list(
        5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0)]
    )
    return [path3, bowtie, star4, cycle5]


def counterexample_search(
    trials: int, mode: BoundMode, seed: int
) -> list[dict]:
    """Hunt for unsound certificates: certified nodes the oracle calls cut vertices.

    The corpus starts with :func:`seed_graphs` and continues with random
    connected graphs; each trial draws one epsilon from {1e-3, 1e-2, 1e-1}
    and certifies every node. Deterministic for a fixed seed. Returns one
    witness dict per violation.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    eps_choices = (1e-3, 1e-2, 1e-1)
    seeds = seed_graphs()
    witnesses: list[dict] = []
    for t in range(trials):
        if t < len(seeds):
            g = seeds[t]
        else:
            style = "geometric" if t % 3 == 2 else "er"
            g = random_connected_graph(rng, int(rng.integers(3, 13)), style=style)
        eps = float(rng.choice(eps_choices))
        points = articulation_points_oracle(g)
        for test in spectral_tests(g, range(g.n), [eps]):
            if test.certified(mode) and test.node in points:
                witnesses.append(
                    _witness(
                        g,
                        test.node,
                        trial=t,
                        epsilon=eps,
                        mode=mode.value,
                        lambda3=test.lambda3,
                        bound=test.bound(mode),
                    )
                )
    return witnesses


# ---------------------------------------------------------------------------
# Aggregated suite

# Checks whose outcome is reported but never gates the suite: the derivative
# check's job is to report which closed form the measurement matches, and the
# simplified-bound search is *expected* to find witnesses.
INFORMATIONAL_CHECKS = frozenset(
    {"null-drift-derivative", "certificate-search-simplified"}
)

# Each suite check's default tolerance, by the name run_suite's
# ``tolerances`` and the CLI's ``--tol-*`` flags use ("_" becomes "-").
SUITE_TOLERANCES = {
    "spectrum": SPECTRUM_TOL_FACTOR,
    "realness": REALNESS_TOL_FACTOR,
    "gap": GAP_TOL,
    "rank_one": RANK_ONE_TOL,
    "derivative": DERIVATIVE_TOL,
    "connectivity": CONNECTIVITY_TOL,
}

_SUITE_EPS = (1e-3, 1e-2, 0.1, 1.0)
_SUITE_N_RANGE = (3, 17)  # node counts of the random corpus graphs, [low, high)
_SUITE_GAMMAS = (0.5, 1.0, 2.0)
_SUITE_ETA = 1e-3
_SUITE_DRAWS = 5


def _aggregate(
    name: str, cases: list[CheckOutcome], found: list[dict] | None = None, **details
) -> CheckOutcome:
    """The outcome of check ``name``, with ``details`` added to its own.

    Over per-case outcomes it passes when every case passed, and carries the
    worst error with that case's details, the case and failure counts, and
    the first failure's witness. A certificate search has no cases but the
    witnesses it ``found``: it carries their count and the first of them, and
    every witness counts as a failure unless the search is informational.
    """
    if found is None:
        failed = [c for c in cases if not c.passed]
        worst = max(cases, key=lambda c: c.max_error, default=None)
        error = worst.max_error if worst else 0.0
        witness = failed[0].witness if failed else None
        counts = {"cases": len(cases), "failures": len(failed)}
        details = {**(worst.details if worst else {}), **counts, **details}
    else:
        failed = [] if name in INFORMATIONAL_CHECKS else found
        error = float(len(failed))
        witness = found[0] if found else None
        details = {"witnesses": len(found), **details}
    return CheckOutcome(
        name=name, passed=not failed, max_error=error, witness=witness, details=details
    )


def suite_corpus(rng: np.random.Generator, n_graphs: int) -> list[WeightedGraph]:
    """Seed graphs followed by alternating random styles; deterministic per rng."""
    graphs = list(seed_graphs())
    for t in range(max(0, n_graphs - len(graphs))):
        style = "geometric" if t % 2 else "er"
        n = int(rng.integers(*_SUITE_N_RANGE))
        graphs.append(random_connected_graph(rng, n, style=style))
    return graphs[:n_graphs]


def run_suite(
    seed: int,
    n_graphs: int = 60,
    trials: int = 200,
    tolerances: dict[str, float] | None = None,
) -> list[CheckOutcome]:
    """Run every check over a seeded random corpus and aggregate per check.

    Returns one outcome per check name; a suite passes when every outcome
    outside :data:`INFORMATIONAL_CHECKS` passed. ``tolerances`` may override
    individual check tolerances by their names in :data:`SUITE_TOLERANCES`;
    an unknown name, ``n_graphs < 1`` or ``trials < 1`` raises
    ``ValueError`` before any check runs. Tolerance values are not
    range-checked here (a negative one forces its check to fail); the CLI's
    ``--tol-*`` flags are.
    """
    unknown = sorted(set(tolerances or {}) - SUITE_TOLERANCES.keys())
    if unknown:
        raise ValueError(f"unknown tolerance names {unknown}; known: {list(SUITE_TOLERANCES)}")
    if n_graphs < 1:
        raise ValueError(f"need at least one graph, got {n_graphs}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    tol = {**SUITE_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)
    graphs = suite_corpus(rng, n_graphs)

    per_case: list[CheckOutcome] = []
    for g in graphs:
        require_connected(g, 3)
        ab = rng.uniform(-2.0, 2.0, size=(_SUITE_DRAWS, 2))
        case = _GraphCase(g, range(g.n))
        per_case += _intermediate_spectrum(case, _SUITE_EPS, tol["spectrum"])
        per_case += _eigenvalue_gap_bound(case, _SUITE_EPS, tol["gap"])
        params = [
            CombinationParams(float(alpha), float(beta), 0.1)
            for alpha, beta in ab
            if not (alpha == 0.0 and beta == 0.0)
        ]
        per_case += _combination_realness(case, params, tol["realness"])
        per_case += _rank_one_update_spectrum(
            case, [(gamma, _SUITE_ETA) for gamma in _SUITE_GAMMAS], tol["rank_one"]
        )
        per_case += _null_drift_derivative(case, FD_STEP, tol["derivative"])

        # Laplacian eigenvectors above the null space must be orthogonal to ones.
        lam, vecs = symmetric_eigen(laplacian(g), want_vectors=True)
        ortho = np.max(np.abs(np.ones(g.n) @ vecs[:, lam > NULL_TOL]), initial=0.0)
        per_case += _outcomes(
            "laplacian-eigenvector-orthogonality", g, [0], [{}], ortho, ortho <= 1e-8
        )
        # brute force: removing i disconnects g
        cut_vertices = {i for i, count in zip(case.nodes, case.components) if count > 1}
        agree = articulation_points_oracle(g) == cut_vertices
        per_case += _outcomes(
            "articulation-oracle-agreement", g, [0], [{}], float(not agree), agree
        )

    for _ in range(max(1, 4 * n_graphs)):
        n = int(rng.integers(2, 24))
        g = random_graph(rng, n, float(rng.uniform(0.0, 0.6)))
        agree = is_connected_spectral(g, tol["connectivity"]) == is_connected_bfs(g)
        per_case += _outcomes(
            "connectivity-oracle-agreement", g, [0], [{}], float(not agree), agree
        )

    cases = {
        name: [c for c in per_case if c.name == name]
        for name in (
            "intermediate-spectrum-match",
            "combination-realness",
            "eigenvalue-gap-bound",
            "rank-one-update-spectrum",
            "laplacian-eigenvector-orthogonality",
            "articulation-oracle-agreement",
            "connectivity-oracle-agreement",
            "null-drift-derivative",
        )
    }
    drift = cases.pop("null-drift-derivative")
    matches = {
        key: sum(c.details["matched_candidate"] == key for c in drift)
        for key in ("trace", "scaled", "none")
    }
    exact = counterexample_search(trials, BoundMode.EXACT_NORM, seed + 1)
    simplified = counterexample_search(trials, BoundMode.SIMPLIFIED, seed + 2)
    return [
        *(_aggregate(name, c) for name, c in cases.items()),
        _aggregate("null-drift-derivative", drift, candidate_matches=matches),
        _aggregate("certificate-search-exact", [], exact, trials=trials),
        _aggregate(
            "certificate-search-simplified", [], simplified, trials=trials, expected_nonempty=True
        ),
    ]


def suite_passed(outcomes: list[CheckOutcome]) -> bool:
    """True when every gating (non-informational) check passed."""
    return all(o.passed for o in outcomes if o.name not in INFORMATIONAL_CHECKS)


def outcome_to_dict(o: CheckOutcome) -> dict:
    return asdict(o)
