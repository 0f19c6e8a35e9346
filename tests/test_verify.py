"""Numerical checks: closed-form cases, determinism, and witness plumbing."""

import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

import biconcert.bicon
import biconcert.spectral as spectral
import biconcert.verify as verify
from biconcert import (
    BoundMode,
    CombinationParams,
    PreconditionError,
    WeightedGraph,
    articulation_points_oracle,
    check_combination_realness,
    check_eigenvalue_gap_bound,
    check_intermediate_spectrum,
    check_null_drift_derivative,
    check_rank_one_update_spectrum,
    counterexample_search,
    from_edge_list,
    graph_from_dict,
    graph_to_dict,
    laplacian,
    random_connected_graph,
    reduced_graph,
    run_suite,
    spectral_tests,
    suite_passed,
    symmetric_eigen,
)
from biconcert.graph_core import (
    PerturbationConfig,
    intermediate_matrix,
    perturbed_laplacian,
    reachable,
    reduced_laplacians,
)
from biconcert.spectral import general_eigen
from biconcert.verify import (
    CheckOutcome,
    _aggregate,
    outcome_to_dict,
    rank_one_update_matrix,
    suite_corpus,
)


def path3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])


def k3():
    return from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


class TestIntermediateSpectrum:
    def test_path3_middle(self):
        out = check_intermediate_spectrum(path3(), 1, 0.1)
        assert out.passed
        assert out.max_error <= 1e-12

    def test_k3(self):
        out = check_intermediate_spectrum(k3(), 0, 1.0)
        assert out.passed

    def test_random_corpus(self):
        rng = np.random.default_rng(31)
        for k in range(40):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            i = int(rng.integers(0, g.n))
            for eps in (1e-3, 1e-2, 0.1, 1.0):
                assert check_intermediate_spectrum(g, i, eps).passed

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(PreconditionError):
            check_intermediate_spectrum(g, 0, 0.1)


class TestCombinationRealness:
    def test_beta_zero_symmetric(self):
        out = check_combination_realness(path3(), 1, CombinationParams(1.5, 0.0, 0.1))
        assert out.passed and out.max_error == 0.0

    def test_alpha_zero_reduces_to_intermediate(self):
        out = check_combination_realness(path3(), 1, CombinationParams(0.0, 1.0, 0.1))
        assert out.passed

    def test_random_draws_path3(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            alpha, beta = rng.uniform(-2.0, 2.0, 2)
            if alpha == 0.0 and beta == 0.0:
                continue
            out = check_combination_realness(
                path3(), 1, CombinationParams(float(alpha), float(beta), 0.1)
            )
            assert out.passed

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            CombinationParams(0.0, 0.0, 0.1)

    def test_derived_fields(self):
        p = CombinationParams(alpha=0.5, beta=2.0, epsilon=0.1)
        assert p.gamma == 2.5
        assert p.eta == pytest.approx(0.2)


class TestGapBound:
    def test_path3_closed_form_slack(self):
        eps = 0.25
        out = check_eigenvalue_gap_bound(path3(), 1, eps)
        assert out.passed
        # gap is exactly 3 eps, the norm exactly eps sqrt(10)
        assert out.details["gap"] == pytest.approx(3 * eps, abs=1e-12)
        assert out.details["frobenius_norm"] == pytest.approx(
            eps * np.sqrt(10.0), abs=1e-12
        )

    def test_tiny_epsilon(self):
        out = check_eigenvalue_gap_bound(k3(), 0, 1e-12)
        assert out.passed

    def test_random_corpus(self):
        rng = np.random.default_rng(33)
        for k in range(40):
            g = random_connected_graph(rng, int(rng.integers(3, 11)))
            i = int(rng.integers(0, g.n))
            for eps in (0.01, 0.1):
                assert check_eigenvalue_gap_bound(g, i, eps).passed


class TestRankOneUpdate:
    def test_path3_middle_rank_one(self):
        # reduced Laplacian is zero, so the matrix is 0.1 * all-ones: {0, 0.2}
        out = check_rank_one_update_spectrum(path3(), 1, gamma=1.0, eta=0.1)
        assert out.passed
        assert out.details["null_multiplicity"] == 2
        assert out.details["moving_eigenvalue"] == pytest.approx(0.2, abs=1e-15)

    def test_eta_zero_pure_scaling(self):
        out = check_rank_one_update_spectrum(k3(), 0, gamma=2.0, eta=0.0)
        assert out.passed
        assert out.details["moving_eigenvalue"] == 0.0

    def test_k3_preserves_nonnull(self):
        out = check_rank_one_update_spectrum(k3(), 0, gamma=2.0, eta=0.05)
        assert out.passed
        q = rank_one_update_matrix(k3(), 0, 2.0, 0.05)
        eigs = np.sort(np.linalg.eigvals(q).real)
        assert eigs[-1] == pytest.approx(4.0, abs=1e-10)
        assert out.details["moving_eigenvalue"] == pytest.approx(0.1, abs=1e-15)

    def test_zero_gamma_rejected(self):
        with pytest.raises(PreconditionError):
            check_rank_one_update_spectrum(path3(), 1, gamma=0.0, eta=0.1)

    def test_random_corpus(self):
        rng = np.random.default_rng(34)
        for k in range(40):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            i = int(rng.integers(0, g.n))
            for gamma in (0.5, 1.0, 2.0):
                assert check_rank_one_update_spectrum(g, i, gamma, 1e-3).passed


class TestNullDriftDerivative:
    def test_path3_matches_trace_candidate(self):
        out = check_null_drift_derivative(path3(), 1)
        assert out.passed
        assert out.details["matched_candidate"] == "trace"
        assert out.details["fd_derivative"] == pytest.approx(2.0, rel=1e-6)
        assert out.details["trace_candidate"] == 2.0
        assert out.details["scaled_candidate"] == 4.0

    def test_k3_positive_derivative(self):
        out = check_null_drift_derivative(k3(), 0)
        assert out.passed
        assert out.details["fd_derivative"] > 0.0

    def test_derivative_positive_on_connected_graphs(self):
        rng = np.random.default_rng(35)
        for k in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            i = int(rng.integers(0, g.n))
            out = check_null_drift_derivative(g, i)
            assert out.details["fd_derivative"] > 0.0
            assert out.details["matched_candidate"] == "trace"


@pytest.mark.parametrize("tol", [1.0, -1.0], ids=["passing", "failing"])
@pytest.mark.parametrize(
    "check",
    [
        lambda g, tol: check_intermediate_spectrum(g, 1, 0.1, tol),
        lambda g, tol: check_combination_realness(g, 1, CombinationParams(0.3, -1.2, 0.05), tol),
        lambda g, tol: check_eigenvalue_gap_bound(g, 1, 0.2, tol),
        lambda g, tol: check_rank_one_update_spectrum(g, 1, 2.0, 0.01, tol),
        lambda g, tol: check_null_drift_derivative(g, 1, tol=tol),
    ],
    ids=["spectrum", "realness", "gap", "rank-one", "null-drift"],
)
def test_public_outcomes_are_plain_json(check, tol):
    out = check(path3(), tol)
    assert type(out.passed) is bool and type(out.max_error) is float
    assert out.passed == (tol > 0)
    json.dumps(outcome_to_dict(out))


class TestCounterexampleSearch:
    def test_simplified_mode_finds_path3_witness(self):
        witnesses = counterexample_search(8, BoundMode.SIMPLIFIED, seed=5)
        assert witnesses
        hit = witnesses[0]
        assert hit["node"] == 1
        g = graph_from_dict(hit["graph"])
        assert g.n == 3 and g.weights[0, 1] == 1.0 and g.weights[1, 2] == 1.0

    def test_exact_mode_finds_nothing(self):
        assert counterexample_search(200, BoundMode.EXACT_NORM, seed=5) == []

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            counterexample_search(0, BoundMode.EXACT_NORM, seed=5)

    def test_deterministic_under_seed(self):
        a = counterexample_search(40, BoundMode.SIMPLIFIED, seed=9)
        b = counterexample_search(40, BoundMode.SIMPLIFIED, seed=9)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_witnesses_replay(self):
        for hit in counterexample_search(30, BoundMode.SIMPLIFIED, seed=11):
            g = graph_from_dict(hit["graph"])
            from biconcert import PerturbationConfig, spectral_certificate

            cert = spectral_certificate(
                g, hit["node"], PerturbationConfig(hit["epsilon"]), BoundMode.SIMPLIFIED
            )
            assert cert.certified


def random_graph_reference(rng, n, p):
    """random_graph's stream drawn one uniform at a time, pair by pair."""
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = 1.0 - rng.random()
    return WeightedGraph(n=n, weights=w)


def search_reference(trials, mode, seed):
    """counterexample_search one trial at a time: one spectral_tests call and one oracle per trial."""
    rng = np.random.default_rng(seed)
    seeds = verify.seed_graphs()
    witnesses = []
    for t in range(trials):
        if t < len(seeds):
            g = seeds[t]
        else:
            style = "geometric" if t % 3 == 2 else "er"
            g = random_connected_graph(rng, int(rng.integers(3, 13)), style=style)
        eps = float(rng.choice((1e-3, 1e-2, 1e-1)))
        points = articulation_points_oracle(g)
        for test in spectral_tests(g, range(g.n), [eps]):
            if test.certified(mode) and test.node in points:
                witnesses.append(
                    {
                        "graph": graph_to_dict(g),
                        "node": test.node,
                        "trial": t,
                        "epsilon": eps,
                        "mode": mode.value,
                        "lambda3": test.lambda3,
                        "bound": test.bound(mode),
                    }
                )
    return witnesses


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mode", list(BoundMode), ids=lambda m: m.value)
def test_search_equals_the_per_trial_reference(monkeypatch, seed, mode):
    counts = (1, 4, 60, 2 * verify.SEARCH_BLOCK + 1)  # the last spans three blocks
    with monkeypatch.context() as m:
        m.setattr(verify, "random_graph", random_graph_reference)
        want = [search_reference(trials, mode, seed) for trials in counts]
    for trials, witnesses in zip(counts, want):
        # == on the witness dicts: every float bit for bit
        assert counterexample_search(trials, mode, seed) == witnesses, trials
    if mode is BoundMode.SIMPLIFIED:
        assert want[0]  # path3, the first trial, is always a witness


def test_search_solves_hold_one_block_of_trials(monkeypatch):
    """The search certifies only each trial's cut vertices, in one stacked dense solve per block and order."""
    graphs, blocks, solves, members = [], [], [], []
    many, build, solve = verify.spectral_tests_many, spectral.perturbed_laplacian, spectral.symmetric_eigen
    draw = verify.random_connected_graph

    def draw_spy(*args, **kwargs):
        graphs.append(draw(*args, **kwargs))
        return graphs[-1]

    def many_spy(cases):
        cases = list(cases)
        blocks.append(cases)
        return many(cases)

    def build_spy(g, i, cfg):
        members.append(g)
        return build(g, i, cfg)

    def solve_spy(m, *args, **kwargs):
        solves.append((len(blocks) - 1, members[:]))
        members.clear()
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(verify, "random_connected_graph", draw_spy)
    monkeypatch.setattr(verify, "spectral_tests_many", many_spy)
    monkeypatch.setattr(spectral, "perturbed_laplacian", build_spy)
    monkeypatch.setattr(spectral, "symmetric_eigen", solve_spy)
    block = verify.SEARCH_BLOCK
    counterexample_search(2 * block + 5, BoundMode.SIMPLIFIED, seed=3)
    trials = verify.seed_graphs()[:4] + graphs
    assert len(trials) == 2 * block + 5 and len(blocks) == 3
    for b, cases in enumerate(blocks):
        # the block's trials with cut vertices, in draw order; the seed
        # graphs are built afresh, so they are compared by their weights
        want = [h for h in trials[b * block : (b + 1) * block] if articulation_points_oracle(h)]
        assert [g.weights.tobytes() for g, _, _ in cases] == [h.weights.tobytes() for h in want]
        assert all(nodes == sorted(articulation_points_oracle(g)) for g, nodes, _ in cases)
    for b, built in solves:
        assert built and all(any(g is h for h, _, _ in blocks[b]) for g in built)
        assert len({g.n for g in built}) == 1
    # a block's trials of one order fit one _BATCH_BYTES stack: one solve each
    assert len(solves) == sum(len({g.n for g, _, _ in cases}) for cases in blocks)


def test_search_without_cut_vertices_solves_nothing(monkeypatch):
    """Trials with no cut vertex hold no violation, so the search builds and solves no matrix."""
    calls = Counter()
    build, solve = spectral.perturbed_laplacian, spectral.symmetric_eigen

    def build_spy(*args):
        calls["build"] += 1
        return build(*args)

    def solve_spy(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    cycle5 = from_edge_list(5, [(k, (k + 1) % 5, 1.0) for k in range(5)])
    k4 = from_edge_list(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    monkeypatch.setattr(verify, "seed_graphs", lambda: [cycle5, k4, cycle5, k4])
    monkeypatch.setattr(spectral, "perturbed_laplacian", build_spy)
    monkeypatch.setattr(spectral, "symmetric_eigen", solve_spy)
    for mode in BoundMode:
        for trials in range(1, 5):
            assert counterexample_search(trials, mode, seed=7) == []
    assert verify.spectral_tests_many([]) == []
    assert calls == Counter()


@pytest.mark.parametrize("n", range(1, 25))
def test_random_graph_matches_the_per_pair_stream(n):
    pairs = n * (n - 1) // 2
    for p in (0.0, 0.3, 0.9, 1.0):
        for seed in range(3):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rng.integers(3, 13), ref.integers(3, 13)  # leaves a buffered 32-bit half
            got = verify.random_graph(rng, n, p)
            want = random_graph_reference(ref, n, p)
            assert got.weights.tobytes() == want.weights.tobytes(), (p, seed)
            if p in (0.0, 1.0):  # every pair draws once at p = 0, twice at p = 1
                fresh = np.random.default_rng(seed)
                fresh.integers(3, 13)
                fresh.random(pairs * (1 if p == 0.0 else 2))
                assert rng.bit_generator.state == fresh.bit_generator.state
            assert rng.random() == ref.random() and rng.integers(1 << 30) == ref.integers(1 << 30)


@pytest.mark.parametrize("draw", [lambda rng, n: verify.random_graph(rng, n, 0.5), verify.random_connected_graph])
@pytest.mark.parametrize("n", [0, -1])
def test_random_graphs_reject_fewer_than_one_node(draw, n):
    with pytest.raises(ValueError, match="need n >= 1"):
        draw(np.random.default_rng(0), n)


def test_random_connected_graph_styles():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown style 'tree'"):
        verify.random_connected_graph(rng, 5, style="tree")
    for style in ("er", "geometric"):
        g = verify.random_connected_graph(rng, 1, style=style)
        assert g.n == 1 and g.weights.tolist() == [[0.0]]


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, 2.0, -math.inf, math.inf])
def test_random_graph_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match="0 <= p <= 1"):
        verify.random_graph(np.random.default_rng(0), 5, p)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "d091cbd02e8a1a6cae1ae1a01d5b03faa41895fde4b49a44c72dc5e00297c617"),
        (1, "8bc875104904aba9921494eef77ef84ef2e0fb536a6a909a6165e04973d22b02"),
    ],
)
def test_suite_corpus_weights_are_pinned(seed, digest):
    """The weight bytes of a 40-graph corpus, as drawn one uniform at a time."""
    h = hashlib.sha256()
    for g in suite_corpus(np.random.default_rng(seed), 40):
        h.update(g.weights.tobytes())
    assert h.hexdigest() == digest


class TestSuite:
    def test_suite_passes_and_is_deterministic(self):
        out1 = run_suite(seed=101, n_graphs=10, trials=20)
        out2 = run_suite(seed=101, n_graphs=10, trials=20)
        assert suite_passed(out1)
        assert [outcome_to_dict(o) for o in out1] == [outcome_to_dict(o) for o in out2]

    def test_simplified_search_reports_witnesses(self):
        out = run_suite(seed=101, n_graphs=6, trials=10)
        by_name = {o.name: o for o in out}
        assert by_name["certificate-search-simplified"].details["witnesses"] > 0
        assert by_name["certificate-search-exact"].details["witnesses"] == 0
        drift = by_name["null-drift-derivative"]
        assert drift.details["candidate_matches"]["none"] == 0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_graphs": -1}, "at least one graph"),
            ({"n_graphs": 0}, "at least one graph"),
            ({"trials": 0}, "at least one trial"),
            ({"tolerances": {"gapp": -1.0}}, r"unknown tolerance names \['gapp'\]"),
        ],
        ids=["graphs-negative", "graphs-zero", "trials-zero", "misspelt-tolerance"],
    )
    def test_bad_arguments_rejected_before_any_check(self, monkeypatch, kwargs, message):
        def no_corpus(*args, **kw):
            raise AssertionError("the suite started before its arguments were checked")

        monkeypatch.setattr(verify, "suite_corpus", no_corpus)
        with pytest.raises(ValueError, match=message):
            run_suite(seed=1, **{"n_graphs": 2, "trials": 2, **kwargs})


def aggregate_reference(name, outcomes):
    """Per-case outcomes folded one by one: the worst by ``max``, the first failure's witness."""
    failed = [c for c in outcomes if not c.passed]
    worst = max(outcomes, key=lambda c: c.max_error, default=None)
    counts = {"cases": len(outcomes), "failures": len(failed)}
    return CheckOutcome(
        name=name,
        passed=not failed,
        max_error=worst.max_error if worst else 0.0,
        witness=failed[0].witness if failed else None,
        details={**(worst.details if worst else {}), **counts},
    )


def hand_built(g, err, passed):
    """Cases of one graph from an (nodes, params) error table; ``tag`` numbers them in order."""
    err = np.array(err, dtype=float)
    params = [{"column": c} for c in range(err.shape[1])]
    tag = np.arange(err.size).reshape(err.shape)
    nodes = list(range(len(err)))
    return verify._Cases("hand-built", g, nodes, params, err, passed, tag=tag, scale=2.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "tables, worst",
    [
        ([([[1.0, 3.0], [3.0, 0.5]], True)], (0, 1)),
        ([([[2.0]], True), ([[0.5, 2.0]], True)], (0, 0)),
        ([([[NAN, 5.0], [1.0, 2.0]], True)], (0, 0)),
        ([([[1.0, NAN, 2.0]], True)], (0, 2)),
        ([([[1.0, NAN, 0.5]], True)], (0, 0)),
        ([([[1.0]], True), ([[NAN, 3.0]], True)], (1, 1)),
        ([([[0.5, 4.0]], [[True, True]]), ([[9.0], [1.0]], [[True], [False]])], (1, 0)),
        ([([[1.0, 2.0]], [[True, False]]), ([[5.0]], [[False]])], (1, 0)),
        ([(np.zeros((0, 2)), True), ([[1.0, 1.0]], [[False, False]])], (1, 0)),
        ([], None),
        ([(np.zeros((0, 3)), True)], None),
    ],
    ids=[
        "tie-keeps-first",
        "tie-across-graphs-keeps-first",
        "leading-nan-is-worst",
        "later-nan-skipped",
        "later-nan-never-worst",
        "nan-first-in-a-later-graph-skipped",
        "witness-in-a-later-graph",
        "witness-of-the-first-failure",
        "graph-without-cases",
        "no-graphs",
        "only-a-graph-without-cases",
    ],
)
def test_aggregate_folds_arrays_as_per_case_outcomes(tables, worst):
    graphs = [path3(), k3()]
    blocks = [hand_built(graphs[b % 2], err, passed) for b, (err, passed) in enumerate(tables)]
    got = _aggregate("hand-built", blocks)
    want = aggregate_reference(
        "hand-built", [c.outcome(k) for c in blocks for k in range(c.err.size)]
    )
    # json.dumps compares NaN errors and the order of keys as well
    assert json.dumps(outcome_to_dict(got)) == json.dumps(outcome_to_dict(want))
    failures = sum(int(np.sum(~c.passed)) for c in blocks)
    assert got.details["cases"] == sum(c.err.size for c in blocks)
    assert got.details["failures"] == failures and got.passed == (failures == 0)
    if worst is None:
        assert got.max_error == 0.0 and got.details == {"cases": 0, "failures": 0}
    else:
        block, tag = worst
        assert got.details["tag"] == tag and got.details["scale"] == 2.0
        assert np.array_equal(got.max_error, blocks[block].err[tag], equal_nan=True)
    if failures:
        first = next(c for c in blocks if not c.passed.all())
        node, column = divmod(int(np.argmin(first.passed)), len(first.params))
        want = {"graph": graph_to_dict(first.g), "node": node, "column": column}
        assert got.witness == want


def match_moving_eigenvalue(actual, stationary):
    """Greedy nearest-value matching of one spectrum, as a scan of Python lists.

    For each expected stationary eigenvalue (largest magnitude first) remove
    the closest remaining actual value; the one value left over is the mover.
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


def test_mover_match_equals_the_scalar_scan_on_tied_spectra():
    rng = np.random.default_rng(41)
    for m in (2, 3, 5, 9):
        # small integers, some zeros negative: exact ties in distance and magnitude
        actual = rng.integers(-3, 4, size=(300, m)) * rng.choice([1.0, -1.0], size=(300, m))
        signs = rng.choice([1.0, -1.0], size=(300, m - 1))
        stationary = rng.integers(-3, 4, size=(300, m - 1)) * signs
        moving, matched = verify._match_movers(actual, stationary)
        for r in range(len(actual)):
            want_moving, want_matched = match_moving_eigenvalue(actual[r], stationary[r])
            assert bits_equal(moving[r], want_moving)
            assert bits_equal(matched[r], want_matched)


def null_drift_reference(case, step):
    """fd_derivative and null_drift of every node, one spectrum at a time."""
    eigs = general_eigen(case.rank_one(np.ones(2), np.array([step, -step]))).real
    movers, null_drift = [], []
    for r, l_null in enumerate(case.null_multiplicity):
        stationary = np.concatenate([np.zeros(l_null - 1), case.lr_eigs[r][l_null:]])
        mover_plus, matched_plus = match_moving_eigenvalue(eigs[r, 0], stationary)
        mover_minus, matched_minus = match_moving_eigenvalue(eigs[r, 1], stationary)
        movers.append(mover_plus - mover_minus)
        drift = np.subtract(matched_plus[: l_null - 1], matched_minus[: l_null - 1]) / (2.0 * step)
        null_drift.append(np.max(np.abs(drift), initial=0.0))
    return np.array(movers)[:, None] / (2.0 * step), np.array(null_drift)[:, None]


def test_null_drift_matches_the_scalar_scan_on_every_node():
    rng = np.random.default_rng(42)
    corpus = verify.seed_graphs() + [
        random_connected_graph(rng, int(rng.integers(3, 14)), style)
        for style in ["er"] * 12 + ["geometric"] * 12
    ]
    multiplicities = []
    for g in corpus:
        case = verify._GraphCase(g, range(g.n))
        multiplicities.append(max(case.null_multiplicity))
        got = verify._null_drift_derivative(case, verify.FD_STEP, verify.DERIVATIVE_TOL)
        derivative, null_drift = null_drift_reference(case, verify.FD_STEP)
        assert bits_equal(got.details["fd_derivative"], derivative)
        assert bits_equal(got.details["null_drift"], null_drift)
    # path3's middle, the bowtie's and the star's centres: repeated zero targets
    assert multiplicities[:3] == [2, 2, 3]


@pytest.mark.parametrize(
    "tolerances", [None, {"spectrum": 0.0, "rank_one": 0.0}], ids=["default", "failing"]
)
def test_suite_builds_a_fixed_number_of_outcomes_per_check(monkeypatch, tolerances):
    built = Counter()

    def outcome_spy(**fields):
        built[fields["name"]] += 1
        return CheckOutcome(**fields)

    monkeypatch.setattr(verify, "CheckOutcome", outcome_spy)
    counts = []
    for n_graphs in (8, 20):
        built.clear()
        run_suite(seed=3, n_graphs=n_graphs, trials=5, tolerances=tolerances)
        counts.append(dict(built))
    assert counts[0] == counts[1]
    # the worst case, the first failure and the aggregate
    assert max(counts[0].values()) <= 3


PER_NODE_CHECKS = (
    "intermediate-spectrum-match",
    "combination-realness",
    "eigenvalue-gap-bound",
    "rank-one-update-spectrum",
    "null-drift-derivative",
)


def per_node_checks_by_public_api(seed, n_graphs, tolerances=None):
    """run_suite's per-node outcomes, rebuilt from one public check_* call per case."""
    tol = {
        "spectrum": verify.SPECTRUM_TOL_FACTOR,
        "realness": verify.REALNESS_TOL_FACTOR,
        "gap": verify.GAP_TOL,
        "rank_one": verify.RANK_ONE_TOL,
        "derivative": verify.DERIVATIVE_TOL,
    }
    tol.update(tolerances or {})
    rng = np.random.default_rng(seed)
    cases = {name: [] for name in PER_NODE_CHECKS}
    for g in suite_corpus(rng, n_graphs):
        ab = rng.uniform(-2.0, 2.0, size=(verify._SUITE_DRAWS, 2))
        for i in range(g.n):
            for eps in verify._SUITE_EPS:
                cases["intermediate-spectrum-match"].append(
                    check_intermediate_spectrum(g, i, eps, tol_factor=tol["spectrum"])
                )
                cases["eigenvalue-gap-bound"].append(
                    check_eigenvalue_gap_bound(g, i, eps, tol=tol["gap"])
                )
            for alpha, beta in ab:
                params = CombinationParams(float(alpha), float(beta), 0.1)
                cases["combination-realness"].append(
                    check_combination_realness(g, i, params, tol_factor=tol["realness"])
                )
            for gamma in verify._SUITE_GAMMAS:
                cases["rank-one-update-spectrum"].append(
                    check_rank_one_update_spectrum(
                        g, i, gamma, verify._SUITE_ETA, tol=tol["rank_one"]
                    )
                )
            cases["null-drift-derivative"].append(
                check_null_drift_derivative(g, i, tol=tol["derivative"])
            )
    out = {name: outcome_to_dict(aggregate_reference(name, c)) for name, c in cases.items()}
    matches = Counter({"trace": 0, "scaled": 0, "none": 0})
    matches.update(c.details["matched_candidate"] for c in cases["null-drift-derivative"])
    out["null-drift-derivative"]["details"]["candidate_matches"] = dict(matches)
    return out


# Zero or negative tolerances make cases fail, so the witnesses and failure
# counts are compared as well.
@pytest.mark.parametrize(
    "tolerances",
    [None, {"spectrum": 0.0, "realness": -1.0, "gap": -1.0, "rank_one": 0.0, "derivative": 0.0}],
    ids=["default", "failing"],
)
@pytest.mark.parametrize("seed", [2, 13])
def test_suite_matches_public_checks(seed, tolerances):
    outcomes = run_suite(seed, n_graphs=8, trials=5, tolerances=tolerances)
    got = {o.name: outcome_to_dict(o) for o in outcomes}
    want = per_node_checks_by_public_api(seed, 8, tolerances=tolerances)
    for name in PER_NODE_CHECKS:
        assert got[name] == want[name], name
    if tolerances:
        assert not any(got[name]["passed"] for name in PER_NODE_CHECKS)


def test_each_case_derived_once(monkeypatch, searched):
    corpus, keep, origin = [], [], {}
    counts = Counter()
    covered = {}
    searches = []

    def corpus_spy(*args, **kwargs):
        graphs = suite_corpus(*args, **kwargs)
        corpus.extend(graphs)
        return graphs

    def reduced_spy(g, i):
        counts["reduced", id(g), i] += 1
        return reduced_graph(g, i)

    def stack_spy(g, nodes):
        m = reduced_laplacians(g, nodes)
        keep.append(m)
        origin[id(m)] = (id(g), tuple(nodes))
        return m

    def eigen_spy(m, *args, **kwargs):
        if id(m) in origin:
            g_id, nodes = origin[id(m)]
            counts["eigen", g_id] += 1
            covered[g_id] = nodes
        return symmetric_eigen(m, *args, **kwargs)

    def reachable_spy(adj, start):
        seen = reachable(adj, start)
        searches.append((np.array(adj), np.array(start), seen))
        return seen

    monkeypatch.setattr(verify, "suite_corpus", corpus_spy)
    for module in (biconcert.bicon, verify):
        monkeypatch.setattr(module, "reduced_graph", reduced_spy)
    monkeypatch.setattr(verify, "reduced_laplacians", stack_spy)
    monkeypatch.setattr(verify, "symmetric_eigen", eigen_spy)
    monkeypatch.setattr(verify, "reachable", reachable_spy)
    assert suite_passed(run_suite(seed=5, n_graphs=8, trials=5))
    assert len(corpus) == 8
    calls = iter(searches)
    for g in corpus:
        # one connectivity search, by the rejection sampler or the suite's
        # precondition; the per-node checks and the DFS side of the
        # articulation-oracle-agreement check search nothing
        assert sum(s is g for s in searched) == 1
        # one stacked eigensolve of the reduced Laplacians, covering every node
        assert counts["eigen", id(g)] == 1
        assert covered[id(g)] == tuple(range(g.n))
        # No reduced graph is built. One component search of the reduced
        # Laplacians' edges reaches every node of each reduced graph once;
        # the brute-force cut vertices and the null-multiplicity cross-check
        # both read its counts. Each stacked round searches, in node order,
        # the reduced graphs not yet fully reached, each from its first
        # unseen node.
        assert all(counts["reduced", id(g), i] == 0 for i in range(g.n))
        want = [reduced_graph(g, i).weights > 0.0 for i in range(g.n)]
        reached = np.zeros((g.n, g.n - 1), dtype=int)
        rest = list(range(g.n))
        while rest:
            adj, start, seen = next(calls)
            assert len(adj) == len(start) == len(seen) == len(rest)
            for member, i in enumerate(rest):
                assert np.array_equal(adj[member], want[i])
                assert start[member] == np.argmin(reached[i])
                reached[i] += seen[member]
            rest = [i for i in rest if not reached[i].all()]
        assert (reached == 1).all()
    assert next(calls, None) is None


def bits_equal(got, want):
    """Equal values, dtypes aside, and equal signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and np.array_equal(got.real, want.real)
        and np.array_equal(got.imag, want.imag)
        and np.array_equal(np.signbit(got.real), np.signbit(want.real))
    )


@pytest.mark.parametrize("seed", range(10))
def test_stacks_match_one_matrix_definitions(seed):
    """Every stacked matrix, norm and spectrum of run_suite, bit for bit against its one-matrix form."""
    rng = np.random.default_rng(seed)
    eps = verify._SUITE_EPS
    rank_one = [(gamma, verify._SUITE_ETA) for gamma in verify._SUITE_GAMMAS]
    rank_one += [(1.0, verify.FD_STEP), (1.0, -verify.FD_STEP)]
    gamma, eta = (np.array(x) for x in zip(*rank_one))
    for g in suite_corpus(rng, 20):
        params = [CombinationParams(*ab, 0.1) for ab in rng.uniform(-2.0, 2.0, size=(5, 2))]
        case = verify._GraphCase(g, range(g.n))
        stacks = {
            "perturbed": case.perturbed(eps),
            "intermediate": case.intermediate(eps),
            "combination": case.combination(params),
            "rank_one": case.rank_one(gamma, eta),
        }
        eigs = {name: general_eigen(m) for name, m in stacks.items()}
        eigs["perturbed"] = symmetric_eigen(stacks["perturbed"])
        norms = {name: verify._frobenius(m) for name, m in stacks.items()}
        norms["gap"] = verify._frobenius(stacks["intermediate"] - case.lr[:, None])
        for r, i in enumerate(case.nodes):
            lr = laplacian(reduced_graph(g, i))
            assert bits_equal(case.lr[r], lr)
            assert bits_equal(case.lr_eigs[r], symmetric_eigen(lr))
            want = {
                "perturbed": [perturbed_laplacian(g, i, PerturbationConfig(x)) for x in eps],
                "intermediate": [intermediate_matrix(g, i, PerturbationConfig(x)) for x in eps],
                "combination": [
                    p.alpha * lr + p.beta * intermediate_matrix(g, i, PerturbationConfig(p.epsilon))
                    for p in params
                ],
                "rank_one": [rank_one_update_matrix(g, i, gm, et) for gm, et in rank_one],
            }
            for name, matrices in want.items():
                solve = symmetric_eigen if name == "perturbed" else general_eigen
                for k, m in enumerate(matrices):
                    assert bits_equal(stacks[name][r, k], m), (name, i, k)
                    assert bits_equal(eigs[name][r, k], solve(m)), (name, i, k)
                    assert norms[name][r, k] == np.linalg.norm(m), (name, i, k)
            for k, m in enumerate(want["intermediate"]):
                assert norms["gap"][r, k] == np.linalg.norm(m - lr)


def test_counterexample_search_skips_per_node_connectivity(monkeypatch, searched):
    graphs = verify.seed_graphs()
    monkeypatch.setattr(verify, "seed_graphs", lambda: graphs)
    counterexample_search(len(graphs), BoundMode.SIMPLIFIED, seed=5)
    assert [sum(s is g for s in searched) for g in graphs] == [1] * len(graphs)
