"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. The corpora are seeded and deterministic: 500 connected graphs on
3..20 nodes for the spectral identities, 1000 connected graphs on 3..30 nodes
for certificate soundness, alternating uniform-probability and disk-model
topologies with weights in (0, 1].
"""

import json
import math
import time

import numpy as np
import pytest

from biconcert import (
    BoundMode,
    CombinationParams,
    PerturbationConfig,
    articulation_points_bruteforce,
    articulation_points_oracle,
    check_combination_realness,
    check_eigenvalue_gap_bound,
    check_intermediate_spectrum,
    check_null_drift_derivative,
    check_rank_one_update_spectrum,
    counterexample_search,
    doubly_connected_oracle,
    from_edge_list,
    graph_from_dict,
    is_biconnected_oracle,
    is_connected_bfs,
    is_connected_spectral,
    locally_biconnected,
    random_connected_graph,
    random_graph,
    simplified_bound,
    spectral_certificate,
)
from biconcert.verify import outcome_to_dict

EPS_SPECTRAL = (1e-3, 1e-2, 0.1, 1.0)
EPS_SOUNDNESS = (1e-3, 1e-2, 1e-1)


def _corpus(seed, count, n_lo, n_hi):
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(count):
        style = "geometric" if k % 2 else "er"
        graphs.append(random_connected_graph(rng, int(rng.integers(n_lo, n_hi + 1)), style=style))
    return graphs


@pytest.fixture(scope="module")
def corpus500():
    return _corpus(20260501, 500, 3, 20)


@pytest.fixture(scope="module")
def corpus1000():
    return _corpus(20260502, 1000, 3, 30)


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_intermediate_spectrum_equality(corpus500):
    t0 = time.time()
    failures = 0
    cases = 0
    for g in corpus500:
        for i in range(g.n):
            for eps in EPS_SPECTRAL:
                cases += 1
                if not check_intermediate_spectrum(g, i, eps).passed:
                    failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 240.0
    _report(
        1,
        ok,
        f"intermediate vs perturbed-Laplacian spectrum match on {cases} cases "
        f"(500 graphs x all nodes x 4 epsilon), tol 1e-7*max(1,||L||), "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_02_combination_realness(corpus500):
    rng = np.random.default_rng(20260503)
    failures = 0
    cases = 0
    for g in corpus500:
        draws = rng.uniform(-2.0, 2.0, size=(20, 2))
        eps_draws = rng.choice(EPS_SPECTRAL, size=20)
        for (alpha, beta), eps in zip(draws, eps_draws):
            if alpha == 0.0 and beta == 0.0:
                continue
            params = CombinationParams(float(alpha), float(beta), float(eps))
            for i in range(g.n):
                cases += 1
                if not check_combination_realness(g, i, params).passed:
                    failures += 1
    _report(
        2,
        failures == 0,
        f"real spectrum of alpha*L_reduced + beta*P on {cases} cases "
        f"(20 draws per graph, all nodes), tol 1e-7*max(1,||F||), {failures} failures",
    )


def test_criterion_03_gap_bound(corpus500):
    failures = 0
    cases = 0
    for g in corpus500:
        for i in range(g.n):
            for eps in EPS_SPECTRAL:
                cases += 1
                if not check_eigenvalue_gap_bound(g, i, eps, tol=1e-9).passed:
                    failures += 1
    _report(
        3,
        failures == 0,
        f"rank-paired eigenvalue gap <= Frobenius norm + 1e-9 on {cases} cases, "
        f"{failures} failures",
    )


def test_criterion_04_exact_mode_soundness(corpus1000):
    violations = 0
    certified = 0
    for g in corpus1000:
        points = articulation_points_oracle(g)
        for eps in EPS_SOUNDNESS:
            cfg = PerturbationConfig(eps)
            for i in range(g.n):
                cert = spectral_certificate(g, i, cfg, BoundMode.EXACT_NORM)
                if cert.certified:
                    certified += 1
                    if i in points:
                        violations += 1
    # published-style arithmetic: eps 0.05, n 10, root-sum-square 0.062
    a = np.zeros(9)
    a[0] = 0.062
    arithmetic_ok = abs(simplified_bound(0.05, 10, a) - 0.0098) <= 1e-4
    ok = violations == 0 and certified > 0 and arithmetic_ok
    _report(
        4,
        ok,
        f"exact-norm certificates sound on 1000 graphs x 3 epsilon "
        f"({certified} certificates, {violations} violations); "
        f"0.05*sqrt(10)*0.062 ~ 0.0098 within 1e-4: {arithmetic_ok}",
    )


def test_criterion_05_simplified_bound_discrepancy():
    witnesses = counterexample_search(50, BoundMode.SIMPLIFIED, seed=20260504)
    path3_hits = [
        w
        for w in witnesses
        if w["node"] == 1 and graph_from_dict(w["graph"]).n == 3
    ]
    g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    eps = 0.01
    cert = spectral_certificate(g, 1, PerturbationConfig(eps), BoundMode.SIMPLIFIED)
    hand_ok = (
        abs(cert.lambda3_perturbed - 3.0 * eps) <= 1e-12
        and abs(cert.test.simplified_bound - eps * math.sqrt(6.0)) <= 1e-12
        and abs(cert.test.exact_norm_bound - eps * math.sqrt(10.0)) <= 1e-12
        and cert.certified
        and 1 in articulation_points_oracle(g)
    )
    exact_cert = spectral_certificate(g, 1, PerturbationConfig(eps), BoundMode.EXACT_NORM)
    ok = bool(witnesses) and bool(path3_hits) and hand_ok and not exact_cert.certified
    _report(
        5,
        ok,
        f"simplified constant certifies the unit-path cut vertex "
        f"({len(witnesses)} witnesses, {len(path3_hits)} on the 3-path); hand values "
        f"lambda3=3eps, sqrt(6)eps, sqrt(10)eps reproduced to 1e-12: {hand_ok}",
    )


def test_criterion_06_local_shortcut_soundness(corpus1000):
    violations = 0
    locally = 0
    for g in corpus1000:
        points = articulation_points_oracle(g)
        for i in range(g.n):
            if locally_biconnected(g, i):
                locally += 1
                if i in points:
                    violations += 1
    _report(
        6,
        violations == 0 and locally > 0,
        f"locally-biconnected nodes never articulation points "
        f"({locally} positives, {violations} violations)",
    )


def test_criterion_07_doubly_connected_equivalence(corpus1000):
    small = [g for g in corpus1000 if g.n <= 8]
    mismatches = 0
    for g in small:
        all_pairs = all(
            doubly_connected_oracle(g, i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if all_pairs != is_biconnected_oracle(g):
            mismatches += 1
    _report(
        7,
        mismatches == 0 and len(small) > 0,
        f"biconnected (oracle) <=> all pairs doubly connected (max flow) on "
        f"{len(small)} graphs with n <= 8, {mismatches} mismatches",
    )


def test_criterion_08_rank_one_update_spectrum(corpus500):
    failures = 0
    cases = 0
    for g in corpus500:
        for i in range(g.n):
            for gamma in (0.5, 1.0, 2.0):
                cases += 1
                out = check_rank_one_update_spectrum(g, i, gamma, 1e-3, tol=1e-7)
                if not out.passed:
                    failures += 1
    _report(
        8,
        failures == 0,
        f"rank-one update spectrum (scaled nonnull + preserved null cluster + one "
        f"positive mover) on {cases} cases at eta=1e-3, {failures} failures",
    )


def test_criterion_09_null_drift_derivative_report(corpus500):
    def run(graphs):
        results = []
        for g in graphs:
            for i in range(g.n):
                out = check_null_drift_derivative(g, i)
                results.append(
                    {
                        "n": g.n,
                        "node": i,
                        "matched": out.details["matched_candidate"],
                        "derivative": out.details["fd_derivative"],
                    }
                )
        return results

    full = run(corpus500)
    matches = {"trace": 0, "scaled": 0, "none": 0}
    for r in full:
        matches[r["matched"]] += 1
    rerun = run(corpus500[:60])
    deterministic = json.dumps(rerun, sort_keys=True) == json.dumps(
        run(corpus500[:60]), sort_keys=True
    )
    completed = len(full) == sum(g.n for g in corpus500)
    _report(
        9,
        deterministic and completed,
        f"null-drift derivative report over {len(full)} cases: candidate matches "
        f"{matches} (informational), deterministic rerun: {deterministic}",
    )


def test_criterion_10_oracle_self_consistency(corpus1000):
    dfs_mismatches = sum(
        1
        for g in corpus1000
        if articulation_points_oracle(g) != articulation_points_bruteforce(g)
    )
    rng = np.random.default_rng(20260505)
    conn_mismatches = 0
    seen_disconnected = 0
    for _ in range(1000):
        g = random_graph(rng, int(rng.integers(2, 31)), float(rng.uniform(0.0, 0.6)))
        bfs = is_connected_bfs(g)
        if not bfs:
            seen_disconnected += 1
        if is_connected_spectral(g, 1e-9) != bfs:
            conn_mismatches += 1
    ok = dfs_mismatches == 0 and conn_mismatches == 0 and seen_disconnected > 0
    _report(
        10,
        ok,
        f"DFS articulation oracle == brute force on 1000 graphs "
        f"({dfs_mismatches} mismatches); spectral == BFS connectivity on 1000 "
        f"random graphs incl. {seen_disconnected} disconnected ({conn_mismatches} mismatches)",
    )
