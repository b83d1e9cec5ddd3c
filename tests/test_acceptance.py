"""Acceptance criteria: golden instances, census guarantees, property suites,
oracle agreement, exact interval optimality, baseline ordering, and noise-trend checks.

Each test prints one PASS line with its measured quantities (visible with
``pytest -s`` or on failure).  Tolerances and trial counts are pinned here.
"""

import math
import time

import numpy as np
import pytest

from losstree import (
    ExperimentConfig,
    IntervalObservation,
    MIN_L0,
    MIN_L1,
    MIN_L1_AMONG_L0,
    addloss,
    build_tree,
    closed_form,
    compare_with_sparse_recovery,
    forward,
    gen_random_tree,
    gen_regular_tree,
    gen_ternary_tree,
    l1_sampling_check,
    lemma1_construct,
    local_min_l0,
    local_min_l1,
    noisy_exact_check,
    recovery_condition,
    run_experiment,
    sample_feasible,
    sparsest_enumerate,
    uniqueness_census,
    upsparse,
    upsparse_plus,
)
from losstree.noisy import MODES
from losstree.oracle import SupportScanner

INF = math.inf


def _best_time(fn, repeats=10):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _tree_pool(count, seed, n_cap, m_range, max_branching=3):
    """Random trees with at most n_cap links (rejection over seeds)."""
    rng = np.random.default_rng(seed)
    trees = []
    while len(trees) < count:
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        tree = gen_random_tree(m, max_branching, int(rng.integers(0, 2**31)))
        if tree.n <= n_cap:
            trees.append(tree)
    return trees


def test_criterion_01_measurement_matrix_golden():
    def build():
        tree = build_tree([(4, 0), (5, 4), (3, 4), (1, 5), (2, 5)], root=0)
        return forward(tree, np.eye(tree.n)).T

    a = build()
    expected = np.array([[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])
    assert np.array_equal(a, expected)
    elapsed = _best_time(build)
    assert elapsed < 1e-3
    print(f"PASS 1: golden matrix exact, build time {elapsed * 1e6:.0f} us")


def test_criterion_02_local_interval_goldens():
    def analyze():
        return (
            local_min_l0([0, 3, 5], [2, INF, INF]),
            local_min_l1([0, 3, 5], [2, INF, INF]),
            local_min_l0([1, 3, 5], [6, INF, INF]),
            local_min_l1([1, 3, 5], [6, INF, INF]),
            local_min_l0([1, 3, 5], [4, 4, 6]),
            local_min_l1([1, 3, 5], [4, 4, 6]),
        )

    b0, b1, c0, c1, d0, d1 = analyze()
    tol = 1e-12
    # Bounded-first-interval instance: sparsity and l1 optima differ.
    assert np.abs(b0.solution - [0, 3, 5, 0]).max() <= tol
    assert np.abs(b1.solution - [0, 1, 3, 2]).max() <= tol
    # One-sided instance: the dual optimum is the single point x = 5.
    dual_lo = max(c0.x_lo, c1.x_lo)
    dual_hi = min(c0.x_hi, c1.x_hi)
    assert abs(dual_lo - 5.0) <= tol and abs(dual_hi - 5.0) <= tol
    # Box instance: both norms shared over [3, 4].
    assert abs(d0.x_lo - 3.0) <= tol and abs(d0.x_hi - 4.0) <= tol
    assert abs(d1.x_lo - 3.0) <= tol and abs(d1.x_hi - 4.0) <= tol
    assert abs(d0.x_star - 3.0) <= tol  # largest lower bound within the cap
    assert abs(d1.x_star - 4.0) <= tol  # l1 threshold
    elapsed = _best_time(analyze)
    assert elapsed < 1e-3
    print(f"PASS 2: interval goldens exact, analysis time {elapsed * 1e6:.0f} us")


def test_criterion_03_census_guaranteed_unique_low_sparsity():
    tree = gen_ternary_tree(13)
    t0 = time.perf_counter()
    for k in (1, 2):
        res = uniqueness_census(tree, K=k, trials=500, seed=20260810)
        assert res.trials == 500
        assert res.p_unique == 1.0, f"K={k} p_unique={res.p_unique}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS 3: 13-link ternary census K in {{1,2}} all unique ({elapsed:.1f}s)")


def test_criterion_04_census_25_link_ternary():
    tree = gen_ternary_tree(25)
    assert (tree.n, tree.m) == (25, 17)
    t0 = time.perf_counter()
    res = uniqueness_census(tree, K=4, trials=500, seed=4)
    elapsed = time.perf_counter() - t0
    assert 0.90 <= res.p_unique <= 1.00, f"p_unique={res.p_unique}"
    assert elapsed < 300.0
    print(
        f"PASS 4: 25-link ternary census K=4 p_unique={res.p_unique} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_05_oracle_equivalence_suite():
    rng = np.random.default_rng(5)
    trees = _tree_pool(50, seed=55, n_cap=15, m_range=(2, 8))
    t0 = time.perf_counter()
    checked = 0
    for tree in trees:
        scanner = SupportScanner(tree)
        for i in range(10):
            if i % 2 == 0:
                x = np.zeros(tree.n)
                k = int(rng.integers(1, 5))
                sup = rng.choice(tree.n, size=min(k, tree.n), replace=False)
                x[sup] = rng.uniform(0.01, 0.2, size=len(sup))
            else:
                x = np.where(
                    rng.random(tree.n) < 0.5, rng.uniform(0.01, 0.2, tree.n), 0.0
                )
            y = forward(tree, x)
            report = upsparse(tree, y)
            enum = sparsest_enumerate(tree, y, scanner=scanner)
            assert enum.k_star == report.l0, (tree.n, y)
            if enum.unique:
                assert np.abs(enum.solutions[0] - report.x).max() <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 500
    assert elapsed < 120.0
    print(f"PASS 5: oracle equals solver on {checked} instances ({elapsed:.1f}s)")


def test_criterion_06_property_suite():
    rng = np.random.default_rng(6)
    trees = _tree_pool(40, seed=66, n_cap=20, m_range=(2, 8), max_branching=4)

    # Start independence: 100 instances x 10 feasible starts.
    cases = 0
    for tree in trees[:20]:
        for _ in range(5):
            y = np.where(rng.random(tree.m) < 0.8, rng.uniform(0.0, 1.0, tree.m), 0.0)
            baseline = upsparse(tree, y).x
            for _ in range(10):
                x0 = sample_feasible(tree, y, rng)
                assert np.abs(upsparse(tree, y, x0=x0).x - baseline).max() <= 1e-9
                cases += 1
    assert cases == 1000

    # Idempotence and the path-count sparsity bound: 1000 instances.
    cases = 0
    for tree in trees:
        for _ in range(25):
            y = rng.uniform(0.0, 1.0, tree.m)
            report = upsparse(tree, y)
            again = upsparse(tree, y, x0=report.x)
            assert np.abs(again.x - report.x).max() <= 1e-12
            assert report.l0 <= tree.m
            cases += 1
    assert cases == 1000

    # Norm minimality against 1000 distinct feasible samples: l1 strictly
    # below any other solution, l0 never above.
    cases = 0
    for tree in trees[:10]:
        for _ in range(5):
            y = rng.uniform(0.1, 1.0, tree.m)
            report = upsparse(tree, y)
            l1_star = report.x.sum()
            for _ in range(20):
                x_s = sample_feasible(tree, y, rng)
                if np.abs(x_s - report.x).max() > 1e-9:
                    assert x_s.sum() > l1_star
                assert report.l0 <= (x_s > 1e-9).sum()
                cases += 1
    assert cases == 1000

    # Lossless-child condition implies exact recovery: 1000 planted truths.
    cases = 0
    while cases < 1000:
        tree = trees[cases % len(trees)]
        k = int(rng.integers(1, max(2, tree.n // 3)))
        x_true = np.zeros(tree.n)
        sup = rng.choice(tree.n, size=k, replace=False)
        x_true[sup] = rng.uniform(0.01, 0.3, size=k)
        if not recovery_condition(tree, x_true):
            continue
        x_hat = upsparse(tree, forward(tree, x_true)).x
        assert np.abs(x_hat - x_true).max() <= 1e-9
        cases += 1

    # Interval solver: exact noiseless reduction, 1000 (instance, mode) cases.
    cases = 0
    for tree in trees:
        for _ in range(9):
            y = forward(
                tree,
                np.where(rng.random(tree.n) < 0.4, rng.uniform(0.01, 0.3, tree.n), 0.0),
            )
            x_star = closed_form(tree, y)
            for mode in MODES:
                sol = upsparse_plus(tree, IntervalObservation.exact(y), mode)
                assert np.array_equal(sol.x, x_star)
                cases += 1
    assert cases >= 1000

    # Interval solver feasibility in every mode: 1000 (instance, mode) cases.
    cases = 0
    for tree in trees:
        for _ in range(9):
            lo = rng.uniform(0.0, 1.0, tree.m) * (rng.random(tree.m) < 0.8)
            hi = np.where(
                rng.random(tree.m) < 0.25, INF, lo + rng.uniform(0.0, 0.8, tree.m)
            )
            iv = IntervalObservation(lo=lo, hi=hi)
            for mode in MODES:
                sol = upsparse_plus(tree, iv, mode)
                assert sol.x.min() >= 0.0
                assert iv.contains(sol.y)
                assert np.abs(forward(tree, sol.x) - sol.y).max() <= 1e-9
                cases += 1
    assert cases >= 1000

    # Null-difference constructions: 1000 random (tree, node, K, w).
    cases = 0
    while cases < 1000:
        tree = trees[cases % len(trees)]
        node = int(rng.integers(tree.m + 1, tree.n + 1))
        g_out = len(tree.children[node])
        K = g_out + int(rng.integers(0, 3))
        w = float(rng.uniform(0.1, 2.0))
        try:
            u, v = lemma1_construct(tree, node, K, w)
        except Exception:
            continue
        assert (u > 0).sum() == K
        assert (v > 0).sum() <= K
        assert np.array_equal(forward(tree, u), forward(tree, v))
        cases += 1

    print("PASS 6: property suite, 7 families x >= 1000 randomized cases")


def test_criterion_07_noisy_grid_optimality():
    rng = np.random.default_rng(7)
    trees = _tree_pool(20, seed=77, n_cap=8, m_range=(2, 6))
    t0 = time.perf_counter()
    for tree in trees:
        lo = rng.uniform(0.0, 1.0, tree.m) * (rng.random(tree.m) < 0.7)
        hi = np.where(
            rng.random(tree.m) < 0.25, INF, lo + rng.uniform(0.0, 1.0, tree.m)
        )
        iv = IntervalObservation(lo=lo, hi=hi)
        sol0 = upsparse_plus(tree, iv, MIN_L0)
        assert noisy_exact_check(tree, iv, sol0), (
            f"sparsity beaten on n={tree.n}"
        )
        sol1 = upsparse_plus(tree, iv, MIN_L1)
        assert noisy_exact_check(tree, iv, sol1, tol=1e-6), (
            f"l1 beaten on n={tree.n}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS 7: interval solver unbeaten by the exact program on 20 trees ({elapsed:.1f}s)")


def test_criterion_08_binary_baseline_never_wins():
    tree = gen_ternary_tree(13)
    rates = []
    for K in range(1, 10):
        p_scfs, p_sparse = compare_with_sparse_recovery(
            tree, K=K, trials=300, seed=8
        )
        assert p_scfs <= p_sparse, f"K={K}: scfs {p_scfs} > solver {p_sparse}"
        rates.append((K, p_scfs, p_sparse))
    print("PASS 8: binary baseline <= sparse recovery at every K:", rates)


def test_criterion_09_probe_noise_trends():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        tree="ternary:13",
        k_values=list(range(1, 10)),
        probe_counts=[1000, 10000],
        reps=100,
        mode="upsparse",
        seed=9,
    )
    rows = run_experiment(cfg)
    by_cell = {(r.K, r.probes): r for r in rows}
    for K in range(1, 10):
        e2_small = by_cell[(K, 1000)].e2_mean
        e2_large = by_cell[(K, 10000)].e2_mean
        assert e2_large < e2_small, f"K={K}: e2 {e2_large} !< {e2_small}"
    for K in range(1, 5):
        e0 = by_cell[(K, 10000)].e0_mean
        assert e0 >= 0.8, f"K={K}: e0={e0}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"PASS 9: e2 shrinks with probes at every K; e0 high for K<=4 ({elapsed:.1f}s)")


def test_criterion_10_interval_width_effect():
    rows = {}
    for width in (0.005, 0.05):
        cfg = ExperimentConfig(
            tree="ternary:13",
            k_values=list(range(1, 10)),
            probe_counts=[1000],
            reps=100,
            mode=MIN_L1_AMONG_L0,
            interval_mode="cover",
            cover_halfwidth=width,
            seed=10,
        )
        rows[width] = {r.K: r for r in run_experiment(cfg)}
    for K in range(1, 10):
        narrow = rows[0.005][K].e2_mean
        wide = rows[0.05][K].e2_mean
        assert wide >= narrow, f"K={K}: wide e2 {wide} < narrow e2 {narrow}"
    print("PASS 10: wider guaranteed-cover intervals never reduce e2")
