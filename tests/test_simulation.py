"""Probe simulation, interval construction, metrics, and the experiment driver."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from losstree import (
    ExperimentConfig,
    addloss,
    confidence_intervals,
    cover_intervals,
    forward,
    gen_regular_tree,
    inverse_addloss,
    metrics,
    run_experiment,
    simulate_probes,
    write_experiment_csv,
)
from losstree.errors import ConfigInvalid, OutOfDomain, ParameterOutOfRange
from losstree.simulation import _t_quantile, path_loss_probabilities
from losstree.topology import build_tree


@pytest.fixture
def chain_free_tree():
    """Two-leaf tree; the closest legal shape to a single measured path."""
    return build_tree([(3, 0), (1, 3), (2, 3)], root=0)


class TestSimulateProbes:
    def test_lossless_network_sees_no_losses(self, fig_tree):
        run = simulate_probes(fig_tree, np.zeros(5), probes=1000, seed=0)
        assert run.losses.sum() == 0
        assert np.array_equal(run.y_hat, np.zeros(3))

    def test_estimates_concentrate(self, chain_free_tree):
        # One lossy link at 10%: a million probes pin the estimate tightly.
        b = np.array([0.0, 0.0, 0.1])
        run = simulate_probes(chain_free_tree, b, probes=10**6, seed=1)
        assert 0.099 <= run.p_hat[0] <= 0.101
        assert 0.099 <= run.p_hat[1] <= 0.101

    def test_estimates_approach_truth_with_more_probes(self, fig_tree):
        b = np.zeros(5)
        b[[0, 3]] = [0.05, 0.08]
        p = path_loss_probabilities(fig_tree, b)
        errors = []
        for probes in (10**3, 10**4, 10**5):
            run = simulate_probes(fig_tree, b, probes=probes, seed=2)
            errors.append(np.abs(run.p_hat - p).max())
        assert errors[2] < errors[0]

    def test_deterministic_given_seed(self, fig_tree):
        b = np.full(5, 0.03)
        a = simulate_probes(fig_tree, b, probes=500, seed=7)
        c = simulate_probes(fig_tree, b, probes=500, seed=7)
        assert np.array_equal(a.losses, c.losses)

    def test_path_probability_is_product_complement(self, fig_tree):
        b = np.array([0.1, 0.0, 0.2, 0.05, 0.0])
        p = path_loss_probabilities(fig_tree, b)
        assert p[0] == pytest.approx(1 - 0.9 * 0.95)
        assert p[2] == pytest.approx(1 - 0.8 * 0.95)
        # Consistent with the additive model.
        assert np.allclose(addloss(p), forward(fig_tree, addloss(b)))

    @pytest.mark.parametrize(
        "b", [[0.1, 0.0], [0.1, 0.0, 0.0, 0.0, 0.0, 0.0], [0.1, 1.0, 0.0, 0.0, 0.0],
              [-0.1, 0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0, 0.0]],
    )
    def test_path_probability_rejects_bad_links(self, fig_tree, b):
        with pytest.raises(OutOfDomain):
            path_loss_probabilities(fig_tree, b)

    def test_counts_fit_binomial_distribution(self, chain_free_tree):
        # Chi-square goodness of fit at 1% on pooled counts.
        b = np.array([0.0, 0.0, 0.3])
        n, runs = 40, 400
        rng_seeds = range(runs)
        counts = np.array(
            [simulate_probes(chain_free_tree, b, n, seed=s).losses[0] for s in rng_seeds]
        )
        edges = [-0.5, 8.5, 10.5, 12.5, 14.5, 40.5]
        observed, _ = np.histogram(counts, bins=edges)
        cdf = stats.binom.cdf(np.array(edges), n, 0.3)
        expected = np.diff(cdf) * runs
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.99, len(observed) - 1)

    @pytest.mark.parametrize("shape", [(2, 2, 5), (2, 6), (2, 4)])
    def test_batch_of_links_must_be_rows_of_n(self, fig_tree, shape):
        b = np.zeros(shape)
        with pytest.raises(OutOfDomain, match="need 5 link loss probabilities"):
            path_loss_probabilities(fig_tree, b)
        with pytest.raises(OutOfDomain, match="need 5 link loss probabilities"):
            simulate_probes(fig_tree, b, 10, [0, 1])
        with pytest.raises(OutOfDomain, match="need 5 link loss probabilities"):
            cover_intervals(fig_tree, b, 0.01)

    def test_empty_batch(self, fig_tree):
        run = simulate_probes(fig_tree, np.zeros((0, 5)), 10, [])
        assert run.losses.shape == (0, 3) and run.losses.dtype == np.int64

    @pytest.mark.parametrize("seed", [[0], [0, 1, 2], 0, None])
    def test_one_seed_per_row(self, fig_tree, seed):
        with pytest.raises(ParameterOutOfRange, match="one seed for each of the 2 rows"):
            simulate_probes(fig_tree, np.zeros((2, 5)), 10, seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_must_be_a_whole_number(self, fig_tree, seed):
        with pytest.raises(ParameterOutOfRange, match="seed must be a whole number"):
            simulate_probes(fig_tree, np.zeros(5), 10, seed=seed)
        with pytest.raises(ParameterOutOfRange, match="seed must be a whole number"):
            simulate_probes(fig_tree, np.zeros((2, 5)), 10, [0, seed])

    def test_needs_at_least_one_probe(self, fig_tree):
        with pytest.raises(ParameterOutOfRange):
            simulate_probes(fig_tree, np.zeros(5), probes=0, seed=0)

    @pytest.mark.parametrize("probes", [2.5, 1.0, True, "10"])
    def test_probe_count_must_be_an_integer(self, fig_tree, probes):
        with pytest.raises(ParameterOutOfRange, match="whole number of probes"):
            simulate_probes(fig_tree, np.zeros(5), probes=probes, seed=0)

    def test_probe_count_fits_the_binomial_draw(self, fig_tree):
        """Counts above 2**63 - 1 are refused, not passed on to overflow in numpy."""
        with pytest.raises(ParameterOutOfRange, match=r"1\.\.2\*\*63 - 1, got 9223372036854775808"):
            simulate_probes(fig_tree, np.zeros(5), probes=2**63, seed=0)
        run = simulate_probes(fig_tree, np.zeros(5), probes=2**63 - 1, seed=0)
        assert run.probes == 2**63 - 1 and not run.losses.any()

    def test_numpy_integer_probe_count(self, fig_tree):
        run = simulate_probes(fig_tree, np.full(5, 0.1), probes=np.int64(50), seed=0)
        assert run.probes == 50
        assert np.array_equal(run.losses, simulate_probes(fig_tree, np.full(5, 0.1), 50, 0).losses)


class TestConfidenceIntervals:
    def test_half_width_formula(self, chain_free_tree):
        # 5% estimated loss over 1000 probes at 90% confidence.
        run = simulate_probes(chain_free_tree, [0.0, 0.0, 0.05], probes=1000, seed=3)
        run.p_hat = np.array([0.05, 0.05])
        run.losses = np.array([50, 50])
        iv = confidence_intervals(run, level=0.90)
        lo_p = inverse_addloss(iv.lo)
        hi_p = inverse_addloss(iv.hi)
        half = (hi_p[0] - lo_p[0]) / 2
        assert half == pytest.approx(0.011346893472928141, abs=1e-9)

    def test_zero_count_pins_lower_end(self, chain_free_tree):
        run = simulate_probes(chain_free_tree, np.zeros(3), probes=100, seed=4)
        iv = confidence_intervals(run, level=0.9)
        assert np.array_equal(iv.lo, np.zeros(2))
        assert np.array_equal(iv.hi, np.zeros(2))  # degenerate at p_hat = 0

    def test_full_loss_unbounded_upper(self, chain_free_tree):
        run = simulate_probes(chain_free_tree, [0.0, 0.0, 0.5], probes=20, seed=5)
        run.losses = np.array([20, 20])
        run.p_hat = np.array([1.0, 1.0])
        iv = confidence_intervals(run, level=0.9)
        assert math.isinf(iv.hi[0])
        assert np.all(np.isfinite(iv.lo))

    def test_wider_levels_widen_intervals(self, chain_free_tree):
        run = simulate_probes(chain_free_tree, [0.0, 0.0, 0.2], probes=500, seed=6)
        widths = []
        for level in (0.8, 0.9, 0.99):
            iv = confidence_intervals(run, level)
            widths.append((iv.hi - iv.lo).max())
        assert widths[0] < widths[1] < widths[2]

    def test_t_intervals_need_two_probes(self, chain_free_tree):
        run = simulate_probes(chain_free_tree, [0.0, 0.0, 0.5], probes=1, seed=0)
        with pytest.raises(ParameterOutOfRange, match="at least 2 probes, got 1"):
            confidence_intervals(run, level=0.9)

    def test_stacked_run_gives_each_rows_intervals(self, fig_tree):
        b = np.full((6, 5), 0.04)
        run = simulate_probes(fig_tree, b, 30, seed=list(range(6)))
        runs = [simulate_probes(fig_tree, row, 30, seed=s) for s, row in enumerate(b)]
        assert np.array_equal(run.losses, [r.losses for r in runs])
        for losses, p_hat in [(run.losses[0], run.p_hat[0]), (runs[0].losses, runs[0].p_hat)]:
            losses[:] = 0  # a zero count
            p_hat[:] = 0.0
        for losses, p_hat in [(run.losses[1], run.p_hat[1]), (runs[1].losses, runs[1].p_hat)]:
            losses[0] = 30  # a full-loss count
            p_hat[0] = 1.0
        stacked = confidence_intervals(run, 0.9)
        assert stacked.lo.shape == stacked.hi.shape == (6, 3)
        for row, run in enumerate(runs):
            single = confidence_intervals(run, 0.9)
            assert np.array_equal(stacked.lo[row], single.lo)
            assert np.array_equal(stacked.hi[row], single.hi)

    def test_level_domain(self, chain_free_tree):
        run = simulate_probes(chain_free_tree, np.zeros(3), probes=10, seed=7)
        with pytest.raises(ParameterOutOfRange):
            confidence_intervals(run, level=1.0)

    @pytest.mark.parametrize("level", ["x", None, [0.9], math.nan])
    def test_level_must_be_a_number(self, chain_free_tree, level):
        run = simulate_probes(chain_free_tree, np.zeros(3), probes=10, seed=7)
        with pytest.raises(ParameterOutOfRange, match="confidence level must be a number"):
            confidence_intervals(run, level)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_t_quantile_matches_scipy_stats(self, level):
        ns = [*range(2, 2001), 10**4, 10**5, 10**6]
        expected = stats.t.ppf((1 + level) / 2, np.array(ns) - 1)
        got = np.array([_t_quantile(level, n) for n in ns])
        assert np.array_equal(got, expected)  # exact, not approximate

    def test_t_quantile_is_cached(self):
        _t_quantile(0.9, 1000)
        hits = _t_quantile.cache_info().hits
        assert _t_quantile(0.9, 1000) == stats.t.ppf(0.95, 999)
        assert _t_quantile.cache_info().hits == hits + 1


class TestCoverIntervals:
    def test_true_observation_always_inside(self, fig_tree):
        rng = np.random.default_rng(8)
        for _ in range(50):
            b = np.where(rng.random(5) < 0.5, rng.uniform(0.01, 0.1, 5), 0.0)
            y_true = forward(fig_tree, addloss(b))
            for w in (0.0, 0.005, 0.05):
                assert cover_intervals(fig_tree, b, w).contains(y_true, tol=1e-12)

    def test_batch_gives_each_rows_intervals(self, fig_tree):
        b = np.random.default_rng(9).uniform(0.0, 0.2, (4, 5))
        stacked = cover_intervals(fig_tree, b, 0.01)
        for row in range(4):
            single = cover_intervals(fig_tree, b[row], 0.01)
            assert np.array_equal(stacked.lo[row], single.lo)
            assert np.array_equal(stacked.hi[row], single.hi)

    def test_wider_cover_is_a_superset(self, fig_tree):
        b = np.array([0.05, 0.0, 0.0, 0.02, 0.0])
        narrow = cover_intervals(fig_tree, b, 0.005)
        wide = cover_intervals(fig_tree, b, 0.05)
        assert np.all(wide.lo <= narrow.lo)
        assert np.all(wide.hi >= narrow.hi)


class TestMetrics:
    def test_perfect_recovery(self):
        b = np.array([0.1, 0.0, 0.05])
        m = metrics(b, b)
        assert m.e0 == 1.0
        assert m.e2 == 0.0

    def test_empty_estimate(self):
        m = metrics(np.array([0.1, 0.0]), np.zeros(2))
        assert m.e0 == 0.0
        assert m.e2 == 1.0

    def test_disjoint_supports_equal_norms(self):
        m = metrics(np.array([0.1, 0.0]), np.array([0.0, 0.1]))
        assert m.e0 == 0.0
        assert m.e2 == pytest.approx(math.sqrt(2))

    def test_partial_credit(self):
        m = metrics(np.array([0.1, 0.2, 0.0]), np.array([0.1, 0.0, 0.0]))
        assert m.e0 == pytest.approx(0.5)

    def test_zero_truth_flagged(self):
        m = metrics(np.zeros(3), np.array([0.1, 0.0, 0.0]))
        assert m.true_norm_zero
        assert m.e2 == pytest.approx(0.1)
        assert m.e0 == 0.0

    def test_vector_scores_are_python_scalars(self):
        m = metrics([0.1, 0.0], [0.1, 0.0])
        assert type(m.e0) is float and type(m.e2) is float
        assert m.true_norm_zero is False

    def test_batch_scores_each_row(self):
        rng = np.random.default_rng(3)
        b_true = np.where(rng.random((40, 13)) < 0.3, rng.uniform(0.01, 0.1, (40, 13)), 0.0)
        b_hat = np.where(rng.random((40, 13)) < 0.3, rng.uniform(0.0, 0.1, (40, 13)), 0.0)
        b_true[:3] = 0.0  # zero truth, with and without a clean estimate
        b_hat[0] = 0.0
        b_hat[5] = b_true[5]
        batch = metrics(b_true, b_hat)
        assert batch.e0.shape == batch.e2.shape == batch.true_norm_zero.shape == (40,)
        for row in range(40):
            assert metrics(b_true[row], b_hat[row]) == (
                batch.e0[row], batch.e2[row], batch.true_norm_zero[row])

    @pytest.mark.parametrize("b_true, b_hat", [
        (np.zeros(13), np.zeros(12)),
        (np.zeros((2, 5)), np.zeros(5)),
        (np.zeros((2, 5)), np.zeros((3, 5))),
        (0.1, 0.1),
        (np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
    ], ids=["lengths", "batch-vector", "batch-sizes", "scalars", "three-axes"])
    def test_shapes_must_match(self, b_true, b_hat):
        with pytest.raises(OutOfDomain):
            metrics(b_true, b_hat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(OutOfDomain, match="finite"):
            metrics([0.1, 0.0], [bad, 0.0])
        with pytest.raises(OutOfDomain, match="finite"):
            metrics([[0.1, bad]], [[0.1, 0.0]])


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(tree="ternary:13", k_values=[], seed=0)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(tree="ternary:13", k_values=[1], mode="bogus")
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(tree="ternary:13", k_values=[1], loss_range=(0.5, 0.1))

    @pytest.mark.parametrize("config, expect", [
        ({"level": "0.9"}, "level"),
        ({"cover_halfwidth": "x"}, "cover_halfwidth"),
        ({"probes": [100]}, r"unknown config keys \['probes'\]"),
        ({"k_values": [1.5]}, "k_values"),
        ({"reps": 2.5}, "reps"),
        ([1], "one JSON object"),
        ({"tree": 5}, "tree"),
        ({"loss_range": 0.5}, "loss_range"),
        ({"probe_counts": [100.5]}, "probe counts"),
        ({"probe_counts": [2**63]}, r"1\.\.2\*\*63 - 1"),
        ({"k_values": None}, "k_values"),
    ], ids=["level-string", "halfwidth-string", "unknown-key", "k-float", "reps-float",
            "not-an-object", "tree-number", "loss-range-number", "probes-float", "probes-2**63",
            "k-null"])
    def test_bad_config_file(self, tmp_path, config, expect):
        if isinstance(config, dict):
            config = {"tree": "ternary:13", "k_values": [1], **config}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigInvalid, match=expect):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("field, value", [
        ("cover_halfwidth", math.inf),
        ("cover_halfwidth", math.nan),
        ("cover_halfwidth", -0.5),
        ("seed", -1),
    ])
    def test_bad_field(self, field, value):
        with pytest.raises(ConfigInvalid, match=field):
            ExperimentConfig(tree="ternary:13", k_values=[1], **{field: value})

    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(tree="ternary:13", k_values=[1, 2], seed=3)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert ExperimentConfig.from_json(path) == cfg


class TestRunExperiment:
    def test_exact_mode_recovers_single_hotspot(self):
        cfg = ExperimentConfig(
            tree="ternary:13", k_values=[1], probe_counts=[None], reps=20, seed=0
        )
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].e0_mean == 1.0
        assert rows[0].e2_mean == 0.0

    def test_rows_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(
            tree="ternary:13",
            k_values=[1, 2],
            probe_counts=[200, 1000],
            reps=5,
            seed=1,
        )
        rows_a = run_experiment(cfg)
        rows_b = run_experiment(cfg)
        assert rows_a == rows_b
        assert [(r.K, r.probes) for r in rows_a] == [
            (1, 200), (1, 1000), (2, 200), (2, 1000)
        ]
        out = tmp_path / "rows.csv"
        write_experiment_csv(out, rows_a)
        header = out.read_text().splitlines()[0]
        assert header == "K,N,mode,reps,e0_mean,e0_se,e2_mean,e2_se,seed"

    def test_interval_solver_cover_mode(self):
        cfg = ExperimentConfig(
            tree="ternary:13",
            k_values=[2],
            probe_counts=[500],
            reps=10,
            mode="min-l1-among-l0",
            interval_mode="cover",
            cover_halfwidth=0.005,
            seed=2,
        )
        rows = run_experiment(cfg)
        assert rows[0].e0_mean > 0.5

    def test_paired_instances_across_probe_counts(self):
        # The planted hotspots per repetition must not depend on N.
        from losstree.lossmodel import plant_hotspots

        tree = gen_regular_tree(3, 3)
        a = plant_hotspots(tree, 3, (0.01, 0.1), seed=5, key=2)
        b = plant_hotspots(tree, 3, (0.01, 0.1), seed=5, key=2)
        assert np.array_equal(a, b)
