"""Monte Carlo evaluation harness: paired trials, error accounting, reports."""

import dataclasses

import numpy as np
import pytest

from intervalfusion import metrics
from intervalfusion import (
    AlgorithmSpec,
    LinearCoefficients,
    Interval,
    ScenarioParams,
    combine_objective,
    evaluate,
    make_trials,
    posterior_mean_exact,
)


def midpoint_coeffs(n):
    return tuple(
        LinearCoefficients(np.full(n, 1.0 / (2 * n)), np.full(n, 1.0 / (2 * n)), 0.0)
        for _ in range(2)
    )


class TestAlgorithmSpec:
    def test_linear_requires_coeffs(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(kind="linear")

    def test_constant_requires_value(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(kind="constant")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(kind="median")

    def test_default_labels(self):
        assert AlgorithmSpec.marzullo().label == "marzullo"
        assert AlgorithmSpec.constant(0.0).label == "constant"
        assert AlgorithmSpec.constant(0.0, label="zero").label == "zero"


class TestEvaluate:
    def test_constant_zero_statistics(self):
        # X has variance 25/3 on [-5, 5]; a constant-zero estimator's squared
        # error is X^2 and both agents agree exactly
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=61)
        report, = evaluate([AlgorithmSpec.constant(0.0)], params, 0.5, 5_000)
        for j in range(2):
            assert abs(report.mse[j] - 25.0 / 3.0) <= 3 * report.mse_stderr[j]
        assert report.cns.tolist() == [0.0]
        assert report.cns_stderr.tolist() == [0.0]

    def test_no_faults_means_full_consensus(self):
        params = ScenarioParams(n=5, m=3, tau=0, x_max=5, seed=62)
        algos = [
            AlgorithmSpec.marzullo(),
            AlgorithmSpec.bi(),
            AlgorithmSpec.gbi_oneopt(),
            AlgorithmSpec.linear(
                tuple(
                    LinearCoefficients(np.full(5, 0.1), np.full(5, 0.1), 0.0) for _ in range(3)
                )
            ),
        ]
        reports = evaluate(algos, params, None, 500)
        for report in reports:
            assert np.all(report.cns == 0.0)
            assert report.pairs == ((0, 1), (0, 2), (1, 2))

    def test_common_random_numbers_across_calls(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=63)
        solo, = evaluate([AlgorithmSpec.marzullo()], params, None, 300)
        paired = evaluate([AlgorithmSpec.bi(), AlgorithmSpec.marzullo()], params, None, 300)
        assert np.array_equal(solo.mse, paired[1].mse)
        assert np.array_equal(solo.cns, paired[1].cns)

    def test_objective_recombines_from_components(self):
        params = ScenarioParams(n=6, m=3, tau=2, x_max=5, seed=64)
        lam = 0.35
        reports = evaluate([AlgorithmSpec.marzullo(), AlgorithmSpec.bi()], params, lam, 400)
        for report in reports:
            recombined = lam * report.mse.sum() + (1 - lam) / 2 * report.cns.sum()
            assert report.objective == pytest.approx(recombined, rel=1e-12)

    def test_lam_none_skips_objective(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=65)
        report, = evaluate([AlgorithmSpec.bi()], params, None, 200)
        assert report.objective is None
        assert report.objective_stderr is None

    def test_posterior_mean_fuser_wins_on_mse(self):
        params = ScenarioParams(n=6, m=2, tau=2, x_max=5, seed=66)
        algos = [
            AlgorithmSpec.gbi_oneopt(),
            AlgorithmSpec.marzullo(),
            AlgorithmSpec.bi(),
            AlgorithmSpec.linear(midpoint_coeffs(6)),
            AlgorithmSpec.constant(0.0),
        ]
        reports = evaluate(algos, params, None, 4_000)
        gbi = reports[0]
        for other in reports[1:]:
            for j in range(2):
                diff = gbi.sq_err[j] - other.sq_err[j]
                paired_se = diff.std(ddof=1) / np.sqrt(diff.size)
                assert diff.mean() <= 2.0 * paired_se

    def test_gbi_mse_equals_oracle_mse(self):
        # replay the identical trial stream through the exact posterior mean
        params = ScenarioParams(n=4, m=2, tau=1, x_max=5, seed=67)
        trials = 10_000
        report, = evaluate([AlgorithmSpec.gbi_oneopt()], params, None, trials)
        batch = make_trials(params, 0, trials)
        sq = np.empty((2, trials))
        for t in range(trials):
            for j in range(2):
                readings = [Interval(a, b) for a, b in zip(batch.lo[t, :, j].tolist(), batch.hi[t, :, j].tolist())]
                sq[j, t] = (batch.x[t] - posterior_mean_exact(readings, params)) ** 2
        for j in range(2):
            assert abs(report.mse[j] - sq[j].mean()) < 1e-9

    def test_no_degenerate_trials_in_model(self):
        params = ScenarioParams(n=5, m=2, tau=2, x_max=5, seed=68)
        reports = evaluate([AlgorithmSpec.bi(), AlgorithmSpec.gbi_oneopt()], params, None, 2_000)
        assert all(r.degenerate_count == 0 for r in reports)

    def test_validation(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=69)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec.bi()], params, None, 99)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec.bi(), AlgorithmSpec.bi()], params, None, 100)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec.bi()], params, 1.5, 100)
        short = (LinearCoefficients(np.full(5, 0.1), np.full(5, 0.1), 0.0),)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec.linear(short)], params, None, 100)

    def test_marzullo_tau_checked_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(metrics, "make_trials", no_trials)
        params = ScenarioParams(n=5, m=2, tau=4, x_max=5, seed=73)
        with pytest.raises(ValueError, match="tau"):
            evaluate([AlgorithmSpec.bi(), AlgorithmSpec.marzullo()], params, None, 100)

    def test_bi_and_gbi_at_tau_n_minus_one(self):
        params = ScenarioParams(n=5, m=2, tau=4, x_max=5, seed=74)
        reports = evaluate([AlgorithmSpec.bi(), AlgorithmSpec.gbi_oneopt()], params, None, 100)
        for report in reports:
            assert np.isfinite(report.mse).all()
            assert np.isfinite(report.cns).all()

    def test_per_trial_arrays_independent_of_blocks(self, monkeypatch):
        params = ScenarioParams(n=6, m=3, tau=2, x_max=5, seed=75)
        coeffs = tuple(
            LinearCoefficients(np.full(6, 0.05 * (j + 1)), np.full(6, 0.05), 0.1 * j) for j in range(3)
        )
        algos = [
            AlgorithmSpec.marzullo(),
            AlgorithmSpec.bi(),
            AlgorithmSpec.gbi_oneopt(),
            AlgorithmSpec.linear(coeffs),
            AlgorithmSpec.constant(0.5),
        ]
        block = metrics._BLOCK_TRIALS
        long = evaluate(algos, params, None, block + 50)
        short = evaluate(algos, params, None, block - 20)
        monkeypatch.setattr(metrics, "_BLOCK_TRIALS", 7)
        split = evaluate(algos, params, None, block + 50)
        for a, b, c in zip(long, short, split):
            assert np.array_equal(a.sq_err[:, : block - 20], b.sq_err)
            assert np.array_equal(a.pair_gap_sq[:, : block - 20], b.pair_gap_sq)
            assert np.array_equal(a.sq_err, c.sq_err)
            assert np.array_equal(a.pair_gap_sq, c.pair_gap_sq)
            assert a.degenerate_count == c.degenerate_count


class TestCombineObjective:
    def test_matches_direct_evaluation(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=70)
        lam = 0.6
        kept, = evaluate([AlgorithmSpec.bi()], params, None, 500)
        direct, = evaluate([AlgorithmSpec.bi()], params, lam, 500)
        objective, stderr = combine_objective(kept, lam)
        assert objective == pytest.approx(direct.objective, rel=1e-12)
        assert stderr == pytest.approx(direct.objective_stderr, rel=1e-12)

    def test_requires_per_trial_arrays(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=71)
        report, = evaluate([AlgorithmSpec.bi()], params, None, 200)
        hand_built = dataclasses.replace(report, sq_err=None, pair_gap_sq=None)
        with pytest.raises(ValueError):
            combine_objective(hand_built, 0.5)

    def test_lam_checked(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=72)
        report, = evaluate([AlgorithmSpec.bi()], params, None, 200)
        with pytest.raises(ValueError):
            combine_objective(report, -0.1)
