"""Monte Carlo evaluation harness: paired trials, error accounting, reports."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import intervalfusion
from intervalfusion import fusion, metrics, optimal
from intervalfusion import (
    AlgorithmSpec,
    LinearCoefficients,
    Interval,
    ScenarioParams,
    TrialBatch,
    combine_objective,
    empirical_objective,
    evaluate,
    evaluate_taus,
    make_trials,
    posterior_mean_exact,
)

from helpers import reference_evaluate


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
        assert AlgorithmSpec(kind="marzullo").label == "marzullo"
        assert AlgorithmSpec(kind="constant", constant_value=0.0).label == "constant"
        assert AlgorithmSpec(kind="constant", constant_value=0.0, label="zero").label == "zero"


class TestEvaluate:
    def test_constant_zero_statistics(self):
        # X has variance 25/3 on [-5, 5]; a constant-zero estimator's squared
        # error is X^2 and both agents agree exactly
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=61)
        report, = evaluate([AlgorithmSpec(kind="constant", constant_value=0.0)], params, 5_000)
        for j in range(2):
            assert abs(report.mse[j] - 25.0 / 3.0) <= 3 * report.mse_stderr[j]
        assert report.cns.tolist() == [0.0]
        assert report.cns_stderr.tolist() == [0.0]

    def test_no_faults_means_full_consensus(self):
        params = ScenarioParams(n=5, m=3, tau=0, x_max=5, seed=62)
        algos = [
            AlgorithmSpec(kind="marzullo"),
            AlgorithmSpec(kind="bi"),
            AlgorithmSpec(kind="gbi_oneopt"),
            AlgorithmSpec(
                kind="linear",
                coeffs=tuple(LinearCoefficients(np.full(5, 0.1), np.full(5, 0.1), 0.0) for _ in range(3)),
            ),
        ]
        reports = evaluate(algos, params, 500)
        for report in reports:
            assert np.all(report.cns == 0.0)

    def test_common_random_numbers_across_calls(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=63)
        solo, = evaluate([AlgorithmSpec(kind="marzullo")], params, 300)
        paired = evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="marzullo")], params, 300)
        assert np.array_equal(solo.mse, paired[1].mse)
        assert np.array_equal(solo.cns, paired[1].cns)

    def test_objective_recombines_from_components(self):
        params = ScenarioParams(n=6, m=3, tau=2, x_max=5, seed=64)
        lam = 0.35
        reports = evaluate([AlgorithmSpec(kind="marzullo"), AlgorithmSpec(kind="bi")], params, 400)
        for report in reports:
            recombined = lam * report.mse.sum() + (1 - lam) / 2 * report.cns.sum()
            objective, _ = combine_objective(report, lam)
            assert objective == pytest.approx(recombined, rel=1e-12)

    def test_posterior_mean_fuser_wins_on_mse(self):
        params = ScenarioParams(n=6, m=2, tau=2, x_max=5, seed=66)
        algos = [
            AlgorithmSpec(kind="gbi_oneopt"),
            AlgorithmSpec(kind="marzullo"),
            AlgorithmSpec(kind="bi"),
            AlgorithmSpec(kind="linear", coeffs=midpoint_coeffs(6)),
            AlgorithmSpec(kind="constant", constant_value=0.0),
        ]
        reports = evaluate(algos, params, 4_000)
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
        report, = evaluate([AlgorithmSpec(kind="gbi_oneopt")], params, trials)
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
        reports = evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="gbi_oneopt")], params, 2_000)
        assert all(r.degenerate_count == 0 for r in reports)

    def test_validation(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=69)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec(kind="bi")], params, 99)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="bi")], params, 100)
        short = (LinearCoefficients(np.full(5, 0.1), np.full(5, 0.1), 0.0),)
        with pytest.raises(ValueError):
            evaluate([AlgorithmSpec(kind="linear", coeffs=short)], params, 100)

    def test_marzullo_tau_checked_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(metrics, "draw_trials", no_trials)
        params = ScenarioParams(n=5, m=2, tau=4, x_max=5, seed=73)
        with pytest.raises(ValueError, match="tau"):
            evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="marzullo")], params, 100)

    def test_bi_and_gbi_at_tau_n_minus_one(self):
        params = ScenarioParams(n=5, m=2, tau=4, x_max=5, seed=74)
        reports = evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="gbi_oneopt")], params, 100)
        for report in reports:
            assert np.isfinite(report.mse).all()
            assert np.isfinite(report.cns).all()

    def test_per_trial_arrays_independent_of_blocks(self, monkeypatch):
        params = ScenarioParams(n=6, m=3, tau=2, x_max=5, seed=75)
        coeffs = tuple(
            LinearCoefficients(np.full(6, 0.05 * (j + 1)), np.full(6, 0.05), 0.1 * j) for j in range(3)
        )
        algos = [
            AlgorithmSpec(kind="marzullo"),
            AlgorithmSpec(kind="bi"),
            AlgorithmSpec(kind="gbi_oneopt"),
            AlgorithmSpec(kind="linear", coeffs=coeffs),
            AlgorithmSpec(kind="constant", constant_value=0.5),
        ]
        block = metrics._BLOCK_TRIALS
        long = evaluate(algos, params, block + 50)
        short = evaluate(algos, params, block - 20)
        monkeypatch.setattr(metrics, "_BLOCK_TRIALS", 7)
        split = evaluate(algos, params, block + 50)
        for a, b, c in zip(long, short, split):
            assert np.array_equal(a.sq_err[:, : block - 20], b.sq_err)
            assert np.array_equal(a.pair_gap_sq[:, : block - 20], b.pair_gap_sq)
            assert np.array_equal(a.sq_err, c.sq_err)
            assert np.array_equal(a.pair_gap_sq, c.pair_gap_sq)
            assert a.degenerate_count == c.degenerate_count


    @pytest.mark.parametrize("m", [3, 4])
    def test_statistics_equal_per_row_reference(self, m):
        # every summary is the per-row mean / stderr of its per-trial array
        params = ScenarioParams(n=6, m=m, tau=2, x_max=5, seed=76)
        coeffs = tuple(
            LinearCoefficients(np.full(6, 0.05 * (j + 1)), np.full(6, 0.05), 0.1 * j) for j in range(m)
        )
        algos = [
            AlgorithmSpec(kind="marzullo"),
            AlgorithmSpec(kind="bi"),
            AlgorithmSpec(kind="gbi_oneopt"),
            AlgorithmSpec(kind="linear", coeffs=coeffs),
            AlgorithmSpec(kind="constant", constant_value=0.5),
        ]
        trials = 300
        for report in evaluate(algos, params, trials):
            for stats, stderrs, per_trial in (
                (report.mse, report.mse_stderr, report.sq_err),
                (report.cns, report.cns_stderr, report.pair_gap_sq),
            ):
                assert stats.tolist() == [float(v.mean()) for v in per_trial]
                assert stderrs.tolist() == [float(v.std(ddof=1) / np.sqrt(trials)) for v in per_trial]

    def test_non_finite_estimate_refused(self, monkeypatch):
        real_gbi_rows = fusion.gbi_rows

        def one_nan_row(cov, tau):
            values, flags = real_gbi_rows(cov, tau)
            values, flags = values.copy(), flags.copy()
            values[3], flags[3] = np.nan, False
            return values, flags

        monkeypatch.setattr(fusion, "gbi_rows", one_nan_row)
        params = ScenarioParams(n=5, m=2, tau=2, x_max=5, seed=77)
        with pytest.raises(ValueError, match=r"'gbi_oneopt'.*tau=2"):
            evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="gbi_oneopt")], params, 200)

    def test_gbi_alone_runs_no_bi(self, monkeypatch):
        # BI is GBI's fallback on degenerate rows only, and in-model trials leave none
        calls = []
        real_bi_rows = fusion.bi_rows
        monkeypatch.setattr(fusion, "bi_rows", lambda cov, tau: calls.append(tau) or real_bi_rows(cov, tau))
        for tau in range(5):
            params = ScenarioParams(n=5, m=2, tau=tau, x_max=5, seed=79)
            report, = evaluate([AlgorithmSpec(kind="gbi_oneopt")], params, 300)
            assert report.degenerate_count == 0
        assert calls == []

    def test_flagged_gbi_rows_take_bi_values(self, monkeypatch):
        # every third trial is moved out of the fault model: sensor i's readings
        # shift by 20 * i, more than any reading's width, so they are disjoint
        # and no open region of those rows is covered n - tau times
        params = ScenarioParams(n=6, m=2, tau=2, x_max=5, seed=80)
        model = make_trials(params, 0, 200)
        spread = np.arange(200) % 3 == 0
        shift = np.where(spread[:, None, None], 20.0 * np.arange(6)[None, :, None], 0.0)
        batch = dataclasses.replace(model, lo=model.lo + shift, hi=model.hi + shift)
        bi, flagged = fusion.bi_rows(fusion.coverage_rows(batch.rows()), 2)
        gbi, model_flags = fusion.gbi_rows(fusion.coverage_rows(model.rows()), 2)
        assert np.array_equal(flagged, np.tile(spread, 2)) and not model_flags.any()
        want = np.where(flagged, bi, gbi).reshape(2, 200)
        for algos in ([AlgorithmSpec(kind="gbi_oneopt")], [AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="gbi_oneopt")]):
            estimates, degenerate = metrics._block_estimates(algos, batch, 2)
            assert np.array_equal(estimates[-1].view(np.int64), want.view(np.int64))
            assert degenerate[-1] == flagged.sum()
        # the 200 trials are one chunk of evaluate, which reads the batch as its draw
        monkeypatch.setattr(metrics, "draw_trials", lambda params, start, stop: SimpleNamespace(at=lambda tau: batch))
        report, = evaluate([AlgorithmSpec(kind="gbi_oneopt")], params, 200)
        assert report.degenerate_count == flagged.sum()
        assert np.array_equal(report.sq_err, (batch.x - want) ** 2)

    @pytest.mark.parametrize("value", [1e200, np.nan], ids=["squared-error-overflows", "nan"])
    def test_non_finite_squared_error_refused(self, value):
        # (x - 1e200)^2 overflows although the estimate is finite
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=78)
        with pytest.raises(ValueError, match=r"'constant'.*squared error at tau=1"):
            evaluate([AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="constant", constant_value=value)], params, 100)


class TestEvaluateTaus:
    """One pass over the trials for every tau equals evaluating each tau alone."""

    @staticmethod
    def specs_for(tau, m):
        # linear coefficients that differ per tau, as a sweep's fits do
        rng = np.random.default_rng(tau)
        coeffs = tuple(
            LinearCoefficients(rng.normal(scale=0.1, size=6), rng.normal(scale=0.1, size=6), float(rng.normal()))
            for _ in range(m)
        )
        return [
            AlgorithmSpec(kind="marzullo"),
            AlgorithmSpec(kind="bi"),
            AlgorithmSpec(kind="gbi_oneopt"),
            AlgorithmSpec(kind="linear", coeffs=coeffs),
            AlgorithmSpec(kind="constant", constant_value=0.25 * tau),
        ]

    @pytest.mark.parametrize("trials", [100, 129, 300, 500])
    def test_equals_per_tau_block_reference(self, trials, monkeypatch):
        real_bi_rows = fusion.bi_rows

        def value_flagged(cov, tau):
            # flags that follow the row's values, not its position in a block
            values, flags = real_bi_rows(cov, tau)
            return values, flags | (np.floor(values * 16) % 5 == 0)

        monkeypatch.setattr(fusion, "bi_rows", value_flagged)
        params = ScenarioParams(n=6, m=3, tau=0, x_max=5, seed=78)
        specs = {tau: self.specs_for(tau, 3) for tau in (3, 0, 4, 1)}
        reports = evaluate_taus(specs, params, trials)
        assert list(reports) == [3, 0, 4, 1]
        # at 129 trials the reference fuses the last trial alone and the pass
        # fuses it with 128 others: every estimate, linear ones too, is the same
        for tau, algos in specs.items():
            sq_err, gap_sq, degenerate = reference_evaluate(algos, dataclasses.replace(params, tau=tau), trials)
            assert degenerate[1] > 0
            for a, report in enumerate(reports[tau]):
                assert report.tau == tau and report.algorithm == algos[a].label
                assert np.array_equal(report.sq_err, sq_err[a])
                assert np.array_equal(report.pair_gap_sq, gap_sq[a])
                assert report.degenerate_count == degenerate[a]

    def test_one_tau_view_equals_its_tau_of_the_pass(self):
        params = ScenarioParams(n=6, m=2, tau=0, x_max=5, seed=79)
        specs = {tau: self.specs_for(tau, 2) for tau in range(5)}
        reports = evaluate_taus(specs, params, 300)
        for tau, algos in specs.items():
            alone = evaluate(algos, dataclasses.replace(params, tau=tau), 300)
            for a, b in zip(alone, reports[tau]):
                for f in dataclasses.fields(a):
                    assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (tau, f.name)

    @pytest.mark.parametrize("specs, match", [
        ({1: [AlgorithmSpec(kind="bi")], 4: [AlgorithmSpec(kind="marzullo")]}, "marzullo"),
        ({1: [AlgorithmSpec(kind="bi")], 5: [AlgorithmSpec(kind="bi")]}, "tau"),
        ({1: [AlgorithmSpec(kind="bi")], 2: [AlgorithmSpec(kind="bi"), AlgorithmSpec(kind="bi")]}, "unique"),
        ({1: [AlgorithmSpec(kind="bi")],
          2: [AlgorithmSpec(kind="linear", coeffs=(LinearCoefficients(np.zeros(4), np.zeros(4), 0.0),) * 2,
                            label="short")]},
         "short"),
    ])
    def test_every_tau_checked_before_any_trial(self, specs, match, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(metrics, "draw_trials", no_trials)
        params = ScenarioParams(n=5, m=2, tau=0, x_max=5, seed=80)
        with pytest.raises(ValueError, match=match):
            evaluate_taus(specs, params, 100)

    def test_no_taus_draws_nothing(self, monkeypatch):
        calls = []
        real_draw_trials = metrics.draw_trials

        def counted(*args):
            calls.append(args)
            return real_draw_trials(*args)

        monkeypatch.setattr(metrics, "draw_trials", counted)
        params = ScenarioParams(n=5, m=2, tau=0, x_max=5, seed=82)
        assert evaluate_taus({}, params, 1000) == {}
        with pytest.raises(ValueError, match="at least 100 trials"):
            evaluate_taus({}, params, 99)
        assert calls == []

    def test_non_finite_estimate_names_its_tau(self, monkeypatch):
        real_gbi_rows = fusion.gbi_rows

        def nan_at_tau_three(cov, tau):
            values, flags = real_gbi_rows(cov, tau)
            if tau == 3:
                values, flags = values.copy(), flags.copy()
                values[3], flags[3] = np.nan, False
            return values, flags

        monkeypatch.setattr(fusion, "gbi_rows", nan_at_tau_three)
        params = ScenarioParams(n=5, m=2, tau=0, x_max=5, seed=81)
        specs = {tau: [AlgorithmSpec(kind="gbi_oneopt")] for tau in (1, 2, 3)}
        with pytest.raises(ValueError, match=r"'gbi_oneopt'.*tau=3"):
            evaluate_taus(specs, params, 200)


class TestCombineObjective:
    def test_matches_direct_evaluation(self):
        # the mean and standard error of the per-trial objective, by hand
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=70)
        lam = 0.6
        report, = evaluate([AlgorithmSpec(kind="bi")], params, 500)
        per_trial = lam * report.sq_err.sum(axis=0) + (1 - lam) * report.pair_gap_sq[0]
        objective, stderr = combine_objective(report, lam)
        assert objective == pytest.approx(per_trial.mean(), rel=1e-12)
        assert stderr == pytest.approx(per_trial.std(ddof=1) / np.sqrt(500), rel=1e-12)

    def test_lam_checked(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=72)
        report, = evaluate([AlgorithmSpec(kind="bi")], params, 200)
        with pytest.raises(ValueError):
            combine_objective(report, -0.1)


class TestEmpiricalObjective:
    def test_one_object_everywhere(self):
        assert intervalfusion.empirical_objective is metrics.empirical_objective
        assert optimal.empirical_objective is metrics.empirical_objective

    @pytest.mark.parametrize("lam", [-0.1, 1.1, np.nan])
    def test_lam_checked_by_every_scorer_and_fit(self, lam):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=73)
        batch = make_trials(params, 0, 100)
        report, = evaluate([AlgorithmSpec(kind="bi")], params, 100)
        dm = optimal.DirectionMoments(cross=np.eye(2), target=np.array([0.1, 0.2]))
        calls = [
            lambda: combine_objective(report, lam),
            lambda: empirical_objective(batch, midpoint_coeffs(5), lam),
            lambda: optimal.amplitude_solution(dm, 0.0, lam),
            lambda: optimal.fit_linear_empirical(params, lam, 10_000, np.random.default_rng(0)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
                call()

    @pytest.mark.parametrize("trials", [257, 258, 300, 2000])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equals_combine_objective_on_evaluates_trials(self, m, trials):
        # one estimate path: the same coefficients on the same trials score
        # the same, bit for bit, whether fitted or reported, also at 257
        # trials, where evaluate scores the last trial alone
        params = ScenarioParams(n=10, m=m, tau=3, x_max=5, seed=4242)
        batch = make_trials(params, 0, trials)
        for s in range(5):
            rng = np.random.default_rng(s)
            coeffs = tuple(
                LinearCoefficients(rng.normal(size=10), rng.normal(size=10), float(rng.normal()))
                for _ in range(m)
            )
            report, = evaluate([AlgorithmSpec(kind="linear", coeffs=coeffs)], params, trials)
            for lam in (0.1, 0.5, 0.9):
                assert empirical_objective(batch, coeffs, lam) == combine_objective(report, lam)[0], (s, lam)

    def test_non_finite_estimate_scores_inf(self):
        # evaluate refuses a non-finite estimate; the objective scores it
        # instead, so a caller comparing objectives rejects the fuser
        batch = TrialBatch(
            x=np.zeros(3),
            lo=np.ones((3, 5, 2)),
            hi=np.full((3, 5, 2), 2.0),
            faulty=np.zeros((3, 5), dtype=bool),
            precisions=np.ones((3, 5), dtype=int),
        )
        huge = LinearCoefficients(np.zeros(5), np.full(5, 1e308), 0.0)
        coeffs = (huge, midpoint_coeffs(5)[1])
        assert empirical_objective(batch, coeffs, 0.5) == np.inf
