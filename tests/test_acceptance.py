"""Nine numbered end-to-end acceptance checks with their stated tolerances.

Criteria 2, 3, and 7 share one fitted-and-evaluated study at n=10, m=2,
x_max=5 with 20,000 common-random-number trials per tau in 1..7 (the
module-scoped fixture below), so the file stays inside its runtime budgets.
Each test emits one "ACCEPTANCE <k> PASS" line on success; a failing
assertion is the corresponding FAIL with its context.
"""

import csv
import hashlib
import json
import math
import time

import numpy as np
import pytest

from helpers import objective_gradient, random_direction_moments, reconstructed_objective
from intervalfusion import (
    AlgorithmSpec,
    DegenerateInputError,
    Interval,
    LinearCoefficients,
    ScenarioParams,
    amplitude_solution,
    estimate_moments,
    evaluate,
    fuse_bi,
    fuse_gbi,
    fuse_gbi_oneopt,
    fuse_linear,
    fuse_marzullo,
    gbi_bayes_weights,
    make_trial,
    posterior_mean_exact,
    select_linear_coefficients,
    transition_profile,
)
from intervalfusion.cli import main as cli_main

STUDY_SEED = 20260814
STUDY_TRIALS = 20_000
STUDY_SAMPLES = 20_000
LAMBDAS = (0.1, 0.5, 0.9)
TAUS = tuple(range(1, 8))


def study_params(tau):
    return ScenarioParams(n=10, m=2, tau=tau, x_max=5, seed=STUDY_SEED)


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def paired(diff):
    """Mean and standard error of per-trial paired differences."""
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(diff.size))


@pytest.fixture(scope="module")
def study():
    selections = {}
    fit_seconds = 0.0
    for tau in TAUS:
        for lam in LAMBDAS:
            rng = np.random.default_rng(
                np.random.SeedSequence((STUDY_SEED, 0xACC, tau, int(round(lam * 10**9))))
            )
            start = time.perf_counter()
            selections[(tau, lam)] = select_linear_coefficients(
                study_params(tau), lam, STUDY_SAMPLES, rng
            )
            fit_seconds += time.perf_counter() - start
    reports = {}
    eval_seconds = 0.0
    for tau in TAUS:
        specs = [
            AlgorithmSpec(kind="marzullo"),
            AlgorithmSpec(kind="bi"),
            AlgorithmSpec(kind="gbi_oneopt"),
            AlgorithmSpec(kind="constant", constant_value=0.0, label="constant@0"),
        ]
        specs += [
            AlgorithmSpec(kind="linear", coeffs=selections[(tau, lam)].coeffs, label=f"linear@{lam:g}")
            for lam in LAMBDAS
        ]
        start = time.perf_counter()
        out = evaluate(specs, study_params(tau), STUDY_TRIALS)
        eval_seconds += time.perf_counter() - start
        reports[tau] = {r.algorithm: r for r in out}
    return {
        "selections": selections,
        "reports": reports,
        "fit_seconds": fit_seconds,
        "eval_seconds": eval_seconds,
    }


def test_criterion_1_weighted_fuser_matches_exact_posterior(capsys):
    # 500 trials spanning n in {3,4,5}, tau in {1, n-2}, x_max in {3,5};
    # per-agent agreement within 1e-9 absolute, under 30 s
    start = time.perf_counter()
    combos = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 3)]
    worst = 0.0
    trials = 0
    for x_max in (3, 5):
        for idx, (n, tau) in enumerate(combos):
            params = ScenarioParams(n=n, m=2, tau=tau, x_max=x_max, seed=900 + 10 * x_max + idx)
            for t in range(50):
                trial = make_trial(params, t)
                trials += 1
                for j in range(2):
                    readings = [trial.readings[i][j] for i in range(n)]
                    fused = fuse_gbi_oneopt(readings, tau)
                    exact = posterior_mean_exact(readings, params)
                    worst = max(worst, abs(fused - exact))
    elapsed = time.perf_counter() - start
    assert trials == 500
    assert worst <= 1e-9, f"max |weighted fuser - exact posterior mean| = {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    announce(capsys, f"ACCEPTANCE 1 PASS: 500 trials x 2 agents, "
                     f"max deviation {worst:.3e} <= 1e-9 in {elapsed:.1f}s")


def test_criterion_2_weighted_fuser_has_best_mse(study, capsys):
    # per agent and per tau: mse(gbi_oneopt) <= mse(other) + 2*paired stderr
    worst_slack = math.inf
    worst_at = None
    for tau in TAUS:
        reports = study["reports"][tau]
        gbi = reports["gbi_oneopt"]
        for label, rep in reports.items():
            if label == "gbi_oneopt":
                continue
            for j in range(2):
                mean, se = paired(rep.sq_err[j] - gbi.sq_err[j])
                slack = mean + 2.0 * se
                if slack < worst_slack:
                    worst_slack, worst_at = slack, (label, tau, j)
                assert mean >= -2.0 * se, (
                    f"gbi_oneopt mse exceeds {label} at tau={tau} agent {j + 1}: "
                    f"paired diff {mean:.5f} +- {se:.5f}"
                )
    assert study["eval_seconds"] < 300.0, f"evaluation took {study['eval_seconds']:.0f}s"
    announce(capsys, f"ACCEPTANCE 2 PASS: gbi_oneopt mse <= every rival + 2*paired-se "
                     f"over 7 taus x 6 rivals x 2 agents at 20000 trials "
                     f"(tightest slack {worst_slack:.4f} vs {worst_at}, "
                     f"evaluation {study['eval_seconds']:.0f}s < 300s)")


def test_criterion_3_weight_sweep_orders_the_tradeoff(study, capsys):
    # along lambda 0.1 -> 0.5 -> 0.9: total mse non-increasing and the
    # cross-agent gap non-decreasing, each within 2*paired stderr
    worst_mse_slack = math.inf
    worst_cns_slack = math.inf
    for tau in TAUS:
        reports = study["reports"][tau]
        for lo, hi in ((0.1, 0.5), (0.5, 0.9)):
            r_lo = reports[f"linear@{lo:g}"]
            r_hi = reports[f"linear@{hi:g}"]
            mean, se = paired(r_hi.sq_err.sum(axis=0) - r_lo.sq_err.sum(axis=0))
            worst_mse_slack = min(worst_mse_slack, 2.0 * se - mean)
            assert mean <= 2.0 * se, (
                f"total mse increased from lambda={lo} to {hi} at tau={tau}: "
                f"paired diff {mean:.5f} +- {se:.5f}"
            )
            mean, se = paired(r_hi.pair_gap_sq[0] - r_lo.pair_gap_sq[0])
            worst_cns_slack = min(worst_cns_slack, mean + 2.0 * se)
            assert mean >= -2.0 * se, (
                f"consensus gap decreased from lambda={lo} to {hi} at tau={tau}: "
                f"paired diff {mean:.5f} +- {se:.5f}"
            )
    announce(capsys, f"ACCEPTANCE 3 PASS: mse non-increasing and cns non-decreasing in "
                     f"lambda across 7 taus within 2*paired-se "
                     f"(worst slacks {worst_mse_slack:.4f} mse, {worst_cns_slack:.4f} cns)")


def test_criterion_4_consensus_only_weight_degenerates(capsys):
    # lambda=0 zeroes every amplitude exactly; the surviving constant
    # estimators agree exactly and carry the raw target variance
    rng = np.random.default_rng(404)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        dm, _, mean_x = random_direction_moments(rng, m)
        sol = amplitude_solution(dm, mean_x, 0.0)
        assert np.array_equal(sol.c, np.zeros(m))
        assert sol.objective_value == 0.0
    params = study_params(3)
    mo = estimate_moments(params, 20_000, np.random.default_rng(44))
    rep, = evaluate([AlgorithmSpec(kind="constant", constant_value=mo.mean_x)], params, 5_000)
    assert np.all(rep.cns == 0.0)
    var = 25.0 / 3.0
    for j in range(2):
        assert abs(rep.mse[j] - var) <= 3.0 * rep.mse_stderr[j], (
            f"constant-estimator mse {rep.mse[j]:.4f} vs Var(X)={var:.4f} "
            f"+- {3 * rep.mse_stderr[j]:.4f}"
        )
    announce(capsys, f"ACCEPTANCE 4 PASS: lambda=0 amplitudes identically zero on 100 "
                     f"moment sets; constant estimators give cns=0 exactly and "
                     f"mse={rep.mse[0]:.3f} vs 25/3 within 3*se={3 * rep.mse_stderr[0]:.3f}")


def test_criterion_5_accuracy_only_weight_recovers_projection(capsys):
    # lambda=1 must return the identity coupling and the raw target
    # correlations as amplitudes, exactly
    rng = np.random.default_rng(505)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        dm, _, mean_x = random_direction_moments(rng, m)
        sol = amplitude_solution(dm, mean_x, 1.0)
        assert np.array_equal(sol.a_matrix, np.eye(m))
        assert np.array_equal(sol.c, dm.target)
    announce(capsys, "ACCEPTANCE 5 PASS: lambda=1 returns identity coupling and "
                     "c = target correlations exactly on 100 random moment sets")


def test_criterion_6_amplitudes_are_stationary(capsys):
    # analytic gradient residual < 1e-6 at the returned amplitudes, and +-1%
    # coordinate perturbations never lower the reconstructed objective
    rng = np.random.default_rng(606)
    worst_resid = 0.0
    checked = 0
    for i in range(100):
        m = 2 if i % 2 == 0 else 3
        dm, var_x, mean_x = random_direction_moments(rng, m)
        for lam in LAMBDAS:
            sol = amplitude_solution(dm, mean_x, lam)
            resid = float(np.abs(objective_gradient(dm, sol.c, lam)).max())
            worst_resid = max(worst_resid, resid)
            assert resid < 1e-6, f"gradient residual {resid:.3e} at lam={lam}"
            base = reconstructed_objective(dm, var_x, mean_x, sol.c, sol.b, lam)
            for j in range(m):
                for scale in (1.01, 0.99):
                    pert = sol.c.copy()
                    pert[j] *= scale
                    val = reconstructed_objective(dm, var_x, mean_x, pert, sol.b, lam)
                    assert val >= base - 1e-12 * max(1.0, abs(base))
            checked += 1
    assert checked == 300
    announce(capsys, f"ACCEPTANCE 6 PASS: gradient residual < 1e-6 (worst {worst_resid:.2e}) "
                     f"and +-1% perturbations never improve, 100 moment sets x 3 lambdas")


def test_criterion_7_closed_form_cross_validated(study, capsys):
    # at tau=3 each lambda's closed-form candidate must land within 5% of the
    # empirical fit's objective, or the failure must be disclosed in the
    # selection record rather than silently papered over
    notes = []
    for lam in LAMBDAS:
        sel = study["selections"][(3, lam)]
        emp = sel.empirical_objective
        closed = sel.closed_form_objective
        within = closed is not None and closed <= 1.05 * emp
        if within:
            notes.append(f"lam={lam}: within 5% (closed {closed:.4f} vs fit {emp:.4f})")
            continue
        assert not sel.closed_form_used, f"out-of-tolerance closed form kept at lam={lam}"
        assert closed is not None or sel.closed_form_error is not None, (
            f"closed-form failure hidden at lam={lam}"
        )
        if closed is not None:
            notes.append(f"lam={lam}: rejected at {closed / emp:.0f}x the fit objective")
        else:
            notes.append(f"lam={lam}: rejected with error {sel.closed_form_error!r}")
    announce(capsys, "ACCEPTANCE 7 PASS: closed-form two-agent recipe cross-validated "
                     "at tau=3; " + "; ".join(notes))


def test_criterion_8_fuser_identities(capsys):
    def ivs(*pairs):
        return [Interval(float(a), float(b)) for a, b in pairs]

    assert fuse_marzullo(ivs((0, 2), (0, 2), (0, 2)), 0) == 1.0
    assert fuse_marzullo(ivs((0, 2), (1, 3), (2, 4)), 1) == 1.5
    assert fuse_marzullo(ivs((0, 2), (1, 3)), 0) == 1.0

    prof = transition_profile(ivs((0, 2), (1, 3), (2, 4)))
    assert tuple(prof.points) == (0, 1, 2, 3, 4)
    assert tuple(prof.counts) == (1, 2, 2, 1)
    prof = transition_profile(ivs((0, 4), (1, 2), (5, 6)))
    assert tuple(prof.points) == (0, 1, 2, 4, 5, 6)
    assert tuple(prof.counts) == (1, 2, 1, 0, 1)

    assert fuse_bi(ivs((0, 2), (0, 2), (0, 2)), 0) == 1.0
    assert fuse_bi(ivs((0, 2), (1, 3), (2, 4)), 1) == 2.0
    assert fuse_bi(ivs((0, 4), (1, 2), (5, 6)), 1) == 1.5

    w2 = gbi_bayes_weights(ivs((0, 2), (1, 3)), 1)
    assert list(w2.items()) == [((0,), 1.0, 1.0), ((1,), 1.0, 2.0)]
    assert fuse_gbi(w2) == 1.5
    w3 = gbi_bayes_weights(ivs((0, 2), (1, 3), (2, 4)), 1)
    table = {subset: (weight, mid) for subset, weight, mid in w3.items()}
    assert table == {(0, 1): (0.25, 1.5), (0, 2): (0.0, 0.0), (1, 2): (0.25, 2.5)}
    assert fuse_gbi(w3) == 2.0

    quarter = LinearCoefficients(eps=np.full(2, 0.25), delta=np.full(2, 0.25), gamma=0.0)
    assert fuse_linear(ivs((0, 2), (1, 3)), quarter) == 1.5
    const = LinearCoefficients(eps=np.zeros(2), delta=np.zeros(2), gamma=4.5)
    assert fuse_linear(ivs((0, 2), (1, 3)), const) == 4.5
    picker = LinearCoefficients(eps=np.array([1.0, 0.0]), delta=np.array([0.0, 1.0]), gamma=-1.0)
    assert fuse_linear(ivs((0, 2), (1, 3)), picker) == 2.0

    def gbi_or_none(readings, tau):
        try:
            return fuse_gbi_oneopt(readings, tau)
        except DegenerateInputError:
            return None

    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        tau = int(rng.integers(0, n - 1))
        readings = []
        for _ in range(n):
            lo = float(rng.integers(-20, 20)) / 4.0
            width = float(rng.integers(1, 17)) / 4.0
            readings.append(Interval(lo, lo + width))
        shift = float(rng.integers(-8, 9)) / 8.0
        shifted = [Interval(iv.lo + shift, iv.hi + shift) for iv in readings]
        perm = rng.permutation(n)
        permuted = [readings[p] for p in perm]
        for fuse in (fuse_marzullo, fuse_bi, gbi_or_none):
            out = fuse(readings, tau)
            out_shifted = fuse(shifted, tau)
            out_permuted = fuse(permuted, tau)
            if out is None:
                # degeneracy itself must be translation/permutation invariant
                assert out_shifted is None and out_permuted is None
                continue
            assert out_shifted == pytest.approx(out + shift, abs=1e-9)
            assert out_permuted == pytest.approx(out, abs=1e-9)
    announce(capsys, "ACCEPTANCE 8 PASS: frozen hand-worked fuser examples exact; "
                     "translation equivariance and permutation invariance on 1000 "
                     "random instances each (abs 1e-9)")


def test_criterion_9_reproducible_and_timely_sweeps(tmp_path, capsys):
    # byte-identical reruns on a compact config with one fitted linear
    # instance, then the full 42-row tradeoff sweep inside 10 minutes
    small = dict(
        n=10, m=2, x_max=5, seed=STUDY_SEED, taus=[3], lambdas=[0.5],
        algorithms=["marzullo", "bi", "gbi_oneopt", "linear"],
        trials=300, moment_samples=10_000,
        output_path=str(tmp_path / "small.csv"),
    )
    cfg_small = tmp_path / "small.json"
    cfg_small.write_text(json.dumps(small))
    assert cli_main(["sweep", "--config", str(cfg_small)]) == 0
    first = (tmp_path / "small.csv").read_bytes()
    assert cli_main(["sweep", "--config", str(cfg_small)]) == 0
    assert (tmp_path / "small.csv").read_bytes() == first

    full = dict(
        n=10, m=2, x_max=5, seed=STUDY_SEED, taus=list(range(1, 8)),
        lambdas=[0.1, 0.5, 0.9],
        algorithms=["linear", "bi", "marzullo", "gbi_oneopt"],
        trials=STUDY_TRIALS, moment_samples=STUDY_SAMPLES,
        output_path=str(tmp_path / "tradeoff.csv"),
    )
    cfg_full = tmp_path / "full.json"
    cfg_full.write_text(json.dumps(full))
    start = time.perf_counter()
    assert cli_main(["sweep", "--config", str(cfg_full)]) == 0
    elapsed = time.perf_counter() - start
    with open(tmp_path / "tradeoff.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 42
    assert {(r["algorithm"], r["tau"]) for r in rows} == {
        (algo, str(tau))
        for algo in ("linear@0.1", "linear@0.5", "linear@0.9", "bi", "marzullo", "gbi_oneopt")
        for tau in TAUS
    }
    assert elapsed < 600.0, f"42-row sweep took {elapsed:.0f}s, budget 600s"
    # printed, not asserted: the study's bytes depend on the host's BLAS build
    digest = hashlib.sha256((tmp_path / "tradeoff.csv").read_bytes()).hexdigest()
    announce(capsys, f"ACCEPTANCE 9 PASS: byte-identical rerun on the compact config; "
                     f"42-row tradeoff sweep in {elapsed:.0f}s < 600s; study CSV sha256 {digest}")
