"""Moment estimation and the linear-fuser solvers.

The frozen moment values below come from hand integration of the two-cell
law at x_max=2: a sensor's precision is 1 or 2 with equal probability, and
for precision 2 the lower endpoint is -2 on negative targets and 0 otherwise.
That gives E[L] = -1.5, Var(L) = 0.75, Cov(L1,U1) = 0.25, Cov(L1,X) = 0.5
for a truthful sensor; fault mixing rescales the target covariances by
(1 - tau/n) and the distinct-sensor covariances by the probability
(n-tau)(n-tau-1)/(n(n-1)) that both sensors are truthful.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (
    objective_gradient,
    random_direction_moments,
    reconstructed_objective,
    reference_delta_roots,
    reference_estimate_moments,
    reference_fit_linear_empirical,
    reference_fit_linear_lstsq,
    reference_law_moments,
    reference_nelder_mead,
    reference_population_scores,
    reference_recipe_kernel,
    reference_sample_batch,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from intervalfusion import optimal, oracle
from intervalfusion import (
    AlgorithmSpec,
    DirectionMoments,
    InfeasibleSearchError,
    LinearCoefficients,
    MomentSet,
    ScenarioParams,
    SingularSystemError,
    amplitude_solution,
    empirical_objective,
    estimate_moments,
    evaluate,
    fit_linear_empirical,
    fit_linear_exact,
    fuse_linear,
    law_moments,
    population_scores,
    sample_batch,
    select_linear_coefficients,
    select_linear_exact,
    solve_linear_two_agent,
)
from intervalfusion.cli import RunConfig, run_fit_linear, run_sweep
from intervalfusion.fusion import linear_rows
from intervalfusion.metrics import _objective_per_trial
from intervalfusion.scenario import ReadingRows, TrialBatch


# endpoints fluctuate but carry nothing about the target: every feasible
# candidate scores 0
TIE_MOMENTS = dict(var_x=1.0, var_l=1.0, var_u=1.0, cov_lu_same=0.5, mean_l=-1.5, mean_u=1.5)
# root feasibility needs |eps| ~ 1000, where the coupling z is far past 1
INFEASIBLE_MOMENTS = dict(var_x=1.0, var_l=1.0, var_u=1.0, cov_lu_same=0.001, cov_lx=0.3, cov_ux=0.3)
# 4*xi1*xi3 overflows, so every candidate scores the infinite penalty
HUGE_MOMENTS = dict(var_l=1e160, var_u=1e160, cov_lx=1.0, cov_ux=1.0)


def zero_moments(**overrides):
    base = dict(
        mean_x=0.0, var_x=0.0, mean_l=0.0, mean_u=0.0, var_l=0.0, cov_ll=0.0,
        var_u=0.0, cov_uu=0.0, cov_lu_same=0.0, cov_lu_cross=0.0,
        cov_lx=0.0, cov_ux=0.0,
    )
    base.update(overrides)
    return MomentSet(**base)


class TestMomentSet:
    @pytest.mark.parametrize("field", ["var_x", "var_l", "var_u"])
    def test_variances_must_be_nonnegative(self, field):
        with pytest.raises(ValueError, match="nonnegative"):
            zero_moments(**{field: -1e-3})


class TestEstimateMoments:
    @pytest.mark.parametrize("n,tau", [(2, 0), (4, 1)])
    def test_two_cell_hand_integration(self, n, tau):
        params = ScenarioParams(n=n, m=2, tau=tau, x_max=2, seed=31)
        mo = estimate_moments(params, 200_000, np.random.default_rng(55))
        keep = 1.0 - tau / n
        both = (n - tau) * (n - tau - 1) / (n * (n - 1))
        assert mo.mean_x == pytest.approx(0.0, abs=0.02)
        assert mo.var_x == pytest.approx(4.0 / 3.0, abs=0.02)
        assert mo.mean_l == pytest.approx(-1.5, abs=0.02)
        assert mo.mean_u == pytest.approx(1.5, abs=0.02)
        assert mo.var_l == pytest.approx(0.75, abs=0.02)
        assert mo.var_u == pytest.approx(0.75, abs=0.02)
        assert mo.cov_lu_same == pytest.approx(0.25, abs=0.02)
        assert mo.cov_lx == pytest.approx(0.5 * keep, abs=0.02)
        assert mo.cov_ux == pytest.approx(0.5 * keep, abs=0.02)
        assert mo.cov_ll == pytest.approx(0.25 * both, abs=0.02)
        assert mo.cov_uu == pytest.approx(0.25 * both, abs=0.02)
        assert mo.cov_lu_cross == pytest.approx(0.25 * both, abs=0.02)

    def test_single_cell_degenerate(self):
        # x_max=1 pins every reading to [-1, 1]; endpoint moments vanish
        # exactly, the endpoint/target cross terms only up to summation order
        params = ScenarioParams(n=3, m=2, tau=1, x_max=1, seed=32)
        mo = estimate_moments(params, 5_000, np.random.default_rng(1))
        assert mo.mean_l == -1.0
        assert mo.mean_u == 1.0
        assert mo.var_l == 0.0
        assert mo.var_u == 0.0
        assert mo.cov_ll == 0.0
        assert mo.cov_lu_same == 0.0
        assert mo.cov_lx == pytest.approx(0.0, abs=1e-15)
        assert mo.cov_ux == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_target_covariance_positive(self):
        params = ScenarioParams(n=3, m=2, tau=0, x_max=5, seed=33)
        mo = estimate_moments(params, 50_000, np.random.default_rng(2))
        assert mo.cov_lx > 0.1
        assert mo.cov_ux > 0.1

    def test_sample_floor(self):
        params = ScenarioParams(n=3, m=2, tau=0, x_max=5, seed=33)
        with pytest.raises(ValueError):
            estimate_moments(params, 999, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 10, 16])
    def test_equals_the_recomputed_product_formulas(self, n, m):
        params = ScenarioParams(n=n, m=m, tau=n // 2, x_max=5, seed=34)
        got = estimate_moments(params, 20_000, np.random.default_rng(9))
        want = reference_estimate_moments(params, 20_000, np.random.default_rng(9))
        for name, value in vars(want).items():
            assert bits([getattr(got, name)]) == bits([value]), name

    @pytest.mark.parametrize("m", [2, 3])
    def test_bits_pinned_on_the_reference_draw(self, m):
        # the formulas on the one-tau reference generator's C-ordered
        # (size, n, m) batch: the estimates keep their bits whatever layout
        # the trial layer stores its masked blocks in
        params = ScenarioParams(n=10, m=m, tau=4, x_max=5, seed=35)
        got = estimate_moments(params, 20_000, np.random.default_rng(10))
        want = reference_estimate_moments(params, 20_000, np.random.default_rng(10), draw=reference_sample_batch)
        for name, value in vars(want).items():
            assert bits([getattr(got, name)]) == bits([value]), name


class TestDirectionMoments:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            DirectionMoments(cross=np.array([[1.0, 0.5], [0.2, 1.0]]), target=np.array([0.1, 0.2]))

    def test_unit_diagonal_required(self):
        with pytest.raises(ValueError):
            DirectionMoments(cross=np.array([[2.0, 0.0], [0.0, 1.0]]), target=np.array([0.1, 0.2]))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            DirectionMoments(cross=np.eye(3), target=np.array([0.1, 0.2]))

    def test_non_finite_cross_refused(self):
        # allclose holds inf == inf, so only the finiteness check stops this
        with pytest.raises(ValueError, match="finite"):
            DirectionMoments(cross=np.array([[1.0, np.inf], [np.inf, 1.0]]), target=np.array([0.1, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DirectionMoments(cross=np.eye(2), target=np.array([0.1, bad]))


class TestAmplitudeSolution:
    def test_full_accuracy_weight_is_projection(self):
        # lam=1 decouples the agents: A is the identity and c_j = target_j exactly
        rng = np.random.default_rng(41)
        for _ in range(25):
            dm, _, mean_x = random_direction_moments(rng, int(rng.integers(2, 5)))
            sol = amplitude_solution(dm, mean_x, 1.0)
            assert np.array_equal(sol.a_matrix, np.eye(dm.target.size))
            assert np.array_equal(sol.c, dm.target)
            assert np.all(sol.b == mean_x)

    def test_two_agent_hand_case(self):
        # m=2, lam=0.5, fully correlated directions, equal targets q:
        # rows c_1 - c_2/2 = q/2 and c_2 - c_1/2 = q/2 give c = (q, q)
        q = 0.7
        dm = DirectionMoments(cross=np.array([[1.0, 1.0], [1.0, 1.0]]), target=np.array([q, q]))
        sol = amplitude_solution(dm, 0.0, 0.5)
        assert sol.c == pytest.approx([q, q], abs=1e-12)

    def test_zero_weight_kills_amplitudes(self):
        rng = np.random.default_rng(42)
        dm, _, mean_x = random_direction_moments(rng, 3)
        sol = amplitude_solution(dm, mean_x, 0.0)
        assert np.array_equal(sol.c, np.zeros(3))
        assert np.array_equal(sol.theta, np.zeros(3))
        assert sol.objective_value == 0.0
        assert np.all(sol.b == mean_x)

    def test_a_matrix_layout(self):
        dm = DirectionMoments(cross=np.array([[1.0, 0.4], [0.4, 1.0]]), target=np.array([0.3, 0.1]))
        sol = amplitude_solution(dm, 0.0, 0.25)
        assert sol.a_matrix[0, 0] == 1.0
        assert sol.a_matrix[0, 1] == pytest.approx(-0.75 * 0.4)
        assert sol.theta == pytest.approx([0.25 * 0.3, 0.25 * 0.1])

    def test_objective_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            dm, _, mean_x = random_direction_moments(rng, 3)
            lam = float(rng.uniform(0.05, 0.95))
            sol = amplitude_solution(dm, mean_x, lam)
            expected = sol.theta @ np.linalg.inv(sol.a_matrix @ sol.a_matrix.T) @ sol.theta
            assert sol.objective_value == pytest.approx(expected, rel=1e-9)

    def test_stationarity_and_local_optimality(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            m = int(rng.integers(2, 4))
            dm, var_x, mean_x = random_direction_moments(rng, m)
            lam = float(rng.choice([0.1, 0.5, 0.9]))
            sol = amplitude_solution(dm, mean_x, lam)
            assert np.abs(objective_gradient(dm, sol.c, lam)).max() < 1e-6
            base = reconstructed_objective(dm, var_x, mean_x, sol.c, sol.b, lam)
            for j in range(m):
                for sign in (+1.0, -1.0):
                    c = sol.c.copy()
                    c[j] *= 1.0 + sign * 0.01
                    bumped = reconstructed_objective(dm, var_x, mean_x, c, sol.b, lam)
                    assert bumped >= base - 1e-12

    def test_bias_is_jointly_optimal(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            m = int(rng.integers(2, 4))
            dm, var_x, mean_x = random_direction_moments(rng, m)
            lam = float(rng.choice([0.1, 0.5, 0.9]))
            sol = amplitude_solution(dm, mean_x, lam)
            base = reconstructed_objective(dm, var_x, mean_x, sol.c, sol.b, lam)
            shift = rng.normal(scale=0.3, size=m)
            bumped = reconstructed_objective(dm, var_x, mean_x, sol.c, sol.b + shift, lam)
            assert bumped >= base - 1e-12
            if np.abs(shift).max() > 1e-6:
                assert bumped > base

    def test_scaling_doubles_amplitudes(self):
        # doubling the data doubles E[X f], leaving the unit-variance cross
        # moments alone, so the optimal amplitudes double
        rng = np.random.default_rng(46)
        dm, _, mean_x = random_direction_moments(rng, 3)
        for lam in (0.1, 0.5, 0.9):
            sol = amplitude_solution(dm, mean_x, lam)
            doubled = amplitude_solution(
                DirectionMoments(cross=dm.cross, target=2.0 * dm.target), 2.0 * mean_x, lam
            )
            assert doubled.c == pytest.approx(2.0 * sol.c, rel=1e-12, abs=1e-12)
            assert np.all(doubled.b == 2.0 * mean_x)

    def test_near_singular_refused(self):
        dm = DirectionMoments(cross=np.array([[1.0, 1.0], [1.0, 1.0]]), target=np.array([0.3, 0.3]))
        with pytest.raises(SingularSystemError) as info:
            amplitude_solution(dm, 0.0, 1e-11)
        assert "lam" in str(info.value)

    def test_lam_range_checked(self):
        dm = DirectionMoments(cross=np.eye(2), target=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            amplitude_solution(dm, 0.0, 1.2)

    def test_equals_the_literal_system(self):
        # the shared quadratic-system builder leaves amplitude_solution's
        # matrix, right-hand side and solution bit for bit as its own formulas
        rng = np.random.default_rng(47)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            dm, _, mean_x = random_direction_moments(rng, m)
            dm = DirectionMoments(cross=dm.cross + np.diag(rng.uniform(-1e-10, 1e-10, m)), target=dm.target)
            lam = float(rng.uniform(0.0, 1.0))
            sol = amplitude_solution(dm, mean_x, lam)
            theta = lam * dm.target
            a = -(1.0 - lam) / (m - 1) * dm.cross
            np.fill_diagonal(a, 1.0)
            assert bits(sol.a_matrix.ravel()) == bits(a.ravel())
            assert bits(sol.theta) == bits(theta)
            assert bits(sol.c) == bits(np.linalg.solve(a, theta))

    def test_single_agent_refused(self):
        # one agent has no gap terms to trade against, so the system is not
        # the objective's; c = lam * target would not even be stationary
        dm = DirectionMoments(cross=np.eye(1), target=np.array([0.5]))
        with pytest.raises(ValueError, match="m=1"):
            amplitude_solution(dm, 0.0, 0.5)


class TestSolveLinearTwoAgent:
    def test_needs_two_sensors(self):
        with pytest.raises(ValueError, match="n >= 2"):
            solve_linear_two_agent(zero_moments(**TIE_MOMENTS), 0.5, 1)

    def test_degenerate_moments_return_zero(self):
        sol = solve_linear_two_agent(zero_moments(), 0.5, 4)
        assert sol.eps == (0.0, 0.0)
        assert sol.delta == (0.0, 0.0)
        assert sol.objective_value == 0.0

    def test_uninformative_target_gives_zero_objective(self):
        # endpoints fluctuate but carry nothing about the target, so every
        # feasible candidate scores zero and the centered estimate has mean 0
        mo = zero_moments(**TIE_MOMENTS)
        sol = solve_linear_two_agent(mo, 0.5, 2)
        n = 2
        for j in range(2):
            theta = n * (sol.eps[j] * mo.cov_lx + sol.delta[j] * mo.cov_ux)
            assert theta == 0.0
            mean_est = n * (sol.eps[j] * mo.mean_l + sol.delta[j] * mo.mean_u) + sol.gamma[j]
            assert mean_est == pytest.approx(0.0, abs=1e-12)
        assert sol.objective_value == 0.0
        assert abs(sol.z) < 1.0

    def test_returned_point_satisfies_recipe_identities(self):
        params = ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=47)
        mo = estimate_moments(params, 20_000, np.random.default_rng(3))
        sol = solve_linear_two_agent(mo, 0.5, 10)
        for j in range(2):
            xi1, xi2, xi3 = sol.xi[j]
            d = sol.delta[j]
            # delta is an exact root of the per-agent quadratic
            assert xi1 * d * d + xi2 * d + xi3 == pytest.approx(0.0, abs=1e-6 * max(1.0, abs(xi3)))
            expected_gamma = -10 * (sol.eps[j] * mo.mean_l + sol.delta[j] * mo.mean_u)
            assert sol.gamma[j] == pytest.approx(expected_gamma, rel=1e-12, abs=1e-12)
        assert abs(sol.z) < 1.0

    def test_reported_values_consistent_with_point(self):
        # the returned coupling and objective must be recomputable from the
        # returned point; the search near the |z|=1 wall may favor one agent,
        # so coordinate symmetry is deliberately not asserted here
        params = ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=48)
        mo = estimate_moments(params, 20_000, np.random.default_rng(4))
        lam, n = 0.5, 10
        sol = solve_linear_two_agent(mo, lam, n)
        nn1 = n * (n - 1)
        z_ll = mo.var_l + nn1 * mo.cov_ll
        z_uu = mo.var_u + nn1 * mo.cov_uu
        kappa = n * mo.cov_lu_same + nn1 * mo.cov_lu_cross
        e1, e2 = sol.eps
        d1, d2 = sol.delta
        z = -(1.0 - lam) * (e1 * e2 * z_ll + d1 * d2 * z_uu + (e1 * d2 + e2 * d1) * kappa)
        assert sol.z == pytest.approx(z, rel=1e-12, abs=1e-12)
        th1 = n * (e1 * mo.cov_lx + d1 * mo.cov_ux)
        th2 = n * (e2 * mo.cov_lx + d2 * mo.cov_ux)
        one = 1.0 - z * z
        value = (th1 * th1 + th2 * th2) / one + 2.0 * z * (th1 + th2) ** 2 / (one * one)
        assert sol.objective_value == pytest.approx(value, rel=1e-12)

    def test_infeasible_search_reported(self):
        # root feasibility needs |eps| ~ 1000 where the coupling z blows past 1,
        # so no candidate is admissible anywhere
        mo = zero_moments(**INFEASIBLE_MOMENTS)
        with pytest.raises(InfeasibleSearchError) as info:
            solve_linear_two_agent(mo, 0.5, 2)
        assert "feasib" in str(info.value)

    def test_boundary_starts_beyond_float_range_are_skipped(self):
        # kappa ~ 1e-224 against variances of 1e100 puts the root-feasibility
        # boundary 1.02*sqrt(xi1*xi3)/|kappa| past float range: the four
        # boundary starts are left out rather than set at +-inf (the overflow
        # warning is an error in this suite), and no candidate is feasible
        mo = zero_moments(var_l=1e100, var_u=1e100, cov_lu_same=1e-224, cov_lx=1.0, cov_ux=1.0)
        _, starts = recipe_problem(mo, 0.5, 2)
        assert len(starts) == 3 + optimal._RECIPE_RESTARTS
        assert np.isfinite(starts).all()
        with pytest.raises(InfeasibleSearchError, match="inf"):
            solve_linear_two_agent(mo, 0.5, 2)

    def test_no_finite_search_is_reported(self):
        # no search ends below +inf, so there is no best point to return
        with pytest.raises(InfeasibleSearchError, match="no start reached a finite objective"):
            solve_linear_two_agent(zero_moments(**HUGE_MOMENTS), 0.5, 2)

    def test_lam_bounds(self):
        with pytest.raises(ValueError):
            solve_linear_two_agent(zero_moments(), 0.0, 4)
        with pytest.raises(ValueError):
            solve_linear_two_agent(zero_moments(), 1.0, 4)

    def test_coefficient_export(self):
        sol = solve_linear_two_agent(zero_moments(), 0.5, 4)
        coeffs = sol.to_coefficients(4)
        assert len(coeffs) == 2
        assert coeffs[0].eps.shape == (4,)


NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 600}


def scipy_nelder_mead(f, x0):
    """scipy's Nelder-Mead with the recipe's options, driving f(*x)."""
    res = optimize.minimize(lambda v: f(*(float(c) for c in v)), np.array(x0, dtype=float),
                            method="Nelder-Mead", options=NM_OPTIONS)
    return res.x.tolist(), res.fun


def quiet_floats():
    """Silence numpy's overflow/invalid warnings, which the suite turns into errors.

    Outside the suite they only warn and the run goes on: an infinite vertex
    value makes scipy's stopping test subtract inf from inf (invalid).
    """
    return np.errstate(over="ignore", invalid="ignore")


def reference_recipe_search(pair_objective, starts):
    """The recipe's search as it ran on scipy: its two loops, copied literally.

    The copied loops call objective(v) with one vector and hold the starts as
    arrays; the two adapters below bridge to the (e1, e2) objective and the
    list starts.
    """
    def objective(v):
        return pair_objective(float(v[0]), float(v[1]))

    starts = [np.array(start) for start in starts]

    nm_options = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 600}
    best_point = None
    best_value = np.inf
    for start in starts:
        res = optimize.minimize(objective, start, method="Nelder-Mead", options=nm_options)
        if res.fun < best_value:
            best_value, best_point = res.fun, res.x

    # symmetric polish: the objective is invariant under swapping agents, so
    # prefer a diagonal solution whenever it is at least as good
    if best_point is not None:
        mid = float(best_point.mean())
        res = optimize.minimize(lambda v: objective(np.array([v[0], v[0]])), np.array([mid]),
                                method="Nelder-Mead", options=nm_options)
        if res.fun <= best_value * (1.0 + 1e-9) + 1e-12:
            best_value = min(best_value, res.fun)
            best_point = np.array([res.x[0], res.x[0]])

    return None if best_point is None else best_point.tolist()


def outcome(run, *args):
    """run(*args), or the error it stopped with.

    The recipe's objective raises OverflowError (a float power) on extreme
    moments; a search that meets it must stop with the same error on scipy.
    """
    try:
        with quiet_floats():
            return run(*args)
    except (InfeasibleSearchError, ArithmeticError) as exc:
        return exc


def reference_solution(moments, lam, n):
    """solve_linear_two_agent on the literal scipy search."""
    with mock.patch.object(optimal, "_recipe_search", reference_recipe_search):
        return outcome(solve_linear_two_agent, moments, lam, n)


class _Captured(Exception):
    pass


def recipe_problem(moments, lam, n):
    """The objective and starts solve_linear_two_agent hands to its search (None if degenerate)."""
    def capture(objective, starts):
        raise _Captured(objective, starts)

    with mock.patch.object(optimal, "_recipe_search", capture), quiet_floats():
        try:
            solve_linear_two_agent(moments, lam, n)
        except _Captured as caught:
            return caught.args
    return None


def bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [float.hex(float(v)) for v in values]


def solution_bits(sol):
    return bits([*sol.eps, *sol.delta, *sol.gamma, *sol.xi[0], *sol.xi[1], sol.z, sol.objective_value])


def both_returned(got, want):
    """False when both raised (the same error); fails when only one did."""
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return False
    return True


def assert_same_search(f, x0):
    got = outcome(optimal._nelder_mead, f, list(x0))
    want = outcome(scipy_nelder_mead, f, x0)
    if both_returned(got, want):
        assert bits(got[0]) == bits(want[0]), (x0, got, want)
        assert bits([got[1]]) == bits([want[1]]), (x0, got, want)
    assert_same_iterates(f, x0)


def recorded(f, calls):
    """f, appending the bits of every point it is called on and of its value to calls."""
    def g(*x):
        value = f(*x)
        calls.append(tuple(bits([*x, value])))
        return value
    return g


def assert_same_iterates(f, x0):
    """_nelder_mead calls f on the points the previous engine called it on, in order, with its result.

    The previous engine stopped at a state equal to the last one in its bits;
    the engine stops at a state == to the last.  A fresh nan fails ==, and
    the engine then repeats that state's iteration as scipy does up to
    maxiter: its further calls are the previous engine's last iteration over
    again, and that iteration saw a nan.  A shrink that only turned a zero's
    sign passes ==, and the engine stops one iteration early: the previous
    engine's last iteration called f on the points of the one before it.
    """
    got_calls, want_calls = [], []
    got = outcome(optimal._nelder_mead, recorded(f, got_calls), list(x0))
    want = outcome(reference_nelder_mead, recorded(f, want_calls), list(x0))
    if both_returned(got, want):
        assert bits([*got[0], got[1]]) == bits([*want[0], want[1]]), (x0, got, want)
    shared = min(len(got_calls), len(want_calls))
    assert got_calls[:shared] == want_calls[:shared], x0
    extra, missing = got_calls[shared:], want_calls[shared:]
    if extra:
        repeated = [k for k in range(1, len(x0) + 3) if extra == want_calls[-k:] * (len(extra) // k)]
        assert repeated and any(value == "nan" for *_, value in want_calls[-repeated[0]:]), x0
    if missing:
        assert len(missing) <= len(x0) + 2 and missing == got_calls[-len(missing):], x0


def assert_same_solution(moments, lam, n):
    got = outcome(solve_linear_two_agent, moments, lam, n)
    want = reference_solution(moments, lam, n)
    if both_returned(got, want):
        assert solution_bits(got) == solution_bits(want)


def _field(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def moment_sets(draw):
    """Moments of the fault model at small sample counts, or free-form moment values."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 10))
        params = ScenarioParams(n=n, m=2, tau=draw(st.integers(0, n - 1)), x_max=draw(st.integers(1, 6)),
                                seed=draw(st.integers(0, 2**16)))
        return estimate_moments(params, 1000, np.random.default_rng(draw(st.integers(0, 2**16)))), n
    fields = dict(
        mean_x=draw(_field(-5.0, 5.0)), var_x=draw(_field(0.0, 5.0)),
        mean_l=draw(_field(-5.0, 5.0)), mean_u=draw(_field(-5.0, 5.0)),
        var_l=draw(_field(0.0, 3.0)), var_u=draw(_field(0.0, 3.0)),
        cov_ll=draw(_field(-0.5, 0.5)), cov_uu=draw(_field(-0.5, 0.5)),
        cov_lu_same=draw(_field(-1.0, 1.0)), cov_lu_cross=draw(_field(-0.5, 0.5)),
        cov_lx=draw(_field(-1.0, 1.0)), cov_ux=draw(_field(-1.0, 1.0)),
    )
    return zero_moments(**fields), draw(st.integers(2, 10))


def _wall(a, b):
    # unbounded below as the gap g to the line x + 0.3 y = a + b closes, a
    # graded penalty beyond it, like the recipe's |z| = 1 wall
    def f(x, y=0.0):
        g = b - (x - a) - 0.3 * y
        return -(1.0 + y * y) / (g * g * g) if g > 0 else 1e9 * (1.0 - g)
    return f


def _nan_region(a, b):
    # falls toward the line x + 0.5 y = a and is nan beyond it; each nan is a
    # fresh object, unlike math.nan, so a state whose nan was just computed
    # is never == to the state before it
    def f(x, y=0.0):
        return math.inf - math.inf if x + 0.5 * y > a else b * (a - x) + y * y
    return f


ENGINE_OBJECTIVES = {
    "quadratic": lambda a, b: lambda x, y=0.0: b * (x - a) * (x - a) + (y + a) * (y + a) / b,
    "plateau": lambda a, b: lambda x, y=0.0: a,
    "nan half-plane": lambda a, b: lambda x, y=0.0: math.nan if x > a else (x - a + b) * (x - a + b) + y * y,
    "wall": _wall,
    # +0.0 and -0.0 tie in every comparison but differ in their bits
    "signed-zero plateau": lambda a, b: lambda x, y=0.0: math.copysign(0.0, x - a),
    "nan region": _nan_region,
}


class TestNelderMead:
    """The local Nelder-Mead against scipy.optimize.minimize, bit for bit."""

    @given(moment_sets(), st.sampled_from([0.1, 0.5, 0.9]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_on_recipe_objectives(self, drawn, lam, data):
        moments, n = drawn
        problem = recipe_problem(moments, lam, n)
        if problem is None:
            return
        objective, starts = problem
        start = data.draw(st.sampled_from(starts))
        assert_same_search(objective, start)
        x0 = data.draw(st.one_of(st.sampled_from(start), st.floats(-3.0, 3.0)))
        assert_same_search(lambda e: objective(e, e), [x0])

    @pytest.mark.parametrize("fields", [TIE_MOMENTS, INFEASIBLE_MOMENTS], ids=["tie", "infeasible"])
    def test_matches_scipy_on_degenerate_sets(self, fields):
        # the tie set scores 0 almost everywhere, so vertex order rests on the
        # stable sort; the infeasible set lives on penalty plateaus
        objective, starts = recipe_problem(zero_moments(**fields), 0.5, 2)
        for start in starts:
            assert_same_search(objective, start)
            assert_same_search(lambda e: objective(e, e), [float(np.mean(start))])
        assert_same_solution(zero_moments(**fields), 0.5, 2)

    def test_matches_scipy_from_zero(self):
        # a zero coordinate takes the 0.00025 simplex step instead of 5%
        params = ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=47)
        objective, starts = recipe_problem(estimate_moments(params, 5_000, np.random.default_rng(3)), 0.5, 10)
        assert starts[0] == [0.0, 0.0]
        for x0 in ([0.0, 0.0], [0.0, starts[3][1]], [starts[3][0], -0.0]):
            assert_same_search(objective, x0)
        for x0 in ([0.0], [-0.0]):
            assert_same_search(lambda e: objective(e, e), x0)

    @given(moment_sets(), st.sampled_from([0.1, 0.5, 0.9]))
    @settings(max_examples=12, deadline=None)
    def test_solution_matches_scipy_search(self, drawn, lam):
        moments, n = drawn
        assert_same_solution(moments, lam, n)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_beyond_recipe_objectives(self, data):
        n = data.draw(st.sampled_from([1, 2]), label="n")
        x0 = data.draw(st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0)),
                                min_size=n, max_size=n), label="x0")
        kind = data.draw(st.sampled_from(sorted(ENGINE_OBJECTIVES)), label="kind")
        a, b = data.draw(st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 4.0)), label="a, b")
        assert_same_search(ENGINE_OBJECTIVES[kind](a, b), x0)

    def test_stops_at_a_fixed_point_with_scipys_result(self):
        # the simplex collapses against the wall, where scipy repeats one
        # iteration until maxiter
        f = ENGINE_OBJECTIVES["wall"](0.5, 1.0)
        for x0 in ([-0.5, 1.0], [0.3]):
            calls = []
            got = optimal._nelder_mead(lambda *x: calls.append(x) or f(*x), x0)
            with quiet_floats():
                want = optimize.minimize(lambda v: f(*(float(c) for c in v)), np.array(x0),
                                         method="Nelder-Mead", options=NM_OPTIONS)
            assert want.nit == 600 and len(calls) < want.nfev / 2
            assert bits(got[0]) == bits(want.x) and bits([got[1]]) == bits([want.fun])

    @pytest.mark.parametrize("x0", [[3.0, 5e-324], [5e-324, 3.0]])
    def test_stops_where_only_a_zero_changed_sign(self, x0):
        # against the wall, a subnormal start coordinate ends as zeros: a
        # shrink turns one vertex's -0.0 into +0.0 and leaves the state == to
        # the last, and the engine stops there, one iteration before a
        # comparison of bits would; scipy, run to maxiter, returns the same
        f = ENGINE_OBJECTIVES["wall"](0.5, 0.1)
        got_calls, want_calls = [], []
        optimal._nelder_mead(recorded(f, got_calls), x0)
        reference_nelder_mead(recorded(f, want_calls), x0)
        assert len(got_calls) < len(want_calls)
        assert_same_search(f, x0)

    @pytest.mark.parametrize("x0", [[], [0.0, 1.0, 2.0]], ids=["0", "3"])
    def test_other_lengths_refused(self, x0):
        with pytest.raises(ValueError, match=f"_nelder_mead searches one or two coordinates, got {len(x0)}"):
            optimal._nelder_mead(lambda *x: 0.0, x0)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_sweep_fit_cells_stay_cheap(self, lam):
        # the benchmark's sweep-fit cells, on the exact moments the sweep
        # feeds the recipe; on sampled moments, run to maxiter 600 their
        # searches took 30,081-37,190 evaluations, and the fixed-point stop
        # about 9,400
        moments = law_moments(ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=4242))
        calls = 0
        search = optimal._recipe_search

        def counted(objective, starts):
            def f(e1, e2):
                nonlocal calls
                calls += 1
                return objective(e1, e2)
            return search(f, starts)

        with mock.patch.object(optimal, "_recipe_search", counted):
            got = solve_linear_two_agent(moments, lam, 10)
        assert solution_bits(got) == solution_bits(reference_solution(moments, lam, 10))
        assert calls <= 12_000

    def test_package_import_leaves_scipy_out(self):
        # scipy is only the reference above; importing scipy.optimize would
        # add about 0.6 s to every command line start
        src = str(Path(optimal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, intervalfusion, intervalfusion.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


def kernel_bits(result):
    value, deltas, z = result
    return bits([value]), None if deltas is None else bits(deltas), None if z is None else bits([z])


def assert_same_kernel(moments, lam, n, points):
    """The recipe's kernel equals the previous evaluate bit for bit at every (e1, e2) in points."""
    *_, evaluate = optimal._recipe_kernel(moments, lam, n)
    reference = reference_recipe_kernel(moments, lam, n)
    for e1, e2 in points:
        got, want = outcome(evaluate, e1, e2), outcome(reference, e1, e2)
        if both_returned(got, want):
            assert kernel_bits(got) == kernel_bits(want), (e1, e2, got, want)


SWEEP_FIT_MOMENTS = law_moments(ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=4242))


@st.composite
def kernel_points(draw, xi1, xi3, kappa):
    """(e1, e2) at signed zeros, in the start box, about the root-feasibility edge or far out.

    Below the edge sqrt(xi1*xi3)/|kappa| an agent has no real root (the
    penalty region); far beyond it the coupling passes |z| = 1.
    """
    with np.errstate(all="ignore"):
        edge = float(np.sqrt(abs(xi1 * xi3)) / abs(kappa)) if kappa else 1.0
    edge = edge if math.isfinite(edge) and edge > 0.0 else 1.0
    coordinate = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-3.0, 3.0),
        st.floats(0.5, 2.0).map(lambda r: r * edge) | st.floats(-2.0, -0.5).map(lambda r: r * edge),
        st.floats(-1e6, 1e6),
    )
    return draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8))


class TestSameIteratesAsBefore:
    """The engine and the kernel against literal copies of the ones they replaced, bit for bit.

    assert_same_search holds the engine to the previous one on every search
    of the scipy tests above, too.
    """

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_sweep_fit_cells(self, lam):
        # every search of the benchmark's cells, on the exact moments the sweep
        # feeds the recipe, polish included
        objective, starts = recipe_problem(SWEEP_FIT_MOMENTS, lam, 10)
        got_calls, want_calls = [], []
        got = optimal._recipe_search(recorded(objective, got_calls), starts)
        with mock.patch.object(optimal, "_nelder_mead", reference_nelder_mead):
            want = optimal._recipe_search(recorded(objective, want_calls), starts)
        assert bits(got) == bits(want)
        assert got_calls == want_calls

    @pytest.mark.parametrize("x0", [[1.0], [1.0, 1.0]], ids=["1", "2"])
    def test_a_fresh_nan_fixed_point_runs_to_maxiter(self, x0):
        # started inside the nan region, the simplex shrinks onto x0, where
        # every state repeats the last in its bits and the previous engine
        # stopped; == misses the fresh nan, so the engine repeats that
        # iteration up to maxiter, as scipy does, with the same result
        f = ENGINE_OBJECTIVES["nan region"](0.5, 1.0)
        got_calls, want_calls = [], []
        got = optimal._nelder_mead(recorded(f, got_calls), x0)
        reference_nelder_mead(recorded(f, want_calls), x0)
        assert len(got_calls) > 10 * len(want_calls)
        assert_same_iterates(f, x0)
        with quiet_floats():
            want = optimize.minimize(lambda v: f(*(float(c) for c in v)), np.array(x0), method="Nelder-Mead",
                                     options=NM_OPTIONS)
        assert want.nit == 600 and len(got_calls) == want.nfev
        assert bits([*got[0], got[1]]) == bits([*want.x, want.fun])

    @given(moment_sets(), st.sampled_from([0.1, 0.5, 0.9]), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel(self, drawn, lam, linear, data):
        moments, n = drawn
        if linear:
            # xi1 = 0: each agent's equation is linear in delta
            moments = dataclasses.replace(moments, var_u=0.0, cov_uu=0.0)
        xi1, xi3, kappa, _ = optimal._recipe_kernel(moments, lam, n)
        assert_same_kernel(moments, lam, n, data.draw(kernel_points(xi1, xi3, kappa)))

    def test_kernel_grid_reaches_every_branch(self):
        # the sweep cell, the tie, infeasible and overflowing sets and a linear
        # (xi1 = 0) set, on a grid that meets the penalty region, |z| >= 1, the
        # feasible combinations and both signed zeros
        grid = [-1e3, -3.0, -0.3, -0.01, -0.0, 0.0, 0.01, 0.3, 3.0, 1e3]
        points = [(e1, e2) for e1 in grid for e2 in grid]
        reached = set()
        for moments, n in [(SWEEP_FIT_MOMENTS, 10), (zero_moments(**TIE_MOMENTS), 2),
                           (zero_moments(**INFEASIBLE_MOMENTS), 2), (zero_moments(**HUGE_MOMENTS), 2),
                           (zero_moments(var_l=1.0, cov_lu_same=0.5, cov_lx=0.3, cov_ux=0.2), 3)]:
            for lam in (0.1, 0.5, 0.9):
                assert_same_kernel(moments, lam, n, points)
                xi1, xi3, kappa, evaluate = optimal._recipe_kernel(moments, lam, n)
                for e1, e2 in points:
                    result = outcome(evaluate, e1, e2)
                    if isinstance(result, Exception):
                        reached.add("overflow")
                    elif not all(reference_delta_roots(xi1, 2.0 * e * kappa, xi3) for e in (e1, e2)):
                        reached.add("no root")
                    else:
                        reached.add("|z| >= 1" if result[1] is None else "feasible")
                reached.add("xi1 = 0" if xi1 == 0.0 else "xi1 != 0")
        assert reached >= {"no root", "|z| >= 1", "feasible", "xi1 = 0", "xi1 != 0"}


class TestFitLinearEmpirical:
    def test_consensus_only_weight_collapses(self):
        # lam=0 rewards agreement alone; the fit converges to (near) constants
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=49)
        fit = fit_linear_empirical(params, 0.0, 20_000, np.random.default_rng(5))
        batch = sample_batch(params, 20_000, np.random.default_rng(5))  # the batch the fit draws
        assert empirical_objective(batch, fit, 0.0) < 1e-3 * (25.0 / 3.0)

    def test_single_cell_scenario_estimates_zero(self):
        # x_max=1 fixes every reading at [-1, 1]; the tied intercept cancels
        # the endpoint sums identically, so the estimator is exactly zero
        params = ScenarioParams(n=4, m=2, tau=1, x_max=1, seed=50)
        fit = fit_linear_empirical(params, 0.7, 10_000, np.random.default_rng(6))
        readings = np.array([[-1.0, 1.0]] * 4)
        for coeffs in fit:
            assert fuse_linear(readings, coeffs) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_coordinate_perturbations_never_improve(self, lam):
        # the fit is the exact minimizer over the tied-intercept family, so a
        # +-1% bump of any eps_j/delta_j (1e-3 where it is 0) with the intercept
        # re-tied cannot lower the in-sample objective beyond round-off, for
        # any number of agents
        n = 5
        for m in (2, 3, 4):
            params = ScenarioParams(n=n, m=m, tau=1, x_max=5, seed=51)
            fit = fit_linear_empirical(params, lam, 10_000, np.random.default_rng(7))
            batch = sample_batch(params, 10_000, np.random.default_rng(7))
            mean_l = float(batch.lo[:, :, 0].mean())
            mean_u = float(batch.hi[:, :, 0].mean())
            base = empirical_objective(batch, fit, lam)
            point = np.array([[c.eps[0], c.delta[0]] for c in fit])
            assert point.shape == (m, 2)
            for j in range(m):
                for c in range(2):
                    for sign in (1.0, -1.0):
                        bumped = point.copy()
                        bumped[j, c] += sign * (0.01 * abs(bumped[j, c]) if bumped[j, c] else 1e-3)
                        coeffs = tuple(
                            LinearCoefficients(np.full(n, e), np.full(n, d), -n * (e * mean_l + d * mean_u))
                            for e, d in bumped
                        )
                        assert empirical_objective(batch, coeffs, lam) >= base * (1.0 - 1e-12)

    @pytest.mark.parametrize("m", [3, 4])
    def test_lambda_orders_the_tradeoff_beyond_two_agents(self, m):
        # more weight on accuracy cannot raise the total mse or lower the
        # total gap, out of sample within 2 paired standard errors; the three
        # lambdas share one fitting batch per tau
        lambdas = (0.1, 0.5, 0.9)
        for tau in (1, 3, 5):
            params = ScenarioParams(n=6, m=m, tau=tau, x_max=5, seed=56)
            specs = [
                AlgorithmSpec(
                    kind="linear",
                    coeffs=fit_linear_empirical(params, lam, 10_000, np.random.default_rng(10 + tau)),
                    label=f"linear@{lam:g}",
                )
                for lam in lambdas
            ]
            reports = evaluate(specs, params, 2_000)
            for lo, hi in zip(reports, reports[1:]):
                mse_diff = hi.sq_err.sum(axis=0) - lo.sq_err.sum(axis=0)
                gap_diff = hi.pair_gap_sq.sum(axis=0) - lo.pair_gap_sq.sum(axis=0)
                for diff, sign in ((mse_diff, 1.0), (gap_diff, -1.0)):
                    paired_se = diff.std(ddof=1) / np.sqrt(diff.size)
                    assert sign * diff.mean() <= 2.0 * paired_se, (tau, lo.algorithm, hi.algorithm)

    def test_full_accuracy_weight_cannot_beat_posterior_mean(self):
        # the posterior-mean fuser minimizes MSE over all estimators, so the
        # fitted linear fuser cannot undercut it beyond paired noise
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=52)
        fit = fit_linear_empirical(params, 1.0, 20_000, np.random.default_rng(8))
        reports = evaluate(
            [AlgorithmSpec(kind="gbi_oneopt"), AlgorithmSpec(kind="linear", coeffs=fit)],
            params, 20_000,
        )
        gbi, linear = reports
        for j in range(2):
            diff = linear.sq_err[j] - gbi.sq_err[j]
            paired_se = diff.std(ddof=1) / np.sqrt(diff.size)
            assert diff.mean() >= -2.0 * paired_se

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 10, 16])
    def test_equals_the_sum_axis_formulas(self, n, m):
        params = ScenarioParams(n=n, m=m, tau=n // 2, x_max=5, seed=54)
        got = fit_linear_empirical(params, 0.5, 20_000, np.random.default_rng(11))
        want = reference_fit_linear_empirical(params, 0.5, 20_000, np.random.default_rng(11))
        assert len(got) == len(want) == m
        for g, w in zip(got, want):
            assert bits([*g.eps, *g.delta, g.gamma]) == bits([*w.eps, *w.delta, w.gamma])

    @pytest.mark.parametrize("m", [2, 3])
    def test_bits_pinned_on_the_reference_draw(self, m):
        # as TestEstimateMoments' pin: the fit, and the validation score
        # select_linear_coefficients gives it, keep their bits on the one-tau
        # reference generator's C-ordered batch
        params = ScenarioParams(n=10, m=m, tau=4, x_max=5, seed=55)
        got = fit_linear_empirical(params, 0.5, 20_000, np.random.default_rng(12))
        want = reference_fit_linear_empirical(params, 0.5, 20_000, np.random.default_rng(12),
                                              draw=reference_sample_batch)
        for g, w in zip(got, want, strict=True):
            assert bits([*g.eps, *g.delta, g.gamma]) == bits([*w.eps, *w.delta, w.gamma])
        scores = [empirical_objective(draw(params, 20_000, np.random.default_rng(13)), got, 0.5)
                  for draw in (sample_batch, reference_sample_batch)]
        assert bits(scores[:1]) == bits(scores[1:])

    def test_input_validation(self):
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=53)
        with pytest.raises(ValueError):
            fit_linear_empirical(params, 0.5, 9_999, np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit_linear_empirical(params, 1.5, 10_000, np.random.default_rng(0))
        bad = ScenarioParams(n=5, m=1, tau=1, x_max=5, seed=53)
        with pytest.raises(ValueError, match="m=1"):
            fit_linear_empirical(bad, 0.5, 10_000, np.random.default_rng(0))


def population_objective(params, coeffs, lam):
    mse, cns = population_scores(params, coeffs)
    return float(_objective_per_trial(np.array(mse)[:, None], np.array(cns)[:, None], lam)[0])


def amplitude_scalars(params, lam):
    """fit_linear_exact's per-agent c by the amplitude theorem, on law_moments' fields.

    The directions are the agents' endpoint sums S_j, centred and scaled to
    unit variance, so agent j's estimate c_j*f_j is (c_j / sd(S)) * S_j: one
    sensor's sum covaries with itself at one agent fully and at two agents
    by keep = (n-tau)/n, and two distinct sensors' sums alike at one agent
    or at two.
    """
    mo = law_moments(params)
    n, m = params.n, params.m
    one = mo.var_l + 2.0 * mo.cov_lu_same + mo.var_u
    two = mo.cov_ll + 2.0 * mo.cov_lu_cross + mo.cov_uu
    var_s = n * one + n * (n - 1) * two
    cov_s = (n - params.tau) * one + n * (n - 1) * two  # n * keep = n - tau
    sd = math.sqrt(var_s)
    cross = np.full((m, m), cov_s / var_s)
    np.fill_diagonal(cross, 1.0)
    dm = DirectionMoments(cross=cross, target=np.full(m, n * (mo.cov_lx + mo.cov_ux) / sd))
    return (amplitude_solution(dm, mo.mean_x, lam).c / sd).tolist()


def shared(n, point, mean_l, mean_u):
    """Shared coefficients with intercepts tied to the given endpoint means."""
    return tuple(LinearCoefficients(np.full(n, e), np.full(n, d), -n * (e * mean_l + d * mean_u)) for e, d in point)


class TestFitLinearExact:
    @pytest.mark.parametrize("x_max", [4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_within_a_hundredth_of_the_sampled_fit(self, m, x_max):
        # the 20,000-sample fit estimates the exact one: every eps and delta
        # within 0.01 (the intercepts follow from them and the endpoint means)
        worst = 0.0
        for n in (6, 10):
            for tau in range(1, min(8, n)):
                params = ScenarioParams(n=n, m=m, tau=tau, x_max=x_max, seed=61)
                for lam in (0.1, 0.5, 0.9):
                    exact = fit_linear_exact(params, lam)
                    sampled = fit_linear_empirical(params, lam, 20_000, np.random.default_rng((n, m, tau, x_max)))
                    for e, s in zip(exact, sampled, strict=True):
                        gap = max(np.abs(e.eps - s.eps).max(), np.abs(e.delta - s.delta).max())
                        worst = max(worst, gap)
                        assert gap <= 0.01, (n, tau, lam, gap)
        assert worst > 0.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_sampled_fit_does_not_beat_it_on_evaluated_trials(self, m):
        # both fits scored on the same evaluate trials: the sampled one may
        # not win by more than 3 paired standard errors
        params = ScenarioParams(n=10, m=m, tau=3, x_max=5, seed=62)
        lambdas = (0.1, 0.5, 0.9)
        specs = []
        for lam in lambdas:
            specs.append(AlgorithmSpec(kind="linear", coeffs=fit_linear_exact(params, lam), label=f"exact@{lam}"))
            sampled = fit_linear_empirical(params, lam, 20_000, np.random.default_rng(m))
            specs.append(AlgorithmSpec(kind="linear", coeffs=sampled, label=f"sampled@{lam}"))
        reports = evaluate(specs, params, 20_000)
        for i, lam in enumerate(lambdas):
            exact, sampled = reports[2 * i: 2 * i + 2]
            diff = (_objective_per_trial(sampled.sq_err, sampled.pair_gap_sq, lam)
                    - _objective_per_trial(exact.sq_err, exact.pair_gap_sq, lam))
            assert diff.mean() >= -3.0 * diff.std(ddof=1) / np.sqrt(diff.size), lam

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_minimizes_the_population_objective(self, lam):
        # over shared coefficients with tied intercepts: the sampled fit and
        # +-1% bumps of the exact one never score lower on the law
        for m in (2, 3, 4):
            params = ScenarioParams(n=6, m=m, tau=2, x_max=5, seed=63)
            moments = law_moments(params)
            fit = fit_linear_exact(params, lam)
            base = population_objective(params, fit, lam)
            sampled = fit_linear_empirical(params, lam, 10_000, np.random.default_rng(m))
            assert population_objective(params, sampled, lam) >= base
            point = np.array([[c.eps[0], c.delta[0]] for c in fit])
            for j in range(m):
                for c in range(2):
                    for sign in (1.0, -1.0):
                        bumped = point.copy()
                        bumped[j, c] *= 1.0 + sign * 0.01
                        bumped_fit = shared(6, bumped, moments.mean_l, moments.mean_u)
                        assert population_objective(params, bumped_fit, lam) >= base * (1 - 1e-12)

    def test_closed_form_is_the_lstsq_solution(self):
        # the least-squares solve of the full 2m x 2m system on the Fraction
        # reference's Gram finds the closed form's scalar to rounding, with
        # the intercepts' cancelling terms left over; where the closed form
        # is 0 it is 0 too
        for m in (2, 3, 4):
            for n in (1, 2, 5, 10, 16):
                for x_max in (1, 2, 3, 5, 20):
                    harmonic = math.fsum(1.0 / p for p in range(1, x_max + 1))
                    for tau in range(n):
                        params = ScenarioParams(n=n, m=m, tau=tau, x_max=x_max, seed=76)
                        for lam in (0.0, 0.1, 0.5, 0.9, 1.0):
                            fit = fit_linear_exact(params, lam)
                            c = fit[0].eps[0]
                            cell = (m, n, x_max, tau, lam)
                            assert c >= 0.0 and (c == 0.0) == (lam == 0.0 or x_max == 1), cell
                            for got, want in zip(fit, reference_fit_linear_lstsq(params, lam), strict=True):
                                assert (got.eps == c).all() and (got.delta == c).all() and got.gamma == 0.0, cell
                                assert np.abs(np.concatenate([want.eps, want.delta]) - c).max() <= 1e-12 * c, cell
                                assert abs(want.gamma) <= 1e-12 * n * c * harmonic, cell

    def test_lattice_sums_are_the_law_moments(self):
        # against the Fraction reference, since law_moments is built from
        # them: cov_lx = keep*x_max*A/3, cov_ll = both*B/3 and the variance of
        # one reading's endpoint sum, var_l + 2*cov_lu_same + var_u = 4*x_max*A/3
        for x_max in (1, 2, 3, 5, 20):
            a, b = oracle._lattice_sums(x_max)
            for n in (2, 5, 10, 16):
                for tau in range(n):
                    mo, _, _ = reference_law_moments(n, 1, tau, x_max)
                    keep = (n - tau) / n
                    both = (n - tau) * (n - tau - 1) / (n * (n - 1))
                    assert keep * x_max * a / 3.0 == pytest.approx(float(mo["cov_lx"]), rel=1e-12, abs=0.0)
                    assert 4.0 * x_max * a / 3.0 == pytest.approx(
                        float(mo["var_l"] + 2 * mo["cov_lu_same"] + mo["var_u"]), rel=1e-12, abs=0.0)
                    assert both * b / 3.0 == pytest.approx(float(mo["cov_ll"]), rel=1e-12, abs=0.0)

    def test_large_lattice_is_quick_and_small(self):
        # x_max = 1000, where a pair-by-pair lattice sum would visit about
        # 500,000 pairs of precisions.  The sums are cached per x_max, so
        # each measured call starts from an empty cache.  Timed without
        # tracemalloc
        params = ScenarioParams(n=10, m=2, tau=3, x_max=1000, seed=78)
        oracle._lattice_sums.cache_clear()
        start = time.perf_counter()
        fit = fit_linear_exact(params, 0.5)
        elapsed = time.perf_counter() - start
        oracle._lattice_sums.cache_clear()
        tracemalloc.start()
        try:
            fit_linear_exact(params, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle._lattice_sums.cache_info().misses == 1
        assert elapsed < 0.5, f"{elapsed:.2f} s"
        assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MiB"
        # the Fraction reference cannot enumerate this lattice's cells; the
        # amplitude theorem on law_moments' fields stands in for it
        assert amplitude_scalars(params, 0.5) == pytest.approx([c.eps[0] for c in fit], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_equals_the_amplitude_solution_on_the_law(self, m):
        # the amplitude theorem with the unit-variance endpoint sums as
        # directions, on the law's own fields, gives the closed form's c
        for n, tau, x_max in ((10, 3, 5), (6, 0, 4), (5, 4, 20), (2, 1, 3), (16, 7, 40)):
            params = ScenarioParams(n=n, m=m, tau=tau, x_max=x_max, seed=80)
            for lam in (0.1, 0.5, 0.9, 1.0):
                want = [c.eps[0] for c in fit_linear_exact(params, lam)]
                assert amplitude_scalars(params, lam) == pytest.approx(want, rel=1e-12, abs=0.0), (n, tau, x_max, lam)

    def test_sweep_and_fit_linear_form_the_lattice_sums_once(self):
        # three lambdas over seven taus: 21 fits in a sweep, and seven
        # selections in fit-linear, each of which reads the sums twice, run
        # the uncached body once per x_max
        config = RunConfig(n=10, m=2, x_max=7, seed=81, taus=tuple(range(1, 8)), lambdas=(0.1, 0.5, 0.9),
                           algorithms=("linear",), trials=100, output_path="unused.csv", format="csv")
        for run in (run_sweep, lambda config: run_fit_linear(config, 0.5)):
            oracle._lattice_sums.cache_clear()
            run(config)
            assert oracle._lattice_sums.cache_info().misses == 1
            run(dataclasses.replace(config, x_max=8))
            assert oracle._lattice_sums.cache_info().misses == 2

    def test_builds_no_lattice_and_solves_nothing(self, monkeypatch):
        # the scalar comes from Python ints and floats: no law_moments call
        # and no BLAS or LAPACK call whose bits follow the host's kernel
        monkeypatch.setattr(optimal, "law_moments", mock.Mock(side_effect=AssertionError("built the lattice")))
        monkeypatch.setattr(np.linalg, "lstsq", mock.Mock(side_effect=AssertionError("called lstsq")))
        fit = fit_linear_exact(ScenarioParams(n=10, m=3, tau=3, x_max=5, seed=79), 0.5)
        assert len(fit) == 3 and fit[0].eps[0] > 0.0

    def test_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(optimal, "sample_batch", mock.Mock(side_effect=AssertionError("drew trials")))
        params = ScenarioParams(n=10, m=3, tau=3, x_max=5, seed=64)
        assert len(fit_linear_exact(params, 0.5)) == 3
        assert len(select_linear_exact(params, 0.5).coeffs) == 3

    def test_single_cell_scenario_estimates_zero(self):
        # x_max=1: every reading is [-1, 1] and the exact features vanish
        fit = fit_linear_exact(ScenarioParams(n=4, m=2, tau=1, x_max=1, seed=65), 0.7)
        for coeffs in fit:
            assert fuse_linear(np.array([[-1.0, 1.0]] * 4), coeffs) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="lam"):
            fit_linear_exact(ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=66), 1.5)
        with pytest.raises(ValueError, match="m=1"):
            fit_linear_exact(ScenarioParams(n=5, m=1, tau=1, x_max=5, seed=66), 0.5)


class TestPopulationScores:
    def test_match_evaluate_within_four_standard_errors(self):
        params = ScenarioParams(n=8, m=3, tau=2, x_max=4, seed=67)
        rng = np.random.default_rng(3)
        coeffs = tuple(LinearCoefficients(np.full(8, e), np.full(8, d), g)
                       for e, d, g in rng.normal(scale=0.1, size=(3, 3)))
        mse, cns = population_scores(params, coeffs)
        report, = evaluate([AlgorithmSpec(kind="linear", coeffs=coeffs)], params, 20_000)
        assert np.all(np.abs(report.mse - mse) <= 4.0 * report.mse_stderr)
        assert np.all(np.abs(report.cns - cns) <= 4.0 * report.cns_stderr)

    @pytest.mark.parametrize("m", [2, 3])
    def test_equal_the_fraction_reference(self, m):
        # mse and cns formed exactly from the Fraction reference's moments,
        # Gram and target, at the scored coefficients
        n, tau, x_max = 8, 2, 4
        coeffs = tuple(LinearCoefficients(np.full(n, e), np.full(n, d), g)
                       for e, d, g in np.random.default_rng(m).normal(scale=0.1, size=(m, 3)))
        mse, cns = population_scores(ScenarioParams(n=n, m=m, tau=tau, x_max=x_max, seed=70), coeffs)
        want_mse, want_cns = reference_population_scores(n, tau, x_max, coeffs)
        assert len(mse) == m and len(cns) == m * (m - 1) // 2
        assert all(type(score) is float for score in mse + cns)
        for j, (got, want) in enumerate(zip(mse + cns, want_mse + want_cns)):
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), j

    def test_constant_fusers_by_hand(self):
        # constant estimates c_j: mse_j = Var(X) + c_j^2 and cns = (c_j - c_k)^2
        params = ScenarioParams(n=4, m=3, tau=1, x_max=5, seed=68)
        coeffs = tuple(LinearCoefficients(np.zeros(4), np.zeros(4), g) for g in (0.0, 1.0, -2.0))
        mse, cns = population_scores(params, coeffs)
        assert mse == pytest.approx([25.0 / 3.0, 25.0 / 3.0 + 1.0, 25.0 / 3.0 + 4.0], rel=1e-15)
        assert cns == [1.0, 4.0, 9.0]

    def test_refuses_per_sensor_and_miscounted_coefficients(self):
        params = ScenarioParams(n=3, m=2, tau=1, x_max=5, seed=69)
        mixed = LinearCoefficients(np.array([0.1, 0.2, 0.1]), np.full(3, 0.1), 0.0)
        flat = LinearCoefficients(np.full(3, 0.1), np.full(3, 0.1), 0.0)
        with pytest.raises(ValueError, match="shared"):
            population_scores(params, (flat, mixed))
        with pytest.raises(ValueError, match="one coefficient set per agent"):
            population_scores(params, (flat,))

    def test_overflow_scores_non_finite(self):
        params = ScenarioParams(n=3, m=2, tau=1, x_max=5, seed=69)
        huge = LinearCoefficients(np.full(3, 1e308), np.full(3, 1e308), 0.0)
        mse, cns = population_scores(params, (huge, huge))
        assert not np.isfinite(mse).any()


class TestEmpiricalObjective:
    def test_tiny_batch_by_hand(self):
        batch = TrialBatch(
            x=np.array([0.0]),
            lo=np.array([[[0.0, 1.0]]]),
            hi=np.array([[[2.0, 3.0]]]),
            faulty=np.zeros((1, 1), dtype=bool),
            precisions=np.ones((1, 1), dtype=int),
        )
        coeffs = (
            LinearCoefficients(np.array([0.5]), np.array([0.5]), 0.0),
            LinearCoefficients(np.array([1.0]), np.array([0.0]), -1.0),
        )
        # estimates are 1.0 and 0.0; mse sum 1.0, pair gap 1.0
        assert empirical_objective(batch, coeffs, 0.5) == pytest.approx(1.0)
        assert empirical_objective(batch, coeffs, 1.0) == pytest.approx(1.0)
        assert empirical_objective(batch, coeffs, 0.0) == pytest.approx(1.0)

    def test_single_agent_is_weighted_mse(self):
        # one agent has no pairs, so the objective is lam * mse with no
        # consensus term (and no division by m-1)
        batch = TrialBatch(
            x=np.array([0.0, 1.0]),
            lo=np.array([[[0.0]], [[1.0]]]),
            hi=np.array([[[2.0]], [[3.0]]]),
            faulty=np.zeros((2, 1), dtype=bool),
            precisions=np.ones((2, 1), dtype=int),
        )
        coeffs = (LinearCoefficients(np.array([0.5]), np.array([0.5]), 0.0),)
        # estimates 1.0 and 2.0 give squared errors 1 and 1
        assert empirical_objective(batch, coeffs, 0.3) == pytest.approx(0.3)
        assert empirical_objective(batch, coeffs, 0.0) == 0.0

    def test_coefficient_count_checked(self):
        batch = TrialBatch(
            x=np.zeros(2),
            lo=np.zeros((2, 1, 2)),
            hi=np.ones((2, 1, 2)),
            faulty=np.zeros((2, 1), dtype=bool),
            precisions=np.ones((2, 1), dtype=int),
        )
        one = (LinearCoefficients(np.array([0.1]), np.array([0.1]), 0.0),)
        with pytest.raises(ValueError):
            empirical_objective(batch, one, 0.5)


    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equals_the_pairwise_index_formula(self, m):
        # the formula empirical_objective used before it shared evaluate's
        # scorer, kept literally as the reference
        def reference(batch, coeffs, lam):
            est = np.stack(
                [linear_rows(ReadingRows(batch.lo[:, :, j], batch.hi[:, :, j]), coeffs[j]) for j in range(m)],
                axis=1,
            )
            j, k = np.triu_indices(m, 1)
            sq_err = ((batch.x[:, None] - est) ** 2).T
            gap_sq = ((est[:, j] - est[:, k]) ** 2).T
            return float(_objective_per_trial(sq_err, gap_sq, lam).mean())

        rng = np.random.default_rng(90 + m)
        batch = sample_batch(ScenarioParams(n=6, m=m, tau=3, x_max=5, seed=90), 2_000, rng)
        for _ in range(5):
            coeffs = tuple(
                LinearCoefficients(rng.normal(size=6), rng.normal(size=6), float(rng.normal()))
                for _ in range(m)
            )
            lam = float(rng.uniform())
            assert empirical_objective(batch, coeffs, lam) == reference(batch, coeffs, lam)


class TestSelectLinearCoefficients:
    def test_selection_reports_cross_check(self):
        # at the reference operating point the literal recipe is known to score
        # far worse than the direct fit; the selection must disclose whichever
        # way it goes rather than hide the comparison
        params = ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=54)
        sel = select_linear_coefficients(params, 0.5, 20_000, np.random.default_rng(9))
        assert len(sel.coeffs) == 2
        assert sel.empirical_objective > 0.0
        if sel.closed_form_used:
            assert sel.closed_form_objective is not None
            assert sel.closed_form_objective <= 1.05 * sel.empirical_objective
        else:
            assert sel.closed_form_objective is not None or sel.closed_form_error is not None

    def test_recipe_skipped_beyond_two_agents(self):
        # at m=3 no moment batch is drawn, so the fit sees the stream's first
        # batch, and the record says why the recipe was not used
        params = ScenarioParams(n=6, m=3, tau=1, x_max=5, seed=57)
        sel = select_linear_coefficients(params, 0.5, 10_000, np.random.default_rng(12))
        fit = fit_linear_empirical(params, 0.5, 10_000, np.random.default_rng(12))
        assert len(sel.coeffs) == 3
        for got, want in zip(sel.coeffs, fit):
            assert np.array_equal(got.eps, want.eps)
            assert np.array_equal(got.delta, want.delta)
            assert got.gamma == want.gamma
        assert not sel.closed_form_used
        assert sel.closed_form_objective is None
        assert "m=3" in sel.closed_form_error
        assert sel.empirical_objective > 0.0

    @pytest.mark.parametrize("m, scorings", [(2, 2), (3, 1)])
    def test_each_candidate_is_scored_once(self, m, scorings):
        # the fit returns coefficients only, so the selection's validation
        # scores are the only ones: the fit's, and at m=2 the recipe's (this
        # cell's recipe yields a candidate there)
        params = ScenarioParams(n=5, m=m, tau=1, x_max=5, seed=60)
        calls = 0
        score = optimal.empirical_objective

        def counted(batch, coeffs, lam):
            nonlocal calls
            calls += 1
            return score(batch, coeffs, lam)

        with mock.patch.object(optimal, "empirical_objective", counted):
            sel = select_linear_coefficients(params, 0.5, 10_000, np.random.default_rng(15))
        assert calls == scorings
        if m == 2:
            assert sel.closed_form_objective == pytest.approx(12879.3, abs=0.05)

    def test_recipe_overflow_is_recorded(self, monkeypatch):
        # on these moments the recipe's objective raises OverflowError (a
        # Python float power); the selection records it and keeps the fit
        moments = zero_moments(cov_ll=0.5, cov_lu_cross=5.5e-300, cov_ux=1.0)
        with pytest.raises(OverflowError):
            solve_linear_two_agent(moments, 0.1, 2)
        monkeypatch.setattr(optimal, "estimate_moments", lambda params, samples, rng: moments)
        params = ScenarioParams(n=2, m=2, tau=1, x_max=5, seed=58)
        sel = select_linear_coefficients(params, 0.1, 10_000, np.random.default_rng(13))
        fit = fit_linear_empirical(params, 0.1, 10_000, np.random.default_rng(13))
        for got, want in zip(sel.coeffs, fit):
            assert np.array_equal(got.eps, want.eps)
            assert np.array_equal(got.delta, want.delta)
        assert not sel.closed_form_used
        assert sel.closed_form_objective is None
        assert "overflow" in sel.closed_form_error

    def test_recipe_value_error_is_recorded(self):
        # the recipe is defined on 0 < lam < 1, so at lam = 0 it raises; the
        # selection records why and keeps the fit, drawn after the moments
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=59)
        sel = select_linear_coefficients(params, 0.0, 10_000, np.random.default_rng(14))
        rng = np.random.default_rng(14)
        estimate_moments(params, 10_000, rng)
        fit = fit_linear_empirical(params, 0.0, 10_000, rng)
        for got, want in zip(sel.coeffs, fit, strict=True):
            assert np.array_equal(got.eps, want.eps)
            assert np.array_equal(got.delta, want.delta)
            assert got.gamma == want.gamma
        assert not sel.closed_form_used
        assert sel.closed_form_objective is None
        assert "(0, 1)" in sel.closed_form_error

    def test_overflowing_recipe_scores_non_finite_and_is_rejected(self, monkeypatch):
        # a recipe point whose estimates overflow is scored, not refused, and
        # loses to the fit
        class Overflowing:
            def to_coefficients(self, n):
                return tuple(LinearCoefficients(np.full(n, 1e308), np.full(n, 1e308), 0.0) for _ in range(2))

        monkeypatch.setattr(optimal, "solve_linear_two_agent", lambda moments, lam, n: Overflowing())
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=60)
        sel = select_linear_coefficients(params, 0.5, 10_000, np.random.default_rng(15))
        assert not sel.closed_form_used
        assert not np.isfinite(sel.closed_form_objective)
        assert sel.closed_form_error is None
        assert np.isfinite(sel.empirical_objective)


class TestSelectLinearExact:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_sweep_fit_cell(self, lam):
        # the benchmark's cell: the recipe runs on the exact moments, scores
        # thousands of times the fit's population objective and is rejected
        params = ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=70)
        sel = select_linear_exact(params, lam)
        fit = fit_linear_exact(params, lam)
        closed = solve_linear_two_agent(law_moments(params), lam, 10).to_coefficients(10)
        assert not sel.closed_form_used and sel.closed_form_error is None
        assert sel.empirical_objective == population_objective(params, fit, lam)
        assert sel.closed_form_objective == population_objective(params, closed, lam)
        assert sel.closed_form_objective > 100.0 * sel.empirical_objective
        for got, want in zip(sel.coeffs, fit, strict=True):
            assert bits([*got.eps, *got.delta, got.gamma]) == bits([*want.eps, *want.delta, want.gamma])

    def test_selection_is_the_exact_fit(self):
        # sweeps run fit_linear_exact alone because of this: the recipe's
        # candidates share coefficients across sensors, the family the fit
        # minimizes over, so the selection returns the fit's bits.  At
        # x_max = 1 every reading is the whole range and both give the
        # constant fuser, so the recipe ties and is kept; elsewhere it loses
        for n in (3, 6, 10):
            for tau in range(n):
                for x_max in (1, 2, 5):
                    for lam in (0.1, 0.5, 0.9):
                        params = ScenarioParams(n=n, m=2, tau=tau, x_max=x_max, seed=75)
                        sel = select_linear_exact(params, lam)
                        assert sel.closed_form_used == (x_max == 1), (n, tau, x_max, lam)
                        for got, want in zip(sel.coeffs, fit_linear_exact(params, lam), strict=True):
                            assert (bits([*got.eps, *got.delta, got.gamma])
                                    == bits([*want.eps, *want.delta, want.gamma])), (n, tau, x_max, lam)

    def test_recipe_skipped_beyond_two_agents(self):
        params = ScenarioParams(n=6, m=3, tau=1, x_max=5, seed=71)
        with mock.patch.object(optimal, "solve_linear_two_agent", side_effect=AssertionError("recipe ran")):
            sel = select_linear_exact(params, 0.5)
        assert not sel.closed_form_used
        assert sel.closed_form_objective is None
        assert "m=3" in sel.closed_form_error
        assert sel.empirical_objective > 0.0

    def test_recipe_value_error_is_recorded(self):
        # the recipe is defined on 0 < lam < 1, so at lam = 0 it raises
        sel = select_linear_exact(ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=72), 0.0)
        assert not sel.closed_form_used
        assert "(0, 1)" in sel.closed_form_error

    def test_recipe_with_no_finite_search_is_recorded(self):
        # every candidate scores the infinite penalty on these moments; the
        # selection records why and keeps the fit
        params = ScenarioParams(n=2, m=2, tau=1, x_max=5, seed=74)
        fit = fit_linear_exact(params, 0.5)
        sel = optimal._select(params, 0.5, zero_moments(**HUGE_MOMENTS), fit,
                              lambda coeffs: population_objective(params, coeffs, 0.5))
        assert not sel.closed_form_used
        assert sel.closed_form_objective is None
        assert "no start reached a finite objective" in sel.closed_form_error
        assert sel.coeffs == fit
        assert sel.empirical_objective == population_objective(params, fit, 0.5)

    def test_close_recipe_is_kept(self, monkeypatch):
        # a recipe candidate within 5% of the fit's population objective is selected
        params = ScenarioParams(n=5, m=2, tau=1, x_max=5, seed=73)
        fit = fit_linear_exact(params, 0.5)

        class Close:
            def to_coefficients(self, n):
                return tuple(LinearCoefficients(c.eps * 1.01, c.delta * 1.01, c.gamma * 1.01) for c in fit)

        monkeypatch.setattr(optimal, "solve_linear_two_agent", lambda moments, lam, n: Close())
        sel = select_linear_exact(params, 0.5)
        assert sel.closed_form_used
        assert sel.empirical_objective <= sel.closed_form_objective <= 1.05 * sel.empirical_objective
        assert sel.coeffs[0].eps[0] == fit[0].eps[0] * 1.01
