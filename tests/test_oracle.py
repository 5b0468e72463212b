"""Exact posterior-mean reference: closed-form values, normalization, grid agreement."""

import numpy as np
import pytest

from intervalfusion import (
    InconsistentReadingsError,
    Interval,
    OffLatticeError,
    ScenarioParams,
    fuse_gbi_oneopt,
    fuse_gbi_regions,
    implied_precision,
    make_trial,
    posterior_density,
    posterior_mean_exact,
)


def agent_readings(trial, agent=0):
    return [row[agent] for row in trial.readings]


class TestImpliedPrecision:
    def test_exact_widths(self):
        assert implied_precision(Interval(-5, 5), 5) == 1
        assert implied_precision(Interval(0, 2), 5) == 5
        assert implied_precision(Interval(-5, -5 + 10 / 3), 5) == 3

    def test_bad_width(self):
        with pytest.raises(OffLatticeError):
            implied_precision(Interval(0, 3), 5)
        with pytest.raises(OffLatticeError):
            implied_precision(Interval(0, 0), 5)
        with pytest.raises(OffLatticeError):
            implied_precision(Interval(0, 30), 5)


class TestClosedFormCases:
    def test_single_sensor(self):
        params = ScenarioParams(n=1, m=1, tau=0, x_max=5, seed=0)
        assert posterior_mean_exact([Interval(0, 2)], params) == pytest.approx(1.0)
        assert posterior_mean_exact([Interval(-5, 5)], params) == pytest.approx(0.0)

    def test_two_truthful_sensors(self):
        # both truthful: posterior is uniform on the intersection [0, 1]
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        value = posterior_mean_exact([Interval(0, 2), Interval(-1, 1)], params)
        assert value == pytest.approx(0.5)

    def test_inconsistent_raises(self):
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        with pytest.raises(InconsistentReadingsError):
            posterior_mean_exact([Interval(-5, -3), Interval(3, 5)], params)

    def test_wrong_count_raises(self):
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        with pytest.raises(ValueError):
            posterior_mean_exact([Interval(0, 2)], params)

    def test_off_lattice_raises(self):
        params = ScenarioParams(n=2, m=1, tau=1, x_max=5, seed=0)
        with pytest.raises(OffLatticeError):
            posterior_mean_exact([Interval(0, 2), Interval(0, 3)], params)

    def test_one_faulty_mixture(self):
        # n=2, tau=1, x_max=2, readings [-2,0] and [0,2]:
        # pattern "sensor 2 faulty": flat on [-2,0], level (1/4)*(1/2)*(1/(2*2))
        # pattern "sensor 1 faulty": flat on [0,2], same level by symmetry;
        # posterior mean is 0 by symmetry
        params = ScenarioParams(n=2, m=1, tau=1, x_max=2, seed=0)
        value = posterior_mean_exact([Interval(-2, 0), Interval(0, 2)], params)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_one_faulty_asymmetric(self):
        # n=2, tau=1, x_max=2, readings [-2,0] (precision 2) and [-2,2]
        # (precision 1).  Hand integration:
        #   sensor 2 assumed faulty adds level (1/4)*(1/2)*(1/(2*1)) = 1/16 on [-2,0]
        #   sensor 1 assumed faulty adds level (1/4)*(1/2)*(1/(2*2)) = 1/32 on [-2,2]
        # so the density is 3/32 on [-2,0] and 1/32 on [0,2]; mass = 1/4,
        # first moment = (3/32)*(-2) + (1/32)*(+2) = -1/8, mean = -1/2
        params = ScenarioParams(n=2, m=1, tau=1, x_max=2, seed=0)
        value = posterior_mean_exact([Interval(-2, 0), Interval(-2, 2)], params)
        assert value == pytest.approx(-0.5)


class TestDensityStructure:
    def test_normalization(self):
        params = ScenarioParams(n=4, m=1, tau=1, x_max=5, seed=21)
        for i in range(100):
            trial = make_trial(params, i)
            density = posterior_density(agent_readings(trial), params).normalized()
            assert density.mass() == pytest.approx(1.0, abs=1e-12)

    def test_support_inside_range(self):
        params = ScenarioParams(n=3, m=1, tau=1, x_max=3, seed=22)
        for i in range(100):
            trial = make_trial(params, i)
            density = posterior_density(agent_readings(trial), params)
            assert density.breakpoints[0] >= -3.0
            assert density.breakpoints[-1] <= 3.0
            value = density.mean()
            assert -3.0 <= value <= 3.0

    def test_mean_in_consistent_hull(self):
        # the mean lies inside the hull of the truthful-subset intersections
        params = ScenarioParams(n=4, m=1, tau=2, x_max=5, seed=23)
        for i in range(100):
            trial = make_trial(params, i)
            readings = agent_readings(trial)
            density = posterior_density(readings, params)
            support = density.breakpoints[:-1][density.levels > 0]
            support_hi = density.breakpoints[1:][density.levels > 0]
            value = density.mean()
            assert support.min() <= value <= support_hi.max()

    def test_grid_agreement(self):
        # crude independent check: 10^6-point uniform-grid quadrature of the
        # same piecewise density reproduces the exact mean within 1e-4
        params = ScenarioParams(n=4, m=1, tau=1, x_max=5, seed=24)
        grid = np.linspace(-5.0, 5.0, 1_000_001)
        mid_grid = (grid[:-1] + grid[1:]) / 2.0
        for i in range(100):
            trial = make_trial(params, i)
            density = posterior_density(agent_readings(trial), params)
            idx = np.searchsorted(density.breakpoints, mid_grid) - 1
            inside = (idx >= 0) & (idx < density.levels.size)
            values = np.where(inside, density.levels[np.clip(idx, 0, density.levels.size - 1)], 0.0)
            approx = float(np.dot(values, mid_grid) / values.sum())
            assert approx == pytest.approx(density.mean(), abs=1e-4)


class TestGbiEquivalence:
    @pytest.mark.parametrize("n,tau", [(2, 1), (3, 1), (4, 2), (5, 3), (8, 4)])
    def test_matches_gbi(self, n, tau):
        params = ScenarioParams(n=n, m=2, tau=tau, x_max=5, seed=100 + n)
        worst = worst_regions = 0.0
        for i in range(75):
            trial = make_trial(params, i)
            for j in range(2):
                readings = agent_readings(trial, j)
                exact = posterior_mean_exact(readings, params)
                worst = max(worst, abs(fuse_gbi_oneopt(readings, tau) - exact))
                worst_regions = max(worst_regions, abs(fuse_gbi_regions(readings, tau) - exact))
        assert worst < 1e-9
        assert worst_regions < 1e-9
