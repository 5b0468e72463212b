"""Exact posterior-mean reference: closed-form values, normalization, grid
agreement, and the batch oracle against a copy of the scalar loop.  The
law's exact moments, and the linear fusers' scores formed from them,
against a Fraction reference and against sampling."""

import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    reference_lattice_b,
    reference_lattice_b_by_pairs,
    reference_law_moments,
    reference_population_scores,
    reference_posterior_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalfusion import (
    InconsistentReadingsError,
    Interval,
    LinearCoefficients,
    MomentSet,
    OffLatticeError,
    PiecewiseDensity,
    ScenarioParams,
    estimate_moments,
    fuse_gbi_oneopt,
    fuse_gbi_regions,
    implied_precision,
    law_moments,
    make_trial,
    make_trials,
    optimal,
    oracle,
    posterior_density,
    posterior_mean_exact,
)
from intervalfusion.oracle import posterior_rows
from intervalfusion.scenario import ReadingRows, draw_trials, sample_batch


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
    def test_support_inside_range(self):
        params = ScenarioParams(n=3, m=1, tau=1, x_max=3, seed=22)
        for i in range(100):
            trial = make_trial(params, i)
            density = posterior_density(agent_readings(trial), params)
            assert density.breakpoints[0] >= -3.0
            assert density.breakpoints[-1] <= 3.0
            value = float(density.means())
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
            value = float(density.means())
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
            assert approx == pytest.approx(float(density.means()), abs=1e-4)


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


def scalar_implied_precision(reading, x_max):
    """implied_precision as it was before the batch oracle, copied literally."""
    width = reading.width
    if width <= 0:
        raise OffLatticeError(f"reading width must be positive, got {width}")
    # the one departure from the old code, whose division overflowed for a
    # subnormal width: the batch oracle reports such a width as precision inf
    with np.errstate(over="ignore"):
        ratio = 2.0 * x_max / np.float64(width)
    if np.isinf(ratio):
        raise OffLatticeError(f"width {width} implies precision inf outside 1..{x_max}")
    precision = int(round(ratio))
    if precision < 1 or precision > x_max:
        raise OffLatticeError(f"width {width} implies precision {precision} outside 1..{x_max}")
    if abs(width - 2.0 * x_max / precision) > 1e-9 * (1.0 + width):
        raise OffLatticeError(f"width {width} is not 2*{x_max}/k for any integer k in 1..{x_max}")
    return precision


def scalar_posterior_density(readings, params):
    """posterior_density as it was before the batch oracle: one Python pass
    per fault pattern, copied literally."""
    n = len(readings)
    tau, x_max = params.tau, params.x_max
    if n != params.n:
        raise ValueError(f"expected {params.n} readings, got {n}")
    precisions = [scalar_implied_precision(iv, x_max) for iv in readings]

    lo = np.array([iv.lo for iv in readings], dtype=float)
    hi = np.array([iv.hi for iv in readings], dtype=float)
    points = np.unique(np.concatenate([lo, hi, [-float(x_max), float(x_max)]]))
    points = points[(points >= -x_max) & (points <= x_max)]
    levels = np.zeros(points.size - 1, dtype=float)

    prior = 1.0 / (2.0 * x_max)
    truthful_factor = (1.0 / x_max) ** (n - tau)
    for truthful in itertools.combinations(range(n), n - tau):
        truthful_set = set(truthful)
        a = max(-float(x_max), max(lo[i] for i in truthful))
        b = min(float(x_max), min(hi[i] for i in truthful))
        if b <= a:
            continue
        coeff = prior * truthful_factor
        for i in range(n):
            if i not in truthful_set:
                coeff /= x_max * precisions[i]
        start = int(np.searchsorted(points, a))
        stop = int(np.searchsorted(points, b))
        levels[start:stop] += coeff
    return PiecewiseDensity(breakpoints=points, levels=levels)


def scalar_outcome(readings, params):
    """The copy's density and mean, or the error it stops with."""
    try:
        density = scalar_posterior_density(readings, params)
        # the old one-row mean refused a density with no mass
        if density.masses() <= 0.0:
            raise InconsistentReadingsError("density carries no mass")
        return density, float(density.means())
    except ValueError as exc:
        return exc


def batch_outcome(lo, hi, params):
    try:
        return posterior_rows(ReadingRows(lo, hi), params)
    except ValueError as exc:
        return exc


@st.composite
def reading_rows(draw):
    """(lo, hi, params): a few rows of one agent's readings each.

    Rows are in-model (make_trials rows of every agent), or on-lattice rows
    drawn freely: each reading has a lattice width, sits on its cell grid or
    anywhere within one width of the range, and may be replaced by a reading
    of arbitrary or zero width.  Free rows can be inconsistent or off the
    lattice; the comparison expects the same error then.
    """
    n = draw(st.integers(1, 8))
    tau = draw(st.integers(0, n - 1))
    x_max = draw(st.integers(1, 5))
    params = ScenarioParams(n=n, m=draw(st.integers(1, 3)), tau=tau, x_max=x_max,
                            seed=draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        start = draw(st.integers(0, 300))
        rows = make_trials(params, start, start + draw(st.integers(1, 3))).rows()
        return rows.lo, rows.hi, params
    rows = draw(st.integers(1, 4))
    lo, hi = np.empty((rows, n)), np.empty((rows, n))
    for r in range(rows):
        for i in range(n):
            width = 2.0 * x_max / draw(st.integers(1, x_max))
            if draw(st.booleans()):
                lo[r, i] = -x_max + width * draw(st.integers(0, round(2.0 * x_max / width) - 1))
            else:
                lo[r, i] = draw(st.floats(-x_max - width, float(x_max)))
            corruption = draw(st.sampled_from(["none"] * 8 + ["zero", "free"]))
            if corruption == "zero":
                width = 0.0
            elif corruption == "free":
                width = draw(st.floats(0.0, 3.0 * x_max))
            hi[r, i] = lo[r, i] + width
    return lo, hi, params


def assert_same_density(got, want, row):
    """One row of posterior_rows against the copy's density and mean, to 1e-12 relative."""
    density, mean = want
    points = got.breakpoints[row]
    keep = np.diff(points) > 0
    assert np.array_equal(np.unique(points), density.breakpoints)
    assert got.levels[row][keep] == pytest.approx(density.levels, rel=1e-12, abs=0.0)
    assert got.means()[row] == pytest.approx(mean, rel=1e-12, abs=1e-12)


class TestBatchOracle:
    @given(reading_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_copy(self, drawn):
        lo, hi, params = drawn
        wants = [scalar_outcome([Interval(a, b) for a, b in zip(lo[r], hi[r])], params)
                 for r in range(lo.shape[0])]
        for r, want in enumerate(wants):
            got = batch_outcome(lo[r:r + 1], hi[r:r + 1], params)
            if isinstance(want, Exception) or isinstance(got, Exception):
                assert type(got) is type(want), (r, got, want)
                if isinstance(want, OffLatticeError):
                    assert str(got) == str(want)
            else:
                assert_same_density(got, want, 0)
        got = batch_outcome(lo, hi, params)
        errors = [type(want) for want in wants if isinstance(want, Exception)]
        if errors:
            assert type(got) in errors
        else:
            for r, want in enumerate(wants):
                assert_same_density(got, want, r)

    @given(reading_rows())
    @settings(max_examples=100, deadline=None)
    def test_one_row_views_match_scalar_copy(self, drawn):
        lo, hi, params = drawn
        readings = [Interval(a, b) for a, b in zip(lo[0], hi[0])]
        want = scalar_outcome(readings, params)
        if isinstance(want, Exception):
            with pytest.raises(type(want)):
                posterior_mean_exact(readings, params)
            return
        density = posterior_density(readings, params)
        assert np.array_equal(density.breakpoints, want[0].breakpoints)
        assert density.levels == pytest.approx(want[0].levels, rel=1e-12, abs=0.0)
        assert posterior_mean_exact(readings, params) == pytest.approx(want[1], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("case,readings", [
        ("off-lattice width", [(0.0, 2.0), (0.0, 3.0)]),
        ("zero width", [(0.0, 2.0), (1.0, 1.0)]),
        ("inconsistent", [(-5.0, -3.0), (3.0, 5.0)]),
        ("too few", [(0.0, 2.0)]),
        ("too many", [(0.0, 2.0), (-1.0, 1.0), (0.0, 2.0)]),
    ])
    def test_error_cases_raise_as_scalar_copy(self, case, readings):
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        want = scalar_outcome([Interval(a, b) for a, b in readings], params)
        assert isinstance(want, ValueError), case
        lo = np.array([[a for a, _ in readings]])
        hi = np.array([[b for _, b in readings]])
        with pytest.raises(type(want)) as info:
            posterior_rows(ReadingRows(lo, hi), params)
        assert type(info.value) is type(want)

    def test_inconsistent_row_is_named(self):
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        lo = np.array([[0.0, -1.0], [-5.0, 3.0]])
        hi = np.array([[2.0, 1.0], [-3.0, 5.0]])
        with pytest.raises(InconsistentReadingsError, match="row 1"):
            posterior_rows(ReadingRows(lo, hi), params)

    def test_one_row_mean_is_its_row_of_the_stack(self):
        # posterior_mean_exact and oracle-check read the same sums, bit for bit
        for n, x_max in itertools.product(range(1, 9), (1, 3, 5)):
            for tau in range(n):
                params = ScenarioParams(n=n, m=3, tau=tau, x_max=x_max, seed=97 * n + tau)
                rows = make_trials(params, 0, 40).rows()
                means = posterior_rows(rows, params).means()
                for row, want in enumerate(means.tolist()):
                    readings = [Interval(a, b) for a, b in zip(rows.lo[row].tolist(), rows.hi[row].tolist())]
                    assert posterior_mean_exact(readings, params) == want, (n, tau, x_max, row)

    def test_equals_the_membership_cube_copy(self):
        # means and positive-width levels bit for bit; a zero-width gap now carries level 0
        def assert_bit_equal(rows, params):
            got = posterior_rows(rows, params)
            want = reference_posterior_rows(rows.lo, rows.hi, params)
            assert np.array_equal(got.breakpoints.view(np.uint64), want.breakpoints.view(np.uint64))
            gaps = np.diff(got.breakpoints, axis=1) > 0
            assert np.array_equal(got.levels[gaps].view(np.int64), want.levels[gaps].view(np.int64))
            assert (got.levels[~gaps] == 0.0).all()
            assert np.array_equal(got.means().view(np.int64), want.means().view(np.int64))
            return gaps

        for n, x_max in itertools.product(range(1, 9), (1, 3, 5)):
            for tau in range(n):
                params = ScenarioParams(n=n, m=3, tau=tau, x_max=x_max, seed=89 * n + tau)
                assert_bit_equal(make_trials(params, 0, 40).rows(), params)
        # the study's n and taus, and the wide n
        for n, taus in ((10, range(1, 8)), (16, (4, 8, 12))):
            for tau in taus:
                params = ScenarioParams(n=n, m=2, tau=tau, x_max=5, seed=n + tau)
                assert_bit_equal(draw_trials(params, 0, 16).at(tau).rows(), params)
        # tied endpoints, readings past +-x_max, endpoints on +-x_max, touching
        # readings and signed zeros, all on the lattice of x_max = 5
        hand = np.array([
            [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.5), (-5.0, 5.0)],
            [(3.0, 8.0), (-7.0, 3.0), (4.0, 9.0), (3.0, 5.0)],
            [(-5.0, -3.0), (3.0, 5.0), (-5.0, 5.0), (-5.0, 0.0)],
            [(6.0, 8.0), (-2.0, 0.0), (-2.0, 0.5), (0.0, 2.0)],
            [(-0.0, 2.0), (0.0, 2.5), (-2.0, 0.0), (-2.5, -0.0)],
        ])
        zero_width = 0
        for tau in range(4):
            params = ScenarioParams(n=4, m=1, tau=tau, x_max=5, seed=0)
            consistent = []
            for row in hand:
                rows = ReadingRows.of(row)
                if reference_posterior_rows(rows.lo, rows.hi, params).masses()[0] > 0.0:
                    consistent.append(row)
                    zero_width += int((~assert_bit_equal(rows, params)).sum())
                else:
                    with pytest.raises(InconsistentReadingsError):
                        posterior_rows(rows, params)
            assert_bit_equal(ReadingRows.of_stack(np.array(consistent)), params)
        assert zero_width > 0

    def test_posterior_memory_at_n_16(self):
        # the (rows, patterns, regions) membership peaked at 37.5 MiB on 32 rows;
        # float64 pattern counts peaked at 133.6 MiB on 256 rows, float32 at 85.5
        params = ScenarioParams(n=16, m=2, tau=8, x_max=5, seed=777)
        for trials, bound in ((16, 24), (128, 100)):
            rows = draw_trials(params, 0, trials).at(8).rows()
            tracemalloc.start()
            try:
                density = posterior_rows(rows, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert density.levels.shape[0] == 2 * trials
            assert peak < bound * 2**20, (trials, peak)

    def test_non_finite_endpoints_rejected(self):
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        with pytest.raises(ValueError, match="finite"):
            posterior_rows(ReadingRows(np.array([[0.0, np.nan]]), np.array([[2.0, 1.0]])), params)

    def test_reversed_reading_rejected(self):
        # the fusers' rule, not an off-lattice negative width
        params = ScenarioParams(n=2, m=1, tau=0, x_max=5, seed=0)
        message = "interval with lower endpoint above upper endpoint"
        with pytest.raises(ValueError, match=message) as info:
            posterior_mean_exact(np.array([[0.0, 2.0], [3.0, 1.0]]), params)
        assert not isinstance(info.value, OffLatticeError)
        with pytest.raises(ValueError, match=message):
            posterior_rows(ReadingRows([[0.0, 3.0]], [[2.0, 1.0]]), params)


# x_max 1-6, n 2-10, every tau
LAW_GRID = [(x_max, n, tau) for x_max in range(1, 7) for n in range(2, 11) for tau in range(n)]


def assert_close(got, want, where):
    """Relative 1e-12, or absolute 1e-12 where the exact value is 0."""
    want = float(want)
    assert abs(got - want) <= (1e-12 * abs(want) if want else 1e-12), (where, got, want)


def assert_relative(got, exact, bound):
    """got within bound relative of the Fraction exact, measured exactly; exactly 0 where exact is 0."""
    error = abs(Fraction(got) - exact)
    assert (error <= bound * abs(exact)) if exact else (error == 0), (got, float(exact))


def moment_terms(batch):
    """Per-trial terms whose means make up estimate_moments' fields.

    Returns the terms by name and each field as (A, B, C): the field is
    mean(A) - mean(B) * mean(C), or mean(A) where B is None.
    """
    L, U, X = batch.lo[:, :, 0], batch.hi[:, :, 0], batch.x
    n = L.shape[1]
    sl, su = L.sum(axis=1), U.sum(axis=1)
    terms = {
        "X": X, "XX": X * X, "L": L.mean(axis=1), "U": U.mean(axis=1),
        "LL": (L * L).mean(axis=1), "UU": (U * U).mean(axis=1), "LU": (L * U).mean(axis=1),
        "LX": (L * X[:, None]).mean(axis=1), "UX": (U * X[:, None]).mean(axis=1),
        "LL2": (sl * sl - (L * L).sum(axis=1)) / (n * (n - 1)),
        "UU2": (su * su - (U * U).sum(axis=1)) / (n * (n - 1)),
        "LU2": (sl * su - (L * U).sum(axis=1)) / (n * (n - 1)),
    }
    fields = {
        "mean_x": ("X", None, None), "var_x": ("XX", "X", "X"), "mean_l": ("L", None, None),
        "mean_u": ("U", None, None), "var_l": ("LL", "L", "L"), "cov_ll": ("LL2", "L", "L"),
        "var_u": ("UU", "U", "U"), "cov_uu": ("UU2", "U", "U"), "cov_lu_same": ("LU", "L", "U"),
        "cov_lu_cross": ("LU2", "L", "U"), "cov_lx": ("LX", "L", "X"), "cov_ux": ("UX", "U", "X"),
    }
    return terms, fields


def delta_method_se(terms, a, b, c):
    """Standard error of mean(A) - mean(B) * mean(C) from its per-trial influence values."""
    influence = terms[a] if b is None else terms[a] - terms[b] * terms[c].mean() - terms[c] * terms[b].mean()
    return float(influence.std(ddof=1) / np.sqrt(influence.size))


class TestLawMoments:
    @pytest.mark.parametrize("x_max", range(1, 7))
    def test_equals_the_fraction_reference(self, x_max):
        for n in range(2, 11):
            for tau in range(n):
                moments = law_moments(ScenarioParams(n=n, m=2, tau=tau, x_max=x_max, seed=0))
                fields, _, _ = reference_law_moments(n, 2, tau, x_max)
                for name, want in fields.items():
                    assert_close(getattr(moments, name), want, (n, tau, name))

    @pytest.mark.parametrize("m", [3, 4])
    def test_gram_beyond_two_agents(self, m):
        # the feature Gram's blocks, at one agent and at two, and E[X F] as
        # population_scores forms them from the law's fields: its mse and cns
        # of random shared coefficients against the Fraction reference's
        # quadratic forms, over the grid
        for x_max, n, tau in LAW_GRID:
            params = ScenarioParams(n=n, m=m, tau=tau, x_max=x_max, seed=0)
            coeffs = tuple(LinearCoefficients(np.full(n, e), np.full(n, d), g)
                           for e, d, g in np.random.default_rng((m, x_max, n, tau)).normal(scale=0.1, size=(m, 3)))
            mse, cns = optimal.population_scores(params, coeffs)
            want_mse, want_cns = reference_population_scores(n, tau, x_max, coeffs)
            assert len(mse) == m and len(cns) == m * (m - 1) // 2
            for j, (got, want) in enumerate(zip(mse + cns, want_mse + want_cns)):
                assert_close(got, want, (x_max, n, tau, j))

    def test_sampled_estimates_lie_within_four_standard_errors(self, monkeypatch):
        # estimate_moments on 20,000 trials per cell of the grid, its standard
        # errors from the batch it drew; a field that is exactly 0 (x_max = 1)
        # may miss only by rounding
        drawn = []
        monkeypatch.setattr(optimal, "sample_batch", lambda *args: drawn.append(sample_batch(*args)) or drawn[-1])
        worst = 0.0
        for x_max, n, tau in LAW_GRID:
            params = ScenarioParams(n=n, m=2, tau=tau, x_max=x_max, seed=0)
            exact = law_moments(params)
            got = estimate_moments(params, 20_000, np.random.default_rng((x_max, n, tau)))
            terms, fields = moment_terms(drawn.pop())
            for name, (a, b, c) in fields.items():
                se = delta_method_se(terms, a, b, c)
                miss = abs(getattr(got, name) - getattr(exact, name))
                assert miss <= 4.0 * se + 1e-12, (x_max, n, tau, name, miss, se)
                if se > 0:
                    worst = max(worst, miss / se)
        assert worst > 2.0  # the errors are sampling errors, not all zero

    @pytest.mark.parametrize("x_max", range(1, 13))
    def test_lattice_b_is_the_fraction_reference(self, x_max):
        # B = 3*cov_ll at n = 2, tau = 0, where both readings are truthful
        fields, _, _ = reference_law_moments(2, 1, 0, x_max)
        assert 3 * fields["cov_ll"] == reference_lattice_b(x_max)
        assert_relative(oracle._lattice_sums(x_max)[1], reference_lattice_b(x_max), 1e-15)

    def test_lattice_b_by_sieve_keeps_the_pair_sums_bits_or_nears_the_exact_value(self):
        # x_max 1-40 against B's definition; where the sieve's bits differ
        # from the pair-by-pair sum's (x_max = 3), the sieve lies nearer the
        # exact value
        moved = []
        for x_max in range(1, 41):
            b, exact = oracle._lattice_sums(x_max)[1], reference_lattice_b(x_max)
            assert_relative(b, exact, 1e-15)
            pairwise = reference_lattice_b_by_pairs(x_max)
            if b != pairwise:
                moved.append(x_max)
                assert abs(Fraction(b) - exact) < abs(Fraction(pairwise) - exact), x_max
        assert moved == [3]

    @pytest.mark.parametrize("x_max", [1000, 2000])
    def test_lattice_b_by_sieve_equals_the_pair_sums_at_scale(self, x_max):
        assert_relative(oracle._lattice_sums(x_max)[1], Fraction(reference_lattice_b_by_pairs(x_max)), 1e-15)

    def test_lattice_sums_at_a_hundred_thousand_are_quick(self):
        # the sieve's time grows as x_max log log x_max: at 10^5 the
        # pair-by-pair sum would take about 15 minutes
        oracle._lattice_sums.cache_clear()
        start = time.perf_counter()
        a, b = oracle._lattice_sums(100_000)
        elapsed = time.perf_counter() - start
        assert oracle._lattice_sums.cache_info().misses == 1
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        # A = x_max - H_2(x_max), and B - A^2 tends to
        # zeta(2)^3/zeta(4) - zeta(2)^2 = 5 pi^2/12 - pi^4/36 as x_max grows
        n = 100_000
        assert a == pytest.approx(n - (math.pi ** 2 / 6 - 1 / n + 1 / (2 * n * n)), rel=1e-15)
        assert b - a * a == pytest.approx(5 * math.pi ** 2 / 12 - math.pi ** 4 / 36, abs=1e-3)

    def test_fields_are_python_floats(self):
        # the recipe's search runs in pure Python, where numpy scalars cost
        # about 1.7x as much per evaluation
        moments = law_moments(ScenarioParams(n=10, m=2, tau=3, x_max=5, seed=0))
        for field in dataclasses.fields(MomentSet):
            assert type(getattr(moments, field.name)) is float, field.name

    def test_depends_on_the_law_only(self):
        # on n, tau and x_max: not on the seed, nor on the number of agents
        a = law_moments(ScenarioParams(n=7, m=3, tau=2, x_max=5, seed=1))
        b = law_moments(ScenarioParams(n=7, m=2, tau=2, x_max=5, seed=2))
        assert type(a) is MomentSet and a == b

    def test_one_sensor_repeats_the_same_sensor_fields(self):
        # as estimate_moments does, with no distinct pair to pool
        moments = law_moments(ScenarioParams(n=1, m=2, tau=0, x_max=5, seed=0))
        assert moments.cov_ll == moments.var_l
        assert moments.cov_uu == moments.var_u
        assert moments.cov_lu_cross == moments.cov_lu_same

    def test_large_lattice_is_quick_and_small(self):
        # x_max = 1000, where a pair-by-pair sum would visit about 500,000
        # pairs of precisions; the sieve's time grows as x_max log log x_max
        # and its memory as x_max.  The sums are cached per x_max, so each
        # measured call starts from an empty cache.  Timed without
        # tracemalloc, which hooks every number the sums form
        params = ScenarioParams(n=10, m=2, tau=3, x_max=1000, seed=0)
        oracle._lattice_sums.cache_clear()
        start = time.perf_counter()
        moments = law_moments(params)
        elapsed = time.perf_counter() - start
        oracle._lattice_sums.cache_clear()
        tracemalloc.start()
        try:
            law_moments(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle._lattice_sums.cache_info().misses == 1
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"
        # E[L] = -H(x_max), the harmonic number, by symmetry E[U] = H(x_max)
        harmonic = sum(1.0 / p for p in range(1, 1001))
        assert moments.mean_l == pytest.approx(-harmonic, rel=1e-12)
        assert moments.mean_u == pytest.approx(harmonic, rel=1e-12)
