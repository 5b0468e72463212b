"""Fusers: frozen hand-worked values, structural properties, reference cross-checks."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalfusion import (
    DegenerateInputError,
    GbiWeights,
    Interval,
    LinearCoefficients,
    ScenarioParams,
    fuse_bi,
    fuse_bi_with_flag,
    fuse_gbi,
    fuse_gbi_oneopt,
    fuse_gbi_regions,
    fuse_linear,
    fuse_marzullo,
    gbi_bayes_weights,
    make_trial,
    make_trials,
    posterior_density,
    posterior_mean_exact,
    transition_profile,
)
from intervalfusion.fusion import bi_rows, coverage_rows, gbi_rows, linear_rows, marzullo_rows
from intervalfusion.oracle import posterior_rows
from intervalfusion.scenario import ReadingRows, draw_trials

from helpers import reference_bi_rows, reference_gbi_bayes_weights, reference_gbi_rows


def ivs(*pairs):
    return [Interval(a, b) for a, b in pairs]


@st.composite
def interval_family(draw, min_n=2, max_n=7):
    # quarter-integer endpoints keep region gaps >= 0.25 and widths positive
    n = draw(st.integers(min_n, max_n))
    out = []
    for _ in range(n):
        a = draw(st.integers(-40, 40))
        w = draw(st.integers(1, 40))
        out.append(Interval(a / 4.0, (a + w) / 4.0))
    return out


class TestMarzullo:
    def test_identical_intervals(self):
        assert fuse_marzullo(ivs((0, 2), (0, 2), (0, 2)), 0) == 1.0

    def test_staggered_tau_one(self):
        assert fuse_marzullo(ivs((0, 2), (1, 3), (2, 4)), 1) == 1.5

    def test_two_intervals(self):
        assert fuse_marzullo(ivs((0, 2), (1, 3)), 0) == 1.0

    def test_precondition(self):
        with pytest.raises(ValueError):
            fuse_marzullo(ivs((0, 2), (1, 3)), 1)
        with pytest.raises(ValueError):
            fuse_marzullo(ivs((0, 2)), 0)

    def test_array_input(self):
        assert fuse_marzullo(np.array([[0.0, 2.0], [1.0, 3.0], [2.0, 4.0]]), 1) == 1.5

    def test_negative_tau_refused(self):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            marzullo_rows(ReadingRows([[0.0, 1.0, 2.0]], [[2.0, 3.0, 4.0]]), -1)


class TestTransitionProfile:
    def test_staggered(self):
        prof = transition_profile(ivs((0, 2), (1, 3), (2, 4)))
        assert prof.points.tolist() == [0, 1, 2, 3, 4]
        assert prof.counts.tolist() == [1, 2, 2, 1]

    def test_single_interval(self):
        prof = transition_profile(ivs((1.5, 2.5)))
        assert prof.points.tolist() == [1.5, 2.5]
        assert prof.counts.tolist() == [1]

    def test_with_gap(self):
        prof = transition_profile(ivs((0, 4), (1, 2), (5, 6)))
        assert prof.points.tolist() == [0, 1, 2, 4, 5, 6]
        assert prof.counts.tolist() == [1, 2, 1, 0, 1]

    def test_all_degenerate(self):
        prof = transition_profile(ivs((1, 1), (1, 1)))
        assert prof.counts.size == 0

    def test_cover_rows_and_readings(self):
        prof = transition_profile(ivs((0, 4), (1, 2), (5, 6)))
        assert prof.lo.tolist() == [0, 1, 5]
        assert prof.hi.tolist() == [4, 2, 6]

    @given(interval_family())
    @settings(max_examples=150)
    def test_counts_match_pointwise_coverage(self, family):
        prof = transition_profile(family)
        lo = np.array([iv.lo for iv in family])
        hi = np.array([iv.hi for iv in family])
        for k in range(prof.counts.size):
            a, b = prof.points[k], prof.points[k + 1]
            probes = np.linspace(a, b, 9)[1:-1]
            cover = ((lo[:, None] <= probes) & (hi[:, None] >= probes)).sum(axis=0)
            assert cover.min() == cover.max() == prof.counts[k]


class TestBrooksIyengar:
    def test_identical_intervals(self):
        assert fuse_bi(ivs((0, 2), (0, 2), (0, 2)), 0) == 1.0

    def test_staggered(self):
        # regions (1,2) and (2,3) have coverage 2 >= 3-1; counts weight the mean
        assert fuse_bi(ivs((0, 2), (1, 3), (2, 4)), 1) == 2.0

    def test_gap_family(self):
        assert fuse_bi(ivs((0, 4), (1, 2), (5, 6)), 1) == 1.5

    def test_no_flag_in_normal_case(self):
        value, flagged = fuse_bi_with_flag(ivs((0, 2), (1, 3), (2, 4)), 1)
        assert value == 2.0
        assert not flagged

    def test_fallback_flags(self):
        # three disjoint intervals, tau=0: no region reaches coverage 3
        value, flagged = fuse_bi_with_flag(ivs((0, 1), (2, 3), (4, 5)), 0)
        assert flagged
        assert value == pytest.approx((0.5 + 2.5 + 4.5) / 3.0)

    def test_all_zero_width_fallback(self):
        value, flagged = fuse_bi_with_flag(ivs((1, 1), (3, 3)), 0)
        assert flagged
        assert value == 2.0

    @given(interval_family(), st.data())
    @settings(max_examples=200)
    def test_matches_region_walk_reference(self, family, data):
        tau = data.draw(st.integers(0, len(family) - 1))
        lo = np.array([iv.lo for iv in family])
        hi = np.array([iv.hi for iv in family])
        points = np.unique(np.concatenate([lo, hi]))
        mids, counts = [], []
        for a, b in zip(points[:-1], points[1:]):
            probes = np.linspace(a, b, 9)[1:-1]
            cover = ((lo[:, None] <= probes) & (hi[:, None] >= probes)).sum(axis=0)
            assert cover.min() == cover.max()
            mids.append((a + b) / 2.0)
            counts.append(int(cover[0]))
        mids = np.array(mids)
        counts = np.array(counts)
        keep = counts >= len(family) - tau
        if not keep.any():
            keep = counts == counts.max()
        expected = float(np.dot(counts[keep], mids[keep]) / counts[keep].sum())
        assert fuse_bi(family, tau) == pytest.approx(expected, abs=1e-12)


class TestGbiWeights:
    def test_two_sensors(self):
        w = gbi_bayes_weights(ivs((0, 2), (1, 3)), 1)
        assert sorted(w.items()) == [((0,), 1.0, 1.0), ((1,), 1.0, 2.0)]

    def test_three_sensors(self):
        w = dict((s, (wt, m)) for s, wt, m in gbi_bayes_weights(ivs((0, 2), (1, 3), (2, 4)), 1).items())
        assert w[(0, 1)] == (0.25, 1.5)
        assert w[(0, 2)] == (0.0, 0.0)
        assert w[(1, 2)] == (0.25, 2.5)

    def test_identical_copies_symmetric(self):
        w = gbi_bayes_weights(ivs((1, 3), (1, 3), (1, 3), (1, 3)), 2)
        assert np.allclose(w.weights, w.weights[0])
        assert np.allclose(w.midpoints, 2.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            gbi_bayes_weights(ivs((0, 2), (1, 1)), 1)

    def test_empty_intersection_weight_zero(self):
        w = gbi_bayes_weights(ivs((0, 1), (2, 3)), 0)
        assert w.weights.tolist() == [0.0]
        assert w.midpoints.tolist() == [0.0]


class TestFuseGbi:
    def test_two_sensor_value(self):
        assert fuse_gbi(gbi_bayes_weights(ivs((0, 2), (1, 3)), 1)) == 1.5

    def test_three_sensor_value(self):
        assert fuse_gbi(gbi_bayes_weights(ivs((0, 2), (1, 3), (2, 4)), 1)) == 2.0

    def test_single_pattern_identity(self):
        w = gbi_bayes_weights(ivs((1, 3)), 0)
        assert fuse_gbi(w) == 2.0

    def test_degenerate_error(self):
        with pytest.raises(DegenerateInputError):
            fuse_gbi(gbi_bayes_weights(ivs((0, 1), (2, 3)), 0))

    def test_oneopt_wrapper(self):
        assert fuse_gbi_oneopt(ivs((0, 2), (1, 3)), 1) == 1.5

    @given(interval_family(), st.data())
    @settings(max_examples=150)
    def test_matches_bruteforce_reference(self, family, data):
        tau = data.draw(st.integers(0, len(family) - 1))
        n = len(family)
        num = den = 0.0
        for subset in itertools.combinations(range(n), n - tau):
            max_lo = max(family[i].lo for i in subset)
            min_hi = min(family[i].hi for i in subset)
            w = max(0.0, min_hi - max_lo)
            for i in subset:
                w /= family[i].width
            if w > 0.0:
                num += w * (min_hi + max_lo) / 2.0
                den += w
        if den == 0.0:
            with pytest.raises(DegenerateInputError):
                fuse_gbi_oneopt(family, tau)
        else:
            assert fuse_gbi_oneopt(family, tau) == pytest.approx(num / den, rel=1e-12, abs=1e-12)


@st.composite
def reading_stack(draw):
    """(stack, tau): a (B, n, 2) stack of free and in-model rows, n 1..8, tau < n.

    Free rows are quarter-integer families, which often hold subsets with an
    empty intersection; in-model rows are make_trials rows of either agent.
    """
    n = draw(st.integers(1, 8))
    tau = draw(st.integers(0, n - 1))
    params = ScenarioParams(n=n, m=2, tau=tau, x_max=5, seed=draw(st.integers(0, 2**32)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            rows.append([(iv.lo, iv.hi) for iv in draw(interval_family(min_n=n, max_n=n))])
        else:
            trial = draw(st.integers(0, 300))
            batch = make_trials(params, trial, trial + 1)
            agent = draw(st.integers(0, 1))
            rows.append(np.stack([batch.lo[0, :, agent], batch.hi[0, :, agent]], axis=1))
    return np.array(rows, dtype=float), tau


class TestStackedGbiWeights:
    @given(reading_stack())
    @settings(max_examples=250, deadline=None)
    def test_rows_equal_one_row_calls(self, drawn):
        stack, tau = drawn
        table = gbi_bayes_weights(stack, tau)
        assert table.weights.shape == table.midpoints.shape == (stack.shape[0], len(table.subsets))
        values = []
        for b, row in enumerate(stack):
            one = gbi_bayes_weights(row, tau)
            assert one.subsets is table.subsets
            assert (table.weights[b] == one.weights).all()
            assert (table.midpoints[b] == one.midpoints).all()
            try:
                values.append(fuse_gbi(one))
            except DegenerateInputError:
                values.append(None)
        degenerate = [b for b, value in enumerate(values) if value is None]
        if degenerate:
            with pytest.raises(DegenerateInputError, match=f"row {degenerate[0]}"):
                fuse_gbi(table)
        good = [b for b, value in enumerate(values) if value is not None]
        if good:
            fused = fuse_gbi_oneopt(stack[good], tau)
            assert fused.shape == (len(good),)
            assert fused.tolist() == [values[b] for b in good]

    @given(reading_stack(), st.sampled_from([1.0, 1e-160, 1e160]))
    @settings(max_examples=250, deadline=None)
    def test_table_equals_the_row_major_fold(self, drawn, scale):
        # at a scale of 1e-160 the inverse-width products of two or more
        # members overflow (inf weights, nan where the intersection is empty);
        # at 1e160 they underflow
        stack, tau = drawn
        stack = stack * scale
        table = gbi_bayes_weights(stack, tau)
        want = reference_gbi_bayes_weights(stack[..., 0], stack[..., 1], tau)
        for got, ref in zip((table.weights, table.midpoints), want):
            assert got.shape == ref.shape == (stack.shape[0], len(table.subsets))
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_overflowing_and_one_column_tables_equal_the_row_major_fold(self):
        # inverse widths of 1e200: three members overflow to inf, and to nan
        # where their intersection is empty; at tau = n - 1 the table has one
        # column per sensor and the fold runs no step
        stack = np.array([[(0.0, 1e-200), (0.0, 1e-200), (0.0, 1e-200), (5e-201, 1.5e-200)],
                          [(0.0, 1e-200), (2e-200, 3e-200), (0.0, 1e-200), (0.0, 1e-200)]])
        for tau in range(4):
            table = gbi_bayes_weights(stack, tau)
            want = reference_gbi_bayes_weights(stack[..., 0], stack[..., 1], tau)
            assert np.array_equal(table.weights.view(np.int64), want[0].view(np.int64))
            assert np.array_equal(table.midpoints.view(np.int64), want[1].view(np.int64))
            for b, row in enumerate(stack):
                one = gbi_bayes_weights(row, tau)
                assert one.weights.shape == one.midpoints.shape == (len(table.subsets),)
                assert np.array_equal(one.weights.view(np.int64), want[0][b].view(np.int64))
                assert np.array_equal(one.midpoints.view(np.int64), want[1][b].view(np.int64))
        assert np.isinf(gbi_bayes_weights(stack, 0).weights[0]).all()
        assert np.isnan(gbi_bayes_weights(stack, 0).weights[1]).all()
        assert np.isnan(gbi_bayes_weights(stack, 1).weights).any()
        assert gbi_bayes_weights(stack, 3).weights.shape == (2, 4)

    def test_zero_width_row_named(self):
        stack = np.array([[(0.0, 2.0), (1.0, 3.0)]] * 3)
        stack[2, 1] = (1.0, 1.0)
        with pytest.raises(ValueError, match=r"positive width \(row 2\)"):
            gbi_bayes_weights(stack, 1)

    def test_zero_weight_row_named(self):
        stack = np.array([[(0.0, 2.0), (1.0, 3.0)], [(0.0, 1.0), (2.0, 3.0)], [(0.0, 1.0), (2.0, 3.0)]])
        with pytest.raises(DegenerateInputError, match=r"zero \(row 1\)"):
            fuse_gbi(gbi_bayes_weights(stack, 0))

    def test_overflowing_row_named(self):
        # three inverse widths of 1e200 multiply past the float range
        stack = np.array([[(0.0, 2.0)] * 3, [(0.0, 1.0)] * 3, [(0.0, 1e-200)] * 3])
        with pytest.raises(ValueError, match=r"overflow \(row 2\)"):
            fuse_gbi(gbi_bayes_weights(stack, 0))

    @pytest.mark.parametrize("shape", [(2, 3, 3), (3,), (2, 2, 3, 2)])
    def test_wrong_shapes_refused(self, shape):
        with pytest.raises(ValueError, match="expected readings of shape"):
            gbi_bayes_weights(np.ones(shape), 1)

    def test_items_refuses_stacked_table(self):
        table = gbi_bayes_weights(np.array([[(0.0, 2.0), (1.0, 3.0)]] * 2), 1)
        with pytest.raises(ValueError, match="one-row table"):
            table.items()
        with pytest.raises(ValueError, match="weights"):
            fuse_gbi(GbiWeights(table.subsets, table.weights[None], table.midpoints[None]))

    def test_subset_table_is_read_only(self):
        table = gbi_bayes_weights(ivs((0, 2), (1, 3), (2, 4)), 1)
        with pytest.raises(ValueError):
            table.subsets[0, 0] = 2
        assert gbi_bayes_weights(ivs((0, 2), (1, 3), (2, 4)), 1).subsets.tolist() == [[0, 1], [0, 2], [1, 2]]


def _reading_bounds(trial, agent=0):
    return np.array([(row[agent].lo, row[agent].hi) for row in trial.readings])


class TestFuseGbiRegions:
    def test_two_sensor_value(self):
        assert fuse_gbi_regions(ivs((0, 2), (1, 3)), 1) == pytest.approx(1.5, abs=1e-15)

    def test_three_sensor_value(self):
        assert fuse_gbi_regions(ivs((0, 2), (1, 3), (2, 4)), 1) == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_error(self):
        with pytest.raises(DegenerateInputError):
            fuse_gbi_regions(ivs((0, 1), (2, 3)), 0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            fuse_gbi_regions(ivs((0, 2), (1, 3)), 2)

    @given(interval_family(max_n=10), st.data())
    @settings(max_examples=300)
    def test_matches_enumeration(self, family, data):
        tau = data.draw(st.integers(0, len(family) - 1))
        try:
            expected = fuse_gbi_oneopt(family, tau)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                fuse_gbi_regions(family, tau)
            return
        assert fuse_gbi_regions(family, tau) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(interval_family(max_n=10), st.data())
    @settings(max_examples=50)
    def test_both_reject_zero_width(self, family, data):
        family = family + [Interval(family[0].lo, family[0].lo)]
        tau = data.draw(st.integers(0, len(family) - 1))
        with pytest.raises(ValueError):
            fuse_gbi_oneopt(family, tau)
        with pytest.raises(ValueError):
            fuse_gbi_regions(family, tau)

    def test_large_n_inside_hull(self):
        # enumeration would need C(60, 35) ~ 1e17 subsets
        params = ScenarioParams(n=60, m=1, tau=25, x_max=5, seed=31)
        for i in range(20):
            bounds = _reading_bounds(make_trial(params, i))
            value = fuse_gbi_regions(bounds, params.tau)
            assert np.isfinite(value)
            assert bounds[:, 0].min() <= value <= bounds[:, 1].max()

    @pytest.mark.parametrize("n,tau,scale", [(40, 20, 1e-12), (40, 20, 1e12), (24, 2, 1e-30)])
    def test_affine_equivariance_at_extreme_scales(self, n, tau, scale):
        # a product of n - tau unnormalised inverse widths leaves the float
        # range at these scales (enumeration returns nan at n=24, 1e-30)
        params = ScenarioParams(n=n, m=1, tau=tau, x_max=5, seed=32)
        offset = 0.75 * scale
        for i in range(20):
            bounds = _reading_bounds(make_trial(params, i))
            base = fuse_gbi_regions(bounds, tau)
            scaled = fuse_gbi_regions(scale * bounds + offset, tau)
            assert scaled == pytest.approx(scale * base + offset, rel=1e-9, abs=1e-9 * scale)

    def test_enumeration_overflow_is_an_error(self):
        # 22 inverse widths near 1e29 multiply past the float range
        params = ScenarioParams(n=24, m=1, tau=2, x_max=5, seed=32)
        bounds = 1e-30 * _reading_bounds(make_trial(params, 0))
        with pytest.raises(ValueError, match="overflow"):
            fuse_gbi_oneopt(bounds, params.tau)
        assert np.isfinite(fuse_gbi_regions(bounds, params.tau))


@st.composite
def row_batch(draw, max_rows=6):
    """Rows of one size n, some with zero-width readings; returns (families, tau)."""
    n = draw(st.integers(2, 8))
    families = draw(st.lists(interval_family(min_n=n, max_n=n), min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        row = draw(st.integers(0, len(families) - 1))
        i = draw(st.integers(0, n - 1))
        families[row] = list(families[row])
        families[row][i] = Interval(families[row][i].lo, families[row][i].lo)
    return families, draw(st.integers(0, n - 1))


@st.composite
def profile_family(draw):
    """One family as row_batch draws it, with two readings sharing endpoints,
    or with some readings replaced by ones ending at -0.0 or 0.0."""
    families, _ = draw(row_batch(max_rows=1))
    family = list(families[0])
    kind = draw(st.sampled_from(["drawn", "repeated", "signed zeros"]))
    indices = st.integers(0, len(family) - 1)
    if kind == "repeated":
        family[draw(indices)] = family[draw(indices)]
    elif kind == "signed zeros":
        zero = st.sampled_from([-0.0, 0.0])
        for i in draw(st.lists(indices, min_size=1)):
            w = draw(st.integers(0, 8)) / 4.0
            family[i] = draw(st.sampled_from([Interval(draw(zero), w), Interval(-w, draw(zero)),
                                              Interval(draw(zero), draw(zero))]))
    return family


@st.composite
def endpoint_stack(draw):
    """(B, n) endpoint arrays on a half-integer grid near 0: repeated
    endpoints, zero-width and touching readings, and zeros of either sign."""
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    cells = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.booleans(), st.booleans()),
                     min_size=b * n, max_size=b * n)
    a, w, lo_negative, hi_negative = np.array(draw(cells)).T.reshape(4, b, n)
    lo, hi = a / 2.0, (a + w) / 2.0
    return np.where((lo == 0) & lo_negative, -0.0, lo), np.where((hi == 0) & hi_negative, -0.0, hi)


def _rows(families):
    lo = np.array([[iv.lo for iv in family] for family in families])
    hi = np.array([[iv.hi for iv in family] for family in families])
    return lo, hi


class TestBatchKernels:
    @given(row_batch())
    @settings(max_examples=300)
    def test_stacked_rows_match_scalar_fusers(self, case):
        families, tau = case
        lo, hi = _rows(families)
        rows = ReadingRows(lo, hi)
        n = lo.shape[1]
        if tau <= n - 2:
            marzullo = marzullo_rows(rows, tau)
            for row, family in enumerate(families):
                assert marzullo[row] == fuse_marzullo(family, tau)
        cov = coverage_rows(rows)
        bi, bi_flags = bi_rows(cov, tau)
        for row, family in enumerate(families):
            value, flagged = fuse_bi_with_flag(family, tau)
            assert bi[row] == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert bi_flags[row] == flagged
        if (hi - lo).min() <= 0:
            with pytest.raises(ValueError):
                gbi_rows(cov, tau)
            for family in families:
                if min(iv.width for iv in family) <= 0:
                    with pytest.raises(ValueError):
                        fuse_gbi_regions(family, tau)
            return
        gbi, gbi_flags = gbi_rows(cov, tau)
        for row, family in enumerate(families):
            try:
                value = fuse_gbi_regions(family, tau)
            except DegenerateInputError:
                assert gbi_flags[row]
                assert gbi[row] == bi[row]
                continue
            assert not gbi_flags[row]
            assert gbi[row] == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert gbi[row] == pytest.approx(fuse_gbi_oneopt(family, tau), rel=1e-12, abs=1e-12)

    def test_bi_rows_equal_two_step_reference(self):
        # half-integer endpoints and widths 0-2 give zero-width, disjoint and
        # touching readings; the first rows of each stack are all zero-width
        rng = np.random.default_rng(17)
        degenerate = uncovered = 0
        for n in range(1, 12):
            lo = rng.integers(-8, 9, size=(400, n)) / 2.0
            hi = lo + rng.integers(0, 5, size=(400, n)) / 2.0
            hi[:5] = lo[:5]
            cov = coverage_rows(ReadingRows(lo, hi))
            for tau in range(n):
                values, flags = bi_rows(cov, tau)
                want_values, want_flags = reference_bi_rows(cov, tau)
                assert np.array_equal(values.view(np.int64), want_values.view(np.int64)), (n, tau)
                assert np.array_equal(flags, want_flags), (n, tau)
                degenerate += int(flags.sum())
                uncovered += int((cov.counts.max(axis=1) == 0).sum())
        assert degenerate > uncovered > 0

    @given(endpoint_stack())
    @settings(max_examples=300)
    def test_counts_equal_the_membership_definition(self, stack):
        lo, hi = stack
        rows = ReadingRows(lo.copy(), hi.copy())
        cov = coverage_rows(rows)
        # the endpoints are sorted in a fresh array, never in the readings
        assert np.array_equal(rows.lo.view(np.uint64), lo.view(np.uint64))
        assert np.array_equal(rows.hi.view(np.uint64), hi.view(np.uint64))
        assert not np.shares_memory(cov.points, rows.lo) and not np.shares_memory(cov.points, rows.hi)
        assert cov.counts.dtype == np.int_
        left, right = cov.left, cov.right
        members = (lo[:, :, None] <= left[:, None]) & (hi[:, :, None] >= right[:, None]) & (right > left)[:, None]
        assert np.array_equal(cov.counts, members.sum(axis=1))
        # the sorted endpoints keep np.sort's order of -0.0 and 0.0
        points = np.sort(np.concatenate([lo, hi], axis=1), axis=1)
        assert np.array_equal(cov.points.view(np.uint64), points.view(np.uint64))

    def test_zero_width_gaps_count_zero(self):
        # row 0 ties endpoints of distinct readings ([0, 1] and [1, 2] meet at
        # 1, two readings share 0), row 1 holds zero-width readings at 0.5 and
        # 2, both inside [0, 3], row 2 only zero-width readings; every gap
        # between equal endpoints counts 0, in the platform's default integer type
        lo = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 4.0]])
        hi = np.array([[1.0, 2.0, 1.0], [0.5, 3.0, 2.0], [1.0, 1.0, 4.0]])
        cov = coverage_rows(ReadingRows(lo, hi))
        assert cov.counts.dtype == np.int_
        assert cov.counts.tolist() == [[0, 2, 0, 0, 1], [1, 0, 1, 0, 1], [0, 0, 0, 0, 0]]
        assert (cov.counts[cov.right <= cov.left] == 0).all()

    def test_gbi_rows_equal_cover_reference(self):
        # in-model trials over n 1-40, x_max 1/2/5 and four taus each, then every
        # tau at three n, then half-integer stacks whose disjoint readings leave
        # degenerate rows
        for n in range(1, 41):
            for x_max in (1, 2, 5):
                draw = draw_trials(ScenarioParams(n=n, m=2, tau=0, x_max=x_max, seed=100 * n + x_max), 0, 512)
                for tau in sorted({0, n // 3, n // 2, n - 1}):
                    rows = draw.at(tau).rows()
                    values, flags = gbi_rows(coverage_rows(rows), tau)
                    want_values, want_flags = reference_gbi_rows(rows.lo, rows.hi, tau)
                    assert np.array_equal(values.view(np.int64), want_values.view(np.int64)), (n, x_max, tau)
                    assert np.array_equal(flags, want_flags), (n, x_max, tau)
        # every tau at wider n, where the recurrence skips most of its degrees
        for n in (16, 24, 40):
            draw = draw_trials(ScenarioParams(n=n, m=2, tau=0, x_max=5, seed=n), 0, 8)
            for tau in range(n):
                rows = draw.at(tau).rows()
                values, flags = gbi_rows(coverage_rows(rows), tau)
                want_values, want_flags = reference_gbi_rows(rows.lo, rows.hi, tau)
                assert np.array_equal(values.view(np.int64), want_values.view(np.int64)), (n, tau)
                assert np.array_equal(flags, want_flags), (n, tau)
        rng = np.random.default_rng(19)
        degenerate = 0
        for n in range(1, 12):
            lo = rng.integers(-8, 9, size=(400, n)) / 2.0
            hi = lo + rng.integers(1, 5, size=(400, n)) / 2.0
            cov = coverage_rows(ReadingRows(lo, hi))
            for tau in range(n):
                values, flags = gbi_rows(cov, tau)
                want_values, want_flags = reference_gbi_rows(lo, hi, tau)
                assert np.array_equal(values.view(np.int64), want_values.view(np.int64)), (n, tau)
                assert np.array_equal(flags, want_flags), (n, tau)
                degenerate += int(flags.sum())
        assert degenerate > 0

    def test_flagged_gbi_rows_take_bi_values(self):
        # rows 0 and 2 hold disjoint readings, so no open region of theirs is
        # covered n - tau = 3 times; row 1's four readings share [1.5, 2]
        lo = np.array([[0.0, 2.0, 4.0, 6.0], [0.0, 0.5, 1.0, 1.5], [-3.0, -1.0, 1.5, 4.0]])
        hi = lo + np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 0.5, 3.0]])
        cov = coverage_rows(ReadingRows(lo, hi))
        bi, bi_flags = bi_rows(cov, 1)
        gbi, flags = gbi_rows(cov, 1)
        assert flags.tolist() == bi_flags.tolist() == [True, False, True]
        assert np.array_equal(gbi[flags].view(np.int64), bi[flags].view(np.int64))
        readings = np.stack([lo, hi], axis=2)
        assert gbi[1] == pytest.approx(fuse_gbi_oneopt(readings[1], 1), rel=1e-12, abs=1e-12)
        for row in (0, 2):
            with pytest.raises(DegenerateInputError, match="n - tau"):
                fuse_gbi_regions(readings[row], 1)

    def test_kernels_hold_no_membership_cube_at_large_n(self):
        # one 256-row block at n = 256: a (rows, n, 2n) reading-by-gap array
        # would take 32 MiB alone, and the kernels peaked at 65 MiB with one
        rows = draw_trials(ScenarioParams(n=256, m=2, tau=64, x_max=5, seed=777), 0, 128).at(64).rows()
        tracemalloc.start()
        try:
            cov = coverage_rows(rows)
            bi_rows(cov, 64)
            values, flags = gbi_rows(cov, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(values).all() and not flags.any()
        assert peak < 16 * 2**20, peak

    def test_gbi_rows_hold_no_sensor_by_cell_table(self):
        # one 128-trial block at n = 64, tau = 56 keeps 2,553 cells, so one
        # (cells, n) float64 table takes 1.25 MiB; a kernel that builds such a
        # table per call peaks above it, one that forms a factor row per sensor
        # stays near its (k + 1, cells) e_k table
        tau = 56
        rows = draw_trials(ScenarioParams(n=64, m=2, tau=tau, x_max=5, seed=777), 0, 128).at(tau).rows()
        cov = coverage_rows(rows)
        cells = cov._kept(tau)[0].size
        tracemalloc.start()
        try:
            values, flags = gbi_rows(cov, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(values).all() and not flags.any()
        assert peak < cells * rows.lo.shape[1] * np.dtype(float).itemsize, (peak, cells)

    @given(profile_family())
    @settings(max_examples=200)
    def test_single_row_matches_profile(self, family):
        lo, hi = _rows([family])
        cov = coverage_rows(ReadingRows(lo, hi))
        prof = transition_profile(family)
        regions = cov.right[0] > cov.left[0]
        assert (cov.counts[0][~regions] == 0).all()
        assert cov.counts[0][regions].tolist() == prof.counts.tolist()
        # the distinct endpoints are np.unique's, the sign of a zero included
        distinct = np.unique(np.concatenate([lo[0], hi[0]]))
        assert list(map(repr, prof.points.tolist())) == list(map(repr, distinct.tolist()))
        # a region's left end is the last of a run of equal endpoints, so only
        # its value is the distinct point's
        assert cov.left[0][regions].tolist() == prof.points[:-1].tolist()

    def test_rows_at_far_apart_scales(self):
        # each row is scaled by its own shortest width; one scale for the
        # whole batch would underflow e_k on the widest row
        params = ScenarioParams(n=40, m=1, tau=20, x_max=5, seed=33)
        bounds = [_reading_bounds(make_trial(params, i)) for i in range(3)]
        rows = [scale * b for scale, b in zip((1e-12, 1.0, 1e12), bounds)]
        lo = np.array([r[:, 0] for r in rows])
        hi = np.array([r[:, 1] for r in rows])
        values, flags = gbi_rows(coverage_rows(ReadingRows(lo, hi)), params.tau)
        assert not flags.any()
        for value, r in zip(values, rows):
            assert value == pytest.approx(fuse_gbi_regions(r, params.tau), rel=1e-12)

    def test_linear_rows_match_scalar(self):
        rng = np.random.default_rng(5)
        lo = rng.normal(size=(7, 4))
        hi = lo + rng.uniform(0.1, 2.0, size=(7, 4))
        coeffs = LinearCoefficients(rng.normal(size=4), rng.normal(size=4), 0.3)
        values = linear_rows(ReadingRows(lo, hi), coeffs)
        for row in range(7):
            assert values[row] == fuse_linear(np.stack([lo[row], hi[row]], axis=1), coeffs)

    def test_batch_validation(self):
        # the rows are checked where they are built; the kernels check only their own arguments
        lo = np.zeros((3, 2))
        hi = np.ones((3, 2))
        hi[1, 1] = -1.0
        with pytest.raises(ValueError, match="lower endpoint above"):
            ReadingRows(lo, hi)
        with pytest.raises(ValueError, match=r"equal shape \(B, n\), got \(3, 2\) and \(3, 3\)"):
            ReadingRows(np.zeros((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError, match=r"equal shape \(B, n\), got \(2,\) and \(2,\)"):
            ReadingRows(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="need at least one reading"):
            ReadingRows(np.zeros((3, 0)), np.zeros((3, 0)))
        with pytest.raises(ValueError, match=r"n >= tau \+ 2"):
            marzullo_rows(ReadingRows(np.zeros((3, 2)), np.ones((3, 2))), 1)

    def test_nested_lists_reach_every_kernel(self):
        # lists convert as arrays do, for every batch kernel and the oracle
        lo, hi = [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]], [[2.0, 3.0, 2.0], [1.0, 2.0, 3.0]]
        listed, arrays = ReadingRows(lo, hi), ReadingRows(np.array(lo), np.array(hi))
        assert listed.lo.dtype == listed.hi.dtype == np.float64
        coeffs = LinearCoefficients(np.full(3, 0.25), np.full(3, 0.25), 0.0)
        params = ScenarioParams(n=3, m=1, tau=1, x_max=5, seed=0)
        for kernel in (lambda r: marzullo_rows(r, 1), lambda r: bi_rows(coverage_rows(r), 1)[0],
                       lambda r: gbi_rows(coverage_rows(r), 1)[0], lambda r: linear_rows(r, coeffs),
                       lambda r: posterior_rows(r, params).means()):
            assert kernel(listed).tolist() == kernel(arrays).tolist()
        assert posterior_rows(listed, params).means().tolist() == [
            posterior_mean_exact(np.stack([a, b], axis=1), params) for a, b in zip(np.array(lo), np.array(hi))]

    def test_slice_is_not_checked_again(self, monkeypatch):
        rows = ReadingRows(np.zeros((4, 2)), np.ones((4, 2)))
        monkeypatch.setattr(ReadingRows, "__post_init__", None)
        part = rows[1:3]
        assert part.lo.base is rows.lo and part.hi.base is rows.hi
        assert part.lo.shape == (2, 2)

    def test_one_row_fusers_refuse_a_stack(self):
        # only the enumerative reference takes a (B, n, 2) stack; each row
        # alone is valid input to every call
        stack = np.array([[(0.0, 2.0), (1.0, 3.0), (0.0, 2.0)]] * 2)
        for name, call in ONE_ROW_CALLS.items():
            call(stack[0])
            call(stack[:1])
            if name != "fuse_gbi_oneopt":
                with pytest.raises(ValueError, match=r"expected one agent's readings of shape \(n, 2\), "
                                                     r"got a stack of shape \(2, 3, 2\)"):
                    call(stack)


class TestSharedKeptCells:
    """bi_rows and gbi_rows share one kept-cell pass per (profile, tau), and it changes no value."""

    N = 6

    def block(self, uncovered):
        # 120 rows of in-model trials; every third row leaves the model, its
        # sensor i shifted by 20 * i, more than any reading's width, so no open
        # region is covered twice and the row is flagged at every tau < n - 1;
        # with uncovered, every third row from the third on has only
        # zero-width readings, which cover no open region
        batch = make_trials(ScenarioParams(n=self.N, m=2, tau=2, x_max=5, seed=81), 0, 60)
        rows = batch.rows()
        lo, hi = rows.lo.copy(), rows.hi.copy()
        kind = np.arange(lo.shape[0]) % 3
        shift = 20.0 * np.arange(self.N)
        lo[kind == 1] += shift
        hi[kind == 1] += shift
        if uncovered:
            hi[kind == 2] = lo[kind == 2]
        return ReadingRows(lo, hi)

    @pytest.mark.parametrize("shared", [True, False], ids=["one-profile", "fresh-profiles"])
    @pytest.mark.parametrize("order", [("bi", "gbi"), ("gbi", "bi")], ids=["bi-first", "gbi-first"])
    def test_either_order_equals_the_references(self, order, shared):
        rows = self.block(uncovered=False)
        kernels = {"bi": bi_rows, "gbi": gbi_rows}
        for tau in (1, 2, 4):
            want = {"bi": reference_bi_rows(coverage_rows(rows), tau),
                    "gbi": reference_gbi_rows(rows.lo, rows.hi, tau)}
            assert 0 < want["bi"][1].sum() < rows.lo.shape[0]
            profile = coverage_rows(rows)
            for name in order:
                values, flags = kernels[name](profile if shared else coverage_rows(rows), tau)
                assert np.array_equal(values.view(np.int64), want[name][0].view(np.int64)), (name, tau)
                assert np.array_equal(flags, want[name][1]), (name, tau)

    @pytest.mark.parametrize("gbi_first", [True, False], ids=["gbi-first", "bi-first"])
    def test_uncovered_rows(self, gbi_first):
        # GBI refuses the zero-width readings of an uncovered row, as its
        # reference does, before it reads the profile's cells
        rows = self.block(uncovered=True)
        for tau in (1, 2, 4):
            profile = coverage_rows(rows)
            assert (profile.counts.max(axis=1) == 0).sum() == 40
            if gbi_first:
                with pytest.raises(ValueError, match="positive width"):
                    gbi_rows(profile, tau)
            values, flags = bi_rows(profile, tau)
            want_values, want_flags = reference_bi_rows(coverage_rows(rows), tau)
            assert np.array_equal(values.view(np.int64), want_values.view(np.int64)) and np.array_equal(flags, want_flags)
            with pytest.raises(ValueError, match="positive width"):
                gbi_rows(profile, tau)
            with pytest.raises(ValueError, match="positive width"):
                reference_gbi_rows(rows.lo, rows.hi, tau)

    def test_each_tau_keeps_its_own_cells(self):
        rows = self.block(uncovered=False)
        profile = coverage_rows(rows)
        low, high = profile._kept(1), profile._kept(4)
        assert profile._kept(1) is low and profile._kept(4) is high
        # fewer readings must cover a cell at the higher tau, so it keeps more cells
        assert low[0].size < high[0].size
        for tau in (1, 4):
            values, flags = gbi_rows(profile, tau)
            want_values, want_flags = reference_gbi_rows(rows.lo, rows.hi, tau)
            assert np.array_equal(values.view(np.int64), want_values.view(np.int64)) and np.array_equal(flags, want_flags)

    def test_flat_index_equals_nonzero_and_the_empty_row_flags(self):
        # the cells' rows and flat indices are np.nonzero's (row, region)
        # pairs, each cell's flat index reads its bounds from the flattened
        # endpoints, and the flags mark exactly the rows that hold none: every
        # third row from the third on, at every tau
        rows = self.block(uncovered=True)
        profile = coverage_rows(rows)
        for tau in range(self.N):
            keep = profile.counts >= self.N - tau
            cell_rows, at, empty = profile._kept(tau)
            want_rows, want_regions = np.nonzero(keep)
            for got, want in zip((cell_rows, at), (want_rows, want_rows * 2 * self.N + want_regions), strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want), tau
            points = profile.points.ravel()
            assert np.array_equal(points[at], profile.left[want_rows, want_regions]), tau
            assert np.array_equal(points[at + 1], profile.right[want_rows, want_regions]), tau
            assert np.array_equal(empty, ~keep.any(axis=1)), tau
            assert empty[2::3].all() and not np.isin(np.flatnonzero(empty), cell_rows).any(), tau

    def test_memoised_cells_refuse_writes(self):
        rows = self.block(uncovered=False)
        profile = coverage_rows(rows)
        _, flags = bi_rows(profile, 2)
        cells = profile._kept(2)
        for array in cells:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # the flags a kernel returns are the caller's own
        flags[...] = True
        assert not np.array_equal(profile._kept(2)[2], flags)


LOWER_MIDPOINT = LinearCoefficients(np.full(3, 0.5), np.zeros(3), 0.0)
ONE_ROW_CALLS = {
    "fuse_marzullo": lambda r: fuse_marzullo(r, 0),
    "fuse_bi": lambda r: fuse_bi(r, 0),
    "fuse_bi_with_flag": lambda r: fuse_bi_with_flag(r, 0),
    "fuse_gbi_oneopt": lambda r: fuse_gbi_oneopt(r, 1),
    "fuse_gbi_regions": lambda r: fuse_gbi_regions(r, 1),
    "fuse_linear": lambda r: fuse_linear(r, LOWER_MIDPOINT),
    "transition_profile": transition_profile,
    "posterior_density": lambda r: posterior_density(r, ScenarioParams(n=3, m=1, tau=0, x_max=5, seed=0)),
    "posterior_mean_exact": lambda r: posterior_mean_exact(r, ScenarioParams(n=3, m=1, tau=0, x_max=5, seed=0)),
}
NON_FINITE_CALLS = {
    **ONE_ROW_CALLS,
    "gbi_bayes_weights": lambda r: gbi_bayes_weights(r, 0),
    "gbi_bayes_weights stacked": lambda r: gbi_bayes_weights(np.stack([np.nan_to_num(r), r]), 0),
    "coverage_rows": lambda r: coverage_rows(ReadingRows(r[None, :, 0], r[None, :, 1])),
    "marzullo_rows": lambda r: marzullo_rows(ReadingRows(r[None, :, 0], r[None, :, 1]), 0),
    "linear_rows": lambda r: linear_rows(ReadingRows(r[None, :, 0], r[None, :, 1]), LOWER_MIDPOINT),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
@pytest.mark.parametrize("slot", [(0, 0), (0, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_endpoints_rejected(call, slot, value):
    # a comparison with nan is False and an infinite interval covers every
    # region, so without the check the fusers return numbers (1.5 for BI and
    # Marzullo on a nan upper endpoint at tau 0)
    readings = np.array([[0.0, 2.0], [1.0, 3.0], [0.5, 2.0]])
    readings[slot] = value
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[call](readings)


TAU_READINGS = np.array([[0.0, 2.0], [1.0, 3.0], [0.5, 2.0]])
TAU_CALLS = {
    "ScenarioParams": lambda tau: ScenarioParams(n=3, m=2, tau=tau, x_max=5, seed=0),
    "TrialDraw.at": lambda tau: draw_trials(ScenarioParams(n=3, m=2, tau=0, x_max=5, seed=0), 0, 4).at(tau),
    "bi_rows": lambda tau: bi_rows(coverage_rows(ReadingRows.of(TAU_READINGS)), tau),
    "gbi_rows": lambda tau: gbi_rows(coverage_rows(ReadingRows.of(TAU_READINGS)), tau),
    "gbi_bayes_weights": lambda tau: gbi_bayes_weights(TAU_READINGS, tau),
    "fuse_bi_with_flag": lambda tau: fuse_bi_with_flag(TAU_READINGS, tau),
    "fuse_gbi_regions": lambda tau: fuse_gbi_regions(TAU_READINGS, tau),
}


@pytest.mark.parametrize("call", TAU_CALLS)
@pytest.mark.parametrize("tau", [-1, 3])
def test_tau_rule_is_the_same_everywhere(call, tau):
    # the model, the trial masks and the fusers allow 0 <= tau < n by one rule
    with pytest.raises(ValueError, match=f"^{re.escape(f'tau must satisfy 0 <= tau < n, got tau={tau}, n=3')}$"):
        TAU_CALLS[call](tau)


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_reversed_reading_rejected(call):
    # one rule for every fuser and the oracle; the oracle once called this an
    # off-lattice (negative) width
    readings = np.array([[0.0, 2.0], [3.0, 1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="interval with lower endpoint above upper endpoint"):
        NON_FINITE_CALLS[call](readings)


class TestFuseLinear:
    def test_midpoint_average(self):
        coeffs = LinearCoefficients(np.full(2, 0.25), np.full(2, 0.25), 0.0)
        assert fuse_linear(ivs((0, 2), (1, 3)), coeffs) == 1.5

    def test_constant(self):
        coeffs = LinearCoefficients(np.zeros(3), np.zeros(3), 4.5)
        assert fuse_linear(ivs((0, 2), (1, 3), (2, 4)), coeffs) == 4.5

    def test_dot_product(self):
        coeffs = LinearCoefficients(np.array([1.0, 0.0]), np.array([0.0, 1.0]), -1.0)
        assert fuse_linear(ivs((0, 2), (1, 3)), coeffs) == 2.0

    def test_length_mismatch(self):
        coeffs = LinearCoefficients(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            fuse_linear(ivs((0, 2)), coeffs)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LinearCoefficients(np.array([np.nan]), np.array([0.0]), 0.0)

    def test_unequal_eps_delta_shapes_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            LinearCoefficients(np.zeros(3), np.zeros(2), 0.0)


def _shift(family, c):
    return [Interval(iv.lo + c, iv.hi + c) for iv in family]


class TestStructuralProperties:
    @given(interval_family(), st.data())
    @settings(max_examples=150)
    def test_translation_equivariance(self, family, data):
        tau = data.draw(st.integers(0, len(family) - 2))
        c = data.draw(st.integers(-50, 50)) / 8.0
        shifted = _shift(family, c)
        assert fuse_marzullo(shifted, tau) == pytest.approx(fuse_marzullo(family, tau) + c, abs=1e-9)
        assert fuse_bi(shifted, tau) == pytest.approx(fuse_bi(family, tau) + c, abs=1e-9)
        try:
            base = fuse_gbi_oneopt(family, tau)
        except DegenerateInputError:
            return
        assert fuse_gbi_oneopt(shifted, tau) == pytest.approx(base + c, abs=1e-9)
        assert fuse_gbi_regions(shifted, tau) == pytest.approx(fuse_gbi_regions(family, tau) + c, abs=1e-9)

    @given(interval_family(), st.data())
    @settings(max_examples=150)
    def test_permutation_invariance(self, family, data):
        tau = data.draw(st.integers(0, len(family) - 2))
        perm = data.draw(st.permutations(range(len(family))))
        shuffled = [family[i] for i in perm]
        assert fuse_marzullo(shuffled, tau) == fuse_marzullo(family, tau)
        assert fuse_bi(shuffled, tau) == pytest.approx(fuse_bi(family, tau), abs=1e-12)
        try:
            base = fuse_gbi_oneopt(family, tau)
        except DegenerateInputError:
            return
        assert fuse_gbi_oneopt(shuffled, tau) == pytest.approx(base, abs=1e-12)
        assert fuse_gbi_regions(shuffled, tau) == pytest.approx(fuse_gbi_regions(family, tau), abs=1e-12)

    @given(interval_family(), st.data())
    @settings(max_examples=150)
    def test_outputs_in_hull(self, family, data):
        tau = data.draw(st.integers(0, len(family) - 2))
        lo = min(iv.lo for iv in family)
        hi = max(iv.hi for iv in family)
        assert lo <= fuse_marzullo(family, tau) <= hi
        assert lo <= fuse_bi(family, tau) <= hi
        try:
            g = fuse_gbi_oneopt(family, tau)
        except DegenerateInputError:
            return
        assert lo <= g <= hi
        assert lo <= fuse_gbi_regions(family, tau) <= hi

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=100)
    def test_identical_intervals_all_agree(self, n, data):
        a = data.draw(st.integers(-20, 20)) / 2.0
        w = data.draw(st.integers(1, 20)) / 2.0
        tau = data.draw(st.integers(0, n - 2))
        family = [Interval(a, a + w)] * n
        mid = a + w / 2.0
        coeffs = LinearCoefficients(np.full(n, 1.0 / (2 * n)), np.full(n, 1.0 / (2 * n)), 0.0)
        assert fuse_marzullo(family, tau) == pytest.approx(mid, abs=1e-12)
        assert fuse_bi(family, tau) == pytest.approx(mid, abs=1e-12)
        assert fuse_gbi_oneopt(family, tau) == pytest.approx(mid, abs=1e-12)
        assert fuse_gbi_regions(family, tau) == pytest.approx(mid, abs=1e-12)
        assert fuse_linear(family, coeffs) == pytest.approx(mid, abs=1e-12)
