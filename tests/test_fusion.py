"""Fusers: frozen hand-worked values, structural properties, reference cross-checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalfusion import (
    DegenerateInputError,
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
    transition_profile,
)
from intervalfusion.fusion import bi_rows, coverage_rows, gbi_rows, linear_rows, marzullo_rows


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

    def test_region_midpoints(self):
        prof = transition_profile(ivs((0, 2), (1, 3)))
        assert prof.region_midpoints.tolist() == [0.5, 1.5, 2.5]

    def test_all_degenerate(self):
        prof = transition_profile(ivs((1, 1), (1, 1)))
        assert prof.counts.size == 0
        assert prof.cover.shape == (2, 0)

    def test_cover_rows_and_readings(self):
        prof = transition_profile(ivs((0, 4), (1, 2), (5, 6)))
        assert prof.cover.astype(int).tolist() == [[1, 1, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
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
        n = lo.shape[1]
        if tau <= n - 2:
            marzullo = marzullo_rows(lo, hi, tau)
            for row, family in enumerate(families):
                assert marzullo[row] == fuse_marzullo(family, tau)
        cov = coverage_rows(lo, hi)
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
                assert np.isnan(gbi[row])
                continue
            assert not gbi_flags[row]
            assert gbi[row] == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert gbi[row] == pytest.approx(fuse_gbi_oneopt(family, tau), rel=1e-12, abs=1e-12)

    @given(row_batch(max_rows=1))
    @settings(max_examples=100)
    def test_single_row_matches_profile(self, case):
        families, _ = case
        lo, hi = _rows(families)
        cov = coverage_rows(lo, hi)
        prof = transition_profile(families[0])
        regions = cov.right[0] > cov.left[0]
        assert (cov.counts[0][~regions] == 0).all()
        assert cov.counts[0][regions].tolist() == prof.counts.tolist()
        assert cov.left[0][regions].tolist() == prof.points[:-1].tolist()

    def test_rows_at_far_apart_scales(self):
        # each row is scaled by its own shortest width; one scale for the
        # whole batch would underflow e_k on the widest row
        params = ScenarioParams(n=40, m=1, tau=20, x_max=5, seed=33)
        bounds = [_reading_bounds(make_trial(params, i)) for i in range(3)]
        rows = [scale * b for scale, b in zip((1e-12, 1.0, 1e12), bounds)]
        lo = np.array([r[:, 0] for r in rows])
        hi = np.array([r[:, 1] for r in rows])
        values, flags = gbi_rows(coverage_rows(lo, hi), params.tau)
        assert not flags.any()
        for value, r in zip(values, rows):
            assert value == pytest.approx(fuse_gbi_regions(r, params.tau), rel=1e-12)

    def test_linear_rows_match_scalar(self):
        rng = np.random.default_rng(5)
        lo = rng.normal(size=(7, 4))
        hi = lo + rng.uniform(0.1, 2.0, size=(7, 4))
        coeffs = LinearCoefficients(rng.normal(size=4), rng.normal(size=4), 0.3)
        values = linear_rows(lo, hi, coeffs)
        for row in range(7):
            assert values[row] == pytest.approx(fuse_linear(np.stack([lo[row], hi[row]], axis=1), coeffs), rel=1e-12)

    def test_batch_validation(self):
        lo = np.zeros((3, 2))
        hi = np.ones((3, 2))
        hi[1, 1] = -1.0
        with pytest.raises(ValueError, match="lower endpoint above"):
            coverage_rows(lo, hi)
        with pytest.raises(ValueError, match="lower endpoint above"):
            marzullo_rows(lo, hi, 0)
        with pytest.raises(ValueError):
            coverage_rows(np.zeros((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            marzullo_rows(np.zeros((3, 2)), np.ones((3, 2)), 1)


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
