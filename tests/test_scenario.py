"""Trial generator: cell geometry, fault law, determinism; the package's exports."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intervalfusion
from intervalfusion import (
    Interval,
    ScenarioParams,
    draw_trials,
    make_trial,
    make_trials,
    sample_batch,
    truthful_interval,
)
from intervalfusion.scenario import FaultPattern, TrialData

from helpers import reference_sample_batch, reference_trials


def params_for(n=5, m=2, tau=1, x_max=5, seed=1234):
    return ScenarioParams(n=n, m=m, tau=tau, x_max=x_max, seed=seed)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_zero_width_allowed(self):
        iv = Interval(1.5, 1.5)
        assert iv.width == 0.0
        assert iv.midpoint == 1.5
        assert iv.contains(1.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))


class TestScenarioParams:
    def test_valid(self):
        params_for()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(m=0),
            dict(tau=-1),
            dict(tau=5, n=5),
            dict(x_max=0),
            dict(x_max="5"),
            dict(x_max=None),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            params_for(**kwargs)

    @pytest.mark.parametrize("field", ["n", "m", "tau", "x_max", "seed"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None])
    def test_non_integers_refused_by_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            params_for(**{field: value})

    @pytest.mark.parametrize("field", ["n", "m", "tau", "x_max", "seed"])
    def test_numpy_integers_stored_as_int(self, field):
        value = getattr(params_for(), field)
        params = params_for(**{field: np.int64(value)})
        assert type(getattr(params, field)) is int
        assert params == params_for()


class TestDrawTarget:
    # the target marginal of the one generator; n=1, m=1 keeps 10^6 trials small
    def test_range(self):
        params = params_for(n=1, tau=0, x_max=5)
        draws = sample_batch(params, 2000, np.random.default_rng(0)).x
        assert ((-5.0 <= draws) & (draws <= 5.0)).all()

    def test_mean_zero(self):
        # 10^6 draws at x_max=1: sample mean within 3 standard errors of 0
        params = params_for(n=1, m=1, tau=0, x_max=1)
        draws = sample_batch(params, 1_000_000, np.random.default_rng(7)).x
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 3 * stderr

    def test_variance(self):
        # 10^6 draws at x_max=5: sample variance within 3 standard errors of 25/3
        params = params_for(n=1, m=1, tau=0, x_max=5)
        draws = sample_batch(params, 1_000_000, np.random.default_rng(8)).x
        sq = (draws - draws.mean()) ** 2
        stderr = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(draws.var(ddof=1) - 25.0 / 3.0) <= 3 * stderr


class TestTruthfulInterval:
    def test_single_cell_covers_range(self):
        assert truthful_interval(0.3, 1, 5) == Interval(-5.0, 5.0)

    def test_five_cells(self):
        # cells of width 2 are [-5,-3],[-3,-1],[-1,1],[1,3],[3,5]; 0.3 sits in the third
        assert truthful_interval(0.3, 5, 5) == Interval(-1.0, 1.0)

    def test_lower_boundary_first_cell(self):
        for precision in (1, 2, 3, 4, 5):
            cell = truthful_interval(-5.0, precision, 5)
            assert cell.lo == -5.0
            assert cell.width == pytest.approx(10.0 / precision)

    def test_interior_boundary_goes_low(self):
        # x exactly on an interior cell boundary belongs to the lower cell;
        # x_max=4, precision=4 puts boundaries on even integers, exact in floats
        cell = truthful_interval(0.0, 4, 4)
        assert cell == Interval(-2.0, 0.0)
        cell = truthful_interval(2.0, 4, 4)
        assert cell == Interval(0.0, 2.0)
        assert truthful_interval(1.0, 5, 5) == Interval(-1.0, 1.0)

    @pytest.mark.parametrize("precision", [0, 6])
    def test_precision_outside_one_to_x_max_refused(self, precision):
        with pytest.raises(ValueError, match="precision"):
            truthful_interval(0.3, precision, 5)

    def test_upper_edge(self):
        cell = truthful_interval(5.0, 5, 5)
        assert cell == Interval(3.0, 5.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            truthful_interval(5.1, 3, 5)
        with pytest.raises(ValueError):
            truthful_interval(-6.0, 3, 5)

    @given(
        x_max=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_cell_enumeration(self, x_max, data):
        precision = data.draw(st.integers(1, x_max))
        x = data.draw(
            st.floats(-x_max, x_max, allow_nan=False, allow_infinity=False)
        )
        cells = [
            Interval(-x_max + (d - 1) * 2.0 * x_max / precision, -x_max + d * 2.0 * x_max / precision)
            for d in range(1, precision + 1)
        ]
        # stay clear of the float fuzz band around cell boundaries and the
        # domain edges; the exact boundary rule is pinned by the
        # deterministic tests above
        edges = [c.hi for c in cells[:-1]] + [-float(x_max), float(x_max)]
        if min(abs(x - e) for e in edges) < 1e-9 * x_max:
            return
        got = truthful_interval(x, precision, x_max)
        holders = [c for c in cells if c.lo < x < c.hi]
        assert len(holders) == 1
        assert got == holders[0]


    @given(x_max=st.integers(1, 8), data=st.data())
    @settings(max_examples=300)
    def test_equals_the_scalar_lattice_rule(self, x_max, data):
        # the scalar rule truthful_interval used before it shared the batch
        # generator's rule, kept literally as the reference
        def scalar_rule(x, precision, x_max):
            u = (x + x_max) * precision / (2.0 * x_max)
            d = min(precision, max(1, math.ceil(u)))
            lo = -x_max + (d - 1) * (2.0 * x_max) / precision
            hi = -x_max + d * (2.0 * x_max) / precision
            return Interval(lo, hi)

        precision = data.draw(st.integers(1, x_max))
        # cell boundaries, the interior ones and +-x_max, as well as any target
        boundary = st.integers(0, precision).map(lambda d: -x_max + d * 2.0 * x_max / precision)
        x = data.draw(st.one_of(boundary, st.floats(-x_max, x_max)))
        assert truthful_interval(x, precision, x_max) == scalar_rule(x, precision, x_max)


@pytest.fixture(scope="module")
def million_draws():
    # 10^6 faulty cells: n=2, tau=1, m=1 gives exactly one per trial
    params = params_for(n=2, m=1, tau=1, x_max=5)
    batch = sample_batch(params, 1_000_000, np.random.default_rng(20240611))
    widths = (batch.hi - batch.lo)[batch.faulty][:, 0]
    lows = batch.lo[batch.faulty][:, 0]
    return widths, lows


class TestDrawFaultyReading:
    def test_single_cell_case(self):
        params = params_for(x_max=1, tau=1, n=2)
        batch = sample_batch(params, 50, np.random.default_rng(3))
        assert (batch.lo[batch.faulty] == -1.0).all()
        assert (batch.hi[batch.faulty] == 1.0).all()

    def test_width_distribution(self, million_draws):
        # precision uniform on {1..5}: each width 10/d has probability 1/5
        widths, _ = million_draws
        size = widths.size
        assert size == 1_000_000
        for d in range(1, 6):
            p_hat = np.isclose(widths, 10.0 / d).mean()
            stderr = math.sqrt(p_hat * (1 - p_hat) / size)
            assert abs(p_hat - 0.2) <= 3 * stderr

    def test_cell_position_uniform_given_width(self, million_draws):
        # among width-2 draws the five cells are equally likely
        widths, lows = million_draws
        sel = np.isclose(widths, 2.0)
        count = sel.sum()
        p_hat = np.isclose(lows[sel], -1.0).mean()
        stderr = math.sqrt(p_hat * (1 - p_hat) / count)
        assert abs(p_hat - 0.2) <= 3 * stderr


class TestGenerateTrial:
    def test_no_faults_replicated_and_contain_x(self):
        params = params_for(n=6, m=3, tau=0, seed=5)
        for i in range(200):
            trial = make_trial(params, i)
            assert trial.pattern.faulty_count == 0
            for row in trial.readings:
                assert all(iv == row[0] for iv in row)
                assert all(iv.contains(trial.x) for iv in row)

    def test_truthful_rows_match_precisions(self):
        params = params_for(n=6, m=2, tau=2, seed=6)
        for i in range(200):
            trial = make_trial(params, i)
            for s, row in enumerate(trial.readings):
                if trial.pattern.flags[s]:
                    continue
                expected = truthful_interval(trial.x, trial.precisions[s], params.x_max)
                assert row == (expected,) * params.m

    def test_fault_probability(self):
        # 10^5 trials at n=10, tau=7: each sensor is faulty with probability 0.7
        params = params_for(n=10, m=1, tau=7, seed=11)
        trials = 100_000
        p_hat = make_trials(params, 0, trials).faulty[:, 0].mean()
        stderr = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - 0.7) <= 3 * stderr

    def test_fault_count_exact(self):
        params = params_for(n=7, m=2, tau=3, seed=12)
        for i in range(300):
            assert make_trial(params, i).pattern.faulty_count == 3

    def test_faulty_agents_independent(self):
        # where sensor 0 is faulty, its two agents' midpoints are uncorrelated
        params = params_for(n=2, m=2, tau=1, seed=13)
        batch = make_trials(params, 0, 70_000)
        mid = (batch.lo[batch.faulty[:, 0], 0] + batch.hi[batch.faulty[:, 0], 0]) / 2.0
        assert mid.shape[0] >= 30_000
        a, b = mid[:30_000, 0], mid[:30_000, 1]
        prod = (a - a.mean()) * (b - b.mean())
        corr = prod.mean() / (a.std() * b.std())
        stderr = prod.std(ddof=1) / (a.std() * b.std()) / math.sqrt(a.size)
        assert abs(corr) <= 3 * stderr

    def test_containment_guarantee(self):
        params = params_for(n=6, m=2, tau=2, seed=14)
        for i in range(300):
            trial = make_trial(params, i)
            for j in range(params.m):
                inside = sum(trial.readings[s][j].contains(trial.x) for s in range(params.n))
                assert inside >= params.n - params.tau

    def test_endpoints_on_lattice(self):
        params = params_for(n=5, m=2, tau=2, x_max=5, seed=15)
        for i in range(300):
            trial = make_trial(params, i)
            for row in trial.readings:
                for iv in row:
                    d = round(2.0 * params.x_max / iv.width)
                    assert 1 <= d <= params.x_max
                    assert iv.width == pytest.approx(2.0 * params.x_max / d, abs=1e-12)
                    slot = (iv.lo + params.x_max) / iv.width
                    assert abs(slot - round(slot)) < 1e-9


class TestDeterminism:
    def test_same_index_bit_identical(self):
        params = params_for(seed=77)
        for i in (0, 1, 17, 100):
            assert make_trial(params, i) == make_trial(params, i)

    def test_different_indices_differ(self):
        params = params_for(seed=77)
        assert make_trial(params, 0) != make_trial(params, 1)

    def test_order_independent(self):
        # a trial never depends on which trials were drawn before it: trials on
        # both sides of the block edges 128 and 256, alone and in one range
        params = params_for(seed=78)
        batch = make_trials(params, 0, 300)
        for t in (256, 255, 128, 127, 5):
            assert make_trial(params, t) == _trial_view(batch, t)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            make_trial(params_for(), -1)


_FIELDS = ("x", "lo", "hi", "faulty", "precisions")


def _trial_view(batch, row):
    """Row `row` of a TrialBatch as the TrialData make_trial documents."""
    readings = tuple(
        tuple(Interval(float(a), float(b)) for a, b in zip(lo_row, hi_row))
        for lo_row, hi_row in zip(batch.lo[row], batch.hi[row])
    )
    return TrialData(x=float(batch.x[row]), readings=readings,
                     pattern=FaultPattern(tuple(bool(f) for f in batch.faulty[row])),
                     precisions=tuple(int(p) for p in batch.precisions[row]))


class TestMakeTrials:
    @pytest.mark.parametrize(
        "n,m,tau,x_max",
        [(5, 2, 1, 5), (6, 3, 0, 5), (10, 2, 7, 5), (4, 3, 3, 7), (1, 1, 0, 1), (16, 2, 12, 3)],
    )
    def test_rows_match_reference_bit_for_bit(self, n, m, tau, x_max):
        params = params_for(n=n, m=m, tau=tau, x_max=x_max, seed=91)
        start, stop = 120, 265
        reference = reference_trials(params, start, stop)
        batch = make_trials(params, start, stop)
        assert batch.lo.shape == batch.hi.shape == (stop - start, n, m)
        for name in _FIELDS:
            assert np.array_equal(getattr(batch, name), getattr(reference, name))
        for t in (127, 128, 255, 256):
            assert make_trial(params, t) == _trial_view(batch, t - start)

    def test_negative_seed_uses_its_64_bit_pattern(self):
        params = params_for(seed=-5)
        assert np.array_equal(make_trials(params, 0, 128).lo, reference_trials(params, 0, 128).lo)

    def test_range_split_independent(self):
        params = params_for(n=6, m=2, tau=2, seed=92)
        whole = make_trials(params, 0, 300)
        parts = [make_trials(params, a, b) for a, b in ((0, 1), (1, 130), (130, 300))]
        for name in _FIELDS:
            assert np.array_equal(getattr(whole, name), np.concatenate([getattr(p, name) for p in parts]))

    @pytest.mark.parametrize("start,stop", [(-1, 3), (4, 4), (5, 2)])
    def test_invalid_range(self, start, stop):
        with pytest.raises(ValueError):
            make_trials(params_for(), start, stop)

    @given(
        shape=st.integers(1, 8).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, 3), st.integers(0, n - 1), st.integers(1, 7))
        ),
        span=st.integers(0, 400).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, a + 300))),
    )
    @settings(max_examples=40, deadline=None)
    def test_law_of_any_range(self, shape, span):
        n, m, tau, x_max = shape
        start, stop = span
        params = params_for(n=n, m=m, tau=tau, x_max=x_max, seed=93)
        batch = make_trials(params, start, stop)
        prefix = make_trials(params, 0, stop)
        for name in _FIELDS:
            assert np.array_equal(getattr(batch, name), getattr(prefix, name)[start:])
        assert (batch.faulty.sum(axis=1) == tau).all()
        # truthful cells: one cell of the sensor's precision, replicated to
        # every agent, containing the target
        truthful = ~batch.faulty
        lo_t, hi_t = batch.lo[truthful], batch.hi[truthful]
        x_t = np.broadcast_to(batch.x[:, None], truthful.shape)[truthful]
        assert (lo_t == lo_t[:, :1]).all() and (hi_t == hi_t[:, :1]).all()
        assert ((lo_t[:, 0] <= x_t) & (x_t <= hi_t[:, 0])).all()
        assert np.allclose(hi_t[:, 0] - lo_t[:, 0], 2.0 * x_max / batch.precisions[truthful], rtol=0, atol=1e-12)
        # every endpoint, faulty or not, sits on its precision's lattice
        width = batch.hi - batch.lo
        d = np.round(2.0 * x_max / width)
        assert ((1 <= d) & (d <= x_max)).all()
        assert np.allclose(width, 2.0 * x_max / d, rtol=0, atol=1e-12)
        slot = (batch.lo + x_max) / width
        assert np.allclose(slot, np.round(slot), rtol=0, atol=1e-9)


class TestDrawTrials:
    """One draw serves every tau: re-masked, it is the one-tau generator's stream."""

    @pytest.mark.parametrize("n,m", [(10, 2), (16, 3)])
    def test_remasked_draw_equals_one_tau_reference(self, n, m):
        # a range that starts and ends inside a block
        params = params_for(n=n, m=m, tau=0, seed=94)
        start, stop = 120, 400
        draw = draw_trials(params, start, stop)
        assert draw.size == stop - start
        for tau in range(n):
            at_tau = dataclasses.replace(params, tau=tau)
            reference = reference_trials(at_tau, start, stop)
            for batch in (draw.at(tau), make_trials(at_tau, start, stop)):
                for name in _FIELDS:
                    got, want = getattr(batch, name), getattr(reference, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (tau, name)

    @pytest.mark.parametrize("tau", [0, 3, 9])
    def test_sample_batch_equals_one_tau_reference(self, tau):
        params = params_for(n=10, m=3, tau=tau, seed=95)
        batch = sample_batch(params, 300, np.random.default_rng(5))
        reference = reference_sample_batch(params, 300, np.random.default_rng(5))
        for name in _FIELDS:
            got, want = getattr(batch, name), getattr(reference, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_faulty_sets_nested_in_tau(self):
        draw = draw_trials(params_for(n=8), 0, 200)
        previous = draw.at(0).faulty
        for tau in range(1, 8):
            faulty = draw.at(tau).faulty
            assert (faulty.sum(axis=1) == tau).all()
            assert (faulty >= previous).all()
            previous = faulty

    @pytest.mark.parametrize("tau", [-1, 5])
    def test_at_refuses_tau_outside_range(self, tau):
        draw = draw_trials(params_for(n=5), 0, 10)
        with pytest.raises(ValueError, match="tau"):
            draw.at(tau)


class TestSampleBatch:
    @pytest.mark.parametrize("size", [0, -1])
    def test_size_must_be_positive(self, size):
        with pytest.raises(ValueError, match="size"):
            sample_batch(params_for(), size, np.random.default_rng(0))

    def test_shapes(self):
        params = params_for(n=4, m=3, tau=1)
        batch = sample_batch(params, 500, np.random.default_rng(1))
        assert batch.x.shape == (500,)
        assert batch.lo.shape == (500, 4, 3)
        assert batch.hi.shape == (500, 4, 3)
        assert batch.faulty.shape == (500, 4)
        assert batch.size == 500
        assert (batch.faulty.sum(axis=1) == 1).all()

    def test_truthful_containment_and_replication(self):
        params = params_for(n=4, m=3, tau=1)
        batch = sample_batch(params, 2000, np.random.default_rng(2))
        truthful = ~batch.faulty
        lo_t = batch.lo[truthful]
        hi_t = batch.hi[truthful]
        x_rep = np.broadcast_to(batch.x[:, None], batch.faulty.shape)[truthful]
        assert (lo_t[:, 0][:, None] == lo_t).all()
        assert (hi_t[:, 0][:, None] == hi_t).all()
        assert ((lo_t[:, 0] <= x_rep) & (x_rep <= hi_t[:, 0])).all()

    def test_fault_marginal(self):
        params = params_for(n=10, m=1, tau=7)
        batch = sample_batch(params, 100_000, np.random.default_rng(3))
        p_hat = batch.faulty.mean(axis=0)
        stderr = np.sqrt(p_hat * (1 - p_hat) / batch.size)
        assert (np.abs(p_hat - 0.7) <= 3 * stderr).all()

    def test_marginal_law_matches_truthful(self):
        # faulty and truthful readings share one marginal law; compare width
        # frequencies and midpoint moments at a generous threshold
        params = params_for(n=2, m=1, tau=1, x_max=5)
        batch = sample_batch(params, 200_000, np.random.default_rng(4))
        width = (batch.hi - batch.lo)[:, :, 0]
        mid = ((batch.hi + batch.lo) / 2.0)[:, :, 0]
        w_f = width[batch.faulty]
        w_t = width[~batch.faulty]
        for d in range(1, 6):
            f_f = np.isclose(w_f, 10.0 / d).mean()
            f_t = np.isclose(w_t, 10.0 / d).mean()
            assert abs(f_f - f_t) < 0.01
        m_f = mid[batch.faulty]
        m_t = mid[~batch.faulty]
        assert abs(m_f.mean() - m_t.mean()) < 0.05
        assert abs(m_f.var() - m_t.var()) < 0.15


@pytest.mark.parametrize("module", ["intervalfusion"] + [
    f"intervalfusion.{info.name}" for info in pkgutil.iter_modules(intervalfusion.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
