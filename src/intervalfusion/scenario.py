"""Generative model for interval sensor trials with faulty sensors.

A scalar target is drawn uniformly from [-x_max, x_max].  Each sensor owns a
precision delta drawn uniformly from {1, ..., x_max} and partitions the range
into delta equal cells of width 2*x_max/delta; a truthful sensor reports the
cell containing the target, and that single reading is replicated to every
agent.  A uniformly random subset of tau sensors is faulty: a faulty sensor
sends each agent an independent fresh draw from the truthful marginal law
(independent precision, independent phantom target), so its readings carry no
information about the target and are mutually independent across agents.

`draw_batch` is the one implementation of this law.  It draws a `TrialDraw`,
which holds everything but tau: a random rank of the sensors, the target, the
truthful cells and a phantom cell for every (sensor, agent) slot.  Its
`at(tau)` marks the tau first-ranked sensors faulty and masks their phantom
cells in, so one draw serves every tau, and the faulty sets of a draw are
nested in tau.  `sample_batch` is `draw_batch` at params.tau.

`draw_trials` numbers the trials of the stream rooted at a seed: with B = 128
trials per block, trial t is row t % B of block t // B, and block b is
`draw_batch` on the substream derived from (seed, b), so a trial never
depends on which other trials are drawn or how a range of trials is split,
nor on tau beyond its mask.  `make_trials` is `draw_trials` at params.tau,
and `make_trial` is one trial as `Interval` objects.

The fusers and the oracle take B agents' readings as `ReadingRows`, built
by `ReadingRows.of` from one agent's readings, by `ReadingRows.of_stack` from
a (B, n, 2) stack, or by `TrialBatch.rows` from a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

__all__ = [
    "Interval",
    "ScenarioParams",
    "FaultPattern",
    "TrialData",
    "TrialBatch",
    "TrialDraw",
    "truthful_interval",
    "make_trial",
    "make_trials",
    "draw_batch",
    "draw_trials",
    "sample_batch",
    "ReadingRows",
]

_MASK64 = (1 << 64) - 1

# trials per substream block.  A block is drawn whole, so this is also the
# cost of one make_trial call; callers fuse whole blocks at a time (evaluate
# two, oracle-check one), so that numpy call overhead is amortised while the
# (rows, n, 2n) coverage temporaries stay a few MB at n=16
_BLOCK_TRIALS = 128


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; the unit of communication from sensor to agent."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower endpoint {self.lo} exceeds upper endpoint {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class ScenarioParams:
    """Immutable experiment configuration.

    n sensors report to m agents; tau of the sensors are faulty; the target
    and all cells live in [-x_max, x_max]; seed is the root of every derived
    random stream.
    """

    n: int
    m: int
    tau: int
    x_max: int
    seed: int

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, int(value))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.tau < self.n:
            raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={self.tau}, n={self.n}")
        if self.x_max < 1:
            raise ValueError(f"x_max must be a positive integer, got {self.x_max}")


@dataclass(frozen=True)
class FaultPattern:
    """Boolean fault flags, one per sensor."""

    flags: tuple[bool, ...]

    @property
    def faulty_count(self) -> int:
        return sum(self.flags)


@dataclass(frozen=True)
class TrialData:
    """One simulated trial.

    readings[i][j] is sensor i's interval as seen by agent j.  Non-faulty
    sensors replicate one truthful reading across agents; faulty sensors send
    independent draws.  precisions[i] is the cell count of sensor i's truthful
    mechanism (a faulty reading embeds its own independent precision, which is
    recoverable from the reading width).
    """

    x: float
    readings: tuple[tuple[Interval, ...], ...]
    pattern: FaultPattern
    precisions: tuple[int, ...]


@dataclass(frozen=True)
class TrialBatch:
    """Trials as arrays, for evaluation, moment estimation and coefficient fitting.

    x has shape (size,), lo/hi (size, n, m), faulty and precisions (size, n).
    [lo[t, i, j], hi[t, i, j]] is sensor i's interval as seen by agent j in
    trial t, and precisions[t, i] is sensor i's truthful cell count, as in
    TrialData.
    """

    x: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    faulty: np.ndarray
    precisions: np.ndarray

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def rows(self) -> ReadingRows:
        """Every agent's readings of every trial; row j * size + t is agent j's in trial t."""
        size, n, m = self.lo.shape
        return ReadingRows(self.lo.transpose(2, 0, 1).reshape(m * size, n),
                           self.hi.transpose(2, 0, 1).reshape(m * size, n))


def truthful_interval(x: float, precision: int, x_max: int) -> Interval:
    """Return the unique width-(2*x_max/precision) cell containing x.

    The cells partition [-x_max, x_max] into `precision` equal pieces.
    """
    if not -x_max <= x <= x_max:
        raise ValueError(f"target {x} outside [-{x_max}, {x_max}]")
    if precision < 1 or precision > x_max:
        raise ValueError(f"precision must lie in 1..{x_max}, got {precision}")
    lo, hi = _cells_from_targets(x, precision, x_max)
    return Interval(float(lo), float(hi))


def _cells_from_targets(x: np.ndarray, prec: np.ndarray, x_max: int) -> tuple[np.ndarray, np.ndarray]:
    # Ties on interior cell boundaries resolve to the lower-index cell;
    # x == -x_max belongs to cell 1.
    u = (x + x_max) * prec / (2.0 * x_max)
    d = np.minimum(np.maximum(np.ceil(u), 1), prec)
    lo = -x_max + (d - 1) * (2.0 * x_max) / prec
    hi = -x_max + d * (2.0 * x_max) / prec
    return lo, hi


@dataclass(frozen=True)
class TrialDraw:
    """Trials drawn without a fault count; `at(tau)` makes them a `TrialBatch`.

    order has shape (size, n), a random rank of each trial's sensors; the
    tau sensors ranked first are faulty.  x has shape (size,), precisions and
    true_lo/true_hi (size, n): the truthful cells.  fake_lo/fake_hi have shape
    (size, n, m): the phantom cell of every (sensor, agent) slot, sent when
    the sensor is faulty.
    """

    order: np.ndarray
    x: np.ndarray
    precisions: np.ndarray
    true_lo: np.ndarray
    true_hi: np.ndarray
    fake_lo: np.ndarray
    fake_hi: np.ndarray

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def at(self, tau: int) -> TrialBatch:
        """These trials with their tau first-ranked sensors faulty."""
        n = self.order.shape[1]
        if not 0 <= tau < n:
            raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={tau}, n={n}")
        faulty = np.zeros(self.order.shape, dtype=bool)
        np.put_along_axis(faulty, self.order[:, :tau], True, axis=1)
        mask = faulty[:, :, None]
        lo = np.where(mask, self.fake_lo, self.true_lo[:, :, None])
        hi = np.where(mask, self.fake_hi, self.true_hi[:, :, None])
        return TrialBatch(x=self.x, lo=lo, hi=hi, faulty=faulty, precisions=self.precisions)


def draw_batch(params: ScenarioParams, size: int, rng: np.random.Generator) -> TrialDraw:
    """Draw `size` independent trials of every fault count; params.tau is not read.

    Faulty slots are drawn for every (trial, sensor, agent) and masked in by
    `TrialDraw.at`, which leaves the joint law the one the module docstring
    states at every tau.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n, m, x_max = params.n, params.m, params.x_max

    order = np.argsort(rng.random((size, n)), axis=1)

    precisions = rng.integers(1, x_max + 1, size=(size, n))
    x = rng.uniform(-x_max, x_max, size=size)

    true_lo, true_hi = _cells_from_targets(x[:, None], precisions, x_max)

    fake_prec = rng.integers(1, x_max + 1, size=(size, n, m))
    phantom = rng.uniform(-x_max, x_max, size=(size, n, m))
    fake_lo, fake_hi = _cells_from_targets(phantom, fake_prec, x_max)
    return TrialDraw(order=order, x=x, precisions=precisions, true_lo=true_lo, true_hi=true_hi,
                     fake_lo=fake_lo, fake_hi=fake_hi)


def sample_batch(params: ScenarioParams, size: int, rng: np.random.Generator) -> TrialBatch:
    """Draw `size` independent trials as arrays: `draw_batch` at params.tau."""
    return draw_batch(params, size, rng).at(params.tau)


def _block(params: ScenarioParams, index: int) -> TrialDraw:
    rng = np.random.default_rng(np.random.SeedSequence((params.seed & _MASK64, index)))
    return draw_batch(params, _BLOCK_TRIALS, rng)


def draw_trials(params: ScenarioParams, start: int, stop: int) -> TrialDraw:
    """Trials start..stop-1 of the stream rooted at params.seed, at every fault count.

    Row t - start is trial t, the same values whatever the range: it is cut
    from the substream block that holds trial t.  params.tau is not read.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    first = start // _BLOCK_TRIALS
    blocks = [_block(params, b) for b in range(first, (stop - 1) // _BLOCK_TRIALS + 1)]
    rows = slice(start - first * _BLOCK_TRIALS, stop - first * _BLOCK_TRIALS)
    return TrialDraw(**{
        f.name: np.concatenate([getattr(block, f.name) for block in blocks])[rows]
        for f in fields(TrialDraw)
    })


def make_trials(params: ScenarioParams, start: int, stop: int) -> TrialBatch:
    """Trials start..stop-1 of the stream rooted at params.seed, as arrays: `draw_trials` at params.tau."""
    return draw_trials(params, start, stop).at(params.tau)


def make_trial(params: ScenarioParams, trial_index: int) -> TrialData:
    """Trial `trial_index` of the stream rooted at params.seed, as `Interval` objects.

    The view of make_trials(params, trial_index, trial_index + 1).
    """
    batch = make_trials(params, trial_index, trial_index + 1)
    readings = tuple(
        tuple(Interval(a, b) for a, b in zip(lo_row, hi_row))
        for lo_row, hi_row in zip(batch.lo[0].tolist(), batch.hi[0].tolist())
    )
    return TrialData(
        x=float(batch.x[0]),
        readings=readings,
        pattern=FaultPattern(tuple(batch.faulty[0].tolist())),
        precisions=tuple(batch.precisions[0].tolist()),
    )


@dataclass(frozen=True)
class ReadingRows:
    """B agents' readings as (B, n) lo and hi rows, checked once when built, not when sliced."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError(f"expected lo and hi rows of equal shape (B, n), got {lo.shape} and {hi.shape}")
        if lo.shape[1] == 0:
            raise ValueError("need at least one reading")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("reading endpoints must be finite")
        if (lo > hi).any():
            raise ValueError("interval with lower endpoint above upper endpoint")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def of(cls, readings: Sequence[Interval] | np.ndarray) -> ReadingRows:
        """One agent's readings (Intervals, or an (n, 2) or (1, n, 2) array) as one row."""
        if not isinstance(readings, np.ndarray):
            return cls([[iv.lo for iv in readings]], [[iv.hi for iv in readings]])
        if readings.ndim == 3 and readings.shape[0] != 1:
            raise ValueError(f"expected one agent's readings of shape (n, 2), "
                             f"got a stack of shape {readings.shape}")
        return cls.of_stack(readings)

    @classmethod
    def of_stack(cls, readings: np.ndarray) -> ReadingRows:
        """A (B, n, 2) array as B rows; an (n, 2) array as one row."""
        arr = np.asarray(readings, dtype=float)
        if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
            raise ValueError(f"expected readings of shape (n, 2) or (B, n, 2), got {arr.shape}")
        stack = arr if arr.ndim == 3 else arr[None]
        return cls(stack[:, :, 0], stack[:, :, 1])

    def __getitem__(self, rows: slice) -> ReadingRows:
        part = object.__new__(ReadingRows)
        object.__setattr__(part, "lo", self.lo[rows])
        object.__setattr__(part, "hi", self.hi[rows])
        return part
