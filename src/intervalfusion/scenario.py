"""Generative model for interval sensor trials with faulty sensors.

A scalar target is drawn uniformly from [-x_max, x_max].  Each sensor owns a
precision delta drawn uniformly from {1, ..., x_max} and partitions the range
into delta equal cells of width 2*x_max/delta; a truthful sensor reports the
cell containing the target, and that single reading is replicated to every
agent.  A uniformly random subset of tau sensors is faulty: a faulty sensor
sends each agent an independent fresh draw from the truthful marginal law
(independent precision, independent phantom target), so its readings carry no
information about the target and are mutually independent across agents.

`sample_batch` is the one implementation of this law.  `make_trials` numbers
the trials of the stream rooted at a seed: with B = 128 trials per block,
trial t is row t % B of block t // B, and block b is `sample_batch` drawn
from the substream derived from (seed, b), so a trial never depends on which
other trials are drawn or how a range of trials is split.  `make_trial` is one trial as `Interval` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Interval",
    "ScenarioParams",
    "FaultPattern",
    "TrialData",
    "TrialBatch",
    "truthful_interval",
    "make_trial",
    "make_trials",
    "sample_batch",
]

_MASK64 = (1 << 64) - 1

# trials per substream block.  A block is drawn whole, so this is also the
# cost of one make_trial call and the batch evaluate fuses at once: large
# enough to amortise numpy call overhead, small enough that the (rows, n, 2n)
# coverage temporaries stay a few MB at n=16
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
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.tau < self.n:
            raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={self.tau}, n={self.n}")
        if not isinstance(self.x_max, int):
            raise ValueError(f"x_max must be an integer, got {self.x_max!r}")
        if self.x_max < 1:
            raise ValueError(f"x_max must be a positive integer, got {self.x_max}")


@dataclass(frozen=True)
class FaultPattern:
    """Boolean fault flags, one per sensor."""

    flags: tuple[bool, ...]

    @property
    def faulty_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.flags) if f)

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


def _cell_index(x: float, precision: int, x_max: int) -> int:
    # Ties on interior cell boundaries resolve to the lower-index cell;
    # x == -x_max belongs to cell 1.
    u = (x + x_max) * precision / (2.0 * x_max)
    d = math.ceil(u)
    return min(precision, max(1, d))


def truthful_interval(x: float, precision: int, x_max: int) -> Interval:
    """Return the unique width-(2*x_max/precision) cell containing x.

    The cells partition [-x_max, x_max] into `precision` equal pieces.
    """
    if not -x_max <= x <= x_max:
        raise ValueError(f"target {x} outside [-{x_max}, {x_max}]")
    if precision < 1 or precision > x_max:
        raise ValueError(f"precision must lie in 1..{x_max}, got {precision}")
    d = _cell_index(x, precision, x_max)
    lo = -x_max + (d - 1) * (2.0 * x_max) / precision
    hi = -x_max + d * (2.0 * x_max) / precision
    return Interval(lo, hi)


def _cells_from_targets(x: np.ndarray, prec: np.ndarray, x_max: int) -> tuple[np.ndarray, np.ndarray]:
    u = (x + x_max) * prec / (2.0 * x_max)
    d = np.minimum(np.maximum(np.ceil(u), 1), prec)
    lo = -x_max + (d - 1) * (2.0 * x_max) / prec
    hi = -x_max + d * (2.0 * x_max) / prec
    return lo, hi


def sample_batch(params: ScenarioParams, size: int, rng: np.random.Generator) -> TrialBatch:
    """Draw `size` independent trials as arrays.

    Faulty slots are drawn for every (trial, sensor, agent) and masked in,
    which leaves the joint law the one the module docstring states.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n, m, x_max = params.n, params.m, params.x_max

    order = np.argsort(rng.random((size, n)), axis=1)
    faulty = np.zeros((size, n), dtype=bool)
    np.put_along_axis(faulty, order[:, : params.tau], True, axis=1)

    precisions = rng.integers(1, x_max + 1, size=(size, n))
    x = rng.uniform(-x_max, x_max, size=size)

    true_lo, true_hi = _cells_from_targets(x[:, None], precisions, x_max)

    fake_prec = rng.integers(1, x_max + 1, size=(size, n, m))
    phantom = rng.uniform(-x_max, x_max, size=(size, n, m))
    fake_lo, fake_hi = _cells_from_targets(phantom, fake_prec, x_max)

    mask = faulty[:, :, None]
    lo = np.where(mask, fake_lo, true_lo[:, :, None])
    hi = np.where(mask, fake_hi, true_hi[:, :, None])
    return TrialBatch(x=x, lo=lo, hi=hi, faulty=faulty, precisions=precisions)


def _block(params: ScenarioParams, index: int) -> TrialBatch:
    rng = np.random.default_rng(np.random.SeedSequence((params.seed & _MASK64, index)))
    return sample_batch(params, _BLOCK_TRIALS, rng)


def make_trials(params: ScenarioParams, start: int, stop: int) -> TrialBatch:
    """Trials start..stop-1 of the stream rooted at params.seed, as arrays.

    Row t - start is trial t, the same values whatever the range: it is cut
    from the substream block that holds trial t.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    first = start // _BLOCK_TRIALS
    blocks = [_block(params, b) for b in range(first, (stop - 1) // _BLOCK_TRIALS + 1)]
    rows = slice(start - first * _BLOCK_TRIALS, stop - first * _BLOCK_TRIALS)
    return TrialBatch(**{
        f.name: np.concatenate([getattr(block, f.name) for block in blocks])[rows]
        for f in fields(TrialBatch)
    })


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
