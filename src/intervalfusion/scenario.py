"""Generative model for interval sensor trials with faulty sensors.

A scalar target is drawn uniformly from [-x_max, x_max].  Each sensor owns a
precision delta drawn uniformly from {1, ..., x_max} and partitions the range
into delta equal cells of width 2*x_max/delta; a truthful sensor reports the
cell containing the target, and that single reading is replicated to every
agent.  A uniformly random subset of tau sensors is faulty: a faulty sensor
sends each agent an independent fresh draw from the truthful marginal law
(independent precision, independent phantom target), so its readings carry no
information about the target and are mutually independent across agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "ScenarioParams",
    "FaultPattern",
    "TrialData",
    "TrialBatch",
    "draw_target",
    "truthful_interval",
    "draw_faulty_reading",
    "generate_trial",
    "trial_rng",
    "make_trial",
    "sample_batch",
]

_MASK64 = (1 << 64) - 1


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


def draw_target(params: ScenarioParams, rng: np.random.Generator) -> float:
    """Draw the ground-truth target, uniform on [-x_max, x_max]."""
    return float(rng.uniform(-params.x_max, params.x_max))


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


def draw_faulty_reading(params: ScenarioParams, rng: np.random.Generator) -> Interval:
    """One faulty transmission: a fresh draw from the truthful marginal law.

    Independent of the real target and of every other reading.
    """
    precision = int(rng.integers(1, params.x_max + 1))
    phantom = float(rng.uniform(-params.x_max, params.x_max))
    return truthful_interval(phantom, precision, params.x_max)


def generate_trial(params: ScenarioParams, rng: np.random.Generator) -> TrialData:
    """Generate one trial from the given stream.

    Draw order is fixed (fault pattern, per-sensor precisions, target, then
    faulty readings in sensor-major agent-minor order) so a given stream
    always yields the same trial.
    """
    n, m = params.n, params.m
    faulty_idx = rng.choice(n, size=params.tau, replace=False)
    flags = [False] * n
    for i in faulty_idx:
        flags[int(i)] = True
    precisions = rng.integers(1, params.x_max + 1, size=n)
    x = draw_target(params, rng)

    rows: list[tuple[Interval, ...]] = []
    for i in range(n):
        if flags[i]:
            rows.append(tuple(draw_faulty_reading(params, rng) for _ in range(m)))
        else:
            reading = truthful_interval(x, int(precisions[i]), params.x_max)
            rows.append((reading,) * m)
    return TrialData(
        x=x,
        readings=tuple(rows),
        pattern=FaultPattern(tuple(flags)),
        precisions=tuple(int(p) for p in precisions),
    )


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial, derived from (seed, trial_index).

    Trial i's stream never depends on whether other trials were generated,
    so partitioning trials across workers cannot change any result.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    return np.random.default_rng(np.random.SeedSequence((seed & _MASK64, trial_index)))


def make_trial(params: ScenarioParams, trial_index: int) -> TrialData:
    """Trial `trial_index` of the deterministic stream rooted at params.seed."""
    return generate_trial(params, trial_rng(params.seed, trial_index))


@dataclass(frozen=True)
class TrialBatch:
    """Vectorized trials for moment estimation and coefficient fitting.

    lo/hi have shape (size, n, m); faulty has shape (size, n).  Same trial
    law as generate_trial, drawn in bulk from a single stream.
    """

    x: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    faulty: np.ndarray

    @property
    def size(self) -> int:
        return self.x.shape[0]


def _cells_from_targets(x: np.ndarray, prec: np.ndarray, x_max: int) -> tuple[np.ndarray, np.ndarray]:
    u = (x + x_max) * prec / (2.0 * x_max)
    d = np.clip(np.ceil(u), 1, prec)
    lo = -x_max + (d - 1) * (2.0 * x_max) / prec
    hi = -x_max + d * (2.0 * x_max) / prec
    return lo, hi


def sample_batch(params: ScenarioParams, size: int, rng: np.random.Generator) -> TrialBatch:
    """Draw `size` independent trials as arrays.

    Faulty slots are drawn for every (trial, sensor, agent) and masked in,
    which leaves the joint law identical to generate_trial's.
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
    return TrialBatch(x=x, lo=lo, hi=hi, faulty=faulty)
