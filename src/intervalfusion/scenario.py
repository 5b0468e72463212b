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
which holds everything but tau: each sensor's rank in a random fault order,
the target, the truthful cells and a phantom cell for every (agent, sensor)
slot, stored agent-major.  Its `at(tau)` marks the sensors ranked below tau
faulty and masks their phantom cells in, so one draw serves every tau, and
the faulty sets of a draw are nested in tau.  The masked block comes out in
the fusers' row layout, one (trials, n) block per agent, so the batch's
`rows()` copies nothing.  `sample_batch` is `draw_batch` at params.tau.

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
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

__all__ = [
    "Interval",
    "ScenarioParams",
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
# two, oracle-check one), so that numpy call overhead is amortised while
# per-call temporaries such as the oracle's (patterns, kept cells) pattern
# counts stay small
_BLOCK_TRIALS = 128


def _integer(name: str, value) -> int:
    """value as an int; bool and non-integer values are refused, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_tau(tau: int, n: int) -> None:
    if not 0 <= tau < n:
        raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={tau}, n={n}")


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
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name)))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        _check_tau(self.tau, self.n)
        if self.x_max < 1:
            raise ValueError(f"x_max must be a positive integer, got {self.x_max}")


@dataclass(frozen=True)
class TrialData:
    """One simulated trial.

    readings[i][j] is sensor i's interval as seen by agent j, and faulty[i]
    is True when sensor i is faulty.  Non-faulty sensors replicate one
    truthful reading across agents; faulty sensors send independent draws.
    precisions[i] is the cell count of sensor i's truthful mechanism (a
    faulty reading embeds its own independent precision, which is
    recoverable from the reading width).
    """

    x: float
    readings: tuple[tuple[Interval, ...], ...]
    faulty: tuple[bool, ...]
    precisions: tuple[int, ...]


@dataclass(frozen=True)
class TrialBatch:
    """Trials as arrays, for evaluation, moment estimation and coefficient fitting.

    x has shape (size,), lo/hi (size, n, m), faulty and precisions (size, n).
    [lo[t, i, j], hi[t, i, j]] is sensor i's interval as seen by agent j in
    trial t, and precisions[t, i] is sensor i's truthful cell count, as in
    TrialData.  A batch from `TrialDraw.at` holds lo/hi as transposed views
    of agent-major (m, size, n) arrays; one from `sample_batch` holds
    C-ordered copies.
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
        """Every agent's readings of every trial; row j * size + t is agent j's in trial t.

        A view of lo/hi when they are agent-major, as `TrialDraw.at` makes them; a copy otherwise.
        """
        size, n, m = self.lo.shape
        return ReadingRows(self.lo.transpose(2, 0, 1).reshape(m * size, n),
                           self.hi.transpose(2, 0, 1).reshape(m * size, n))


def truthful_interval(x: float, precision: int, x_max: int) -> Interval:
    """Return the unique width-(2*x_max/precision) cell containing x.

    The cells partition [-x_max, x_max] into `precision` equal pieces;
    precision and x_max must be integers, as in ScenarioParams.
    """
    precision = _integer("precision", precision)
    x_max = _integer("x_max", x_max)
    if not -x_max <= x <= x_max:
        raise ValueError(f"target {x} outside [-{x_max}, {x_max}]")
    if precision < 1 or precision > x_max:
        raise ValueError(f"precision must lie in 1..{x_max}, got {precision}")
    (lo,), (hi,) = _cells_from_targets(np.array([x], dtype=float), np.array([precision]), x_max)
    return Interval(float(lo), float(hi))


def _cells_from_targets(x: np.ndarray, prec: np.ndarray, x_max: int) -> tuple[np.ndarray, np.ndarray]:
    # d = min(max(ceil((x + x_max) * prec / (2 x_max)), 1), prec) is the cell
    # index, so ties on interior cell boundaries resolve to the lower-index
    # cell and x == -x_max belongs to cell 1; lo = -x_max + (d - 1) * (2 x_max) / prec
    # and hi = -x_max + d * (2 x_max) / prec.  Each step runs in place, in that
    # operation order, so the values are those expressions' bit for bit.  x and
    # prec must be arrays: `out=` refuses numpy scalars.
    prec = prec.astype(float)
    width = 2.0 * x_max
    lo = (x + x_max) * prec
    lo /= width
    np.ceil(lo, out=lo)
    np.maximum(lo, 1, out=lo)
    np.minimum(lo, prec, out=lo)
    hi = lo * width
    hi /= prec
    hi += -x_max
    lo -= 1
    lo *= width
    lo /= prec
    lo += -x_max
    return lo, hi


@dataclass(frozen=True)
class TrialDraw:
    """Trials drawn without a fault count; `at(tau)` makes them a `TrialBatch`.

    rank has shape (size, n): each sensor's place, 0 to n-1, in a random
    order of its trial's sensors; the sensors ranked below tau are faulty.
    x has shape (size,), precisions and true_lo/true_hi (size, n): the
    truthful cells.  fake_lo/fake_hi are stored agent-major, shape
    (m, size, n): fake_lo[j, t, i] is the phantom cell sensor i sends agent j
    in trial t when it is faulty.
    """

    rank: np.ndarray
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
        """These trials with their sensors ranked below tau faulty.

        The masked endpoints are formed agent-major, one (size, n) block per
        agent, so the batch's `rows()` is a view of them.
        """
        _check_tau(tau, self.rank.shape[1])
        faulty = self.rank < tau
        # the (size, n) mask and truthful cells broadcast over the leading agent axis
        lo = np.where(faulty, self.fake_lo, self.true_lo)
        hi = np.where(faulty, self.fake_hi, self.true_hi)
        return TrialBatch(x=self.x, lo=lo.transpose(1, 2, 0), hi=hi.transpose(1, 2, 0), faulty=faulty,
                          precisions=self.precisions)


def draw_batch(params: ScenarioParams, size: int, rng: np.random.Generator) -> TrialDraw:
    """Draw `size` independent trials of every fault count; params.tau is not read.

    Faulty slots are drawn for every (trial, sensor, agent) and masked in by
    `TrialDraw.at`, which leaves the joint law the one the module docstring
    states at every tau.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n, m, x_max = params.n, params.m, params.x_max

    # each sensor's place in a random order of its trial's sensors: the inverse
    # permutation of that order, whose array is freed before the cells are drawn
    rank = np.argsort(np.argsort(rng.random((size, n)), axis=1), axis=1)

    precisions = rng.integers(1, x_max + 1, size=(size, n))
    x = rng.uniform(-x_max, x_max, size=size)

    # one (m + 1, size, n) stack of targets and precisions, the truthful ones
    # in slot 0 and each agent's phantom ones in slots 1 to m, gives every
    # cell in one _cells_from_targets call; the phantoms are drawn
    # (size, n, m) as ever and stored agent-major
    targets = np.empty((m + 1, size, n))
    prec = np.empty((m + 1, size, n), dtype=precisions.dtype)
    targets[0], prec[0] = x[:, None], precisions
    prec[1:] = rng.integers(1, x_max + 1, size=(size, n, m)).transpose(2, 0, 1)
    targets[1:] = rng.uniform(-x_max, x_max, size=(size, n, m)).transpose(2, 0, 1)
    lo, hi = _cells_from_targets(targets, prec, x_max)
    return TrialDraw(rank=rank, x=x, precisions=precisions, true_lo=lo[0], true_hi=hi[0],
                     fake_lo=lo[1:], fake_hi=hi[1:])


def sample_batch(params: ScenarioParams, size: int, rng: np.random.Generator) -> TrialBatch:
    """Draw `size` independent trials as arrays: `draw_batch` at params.tau.

    lo and hi are C-ordered (size, n, m) copies, not `at`'s agent-major
    views: the fits reduce agent 0's (size, n) slice, and numpy's reductions
    over a contiguous slice round differently from those over a strided one.
    """
    batch = draw_batch(params, size, rng).at(params.tau)
    return replace(batch, lo=np.ascontiguousarray(batch.lo), hi=np.ascontiguousarray(batch.hi))


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

    def join(name: str) -> np.ndarray:
        # the phantom fields hold trials on their second axis, every other field on its first
        axis = 1 if name in ("fake_lo", "fake_hi") else 0
        parts = [getattr(block, name) for block in blocks]
        whole = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)
        return whole[(slice(None),) * axis + (rows,)]

    return TrialDraw(**{f.name: join(f.name) for f in fields(TrialDraw)})


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
        faulty=tuple(batch.faulty[0].tolist()),
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
