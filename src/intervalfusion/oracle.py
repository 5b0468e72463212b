"""Exact Bayesian reference estimator for one agent's readings.

The posterior density of the target given the readings is a mixture over
fault patterns: each pattern contributes the marginal cell probabilities of
its assumed-faulty readings times the truthful indicator factors of the rest,
flat over the truthful intersection.  The density is therefore piecewise
constant between reading endpoints and admits exact integration.  No term
cancellation is applied; every pattern's marginal factors stay in the sum.

`posterior_rows` computes the density of B `scenario.ReadingRows` at once,
as one `PiecewiseDensity` with a leading row axis; `posterior_density` and
`posterior_mean_exact` are its one-row views.  It sums the fault patterns'
levels over the positive-width regions that n - tau readings cover, the only
cells a pattern's truthful intersection can hold, and a pattern holds a cell
when its one-hot row counts n - tau of the cell's covering readings.  The
fault patterns come from `itertools.combinations` here, not from the fusers'
subset tables or their e_k recurrence, so the oracle stays independent of
the fusers it checks.

`law_moments` gives the trial law's exact `MomentSet`, the type that
`optimal.estimate_moments` samples: fit-linear feeds it to the two-agent
recipe and scores the linear fusers on it (`optimal.population_scores`).  It
is formed in closed form, in Python floats, from lattice sums over the
precisions (`_lattice_sums`, cached per x_max, which
`optimal.fit_linear_exact` reads too); it draws no trials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .scenario import Interval, ReadingRows, ScenarioParams

__all__ = [
    "OffLatticeError",
    "InconsistentReadingsError",
    "PiecewiseDensity",
    "MomentSet",
    "implied_precision",
    "posterior_rows",
    "posterior_density",
    "posterior_mean_exact",
    "law_moments",
]


class OffLatticeError(ValueError):
    """A reading's width does not correspond to any integer precision."""


class InconsistentReadingsError(ValueError):
    """The readings leave zero posterior mass (no pattern explains them)."""


@dataclass(frozen=True)
class PiecewiseDensity:
    """Unnormalized piecewise-constant density, of one row or of B rows stacked.

    levels[..., k] is the density on (breakpoints[..., k], breakpoints[..., k+1]);
    a zero-width gap carries no mass.  `masses` and `means` reduce the last
    axis, so one row gives 0-d arrays.  A density that `posterior_rows` or
    `posterior_density` returns has positive mass on every row.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def masses(self) -> np.ndarray:
        return (self.levels * np.diff(self.breakpoints)).sum(axis=-1)

    def means(self) -> np.ndarray:
        left, right = self.breakpoints[..., :-1], self.breakpoints[..., 1:]
        first_moment = (self.levels * ((right + left) * (right - left) / 2.0)).sum(axis=-1)
        return first_moment / self.masses()


def _off_lattice_reason(width: float, precision: float, x_max: int) -> str:
    if width <= 0:
        return f"reading width must be positive, got {width}"
    if precision < 1 or precision > x_max:
        return f"width {width} implies precision {precision:.0f} outside 1..{x_max}"
    return f"width {width} is not 2*{x_max}/k for any integer k in 1..{x_max}"


def _implied_precisions(widths: np.ndarray, x_max: int) -> np.ndarray:
    """Cell counts of an array of reading widths, by the rule of `implied_precision`.

    Raises OffLatticeError naming the first off-lattice width in row-major order.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        precisions = np.round(2.0 * x_max / widths)
        on_lattice = (widths > 0) & (precisions >= 1) & (precisions <= x_max)
        on_lattice &= np.abs(widths - 2.0 * x_max / precisions) <= 1e-9 * (1.0 + widths)
    if not on_lattice.all():
        first = np.argmin(on_lattice)
        raise OffLatticeError(_off_lattice_reason(float(widths.flat[first]), precisions.flat[first], x_max))
    return precisions


def implied_precision(reading: Interval, x_max: int) -> int:
    """Recover the integer cell count from a reading's width.

    width = 2*x_max/precision for some precision in 1..x_max; anything else
    is off the reading lattice.
    """
    return int(_implied_precisions(np.array([reading.width]), x_max)[0])


@lru_cache(maxsize=64)
def _patterns(n: int, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """A one-hot (patterns, n) table of each fault pattern's truthful readings, and its faulty ones.

    The patterns are the (n - tau)-subsets in lexicographic order.  Their
    complements are the tau-subsets in reverse lexicographic order, so the
    faulty table is (patterns, tau); at tau = 0 it has no column.  The
    truthful table is float32: the counts it forms are integers <= n, exact
    in float32 at half float64's memory.
    """
    truthful = np.zeros((math.comb(n, tau), n), dtype=np.float32)
    for p, subset in enumerate(itertools.combinations(range(n), n - tau)):
        truthful[p, subset] = 1.0
    faulty = np.array(list(itertools.combinations(range(n), tau)), dtype=np.intp).reshape(len(truthful), tau)[::-1]
    truthful.setflags(write=False)
    faulty.setflags(write=False)
    return truthful, faulty


def posterior_rows(rows: ReadingRows, params: ScenarioParams) -> PiecewiseDensity:
    """Unnormalized posterior densities of the target given B reading rows.

    Row b of the density breaks at row b's readings and at +-x_max, clipped
    and sorted.  Sums over every size-tau fault pattern.  A pattern's
    contribution is constant on the intersection of the assumed-truthful
    readings (clipped to [-x_max, x_max]) and zero elsewhere; its level is the
    flat prior 1/(2*x_max) times the truthful factors (1/x_max) times the
    assumed-faulty readings' marginal cell probabilities 1/(x_max*precision),
    applied as divisions in index order, and a positive-width region sums its
    patterns' levels in pattern order.  A zero-width gap gets level 0.  Raises
    ValueError on a wrong reading count, OffLatticeError on a width off the
    reading lattice and InconsistentReadingsError on a row with no mass.
    """
    lo, hi = rows.lo, rows.hi
    n = lo.shape[1]
    tau, x_max = params.tau, params.x_max
    if n != params.n:
        raise ValueError(f"expected {params.n} readings, got {n}")
    precisions = _implied_precisions(hi - lo, x_max)

    bound = float(x_max)
    edges = np.full((lo.shape[0], 1), bound)
    points = np.sort(np.clip(np.concatenate([lo, hi, -edges, edges], axis=1), -bound, bound), axis=1)
    left, right = points[:, None, :-1], points[:, None, 1:]

    truthful, faulty = _patterns(n, tau)
    # (rows, patterns): each pattern's level
    coeff = np.full((lo.shape[0], truthful.shape[0]), 1.0 / (2.0 * x_max) * (1.0 / x_max) ** (n - tau))
    for slot in range(tau):
        coeff /= x_max * precisions[:, faulty[:, slot]]
    # a positive-width region lies in a pattern's intersection when every truthful
    # reading covers it; the regions fewer than n - tau readings cover lie in none
    cover = (lo[:, :, None] <= left) & (right <= hi[:, :, None]) & (right > left)
    row, gap = np.nonzero(cover.sum(axis=1) >= n - tau)
    # (patterns, kept cells): a pattern's truthful readings that cover the cell,
    # counted; each cell's levels are summed in pattern order
    pattern, cell = np.nonzero(truthful @ cover[row, :, gap].T == n - tau)
    levels = np.zeros(points[:, 1:].shape)
    levels[row, gap] = np.bincount(cell, weights=coeff[row[cell], pattern], minlength=row.size)

    density = PiecewiseDensity(breakpoints=points, levels=levels)
    empty = ~(density.masses() > 0.0)
    if empty.any():
        raise InconsistentReadingsError(f"row {int(np.argmax(empty))} carries no posterior mass")
    return density


def posterior_density(readings: Sequence[Interval] | np.ndarray, params: ScenarioParams) -> PiecewiseDensity:
    """Unnormalized posterior density of the target given one agent's readings.

    The one-row view of `posterior_rows`, on the distinct breakpoints: its
    zero-width gaps are dropped.  Raises as `posterior_rows` does.
    """
    density = posterior_rows(ReadingRows.of(readings), params)
    points, = density.breakpoints
    gaps = np.diff(points) > 0
    return PiecewiseDensity(breakpoints=points[np.r_[True, gaps]], levels=density.levels[0][gaps])


def posterior_mean_exact(readings: Sequence[Interval] | np.ndarray, params: ScenarioParams) -> float:
    """Exact conditional expectation of the target given one agent's readings."""
    return posterior_rows(ReadingRows.of(readings), params).means().item()


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the target and one agent's endpoint vector.

    Cross-sensor entries (cov_ll, cov_uu, cov_lu_cross) refer to two distinct
    sensors at the same agent; sensors are exchangeable, so the estimates pool
    every sensor (or ordered sensor pair) before averaging over trials.
    """

    mean_x: float
    var_x: float
    mean_l: float
    mean_u: float
    var_l: float
    cov_ll: float
    var_u: float
    cov_uu: float
    cov_lu_same: float
    cov_lu_cross: float
    cov_lx: float
    cov_ux: float

    def __post_init__(self) -> None:
        if self.var_x < 0 or self.var_l < 0 or self.var_u < 0:
            raise ValueError("variances must be nonnegative")


@lru_cache(maxsize=64)
def _lattice_sums(x_max: int) -> tuple[float, float]:
    """A = sum_p (1 - 1/p^2) and B = A^2 + sum_{p,q} (gcd(p,q)^2 - 1)/(p^2 q^2), over precisions 1..x_max.

    They are the law's endpoint-sum moments up to scale: with S the sum of
    one reading's two endpoints, E[S^2] = 4*x_max*A/3, and two readings of
    one target, truthful at independent precisions, have E[S S'] = 4*B/3.
    The cross term is Franel's integral of two sawtooth functions,
    int_0^1 B1({pt}) B1({qt}) dt = gcd(p,q)^2/(12pq).  Each lattice term is
    an integer ratio rounded once, and math.fsum rounds the exact sum of its
    terms once, so the bits depend on no summation order and no BLAS or SIMD
    kernel.  Terms are >= 0, so nothing cancels.  Time grows as x_max^2
    (about 0.1 s at x_max = 1000) and memory does not grow; the sums are
    cached, so a process forms them once per x_max.
    """
    a = math.fsum((p * p - 1) / (p * p) for p in range(1, x_max + 1))
    # pairs of coprime precisions add 0; (p, q) and (q, p) add one term twice
    pairs = ((2 - (p == q)) * (g * g - 1) / (p * p * q * q)
             for p in range(2, x_max + 1) for q in range(p, x_max + 1) if (g := math.gcd(p, q)) > 1)
    return a, math.fsum(itertools.chain((a * a,), pairs))


def law_moments(params: ScenarioParams) -> MomentSet:
    """The exact MomentSet of the trial law at params, computed from the law; no trial is drawn.

    A reading has one marginal law whether truthful or faulty: a precision p
    uniform on 1..x_max, then each of its p cells with probability 1/p.  A
    truthful reading is shared by every agent and a faulty one is independent
    of everything else; a sensor is truthful with probability keep =
    (n-tau)/n and two distinct sensors both are with probability
    both = (n-tau)(n-tau-1)/(n(n-1)).  Given p, the lower endpoint is
    l = x_max*(2k/p - 1) with k uniform on 0..p-1, so E[l|p] = -x_max/p,
    E[l^2|p] = x_max^2*(p^2+2)/(3p^2) and E[l u|p] = x_max^2*(p^2-4)/(3p^2),
    and x -> -x maps l to -u.  With H = sum 1/p, Q = sum 1/p^2 over
    p = 1..x_max and A, B from _lattice_sums:
        mean_l = -H, mean_u = H,
        var_l = var_u = x_max*(x_max + 2Q)/3 - H^2,
        cov_lu_same = x_max*(x_max - 4Q)/3 + H^2,
        cov_ll = cov_uu = cov_lu_cross = both*B/3,
        cov_lx = cov_ux = keep*x_max*A/3,
    where B/3 is the covariance of two truthful readings' endpoints, the
    same for L, U and L with U since u - l does not depend on x.  At n = 1
    there is no distinct pair, and the cross-sensor fields repeat the
    same-sensor ones, as `optimal.estimate_moments` does.  The result
    depends on params only through n, tau and x_max.  Every field is formed
    from Python ints and floats, H and Q with math.fsum, so its bits follow
    no summation order and no BLAS or SIMD kernel.  The first call at an
    x_max takes time x_max^2, the pairs of precisions that _lattice_sums
    visits, and later ones time x_max; memory does not grow.
    """
    n, tau, x_max = params.n, params.tau, params.x_max
    harmonic = math.fsum(1.0 / p for p in range(1, x_max + 1))
    inverse_squares = math.fsum(1.0 / (p * p) for p in range(1, x_max + 1))
    a, b = _lattice_sums(x_max)
    var = x_max * (x_max + 2.0 * inverse_squares) / 3.0 - harmonic * harmonic
    cov_lu = x_max * (x_max - 4.0 * inverse_squares) / 3.0 + harmonic * harmonic

    keep = (n - tau) / n
    if n > 1:
        both = (n - tau) * (n - tau - 1) / (n * (n - 1))
        cov_ll = cov_uu = cov_lu_cross = both * b / 3.0
    else:
        cov_ll, cov_uu, cov_lu_cross = var, var, cov_lu
    cov_x = keep * x_max * a / 3.0
    return MomentSet(
        mean_x=0.0, var_x=x_max * x_max / 3.0, mean_l=-harmonic, mean_u=harmonic, var_l=var, cov_ll=cov_ll,
        var_u=var, cov_uu=cov_uu, cov_lu_same=cov_lu, cov_lu_cross=cov_lu_cross, cov_lx=cov_x, cov_ux=cov_x,
    )
