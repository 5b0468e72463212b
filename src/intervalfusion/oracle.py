"""Exact Bayesian reference estimator for one agent's readings.

The posterior density of the target given the readings is a mixture over
fault patterns: each pattern contributes the marginal cell probabilities of
its assumed-faulty readings times the truthful indicator factors of the rest,
flat over the truthful intersection.  The density is therefore piecewise
constant between reading endpoints and admits exact integration.  No term
cancellation is applied; every pattern's marginal factors stay in the sum.

`posterior_rows` computes the density of B `scenario.ReadingRows` at once,
over a (rows, patterns, regions) membership array, as one `PiecewiseDensity`
with a leading row axis; `posterior_density` and `posterior_mean_exact` are
its one-row views.  The fault patterns come from `itertools.combinations` here,
not from the fusers' subset tables or their e_k recurrence, so the oracle
stays independent of the fusers it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenario import Interval, ReadingRows, ScenarioParams

__all__ = [
    "OffLatticeError",
    "InconsistentReadingsError",
    "PiecewiseDensity",
    "implied_precision",
    "posterior_rows",
    "posterior_density",
    "posterior_mean_exact",
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
    axis; `mass`, `mean` and `normalized` are their one-row forms.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def masses(self) -> np.ndarray:
        return (self.levels * np.diff(self.breakpoints)).sum(axis=-1)

    def means(self) -> np.ndarray:
        left, right = self.breakpoints[..., :-1], self.breakpoints[..., 1:]
        first_moment = (self.levels * ((right + left) * (right - left) / 2.0)).sum(axis=-1)
        return first_moment / self.masses()

    def mass(self) -> float:
        return self.masses().item()

    def _positive_mass(self) -> float:
        total = self.mass()
        if total <= 0.0:
            raise InconsistentReadingsError("density carries no mass")
        return total

    def mean(self) -> float:
        self._positive_mass()
        return self.means().item()

    def normalized(self) -> "PiecewiseDensity":
        return PiecewiseDensity(self.breakpoints, self.levels / self._positive_mass())


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


def posterior_rows(rows: ReadingRows, params: ScenarioParams) -> PiecewiseDensity:
    """Unnormalized posterior densities of the target given B reading rows.

    Row b of the density breaks at row b's readings and at +-x_max, clipped
    and sorted.  Sums over every size-tau fault pattern.  A pattern's
    contribution is constant on the intersection of the assumed-truthful
    readings (clipped to [-x_max, x_max]) and zero elsewhere; its level is the
    flat prior 1/(2*x_max) times the truthful factors (1/x_max) times the
    assumed-faulty readings' marginal cell probabilities 1/(x_max*precision),
    applied as divisions in index order.  Raises ValueError on a wrong reading count,
    OffLatticeError on a width off the reading lattice and
    InconsistentReadingsError on a row with no mass.
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

    truthful = np.array(list(itertools.combinations(range(n), n - tau)), dtype=np.intp)
    # the complements of the (n-tau)-subsets in lexicographic order are the
    # tau-subsets in reverse lexicographic order; at tau = 0 this is one empty row
    faulty = np.array(list(itertools.combinations(range(n), tau)), dtype=np.intp).reshape(len(truthful), tau)[::-1]

    # (rows, patterns): the truthful intersection [a, b] and its level
    a = np.maximum(lo[:, truthful].max(axis=2), -bound)[:, :, None]
    b = np.minimum(hi[:, truthful].min(axis=2), bound)[:, :, None]
    coeff = np.full((lo.shape[0], truthful.shape[0]), 1.0 / (2.0 * x_max) * (1.0 / x_max) ** (n - tau))
    for slot in range(tau):
        coeff /= x_max * precisions[:, faulty[:, slot]]
    # (rows, patterns, regions): a region lies in a pattern's nonempty intersection
    member = (b > a) & (a <= left) & (right <= b)
    levels = np.einsum("rp,rpg->rg", coeff, member)

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
