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

`law_moments` gives the exact first and second moments of the trial law
that the linear fusers are fitted and scored on, as finite sums over the
precision lattices; it draws no trials.
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
    "MomentSet",
    "LawMoments",
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


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the target and one agent's endpoint vector.

    Cross-sensor entries (cov_ll, cov_uu, cov_lu_cross) refer to two distinct
    sensors at the same agent; sensors are exchangeable, so the estimates pool
    every sensor (or ordered sensor pair) before averaging over trials.
    sample_count is the number of trials a sampled set was estimated from,
    and None for the law's exact set from `law_moments`, which draws none.
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
    sample_count: int | None

    def __post_init__(self) -> None:
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError(f"sample_count must be positive, got {self.sample_count}")
        if self.var_x < 0 or self.var_l < 0 or self.var_u < 0:
            raise ValueError("variances must be nonnegative")


@dataclass(frozen=True)
class LawMoments:
    """Exact moments of the trial law, and of the linear fits' per-agent features.

    moments holds agent 1's `MomentSet`, its fields Python floats.  gram is
    the (2m, 2m) matrix E[F F^T] of the features F_j = (sum L_j - n*E[L],
    sum U_j - n*E[U]) of agents j = 1..m, in the order (F_1L, F_1U, ...,
    F_mL, F_mU), and target is E[X F] in the same order.
    """

    moments: MomentSet
    gram: np.ndarray
    target: np.ndarray


def law_moments(params: ScenarioParams) -> LawMoments:
    """The exact moments of the trial law at params, computed from the law; no trial is drawn.

    A reading has one marginal law whether truthful or faulty: a precision p
    uniform on 1..x_max, then each of its p cells with probability 1/p.  A
    truthful reading is shared by every agent and a faulty one is independent
    of everything else; a sensor is truthful with probability (n-tau)/n and
    two distinct sensors both are with probability (n-tau)(n-tau-1)/(n(n-1)).
    For two truthful sensors E[l_p(X) l_q(X)] = E_X[g_L(X)^2] with
    g_L(x) = E_p[l_p(x)], one step function on the union of the precision
    lattices, and likewise for U.  The cell width u_p - l_p does not depend
    on x, so g_U - E[U] = g_L - E[L]: the three distinct-sensor covariances
    are one number, and so are cov_lx and cov_ux.  At n = 1 there is no
    distinct pair, and the cross-sensor fields repeat the same-sensor ones,
    as `optimal.estimate_moments` does.  Time and memory grow as x_max^2, the
    number of cells over all precisions.
    """
    n, m, tau, x_max = params.n, params.m, params.tau, params.x_max
    # every (precision, cell) pair: cell k = 0..p-1 of precision p is drawn with probability 1/(x_max*p)
    prec = np.repeat(np.arange(1, x_max + 1), np.arange(1, x_max + 1))
    cell = np.arange(prec.size) - (prec - 1) * prec // 2
    width = 2.0 * x_max / prec
    lo = -x_max + cell * width
    hi = lo + width
    weight = 1.0 / (x_max * prec)
    mean_l, mean_u = weight @ lo, weight @ hi
    dl, du = lo - mean_l, hi - mean_u
    var_l, var_u, cov_lu = weight @ (dl * dl), weight @ (du * du), weight @ (dl * du)

    # g_L on the union lattice, in units of (x + x_max) / (2 x_max): l_p steps
    # up by its width at every inner cell edge k/p, so g_L by 2/p there; equal
    # edges of different precisions only leave empty pieces
    inner = cell > 0
    edges = cell[inner] / prec[inner]
    order = np.argsort(edges)
    edges = np.concatenate([[0.0], edges[order], [1.0]])
    centered = np.concatenate([[0.0], np.cumsum(2.0 / prec[inner][order])]) - x_max - mean_l
    share = np.diff(edges)
    mid_x = x_max * (edges[:-1] + edges[1:]) - x_max
    truthful_cov = share @ (centered * centered)
    truthful_cov_x = share @ (mid_x * centered)

    keep = (n - tau) / n
    if n > 1:
        both = (n - tau) * (n - tau - 1) / (n * (n - 1))
        cov_ll = cov_uu = cov_lu_cross = both * truthful_cov
    else:
        cov_ll, cov_uu, cov_lu_cross = var_l, var_u, cov_lu
    cov_x = keep * truthful_cov_x
    moments = MomentSet(
        mean_x=0.0, var_x=x_max * x_max / 3.0, mean_l=float(mean_l), mean_u=float(mean_u),
        var_l=float(var_l), cov_ll=float(cov_ll), var_u=float(var_u), cov_uu=float(cov_uu),
        cov_lu_same=float(cov_lu), cov_lu_cross=float(cov_lu_cross), cov_lx=float(cov_x),
        cov_ux=float(cov_x), sample_count=None,
    )

    # one sensor's readings at two agents are one reading when it is truthful and
    # independent when faulty; two distinct sensors covary as cov_ll etc. at one
    # agent or at two
    nn1 = n * (n - 1)
    pair = nn1 * np.array([[cov_ll, cov_lu_cross], [cov_lu_cross, cov_uu]])
    same = n * np.array([[var_l, cov_lu], [cov_lu, var_u]])
    agent = np.arange(2 * m) // 2
    gram = np.where(agent[:, None] == agent[None, :], np.tile(same + pair, (m, m)),
                    np.tile(keep * same + pair, (m, m)))
    return LawMoments(moments=moments, gram=gram, target=np.full(2 * m, n * moments.cov_lx))
