"""Interval fusers: Marzullo, Brooks-Iyengar, generalized Brooks-Iyengar, linear.

Every fuser maps the n intervals one agent received to a point estimate of
the target.  All of them tolerate up to tau faulty inputs in the sense of the
fault model in `scenario`.

The fusers are computed by batch kernels (`marzullo_rows`, `coverage_rows`,
`bi_rows`, `gbi_rows`, `linear_rows`) over a leading row axis, one row per
agent's readings; the scalar fusers are one-row calls of the same kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .scenario import Interval

__all__ = [
    "DegenerateInputError",
    "TransitionProfile",
    "GbiWeights",
    "LinearCoefficients",
    "fuse_marzullo",
    "transition_profile",
    "fuse_bi",
    "fuse_bi_with_flag",
    "gbi_bayes_weights",
    "fuse_gbi",
    "fuse_gbi_oneopt",
    "fuse_gbi_regions",
    "fuse_linear",
    "RowCoverage",
    "coverage_rows",
    "marzullo_rows",
    "bi_rows",
    "gbi_rows",
    "linear_rows",
]


class DegenerateInputError(ValueError):
    """Raised when a fuser's weighting collapses (e.g. every GBI weight is zero)."""


def _as_row(readings: Sequence[Interval] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One agent's readings (Intervals or an (n, 2) array) as (1, n) lo and hi rows."""
    if isinstance(readings, np.ndarray):
        arr = np.asarray(readings, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected readings of shape (n, 2), got {arr.shape}")
        return arr[None, :, 0], arr[None, :, 1]
    lo = np.array([[iv.lo for iv in readings]], dtype=float)
    hi = np.array([[iv.hi for iv in readings]], dtype=float)
    return lo, hi


def _check_rows(lo: np.ndarray, hi: np.ndarray) -> None:
    """Validate a batch of (B, n) reading rows once for the whole batch."""
    if lo.ndim != 2 or lo.shape != hi.shape:
        raise ValueError(f"expected lo and hi rows of equal shape (B, n), got {lo.shape} and {hi.shape}")
    if lo.shape[1] == 0:
        raise ValueError("need at least one reading")
    if (lo > hi).any():
        raise ValueError("interval with lower endpoint above upper endpoint")


def _bounds(readings: Sequence[Interval] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize readings to validated 1-d (lo, hi) float arrays."""
    lo, hi = _as_row(readings)
    _check_rows(lo, hi)
    return lo[0], hi[0]


def _check_tau(tau: int, n: int) -> None:
    if not 0 <= tau < n:
        raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={tau}, n={n}")


def marzullo_rows(lo: np.ndarray, hi: np.ndarray, tau: int) -> np.ndarray:
    """Marzullo estimates of B reading rows; lo and hi have shape (B, n)."""
    _check_rows(lo, hi)
    n = lo.shape[1]
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if n < tau + 2:
        raise ValueError(f"need n >= tau + 2 for order statistics, got n={n}, tau={tau}")
    return (np.sort(lo, axis=1)[:, tau] + np.sort(hi, axis=1)[:, n - tau - 2]) / 2.0


def fuse_marzullo(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Midpoint of the (tau+1)-th smallest lower endpoint and the
    (n-tau-1)-th smallest upper endpoint.

    Requires n >= tau + 2 so both order statistics exist.
    """
    return float(marzullo_rows(*_as_row(readings), tau)[0])


@dataclass(frozen=True)
class RowCoverage:
    """Coverage profiles of B reading rows, each over its 2n sorted endpoints.

    Gap g of row b is (left[b, g], right[b, g]), between consecutive sorted
    endpoints; a gap of zero width is a repeated endpoint, not a region.
    cover[b, i, g] is True when reading i covers the whole open gap and the
    gap has positive width, and counts[b, g] is the number of readings that
    do, so zero-width gaps count 0.  lo and hi are the (B, n) rows.
    """

    lo: np.ndarray
    hi: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cover: np.ndarray
    counts: np.ndarray


def coverage_rows(lo: np.ndarray, hi: np.ndarray) -> RowCoverage:
    """Coverage profiles of B reading rows; lo and hi have shape (B, n)."""
    _check_rows(lo, hi)
    points = np.sort(np.concatenate([lo, hi], axis=1), axis=1)
    left, right = points[:, :-1], points[:, 1:]
    cover = (lo[:, :, None] <= left[:, None, :]) & (hi[:, :, None] >= right[:, None, :])
    cover &= (right > left)[:, None, :]
    return RowCoverage(lo=lo, hi=hi, left=left, right=right, cover=cover, counts=cover.sum(axis=1))


@dataclass(frozen=True)
class TransitionProfile:
    """Coverage structure of an interval family.

    points holds the sorted distinct endpoints; cover[i, k] is True when
    reading i covers the whole open region (points[k], points[k+1]) and
    counts[k] is the number of readings that do.  Coverage is evaluated on
    open regions only, so a zero-width interval or two intervals touching at
    a single point never contribute a count.  lo and hi are the endpoints of
    the readings the profile was built from, in their original order.
    """

    points: np.ndarray
    counts: np.ndarray
    cover: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def region_midpoints(self) -> np.ndarray:
        return (self.points[:-1] + self.points[1:]) / 2.0


def transition_profile(readings: Sequence[Interval] | np.ndarray) -> TransitionProfile:
    """Distinct endpoints, per-reading region membership and coverage counts.

    The one-row view of `coverage_rows` with its zero-width gaps dropped.
    """
    cov = coverage_rows(*_as_row(readings))
    lo, hi = cov.lo[0], cov.hi[0]
    cover = cov.cover[0][:, cov.right[0] > cov.left[0]]
    points = np.unique(np.concatenate([lo, hi]))
    return TransitionProfile(points=points, counts=cover.sum(axis=0), cover=cover, lo=lo, hi=hi)


def _row_means(rows: np.ndarray, weights: np.ndarray, points: np.ndarray, size: int) -> np.ndarray:
    """Weighted mean of points per row, over cells listed in row-major order.

    rows[c] is the row of cell c.  Each row's sums run in cell order; a row
    with no cell gets nan.
    """
    total = np.bincount(rows, weights=weights, minlength=size)
    moment = np.bincount(rows, weights=weights * points, minlength=size)
    values = np.full(size, np.nan)
    np.divide(moment, total, out=values, where=np.bincount(rows, minlength=size) > 0)
    return values


def bi_rows(cov: RowCoverage, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Brooks-Iyengar estimates and degenerate flags of B rows; see `fuse_bi_with_flag`."""
    n = cov.lo.shape[1]
    _check_tau(tau, n)
    counts = cov.counts
    top = counts.max(axis=1)
    qualified = counts >= n - tau
    degenerate = ~qualified.any(axis=1)
    # a degenerate row uses its maximal-coverage regions instead; a row where
    # nothing covers any open region (top 0) uses none of its gaps
    uncovered = top == 0
    qualified[degenerate] = (counts[degenerate] == top[degenerate, None]) & ~uncovered[degenerate, None]
    rows, regions = np.nonzero(qualified)
    mids = (cov.left[rows, regions] + cov.right[rows, regions]) / 2.0
    values = _row_means(rows, counts[rows, regions].astype(float), mids, counts.shape[0])
    # and falls back to the plain midpoint mean
    values[uncovered] = ((cov.lo[uncovered] + cov.hi[uncovered]) / 2.0).mean(axis=1)
    return values, degenerate


def fuse_bi_with_flag(readings: Sequence[Interval] | np.ndarray, tau: int) -> tuple[float, bool]:
    """Brooks-Iyengar estimate plus a flag marking degenerate inputs.

    Regions covered by at least n - tau intervals are averaged by their
    midpoints, weighted by coverage count.  If no region reaches the
    threshold (impossible under the in-model guarantee, possible for
    arbitrary inputs) the maximal-coverage regions are used instead and the
    flag is set.
    """
    values, degenerate = bi_rows(coverage_rows(*_as_row(readings)), tau)
    return float(values[0]), bool(degenerate[0])


def fuse_bi(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Brooks-Iyengar fused estimate (coverage-weighted mean of qualifying regions)."""
    value, _ = fuse_bi_with_flag(readings, tau)
    return value


@lru_cache(maxsize=None)
def _subset_indices(n: int, k: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


@dataclass(frozen=True)
class GbiWeights:
    """Per-subset weights and midpoints for the generalized Brooks-Iyengar fuser.

    subsets[t] lists the sensors assumed non-faulty in term t (size n - tau);
    weights[t] and midpoints[t] are that term's weight and intersection
    midpoint (midpoint 0 by convention when the weight is zero).
    """

    subsets: np.ndarray
    weights: np.ndarray
    midpoints: np.ndarray

    def items(self) -> Iterator[tuple[tuple[int, ...], float, float]]:
        for row, w, mid in zip(self.subsets, self.weights, self.midpoints):
            yield tuple(int(i) for i in row), float(w), float(mid)


def gbi_bayes_weights(readings: Sequence[Interval] | np.ndarray, tau: int) -> GbiWeights:
    """Weights that make the generalized Brooks-Iyengar average equal the
    posterior mean of the target under the uniform-cell fault model.

    For each size-(n - tau) subset of sensors the weight is the length of the
    subset's intersection times the product of the member intervals' inverse
    widths; the midpoint is the intersection midpoint.  Zero-width readings
    are rejected (their inverse width is undefined).
    """
    lo, hi = _bounds(readings)
    n = lo.size
    if not 0 <= tau < n:
        raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={tau}, n={n}")
    widths = hi - lo
    if np.any(widths <= 0):
        raise ValueError("every reading must have positive width")
    idx = _subset_indices(n, n - tau)
    max_lo = lo[idx].max(axis=1)
    min_hi = hi[idx].min(axis=1)
    overlap = np.maximum(min_hi - max_lo, 0.0)
    # an overflowing product leaves inf or nan weights, which fuse_gbi reports
    with np.errstate(over="ignore", invalid="ignore"):
        weights = overlap * (1.0 / widths)[idx].prod(axis=1)
    midpoints = np.where(weights > 0, (min_hi + max_lo) / 2.0, 0.0)
    return GbiWeights(subsets=idx, weights=weights, midpoints=midpoints)


def fuse_gbi(weights: GbiWeights) -> float:
    """Weight-normalized average of the per-subset midpoints.

    Raises ValueError when the weight total is not finite, which happens when
    the product of n - tau inverse widths overflows.
    """
    total = float(weights.weights.sum())
    if not np.isfinite(total):
        raise ValueError(f"GBI subset weights overflow (total {total}); use fuse_gbi_regions at this scale")
    if total <= 0.0:
        raise DegenerateInputError("every subset weight is zero; no subset has a nonempty intersection")
    return float(np.dot(weights.weights, weights.midpoints) / total)


def fuse_gbi_oneopt(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Generalized Brooks-Iyengar estimate with the posterior-mean weights,
    by enumeration.

    Builds all C(n, n - tau) subset weights, so time and memory grow
    combinatorially and the product of n - tau inverse widths can overflow or
    underflow; practical only for small n.  It is kept as the reference that
    `fuse_gbi_regions` is tested against.
    """
    return fuse_gbi(gbi_bayes_weights(readings, tau))


def gbi_rows(cov: RowCoverage, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-mean generalized Brooks-Iyengar estimates of B rows, by region.

    See `fuse_gbi_regions`.  Returns the estimates and a flag per row that is
    set, with the estimate nan, when no open region of the row is covered by
    n - tau readings.  Raises ValueError if any reading has zero width.
    """
    n = cov.lo.shape[1]
    _check_tau(tau, n)
    widths = cov.hi - cov.lo
    shortest = widths.min(axis=1, keepdims=True)
    if (shortest <= 0).any():
        raise ValueError("every reading must have positive width")
    k = n - tau
    keep = cov.counts >= k
    degenerate = ~keep.any(axis=1)
    # the DP runs over the kept (row, region) cells only, in row-major order
    rows, regions = np.nonzero(keep)
    # e_k(c*v) = c^k e_k(v) cancels in the ratio; scaling each row's inverse
    # widths so that the largest is 1 keeps every product in range
    factors = (cov.cover[rows, :, regions] * (shortest / widths)[rows]).T
    esym = np.zeros((k + 1, rows.size))
    esym[0] = 1.0
    upper, lower = esym[1:], esym[:-1]
    for row in factors:
        # the product is formed before the in-place add, so lower still holds
        # the previous degree's values
        upper += row * lower
    left, right = cov.left[rows, regions], cov.right[rows, regions]
    values = _row_means(rows, esym[k] * (right - left), (left + right) / 2.0, keep.shape[0])
    return values, degenerate


def fuse_gbi_regions(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Generalized Brooks-Iyengar estimate with the posterior-mean weights,
    summed over coverage regions instead of sensor subsets.

    The subset sum of `fuse_gbi_oneopt` regroups by elementary region r of
    the coverage profile: the estimate is
    sum_r e_k(v_r) * integral_r x dx / sum_r e_k(v_r) * |r|, where k = n - tau,
    v_r holds the inverse widths of the readings covering r and e_k is the
    elementary symmetric polynomial of degree k.  Each e_k comes from an
    O(n * k) recurrence, so the cost is polynomial in n.  Raises
    DegenerateInputError when no open region is covered by n - tau readings
    and ValueError on zero-width readings.
    """
    values, degenerate = gbi_rows(coverage_rows(*_as_row(readings)), tau)
    if degenerate[0]:
        raise DegenerateInputError("no open region is covered by n - tau readings")
    return float(values[0])


@dataclass(frozen=True)
class LinearCoefficients:
    """Affine fuser coefficients: sum(eps*lo) + sum(delta*hi) + gamma."""

    eps: np.ndarray
    delta: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        eps = np.asarray(self.eps, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)
        if eps.ndim != 1 or delta.shape != eps.shape:
            raise ValueError("eps and delta must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(delta)) and np.isfinite(self.gamma)):
            raise ValueError("coefficients must be finite")


def linear_rows(lo: np.ndarray, hi: np.ndarray, coeffs: LinearCoefficients) -> np.ndarray:
    """Affine estimates of B reading rows; lo and hi have shape (B, n)."""
    _check_rows(lo, hi)
    if lo.shape[1] != coeffs.eps.size:
        raise ValueError(f"coefficient length {coeffs.eps.size} does not match reading count {lo.shape[1]}")
    return lo @ coeffs.eps + hi @ coeffs.delta + coeffs.gamma


def fuse_linear(readings: Sequence[Interval] | np.ndarray, coeffs: LinearCoefficients) -> float:
    """Affine combination of the interval endpoints."""
    return float(linear_rows(*_as_row(readings), coeffs)[0])
