"""Interval fusers: Marzullo, Brooks-Iyengar, generalized Brooks-Iyengar, linear.

Every fuser maps the n intervals one agent received to a point estimate of
the target.  All of them tolerate up to tau faulty inputs in the sense of the
fault model in `scenario`.
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
    "bi_from_profile",
    "gbi_from_profile",
    "fuse_gbi_regions",
    "fuse_linear",
]


class DegenerateInputError(ValueError):
    """Raised when a fuser's weighting collapses (e.g. every GBI weight is zero)."""


def _bounds(readings: Sequence[Interval] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize readings to (lo, hi) float arrays. Accepts Intervals or an (n, 2) array."""
    if isinstance(readings, np.ndarray):
        arr = np.asarray(readings, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected readings of shape (n, 2), got {arr.shape}")
        lo, hi = arr[:, 0], arr[:, 1]
    else:
        lo = np.array([iv.lo for iv in readings], dtype=float)
        hi = np.array([iv.hi for iv in readings], dtype=float)
    if lo.size == 0:
        raise ValueError("need at least one reading")
    if np.any(lo > hi):
        raise ValueError("interval with lower endpoint above upper endpoint")
    return lo, hi


def fuse_marzullo(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Midpoint of the (tau+1)-th smallest lower endpoint and the
    (n-tau-1)-th smallest upper endpoint.

    Requires n >= tau + 2 so both order statistics exist.
    """
    lo, hi = _bounds(readings)
    n = lo.size
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if n < tau + 2:
        raise ValueError(f"need n >= tau + 2 for order statistics, got n={n}, tau={tau}")
    lo_sorted = np.sort(lo)
    hi_sorted = np.sort(hi)
    return float((lo_sorted[tau] + hi_sorted[n - tau - 2]) / 2.0)


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
    """Distinct endpoints, per-reading region membership and coverage counts."""
    lo, hi = _bounds(readings)
    points = np.unique(np.concatenate([lo, hi]))
    cover = (lo[:, None] <= points[:-1]) & (hi[:, None] >= points[1:])
    return TransitionProfile(points=points, counts=cover.sum(axis=0), cover=cover, lo=lo, hi=hi)


def _check_tau(tau: int, n: int) -> None:
    if not 0 <= tau < n:
        raise ValueError(f"tau must satisfy 0 <= tau < n, got tau={tau}, n={n}")


def bi_from_profile(profile: TransitionProfile, tau: int) -> tuple[float, bool]:
    """Brooks-Iyengar estimate and degenerate flag from a coverage profile.

    See `fuse_bi_with_flag`; callers that fuse the same readings several
    ways build the profile once and pass it here.
    """
    lo, hi = profile.lo, profile.hi
    n = lo.size
    _check_tau(tau, n)
    counts = profile.counts
    if counts.size == 0 or counts.max() == 0:
        # nothing covers any open region; fall back to the plain midpoint mean
        return float(np.mean((lo + hi) / 2.0)), True
    mids = profile.region_midpoints
    qualified = counts >= n - tau
    degenerate = not bool(qualified.any())
    if degenerate:
        qualified = counts == counts.max()
    w = counts[qualified].astype(float)
    return float(np.dot(w, mids[qualified]) / w.sum()), degenerate


def fuse_bi_with_flag(readings: Sequence[Interval] | np.ndarray, tau: int) -> tuple[float, bool]:
    """Brooks-Iyengar estimate plus a flag marking degenerate inputs.

    Regions covered by at least n - tau intervals are averaged by their
    midpoints, weighted by coverage count.  If no region reaches the
    threshold (impossible under the in-model guarantee, possible for
    arbitrary inputs) the maximal-coverage regions are used instead and the
    flag is set.
    """
    return bi_from_profile(transition_profile(readings), tau)


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
    weights = overlap * (1.0 / widths)[idx].prod(axis=1)
    midpoints = np.where(weights > 0, (min_hi + max_lo) / 2.0, 0.0)
    return GbiWeights(subsets=idx, weights=weights, midpoints=midpoints)


def fuse_gbi(weights: GbiWeights) -> float:
    """Weight-normalized average of the per-subset midpoints."""
    total = float(weights.weights.sum())
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


def gbi_from_profile(profile: TransitionProfile, tau: int) -> float:
    """Posterior-mean generalized Brooks-Iyengar estimate from a coverage profile.

    See `fuse_gbi_regions`; callers that fuse the same readings several
    ways build the profile once and pass it here.
    """
    lo, hi = profile.lo, profile.hi
    n = lo.size
    _check_tau(tau, n)
    widths = hi - lo
    shortest = widths.min()
    if shortest <= 0:
        raise ValueError("every reading must have positive width")
    k = n - tau
    keep = profile.counts >= k
    if not keep.any():
        raise DegenerateInputError("no open region is covered by n - tau readings")
    # e_k(c*v) = c^k e_k(v) cancels in the ratio; scaling the inverse widths
    # so that the largest is 1 keeps every product in range
    scaled = profile.cover.compress(keep, axis=1) * (shortest / widths)[:, None]
    esym = np.zeros((k + 1, scaled.shape[1]))
    esym[0] = 1.0
    upper, lower = esym[1:], esym[:-1]
    for row in scaled:
        # the product is formed before the in-place add, so lower still holds
        # the previous degree's values
        upper += row * lower
    left = profile.points[:-1][keep]
    right = profile.points[1:][keep]
    weights = esym[k] * (right - left)
    return float(np.dot(weights, (left + right) / 2.0) / weights.sum())


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
    return gbi_from_profile(transition_profile(readings), tau)


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


def fuse_linear(readings: Sequence[Interval] | np.ndarray, coeffs: LinearCoefficients) -> float:
    """Affine combination of the interval endpoints."""
    lo, hi = _bounds(readings)
    if lo.size != coeffs.eps.size:
        raise ValueError(f"coefficient length {coeffs.eps.size} does not match reading count {lo.size}")
    return float(np.dot(coeffs.eps, lo) + np.dot(coeffs.delta, hi) + coeffs.gamma)
