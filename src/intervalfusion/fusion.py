"""Interval fusers: Marzullo, Brooks-Iyengar, generalized Brooks-Iyengar, linear.

Every fuser maps the n intervals one agent received to a point estimate of
the target.  All of them tolerate up to tau faulty inputs in the sense of the
fault model in `scenario`.

The fusers are computed by batch kernels (`marzullo_rows`, `coverage_rows`,
`bi_rows`, `gbi_rows`, `linear_rows`) over `scenario.ReadingRows`, one row
per agent's readings; the scalar fusers are one-row calls of the same kernels.
`coverage_rows` builds a `TransitionProfile` for B rows; `transition_profile`
is its one-row view.
The subset-enumerative reference (`gbi_bayes_weights`, `fuse_gbi`,
`fuse_gbi_oneopt`) takes one agent's readings or a (B, n, 2) stack of them,
and its one-row call is a view of the stacked computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .scenario import Interval, ReadingRows, _check_tau

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
    "coverage_rows",
    "marzullo_rows",
    "bi_rows",
    "gbi_rows",
    "linear_rows",
]


class DegenerateInputError(ValueError):
    """Raised when a fuser's weighting collapses (e.g. every GBI weight is zero)."""


def marzullo_rows(rows: ReadingRows, tau: int) -> np.ndarray:
    """Marzullo estimates of B reading rows."""
    n = rows.lo.shape[1]
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if n < tau + 2:
        raise ValueError(f"need n >= tau + 2 for order statistics, got n={n}, tau={tau}")
    return (np.sort(rows.lo, axis=1)[:, tau] + np.sort(rows.hi, axis=1)[:, n - tau - 2]) / 2.0


def fuse_marzullo(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Midpoint of the (tau+1)-th smallest lower endpoint and the
    (n-tau-1)-th smallest upper endpoint.

    Requires n >= tau + 2 so both order statistics exist.
    """
    return marzullo_rows(ReadingRows.of(readings), tau).item()


@dataclass(frozen=True)
class TransitionProfile:
    """Coverage structure of an interval family, or of B families stacked.

    points holds the sorted endpoints, gap k runs from left[..., k] to
    right[..., k], and counts[..., k] is the number of readings that cover
    the whole open gap, zero where the gap has zero width, so a zero-width
    interval, two intervals touching at a point or a repeated endpoint never
    contribute a count.  lo and hi are the readings' endpoints in their
    original order.  A stack keeps all 2n endpoints of each row; one family
    keeps its distinct endpoints.

    A profile is read, never changed, once built: `bi_rows` and `gbi_rows`
    share the cells that n - tau readings cover, which the first of them to
    run at a tau finds and the profile then keeps, read-only, for the other.
    """

    points: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    _memo: dict[int, tuple[np.ndarray, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def left(self) -> np.ndarray:
        return self.points[..., :-1]

    @property
    def right(self) -> np.ndarray:
        return self.points[..., 1:]

    def _kept(self, tau: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells n - tau readings cover, in row-major order, as each cell's
        row and the flat index of its left bound in points.ravel(), whose next
        entry is its right bound, and a flag per row that holds none: found on
        the first call at tau, then shared.  The arrays are read-only, since
        each kernel gets the same.
        """
        if tau not in self._memo:
            keep = self.counts >= self.lo.shape[1] - tau
            at = np.flatnonzero(keep)
            rows = at // keep.shape[1]
            # cell (r, k) is flat entry r * (2n - 1) + k of counts and its left
            # bound flat entry r * 2n + k of points, r entries further on
            at += rows
            # a row holds no cell unless one of the cells names it: a scatter,
            # which costs less than an any() over each row's 2n - 1 regions
            empty = np.ones(keep.shape[0], dtype=bool)
            empty[rows] = False
            cells = (rows, at, empty)
            for array in cells:
                array.setflags(write=False)
            self._memo[tau] = cells
        return self._memo[tau]


def coverage_rows(rows: ReadingRows) -> TransitionProfile:
    """Coverage profiles of B reading rows."""
    lo, hi = rows.lo, rows.hi
    n = lo.shape[1]
    # the concatenation is a fresh array, so it is argsorted and then sorted in place
    points = np.concatenate([lo, hi], axis=1)
    lower = np.argsort(points, axis=1) < n
    points.sort(axis=1)
    # +1 at each lower endpoint and -1 at each upper one, summed in sorted order: after j + 1
    # endpoints that is 2 * lowers - (j + 1).  No endpoint lies strictly inside a positive-width
    # gap, so the order among tied endpoints cannot change its count
    counts = np.cumsum(lower[:, :-1], axis=1)
    counts *= 2
    counts -= np.arange(1, 2 * n)
    counts *= points[:, 1:] > points[:, :-1]
    return TransitionProfile(points=points, counts=counts, lo=lo, hi=hi)


def transition_profile(readings: Sequence[Interval] | np.ndarray) -> TransitionProfile:
    """Distinct endpoints and the coverage count of each region between them.

    The one-row view of `coverage_rows` with its zero-width gaps dropped.
    """
    cov = coverage_rows(ReadingRows.of(readings))
    points, = cov.points
    gaps = points[1:] > points[:-1]
    return TransitionProfile(points=points[np.r_[True, gaps]], counts=cov.counts[0][gaps], lo=cov.lo[0], hi=cov.hi[0])


def _row_means(rows: np.ndarray, weights: np.ndarray, points: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """Weighted mean of points per row, over cells listed in row-major order.

    rows[c] is the row of cell c, and filled marks the rows that hold a cell.
    Each row's sums run in cell order; a row with no cell gets nan.
    """
    size = filled.size
    total = np.bincount(rows, weights=weights, minlength=size)
    moment = np.bincount(rows, weights=weights * points, minlength=size)
    values = np.full(size, np.nan)
    np.divide(moment, total, out=values, where=filled)
    return values


def bi_rows(cov: TransitionProfile, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Brooks-Iyengar estimates and degenerate flags of B rows; see `fuse_bi_with_flag`."""
    _check_tau(tau, cov.lo.shape[1])
    rows, at, degenerate = cov._kept(tau)
    points = cov.points.ravel()
    mids = (points[at] + points[1:][at]) / 2.0
    values = _row_means(rows, cov.counts.ravel()[at - rows].astype(float), mids, ~degenerate)
    if degenerate.any():
        # a degenerate row uses its maximal-coverage regions instead; a row where
        # nothing covers any open region (top 0) uses none of its gaps
        flagged = np.flatnonzero(degenerate)
        part = cov.counts[flagged]
        top = part.max(axis=1)
        rows, regions = np.nonzero((part >= top[:, None]) & (part > 0))
        mids = (cov.left[flagged[rows], regions] + cov.right[flagged[rows], regions]) / 2.0
        values[flagged] = _row_means(rows, part[rows, regions].astype(float), mids, top > 0)
        # and falls back to the plain midpoint mean
        uncovered = flagged[top == 0]
        values[uncovered] = ((cov.lo[uncovered] + cov.hi[uncovered]) / 2.0).mean(axis=1)
    return values, degenerate.copy()


def fuse_bi_with_flag(readings: Sequence[Interval] | np.ndarray, tau: int) -> tuple[float, bool]:
    """Brooks-Iyengar estimate plus a flag marking degenerate inputs.

    Regions covered by at least n - tau intervals are averaged by their
    midpoints, weighted by coverage count.  If no region reaches the
    threshold (impossible under the in-model guarantee, possible for
    arbitrary inputs) the maximal-coverage regions are used instead and the
    flag is set.
    """
    values, degenerate = bi_rows(coverage_rows(ReadingRows.of(readings)), tau)
    return values.item(), degenerate.item()


def fuse_bi(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Brooks-Iyengar fused estimate (coverage-weighted mean of qualifying regions)."""
    value, _ = fuse_bi_with_flag(readings, tau)
    return value


@lru_cache(maxsize=None)
def _subset_indices(n: int, k: int) -> np.ndarray:
    # shared by every GbiWeights at this (n, k), so callers get it read-only
    idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    idx.setflags(write=False)
    return idx


def _first_row(bad: np.ndarray, stacked: bool) -> str:
    """Names the first flagged row of a stack; a one-row call names none."""
    return f" (row {int(np.argmax(bad))})" if stacked else ""


@dataclass(frozen=True)
class GbiWeights:
    """Per-subset weights and midpoints for the generalized Brooks-Iyengar fuser.

    subsets[t] lists the sensors assumed non-faulty in term t (size n - tau);
    the (S, n - tau) table is shared and read-only.  A one-row table holds
    (S,) weights and midpoints: weights[t] and midpoints[t] are term t's
    weight and intersection midpoint (midpoint 0 by convention when the
    weight is zero).  A stacked table holds (B, S) weights and midpoints,
    row b for the b-th agent's readings of the stack.
    """

    subsets: np.ndarray
    weights: np.ndarray
    midpoints: np.ndarray

    def items(self) -> Iterator[tuple[tuple[int, ...], float, float]]:
        """(subset, weight, midpoint) per term of a one-row table."""
        if self.weights.ndim != 1:
            raise ValueError(f"items() needs a one-row table, got weights of shape {self.weights.shape}")
        return ((tuple(int(i) for i in row), float(w), float(mid))
                for row, w, mid in zip(self.subsets, self.weights, self.midpoints))


def gbi_bayes_weights(readings: Sequence[Interval] | np.ndarray, tau: int) -> GbiWeights:
    """Weights that make the generalized Brooks-Iyengar average equal the
    posterior mean of the target under the uniform-cell fault model.

    For each size-(n - tau) subset of sensors the weight is the length of the
    subset's intersection times the product of the member intervals' inverse
    widths; the midpoint is the intersection midpoint.  readings is one
    agent's readings (Intervals or an (n, 2) array), giving a one-row table,
    or a (B, n, 2) stack, giving a stacked table whose row b is bit-identical
    to the one-row call on readings[b].  Zero-width readings are rejected
    (their inverse width is undefined); for a stack the message names the
    first row holding one.

    The subsets' members are folded in one column at a time, over (S, B)
    tables gathered from sensor-major (n, B) copies of the endpoints and
    inverse widths, in place; the stacked table's weights and midpoints are
    (B, S) transposed views of them, so each row is a strided view, and
    `fuse_gbi` reduces a contiguous copy.
    """
    stacked = isinstance(readings, np.ndarray) and readings.ndim == 3
    rows = ReadingRows.of_stack(readings) if stacked else ReadingRows.of(readings)
    lo, hi = rows.lo, rows.hi
    n = lo.shape[1]
    _check_tau(tau, n)
    widths = hi - lo
    flat = (widths <= 0).any(axis=1)
    if flat.any():
        raise ValueError("every reading must have positive width" + _first_row(flat, stacked))
    idx = _subset_indices(n, n - tau)
    # members are folded in one column at a time, in the left-to-right order of
    # a product along each subset's row
    lo_t, hi_t, inv_t = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T), np.ascontiguousarray((1.0 / widths).T)
    cols = idx.T
    max_lo, min_hi, scale = lo_t[cols[0]], hi_t[cols[0]], inv_t[cols[0]]
    # an overflowing product leaves inf or nan weights, which fuse_gbi reports
    with np.errstate(over="ignore", invalid="ignore"):
        for col in cols[1:]:
            np.maximum(max_lo, lo_t[col], out=max_lo)
            np.minimum(min_hi, hi_t[col], out=min_hi)
            scale *= inv_t[col]
        weights = min_hi - max_lo
        np.maximum(weights, 0.0, out=weights)
        weights *= scale
    # min_hi's buffer becomes the midpoints
    midpoints = min_hi
    midpoints += max_lo
    midpoints /= 2.0
    np.copyto(midpoints, 0.0, where=~(weights > 0))
    weights, midpoints = weights.T, midpoints.T
    if not stacked:
        weights, midpoints = weights[0], midpoints[0]
    return GbiWeights(subsets=idx, weights=weights, midpoints=midpoints)


def fuse_gbi(weights: GbiWeights) -> float | np.ndarray:
    """Weight-normalized average of the per-subset midpoints.

    A one-row table gives a float, a stacked table a (B,) array.  Raises
    ValueError when a weight total is not finite, which happens when the
    product of n - tau inverse widths overflows, and DegenerateInputError
    when every weight of a row is zero; for a stack the message names the
    first such row.
    """
    if weights.weights.ndim not in (1, 2):
        raise ValueError(f"expected (S,) or (B, S) weights, got shape {weights.weights.shape}")
    stacked = weights.weights.ndim == 2
    # one-row tables are reduced as (1, S) stacks; a C-contiguous layout keeps
    # each row's pairwise sum in the one-row order
    w = np.ascontiguousarray(weights.weights.reshape(-1, weights.weights.shape[-1]))
    mids = np.ascontiguousarray(weights.midpoints.reshape(w.shape))
    total = w.sum(axis=1)
    bad = ~np.isfinite(total) | (total <= 0.0)
    if bad.any():
        where = _first_row(bad, stacked)
        row_total = float(total[np.argmax(bad)])
        if not np.isfinite(row_total):
            raise ValueError(f"GBI subset weights overflow{where} (total {row_total}); "
                             "use fuse_gbi_regions at this scale")
        raise DegenerateInputError(f"every subset weight is zero{where}; "
                                   "no subset has a nonempty intersection")
    # a (1, S) @ (S, 1) product per row runs the dot kernel of the one-row np.dot
    values = (w[:, None, :] @ mids[:, :, None])[:, 0, 0] / total
    return values if stacked else float(values[0])


def fuse_gbi_oneopt(readings: Sequence[Interval] | np.ndarray, tau: int) -> float | np.ndarray:
    """Generalized Brooks-Iyengar estimate with the posterior-mean weights,
    by enumeration.

    Builds all C(n, n - tau) subset weights, so time and memory grow
    combinatorially and the product of n - tau inverse widths can overflow or
    underflow; practical only for small n.  One agent's readings give a
    float; a (B, n, 2) stack gives a (B,) array, row by row bit-identical to
    the one-row calls.  It is kept as the reference that `fuse_gbi_regions`
    and `oracle-check` test the region kernel against.
    """
    return fuse_gbi(gbi_bayes_weights(readings, tau))


def gbi_rows(cov: TransitionProfile, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-mean generalized Brooks-Iyengar estimates of B rows, by region.

    See `fuse_gbi_regions`.  Returns the estimates and a flag per row, as
    `bi_rows` does: the flag is set when no open region of the row is covered
    by n - tau readings, and such a row takes its `bi_rows` estimate, so BI
    runs only when some row is flagged.  Raises ValueError if any reading has
    zero width.

    The recurrence runs over the kept (row, region) cells, forming one
    sensor's factors over them at a time, so its memory is O((k + 1) * cells)
    for k = n - tau, with no (cells, n) table of all sensors' factors.  Each
    cell's bounds are read from the flattened endpoints by one flat index
    (see `TransitionProfile._kept`), and each row's shortest width comes
    from one reduction across the rows.
    """
    n = cov.lo.shape[1]
    _check_tau(tau, n)
    # the widths sensor-major, (n, B): each row's shortest width is then one
    # reduction across n contiguous (B,) rows, not B reductions of n values,
    # and each sensor's scaled inverse widths are one contiguous row.  A
    # minimum is exact, so the order of the reduction cannot matter
    widths = np.ascontiguousarray((cov.hi - cov.lo).T)
    shortest = widths.min(axis=0)
    if (shortest <= 0).any():
        raise ValueError("every reading must have positive width")
    k = n - tau
    # the DP runs over the kept cells only, in row-major order
    rows, at, degenerate = cov._kept(tau)
    points = cov.points.ravel()
    # each cell's bounds: its left one at its flat index and the next
    # endpoint, read through the view one entry further on
    left, right = points[at], points[1:][at]
    # e_k(c*v) = c^k e_k(v) cancels in the ratio; scaling each row's inverse
    # widths so that the largest is 1 keeps every product in range
    scaled = shortest / widths
    esym = np.zeros((k + 1, rows.size))
    esym[0] = 1.0
    for i, (factor, lo, hi) in enumerate(zip(scaled, cov.lo.T, cov.hi.T)):
        # sensor i's factor at each kept cell: its scaled inverse width where it
        # covers the cell, else +0.0
        row = factor[rows] * ((lo[rows] <= left) & (hi[rows] >= right))
        # after sensor i a degree above i + 1 would only add row * 0.0 = +0.0, and
        # one below k - (n - 1 - i) can no longer reach degree k; the product is
        # formed before the in-place add, so it reads the previous degree's values
        first, last = max(1, k - (n - 1 - i)), min(i + 1, k)
        esym[first:last + 1] += row * esym[first - 1:last]
    values = _row_means(rows, esym[k] * (right - left), (left + right) / 2.0, ~degenerate)
    if degenerate.any():
        values[degenerate] = bi_rows(cov, tau)[0][degenerate]
    return values, degenerate.copy()


def fuse_gbi_regions(readings: Sequence[Interval] | np.ndarray, tau: int) -> float:
    """Generalized Brooks-Iyengar estimate with the posterior-mean weights,
    summed over coverage regions instead of sensor subsets.

    The subset sum of `fuse_gbi_oneopt` regroups by elementary region r of
    the coverage profile: the estimate is
    sum_r e_k(v_r) * integral_r x dx / sum_r e_k(v_r) * |r|, where k = n - tau,
    v_r holds the inverse widths of the readings covering r and e_k is the
    elementary symmetric polynomial of degree k.  Each e_k comes from a
    recurrence over the readings that updates only the degrees that can still
    reach k, k * (n - k + 1) steps, so the cost is polynomial in n, and
    holds k + 1 values per region covered by n - tau readings, with no
    per-sensor table.  Raises DegenerateInputError when no open region is
    covered by n - tau readings and ValueError on zero-width readings.
    """
    values, degenerate = gbi_rows(coverage_rows(ReadingRows.of(readings)), tau)
    if degenerate.item():
        raise DegenerateInputError("no open region is covered by n - tau readings")
    return values.item()


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


def linear_rows(rows: ReadingRows, coeffs: LinearCoefficients) -> np.ndarray:
    """Affine estimates of B reading rows: gamma + sum_i (lo_i*eps_i + hi_i*delta_i).

    The sum runs sensor by sensor in index order, so a row's estimate does
    not depend on how many rows share the call (a matmul's would: numpy
    sends a one-row product to BLAS dot rather than gemv).
    """
    if rows.lo.shape[1] != coeffs.eps.size:
        raise ValueError(f"coefficient length {coeffs.eps.size} does not match reading count {rows.lo.shape[1]}")
    total = np.full(rows.lo.shape[0], coeffs.gamma, dtype=float)
    for lo, hi, eps, delta in zip(rows.lo.T, rows.hi.T, coeffs.eps, coeffs.delta):
        total += lo * eps + hi * delta
    return total


def fuse_linear(readings: Sequence[Interval] | np.ndarray, coeffs: LinearCoefficients) -> float:
    """Affine combination of the interval endpoints."""
    return linear_rows(ReadingRows.of(readings), coeffs).item()
