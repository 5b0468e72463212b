"""Monte Carlo evaluation of fusers: squared error, inter-agent gap, objective.

`evaluate_taus` reports per-agent squared errors and per-pair gaps for each
tau of a sweep, and `evaluate` is its one-tau view; `combine_objective` forms
their weighted objective from a report, and `empirical_objective` forms it
for linear fusers on a batch, on the same kernel.

All algorithms in a run see bit-identical trials: trial i is always row i of
the stream `scenario.draw_trials` numbers from the seed, masked at the tau
under evaluation, so comparisons are paired and the result is independent of
evaluation order and of which other taus are evaluated in the same pass.
Neither the trials nor any fuser's estimate of a trial depends on how the
trial range is split into chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import fusion
from .fusion import LinearCoefficients
# make_trial stays importable from this module: benchmarks/tracing.py wraps it here
from .scenario import _BLOCK_TRIALS, ScenarioParams, TrialBatch, draw_trials, make_trial  # noqa: F401

__all__ = ["AlgorithmSpec", "MetricsReport", "evaluate", "evaluate_taus", "combine_objective",
           "empirical_objective"]

_KINDS = ("marzullo", "bi", "gbi_oneopt", "linear", "constant")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A fuser selected for evaluation.

    kind is one of marzullo / bi / gbi_oneopt / linear / constant.  Linear
    fusers carry one LinearCoefficients per agent; constant fusers carry the
    value they always output.
    """

    kind: str
    coeffs: tuple[LinearCoefficients, ...] | None = None
    constant_value: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "linear" and not self.coeffs:
            raise ValueError("linear algorithm requires per-agent coefficients")
        if self.kind == "constant" and self.constant_value is None:
            raise ValueError("constant algorithm requires constant_value")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation summary for one algorithm.

    mse[j] estimates E[(X - Xhat_j)^2] for agent j; cns[p] estimates
    E[(Xhat_j - Xhat_k)^2] for the p-th agent pair (j, k) of
    np.triu_indices(m, 1), the itertools.combinations order (0, 1), (0, 2),
    ..., (1, 2), ...
    Standard errors are per-trial sample standard deviations over the square
    root of the trial count.  degenerate_count tallies trials where the
    fuser needed its fallback rule.  Every report carries its per-trial
    arrays (sq_err: m x trials, pair_gap_sq: pairs x trials), for paired
    comparisons and for combine_objective, which forms the objective
    lam * sum(mse) + (1-lam)/(m-1) * sum(cns) at any lam.
    """

    algorithm: str
    tau: int
    mse: np.ndarray
    mse_stderr: np.ndarray
    cns: np.ndarray
    cns_stderr: np.ndarray
    degenerate_count: int
    sq_err: np.ndarray
    pair_gap_sq: np.ndarray


def _block_estimates(
    algos: list[AlgorithmSpec] | tuple[AlgorithmSpec, ...], batch: TrialBatch, tau: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every algorithm's estimates on a block of trials.

    Returns estimates of shape (algorithms, m, trials) and each algorithm's
    count of degenerate (trial, agent) estimates.  The batch fusers read the
    block's `TrialBatch.rows`, and BI and GBI share one coverage profile per
    row, which finds the cells n - tau readings cover once for both.
    """
    size, m = batch.size, batch.lo.shape[2]
    rows = batch.rows()
    if any(spec.kind in ("bi", "gbi_oneopt") for spec in algos):
        cov = fusion.coverage_rows(rows)
    estimates = np.empty((len(algos), m * size))
    degenerate = np.zeros(len(algos), dtype=int)
    for a, spec in enumerate(algos):
        if spec.kind == "marzullo":
            estimates[a] = fusion.marzullo_rows(rows, tau)
        elif spec.kind in ("bi", "gbi_oneopt"):
            kernel = fusion.bi_rows if spec.kind == "bi" else fusion.gbi_rows
            estimates[a], flags = kernel(cov, tau)
            degenerate[a] = flags.sum()
        elif spec.kind == "linear":
            for j, coeffs in enumerate(spec.coeffs):
                agent = slice(j * size, (j + 1) * size)
                estimates[a, agent] = fusion.linear_rows(rows[agent], coeffs)
        else:
            estimates[a] = spec.constant_value
    return estimates.reshape(len(algos), m, size), degenerate


def _score(
    x: np.ndarray, estimates: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial squared errors (..., m, trials) and pair gaps (..., pairs, trials).

    estimates has shape (..., m, trials) and x holds the trials' targets.
    pairs is np.triu_indices(m, 1), the agent pairs in itertools.combinations
    order; callers build it once, not once per block.
    """
    first, second = pairs
    return (x - estimates) ** 2, (estimates[..., first, :] - estimates[..., second, :]) ** 2


def _mean_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the last (trial) axis.

    numpy's own mean and std(ddof=1) steps, in their order, with the sum
    that both open with taken once; so the results are those of
    values.mean(-1) and values.std(-1, ddof=1) / sqrt(t) bit for bit.
    """
    t = values.shape[-1]
    total = values.sum(axis=-1, keepdims=True)
    total /= t
    mean = total[..., 0]
    if t < 2:
        return mean, np.zeros_like(mean)
    deviation = values - total
    deviation *= deviation
    variance = deviation.sum(axis=-1)
    variance /= t - 1
    return mean, np.sqrt(variance) / np.sqrt(t)


def _objective_per_trial(sq_err: np.ndarray, gap_sq: np.ndarray, lam: float) -> np.ndarray:
    """Per-trial objective from sq_err (m x trials) and pair gaps (pairs x trials).

    lam * sum_j sq_err_j, plus (1-lam)/(m-1) * sum of pair gaps when m > 1.
    """
    m = sq_err.shape[0]
    per_trial = lam * sq_err.sum(axis=0)
    if m > 1:
        per_trial = per_trial + (1.0 - lam) / (m - 1) * gap_sq.sum(axis=0)
    return per_trial


def _check_lam(lam: float) -> None:
    """The objective weight rule of every scorer and fit: lam in [0, 1], so nan is refused."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")


def combine_objective(report: MetricsReport, lam: float) -> tuple[float, float]:
    """Objective mean and stderr at lam, recombined from a report's per-trial arrays."""
    _check_lam(lam)
    mean, stderr = _mean_stderr(_objective_per_trial(report.sq_err, report.pair_gap_sq, lam))
    return float(mean), float(stderr)


def empirical_objective(
    batch: TrialBatch,
    coeffs: tuple[LinearCoefficients, ...],
    lam: float,
) -> float:
    """Empirical accuracy/consensus objective of per-agent linear fusers on a batch.

    Scored as in `evaluate`, but a non-finite estimate scores inf or nan instead of raising.
    """
    _check_lam(lam)
    m = batch.lo.shape[2]
    # _block_estimates would leave the rows of agents without coefficients unset
    if len(coeffs) != m:
        raise ValueError(f"need one coefficient set per agent ({m}), got {len(coeffs)}")
    with np.errstate(over="ignore", invalid="ignore"):
        # linear fusers read no tau
        estimates, _ = _block_estimates([AlgorithmSpec(kind="linear", coeffs=coeffs)], batch, tau=0)
        sq_err, gap_sq = _score(batch.x, estimates[0], np.triu_indices(m, 1))
        return float(_objective_per_trial(sq_err, gap_sq, lam).mean())


def _check_specs(algos: Sequence[AlgorithmSpec], params: ScenarioParams) -> None:
    labels = [spec.label for spec in algos]
    if len(set(labels)) != len(labels):
        raise ValueError(f"algorithm labels must be unique, got {labels}")
    for spec in algos:
        if spec.kind == "marzullo" and params.tau > params.n - 2:
            raise ValueError(
                f"marzullo algorithm {spec.label!r} needs tau <= n - 2, got tau={params.tau}, n={params.n}"
            )
        if spec.kind == "linear" and len(spec.coeffs) != params.m:
            raise ValueError(
                f"linear algorithm {spec.label!r} carries {len(spec.coeffs)} coefficient sets "
                f"for {params.m} agents"
            )
        if spec.kind == "linear" and any(c.eps.size != params.n for c in spec.coeffs):
            raise ValueError(f"linear algorithm {spec.label!r} carries coefficient sets of lengths "
                             f"{[c.eps.size for c in spec.coeffs]} for n={params.n} sensors")


def evaluate_taus(
    specs: Mapping[int, Sequence[AlgorithmSpec]],
    params: ScenarioParams,
    trials: int,
) -> dict[int, list[MetricsReport]]:
    """Evaluate each tau's algorithms on the same `trials` generated trials.

    specs maps each tau to its algorithms; params gives every other field of
    the scenario, and its own tau is not read.  Trials 0..trials-1 of the
    stream rooted at params.seed (common random numbers) are drawn once, in
    chunks of two substream blocks; each chunk is masked at every tau in
    turn, and every algorithm of that tau fuses the whole chunk at once.  A
    trial's values never depend on the chunk it falls in, and the chunks do
    not depend on the taus, so each tau's reports equal `evaluate`'s at that
    tau bit for bit.  Every tau's per-trial squared errors and gaps fill one
    array per score, a slice of its algorithm axis per tau, so the means and
    standard errors run once per call, not once per tau; every report
    carries its per-trial arrays as views of those arrays.
    Every check runs before the first trial is drawn; a non-finite estimate
    or squared error raises ValueError naming the algorithm and tau.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for meaningful statistics, got {trials}")
    for tau, algos in specs.items():
        _check_specs(algos, replace(params, tau=tau))
    if not specs:
        return {}

    m = params.m
    pairs = np.triu_indices(m, 1)
    # every tau's algorithms side by side on one algorithm axis; tau's own
    # are the slice spans[tau] of it
    spans, first = {}, 0
    for tau, algos in specs.items():
        spans[tau] = slice(first, first + len(algos))
        first += len(algos)
    sq_err = np.empty((first, m, trials))
    gap_sq = np.empty((first, pairs[0].size, trials))
    degenerate = np.zeros(first, dtype=int)

    # two substream blocks per kernel call: fewer numpy calls per trial than one
    chunk = 2 * _BLOCK_TRIALS
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        draw = draw_trials(params, start, stop)
        for tau, algos in specs.items():
            batch = draw.at(tau)
            estimates, flagged = _block_estimates(algos, batch, tau)
            # a non-finite estimate makes its squared error non-finite too, so
            # one check on the scores covers both
            with np.errstate(over="ignore", invalid="ignore"):
                err, gap = _score(batch.x, estimates, pairs)
            finite = np.isfinite(err).all(axis=(1, 2)) & np.isfinite(gap).all(axis=(1, 2))
            if not finite.all():
                raise ValueError(f"algorithm {algos[int(np.argmin(finite))].label!r} gave a non-finite "
                                 f"estimate or squared error at tau={tau}")
            span = spans[tau]
            degenerate[span] += flagged
            sq_err[span, :, start:stop], gap_sq[span, :, start:stop] = err, gap

    # each statistic runs once over every tau's rows; a row's mean and
    # stderr do not depend on the rows beside it
    mse, mse_se = _mean_stderr(sq_err)
    cns, cns_se = _mean_stderr(gap_sq)
    return {
        tau: [
            MetricsReport(
                algorithm=spec.label,
                tau=tau,
                mse=mse[a],
                mse_stderr=mse_se[a],
                cns=cns[a],
                cns_stderr=cns_se[a],
                degenerate_count=int(degenerate[a]),
                sq_err=sq_err[a],
                pair_gap_sq=gap_sq[a],
            )
            for a, spec in enumerate(algos, start=spans[tau].start)
        ]
        for tau, algos in specs.items()
    }


def evaluate(
    algos: list[AlgorithmSpec] | tuple[AlgorithmSpec, ...],
    params: ScenarioParams,
    trials: int,
) -> list[MetricsReport]:
    """Evaluate every algorithm on the same `trials` generated trials at params.tau.

    The one-tau view of `evaluate_taus`: trials 0..trials-1 of the stream
    rooted at params.seed (common random numbers), with the same checks and
    errors.
    """
    return evaluate_taus({params.tau: algos}, params, trials)[params.tau]
