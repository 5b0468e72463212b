"""Monte Carlo evaluation of fusers: squared error, inter-agent gap, objective.

All algorithms in a run see bit-identical trials: trial i is always row i of
the stream `scenario.make_trials` numbers from the seed, so comparisons are
paired and the result is independent of evaluation order or any partitioning
of the trial range across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fusion
from .fusion import LinearCoefficients
# make_trial stays importable from this module: benchmarks/tracing.py wraps it here
from .scenario import _BLOCK_TRIALS, ScenarioParams, TrialBatch, make_trial, make_trials  # noqa: F401

__all__ = ["AlgorithmSpec", "MetricsReport", "evaluate", "combine_objective"]

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

    @classmethod
    def marzullo(cls) -> "AlgorithmSpec":
        return cls(kind="marzullo")

    @classmethod
    def bi(cls) -> "AlgorithmSpec":
        return cls(kind="bi")

    @classmethod
    def gbi_oneopt(cls) -> "AlgorithmSpec":
        return cls(kind="gbi_oneopt")

    @classmethod
    def linear(cls, coeffs: tuple[LinearCoefficients, ...], label: str | None = None) -> "AlgorithmSpec":
        return cls(kind="linear", coeffs=tuple(coeffs), label=label or "linear")

    @classmethod
    def constant(cls, value: float, label: str | None = None) -> "AlgorithmSpec":
        return cls(kind="constant", constant_value=float(value), label=label or "constant")


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation summary for one algorithm.

    mse[j] estimates E[(X - Xhat_j)^2] for agent j; cns[p] estimates
    E[(Xhat_j - Xhat_k)^2] for the p-th unordered agent pair in `pairs`.
    objective = lam * sum(mse) + (1-lam)/(m-1) * sum(cns) when lam is given.
    Standard errors are per-trial sample standard deviations over sqrt(trials).
    degenerate_count tallies trials where the fuser needed its fallback rule.
    Per-trial arrays (sq_err: m x trials, pair_gap_sq: pairs x trials) are
    attached for paired comparisons and for combine_objective.
    """

    algorithm: str
    tau: int
    lam: float | None
    mse: np.ndarray
    mse_stderr: np.ndarray
    cns: np.ndarray
    cns_stderr: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    objective: float | None
    objective_stderr: float | None
    trials: int
    degenerate_count: int
    sq_err: np.ndarray | None = None
    pair_gap_sq: np.ndarray | None = None


def _block_estimates(
    algos: list[AlgorithmSpec] | tuple[AlgorithmSpec, ...], batch: TrialBatch, tau: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every algorithm's estimates on a block of trials.

    Returns estimates of shape (algorithms, m, trials) and each algorithm's
    count of degenerate (trial, agent) estimates.  Each agent's readings of
    one trial are one row of the batch fusers; BI and GBI share one coverage
    profile per row, and GBI falls back to the BI estimate on its degenerate
    rows.
    """
    size, n, m = batch.lo.shape
    # row j * size + t holds agent j's readings of trial t
    lo = batch.lo.transpose(2, 0, 1).reshape(m * size, n)
    hi = batch.hi.transpose(2, 0, 1).reshape(m * size, n)
    if any(spec.kind in ("bi", "gbi_oneopt") for spec in algos):
        cov = fusion.coverage_rows(lo, hi)
        bi = fusion.bi_rows(cov, tau)
    estimates = np.empty((len(algos), m * size))
    degenerate = np.zeros(len(algos), dtype=int)
    for a, spec in enumerate(algos):
        if spec.kind == "marzullo":
            estimates[a] = fusion.marzullo_rows(lo, hi, tau)
        elif spec.kind == "bi":
            estimates[a], flags = bi
            degenerate[a] = flags.sum()
        elif spec.kind == "gbi_oneopt":
            values, flags = fusion.gbi_rows(cov, tau)
            estimates[a] = np.where(flags, bi[0], values)
            degenerate[a] = flags.sum()
        elif spec.kind == "linear":
            for j, coeffs in enumerate(spec.coeffs):
                rows = slice(j * size, (j + 1) * size)
                estimates[a, rows] = fusion.linear_rows(lo[rows], hi[rows], coeffs)
        else:
            estimates[a] = spec.constant_value
    return estimates.reshape(len(algos), m, size), degenerate


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    t = values.size
    mean = float(values.mean())
    if t < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(t))


def _objective_per_trial(sq_err: np.ndarray, gap_sq: np.ndarray, lam: float) -> np.ndarray:
    """Per-trial objective from sq_err (m x trials) and pair gaps (pairs x trials).

    lam * sum_j sq_err_j, plus (1-lam)/(m-1) * sum of pair gaps when m > 1.
    """
    m = sq_err.shape[0]
    per_trial = lam * sq_err.sum(axis=0)
    if m > 1:
        per_trial = per_trial + (1.0 - lam) / (m - 1) * gap_sq.sum(axis=0)
    return per_trial


def combine_objective(report: MetricsReport, lam: float) -> tuple[float, float]:
    """Objective mean and stderr at lam, recombined from a report's per-trial arrays."""
    if report.sq_err is None or report.pair_gap_sq is None:
        raise ValueError("report lacks the per-trial arrays sq_err and pair_gap_sq")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    return _mean_stderr(_objective_per_trial(report.sq_err, report.pair_gap_sq, lam))


def evaluate(
    algos: list[AlgorithmSpec] | tuple[AlgorithmSpec, ...],
    params: ScenarioParams,
    lam: float | None,
    trials: int,
) -> list[MetricsReport]:
    """Evaluate every algorithm on the same `trials` generated trials.

    Trials 0..trials-1 of the stream rooted at params.seed (common random
    numbers) are drawn in blocks of _BLOCK_TRIALS, and every algorithm fuses
    a whole block at once; a trial's values never depend on the block it
    falls in.  Every report carries its per-trial arrays as views.
    Pass lam=None to skip the combined objective for algorithms that do not
    carry one.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for meaningful statistics, got {trials}")
    if lam is not None and not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
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

    m = params.m
    pair_list = tuple(itertools.combinations(range(m), 2))
    n_alg = len(algos)
    sq_err = np.empty((n_alg, m, trials))
    gap_sq = np.empty((n_alg, len(pair_list), trials))
    degenerate = np.zeros(n_alg, dtype=int)

    for start in range(0, trials, _BLOCK_TRIALS):
        stop = min(start + _BLOCK_TRIALS, trials)
        batch = make_trials(params, start, stop)
        estimates, flagged = _block_estimates(algos, batch, params.tau)
        degenerate += flagged
        sq_err[:, :, start:stop] = (batch.x - estimates) ** 2
        for p, (j, k) in enumerate(pair_list):
            gap_sq[:, p, start:stop] = (estimates[:, j] - estimates[:, k]) ** 2

    reports = []
    for a, spec in enumerate(algos):
        mse = np.empty(m)
        mse_se = np.empty(m)
        for j in range(m):
            mse[j], mse_se[j] = _mean_stderr(sq_err[a, j])
        cns = np.empty(len(pair_list))
        cns_se = np.empty(len(pair_list))
        for p in range(len(pair_list)):
            cns[p], cns_se[p] = _mean_stderr(gap_sq[a, p])
        objective = objective_se = None
        if lam is not None:
            objective, objective_se = _mean_stderr(_objective_per_trial(sq_err[a], gap_sq[a], lam))
        reports.append(
            MetricsReport(
                algorithm=spec.label,
                tau=params.tau,
                lam=lam,
                mse=mse,
                mse_stderr=mse_se,
                cns=cns,
                cns_stderr=cns_se,
                pairs=pair_list,
                objective=objective,
                objective_stderr=objective_se,
                trials=trials,
                degenerate_count=int(degenerate[a]),
                sq_err=sq_err[a],
                pair_gap_sq=gap_sq[a],
            )
        )
    return reports
