"""Monte Carlo evaluation of fusers: squared error, inter-agent gap, objective.

All algorithms in a run see bit-identical trials: trial i is always generated
from the substream derived from (seed, i), so comparisons are paired and the
result is independent of evaluation order or any partitioning of the trial
range across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fusion
from .fusion import LinearCoefficients
from .scenario import ScenarioParams, TrialData, make_trial

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
    attached when evaluate(..., keep_per_trial=True) for paired comparisons.
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


def _estimate(
    spec: AlgorithmSpec,
    bounds: np.ndarray,
    profile: fusion.TransitionProfile | None,
    agent: int,
    tau: int,
) -> tuple[float, bool]:
    """One algorithm's estimate from one agent's (n, 2) reading bounds.

    profile is the coverage profile of bounds; BI and GBI read it, so it is
    built once per agent and trial instead of once per fuser.
    """
    if spec.kind == "marzullo":
        return fusion.fuse_marzullo(bounds, tau), False
    if spec.kind == "bi":
        return fusion.bi_from_profile(profile, tau)
    if spec.kind == "gbi_oneopt":
        try:
            return fusion.gbi_from_profile(profile, tau), False
        except fusion.DegenerateInputError:
            # no region reaches n - tau coverage; reuse the coverage-based fallback
            value, _ = fusion.bi_from_profile(profile, tau)
            return value, True
    if spec.kind == "linear":
        return fusion.fuse_linear(bounds, spec.coeffs[agent]), False
    return float(spec.constant_value), False


def _agent_bounds(trial: TrialData, agent: int) -> np.ndarray:
    return np.array([(iv.lo, iv.hi) for row in trial.readings for iv in (row[agent],)], dtype=float)


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
        raise ValueError("report lacks per-trial arrays; evaluate with keep_per_trial=True")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    return _mean_stderr(_objective_per_trial(report.sq_err, report.pair_gap_sq, lam))


def evaluate(
    algos: list[AlgorithmSpec] | tuple[AlgorithmSpec, ...],
    params: ScenarioParams,
    lam: float | None,
    trials: int,
    keep_per_trial: bool = False,
) -> list[MetricsReport]:
    """Evaluate every algorithm on the same `trials` generated trials.

    Trials are drawn from per-index substreams of params.seed (common random
    numbers), accumulated in trial-index order.  Pass lam=None to skip the
    combined objective for algorithms that do not carry one.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for meaningful statistics, got {trials}")
    if lam is not None and not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    labels = [spec.label for spec in algos]
    if len(set(labels)) != len(labels):
        raise ValueError(f"algorithm labels must be unique, got {labels}")
    for spec in algos:
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

    needs_profile = any(spec.kind in ("bi", "gbi_oneopt") for spec in algos)
    estimates = np.empty((n_alg, m))
    for t in range(trials):
        trial = make_trial(params, t)
        for j in range(m):
            bounds = _agent_bounds(trial, j)
            profile = fusion.transition_profile(bounds) if needs_profile else None
            for a, spec in enumerate(algos):
                value, flagged = _estimate(spec, bounds, profile, j, params.tau)
                estimates[a, j] = value
                if flagged:
                    degenerate[a] += 1
        sq_err[:, :, t] = (trial.x - estimates) ** 2
        for p, (j, k) in enumerate(pair_list):
            gap_sq[:, p, t] = (estimates[:, j] - estimates[:, k]) ** 2

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
                sq_err=sq_err[a].copy() if keep_per_trial else None,
                pair_gap_sq=gap_sq[a].copy() if keep_per_trial else None,
            )
        )
    return reports
