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
    Standard errors are per-trial sample standard deviations over sqrt(trials).
    degenerate_count tallies trials where the fuser needed its fallback rule.
    Per-trial arrays (sq_err: m x trials, pair_gap_sq: pairs x trials) are
    attached for paired comparisons and for combine_objective, which forms
    the objective lam * sum(mse) + (1-lam)/(m-1) * sum(cns) at any lam.
    """

    algorithm: str
    tau: int
    mse: np.ndarray
    mse_stderr: np.ndarray
    cns: np.ndarray
    cns_stderr: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    trials: int
    degenerate_count: int
    sq_err: np.ndarray | None = None
    pair_gap_sq: np.ndarray | None = None


def _block_estimates(
    algos: list[AlgorithmSpec] | tuple[AlgorithmSpec, ...], batch: TrialBatch, tau: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every algorithm's estimates on a block of trials.

    Returns estimates of shape (algorithms, m, trials) and each algorithm's
    count of degenerate (trial, agent) estimates.  The batch fusers read the
    block's `TrialBatch.rows`; BI and GBI share one coverage profile per row,
    and GBI falls back to the BI estimate on its degenerate rows.
    """
    size, m = batch.size, batch.lo.shape[2]
    rows = batch.rows()
    if any(spec.kind in ("bi", "gbi_oneopt") for spec in algos):
        cov = fusion.coverage_rows(rows)
        bi = fusion.bi_rows(cov, tau)
    estimates = np.empty((len(algos), m * size))
    degenerate = np.zeros(len(algos), dtype=int)
    for a, spec in enumerate(algos):
        if spec.kind == "marzullo":
            estimates[a] = fusion.marzullo_rows(rows, tau)
        elif spec.kind == "bi":
            estimates[a], flags = bi
            degenerate[a] = flags.sum()
        elif spec.kind == "gbi_oneopt":
            values, flags = fusion.gbi_rows(cov, tau)
            estimates[a] = np.where(flags, bi[0], values)
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
    """Mean and standard error over the last (trial) axis."""
    t = values.shape[-1]
    mean = values.mean(axis=-1)
    if t < 2:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=-1, ddof=1) / np.sqrt(t)


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
    if report.sq_err is None or report.pair_gap_sq is None:
        raise ValueError("report lacks the per-trial arrays sq_err and pair_gap_sq")
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
        estimates, _ = _block_estimates([AlgorithmSpec.linear(coeffs)], batch, tau=0)  # linear fusers read no tau
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
    tau bit for bit.  Every report carries its per-trial arrays as views.
    Every check runs before the first trial is drawn; a non-finite estimate
    raises ValueError naming the algorithm and tau.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for meaningful statistics, got {trials}")
    for tau, algos in specs.items():
        _check_specs(algos, replace(params, tau=tau))
    if not specs:
        return {}

    m = params.m
    pairs = np.triu_indices(m, 1)
    sq_err = {tau: np.empty((len(algos), m, trials)) for tau, algos in specs.items()}
    gap_sq = {tau: np.empty((len(algos), pairs[0].size, trials)) for tau, algos in specs.items()}
    degenerate = {tau: np.zeros(len(algos), dtype=int) for tau, algos in specs.items()}

    # two substream blocks per kernel call: fewer numpy calls per trial than one
    chunk = 2 * _BLOCK_TRIALS
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        draw = draw_trials(params, start, stop)
        for tau, algos in specs.items():
            batch = draw.at(tau)
            estimates, flagged = _block_estimates(algos, batch, tau)
            if not np.isfinite(estimates).all():
                bad = algos[int(np.argmin(np.isfinite(estimates).all(axis=(1, 2))))]
                raise ValueError(f"algorithm {bad.label!r} gave a non-finite estimate at tau={tau}")
            degenerate[tau] += flagged
            sq_err[tau][:, :, start:stop], gap_sq[tau][:, :, start:stop] = _score(batch.x, estimates, pairs)

    pair_list = tuple(zip(pairs[0].tolist(), pairs[1].tolist()))
    reports = {}
    for tau, algos in specs.items():
        mse, mse_se = _mean_stderr(sq_err[tau])
        cns, cns_se = _mean_stderr(gap_sq[tau])
        reports[tau] = [
            MetricsReport(
                algorithm=spec.label,
                tau=tau,
                mse=mse[a],
                mse_stderr=mse_se[a],
                cns=cns[a],
                cns_stderr=cns_se[a],
                pairs=pair_list,
                trials=trials,
                degenerate_count=int(degenerate[tau][a]),
                sq_err=sq_err[tau][a],
                pair_gap_sq=gap_sq[tau][a],
            )
            for a, spec in enumerate(algos)
        ]
    return reports


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
