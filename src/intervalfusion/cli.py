"""Command line front end: experiment sweeps, oracle checks, coefficient fits.

Configuration is a flat JSON object.  Keys:

    n               sensors per trial (int)
    m               agents (int; linear fusers and fit-linear need m >= 2)
    x_max           half-width of the target range (positive int)
    seed            root seed for every derived stream (int)
    taus            fault counts to sweep (list of distinct ints, each 0..n-1;
                    sweep refuses taus above n-2 when "marzullo" is among the
                    algorithms)
    lambdas         objective weights for linear fusers (list of floats in [0, 1])
    algorithms      fusers to run: "marzullo", "bi", "gbi_oneopt",
                    "linear" (one instance per entry of lambdas),
                    "linear@<v>", "constant@<v>"; a linear instance is
                    labelled linear@<lambda> with six significant digits,
                    and distinct lambdas that share a label are refused
    trials          Monte Carlo trials per (algorithm, tau) cell (int >= 100)
    output_path     where sweep results go
    format          "csv" (default) or "json"

A "moment_samples" key is accepted with any value and ignored: no command
draws fitting samples, since sweep and fit-linear fit on the exact law.

The environment variables INTERVALFUSION_SEED and INTERVALFUSION_TRIALS
override the config file; the --seed/--trials/--out flags override both
(fit-linear has no --seed or --trials, since its fit on the exact law reads
neither, and its --out names its coefficient file and leaves output_path
alone).
Identical effective configuration produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fusion import GbiWeights, coverage_rows, fuse_gbi, gbi_bayes_weights, gbi_rows
# evaluate stays importable from this module: benchmarks/tracing.py wraps it here
from .metrics import AlgorithmSpec, combine_objective, evaluate, evaluate_taus  # noqa: F401
# select_linear_coefficients stays importable from this module: benchmarks/tracing.py wraps it here
from .optimal import fit_linear_exact, select_linear_coefficients, select_linear_exact  # noqa: F401
# posterior_mean_exact stays importable from this module: benchmarks/tracing.py wraps it here
from .oracle import posterior_mean_exact, posterior_rows  # noqa: F401
# make_trial stays importable from this module: benchmarks/tracing.py wraps it here
from .scenario import _BLOCK_TRIALS, ScenarioParams, draw_trials, make_trial  # noqa: F401

__all__ = ["ConfigError", "RunConfig", "load_config", "run_sweep", "run_oracle_check", "run_fit_linear", "main"]

ENV_SEED = "INTERVALFUSION_SEED"
ENV_TRIALS = "INTERVALFUSION_TRIALS"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    n: int
    m: int
    x_max: int
    seed: int
    taus: tuple[int, ...]
    lambdas: tuple[float, ...]
    algorithms: tuple[str, ...]
    trials: int
    output_path: str
    format: str

    def scenario(self, tau: int) -> ScenarioParams:
        return ScenarioParams(n=self.n, m=self.m, tau=tau, x_max=self.x_max, seed=self.seed)


_REQUIRED = ("n", "m", "x_max", "seed", "taus", "algorithms", "trials", "output_path")
_DEFAULTS = {"lambdas": (), "format": "csv"}
# moment_samples is accepted and ignored: older configs set it, and no command reads it
_ALL_KEYS = set(_REQUIRED) | set(_DEFAULTS) | {"moment_samples"}


def _require_int(raw: object, field: str, minimum: int | None = None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"field {field!r} must be an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ConfigError(f"field {field!r} must be >= {minimum}, got {raw}")
    return raw


def _resolve_int(file_value: object, env: str, flag: int | None, field: str,
                 minimum: int | None = None) -> int:
    """The flag if given, else the environment variable if set, else the file value."""
    value = file_value
    if env in os.environ:
        try:
            value = int(os.environ[env])
        except ValueError as exc:
            raise ConfigError(f"environment variable {env} must be an integer, "
                              f"got {os.environ[env]!r}") from exc
    if flag is not None:
        value = flag
    return _require_int(value, field, minimum)


def load_config(path: str, seed_override: int | None = None, trials_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    """Read, validate, and resolve a configuration file.

    Precedence per field: command line flag, then environment variable
    (seed/trials only), then the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object of key/value pairs")

    unknown = sorted(set(raw) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigError(f"missing config field(s): {', '.join(missing)}")

    n = _require_int(raw["n"], "n", minimum=1)
    m = _require_int(raw["m"], "m", minimum=1)
    x_max = _require_int(raw["x_max"], "x_max", minimum=1)

    seed = _resolve_int(raw["seed"], ENV_SEED, seed_override, "seed")

    taus_raw = raw["taus"]
    if not isinstance(taus_raw, list) or not taus_raw:
        raise ConfigError("field 'taus' must be a non-empty list of integers")
    taus = tuple(_require_int(t, "taus", minimum=0) for t in taus_raw)
    for t in taus:
        if t > n - 1:
            raise ConfigError(f"field 'taus' entry {t} exceeds n-1 = {n - 1}")
    if len(set(taus)) != len(taus):
        raise ConfigError(f"duplicate entries in field 'taus': {list(taus)}")

    lambdas_raw = raw.get("lambdas", list(_DEFAULTS["lambdas"]))
    if not isinstance(lambdas_raw, list):
        raise ConfigError("field 'lambdas' must be a list of numbers")
    lambdas = []
    for v in lambdas_raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"field 'lambdas' entry {v!r} is not a number")
        if not 0.0 <= float(v) <= 1.0:
            raise ConfigError(f"field 'lambdas' entry {v} lies outside [0, 1]")
        lambdas.append(float(v))

    algorithms_raw = raw["algorithms"]
    if not isinstance(algorithms_raw, list) or not all(isinstance(a, str) for a in algorithms_raw):
        raise ConfigError("field 'algorithms' must be a list of strings")

    trials = _resolve_int(raw["trials"], ENV_TRIALS, trials_override, "trials", minimum=100)

    output_path = out_override if out_override is not None else raw["output_path"]
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("field 'output_path' must be a non-empty string")

    fmt = raw.get("format", _DEFAULTS["format"])
    if fmt not in ("csv", "json"):
        raise ConfigError(f"field 'format' must be 'csv' or 'json', got {fmt!r}")

    config = RunConfig(
        n=n, m=m, x_max=x_max, seed=seed, taus=taus, lambdas=tuple(lambdas),
        algorithms=tuple(algorithms_raw), trials=trials, output_path=output_path,
        format=fmt,
    )
    _parse_algorithms(config)  # validate selectors eagerly
    return config


@dataclass(frozen=True)
class _AlgorithmPlan:
    label: str
    kind: str
    lam: float | None = None
    constant_value: float | None = None


def _linear_label(lam: float) -> str:
    return f"linear@{lam:g}"


def _refuse_shared_labels(lams: Sequence[float], field: str) -> None:
    """Distinct lambdas must get distinct labels, or their rows could not be told apart."""
    first: dict[str, float] = {}
    for lam in lams:
        label = _linear_label(lam)
        other = first.setdefault(label, lam)
        if other != lam:
            raise ConfigError(f"field {field!r} holds distinct lambdas {other!r} and {lam!r} "
                              f"that share the label {label!r}")


def _parse_algorithms(config: RunConfig) -> list[_AlgorithmPlan]:
    plans: list[_AlgorithmPlan] = []
    for selector in config.algorithms:
        kind, at, arg = selector.partition("@")
        if at and kind in ("linear", "constant"):
            try:
                value = float(arg)
            except ValueError as exc:
                raise ConfigError(f"bad algorithm selector {selector!r}") from exc
        if selector in ("marzullo", "bi", "gbi_oneopt"):
            plans.append(_AlgorithmPlan(label=selector, kind=selector))
        elif selector == "linear":
            if not config.lambdas:
                raise ConfigError("algorithm 'linear' needs a non-empty 'lambdas' field")
            if len(set(config.lambdas)) != len(config.lambdas):
                raise ConfigError(f"duplicate entries in field 'lambdas': {list(config.lambdas)}")
            _refuse_shared_labels(config.lambdas, "lambdas")
            for lam in config.lambdas:
                plans.append(_AlgorithmPlan(label=_linear_label(lam), kind="linear", lam=lam))
        elif at and kind == "linear":
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"algorithm selector {selector!r} has lambda outside [0, 1]")
            plans.append(_AlgorithmPlan(label=_linear_label(value), kind="linear", lam=value))
        elif at and kind == "constant":
            # evaluate refuses non-finite estimates, so refuse them here by field
            if not np.isfinite(value):
                raise ConfigError(f"algorithm selector {selector!r} has a non-finite value")
            plans.append(_AlgorithmPlan(label=selector, kind="constant", constant_value=value))
        else:
            raise ConfigError(f"unknown algorithm selector {selector!r} in field 'algorithms'")
    _refuse_shared_labels([p.lam for p in plans if p.kind == "linear"], "algorithms")
    labels = [p.label for p in plans]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate algorithm instances in field 'algorithms': {labels}")
    return plans


def _cell(value: str | int | float | None) -> str:
    if isinstance(value, float):
        return format(value, ".15g")
    return "" if value is None else str(value)


def run_sweep(config: RunConfig) -> list[dict]:
    """Evaluate every configured algorithm at every tau; return one row per cell.

    Linear fusers are fitted per (tau, lambda) on the exact law at any
    m >= 2 (`fit_linear_exact`: one closed-form scalar, formed from Python
    ints and floats and drawing no trials), so their coefficients depend
    neither on the seed nor on the host's BLAS or SIMD kernels.  The sweep does not run the
    two-agent closed-form recipe: its candidates share coefficients across
    sensors, the family the fit minimizes over, so it can at best tie the
    fit; fit-linear runs the recipe on demand.  A row's flags field records
    only its degenerate-trial count.  Every fit runs first; then one
    `evaluate_taus` pass draws each block of trials once and masks it at
    every tau, so all algorithms at one tau share bit-identical trials.
    Rows come in tau order, then algorithm order.
    """
    plans = _parse_algorithms(config)
    if config.m < 2 and any(p.kind == "linear" for p in plans):
        raise ConfigError(f"linear fusers require m >= 2 agents (field 'm'), got m={config.m}")
    # Marzullo needs two order statistics; the other fusers run up to n-1 faults
    if any(p.kind == "marzullo" for p in plans):
        for tau in config.taus:
            if tau > config.n - 2:
                raise ConfigError(f"field 'taus' entry {tau} exceeds n-2 = {config.n - 2}, "
                                  f"the bound for a marzullo selector")
    if not plans:
        return []
    # plan labels are distinct, so each (tau, lambda) is fitted once
    fits = {(tau, plan.lam): fit_linear_exact(config.scenario(tau), plan.lam)
            for tau in config.taus for plan in plans if plan.kind == "linear"}
    specs = {
        tau: [AlgorithmSpec(kind=plan.kind, label=plan.label, constant_value=plan.constant_value,
                            coeffs=fits[tau, plan.lam] if plan.kind == "linear" else None)
              for plan in plans]
        for tau in config.taus
    }
    reports = evaluate_taus(specs, config.scenario(config.taus[0]), config.trials)
    header = _sweep_header(config)
    rows: list[dict] = []
    for tau in config.taus:
        for plan, report in zip(plans, reports[tau]):
            objective = None
            if plan.lam is not None:
                objective, _ = combine_objective(report, plan.lam)
            flags = f"degenerate={report.degenerate_count}" if report.degenerate_count else ""
            # each estimate is followed by its standard error, as in the header
            values = [
                plan.label, tau, plan.lam,
                *np.column_stack([report.mse, report.mse_stderr]).ravel().tolist(),
                *np.column_stack([report.cns, report.cns_stderr]).ravel().tolist(),
                objective, config.trials, config.seed, flags,
            ]
            rows.append(dict(zip(header, values, strict=True)))
    return rows


def _sweep_header(config: RunConfig) -> list[str]:
    header = ["algorithm", "tau", "lambda"]
    for j in range(config.m):
        header += [f"mse_agent_{j + 1}", f"mse_stderr_{j + 1}"]
    for j in range(config.m):
        for k in range(j + 1, config.m):
            header += [f"cns_pair_{j + 1}_{k + 1}", f"cns_stderr_{j + 1}_{k + 1}"]
    header += ["objective", "trials", "seed", "flags"]
    return header


def write_rows(rows: list[dict], config: RunConfig) -> None:
    header = _sweep_header(config)
    try:
        if config.format == "json":
            with open(config.output_path, "w", encoding="utf-8") as fh:
                json.dump(rows, fh, indent=2)
                fh.write("\n")
            return
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(row.get(key)) for key in header])
    except OSError as exc:
        raise ConfigError(f"cannot write output_path {config.output_path!r}: {exc}") from exc


def run_oracle_check(
    config: RunConfig,
    weight_fn: Callable[[np.ndarray, int], GbiWeights] = gbi_bayes_weights,
) -> tuple[float, list[tuple[int, int, int, float]]]:
    """Compare both GBI fusers against the exact posterior mean trial by trial.

    The trials are drawn once, in blocks of _BLOCK_TRIALS, and each block is
    masked at every tau in turn and checked, one row of the masked block's
    `TrialBatch.rows` per (trial, agent).  For one row, the deviation is the
    larger of the enumerative fuser's and the region kernel gbi_rows's
    distance from posterior_rows's mean; a non-finite deviation counts as inf.
    The enumerative estimates of a masked block come from one call,
    fuse_gbi(weight_fn(readings, tau)), with readings the rows as a (B, n, 2)
    stack, so weight_fn must return a stacked table with one row per row of
    readings.  Returns the largest deviation and the list of
    (tau, trial, agent, deviation) entries exceeding 1e-9, in (tau, trial,
    agent) order with the taus in config order.  Tests pass a perturbed
    weight_fn to inject a fault, and benchmarks/worker.py passes the traced
    gbi_bayes_weights, since the default binds the untraced function.
    """
    if config.n > 8:
        raise ConfigError(f"field 'n' must be <= 8 for oracle-check, which enumerates fault patterns; "
                          f"got n={config.n}")
    worst = 0.0
    failures: dict[int, list[tuple[int, int, int, float]]] = {tau: [] for tau in config.taus}
    for start in range(0, config.trials, _BLOCK_TRIALS):
        draw = draw_trials(config.scenario(config.taus[0]), start, min(start + _BLOCK_TRIALS, config.trials))
        for tau in config.taus:
            rows = draw.at(tau).rows()
            exact = posterior_rows(rows, config.scenario(tau)).means()
            regions, _ = gbi_rows(coverage_rows(rows), tau)
            weighted = fuse_gbi(weight_fn(np.stack([rows.lo, rows.hi], axis=2), tau))
            dev = np.maximum(np.abs(weighted - exact), np.abs(regions - exact))
            dev[~np.isfinite(dev)] = np.inf
            worst = max(worst, float(dev.max()))
            dev = dev.reshape(config.m, draw.size).T
            for trial, agent in np.argwhere(dev > 1e-9).tolist():
                failures[tau].append((tau, start + trial, agent, float(dev[trial, agent])))
    return worst, [entry for tau in config.taus for entry in failures[tau]]


def run_fit_linear(config: RunConfig, lam: float) -> list[dict]:
    """Fit linear fuser coefficients at weight lam for every configured tau, on the exact law.

    Each entry is `select_linear_exact`'s selection: its empirical_objective
    and closed_form_objective are the exact population objectives of the
    fit and the recipe, and no trial is drawn.  This is the one command that
    runs the two-agent recipe.
    """
    if config.m < 2:
        raise ConfigError(f"fit-linear requires m >= 2 agents (field 'm'), got m={config.m}")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"--lambda must lie in [0, 1], got {lam}")
    results = []
    for tau in config.taus:
        selection = select_linear_exact(config.scenario(tau), lam)
        results.append(
            {
                "tau": tau,
                "lambda": lam,
                "eps": [c.eps.tolist() for c in selection.coeffs],
                "delta": [c.delta.tolist() for c in selection.coeffs],
                "gamma": [c.gamma for c in selection.coeffs],
                "closed_form_used": selection.closed_form_used,
                "closed_form_objective": selection.closed_form_objective,
                "empirical_objective": selection.empirical_objective,
                "closed_form_error": selection.closed_form_error,
            }
        )
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalfusion",
        description="Fault-tolerant interval fusion experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the configured algorithms over every tau")
    check = sub.add_parser("oracle-check", help="verify the weighted fuser equals the exact posterior mean")
    fit = sub.add_parser("fit-linear", help="fit linear fuser coefficients for one lambda")
    for p in (sweep, check, fit):
        p.add_argument("--config", required=True, help="path to the JSON config file")
    # fit-linear fits on the exact law, so neither the seed nor the trial count reaches it
    for p in (sweep, check):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the config trial count")
    sweep.add_argument("--out", default=None, help="override the config output_path")
    fit.add_argument("--out", default=None, help="write fitted coefficients to this file instead of stdout")
    fit.add_argument("--lambda", dest="lam", type=float, required=True, help="objective weight in [0, 1]")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # fit-linear's --out names its coefficient file, not the sweep's output_path
        config = load_config(args.config, seed_override=getattr(args, "seed", None),
                             trials_override=getattr(args, "trials", None),
                             out_override=args.out if args.command == "sweep" else None)
        if args.command == "sweep":
            rows = run_sweep(config)
            write_rows(rows, config)
            print(f"wrote {len(rows)} rows to {config.output_path}")
            return 0
        if args.command == "oracle-check":
            worst, failures = run_oracle_check(config)
            if failures:
                for tau, trial, agent, dev in failures[:20]:
                    print(f"FAIL seed={config.seed} tau={tau} trial={trial} agent={agent} "
                          f"deviation={dev:.3e}", file=sys.stderr)
                print(f"oracle check failed on {len(failures)} trial(s); "
                      f"max deviation {worst:.3e}", file=sys.stderr)
                return 1
            total = config.trials * len(config.taus) * config.m
            print(f"oracle check passed: {total} comparisons, max deviation {worst:.3e}")
            return 0
        results = run_fit_linear(config, args.lam)
        payload = json.dumps(results, indent=2)
        if args.out is not None:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write --out {args.out!r}: {exc}") from exc
            print(f"wrote coefficients for {len(results)} tau value(s) to {args.out}")
        else:
            print(payload)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
