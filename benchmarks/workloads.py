"""Workload definitions and the checks that decide whether an output is correct.

Every workload uses m=2 agents and x_max=5 and takes its root seed from the
benchmark's --seed.  One call is one `cli.run_sweep` + `cli.write_rows`, or one
`cli.run_oracle_check`, in a fresh process.  Why each workload exists, and
which layer it isolates, is recorded in BENCHMARK.json and benchmarks/README.md.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

BASE = {"m": 2, "x_max": 5}
ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "sweep" or "oracle".  config holds every config field except seed
    and output_path.  variants are per-call overrides taken in turn, so that a
    run of sweep-fit fits each lambda once, one (tau, lambda) fit per call.
    smoke shrinks the workload for the benchmark's own tests.  dominant names
    the span-name prefixes expected to take most of the traced wall time.
    reference names the worker's speed-probe kernel that resembles the hot
    path: "interpreter" or "array".
    """

    name: str
    kind: str
    config: dict
    dominant: tuple[str, ...]
    reference: str
    variants: tuple[dict, ...] = ({},)
    smoke: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-fit",
            kind="sweep",
            config={"n": 10, "taus": [3], "algorithms": ["linear"], "trials": 100,
                    "moment_samples": 20_000},
            variants=({"lambdas": [0.1]}, {"lambdas": [0.5]}, {"lambdas": [0.9]}),
            smoke={"moment_samples": 10_000},
            dominant=("optimal",),
            reference="array",
        ),
        Workload(
            name="sweep-eval",
            kind="sweep",
            config={"n": 10, "taus": [1, 2, 3, 4, 5, 6, 7],
                    "algorithms": ["marzullo", "bi", "gbi_oneopt"], "trials": 500},
            smoke={"taus": [1, 7], "trials": 100},
            dominant=("scenario", "fusion"),
            reference="interpreter",
        ),
        Workload(
            name="gbi-wide",
            kind="sweep",
            config={"n": 16, "taus": [4, 8, 12], "algorithms": ["gbi_oneopt", "marzullo"],
                    "trials": 200},
            smoke={"taus": [12], "trials": 100},
            dominant=("fusion.gbi_bayes_weights",),
            reference="array",
        ),
        Workload(
            name="oracle-check",
            kind="oracle",
            # run_oracle_check ignores algorithms, but the config requires the field
            config={"n": 8, "taus": [1, 2, 3, 4, 5, 6], "algorithms": ["gbi_oneopt"],
                    "trials": 300},
            smoke={"taus": [1, 6], "trials": 100},
            dominant=("oracle",),
            reference="interpreter",
        ),
    )
}


def call_config(workload: Workload, seed: int, call_index: int, output_path: str,
                smoke: bool = False) -> dict:
    """The config file contents for one call of a workload."""
    config = {**BASE, **workload.config, **workload.variants[call_index % len(workload.variants)]}
    if smoke:
        config.update(workload.smoke)
    config.update(seed=seed, output_path=output_path)
    return config


def algorithm_labels(config: dict) -> list[str]:
    """Row labels a sweep produces: "linear" expands to one label per lambda."""
    labels = []
    for selector in config["algorithms"]:
        if selector == "linear":
            labels += [f"linear@{lam:g}" for lam in config.get("lambdas", [])]
        else:
            labels.append(selector)
    return labels


def operations(workload: Workload, config: dict) -> int:
    """Operations one call attempts: sweep rows, or oracle comparisons."""
    if workload.kind == "oracle":
        return config["trials"] * len(config["taus"]) * config["m"]
    return len(algorithm_labels(config)) * len(config["taus"])


def estimates(workload: Workload, config: dict) -> int:
    """Fused agent estimates one call makes, computed from the config."""
    if workload.kind == "oracle":
        return operations(workload, config)
    return operations(workload, config) * config["trials"] * config["m"]


def trial_calls(config: dict) -> int:
    """Trials one call generates, computed from the config."""
    return config["trials"] * len(config["taus"])


def _value_fields(m: int) -> list[str]:
    names = []
    for j in range(1, m + 1):
        names += [f"mse_agent_{j}", f"mse_stderr_{j}"]
    for j in range(1, m + 1):
        for k in range(j + 1, m + 1):
            names += [f"cns_pair_{j}_{k}", f"cns_stderr_{j}_{k}"]
    return names


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _row_values_ok(row: dict, config: dict) -> bool:
    if not all(_finite(row.get(name)) for name in _value_fields(config["m"])):
        return False
    if row.get("trials") != config["trials"] or row.get("seed") != config["seed"]:
        return False
    if str(row.get("algorithm", "")).startswith("linear@"):
        return _finite(row.get("lambda")) and _finite(row.get("objective"))
    return True


def _gbi_beaten(gbi: dict, rival: dict, m: int) -> bool:
    """True when GBI's MSE exceeds the rival's by more than 2 combined standard errors."""
    for j in range(1, m + 1):
        gap = gbi[f"mse_agent_{j}"] - rival[f"mse_agent_{j}"]
        combined = math.hypot(gbi[f"mse_stderr_{j}"], rival[f"mse_stderr_{j}"])
        if gap > 2.0 * combined:
            return True
    return False


def check_sweep_rows(rows: list[dict], config: dict) -> tuple[int, int]:
    """Return (attempted, failed) row counts for one sweep's output.

    Every expected (algorithm, tau) cell is one operation; a missing cell
    fails.  A row fails when a value is missing or non-finite, when its cell
    is unexpected or repeated, or when it is gbi_oneopt's row and its MSE
    for some agent exceeds a rival's by more than 2 combined standard errors.
    """
    expected = {(label, tau) for label in algorithm_labels(config) for tau in config["taus"]}
    by_cell: dict[tuple, list[dict]] = {}
    for row in rows:
        by_cell.setdefault((row.get("algorithm"), row.get("tau")), []).append(row)
    attempted = len(expected) + sum(len(v) for cell, v in by_cell.items() if cell not in expected)
    failed = attempted - len(expected)
    for cell in expected:
        found = by_cell.get(cell, [])
        if len(found) != 1 or not _row_values_ok(found[0], config):
            failed += 1
            continue
        label, tau = cell
        if label != "gbi_oneopt":
            continue
        rivals = [by_cell[(other, tau)] for other in algorithm_labels(config)
                  if other != label and len(by_cell.get((other, tau), [])) == 1]
        if any(_row_values_ok(r[0], config) and _gbi_beaten(found[0], r[0], config["m"])
               for r in rivals):
            failed += 1
    return attempted, failed


def degenerate_count(rows: list[dict]) -> int:
    """Fallback estimates recorded in the rows' flags."""
    total = 0
    for row in rows:
        match = re.search(r"degenerate=(\d+)", row.get("flags", ""))
        if match:
            total += int(match.group(1))
    return total
