"""Tests of the benchmark itself: its correctness gates, tracing and workloads.

    PYTHONPATH=src python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from intervalfusion import cli, fusion  # noqa: E402


def _load(tmp_path: Path, name: str, **overrides) -> tuple[workloads.Workload, cli.RunConfig]:
    workload = workloads.WORKLOADS[name]
    raw = workloads.call_config(workload, 5, 0, str(tmp_path / "rows.csv"), smoke=True)
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return workload, cli.load_config(str(path))


def _shifted_weights(readings, tau):
    weights = fusion.gbi_bayes_weights(readings, tau)
    return fusion.GbiWeights(weights.subsets, weights.weights, weights.midpoints + 1e-6)


def test_oracle_check_passes_and_perturbed_weights_fail(tmp_path):
    workload, config = _load(tmp_path, "oracle-check", taus=[2])
    clean = worker.run_call(workload, config)
    assert clean["attempted"] == 100 * 1 * 2
    assert clean["failed"] == 0 and clean["error"] is None

    perturbed = worker.run_call(workload, config, weight_fn=_shifted_weights)
    assert perturbed["failed"] / perturbed["attempted"] > 0
    assert perturbed["rows_sha256"] != clean["rows_sha256"]


def _row(algorithm: str, tau: int, mse: float, se: float = 0.01) -> dict:
    row = {"algorithm": algorithm, "tau": tau, "lambda": None, "objective": None,
           "trials": 100, "seed": 1, "flags": ""}
    for j in (1, 2):
        row[f"mse_agent_{j}"] = mse
        row[f"mse_stderr_{j}"] = se
    row["cns_pair_1_2"] = 0.1
    row["cns_stderr_1_2"] = 0.01
    return row


_CONFIG = {"m": 2, "trials": 100, "seed": 1, "taus": [3], "algorithms": ["marzullo", "gbi_oneopt"]}


@pytest.mark.parametrize(
    "rows, failed",
    [
        ([_row("marzullo", 3, 1.2), _row("gbi_oneopt", 3, 1.0)], 0),
        # GBI worse than a rival by more than 2 combined standard errors
        ([_row("marzullo", 3, 1.0), _row("gbi_oneopt", 3, 1.5)], 1),
        # within 2 combined standard errors: not a failure
        ([_row("marzullo", 3, 1.0), _row("gbi_oneopt", 3, 1.02)], 0),
        ([_row("marzullo", 3, math.nan), _row("gbi_oneopt", 3, 1.0)], 1),
        ([_row("gbi_oneopt", 3, 1.0)], 1),
        ([_row("marzullo", 3, 1.2), _row("gbi_oneopt", 3, 1.0), _row("bi", 3, 1.1)], 1),
    ],
)
def test_sweep_row_checks(rows, failed):
    attempted, found = workloads.check_sweep_rows(rows, _CONFIG)
    assert found == failed
    assert attempted == max(2, len(rows))


def test_self_time_arithmetic_is_exact():
    tracer = tracing.Tracer()
    # root [0, 100] holds a [10, 40] (which holds [15, 25]) and b [50, 90]
    tracer.names = ["root", "a", "a.inner", "b"]
    tracer.starts = [0, 10, 15, 50]
    tracer.ends = [100, 40, 25, 90]
    tracer.parents = [-1, 0, 1, 0]
    assert tracer.self_times() == [30, 20, 10, 40]
    stats = tracer.summarise()
    assert sum(entry["self_ns"] for entry in stats.values()) == 100


def test_wrapped_calls_nest_and_restore():
    tracer = tracing.Tracer()
    original = fusion.fuse_gbi
    with tracing.install(tracer) as traced_weights:
        assert fusion.fuse_gbi is not original
        readings = np.array([[0.0, 2.0], [1.0, 3.0], [0.5, 2.5]])
        with tracer.span("call"):
            fusion.fuse_gbi_oneopt(readings, 1)
            traced_weights(readings, 1)
    assert fusion.fuse_gbi is original
    assert tracer.names == ["call", "fusion.fuse_gbi_oneopt", "fusion.gbi_bayes_weights",
                            "fusion.fuse_gbi", "fusion.gbi_bayes_weights"]
    assert tracer.parents == [-1, 0, 1, 1, 0]
    assert tracer.counters["fusion.gbi_bayes_weights.subsets"] == 2 * math.comb(3, 2)
    assert sum(tracer.self_times()) == tracer.ends[0] - tracer.starts[0]


def test_percentile_needs_ten_samples_beyond_the_tail():
    assert run.percentile(list(range(999)), 0.99) is None
    assert run.percentile(list(range(1000)), 0.99) == pytest.approx(989.01)
    assert run.percentile([7], 0.5) == 7.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_size_of_each_workload(tmp_path, name):
    workload, config = _load(tmp_path, name)
    tracer = tracing.Tracer()
    result = worker.run_call(workload, config, tracer)
    assert result["error"] is None
    assert result["attempted"] > 0 and result["failed"] == 0
    assert result["wall_s"] > 0 and len(result["rows_sha256"]) == 64
    spans = result["trace"]["spans"]
    assert sum(entry["self_ns"] for entry in spans.values()) == spans["call"]["total_ns"]


def test_manifest_names_match_the_reported_metrics():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep-eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
