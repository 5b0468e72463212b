"""Benchmark of the intervalfusion Monte Carlo harness.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs calls of one workload, each in a fresh child process (worker.py), one
at a time, until S seconds have passed and at least MIN_CALLS calls (and a
whole cycle of the workload's variants) are done.  Every output is checked.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones, measured untraced; call times are given as multiples of a reference
kernel timed during the call (see worker.SpeedProbe and README.md).  With
--trace 1 they are the per-layer ones from traced calls, interleaved with
untraced calls so the tracing overhead shows.
Lines before it give the rows' SHA-256, the dominant layer and the results
file, which also records the environment.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

MIN_CALLS = 3
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("scenario", "fusion", "metrics", "optimal", "oracle", "cli")

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "estimates_per_ref": "1/ref", "peak_rss_mb": "MB"}

# Per-call figures: span name -> percentile metric suffixes
_PERCENTILES = {
    "scenario.make_trial": ("p50_us", "p99_us"),
    "fusion.fuse_marzullo": ("p50_us", "p99_us"),
    "fusion.fuse_bi_with_flag": ("p50_us", "p99_us"),
    "fusion.fuse_gbi_oneopt": ("p50_us", "p99_us"),
    "fusion.fuse_linear": ("p50_us", "p99_us"),
    "fusion.gbi_bayes_weights": ("p50_us", "p99_us"),
    "fusion.fuse_gbi": ("p50_us",),
    "optimal.select_linear_coefficients": ("p50_s",),
    "oracle.posterior_mean_exact": ("p50_us", "p99_us"),
}
_CALLS = ("scenario.make_trial", "scenario.sample_batch", "fusion.fuse_marzullo",
          "fusion.fuse_bi_with_flag", "fusion.fuse_gbi_oneopt", "fusion.fuse_linear",
          "fusion.gbi_bayes_weights", "fusion.fuse_gbi", "metrics.evaluate",
          "optimal.select_linear_coefficients", "oracle.posterior_mean_exact")
_SELF = ("scenario.make_trial", "scenario.sample_batch", "metrics.evaluate",
         "optimal.estimate_moments", "optimal.fit_linear_empirical",
         "optimal.solve_linear_two_agent", "optimal.empirical_objective",
         "cli.run_sweep", "cli.run_oracle_check")
# Computed from the inputs, not timed, so they repeat exactly.
_COMPUTED = ("fusion.gbi_bayes_weights.subsets", "oracle.posterior_mean_exact.patterns",
             "scenario.sample_batch.rows", "workload.estimates", "workload.trials")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in _CALLS:
        units[f"{name}.calls"] = "count"
    for name, suffixes in _PERCENTILES.items():
        for suffix in suffixes:
            units[f"{name}.{suffix}"] = suffix.split("_")[1]
    for name in _SELF:
        units[f"{name}.self_s"] = "s"
    for name in _COMPUTED:
        units[name] = "count"
    units.update({
        "cli.write_rows.s": "s",
        "metrics.evaluate.self_share": "ratio",
        "optimal.recipe_runs": "count",
        "optimal.recipe_kept": "count",
        "optimal.closed_form_used_ratio": "ratio",
        "fusion.degenerate_count": "count",
        "fusion.degenerate_ratio": "ratio",
        "oracle.max_deviation": "abs",
        "call.remainder_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "untraced.wall_s": "s",
        "untraced.estimates_per_s": "1/s",
        "reference.kernel_s": "s",
        "failed_frac": "ratio",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.share"] = "ratio"
    return units


def percentile(values: list[int], q: float) -> float | None:
    """The q-quantile; a tail quantile needs at least ten samples beyond it."""
    if not values or (q > 0.5 and len(values) * (1.0 - q) < 10):
        return None
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def child_env() -> dict[str, str]:
    """The parent's environment with BLAS/OpenMP pools pinned to one thread and
    the package's seed/trials overrides removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INTERVALFUSION_")}
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, call: int, mode: str, env: dict, deadline: float) -> dict:
    """Run one child to completion and return its record; a crash is a failed call."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--call", str(call), "--mode", mode, "--spawned-at", repr(spawned_at), "--out", str(OUT)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "call": call, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "call": call, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_hashes(records: list[dict]) -> None:
    """Fail every operation of a call whose output differs from the first call's."""
    first: dict[int, str] = {}
    for record in records:
        if record.get("rows_sha256") is None:
            continue
        reference = first.setdefault(record["variant"], record["rows_sha256"])
        if record["rows_sha256"] != reference:
            record["failed"] = record["attempted"]
            record["error"] = "rows_sha256 differs from the first call's"


def cycle_median(records: list[dict], value) -> float:
    """Median of value(record) over each variant's calls, averaged over variants.

    With one variant this is the plain median; for sweep-fit each lambda
    weighs equally whatever the number of calls."""
    by_variant: dict[int, list[float]] = {}
    for record in records:
        by_variant.setdefault(record["variant"], []).append(value(record))
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def end_to_end(plain: list[dict], probes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in probes + plain if "setup_s" in r),
        "wall_ref": cycle_median(plain, lambda r: r["wall_ref"]),
        "estimates_per_ref": cycle_median(plain, lambda r: r["estimates"] / r["wall_ref"]),
        "peak_rss_mb": cycle_median(plain, lambda r: r["peak_rss_mb"]),
    }


def pool_spans(traced: list[dict]) -> tuple[dict[str, dict], dict[str, int]]:
    """Sum span statistics and counters over traced calls."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for record in traced:
        for name, entry in record["trace"]["spans"].items():
            pooled = spans.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
            for key in ("calls", "total_ns", "self_ns"):
                pooled[key] += entry[key]
            pooled["durations_ns"] += entry["durations_ns"]
        for name, value in record["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


def per_layer(workload: workloads.Workload, traced: list[dict], plain: list[dict],
              failed_frac: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, per traced call, and notes on which layer dominates."""
    calls = len(traced)
    spans, counters = pool_spans(traced)

    def stat(name: str, key: str) -> int:
        return spans.get(name, {}).get(key, 0)

    wall_ns = stat("call", "total_ns")
    if sum(entry["self_ns"] for entry in spans.values()) != wall_ns:
        raise AssertionError("span self times do not add up to the traced wall time")
    values: dict[str, float] = {}
    for name in _CALLS:
        values[f"{name}.calls"] = stat(name, "calls") / calls
    for name, suffixes in _PERCENTILES.items():
        for suffix in suffixes:
            found = percentile(spans.get(name, {}).get("durations_ns", []),
                               0.5 if suffix.startswith("p50") else 0.99)
            scale = 1e3 if suffix.endswith("_us") else 1e9
            values[f"{name}.{suffix}"] = 0.0 if found is None else found / scale
    for name in _SELF:
        values[f"{name}.self_s"] = stat(name, "self_ns") / calls / 1e9
    layer_ns = {layer: sum(e["self_ns"] for n, e in spans.items() if n.split(".")[0] == layer)
                for layer in LAYERS}
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layer_ns[layer] / calls / 1e9
        values[f"layer.{layer}.share"] = layer_ns[layer] / wall_ns
    recipe_runs = counters.get("optimal.recipe_runs", 0)
    recipe_kept = counters.get("optimal.recipe_kept", 0)
    estimates = sum(r["estimates"] for r in traced)
    degenerate = sum(r["degenerate"] for r in traced)
    for name in ("fusion.gbi_bayes_weights.subsets", "oracle.posterior_mean_exact.patterns",
                 "scenario.sample_batch.rows"):
        values[name] = counters.get(name, 0) / calls
    values.update({
        "workload.estimates": estimates / calls,
        "workload.trials": sum(r["trials"] for r in traced) / calls,
        "cli.write_rows.s": stat("cli.write_rows", "total_ns") / calls / 1e9,
        "metrics.evaluate.self_share": stat("metrics.evaluate", "self_ns") / wall_ns,
        "optimal.recipe_runs": recipe_runs / calls,
        "optimal.recipe_kept": recipe_kept / calls,
        "optimal.closed_form_used_ratio": recipe_kept / recipe_runs if recipe_runs else 0.0,
        "fusion.degenerate_count": degenerate / calls,
        "fusion.degenerate_ratio": degenerate / estimates,
        "oracle.max_deviation": max(r["max_deviation"] or 0.0 for r in traced),
        "call.remainder_s": stat("call", "self_ns") / calls / 1e9,
        "trace.wall_s": wall_ns / calls / 1e9,
        "trace.overhead_s": cycle_median(traced, lambda r: r["wall_s"])
                            - cycle_median(plain, lambda r: r["wall_s"]),
        "trace.spans": sum(r["trace"]["span_count"] for r in traced) / calls,
        "untraced.wall_s": cycle_median(plain, lambda r: r["wall_s"]),
        "untraced.estimates_per_s": cycle_median(plain, lambda r: r["estimates"] / r["wall_s"]),
        "reference.kernel_s": statistics.median(r["reference_s"] for r in plain),
        "failed_frac": failed_frac,
    })

    def share(prefix: str) -> float:
        return sum(e["self_ns"] for n, e in spans.items()
                   if n == prefix or n.startswith(prefix + ".")) / wall_ns

    top_layer = max(LAYERS, key=layer_ns.get)
    top_span = max((n for n in spans if n != "call"), key=lambda n: spans[n]["self_ns"])
    expected = sum(share(prefix) for prefix in workload.dominant)
    verdict = "as expected" if expected > 0.5 else "NOT as expected"
    notes = [
        f"dominant layer: {top_layer} ({share(top_layer):.1%} of traced wall_s); "
        f"largest self time: {top_span} ({share(top_span):.1%})",
        f"expected dominant: {'+'.join(workload.dominant)} takes {expected:.1%} of traced wall_s, {verdict}",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="intervalfusion harness benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "intervalfusion" / "__init__.py").is_file():
        print(f"error: package source not found under {REPO / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    env = child_env()
    started = time.monotonic()
    deadline = started + args.seconds
    hard_deadline = started + CHILD_TIMEOUT_S

    probes = []
    if not args.trace:
        probes = [spawn(workload.name, args.seed, 0, "probe", env, hard_deadline)
                  for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    records: list[dict] = []
    call = 0
    while call < MIN_CALLS or call % len(workload.variants) or time.monotonic() < deadline:
        for mode in modes:
            record = spawn(workload.name, args.seed, call, mode, env, hard_deadline)
            ops = workloads.operations(workload, workloads.call_config(workload, args.seed, call, ""))
            record.setdefault("attempted", ops)
            record.setdefault("failed", ops)
            record["variant"] = call % len(workload.variants)
            records.append(record)
        call += 1
        if time.monotonic() >= hard_deadline:
            break

    check_hashes(records)
    errors = [r["error"] for r in probes + records if r.get("error")]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    plain = [r for r in records if r["mode"] == "plain" and "wall_s" in r]
    traced = [r for r in records if r["mode"] == "traced" and "wall_s" in r]
    if not plain or (args.trace and not traced):
        print(f"error: no call of {workload.name} completed: {errors[:3]}", file=sys.stderr)
        return 1
    notes: list[str] = []
    if args.trace:
        metrics, notes = per_layer(workload, traced, plain, failed / attempted)
        units = per_layer_units()
    else:
        metrics, units = end_to_end(plain, probes), END_TO_END

    hashes = {}
    for record in records:
        if record.get("rows_sha256"):
            hashes.setdefault(f"variant {record['variant']}", record["rows_sha256"])
    versions = next((r["versions"] for r in probes + records if "versions" in r), {})
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    for record in records:
        for entry in record.get("trace", {}).get("spans", {}).values():
            entry.pop("durations_ns", None)
    result_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                        "git_commit": git_commit(), **versions,
                        "pinned_threads": {name: env[name] for name in PINNED_THREADS}},
        "rows_sha256": hashes, "errors": errors, "notes": notes,
        "computed_counts": list(_COMPUTED) if args.trace else [],
        "metrics": metrics, "probes": probes, "calls": records,
    }, indent=1) + "\n")

    for variant, sha in hashes.items():
        print(f"rows_sha256 {workload.name} seed={args.seed} {variant}: {sha}")
    for line in notes + [f"errors: {e}" for e in errors[:5]]:
        print(line)
    print(f"results: {result_path.relative_to(REPO)}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
