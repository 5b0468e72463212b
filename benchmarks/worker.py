"""One call of one workload in a fresh process; prints one JSON line.

Run by benchmarks/run.py, never by hand:

    python3 benchmarks/worker.py --workload NAME --seed N --call K \
        --mode probe|plain|traced --spawned-at T --out DIR

setup_s runs from --spawned-at (the parent's CLOCK_MONOTONIC reading just
before it started this process) until the package is imported and the config
is loaded.  A probe stops there.  A plain call then times the workload's
public entry points; a traced call wraps the package's public functions in
spans first (see tracing.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent
PROBE_PERIOD_S = 0.5


def interpreter_kernel() -> float:
    """Fixed interpreter-bound work: small Python objects and small numpy
    calls, like trial generation and the scalar fusers.  About 25 ms on a
    2-vCPU x86-64 VM."""
    rng = np.random.default_rng(12345)
    big = rng.random(20_000)
    acc = 0.0
    for i in range(1500):
        x = rng.random(8)
        pairs = [(float(v), float(v) + 1.0) for v in x]
        acc += float(np.sort(np.array(pairs)[:, 0])[3]) + max(p[1] for p in pairs)
        if i % 8 == 0:
            acc += float(((big - acc * 1e-9) ** 2).mean())
    return acc


@functools.lru_cache(maxsize=1)
def _subsets() -> np.ndarray:
    return np.array(list(itertools.combinations(range(16), 8)), dtype=np.intp)


def array_kernel() -> float:
    """Fixed array-bound work: gathers and reductions over a 12870 x 8 index
    array, like subset enumeration and the fit's batch objective.  About
    20 ms on a 2-vCPU x86-64 VM."""
    rng = np.random.default_rng(7)
    idx = _subsets()
    acc = 0.0
    for _ in range(6):
        lo = rng.random(16)
        hi = lo + rng.random(16)
        overlap = np.maximum(hi[idx].min(axis=1) - lo[idx].max(axis=1), 0.0)
        acc += float((overlap * (1.0 / (hi - lo))[idx].prod(axis=1)).sum())
    return acc


KERNELS = {"interpreter": interpreter_kernel, "array": array_kernel}


class SpeedProbe:
    """Times a reference kernel before, during (every PROBE_PERIOD_S, from a
    SIGALRM handler) and after the timed call.

    The host's speed drifts by up to 1.7x over minutes, and the drift hits
    interpreter-bound and array-bound code differently, so the call's time is
    reported as a multiple of the median time of the kernel that resembles
    the workload's hot path.  `inside_ns` is the handler time to take off the
    call's wall time.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[int] = []
        self.inside_ns = 0

    def _sample(self) -> int:
        start = time.perf_counter_ns()
        self.kernel()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        self.inside_ns += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def reference_ns(self) -> float:
        return statistics.median(self.samples)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call(workload: workloads.Workload, config, run_sweep, write_rows, run_oracle_check, weight_fn):
    if workload.kind == "sweep":
        rows = run_sweep(config)
        write_rows(rows, config)
        return rows
    return run_oracle_check(config, weight_fn=weight_fn)


def run_call(workload: workloads.Workload, config, tracer: tracing.Tracer | None = None,
             weight_fn=None) -> dict:
    """Run one call of the workload on a loaded RunConfig and check its output.

    weight_fn replaces the oracle check's weight function, as a fault
    injection hook for the benchmark's tests.  A call that raises fails all
    of its operations.
    """
    from intervalfusion import cli, fusion

    raw = dataclasses.asdict(config)
    attempted = workloads.operations(workload, raw)
    result = {"attempted": attempted, "failed": attempted,
              "estimates": workloads.estimates(workload, raw), "trials": workloads.trial_calls(raw),
              "degenerate": 0, "rows_sha256": None, "max_deviation": None, "error": None}
    try:
        if tracer is None:
            with SpeedProbe(KERNELS[workload.reference]) as probe:
                start = time.perf_counter_ns()
                outcome = _call(workload, config, cli.run_sweep, cli.write_rows, cli.run_oracle_check,
                                weight_fn or fusion.gbi_bayes_weights)
                wall_ns = time.perf_counter_ns() - start - probe.inside_ns
            result["reference_s"] = probe.reference_ns / 1e9
            result["wall_ref"] = wall_ns / probe.reference_ns
        else:
            with tracing.install(tracer) as traced_weights, tracer.span("call"):
                outcome = _call(workload, config, tracer.wrap("cli.run_sweep", cli.run_sweep),
                                tracer.wrap("cli.write_rows", cli.write_rows),
                                tracer.wrap("cli.run_oracle_check", cli.run_oracle_check),
                                weight_fn or traced_weights)
            wall_ns = tracer.ends[0] - tracer.starts[0]
    except Exception as exc:  # a failed call is reported, not raised
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result

    result["wall_s"] = wall_ns / 1e9
    if workload.kind == "sweep":
        result["attempted"], result["failed"] = workloads.check_sweep_rows(outcome, raw)
        result["degenerate"] = workloads.degenerate_count(outcome)
        result["rows_sha256"] = _sha256_file(config.output_path)
    else:
        worst, failures = outcome
        result["failed"] = sum(1 for *_, dev in failures if dev > workloads.ORACLE_TOLERANCE)
        result["max_deviation"] = worst
        result["rows_sha256"] = hashlib.sha256(json.dumps([worst, failures]).encode()).hexdigest()
    if tracer is not None:
        result["trace"] = {"spans": tracer.summarise(), "counters": dict(tracer.counters),
                           "span_count": len(tracer.names)}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--call", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "plain", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    import scipy
    from intervalfusion import cli

    workload = workloads.WORKLOADS[args.workload]
    stem = os.path.join(args.out, f"{args.workload}-{args.mode}-{args.call}")
    with open(stem + ".config.json", "w", encoding="utf-8") as fh:
        json.dump(workloads.call_config(workload, args.seed, args.call, stem + ".csv"), fh)
    config = cli.load_config(stem + ".config.json")
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    record = {"mode": args.mode, "call": args.call, "setup_s": setup_s,
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    if args.mode != "probe":
        tracer = tracing.Tracer() if args.mode == "traced" else None
        record.update(run_call(workload, config, tracer))
        # ru_maxrss is in KiB on Linux
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write_spans(stem + ".spans.tsv")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
