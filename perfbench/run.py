"""The repository's benchmark: serving workloads over the join stack.

Run from the repository root::

    python3 perfbench/run.py --workload warm_m2m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing installed:
throughput, median and 90th-percentile latency, set-up time (median of
:data:`SETUP_REPEATS` set-ups) and peak resident memory.  ``--trace 1``
measures half the time untraced and half traced (the tracer wraps the
program's public callables from outside; see ``tracer.py`` and
``layers.py``) and reports the per-layer metrics, including the
tracing overhead.  On ``warm_m2m`` it also runs the six forced
execution modes to score the cost model's choice.

Every query's row count is checked against SQLite after the timed
region (``oracle.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (engine errors, budget
overruns and oracle mismatches) and ``metrics``; the line before it is
the full record of the run (seed, knobs, host, samples, probes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    PLAN_CACHE_SIZE,
    STATS_CACHE_SIZE,
    WORKLOADS,
    reap_children,
)

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: qps is the median completion rate over this many slices of a run, so
#: a few seconds of interference from other tenants do not move it
QPS_WINDOWS = 10
#: timed executions of each forced mode in the warm_m2m mode probe
PROBE_REPEATS = 15

END_TO_END = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _set_up(workload, seed, repeats):
    """Set up ``repeats`` times; keep the last state, time them all."""
    times = []
    for attempt in range(repeats):
        start = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
        if attempt < repeats - 1:
            workload.close(state)
            reap_children()
    return state, times


def _phase(workload, seed, seconds, repeats=1, tracer=None, probe=False):
    """Set up, optionally probe the modes, run the closed loop, shut down."""
    state, setup_times = _set_up(workload, seed, repeats)
    tables = oracle.snapshot(state["catalog"])
    probe_result = None
    extra_events = []
    if probe:
        probe_result = layers.mode_probe(state["session"], workload.probe_sql,
                                         PROBE_REPEATS)
        extra_events = [("query", workload.probe_sql, (), mode["rows"])
                        for mode in probe_result["modes"].values()]
    if tracer is not None:
        tracer.clear()
    log = workload.drive(state, seconds, tracer)
    spans = tracer.collect() if tracer is not None else []
    service = state.get("service")
    service_stats = service.stats() if service is not None else None
    workload.close(state)
    reap_children()
    return {"log": log, "setup": setup_times, "tables": tables,
            "extra_events": extra_events, "probe": probe_result,
            "spans": spans,
            "service_stats": service_stats}


def _peak_rss_mb():
    """This process's peak RSS plus that of its largest ended child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _windowed_qps(log, windows=QPS_WINDOWS):
    """Median over ``windows`` equal slices of the loop of completions/s."""
    width = log.wall_s / windows
    counts = np.bincount(
        ((np.asarray(log.finished) - log.started) // width).astype(int),
        minlength=windows)[:windows]
    return float(np.median(counts)) / width


def _latency_summary(latencies):
    ms = np.asarray(latencies) * 1e3
    p90 = float(np.percentile(ms, 90))
    return {
        "samples": len(ms),
        "beyond_p90": int(np.count_nonzero(ms > p90)),
        "p50_ms": float(np.percentile(ms, 50)),
        "p90_ms": p90,
    }


def run(workload, seed, seconds, trace, spool_root):
    """One benchmark run; returns ``(result line, record)``."""
    if not trace:
        phases = [_phase(workload, seed, seconds, repeats=SETUP_REPEATS)]
        measured = phases[0]
    else:
        half = seconds / 2.0
        untraced = _phase(workload, seed, half,
                          probe=workload.probe_sql is not None)
        spool = spool_root / f"spool-{os.getpid()}"
        spool.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(str(spool))
        try:
            tracer.install(layers.TARGETS, rebind_prefix="repro")
            traced = _phase(workload, seed, half, tracer=tracer)
        finally:
            tracer.uninstall()
            shutil.rmtree(spool, ignore_errors=True)
        phases = [untraced, traced]
        measured = traced
    peak_rss_mb = _peak_rss_mb()

    attempted = failed = checked = 0
    mismatches = []
    for phase in phases:
        log = phase["log"]
        phase_checked, phase_mismatches = oracle.check(
            phase["tables"], phase["extra_events"] + log.events)
        attempted += len(log.latencies) + len(phase["extra_events"])
        failed += log.errors + len(phase_mismatches)
        checked += phase_checked
        mismatches.extend(phase_mismatches)

    log = measured["log"]
    latency = _latency_summary(log.latencies)
    qps = _windowed_qps(log)
    if not trace:
        metrics = {
            "qps": qps,
            "latency_p50_ms": latency["p50_ms"],
            "latency_p90_ms": latency["p90_ms"],
            "setup_s": statistics.median(measured["setup"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        untraced_log = phases[0]["log"]
        untraced_qps = _windowed_qps(untraced_log)
        metrics = layers.per_layer_metrics(
            measured["spans"], log, measured["service_stats"],
            overhead_pct=100.0 * (untraced_qps / qps - 1.0),
            probe=phases[0]["probe"],
        )
        units = layers.PER_LAYER
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "knobs": workload.knobs,
        "closed_loop_clients": workload.clients,
        "plan_cache_size": PLAN_CACHE_SIZE,
        "stats_cache_size": STATS_CACHE_SIZE,
        "distinct_queries": workload.distinct_queries,
        "fits_plan_cache": workload.fits(PLAN_CACHE_SIZE),
        "fits_stats_cache": workload.fits(STATS_CACHE_SIZE),
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine()},
        "latency": latency,
        "setup_s_each": measured["setup"],
        "queries": len(log.latencies),
        "wall_s": log.wall_s,
        "oracle": {"checked": checked, "mismatches": len(mismatches),
                   "first_mismatches": [list(m) for m in mismatches[:3]]},
        "error_rate": failed / attempted if attempted else 1.0,
        "mode_probe": phases[0]["probe"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if trace:
        top = sorted(
            self_times(measured["spans"]).items(),
            key=lambda item: -item[1]["self_ns"])
        record["self_ms_per_query"] = {
            name: entry["self_ns"] / 1e6 / max(1, len(log.latencies))
            for name, entry in top
        }
        record["untraced_qps"] = untraced_qps
        record["traced_qps"] = qps
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    return result, record


def _print_human(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"  why: {record['why']}")
    latency = record["latency"]
    print(f"  {latency['samples']} queries, {latency['beyond_p90']} beyond "
          f"p90; {record['oracle']['checked']} row counts checked against "
          f"SQLite, {record['oracle']['mismatches']} mismatches")
    lines = dict(record["metrics"])
    # errors + timeouts + oracle mismatches per attempted query; printed,
    # and counted in the result's "failed", but not a BENCHMARK.json
    # metric: it is 0 on a correct run, so it has no relative spread
    lines["error_rate"] = {"value": record["error_rate"], "unit": "ratio"}
    for name, metric in lines.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")


def _run_all(args):
    """Each workload in its own process, then one summary table."""
    failed = attempted = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True,
                               check=False)
        sys.stdout.write("\n".join(child.stdout.splitlines()[:-2]) + "\n")
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"workload {name} exited {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _run_all(args)
        return
    spool_root = ROOT / ".perfbench_tmp"
    try:
        result, record = run(WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), spool_root)
    finally:
        shutil.rmtree(spool_root, ignore_errors=True)
    _print_human(record)
    print("record " + json.dumps(record, default=str))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
