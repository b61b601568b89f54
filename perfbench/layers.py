"""The program's layers as the tracer sees them, and the per-layer metrics.

:data:`TARGETS` names, per layer, the callables the traced run wraps:
public functions and methods, plus the two helpers the cyclic residual
stage runs in.  :func:`per_layer_metrics` turns one traced phase into the
per-layer metrics: self time per query (ms) from the spans, counts per
query from the tracer and from each query's ``ExecutionCounters`` and
``QueryReport``, and cache hit rates from the span tree.  A layer a
workload never enters reports 0.
"""

from __future__ import annotations

import statistics
import time

from tracer import self_times
from workloads import REPORT_FIELDS

from repro import ExecutionMode

__all__ = ["TARGETS", "PER_LAYER", "mode_probe", "per_layer_metrics"]

#: (span name, module, attribute) for every wrapped callable
TARGETS = (
    ("parser.parse", "repro.core.parser", "parse_query"),
    ("session.cache_key", "repro.service.session", "QuerySession.cache_key"),
    ("session.execute", "repro.service.session", "QuerySession.execute"),
    ("session.execute", "repro.service.session", "PreparedStatement.execute"),
    ("async.execute", "repro.service.async_service",
     "AsyncQueryService.execute"),
    ("planner.plan", "repro.planner", "Planner.plan"),
    ("planner.rehydrate", "repro.planner", "Planner.rehydrate"),
    ("planner.pushdown", "repro.planner", "push_down_selections"),
    ("planner.pushdown", "repro.planner", "filtered_table"),
    ("stats.cache", "repro.core.stats", "StatsCache.get_or_derive"),
    ("stats.cache", "repro.core.stats", "StatsCache.get_or_derive_directed"),
    ("stats.cache", "repro.core.stats", "StatsCache.get_or_derive_signature"),
    ("stats.derive", "repro.core.stats", "stats_from_data"),
    ("stats.derive", "repro.core.stats", "directed_stats_from_data"),
    ("stats.derive", "repro.core.cyclic", "cyclic_directed_stats"),
    ("optimizer.search", "repro.core.optimizer", "exhaustive_optimal"),
    ("optimizer.search", "repro.core.optimizer", "idp_order"),
    ("optimizer.search", "repro.core.optimizer", "beam_order"),
    ("optimizer.search", "repro.core.optimizer", "optimize_sj"),
    ("costmodel.plan_cost", "repro.core.costmodel", "plan_cost"),
    ("cyclic.tree_search", "repro.core.cyclic", "enumerate_spanning_trees"),
    ("cyclic.residual", "repro.core.cyclic", "apply_residuals"),
    # tree+filter plans filter residuals only in these two helpers:
    # pushed into factorized expansion, then per expanded batch
    ("cyclic.residual", "repro.core.cyclic", "_push_down_residuals"),
    ("cyclic.residual", "repro.core.cyclic", "_filter_batch"),
    ("wcoj.execute", "repro.engine.wcoj", "execute_wcoj"),
    ("executor.execute", "repro.engine.executor", "execute"),
    ("semijoin.reduce", "repro.engine.semijoin", "full_reduction"),
    ("storage.index_build", "repro.storage.table", "Table.build_hash_index"),
    ("storage.fingerprint", "repro.storage.table", "Table.fingerprint"),
    ("storage.fingerprint", "repro.storage.table", "Catalog.fingerprint"),
    ("kernels.lookup", "repro.engine.kernels", "VectorizedKernels.lookup"),
    ("kernels.contains", "repro.engine.kernels", "VectorizedKernels.contains"),
    ("factorized.expand", "repro.engine.factorized", "FactorizedResult.expand"),
    ("factorized.propagate", "repro.engine.factorized",
     "FactorizedResult.propagate_deaths"),
    ("distributed.run", "repro.distributed.workerpool", "WorkerPool.run"),
)

#: every per-layer metric and its unit, in report order
PER_LAYER = {
    "parser.parse_ms": "ms",
    "parser.parse_calls": "count",
    "session.execute_ms": "ms",
    "session.cache_key_ms": "ms",
    "session.plan_cache_hit_rate": "ratio",
    "session.stats_cache_hit_rate": "ratio",
    "async.wait_ms": "ms",
    "async.offload_share": "ratio",
    "planner.plan_ms": "ms",
    "planner.rehydrate_ms": "ms",
    "planner.pushdown_ms": "ms",
    "stats.derive_ms": "ms",
    "optimizer.search_ms": "ms",
    "optimizer.search_calls": "count",
    "costmodel.plan_cost_ms": "ms",
    "costmodel.mode_regret": "ratio",
    "costmodel.rank_agreement": "tau",
    "cyclic.tree_search_ms": "ms",
    "cyclic.residual_ms": "ms",
    "wcoj.execute_ms": "ms",
    "executor.execute_ms": "ms",
    "executor.hash_probes": "count",
    "executor.tuples_generated": "count",
    "executor.peak_intermediate_tuples": "count",
    "semijoin.reduce_ms": "ms",
    "semijoin.probes": "count",
    "storage.index_build_ms": "ms",
    "storage.index_builds": "count",
    "storage.fingerprint_ms": "ms",
    "kernels.lookup_ms": "ms",
    "kernels.contains_ms": "ms",
    "factorized.expand_ms": "ms",
    "factorized.propagate_ms": "ms",
    "distributed.scatter_ms": "ms",
    "distributed.gather_ms": "ms",
    "distributed.run_ms": "ms",
    "distributed.worker_retries": "count",
    "trace.overhead_pct": "%",
}

#: per-layer metric -> the span name whose self time / calls it reports
_SPAN_MS = {
    "parser.parse_ms": "parser.parse",
    "session.execute_ms": "session.execute",
    "session.cache_key_ms": "session.cache_key",
    "async.wait_ms": "async.execute",
    "planner.plan_ms": "planner.plan",
    "planner.rehydrate_ms": "planner.rehydrate",
    "planner.pushdown_ms": "planner.pushdown",
    "stats.derive_ms": "stats.derive",
    "optimizer.search_ms": "optimizer.search",
    "costmodel.plan_cost_ms": "costmodel.plan_cost",
    "cyclic.tree_search_ms": "cyclic.tree_search",
    "cyclic.residual_ms": "cyclic.residual",
    "wcoj.execute_ms": "wcoj.execute",
    "executor.execute_ms": "executor.execute",
    "semijoin.reduce_ms": "semijoin.reduce",
    "storage.index_build_ms": "storage.index_build",
    "storage.fingerprint_ms": "storage.fingerprint",
    "kernels.lookup_ms": "kernels.lookup",
    "kernels.contains_ms": "kernels.contains",
    "factorized.expand_ms": "factorized.expand",
    "factorized.propagate_ms": "factorized.propagate",
    "distributed.run_ms": "distributed.run",
}
_SPAN_CALLS = {
    "parser.parse_calls": "parser.parse",
    "optimizer.search_calls": "optimizer.search",
    "storage.index_builds": "storage.index_build",
}
#: per-layer metric -> (per-query report field, scale) it averages
_REPORT_MEANS = {
    "executor.hash_probes": ("hash_probes", 1),
    "executor.tuples_generated": ("tuples_generated", 1),
    "executor.peak_intermediate_tuples": ("peak_intermediate_tuples", 1),
    "semijoin.probes": ("semijoin_probes", 1),
    "distributed.scatter_ms": ("scatter_seconds", 1e3),
    "distributed.gather_ms": ("gather_seconds", 1e3),
    "distributed.worker_retries": ("worker_retries", 1),
}


def _cache_hit_rates(spans):
    """(plan, stats) cache hit rates, read off the span tree.

    A request is a plan-cache hit when it was served without planning:
    no ``planner.plan`` or ``planner.rehydrate`` span under it (a
    prepared statement's reused template counts as a hit).  The
    session's own counters cannot say this: the async service plans a
    miss into the cache and then executes it as a hit.  A stats-cache
    lookup is a miss when it derived statistics: a ``stats.derive``
    span directly under the ``stats.cache`` span.  Lookups in planning
    worker processes count too.
    """
    names = {span[0]: span[3] for span in spans}
    planned = {span[2] for span in spans
               if span[3] in ("planner.plan", "planner.rehydrate")}
    requests = [span[0] for span in spans if span[3] == "request"]
    lookups = [span[0] for span in spans if span[3] == "stats.cache"]
    derived = {span[1] for span in spans
               if span[3] == "stats.derive"
               and names.get(span[1]) == "stats.cache"}
    plan_rate = (sum(r not in planned for r in requests) / len(requests)
                 if requests else 0.0)
    stats_rate = (1.0 - len(derived) / len(lookups)) if lookups else 0.0
    return plan_rate, stats_rate


def per_layer_metrics(spans, log, service_stats, overhead_pct, probe):
    """Every :data:`PER_LAYER` metric for one traced phase.

    ``service_stats`` is the async service's ``stats()`` after the
    phase (``None`` without a service); ``probe`` the :func:`mode_probe`
    result (``None`` where it did not run).
    """
    queries = max(1, len(log.latencies))
    times = self_times(spans)
    metrics = {}
    for metric, name in _SPAN_MS.items():
        metrics[metric] = times.get(name, {}).get("self_ns", 0) / 1e6 / queries
    for metric, name in _SPAN_CALLS.items():
        metrics[metric] = times.get(name, {}).get("calls", 0) / queries
    fields = log.report_fields
    for metric, (name, scale) in _REPORT_MEANS.items():
        index = REPORT_FIELDS.index(name)
        metrics[metric] = (scale * sum(row[index] for row in fields)
                           / len(fields) if fields else 0.0)
    (metrics["session.plan_cache_hit_rate"],
     metrics["session.stats_cache_hit_rate"]) = _cache_hit_rates(spans)
    offloaded = inline = 0
    if service_stats is not None:
        offloaded = service_stats["planned_in_process_pool"]
        inline = service_stats["planned_inline"]
    metrics["async.offload_share"] = (
        offloaded / (offloaded + inline) if offloaded + inline else 0.0)
    metrics["costmodel.mode_regret"] = probe["regret"] if probe else 0.0
    metrics["costmodel.rank_agreement"] = (
        probe["kendall_tau"] if probe else 0.0)
    metrics["trace.overhead_pct"] = overhead_pct
    return {name: metrics[name] for name in PER_LAYER}


def _kendall_tau(xs, ys):
    """Kendall's tau-a of two equally long sequences."""
    score = pairs = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            pairs += 1
            product = (xs[i] - xs[j]) * (ys[i] - ys[j])
            score += (product > 0) - (product < 0)
    return score / pairs if pairs else 0.0


def mode_probe(session, sql, repeats):
    """Run ``sql`` under each of the six forced modes and score ``auto``.

    Modes are timed round-robin, ``repeats`` times each, so drift on a
    shared host hits every mode alike.  Returns the chosen mode, each
    mode's ``predicted_cost``, observed median and row count, the
    chosen-mode median over the best median (``regret``), and Kendall's
    tau between predicted cost and observed time.
    """
    modes = ExecutionMode.all_modes()
    walls = {mode: [] for mode in modes}
    rows = {}
    for mode in modes:
        report = session.execute(sql, mode=mode)
        if not report.ok:
            raise RuntimeError(f"forced {mode} failed: {report!r}")
        rows[mode] = report.result.output_size
    for _ in range(repeats):
        for mode in modes:
            start = time.perf_counter()
            session.execute(sql, mode=mode)
            walls[mode].append(time.perf_counter() - start)
    predicted = {mode: session.plan(sql, mode=mode).predicted_cost
                 for mode in modes}
    chosen = session.plan(sql).mode
    medians = {mode: statistics.median(walls[mode]) for mode in modes}
    best = min(medians, key=medians.get)
    return {
        "chosen": str(chosen),
        "fastest": str(best),
        "regret": medians[chosen] / medians[best],
        "kendall_tau": _kendall_tau([predicted[m] for m in modes],
                                    [medians[m] for m in modes]),
        "modes": {str(mode): {"predicted_cost": predicted[mode],
                              "median_ms": medians[mode] * 1e3,
                              "rows": rows[mode]}
                  for mode in modes},
    }
