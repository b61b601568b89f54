"""The benchmark's four workloads: inputs, servers and closed-loop clients.

Every workload builds its catalog and request stream from the seed
alone, starts the program the way a deployment would (a
:class:`~repro.QuerySession`, an :class:`~repro.AsyncQueryService`),
and drives it with a closed loop: each client sends its next request
only after the previous one returned.  Clients log every query and
every write in order; :mod:`oracle` replays that log in SQLite.

* ``warm_m2m`` — the paper's 6-relation running example, one SQL text
  over and over (every request a plan-cache hit: the engine's layers).
* ``cold_plan_mix`` — distinct 10-16-relation trees and cyclic
  cycle/grid queries through the async service with a planning process
  (planning's layers; the plan cache never holds the working set).
* ``rebind_mutate`` — a prepared statement re-bound per request while
  a write every :data:`WRITE_EVERY` queries mutates a join column
  (re-filtering, index rebuilds and invalidation).
* ``warm_distributed`` — ``warm_m2m``'s traffic scattered over two
  worker processes (the distributed layer).
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro import AsyncQueryService, QuerySession
from repro.storage import Catalog
from repro.workloads.cyclic import cycle_query, cyclic_catalog, grid_query, to_sql
from repro.workloads.large_joins import large_join_catalog, random_tree_query

#: the paper's 6-relation running example (Figure 1)
RUNNING_EXAMPLE_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)
#: the running example with a per-request binding on R6's payload
PREPARED_SQL = RUNNING_EXAMPLE_SQL + " and R6.G = ?"
#: join columns of the running example a write may overwrite
JOIN_COLUMNS = (("R1", "B"), ("R1", "E"), ("R2", "B"), ("R2", "C"),
                ("R2", "D"), ("R3", "C"), ("R4", "D"), ("R5", "E"),
                ("R5", "F"), ("R6", "F"))
KEY_DOMAIN = 2_000
PAYLOAD_VALUES = 5

#: rebind_mutate: one write after every this many queries.  The query
#: after a write replans and rebuilds indexes; with 1 in 5 such queries
#: the 90th percentile lies inside that slow group instead of on its
#: edge, where it would jump between the fast and the slow latencies
WRITE_EVERY = 5
#: rebind_mutate: rows one write overwrites
WRITE_ROWS = 64

#: cold_plan_mix: tree templates (10..16 relations) and cyclic templates.
#: Many templates, so the seed's effect on each one's planning time
#: averages out within a run
TREE_TEMPLATES = 70
#: every cyclic shape has >= 8 relations, like every tree, so the service
#: offloads every cold plan to its planning process (one queue, one path);
#: larger cycles and grids plan 2-4x slower than any tree and would set
#: the 90th percentile alone
CYCLIC_SHAPES = (("cycle", 8), ("grid", (2, 4)))
CYCLIC_TEMPLATES = 16
TEMPLATE_ROWS = 256
TREE_KEY_DOMAIN = 256
#: cold_plan_mix: selection constants per template; the distinct query
#: space is (TREE_TEMPLATES + CYCLIC_TEMPLATES) * SELECTION_VALUES
SELECTION_VALUES = 32

#: the session's default cache capacities (recorded with each result)
PLAN_CACHE_SIZE = 128
STATS_CACHE_SIZE = 256


def running_example_catalog(seed, driver_rows=4_000, child_rows=2_500):
    """The running example's six relations, join selectivity ~1.25."""
    rng = np.random.default_rng(seed)

    def keys(rows):
        return rng.integers(0, KEY_DOMAIN, rows)

    catalog = Catalog()
    catalog.add_table("R1", {"A": np.arange(driver_rows),
                             "B": keys(driver_rows), "E": keys(driver_rows)})
    catalog.add_table("R2", {"B": keys(child_rows), "C": keys(child_rows),
                             "D": keys(child_rows)})
    catalog.add_table("R3", {"C": keys(child_rows)})
    catalog.add_table("R4", {"D": keys(child_rows)})
    catalog.add_table("R5", {"E": keys(child_rows), "F": keys(child_rows)})
    catalog.add_table("R6", {"F": keys(child_rows),
                             "G": rng.integers(0, PAYLOAD_VALUES, child_rows)})
    return catalog


def _add_prefixed(catalog, source, aliases, prefix, rng):
    """Copy ``source``'s tables under ``prefix``; give R0 a payload ``g``."""
    for alias in aliases:
        columns = dict(source.table(alias).columns)
        if alias == "R0":
            columns["g"] = rng.integers(0, SELECTION_VALUES, TEMPLATE_ROWS)
        catalog.add_table(prefix + alias, columns)


def cold_mix_catalog(seed):
    """One catalog holding every cold_plan_mix template's tables.

    Returns ``(catalog, templates)``; a template is SQL text with one
    ``{}`` slot for the selection constant on ``R0.g``.  A cyclic
    template follows every few trees.
    """
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    trees = []
    cyclic = []
    for index in range(TREE_TEMPLATES):
        # shapes are fixed; data, constants and request order follow
        # the seed, so runs on different seeds plan the same shapes
        tree = random_tree_query(10 + index % 7, seed=index)
        data = large_join_catalog(tree, rows_per_relation=TEMPLATE_ROWS,
                                  key_domain=TREE_KEY_DOMAIN,
                                  seed=int(rng.integers(2**31)))
        prefix = f"t{index}_"
        aliases = list(tree.preorder())
        _add_prefixed(catalog, data, aliases, prefix, rng)
        joins = " and ".join(
            f"{e.parent}.{e.parent_attr} = {e.child}.{e.child_attr}"
            for e in tree.edges
        )
        relations = ", ".join(f"{prefix}{alias} as {alias}"
                              for alias in aliases)
        trees.append(
            f"select * from {relations} where {joins} and R0.g = {{}}"
        )
    for index in range(CYCLIC_TEMPLATES):
        shape, size = CYCLIC_SHAPES[index % len(CYCLIC_SHAPES)]
        parsed = cycle_query(size) if shape == "cycle" else grid_query(*size)
        data = cyclic_catalog(parsed, rows_per_relation=TEMPLATE_ROWS,
                              seed=int(rng.integers(2**31)))
        prefix = f"c{index}_"
        _add_prefixed(catalog, data, parsed.relations, prefix, rng)
        renamed = replace(parsed, relations={alias: prefix + alias
                                             for alias in parsed.relations})
        cyclic.append(to_sql(renamed) + " and R0.g = {}")
    step = TREE_TEMPLATES // CYCLIC_TEMPLATES
    templates = []
    for index, tree in enumerate(trees):
        templates.append(tree)
        if index % step == step - 1 and index // step < CYCLIC_TEMPLATES:
            templates.append(cyclic[index // step])
    return catalog, templates


def reap_children(timeout=30.0):
    """Wait until every child process this process started has ended."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            return
        time.sleep(0.02)


#: per-query report fields :class:`Log` keeps for the traced metrics
REPORT_FIELDS = ("hash_probes", "tuples_generated",
                 "peak_intermediate_tuples", "semijoin_probes",
                 "scatter_seconds", "gather_seconds", "worker_retries")


@dataclass
class Log:
    """What one measured phase did, in the order it happened.

    ``events`` holds ``("query", sql, params, engine_count)`` (count
    ``None`` when the query failed) and ``("write", table, column,
    start, values)``.  ``latencies``, ``finished`` (``perf_counter``
    at completion) and ``report_fields`` (values of
    :data:`REPORT_FIELDS`) hold one entry per query; the loop ran from
    ``started`` for ``wall_s`` seconds.
    """

    events: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    finished: list = field(default_factory=list)
    report_fields: list = field(default_factory=list)
    errors: int = 0
    started: float = 0.0
    wall_s: float = 0.0

    def record(self, sql, params, report, latency):
        self.latencies.append(latency)
        self.finished.append(time.perf_counter())
        if not report.ok:
            self.errors += 1
            self.events.append(("query", sql, params, None))
            return
        self.events.append(("query", sql, params, report.result.output_size))
        counters = report.result.counters
        self.report_fields.append((
            counters.hash_probes, counters.tuples_generated,
            counters.peak_intermediate_tuples, counters.semijoin_probes,
            report.scatter_seconds, report.gather_seconds,
            report.worker_retries,
        ))


class Workload:
    """Base: a name, a reason, the knobs it runs with, and its client."""

    name = ""
    why = ""
    clients = 1
    knobs: dict = {}
    #: distinct queries a run can issue (None: grows with the run)
    distinct_queries = 1
    #: SQL the traced run's mode probe forces through all six modes
    probe_sql = None

    def setup(self, seed):
        """Build inputs and start the server; return a server state."""
        raise NotImplementedError

    def drive(self, state, seconds, tracer):
        """Run the closed loop for ``seconds``; return a :class:`Log`."""
        raise NotImplementedError

    def close(self, state):
        state["session"].close()

    def fits(self, capacity):
        """Whether every distinct query fits a cache of ``capacity``."""
        return (self.distinct_queries is not None
                and self.distinct_queries <= capacity)


def _span(tracer):
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def _sync_loop(seconds, tracer, run_query, between=None):
    """One closed-loop client calling ``run_query() -> (sql, params, report)``.

    ``between(done, log)`` runs after each query, inside the wall clock
    but outside every query's latency.
    """
    log = Log()
    span = _span(tracer)
    start = log.started = time.perf_counter()
    deadline = start + seconds
    done = 0
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        with span("request"):
            sql, params, report = run_query()
        log.record(sql, params, report, time.perf_counter() - t0)
        done += 1
        if between is not None:
            between(done, log)
    log.wall_s = time.perf_counter() - start
    return log


class WarmM2M(Workload):
    name = "warm_m2m"
    why = ("one repeated running-example query: every request hits the "
           "plan cache, so the engine does almost all the work")
    knobs = {"sql": RUNNING_EXAMPLE_SQL, "mode": "auto", "placement": "local",
             "front_end": "QuerySession.execute"}
    session_knobs: dict = {}
    probe_sql = RUNNING_EXAMPLE_SQL

    def setup(self, seed):
        catalog = running_example_catalog(seed)
        session = QuerySession(catalog, plan_cache_size=PLAN_CACHE_SIZE,
                               stats_cache_size=STATS_CACHE_SIZE,
                               **self.session_knobs)
        for _ in range(3):
            report = session.execute(RUNNING_EXAMPLE_SQL)
            if not report.ok:
                raise RuntimeError(f"warm-up failed: {report!r}")
        return {"catalog": catalog, "session": session}

    def drive(self, state, seconds, tracer):
        session = state["session"]

        def run_query():
            return (RUNNING_EXAMPLE_SQL, (),
                    session.execute(RUNNING_EXAMPLE_SQL))

        return _sync_loop(seconds, tracer, run_query)


class WarmDistributed(WarmM2M):
    name = "warm_distributed"
    why = ("warm_m2m's traffic scattered over 2 worker processes, so "
           "the distributed scatter/gather layer is measured")
    knobs = dict(WarmM2M.knobs, placement="distributed", num_workers=2)
    session_knobs = {"placement": "distributed", "num_workers": 2}
    probe_sql = None


class RebindMutate(Workload):
    name = "rebind_mutate"
    why = ("a prepared statement re-bound per request plus a join-column "
           "write every 5 queries: re-filtering, index rebuilds and "
           "invalidation of every cache")
    knobs = {"sql": PREPARED_SQL, "mode": "auto",
             "write_every": WRITE_EVERY, "write_rows": WRITE_ROWS,
             "front_end": "PreparedStatement.execute"}
    # bindings x data versions: every write makes new distinct queries
    distinct_queries = None

    def setup(self, seed):
        catalog = running_example_catalog(seed)
        session = QuerySession(catalog, plan_cache_size=PLAN_CACHE_SIZE,
                               stats_cache_size=STATS_CACHE_SIZE)
        statement = session.prepare(PREPARED_SQL)
        report = statement.execute(0)
        if not report.ok:
            raise RuntimeError(f"warm-up failed: {report!r}")
        return {"catalog": catalog, "session": session,
                "statement": statement,
                "rng": np.random.default_rng([seed, 1])}

    def drive(self, state, seconds, tracer):
        catalog, statement, rng = (state["catalog"], state["statement"],
                                   state["rng"])

        def run_query():
            value = int(rng.integers(PAYLOAD_VALUES))
            return PREPARED_SQL, (value,), statement.execute(value)

        def write(done, log):
            if done % WRITE_EVERY:
                return
            table, column = JOIN_COLUMNS[int(rng.integers(len(JOIN_COLUMNS)))]
            values = catalog.table(table).column(column)
            start = int(rng.integers(len(values) - WRITE_ROWS))
            new = rng.integers(0, KEY_DOMAIN, WRITE_ROWS)
            values[start:start + WRITE_ROWS] = new
            catalog.invalidate_indexes(table)
            log.events.append(("write", table, column, start, new))

        return _sync_loop(seconds, tracer, run_query, between=write)


class ColdPlanMix(Workload):
    name = "cold_plan_mix"
    why = ("distinct 10-16-relation trees and cyclic queries through the "
           "async service: planning dominates and the plan cache misses")
    clients = 2
    knobs = {"front_end": "AsyncQueryService.execute", "planning_workers": 1, "driver": "auto", "optimizer": "auto",
             "cyclic_execution": "auto",
             "tree_templates": TREE_TEMPLATES,
             "tree_relations": "10..16",
             "cyclic_templates": [f"{shape}{size}" for shape, size in
                                  CYCLIC_SHAPES],
             "selection_values": SELECTION_VALUES}
    distinct_queries = (TREE_TEMPLATES + CYCLIC_TEMPLATES) * SELECTION_VALUES
    plan_kwargs = {"driver": "auto", "optimizer": "auto"}

    def setup(self, seed):
        catalog, templates = cold_mix_catalog(seed)
        session = QuerySession(catalog, plan_cache_size=PLAN_CACHE_SIZE,
                               stats_cache_size=STATS_CACHE_SIZE)
        service = AsyncQueryService(session, planning_workers=1)
        # g = -1 selects nothing and is outside every streamed constant:
        # it spawns and warms the planning process without pre-planning
        # any query the run will send
        report = asyncio.run(service.execute(templates[0].format(-1),
                                             **self.plan_kwargs))
        if not report.ok:
            raise RuntimeError(f"warm-up failed: {report!r}")
        return {"catalog": catalog, "session": session, "service": service,
                "templates": templates,
                "rng": np.random.default_rng([seed, 2])}

    def close(self, state):
        state["service"].close()

    def drive(self, state, seconds, tracer):
        service, templates, rng = (state["service"], state["templates"],
                                   state["rng"])
        log = Log()
        span = _span(tracer)
        sent = itertools.count()

        async def client(deadline):
            while time.perf_counter() < deadline:
                # every template in turn, so each run plans the same mix
                # of shapes in the same order; the constant is random
                template = templates[next(sent) % len(templates)]
                sql = template.format(int(rng.integers(SELECTION_VALUES)))
                t0 = time.perf_counter()
                with span("request"):
                    report = await service.execute(sql, **self.plan_kwargs)
                log.record(sql, (), report, time.perf_counter() - t0)

        async def run():
            deadline = time.perf_counter() + seconds
            await asyncio.gather(*(client(deadline)
                                   for _ in range(self.clients)))

        start = log.started = time.perf_counter()
        asyncio.run(run())
        log.wall_s = time.perf_counter() - start
        return log


WORKLOADS = {w.name: w for w in (WarmM2M(), ColdPlanMix(), RebindMutate(),
                                 WarmDistributed())}
