"""Self-tests of the benchmark: tracer arithmetic, untraced identity,
the SQLite oracle, and a short error-free run of every workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import textwrap
import types
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    RUNNING_EXAMPLE_SQL,
    WORKLOADS,
    running_example_catalog,
)

from repro import QuerySession  # noqa: E402

SYNTHETIC = textwrap.dedent('''
    import asyncio
    import time

    def leaf():
        time.sleep(0.001)
        return 1

    def middle():
        return leaf() + leaf()

    def outer():
        return middle() + middle() + sum(numbers())

    def numbers():
        for _ in range(3):
            yield leaf()

    async def waiting():
        await asyncio.sleep(0.001)
        return leaf()

    def remote(value):
        return leaf() + value
''')


@pytest.fixture
def synthetic():
    module = types.ModuleType("perfbench_synthetic")
    exec(compile(SYNTHETIC, "perfbench_synthetic", "exec"), module.__dict__)
    sys.modules[module.__name__] = module
    try:
        yield module
    finally:
        del sys.modules[module.__name__]


@pytest.fixture
def tracer(synthetic, tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.install(
        [(name, synthetic.__name__, name)
         for name in ("leaf", "middle", "outer", "numbers", "waiting",
                      "remote")],
        rebind_prefix=synthetic.__name__,
    )
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (1, None, 1, "root", 0, 100, 1),
        (2, 1, 1, "child", 10, 30, 1),
        (3, 1, 1, "child", 20, 50, 1),   # overlaps span 2 (another thread)
        (4, 3, 1, "leaf", 25, 35, 1),
        (5, 1, 1, "child", 90, 120, 1),  # outlives its parent
    ]
    times = self_times(spans)
    assert times["root"] == {"self_ns": 100 - 40 - 10, "total_ns": 100,
                             "calls": 1}
    assert times["child"] == {"self_ns": 20 + (30 - 10) + 30,
                              "total_ns": 80, "calls": 3}
    assert times["leaf"] == {"self_ns": 10, "total_ns": 10, "calls": 1}


def test_nested_spans_share_a_request_and_partition_its_time(synthetic,
                                                              tracer):
    assert synthetic.outer() == 2 + 2 + 3
    spans = tracer.collect()
    roots = [span for span in spans if span[1] is None]
    assert [root[3] for root in roots] == ["outer"]
    root_id, _, request, _, start, end, _ = roots[0]
    assert request == root_id
    assert {span[2] for span in spans} == {request}
    by_id = {span[0]: span for span in spans}
    for span in spans:
        if span[1] is not None:
            parent = by_id[span[1]]
            assert parent[4] <= span[4] <= span[5] <= parent[5]
    times = self_times(spans)
    # a sequential nest: self times tile the root's interval exactly
    assert sum(entry["self_ns"] for entry in times.values()) == end - start
    assert times["leaf"]["calls"] == 2 * 2 + 3
    assert times["middle"]["calls"] == 2
    # one call, four resumptions (three items and the exhausting one)
    assert times["numbers"]["calls"] == 1
    assert sum(span[3] == "numbers" for span in spans) == 4
    leaves = [span for span in spans if span[3] == "leaf"]
    assert all(by_id[span[1]][3] in ("middle", "numbers") for span in leaves)


def test_coroutines_and_process_pool_tasks_keep_the_parent(synthetic,
                                                           tracer):
    async def request():
        with tracer.span("request"):
            return await synthetic.waiting()

    assert asyncio.run(request()) == 1
    with tracer.span("request"):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(synthetic.remote, 1).result() == 2
    spans = tracer.collect()
    by_id = {span[0]: span for span in spans}
    remote = [span for span in spans if span[3] == "remote"]
    assert len(remote) == 1, "the worker's span was not spooled back"
    assert by_id[remote[0][1]][3] == "request"
    waiting = [span for span in spans if span[3] == "waiting"]
    assert by_id[waiting[0][1]][3] == "request"
    for span in spans:
        if span[3] == "leaf":
            assert by_id[span[1]][3] in ("waiting", "remote")


def _bindings():
    """(namespace, attribute, object) for everything a tracer replaces."""
    repro_modules = [module for name, module in sys.modules.items()
                     if name.startswith("repro") and module is not None]
    bound = [(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit),
             (ProcessPoolExecutor, "submit", ProcessPoolExecutor.submit)]
    for _, module_name, dotted in layers.TARGETS:
        owner = sys.modules[module_name]
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        bound.append((owner, attr, original))
        if not path:
            bound.extend((module, alias, value)
                         for module in repro_modules
                         for alias, value in vars(module).items()
                         if value is original)
    return bound


def test_untraced_run_leaves_every_wrapped_callable_identical(tmp_path):
    before = _bindings()
    result, _ = run.run(WORKLOADS["warm_m2m"], seed=1, seconds=0.3,
                        trace=False, spool_root=tmp_path)
    assert result["correct"]
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr
    # and a traced run puts every original back
    result, _ = run.run(WORKLOADS["warm_m2m"], seed=1, seconds=0.3,
                        trace=True, spool_root=tmp_path)
    assert result["correct"]
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr


def test_oracle_matches_the_engine_on_the_running_example():
    catalog = running_example_catalog(3)
    tables = oracle.snapshot(catalog)
    session = QuerySession(catalog)
    report = session.execute(RUNNING_EXAMPLE_SQL)
    assert report.ok and report.result.output_size == 12_897
    assert oracle.check(tables, [("query", RUNNING_EXAMPLE_SQL, (),
                                  12_897)]) == (1, [])
    # a write replayed in SQLite moves both counts the same way
    values = catalog.table("R2").column("C")
    new = values[:100].copy() + 1
    values[:100] = new
    catalog.invalidate_indexes("R2")
    after = session.execute(RUNNING_EXAMPLE_SQL).result.output_size
    assert after != 12_897
    events = [("query", RUNNING_EXAMPLE_SQL, (), 12_897),
              ("write", "R2", "C", 0, new),
              ("query", RUNNING_EXAMPLE_SQL, (), after)]
    assert oracle.check(tables, events) == (2, [])
    # and a wrong engine count is reported, not absorbed
    checked, mismatches = oracle.check(
        tables, [("query", RUNNING_EXAMPLE_SQL, (), 12_896)])
    assert checked == 1 and mismatches == [
        (RUNNING_EXAMPLE_SQL, (), 12_896, 12_897)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_completes_a_short_run_without_errors(name, tmp_path):
    result, record = run.run(WORKLOADS[name], seed=2, seconds=1.0,
                             trace=False, spool_root=tmp_path)
    assert result["failed"] == 0 and result["correct"]
    assert record["error_rate"] == 0
    assert result["attempted"] == record["queries"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)


#: per workload, per-layer metrics that only a working cross-process
#: trace can see (their spans run in planning or execution workers)
TRACED_IN_WORKERS = {
    "cold_plan_mix": ("planner.plan_ms", "optimizer.search_ms",
                      "stats.derive_ms", "async.wait_ms",
                      "async.offload_share"),
    "warm_distributed": ("distributed.run_ms", "executor.execute_ms",
                         "factorized.expand_ms", "distributed.scatter_ms"),
}


@pytest.mark.parametrize("name", sorted(TRACED_IN_WORKERS))
def test_traced_runs_report_worker_side_layers(name, tmp_path):
    result, _ = run.run(WORKLOADS[name], seed=2, seconds=2.0, trace=True,
                        spool_root=tmp_path)
    assert result["correct"]
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    for metric in TRACED_IN_WORKERS[name]:
        assert result["metrics"][metric]["value"] > 0, metric


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER
