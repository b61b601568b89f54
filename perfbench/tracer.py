"""Outside-in span tracer: times calls into a program's public callables.

The tracer never edits the program.  :meth:`Tracer.install` replaces
named attributes (module functions, methods, generator and coroutine
functions) with wrappers that record one *span* per call, and
:meth:`Tracer.uninstall` puts every original object back.  A run that
never installs a tracer executes the program's own objects untouched.

A span is ``(span_id, parent_id, request_id, name, start_ns, end_ns,
calls)``.  The parent is the span active in the caller's context
(:mod:`contextvars`), so nesting follows asyncio tasks; spans with no
parent start a new request, and every descendant shares its id.
Crossing a hop keeps the link:

* thread pools — ``ThreadPoolExecutor.submit`` runs the task in a copy
  of the submitter's context (this covers ``loop.run_in_executor``);
* process pools — ``ProcessPoolExecutor.submit`` ships the submitter's
  span with the task.  Workers are forked, so they inherit the wrappers;
  each task's spans are appended to ``<spool_dir>/spans-<pid>.jsonl``
  when it returns, and :meth:`Tracer.collect` merges them.  Timestamps
  come from ``perf_counter_ns``, the system-wide monotonic clock on
  Linux, so spans from different processes share one time line.

A generator function records one span per resumption of its body, from
the first ``next`` until it is exhausted; time its consumer spends
between resumptions is not the generator's.  Only the first resumption
counts as a call.

:func:`self_times` turns spans into per-name self time: a span's
duration minus the part of it covered by the union of its children.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["Tracer", "self_times"]

#: ``(request_id, span_id)`` of the span active in this context
_CURRENT = contextvars.ContextVar("perfbench_current_span", default=None)

#: the installed tracer; forked pool workers find theirs here to spool
#: spans back (a worker is a fresh process, it has no other handle)
_ACTIVE = None


def _call_in_child(parent, spool_dir, fn, *args, **kwargs):
    """Run one process-pool task under the submitter's span, then spool."""
    tracer = _ACTIVE
    if tracer is None:
        return fn(*args, **kwargs)
    first = len(tracer.spans)
    token = _CURRENT.set(parent)
    try:
        return fn(*args, **kwargs)
    finally:
        _CURRENT.reset(token)
        spans = tracer.spans[first:]
        del tracer.spans[first:]
        if spans:
            path = os.path.join(spool_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as spool:
                spool.writelines(json.dumps(span) + "\n" for span in spans)


class Tracer:
    """Span recorder plus the attribute replacements that feed it.

    ``spool_dir`` is where forked pool workers write their spans; it
    must exist while the tracer is installed.
    """

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.spans = []
        self._ids = itertools.count(1)
        #: (namespace dict owner, attribute, original) per replacement
        self._replaced = []

    # -- spans ------------------------------------------------------------

    def _open(self, calls=1):
        # ids carry the pid so spans from forked workers never collide
        span_id = (os.getpid() << 40) | next(self._ids)
        parent = _CURRENT.get()
        request = span_id if parent is None else parent[0]
        token = _CURRENT.set((request, span_id))
        return span_id, parent, request, token, calls

    def _close(self, name, opened, start):
        span_id, parent, request, token, calls = opened
        end = time.perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append((span_id, None if parent is None else parent[1],
                           request, name, start, end, calls))

    @contextmanager
    def span(self, name):
        """Record a span around a block (the benchmark's own boundaries)."""
        opened = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, opened, start)

    def _wrap(self, fn, name):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                opened = self._open()
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, opened, start)
            return traced_coroutine

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                body = fn(*args, **kwargs)
                calls = 1
                while True:
                    opened = self._open(calls)
                    start = time.perf_counter_ns()
                    try:
                        item = next(body)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, opened, start)
                    calls = 0
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened, start)
        return traced

    # -- install / uninstall ----------------------------------------------

    def _replace(self, namespace_owner, attr, value):
        self._replaced.append((namespace_owner, attr,
                               namespace_owner.__dict__[attr]))
        setattr(namespace_owner, attr, value)

    def install(self, targets, rebind_prefix):
        """Wrap every ``(span name, module name, dotted attribute)`` target.

        A module-level function is also replaced wherever another loaded
        module whose name starts with ``rebind_prefix`` imported it by
        name, so ``from .x import f`` call sites are traced too.
        """
        global _ACTIVE
        if self._replaced:
            raise RuntimeError("tracer is already installed")
        _ACTIVE = self
        modules = [
            module for module_name, module in sorted(sys.modules.items())
            if module_name.startswith(rebind_prefix) and module is not None
        ]
        for name, module_name, dotted in targets:
            owner = sys.modules[module_name]
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{module_name}.{dotted} is not a function")
            wrapper = self._wrap(original, name)
            self._replace(owner, attr, wrapper)
            if path:
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, alias, wrapper)
        self._install_hops()

    def _install_hops(self):
        thread_submit = ThreadPoolExecutor.submit
        process_submit = ProcessPoolExecutor.submit
        spool_dir = self.spool_dir

        @functools.wraps(thread_submit)
        def submit_in_context(executor, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            return thread_submit(executor, context.run, fn, *args, **kwargs)

        @functools.wraps(process_submit)
        def submit_with_span(executor, fn, /, *args, **kwargs):
            return process_submit(executor, _call_in_child, _CURRENT.get(),
                                  spool_dir, fn, *args, **kwargs)

        self._replace(ThreadPoolExecutor, "submit", submit_in_context)
        self._replace(ProcessPoolExecutor, "submit", submit_with_span)

    def uninstall(self):
        """Put every replaced attribute back, newest replacement first."""
        global _ACTIVE
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    # -- collection -------------------------------------------------------

    def clear(self):
        """Drop every span recorded so far, here and in the spool."""
        self.spans.clear()
        for entry in os.listdir(self.spool_dir):
            if entry.startswith("spans-"):
                os.remove(os.path.join(self.spool_dir, entry))

    def collect(self):
        """This process's spans plus every spooled worker span."""
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans-"):
                continue
            with open(os.path.join(self.spool_dir, entry),
                      encoding="utf-8") as spool:
                spans.extend(tuple(json.loads(line)) for line in spool)
        return spans


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans):
    """``{name: {"self_ns", "total_ns", "calls"}}`` over ``spans``."""
    children = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(lambda: {"self_ns": 0, "total_ns": 0, "calls": 0})
    for span_id, _, _, name, start, end, calls in spans:
        entry = totals[name]
        entry["self_ns"] += end - start - _covered(children[span_id], start, end)
        entry["total_ns"] += end - start
        entry["calls"] += calls
    return dict(totals)
