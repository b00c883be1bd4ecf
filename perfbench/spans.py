"""Outside-in span recorder for the layer table.

The recorder wraps each layer's entry points from the outside: it replaces the
name a caller resolves at call time (a module global such as
``repro.core.session.plan_queries``, or a method on the class that defines it)
with a timing wrapper, and restores the original on :meth:`SpanRecorder.uninstall`.
Nothing under ``src/`` knows it is being traced.

Each thread keeps its own span stack, because the service's dispatcher threads
run requests concurrently.  A span's *self time* is its duration minus the time
its nested spans cover.  Per-name totals (calls, total and self seconds) are
kept for every span; raw ``(name, thread, start, end, parent)`` spans are kept
in memory only for the coarse layers (sessions, planner, store, refinement,
executor, pool, ranking) — the engine's per-node calls are too many to hold —
and are written out by :meth:`SpanRecorder.dump` when the benchmark ends.
Spans inside forked worker processes are not collected.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Callable

#: (module, attribute path, span name).  Each entry is patched where callers
#: resolve it: module globals in the calling module, methods on the defining class.
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.data.dataset", "Dataset.fingerprint", "data.fingerprint"),
    ("repro.core.engine.counting", "CountingEngine.child_block", "engine.block"),
    ("repro.core.engine.counting", "CountingEngine.match", "engine.match"),
    # SearchState.most_general resolves minimal_patterns in top_down's globals.
    ("repro.core.top_down", "minimal_patterns", "minimality"),
    ("repro.core.top_down", "SweepAssembler.record", "assembly"),
    # The session imports both by name.
    ("repro.core.session", "refine_sweep", "refine"),
    ("repro.core.session", "plan_queries", "planner"),
    ("repro.core.session", "AuditSession.run_many", "session"),
    ("repro.core.session", "AuditSession.run_detector", "session"),
    ("repro.core.engine.parallel", "ParallelSearchExecutor.search", "executor.search"),
    ("repro.service.pool", "SessionPool.lease", "service.lease"),
)
STORE_CLASSES = (
    ("repro.core.result_store", "InMemoryResultStore"),
    ("repro.core.result_store", "DiskResultStore"),
)
STORE_METHODS = {
    "lookup": "store.lookup",
    "extendable": "store.lookup",
    "refinable": "store.lookup",
    "coverage": "store.lookup",
    "insert": "store.insert",
}
#: Span names whose individual spans are kept (the rest are only totalled).
KEPT = frozenset(
    {
        "data.rank",
        "data.fingerprint",
        "session",
        "planner",
        "refine",
        "store.lookup",
        "store.insert",
        "executor.search",
        "service.lease",
    }
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []  # [child seconds, name] per open span
        self.table: dict[str, list] | None = None


class SpanRecorder:
    """Patch layer entry points with timing wrappers and total their spans."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._tables: list[dict[str, list]] = []
        self._tables_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, int, float, float, str | None]] = []
        self.counters: dict[str, float] = {}
        self._counters_lock = threading.Lock()
        #: Last seen ``insertions`` count of each disk store.
        self.insertions_seen: dict[object, int] = {}

    # -- recording ---------------------------------------------------------------
    def _table(self) -> dict[str, list]:
        table = self._local.table
        if table is None:
            table = self._local.table = {}
            with self._tables_lock:
                self._tables.append(table)
        return table

    def count(self, name: str, amount: float = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function: Callable, after: Callable | None = None) -> Callable:
        """``function`` wrapped in a span named ``name``.

        ``after(recorder, args, kwargs, result)`` runs once the span closes, so
        the counts it takes are attributed where the work happened.
        """
        local = self._local
        keep = name in KEPT
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = local.stack
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                table = self._table()
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]
                if keep:
                    self.spans.append((name, threading.get_ident(), start, end, parent))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name ``{"calls", "total_s", "self_s"}`` summed over all threads."""
        merged: dict[str, dict[str, float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, own) in list(table.items()):
                row = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += own
        return merged

    def reset(self) -> None:
        """Forget every total, count and kept span (patches stay installed)."""
        with self._tables_lock:
            for table in self._tables:
                table.clear()
        with self._counters_lock:
            self.counters.clear()
        self.spans.clear()

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner: object, attribute: str, name: str, after=None) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, after))
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Patch every layer entry point (idempotent)."""
        if self._patches:
            return
        from repro.ranking.base import Ranker

        for module_name, path, name in LAYER_ENTRY_POINTS:
            owner: object = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self._patch(owner, attribute, name, _AFTER.get(name))
        for module_name, class_name in STORE_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method, name in STORE_METHODS.items():
                if method in cls.__dict__:
                    after = _count_disk_insert if (method, class_name) == ("insert", "DiskResultStore") else None
                    self._patch(cls, method, name, after)
        # Every concrete ranker defines its own rank().
        importlib.import_module("repro.ranking.score")
        pending = list(Ranker.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "rank" in cls.__dict__:
                self._patch(cls, "rank", "data.rank")

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        """Write the kept spans (one JSON object per line) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, thread, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "thread": thread,
                            "start_s": round(start - origin, 6),
                            "end_s": round(end - origin, 6),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def _count_minimality_inputs(recorder: SpanRecorder, args, kwargs, result) -> None:
    patterns = args[0] if args else kwargs["patterns"]
    if hasattr(patterns, "__len__"):
        recorder.count("minimality.input_patterns", len(patterns))


def _count_plan_steps(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("planner.steps", len(result.steps))


def _count_disk_insert(recorder: SpanRecorder, args, kwargs, result) -> None:
    # A written entry bumps the store's insertion count and is the newest file.
    store = args[0]
    if store.insertions == recorder.insertions_seen.get(store, 0):
        return
    recorder.insertions_seen[store] = store.insertions
    newest = max(store.directory.glob("*.json"), key=lambda p: p.stat().st_mtime_ns, default=None)
    if newest is not None:
        recorder.count("store.bytes_written", newest.stat().st_size)


_AFTER = {
    "minimality": _count_minimality_inputs,
    "planner": _count_plan_steps,
}
