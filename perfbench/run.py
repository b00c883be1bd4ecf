#!/usr/bin/env python3
"""Layered wall-clock benchmark of the bias-detection library.

Run from the repository root::

    python3 perfbench/run.py --workload cold_audit --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --manifest              # rewrite BENCHMARK.json
    python3 perfbench/run.py --write-golden          # rewrite perfbench/golden.json

``--trace 0`` measures the end-to-end metrics with nothing patched.  ``--trace 1``
patches each layer's entry points from the outside (``spans.py``) and reports
the per-layer table instead; closed loops alternate untraced and traced cycles
and the open loop runs its schedule once untraced and once traced, so the
tracer's own overhead is measured too.

Every report is compared with a serial one-shot ``detect_biased_groups`` run
of the same query, computed before the timed window, and every oracle result
with the golden digest kept in ``golden.json``.  Any difference makes the run
incorrect and the exit code 1.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is imported.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DEFAULT_SECONDS = 20

#: (name, unit, better, bound, meaning).  Ratios that are 0 on a healthy run
#: (failed and SLO-missed shares) are printed with the details, not here.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median of repeated set-ups: ranking, session/service construction and registration, pool spawn"),
    ("query_p50_s", "s", "lower", 0.25, "median latency of one operation (query, run_many batch or request)"),
    ("query_tail_s", "s", "lower", 0.25,
     "latency at the highest percentile with 10 samples beyond it (percentile and n in details)"),
    ("queries_per_s", "1/s", "higher", 0.25, "completed queries per wall-clock second"),
    ("cpu_s_per_query", "s", "lower", 0.25, "CPU of the whole process tree, live workers included, per query"),
    ("peak_rss_mb", "MiB", "lower", 0.1, "peak resident memory of the process tree"),
)

#: (name, unit, better, meaning).  Per-query values are means over traced queries.
PER_LAYER = (
    ("data.rank_s", "s/setup", "lower", "Ranker.rank self time per set-up"),
    ("data.fingerprint_s", "s/query", "lower", "Dataset.fingerprint self time per query"),
    ("engine.block_s", "s/query", "lower", "CountingEngine.child_block self time per query"),
    ("engine.match_s", "s/query", "lower", "CountingEngine.match self time per query"),
    ("engine.block_calls", "count/query", "lower", "CountingEngine.child_block calls per query"),
    ("engine.batch_evaluations", "count/query", "lower", "sibling blocks evaluated (SearchStats) per query"),
    ("engine.block_reuses", "count/query", "higher", "cached sibling blocks re-counted (SearchStats) per query"),
    ("engine.cache_hit_ratio", "ratio", "higher", "engine cache hits over hits plus misses"),
    ("search.classify_s", "s/query", "lower", "session span self time after every named child (search loop, detectors)"),
    ("search.nodes_evaluated", "count/query", "lower", "pattern evaluations (SearchStats) per query"),
    ("search.full_searches", "count/query", "lower", "top-down searches started per query"),
    ("minimality.s", "s/query", "lower", "minimal_patterns self time per query"),
    ("minimality.calls", "count/query", "lower", "minimal_patterns calls per query"),
    ("minimality.input_patterns", "count/query", "lower", "patterns passed to minimal_patterns per query"),
    ("assembly.s", "s/query", "lower", "SweepAssembler.record self time per query"),
    ("refine.s", "s/query", "lower", "refine_sweep self time per query"),
    ("refine.nodes_vs_cold", "ratio", "lower",
     "nodes evaluated by batches that refined, over the cold oracle's nodes for their queries (0: none refined)"),
    ("planner.plan_s", "s/query", "lower", "plan_queries self time per query"),
    ("planner.steps_per_query", "ratio", "lower", "plan steps over queries planned"),
    ("store.lookup_s", "s/query", "lower", "result-store lookup/extendable/refinable/coverage self time per query"),
    ("store.insert_s", "s/query", "lower", "result-store insert self time per query"),
    ("store.hit_ratio", "ratio", "higher", "queries answered from a stored or same-batch sweep"),
    ("store.bytes_written", "B/query", "lower", "bytes of disk-store entries written per query"),
    ("executor.search_s", "s/query", "lower", "ParallelSearchExecutor.search self time per query (coordinator)"),
    ("executor.shards", "count/query", "lower", "shards dispatched to workers per query"),
    ("executor.worker_cpu_s", "s/query", "lower", "CPU of live worker processes per query"),
    ("executor.pool_spawns", "count", "lower", "worker pools spawned while measuring"),
    ("executor.worker_restarts", "count", "lower", "workers respawned while measuring"),
    ("service.queue_wait_p50_s", "s", "lower", "median admission-queue wait of a request"),
    ("service.queue_wait_tail_s", "s", "lower", "queue wait at the highest percentile with 10 samples beyond it"),
    ("service.lease_s", "s/query", "lower", "SessionPool.lease self time per request"),
    ("service.sessions_created", "count", "lower", "pooled sessions built while measuring"),
    ("service.shed", "count", "lower", "requests refused by admission control"),
    ("trace.coverage_frac", "ratio", "higher", "named span self time over traced operation wall time"),
    ("trace.overhead_frac", "ratio", "lower", "traced over untraced mean operation time, minus one"),
)


# -- small helpers ----------------------------------------------------------------
def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def result_digest(result) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for k in result.k_values:
        digest.update(f"k={k}:".encode())
        for items in sorted(repr(pattern.items_tuple) for pattern in result[k]):
            digest.update(items.encode())
            digest.update(b";")
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy

    from repro.core import ExecutionConfig
    from repro.core.engine.kernels import resolve_kernel

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": resolve_kernel("auto"),
        "backend": ExecutionConfig().backend,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }


class Oracle:
    """Serial one-shot reports of every query a workload can send."""

    def __init__(self, calls, inputs) -> None:
        from repro.core import detect_biased_groups

        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        rankings = {name: value.ranker.rank(value.dataset) for name, value in inputs.items()}
        self.results = {}
        self.nodes = {}
        self.golden_mismatches = []
        for call in calls:
            q = call.query
            report = detect_biased_groups(
                inputs[call.data].dataset, rankings[call.data], q.bound, q.tau_s, q.k_min, q.k_max, q.algorithm
            )
            self.results[call.qid] = report.result
            self.nodes[call.qid] = report.stats.nodes_evaluated
            if golden.get(call.qid) != result_digest(report.result):
                self.golden_mismatches.append(call.qid)


class Tally:
    """Latencies, failures and (traced) counters of the measured operations."""

    COUNTED = ("nodes_evaluated", "full_searches", "batch_evaluations", "block_reuses", "cache_hits",
               "cache_misses", "result_cache_hits", "parallel_shards", "pool_spawns", "worker_restarts")

    def __init__(self, oracle: Oracle) -> None:
        from repro.service import ServiceOverloadedError

        self._shed_error = ServiceOverloadedError
        self.oracle = oracle
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.queries_done = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        self.traced_queries = 0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.untraced_ops = 0
        self.traced_ops = 0
        self.stats = dict.fromkeys(self.COUNTED, 0)
        self.refined_nodes = [0, 0]  # served, cold
        self.queue_waits: list[float] = []
        self.store_hits = 0
        self.shed = 0

    def record(self, calls, reports, error, latency: float, traced: bool) -> None:
        self.attempted += len(calls)
        if error is not None:
            self.failed += len(calls)
            self.errors.append(f"{type(error).__name__}: {error}"[:300])
            if traced and isinstance(error, self._shed_error):
                self.shed += len(calls)
            return
        ok = len(reports) == len(calls)
        for call, report in zip(calls, reports):
            if report.result != self.oracle.results[call.qid]:
                ok = False
                self.mismatches.append(call.qid)
        if not ok:
            self.failed += len(calls)
            return
        self.latencies.append(latency)
        self.queries_done += len(calls)
        self.store_hits += sum(report.stats.result_cache_hits > 0 for report in reports)
        if traced:
            self.traced_queries += len(calls)
            self.traced_wall += latency
            self.traced_ops += 1
            refined = False
            for report in reports:
                flat = report.stats.as_dict()
                for name in self.COUNTED:
                    self.stats[name] += flat.get(name, 0)
                refined = refined or report.stats.implication_hits > 0
                self.queue_waits.append(report.stats.queue_wait_seconds)
            if refined:
                self.refined_nodes[0] += sum(r.stats.nodes_evaluated for r in reports)
                self.refined_nodes[1] += sum(self.oracle.nodes[c.qid] for c in calls)
        else:
            self.untraced_wall += latency
            self.untraced_ops += 1

    @property
    def correct(self) -> bool:
        return not self.mismatches and not self.oracle.golden_mismatches


# -- closed loops ---------------------------------------------------------------------
def run_closed(loop, args, recorder, scratch: Path) -> tuple[Tally, dict, dict]:
    import numpy as np

    from proctree import live_descendants_cpu_s, tree_cpu_s, tree_peak_rss_mib

    rng = np.random.default_rng(args.seed)
    inputs = loop.inputs()
    tally = Tally(Oracle(loop.universe(), loop.inputs()))
    if recorder is not None:
        recorder.install()
    setup_times = []
    state = None
    for _ in range(loop.setup_repeats):
        if state is not None:
            loop.close(state)
        started = time.perf_counter()
        state = loop.setup(inputs, scratch)
        setup_times.append(time.perf_counter() - started)
    setup_totals = recorder.totals() if recorder is not None else {}
    if recorder is not None:
        recorder.reset()
    cycles = max(1, round(args.seconds / loop.cycle_s))
    if recorder is not None:
        cycles = max(2, cycles + cycles % 2)
    worker_cpu = 0.0
    layer_counts: dict[str, int] = {}
    try:
        cpu_start = tree_cpu_s()
        wall_start = time.perf_counter()
        for index in range(cycles):
            traced = recorder is not None and index % 2 == 1
            if traced:
                recorder.install()
            elif recorder is not None:
                recorder.uninstall()
            workers_before = live_descendants_cpu_s() if traced else 0.0
            counts_before = loop.layer_counts(state) if traced else {}
            for op in loop.cycle(state, inputs, rng, scratch):
                started = time.perf_counter()
                try:
                    reports, error = op.run(), None
                except Exception as caught:  # a typed failure is a measured outcome
                    reports, error = None, caught
                tally.record(op.calls, reports, error, time.perf_counter() - started, traced)
            if traced:
                worker_cpu += live_descendants_cpu_s() - workers_before
                for name, value in loop.layer_counts(state).items():
                    layer_counts[name] = layer_counts.get(name, 0) + value - counts_before[name]
        wall = time.perf_counter() - wall_start
        cpu = tree_cpu_s() - cpu_start
        peak = tree_peak_rss_mib()
    finally:
        if recorder is not None:
            recorder.uninstall()
        loop.close(state)
    measured = {
        "setup_s": statistics.median(setup_times),
        "setup_samples": setup_times,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "cycles": cycles,
        "worker_cpu_s": worker_cpu,
        "setups": len(setup_times),
        "layer_counts": layer_counts,
    }
    return tally, measured, setup_totals


# -- metrics ----------------------------------------------------------------------------
def end_to_end_metrics(tally: Tally, measured: dict, details: dict) -> dict:
    p50 = statistics.median(tally.latencies) if tally.latencies else float("nan")
    tail, percentile = tail_percentile(tally.latencies) if tally.latencies else (float("nan"), 0.0)
    done = max(tally.queries_done, 1)
    values = {
        "setup_s": measured["setup_s"],
        "query_p50_s": p50,
        "query_tail_s": tail,
        "queries_per_s": tally.queries_done / measured["wall_s"],
        "cpu_s_per_query": measured["cpu_s"] / done,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    details.update(
        {
            "samples": len(tally.latencies),
            "tail_percentile": round(percentile, 2),
            "failed_frac": tally.failed / max(tally.attempted, 1),
        }
    )
    units = {name: unit for name, unit, *_ in END_TO_END}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def per_layer_metrics(tally: Tally, measured: dict, totals: dict, setup_totals: dict,
                      counters: dict) -> dict:
    queries = max(tally.traced_queries, 1)

    def self_s(name, table=totals):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    stats = tally.stats
    lookups = stats["cache_hits"] + stats["cache_misses"]
    waits = tally.queue_waits or [0.0]
    per_traced = tally.traced_wall / max(tally.traced_ops, 1)
    per_untraced = tally.untraced_wall / max(tally.untraced_ops, 1)
    overhead = per_traced / per_untraced - 1.0 if per_untraced > 0 else 0.0
    values = {
        "data.rank_s": self_s("data.rank", setup_totals) / measured["setups"],
        "data.fingerprint_s": self_s("data.fingerprint") / queries,
        "engine.block_s": self_s("engine.block") / queries,
        "engine.match_s": self_s("engine.match") / queries,
        "engine.block_calls": calls("engine.block") / queries,
        "engine.batch_evaluations": stats["batch_evaluations"] / queries,
        "engine.block_reuses": stats["block_reuses"] / queries,
        "engine.cache_hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
        "search.classify_s": self_s("session") / queries,
        "search.nodes_evaluated": stats["nodes_evaluated"] / queries,
        "search.full_searches": stats["full_searches"] / queries,
        "minimality.s": self_s("minimality") / queries,
        "minimality.calls": calls("minimality") / queries,
        "minimality.input_patterns": counters.get("minimality.input_patterns", 0) / queries,
        "assembly.s": self_s("assembly") / queries,
        "refine.s": self_s("refine") / queries,
        "refine.nodes_vs_cold": (
            tally.refined_nodes[0] / tally.refined_nodes[1] if tally.refined_nodes[1] else 0.0
        ),
        "planner.plan_s": self_s("planner") / queries,
        "planner.steps_per_query": counters.get("planner.steps", 0) / queries,
        "store.lookup_s": self_s("store.lookup") / queries,
        "store.insert_s": self_s("store.insert") / queries,
        "store.hit_ratio": stats["result_cache_hits"] / queries,
        "store.bytes_written": counters.get("store.bytes_written", 0) / queries,
        "executor.search_s": self_s("executor.search") / queries,
        "executor.shards": stats["parallel_shards"] / queries,
        "executor.worker_cpu_s": measured.get("worker_cpu_s", 0.0) / queries,
        "executor.pool_spawns": stats["pool_spawns"],
        "executor.worker_restarts": stats["worker_restarts"],
        "service.queue_wait_p50_s": statistics.median(waits),
        "service.queue_wait_tail_s": tail_percentile(waits)[0],
        "service.lease_s": self_s("service.lease") / queries,
        "service.sessions_created": measured["layer_counts"].get("sessions_created", 0),
        "service.shed": tally.shed,
        "trace.coverage_frac": (
            sum(row["self_s"] for row in totals.values()) / tally.traced_wall if tally.traced_wall else 0.0
        ),
        "trace.overhead_frac": overhead,
    }
    units = {name: unit for name, unit, *_ in PER_LAYER}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


# -- entry points -----------------------------------------------------------------------
def run_workload(args) -> int:
    import workloads
    from spans import SpanRecorder

    workload = workloads.WORKLOADS[args.workload]
    recorder = SpanRecorder() if args.trace else None
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    details = provenance(args)
    details["why"] = workload.why
    try:
        tally, measured, setup_totals = run_closed(workload, args, recorder, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for key in ("setup_samples", "cycles", "wall_s"):
        details[key] = measured[key]
    details["store_hit_share"] = tally.store_hits / max(tally.queries_done, 1)
    slo_s = getattr(workload, "slo_s", None)
    if slo_s is not None:
        over = sum(latency > slo_s for latency in tally.latencies)
        details["slo_miss_frac"] = (over + tally.failed) / max(tally.attempted, 1)
    details["errors"] = tally.errors[:5]
    details["mismatches"] = sorted(set(tally.mismatches))[:10]
    details["golden_mismatches"] = tally.oracle.golden_mismatches[:10]
    if recorder is None:
        metrics = end_to_end_metrics(tally, measured, details)
    else:
        metrics = per_layer_metrics(tally, measured, recorder.totals(), setup_totals, dict(recorder.counters))
        recorder.dump(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl")
    for name, metric in metrics.items():
        print(f"{args.workload:15s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print("details " + json.dumps(details, default=str))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints one table, fails on any failure."""
    import workloads

    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(completed.stderr[-2000:])
        if not lines:
            continue
        result = json.loads(lines[-1])
        status = status or (0 if result["correct"] and not result["failed"] else 1)
        for metric, value in result["metrics"].items():
            rows.append(f"{name:15s} {metric:28s} {value['value']:14.6g} {value['unit']}")
        rows.append(f"{name:15s} {'correct':28s} {str(result['correct']):>14s} "
                    f"({result['failed']}/{result['attempted']} failed)")
    print("\n".join(rows))
    return status


def write_manifest() -> None:
    import workloads

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_golden() -> None:
    import workloads

    digests = {}
    for workload in workloads.WORKLOADS.values():
        oracle = Oracle(workload.universe(), workload.inputs())
        digests.update({qid: result_digest(result) for qid, result in oracle.results.items()})
    GOLDEN.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    parser.add_argument("--write-golden", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.manifest:
        write_manifest()
        return 0
    if args.write_golden:
        write_golden()
        return 0
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    return run_workload(args)


def run_and_stop() -> int:
    """``main()``, then stop and wait for every process it started, on any exit."""
    from proctree import stop_descendants

    try:
        return main()
    finally:
        leftover = stop_descendants()
        if leftover:
            print(f"perfbench: stopped leftover processes {leftover}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(run_and_stop())
