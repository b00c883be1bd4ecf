"""The benchmark's four workloads: inputs, set-up, measured operations, oracle set.

Datasets are fixed: they stand for the paper's public datasets (German Credit,
Student, COMPAS) and for one synthetic scaling instance.  The seed draws what a
user of the library would vary between sessions — the order of queries, and
the tenant of each service request — so two seeds exercise the same code on
the same data in a different sequence.

Every query a workload can send is listed by its ``universe()``; the oracle
and the golden digests cover exactly that set.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.core import (
    AuditSession,
    DetectionQuery,
    DiskResultStore,
    ExecutionConfig,
    GlobalBoundSpec,
    ProportionalBoundSpec,
    paper_default_global_bounds,
    paper_default_proportional_bounds,
    step_lower_bounds,
)
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.experiments.workloads import (
    compas_workload,
    german_credit_workload,
    student_workload,
)
from repro.ranking.base import PrecomputedRanker
from repro.service import AuditService
from repro.service.registry import ranking_key

#: Paper defaults of Section VI-A.
PAPER_TAU_S, PAPER_K = 50, (10, 49)

#: The synthetic scaling instance (the row-scaling benchmark's generator at
#: 10k rows; 8 attributes keep one serial query under a second).
SYNTH_ROWS, SYNTH_ATTRIBUTES, SYNTH_SEED = 10_000, 8, 611
SYNTH_CARDINALITY_CYCLE = (2, 3, 2, 4, 3, 2, 5)
SYNTH_K = (10, 30)
#: Size threshold of the sharded session's warm-up query (a fifth of the rows).
WARM_TAU_S = SYNTH_ROWS // 5
#: German Credit restricted to its first 12 attributes (the paper's attribute
#: sweeps); PropBounds over all 20 takes about 10 s per query.
GERMAN_PROJECTED_ATTRIBUTES = 12


@dataclass(frozen=True)
class Call:
    """One query of a measured operation, on a named input."""

    data: str
    label: str
    query: DetectionQuery

    @property
    def qid(self) -> str:
        q = self.query
        return f"{self.data}/{q.algorithm}/{self.label}/tau{q.tau_s}/k{q.k_min}-{q.k_max}"


@dataclass
class Op:
    """One measured operation: ``run()`` returns one report per call."""

    calls: tuple[Call, ...]
    run: Callable[[], list]


@dataclass
class Input:
    dataset: object
    ranker: object


# -- inputs --------------------------------------------------------------------
def _german(attributes: int | None = None) -> Input:
    workload = german_credit_workload(1.0)
    dataset = workload.dataset()
    if attributes is not None:
        dataset = dataset.project(dataset.attribute_names[:attributes])
    return Input(dataset, workload.ranker_factory())


def _synthetic() -> Input:
    cardinalities = [
        SYNTH_CARDINALITY_CYCLE[i % len(SYNTH_CARDINALITY_CYCLE)] for i in range(SYNTH_ATTRIBUTES)
    ]
    rng = np.random.default_rng(SYNTH_SEED)
    spec = SyntheticSpec(
        n_rows=SYNTH_ROWS,
        cardinalities=cardinalities,
        score_weights=rng.uniform(-1.0, 1.0, size=SYNTH_ATTRIBUTES).tolist(),
        noise=0.5,
        skew=0.9,
        seed=SYNTH_SEED,
    )
    return Input(synthetic_dataset(spec), PrecomputedRanker(score_column="score"))


def _paper_call(data: str, algorithm: str) -> Call:
    """One query at the paper's defaults (step bounds, or alpha 0.8 for PropBounds)."""
    if algorithm == "prop_bounds":
        label, bound = "alpha0.8", paper_default_proportional_bounds()
    else:
        label, bound = "paper", paper_default_global_bounds()
    return Call(data, label, DetectionQuery(bound, PAPER_TAU_S, *PAPER_K, algorithm))


def _synthetic_calls() -> list[Call]:
    # The scaling instance's bounds: a permissive step schedule (so high-scoring
    # subtrees keep expanding) and alpha = 0.8; tau_s is 0.5% of the rows.
    tau_s = SYNTH_ROWS // 200
    k_min, k_max = SYNTH_K
    steps = GlobalBoundSpec(lower_bounds=step_lower_bounds({k_min: 2.0, (k_min + k_max) // 2: 4.0}))
    return [
        Call("synthetic", "steps2-4", DetectionQuery(steps, tau_s, k_min, k_max, "global_bounds")),
        Call("synthetic", "steps2-4", DetectionQuery(steps, tau_s, k_min, k_max, "iter_td")),
        Call("synthetic", "alpha0.8", DetectionQuery(ProportionalBoundSpec(alpha=0.8), tau_s, k_min, k_max, "prop_bounds")),
    ]


def _one_shot(inputs: dict, rankings: dict, call: Call) -> list:
    with AuditSession(inputs[call.data].dataset, rankings[call.data]) as session:
        return [session.run(call.query)]


def _run_one(session: AuditSession, query: DetectionQuery) -> list:
    return [session.run(query)]


# -- closed loops ----------------------------------------------------------------
class ClosedLoop:
    """A closed loop: one client runs whole cycles of operations back to back.

    A run makes ``round(seconds / cycle_s)`` cycles, so every run of a workload
    takes the same number of samples and its percentiles mean the same thing.
    ``cycle_s`` is chosen per workload so that the median and the tail sample
    fall inside one group of similar operations rather than between two (a
    rank between groups jumps with small timing changes), and so that a
    20-second run lasts 15-35 s on a 2-core x86 box.
    """

    name = ""
    why = ""
    cycle_s = 1.0
    setup_repeats = 5

    def inputs(self) -> dict[str, Input]:
        raise NotImplementedError

    def universe(self) -> list[Call]:
        raise NotImplementedError

    def setup(self, inputs: dict[str, Input], scratch: Path):
        """Rank the inputs and build what serves them; returns the state."""
        return {name: value.ranker.rank(value.dataset) for name, value in inputs.items()}

    def close(self, state) -> None:
        pass

    def layer_counts(self, state) -> dict:
        return {}

    def cycle(self, state, inputs: dict[str, Input], rng: np.random.Generator, scratch: Path) -> Iterator[Op]:
        raise NotImplementedError


class ColdAudit(ClosedLoop):
    name = "cold_audit"
    why = (
        "one-shot audits in fresh serial sessions: the search layers (engine, classify, "
        "minimality) do nearly all the work; planner, store, service and executor do none"
    )
    cycle_s = 2.5
    setup_repeats = 9

    def inputs(self):
        return {"german": _german(), "german12": _german(GERMAN_PROJECTED_ATTRIBUTES), "synthetic": _synthetic()}

    def universe(self):
        return [
            _paper_call("german", "global_bounds"),
            _paper_call("german", "iter_td"),
            _paper_call("german12", "prop_bounds"),
            *_synthetic_calls(),
        ]

    def cycle(self, state, inputs, rng, scratch):
        calls = self.universe()
        for index in rng.permutation(len(calls)):
            call = calls[index]
            yield Op((call,), partial(_one_shot, inputs, state, call))


class ShardedAudit(ClosedLoop):
    name = "sharded_audit"
    why = (
        "one warm workers=2 process-backend session on the synthetic instance: the only "
        "workload that runs engine/parallel sharding, dispatch and merge"
    )
    cycle_s = 1.25
    setup_repeats = 9

    def inputs(self):
        return {"synthetic": _synthetic()}

    def universe(self):
        return _synthetic_calls()

    def setup(self, inputs, scratch):
        value = inputs["synthetic"]
        ranking = value.ranker.rank(value.dataset)
        # No result reuse across cycles: every query is a real sharded search.
        session = AuditSession(
            value.dataset, ranking, execution=ExecutionConfig(workers=2), result_cache_capacity=0
        )
        # The warm-up pays the shared-memory publish and the pool spawn, and
        # hands each worker one small shard.  Its high size threshold keeps the
        # shards far shorter than the executor's 50 ms result poll, so set-up
        # time does not jump by one poll from run to run.
        warm = self.universe()[0].query
        session.run(DetectionQuery(warm.bound, WARM_TAU_S, warm.k_min, warm.k_min, warm.algorithm))
        return session

    def close(self, state):
        state.close()

    def cycle(self, state, inputs, rng, scratch):
        calls = self.universe()
        for index in rng.permutation(len(calls)):
            call = calls[index]
            yield Op((call,), partial(_run_one, state, call.query))


#: The analyst's constant-threshold sweep (one anchor plus refinements).
TUNING_THRESHOLDS = (12.0, 16.0, 20.0, 24.0)


def _tuning_batches() -> list[list[Call]]:
    data = "german12"
    paper = paper_default_global_bounds()

    def gb(tau, k_min, k_max, bound=paper, label="paper", algorithm="global_bounds"):
        return Call(data, label, DetectionQuery(bound, tau, k_min, k_max, algorithm))

    sweep = [
        gb(PAPER_TAU_S, *PAPER_K, bound=GlobalBoundSpec(lower_bounds=level), label=f"L{level:g}")
        for level in TUNING_THRESHOLDS
    ]
    return [
        sweep,
        # nested + duplicate k ranges
        [gb(PAPER_TAU_S, 10, 49), gb(PAPER_TAU_S, 15, 30), gb(PAPER_TAU_S, 10, 49)],
        # overlapping k ranges
        [gb(PAPER_TAU_S, 20, 35, algorithm="iter_td"), gb(PAPER_TAU_S, 25, 45, algorithm="iter_td")],
        # a mid-range sweep, then a request sticking out on both sides of it
        [gb(40, 20, 30)],
        [gb(40, 10, 45)],
    ]


class TuningSession(ClosedLoop):
    name = "tuning_session"
    why = (
        "an analyst's threshold sweep, nested/overlapping k batches and two-sided extensions on a "
        "disk-backed session, replayed by a second session: planner, refinement, store and serde"
    )
    cycle_s = 2.5
    setup_repeats = 9

    def inputs(self):
        return {"german12": _german(GERMAN_PROJECTED_ATTRIBUTES)}

    def universe(self):
        seen: dict[str, Call] = {}
        for batch in _tuning_batches():
            for call in batch:
                seen.setdefault(call.qid, call)
        return list(seen.values())

    def setup(self, inputs, scratch):
        value = inputs["german12"]
        ranking = value.ranker.rank(value.dataset)
        directory = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
        session = AuditSession(value.dataset, ranking, store=DiskResultStore(directory))
        # The analyst's session is warm: one paper-default audit fills its engine.
        session.run(_paper_call("german12", "global_bounds").query)
        return session, directory

    def close(self, state):
        session, directory = state
        session.close()
        shutil.rmtree(directory, ignore_errors=True)

    def cycle(self, state, inputs, rng, scratch):
        warm, _ = state
        batches = [[batch[i] for i in rng.permutation(len(batch))] for batch in _tuning_batches()]
        directory = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
        try:
            # Each cycle is a new analyst session over a fresh directory that
            # adopts the warm engine, so writes sit beside reads every cycle.
            for _ in range(2):
                session = AuditSession(
                    warm.dataset, warm.ranking, counter=warm.counter, store=DiskResultStore(directory)
                )
                try:
                    for batch in batches:
                        queries = [call.query for call in batch]
                        yield Op(tuple(batch), partial(session.run_many, queries))
                finally:
                    session.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


# -- the service -----------------------------------------------------------------
SERVICE_SCALE = 0.25
SERVICE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Size thresholds per dataset.  Student (33 attributes) is by far the costliest
#: to search, so it is asked at one threshold only.
SERVICE_TAU_S = {"german": (16, 25), "student": (25,), "compas": (16, 25)}
#: The k ranges one (dataset, threshold) group is asked, in this order: after a
#: store refresh the first misses, the second extends it downwards (a prefix
#: re-run) and the third is a containment hit.
SERVICE_K_RANGES = ((20, 49), (10, 49), (10, 29))


class ServiceMix(ClosedLoop):
    """One client sending single requests to the service, one after the other."""

    name = "service_mix"
    why = (
        "single GlobalBounds requests from 3 tenants to one 2-dispatcher AuditService over German, "
        "Student and COMPAS after each store refresh: a miss, a prefix extension and a store hit per group"
    )
    cycle_s = 0.75
    setup_repeats = 7
    #: Latency limit behind the SLO-missed share (failed requests count as misses).
    slo_s = 0.5
    data_factories = {
        "german": german_credit_workload,
        "student": student_workload,
        "compas": compas_workload,
    }

    def inputs(self):
        result = {}
        for name, factory in self.data_factories.items():
            workload = factory(SERVICE_SCALE)
            result[name] = Input(workload.dataset(), workload.ranker_factory())
        return result

    def _groups(self) -> list[list[Call]]:
        return [
            [
                Call(data, "paper", DetectionQuery(paper_default_global_bounds(), tau, k_min, k_max, "global_bounds"))
                for k_min, k_max in SERVICE_K_RANGES
            ]
            for data in self.data_factories
            for tau in SERVICE_TAU_S[data]
        ]

    def universe(self):
        return [call for group in self._groups() for call in group]

    def setup(self, inputs, scratch):
        service = AuditService(dispatchers=2, store_namespace=f"perfbench-{time.monotonic_ns()}")
        try:
            for name, value in inputs.items():
                service.register_dataset(name, value.dataset)
                service.register_ranking(name, "default", value.ranker)
            # Ready to serve: every ranking's pooled session exists and has
            # answered one request, so its engine is warm.
            for group in self._groups():
                call = group[0]
                service.run(SERVICE_TENANTS[0], ranking_key(call.data, "default"), call.query)
        except BaseException:
            service.shutdown(drain=False)
            raise
        return service

    def close(self, state):
        state.shutdown(drain=True)

    def layer_counts(self, state) -> dict:
        return {"sessions_created": state.pool.sessions_created}

    def cycle(self, state, inputs, rng, scratch):
        """Drop every stored sweep (a republished ranking), then interleave the
        groups' requests in a seeded order, each group's in its fixed order."""
        for name in self.data_factories:
            entry = state.pool.lease(ranking_key(name, "default"))
            try:
                entry.session.result_cache.clear()
            finally:
                state.pool.release(entry)
        pending = [list(group) for group in self._groups()]
        while pending:
            group = pending[rng.integers(len(pending))]
            call = group.pop(0)
            if not group:
                pending.remove(group)
            tenant = SERVICE_TENANTS[rng.integers(len(SERVICE_TENANTS))]
            yield Op((call,), partial(state.run, tenant, ranking_key(call.data, "default"), call.query))


WORKLOADS = {
    loop.name: loop for loop in (ColdAudit(), TuningSession(), ServiceMix(), ShardedAudit())
}
