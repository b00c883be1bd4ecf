"""Compare benchmark artifacts against their committed baselines / gates.

Two artifacts are guarded:

* ``BENCH_engine.json`` — records, per (workload, problem, algorithm), the
  engine's speedup over the naive per-pattern counting path measured *on the
  same machine in the same run*.  That ratio is largely hardware-independent,
  so it is the quantity this checker guards: a drop of more than ``tolerance``
  (default 20%) relative to the committed baseline ratio fails the check, which
  catches changes that slow the engine down without having to compare absolute
  seconds across machines.  On machines where numba is importable the artifact
  also records the compiled-kernel vs numpy-kernel ratio, gated at
  ``COMPILED_TARGET_SPEEDUP`` on the IterTD k-sweeps (skipped — recorded as
  ``null`` — when numba is absent).
* ``BENCH_planner.json`` (schema 3) — records the query planner's per-query-loop
  vs planner-served comparison.  Its gates are *counters*, not ratios
  (bit-identical results, strictly fewer root searches and batch evaluations,
  balanced cache-hit/miss provenance, threshold tuning anchored on exactly one
  full run with every other threshold implication-refined, two-sided extension
  observed on both the prefix and suffix side), so they are machine-independent
  by construction and checked exactly.

A missing planner artifact is skipped with a note — the engine-only
workflow stays usable.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py     # regenerate
    PYTHONPATH=src python benchmarks/bench_query_planner.py         # regenerate
    python benchmarks/check_regression.py                           # compare

The check is also wired into the opt-in ``bench_smoke`` pytest marker
(``pytest benchmarks -m bench_smoke``) so tier-1 test runs stay fast.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_engine.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_engine_baseline.json"
DEFAULT_PLANNER = REPO_ROOT / "BENCH_planner.json"

#: Maximum tolerated relative drop in the engine-vs-naive speedup.
DEFAULT_TOLERANCE = 0.20

#: Minimum compiled-vs-numpy kernel speedup on the IterTD k-sweeps, gated only
#: when the artifact was produced on a machine with numba importable.
COMPILED_TARGET_SPEEDUP = 1.5

#: Gates the planner artifact must pass (see bench_query_planner.py).
PLANNER_GATES = (
    "results_bit_identical",
    "fewer_full_searches",
    "fewer_batch_evaluations",
    "one_miss_per_step",
    "every_query_served",
    # Resumable-sweep gates (artifact schema 2): partial hits must be observed
    # and extension must strictly beat the full covering re-runs.
    "partial_results_bit_identical",
    "partial_hits_observed",
    "extension_fewer_full_searches",
    "extension_fewer_batch_evaluations",
    # Implication gates (artifact schema 3): threshold tuning is one anchored
    # run plus refinements, and two-sided extension covers both directions.
    "tuning_results_bit_identical",
    "tuning_implication_hits_observed",
    "tuning_one_anchor_per_group",
    "tuning_fewer_full_searches",
    "tuning_fewer_batch_evaluations",
    "two_sided_results_bit_identical",
    "prefix_extension_observed",
    "suffix_extension_observed",
    "two_sided_fewer_batch_evaluations",
)


def entry_key(entry: dict) -> tuple[str, str, str]:
    return (entry["workload"], entry["problem"], entry["algorithm"])


def check_regression(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Return a list of regression descriptions (empty when the check passes)."""
    problems: list[str] = []
    current_entries = {entry_key(entry): entry for entry in current.get("workloads", [])}
    baseline_entries = {entry_key(entry): entry for entry in baseline.get("workloads", [])}
    if not baseline_entries:
        problems.append("baseline artifact contains no workload entries")
    for key, base in baseline_entries.items():
        now = current_entries.get(key)
        if now is None:
            problems.append(f"{'/'.join(key)}: missing from the current artifact")
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if now["speedup"] < floor:
            problems.append(
                f"{'/'.join(key)}: speedup {now['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - {tolerance:.0%})"
            )
    summary = current.get("summary", {})
    if not summary.get("meets_target", False):
        problems.append(
            f"current artifact misses the k-sweep target: min speedup "
            f"{summary.get('k_sweep_min_speedup', 0.0):.2f}x < "
            f"{summary.get('target_speedup', 0.0):.1f}x"
        )
    # Compiled kernels only gate where they can run; a numba-free run records
    # numba_available=false and the gate is intentionally skipped.
    if summary.get("numba_available"):
        compiled_min = summary.get("compiled_kernel_min_speedup")
        if not isinstance(compiled_min, (int, float)):
            problems.append(
                "numba is available but the artifact records no "
                "compiled_kernel_min_speedup"
            )
        elif compiled_min < COMPILED_TARGET_SPEEDUP:
            problems.append(
                f"compiled kernels too slow: min speedup over numpy "
                f"{compiled_min:.2f}x < {COMPILED_TARGET_SPEEDUP:.1f}x on the "
                "IterTD k-sweeps"
            )
    return problems


def check_planner(current: dict) -> list[str]:
    """Gate failures of a ``BENCH_planner.json`` artifact (empty when it passes).

    The planner's gates are exact counter comparisons, so there is no committed
    baseline and no tolerance: a gate is either true or the planner regressed.
    """
    problems: list[str] = []
    summary = current.get("summary") or {}
    gates = summary.get("gates")
    if not isinstance(gates, dict):
        return ["planner artifact has no summary.gates mapping"]
    for name in PLANNER_GATES:
        if name not in gates:
            problems.append(f"planner gate {name}: missing from the artifact")
        elif not gates[name]:
            problems.append(f"planner gate {name}: failed")
    # Warm-store gates only gate when the mode ran (it needs a child process).
    for name, value in gates.items():
        if name.startswith("warm_store") and not value:
            problems.append(f"planner gate {name}: failed")
    saved = summary.get("full_searches_saved")
    if isinstance(saved, (int, float)) and saved <= 0:
        problems.append(f"planner saved no root searches ({saved})")
    # The resumable-store acceptance counters, re-verified from the raw section
    # (not just the boolean gates): partial hits happened, and extension did
    # strictly fewer batch evaluations than the full covering re-runs.
    partial = current.get("partial_overlap") or {}
    extension = partial.get("extension") or {}
    rerun = partial.get("covering_rerun") or {}
    partial_hits = extension.get("result_cache_partial_hits")
    if not isinstance(partial_hits, (int, float)) or partial_hits <= 0:
        problems.append(
            f"planner partial-overlap mode observed no partial hits ({partial_hits!r})"
        )
    ext_batches = extension.get("batch_evaluations")
    rerun_batches = rerun.get("batch_evaluations")
    if (
        not isinstance(ext_batches, (int, float))
        or not isinstance(rerun_batches, (int, float))
        or not ext_batches < rerun_batches
    ):
        problems.append(
            f"extension did not strictly beat the covering re-run on batch "
            f"evaluations ({ext_batches!r} vs {rerun_batches!r})"
        )
    # The implication acceptance counters, re-verified from the raw
    # threshold-tuning section: implication hits happened, exactly one anchor
    # per threshold group carried a store miss, and the refinement batch's
    # engine work stayed strictly below the per-query loop's.
    tuning = current.get("threshold_tuning") or {}
    tuning_planned = tuning.get("planned") or {}
    tuning_cold = tuning.get("per_query") or {}
    n_thresholds = tuning.get("n_thresholds")
    hits = tuning_planned.get("implication_hits")
    if not isinstance(hits, (int, float)) or hits <= 0:
        problems.append(
            f"planner threshold-tuning mode observed no implication hits ({hits!r})"
        )
    elif isinstance(n_thresholds, int) and (
        tuning_planned.get("result_cache_misses") != 1
        or hits != n_thresholds - 1
    ):
        problems.append(
            f"threshold tuning did not anchor exactly one full run per group "
            f"(misses={tuning_planned.get('result_cache_misses')!r}, "
            f"implication_hits={hits!r} of {n_thresholds} thresholds)"
        )
    for counter in ("full_searches", "batch_evaluations"):
        refined_work = tuning_planned.get(counter)
        cold_work = tuning_cold.get(counter)
        if (
            not isinstance(refined_work, (int, float))
            or not isinstance(cold_work, (int, float))
            or not refined_work < cold_work
        ):
            problems.append(
                f"threshold tuning's refinement work did not stay strictly below "
                f"the per-query loop on {counter} ({refined_work!r} vs {cold_work!r})"
            )
    return problems


def load_artifact(path: Path) -> dict:
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=Path, default=DEFAULT_CURRENT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--planner", type=Path, default=DEFAULT_PLANNER,
                        help="planner artifact to gate (skipped, with a note, "
                             "when the file does not exist)")
    args = parser.parse_args(argv)

    if not args.current.exists():
        print(f"current artifact {args.current} not found; run bench_engine_throughput.py first")
        return 2
    if not args.baseline.exists():
        print(f"baseline artifact {args.baseline} not found")
        return 2
    problems = check_regression(
        load_artifact(args.current), load_artifact(args.baseline), args.tolerance
    )
    if args.planner.exists():
        problems.extend(check_planner(load_artifact(args.planner)))
    else:
        print(f"planner artifact {args.planner} not found; skipping the planner "
              "gates (run bench_query_planner.py to produce it)")
    if problems:
        print("benchmark regression check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"throughput regression check passed (tolerance {args.tolerance:.0%})")
    if args.planner.exists():
        print("planner gates passed (bit-identical, strictly fewer searches/batches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
