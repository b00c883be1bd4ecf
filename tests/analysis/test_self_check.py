"""The repository lints itself clean — the invariant the CI gate enforces.

This is the test that makes the rules *binding*: a change that re-introduces a
swallowed exception, drops a SearchStats field from a merge path, writes a
guarded attribute outside its lock, or lets ``__all__`` drift will fail here
(and in the blocking ``static-analysis`` CI job) until it is fixed or carries
a justified suppression.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_lints_clean():
    report = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.errors == [], report.errors
    assert report.findings == [], f"repro-lint found:\n{rendered}"
    assert report.files_checked > 100  # the walk really covered the tree


def test_rl001_anchors_are_present_in_the_real_tree():
    """Guard against the completeness rule going silently inert.

    RL001 only compares anchors it has seen; if ``SearchStats`` or its
    ``absorb``/``as_dict``/snapshot hops were renamed, the rule would pass
    vacuously.  Pin the anchor
    names so a rename shows up as a test failure with a pointer to update the
    rule alongside the code.
    """
    from repro.analysis.rules.rl001_stats import StatsCompletenessRule
    from repro.analysis.source import FileCache

    cache = FileCache()
    rule = StatsCompletenessRule()
    for relative in (
        "src/repro/core/stats.py",
        "src/repro/core/engine/counting.py",
        "src/repro/core/pattern_graph.py",
    ):
        source = cache.load(str(REPO_ROOT / relative))
        assert source is not None, relative
        list(rule.check(source))
    assert rule._stats_class is not None
    assert rule._absorb is not None
    assert rule._as_dict is not None
    assert rule._snapshot is not None
    assert rule._publish is not None


def test_rl002_scope_matches_the_modules_with_cross_thread_state():
    """RL002 selects files by path; pin what it selects in the real tree.

    A module moved or deleted out from under the path test would leave the
    rule checking nothing there without any finding to say so.
    """
    from repro.analysis.rules.rl002_locks import LockDisciplineRule
    from repro.analysis.source import FileCache

    cache = FileCache()
    rule = LockDisciplineRule()
    package = REPO_ROOT / "src" / "repro"
    scoped = set()
    for path in sorted(package.rglob("*.py")):
        source = cache.load(str(path))
        assert source is not None, path
        if rule.applies_to(source):
            scoped.add(path.relative_to(package).as_posix())
    service = {
        path.relative_to(package).as_posix() for path in (package / "service").rglob("*.py")
    }
    assert "service/pool.py" in service
    assert scoped == service | {"core/engine/parallel.py"}
