"""RL001 — SearchStats completeness across merge, serde, and snapshot paths.

``SearchStats`` is the single aggregation point for every counter the engine
exposes, and history shows how it drifts: a new counter field is added and a
hand-rolled merge, the ``extra`` side table's serialisation, or the engine's
snapshot→``publish_stats`` hop silently drops it.  The counter then reads zero
in persisted sweep results while looking perfectly healthy in unit tests that
only exercise in-memory objects.  (``as_dict`` and ``stats_from_dict`` read
``STATS_FIELDS``, a tuple of field names and types reflected from the class
once at import, so they cannot drift; a JSON round-trip test in
``tests/core/test_stats.py`` covers them.)

The rule collects its anchors while the driver feeds it files, then compares
them in :meth:`finalize`:

* the ``SearchStats`` class definition — field names and which fields carry a
  same-line ``# repro-lint: disable=RL001`` exemption;
* ``SearchStats.absorb`` — must be reflection-based (a ``fields(...)`` call)
  or name every field;
* ``SearchStats.as_dict`` — must fold in ``self.extra``;
* ``CountingEngine.snapshot`` and ``publish_stats`` — every key the snapshot
  emits must be consumed (as a string constant) by ``publish_stats``.

A field that is *deliberately* excluded from a path opts out with the
suppression on its own definition line; the rule consumes it through
``source.is_suppressed`` so an exemption that stops matching anything is
reported as RL005 like any other stale annotation.  Checks only run when both
sides of a comparison were seen in the run, so linting a single file (or an
in-memory fixture) never produces spurious "missing function" noise.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import SourceFile


def _string_constants(node: ast.AST) -> set[str]:
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _calls_fields(node: ast.AST) -> bool:
    """Whether ``node`` contains a ``fields(...)`` call (dataclass reflection)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name == "fields":
                return True
    return False


class _Anchor:
    """One collected definition: the node plus the file it came from."""

    def __init__(self, source: SourceFile, node: ast.AST) -> None:
        self.source = source
        self.node = node


class StatsCompletenessRule(Rule):
    code = "RL001"
    name = "stats-completeness"
    description = (
        "every SearchStats counter field must survive absorb, as_dict must "
        "fold in the extra counters, and every engine snapshot key must reach "
        "publish_stats (or carry an explicit RL001 exemption)"
    )

    #: Fields that are bookkeeping rather than counters; ``extra`` is the
    #: open-ended side table and is checked separately (as_dict must fold it).
    STRUCTURAL_FIELDS = frozenset({"extra"})

    def __init__(self) -> None:
        self._stats_class: _Anchor | None = None
        self._absorb: _Anchor | None = None
        self._as_dict: _Anchor | None = None
        self._snapshot: _Anchor | None = None
        self._publish: _Anchor | None = None

    def applies_to(self, source: SourceFile) -> bool:
        return "repro/" in source.module_path and "tests/" not in source.module_path

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == "SearchStats":
                self._stats_class = _Anchor(source, node)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        if item.name == "absorb":
                            self._absorb = _Anchor(source, item)
                        elif item.name == "as_dict":
                            self._as_dict = _Anchor(source, item)
            elif isinstance(node, ast.FunctionDef) and node.name == "publish_stats":
                self._publish = _Anchor(source, node)
            elif isinstance(node, ast.ClassDef) and node.name == "CountingEngine":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "snapshot":
                        self._snapshot = _Anchor(source, item)
        return ()

    # -- field extraction ------------------------------------------------------
    def _fields(self) -> list[tuple[str, int]]:
        """``(name, line)`` for every SearchStats field."""
        assert self._stats_class is not None
        return [
            (item.target.id, item.lineno)
            for item in self._stats_class.node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]

    def _exempt(self, line: int) -> bool:
        """Whether the field opted out on its definition line (consumes RL005 credit)."""
        assert self._stats_class is not None
        return self._stats_class.source.is_suppressed(line, self.code)

    # -- finalize: compare the anchors ----------------------------------------
    def finalize(self) -> Iterator[Finding]:
        if self._stats_class is None:
            return
        fields = [
            (name, line)
            for name, line in self._fields()
            if name not in self.STRUCTURAL_FIELDS
        ]
        yield from self._check_absorb(fields)
        yield from self._check_as_dict_folds_extra()
        yield from self._check_snapshot_path()

    def _check_absorb(self, fields: list[tuple[str, int]]) -> Iterator[Finding]:
        if self._absorb is None:
            return
        if _calls_fields(self._absorb.node):
            return  # reflection-based: new fields merge for free
        named = _string_constants(self._absorb.node)
        mentioned = {
            node.attr
            for node in ast.walk(self._absorb.node)
            if isinstance(node, ast.Attribute)
        }
        for name, line in fields:
            if name in named or name in mentioned:
                continue
            if self._exempt(line):
                continue
            yield self.finding(
                self._absorb.source,
                self._absorb.node.lineno,
                f"SearchStats.absorb drops field {name!r}: the merge is "
                "hand-rolled and never references it — use dataclasses."
                "fields() reflection or add the field explicitly",
            )

    def _check_as_dict_folds_extra(self) -> Iterator[Finding]:
        if self._as_dict is None:
            return
        folds_extra = any(
            isinstance(node, ast.Attribute)
            and node.attr == "extra"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            for node in ast.walk(self._as_dict.node)
        )
        if not folds_extra:
            yield self.finding(
                self._as_dict.source,
                self._as_dict.node.lineno,
                "SearchStats.as_dict never reads self.extra: engine-specific "
                "counters in the side table are silently dropped from "
                "persisted results — fold the extra dict into the output",
            )

    def _check_snapshot_path(self) -> Iterator[Finding]:
        if self._snapshot is None or self._publish is None:
            return
        emitted = self._snapshot_keys()
        consumed = _string_constants(self._publish.node)
        consumed |= {
            node.attr
            for node in ast.walk(self._publish.node)
            if isinstance(node, ast.Attribute)
        }
        for key, line in sorted(emitted.items()):
            if key in consumed:
                continue
            if self._snapshot.source.is_suppressed(line, self.code):
                continue
            yield self.finding(
                self._publish.source,
                self._publish.node.lineno,
                f"publish_stats never consumes snapshot key {key!r}: the "
                "engine counts it but the session's snapshot-delta path "
                "drops it before it reaches SearchStats — wire the key "
                "through (or exempt it on the snapshot line)",
            )

    def _snapshot_keys(self) -> dict[str, int]:
        """String keys of the dict(s) ``snapshot`` returns, with their lines."""
        assert self._snapshot is not None
        keys: dict[str, int] = {}
        for node in ast.walk(self._snapshot.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for child in ast.walk(node.value):
                if isinstance(child, ast.Dict):
                    for key in child.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            keys[key.value] = key.lineno
        return keys
