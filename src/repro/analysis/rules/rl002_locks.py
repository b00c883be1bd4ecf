"""RL002 — lock discipline in the service layer and the parallel engine.

The multi-tenant service keeps every shared structure behind ``self._lock``
(or a ``threading.Condition`` built over it).  Two invariants keep that scheme
deadlock- and race-free, and both are checkable statically:

1. **No blocking calls under a lock.**  Inside a ``with self._lock:`` body,
   calls that can block indefinitely — ``.close()``, ``.join()``,
   ``queue.get(...)``, ``session.run*`` — stall every other thread queued on
   the lock, and ``close``/``join`` of a worker that itself needs the lock is
   a deadlock.  The codebase's convention is to collect doomed objects under
   the lock and close them after releasing it (see ``pool.py``); the rule
   enforces that shape.

2. **Guarded attributes are written under their lock.**  A module opts in by
   declaring a registry::

       _GUARDED_BY = {"_entries": "_lock", "_pending": ("_lock", "_idle")}

   mapping attribute name → the ``self.<lock>`` name(s) whose ``with`` block
   must surround every write (a tuple when a ``Condition`` shares the
   underlying lock, as ``service.py``'s ``_idle`` does).  Writes inside
   ``__init__``/``__post_init__``/``__del__`` or inside methods named
   ``*_locked`` (the convention for helpers documented as caller-holds-lock)
   are exempt.

Scope: ``repro/service/`` and ``repro/core/engine/parallel.py`` — the places
with real cross-thread state (the service's registry, pool, admission queues
and dispatchers, and the process executor's supervisor).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import SourceFile

#: Method names that block indefinitely when called on the wrong object.
BLOCKING_METHODS = {"close", "join", "get", "run", "run_many", "acquire", "wait_for_result"}

#: ``.get``/``.join`` are common dict/str methods: only flag them when the
#: receiver's terminal identifier suggests a queue/pipe-like object.
_RECEIVER_HINTS = {"get": ("queue", "jobs", "results", "inbox"), "join": ()}

#: Methods on ``self`` that the rule never flags (the lock's own protocol).
_LOCK_PROTOCOL = {"notify", "notify_all", "wait"}

_EXEMPT_FUNCTIONS = ("__init__", "__post_init__", "__del__")


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _receiver(node: ast.expr) -> ast.expr | None:
    """The object a method is called on (``x`` in ``x.y.close()``)."""
    if isinstance(node, ast.Attribute):
        return node.value
    return None


def _self_attribute(node: ast.expr) -> str | None:
    """``name`` if ``node`` is exactly ``self.<name>`` else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guarded_registry(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Parse the module-level ``_GUARDED_BY`` dict literal, if present."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "_GUARDED_BY"
            for target in node.targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            return {}
        registry: dict[str, tuple[str, ...]] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                registry[key.value] = (value.value,)
            elif isinstance(value, (ast.Tuple, ast.List)):
                locks = tuple(
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
                if locks:
                    registry[key.value] = locks
        return registry
    return {}


class _FunctionWalker(ast.NodeVisitor):
    """Walk one function body tracking which ``self.<lock>`` blocks are open."""

    def __init__(
        self,
        rule: "LockDisciplineRule",
        source: SourceFile,
        guarded: dict[str, tuple[str, ...]],
        lock_names: set[str],
        exempt_from_guard_check: bool,
    ) -> None:
        self.rule = rule
        self.source = source
        self.guarded = guarded
        self.lock_names = lock_names
        self.exempt = exempt_from_guard_check
        self.held: list[str] = []
        self.findings: list[Finding] = []

    # Nested defs get their own walker via the rule's function iteration.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_With(self, node: ast.With) -> None:
        opened: list[str] = []
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func  # ``with self._lock.acquire_timeout():`` style
            attribute = _self_attribute(expr)
            if attribute is not None and attribute in self.lock_names:
                opened.append(attribute)
        self.held.extend(opened)
        for statement in node.body:
            self.visit(statement)
        for _ in opened:
            self.held.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            self._check_blocking_call(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_guarded_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_guarded_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_guarded_write(node.target)
        self.generic_visit(node)

    # -- invariant 1: blocking calls under a lock -----------------------------
    def _check_blocking_call(self, node: ast.Call) -> None:
        method = _terminal_name(node.func)
        if method is None or method not in BLOCKING_METHODS:
            return
        receiver = _receiver(node.func)
        if receiver is None:
            return  # plain name call, e.g. ``join(parts)``
        if isinstance(receiver, ast.Constant):
            return  # ``", ".join(...)`` — str method, never blocks
        receiver_name = _terminal_name(receiver)
        if receiver_name in self.lock_names and method in _LOCK_PROTOCOL | {"acquire"}:
            return  # the lock's own protocol is the point of the block
        if method == "get":
            hints = _RECEIVER_HINTS["get"]
            if receiver_name is None or not any(
                hint in receiver_name.lower() for hint in hints
            ):
                return  # dict.get / dataclass .get — not a queue
        if method == "run" and receiver_name is None:
            return
        self.findings.append(
            self.rule.finding(
                self.source,
                node.lineno,
                f"blocking call '.{method}()' inside a 'with self."
                f"{self.held[-1]}:' block stalls every thread queued on the "
                "lock (and deadlocks if the callee needs it) — collect the "
                "object under the lock and call this after releasing it",
            )
        )

    # -- invariant 2: guarded writes outside the lock -------------------------
    def _check_guarded_write(self, target: ast.expr) -> None:
        if self.exempt:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_guarded_write(element)
            return
        attribute: str | None = None
        if isinstance(target, ast.Subscript):
            attribute = _self_attribute(target.value)  # self._entries[k] = v
        else:
            attribute = _self_attribute(target)
        if attribute is None or attribute not in self.guarded:
            return
        required = self.guarded[attribute]
        if any(lock in self.held for lock in required):
            return
        wanted = " or ".join(f"self.{lock}" for lock in required)
        self.findings.append(
            self.rule.finding(
                self.source,
                target.lineno,
                f"write to lock-guarded attribute 'self.{attribute}' outside "
                f"'with {wanted}:' (declared in _GUARDED_BY) — hold the lock, "
                "or move the write into a *_locked helper called under it",
            )
        )


class LockDisciplineRule(Rule):
    code = "RL002"
    name = "lock-discipline"
    description = (
        "no blocking calls inside 'with self._lock:' bodies; attributes "
        "declared in _GUARDED_BY are only written while their lock is held"
    )

    def applies_to(self, source: SourceFile) -> bool:
        path = source.module_path
        return "repro/service/" in path or path.endswith("repro/core/engine/parallel.py")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        guarded = _guarded_registry(source.tree)
        # Names treated as locks: anything that looks like one, plus every
        # lock the registry names (Condition objects like ``_idle`` qualify
        # through the registry even though "lock" is not in their name).
        lock_names = {
            lock for locks in guarded.values() for lock in locks
        }
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute) and "lock" in node.attr.lower():
                lock_names.add(node.attr)
        for function in self._functions(source.tree):
            exempt = function.name in _EXEMPT_FUNCTIONS or function.name.endswith(
                "_locked"
            )
            walker = _FunctionWalker(self, source, guarded, lock_names, exempt)
            for statement in function.body:
                walker.visit(statement)
            yield from walker.findings

    @staticmethod
    def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node
