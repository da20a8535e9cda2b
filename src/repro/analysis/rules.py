"""Repo-specific AST lint rules (HX001–HX004).

Each rule encodes one invariant the serving stack's correctness leans
on.  They are deliberately *heuristic*: the goal is to make the easy
mistake loud at lint time, not to build a sound static analyzer.  Every
rule documents its heuristic and its known blind spots; deliberate
exceptions are silenced in-line with ``# noqa: HXnnn`` (see
:mod:`repro.analysis.linter`).

The rules:

========  ==============================================================
HX001     shared-state field written outside its owning ``with lock``
HX002     blocking call while holding a lock
HX003     wall-clock / global randomness in seeded (deterministic) code
HX004     ``threading.Thread`` without an explicit ``daemon=`` decision
========  ==============================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["ALL_RULES", "FileContext", "Rule", "Violation", "rule_by_id"]

_LOCK_NAME_RE = re.compile(r"(?:^|_)(?:lock|locks|mutex)(?:_|$|s$)|(?:lock|mutex)$")


@dataclass(frozen=True)
class Violation:
    """One finding: rule, location, and a message naming the fix."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    lines: tuple[str, ...]

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            lines=tuple(source.splitlines()),
        )


class Rule:
    """Base class: subclasses set ``rule_id``/``summary`` and ``check``."""

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> list[Violation]:
        raise NotImplementedError

    def _violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _ancestors(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> list[ast.AST]:
    chain: list[ast.AST] = []
    current = parents.get(node)
    while current is not None:
        chain.append(current)
        current = parents.get(current)
    return chain


def _is_lock_factory_call(node: ast.expr) -> bool:
    """``threading.Lock()`` / ``threading.RLock()`` / ``create_lock(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("Lock", "RLock", "create_lock")
    if isinstance(func, ast.Name):
        return func.id in ("Lock", "RLock", "create_lock")
    return False


def _makes_lock(value: ast.expr) -> bool:
    """The assigned value is a lock, or a list/dict comprehension of locks."""
    if _is_lock_factory_call(value):
        return True
    if isinstance(value, (ast.ListComp, ast.SetComp)):
        return _is_lock_factory_call(value.elt)
    if isinstance(value, ast.DictComp):
        return _is_lock_factory_call(value.value)
    if isinstance(value, (ast.List, ast.Tuple)):
        return any(_is_lock_factory_call(item) for item in value.elts)
    return False


def _self_attr_name(node: ast.expr) -> str | None:
    """``self.<attr>`` -> attr; ``self.<attr>[i]`` -> attr; else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attrs_of_class(cls: ast.ClassDef) -> set[str]:
    """Attrs assigned a lock in ``__init__`` whose name looks lock-ish."""
    attrs: set[str] = set()
    for item in cls.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
            continue
        for node in ast.walk(item):
            if isinstance(node, ast.Assign) and _makes_lock(node.value):
                for target in node.targets:
                    name = _self_attr_name(target)
                    if name is not None and _LOCK_NAME_RE.search(name):
                        attrs.add(name)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and _makes_lock(node.value)
            ):
                name = _self_attr_name(node.target)
                if name is not None and _LOCK_NAME_RE.search(name):
                    attrs.add(name)
    return attrs


def _with_holds_lock(node: ast.With, lock_attrs: set[str]) -> bool:
    """Any with-item acquires ``self.<lock>`` (or ``self.<locks>[i]``)."""
    for item in node.items:
        name = _self_attr_name(item.context_expr)
        if name is not None and name in lock_attrs:
            return True
    return False


def _written_self_fields(stmt: ast.stmt) -> list[tuple[str, ast.AST]]:
    """(field, node) for every ``self.<field>`` store inside ``stmt``.

    Covers plain assigns, annotated and augmented assigns, and
    subscript stores (``self._x[i] = ...`` mutates shared state just as
    much as rebinding the attribute does).
    """
    found: list[tuple[str, ast.AST]] = []
    for node in ast.walk(stmt):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for element in _flatten_target(target):
                name = _self_attr_name(element)
                if name is not None:
                    found.append((name, node))
    return found


def _flatten_target(target: ast.expr) -> list[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        flat: list[ast.expr] = []
        for element in target.elts:
            flat.extend(_flatten_target(element))
        return flat
    return [target]


def _methods_of(cls: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


# ---------------------------------------------------------------------------
# HX001 — shared-state field written outside its owning lock
# ---------------------------------------------------------------------------


class HX001LockedFieldWrite(Rule):
    """Guarded fields must only be written under their ``with lock``.

    Heuristic: a class owns a lock if ``__init__`` assigns a
    ``threading.Lock()`` / ``RLock()`` / ``create_lock()`` to a
    lock-named attribute (``_lock``, ``_mutex``, ``_slot_locks``…).  A
    field becomes *guarded* the first time any method writes it inside
    ``with self.<lock>``.  Every other write to that field must also be
    inside such a block, except in ``__init__``/``__post_init__``
    (object not yet shared) and ``*_locked`` methods (contract: caller
    holds the lock — enforced dynamically by
    :func:`repro.analysis.lockcheck.require_held`).
    """

    rule_id = "HX001"
    summary = "shared-state field written outside its owning lock"

    _EXEMPT = ("__init__", "__post_init__")

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                violations.extend(self._check_class(ctx, node))
        return violations

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> list[Violation]:
        lock_attrs = _lock_attrs_of_class(cls)
        if not lock_attrs:
            return []
        parents = _parent_map(cls)
        guarded: set[str] = set()
        writes: list[tuple[str, ast.AST, bool, str]] = []
        for method in _methods_of(cls):
            exempt = method.name in self._EXEMPT or method.name.endswith("_locked")
            for field, node in _written_self_fields(method):
                if field in lock_attrs:
                    continue
                under_lock = any(
                    isinstance(anc, ast.With) and _with_holds_lock(anc, lock_attrs)
                    for anc in _ancestors(node, parents)
                )
                if under_lock and not exempt:
                    guarded.add(field)
                writes.append((field, node, under_lock, method.name))
        violations: list[Violation] = []
        for field, node, under_lock, method_name in writes:
            if field not in guarded or under_lock:
                continue
            if method_name in self._EXEMPT or method_name.endswith("_locked"):
                continue
            violations.append(
                self._violation(
                    ctx,
                    node,
                    f"field 'self.{field}' of class '{cls.name}' is written "
                    f"under a lock elsewhere but written here (in "
                    f"'{method_name}') without holding it; move the write "
                    "inside the with-lock block or rename the method "
                    "'*_locked' if the caller holds the lock",
                )
            )
        return violations


# ---------------------------------------------------------------------------
# HX002 — blocking call while holding a lock
# ---------------------------------------------------------------------------


class HX002BlockingUnderLock(Rule):
    """No sleeps, joins, or socket/pipe I/O inside a lock-held region.

    Heuristic: inside any ``with`` whose context expression's terminal
    name looks lock-ish (``_lock``, ``_mutex``, ``_slot_locks[i]``…),
    flag calls whose callee name is a known blocking primitive.
    ``Condition.wait`` is deliberately *not* flagged — it releases the
    underlying lock while sleeping, which is the whole point.  String
    ``"sep".join`` and ``os.path.join`` receivers are skipped.
    """

    rule_id = "HX002"
    summary = "blocking call while holding a lock"

    _BLOCKING_ATTRS = frozenset(
        {
            "sleep",
            "join",
            "recv",
            "recv_bytes",
            "poll",
            "select",
            "accept",
            "connect",
            "result",
            "send",
            "send_bytes",
            "urlopen",
            "getresponse",
            "read",
            "readline",
        }
    )
    _BLOCKING_NAMES = frozenset({"sleep", "urlopen", "input"})
    _PATH_MODULES = frozenset({"os.path", "posixpath", "ntpath", "path"})

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.With) and self._is_lock_with(node):
                violations.extend(self._scan_block(ctx, node))
        return violations

    def _is_lock_with(self, node: ast.With) -> bool:
        for item in node.items:
            expr: ast.expr = item.context_expr
            if isinstance(expr, ast.Subscript):
                expr = expr.value
            terminal: str | None = None
            if isinstance(expr, ast.Attribute):
                terminal = expr.attr
            elif isinstance(expr, ast.Name):
                terminal = expr.id
            if terminal is not None and _LOCK_NAME_RE.search(terminal):
                return True
        return False

    def _scan_block(self, ctx: FileContext, block: ast.With) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(block):
            if not isinstance(node, ast.Call):
                continue
            label = self._blocking_label(node)
            if label is not None:
                violations.append(
                    self._violation(
                        ctx,
                        node,
                        f"blocking call '{label}' while holding a lock; "
                        "copy what you need under the lock, release it, "
                        "then block",
                    )
                )
        return violations

    def _blocking_label(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self._BLOCKING_NAMES:
                return func.id
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr not in self._BLOCKING_ATTRS:
            return None
        receiver = func.value
        # "sep".join(...) is string formatting, not thread join.
        if attr == "join" and isinstance(receiver, ast.Constant):
            return None
        if attr == "join":
            rendered = _render(receiver)
            if rendered in self._PATH_MODULES or rendered.endswith(".path"):
                return None
        # dict.get(...).read style false positives are rare enough to accept.
        return f"{_render(receiver)}.{attr}"


def _render(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failures are cosmetic
        return "<expr>"


# ---------------------------------------------------------------------------
# HX003 — nondeterminism in seeded modules
# ---------------------------------------------------------------------------


class HX003SeededDeterminism(Rule):
    """Seeded modules must not reach wall-clock or global randomness.

    Applies to the deterministic subsystems (``repro/loadgen``,
    ``repro/corpus/factory.py``) and to any file whose
    header carries a ``# holistix-lint: seeded-module`` directive.
    Flags ``time.time``/``time_ns``, ``os.urandom``, ``uuid.uuid4``,
    ``datetime…now``/``utcnow``, module-level ``random.*`` (seeding a
    ``random.Random(seed)`` instance is the sanctioned idiom), and
    ``np.random.*`` outside ``default_rng``/``SeedSequence``.
    ``time.monotonic``/``perf_counter`` are fine — they measure
    duration, not identity, and loadgen's virtual clock injects them.
    """

    rule_id = "HX003"
    summary = "wall-clock or global randomness in a seeded module"

    _SEEDED_PATH_PARTS = ("/loadgen/",)
    _SEEDED_PATH_SUFFIXES = ("corpus/factory.py",)
    _DIRECTIVE = "holistix-lint: seeded-module"

    _RANDOM_OK = frozenset({"Random", "SystemRandom"})
    _NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence"})
    _BANNED_FROM_IMPORTS = {
        ("time", "time"): "time.time",
        ("time", "time_ns"): "time.time_ns",
        ("os", "urandom"): "os.urandom",
        ("uuid", "uuid4"): "uuid.uuid4",
    }

    def check(self, ctx: FileContext) -> list[Violation]:
        if not self._applies(ctx):
            return []
        banned_names = self._banned_name_aliases(ctx.tree)
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._banned_label(node.func, banned_names)
            if label is not None:
                violations.append(
                    self._violation(
                        ctx,
                        node,
                        f"'{label}' in a seeded module breaks replayability; "
                        "inject a clock/rng parameter (e.g. random.Random(seed), "
                        "time.monotonic) instead",
                    )
                )
        return violations

    def _applies(self, ctx: FileContext) -> bool:
        path = ctx.path.replace("\\", "/")
        if any(part in path for part in self._SEEDED_PATH_PARTS):
            return True
        if any(path.endswith(suffix) for suffix in self._SEEDED_PATH_SUFFIXES):
            return True
        return any(self._DIRECTIVE in line for line in ctx.lines[:5])

    def _banned_name_aliases(self, tree: ast.Module) -> dict[str, str]:
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                for alias in node.names:
                    key = (node.module, alias.name)
                    if key in self._BANNED_FROM_IMPORTS:
                        bound = alias.asname if alias.asname else alias.name
                        aliases[bound] = self._BANNED_FROM_IMPORTS[key]
        return aliases

    def _banned_label(
        self, func: ast.expr, banned_names: dict[str, str]
    ) -> str | None:
        if isinstance(func, ast.Name):
            return banned_names.get(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        receiver = _render(func.value)
        attr = func.attr
        if receiver == "time" and attr in ("time", "time_ns"):
            return f"time.{attr}"
        if receiver == "os" and attr == "urandom":
            return "os.urandom"
        if receiver == "uuid" and attr == "uuid4":
            return "uuid.uuid4"
        if attr in ("now", "utcnow", "today") and "datetime" in receiver.split("."):
            return f"{receiver}.{attr}"
        if receiver == "random" and attr not in self._RANDOM_OK:
            return f"random.{attr}"
        if receiver in ("np.random", "numpy.random") and attr not in self._NP_RANDOM_OK:
            return f"{receiver}.{attr}"
        return None


# ---------------------------------------------------------------------------
# HX004 — Thread without an explicit ownership decision
# ---------------------------------------------------------------------------


class HX004ThreadOwnership(Rule):
    """Every ``threading.Thread`` must state who reaps it.

    Heuristic: the constructor call must pass an explicit ``daemon=``
    keyword.  ``daemon=True`` says "the supervisor/interpreter owns
    shutdown"; ``daemon=False`` says "somebody joins this" — either
    way the author decided.  A bare ``Thread(target=...)`` silently
    inherits daemon-ness from the *creating* thread, which is exactly
    the kind of context-dependent behaviour that leaks threads past
    ``stop()`` in a server.
    """

    rule_id = "HX004"
    summary = "threading.Thread without an explicit daemon= decision"

    def check(self, ctx: FileContext) -> list[Violation]:
        thread_names = self._thread_aliases(ctx.tree)
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_thread_ctor(node.func, thread_names):
                continue
            if any(kw.arg == "daemon" for kw in node.keywords):
                continue
            violations.append(
                self._violation(
                    ctx,
                    node,
                    "threading.Thread(...) without an explicit daemon= "
                    "keyword; pass daemon=True (supervisor-owned) or "
                    "daemon=False and join it on shutdown",
                )
            )
        return violations

    def _thread_aliases(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "threading":
                for alias in node.names:
                    if alias.name == "Thread":
                        names.add(alias.asname if alias.asname else alias.name)
        return names

    def _is_thread_ctor(self, func: ast.expr, thread_names: set[str]) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr == "Thread" and _render(func.value) == "threading"
        if isinstance(func, ast.Name):
            return func.id in thread_names
        return False


ALL_RULES: tuple[Rule, ...] = (
    HX001LockedFieldWrite(),
    HX002BlockingUnderLock(),
    HX003SeededDeterminism(),
    HX004ThreadOwnership(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.rule_id == rule_id:
            return rule
    raise KeyError(rule_id)
