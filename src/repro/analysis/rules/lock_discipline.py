"""Rule ``lock-discipline`` — shared counters mutate under their lock.

:class:`repro.serve.metrics.ServeMetrics` is written from HTTP handler
threads, the dispatch thread, and the engine simultaneously; every
counter mutation belongs inside ``with self._lock``.  A missed lock is
the classic silent bug — counts drift only under load, exactly when
nobody is reading the code.

The rule is self-calibrating rather than name-based: in any class whose
``__init__`` binds an attribute to ``threading.Lock()`` / ``RLock()``,
the attributes that are mutated at least once inside a ``with
self.<lock>`` block are considered *guarded*; any other mutation of
those same attributes outside a lock block (``__init__`` excepted — no
other thread can hold a reference yet) is flagged.  A class that never
locks a given attribute is out of scope, so single-threaded state
machines do not false-positive.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, NamedTuple, Set

from repro.analysis.engine import (
    Finding,
    ModuleSource,
    Rule,
    call_name,
    register_rule,
)

LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition"})

#: In-place mutator method names on common container attributes.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "update", "clear", "pop", "popleft",
        "popitem", "extend", "remove", "discard", "setdefault", "move_to_end",
        "subtract", "insert",
    }
)


class _Mutation(NamedTuple):
    attr: str
    locked: bool
    node: ast.AST
    method: str


def _self_attr(node: ast.expr) -> str:
    """``self.X`` (possibly behind a subscript) -> ``X``; else ``""``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _lock_attrs(class_node: ast.ClassDef) -> Set[str]:
    locks: Set[str] = set()
    for statement in class_node.body:
        if not (
            isinstance(statement, ast.FunctionDef)
            and statement.name == "__init__"
        ):
            continue
        for node in ast.walk(statement):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            chain = call_name(node.value)
            if not chain or chain[-1] not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr:
                    locks.add(attr)
    return locks


def _collect_mutations(
    method: ast.FunctionDef, locks: Set[str]
) -> List[_Mutation]:
    mutations: List[_Mutation] = []

    def is_lock_with(node: ast.With) -> bool:
        return any(_self_attr(item.context_expr) in locks for item in node.items)

    def record(target: ast.expr, node: ast.AST, locked: bool) -> None:
        attr = _self_attr(target)
        if attr and attr not in locks:
            mutations.append(_Mutation(attr, locked, node, method.name))

    def walk(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With) and is_lock_with(node):
            locked = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function is not necessarily *called* under the
            # lock its definition sits in.
            locked = False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                record(target, node, locked)
        elif isinstance(node, ast.AugAssign):
            record(node.target, node, locked)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            record(node.func.value, node, locked)
        for child in ast.iter_child_nodes(node):
            walk(child, locked)

    walk(method, False)
    return mutations


@register_rule
class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    description = (
        "attributes a class mutates under `with self._lock` must never "
        "be mutated outside it (shared serving counters)"
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            locks = _lock_attrs(class_node)
            if not locks:
                continue
            mutations: List[_Mutation] = []
            for statement in class_node.body:
                if isinstance(statement, ast.FunctionDef):
                    mutations.extend(_collect_mutations(statement, locks))
            guarded: Dict[str, bool] = {}
            for mutation in mutations:
                if mutation.locked:
                    guarded[mutation.attr] = True
            for mutation in mutations:
                if (
                    not mutation.locked
                    and mutation.method != "__init__"
                    and guarded.get(mutation.attr)
                ):
                    findings.append(
                        self.finding(
                            module,
                            mutation.node,
                            f"`self.{mutation.attr}` is lock-guarded "
                            f"elsewhere in {class_node.name} but mutated "
                            f"here outside `with self.{next(iter(sorted(locks)))}`; "
                            "move the mutation under the lock",
                        )
                    )
        return findings
