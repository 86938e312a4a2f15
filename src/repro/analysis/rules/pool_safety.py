"""Rule ``pool-safety`` — nothing unpicklable crosses a process boundary.

``repro.train.sweep`` fans fold work over a ``ProcessPoolExecutor`` and
``repro.workers.pool`` spawns supervised worker processes; both pickle
what they are handed.  Lambdas and locally-defined (nested) functions
are unpicklable, and the failure is deferred — the pool raises deep
inside ``concurrent.futures`` at submit time, or worse, only under the
``spawn`` start method on another platform.  This rule rejects them at
review time instead:

* ``<process pool>.submit/map/apply_async(fn, ...)`` where the receiver
  was created from ``ProcessPoolExecutor(...)`` and ``fn`` is a lambda
  or a function defined inside the enclosing function;
* ``initializer=``/``target=`` arguments of ``ProcessPoolExecutor`` /
  ``multiprocessing.Process`` construction;
* ``WorkerSpec(fn=...)`` registrations in the extraction worker
  registry (``fn`` is resolved *by name* inside each worker process, so
  it must be a module-level function; the serialization hooks run in
  the parent and may stay lambdas).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.engine import (
    Finding,
    ModuleSource,
    Rule,
    call_name,
    dotted_name,
    register_rule,
)

POOL_METHODS = frozenset({"submit", "map", "apply_async"})
POOL_CONSTRUCTORS = frozenset({"ProcessPoolExecutor"})
PROCESS_CONSTRUCTORS = frozenset({"Process"})
REGISTRY_CONSTRUCTORS = frozenset({"WorkerSpec"})


def _target_chain(node: ast.expr) -> Optional[str]:
    chain = dotted_name(node)
    return ".".join(chain) if chain else None


class _Scope:
    """One function scope: locally-bound callables and pool variables."""

    def __init__(self) -> None:
        self.local_callables: Set[str] = set()
        self.pool_names: Set[str] = set()


class _PoolVisitor(ast.NodeVisitor):
    def __init__(self, rule: "PoolSafetyRule", module: ModuleSource) -> None:
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        # Scope stack; index 0 is the module scope.  Lambdas bound to a
        # name are unpicklable at any depth (their qualname is
        # ``<lambda>``), nested defs only when bound inside a function.
        self.scopes: List[_Scope] = [_Scope()]

    # -- scope bookkeeping --------------------------------------------

    def _bind(self, name: str, value: ast.expr) -> None:
        scope = self.scopes[-1]
        if isinstance(value, ast.Lambda):
            scope.local_callables.add(name)
        elif isinstance(value, ast.Call):
            chain = call_name(value)
            if chain and chain[-1] in POOL_CONSTRUCTORS:
                scope.pool_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            dotted = _target_chain(target)
            if dotted is not None:
                self._bind(dotted, node.value)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is None:
                continue
            dotted = _target_chain(item.optional_vars)
            if dotted is None or not isinstance(item.context_expr, ast.Call):
                continue
            chain = call_name(item.context_expr)
            if chain and chain[-1] in POOL_CONSTRUCTORS:
                self.scopes[-1].pool_names.add(dotted)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node: ast.AST) -> None:
        name = getattr(node, "name", "")
        if len(self.scopes) > 1 and name:
            # A def nested inside a function is a closure: unpicklable.
            self.scopes[-1].local_callables.add(name)
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    # -- checks --------------------------------------------------------

    def _is_unpicklable_ref(self, node: ast.expr) -> Optional[str]:
        """A human-readable label when ``node`` cannot cross a pickle."""
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name):
            for scope in self.scopes:
                if node.id in scope.local_callables:
                    return f"locally-defined function `{node.id}`"
        return None

    def _is_pool_receiver(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            chain = call_name(node)
            return bool(chain) and chain[-1] in POOL_CONSTRUCTORS
        dotted = _target_chain(node)
        if dotted is None:
            return False
        return any(dotted in scope.pool_names for scope in self.scopes)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # pool.submit(fn, ...) / pool.map(fn, ...) on a known process pool
        if (
            isinstance(func, ast.Attribute)
            and func.attr in POOL_METHODS
            and node.args
            and self._is_pool_receiver(func.value)
        ):
            label = self._is_unpicklable_ref(node.args[0])
            if label:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f"{label} is handed to a ProcessPoolExecutor via "
                        f".{func.attr}(); it cannot be pickled across the "
                        "process boundary — use a module-level function",
                    )
                )
        chain = call_name(node)
        tail = chain[-1] if chain else ""
        # ProcessPoolExecutor(initializer=...) / Process(target=...)
        if tail in POOL_CONSTRUCTORS or tail in PROCESS_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg not in ("initializer", "target"):
                    continue
                label = self._is_unpicklable_ref(keyword.value)
                if label:
                    self.findings.append(
                        self.rule.finding(
                            self.module,
                            keyword.value,
                            f"{label} is passed as `{keyword.arg}=` to "
                            f"{tail}; worker processes cannot unpickle it "
                            "— use a module-level function",
                        )
                    )
        # WorkerSpec(fn=...) — resolved by name inside worker processes
        if tail in REGISTRY_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg != "fn":
                    continue
                label = self._is_unpicklable_ref(keyword.value)
                if label is None and isinstance(keyword.value, ast.Lambda):
                    label = "a lambda"
                if label:
                    self.findings.append(
                        self.rule.finding(
                            self.module,
                            keyword.value,
                            f"{label} is registered as a WorkerSpec worker "
                            "fn; workers resolve fn by module-level name, "
                            "so it must be a top-level function",
                        )
                    )
        self.generic_visit(node)


@register_rule
class PoolSafetyRule(Rule):
    rule_id = "pool-safety"
    description = (
        "lambdas and locally-defined functions must not cross the "
        "ProcessPoolExecutor / repro.workers.pool process boundaries"
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        visitor = _PoolVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
