"""Rule ``broad-except`` — the structured exception taxonomy is law.

Library errors flow through the :class:`~repro.exceptions.MagicError`
hierarchy and, at the extraction/sweep/serving boundaries, the
structured :class:`~repro.features.pipeline.FailureKind` taxonomy.
``raise Exception(...)`` produces failures that no caller can
discriminate, and an unannotated ``except Exception`` (or a bare
``except:``) silently swallows the very crashes PR 3 built a fault
taxonomy to classify.

Broad excepts are still *required* at the registered fault-isolation
boundaries (pool workers, the request-worker loop, quarantine) — those
sites carry an explicit ``# repro: allow[broad-except] — reason``
pragma, replacing the old free-text ``noqa: BLE001`` convention, so the
set of boundaries is greppable and reviewed.

Scope: library modules only (tests may assert on broad exceptions).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.engine import Finding, ModuleSource, Rule, register_rule

BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _broad_name(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in BROAD_NAMES


@register_rule
class ExceptionTaxonomyRule(Rule):
    rule_id = "broad-except"
    description = (
        "library code raises MagicError subclasses and never catches "
        "Exception outside a pragma-registered fault-isolation boundary"
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        if module.is_test:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                exc = node.exc
                callee = exc.func if isinstance(exc, ast.Call) else exc
                if callee is not None and _broad_name(callee):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "`raise Exception` defeats the structured "
                            "taxonomy; raise a MagicError subclass from "
                            "repro.exceptions instead",
                        )
                    )
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "bare `except:` catches SystemExit/KeyboardInterrupt "
                            "too; catch MagicError (or a narrower class), or "
                            "pragma a registered fault-isolation boundary",
                        )
                    )
                    continue
                caught = (
                    list(node.type.elts)
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                if any(_broad_name(entry) for entry in caught):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "broad `except Exception` outside a registered "
                            "fault-isolation boundary; catch MagicError (or "
                            "narrower), or annotate the boundary with "
                            "`# repro: allow[broad-except] — reason`",
                        )
                    )
        return findings
