"""Rule ``atomic-write`` — staged swaps and context-managed writes only.

PR 3 rebuilt the dataset cache and PR 4 the model registry around a
single crash-safety story: build the artifact in a staging directory,
then rename into place, so a SIGKILL never publishes a torn corpus or a
half-written archive.  Two statically-checkable disciplines keep that
story true:

* ``open()`` in a write mode (``w``/``a``/``x``/``+``) must be the
  context expression of a ``with`` statement, so handles cannot leak
  past an exception with buffered data unflushed.  Long-lived append
  handles (the extraction and sweep journals) go through the shared
  crash-safe helper :class:`repro.fileio.JsonlAppendWriter`, which owns
  the single pragma'd raw ``open``.
* rename-into-place (``os.rename`` / ``os.replace`` / ``shutil.move``)
  is the swap primitive of the managed cache/registry roots, so it is
  reserved to the one staged-swap module, ``repro/fileio.py``, whose
  ``staged_directory`` both the dataset cache and the registry publish
  through.  A worker performing a local temp-file swap it owns outright
  documents that with a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.engine import (
    Finding,
    ModuleSource,
    Rule,
    call_name,
    register_rule,
)

#: Modules allowed to rename artifacts into place (suffix match on slug).
STAGED_SWAP_MODULES = ("repro/fileio.py",)

SWAP_CALLS = frozenset({("os", "rename"), ("os", "replace"), ("shutil", "move")})

WRITE_MODE_CHARS = frozenset("wax+")


def _write_mode(node: ast.Call) -> bool:
    """True when this ``open()`` call's mode argument requests writing."""
    mode: ast.expr
    if len(node.args) >= 2:
        mode = node.args[1]
    else:
        keywords = {kw.arg: kw.value for kw in node.keywords}
        if "mode" not in keywords:
            return False  # default "r"
        mode = keywords["mode"]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(ch in WRITE_MODE_CHARS for ch in mode.value)
    # Non-literal mode: conservatively treat as a write — dynamic modes
    # on raw handles are exactly the pattern the journals used to have.
    return True


@register_rule
class AtomicWriteRule(Rule):
    rule_id = "atomic-write"
    description = (
        "open()-for-write must be context-managed (or use the crash-safe "
        "journal helper); rename-into-place is reserved to the staged-swap "
        "module, repro.fileio"
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        managed = any(module.slug.endswith(slug) for slug in STAGED_SWAP_MODULES)
        with_contexts: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.With):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = call_name(node)
            if chain == ("open",) or chain == ("io", "open"):
                if _write_mode(node) and id(node) not in with_contexts:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "open() for writing outside a `with` block; a "
                            "crash here leaks an unflushed handle — use a "
                            "context manager, or repro.fileio.JsonlAppendWriter "
                            "for long-lived crash-safe append handles",
                        )
                    )
            elif (
                not module.is_test
                and not managed
                and chain is not None
                and len(chain) >= 2
                and (chain[-2], chain[-1]) in SWAP_CALLS
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{'.'.join(chain)}()` renames into place outside "
                        "the staged-swap module (repro.fileio); publish "
                        "through repro.fileio.staged_directory, or pragma a "
                        "worker-owned temp-file swap",
                    )
                )
        return findings
