"""CFG serialization.

The YANCFG dataset ships *pre-extracted* control flow graphs rather than
assembly, so MAGIC must be able to load graphs directly.  We support two
formats:

* **JSON** — a complete round-trip format preserving instructions, used
  for caching extracted CFGs (the paper caches 17 hours of extraction).
* **Edge-list with attributes** — a compact text format carrying only the
  graph structure and pre-computed block attribute vectors, mirroring the
  shape of the YANCFG distribution where raw code is unavailable.  Its
  edges are the ``(2, E)`` array an :class:`~repro.features.acfg.ACFG` holds.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from repro.asm.instruction import Instruction
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import SerializationError

_FORMAT_VERSION = 1


def cfg_to_dict(cfg: ControlFlowGraph) -> dict:
    """Serialize a CFG (with instructions) to a JSON-compatible dict."""
    blocks = []
    for block in cfg.blocks():
        blocks.append({
            "start": block.start_address,
            "instructions": [
                {
                    "addr": inst.address,
                    "mnemonic": inst.mnemonic,
                    "operands": inst.operands,
                    "size": inst.size,
                }
                for inst in block.instructions
            ],
        })
    return {
        "version": _FORMAT_VERSION,
        "name": cfg.name,
        "blocks": blocks,
        "edges": [[src, dst] for src, dst in cfg.edges()],
    }


def cfg_from_dict(data: dict) -> ControlFlowGraph:
    """Inverse of :func:`cfg_to_dict`."""
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise SerializationError(f"unsupported CFG format version: {version!r}")
    try:
        blocks = [
            (int(block_data["start"]), [
                Instruction(
                    address=int(inst_data["addr"]),
                    mnemonic=inst_data["mnemonic"],
                    operands=list(inst_data["operands"]),
                    size=int(inst_data["size"]),
                )
                for inst_data in block_data["instructions"]
            ])
            for block_data in data["blocks"]
        ]
        edges = [(int(src), int(dst)) for src, dst in data["edges"]]
        return ControlFlowGraph.from_blocks(blocks, edges, name=data.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed CFG record: {exc}") from exc


def save_cfg(cfg: ControlFlowGraph, path: str) -> None:
    """Write a CFG to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cfg_to_dict(cfg), handle)


def load_cfg(path: str) -> ControlFlowGraph:
    """Read a CFG from a JSON file written by :func:`save_cfg`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return cfg_from_dict(data)


# ----------------------------------------------------------------------
# YANCFG-style pre-attributed graphs (structure + attribute vectors only)


def acfg_to_text(
    edges: np.ndarray,
    attributes: np.ndarray,
    label: Optional[str] = None,
) -> str:
    """Serialize a pre-attributed graph to the compact text format.

    Line 1: ``n c [label]``; next ``n`` lines: attribute vectors; then one
    line per edge: ``src dst`` (dense vertex indices), in the order of the
    ``(2, E)`` ``edges`` array (an ACFG's are sorted by ``(src, dst)``).
    """
    n, c = attributes.shape
    if edges.ndim != 2 or edges.shape[0] != 2:
        raise SerializationError(f"edges must have shape (2, E), got {edges.shape}")
    lines = [f"{n} {c}" + (f" {label}" if label else "")]
    # ``tolist`` gives Python floats, whose repr is ``repr(float(v))``.
    values = np.asarray(attributes, dtype=np.float64).tolist()
    lines.extend(" ".join(map(repr, row)) for row in values)
    for src, dst in zip(edges[0].tolist(), edges[1].tolist()):
        lines.append(f"{src} {dst}")
    return "\n".join(lines) + "\n"


def acfg_from_text(text: str) -> Tuple[np.ndarray, np.ndarray, Optional[str]]:
    """Inverse of :func:`acfg_to_text`.

    Returns ``(edges, attributes, label)``; ``edges`` is ``(2, E)`` int64 in
    file order, and :class:`~repro.features.acfg.ACFG` collapses duplicates.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SerializationError("empty ACFG record")
    header = lines[0].split()
    if len(header) < 2:
        raise SerializationError(f"malformed ACFG header: {lines[0]!r}")
    try:
        n, c = int(header[0]), int(header[1])
    except ValueError as exc:
        raise SerializationError(f"malformed ACFG header: {lines[0]!r}") from exc
    label = header[2] if len(header) > 2 else None
    if len(lines) < 1 + n:
        raise SerializationError(
            f"ACFG record truncated: expected {n} attribute rows"
        )
    attributes = np.zeros((n, c), dtype=np.float64)
    for i in range(n):
        values = lines[1 + i].split()
        if len(values) != c:
            raise SerializationError(
                f"attribute row {i} has {len(values)} values, expected {c}"
            )
        attributes[i] = [float(v) for v in values]
    pairs = []
    for line in lines[1 + n:]:
        parts = line.split()
        if len(parts) != 2:
            raise SerializationError(f"malformed edge line: {line!r}")
        src, dst = int(parts[0]), int(parts[1])
        if not (0 <= src < n and 0 <= dst < n):
            raise SerializationError(f"edge ({src}, {dst}) out of range for n={n}")
        pairs.append((src, dst))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return edges, attributes, label
