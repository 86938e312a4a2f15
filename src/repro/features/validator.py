"""ACFG semantic-invariant validator and projector.

Table I attributes are not free real-valued vectors: they are counts
derived from a concrete basic block and its CFG context, so any matrix
that claims to be an ACFG attribute matrix must satisfy a handful of
semantic invariants:

* every count channel is a non-negative integer;
* ``offspring`` equals the vertex's out-degree (its number of distinct
  successors, :meth:`ACFG.out_degrees <repro.features.acfg.ACFG.out_degrees>`);
* ``vertex_instructions`` equals ``total_instructions`` (both are
  defined as the block's instruction count);
* the per-category instruction counts (transfer/call/arithmetic/compare/
  mov/termination/data-declaration) sum to at most
  ``total_instructions`` (the ISA also has an OTHER category, so the sum
  may fall short but never exceed);
* ``total_instructions`` is at least one (a basic block is non-empty).

Three consumers share this module: extraction (:meth:`ACFG.from_cfg`
validates its own output), the feature-space adversarial attack
(:mod:`repro.adv.attack` projects every gradient step back onto this
set), and the test suite.  :func:`project_attributes` is idempotent —
projecting an already-valid matrix returns it unchanged — which the
attack relies on and ``tests/features/test_validator.py`` pins.

Channels are resolved by *name* from the attribute layout
(:mod:`repro.features.attributes`), Table I by default, so the extras a
wider layout appends are passed through untouched (only finiteness is
required of them).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import FeatureExtractionError
from repro.features.attributes import DEFAULT_ATTRIBUTES

#: Tolerance for "is an integer" checks on float64 count channels.
_INTEGER_TOLERANCE = 1e-6

#: Instruction-category channels whose sum is bounded by the block total.
CATEGORY_CHANNELS = (
    "transfer_instructions",
    "call_instructions",
    "arithmetic_instructions",
    "compare_instructions",
    "mov_instructions",
    "termination_instructions",
    "data_declaration_instructions",
)

#: Channels the non-negative-integer check applies to: every Table I
#: channel is a count.  The extras are *not* listed here and therefore
#: only need to be finite.
_COUNT_CHANNELS = frozenset({
    "numeric_constants",
    "total_instructions",
    "offspring",
    "vertex_instructions",
    *CATEGORY_CHANNELS,
})


@dataclasses.dataclass(frozen=True)
class SemanticViolation:
    """One violated ACFG invariant, attributed to a vertex and channel."""

    vertex: int
    channel: str
    detail: str

    def describe(self) -> str:
        return f"vertex {self.vertex} [{self.channel}]: {self.detail}"


def _channel_index(names: Sequence[str], name: str) -> Optional[int]:
    try:
        return names.index(name)  # type: ignore[attr-defined]
    except ValueError:
        return None


def semantic_violations(
    attributes: np.ndarray,
    out_degrees: np.ndarray,
    names: Sequence[str] = DEFAULT_ATTRIBUTES,
) -> List[SemanticViolation]:
    """All semantic-invariant violations of an attribute matrix.

    ``out_degrees`` holds each vertex's number of distinct successors
    (``acfg.out_degrees()``), the structural value of ``offspring``.
    ``names`` is the matrix's attribute layout, Table I by default.
    """
    names = list(names)
    attributes = np.asarray(attributes, dtype=np.float64)
    if attributes.ndim != 2 or attributes.shape[1] != len(names):
        raise FeatureExtractionError(
            f"attribute matrix shape {attributes.shape} does not match "
            f"the {len(names)} channels of its layout"
        )
    violations: List[SemanticViolation] = []

    bad_finite = ~np.isfinite(attributes)
    for vertex, channel in zip(*np.nonzero(bad_finite)):
        violations.append(SemanticViolation(
            int(vertex), names[channel], "value is not finite"
        ))
    if violations:
        # Every later check compares against non-finite garbage; stop here.
        return violations

    count_columns = [
        index for index, name in enumerate(names)
        if name in _COUNT_CHANNELS
    ]
    for column in count_columns:
        values = attributes[:, column]
        for vertex in np.nonzero(values < 0.0)[0]:
            violations.append(SemanticViolation(
                int(vertex), names[column],
                f"count is negative ({values[vertex]!r})",
            ))
        rounded = np.round(values)
        for vertex in np.nonzero(np.abs(values - rounded) > _INTEGER_TOLERANCE)[0]:
            violations.append(SemanticViolation(
                int(vertex), names[column],
                f"count is not an integer ({values[vertex]!r})",
            ))

    offspring = _channel_index(names, "offspring")
    if offspring is not None:
        degrees = np.asarray(out_degrees, dtype=np.float64)
        for vertex in np.nonzero(
            np.abs(attributes[:, offspring] - degrees) > _INTEGER_TOLERANCE
        )[0]:
            violations.append(SemanticViolation(
                int(vertex), "offspring",
                f"offspring {attributes[vertex, offspring]!r} != "
                f"out-degree {degrees[vertex]!r}",
            ))

    total = _channel_index(names, "total_instructions")
    vertex_count = _channel_index(names, "vertex_instructions")
    if total is not None:
        for vertex in np.nonzero(attributes[:, total] < 1.0 - _INTEGER_TOLERANCE)[0]:
            violations.append(SemanticViolation(
                int(vertex), "total_instructions",
                "basic block holds no instructions",
            ))
    if total is not None and vertex_count is not None:
        for vertex in np.nonzero(
            np.abs(attributes[:, total] - attributes[:, vertex_count])
            > _INTEGER_TOLERANCE
        )[0]:
            violations.append(SemanticViolation(
                int(vertex), "vertex_instructions",
                f"vertex_instructions {attributes[vertex, vertex_count]!r} != "
                f"total_instructions {attributes[vertex, total]!r}",
            ))

    category_columns = [
        index for index, name in enumerate(names) if name in CATEGORY_CHANNELS
    ]
    if total is not None and category_columns:
        category_sum = attributes[:, category_columns].sum(axis=1)
        for vertex in np.nonzero(
            category_sum > attributes[:, total] + _INTEGER_TOLERANCE
        )[0]:
            violations.append(SemanticViolation(
                int(vertex), "total_instructions",
                f"category counts sum to {category_sum[vertex]!r}, "
                f"exceeding total_instructions "
                f"{attributes[vertex, total]!r}",
            ))
    return violations


def validate_attributes(
    attributes: np.ndarray,
    out_degrees: np.ndarray,
    name: str = "",
    names: Sequence[str] = DEFAULT_ATTRIBUTES,
) -> None:
    """Raise :class:`FeatureExtractionError` on any semantic violation."""
    violations = semantic_violations(attributes, out_degrees, names=names)
    if violations:
        shown = "; ".join(v.describe() for v in violations[:3])
        more = f" (+{len(violations) - 3} more)" if len(violations) > 3 else ""
        raise FeatureExtractionError(
            f"{name or 'ACFG'}: attribute matrix violates ACFG semantics: "
            f"{shown}{more}"
        )


def is_semantically_valid(
    attributes: np.ndarray,
    out_degrees: np.ndarray,
    names: Sequence[str] = DEFAULT_ATTRIBUTES,
) -> bool:
    """``True`` when the matrix satisfies every ACFG invariant."""
    return not semantic_violations(attributes, out_degrees, names=names)


def project_attributes(
    attributes: np.ndarray,
    out_degrees: np.ndarray,
    names: Sequence[str] = DEFAULT_ATTRIBUTES,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Nearest semantically-valid attribute matrix (idempotent).

    Projection order matters for idempotence:

    1. round count channels to integers, clip at zero and (when given)
       into the per-element ``[lower, upper]`` raw-count box;
    2. pin ``offspring`` to ``out_degrees`` (it is structural, not
       free);
    3. raise ``total_instructions`` to cover the category-count sum and
       the one-instruction minimum;
    4. copy the result into ``vertex_instructions``.

    A second application is a no-op: step 1 fixes integers/negatives only
    once, steps 2–4 recompute the same derived values.  Channels outside
    Table I (the layout's extras) are passed through untouched.

    ``lower``/``upper`` are optional full-shape raw-count bound matrices
    (the adversarial attack maps its scaled-space epsilon ball through
    the scaler's inverse to keep projected integers *inside* the ball);
    they are rounded outward to the nearest enclosed integers and only
    constrain count channels.  Callers must pass a box that contains at
    least one integer per element — the attack's box always contains the
    original count.
    """
    names = list(names)
    projected = np.array(attributes, dtype=np.float64, copy=True)
    if projected.ndim != 2 or projected.shape[1] != len(names):
        raise FeatureExtractionError(
            f"attribute matrix shape {projected.shape} does not match "
            f"the {len(names)} channels of its layout"
        )
    if not np.isfinite(projected).all():
        raise FeatureExtractionError(
            "cannot project a non-finite attribute matrix onto ACFG "
            "semantics"
        )
    count_columns = [
        index for index, name in enumerate(names) if name in _COUNT_CHANNELS
    ]
    projected[:, count_columns] = np.maximum(
        np.round(projected[:, count_columns]), 0.0
    )
    if lower is not None and upper is not None:
        # Integer window inside the raw box; _INTEGER_TOLERANCE absorbs
        # the float noise of a round-tripped exact integer bound.
        lower_int = np.ceil(
            np.asarray(lower)[:, count_columns] - _INTEGER_TOLERANCE
        )
        upper_int = np.floor(
            np.asarray(upper)[:, count_columns] + _INTEGER_TOLERANCE
        )
        projected[:, count_columns] = np.clip(
            projected[:, count_columns], lower_int, upper_int
        )

    offspring = _channel_index(names, "offspring")
    if offspring is not None:
        projected[:, offspring] = out_degrees

    total = _channel_index(names, "total_instructions")
    category_columns = [
        index for index, name in enumerate(names) if name in CATEGORY_CHANNELS
    ]
    if total is not None:
        floor = np.ones(projected.shape[0])
        if category_columns:
            floor = np.maximum(
                floor, projected[:, category_columns].sum(axis=1)
            )
        projected[:, total] = np.maximum(projected[:, total], floor)
        vertex_count = _channel_index(names, "vertex_instructions")
        if vertex_count is not None:
            projected[:, vertex_count] = projected[:, total]
    return projected
