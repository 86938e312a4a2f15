"""Attributed CFG extraction (Section II-B, Table I)."""

from repro.features.acfg import ACFG
from repro.features.attributes import (
    DEFAULT_ATTRIBUTES,
    EXTENDED_ATTRIBUTES,
    extract_attribute_matrix,
)
from repro.features.pipeline import (
    AcfgPipeline,
    ExtractionFailure,
    ExtractionReport,
    FailureKind,
)
from repro.features.scaling import AttributeScaler

__all__ = [
    "ACFG",
    "AcfgPipeline",
    "AttributeScaler",
    "DEFAULT_ATTRIBUTES",
    "EXTENDED_ATTRIBUTES",
    "ExtractionFailure",
    "ExtractionReport",
    "FailureKind",
    "extract_attribute_matrix",
]
