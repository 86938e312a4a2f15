"""Attributed CFG extraction (Section II-B, Table I)."""

from repro.features.acfg import ACFG
from repro.features.attributes import (
    DEFAULT_ATTRIBUTES,
    attribute_names,
    extract_attribute_matrix,
    extract_block_attributes,
    num_attributes,
    register_attribute,
    unregister_attribute,
)
from repro.features.extra_attributes import (
    EXTENDED_ATTRIBUTES,
    disable_extended_attributes,
    enable_extended_attributes,
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
    "disable_extended_attributes",
    "enable_extended_attributes",
    "attribute_names",
    "extract_attribute_matrix",
    "extract_block_attributes",
    "num_attributes",
    "register_attribute",
    "unregister_attribute",
]
