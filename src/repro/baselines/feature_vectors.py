"""Handcrafted aggregate feature vectors from ACFGs.

The comparison methods of Table IV operate on engineered feature vectors
rather than graphs.  This module reduces an ACFG to the aggregate
statistics such systems typically use: per-channel sums/means/maxima of
the block attributes plus graph-level structure statistics (vertex and
edge counts, density, degree moments).  This is exactly the kind of
"reducing CFGs to vectors that contain simple aggregate features" whose
limitations motivate the paper (Section I).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import FeatureExtractionError
from repro.features.acfg import ACFG


def acfg_feature_names(num_attributes: int) -> List[str]:
    """Names of the aggregate features, aligned with the vector layout."""
    names: List[str] = []
    for statistic in ("sum", "mean", "max", "std"):
        names.extend(f"attr{i}_{statistic}" for i in range(num_attributes))
    names.extend(
        [
            "num_vertices",
            "num_edges",
            "density",
            "mean_out_degree",
            "max_out_degree",
            "std_out_degree",
            "num_leaves",
            "num_branching",
            "log_num_vertices",
        ]
    )
    return names


def acfg_to_feature_vector(acfg: ACFG) -> np.ndarray:
    """Aggregate one ACFG into a fixed-size feature vector."""
    attributes = acfg.attributes
    if attributes.size == 0:
        raise FeatureExtractionError(f"{acfg.name!r}: no attributes to aggregate")
    n = acfg.num_vertices
    out_degrees = acfg.out_degrees()
    num_edges = float(acfg.num_edges)
    density = num_edges / (n * n) if n else 0.0
    parts = [
        attributes.sum(axis=0),
        attributes.mean(axis=0),
        attributes.max(axis=0),
        attributes.std(axis=0),
        np.array(
            [
                float(n),
                num_edges,
                density,
                float(out_degrees.mean()),
                float(out_degrees.max()),
                float(out_degrees.std()),
                float((out_degrees == 0).sum()),
                float((out_degrees >= 2).sum()),
                float(np.log1p(n)),
            ]
        ),
    ]
    return np.concatenate(parts)


def dataset_to_matrix(acfgs: Sequence[ACFG]) -> Tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` design matrix and labels for a list of labelled ACFGs."""
    features = np.stack([acfg_to_feature_vector(a) for a in acfgs])
    labels = np.array(
        [-1 if a.label is None else a.label for a in acfgs], dtype=np.int64
    )
    return features, labels


def standardize(
    train: np.ndarray, *others: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Z-score features using train statistics; returns all matrices scaled."""
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std[std < 1e-12] = 1.0
    scaled = [(train - mean) / std]
    scaled.extend((other - mean) / std for other in others)
    return tuple(scaled)
