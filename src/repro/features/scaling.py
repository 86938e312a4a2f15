"""Attribute scaling for ACFGs.

Raw Table I attributes are heavy-tailed counts (a dispatcher block may
hold hundreds of instructions while most hold a handful).  Feeding raw
counts into tanh graph convolutions saturates them immediately, so MAGIC
standardizes attributes over the *training* split.  The scaler applies
``log1p`` first (count data) and then a per-channel z-score.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import FeatureExtractionError
from repro.features.acfg import ACFG


class AttributeScaler:
    """``log1p`` + per-channel standardization fitted on training ACFGs.

    The scaler must be fitted on the training split only and then applied
    to both splits — fitting on validation data would leak label-adjacent
    statistics across the fold boundary.
    """

    def __init__(self, use_log: bool = True) -> None:
        self.use_log = use_log
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self.mean_ is not None

    def _pretransform(self, attributes: np.ndarray) -> np.ndarray:
        if self.use_log:
            return np.log1p(np.maximum(attributes, 0.0))
        return attributes

    def fit(self, acfgs: Sequence[ACFG]) -> "AttributeScaler":
        if not acfgs:
            raise FeatureExtractionError("cannot fit a scaler on zero ACFGs")
        stacked = np.concatenate(
            [self._pretransform(a.attributes) for a in acfgs], axis=0
        )
        self.mean_ = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        # Constant channels scale to zero rather than exploding.
        std[std < 1e-12] = 1.0
        self.std_ = std
        return self

    def transform_matrix(self, attributes: np.ndarray) -> np.ndarray:
        """Scale one raw attribute matrix to z-scored feature space."""
        if not self.is_fitted:
            raise FeatureExtractionError("scaler used before fit()")
        return (self._pretransform(np.asarray(attributes)) - self.mean_) / self.std_

    def inverse_transform_matrix(self, scaled: np.ndarray) -> np.ndarray:
        """Map a scaled matrix back to raw count space.

        Inverts ``transform_matrix`` up to the ``max(x, 0)`` clamp in the
        forward direction: the round trip is exact for the non-negative
        count matrices ACFG extraction produces.  The adversarial attack
        uses this to project perturbed *scaled* features back onto ACFG
        semantics, which are defined over raw counts.
        """
        if not self.is_fitted:
            raise FeatureExtractionError("scaler used before fit()")
        raw = np.asarray(scaled) * self.std_ + self.mean_
        if self.use_log:
            raw = np.expm1(raw)
        return np.maximum(raw, 0.0)

    def transform(self, acfgs: Sequence[ACFG]) -> List[ACFG]:
        """Scaled copies of ``acfgs``; topology and labels are shared."""
        if not self.is_fitted:
            raise FeatureExtractionError("scaler used before fit()")
        return [
            acfg.replace(attributes=self.transform_matrix(acfg.attributes))
            for acfg in acfgs
        ]

    def fit_transform(self, acfgs: Sequence[ACFG]) -> List[ACFG]:
        return self.fit(acfgs).transform(acfgs)
