"""MAGIC: the end-to-end malware classification system (Figure 1).

Ties the whole pipeline together: assembly (or pre-built CFG) ingestion,
ACFG extraction, attribute scaling, DGCNN training, and prediction.
"For malware classification tasks, MAGIC runs either in the training
mode or in the prediction mode" (Section IV-C); :meth:`Magic.fit` is the
former and :meth:`Magic.predict` / :meth:`Magic.predict_family` the
latter.  Trained systems persist to a directory and reload with
:meth:`Magic.load`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cfg.builder import build_cfg_from_text
from repro.cfg.graph import ControlFlowGraph
from repro.core.dgcnn import DgcnnBase, ModelConfig, build_model
from repro.exceptions import ConfigurationError, MagicError
from repro.features.acfg import ACFG
from repro.features.attributes import DEFAULT_ATTRIBUTES, check_layout
from repro.features.scaling import AttributeScaler
from repro.train.metrics import ClassificationReport
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory

_STATE_FILE = "parameters.npz"
_META_FILE = "magic.json"


@dataclasses.dataclass
class PredictionTiming:
    """Execution-overhead measurements (Section V-E)."""

    feature_seconds_per_sample: float = 0.0
    predict_seconds_per_sample: float = 0.0


class Magic:
    """The MAGIC malware classifier.

    Parameters
    ----------
    model_config:
        Architecture and hyper-parameters of the underlying DGCNN.
    family_names:
        Family label table; ``predict`` returns indices into it and
        ``predict_family`` returns the names.
    layout:
        The attribute layout the model reads, one name per channel
        (:mod:`repro.features.attributes`); saved with the model.
    """

    def __init__(
        self,
        model_config: ModelConfig,
        family_names: Sequence[str],
        layout: Sequence[str] = DEFAULT_ATTRIBUTES,
    ) -> None:
        if len(family_names) != model_config.num_classes:
            raise ConfigurationError(
                f"{len(family_names)} family names for "
                f"{model_config.num_classes} classes"
            )
        self.layout = check_layout(layout)
        if len(self.layout) != model_config.num_attributes:
            raise ConfigurationError(
                f"a {len(self.layout)}-attribute layout for a model of "
                f"{model_config.num_attributes} attributes"
            )
        self.model_config = model_config
        self.family_names: List[str] = list(family_names)
        self.model: DgcnnBase = build_model(model_config)
        self.scaler = AttributeScaler()
        self.history: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------
    # ingestion

    def acfg_from_asm(self, asm_text: str, name: str = "") -> ACFG:
        """Run the full front end on one assembly listing."""
        cfg = build_cfg_from_text(asm_text, name=name)
        return ACFG.from_cfg(cfg, layout=self.layout)

    def acfg_from_cfg(self, cfg: ControlFlowGraph) -> ACFG:
        """Extract attributes from a pre-built CFG (YANCFG path)."""
        return ACFG.from_cfg(cfg, layout=self.layout)

    # ------------------------------------------------------------------
    # training mode

    def fit(
        self,
        train_acfgs: Sequence[ACFG],
        validation_acfgs: Optional[Sequence[ACFG]] = None,
        training_config: Optional[TrainingConfig] = None,
    ) -> TrainingHistory:
        """Train the DGCNN on labelled ACFGs (training mode).

        The attribute scaler is fitted on the training set here and
        reused verbatim at prediction time.
        """
        config = training_config or TrainingConfig()
        scaled_train = self.scaler.fit_transform(train_acfgs)
        scaled_val = (
            self.scaler.transform(validation_acfgs) if validation_acfgs else None
        )
        trainer = Trainer(config)
        self.history = trainer.train(self.model, scaled_train, scaled_val)
        return self.history

    # ------------------------------------------------------------------
    # prediction mode

    def _require_fitted(self) -> None:
        if not self.scaler.is_fitted:
            raise MagicError("MAGIC instance used for prediction before fit()/load()")

    def predict_proba(self, acfgs: Sequence[ACFG]) -> np.ndarray:
        """Per-family probabilities for unlabelled ACFGs."""
        self._require_fitted()
        scaled = self.scaler.transform(acfgs)
        return Trainer.predict_proba(self.model, scaled)

    def predict(self, acfgs: Sequence[ACFG]) -> np.ndarray:
        """Family indices for unlabelled ACFGs."""
        return self.predict_proba(acfgs).argmax(axis=1)

    def predict_family(self, acfgs: Sequence[ACFG]) -> List[str]:
        """Family names for unlabelled ACFGs."""
        return [self.family_names[i] for i in self.predict(acfgs)]

    def classify_asm(self, asm_text: str, name: str = "") -> Tuple[str, np.ndarray]:
        """One-call prediction path: listing text -> (family, probabilities)."""
        acfg = self.acfg_from_asm(asm_text, name=name)
        probabilities = self.predict_proba([acfg])[0]
        return self.family_names[int(probabilities.argmax())], probabilities

    def evaluate(self, acfgs: Sequence[ACFG]) -> ClassificationReport:
        """Full report against the labels carried by ``acfgs``."""
        self._require_fitted()
        scaled = self.scaler.transform(acfgs)
        return Trainer.evaluate(self.model, scaled, family_names=self.family_names)

    def measure_timing(
        self, asm_texts: Sequence[str], repeats: int = 1
    ) -> PredictionTiming:
        """Measure feature-extraction and prediction latency (Section V-E)."""
        if not asm_texts:
            raise MagicError("measure_timing needs at least one sample")
        started = time.perf_counter()
        acfgs = [self.acfg_from_asm(text, name=f"t{i}") for i, text in enumerate(asm_texts)]
        feature_seconds = (time.perf_counter() - started) / len(asm_texts)

        self._require_fitted()
        started = time.perf_counter()
        for _ in range(repeats):
            self.predict_proba(acfgs)
        predict_seconds = (time.perf_counter() - started) / (len(acfgs) * repeats)
        return PredictionTiming(
            feature_seconds_per_sample=feature_seconds,
            predict_seconds_per_sample=predict_seconds,
        )

    # ------------------------------------------------------------------
    # persistence

    def save(self, directory: str) -> None:
        """Persist model parameters, scaler, and metadata to a directory."""
        self._require_fitted()
        os.makedirs(directory, exist_ok=True)
        state = self.model.state_dict()
        np.savez(
            os.path.join(directory, _STATE_FILE),
            **state,
            __scaler_mean=self.scaler.mean_,
            __scaler_std=self.scaler.std_,
        )
        meta = {
            "family_names": self.family_names,
            "layout": list(self.layout),
            "scaler_use_log": self.scaler.use_log,
            "model_config": {
                **dataclasses.asdict(self.model_config),
                "graph_conv_sizes": list(self.model_config.graph_conv_sizes),
                "amp_grid": list(self.model_config.amp_grid),
                "conv1d_channels": list(self.model_config.conv1d_channels),
            },
        }
        with open(os.path.join(directory, _META_FILE), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)

    @classmethod
    def load(cls, directory: str) -> "Magic":
        """Reload a system persisted by :meth:`save`."""
        meta_path = os.path.join(directory, _META_FILE)
        state_path = os.path.join(directory, _STATE_FILE)
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MagicError(f"cannot load MAGIC metadata from {meta_path}: {exc}") from exc
        raw_config = meta["model_config"]
        raw_config["graph_conv_sizes"] = tuple(raw_config["graph_conv_sizes"])
        raw_config["amp_grid"] = tuple(raw_config["amp_grid"])
        raw_config["conv1d_channels"] = tuple(raw_config["conv1d_channels"])
        # Models persisted before the batch-first refactor recorded the
        # retired use_batched_propagation flag; drop it silently — the
        # batched path is now the only one and parameters are unaffected.
        raw_config.pop("use_batched_propagation", None)
        config = ModelConfig(**raw_config)
        # An archive saved before layouts were recorded is Table I if it
        # is 11 wide; the extras of a wider one are unknown.
        layout = meta.get("layout", DEFAULT_ATTRIBUTES)
        if "layout" not in meta and config.num_attributes != len(layout):
            raise MagicError(
                f"{meta_path} records no attribute \"layout\" for its "
                f"{config.num_attributes} attributes; only a Table I model "
                "may leave it out"
            )
        system = cls(config, meta["family_names"], layout)

        with np.load(state_path) as archive:
            arrays: Dict[str, np.ndarray] = {key: archive[key] for key in archive.files}
        system.scaler.use_log = bool(meta["scaler_use_log"])
        system.scaler.mean_ = arrays.pop("__scaler_mean")
        system.scaler.std_ = arrays.pop("__scaler_std")
        system.model.load_state_dict(arrays)
        return system
