"""Gradient-guided feature-space attack on ACFG classifiers.

A PGD-style loop over *input* gradients: the batch attribute matrix is
exposed as a ``requires_grad`` leaf
(:meth:`~repro.core.batched.GraphBatch.require_input_grad`), one eager
forward/backward delivers ``dL/dX``, and each ascent step on the true
label's negative log-likelihood is projected back onto ACFG semantics —
non-negative integer counts, ``offspring == out-degree``, instruction
totals covering the category counts — via the shared validator/projector
(:mod:`repro.features.validator`).

Two entry points:

* :class:`FeatureSpaceAttack` — the evaluation attack.  Operates on raw
  (unscaled) labelled ACFGs, steps in the scaler's z-scored feature
  space (where the epsilon ball is meaningful), and returns adversarial
  ACFGs in raw count space that pass the semantic validator.  This is
  the realistic threat model the robustness report measures.
* :func:`perturb_batch_scaled` — the *inner* attack of adversarial
  training (``TrainingConfig.adversarial``).  Training data is already
  scaled, so it perturbs scaled features directly without the integer
  projection: training against this relaxed threat model upper-bounds
  the projected attack, the standard trick for keeping the inner
  maximization differentiable.

Their gradient steps are the one place outside a tape capture where the
model runs eagerly: tape replay has no input-gradient channel.  Every
gradient-free forward replays the model's cached inference tape through
``Trainer.predict_proba`` — the evaluation attack's probabilities
(clean, last iterate, projected result), and the validation pass of an
adversarially trained model.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batched import GraphBatch
from repro.exceptions import ConfigurationError
from repro.features.acfg import ACFG
from repro.features.attributes import DEFAULT_ATTRIBUTES
from repro.features.scaling import AttributeScaler
from repro.features.validator import CATEGORY_CHANNELS, project_attributes
from repro.nn.layers import Module
from repro.nn.loss import nll_loss

#: Channels the attack may move.  ``offspring`` is structural (pinned to
#: the out-degree by the projector), so it stays frozen; the attack
#: perturbs Table I layouts only.
MUTABLE_CHANNELS = frozenset({
    "numeric_constants",
    "total_instructions",
    "vertex_instructions",
    *CATEGORY_CHANNELS,
})


@dataclasses.dataclass(frozen=True)
class AttackConfig:
    """PGD hyper-parameters.

    ``epsilon`` bounds the L-infinity perturbation in *scaled* feature
    space (z-scores after ``log1p``), where one unit means one training
    standard deviation — the only space where a single radius is
    meaningful across heavy-tailed count channels.  ``step_size``
    defaults to ``2.5 * epsilon / steps`` so the ball's boundary stays
    reachable despite the semantic projection pulling iterates inward.
    """

    epsilon: float = 1.5
    steps: int = 10
    step_size: Optional[float] = None
    random_start: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ConfigurationError(
                f"attack epsilon must be > 0, got {self.epsilon}"
            )
        if self.steps < 1:
            raise ConfigurationError(
                f"attack steps must be >= 1, got {self.steps}"
            )
        if self.step_size is not None and self.step_size <= 0.0:
            raise ConfigurationError(
                f"attack step_size must be > 0, got {self.step_size}"
            )

    @property
    def resolved_step_size(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps


@dataclasses.dataclass
class AttackRecord:
    """Per-sample outcome of one feature-space attack."""

    name: str
    label: int
    clean_label: int
    adversarial_label: int
    #: Signed true-class score margin ``p[label] - max(p[other])``;
    #: negative means the sample is (already) misclassified.
    clean_margin: float
    adversarial_margin: float
    #: The adversarial example is predicted as a different family than
    #: the true label.
    flipped: bool
    #: L-infinity size of the final perturbation in scaled feature space.
    perturbation_linf: float


@dataclasses.dataclass
class AttackOutcome:
    """Everything one attack run produced, input-order aligned."""

    records: List[AttackRecord]
    #: Adversarial examples in raw count space; every one satisfies the
    #: ACFG semantic invariants (the projector ran after the last step).
    adversarial_acfgs: List[ACFG]
    clean_probabilities: np.ndarray
    adversarial_probabilities: np.ndarray

    @property
    def success_rate(self) -> float:
        """Flip rate over samples the clean model classified correctly."""
        eligible = [r for r in self.records if r.clean_label == r.label]
        if not eligible:
            return 0.0
        return sum(1 for r in eligible if r.flipped) / len(eligible)


def _mutable_mask(num_channels: int) -> np.ndarray:
    if num_channels != len(DEFAULT_ATTRIBUTES):
        raise ConfigurationError(
            f"attack saw {num_channels} attribute channels but perturbs "
            f"only the {len(DEFAULT_ATTRIBUTES)} of Table I"
        )
    return np.array(
        [name in MUTABLE_CHANNELS for name in DEFAULT_ATTRIBUTES],
        dtype=np.float64,
    )


def input_gradients(
    model: Module,
    acfgs: Sequence[ACFG],
    labels: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """One eager forward/backward with the batch attributes as a leaf.

    Returns ``(gradients, boundaries, loss, probabilities)`` where
    ``gradients`` is the stacked ``dL/dX`` matrix (rows per vertex, split
    by ``boundaries`` per graph) of the mean true-label NLL.  Model
    parameters also accumulate gradients as a side effect; callers on a
    training path must ``zero_grad`` before their real optimizer step.
    """
    batch = GraphBatch(
        acfgs,
        normalize_propagation=getattr(model, "normalize_propagation", True),
    )
    leaf = batch.require_input_grad()
    was_training = model.training
    model.train(False)
    try:
        log_probs = model(batch)
        loss = nll_loss(log_probs, labels)
        loss.backward()
    finally:
        model.train(was_training)
    assert leaf.grad is not None  # the leaf requires grad by construction
    return (
        leaf.grad,
        batch.boundaries,
        float(loss.item()),
        np.exp(log_probs.data),
    )


def _margins(probabilities: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Signed true-class margin ``p[label] - max(p[other])`` per row."""
    picked = probabilities[np.arange(len(labels)), labels]
    masked = probabilities.copy()
    masked[np.arange(len(labels)), labels] = -np.inf
    return picked - masked.max(axis=1)


class FeatureSpaceAttack:
    """PGD over ACFG attributes with per-step semantic projection.

    Parameters
    ----------
    model:
        A trained DGCNN (or any GraphBatch-capable module) emitting
        log-probabilities.
    scaler:
        The *training-time* :class:`AttributeScaler`; attack steps move
        in its scaled space and the semantic projection round-trips
        through its raw count space.
    config:
        PGD radius/steps/seed.
    """

    def __init__(
        self,
        model: Module,
        scaler: AttributeScaler,
        config: Optional[AttackConfig] = None,
    ) -> None:
        if not scaler.is_fitted:
            raise ConfigurationError(
                "FeatureSpaceAttack needs a fitted AttributeScaler"
            )
        self.model = model
        self.scaler = scaler
        self.config = config if config is not None else AttackConfig()

    def _probabilities(self, scaled: Sequence[ACFG]) -> np.ndarray:
        """Class probabilities of one batch of scaled graphs.

        The model's cached inference tape replays them
        (``Trainer.predict_proba``), in one batch as the gradient steps
        see them; the model's train/eval mode is restored.
        """
        from repro.train.trainer import Trainer  # trainer imports this module

        was_training = self.model.training
        try:
            return Trainer.predict_proba(self.model, scaled, batch_size=len(scaled))
        finally:
            self.model.train(was_training)

    def attack(self, acfgs: Sequence[ACFG]) -> AttackOutcome:
        """Attack raw labelled ACFGs; returns validator-clean examples."""
        if not acfgs:
            raise ConfigurationError("cannot attack an empty batch")
        if any(acfg.label is None for acfg in acfgs):
            raise ConfigurationError(
                "feature-space attack needs labelled ACFGs (the loss "
                "ascends the true label's NLL)"
            )
        config = self.config
        labels = np.array([acfg.label for acfg in acfgs], dtype=np.int64)
        scaled = self.scaler.transform(acfgs)
        mask = _mutable_mask(scaled[0].num_attributes)
        origin = [graph.attributes.copy() for graph in scaled]
        # Raw-count image of each sample's scaled epsilon ball: the
        # scaler's per-element transform is monotone, so the box bounds
        # are just the transformed ball corners.  The projector clamps
        # its integers into this box, keeping adversarial counts inside
        # the scaled ball instead of letting quantization inflate the
        # perturbation past epsilon.
        raw_bounds = [
            (
                self.scaler.inverse_transform_matrix(start - config.epsilon),
                self.scaler.inverse_transform_matrix(start + config.epsilon),
            )
            for start in origin
        ]

        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, len(acfgs)])
        )
        current: List[np.ndarray] = []
        for start in origin:
            x = start.copy()
            if config.random_start:
                x = x + rng.uniform(-config.epsilon, config.epsilon, x.shape) * mask
            current.append(x)
        current = self._project_all(current, scaled, origin, mask, raw_bounds)

        clean_probs = self._probabilities(scaled)
        flipped_at: List[Optional[np.ndarray]] = [None] * len(acfgs)
        step_size = config.resolved_step_size
        for _ in range(config.steps):
            adversarial = [
                graph.replace(attributes=x)
                for graph, x in zip(scaled, current)
            ]
            gradients, boundaries, _, probs = input_gradients(
                self.model, adversarial, labels
            )
            self._note_flips(probs, labels, current, flipped_at)
            if not np.isfinite(gradients).all():
                break  # diverged gradients cannot guide further steps
            for index in range(len(acfgs)):
                rows = slice(int(boundaries[index]), int(boundaries[index + 1]))
                ascent = step_size * np.sign(gradients[rows]) * mask
                moved = current[index] + ascent
                current[index] = np.clip(
                    moved,
                    origin[index] - config.epsilon,
                    origin[index] + config.epsilon,
                )
            current = self._project_all(current, scaled, origin, mask, raw_bounds)

        # Last-iterate check, then settle each sample on its first
        # label-flipping iterate (or the final one if it never flipped).
        final_eval = [
            graph.replace(attributes=x) for graph, x in zip(scaled, current)
        ]
        final_probs = self._probabilities(final_eval)
        self._note_flips(final_probs, labels, current, flipped_at)
        chosen = [
            kept if kept is not None else x
            for kept, x in zip(flipped_at, current)
        ]

        adversarial_acfgs = [
            acfg.replace(
                attributes=project_attributes(
                    self.scaler.inverse_transform_matrix(x),
                    acfg.out_degrees(),
                    lower=bounds[0],
                    upper=bounds[1],
                ),
            )
            for acfg, x, bounds in zip(acfgs, chosen, raw_bounds)
        ]
        adv_scaled = self.scaler.transform(adversarial_acfgs)
        adv_probs = self._probabilities(adv_scaled)

        clean_margins = _margins(clean_probs, labels)
        adv_margins = _margins(adv_probs, labels)
        records = []
        for index, acfg in enumerate(acfgs):
            perturbation = float(
                np.abs(adv_scaled[index].attributes - origin[index]).max()
            )
            adv_label = int(adv_probs[index].argmax())
            records.append(AttackRecord(
                name=acfg.name,
                label=int(labels[index]),
                clean_label=int(clean_probs[index].argmax()),
                adversarial_label=adv_label,
                clean_margin=float(clean_margins[index]),
                adversarial_margin=float(adv_margins[index]),
                flipped=adv_label != int(labels[index]),
                perturbation_linf=perturbation,
            ))
        return AttackOutcome(
            records=records,
            adversarial_acfgs=adversarial_acfgs,
            clean_probabilities=clean_probs,
            adversarial_probabilities=adv_probs,
        )

    # ------------------------------------------------------------------

    def _project_all(
        self,
        current: List[np.ndarray],
        scaled: Sequence[ACFG],
        origin: List[np.ndarray],
        mask: np.ndarray,
        raw_bounds: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> List[np.ndarray]:
        """Semantic projection of every iterate, in scaled space.

        Round-trips through raw count space: inverse-scale, project onto
        the ACFG invariants clamped to the epsilon ball's raw-count box,
        re-scale.  Frozen channels are restored from the origin
        afterwards so numeric round-trip noise cannot leak into channels
        the attack must not move.
        """
        projected = []
        for graph, x, start, bounds in zip(scaled, current, origin, raw_bounds):
            raw = self.scaler.inverse_transform_matrix(x)
            raw = project_attributes(
                raw, graph.out_degrees(), lower=bounds[0], upper=bounds[1]
            )
            back = self.scaler.transform_matrix(raw)
            projected.append(back * mask + start * (1.0 - mask))
        return projected

    @staticmethod
    def _note_flips(
        probabilities: np.ndarray,
        labels: np.ndarray,
        current: List[np.ndarray],
        flipped_at: List[Optional[np.ndarray]],
    ) -> None:
        predictions = probabilities.argmax(axis=1)
        for index, (predicted, label) in enumerate(zip(predictions, labels)):
            if flipped_at[index] is None and int(predicted) != int(label):
                flipped_at[index] = current[index].copy()


def perturb_batch_scaled(
    model: Module,
    acfgs: Sequence[ACFG],
    labels: np.ndarray,
    *,
    epsilon: float,
    steps: int,
    step_size: float,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[List[ACFG], float]:
    """Inner attack for adversarial training: PGD in scaled space.

    Operates directly on already-scaled ACFGs (the trainer's working
    representation) and skips the integer projection — the relaxed
    threat model keeps the inner maximization smooth, and the resulting
    robustness transfers to the projected evaluation attack it
    upper-bounds.  Pass ``rng`` for a random start inside the epsilon
    ball; ``None`` starts from the clean sample.

    Returns ``(attacked_acfgs, last_attack_loss)``.  The loss of the
    final inner step is surfaced so the trainer's divergence guard can
    halt on a non-finite inner maximization instead of silently training
    on garbage; if gradients go non-finite mid-loop the last finite
    iterate is returned alongside the offending loss.
    """
    mask = _mutable_mask(acfgs[0].num_attributes)
    origin = [graph.attributes.copy() for graph in acfgs]
    current = []
    for start in origin:
        x = start.copy()
        if rng is not None:
            x = x + rng.uniform(-epsilon, epsilon, x.shape) * mask
        current.append(x)

    attack_loss = float("nan")
    for _ in range(steps):
        adversarial = [
            graph.replace(attributes=x) for graph, x in zip(acfgs, current)
        ]
        gradients, boundaries, attack_loss, _ = input_gradients(
            model, adversarial, labels
        )
        if not np.isfinite(attack_loss) or not np.isfinite(gradients).all():
            return adversarial, attack_loss
        for index in range(len(acfgs)):
            rows = slice(int(boundaries[index]), int(boundaries[index + 1]))
            moved = current[index] + step_size * np.sign(gradients[rows]) * mask
            current[index] = np.clip(
                moved,
                origin[index] - epsilon,
                origin[index] + epsilon,
            )
    attacked = [
        graph.replace(attributes=x) for graph, x in zip(acfgs, current)
    ]
    return attacked, attack_loss
