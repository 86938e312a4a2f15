"""Model training loop (Section V-B).

Reproduces the paper's protocol: Adam with L2 weight regularization,
mean negative log-likelihood loss (Equation 5), the
drop-LR-by-10x-after-two-consecutive-validation-increases rule, and
best-epoch selection by minimum validation loss.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.adv.attack import perturb_batch_scaled
from repro.exceptions import CompilationError, TrainingDivergedError, TrainingError
from repro.features.acfg import ACFG
from repro.nn.clip import clip_grad_norm
from repro.nn.layers import Module
from repro.nn.loss import nll_loss
from repro.nn.lr_scheduler import ReduceLROnPlateau
from repro.nn.optim import Adam
from repro.nn.tape import CompiledModel, inference_tape
from repro.train.batching import BatchCollator, iterate_minibatches
from repro.train.metrics import ClassificationReport, evaluate_predictions


def _collator_for(model: Module) -> BatchCollator:
    """A memoizing collate layer using the model's propagation operator."""
    return BatchCollator(
        normalize_propagation=getattr(model, "normalize_propagation", True)
    )


@dataclasses.dataclass(frozen=True)
class AdversarialConfig:
    """Inner-attack settings for adversarial training (PGD-AT).

    Each training batch is additionally perturbed by a short PGD run in
    scaled feature space (:func:`repro.adv.attack.perturb_batch_scaled`)
    and the optimization step descends a mix of the clean and attacked
    losses: ``(1 - weight) * L(x) + weight * L(x_adv)``.

    The inner attack is the *relaxed* threat model — no integer/semantic
    projection — which upper-bounds the projected evaluation attack, so
    robustness trained here transfers to the realistic one.  ``epsilon``
    and ``step_size`` are in scaled (z-scored) units, matching
    :class:`repro.adv.attack.AttackConfig`.
    """

    steps: int = 3
    epsilon: float = 1.0
    step_size: Optional[float] = None
    #: Weight of the adversarial loss term in the clean/adversarial mix.
    weight: float = 0.5
    random_start: bool = True

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise TrainingError(
                f"adversarial steps must be >= 1, got {self.steps}"
            )
        if self.epsilon <= 0.0:
            raise TrainingError(
                f"adversarial epsilon must be > 0, got {self.epsilon}"
            )
        if not 0.0 < self.weight <= 1.0:
            raise TrainingError(
                f"adversarial weight must be in (0, 1], got {self.weight}"
            )

    @property
    def resolved_step_size(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps


@dataclasses.dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters (the training rows of Table II).

    ``grad_clip_norm`` is an optional global-L2 gradient cap; ``None``
    (the default, matching the paper) disables clipping.

    ``halt_on_divergence`` controls what happens when a training step
    produces a non-finite loss or gradient: ``True`` (default) raises
    :class:`~repro.exceptions.TrainingDivergedError` carrying the
    epoch/batch — so a sweep records the run as a structured failure
    instead of ranking a NaN score — while ``False`` stops the run
    early, marks the divergence on the :class:`TrainingHistory`, and
    returns the best parameters seen so far.

    Training runs on the :mod:`repro.nn.tape` replay engine: the first
    batch of each mode is captured (one eager pass) and every later
    batch, whatever its shape, replays over one reusable arena, the
    per-epoch validation pass included.  Replay is bit-exact with the
    eager float64 path, so losses and final parameters are the eager
    loop's.  A model the tape cannot record falls back to eager for the
    rest of the run with a ``RuntimeWarning``.

    ``adversarial`` switches on adversarial training: every batch is
    perturbed by a short inner PGD attack and the step descends a
    clean/adversarial loss mix (see :class:`AdversarialConfig`).  The
    inner attack needs input gradients, which only the eager autograd
    path delivers, so adversarial runs train eagerly.  Inner-attack
    randomness is seeded per ``(seed, epoch, batch)`` via
    ``SeedSequence``, so a fixed seed reproduces the run bit for bit.

    Whenever training runs eagerly, validation replays the model's
    cached inference tape (:func:`~repro.nn.tape.inference_tape`).
    """

    epochs: int = 100
    batch_size: int = 10
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_patience: int = 2
    grad_clip_norm: Optional[float] = None
    halt_on_divergence: bool = True
    seed: int = 0
    adversarial: Optional[AdversarialConfig] = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch record of one training run."""

    train_losses: List[float] = dataclasses.field(default_factory=list)
    validation_losses: List[float] = dataclasses.field(default_factory=list)
    learning_rates: List[float] = dataclasses.field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")
    train_seconds_per_instance: float = 0.0
    #: Set when ``halt_on_divergence=False`` stopped the run early on a
    #: non-finite loss/gradient; ``(-1, -1)`` means the run was clean.
    diverged_epoch: int = -1
    diverged_batch: int = -1

    @property
    def diverged(self) -> bool:
        return self.diverged_epoch >= 0

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)

    def to_dict(self) -> Dict:
        """JSON-ready form for the sweep checkpoint journal.

        Python's float repr round-trips exactly through JSON, so a
        journaled history reproduces the in-memory one bit for bit.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrainingHistory":
        return cls(**payload)


class Trainer:
    """Trains one DGCNN on labelled ACFGs."""

    def __init__(self, config: TrainingConfig) -> None:
        self.config = config
        #: The memoizing collate layer of the most recent ``train`` run
        #: (``None`` before training).  Post-training evaluation passes it
        #: back into :meth:`evaluate` so the fixed validation chunks
        #: collate once per fold instead of once per consumer.
        self.last_collator: Optional[BatchCollator] = None
        #: The compiled model of the most recent ``train`` run (``None``
        #: before training, for adversarial runs, or for models the tape
        #: cannot record).  Post-training evaluation passes it back
        #: into :meth:`evaluate` so validation chunks keep replaying.
        self.last_compiled: Optional[CompiledModel] = None

    def train(
        self,
        model: Module,
        train_acfgs: Sequence[ACFG],
        validation_acfgs: Optional[Sequence[ACFG]] = None,
        restore_best: bool = True,
    ) -> TrainingHistory:
        """Run the full training loop; returns the epoch history.

        When ``validation_acfgs`` is given, the LR schedule follows the
        validation loss and (with ``restore_best``) the model ends at the
        parameters of its best validation epoch — the paper's "minimum
        validation loss over the 100 epochs" criterion.
        """
        if not train_acfgs:
            raise TrainingError("cannot train on an empty dataset")
        if any(acfg.label is None for acfg in train_acfgs):
            raise TrainingError("all training ACFGs must be labelled")

        config = self.config
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        scheduler = ReduceLROnPlateau(
            optimizer,
            factor=config.lr_decay_factor,
            patience=config.lr_decay_patience,
        )
        history = TrainingHistory()
        best_state: Optional[Dict[str, np.ndarray]] = None
        instances_seen = 0
        train_time = 0.0
        # One collator for the whole run: shuffled train batches mostly
        # miss, but the fixed validation chunks hit on every epoch.
        collator = _collator_for(model)
        self.last_collator = collator
        # Training compiles in float64, so replayed losses/gradients are
        # bit-exact with the eager loop.  Adversarial training stays
        # eager: the inner attack needs the batch attributes as a
        # requires_grad leaf, which tape replay has no channel for.
        adversarial = config.adversarial
        compiled = CompiledModel(model) if adversarial is None else None
        self.last_compiled = compiled

        for epoch in range(config.epochs):
            model.train(True)
            epoch_losses: List[float] = []
            started = time.perf_counter()
            for batch_index, batch in enumerate(iterate_minibatches(
                train_acfgs, config.batch_size, rng=rng
            )):
                labels = np.array([acfg.label for acfg in batch], dtype=np.int64)
                attacked: Optional[List[ACFG]] = None
                if adversarial is not None:
                    attack_rng = (
                        np.random.default_rng(np.random.SeedSequence(
                            [config.seed, epoch, batch_index]
                        ))
                        if adversarial.random_start
                        else None
                    )
                    attacked, attack_loss = perturb_batch_scaled(
                        model,
                        batch,
                        labels,
                        epsilon=adversarial.epsilon,
                        steps=adversarial.steps,
                        step_size=adversarial.resolved_step_size,
                        rng=attack_rng,
                    )
                    if not np.isfinite(attack_loss):
                        self._diverged(
                            "inner-attack loss is not finite",
                            history, epoch, batch_index, float(attack_loss),
                        )
                        break
                # zero_grad runs *after* the inner attack: its backward
                # passes accumulated throwaway gradients into the model
                # parameters, which must not leak into the real step.
                optimizer.zero_grad()
                if compiled is not None:
                    try:
                        log_prob_data = compiled.forward(collator(batch))
                    except CompilationError as exc:
                        warnings.warn(
                            f"compiled execution unavailable ({exc}); "
                            "training falls back to the eager path",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        compiled = None
                        self.last_compiled = None
                if compiled is not None:
                    # Mean NLL computed outside the tape; the picked-sum
                    # times 1/n matches nll_loss's arithmetic bit for bit.
                    rows = np.arange(len(labels))
                    loss_value = float(
                        -(log_prob_data[rows, labels].sum() * (1.0 / len(labels)))
                    )
                else:
                    log_probs = model(collator(batch))
                    loss = nll_loss(log_probs, labels)
                    if attacked is not None:
                        assert adversarial is not None
                        # Attacked graphs are fresh objects every batch,
                        # so they bypass the id-keyed collator memo and
                        # collate directly inside the model.
                        adversarial_loss = nll_loss(model(attacked), labels)
                        loss = (
                            loss * (1.0 - adversarial.weight)
                            + adversarial_loss * adversarial.weight
                        )
                    loss_value = loss.item()
                if not np.isfinite(loss_value):
                    self._diverged(
                        "training loss is not finite",
                        history, epoch, batch_index, loss_value,
                    )
                    break
                if compiled is not None:
                    # d(mean NLL)/d(log_probs): -1/n at the label column.
                    seed = np.zeros_like(log_prob_data)
                    seed[rows, labels] = -(1.0 / len(labels))
                    compiled.backward(seed)
                else:
                    loss.backward()
                if not self._gradients_finite(model):
                    self._diverged(
                        "gradients are not finite",
                        history, epoch, batch_index, loss_value,
                    )
                    break
                if config.grad_clip_norm is not None:
                    clip_grad_norm(model.parameters(), config.grad_clip_norm)
                optimizer.step()
                epoch_losses.append(loss_value)
                instances_seen += len(batch)
            train_time += time.perf_counter() - started
            if history.diverged:
                # halt_on_divergence=False: stop here with the best
                # parameters seen so far; the partial epoch is dropped.
                break

            train_loss = float(np.mean(epoch_losses))
            history.train_losses.append(train_loss)
            history.learning_rates.append(optimizer.lr)

            if validation_acfgs:
                validation_loss = self.evaluate_loss(
                    model, validation_acfgs, collator=collator, compiled=compiled
                )
                history.validation_losses.append(validation_loss)
                monitored = validation_loss
            else:
                monitored = train_loss

            if monitored < history.best_validation_loss:
                history.best_validation_loss = monitored
                history.best_epoch = epoch
                if restore_best:
                    best_state = model.state_dict()

            scheduler.step(monitored)

        if restore_best and best_state is not None:
            model.load_state_dict(best_state)
        if instances_seen:
            history.train_seconds_per_instance = train_time / instances_seen
        return history

    # ------------------------------------------------------------------
    # divergence guard

    @staticmethod
    def _gradients_finite(model: Module) -> bool:
        return all(
            param.grad is None or np.isfinite(param.grad).all()
            for param in model.parameters()
        )

    def _diverged(
        self,
        reason: str,
        history: TrainingHistory,
        epoch: int,
        batch: int,
        loss_value: float,
    ) -> None:
        """Non-finite loss/gradient: raise or record, per the config.

        A diverged optimizer state is unrecoverable (NaN propagates into
        every parameter it touches), so there is no continue-training
        option — only "raise a structured error" (the sweep-friendly
        default) or "stop early and keep the best finite parameters".
        """
        if self.config.halt_on_divergence:
            raise TrainingDivergedError(
                reason, epoch=epoch, batch=batch, loss=loss_value
            )
        history.diverged_epoch = epoch
        history.diverged_batch = batch

    # ------------------------------------------------------------------
    # evaluation helpers

    @staticmethod
    def predict_proba(
        model: Module,
        acfgs: Sequence[ACFG],
        batch_size: int = 64,
        collator: Optional[BatchCollator] = None,
        compiled: Optional[CompiledModel] = None,
    ) -> np.ndarray:
        """Class probabilities over ``acfgs`` (gradient-free, eval mode).

        Chunks are collated into ``GraphBatch`` objects; pass a shared
        ``collator`` to reuse merged operators across repeated
        evaluations (the training loop does this for its per-epoch
        validation pass).  Each chunk replays a compiled tape's lean
        eval-mode program: ``compiled`` when given, else the float64 tape
        cached for the model (:func:`~repro.nn.tape.inference_tape`), so
        the first call captures and every later one replays.  float64
        replay keeps the output bit-exact with eager; a float32 tape's
        log-probabilities are cast to float64 before ``exp``.  A model
        the tape refuses runs eagerly: the tape remembers the refusal,
        so it is captured once at most.
        """
        model.train(False)
        if collator is None:
            collator = _collator_for(model)
        tape = compiled if compiled is not None else inference_tape(model)
        chunks = []
        for start in range(0, len(acfgs), batch_size):
            batch = collator(list(acfgs[start : start + batch_size]))
            try:
                log_probs = tape.infer(batch)
            except CompilationError:
                log_probs = model(batch).data
            chunks.append(np.exp(log_probs.astype(np.float64, copy=False)))
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)

    @classmethod
    def evaluate_loss(
        cls,
        model: Module,
        acfgs: Sequence[ACFG],
        collator: Optional[BatchCollator] = None,
        compiled: Optional[CompiledModel] = None,
    ) -> float:
        """Mean NLL of the true labels under the model."""
        labels = np.array([acfg.label for acfg in acfgs], dtype=np.int64)
        probabilities = cls.predict_proba(
            model, acfgs, collator=collator, compiled=compiled
        )
        eps = 1e-15
        picked = np.clip(probabilities[np.arange(len(labels)), labels], eps, 1.0)
        return float(-np.log(picked).mean())

    @classmethod
    def evaluate(
        cls,
        model: Module,
        acfgs: Sequence[ACFG],
        family_names: Optional[Sequence[str]] = None,
        collator: Optional[BatchCollator] = None,
        compiled: Optional[CompiledModel] = None,
    ) -> ClassificationReport:
        """Full precision/recall/F1/accuracy/log-loss report.

        Pass the trainer's ``last_collator`` and ``last_compiled`` to
        reuse the validation chunks' memoized ``GraphBatch`` operators
        and the run's tape instead of re-collating and re-recording;
        ``compiled`` follows :meth:`predict_proba`.
        """
        labels = np.array([acfg.label for acfg in acfgs], dtype=np.int64)
        probabilities = cls.predict_proba(
            model, acfgs, collator=collator, compiled=compiled
        )
        return evaluate_predictions(
            labels,
            probabilities,
            num_classes=probabilities.shape[1],
            family_names=family_names,
        )
