"""Group batching, summary aggregation, consistency loss, the adaptive joint
loss, and the SGD training loop.

One batch holds every paragraph of a topic group with one labeled member
designated primary.  The primary contributes a supervised loss (mean per-cell
negative log likelihood against its gold grid); all other members are
compared to the primary through per-entity summary distributions.  While the
supervised loss is still above a threshold the agreement term is skipped, so
early training is purely supervised; once predictions are decent the combined
loss lambda*sup + (1-lambda)*sum(agreement) takes over, batch by batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import evaluation, model
from .autodiff import ComputationTape, Tensor
from .corpus import N_CHANGES, ChangeGrid, ProcessExample, TopicGroup, shared_entities
from .model import ModelParams

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainingConfig:
    lambda_weight: float = 0.05
    sup_threshold: float = 0.2
    learning_rate: float = 0.1
    epochs: int = 50
    seed: int = 0
    hidden_size: int = 8
    embedding_dim: int = 16
    consistency_enabled: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.sup_threshold < 0.0:
            raise ValueError("sup_threshold must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden_size < 2 or self.hidden_size % 2 != 0:
            raise ValueError("hidden_size must be a positive even integer")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")


@dataclass
class GroupBatch:
    """All members of one group with one labeled example designated primary."""

    topic: str
    members: list[ProcessExample]
    primary_index: int

    @property
    def primary(self) -> ProcessExample:
        return self.members[self.primary_index]


@dataclass
class BatchStats:
    sup_loss: float
    con_loss: float = 0.0
    switched: bool = False  # consistency skipped because sup_loss was above threshold


def make_batches(group: TopicGroup) -> list[GroupBatch]:
    """One batch per labeled member, each holding the whole group.

    Unlabeled members ride along in every batch; an all-unlabeled group
    yields no batches.
    """
    members = group.members
    return [GroupBatch(topic=group.topic, members=members, primary_index=i)
            for i in range(len(group.labeled))]


# ---------------------------------------------------------------------------
# summaries and consistency

def summarize(grid: ChangeGrid, entity: int) -> np.ndarray:
    """Per-entity summary distribution: the entity's step distributions averaged over steps."""
    if grid.is_hard:
        raise ValueError("summarize needs a distribution grid")
    return grid.dists[:, entity, :].sum(axis=0) / grid.dists.shape[0]


def consistency_loss(pred_a: ChangeGrid, example_a: ProcessExample,
                     pred_b: ChangeGrid, example_b: ProcessExample) -> float:
    """Mean squared error between summary distributions, averaged over shared entities.

    Entities are matched by exact (case/space-insensitive) name; pairs with no
    shared entity contribute 0 rather than a penalty.
    """
    pairs = shared_entities(example_a, example_b)
    if not pairs:
        return 0.0
    acc = 0.0
    for ia, ib in pairs:
        diff = summarize(pred_a, ia) - summarize(pred_b, ib)
        acc += float(np.mean(diff * diff))
    return acc / len(pairs)


def combine_losses(sup: Tensor, con_sum: Tensor, lambda_weight: float) -> Tensor:
    """lambda*sup + (1-lambda)*con_sum; with lambda=1 this equals sup exactly."""
    return ad.add(ad.scale(sup, lambda_weight), ad.scale(con_sum, 1.0 - lambda_weight))


def batch_loss(params: ModelParams, batch: GroupBatch,
               cfg: TrainingConfig) -> tuple[Tensor, BatchStats]:
    """Differentiable loss for one batch plus its reporting components.

    The supervised term is computed first; if it exceeds the threshold (or
    consistency is disabled) it is returned alone and no other member is even
    encoded.  Otherwise the consistency terms of all non-primary members are
    summed, unnormalized, into the combined loss.
    """
    primary = batch.primary
    if primary.gold is None:
        raise ValueError(f"primary example {primary.id} has no gold labels")

    primary_dists = model.encode_cells(params, [(primary, range(primary.n_entities))]).dists
    sup = ad.mean(ad.nll(primary_dists, primary.gold.labels.reshape(-1)))
    sup_value = sup.item()

    if not cfg.consistency_enabled:
        return sup, BatchStats(sup_loss=sup_value)
    if sup_value > cfg.sup_threshold:
        return sup, BatchStats(sup_loss=sup_value, switched=True)

    others = [m for i, m in enumerate(batch.members) if i != batch.primary_index]
    aligned = [(m, pairs) for m in others if (pairs := shared_entities(m, primary))]
    if aligned:
        member_dists = model.encode_cells(
            params, [(m, [ia for ia, _ in pairs]) for m, pairs in aligned]).dists
        diff, weight = _summary_differences(primary, aligned)
        d = ad.matmul(ad.constant(diff), ad.concat([primary_dists, member_dists]))
        con_sum = ad.total(ad.mul(ad.mul(d, d), ad.constant(weight)))
    else:
        # an empty sum still goes through the combined formula, giving lambda*sup
        con_sum = ad.zeros(())
    total = combine_losses(sup, con_sum, cfg.lambda_weight)
    return total, BatchStats(sup_loss=sup_value, con_loss=con_sum.item())


def _summary_differences(primary: ProcessExample,
                         aligned: list[tuple[ProcessExample, list[tuple[int, int]]]]):
    """Constant matrices (diff, weight) turning stacked cell distributions into
    the consistency sum.

    The stacked rows are the primary's cells, then each aligned member's
    cells for its shared entities, in pair order; every block is step-major.
    Row r of `diff @ stacked` is member summary minus primary summary for one
    shared entity pair, and `weight` makes the weighted sum of its squares
    the per-member mean over pairs of the mean squared error, summed over
    members.
    """
    n_rows = sum(len(pairs) for _, pairs in aligned)
    offset = primary.n_steps * primary.n_entities
    diff = np.zeros((n_rows, offset + sum(m.n_steps * len(pairs) for m, pairs in aligned)))
    weight = np.zeros((n_rows, N_CHANGES))
    row = 0
    for member, pairs in aligned:
        for q, (_, ib) in enumerate(pairs):
            diff[row, offset + q + len(pairs) * np.arange(member.n_steps)] = 1.0 / member.n_steps
            diff[row, ib + primary.n_entities * np.arange(primary.n_steps)] = -1.0 / primary.n_steps
            weight[row] = 1.0 / (N_CHANGES * len(pairs))
            row += 1
        offset += member.n_steps * len(pairs)
    return diff, weight


# ---------------------------------------------------------------------------
# optimization loop

@dataclass
class TrainResult:
    params: ModelParams
    report: dict


def _sgd_step(params: ModelParams, lr: float) -> None:
    for t in params.trainable():
        if t.grad is not None:
            t.values -= lr * t.grad
            t.zero_grad()


def _evaluate_split(params: ModelParams, groups: Sequence[TopicGroup]) -> tuple[float, float]:
    """Micro F1 over labeled examples and consistency score over all examples."""
    preds: dict[str, ChangeGrid] = {}
    pairs = []
    for g in groups:
        for ex in g.members:
            hard = evaluation.discretize(model.predict_grid(params, ex))
            preds[ex.id] = hard
            if ex.gold is not None:
                pairs.append((hard, ex.gold))
    f1 = evaluation.score_corpus(pairs).f1 if pairs else 0.0
    consistency = evaluation.consistency_score(groups, preds).score
    return f1, consistency


def train(groups: Sequence[TopicGroup], cfg: TrainingConfig,
          dev: Sequence[TopicGroup] = (),
          initial_params: ModelParams | None = None) -> TrainResult:
    """Train on all batches of all groups, keeping the best-dev checkpoint.

    Group order is reshuffled every epoch from the run seed; batch order
    within a group is fixed.  Groups without any labeled member are skipped
    and counted.  A non-finite loss aborts with full context.  Pass
    initial_params to start from pre-built weights (e.g. file-loaded
    embeddings) instead of the seeded random init.
    """
    cfg.validate()
    trainable_groups = [g for g in groups if g.labeled]
    skipped = len(groups) - len(trainable_groups)
    for g in groups:
        if not g.labeled:
            logger.warning("group %r has no labeled member; skipped", g.topic)
    if not trainable_groups:
        raise ValueError("no labeled examples anywhere in the training corpus")

    rng = np.random.default_rng(cfg.seed)
    if initial_params is not None:
        params = initial_params
    else:
        vocab = model.build_vocab(groups)
        params = model.init_params(vocab, cfg.embedding_dim, cfg.hidden_size, seed=cfg.seed)

    epochs_log = []
    best_f1 = -1.0
    best_epoch = None
    best_params = None
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(trainable_groups))
        sup_losses, con_losses, switches, n_batches = [], [], 0, 0
        for gi in order:
            group = trainable_groups[int(gi)]
            for bi, batch in enumerate(make_batches(group)):
                with ComputationTape() as tape:
                    loss, stats = batch_loss(params, batch, cfg)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, group {group.topic!r} batch {bi}: "
                        f"total={value}, sup={stats.sup_loss}, con={stats.con_loss}")
                tape.backward(loss)
                _sgd_step(params, cfg.learning_rate)
                sup_losses.append(stats.sup_loss)
                con_losses.append(stats.con_loss)
                switches += int(stats.switched)
                n_batches += 1

        dev_f1 = dev_consistency = None
        if dev:
            dev_f1, dev_consistency = _evaluate_split(params, dev)
            # ties keep the later epoch's checkpoint
            if dev_f1 >= best_f1:
                best_f1 = dev_f1
                best_epoch = epoch
                best_params = params.copy()
        epochs_log.append({
            "epoch": epoch,
            "mean_sup_loss": float(np.mean(sup_losses)),
            "mean_con_loss": float(np.mean(con_losses)),
            "adaptive_switch_rate": switches / n_batches,
            "dev_f1": dev_f1,
            "dev_consistency": dev_consistency,
        })
        logger.info("epoch %d: sup=%.4f con=%.4f switch=%.2f dev_f1=%s",
                    epoch, epochs_log[-1]["mean_sup_loss"], epochs_log[-1]["mean_con_loss"],
                    epochs_log[-1]["adaptive_switch_rate"], dev_f1)

    report = {
        "skipped_groups": skipped,
        "best_epoch": best_epoch,
        "best_dev_f1": best_f1 if best_epoch is not None else None,
        "epochs": epochs_log,
    }
    return TrainResult(params=best_params if best_params is not None else params,
                       report=report)
