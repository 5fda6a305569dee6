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

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import evaluation, model
from .autodiff import ComputationTape, Tensor
from .corpus import (N_CHANGES, ChangeGrid, EmbeddingTable, ProcessExample, TopicGroup,
                     flatten_groups, shared_entities)
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name!r} must be finite, got {value!r}")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.sup_threshold < 0.0:
            raise ValueError("sup_threshold must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        model.check_sizes(self.hidden_size, self.embedding_dim)


@dataclass(frozen=True, eq=False)
class Batch:
    """All members of one group with one labeled example designated primary,
    plus the encoder plans and consistency matrices of its loss.  These depend
    only on the vocabulary and the paragraphs, so one batch serves every epoch."""

    topic: str
    members: list[ProcessExample]
    primary_index: int
    primary_cells: model.CellPlan
    member_cells: model.CellPlan | None = None  # the members aligned with the primary
    consistency: tuple[np.ndarray, ...] | None = None  # `consistency_matrices` of the batch

    @property
    def primary(self) -> ProcessExample:
        return self.members[self.primary_index]


@dataclass
class BatchStats:
    sup_loss: float
    con_loss: float = 0.0
    switched: bool = False  # consistency skipped because sup_loss was above threshold


def make_batches(vocab: dict[str, int], group: TopicGroup, cfg: TrainingConfig) -> list[Batch]:
    """One batch per labeled member, each holding the whole group.

    Unlabeled members ride along in every batch; an all-unlabeled group
    yields no batches.  Each batch plans its primary and, when consistency
    can engage, every member sharing an entity with the primary, over the
    shared entities only.
    """
    members = group.members
    batches = []
    for i, primary in enumerate(group.labeled):
        if primary.gold is None:
            raise ValueError(f"primary example {primary.id} has no gold labels")
        primary_cells = model.plan_cells(vocab, [(primary, range(primary.n_entities))])
        aligned = [(m, pairs) for j, m in enumerate(members) if cfg.consistency_enabled
                   and j != i and (pairs := shared_entities(m, primary))]
        engaged = () if not aligned else (
            model.plan_cells(vocab, [(m, [ia for ia, _ in pairs]) for m, pairs in aligned]),
            consistency_matrices(primary.n_steps, primary.n_entities, [
                (m.n_steps, len(pairs), [(q, ib) for q, (_, ib) in enumerate(pairs)])
                for m, pairs in aligned]))
        batches.append(Batch(group.topic, members, i, primary_cells, *engaged))
    return batches


# ---------------------------------------------------------------------------
# summaries and consistency

def _averaging(picks: list[tuple[int, int, int]], rows: int) -> np.ndarray:
    """The matrix whose product with `rows` step-major cell rows gives summaries:
    row r averages rows first, first + width, ... for picks[r] = (first, width, steps)."""
    avg = np.zeros((len(picks), rows))
    for r, (first, width, steps) in enumerate(picks):
        avg[r, first + width * np.arange(steps)] = 1.0 / steps
    return avg


def consistency_matrices(steps: int, width: int,
                         blocks: Sequence[tuple[int, int, Sequence[tuple[int, int]]]]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of `consistency_sum` for a primary of `steps` x `width`
    step-major cells and members stacked one block per (steps, block width,
    pairs) in `blocks`, each pair aligning a block column with a primary
    entity: the member and the primary averaging matrix (one row per pair)
    and the weights of the squared differences."""
    member_picks, primary_picks, weight, offset = [], [], [], 0
    for block_steps, block_width, pairs in blocks:
        member_picks += [(offset + column, block_width, block_steps) for column, _ in pairs]
        primary_picks += [(entity, width, steps) for _, entity in pairs]
        weight += [[1.0 / (N_CHANGES * len(pairs))] * N_CHANGES] * len(pairs)
        offset += block_steps * block_width
    return (_averaging(member_picks, offset), _averaging(primary_picks, steps * width),
            np.array(weight))


def consistency_sum(primary: Tensor, members: Tensor,
                    matrices: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Tensor:
    """Sum over members of the mean over shared entities of the mean squared
    difference between member and primary summary distributions, given the
    batch's `consistency_matrices`.  Each side is summarized by its own matmul
    before subtracting, so a self-pair gives 0."""
    member_avg, primary_avg, weight = map(ad.constant, matrices)
    diff = ad.add(ad.matmul(member_avg, members), ad.scale(ad.matmul(primary_avg, primary), -1.0))
    return ad.total(ad.mul(ad.mul(diff, diff), weight))


def _cells(grid: ChangeGrid) -> Tensor:
    if grid.is_hard:
        raise ValueError("summaries need a distribution grid")
    return ad.constant(grid.dists.reshape(-1, N_CHANGES))


def summarize(grid: ChangeGrid, entity: int) -> np.ndarray:
    """Per-entity summary distribution: the entity's step distributions averaged over steps."""
    steps, width = grid.shape[:2]
    return (_averaging([(entity, width, steps)], steps * width) @ _cells(grid).values)[0]


def consistency_loss(pred_a: ChangeGrid, example_a: ProcessExample,
                     pred_b: ChangeGrid, example_b: ProcessExample) -> float:
    """Mean squared error between summary distributions, averaged over shared entities.

    Entities are matched by exact (case/space-insensitive) name; pairs with no
    shared entity contribute 0 rather than a penalty.  This is the training
    term of member a against primary b.
    """
    pairs = shared_entities(example_a, example_b)
    if not pairs:
        return 0.0
    return consistency_sum(_cells(pred_b), _cells(pred_a),
                           consistency_matrices(*pred_b.shape, [(*pred_a.shape, pairs)])).item()


def combine_losses(sup: Tensor, con_sum: Tensor, lambda_weight: float) -> Tensor:
    """lambda*sup + (1-lambda)*con_sum; with lambda=1 this equals sup exactly."""
    return ad.add(ad.scale(sup, lambda_weight), ad.scale(con_sum, 1.0 - lambda_weight))


def batch_loss(params: ModelParams, batch: Batch,
               cfg: TrainingConfig) -> tuple[Tensor, BatchStats]:
    """Differentiable loss for one batch plus its reporting components.

    The supervised term is computed first; if it exceeds the threshold (or
    consistency is disabled) it is returned alone and no other member is even
    encoded.  Otherwise the consistency terms of all non-primary members are
    summed, unnormalized, into the combined loss.  `batch` comes from
    `make_batches` under `params.vocab` and the same `cfg`.
    """
    primary_dists = model.run_cells(params, batch.primary_cells).dists
    sup = ad.mean_nll(primary_dists, batch.primary.gold.labels.reshape(-1))
    sup_value = sup.item()

    if not cfg.consistency_enabled:
        return sup, BatchStats(sup_loss=sup_value)
    if sup_value > cfg.sup_threshold:
        return sup, BatchStats(sup_loss=sup_value, switched=True)

    if batch.member_cells is not None:
        con_sum = consistency_sum(primary_dists, model.run_cells(params, batch.member_cells).dists,
                                  batch.consistency)
    else:
        # an empty sum still goes through the combined formula, giving lambda*sup
        con_sum = ad.constant(0.0)
    total = combine_losses(sup, con_sum, cfg.lambda_weight)
    return total, BatchStats(sup_loss=sup_value, con_loss=con_sum.item())


# ---------------------------------------------------------------------------
# optimization loop

@dataclass
class TrainResult:
    params: ModelParams
    report: dict


def _sgd_step(params: ModelParams, lr: float) -> None:
    for t in params.tensors.values():
        if t.requires_grad and t.grad is not None:
            t.values -= lr * t.grad
            t.zero_grad()


def _evaluate_split(params: ModelParams, groups: Sequence[TopicGroup],
                    plans: Sequence[model.CellPlan] | None = None
                    ) -> tuple[evaluation.MetricsReport, evaluation.ConsistencyReport]:
    """Micro P/R/F1 over labeled examples and consistency score over all examples;
    `plans` are the split's `plan_chunks`, built here when not given."""
    examples = flatten_groups(groups)
    hard = [evaluation.discretize(grid)
            for grid in model.predict_grids(params, examples, plans)]
    metrics = evaluation.score_corpus((h, ex.gold) for ex, h in zip(examples, hard)
                                      if ex.gold is not None)
    return metrics, evaluation.consistency_score(
        groups, {ex.id: h for ex, h in zip(examples, hard)})


def train(groups: Sequence[TopicGroup], cfg: TrainingConfig,
          dev: Sequence[TopicGroup] = (),
          embeddings: EmbeddingTable | None = None) -> TrainResult:
    """Train on all batches of all groups, keeping the best-dev checkpoint.

    Group order is reshuffled every epoch from the run seed; batch order
    within a group is fixed.  Every batch and the dev split are planned once,
    before the first epoch.  Groups without any labeled member are skipped
    and counted.  A non-finite loss aborts with full context.  With an
    embedding table the word vectors come from it and stay frozen.
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
    params = model.init_params(model.build_vocab(groups), cfg.embedding_dim, cfg.hidden_size,
                               seed=cfg.seed, embeddings=embeddings)
    batches = [make_batches(params.vocab, g, cfg) for g in trainable_groups]
    dev_plans = model.plan_chunks(params.vocab, flatten_groups(dev))

    epochs_log = []
    best_f1 = -1.0
    best_epoch = None
    best_params = None
    for epoch in range(1, cfg.epochs + 1):
        sup_losses, con_losses, switches = [], [], 0
        for gi in rng.permutation(len(batches)):
            for bi, batch in enumerate(batches[gi]):
                with ComputationTape() as tape:
                    loss, stats = batch_loss(params, batch, cfg)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, group {batch.topic!r} batch {bi}: "
                        f"total={value}, sup={stats.sup_loss}, con={stats.con_loss}")
                tape.backward(loss)
                _sgd_step(params, cfg.learning_rate)
                sup_losses.append(stats.sup_loss)
                con_losses.append(stats.con_loss)
                switches += int(stats.switched)

        dev_f1 = dev_consistency = None
        if dev:
            metrics, consistency = _evaluate_split(params, dev, dev_plans)
            dev_f1, dev_consistency = metrics.f1, consistency.score
            # ties keep the later epoch's checkpoint
            if dev_f1 >= best_f1:
                best_f1 = dev_f1
                best_epoch = epoch
                best_params = params.copy()
        epochs_log.append({
            "epoch": epoch,
            "mean_sup_loss": float(np.mean(sup_losses)),
            "mean_con_loss": float(np.mean(con_losses)),
            "adaptive_switch_rate": switches / len(sup_losses),
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
