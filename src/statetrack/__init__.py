"""Entity state-change tracking for procedural text, trained jointly on a
supervised loss and a cross-paragraph label-consistency loss."""

from .autodiff import ComputationTape, Tensor
from .corpus import (ChangeGrid, CorpusError, EmbeddingTable, Entity,
                     ProcessExample, StateChange, TopicGroup, demote_labels,
                     generate_synthetic, load_corpus, load_examples,
                     save_examples, shared_entities)
from .evaluation import (ConsistencyReport, MetricsReport, consistency_score,
                         discretize, score_corpus, score_grids, summary_set)
from .model import (CellPlan, ModelParams, build_vocab, init_params, load_checkpoint,
                    plan_cells, predict_grid, run_cells, save_checkpoint)
from .training import (Batch, BatchStats, NumericalError, TrainingConfig,
                       TrainResult, batch_loss, consistency_loss, make_batches,
                       summarize, train)

__version__ = "0.1.0"
