"""Binary hashing codes for retrieval, with progressive merging of
redundant code bits."""

from .data import (FeatureDataset, assign_splits, build_similarity,
                   generate_synthetic, load_features, save_features,
                   standardize)
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     InvalidCodeError, NmhashError)
from .losses import LossValue, relaxed_hash_loss, relaxed_hash_loss_grad
from .merging import (MergeGraph, active_grad, active_loss,
                      apply_active_step, apply_choices, draw_choices,
                      eval_forward, frozen_grads, frozen_loss,
                      propagate_scores, score_neurons, truncate)
from .metrics import (RetrievalResult, mean_average_precision, pr_curve,
                      precision_at_hamming_radius, precision_at_top_n,
                      retrieve, sign_pm1)
from .network import (HashNet, SgdConfig, backward, forward, init_network,
                      sgd_step)
from .training import (Checkpoint, ExperimentConfig, RunReport, TrainingRun,
                       load_checkpoint, save_checkpoint)

__version__ = "0.1.0"
