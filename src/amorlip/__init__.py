"""Amortized partition functions for small-batch contrastive pretraining.

Two modality encoders are trained either with the standard in-batch
ranking NCE objective (the CLIP baseline) or with an amortized
maximum-likelihood objective in which lightweight per-modality MLPs learn
the log partition function of the energy model, re-fit continuously in a
two-stage alternation.
"""

# The benchmark harness imports these names from the package root; every
# other name is imported from its own module.
from .data import generate_synthetic, load_dataset, save_dataset, split_eval
from .errors import AmorlipError
from .evaluation import evaluate_model
from .trainer import (
    MetricsWriter,
    TrainConfig,
    checkpoint_save,
    init_train_state,
    load_eval_model,
    run_training,
)

__version__ = "0.1.0"
