"""Amortized partition functions for small-batch contrastive pretraining.

Two modality encoders are trained either with the standard in-batch
ranking NCE objective (the CLIP baseline) or with an amortized
maximum-likelihood objective in which lightweight per-modality MLPs learn
the log partition function of the energy model, re-fit continuously in a
two-stage alternation.
"""

from .amortization import (
    GENERATORS,
    DivergenceGenerator,
    PartitionEstimate,
    TargetAmortizer,
    amortize_forward,
    beta_schedule,
    combined_target,
    ema_update,
    exact_partition,
    fdiv_weights,
    init_amortizer,
    loss_l2log,
)
from .data import (
    PairedDataset,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_eval,
)
from .encoders import (
    EmbeddingBatch,
    EncoderParams,
    Temperature,
    encode,
    encoder_backward,
    init_encoders,
    similarity_matrix,
)
from .errors import (
    AmorlipError,
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    FormatError,
    OracleError,
    TrainingDivergence,
)
from .evaluation import EvalReport, evaluate_model, zero_shot_accuracy
from .losses import (
    LossOutput,
    RhoSchedule,
    amortized_mle_loss,
    mle_gradient_equivalence_check,
    nce_loss,
    rho_at,
    temperature_rescale,
)
from .numerics import (
    AdamW,
    ParamBlock,
    ParamStore,
    finite_difference_gradient,
    l2_normalize_rows,
    seeded_rng,
)
from .spectral import RandomFeatureMap, kernel_estimate, partition_estimate_mc, sample_features
from .trainer import (
    MetricsWriter,
    TrainConfig,
    TrainState,
    amortizer_fidelity_experiment,
    checkpoint_save,
    init_train_state,
    load_eval_model,
    restore_train_state,
    run_amorlip,
    run_clip_baseline,
    run_training,
)

__version__ = "0.1.0"
