"""protofed: a deterministic simulator for prototype-based federated learning
under domain skew.

Clients upload per-class feature centroids alongside model weights; the
server blends them into generalized prototypes by distance reweighting with
an EMA across rounds, and clients regularize local training with a
prototype-contrastive term plus alignment to MixUp-augmented prototypes.
"""

from .config import ConfigError, ExperimentConfig, SweepSpec, load_config
from .federation import (
    ClientState,
    ExperimentResult,
    RoundReport,
    ServerState,
    aggregate_params,
    build_problem,
    evaluate,
    local_updates,
    run_experiment,
    run_round,
)
from .losses import LossBreakdown, apa_loss, cross_entropy, gpcl_loss, gpcl_targets, total_loss
from .model import (
    ForwardTrace,
    ModelParams,
    backward,
    forward,
    init_params,
    load_params,
    save_params,
    sgd_step,
)
from .numerics import keyed_rng, sample_beta
from .prototypes import (
    PrototypeSet,
    ReweightReport,
    average_prototypes,
    ema_update,
    local_prototypes,
    reweight,
)

__version__ = "0.1.0"
