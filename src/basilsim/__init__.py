"""Deterministic simulator and analysis toolkit for Byzantine-resilient
decentralized training over logical rings."""

from .acds import (
    AcdsPlan,
    SharedPool,
    acds_comm_cost,
    acds_comm_time,
    anonymity_level,
    plan_acds,
    run_acds,
)
from .analytics import (
    ProbabilityBound,
    basil_failure_prob,
    basil_plus_failure_case1,
    basil_plus_failure_prob,
    basil_plus_training_time,
    basil_training_time,
    basil_training_time_recursion,
    monte_carlo_basil_plus_failure,
    monte_carlo_ring_failure,
    ubar_training_time,
)
from .attacks import (
    AttackSpec,
    gaussian_attack,
    hidden_attack,
    inverse_attack,
    sign_flip_attack,
)
from .basil_plus import BasilPlusDriver, cluster_nodes
from .data import Dataset, make_cluster_dataset, make_quadratic_dataset, partition
from .errors import ConfigError, IdxFormatError, NumericFaultError, ProtocolError
from .harness import run_experiment, validate_config
from .history import HistoryRow, TrainHistory
from .idx import load_idx, read_idx_images, read_idx_labels
from .models import (
    MlpTask,
    ModelVector,
    QuadraticTask,
    SoftmaxTask,
    accuracy,
    evaluate_loss,
    sgd_step,
)
from .ring import BasilRing, StoredModels, agree_order, basil_select

__version__ = "0.1.0"
