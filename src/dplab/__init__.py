"""Differentially private training lab.

DP-SGD, difference perturbation, and gradient decomposition/reconstruction
with a mixed schedule, backed by an exact integer-order RDP accountant,
noise calibration, coherence diagnostics, and a reproducible experiment
CLI.
"""

from .accountant import (
    DEFAULT_ORDERS,
    PrivacyLedger,
    ReleaseEvent,
    calibrate_sigma,
    effective_sigma,
    rdp_subsampled_gaussian,
    release_sigma,
    schedule_ledger,
)
from .datasets import Dataset, gen_synthetic, load_idx_pair, poisson_sample
from .decomposition import GdrBase, normalize_base, reconstruct
from .diagnostics import (
    CSV_COLUMNS,
    MetricsRow,
    coherence_stats,
    steps_to_target_loss,
)
from .errors import (
    CalibrationError,
    CalibrationInfeasible,
    ConfigError,
    ContractViolation,
    IdxFormatError,
)
from .mechanism import ClipSpec, NoisePlan
from .models import (
    Architecture,
    Batch,
    GradientFactors,
    Model,
    apply_update,
    backprop,
    init_model,
    logistic_regression,
    mlp,
)
from .trainers import (
    METHODS,
    StepOutcome,
    TrainConfig,
    TrainResult,
    diff_step,
    dpsgd_step,
    gdr_step,
    privacy_schedule,
    resolve_noise,
    train,
)
from .vectors import (
    LayeredVector,
    RngStream,
    axpy,
    dot,
    gaussian_sample,
    l2_norm,
    l2_norm_layer,
)

__version__ = "0.1.0"
