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
    ledger_append,
    rdp_subsampled_gaussian,
    to_eps_delta,
)
from .datasets import Dataset, gen_synthetic, load_cache, load_idx_pair, poisson_sample, save_cache
from .decomposition import Decomposition, GdrBase, decompose, decompose_batch, normalize_base, reconstruct
from .diagnostics import (
    CSV_COLUMNS,
    CoherenceStats,
    MetricsRow,
    SensitivityProbe,
    coherence_stats,
    histogram,
    sensitivity_probe,
    steps_to_target_loss,
)
from .errors import (
    CalibrationError,
    CalibrationInfeasible,
    ConfigError,
    ContractViolation,
    IdxFormatError,
)
from .mechanism import (
    ClipSpec,
    NoisePlan,
    aggregate_and_perturb,
    aggregate_and_perturb_scalars,
    clip_alpha_vec,
    clip_to_norm,
)
from .models import (
    Architecture,
    Batch,
    GradientFactors,
    Model,
    accuracy,
    apply_update,
    backprop,
    evaluate,
    init_model,
    logistic_regression,
    loss,
    mean_gradient,
    mlp,
    per_sample_gradients,
)
from .trainers import (
    METHODS,
    StepOutcome,
    TrainConfig,
    TrainResult,
    diff_step,
    dpdr_train,
    dpsgd_step,
    gdr_step,
    privacy_schedule,
    resolve_noise,
    train,
)
from .vectors import (
    LayeredVector,
    RngStream,
    add,
    axpy,
    dot,
    dot_layer,
    gaussian_sample,
    l2_norm,
    l2_norm_layer,
    scale,
    sub,
)

__version__ = "0.1.0"
