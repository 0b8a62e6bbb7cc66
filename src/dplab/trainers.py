"""Training loops: plain SGD, DP-SGD, difference perturbation (DIFF), and
decomposition/reconstruction with a mixed schedule (DPDR).

DPDR runs one full DP-SGD step, then decomposes per-sample gradients
against the previous released gradient for steps 2..s, then falls back to
DP-SGD for the rest of the run. Every private step emits exactly one
ledger event; batch sampling and noise use disjoint stream tags so methods
compared at the same seed see identical batch sequences.

Each step works on the batch's gradient factors (:func:`dplab.models.backprop`)
and releases through :func:`dplab.mechanism.privatize`: norms, clipped sums
and coefficients of the g_i come from the factors; norms and sums of the
differences g_i - p and g_i - alpha_i b come from dense rows built chunk by
chunk. No step builds a per-sample vector or a full (B, D) array.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .accountant import (
    ROLE_DPSGD,
    ROLE_FIRST,
    ROLE_GDR,
    PrivacyLedger,
    ReleaseEvent,
    calibrate_sigma,
    effective_sigma,
)
from .datasets import Dataset, poisson_sample
from .decomposition import GdrBase, coefficients, normalize_base, reconstruct
from .diagnostics import MetricsRow, coherence_stats
from .errors import ContractViolation
from .mechanism import (
    ClipSpec,
    DenseRows,
    DifferenceRows,
    GradientRows,
    NoisePlan,
    privatize,
)
from .models import (
    Architecture,
    Batch,
    Model,
    apply_update,
    backprop,
    evaluate,
    init_model,
    logistic_regression,
)
from .vectors import LayeredVector, RngStream, gaussian_sample, scale

__all__ = [
    "METHODS",
    "StepOutcome",
    "TrainConfig",
    "TrainResult",
    "diff_step",
    "dpdr_train",
    "dpsgd_step",
    "gdr_step",
    "privacy_schedule",
    "resolve_noise",
    "train",
]

METHODS = ("sgd", "dpsgd", "diff", "dpdr")

# stream tags; batch sampling is deliberately separate from every noise tag
BATCH_TAG = "batch"
NOISE_G_TAG = "noise-g"
NOISE_PERP_TAG = "noise-perp"
NOISE_ALPHA_TAG = "noise-alpha"

DEFAULT_DELTA = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Full experiment description.

    Either ``noise`` is given explicitly, or ``eps_target`` (with ``delta``
    and, for dpdr, ``sigma_alpha``) asks for calibration before training.
    ``arch`` defaults to logistic regression sized from the dataset.
    """

    method: str
    total_steps: int
    batch: int
    lr: float
    seed: int
    clip: ClipSpec | None = None
    noise: NoisePlan | None = None
    switch_step: int | None = None
    eps_target: float | None = None
    delta: float = DEFAULT_DELTA
    sigma_alpha: float | None = None
    ratio_g: float = 1.0
    arch: Architecture | None = None
    dataset_ref: object = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ContractViolation(f"unknown method {self.method!r}")
        if self.total_steps < 1:
            raise ContractViolation(f"total_steps must be >= 1, got {self.total_steps}")
        if self.batch < 1:
            raise ContractViolation(f"batch must be >= 1, got {self.batch}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ContractViolation(f"lr must be positive, got {self.lr!r}")
        if not 0.0 < self.delta < 1.0:
            raise ContractViolation(f"delta must be in (0, 1), got {self.delta!r}")
        if self.method == "dpdr":
            if self.switch_step is None:
                raise ContractViolation("dpdr requires switch_step")
            if not 1 <= self.switch_step <= self.total_steps:
                raise ContractViolation(
                    f"switch_step must lie in [1, {self.total_steps}], got {self.switch_step}"
                )
        elif self.switch_step is not None:
            raise ContractViolation(f"switch_step is only valid for dpdr, not {self.method}")
        if self.method != "sgd":
            if self.clip is None:
                raise ContractViolation(f"{self.method} requires clip bounds")
            if self.noise is None and self.eps_target is None:
                raise ContractViolation(
                    f"{self.method} requires noise multipliers or an eps target"
                )
            if self.noise is not None and self.eps_target is not None:
                raise ContractViolation("give either noise multipliers or an eps target, not both")
            if self.eps_target is not None:
                if self.eps_target <= 0:
                    raise ContractViolation(f"eps target must be positive, got {self.eps_target}")
                if self.method == "dpdr" and self.sigma_alpha is None:
                    raise ContractViolation("dpdr calibration requires sigma_alpha")


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """What one step releases: the noisy gradient (the only model-update
    signal), its telemetry, and the ledger event (None for non-private
    releases). Raw per-sample gradients never leave a step."""

    released: LayeredVector
    metrics: MetricsRow
    event: ReleaseEvent | None
    perp_norms: np.ndarray | None = None


def _blank_row(step: int) -> MetricsRow:
    return MetricsRow(step, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def sgd_step(model: Model, batch: Batch) -> StepOutcome:
    """Non-private baseline: release the exact batch-mean gradient."""
    if batch.size == 0:
        raise ContractViolation("sgd_step requires a non-empty batch")
    grads = backprop(model, batch)
    total = grads.weighted_sum(np.ones(batch.size))
    released = LayeredVector(tuple(t / batch.size for t in total))
    row = replace(_blank_row(0), grad_norm_median=float(np.median(grads.norms())))
    return StepOutcome(released, row, None)


def dpsgd_step(
    model: Model,
    batch: Batch,
    c_g: float,
    sigma_g: float,
    q: float,
    stream: RngStream,
    prev_release: LayeredVector | None = None,
) -> StepOutcome:
    """Clip per-sample gradients to c_g, perturb the sum, average.

    ``prev_release`` is telemetry-only: when given, the median per-sample
    difference norm against it is recorded. Clip norms and the gradient
    norm median come from the factors either way.
    """
    if batch.size == 0:
        raise ContractViolation("dpsgd_step requires a non-empty batch")
    grads = backprop(model, batch)
    blocks, norms = privatize(GradientRows(grads), c_g, sigma_g, stream, batch.size)
    diff_median = 0.0
    if prev_release is not None:
        diff_median = float(np.median(DifferenceRows(grads, prev_release).norms()))
    row = replace(
        _blank_row(stream.step),
        grad_norm_median=float(np.median(norms)),
        diff_norm_median=diff_median,
    )
    event = ReleaseEvent(q, sigma_g, 1) if sigma_g > 0 else None
    return StepOutcome(LayeredVector(blocks), row, event)


def diff_step(
    model: Model,
    batch: Batch,
    prev_release: LayeredVector,
    c_d: float,
    sigma_d: float,
    q: float,
    stream: RngStream,
) -> StepOutcome:
    """Perturb per-sample differences against the previous release, then add
    the previous release back. Staleness shows up as a difference norm
    larger than the gradient norm; both norms come from the same dense rows."""
    if batch.size == 0:
        raise ContractViolation("diff_step requires a non-empty batch")
    diffs = DifferenceRows(backprop(model, batch), prev_release)
    noisy_diff, diff_norms = privatize(diffs, c_d, sigma_d, stream, batch.size)
    released = LayeredVector(tuple(d + p for d, p in zip(noisy_diff, prev_release.blocks)))
    row = replace(
        _blank_row(stream.step),
        grad_norm_median=float(np.median(diffs.grad_norms())),
        diff_norm_median=float(np.median(diff_norms)),
    )
    event = ReleaseEvent(q, sigma_d, 1) if sigma_d > 0 else None
    return StepOutcome(released, row, event)


def gdr_step(
    model: Model,
    batch: Batch,
    base: GdrBase,
    clip: ClipSpec,
    noise: NoisePlan,
    q: float,
    perp_stream: RngStream,
    alpha_stream: RngStream,
) -> tuple[StepOutcome, GdrBase]:
    """Decompose per-sample gradients against the base, privatize the two
    channels separately, reconstruct, and renormalize the release into the
    next base."""
    if batch.size == 0:
        raise ContractViolation("gdr_step requires a non-empty batch")
    grads = backprop(model, batch)
    alphas = coefficients(grads, base)
    noisy_perp, perp_norms = privatize(
        DifferenceRows(grads, base.b, alphas),
        clip.c_perp, noise.sigma_perp, perp_stream, batch.size,
    )
    (noisy_alpha,), _ = privatize(
        DenseRows(alphas), clip.c_alpha, noise.sigma_alpha, alpha_stream, batch.size
    )
    released = reconstruct(noisy_alpha, LayeredVector(noisy_perp), base)
    new_base = normalize_base(released, perp_stream.step)
    row = replace(
        _blank_row(perp_stream.step),
        grad_norm_median=float(np.median(grads.norms())),
        perp_norm_median=float(np.median(perp_norms)),
        alpha_vec_norm=float(math.sqrt(np.sum(noisy_alpha * noisy_alpha))),
    )
    event = None
    if noise.sigma_perp > 0 and noise.sigma_alpha > 0:
        event = ReleaseEvent(q, effective_sigma(noise.sigma_perp, noise.sigma_alpha), 1)
    return StepOutcome(released, row, event, perp_norms), new_base


def privacy_schedule(
    method: str, q: float, total_steps: int, switch_step: int | None = None
) -> list[tuple[float, int, str]]:
    """Release schedule of a run as (q, steps, role) entries."""
    if method == "sgd":
        return []
    if method in ("dpsgd", "diff"):
        return [(q, total_steps, ROLE_DPSGD)]
    if method != "dpdr":
        raise ContractViolation(f"unknown method {method!r}")
    if switch_step is None:
        raise ContractViolation("dpdr schedule requires switch_step")
    schedule = [(q, 1, ROLE_FIRST)]
    if switch_step >= 2:
        schedule.append((q, switch_step - 1, ROLE_GDR))
    if total_steps > switch_step:
        schedule.append((q, total_steps - switch_step, ROLE_DPSGD))
    return schedule


def resolve_noise(config: TrainConfig, n: int) -> NoisePlan | None:
    """Return the run's noise plan, calibrating it when an eps target is set.

    Calibration failures surface here, before any training data is touched.
    """
    if config.method == "sgd":
        return None
    if config.noise is not None:
        return config.noise
    q = config.batch / n
    schedule = privacy_schedule(config.method, q, config.total_steps, config.switch_step)
    sigma_alpha = config.sigma_alpha if config.method == "dpdr" else 1.0
    sigma_perp, sigma_g = calibrate_sigma(
        config.eps_target, config.delta, schedule, sigma_alpha, config.ratio_g
    )
    if config.method == "dpdr":
        return NoisePlan(sigma_g=sigma_g, sigma_perp=sigma_perp, sigma_alpha=config.sigma_alpha)
    return NoisePlan(sigma_g=sigma_g, sigma_perp=0.0, sigma_alpha=0.0)


def _is_non_private(config: TrainConfig, noise: NoisePlan | None) -> bool:
    """True when some channel the method relies on carries no noise."""
    if config.method == "sgd":
        return True
    assert noise is not None
    if noise.sigma_g <= 0:
        return True
    if config.method == "dpdr" and config.switch_step >= 2:
        return noise.sigma_perp <= 0 or noise.sigma_alpha <= 0
    return False


@dataclass
class TrainResult:
    model: Model
    rows: list[MetricsRow]
    ledger: PrivacyLedger
    noise: NoisePlan | None
    non_private: bool
    phase_steps: dict[str, int]
    perp_snapshot: np.ndarray | None
    runtime_ms: float
    config: TrainConfig = field(repr=False, default=None)  # type: ignore[assignment]


def _noise_only_vector(layer_dims, c: float, sigma: float, stream: RngStream, b: int) -> LayeredVector:
    if sigma <= 0:
        return LayeredVector.zeros(layer_dims)
    return scale(1.0 / b, gaussian_sample(stream, layer_dims, sigma * c))


def _noise_only_scalars(m: int, c: float, sigma: float, stream: RngStream, b: int) -> np.ndarray:
    if sigma <= 0:
        return np.zeros(m)
    return stream.generator().standard_normal(m) * (sigma * c) / b


def train(config: TrainConfig, dataset: Dataset) -> TrainResult:
    """Run one seeded experiment and return its artifacts in memory."""
    if config.batch > dataset.n:
        raise ContractViolation(
            f"batch {config.batch} exceeds dataset size {dataset.n}"
        )
    noise = resolve_noise(config, dataset.n)
    arch = config.arch or logistic_regression(dataset.d_in, dataset.n_classes)
    method = config.method
    q = config.batch / dataset.n
    total = config.total_steps
    switch = config.switch_step if method == "dpdr" else None
    dims = arch.parameter_layer_dims()

    started = time.perf_counter()
    model = init_model(arch, config.seed)
    ledger = PrivacyLedger(config.delta)
    non_private = _is_non_private(config, noise)
    eval_batch = Batch(dataset.inputs, dataset.labels)
    rows: list[MetricsRow] = []
    prev_release: LayeredVector | None = None
    base: GdrBase | None = None
    snapshot: np.ndarray | None = None
    phase_steps = {"first": 0, "gdr": 0, "dpsgd": 0}

    for t in range(1, total + 1):
        step_started = time.perf_counter()
        batch = poisson_sample(dataset, q, RngStream(config.seed, t, BATCH_TAG))
        empty = batch.size == 0

        if method == "sgd":
            if empty:
                outcome = StepOutcome(LayeredVector.zeros(dims), _blank_row(t), None)
            else:
                outcome = sgd_step(model, batch)
        elif method == "diff":
            prev = prev_release if prev_release is not None else LayeredVector.zeros(dims)
            stream = RngStream(config.seed, t, NOISE_G_TAG)
            if empty:
                rel = LayeredVector(
                    tuple(
                        nb + pb
                        for nb, pb in zip(
                            _noise_only_vector(
                                dims, config.clip.c_g, noise.sigma_g, stream, config.batch
                            ).blocks,
                            prev.blocks,
                        )
                    )
                )
                event = ReleaseEvent(q, noise.sigma_g, 1) if noise.sigma_g > 0 else None
                outcome = StepOutcome(rel, _blank_row(t), event)
            else:
                outcome = diff_step(
                    model, batch, prev, config.clip.c_g, noise.sigma_g, q, stream
                )
        else:  # dpsgd, or a dpsgd-phase / first step of dpdr
            gdr_phase = method == "dpdr" and 2 <= t <= switch
            if not gdr_phase:
                stream = RngStream(config.seed, t, NOISE_G_TAG)
                if empty:
                    rel = _noise_only_vector(
                        dims, config.clip.c_g, noise.sigma_g, stream, config.batch
                    )
                    event = ReleaseEvent(q, noise.sigma_g, 1) if noise.sigma_g > 0 else None
                    outcome = StepOutcome(rel, _blank_row(t), event)
                else:
                    track_diff = prev_release if method == "dpsgd" else None
                    outcome = dpsgd_step(
                        model, batch, config.clip.c_g, noise.sigma_g, q, stream, track_diff
                    )
                if method == "dpdr":
                    phase_steps["first" if t == 1 else "dpsgd"] += 1
                else:
                    phase_steps["dpsgd"] += 1
                if method == "dpdr" and t == 1:
                    base = normalize_base(outcome.released, 1)
            else:
                perp_stream = RngStream(config.seed, t, NOISE_PERP_TAG)
                alpha_stream = RngStream(config.seed, t, NOISE_ALPHA_TAG)
                if empty:
                    noisy_perp = _noise_only_vector(
                        dims, config.clip.c_perp, noise.sigma_perp, perp_stream, config.batch
                    )
                    noisy_alpha = _noise_only_scalars(
                        len(dims), config.clip.c_alpha, noise.sigma_alpha, alpha_stream,
                        config.batch,
                    )
                    rel = reconstruct(noisy_alpha, noisy_perp, base)
                    event = None
                    if noise.sigma_perp > 0 and noise.sigma_alpha > 0:
                        event = ReleaseEvent(
                            q, effective_sigma(noise.sigma_perp, noise.sigma_alpha), 1
                        )
                    outcome = StepOutcome(rel, _blank_row(t), event)
                    base = normalize_base(rel, t)
                else:
                    outcome, base = gdr_step(
                        model, batch, base, config.clip, noise, q, perp_stream, alpha_stream
                    )
                    if outcome.perp_norms is not None and outcome.perp_norms.size:
                        snapshot = outcome.perp_norms
                phase_steps["gdr"] += 1

        if outcome.event is not None:
            ledger.append(outcome.event)
        model = apply_update(model, outcome.released, config.lr)

        train_loss, train_acc = evaluate(model, eval_batch)
        cos_prev = 0.0
        if prev_release is not None:
            cos_prev = coherence_stats(prev_release, outcome.released).cosine
        if method == "sgd":
            eps_cum = 0.0
        elif non_private:
            eps_cum = math.inf
        else:
            eps_cum = ledger.epsilon()[0]
        wall_ms = (time.perf_counter() - step_started) * 1000.0
        rows.append(
            replace(
                outcome.metrics,
                step=t,
                train_loss=train_loss,
                train_accuracy=train_acc,
                cos_prev=cos_prev,
                eps_cum=eps_cum,
                wall_ms=wall_ms,
            )
        )
        prev_release = outcome.released

    runtime_ms = (time.perf_counter() - started) * 1000.0
    return TrainResult(
        model=model,
        rows=rows,
        ledger=ledger,
        noise=noise,
        non_private=non_private,
        phase_steps=phase_steps,
        perp_snapshot=snapshot,
        runtime_ms=runtime_ms,
        config=config,
    )


def dpdr_train(config: TrainConfig, dataset: Dataset, ledger: PrivacyLedger | None = None):
    """Run the mixed-schedule method; returns (final model, rows, ledger).

    A caller-provided ledger receives this run's events on top of whatever
    it already holds.
    """
    if config.method != "dpdr":
        raise ContractViolation(f"dpdr_train requires method='dpdr', got {config.method!r}")
    result = train(config, dataset)
    if ledger is not None:
        for event in result.ledger.events:
            ledger.append(event)
        return result.model, result.rows, ledger
    return result.model, result.rows, result.ledger
