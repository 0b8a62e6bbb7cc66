"""Training loops: plain SGD, DP-SGD, difference perturbation (DIFF), and
decomposition/reconstruction with a mixed schedule (DPDR).

SGD is the DP-SGD step with clip bound inf and noise multiplier 0, so every
method releases through :func:`dplab.mechanism.privatize`. DPDR runs one
full DP-SGD step, then decomposes per-sample gradients against the previous
released gradient for steps 2..s, then falls back to DP-SGD for the rest of
the run. The steps only release; :func:`train` appends one ledger event per
private step, at
:func:`dplab.accountant.release_sigma` of its role. Batch sampling and noise
use disjoint stream tags so methods compared at the same seed see identical
batch sequences.

Each step works on the batch's gradient factors (:func:`dplab.models.backprop`)
and releases through :func:`dplab.mechanism.privatize`: norms, clipped sums
and coefficients of the g_i come from the factors. The dpdr orthogonal
channel g_i - alpha_i b is clipped and summed from the factors too
(:class:`dplab.mechanism.OrthogonalRows`), and the dpsgd difference-norm
telemetry against p is measured from them
(:meth:`dplab.mechanism.DifferenceRows.norms`). Both fall back to dense rows,
built chunk by chunk, for the samples too close to the base or to p for the
factored form. Its guard keeps ||g_i|| + ||alpha_i b|| within
sqrt(2 / CANCELLATION_TAU) (about 14) times ||g_i - alpha_i b||, so a factored
contribution still rounds relative to its clip bound. The diff channel
g_i - p stays on dense rows: its gradient norms come from the same rows, so a
constructed staleness ratio reads exactly 2. No step builds a per-sample
vector or a full (B, D) array.

Full-training-set loss and accuracy are telemetry and never feed the
trajectory. :func:`train` adds each step's updated model to a
:class:`dplab.models.EvalWindow` and scores the window when it holds its
share of the run's steps: :func:`_eval_windows` splits the run into as few
near-equal windows as keep within :data:`dplab.models.EVAL_CHUNK_BYTES`
(one or two on the MNIST-shaped runs), so the dataset is read once per
window. The window computes in float32, so ``train_loss`` is
approximate (the tests hold it within 1e-5 relative of a float64
reference, or within 1e-7 plus 4 * 2^-24 * max|logit| absolute) and a
float32 near-tie may flip a hit in ``train_accuracy``;
parameters, releases, the ledger and every other row field keep their
float64 bits. A row's ``wall_ms`` is its own step time plus an equal share
of its window's evaluation time, so the rows' ``wall_ms`` add up to the
loop's elapsed time.

Every release, sgd's included, is divided by the expected batch size
``config.batch``, never by the realized Poisson size: that count is private,
and dividing by it lets one example rescale every other contribution. So a
release moves by at most c / b when one example is added or removed, the
sensitivity the ledger assumes. diff's release p + (sum_i clip(g_i - p) +
noise) / b has that sensitivity against the public previous release p; its
noiseless release is sum_i g_i / b + (1 - B / b) p. An empty draw runs the
same step on zero rows: the sums are zero, the release is the noise alone
(plus the previous release for diff), one ledger event is spent, and
per-sample medians read 0.0.
"""

from __future__ import annotations

import itertools
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
    release_sigma,
)
from .datasets import Dataset, poisson_sample
from .decomposition import GdrBase, normalize_base, reconstruct
from .diagnostics import MetricsRow, coherence_stats
from .errors import ContractViolation
from .mechanism import (
    ClipSpec,
    DenseRows,
    DifferenceRows,
    GradientRows,
    NoisePlan,
    OrthogonalRows,
    privatize,
)
from .models import (
    EVAL_CHUNK_BYTES,
    Architecture,
    Batch,
    EvalWindow,
    Model,
    apply_update,
    backprop,
    init_model,
    logistic_regression,
)
from .vectors import LayeredVector, RngStream

__all__ = [
    "METHODS",
    "StepOutcome",
    "TrainConfig",
    "TrainResult",
    "diff_step",
    "dpsgd_step",
    "gdr_step",
    "privacy_schedule",
    "resolve_noise",
    "train",
]

# stream tags; batch sampling is deliberately separate from every noise tag
BATCH_TAG = "batch"
NOISE_G_TAG = "noise-g"
NOISE_PERP_TAG = "noise-perp"
NOISE_ALPHA_TAG = "noise-alpha"

DEFAULT_DELTA = 1e-5

# The optional TrainConfig settings in config-document order: each one's key
# in a config document ("block.key" for a key inside a block), and the value
# it takes where its run takes it but it is not given (None: required there).
SETTINGS = {
    "switch_step": ("switch_step", None),
    "clip": ("clip", None),
    "noise": ("noise", None),
    "eps_target": ("privacy.eps", None),
    "delta": ("privacy.delta", DEFAULT_DELTA),
    "sigma_alpha": ("privacy.sigma_alpha", None),
    "ratio_g": ("privacy.ratio_g", 1.0),
}

_CALIBRATED = ("clip", "eps_target", "delta", "ratio_g")
# method -> noise form -> the settings a run of that form takes. A private
# run's form is the setting that fixes its noise: explicit "noise", or an
# "eps_target" to calibrate to. sgd trains without privacy and has no form.
TAKES = {
    "sgd": {None: ()},
    "dpsgd": {"noise": ("clip", "noise"), "eps_target": _CALIBRATED},
    "diff": {"noise": ("clip", "noise"), "eps_target": _CALIBRATED},
    "dpdr": {
        "noise": ("switch_step", "clip", "noise"),
        "eps_target": ("switch_step", "sigma_alpha", *_CALIBRATED),
    },
}

METHODS = tuple(TAKES)


@dataclass(frozen=True)
class TrainConfig:
    """Full experiment description, and the one place that checks how its
    values fit together.

    A run takes the optional settings of its :data:`TAKES` row. A given
    setting outside the row, which the run would ignore, is rejected, and so
    is a missing one that the row requires. ``delta`` and ``ratio_g`` go
    only with an eps target, which fills them in as 1e-5 and 1.0 (so
    :func:`dataclasses.replace` passes the check again); explicit noise is
    accounted at δ = 1e-5. ``lr``, ``ratio_g``, ``eps_target`` and
    ``sigma_alpha`` must be finite and positive, ``delta`` in (0, 1) and
    ``switch_step`` in [1, total_steps]. ``arch`` defaults to logistic
    regression sized from the dataset.
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
    delta: float | None = None
    sigma_alpha: float | None = None
    ratio_g: float | None = None
    arch: Architecture | None = None

    def __post_init__(self):
        if self.method not in TAKES:
            raise ContractViolation(f"unknown method {self.method!r}")
        if self.total_steps < 1:
            raise ContractViolation(f"total_steps must be >= 1, got {self.total_steps}")
        if self.batch < 1:
            raise ContractViolation(f"batch must be >= 1, got {self.batch}")
        positive = {
            "lr": self.lr,
            "ratio_g": self.ratio_g,
            "eps target": self.eps_target,
            "sigma_alpha": self.sigma_alpha,
        }
        for name, value in positive.items():
            if value is not None and (not math.isfinite(value) or value <= 0):
                raise ContractViolation(f"{name} must be positive and finite, got {value!r}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ContractViolation(f"delta must be in (0, 1), got {self.delta!r}")
        if self.switch_step is not None and not 1 <= self.switch_step <= self.total_steps:
            raise ContractViolation(
                f"switch_step must lie in [1, {self.total_steps}], got {self.switch_step}"
            )
        forms = TAKES[self.method]
        # with both noise and an eps target, the noise row rejects the target
        form = next((f for f in forms if f is None or getattr(self, f) is not None), None)
        if form not in forms:
            raise ContractViolation(f"{self.method} requires noise multipliers or an eps target")
        run = self.method if form is None else f"{self.method} with {form}"
        for name, (_, default) in SETTINGS.items():
            value = getattr(self, name)
            if name not in forms[form]:
                if value is not None:
                    raise ContractViolation(f"{run} takes no {name}")
            elif value is None:
                if default is None:
                    raise ContractViolation(f"{run} requires {name}")
                object.__setattr__(self, name, default)


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """What one step releases: the noisy gradient (the only model-update
    signal) and its telemetry. Raw per-sample gradients never leave a step."""

    released: LayeredVector
    metrics: MetricsRow
    perp_norms: np.ndarray | None = None


def _blank_row(step: int) -> MetricsRow:
    return MetricsRow(step, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _median(values: np.ndarray) -> float:
    """Median of per-sample values; 0.0 for an empty batch."""
    return float(np.median(values)) if values.size else 0.0


def dpsgd_step(
    model: Model,
    batch: Batch,
    c_g: float,
    sigma_g: float,
    stream: RngStream,
    denom: float,
    prev_release: LayeredVector | None = None,
) -> StepOutcome:
    """Clip per-sample gradients to c_g, perturb the sum, divide by ``denom``.
    With c_g = inf and sigma_g = 0 this is the exact gradient sum over
    ``denom``, the sgd step.

    ``prev_release`` is telemetry-only: when given, the median per-sample
    difference norm against it is recorded, computed from the factors with a
    dense fallback for near-parallel samples (:meth:`DifferenceRows.norms`).
    Clip norms and the gradient norm median come from the factors either way
    and do not depend on it.
    """
    grads = backprop(model, batch)
    g_sq = grads.sq_norms()
    flat, norms = privatize(GradientRows(grads, g_sq), c_g, sigma_g, stream, denom)
    diff_median = 0.0
    if prev_release is not None:
        diff_median = _median(DifferenceRows(grads, prev_release).norms(g_sq))
    row = replace(
        _blank_row(stream.step),
        grad_norm_median=_median(norms),
        diff_norm_median=diff_median,
    )
    return StepOutcome(LayeredVector(flat, grads.layer_dims), row)


def diff_step(
    model: Model,
    batch: Batch,
    prev_release: LayeredVector,
    c_d: float,
    sigma_d: float,
    stream: RngStream,
    denom: float,
) -> StepOutcome:
    """Perturb per-sample differences against the previous release, then add
    the previous release back. Staleness shows up as a difference norm
    larger than the gradient norm; both norms come from the same dense rows."""
    diffs = DifferenceRows(backprop(model, batch), prev_release)
    noisy_diff, diff_norms = privatize(diffs, c_d, sigma_d, stream, denom)
    released = LayeredVector(noisy_diff + prev_release.flat, prev_release.layer_dims)
    row = replace(
        _blank_row(stream.step),
        grad_norm_median=_median(diffs.grad_norms()),
        diff_norm_median=_median(diff_norms),
    )
    return StepOutcome(released, row)


def gdr_step(
    model: Model,
    batch: Batch,
    base: GdrBase,
    clip: ClipSpec,
    noise: NoisePlan,
    perp_stream: RngStream,
    alpha_stream: RngStream,
    denom: float,
) -> StepOutcome:
    """Decompose per-sample gradients against the base, privatize the two
    channels separately, and reconstruct the release."""
    grads = backprop(model, batch)
    g_sq = grads.sq_norms()
    alphas = grads.block_dots(base.b)
    noisy_perp, perp_norms = privatize(
        OrthogonalRows(DifferenceRows(grads, base.b, alphas), g_sq),
        clip.c_perp, noise.sigma_perp, perp_stream, denom,
    )
    noisy_alpha, _ = privatize(
        DenseRows(alphas), clip.c_alpha, noise.sigma_alpha, alpha_stream, denom
    )
    released = reconstruct(noisy_alpha, LayeredVector(noisy_perp, grads.layer_dims), base)
    row = replace(
        _blank_row(perp_stream.step),
        grad_norm_median=_median(np.sqrt(g_sq)),
        perp_norm_median=_median(perp_norms),
        alpha_vec_norm=float(math.sqrt(np.sum(noisy_alpha * noisy_alpha))),
    )
    return StepOutcome(released, row, perp_norms)


def privacy_schedule(
    method: str, q: float, total_steps: int, switch_step: int | None = None
) -> list[tuple[float, int, str]]:
    """Release schedule of a run as (q, steps, role) entries."""
    if total_steps < 1:
        raise ContractViolation(f"total_steps must be >= 1, got {total_steps}")
    if method == "sgd":
        return []
    if method in ("dpsgd", "diff"):
        return [(q, total_steps, ROLE_DPSGD)]
    if method != "dpdr":
        raise ContractViolation(f"unknown method {method!r}")
    if switch_step is None:
        raise ContractViolation("dpdr schedule requires switch_step")
    if not 1 <= switch_step <= total_steps:
        raise ContractViolation(
            f"switch_step must lie in [1, {total_steps}], got {switch_step}"
        )
    schedule = [(q, 1, ROLE_FIRST)]
    if switch_step >= 2:
        schedule.append((q, switch_step - 1, ROLE_GDR))
    if total_steps > switch_step:
        schedule.append((q, total_steps - switch_step, ROLE_DPSGD))
    return schedule


def resolve_noise(
    config: TrainConfig, schedule: list[tuple[float, int, str]]
) -> NoisePlan | None:
    """Return the run's noise plan, calibrated to ``schedule`` when an eps target is set.

    Calibration failures surface here, before any training data is touched.
    """
    if config.eps_target is None:  # explicit noise, or none for sgd
        return config.noise
    sigma_alpha = config.sigma_alpha if config.method == "dpdr" else 1.0
    sigma_perp, sigma_g = calibrate_sigma(
        config.eps_target, config.delta, schedule, sigma_alpha, config.ratio_g
    )
    if config.method == "dpdr":
        return NoisePlan(sigma_g=sigma_g, sigma_perp=sigma_perp, sigma_alpha=config.sigma_alpha)
    return NoisePlan(sigma_g=sigma_g, sigma_perp=0.0, sigma_alpha=0.0)


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


def _eval_windows(arch: Architecture, n: int, total: int) -> list[int]:
    """Sizes of the evaluation windows that score a run's ``total`` steps on
    ``n`` samples, in order.

    A model's holdings in an :class:`EvalWindow` are its slot in the float32
    stacks (4 D bytes, D its parameter count) and its (n,) float64 loss
    terms and (n,) bool hits (9 n bytes), so a window within
    :data:`EVAL_CHUNK_BYTES` holds at most ``cap`` models, and at least one.
    The steps are split into ceil(total / cap) windows whose sizes differ by
    at most one, so the last window is never a sliver. Evaluation then holds
    the window and, per chunk, at most EVAL_CHUNK_BYTES more. A window that
    widens to float64 holds twice its stack bytes; the budget does not
    reserve room for that.
    """
    per_model = 4 * sum(arch.parameter_layer_dims()) + 9 * n
    cap = max(1, EVAL_CHUNK_BYTES // per_model)
    count = -(-total // cap)
    size, extra = divmod(total, count)
    return [size + 1] * extra + [size] * (count - extra)


def train(config: TrainConfig, dataset: Dataset) -> TrainResult:
    """Run one seeded experiment and return its artifacts in memory."""
    if config.batch > dataset.n:
        raise ContractViolation(
            f"batch {config.batch} exceeds dataset size {dataset.n}"
        )
    method = config.method
    q = config.batch / dataset.n
    total = config.total_steps
    # the one release schedule: calibration solves for it, and the run spends
    # it as one accounting role per step (none for sgd)
    schedule = privacy_schedule(method, q, total, config.switch_step)
    noise = resolve_noise(config, schedule)
    arch = config.arch or logistic_regression(dataset.d_in, dataset.n_classes)
    dims = arch.parameter_layer_dims()

    # sgd is DP-SGD with no clip and no noise
    if method == "sgd":
        c_g, sigma_g = math.inf, 0.0
    else:
        c_g, sigma_g = config.clip.c_g, noise.sigma_g
    denom = config.batch  # public, unlike the realized Poisson size
    roles = [role for _, steps, role in schedule for _ in range(steps)]
    sigma = {
        role: release_sigma(role, noise.sigma_g, noise.sigma_perp, noise.sigma_alpha)
        for role in set(roles)
    }
    non_private = method == "sgd" or min(sigma.values()) <= 0
    phase_steps = {role: roles.count(role) for role in (ROLE_FIRST, ROLE_GDR, ROLE_DPSGD)}

    started = time.perf_counter()
    model = init_model(arch, config.seed)
    ledger = PrivacyLedger(DEFAULT_DELTA if config.delta is None else config.delta)
    sizes = _eval_windows(arch, dataset.n, total)
    window = EvalWindow(arch, dataset.examples, sizes[0])
    # the steps after which a window is full
    ends = set(itertools.accumulate(sizes))
    rows: list[MetricsRow] = []
    # (row without loss and accuracy, step ms) of each step awaiting its window
    pending: list[tuple[MetricsRow, float]] = []
    prev_release: LayeredVector | None = None
    snapshot: np.ndarray | None = None

    mark = time.perf_counter()
    for t in range(1, total + 1):
        role = roles[t - 1] if roles else None
        batch = poisson_sample(dataset, q, RngStream(config.seed, t, BATCH_TAG))
        noise_g = RngStream(config.seed, t, NOISE_G_TAG)

        if method == "diff":
            prev = prev_release if prev_release is not None else LayeredVector.zeros(dims)
            outcome = diff_step(model, batch, prev, c_g, sigma_g, noise_g, denom)
        elif role == ROLE_GDR:
            outcome = gdr_step(
                model, batch, normalize_base(prev_release, t - 1), config.clip, noise,
                RngStream(config.seed, t, NOISE_PERP_TAG),
                RngStream(config.seed, t, NOISE_ALPHA_TAG),
                denom,
            )
            if outcome.perp_norms.size:
                snapshot = outcome.perp_norms
        else:  # sgd, dpsgd, or the first and tail steps of dpdr
            track_diff = prev_release if method == "dpsgd" else None
            outcome = dpsgd_step(model, batch, c_g, sigma_g, noise_g, denom, track_diff)

        if sigma.get(role, 0.0) > 0:
            ledger.append(ReleaseEvent(q, sigma[role]))
        model = apply_update(model, outcome.released, config.lr)
        window.add(model)

        cos_prev = 0.0
        if prev_release is not None:
            cos_prev = coherence_stats(prev_release, outcome.released)
        if method == "sgd":
            eps_cum = 0.0
        else:
            eps_cum = math.inf if non_private else ledger.epsilon()[0]
        row = replace(outcome.metrics, step=t, cos_prev=cos_prev, eps_cum=eps_cum)
        now = time.perf_counter()
        pending.append((row, (now - mark) * 1000.0))
        mark = now
        prev_release = outcome.released

        if t in ends:
            scores = window.evaluate()
            now = time.perf_counter()
            share = (now - mark) * 1000.0 / len(pending)
            mark = now
            for (row, step_ms), (train_loss, train_acc) in zip(pending, scores):
                rows.append(
                    replace(
                        row,
                        train_loss=train_loss,
                        train_accuracy=train_acc,
                        wall_ms=step_ms + share,
                    )
                )
            pending.clear()

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
