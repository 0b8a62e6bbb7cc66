"""Per-step telemetry, gradient coherence and the loss-target crossing
that ``dplab compare`` reports.

Per-step records track how similar consecutive released gradients are, how
much of each per-sample gradient the orthogonal channel carries, and the
cumulative privacy spend. Medians (not means) summarize per-sample norms
since those are heavy-tailed. The loss, accuracy and per-sample norm
medians are read from the private data without noise: they are debug
telemetry, and no privacy accounting covers them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import ContractViolation
from .vectors import LayeredVector, dot, l2_norm

__all__ = [
    "CSV_COLUMNS",
    "LOSS_WINDOW",
    "MetricsRow",
    "coherence_stats",
    "steps_to_target_loss",
]

# steps in the trailing mean that steps_to_target_loss compares with its target
LOSS_WINDOW = 5


@dataclass(frozen=True)
class MetricsRow:
    """One step of telemetry. Fields that a method does not produce are 0.0.

    ``wall_ms`` is real elapsed time in memory; persisted artifacts zero it
    so reruns of the same config are byte-identical.
    """

    step: int
    train_loss: float
    train_accuracy: float
    grad_norm_median: float
    perp_norm_median: float
    diff_norm_median: float
    alpha_vec_norm: float
    cos_prev: float
    eps_cum: float
    wall_ms: float


# fixed column order of the per-step metrics CSV
CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def coherence_stats(prev: LayeredVector, curr: LayeredVector) -> float:
    """Cosine between two vectors, clamped to [-1, 1]; 0 when either is zero."""
    n_prev = l2_norm(prev)
    n_curr = l2_norm(curr)
    if n_prev == 0.0 or n_curr == 0.0:
        return 0.0
    return min(1.0, max(-1.0, dot(prev, curr) / (n_prev * n_curr)))


def steps_to_target_loss(losses: Sequence[float], target: float) -> int | None:
    """First 1-based step whose trailing-``LOSS_WINDOW`` mean loss is below target.

    Averages over the available prefix while fewer than ``LOSS_WINDOW`` steps
    exist. Returns None when the run never crosses.
    """
    if not math.isfinite(target):
        raise ContractViolation(f"target must be finite, got {target!r}")
    for t in range(1, len(losses) + 1):
        tail = losses[max(0, t - LOSS_WINDOW) : t]
        if sum(tail) / len(tail) < target:
            return t
    return None
