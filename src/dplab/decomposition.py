"""Per-layer directional decomposition of gradients against a noisy base.

The base is the previous released (noisy) gradient, normalized layer by
layer. A gradient splits per layer into a scalar parallel coefficient
alpha_l = <g_l, b_l> and an orthogonal remainder g_l - alpha_l * b_l; the
two privatized channels are recombined by reconstruct(). A layer whose
released block is (near-)zero is degenerate: its base block is exactly zero,
so without any special case it gets alpha 0 and passes the gradient through
the orthogonal channel untouched.

The trainers take every sample's alphas from gradient factors (their
:meth:`~dplab.models.GradientFactors.block_dots` with the base). :func:`decompose`,
:func:`decompose_batch` and :class:`Decomposition` split materialized vectors;
they are test oracles, not exported, and stay here because the benchmark
tracer (``perfbench/spans.py``) resolves ``dplab.decomposition.decompose_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .vectors import LayeredVector, l2_norm, l2_norm_layer

__all__ = [
    "GdrBase",
    "normalize_base",
    "reconstruct",
]

# a layer is degenerate when its norm is below this fraction of max(1, global norm)
DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GdrBase:
    """Per-layer-normalized direction with staleness metadata. Every layer
    block is unit-norm or, for a degenerate layer, exactly zero."""

    b: LayeredVector
    source_step: int

    def __post_init__(self):
        for layer, block in enumerate(self.b.blocks):
            n = l2_norm_layer(self.b, layer)
            if block.any() and abs(n - 1.0) > 1e-12:
                raise ContractViolation(f"layer {layer} is neither unit-norm nor zero: {n!r}")

    @property
    def layer_count(self) -> int:
        return self.b.layer_count


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Per-layer parallel coefficients and the orthogonal remainder."""

    alphas: np.ndarray
    g_perp: LayeredVector

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        if alphas.ndim != 1 or alphas.size != self.g_perp.layer_count:
            raise ContractViolation("need one coefficient per layer")
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)


def normalize_base(noisy_grad: LayeredVector, step: int) -> GdrBase:
    """Normalize each layer block to unit norm; zero out near-zero layers."""
    threshold = DEGENERATE_REL_TOL * max(1.0, l2_norm(noisy_grad))
    norms = [l2_norm_layer(noisy_grad, layer) for layer in range(noisy_grad.layer_count)]
    scale = np.repeat(norms, noisy_grad.layer_dims)
    flat = np.zeros(noisy_grad.total_dim)
    np.divide(noisy_grad.flat, scale, out=flat, where=scale >= threshold)
    return GdrBase(LayeredVector(flat, noisy_grad.layer_dims), step)


def decompose(g: LayeredVector, base: GdrBase) -> Decomposition:
    """Split g per layer into <g_l, b_l> and the orthogonal remainder."""
    if g.layer_dims != base.b.layer_dims:
        raise ContractViolation(f"shape mismatch: {g.layer_dims} vs {base.b.layer_dims}")
    alphas = np.array([np.sum(gb * bb) for gb, bb in zip(g.blocks, base.b.blocks)])
    perp = g.flat - np.repeat(alphas, g.layer_dims) * base.b.flat
    return Decomposition(alphas, LayeredVector(perp, g.layer_dims))


def reconstruct(
    alphas_noisy: np.ndarray, g_perp_noisy: LayeredVector, base: GdrBase
) -> LayeredVector:
    """Recombine the channels: per layer alpha_l * b_l + g_perp_l."""
    alphas = np.asarray(alphas_noisy, dtype=np.float64)
    if alphas.shape != (base.layer_count,):
        raise ContractViolation(
            f"coefficient vector shape {alphas.shape} does not match {base.layer_count} layers"
        )
    dims = base.b.layer_dims
    if g_perp_noisy.layer_dims != dims:
        raise ContractViolation(f"shape mismatch: {g_perp_noisy.layer_dims} vs {dims}")
    return LayeredVector(np.repeat(alphas, dims) * base.b.flat + g_perp_noisy.flat, dims)


def decompose_batch(per_sample: list[LayeredVector], base: GdrBase) -> list[Decomposition]:
    """Element-wise decompose, order preserving."""
    return [decompose(g, base) for g in per_sample]
