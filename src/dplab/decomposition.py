"""Per-layer directional decomposition of gradients against a noisy base.

The base is the previous released (noisy) gradient, normalized layer by
layer. A gradient splits per layer into a scalar parallel coefficient
alpha_l = <g_l, b_l> and an orthogonal remainder g_l - alpha_l * b_l; the
two privatized channels are recombined by reconstruct(). Layers whose base
block is (near-)zero are degenerate: they contribute alpha 0 and pass the
gradient through the orthogonal channel untouched.

:func:`coefficients` computes every sample's alphas from per-layer gradient
factors; :func:`decompose` and :func:`decompose_batch` split materialized
vectors and are the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .models import GradientFactors
from .vectors import LayeredVector, l2_norm, l2_norm_layer

__all__ = [
    "Decomposition",
    "GdrBase",
    "coefficients",
    "decompose",
    "decompose_batch",
    "normalize_base",
    "reconstruct",
]

# a layer is degenerate when its norm is below this fraction of max(1, global norm)
DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GdrBase:
    """Per-layer-normalized direction with staleness metadata."""

    b: LayeredVector
    source_step: int
    degenerate_layers: frozenset[int]

    def __post_init__(self):
        for layer in range(self.b.layer_count):
            n = l2_norm_layer(self.b, layer)
            if layer in self.degenerate_layers:
                if n != 0.0:
                    raise ContractViolation(f"degenerate layer {layer} must be exactly zero")
            elif abs(n - 1.0) > 1e-12:
                raise ContractViolation(f"layer {layer} is not unit-norm: {n!r}")

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
    blocks: list[np.ndarray] = []
    degenerate: set[int] = set()
    for layer, block in enumerate(noisy_grad.blocks):
        n = l2_norm_layer(noisy_grad, layer)
        if n < threshold:
            blocks.append(np.zeros_like(block))
            degenerate.add(layer)
        else:
            blocks.append(block / n)
    return GdrBase(LayeredVector(tuple(blocks)), step, frozenset(degenerate))


def decompose(g: LayeredVector, base: GdrBase) -> Decomposition:
    """Split g per layer into <g_l, b_l> and the orthogonal remainder."""
    if g.layer_dims != base.b.layer_dims:
        raise ContractViolation(f"shape mismatch: {g.layer_dims} vs {base.b.layer_dims}")
    alphas = np.zeros(g.layer_count)
    perp_blocks: list[np.ndarray] = []
    for layer, (g_block, b_block) in enumerate(zip(g.blocks, base.b.blocks)):
        if layer in base.degenerate_layers:
            perp_blocks.append(g_block)
            continue
        alpha = float(np.sum(g_block * b_block))
        alphas[layer] = alpha
        perp_blocks.append(g_block - alpha * b_block)
    return Decomposition(alphas, LayeredVector(tuple(perp_blocks)))


def reconstruct(
    alphas_noisy: np.ndarray, g_perp_noisy: LayeredVector, base: GdrBase
) -> LayeredVector:
    """Recombine the channels: per layer alpha_l * b_l + g_perp_l."""
    alphas = np.asarray(alphas_noisy, dtype=np.float64)
    if alphas.shape != (base.layer_count,):
        raise ContractViolation(
            f"coefficient vector shape {alphas.shape} does not match {base.layer_count} layers"
        )
    if g_perp_noisy.layer_dims != base.b.layer_dims:
        raise ContractViolation(
            f"shape mismatch: {g_perp_noisy.layer_dims} vs {base.b.layer_dims}"
        )
    blocks: list[np.ndarray] = []
    for layer, (perp_block, b_block) in enumerate(zip(g_perp_noisy.blocks, base.b.blocks)):
        if layer in base.degenerate_layers:
            blocks.append(perp_block)
        else:
            blocks.append(alphas[layer] * b_block + perp_block)
    return LayeredVector(tuple(blocks))


def decompose_batch(per_sample: list[LayeredVector], base: GdrBase) -> list[Decomposition]:
    """Element-wise decompose, order preserving."""
    return [decompose(g, base) for g in per_sample]


def coefficients(grads: GradientFactors, base: GdrBase) -> np.ndarray:
    """(B, layers) parallel coefficients <g_il, b_l> from gradient factors.

    Weight blocks give rowsum((a_k @ B_k) * delta_k), bias blocks
    delta_k @ b; degenerate layers get 0.
    """
    alphas = grads.block_dots(base.b)
    alphas[:, sorted(base.degenerate_layers)] = 0.0
    return alphas
