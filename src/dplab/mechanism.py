"""Per-sample clipping and Gaussian perturbation primitives.

Clipping bounds the L2 norm of every per-sample contribution; noise is
added once to the batch sum, then the sum is averaged. Sensitivity of the
released average is therefore clip_bound / batch_size, and the noise
multiplier sigma is the ratio of noise std to the clip bound.

:func:`privatize` is the release primitive the trainers use. It takes a
row source: per-sample gradients from their factors (:class:`GradientRows`),
per-sample differences against a dense vector (:class:`DifferenceRows`),
or small dense rows such as the coefficients (:class:`DenseRows`). The
list-based functions (:func:`aggregate_and_perturb`, :func:`clip_to_norm`
and their coefficient counterparts) clip one materialized vector at a time
and serve as the reference the row sources are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .models import GradientFactors
from .vectors import LayeredVector, RngStream, gaussian_sample, l2_norm

__all__ = [
    "ClipSpec",
    "DenseRows",
    "DifferenceRows",
    "GradientRows",
    "NoisePlan",
    "ROW_CHUNK_BYTES",
    "aggregate_and_perturb",
    "aggregate_and_perturb_scalars",
    "clip_alpha_vec",
    "clip_factors",
    "clip_to_norm",
    "privatize",
]

# bytes of dense difference rows built at once; a chunk holds at least one sample
ROW_CHUNK_BYTES = 1 << 20


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0:
        raise ContractViolation(f"{name} must be positive and finite, got {value!r}")


def _require_sigma(value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ContractViolation(f"noise multiplier must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ClipSpec:
    """Clip bounds: full gradient, orthogonal component, parallel coefficients."""

    c_g: float
    c_perp: float
    c_alpha: float

    def __post_init__(self):
        _require_positive("c_g", self.c_g)
        _require_positive("c_perp", self.c_perp)
        _require_positive("c_alpha", self.c_alpha)


@dataclass(frozen=True)
class NoisePlan:
    """Noise multipliers per release channel. A zero multiplier means a
    non-private ablation and is flagged in run metrics."""

    sigma_g: float
    sigma_perp: float
    sigma_alpha: float

    def __post_init__(self):
        _require_sigma(self.sigma_g)
        _require_sigma(self.sigma_perp)
        _require_sigma(self.sigma_alpha)


def clip_to_norm(v: LayeredVector, c: float) -> LayeredVector:
    """Scale v down so its global L2 norm is at most c; direction preserved.

    Exactly idempotent: applying it twice returns the first result
    unchanged. After the initial rescale the norm is re-checked, since
    rounding can leave it a few ulps above the bound.
    """
    _require_positive("clip bound", c)
    w = v
    while True:
        n = l2_norm(w)
        if n <= c:
            return w
        f = c / n
        if f >= 1.0:
            # n exceeds c by less than half an ulp; no representable scale
            # can shrink it further
            return w
        new_blocks = tuple(b * f for b in w.blocks)
        if all(np.array_equal(nb, ob) for nb, ob in zip(new_blocks, w.blocks)):
            return w
        w = LayeredVector(new_blocks)


def clip_alpha_vec(alphas: np.ndarray, c: float) -> np.ndarray:
    """Clip an m-length coefficient vector to L2 norm c, preserving signs."""
    _require_positive("clip bound", c)
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ContractViolation("coefficient vector must be 1-d and non-empty")
    if not np.all(np.isfinite(a)):
        raise ContractViolation("non-finite coefficient")
    while True:
        n = math.sqrt(float(np.sum(a * a)))
        if n <= c:
            return a
        f = c / n
        if f >= 1.0:
            return a
        scaled = a * f
        if np.array_equal(scaled, a):
            return a
        a = scaled


def aggregate_and_perturb(
    per_sample: list[LayeredVector],
    c: float,
    sigma: float,
    stream: RngStream | None = None,
) -> LayeredVector:
    """Clip each vector to c, sum, add N(0, (sigma*c)^2 I), divide by the count.

    With sigma == 0 this is exactly the mean of the clipped vectors and the
    stream is not consumed. An empty list is a contract violation: empty
    sampled batches are the trainer's responsibility.
    """
    if not per_sample:
        raise ContractViolation("aggregate_and_perturb requires at least one vector")
    _require_sigma(sigma)
    if sigma > 0 and stream is None:
        raise ContractViolation("a stream is required when sigma > 0")
    dims = per_sample[0].layer_dims
    batch = len(per_sample)
    acc: list[np.ndarray] | None = None
    for g in per_sample:
        if g.layer_dims != dims:
            raise ContractViolation(f"shape mismatch: {g.layer_dims} vs {dims}")
        clipped = clip_to_norm(g, c)
        if acc is None:
            acc = [block.copy() for block in clipped.blocks]
        else:
            for a, block in zip(acc, clipped.blocks):
                a += block
    assert acc is not None
    if sigma > 0:
        noise = gaussian_sample(stream, dims, sigma * c)
        for a, nb in zip(acc, noise.blocks):
            a += nb
    return LayeredVector(tuple(a / batch for a in acc))


def aggregate_and_perturb_scalars(
    per_sample: list[np.ndarray],
    c: float,
    sigma: float,
    stream: RngStream | None = None,
) -> np.ndarray:
    """Coefficient-vector counterpart of :func:`aggregate_and_perturb`."""
    if not per_sample:
        raise ContractViolation("aggregate_and_perturb_scalars requires at least one vector")
    _require_sigma(sigma)
    if sigma > 0 and stream is None:
        raise ContractViolation("a stream is required when sigma > 0")
    first = np.asarray(per_sample[0], dtype=np.float64)
    m = first.size
    batch = len(per_sample)
    acc = np.zeros(m, dtype=np.float64)
    for a in per_sample:
        arr = np.asarray(a, dtype=np.float64)
        if arr.shape != (m,):
            raise ContractViolation(f"shape mismatch: {arr.shape} vs {(m,)}")
        acc += clip_alpha_vec(arr, c)
    if sigma > 0:
        acc += stream.generator().standard_normal(m) * (sigma * c)
    return acc / batch


def clip_factors(norms: np.ndarray, c: float) -> np.ndarray:
    """Per-sample scales min(1, c / norm); rows within the bound (zero rows
    included) keep scale 1."""
    _require_positive("clip bound", c)
    return np.divide(c, norms, out=np.ones_like(norms), where=norms > c)


@dataclass(frozen=True, eq=False)
class GradientRows:
    """Per-sample gradients g_i; norms and clipped sum come from the factors."""

    grads: GradientFactors

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return self.grads.layer_dims

    def clipped_sum(self, c: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        norms = self.grads.norms()
        return norms, self.grads.weighted_sum(clip_factors(norms, c))


@dataclass(frozen=True, eq=False)
class DenseRows:
    """Per-sample rows held as one (B, m) array, released as a single block."""

    rows: np.ndarray

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.rows.shape[1],)

    def clipped_sum(self, c: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        norms = np.sqrt(np.sum(self.rows * self.rows, axis=1))
        return norms, (clip_factors(norms, c) @ self.rows,)


def _sq_norms(rows: list[np.ndarray]) -> np.ndarray:
    """Squared row norms of a chunk, blocks summed left to right."""
    total = np.einsum("ij,ij->i", rows[0], rows[0])
    for r in rows[1:]:
        total += np.einsum("ij,ij->i", r, r)
    return total


@dataclass(frozen=True, eq=False)
class DifferenceRows:
    """Per-sample differences g_i - coeffs[i, j] * v_j (block j) against a
    dense vector v; without ``coeffs`` every coefficient is 1.

    Norms and clipped sums come from the dense difference rows, built block
    by block for chunks of samples of about ROW_CHUNK_BYTES, so each clip
    scales exactly the row it measured and a contribution exceeds its bound
    by rounding relative to the bound. Expanding the norm as
    ||g||^2 - 2<g, v> + ||v||^2 cancels catastrophically when g_i lies close
    to s_i v, and summing f_i g_i and (sum f_i s_i) v separately leaves
    rounding relative to ||g_i||, which can exceed a small bound.
    """

    grads: GradientFactors
    v: LayeredVector
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        if self.v.layer_dims != self.grads.layer_dims:
            raise ContractViolation(
                f"shape mismatch: {self.v.layer_dims} vs {self.grads.layer_dims}"
            )
        expected = (self.grads.size, self.v.layer_count)
        if self.coeffs is not None and self.coeffs.shape != expected:
            raise ContractViolation("need one coefficient per sample and block")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return self.grads.layer_dims

    def _chunks(self, difference: bool):
        """(lo, hi, rows per block) for consecutive chunks of samples; the
        rows are the differences, or with ``difference=False`` the g_i."""
        n = self.grads.size
        step = max(1, ROW_CHUNK_BYTES // (8 * self.v.total_dim))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            rows = [self.grads.block_rows(j, lo, hi) for j in range(self.v.layer_count)]
            if difference:
                for j, (r, v) in enumerate(zip(rows, self.v.blocks)):
                    r -= v if self.coeffs is None else self.coeffs[lo:hi, j, None] * v
            yield lo, hi, rows

    def _norms(self, difference: bool) -> np.ndarray:
        out = np.empty(self.grads.size)
        for lo, hi, rows in self._chunks(difference):
            out[lo:hi] = _sq_norms(rows)
        return np.sqrt(out)

    def norms(self) -> np.ndarray:
        return self._norms(True)

    def grad_norms(self) -> np.ndarray:
        """Norms of the g_i themselves, from the same dense rows as :meth:`norms`."""
        return self._norms(False)

    def clipped_sum(self, c: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        norms = np.empty(self.grads.size)
        total = [np.zeros(d) for d in self.layer_dims]
        for lo, hi, rows in self._chunks(True):
            norms[lo:hi] = np.sqrt(_sq_norms(rows))
            f = clip_factors(norms[lo:hi], c)
            for acc, r in zip(total, rows):
                acc += f @ r
        return norms, tuple(total)


def privatize(
    rows, c: float, sigma: float, stream: RngStream | None, denom: float
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Clip each row to norm c, sum, add N(0, (sigma*c)^2 I), divide by denom.

    ``rows`` is a row source (:class:`GradientRows`, :class:`DifferenceRows`
    or :class:`DenseRows`). Returns the released blocks and the per-sample
    norms the clip measured. Noise is drawn as :func:`gaussian_sample` draws
    it, so this and :func:`aggregate_and_perturb` consume a stream
    identically; sigma == 0 consumes none.
    """
    _require_sigma(sigma)
    if sigma > 0 and stream is None:
        raise ContractViolation("a stream is required when sigma > 0")
    norms, total = rows.clipped_sum(c)
    if sigma > 0:
        gen = stream.generator()
        total = tuple(t + gen.standard_normal(t.size) * (sigma * c) for t in total)
    return tuple(t / denom for t in total), norms
