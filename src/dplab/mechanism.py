"""Per-sample clipping and Gaussian perturbation primitives.

Clipping bounds the L2 norm of every per-sample contribution; noise is
added once to the batch sum, then the sum is averaged. Sensitivity of the
released average is therefore clip_bound / batch_size, and the noise
multiplier sigma is the ratio of noise std to the clip bound.

:func:`privatize` is the release primitive the trainers use. It takes a
row source: per-sample gradients from their factors (:class:`GradientRows`),
per-sample differences against a dense vector on dense rows
(:class:`DifferenceRows`), the dpdr orthogonal remainders from the factors
(:class:`OrthogonalRows`), or small dense rows such as the coefficients
(:class:`DenseRows`). A source's ``clipped_sum`` gives the clip norms and the
clipped sum as one flat array, layers in order. The list-based functions
(:func:`aggregate_and_perturb`, :func:`clip_to_norm`) clip one materialized
vector at a time and serve as the reference the row sources are tested
against; their coefficient counterparts (:func:`aggregate_and_perturb_scalars`,
:func:`clip_alpha_vec`) call them on one-block vectors. These four are test
oracles, not exported, and stay here because the benchmark tracer
(``perfbench/spans.py``) resolves them as ``dplab.mechanism.<name>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .models import GradientFactors
from .vectors import LayeredVector, RngStream, _layer_views, gaussian_sample, l2_norm

__all__ = [
    "CANCELLATION_TAU",
    "ClipSpec",
    "DenseRows",
    "DifferenceRows",
    "GradientRows",
    "NoisePlan",
    "OrthogonalRows",
    "ROW_CHUNK_BYTES",
    "clip_factors",
    "privatize",
]

# bytes of dense difference rows built at once; a chunk holds at least one sample
ROW_CHUNK_BYTES = 1 << 20

# a factored squared difference norm below this share of ||g_i||^2 + ||s_i v||^2
# is measured, clipped and summed on its dense row instead (DifferenceRows)
CANCELLATION_TAU = 1e-2


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
        scaled = w.flat * f
        if np.array_equal(scaled, w.flat):
            return w
        w = LayeredVector(scaled, w.layer_dims)


def _coefficient_vector(alphas) -> LayeredVector:
    """A coefficient vector as a one-block vector over a copy of it."""
    return LayeredVector(np.array(alphas, dtype=np.float64), (np.size(alphas),))


def clip_alpha_vec(alphas: np.ndarray, c: float) -> np.ndarray:
    """Clip an m-length coefficient vector to L2 norm c, preserving signs:
    :func:`clip_to_norm` of it as a one-block vector."""
    return clip_to_norm(_coefficient_vector(alphas), c).flat


def aggregate_and_perturb(
    per_sample: list[LayeredVector],
    c: float,
    sigma: float,
    stream: RngStream | None = None,
) -> LayeredVector:
    """Clip each vector to c, sum, add N(0, (sigma*c)^2 I), divide by the count.

    With sigma == 0 this is exactly the mean of the clipped vectors and the
    stream is not consumed. An empty list is a contract violation; the
    trainers release an empty Poisson batch through :func:`privatize` over
    zero rows, divided by the expected batch size.
    """
    if not per_sample:
        raise ContractViolation("aggregate_and_perturb requires at least one vector")
    _require_sigma(sigma)
    if sigma > 0 and stream is None:
        raise ContractViolation("a stream is required when sigma > 0")
    dims = per_sample[0].layer_dims
    batch = len(per_sample)
    acc: np.ndarray | None = None
    for g in per_sample:
        if g.layer_dims != dims:
            raise ContractViolation(f"shape mismatch: {g.layer_dims} vs {dims}")
        clipped = clip_to_norm(g, c).flat
        # a copy of the first vector, not zeros plus it, so a -0.0 keeps its sign
        if acc is None:
            acc = clipped.copy()
        else:
            acc += clipped
    assert acc is not None
    if sigma > 0:
        acc += gaussian_sample(stream, dims, sigma * c).flat
    return LayeredVector(acc / batch, dims)


def aggregate_and_perturb_scalars(
    per_sample: list[np.ndarray],
    c: float,
    sigma: float,
    stream: RngStream | None = None,
) -> np.ndarray:
    """Coefficient-vector counterpart of :func:`aggregate_and_perturb`: the
    same release of the vectors as one-block vectors."""
    vectors = [_coefficient_vector(a) for a in per_sample]
    return aggregate_and_perturb(vectors, c, sigma, stream).flat


def clip_factors(norms: np.ndarray, c: float) -> np.ndarray:
    """Per-sample scales min(1, c / norm); rows within the bound (zero rows
    included) keep scale 1."""
    _require_positive("clip bound", c)
    return np.divide(c, norms, out=np.ones_like(norms), where=norms > c)


@dataclass(frozen=True, eq=False)
class GradientRows:
    """Per-sample gradients g_i with their squared norms ``sq_norms``
    (:meth:`GradientFactors.sq_norms`); the clipped sum comes from the factors."""

    grads: GradientFactors
    sq_norms: np.ndarray

    def clipped_sum(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        norms = np.sqrt(self.sq_norms)
        return norms, self.grads.weighted_sum(clip_factors(norms, c))


@dataclass(frozen=True, eq=False)
class DenseRows:
    """Per-sample rows held as one (B, m) array, released as a single block."""

    rows: np.ndarray

    def clipped_sum(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        norms = np.sqrt(np.sum(self.rows * self.rows, axis=1))
        return norms, clip_factors(norms, c) @ self.rows


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

    :meth:`clipped_sum` releases the dense difference rows, built block by
    block for chunks of samples of about ROW_CHUNK_BYTES, so each clip
    scales exactly the row it measured and a contribution exceeds its bound
    by rounding relative to the bound. The diff channel releases through it:
    its clip norms and the gradient norms beside them (:meth:`grad_norms`)
    come from the same dense rows, so a constructed staleness ratio
    ||g - p|| / ||g|| of 2 reads exactly 2.0. The dense rows are also the
    fallback of the factored form below and the oracle it is tested
    against.

    The factored form expands the squared norm as
    ||g_i||^2 - 2 sum_j s_ij <g_ij, v_j> + sum_j s_ij^2 ||v_j||^2, with
    ||g_i||^2 from :meth:`GradientFactors.sq_norms` and the block dots from
    :meth:`GradientFactors.block_dots`, and builds no dense row. It rounds by
    about eps (||g_i||^2 + ||s_i v||^2), and cancels catastrophically when g_i
    lies close to s_i v. So a sample whose expanded square falls below
    CANCELLATION_TAU times that scale (a square rounded below zero included)
    is measured on its dense row instead; the relative error of every other
    norm stays near eps / CANCELLATION_TAU. :meth:`norms` is that form (the
    dpsgd difference-norm telemetry); :class:`OrthogonalRows` releases the
    dpdr orthogonal channel with it.
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

    def _subset(self, idx: np.ndarray) -> DifferenceRows:
        """The differences of the samples ``idx``, in that order."""
        coeffs = None if self.coeffs is None else self.coeffs[idx]
        return DifferenceRows(self.grads.take(idx), self.v, coeffs)

    def _expanded(self, g_sq: np.ndarray, dots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Norms by the factored form, and the indices of the samples the
        guard sends to their dense rows (their norms read 0 here); ``dots``
        are the (B, blocks) products <g_ij, v_j>. See the class docstring."""
        s = np.ones((self.grads.size, self.v.layer_count)) if self.coeffs is None else self.coeffs
        v_sq = np.array([np.einsum("i,i->", b, b) for b in self.v.blocks])
        offset = np.sum(s * s * v_sq, axis=1)
        sq = g_sq - 2.0 * np.sum(s * dots, axis=1) + offset
        kept = sq >= CANCELLATION_TAU * (g_sq + offset)
        return np.sqrt(np.where(kept, sq, 0.0)), np.flatnonzero(~kept)

    def norms(self, g_sq: np.ndarray | None = None) -> np.ndarray:
        """Difference norms by the factored form, with dense rows for the
        samples the guard rejects (see the class docstring). ``g_sq`` is
        :meth:`GradientFactors.sq_norms` when the caller has it."""
        if g_sq is None:
            g_sq = self.grads.sq_norms()
        out, dense = self._expanded(g_sq, self.grads.block_dots(self.v))
        out[dense] = self._subset(dense)._norms(True)
        return out

    def grad_norms(self) -> np.ndarray:
        """Norms of the g_i themselves, from dense rows chunked as in :meth:`clipped_sum`."""
        return self._norms(False)

    def clipped_sum(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        norms = np.empty(self.grads.size)
        total = np.zeros(self.v.total_dim)
        blocks = _layer_views(total, self.v.layer_dims)
        for lo, hi, rows in self._chunks(True):
            norms[lo:hi] = np.sqrt(_sq_norms(rows))
            f = clip_factors(norms[lo:hi], c)
            for acc, r in zip(blocks, rows):
                acc += f @ r
        return norms, total


@dataclass(frozen=True, eq=False)
class OrthogonalRows:
    """The dpdr orthogonal channel: remainders g_i - alpha_ij b_j against a
    base b, whose coefficients ``diffs.coeffs`` are the block dots
    alpha_ij = <g_ij, b_j> (:meth:`GradientFactors.block_dots`), with
    ``g_sq`` from :meth:`GradientFactors.sq_norms`.

    The clip norms come from the factored form of :class:`DifferenceRows`
    (the alphas are the dots it needs), and the clipped sum of the samples
    that pass its guard is sum_i f_i g_i (:meth:`GradientFactors.weighted_sum`)
    minus sum_j (sum_i f_i alpha_ij) b_j, so no dense row is built for them.
    That sum rounds relative to ||g_i|| + ||alpha_i b||, not to the remainder;
    but a sample passes only if its squared remainder is at least
    CANCELLATION_TAU (||g_i||^2 + ||alpha_i b||^2), so
    ||g_i|| + ||alpha_i b|| <= sqrt(2 / CANCELLATION_TAU) ||g_i - alpha_i b||
    (about 14 times), and a clipped contribution still exceeds its bound by
    rounding relative to the bound. Samples near-parallel or parallel to the
    base fail the guard and are clipped and summed on their dense rows
    (:meth:`DifferenceRows.clipped_sum`).
    """

    diffs: DifferenceRows
    g_sq: np.ndarray

    def __post_init__(self):
        if self.diffs.coeffs is None:
            raise ContractViolation("the orthogonal channel needs the coefficients")

    def clipped_sum(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        alphas, v = self.diffs.coeffs, self.diffs.v
        norms, dense = self.diffs._expanded(self.g_sq, alphas)
        f = clip_factors(norms, c)
        f[dense] = 0.0
        dense_norms, dense_total = self.diffs._subset(dense).clipped_sum(c)
        norms[dense] = dense_norms
        weights = np.repeat(f @ alphas, v.layer_dims)
        return norms, self.diffs.grads.weighted_sum(f) - weights * v.flat + dense_total


def privatize(
    rows, c: float, sigma: float, stream: RngStream | None, denom: float
) -> tuple[np.ndarray, np.ndarray]:
    """Clip each row to norm c, sum, add N(0, (sigma*c)^2 I), divide by denom.

    ``rows`` is a row source (:class:`GradientRows`, :class:`DifferenceRows`,
    :class:`OrthogonalRows` or :class:`DenseRows`). Returns the release as
    one flat array, layers in order, and the per-sample norms the clip
    measured. The noise is a :func:`gaussian_sample` draw, so this and
    :func:`aggregate_and_perturb` consume a stream identically; sigma == 0
    consumes none. A source with zero rows has a zero sum, so its release is
    the noise alone.
    """
    _require_sigma(sigma)
    if sigma > 0 and stream is None:
        raise ContractViolation("a stream is required when sigma > 0")
    norms, total = rows.clipped_sum(c)
    if sigma > 0:
        total = total + gaussian_sample(stream, (total.size,), sigma * c).flat
    return total / denom, norms
