import math

import numpy as np
import pytest

from dplab import Architecture, Batch, LayeredVector, RngStream, accountant, backprop, init_model
from dplab.models import _forward


# block-based LayeredVector helpers that no training step uses


def join(blocks) -> LayeredVector:
    """A vector from its per-layer 1-d blocks, copied into one flat array."""
    blocks = list(blocks)
    return LayeredVector(np.concatenate(blocks), tuple(b.size for b in blocks))


def add(x: LayeredVector, y: LayeredVector) -> LayeredVector:
    assert x.layer_dims == y.layer_dims
    return join(bx + by for bx, by in zip(x.blocks, y.blocks))


def scale(c: float, x: LayeredVector) -> LayeredVector:
    return join(c * b for b in x.blocks)


def dot_layer(a: LayeredVector, b: LayeredVector, layer: int) -> float:
    assert a.layer_dims == b.layer_dims
    return float(np.sum(a.blocks[layer] * b.blocks[layer]))


def from_blocks(blocks) -> LayeredVector:
    """A vector from arbitrary nested sequences, one per layer (copied)."""
    return join(np.array(b, dtype=np.float64).ravel() for b in blocks)


def concat(v: LayeredVector) -> np.ndarray:
    """All coordinates as one fresh array, layers in order."""
    return v.flat.copy()


def allclose(x: LayeredVector, y: LayeredVector, rtol: float = 1e-12, atol: float = 0.0) -> bool:
    return x.layer_dims == y.layer_dims and all(
        np.allclose(a, b, rtol=rtol, atol=atol) for a, b in zip(x.blocks, y.blocks)
    )


def degenerate_layers(base) -> frozenset[int]:
    """Layers whose GdrBase block is zero."""
    return frozenset(layer for layer, b in enumerate(base.b.blocks) if not b.any())


def mean_gradient(model, batch) -> LayeredVector:
    """Gradient of the mean cross-entropy over a non-empty batch."""
    grads = backprop(model, batch)
    total = grads.weighted_sum(np.ones(grads.size))
    return LayeredVector(total / grads.size, grads.layer_dims)


def reference_sq_norms(grads) -> np.ndarray:
    """Uncached reference for ``GradientFactors.sq_norms``: every layer's
    ||a_ik||^2 recomputed from its inputs, blocks summed left to right."""
    total = np.zeros(grads.size)
    for a, d in zip(grads.inputs, grads.signals):
        d_sq = np.sum(d * d, axis=1)
        total += np.sum(a * a, axis=1) * d_sq
        total += d_sq
    return total


def jumped_block_normals(stream, size: int, block: int = 1 << 20) -> np.ndarray:
    """Reference for a large standard normal draw: block b of ``block``
    normals from the stream's Philox jumped b times, concatenated."""
    bits = np.random.Philox(key=stream._philox_key())
    return np.concatenate([
        np.random.Generator(bits.jumped(b)).standard_normal(min(block, size - lo))
        for b, lo in enumerate(range(0, size, block))
    ])


def reference_synthetic(n, d_in, n_classes, margin, seed, std=1.0) -> np.ndarray:
    """Reference for ``gen_synthetic``'s inputs: the float64 construction it
    used before datasets became float32, std * z plus margin/sqrt(2) on each
    example's center axis, z the jumped-block draw of its stream. The
    dataset holds this array rounded once to float32."""
    inputs = jumped_block_normals(RngStream(seed, 0, "synthetic-data"), n * d_in)
    inputs = inputs.reshape(n, d_in)
    if std != 1.0:
        inputs *= std
    inputs[np.arange(n), np.arange(n) % n_classes] += margin / math.sqrt(2.0)
    return inputs


def random_vector(layer_dims, seed, scale=1.0) -> LayeredVector:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return join(gen.standard_normal(d) * scale for d in layer_dims)


def random_problem(seed, d_in=None, hidden=None, n_classes=None, batch=None, activation="tanh"):
    """A random (model, batch) pair, small enough for finite differences."""
    gen = np.random.Generator(np.random.Philox(key=seed + 1000))
    d_in = d_in if d_in is not None else int(gen.integers(2, 6))
    n_classes = n_classes if n_classes is not None else int(gen.integers(2, 4))
    if hidden is None:
        hidden = (int(gen.integers(2, 5)),) if gen.random() < 0.5 else ()
    batch = batch if batch is not None else int(gen.integers(1, 6))
    arch = Architecture(d_in, hidden, n_classes, activation)
    model = init_model(arch, seed)
    inputs = gen.standard_normal((batch, d_in))
    labels = gen.integers(0, n_classes, size=batch)
    return model, Batch(inputs, labels)


def tilted(g, angle, seed) -> LayeredVector:
    """g with every block turned by ``angle`` radians towards a random
    orthogonal direction, each block keeping its norm."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    blocks = []
    for block in g.blocks:
        u = gen.standard_normal(block.size)
        u -= (u @ block) / (block @ block) * block
        u *= np.linalg.norm(block) / np.linalg.norm(u)
        blocks.append(block * math.cos(angle) + u * math.sin(angle))
    return join(blocks)


def row_major_evaluate(model, batch):
    """Reference (mean cross-entropy, accuracy) in float64: the row-major
    forward (n, d_in) @ W_k, then a log-sum-exp and argmax over each row."""
    z, _, _ = _forward(model, batch.inputs)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=1))
    picked = z[np.arange(batch.size), batch.labels]
    acc = float(np.mean(np.argmax(z, axis=1) == batch.labels))
    return float(np.mean(lse - picked)), acc


# The stated bound of the float32 evaluation (EvalWindow) against a float64
# reference: the mean loss within EVAL_LOSS_RTOL relative, or within
# EVAL_LOSS_ATOL plus EVAL_LOGIT_ULPS * 2^-24 * max|z| absolute, z the float64
# logits of the batch. Measured worst cases: 2.7e-6 relative over 13 467
# random models (inputs and weights up to scale 100 and 10), 1.6e-7 relative
# and 1.6e-8 absolute on the five golden runs.
EVAL_LOSS_RTOL = 1e-5
EVAL_LOSS_ATOL = 1e-7
# The logit term. A sample's loss term lse(z) - z_y has gradient p - e_y in
# z, whose entries sum in absolute value to 2 (1 - p_y) <= 2, so logits off
# by at most d each move it by at most 2 d. A float32 logit rounds by
# d = u max|z| (u = 2^-24, float32's unit roundoff); its shift by the row's
# max, z_j - max z, rounds once more, by at most u |z_j - max z| <= 2 u max|z|,
# and enters only the log-sum-exp, with weights p_j that sum to 1. So the mean
# loss moves by at most (2 + 2) u max|z|. With logits near 100 that exceeds
# 1e-5 of a small loss: logits 66, -123, 99 and 103 put a loss of 0.0154 off
# by 1.4e-5 relative (2.2e-7 absolute, within the term's 2.9e-5). The
# rounding of the products that sum to a logit is not in the term: it scales
# with sum_i |w_i a_i|, which may exceed |z|, and where it does the loss is
# large enough for the relative term (no violation in 27 000 random models).
EVAL_LOGIT_ULPS = 4
# a float32 near-tie: the float64 top two logits of a sample lie within this
# share of its largest |logit| (at least 1) of each other
EVAL_TIE_RTOL = 1e-5


def eval_loss_approx(reference, logits=None):
    """``reference`` with the stated bound of the float32 evaluation;
    ``logits`` are the batch's float64 logits (no logit term without them)."""
    scale = 0.0 if logits is None else float(np.abs(logits).max())
    atol = EVAL_LOSS_ATOL + EVAL_LOGIT_ULPS * 2.0**-24 * scale
    return pytest.approx(reference, rel=EVAL_LOSS_RTOL, abs=atol)


def near_ties(model, batch) -> int:
    """Samples whose float64 top two logits are float32 near-ties, the only
    samples whose hit the float32 evaluation may score differently."""
    z, _, _ = _forward(model, batch.inputs)
    top2 = np.sort(z, axis=1)[:, -2:]
    scale = np.maximum(np.abs(z).max(axis=1), 1.0)
    return int(np.sum(top2[:, 1] - top2[:, 0] <= EVAL_TIE_RTOL * scale))


_LOG_FACT = np.array([math.lgamma(i + 1) for i in range(257)])


def rdp_loop(q, sigma, order):
    """Reference RDP of one subsampled Gaussian release at one integer order:
    the log-sum-exp of the binomial terms k = 0..order, one order at a time."""
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return order / (2.0 * sigma * sigma)
    ks = np.arange(order + 1)
    log_binom = _LOG_FACT[order] - _LOG_FACT[ks] - _LOG_FACT[order - ks]
    log_terms = (
        log_binom
        + ks * math.log(q)
        + (order - ks) * math.log1p(-q)
        + ks * (ks - 1) / (2.0 * sigma * sigma)
    )
    peak = float(log_terms.max())
    if not math.isfinite(peak):
        return math.inf
    log_total = peak + math.log(float(np.sum(np.exp(log_terms - peak))))
    return max(log_total / (order - 1), 0.0)


_ORDERS = np.arange(2.0, 257.0)
_K = np.arange(257.0)
_NK = _ORDERS[:, None] - _K
_LOG_BINOM = (
    _LOG_FACT[_ORDERS.astype(np.intp), None]
    - _LOG_FACT
    - _LOG_FACT[np.maximum(_NK, 0.0).astype(np.intp)]
)


def rdp_grid_uncached(q, sigma):
    """Reference RDP curve at orders 2..256 for 0 < q < 1: the accountant's
    masked log-sum-exp over the (order, k) grid, with every term of the grid
    built afresh in the order ((binomial + k log q) + (order - k) log(1 - q))
    + k(k - 1) / (2 sigma^2)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gauss = _K * (_K - 1.0) / (2.0 * sigma * sigma)
    log_terms = _LOG_BINOM + _K * math.log(q) + _NK * math.log1p(-q) + gauss
    log_terms[_NK < 0] = -np.inf
    peak = log_terms.max(axis=1)
    overflowed = ~np.isfinite(peak)
    log_terms[overflowed] = 0.0
    peak[overflowed] = 0.0
    log_terms -= peak[:, None]
    log_total = peak + np.log(np.sum(np.exp(log_terms), axis=1))
    rdp = np.maximum(log_total / (_ORDERS - 1.0), 0.0)
    rdp[overflowed] = np.inf
    return rdp


def eager_ledger(events, delta):
    """Reference (accumulated RDP, eps, order) of a ledger: the full
    255-order curve of every event, accumulated from zero in append order,
    converted at every order by Balle et al. 2020 (Thm 21), clamped at 0 and
    minimized (first minimizing order)."""
    rdp = np.zeros(_ORDERS.size)
    with np.errstate(over="ignore"):  # steps times a finite curve may reach inf
        for e in events:
            rdp = rdp + e.steps * accountant._rdp_vector(e.q, e.sigma_eff)
    eps = np.maximum(
        rdp + np.log1p(-1.0 / _ORDERS) - (math.log(delta) + np.log(_ORDERS)) / (_ORDERS - 1.0),
        0.0,
    )
    idx = int(np.argmin(eps))
    return rdp, float(eps[idx]), int(_ORDERS[idx])


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240917))
