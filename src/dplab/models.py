"""Desk-scale differentiable models with exact per-sample gradients.

Multinomial logistic regression and a small MLP under mean cross-entropy
loss. Gradients are computed by hand (vectorized over the batch), which
keeps per-sample gradients exact and dependency-free. Parameters live in a
LayeredVector with one block per weight matrix and one per bias vector;
that block structure defines the layer count used by the decomposition
machinery.

Every model is a stack of dense layers, so one backward pass
(:func:`backprop`) yields each sample's gradient in factored form: per
layer, the input a_i the layer saw and the signal delta_i at its output.
The weight gradient is their outer product, with norm ||a_i|| ||delta_i||
(Goodfellow 2015, "Efficient per-example gradient computations").
:func:`mean_gradient` and :func:`per_sample_gradients` are derived from
the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .vectors import LayeredVector, RngStream, axpy

__all__ = [
    "Architecture",
    "Batch",
    "GradientFactors",
    "Model",
    "accuracy",
    "apply_update",
    "backprop",
    "evaluate",
    "init_model",
    "logistic_regression",
    "loss",
    "mean_gradient",
    "mlp",
    "per_sample_gradients",
]

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class Architecture:
    """Shape of a model: input dim, hidden widths, output classes, activation."""

    d_in: int
    hidden: tuple[int, ...]
    n_classes: int
    activation: str = "relu"

    def __post_init__(self):
        if self.d_in <= 0:
            raise ContractViolation(f"d_in must be positive, got {self.d_in}")
        if self.n_classes < 2:
            raise ContractViolation(f"need at least 2 classes, got {self.n_classes}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h <= 0 for h in self.hidden):
            raise ContractViolation(f"hidden widths must be positive: {self.hidden}")
        if self.activation not in _ACTIVATIONS:
            raise ContractViolation(f"unknown activation {self.activation!r}")

    def weight_shapes(self) -> tuple[tuple[int, int], ...]:
        dims = (self.d_in, *self.hidden, self.n_classes)
        return tuple((dims[i], dims[i + 1]) for i in range(len(dims) - 1))

    def parameter_layer_dims(self) -> tuple[int, ...]:
        dims: list[int] = []
        for fan_in, fan_out in self.weight_shapes():
            dims.append(fan_in * fan_out)
            dims.append(fan_out)
        return tuple(dims)


def logistic_regression(d_in: int, n_classes: int) -> Architecture:
    return Architecture(d_in, (), n_classes)


def mlp(d_in: int, hidden_dims, n_classes: int, activation: str = "relu") -> Architecture:
    return Architecture(d_in, tuple(hidden_dims), n_classes, activation)


@dataclass(frozen=True, eq=False)
class Model:
    arch: Architecture
    params: LayeredVector

    def __post_init__(self):
        expected = self.arch.parameter_layer_dims()
        if self.params.layer_dims != expected:
            raise ContractViolation(
                f"parameter blocks {self.params.layer_dims} do not match architecture {expected}"
            )


@dataclass(frozen=True, eq=False)
class Batch:
    """A batch of examples. May be empty (a Poisson draw can come up empty);
    model operations themselves require at least one example."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ContractViolation(f"inputs must be 2-d (batch, d_in), got shape {inputs.shape}")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ContractViolation("inputs and labels must have equal length")
        if not np.all(np.isfinite(inputs)):
            raise ContractViolation("non-finite input coordinate")
        if labels.size and labels.min() < 0:
            raise ContractViolation("negative label")
        inputs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def init_model(arch: Architecture, seed: int) -> Model:
    """Deterministic init: weights N(0, 1/fan_in) (std 1/sqrt(fan_in)), biases zero."""
    gen = RngStream(seed, 0, "model-init").generator()
    blocks: list[np.ndarray] = []
    for fan_in, fan_out in arch.weight_shapes():
        w = gen.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
        blocks.append(w.ravel())
        blocks.append(np.zeros(fan_out, dtype=np.float64))
    return Model(arch, LayeredVector(tuple(blocks)))


def _weight(model: Model, layer: int) -> np.ndarray:
    fan_in, fan_out = model.arch.weight_shapes()[layer]
    return model.params.blocks[2 * layer].reshape(fan_in, fan_out)


def _bias(model: Model, layer: int) -> np.ndarray:
    return model.params.blocks[2 * layer + 1]


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward(model: Model, inputs: np.ndarray):
    """Returns (logits, hidden pre-activations, inputs to each layer)."""
    n_layers = len(model.arch.weight_shapes())
    a = inputs
    layer_inputs = [inputs]
    hidden_zs: list[np.ndarray] = []
    for k in range(n_layers):
        z = a @ _weight(model, k) + _bias(model, k)
        if k < n_layers - 1:
            hidden_zs.append(z)
            a = _activate(model.arch.activation, z)
            layer_inputs.append(a)
        else:
            return z, hidden_zs, layer_inputs
    raise AssertionError("unreachable")


def logits(model: Model, inputs: np.ndarray) -> np.ndarray:
    out, _, _ = _forward(model, np.asarray(inputs, dtype=np.float64))
    return out


def _check_batch(model: Model, batch: Batch) -> None:
    if batch.size == 0:
        raise ContractViolation("batch must contain at least one example")
    if batch.inputs.shape[1] != model.arch.d_in:
        raise ContractViolation(
            f"input dimension {batch.inputs.shape[1]} does not match d_in={model.arch.d_in}"
        )
    if int(batch.labels.max()) >= model.arch.n_classes:
        raise ContractViolation(
            f"label {int(batch.labels.max())} out of range [0, {model.arch.n_classes})"
        )


def _log_softmax_terms(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=1))
    return lse, m


def loss(model: Model, batch: Batch) -> float:
    """Mean cross-entropy over the batch; nonnegative."""
    _check_batch(model, batch)
    z, _, _ = _forward(model, batch.inputs)
    lse, _ = _log_softmax_terms(z)
    picked = z[np.arange(batch.size), batch.labels]
    return float(np.mean(lse - picked))


def accuracy(model: Model, inputs: np.ndarray, labels: np.ndarray) -> float:
    z = logits(model, inputs)
    return float(np.mean(np.argmax(z, axis=1) == np.asarray(labels)))


def evaluate(model: Model, batch: Batch) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) with one forward pass."""
    _check_batch(model, batch)
    z, _, _ = _forward(model, batch.inputs)
    lse, _ = _log_softmax_terms(z)
    picked = z[np.arange(batch.size), batch.labels]
    acc = float(np.mean(np.argmax(z, axis=1) == batch.labels))
    return float(np.mean(lse - picked)), acc


def _softmax_delta(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    p = e / e.sum(axis=1, keepdims=True)
    delta = p.copy()
    delta[np.arange(z.shape[0]), labels] -= 1.0
    return delta


@dataclass(frozen=True, eq=False)
class GradientFactors:
    """Per-sample gradients of a dense stack, held as per-layer factors.

    For dense layer k, ``inputs[k]`` is the (B, fan_in) array of the inputs
    a_ik the layer saw and ``signals[k]`` the (B, fan_out) array of the
    backpropagated signals delta_ik at its output. Sample i's gradient of the
    weight block is the outer product a_ik delta_ik^T (flattened row-major,
    like the parameter block) and its gradient of the bias block is delta_ik.
    Norms, weighted sums and projections are computed from the factors, so
    no (B, D) array is needed; :meth:`block_rows` expands rows on demand.
    """

    inputs: tuple[np.ndarray, ...]
    signals: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return self.signals[0].shape[0]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        dims: list[int] = []
        for a, d in zip(self.inputs, self.signals):
            dims.append(a.shape[1] * d.shape[1])
            dims.append(d.shape[1])
        return tuple(dims)

    def block_rows(self, block: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Dense (hi - lo, d) rows of parameter block ``block`` for samples
        lo..hi, as a new array."""
        d = self.signals[block // 2][lo:hi]
        if block % 2:
            return d.copy()
        a = self.inputs[block // 2][lo:hi]
        return np.einsum("bi,bo->bio", a, d).reshape(d.shape[0], -1)

    def norms(self) -> np.ndarray:
        """(B,) global L2 norms from sum_k ||a_ik||^2 ||delta_ik||^2 + ||delta_ik||^2,
        blocks summed left to right."""
        total = np.zeros(self.size)
        for a, d in zip(self.inputs, self.signals):
            d_sq = np.sum(d * d, axis=1)
            total += np.sum(a * a, axis=1) * d_sq
            total += d_sq
        return np.sqrt(total)

    def weighted_sum(self, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """Blocks of sum_i f_i g_i: a_k^T (f * delta_k) and f @ delta_k."""
        blocks: list[np.ndarray] = []
        for a, d in zip(self.inputs, self.signals):
            blocks.append((a.T @ (f[:, None] * d)).ravel())
            blocks.append(f @ d)
        return tuple(blocks)

    def block_dots(self, v: LayeredVector) -> np.ndarray:
        """(B, blocks) inner products <g_i block, v block>."""
        if v.layer_dims != self.layer_dims:
            raise ContractViolation(f"shape mismatch: {v.layer_dims} vs {self.layer_dims}")
        cols: list[np.ndarray] = []
        for k, (a, d) in enumerate(zip(self.inputs, self.signals)):
            w = v.blocks[2 * k].reshape(a.shape[1], d.shape[1])
            cols.append(np.sum((a @ w) * d, axis=1))
            cols.append(d @ v.blocks[2 * k + 1])
        return np.stack(cols, axis=1)


def backprop(model: Model, batch: Batch) -> GradientFactors:
    """Per-sample gradient factors of each example's own cross-entropy."""
    _check_batch(model, batch)
    z, hidden_zs, layer_inputs = _forward(model, batch.inputs)
    n_layers = len(model.arch.weight_shapes())
    delta = _softmax_delta(z, batch.labels)
    signals: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    for k in range(n_layers - 1, -1, -1):
        signals[k] = delta
        if k > 0:
            upstream = delta @ _weight(model, k).T
            delta = upstream * _activation_grad(
                model.arch.activation, hidden_zs[k - 1], layer_inputs[k]
            )
    return GradientFactors(tuple(layer_inputs), tuple(signals))


def per_sample_gradients(model: Model, batch: Batch) -> list[LayeredVector]:
    """One gradient per example, of that example's own cross-entropy.

    The mean of the returned list equals the gradient of :func:`loss`.
    Results are returned in sample order. This expands every sample into
    its own vector; the trainers work on :func:`backprop`'s factors instead.
    """
    grads = backprop(model, batch)
    rows = [grads.block_rows(j) for j in range(len(grads.layer_dims))]
    return [LayeredVector(tuple(r[i] for r in rows)) for i in range(grads.size)]


def mean_gradient(model: Model, batch: Batch) -> LayeredVector:
    """Gradient of the mean cross-entropy over the batch."""
    grads = backprop(model, batch)
    total = grads.weighted_sum(np.ones(grads.size))
    return LayeredVector(tuple(t / grads.size for t in total))


def apply_update(model: Model, direction: LayeredVector, lr: float) -> Model:
    """New model with parameters w - lr * direction."""
    if not math.isfinite(lr):
        raise ContractViolation(f"learning rate must be finite, got {lr!r}")
    return Model(model.arch, axpy(-lr, direction, model.params))
