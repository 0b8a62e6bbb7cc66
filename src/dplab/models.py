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
Layer 0's ||a_i||^2 is the squared norm of a dataset row, which never
changes: a :class:`Batch` computes every row's ||x_i||^2 in float64 in its
one scan of the inputs, which is also its finiteness check, and
:func:`backprop` takes layer 0's norms from the batch instead of
recomputing them every step. A batch holds float32 or float64 inputs: a
dataset (:class:`dplab.datasets.Dataset`) is the float32 batch of all its
rows, and the batches :func:`dplab.datasets.poisson_sample` takes from it
(:meth:`Batch.take`) are float64, so training computes in float64.
:func:`per_sample_gradients` expands the factors into one vector per sample.

Inference has one forward implementation, :class:`EvalWindow`, which
scores several models of one architecture on one batch. It stacks their
first-layer weights into one (k h_0, d_in) matrix, so a window of k models
reads and packs the (n, d_in) inputs once; :func:`dplab.trainers.train`
sizes its window by the byte budget :data:`EVAL_CHUNK_BYTES`. Each chunk of
samples is one class-major pass over all k models (z_k = W_k^T a_k with the
small weight matrices on the left, which is faster for many rows and few
classes): the stacked first-layer product, then stacked biases, activations
and later products, then max, log-sum-exp and hits over the class axis. A
chunk holds as many samples as keep its working arrays within
:data:`EVAL_CHUNK_BYTES`, so the product runs near its single-call speed
and the memory does not grow with n.

Evaluation is telemetry that never feeds training, so it computes in
float32: the stacked weights, biases and layer outputs are float32, and
the product reads a dataset's float32 rows in place; only float64 inputs
(a batch built from float64 arrays) are cast, chunk by chunk, into one
reused float32 buffer just before its product. The
exponentials are summed, and the per-sample loss terms and their mean are
kept, in float64. The loss is therefore approximate (the tests hold it
within 1e-5 relative of a float64 reference, or within 1e-7 plus
4 * 2^-24 * max|logit| absolute, the rounding of float32 logits), and a
float32 near-tie in the logits may flip a hit.
A window computes in float64 instead when its inputs' largest norm reaches
:data:`_FLOAT32_BOUND`, which it checks once, when it is built, from the
batch's scan; and it widens to float64 for good when an added model's
logits could reach that bound (:func:`_logit_bound`), so an input or a
model beyond float32's range is scored as before, never as inf or NaN.
:func:`evaluate` is the window of one model. It and
:func:`per_sample_gradients` are test oracles, not exported, and stay here
because the benchmark tracer (``perfbench/spans.py``) resolves them as
``dplab.models.<name>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, check_int
from .vectors import LayeredVector, RngStream, _layer_views, axpy

__all__ = [
    "Architecture",
    "Batch",
    "EvalWindow",
    "GradientFactors",
    "Model",
    "apply_update",
    "backprop",
    "init_model",
    "logistic_regression",
    "mlp",
]

_ACTIVATIONS = ("relu", "tanh")

# the evaluation's memory budget: train() fits each EvalWindow's stacks and
# per-model rows within it, and EvalWindow.evaluate each chunk of samples'
# working arrays; larger chunks run the first-layer product closer to its
# single-call speed but raise the evaluation's peak memory
EVAL_CHUNK_BYTES = 8 << 20

# an EvalWindow computes in float32 while its inputs' norms and its models'
# logit bounds stay below this; the 2**28 headroom to float32's largest value
# covers the rounding of float32 sums and the log-sum-exp's subtractions
_FLOAT32_BOUND = 2.0**100


@dataclass(frozen=True)
class Architecture:
    """Shape of a model: input dim, hidden widths, output classes, activation."""

    d_in: int
    hidden: tuple[int, ...]
    n_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "d_in", check_int("d_in", self.d_in, 1))
        object.__setattr__(self, "n_classes", check_int("n_classes", self.n_classes, 2))
        widths = tuple(check_int("hidden width", h, 1) for h in self.hidden)
        object.__setattr__(self, "hidden", widths)
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


def _row_sq_norms(inputs: np.ndarray) -> np.ndarray:
    """(n,) float64 squared row norms ||x_i||^2 of a C-contiguous (n, d)
    float32 or float64 array, and its finiteness check in the same pass.

    ``np.sum(x * x, axis=1)`` of the rows upcast to float64, over chunks of
    rows squared into one float64 buffer: each row is summed alone, so any
    rows gathered from the array, upcast, give the same bits. A NaN or inf
    coordinate makes its row's norm non-finite, so only such rows are
    rescanned; a finite float64 row whose square overflows is kept with
    norm inf (a float32 row cannot overflow).
    """
    n, d = inputs.shape
    out = np.empty(n)
    # not smaller: under glibc's default malloc, freeing a buffer this large
    # lifts the mmap threshold above the later step and evaluation buffers,
    # which smaller chunks leave to fresh, page-faulting mappings
    rows = max(1, min(n, EVAL_CHUNK_BYTES // (8 * max(d, 1))))
    squares = np.empty((rows, d))
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            part = inputs[lo : lo + rows]
            sq = squares[: len(part)]
            np.copyto(sq, part)
            np.multiply(sq, sq, out=sq)
            np.sum(sq, axis=1, out=out[lo : lo + rows])
    unbounded = ~np.isfinite(out)
    if unbounded.any() and not np.all(np.isfinite(inputs[unbounded])):
        raise ContractViolation("non-finite input coordinate")
    return out


@dataclass(frozen=True, eq=False)
class Batch:
    """A batch of examples; empty when a Poisson draw comes up empty. Its
    inputs are float32 when given float32 (a dataset is the batch of its
    rows) and float64 otherwise. It holds read-only views of the given
    arrays, sharing their memory when they are already C-contiguous inputs
    of that dtype and int64 labels; the caller's arrays stay writable.

    Building a batch scans its inputs once: the scan yields each row's
    float64 ||x_i||^2 (``input_sq_norms``) and is the finiteness check.
    Float labels that are not finite or not integral are rejected, not
    truncated.
    """

    inputs: np.ndarray
    labels: np.ndarray
    input_sq_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # row-major: a row's np.sum follows the layout, and the scan's norms
        # must have the bits of every batch gathered from these rows
        inputs = np.asarray(self.inputs)
        dtype = np.float32 if inputs.dtype == np.float32 else np.float64
        inputs = np.ascontiguousarray(inputs, dtype=dtype).view()
        raw = np.asarray(self.labels)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
            raise ContractViolation("labels must be finite integers")
        labels = np.asarray(raw, dtype=np.int64).view()
        if inputs.ndim != 2:
            raise ContractViolation(f"inputs must be 2-d (batch, d_in), got shape {inputs.shape}")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ContractViolation("inputs and labels must have equal length")
        sq_norms = _row_sq_norms(inputs)
        if labels.size and labels.min() < 0:
            raise ContractViolation("negative label")
        for name, held in (("inputs", inputs), ("labels", labels), ("input_sq_norms", sq_norms)):
            held.setflags(write=False)
            object.__setattr__(self, name, held)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> Batch:
        """The rows ``idx``, in that order and upcast to float64, with their
        squared norms. They were checked when this batch was built, so they
        are not scanned again."""
        rows = object.__new__(Batch)
        inputs = self.inputs[idx].astype(np.float64, copy=False)
        for name, held in zip(("inputs", "labels", "input_sq_norms"),
                              (inputs, self.labels[idx], self.input_sq_norms[idx])):
            held.setflags(write=False)
            object.__setattr__(rows, name, held)
        return rows


def init_model(arch: Architecture, seed: int) -> Model:
    """Deterministic init: weights N(0, 1/fan_in) (std 1/sqrt(fan_in)), biases zero."""
    gen = RngStream(seed, 0, "model-init").generator()
    dims = arch.parameter_layer_dims()
    flat = np.zeros(sum(dims))
    for w, (fan_in, _) in zip(_layer_views(flat, dims)[::2], arch.weight_shapes()):
        w[:] = gen.standard_normal(w.size) / math.sqrt(fan_in)
    return Model(arch, LayeredVector(flat, dims))


def _weight(model: Model, layer: int) -> np.ndarray:
    fan_in, fan_out = model.arch.weight_shapes()[layer]
    return model.params.blocks[2 * layer].reshape(fan_in, fan_out)


def _bias(model: Model, layer: int) -> np.ndarray:
    return model.params.blocks[2 * layer + 1]


def _activate(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


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


def _check_batch(arch: Architecture, batch: Batch) -> None:
    if batch.inputs.shape[1] != arch.d_in:
        raise ContractViolation(
            f"input dimension {batch.inputs.shape[1]} does not match d_in={arch.d_in}"
        )
    if batch.size and int(batch.labels.max()) >= arch.n_classes:
        raise ContractViolation(
            f"label {int(batch.labels.max())} out of range [0, {arch.n_classes})"
        )


def _chunk_rows(count: int, widths: list[int], n: int) -> int:
    """Samples per chunk of a float32 window of ``count`` models, ``widths``
    being the input width and then every layer's output width: as many as
    keep within EVAL_CHUNK_BYTES what is held per sample, which is its input
    row (read in place or cast) and, per model, the float32 layer outputs,
    exponentials and logits the first-max fallback gathers, and ten 8-byte
    scalars. A float64 window holds twice the bytes, so it takes half as
    many samples."""
    d_in, *outs = widths
    per_sample = 4 * d_in + count * (4 * (sum(outs) + 2 * outs[-1]) + 80)
    return min(n, max(1, EVAL_CHUNK_BYTES // per_sample))


def _logit_bound(model: Model, input_norm: float) -> float:
    """A bound on the model's logits, and on every partial sum of its
    products, for inputs of norm at most ``input_norm``: per layer
    ||z|| <= ||a|| ||W||_F + ||b||, each block's norm is at most the
    parameters' norm p, and relu and tanh never raise a norm, so
    ||a_(k+1)|| <= p (||a_k|| + 1). NaN when a parameter is."""
    with np.errstate(over="ignore"):
        p = float(np.linalg.norm(model.params.flat))
    bound = input_norm
    for _ in model.arch.weight_shapes():
        bound = p * (bound + 1.0)
    return bound


class EvalWindow:
    """Up to ``size`` models of one architecture, scored together on ``batch``.

    :meth:`add` writes each of a model's blocks into a preallocated stack
    with one slot per model: the first-layer weights, transposed, into one
    (size h_0, d_in) matrix, every later weight matrix into a (size, fan_in,
    fan_out) stack and every bias into a (size, fan_out, 1) stack.
    :meth:`evaluate` then scores all added models in one stacked pass per
    chunk of samples, so the inputs are read once per window.

    The stacks are float32 unless the batch's largest row norm reaches
    :data:`_FLOAT32_BOUND`. A float32 window widens every stack to float64,
    for good, before it adds a model whose :func:`_logit_bound` reaches it.
    The products read the batch's rows in place when they have the stacks'
    dtype (a dataset's float32 rows in a float32 window); otherwise each
    chunk of rows is cast into one reused buffer.
    """

    def __init__(self, arch: Architecture, batch: Batch, size: int):
        if batch.size == 0:
            raise ContractViolation("batch must contain at least one example")
        _check_batch(arch, batch)
        self.arch = arch
        self.batch = batch
        self._input_norm = math.sqrt(float(batch.input_sq_norms.max()))
        dtype = np.float32 if self._input_norm < _FLOAT32_BOUND else np.float64
        shapes = arch.weight_shapes()
        self._stack = np.empty((size * shapes[0][1], arch.d_in), dtype)
        self._weights = [np.empty((size, *shape), dtype) for shape in shapes[1:]]
        self._biases = [np.empty((size, fan_out, 1), dtype) for _, fan_out in shapes]
        self._count = 0

    def add(self, model: Model) -> None:
        if model.arch != self.arch:
            raise ContractViolation(f"window holds {self.arch}, not {model.arch}")
        j = self._count
        if j == len(self._biases[0]):
            raise ContractViolation("window is full")
        if self._stack.dtype == np.float32 and not (
            _logit_bound(model, self._input_norm) < _FLOAT32_BOUND
        ):
            self._stack = self._stack.astype(np.float64)
            self._weights = [w.astype(np.float64) for w in self._weights]
            self._biases = [b.astype(np.float64) for b in self._biases]
        h = self._biases[0].shape[1]
        self._stack[j * h : (j + 1) * h] = _weight(model, 0).T
        for k, w in enumerate(self._weights, 1):
            w[j] = _weight(model, k)
        for k, b in enumerate(self._biases):
            b[j, :, 0] = _bias(model, k)
        self._count += 1

    def evaluate(self) -> list[tuple[float, float]]:
        """(mean cross-entropy, accuracy) of each added model, in the order
        added; empties the window. Ties in the logits go to the lowest class.

        Each chunk of samples is one pass over the stacked models: the
        chunk's inputs, cast into the window's dtype unless they have it,
        the stacked first-layer product, then per layer the stacked biases
        and activation in place and the stacked weights' product, then max,
        log-sum-exp and the label logit over the class axis. The
        exponentials are summed in float64, so the loss terms keep float64's
        resolution near 0. A sample is a hit when its label logit equals the
        max; a tied max sums to at least 2 in the log-sum-exp (two exact
        ones), so only hits with such a sum are rechecked by argmax, which
        takes the first max. Each model's per-sample loss terms and hits fill
        one row of length n, reduced once, so chunking does not change the
        summation order.
        """
        count = self._count
        if count == 0:
            raise ContractViolation("no model to evaluate")
        dtype = self._stack.dtype
        widths = [b.shape[1] for b in self._biases]
        inputs, labels, n = self.batch.inputs, self.batch.labels, self.batch.size
        terms = np.empty((count, n))
        hits = np.empty((count, n), dtype=bool)
        rows = _chunk_rows(count, [self.arch.d_in, *widths], n)
        if dtype == np.float64:
            rows = max(1, rows // 2)
        # one buffer per layer output, one for the exponentials and, when the
        # inputs need casting, one for the cast inputs, reused by every chunk
        outs = [np.empty(count * w * rows, dtype) for w in widths]
        exps = np.empty(count * widths[-1] * rows, dtype)
        cast = None if inputs.dtype == dtype else np.empty((rows, self.arch.d_in), dtype)
        for lo in range(0, n, rows):
            c = min(rows, n - lo)
            x = inputs[lo : lo + c]
            if cast is not None:
                np.copyto(cast[:c], x)
                x = cast[:c]
            first = outs[0][: count * widths[0] * c].reshape(count * widths[0], c)
            np.matmul(self._stack[: len(first)], x.T, out=first)
            z = first.reshape(count, widths[0], c)
            z += self._biases[0][:count]
            for k, w in enumerate(self._weights, 1):
                a = _activate(self.arch.activation, z, out=z)
                z = outs[k][: count * widths[k] * c].reshape(count, widths[k], c)
                np.matmul(w[:count].transpose(0, 2, 1), a, out=z)
                z += self._biases[k][:count]
            y = labels[lo : lo + c]
            top = z.max(axis=1)
            e = exps[: z.size].reshape(z.shape)
            np.subtract(z, top[:, None], out=e)
            total = np.exp(e, out=e).sum(axis=1, dtype=np.float64)
            picked = z[:, y, np.arange(c)]
            np.subtract(top + np.log(total), picked, out=terms[:, lo : lo + c])
            hit = np.equal(picked, top, out=hits[:, lo : lo + c])
            m, col = np.nonzero(hit & ~(total < 2.0))
            hit[m, col] = np.argmax(z[m, :, col], axis=1) == y[col]
        self._count = 0
        return [(float(np.mean(t)), float(np.mean(hit))) for t, hit in zip(terms, hits)]


def evaluate(model: Model, batch: Batch) -> tuple[float, float]:
    """(mean cross-entropy, accuracy): the window of one model."""
    window = EvalWindow(model.arch, batch, 1)
    window.add(model)
    return window.evaluate()[0]


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
    ``input_sq_norms`` is the (B,) ||a_i0||^2 of layer 0, whose inputs are
    the batch rows: :func:`backprop` takes it from the batch's scan.
    """

    inputs: tuple[np.ndarray, ...]
    signals: tuple[np.ndarray, ...]
    input_sq_norms: np.ndarray

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

    def take(self, idx: np.ndarray) -> GradientFactors:
        """Factors of the samples ``idx``, in that order."""
        return GradientFactors(
            tuple(a[idx] for a in self.inputs),
            tuple(d[idx] for d in self.signals),
            self.input_sq_norms[idx],
        )

    def sq_norms(self) -> np.ndarray:
        """(B,) squared global L2 norms, sum_k ||a_ik||^2 ||delta_ik||^2 + ||delta_ik||^2,
        blocks summed left to right; ||a_i0||^2 is ``input_sq_norms``."""
        total = np.zeros(self.size)
        for k, (a, d) in enumerate(zip(self.inputs, self.signals)):
            a_sq = np.sum(a * a, axis=1) if k else self.input_sq_norms
            d_sq = np.sum(d * d, axis=1)
            total += a_sq * d_sq
            total += d_sq
        return total

    def weighted_sum(self, f: np.ndarray) -> np.ndarray:
        """Flat sum_i f_i g_i: per layer a_k^T (f * delta_k), then f @ delta_k."""
        dims = self.layer_dims
        total = np.empty(sum(dims))
        blocks = _layer_views(total, dims)
        for a, d, w, b in zip(self.inputs, self.signals, blocks[::2], blocks[1::2]):
            np.matmul(a.T, f[:, None] * d, out=w.reshape(a.shape[1], d.shape[1]))
            np.matmul(f, d, out=b)
        return total

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
    """Per-sample gradient factors of each example's own cross-entropy;
    (0, .) factors for an empty batch. Layer 0's squared input norms are the
    batch's ``input_sq_norms``."""
    _check_batch(model.arch, batch)
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
    return GradientFactors(tuple(layer_inputs), tuple(signals), batch.input_sq_norms)


def per_sample_gradients(model: Model, batch: Batch) -> list[LayeredVector]:
    """One gradient per example, of that example's own cross-entropy.

    The mean of the returned list equals the gradient of the mean loss.
    Results are returned in sample order. This expands every sample into
    its own vector; the trainers work on :func:`backprop`'s factors instead.
    """
    grads = backprop(model, batch)
    dims = grads.layer_dims
    rows = np.concatenate([grads.block_rows(j) for j in range(len(dims))], axis=1)
    return [LayeredVector(row, dims) for row in rows]


def apply_update(model: Model, direction: LayeredVector, lr: float) -> Model:
    """New model with parameters w - lr * direction."""
    if not math.isfinite(lr):
        raise ContractViolation(f"learning rate must be finite, got {lr!r}")
    return Model(model.arch, axpy(-lr, direction, model.params))
