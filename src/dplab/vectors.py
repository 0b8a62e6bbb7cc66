"""Layered vectors and deterministic Gaussian streams.

Parameters, released gradients and decomposition bases are
``LayeredVector``s: one immutable flat float64 array whose consecutive
slices are the per-layer blocks; elementwise operations are one numpy call
on it. Per-sample gradients are not: the trainers keep them as per-layer
factors (:class:`dplab.models.GradientFactors`) and only the reference path
(:func:`dplab.models.per_sample_gradients`) expands them into vectors.
:func:`sub` is a test helper, not exported; it stays here because the
benchmark tracer (``perfbench/spans.py``) resolves ``dplab.vectors.sub``.

Reductions run per layer, with numpy's fixed pairwise summation, and then
left-to-right across layers, so they do not depend on the BLAS thread
count, and a vector sums each block's square once, for all its norms.
Random draws do not depend on it either: a large draw
(:func:`standard_normal`) is cut into fixed blocks, each from its own
jumped Philox substream, and up to four threads per core draw them (one on
a single core): OpenBLAS keeps a worker busy-waiting after ``import
numpy`` and after each threaded product, and more draw threads than cores
keep most of the CPU for the draw while it spins. A float32 draw (a
dataset's inputs) rounds each thread's float64 chunks into its output, so
it holds the float64 draw rounded once. BLAS products do depend on the
thread count: OpenBLAS's dgemm with inner dimension 784 and its gemv give
other bits at one thread than at two, so runs on MNIST-shaped data do too.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ContractViolation

__all__ = [
    "LayeredVector",
    "RngStream",
    "axpy",
    "dot",
    "gaussian_sample",
    "l2_norm",
    "l2_norm_layer",
    "standard_normal",
]


@dataclass(frozen=True, eq=False)
class LayeredVector:
    """Flat float64 vector partitioned into per-layer blocks.

    ``flat`` must be a 1-d float64 array of ``sum(layer_dims)`` finite
    coordinates, and every layer needs at least one. The constructor takes
    ownership of ``flat`` and marks it read-only; copy an array first to
    keep it writable. ``blocks`` are read-only views of ``flat``, one per
    layer.
    """

    flat: np.ndarray
    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if not dims or min(dims) <= 0:
            raise ContractViolation(f"need at least one layer, each of positive size: {dims}")
        flat, size = self.flat, sum(dims)
        if not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape != (size,):
            raise ContractViolation(f"coordinates must be a 1-d float64 array of {size}")
        if not np.all(np.isfinite(flat)):
            raise ContractViolation("non-finite coordinate")
        flat.setflags(write=False)
        object.__setattr__(self, "layer_dims", dims)

    @classmethod
    def zeros(cls, layer_dims) -> "LayeredVector":
        dims = tuple(layer_dims)
        return cls(np.zeros(sum(dims)), dims)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return _layer_views(self.flat, self.layer_dims)

    @cached_property
    def _layer_sq_norms(self) -> tuple[float, ...]:
        return tuple(float(np.sum(b * b)) for b in self.blocks)

    @property
    def layer_count(self) -> int:
        return len(self.layer_dims)

    @property
    def total_dim(self) -> int:
        return self.flat.size

    def equals(self, other: "LayeredVector") -> bool:
        """Bit-exact equality."""
        return self.layer_dims == other.layer_dims and np.array_equal(
            self.flat.view(np.uint64), other.flat.view(np.uint64)
        )

    def __repr__(self) -> str:
        return f"LayeredVector(layer_dims={self.layer_dims})"


def _layer_views(flat: np.ndarray, layer_dims) -> tuple[np.ndarray, ...]:
    """Consecutive views of ``flat``, one per layer, sliced at fixed offsets."""
    ends = itertools.accumulate(layer_dims)
    return tuple(flat[end - d : end] for d, end in zip(layer_dims, ends))


def _require_compatible(a: LayeredVector, b: LayeredVector) -> None:
    if a.layer_dims != b.layer_dims:
        raise ContractViolation(f"shape mismatch: {a.layer_dims} vs {b.layer_dims}")


def _require_layer(v: LayeredVector, layer: int) -> None:
    if not 0 <= layer < v.layer_count:
        raise ContractViolation(f"layer index {layer} out of range [0, {v.layer_count})")


def dot(a: LayeredVector, b: LayeredVector) -> float:
    _require_compatible(a, b)
    total = 0.0
    for la, lb in zip(a.blocks, b.blocks):
        total += float(np.sum(la * lb))
    return total


def l2_norm_layer(a: LayeredVector, layer: int) -> float:
    _require_layer(a, layer)
    return math.sqrt(a._layer_sq_norms[layer])


def l2_norm(a: LayeredVector) -> float:
    total = 0.0
    for sq in a._layer_sq_norms:
        total += sq
    return math.sqrt(total)


def axpy(c: float, x: LayeredVector, y: LayeredVector) -> LayeredVector:
    """c*x + y, coordinate-wise."""
    _require_compatible(x, y)
    if not math.isfinite(c):
        raise ContractViolation(f"non-finite scalar {c!r}")
    return LayeredVector(c * x.flat + y.flat, x.layer_dims)


def sub(x: LayeredVector, y: LayeredVector) -> LayeredVector:
    _require_compatible(x, y)
    return LayeredVector(x.flat - y.flat, x.layer_dims)


@dataclass(frozen=True)
class RngStream:
    """Address of one deterministic random stream.

    The stream is a pure function of ``(root_seed, step, tag)``: seed, step
    and channel; distinct addresses give statistically independent streams.
    A counter-based generator (Philox) keyed by a hash of the address makes
    draws independent of call order and thread count, and gives
    :func:`standard_normal` its jumped substreams. The hash ends with a
    constant -1 slot that every key includes; dropping it would move every stream.
    """

    root_seed: int
    step: int
    tag: str

    def __post_init__(self):
        if not isinstance(self.root_seed, int) or isinstance(self.root_seed, bool):
            raise ContractViolation("root_seed must be an integer")
        if not isinstance(self.step, int) or isinstance(self.step, bool):
            raise ContractViolation("step must be an integer")
        if not isinstance(self.tag, str) or not self.tag:
            raise ContractViolation("tag must be a non-empty string")

    def _philox_key(self) -> int:
        h = hashlib.sha256()
        h.update((self.root_seed % (1 << 64)).to_bytes(8, "big"))
        h.update(self.step.to_bytes(8, "big", signed=True))
        tag = self.tag.encode("utf-8")
        h.update(len(tag).to_bytes(4, "big"))
        h.update(tag)
        h.update((-1).to_bytes(8, "big", signed=True))
        return int.from_bytes(h.digest()[:16], "big")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._philox_key()))


# Normals per block of a large draw: block b is drawn from the Philox stream
# jumped b times, so a draw of at most _BLOCK normals is the stream itself.
_BLOCK = 1 << 20
# Normals per chunk of a block: each draw worker holds one float64 chunk
# (256 KiB) as its scratch for a float32 draw, so no (n, d) float64 array is built
_CHUNK = 1 << 15


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def standard_normal(stream: RngStream, shape, out=None, finish=None) -> np.ndarray:
    """Standard normals of the given shape, drawn in blocks of ``_BLOCK``
    into ``out`` (a C-contiguous float32 or float64 array of that shape) or
    a new float64 array, which is returned.

    Block b of the flat output is the draw of ``Philox(key).jumped(b)``, so
    the bytes do not depend on the core count, and a float64 draw of at most
    ``_BLOCK`` normals is ``stream.generator().standard_normal(shape)``.
    Each block is drawn in float64 chunks of ``_CHUNK`` normals; a float32
    draw draws each chunk into its worker's one scratch chunk and rounds it
    into the output, so it holds the float64 draw's values rounded once.
    ``finish(chunk, offset)``, when given, edits each float64 chunk in place
    before it is stored, ``offset`` being the chunk's first flat index; a
    finished value beyond float32's range raises ``ContractViolation``
    naming its row (its index on the first axis).

    ``min(4 * cores, blocks)`` workers share the blocks round-robin, or one
    worker on a single usable core: the calling thread and one pool task
    each, and the pool starts threads only for its tasks, so with one worker
    none starts. More workers than cores keep most of the CPU for the draw
    while OpenBLAS's idle worker busy-waits, as it does after ``import
    numpy`` and after each threaded product. Every thread is joined before
    this returns, and an exception raised in one is raised here.
    """
    if out is None:
        out = np.empty(shape)
    elif out.shape != tuple(np.atleast_1d(shape)) or out.dtype not in (np.float32, np.float64) or not (
        out.flags.c_contiguous and out.flags.writeable
    ):
        raise ContractViolation(f"out must be a writable C-contiguous float array of {shape}")
    flat = out.reshape(-1)
    cores = _usable_cores()
    # The spinning worker competes for its core with each draw thread there,
    # so more draw threads leave it a smaller share. The (10000, 784) draw
    # started 30 ms after `import numpy` took a median 87.0 ms at 1 worker
    # per core, 65.8 at 2 and 62.2 at 4; started 0.4 s after it, with
    # nothing spinning, 56.4, 58.3 and 58.3 ms (fresh processes, 2 vCPU,
    # 12 runs each). One core has no idle BLAS worker to share with.
    per_core = 4 if cores > 1 else 1
    workers = max(1, min(per_core * cores, -(-flat.size // _BLOCK)))
    draw = partial(_draw_blocks, stream._philox_key(), flat, workers)
    if finish is not None:
        draw = partial(draw, finish=finish)
    with ThreadPoolExecutor(workers) as pool:
        rest = [pool.submit(draw, k) for k in range(1, workers)]
        overflowed = [draw(0)] + [future.result() for future in rest]
    if any(overflowed):
        raise _beyond_float32(np.isinf(out))
    return out


def _draw_blocks(key: int, flat: np.ndarray, step: int, first: int, finish=None) -> bool:
    """Draws blocks ``first``, ``first + step``, ... of ``flat``; returns
    whether a float32 ``flat`` received a value beyond its range."""
    scratch = np.empty(min(_CHUNK, flat.size)) if flat.dtype == np.float32 else None
    overflowed = False
    for lo in range(first * _BLOCK, flat.size, step * _BLOCK):
        gen = np.random.Generator(np.random.Philox(key=key).jumped(lo // _BLOCK))
        for start in range(lo, min(lo + _BLOCK, flat.size), _CHUNK):
            dst = flat[start : start + _CHUNK]
            chunk = dst if scratch is None else scratch[: dst.size]
            gen.standard_normal(out=chunk)
            if finish is not None:
                finish(chunk, start)
            if scratch is not None:
                overflowed |= _round_into(dst, chunk)
    return overflowed


def _round_into(out: np.ndarray, values: np.ndarray) -> bool:
    """Rounds ``values`` into the float32 array ``out``; returns whether a
    finite value lay beyond float32's range (stored as inf)."""
    try:
        with np.errstate(over="raise"):
            np.copyto(out, values)
    except FloatingPointError:  # raised once the whole cast is stored
        return True
    return False


def _beyond_float32(beyond: np.ndarray) -> ContractViolation:
    """The error for an array rounded to float32 whose entries ``beyond``
    lay beyond float32's range: it names the first such row."""
    rows = np.atleast_1d(beyond)
    row = int(np.argmax(rows.reshape(len(rows), -1).any(axis=1)))
    return ContractViolation(f"row {row}: coordinate beyond float32's range")


def gaussian_sample(stream: RngStream, layer_dims, std: float) -> LayeredVector:
    """I.i.d. zero-mean Gaussian draws with the given standard deviation.

    One draw of ``sum(layer_dims)`` normals: the blocks drawn one after
    another. std == 0 returns the zero vector without consuming the stream.
    """
    dims = tuple(int(d) for d in layer_dims)
    if any(d <= 0 for d in dims):
        raise ContractViolation(f"layer dimensions must be positive: {dims}")
    if not math.isfinite(std) or std < 0:
        raise ContractViolation(f"std must be finite and >= 0, got {std!r}")
    if std == 0:
        return LayeredVector.zeros(dims)
    return LayeredVector(stream.generator().standard_normal(sum(dims)) * std, dims)
