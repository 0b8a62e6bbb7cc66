"""Layered vectors and deterministic Gaussian streams.

Parameters, released gradients and decomposition bases are
``LayeredVector``s: float64 coordinates split into per-layer blocks.
Values are immutable after construction and safe to share across threads.
Per-sample gradients are not: the trainers keep them as per-layer factors
(:class:`dplab.models.GradientFactors`) and only the reference path
(:func:`dplab.models.per_sample_gradients`) expands them into vectors.

Reductions run per layer and then left-to-right across layers. Within a
layer they use numpy's fixed pairwise summation, so results do not depend
on scheduling or thread count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

__all__ = [
    "LayeredVector",
    "RngStream",
    "add",
    "axpy",
    "dot",
    "dot_layer",
    "gaussian_sample",
    "l2_norm",
    "l2_norm_layer",
    "scale",
    "sub",
]


@dataclass(frozen=True, eq=False)
class LayeredVector:
    """Flat float64 vector partitioned into per-layer blocks.

    Blocks must be 1-d float64 arrays with at least one coordinate each;
    every coordinate must be finite. Use :meth:`from_blocks` to build from
    arbitrary sequences (it copies); the raw constructor takes ownership of
    the arrays it is given and marks them read-only.
    """

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ContractViolation("a layered vector needs at least one layer block")
        for i, block in enumerate(blocks):
            if not isinstance(block, np.ndarray) or block.ndim != 1 or block.dtype != np.float64:
                raise ContractViolation(f"layer {i}: blocks must be 1-d float64 arrays")
            if block.size == 0:
                raise ContractViolation(f"layer {i}: layer dimensions must be positive")
            if not np.all(np.isfinite(block)):
                raise ContractViolation(f"layer {i}: non-finite coordinate")
            block.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, blocks) -> "LayeredVector":
        return cls(tuple(np.array(b, dtype=np.float64).ravel() for b in blocks))

    @classmethod
    def zeros(cls, layer_dims) -> "LayeredVector":
        return cls(tuple(np.zeros(int(d), dtype=np.float64) for d in layer_dims))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    @property
    def layer_count(self) -> int:
        return len(self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def concat(self) -> np.ndarray:
        """All coordinates as one fresh array, layers in order."""
        return np.concatenate(self.blocks)

    def equals(self, other: "LayeredVector") -> bool:
        """Bit-exact equality."""
        return self.layer_dims == other.layer_dims and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )

    def allclose(self, other: "LayeredVector", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return self.layer_dims == other.layer_dims and all(
            np.allclose(a, b, rtol=rtol, atol=atol) for a, b in zip(self.blocks, other.blocks)
        )

    def __repr__(self) -> str:
        return f"LayeredVector(layer_dims={self.layer_dims})"


def _require_compatible(a: LayeredVector, b: LayeredVector) -> None:
    if a.layer_dims != b.layer_dims:
        raise ContractViolation(f"shape mismatch: {a.layer_dims} vs {b.layer_dims}")


def _require_layer(v: LayeredVector, layer: int) -> None:
    if not 0 <= layer < v.layer_count:
        raise ContractViolation(f"layer index {layer} out of range [0, {v.layer_count})")


def dot_layer(a: LayeredVector, b: LayeredVector, layer: int) -> float:
    _require_compatible(a, b)
    _require_layer(a, layer)
    return float(np.sum(a.blocks[layer] * b.blocks[layer]))


def dot(a: LayeredVector, b: LayeredVector) -> float:
    _require_compatible(a, b)
    total = 0.0
    for la, lb in zip(a.blocks, b.blocks):
        total += float(np.sum(la * lb))
    return total


def l2_norm_layer(a: LayeredVector, layer: int) -> float:
    _require_layer(a, layer)
    block = a.blocks[layer]
    return math.sqrt(float(np.sum(block * block)))


def l2_norm(a: LayeredVector) -> float:
    total = 0.0
    for block in a.blocks:
        total += float(np.sum(block * block))
    return math.sqrt(total)


def axpy(c: float, x: LayeredVector, y: LayeredVector) -> LayeredVector:
    """c*x + y, coordinate-wise."""
    _require_compatible(x, y)
    if not math.isfinite(c):
        raise ContractViolation(f"non-finite scalar {c!r}")
    return LayeredVector(tuple(c * bx + by for bx, by in zip(x.blocks, y.blocks)))


def scale(c: float, x: LayeredVector) -> LayeredVector:
    if not math.isfinite(c):
        raise ContractViolation(f"non-finite scalar {c!r}")
    return LayeredVector(tuple(c * b for b in x.blocks))


def add(x: LayeredVector, y: LayeredVector) -> LayeredVector:
    _require_compatible(x, y)
    return LayeredVector(tuple(bx + by for bx, by in zip(x.blocks, y.blocks)))


def sub(x: LayeredVector, y: LayeredVector) -> LayeredVector:
    _require_compatible(x, y)
    return LayeredVector(tuple(bx - by for bx, by in zip(x.blocks, y.blocks)))


@dataclass(frozen=True)
class RngStream:
    """Address of one deterministic random stream.

    The stream is a pure function of ``(root_seed, step, tag, sample)``;
    distinct addresses give statistically independent streams. A
    counter-based generator (Philox) keyed by a hash of the address makes
    draws independent of call order and thread count.

    ``sample`` is -1 for aggregate draws (batch-level noise), or a sample
    index for per-sample streams.
    """

    root_seed: int
    step: int
    tag: str
    sample: int = -1

    def __post_init__(self):
        if not isinstance(self.root_seed, int) or isinstance(self.root_seed, bool):
            raise ContractViolation("root_seed must be an integer")
        if not isinstance(self.step, int) or isinstance(self.step, bool):
            raise ContractViolation("step must be an integer")
        if not isinstance(self.tag, str) or not self.tag:
            raise ContractViolation("tag must be a non-empty string")
        if not isinstance(self.sample, int) or isinstance(self.sample, bool):
            raise ContractViolation("sample must be an integer")

    @property
    def stream_id(self) -> tuple[int, str, int]:
        return (self.step, self.tag, self.sample)

    def _philox_key(self) -> int:
        h = hashlib.sha256()
        h.update((self.root_seed % (1 << 64)).to_bytes(8, "big"))
        h.update(self.step.to_bytes(8, "big", signed=True))
        tag = self.tag.encode("utf-8")
        h.update(len(tag).to_bytes(4, "big"))
        h.update(tag)
        h.update(self.sample.to_bytes(8, "big", signed=True))
        return int.from_bytes(h.digest()[:16], "big")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._philox_key()))


def gaussian_sample(stream: RngStream, layer_dims, std: float) -> LayeredVector:
    """I.i.d. zero-mean Gaussian draws with the given standard deviation.

    std == 0 returns the zero vector without consuming the stream.
    """
    dims = tuple(int(d) for d in layer_dims)
    if any(d <= 0 for d in dims):
        raise ContractViolation(f"layer dimensions must be positive: {dims}")
    if not math.isfinite(std) or std < 0:
        raise ContractViolation(f"std must be finite and >= 0, got {std!r}")
    if std == 0:
        return LayeredVector.zeros(dims)
    gen = stream.generator()
    return LayeredVector(tuple(gen.standard_normal(d) * std for d in dims))
