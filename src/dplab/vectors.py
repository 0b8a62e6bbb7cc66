"""Layered vectors and deterministic Gaussian streams.

Parameters, released gradients and decomposition bases are
``LayeredVector``s: float64 coordinates split into per-layer blocks.
Values are immutable after construction and safe to share across threads.
Per-sample gradients are not: the trainers keep them as per-layer factors
(:class:`dplab.models.GradientFactors`) and only the reference path
(:func:`dplab.models.per_sample_gradients`) expands them into vectors.

Reductions run per layer and then left-to-right across layers. Within a
layer they use numpy's fixed pairwise summation, so results do not depend
on scheduling or thread count. Random draws do not depend on it either: a
large draw (:func:`standard_normal`) is split across the usable cores and
stitched back into exactly the one-stream bytes.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass

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
    "sub",
]


@dataclass(frozen=True, eq=False)
class LayeredVector:
    """Flat float64 vector partitioned into per-layer blocks.

    Blocks must be 1-d float64 arrays with at least one coordinate each;
    every coordinate must be finite. The constructor takes ownership of the
    arrays it is given and marks them read-only; copy an array first to keep
    it writable.
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

    def equals(self, other: "LayeredVector") -> bool:
        """Bit-exact equality."""
        return self.layer_dims == other.layer_dims and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )

    def __repr__(self) -> str:
        return f"LayeredVector(layer_dims={self.layer_dims})"


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


def sub(x: LayeredVector, y: LayeredVector) -> LayeredVector:
    _require_compatible(x, y)
    return LayeredVector(tuple(bx - by for bx, by in zip(x.blocks, y.blocks)))


@dataclass(frozen=True)
class RngStream:
    """Address of one deterministic random stream.

    The stream is a pure function of ``(root_seed, step, tag)``: seed, step
    and channel; distinct addresses give statistically independent streams.
    A counter-based generator (Philox) keyed by a hash of the address makes
    draws independent of call order and thread count, and of the number of
    workers :func:`standard_normal` splits a draw across. The hash ends with a
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


# Normals per part below which a draw stays on the calling thread: on a 2-vCPU
# host two parts break even near 2^17 normals each, and save 17 % at 2^18 and
# about 40 % at 2^19. Then the normals per recorded state and per move, and
# the probe length.
_MIN_PART = 1 << 19
_CHUNK = 1 << 16
_PROBE = 64


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def standard_normal(stream: RngStream, shape) -> np.ndarray:
    """Exactly ``stream.generator().standard_normal(shape)``, drawn on every
    usable core once each core gets at least ``_MIN_PART`` normals.

    Part k of the flat output is drawn from raw position ``lo_k`` (its first
    index): every normal reads at least one raw draw, so the earlier parts
    end at or after it. After the join each part is stitched to the true end
    of the part before it (:func:`_stitch`), so the bytes do not depend on
    the number of parts. Every thread is joined before this returns, and an
    exception raised in a part is raised here.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    parts = min(_usable_cores(), flat.size // _MIN_PART)
    if parts < 2:
        stream.generator().standard_normal(out=out)
        return out
    key = stream._philox_key()
    bounds = [k * flat.size // parts for k in range(parts + 1)]
    slices = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    drawn: list = [None] * parts

    def draw(k: int) -> None:
        try:
            drawn[k] = _draw_from(key, bounds[k], slices[k])
        except BaseException as exc:  # raised on the calling thread below
            drawn[k] = exc

    threads = []
    try:
        for k in range(1, parts):
            thread = threading.Thread(target=draw, args=(k,))
            thread.start()
            threads.append(thread)
        draw(0)
    finally:
        for thread in threads:
            thread.join()
    for result in drawn:
        if isinstance(result, BaseException):
            raise result
    gen = drawn[0][0]
    for k in range(1, parts):
        worker, marks = drawn[k]
        gen = _stitch(gen, bounds[k], slices[k], worker, marks)
    return out


def _draw_from(key: int, lo: int, part: np.ndarray):
    """Fill ``part`` with normals from raw position ``lo`` of the Philox
    stream ``key``; returns the generator and its state after each chunk."""
    bits = np.random.Philox(key=key)
    bits.advance(lo // 4)  # the counter counts blocks of four raw draws
    bits.random_raw(lo % 4)
    gen = np.random.Generator(bits)
    marks = []
    for start in range(0, part.size, _CHUNK):
        stop = min(start + _CHUNK, part.size)
        gen.standard_normal(out=part[start:stop])
        marks.append((stop, bits.state))
    return gen, marks


def _raw_position(state: dict) -> int:
    """Raw draws made by a Philox generator that started at counter 0: it
    steps its counter before each block of four."""
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter + state["buffer_pos"] - 4


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_state(a[k], b[k]) for k in a
        )
    return np.array_equal(a, b)


def _find_shift(gen: np.random.Generator, lo: int, part: np.ndarray) -> int | None:
    """How far ``part`` (drawn from raw position ``lo``) runs ahead of the
    normals that follow ``gen``: the s with part[i + s] holding the i-th of
    them, read off where a probe of them appears. None if it does not; the
    caller still checks the answer against a recorded state."""
    start = gen.bit_generator.state
    probe = gen.standard_normal(_PROBE).view(np.uint64)
    # part[j] starts at raw position >= lo + j, and every probe normal
    # starts before the probe's end, so a match lies below this bound
    reach = _raw_position(gen.bit_generator.state) - lo
    gen.bit_generator.state = start
    drawn = part.view(np.uint64)
    for m in range(_PROBE):
        for j in np.flatnonzero(drawn[:reach] == probe[m]):
            n = min(_PROBE - m, part.size - j)
            if j >= m and np.array_equal(drawn[j : j + n], probe[m : m + n]):
                return int(j) - m
    return None


def _stitch(gen: np.random.Generator, lo: int, part: np.ndarray, worker, marks):
    """Turn ``part``, drawn by ``worker`` from raw position ``lo`` with its
    state recorded at ``marks``, into the normals that follow ``gen``; returns
    a generator at the end of them.

    A shift is accepted only when ``gen``, having drawn the head of the part
    up to a mark, has exactly the state ``worker`` recorded there: from that
    raw position on the two read the same draws. The rest of the part then
    moves left by the shift in chunks, and ``worker``, now in step, draws
    the last ``shift`` slots. Otherwise ``gen`` draws the rest itself."""
    shift = _find_shift(gen, lo, part)
    rest = part
    if shift is not None:
        stop, state = next((stop, state) for stop, state in marks if stop > shift)
        gen.standard_normal(out=part[: stop - shift])
        if _same_state(gen.bit_generator.state, state):
            for start in range(stop, part.size, _CHUNK):
                end = min(start + _CHUNK, part.size)
                part[start - shift : end - shift] = part[start:end]
            worker.standard_normal(out=part[part.size - shift :])
            return worker
        rest = part[stop - shift :]
    gen.standard_normal(out=rest)
    return gen


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
