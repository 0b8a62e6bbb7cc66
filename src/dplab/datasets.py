"""Dataset ingestion, synthetic task generation, and Poisson subsampling.

Supports big-endian IDX image/label pairs (pixel values scaled by 1/255)
and Gaussian-blob classification tasks that are linearly separable when the
margin dominates the blob spread.

A :class:`Dataset` is the :class:`dplab.models.Batch` of all its rows,
held as one read-only float32 (n, d_in) array: both sources carry no more
than float32 information (8-bit pixels, and blobs that stand in for them),
and it halves the largest object a run keeps (the 60000 x 784 MNIST train
set takes 188 MB instead of 376 MB). Training stays in float64:
:func:`poisson_sample` takes the rows it draws from the dataset upcast, so
every batch a trainer steps on, its ||x_i||^2, gradients, releases and
ledger are float64. Evaluation multiplies the float32 rows directly.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IdxFormatError, check_int
from .models import Batch
from .vectors import RngStream, _beyond_float32, _round_into, standard_normal

__all__ = [
    "Dataset",
    "gen_synthetic",
    "load_idx_pair",
    "poisson_sample",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class Dataset(Batch):
    """A labelled dataset: the float32 :class:`Batch` of all its rows, with
    its class count. Inputs of another dtype are rounded to float32 once (a
    finite coordinate beyond float32's range raises ``ContractViolation``
    naming its row); float32 inputs are shared, and the caller's arrays stay
    writable. As a batch it checks the shapes and the labels (integral,
    non-negative and below ``n_classes``) and, in the dataset's one scan of
    its inputs, computes every row's squared norm ||x_i||^2 in float64 from
    the upcast row and checks finiteness; :func:`poisson_sample` gathers
    float64 batches with their norms from it (:meth:`Batch.take`), so no
    step recomputes them. A float32 row's ||x_i||^2 cannot overflow
    float64, so every row's gradient can be clipped."""

    n_classes: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs)
        if inputs.dtype != np.float32:
            wide = np.asarray(inputs, dtype=np.float64)
            inputs = _mapped_float32(wide.shape)
            if _round_into(inputs, wide):
                raise _beyond_float32(np.isinf(inputs) & np.isfinite(wide))
            object.__setattr__(self, "inputs", inputs)
        super().__post_init__()  # shape, labels, finiteness, row norms
        if self.size < 1:
            raise ContractViolation("dataset must contain at least one example")
        if self.n_classes < 2:
            raise ContractViolation(f"need at least 2 classes, got {self.n_classes}")
        if int(self.labels.max()) >= self.n_classes:
            raise ContractViolation(f"labels must lie in [0, {self.n_classes})")

    n = Batch.size  # the row count

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]


def _mapped_float32(shape) -> np.ndarray:
    """An uninitialized float32 array of ``shape`` in its own private
    anonymous memory mapping, backed by huge pages where the platform takes
    the hint, as numpy hints for its own large arrays (a shared anonymous
    mapping would take none). Freeing it unmaps it at once. A malloc'd array
    would not: under glibc, freeing a block of up to 32 MiB (the 10000 x 784
    float32 inputs take 31.4 MB) lifts the dynamic mmap threshold to its
    size, so a process that builds datasets in turn carves every later
    buffer below it from the heap, which kept about 20 MB more resident in
    the benchmark's repeated runs."""
    size = math.prod(shape)
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    buffer = mmap.mmap(-1, max(4 * size, 1), **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, np.float32, size).reshape(shape)


def _be_u32(data: bytes, offset: int, path: str) -> int:
    if len(data) < offset + 4:
        raise IdxFormatError(f"{path}: truncated header, needed 4 bytes at byte {offset}")
    return int.from_bytes(data[offset : offset + 4], "big")


def load_idx_pair(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Parse a big-endian IDX image/label pair into a Dataset.

    A pixel k becomes the float32 k/255, rounded once; the class count is
    taken from the full label file before any truncation by ``limit``.
    """
    images_path = str(images_path)
    labels_path = str(labels_path)
    if limit is not None:
        limit = check_int("limit", limit, 1)
    inputs, count = _read_images(images_path, limit)
    labels = _read_labels(labels_path, count, images_path)
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(inputs, labels[:limit], n_classes)


def _read_images(images_path: str, limit: int | None) -> tuple[np.ndarray, int]:
    """The first ``limit`` images (all when None) as float32 rows k/255, and
    the file's image count. The file's bytes are dropped on return, before
    the dataset's scan."""
    img = Path(images_path).read_bytes()
    magic = _be_u32(img, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad magic 0x{magic:08x} at byte 0, expected images magic "
            f"0x{IDX_IMAGES_MAGIC:08x}"
        )
    count = _be_u32(img, 4, images_path)
    rows = _be_u32(img, 8, images_path)
    cols = _be_u32(img, 12, images_path)
    need = 16 + count * rows * cols
    if len(img) < need:
        raise IdxFormatError(
            f"{images_path}: pixel payload truncated at byte {len(img)}, expected {need} bytes "
            f"for {count} x {rows} x {cols} images"
        )
    kept = count if limit is None else min(limit, count)
    pixels = np.frombuffer(img, dtype=np.uint8, count=kept * rows * cols, offset=16)
    inputs = _mapped_float32((kept, rows * cols))
    np.copyto(inputs, pixels.reshape(kept, rows * cols))
    np.divide(inputs, np.float32(255.0), out=inputs)  # IEEE division: k/255 rounded once
    return inputs, count


def _read_labels(labels_path: str, count: int, images_path: str) -> np.ndarray:
    """Every label of the file, which must hold ``count`` of them."""
    lab = Path(labels_path).read_bytes()
    lmagic = _be_u32(lab, 0, labels_path)
    if lmagic != IDX_LABELS_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad magic 0x{lmagic:08x} at byte 0, expected labels magic "
            f"0x{IDX_LABELS_MAGIC:08x}"
        )
    lcount = _be_u32(lab, 4, labels_path)
    if lcount != count:
        raise IdxFormatError(
            f"label count {lcount} in {labels_path} does not match image count {count} "
            f"in {images_path}"
        )
    if len(lab) < 8 + lcount:
        raise IdxFormatError(
            f"{labels_path}: label payload truncated at byte {len(lab)}, expected {8 + lcount} bytes"
        )
    return np.frombuffer(lab, dtype=np.uint8, count=lcount, offset=8).astype(np.int64)


def gen_synthetic(
    n: int, d_in: int, n_classes: int, margin: float, seed: int, std: float = 1.0
) -> Dataset:
    """Gaussian class blobs with centers exactly ``margin`` apart.

    Centers sit at (margin/sqrt(2)) along distinct coordinate axes, so the
    pairwise center distance is exactly the margin; requires
    n_classes <= d_in. Linearly separable when margin >= 6 * std.

    Each coordinate is computed in float64 as std * z, plus margin/sqrt(2)
    on each example's center axis, and rounded once to float32; the float64
    value equals center + std * z except that an off-axis std * z
    underflowing to -0.0 keeps its sign. z is the (n, d_in) draw of
    :func:`dplab.vectors.standard_normal` from stream
    ``(seed, 0, "synthetic-data")``: the stream itself up to 2^20 normals,
    fixed jumped blocks of it beyond, the same bytes on any number of cores.
    The draw workers finish and round their float64 chunks, so no (n, d_in)
    float64 array is built. A coordinate beyond float32's range raises
    ``ContractViolation`` naming its row.
    """
    n, d_in = check_int("n", n), check_int("d_in", d_in)
    n_classes, seed = check_int("n_classes", n_classes, 2), check_int("seed", seed)
    if n < n_classes:
        raise ContractViolation(f"need n >= n_classes, got n={n}, n_classes={n_classes}")
    if d_in < n_classes:
        raise ContractViolation(
            f"axis-aligned centers need d_in >= n_classes, got d_in={d_in}, n_classes={n_classes}"
        )
    if not math.isfinite(margin) or margin <= 0:
        raise ContractViolation(f"margin must be positive, got {margin!r}")
    if not math.isfinite(std) or std <= 0:
        raise ContractViolation(f"std must be positive, got {std!r}")
    labels = np.arange(n, dtype=np.int64) % n_classes
    center = margin / math.sqrt(2.0)

    def finish(chunk: np.ndarray, offset: int) -> None:
        if std != 1.0:
            chunk *= std
        rows = np.arange(offset // d_in, (offset + chunk.size - 1) // d_in + 1)
        on_axis = rows * d_in + rows % n_classes - offset
        chunk[on_axis[(on_axis >= 0) & (on_axis < chunk.size)]] += center

    inputs = _mapped_float32((n, d_in))
    standard_normal(RngStream(seed, 0, "synthetic-data"), (n, d_in), inputs, finish)
    return Dataset(inputs, labels, n_classes)


def poisson_sample(dataset: Dataset, q: float, stream: RngStream) -> Batch:
    """Include each example independently with probability q, in index order.

    The batch is ``dataset.take`` of the drawn indices: the float32 rows
    upcast to float64, with their squared norms from the dataset's scan.
    The result may be empty. The trainers divide every release by the
    expected batch size, never by the realized size, so an empty draw
    releases the noise alone (see :mod:`dplab.trainers`).
    """
    if not 0.0 <= q <= 1.0:
        raise ContractViolation(f"sampling ratio must be in [0, 1], got {q!r}")
    draws = stream.generator().random(dataset.n)
    return dataset.take(np.flatnonzero(draws < q))
