"""Dataset ingestion, synthetic task generation, and Poisson subsampling.

Supports big-endian IDX image/label pairs (pixel values scaled by 1/255)
and Gaussian-blob classification tasks that are linearly separable when the
margin dominates the blob spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IdxFormatError, check_int
from .models import Batch
from .vectors import RngStream, standard_normal

__all__ = [
    "Dataset",
    "gen_synthetic",
    "load_idx_pair",
    "poisson_sample",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labelled dataset. It holds read-only views of the given arrays,
    sharing their memory when no conversion is needed; the caller's arrays
    stay writable. ``examples`` is every row as one :class:`Batch`, which
    checks the shapes and the labels (integral and non-negative) and, in
    the dataset's one scan of its inputs, computes every row's squared norm
    ||x_i||^2 and checks finiteness; :func:`poisson_sample` gathers batches
    with their norms from it, so no step recomputes them. The dataset adds
    its own rules, among them that every ||x_i||^2 is finite: a batch keeps
    a finite row whose square overflows float64, but no trainer can clip
    its gradient, so a dataset rejects it."""

    name: str
    inputs: np.ndarray  # (n, d_in) float64
    labels: np.ndarray  # (n,) int64
    n_classes: int
    examples: Batch = field(init=False, repr=False)

    def __post_init__(self):
        examples = Batch(self.inputs, self.labels)  # shape, labels, finiteness, row norms
        if examples.size < 1:
            raise ContractViolation("dataset must contain at least one example")
        overflowing = np.flatnonzero(np.isinf(examples.input_sq_norms))
        if overflowing.size:
            raise ContractViolation(
                f"row {overflowing[0]}: squared norm overflows float64, so its gradient "
                "cannot be clipped"
            )
        if self.n_classes < 2:
            raise ContractViolation(f"need at least 2 classes, got {self.n_classes}")
        if int(examples.labels.max()) >= self.n_classes:
            raise ContractViolation(f"labels must lie in [0, {self.n_classes})")
        object.__setattr__(self, "examples", examples)
        object.__setattr__(self, "inputs", examples.inputs)
        object.__setattr__(self, "labels", examples.labels)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]


def _be_u32(data: bytes, offset: int, path: str) -> int:
    if len(data) < offset + 4:
        raise IdxFormatError(f"{path}: truncated header, needed 4 bytes at byte {offset}")
    return int.from_bytes(data[offset : offset + 4], "big")


def load_idx_pair(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Parse a big-endian IDX image/label pair into a Dataset.

    Pixels are divided by 255; the class count is taken from the full label
    file before any truncation by ``limit``.
    """
    images_path = str(images_path)
    labels_path = str(labels_path)
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

    pixels = np.frombuffer(img, dtype=np.uint8, count=count * rows * cols, offset=16)
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lab, dtype=np.uint8, count=lcount, offset=8).astype(np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else 0

    if limit is not None:
        limit = check_int("limit", limit, 1)
        inputs = inputs[:limit]
        labels = labels[:limit]
    return Dataset(Path(images_path).stem, inputs, labels, n_classes)


def gen_synthetic(
    n: int, d_in: int, n_classes: int, margin: float, seed: int, std: float = 1.0
) -> Dataset:
    """Gaussian class blobs with centers exactly ``margin`` apart.

    Centers sit at (margin/sqrt(2)) along distinct coordinate axes, so the
    pairwise center distance is exactly the margin; requires
    n_classes <= d_in. Linearly separable when margin >= 6 * std.

    Built in place as std * z plus margin/sqrt(2) on each example's center
    axis, which equals center + std * z except that an off-axis std * z
    underflowing to -0.0 keeps its sign. z is the (n, d_in) draw of
    :func:`dplab.vectors.standard_normal` from stream
    ``(seed, 0, "synthetic-data")``: the stream itself up to 2^20 normals,
    fixed jumped blocks of it beyond, the same bytes on any number of cores.
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
    inputs = standard_normal(RngStream(seed, 0, "synthetic-data"), (n, d_in))
    if std != 1.0:
        inputs *= std
    inputs[np.arange(n), labels] += margin / math.sqrt(2.0)
    return Dataset(f"synthetic-n{n}-d{d_in}-c{n_classes}", inputs, labels, n_classes)


def poisson_sample(dataset: Dataset, q: float, stream: RngStream) -> Batch:
    """Include each example independently with probability q, in index order.

    The result may be empty. The trainers divide every release by the
    expected batch size, never by the realized size, so an empty draw
    releases the noise alone (see :mod:`dplab.trainers`).
    """
    if not 0.0 <= q <= 1.0:
        raise ContractViolation(f"sampling ratio must be in [0, 1], got {q!r}")
    draws = stream.generator().random(dataset.n)
    return dataset.examples.take(np.flatnonzero(draws < q))
