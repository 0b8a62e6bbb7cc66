import math
import mmap
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dplab
from dplab import (
    Batch,
    ContractViolation,
    Dataset,
    IdxFormatError,
    RngStream,
    apply_update,
    gen_synthetic,
    init_model,
    load_idx_pair,
    logistic_regression,
    poisson_sample,
)
from dplab.models import EVAL_CHUNK_BYTES, evaluate
from tests.conftest import jumped_block_normals, mean_gradient, reference_synthetic


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_pixels=0, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    payload = images.tobytes()
    if truncate_pixels:
        payload = payload[:-truncate_pixels]
    img_path.write_bytes(
        image_magic.to_bytes(4, "big")
        + n.to_bytes(4, "big")
        + rows.to_bytes(4, "big")
        + cols.to_bytes(4, "big")
        + payload
    )
    lab_path.write_bytes(
        label_magic.to_bytes(4, "big")
        + (label_count if label_count is not None else n).to_bytes(4, "big")
        + labels.tobytes()
    )
    return img_path, lab_path


class TestIdxLoader:
    def test_parses_valid_pair(self, tmp_path):
        gen = np.random.Generator(np.random.Philox(key=0))
        images = gen.integers(0, 256, size=(12, 4, 3), dtype=np.uint16).astype(np.uint8)
        labels = np.arange(12) % 10
        img, lab = write_idx_pair(tmp_path, images, labels)
        ds = load_idx_pair(img, lab, limit=10)
        assert ds.n == 10
        assert ds.d_in == 12
        assert ds.n_classes == 10  # from the full label file, before truncation
        assert ds.inputs.dtype == np.float32
        assert np.array_equal(ds.inputs[0], (images[0].ravel() / 255.0).astype(np.float32))
        assert ds.inputs.max() <= 1.0

    def test_pixel_k_maps_to_k_over_255_rounded_once(self, tmp_path):
        """Every byte k = 0..255 becomes the float32 nearest the rational
        k/255, which is also the float64 quotient k / 255.0 rounded to
        float32 (no double-rounding case among the 256)."""
        k = np.arange(256)
        images = np.stack([k, k[::-1]]).astype(np.uint8).reshape(2, 16, 16)
        ds = load_idx_pair(*write_idx_pair(tmp_path, images, [0, 1]))
        mapped = ds.inputs[0]
        assert mapped.dtype == np.float32
        assert mapped.tobytes() == (k / 255.0).astype(np.float32).tobytes()
        for byte, got in zip(k, mapped):
            exact = Fraction(int(byte), 255)
            neighbours = (np.nextafter(got, np.float32(-1)), np.nextafter(got, np.float32(2)))
            assert all(abs(Fraction(float(got)) - exact) < abs(Fraction(float(n)) - exact)
                       for n in neighbours), byte

    def test_wrong_images_magic_names_expected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], image_magic=0x801)
        with pytest.raises(IdxFormatError, match="0x00000803"):
            load_idx_pair(img, lab)

    def test_wrong_labels_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], label_magic=0x803)
        with pytest.raises(IdxFormatError, match="0x00000801"):
            load_idx_pair(img, lab)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1, 0], truncate_pixels=5)
        with pytest.raises(IdxFormatError, match="truncated at byte"):
            load_idx_pair(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1, 0], label_count=2)
        with pytest.raises(IdxFormatError, match="does not match"):
            load_idx_pair(img, lab)

    def test_limit_zero_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        with pytest.raises(ContractViolation):
            load_idx_pair(img, lab, limit=0)

    @pytest.mark.parametrize("limit", [1.5, True])
    def test_non_integer_limit_rejected(self, tmp_path, limit):
        # 1.5 failed in the slice with a TypeError, and True loaded one row
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        with pytest.raises(ContractViolation, match="integer"):
            load_idx_pair(img, lab, limit=limit)


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(50, 8, 3, margin=5.0, seed=4)
        b = gen_synthetic(50, 8, 3, margin=5.0, seed=4)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_one_example_per_class_boundary(self):
        ds = gen_synthetic(10, 10, 10, margin=4.0, seed=0)
        assert ds.n == 10
        assert sorted(ds.labels) == list(range(10))

    def test_centers_margin_apart(self):
        ds = gen_synthetic(400, 6, 3, margin=9.0, seed=1, std=1e-9)
        centers = np.stack([ds.inputs[ds.labels == k].mean(axis=0) for k in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(9.0, rel=1e-6)

    def test_wide_margin_is_linearly_separable(self):
        ds = gen_synthetic(300, 10, 2, margin=10.0, seed=2, std=1.0)
        model = init_model(logistic_regression(ds.d_in, ds.n_classes), 0)
        batch = Batch(ds.inputs, ds.labels)
        for _ in range(300):
            model = apply_update(model, mean_gradient(model, batch), 0.5)
        assert evaluate(model, batch)[1] > 0.99

    @pytest.mark.parametrize(
        "n, d_in, n_classes, margin, seed, std",
        [
            (10, 10, 10, 4.0, 0, 1.0),
            (50, 8, 3, 5.0, 4, 1.0),
            (400, 6, 3, 9.0, 1, 1e-9),
            (333, 50, 2, 12.0, 7, 0.3),
            (1000, 784, 10, 12.0, 21, 1.0),
            (10000, 784, 10, 12.0, 3, 1.0),  # the benchmark shape: more than one block
        ],
    )
    def test_equals_centers_plus_noise(self, n, d_in, n_classes, margin, seed, std):
        """The in-place build equals the reference centers[labels] + std * z,
        where z is the one stream up to 2^20 normals and, beyond, block b of
        2^20 normals is drawn from the stream jumped b times."""
        ds = gen_synthetic(n, d_in, n_classes, margin, seed, std)
        centers = np.zeros((n_classes, d_in))
        np.fill_diagonal(centers[:, :n_classes], margin / math.sqrt(2.0))
        labels = np.arange(n, dtype=np.int64) % n_classes
        stream = RngStream(seed, 0, "synthetic-data")
        if n * d_in <= 1 << 20:
            z = stream.generator().standard_normal((n, d_in))
        else:
            z = jumped_block_normals(stream, n * d_in).reshape(n, d_in)
        noise = std * z
        assert np.array_equal(ds.inputs, (centers[labels] + noise).astype(np.float32))
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize(
        "n, d_in, n_classes, margin, seed, std",
        [
            (10, 10, 10, 4.0, 0, 1.0),
            (50, 8, 3, 5.0, 4, 1.0),
            (400, 6, 3, 9.0, 1, 1e-9),
            (333, 50, 2, 12.0, 7, 0.3),
            (10000, 784, 10, 12.0, 3, 1.0),
            (1000, 784, 10, 12.0, 5, 1e-40),  # float32 subnormals and zeros
        ],
    )
    def test_rounds_the_float64_construction_once(self, n, d_in, n_classes, margin, seed, std):
        """The float32 inputs are the float64 construction (conftest's
        reference) rounded once, bit for bit, signed zeros included: each
        coordinate lies within half a float32 ulp of its float64 value. A
        float32 noise draw with the margin added in float32 would round
        twice."""
        ds = gen_synthetic(n, d_in, n_classes, margin, seed, std)
        reference = reference_synthetic(n, d_in, n_classes, margin, seed, std)
        assert ds.inputs.dtype == np.float32 and ds.inputs.flags.c_contiguous
        assert ds.inputs.tobytes() == reference.astype(np.float32).tobytes()
        error = np.abs(ds.inputs.astype(np.float64) - reference)
        assert np.all(error <= 0.5 * np.spacing(np.abs(ds.inputs)).astype(np.float64))

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_coordinate_beyond_float32_names_its_first_row(self, monkeypatch, seed):
        """Noise at std = FLT_MAX / 5 leaves float32's range only where
        |z| > 5: at these seeds, one to five coordinates in the third block
        only, the second and third, or all three, each block on its own
        worker. The error names the first such row, from the reference."""
        monkeypatch.setattr(dplab.vectors, "_usable_cores", lambda: 3)
        std = float(np.finfo(np.float32).max) / 5.0
        reference = reference_synthetic(4000, 784, 10, 1.0, seed, std)
        with np.errstate(over="ignore"):
            beyond = np.isinf(reference.astype(np.float32)).any(axis=1)
        assert beyond.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation,
                               match=rf"^row {np.argmax(beyond)}: coordinate beyond float32's range$"):
                gen_synthetic(4000, 784, 10, 1.0, seed, std)

    @pytest.mark.skipif(
        not (hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2),
        reason="needs sched_setaffinity and at least two usable CPUs",
    )
    def test_inputs_do_not_depend_on_the_core_count(self):
        """The benchmark shape built in a child pinned to one CPU and in a
        child on every usable CPU: the same bytes."""
        script = (
            "import hashlib, os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from dplab import gen_synthetic\n"
            "inputs = gen_synthetic(10000, 784, 10, 12.0, seed=3).inputs\n"
            "print(len(os.sched_getaffinity(0)), hashlib.sha256(inputs.tobytes()).hexdigest())\n"
        )
        src = str(Path(dplab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        runs = {
            mode: subprocess.run(
                [sys.executable, "-c", script, mode],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout.split()
            for mode in ("one", "all")
        }
        assert runs["one"][0] == "1" and int(runs["all"][0]) >= 2
        assert runs["one"][1] == runs["all"][1]

    def test_invalid_sizes(self):
        with pytest.raises(ContractViolation):
            gen_synthetic(1, 4, 2, margin=1.0, seed=0)
        with pytest.raises(ContractViolation):
            gen_synthetic(10, 2, 3, margin=1.0, seed=0)
        with pytest.raises(ContractViolation):
            gen_synthetic(10, 4, 2, margin=0.0, seed=0)

    @pytest.mark.parametrize("name", ["n", "d_in", "n_classes", "seed"])
    @pytest.mark.parametrize("value", [100.0, True], ids=["float", "bool"])
    def test_non_integer_sizes_rejected(self, name, value):
        args = {"n": 10, "d_in": 4, "n_classes": 2, "seed": 0, name: value}
        with pytest.raises(ContractViolation, match="integer"):
            gen_synthetic(margin=4.0, **args)

    def test_numpy_integer_sizes(self):
        n, d_in, n_classes, seed = np.array([10, 4, 2, 7])
        got = gen_synthetic(n, d_in, n_classes, margin=4.0, seed=seed)
        want = gen_synthetic(10, 4, 2, margin=4.0, seed=7)
        assert got.inputs.tobytes() == want.inputs.tobytes()


class TestFootprint:
    """A dataset's inputs take n d_in float32 bytes, in their own memory
    mapping, which tracemalloc does not see, and building one allocates
    little beyond them: one chunk of the scan's float64 rows
    (EVAL_CHUNK_BYTES), and a sixteenth of a chunk for the (n,) labels and
    norms and numpy's cast buffers. The synthetic draw rounds per-worker
    float64 chunks into the mapping and the IDX loader maps the pixels into
    it, so neither builds an (n, d_in) float64 array (the float64 builds
    traced 34 MB and 53 MB here)."""

    N, D = 4000, 784

    def traced_peak(self, build) -> int:
        build()  # imports and first-call allocations are not the build's
        tracemalloc.start()
        try:
            dataset = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.inputs.shape == (self.N, self.D) and dataset.inputs.dtype == np.float32
        owner = dataset.inputs
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        assert isinstance(owner, memoryview) and isinstance(owner.obj, mmap.mmap)
        return peak

    def test_synthetic(self):
        peak = self.traced_peak(lambda: gen_synthetic(self.N, self.D, 10, 12.0, seed=9))
        assert peak < EVAL_CHUNK_BYTES + EVAL_CHUNK_BYTES // 16

    def test_idx_pair(self, tmp_path):
        gen = np.random.Generator(np.random.Philox(key=9))
        images = gen.integers(0, 256, size=(self.N, 28, 28), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, np.arange(self.N) % 10)
        del images
        assert self.traced_peak(lambda: load_idx_pair(*paths)) < EVAL_CHUNK_BYTES + EVAL_CHUNK_BYTES // 16


class TestPoissonSample:
    def setup_method(self):
        self.ds = gen_synthetic(200, 4, 2, margin=4.0, seed=0)

    def test_q_zero_empty(self):
        assert poisson_sample(self.ds, 0.0, RngStream(0, 1, "batch")).size == 0

    def test_q_one_full_in_order(self):
        batch = poisson_sample(self.ds, 1.0, RngStream(0, 1, "batch"))
        assert batch.size == self.ds.n
        assert np.array_equal(batch.inputs, self.ds.inputs)
        assert np.array_equal(batch.labels, self.ds.labels)

    def test_mean_batch_size(self):
        big = gen_synthetic(10_000, 3, 2, margin=4.0, seed=1)
        sizes = [
            poisson_sample(big, 0.1, RngStream(7, t, "batch")).size for t in range(1000)
        ]
        assert abs(np.mean(sizes) - 1000) / 1000 < 0.03

    def test_inclusion_is_bernoulli_q(self):
        # chi-square goodness of fit for a fixed example across 1e4 draws
        q = 0.3
        n_draws = 10_000
        gen_counts = 0
        for t in range(n_draws):
            batch_mask = RngStream(3, t, "batch").generator().random(self.ds.n) < q
            gen_counts += int(batch_mask[17])
        expected = n_draws * q
        chi2 = (gen_counts - expected) ** 2 / expected + (
            (n_draws - gen_counts) - n_draws * (1 - q)
        ) ** 2 / (n_draws * (1 - q))
        assert chi2 < 6.635  # df=1 critical value at p=0.01

    def test_q_out_of_range(self):
        with pytest.raises(ContractViolation):
            poisson_sample(self.ds, 1.5, RngStream(0, 1, "batch"))

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.5, 1.0])
    def test_draws_equal_boolean_mask_rows(self, q):
        for seed in range(5):
            stream = RngStream(seed, 3, "batch")
            mask = stream.generator().random(self.ds.n) < q
            batch = poisson_sample(self.ds, q, stream)
            assert batch.inputs.shape == (int(mask.sum()), self.ds.d_in)
            assert batch.inputs.dtype == np.float64 and batch.labels.dtype == np.int64
            assert np.array_equal(batch.inputs, self.ds.inputs[mask])
            assert np.array_equal(batch.labels, self.ds.labels[mask])
            assert not batch.inputs.flags.writeable and not batch.labels.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["small", "wide"]),
        st.integers(0, 2**31),
        st.floats(0.0, 1.0),
        st.sampled_from([1.0, 0.3, 1e-30]),
    )
    def test_batches_are_float32_rows_upcast(self, shape, seed, q, std):
        """A Poisson batch holds the dataset's float32 rows upcast to
        float64, and its norms equal a fresh float64 scan of those rows,
        bit for bit; the wide dataset's rows span three scan chunks."""
        n, d_in = (200, 7) if shape == "small" else (12000, 200)
        ds = gen_synthetic(n, d_in, 3, 6.0, seed % 7, std)
        stream = RngStream(seed, 1, "batch")
        mask = stream.generator().random(n) < q
        batch = poisson_sample(ds, q, stream)
        assert ds.inputs.dtype == np.float32 and batch.inputs.dtype == np.float64
        assert batch.inputs.tobytes() == ds.inputs[mask].astype(np.float64).tobytes()
        fresh = Batch(batch.inputs.copy(), batch.labels)
        assert batch.input_sq_norms.tobytes() == fresh.input_sq_norms.tobytes()
        x = batch.inputs
        assert batch.input_sq_norms.tobytes() == np.sum(x * x, axis=1).tobytes()

    def test_non_finite_dataset_input_rejected(self):
        inputs = self.ds.inputs.copy()
        inputs[7, 1] = np.nan
        with pytest.raises(ContractViolation):
            Dataset(inputs, self.ds.labels, 2)

    def test_deterministic_per_stream(self):
        a = poisson_sample(self.ds, 0.25, RngStream(5, 9, "batch"))
        b = poisson_sample(self.ds, 0.25, RngStream(5, 9, "batch"))
        assert np.array_equal(a.inputs, b.inputs)


class TestDatasetIsItsBatch:
    """A dataset is the float32 batch of all its rows, and a Poisson batch
    is its take of the drawn indices."""

    @pytest.mark.parametrize("source", ["synthetic", "float64"])
    @pytest.mark.parametrize("q", [0.0, 0.2, 1.0])
    def test_poisson_sample_is_take(self, source, q):
        if source == "synthetic":
            ds = gen_synthetic(300, 7, 3, 6.0, seed=4)
        else:
            wide = 3.0 * RngStream(4, 0, "wide").generator().standard_normal((300, 7))
            ds = Dataset(wide, np.arange(300) % 3, 3)
        assert isinstance(ds, Batch) and ds.inputs.dtype == np.float32
        stream = RngStream(9, 2, "batch")
        got = poisson_sample(ds, q, stream)
        want = ds.take(np.flatnonzero(stream.generator().random(ds.n) < q))
        assert type(got) is Batch
        for name in ("inputs", "labels", "input_sq_norms"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDatasetInvariants:
    def test_caller_arrays_stay_writable(self):
        """Float32 inputs are shared; float64 inputs are rounded into a
        float32 copy for a dataset and shared by a batch."""
        inputs, labels = np.zeros((2, 3), np.float32), np.array([0, 1], dtype=np.int64)
        wide = np.zeros((2, 3))
        held = (Batch(inputs, labels), Dataset(inputs, labels, 2), Batch(wide, labels))
        assert inputs.flags.writeable and labels.flags.writeable and wide.flags.writeable
        for examples, source in zip(held, (inputs, inputs, wide)):
            assert examples.inputs.dtype == source.dtype
            for array in (examples.inputs, examples.labels):
                assert not array.flags.writeable
                assert np.shares_memory(array, source) or np.shares_memory(array, labels)
        narrowed = Dataset(wide, labels, 2).inputs
        assert narrowed.dtype == np.float32 and not np.shares_memory(narrowed, wide)

    def test_requires_examples(self):
        with pytest.raises(ContractViolation):
            Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

    def test_label_range_checked(self):
        with pytest.raises(ContractViolation):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), 2)


# 12000 rows of 200 inputs (19.2 MB) span three chunks of the input scan
WIDE = (12000, 200)
SCAN_ROWS = EVAL_CHUNK_BYTES // (8 * WIDE[1])


def build(kind, inputs, labels):
    if kind == "dataset":
        return Dataset(inputs, labels, 2)
    return Batch(inputs, labels)


class TestInputScan:
    """The one scan of a batch's inputs computes every row's ||x_i||^2 and
    is the finiteness check: a NaN or inf coordinate anywhere is rejected.
    A float64 batch keeps a finite row whose square overflows, with norm
    inf. A dataset rounds float64 inputs to float32 and rejects a
    coordinate beyond float32's range; a float32 row's square cannot
    overflow float64."""

    def setup_method(self):
        assert WIDE[0] > 2 * SCAN_ROWS
        self.labels = np.arange(WIDE[0]) % 2

    @pytest.mark.parametrize("kind", ["dataset", "batch"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "where", [(0, 0), (WIDE[0] - 1, WIDE[1] - 1), (2 * SCAN_ROWS + 17, 123)],
        ids=["first", "last", "third-chunk"],
    )
    def test_non_finite_coordinate_rejected(self, kind, bad, where):
        inputs = np.ones(WIDE)
        inputs[where] = bad
        with pytest.raises(ContractViolation, match="non-finite"):
            build(kind, inputs, self.labels)

    @pytest.mark.parametrize("kind", ["batch"])
    def test_overflowing_rows_kept_with_norm_inf(self, kind):
        inputs = np.ones(WIDE)
        rows = [0, SCAN_ROWS - 1, SCAN_ROWS, 2 * SCAN_ROWS + 5, WIDE[0] - 1]
        inputs[rows, 7] = 1e200
        inputs[rows[2], 8] = -3e200
        examples = build(kind, inputs, self.labels)
        with np.errstate(over="ignore"):
            expected = np.sum(inputs * inputs, axis=1)
        assert np.all(np.isinf(examples.input_sq_norms[rows]))
        assert examples.input_sq_norms.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("beyond", [1e200, -1e39, 3.5e38])
    def test_dataset_rejects_coordinate_beyond_float32(self, beyond):
        """Rounding would store inf: the dataset names the first such row,
        here in the first of three chunks of the scan, with no warning."""
        inputs = np.ones(WIDE)
        inputs[[WIDE[0] - 1, 2 * SCAN_ROWS + 5, SCAN_ROWS - 1], 7] = beyond
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation,
                               match=rf"^row {SCAN_ROWS - 1}: coordinate beyond float32's range$"):
                Dataset(inputs, self.labels, 2)

    def test_dataset_keeps_coordinates_that_round_to_float32_max(self):
        top = float(np.finfo(np.float32).max)
        inputs = np.ones((4, 3))
        inputs[1, 2], inputs[3, 0] = top, -top * (1 + 2.0**-25)  # the latter rounds down
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = Dataset(inputs, np.array([0, 1, 0, 1]), 2)
        assert ds.inputs[1, 2] == top and ds.inputs[3, 0] == -top
        assert np.all(np.isfinite(ds.input_sq_norms))

    def test_non_finite_beside_overflowing_row_rejected(self):
        inputs = np.ones(WIDE)
        inputs[SCAN_ROWS, 3] = 1e200
        inputs[2 * SCAN_ROWS + 1, 3] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            Batch(inputs, self.labels)

    def test_norms_are_read_only_and_gathered_with_rows(self):
        ds = gen_synthetic(40, 5, 2, margin=4.0, seed=3)
        idx = np.array([39, 0, 7, 7])
        batch = ds.take(idx)
        assert batch.input_sq_norms.tobytes() == ds.input_sq_norms[idx].tobytes()
        for held in (ds.input_sq_norms, batch.input_sq_norms):
            assert not held.flags.writeable


class TestLabels:
    """Labels are integers: a float label that is not finite or not
    integral is rejected, never truncated or cast with a warning."""

    @pytest.mark.parametrize("kind", ["dataset", "batch"])
    @pytest.mark.parametrize("label", [1.9, 0.5, -0.25, np.nan, np.inf, -np.inf])
    def test_bad_float_label_rejected(self, kind, label):
        with pytest.raises(ContractViolation, match="finite integers"):
            build(kind, np.zeros((2, 3)), np.array([0.0, label]))

    @pytest.mark.parametrize("kind", ["dataset", "batch"])
    def test_integral_float_labels_accepted(self, kind):
        examples = build(kind, np.zeros((2, 3)), np.array([1.0, 0.0]))
        assert examples.labels.dtype == np.int64
        assert examples.labels.tolist() == [1, 0]
