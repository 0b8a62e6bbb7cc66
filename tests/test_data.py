import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from dplab.models import evaluate
from tests.conftest import jumped_block_normals, mean_gradient


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
        assert np.array_equal(ds.inputs[0], images[0].ravel() / 255.0)
        assert ds.inputs.max() <= 1.0

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
        assert np.array_equal(ds.inputs, centers[labels] + noise)
        assert np.array_equal(ds.labels, labels)
        assert ds.name == f"synthetic-n{n}-d{d_in}-c{n_classes}"

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

    def test_non_finite_dataset_input_rejected(self):
        inputs = self.ds.inputs.copy()
        inputs[7, 1] = np.nan
        with pytest.raises(ContractViolation):
            Dataset("x", inputs, self.ds.labels, 2)

    def test_deterministic_per_stream(self):
        a = poisson_sample(self.ds, 0.25, RngStream(5, 9, "batch"))
        b = poisson_sample(self.ds, 0.25, RngStream(5, 9, "batch"))
        assert np.array_equal(a.inputs, b.inputs)


class TestDatasetInvariants:
    def test_caller_arrays_stay_writable(self):
        inputs, labels = np.zeros((2, 3)), np.array([0, 1], dtype=np.int64)
        batch, ds = Batch(inputs, labels), Dataset("x", inputs, labels, 2)
        assert inputs.flags.writeable and labels.flags.writeable
        for held in (batch.inputs, batch.labels, ds.inputs, ds.labels):
            assert not held.flags.writeable
            assert np.shares_memory(held, inputs) or np.shares_memory(held, labels)

    def test_requires_examples(self):
        with pytest.raises(ContractViolation):
            Dataset("x", np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

    def test_label_range_checked(self):
        with pytest.raises(ContractViolation):
            Dataset("x", np.zeros((2, 3)), np.array([0, 5]), 2)
