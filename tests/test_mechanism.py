import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplab import (
    Batch,
    ClipSpec,
    ContractViolation,
    LayeredVector,
    NoisePlan,
    RngStream,
    backprop,
    dot,
    l2_norm,
)
from dplab.decomposition import normalize_base
from dplab.mechanism import (
    DifferenceRows,
    OrthogonalRows,
    aggregate_and_perturb,
    aggregate_and_perturb_scalars,
    clip_alpha_vec,
    clip_to_norm,
)
from dplab.models import per_sample_gradients
from dplab.vectors import sub
from tests.conftest import (
    concat,
    from_blocks,
    join,
    random_problem,
    random_vector,
    scale,
    tilted,
)


class TestClipToNorm:
    def test_halves_overlong_vector(self):
        v = from_blocks([[0.0, 2.0]])
        out = clip_to_norm(v, 1.0)
        assert list(out.blocks[0]) == [0.0, 1.0]

    def test_within_bound_unchanged(self):
        v = random_vector((4, 3), seed=1, scale=0.1)
        assert clip_to_norm(v, 10.0) is v

    def test_zero_vector(self):
        z = LayeredVector.zeros((3,))
        assert clip_to_norm(z, 1.0).equals(z)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ContractViolation):
            clip_to_norm(random_vector((2,), 1), 0.0)
        with pytest.raises(ContractViolation):
            clip_to_norm(random_vector((2,), 1), -1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 100.0, allow_nan=False))
    def test_idempotent_exactly(self, seed, c):
        v = random_vector((5, 3), seed=seed, scale=10.0)
        once = clip_to_norm(v, c)
        twice = clip_to_norm(once, c)
        assert twice.equals(once)
        assert l2_norm(once) <= c * (1 + 1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_direction_preserved(self, seed):
        v = random_vector((6, 2), seed=seed, scale=5.0)
        out = clip_to_norm(v, 0.5)
        cos = dot(v, out) / (l2_norm(v) * l2_norm(out))
        assert cos == pytest.approx(1.0, abs=1e-12)
        assert l2_norm(out) <= l2_norm(v)


class TestClipAlphaVec:
    def test_three_four(self):
        out = clip_alpha_vec(np.array([3.0, 4.0]), 1.0)
        assert out == pytest.approx([0.6, 0.8], rel=1e-12)

    def test_signs_preserved(self):
        out = clip_alpha_vec(np.array([-3.0, 4.0]), 1.0)
        assert out == pytest.approx([-0.6, 0.8], rel=1e-12)

    def test_within_bound_unchanged(self):
        a = np.array([0.1, -0.2])
        assert np.array_equal(clip_alpha_vec(a, 1.0), a)

    def test_norm_bounded(self):
        out = clip_alpha_vec(np.array([10.0, -7.0, 2.0]), 2.5)
        assert math.sqrt(np.sum(out * out)) <= 2.5 * (1 + 1e-15)


class TestAggregateAndPerturb:
    def test_sigma_zero_is_plain_mean(self):
        vecs = [random_vector((3, 2), seed=i, scale=0.1) for i in range(4)]
        out = aggregate_and_perturb(vecs, 100.0, 0.0)
        expected = np.mean([concat(v) for v in vecs], axis=0)
        assert concat(out) == pytest.approx(expected, rel=1e-12)

    def test_single_overlong_sample_halved(self):
        v = from_blocks([[0.0, 4.0]])  # norm 4 = 2c
        out = aggregate_and_perturb([v], 2.0, 0.0)
        assert list(out.blocks[0]) == [0.0, 2.0]

    def test_negative_zero_keeps_its_sign(self):
        # the sum starts from the first vector, not from +0.0
        v = from_blocks([[-0.0, 1.0], [-0.0]])
        out = aggregate_and_perturb([v, v], 10.0, 0.0)
        assert np.signbit(out.flat).tolist() == [True, False, True]

    def test_empty_list_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_and_perturb([], 1.0, 0.0)

    def test_noise_std_matches_sigma_c_over_b(self):
        # per-coordinate std of (output - clipped mean) is sigma*c/B within 3%
        b, sigma, c = 4, 1.0, 2.0
        vecs = [random_vector((5,), seed=i, scale=0.4) for i in range(b)]
        clean = concat(aggregate_and_perturb(vecs, c, 0.0))
        samples = []
        for rep in range(2000):
            noisy = aggregate_and_perturb(vecs, c, sigma, RngStream(5, rep, "noise-g"))
            samples.append(concat(noisy) - clean)
        noise = np.concatenate(samples)
        assert noise.size == 10_000
        expected = sigma * c / b
        assert abs(noise.std() - expected) / expected < 0.03

    def test_deterministic_given_stream(self):
        vecs = [random_vector((4,), seed=i) for i in range(3)]
        s = RngStream(9, 4, "noise-g")
        a = aggregate_and_perturb(vecs, 1.0, 0.7, s)
        b = aggregate_and_perturb(vecs, 1.0, 0.7, s)
        assert a.equals(b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_and_perturb([random_vector((2,), 1), random_vector((3,), 1)], 1.0, 0.0)


class TestAggregateAndPerturbScalars:
    def test_one_sample_clipped(self):
        out = aggregate_and_perturb_scalars([np.array([0.5]), np.array([1.5])], 1.0, 0.0)
        assert out == pytest.approx([0.75], rel=1e-12)

    def test_sigma_zero_within_bounds_is_mean(self):
        vecs = [np.array([0.1, 0.2]), np.array([-0.1, 0.4])]
        out = aggregate_and_perturb_scalars(vecs, 5.0, 0.0)
        assert out == pytest.approx([0.0, 0.3], abs=1e-15)

    def test_noise_std_matches_sigma_c_over_b(self):
        b, sigma, c = 4, 1.0, 2.0
        vecs = [np.array([0.3, -0.2, 0.5]) for _ in range(b)]
        clean = aggregate_and_perturb_scalars(vecs, c, 0.0)
        samples = []
        for rep in range(3400):
            noisy = aggregate_and_perturb_scalars(vecs, c, sigma, RngStream(6, rep, "noise-alpha"))
            samples.append(noisy - clean)
        noise = np.concatenate(samples)
        assert noise.size >= 10_000
        expected = sigma * c / b
        assert abs(noise.std() - expected) / expected < 0.03

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_and_perturb_scalars([], 1.0, 0.0)


class TestSpecs:
    def test_clip_spec_positive(self):
        with pytest.raises(ContractViolation):
            ClipSpec(0.0, 1.0, 1.0)
        with pytest.raises(ContractViolation):
            ClipSpec(1.0, -1.0, 1.0)
        ClipSpec(1.0, 0.5, 1.5)

    def test_noise_plan_nonnegative(self):
        with pytest.raises(ContractViolation):
            NoisePlan(-0.1, 1.0, 1.0)
        NoisePlan(0.0, 0.0, 0.0)


class TestFactoredDifferenceNorms:
    """DifferenceRows.norms() expands ||g_i - p||^2 from the gradient
    factors; samples where that expansion cancels must be measured on their
    dense rows, so every norm matches the dense rows sample by sample."""

    @staticmethod
    def previous_release(kind, g, dims, seed):
        if kind == "equal":
            return g
        if kind == "scaled":
            return scale(1 + 1e-9, g)
        if kind == "tilted":
            return tilted(g, 1e-9, seed)
        if kind == "zero":
            return LayeredVector.zeros(dims)
        return random_vector(dims, seed, scale=0.3)

    @pytest.mark.parametrize("kind", ["equal", "scaled", "tilted", "zero", "random"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_rows(self, kind, seed):
        model, batch = random_problem(seed + 300, batch=5)
        grads = per_sample_gradients(model, batch)
        p = self.previous_release(kind, grads[seed % 5], model.params.layer_dims, seed)
        factored = DifferenceRows(backprop(model, batch), p).norms()
        dense = np.array([l2_norm(sub(g, p)) for g in grads])
        np.testing.assert_allclose(factored, dense, rtol=1e-12, atol=0.0)
        if kind == "equal":
            assert factored[seed % 5] == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_coefficients_match_dense_rows(self, seed):
        # sample 0 lies exactly on s_0 v: its blocks are 0.5 * (2 g_0)
        model, batch = random_problem(seed + 400, batch=4)
        grads = per_sample_gradients(model, batch)
        v = scale(2.0, grads[0])
        coeffs = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
            (batch.size, v.layer_count)
        )
        coeffs[0] = 0.5
        factored = DifferenceRows(backprop(model, batch), v, coeffs).norms()
        dense = np.array([
            l2_norm(join(b - s * vb for b, s, vb in zip(g.blocks, c, v.blocks)))
            for g, c in zip(grads, coeffs)
        ])
        np.testing.assert_allclose(factored, dense, rtol=1e-12, atol=0.0)
        assert factored[0] == 0.0

    def test_empty_batch(self):
        model, batch = random_problem(5, batch=1)
        empty = Batch(batch.inputs[:0], batch.labels[:0])
        p = random_vector(model.params.layer_dims, 5)
        norms = DifferenceRows(backprop(model, empty), p).norms()
        assert norms.shape == (0,)


class TestOrthogonalRowsMatchDenseRows:
    """OrthogonalRows clips and sums the dpdr orthogonal remainders
    g_i - alpha_ij b_j from the gradient factors, sending the samples its
    cancellation guard rejects to their dense rows; the dense chunked rows
    (DifferenceRows.clipped_sum) are the oracle for every sample."""

    @staticmethod
    def base_of(kind, g, dims, seed):
        if kind == "parallel":
            return g
        if kind == "tilted":
            return tilted(g, 1e-9, seed)
        return random_vector(dims, seed)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["random", "tilted", "parallel"]),
        st.integers(0, 10**6),
        st.lists(st.integers(0, 3), max_size=8),
        st.sampled_from([0.1, 0.5, 2.0]),
        st.data(),
    )
    def test_matches_dense_rows(self, kind, seed, picks, share, data):
        # the base comes from the pool's sample 0, so every pick of it is a
        # near-parallel or parallel sample next to well-conditioned ones
        model, pool = random_problem(seed, batch=4)
        dims = model.params.layer_dims
        raw = self.base_of(kind, per_sample_gradients(model, pool)[0], dims, seed)
        zeroed = data.draw(st.sets(st.integers(0, len(dims) - 1)))  # degenerate layers
        base = normalize_base(
            join(
                np.zeros_like(b) if layer in zeroed else b.copy()
                for layer, b in enumerate(raw.blocks)
            ),
            0,
        )
        batch = Batch(pool.inputs[picks], pool.labels[picks])
        grads = backprop(model, batch)
        diffs = DifferenceRows(grads, base.b, grads.block_dots(base.b))
        dense_norms, _ = diffs.clipped_sum(1.0)
        c = share * max(float(dense_norms.max(initial=0.0)), 1e-6)  # clips all, some or none
        expected_norms, expected = diffs.clipped_sum(c)
        norms, total = OrthogonalRows(diffs, grads.sq_norms()).clipped_sum(c)
        assert norms.shape == (batch.size,)
        assert np.all(
            np.abs(norms - expected_norms) <= 1e-12 * np.maximum(1.0, expected_norms)
        )
        expected, total = LayeredVector(expected, dims), LayeredVector(total, dims)
        assert l2_norm(sub(total, expected)) <= 1e-12 * max(1.0, l2_norm(expected))

    def test_needs_coefficients(self):
        model, batch = random_problem(5, batch=2)
        grads = backprop(model, batch)
        p = random_vector(model.params.layer_dims, 5)
        with pytest.raises(ContractViolation):
            OrthogonalRows(DifferenceRows(grads, p), grads.sq_norms())
