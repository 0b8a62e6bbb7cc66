import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplab import (
    ContractViolation,
    LayeredVector,
    axpy,
    l2_norm,
    l2_norm_layer,
    normalize_base,
    reconstruct,
)
from dplab.decomposition import decompose, decompose_batch
from dplab.vectors import sub
from tests.conftest import allclose, degenerate_layers, dot_layer, from_blocks, random_vector


def make_base(layer_dims, seed):
    return normalize_base(random_vector(layer_dims, seed))


class TestNormalizeBase:
    def test_single_layer(self):
        base = normalize_base(from_blocks([[3.0, 4.0]]))
        assert base.b.blocks[0] == pytest.approx([0.6, 0.8], rel=1e-15)
        assert not degenerate_layers(base)

    def test_zero_gradient_all_degenerate(self):
        base = normalize_base(LayeredVector.zeros((3, 2)))
        assert degenerate_layers(base) == {0, 1}
        assert l2_norm(base.b) == 0.0

    def test_mixed_case(self):
        base = normalize_base(from_blocks([[3.0, 4.0], [0.0, 0.0]]))
        assert base.b.blocks[0] == pytest.approx([0.6, 0.8], rel=1e-15)
        assert degenerate_layers(base) == {1}
        assert np.all(base.b.blocks[1] == 0.0)

    def test_unit_norm_within_tolerance(self):
        base = make_base((50, 30, 7), seed=5)
        for layer in range(3):
            assert abs(l2_norm_layer(base.b, layer) - 1.0) <= 1e-12


class TestDecompose:
    def test_axis_aligned(self):
        base = normalize_base(from_blocks([[1.0, 0.0]]))
        dec = decompose(from_blocks([[3.0, 4.0]]), base)
        assert dec.alphas == pytest.approx([3.0])
        assert dec.g_perp.blocks[0] == pytest.approx([0.0, 4.0])

    def test_parallel_gradient(self):
        base = normalize_base(from_blocks([[0.6, 0.8]]))
        dec = decompose(from_blocks([[3.0, 4.0]]), base)
        assert dec.alphas == pytest.approx([5.0], rel=1e-12)
        assert l2_norm(dec.g_perp) <= 1e-12

    def test_degenerate_layer_passthrough(self):
        base = normalize_base(from_blocks([[1.0, 0.0], [0.0, 0.0]]))
        g = from_blocks([[1.0, 2.0], [3.0, 4.0]])
        dec = decompose(g, base)
        assert dec.alphas[1] == 0.0
        assert np.array_equal(dec.g_perp.blocks[1], g.blocks[1])

    def test_random_pairs_reconstruct_and_orthogonal(self):
        for seed in range(50):
            dims = (7, 4, 9)
            base = make_base(dims, seed + 100)
            g = random_vector(dims, seed, scale=3.0)
            dec = decompose(g, base)
            rebuilt = reconstruct(dec.alphas, dec.g_perp, base)
            assert l2_norm(sub(rebuilt, g)) <= 1e-12 * max(1.0, l2_norm(g))
            for layer in range(len(dims)):
                assert abs(dot_layer(dec.g_perp, base.b, layer)) <= 1e-12 * max(1.0, l2_norm(g))

    def test_shape_mismatch(self):
        base = make_base((3,), 0)
        with pytest.raises(ContractViolation):
            decompose(random_vector((4,), 0), base)


class TestReconstruct:
    def test_round_trip_identity(self):
        dims = (5, 8)
        base = make_base(dims, 3)
        g = random_vector(dims, 4, scale=2.0)
        dec = decompose(g, base)
        assert allclose(reconstruct(dec.alphas, dec.g_perp, base), g, rtol=1e-12, atol=1e-12)

    def test_zero_alpha_returns_perp(self):
        dims = (6,)
        base = make_base(dims, 1)
        perp = random_vector(dims, 2)
        out = reconstruct(np.zeros(1), perp, base)
        assert out.equals(perp)

    def test_pure_parallel_reconstruction(self):
        dims = (4, 3)
        base = make_base(dims, 9)
        c = 2.5
        out = reconstruct(np.array([c, c]), LayeredVector.zeros(dims), base)
        for layer in range(2):
            assert l2_norm_layer(out, layer) == pytest.approx(c, rel=1e-12)

    def test_wrong_alpha_length(self):
        base = make_base((3, 3), 1)
        with pytest.raises(ContractViolation):
            reconstruct(np.zeros(3), LayeredVector.zeros((3, 3)), base)


class TestDecomposeBatch:
    def test_identical_gradients_identical_decompositions(self):
        dims = (5, 2)
        base = make_base(dims, 0)
        g = random_vector(dims, 1)
        decs = decompose_batch([g, g, g], base)
        for d in decs[1:]:
            assert np.array_equal(d.alphas, decs[0].alphas)
            assert d.g_perp.equals(decs[0].g_perp)

    def test_single_element_equals_decompose(self):
        dims = (4,)
        base = make_base(dims, 2)
        g = random_vector(dims, 3)
        batch = decompose_batch([g], base)[0]
        single = decompose(g, base)
        assert np.array_equal(batch.alphas, single.alphas)
        assert batch.g_perp.equals(single.g_perp)

    def test_linearity_mean_of_decompositions(self):
        dims = (6, 3)
        base = make_base(dims, 7)
        gs = [random_vector(dims, i, scale=2.0) for i in range(8)]
        decs = decompose_batch(gs, base)
        mean_alpha = np.mean([d.alphas for d in decs], axis=0)
        mean_perp = from_blocks(
            [np.mean([d.g_perp.blocks[l] for d in decs], axis=0) for l in range(len(dims))]
        )
        mean_g = from_blocks(
            [np.mean([g.blocks[l] for g in gs], axis=0) for l in range(len(dims))]
        )
        direct = decompose(mean_g, base)
        assert mean_alpha == pytest.approx(direct.alphas, rel=1e-12, abs=1e-12)
        assert allclose(mean_perp, direct.g_perp, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 4))
def test_pythagoras_and_norm_reduction(seed, layers):
    dims = tuple([5] * layers)
    base = make_base(dims, seed + 7)
    g = random_vector(dims, seed, scale=4.0)
    dec = decompose(g, base)
    for layer in range(layers):
        g_sq = l2_norm_layer(g, layer) ** 2
        perp_sq = l2_norm_layer(dec.g_perp, layer) ** 2
        assert perp_sq + dec.alphas[layer] ** 2 == pytest.approx(g_sq, rel=1e-9, abs=1e-12)
    assert l2_norm(dec.g_perp) <= l2_norm(g) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.floats(-3.0, 3.0, allow_nan=False))
def test_decompose_linearity(seed, a):
    dims = (4, 6)
    base = make_base(dims, seed + 13)
    g1 = random_vector(dims, seed, scale=2.0)
    g2 = random_vector(dims, seed + 1, scale=2.0)
    combined = decompose(axpy(a, g1, g2), base)
    d1 = decompose(g1, base)
    d2 = decompose(g2, base)
    assert combined.alphas == pytest.approx(a * d1.alphas + d2.alphas, rel=1e-12, abs=1e-9)
    expected_perp = axpy(a, d1.g_perp, d2.g_perp)
    assert allclose(combined.g_perp, expected_perp, rtol=1e-12, atol=1e-9)
