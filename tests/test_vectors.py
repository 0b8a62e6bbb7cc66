import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dplab import (
    ContractViolation,
    LayeredVector,
    RngStream,
    axpy,
    dot,
    gaussian_sample,
    l2_norm,
    l2_norm_layer,
)
from dplab import vectors
from dplab.vectors import standard_normal
from tests.conftest import (
    concat,
    dot_layer,
    from_blocks,
    jumped_block_normals,
    random_vector,
    scale,
)


@st.composite
def layered_pairs(draw):
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    a = [draw(st.lists(values, min_size=d, max_size=d)) for d in dims]
    b = [draw(st.lists(values, min_size=d, max_size=d)) for d in dims]
    return from_blocks(a), from_blocks(b)


# block values: zero, subnormal, ordinary, and about 1e150 (squares near 1e300)
BLOCK_VALUES = (
    st.just(0.0),
    st.floats(-2e-308, 2e-308, allow_subnormal=True),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(1e149, 1e151).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def mixed_scale_vectors(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    return from_blocks(
        [draw(st.lists(draw(st.sampled_from(BLOCK_VALUES)), min_size=d, max_size=d)) for d in dims]
    )


class TestDot:
    def test_hand_arithmetic(self):
        a = from_blocks([[1.0, 0.0, 2.0]])
        b = from_blocks([[3.0, 1.0, 0.0]])
        assert dot(a, b) == 3.0

    def test_norm_identity(self):
        a = from_blocks([[3.0, 4.0]])
        assert dot(a, a) == 25.0

    def test_against_compensated_summation_oracle(self):
        a = random_vector((40, 35, 25), seed=1)
        b = random_vector((40, 35, 25), seed=2)
        oracle = math.fsum(
            x * y for ba, bb in zip(a.blocks, b.blocks) for x, y in zip(ba, bb)
        )
        assert dot(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_shape_mismatch(self):
        a = from_blocks([[1.0, 2.0]])
        b = from_blocks([[1.0], [2.0]])
        with pytest.raises(ContractViolation):
            dot(a, b)

    @settings(max_examples=50, deadline=None)
    @given(layered_pairs())
    def test_dot_equals_sum_of_layer_dots(self, pair):
        a, b = pair
        total = sum(dot_layer(a, b, l) for l in range(a.layer_count))
        assert dot(a, b) == pytest.approx(total, rel=1e-12, abs=1e-9)


class TestNorm:
    def test_three_four_five(self):
        assert l2_norm(from_blocks([[3.0, 4.0]])) == 5.0

    def test_zero_vector(self):
        assert l2_norm(LayeredVector.zeros((4, 3))) == 0.0

    def test_against_bruteforce_oracle(self):
        v = random_vector((600, 400), seed=7)
        oracle = math.sqrt(math.fsum(float(x) * float(x) for b in v.blocks for x in b))
        assert l2_norm(v) == pytest.approx(oracle, rel=1e-12)

    def test_per_layer_variant(self):
        v = from_blocks([[3.0, 4.0], [5.0, 12.0]])
        assert l2_norm_layer(v, 0) == 5.0
        assert l2_norm_layer(v, 1) == 13.0

    @settings(max_examples=50, deadline=None)
    @given(layered_pairs(), st.floats(-1e3, 1e3, allow_nan=False))
    def test_scaling_homogeneity(self, pair, c):
        x, _ = pair
        scaled = axpy(c, x, LayeredVector.zeros(x.layer_dims))
        assert l2_norm(scaled) == pytest.approx(abs(c) * l2_norm(x), rel=1e-12, abs=1e-9)


class TestCachedNorms:
    """A vector sums each block's square once; its norms equal the uncached
    per-block np.sum summed left to right, bit for bit, whichever norm is
    asked first and however often."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_scale_vectors(), st.booleans())
    # four layers of 2^-53 after 1.0: left to right the total stays 1.0, and
    # a compensated sum (math.fsum, or sum() from Python 3.12) gives a norm
    # one ulp above 1
    @example(from_blocks([[1.0]] + 4 * [[2.0**-27, 2.0**-27]]), False)
    def test_norms_equal_uncached_sums(self, v, layer_first):
        squares = [float(np.sum(b * b)) for b in v.blocks]
        total = 0.0
        for sq in squares:
            total += sq
        want_layers = [math.sqrt(sq).hex() for sq in squares]
        want = math.sqrt(total).hex()
        for _ in range(2):
            if layer_first:
                got_layers = [l2_norm_layer(v, j).hex() for j in range(v.layer_count)]
                got = l2_norm(v).hex()
            else:
                got = l2_norm(v).hex()
                got_layers = [l2_norm_layer(v, j).hex() for j in range(v.layer_count)]
            assert got == want and got_layers == want_layers


class TestAxpy:
    def test_zero_coefficient(self):
        x = random_vector((5,), seed=3)
        y = random_vector((5,), seed=4)
        assert axpy(0.0, x, y).equals(y)

    def test_cancellation(self):
        x = random_vector((5, 2), seed=5)
        y = scale(-1.0, x)
        assert axpy(1.0, x, y).equals(LayeredVector.zeros(x.layer_dims))

    def test_hand_case(self):
        x = from_blocks([[2.0, 4.0]])
        y = from_blocks([[1.0, 1.0]])
        out = axpy(-0.5, x, y)
        assert list(out.blocks[0]) == [0.0, -1.0]

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            axpy(1.0, random_vector((2,), 1), random_vector((3,), 1))


class TestConstruction:
    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolation):
            LayeredVector(np.array([1.0, math.nan]), (2,))
        with pytest.raises(ContractViolation):
            LayeredVector(np.array([0.0, math.inf]), (1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            LayeredVector(np.zeros(0), ())
        with pytest.raises(ContractViolation):
            LayeredVector(np.zeros(0), (0,))
        with pytest.raises(ContractViolation):
            LayeredVector(np.zeros(2), (2, 0))

    @pytest.mark.parametrize("flat, dims", [
        (np.zeros(3, dtype=np.float32), (3,)),
        (np.zeros(3, dtype=np.int64), (3,)),
        ([0.0] * 3, (3,)),
        (np.zeros((1, 3)), (3,)),
        (np.zeros(4), (3,)),
        (np.zeros(3), (2, 2)),
    ], ids=["float32", "int64", "list", "2-d", "too-long", "too-short"])
    def test_rejects_malformed_coordinates(self, flat, dims):
        with pytest.raises(ContractViolation):
            LayeredVector(flat, dims)

    def test_blocks_read_only(self):
        v = random_vector((3,), seed=9)
        with pytest.raises(ValueError):
            v.blocks[0][0] = 5.0
        with pytest.raises(ValueError):
            v.flat[0] = 5.0

    def test_blocks_are_views_of_flat(self):
        flat = np.arange(6.0)
        v = LayeredVector(flat, (1, 2, 3))
        assert v.flat is flat and not flat.flags.writeable
        assert [b.tolist() for b in v.blocks] == [[0.0], [1.0, 2.0], [3.0, 4.0, 5.0]]
        for block in v.blocks:
            assert np.shares_memory(block, flat)
            with pytest.raises(ValueError):
                block[0] = 5.0

    @pytest.mark.parametrize("left, right, equal", [
        ([0.0, 1.5], [0.0, 1.5], True),
        ([0.0, 1.5], [-0.0, 1.5], False),
        ([0.0, 1.5], [0.0, np.nextafter(1.5, 2.0)], False),
    ], ids=["same-bytes", "signed-zero", "one-ulp"])
    def test_equals_is_bit_exact(self, left, right, equal):
        a, b = LayeredVector(np.array(left), (1, 1)), LayeredVector(np.array(right), (1, 1))
        assert a.equals(b) == b.equals(a) == equal
        assert not a.equals(LayeredVector(np.array(left), (2,)))

    def test_dims(self):
        v = LayeredVector.zeros((2, 5, 1))
        assert v.layer_dims == (2, 5, 1)
        assert v.total_dim == 8
        assert v.layer_count == 3


class TestGaussianSample:
    DIMS = (64, 36)

    def test_zero_std_is_zero_vector(self):
        s = RngStream(1, 1, "noise-g")
        assert gaussian_sample(s, self.DIMS, 0.0).equals(LayeredVector.zeros(self.DIMS))

    def test_negative_std_rejected(self):
        with pytest.raises(ContractViolation):
            gaussian_sample(RngStream(1, 1, "noise-g"), self.DIMS, -1.0)

    def test_moments(self):
        # 1e4 draws at std=2: std within 3%, mean within 0.05
        draws = np.concatenate(
            [
                concat(gaussian_sample(RngStream(42, t, "noise-g"), (100,), 2.0))
                for t in range(100)
            ]
        )
        assert draws.size == 10_000
        assert abs(draws.std() - 2.0) / 2.0 < 0.03
        assert abs(draws.mean()) < 0.05

    @pytest.mark.parametrize("dims", [(7840, 10), (50176, 64, 640, 10), (3, 1, 4)])
    def test_one_flat_draw(self, dims):
        """The blocks are one draw of sum(dims) normals, which is the blocks
        drawn one after another from one generator."""
        stream = RngStream(7, 3, "noise-perp")
        drawn = gaussian_sample(stream, dims, 1.3).flat
        flat = stream.generator().standard_normal(sum(dims)) * 1.3
        gen = stream.generator()
        per_block = np.concatenate([gen.standard_normal(d) * 1.3 for d in dims])
        assert drawn.tobytes() == flat.tobytes() == per_block.tobytes()

    def test_replay_is_bit_identical(self):
        a = gaussian_sample(RngStream(7, 3, "noise-perp"), self.DIMS, 1.3)
        b = gaussian_sample(RngStream(7, 3, "noise-perp"), self.DIMS, 1.3)
        assert a.equals(b)

    def test_distinct_streams_uncorrelated(self):
        n = 10_000
        pairs = [
            (RngStream(11, 1, "noise-g"), RngStream(11, 2, "noise-g")),
            (RngStream(11, 1, "noise-g"), RngStream(11, 1, "noise-perp")),
        ]
        for sa, sb in pairs:
            xa = concat(gaussian_sample(sa, (n,), 1.0))
            xb = concat(gaussian_sample(sb, (n,), 1.0))
            corr = np.corrcoef(xa, xb)[0, 1]
            assert abs(corr) < 0.05

    def test_stream_is_pure_function_of_address(self):
        # interleaved/re-ordered construction cannot change the draws
        first = gaussian_sample(RngStream(3, 9, "noise-alpha"), (10,), 1.0)
        gaussian_sample(RngStream(3, 10, "noise-alpha"), (10,), 1.0)
        again = gaussian_sample(RngStream(3, 9, "noise-alpha"), (10,), 1.0)
        assert first.equals(again)


class TestStandardNormal:
    """Block b of the flat draw is the stream jumped b times, on any number of
    cores. The core probe is monkeypatched to force the worker count."""

    @staticmethod
    def assert_jumped_blocks(stream, shape):
        drawn = standard_normal(stream, shape)
        assert drawn.shape == shape and drawn.dtype == np.float64 and drawn.flags.c_contiguous
        expected = jumped_block_normals(stream, math.prod(shape))
        assert np.array_equal(drawn.reshape(-1).view(np.uint64), expected.view(np.uint64))
        return drawn

    @staticmethod
    def record_starts(monkeypatch) -> list:
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        return started

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_worker_counts_mid_row(self, monkeypatch, cores):
        monkeypatch.setattr(vectors, "_usable_cores", lambda: cores)
        started = self.record_starts(monkeypatch)
        shape = (2400, 1799)  # 5 blocks
        assert vectors._BLOCK % shape[1]  # block bounds fall mid-row
        self.assert_jumped_blocks(RngStream(5, 0, "synthetic-data"), shape)
        assert len(started) == (min(4 * cores, 5) - 1 if cores > 1 else 0)
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("size", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1])
    def test_sizes_at_the_floor(self, monkeypatch, size):
        """Up to one block the draw is the stream itself, on the calling thread."""
        monkeypatch.setattr(vectors, "_usable_cores", lambda: 2)
        started = self.record_starts(monkeypatch)
        for seed in range(3):
            stream = RngStream(seed, 0, "noise-g")
            drawn = self.assert_jumped_blocks(stream, (size,))
            one_stream = stream.generator().standard_normal(size)
            assert np.array_equal(drawn.view(np.uint64), one_stream.view(np.uint64)) == (
                size <= vectors._BLOCK
            )
        assert len(started) == (3 if size > vectors._BLOCK else 0)

    def test_no_thread_outlives_the_draw(self, monkeypatch):
        monkeypatch.setattr(vectors, "_usable_cores", lambda: 4)
        started = self.record_starts(monkeypatch)
        before = threading.active_count()
        standard_normal(RngStream(0, 0, "synthetic-data"), (4 * vectors._BLOCK,))
        assert 0 < len(started) <= 3 and not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(vectors, "_usable_cores", lambda: 3)
        monkeypatch.setattr(vectors, "_BLOCK", 1000)
        draw_blocks = vectors._draw_blocks

        def failing(key, flat, step, first):
            if first > 0:
                raise RuntimeError(f"blocks from {first} failed")
            draw_blocks(key, flat, step, first)

        monkeypatch.setattr(vectors, "_draw_blocks", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="blocks from 1 failed"):
            standard_normal(RngStream(2, 0, "synthetic-data"), (300, 11))
        assert threading.active_count() == before


# Philox keys of the streams every run draws from, at two (seed, step) pairs;
# a changed key would change every batch, initialization and noise draw
PINNED_KEYS = {
    ("batch", 0, 0): 0x6E3CCCA0C28D6018188FB7D853043A4B,
    ("batch", 7, 123): 0x0C5CCA3491285A47212589AF5E01E081,
    ("noise-g", 0, 0): 0xF89C4D5F5CD5B076EED4D972D770E2FA,
    ("noise-g", 7, 123): 0xBF0F8D4A78458512A6364A68B5E2AA0D,
    ("noise-perp", 0, 0): 0xB6AC5C2B3248B054BAE0938E51A7C296,
    ("noise-perp", 7, 123): 0x6712F3465DF490E840604DC8F4D9AC7C,
    ("noise-alpha", 0, 0): 0x0FFD6A74032471E43C0522E936094936,
    ("noise-alpha", 7, 123): 0xFAAB5D546279A2EFD848A90D39469D01,
    ("model-init", 0, 0): 0x99E3819171E315938268AB848310C4CB,
    ("model-init", 7, 123): 0xD64E2716AC766B612DCC732FE2626FBD,
    ("synthetic-data", 0, 0): 0xE7860D54CBF8A2047DF2342C431AAC15,
    ("synthetic-data", 7, 123): 0xBAFEF62C9CAB8E94279F79BF1F9A9138,
}


@pytest.mark.parametrize("tag, seed, step", sorted(PINNED_KEYS))
def test_stream_key_pinned(tag, seed, step):
    assert RngStream(seed, step, tag)._philox_key() == PINNED_KEYS[tag, seed, step]
