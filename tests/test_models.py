import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from dplab import (
    Architecture,
    Batch,
    ContractViolation,
    LayeredVector,
    apply_update,
    backprop,
    gen_synthetic,
    init_model,
    l2_norm,
    logistic_regression,
    mlp,
)
from dplab.mechanism import DifferenceRows
from dplab.models import (
    EVAL_CHUNK_BYTES,
    EvalWindow,
    Model,
    _chunk_rows,
    _forward,
    evaluate,
    per_sample_gradients,
)
from dplab.vectors import sub
from tests.conftest import (
    eval_loss_approx,
    from_blocks,
    join,
    mean_gradient,
    near_ties,
    random_problem,
    random_vector,
    reference_sq_norms,
    row_major_evaluate,
)


def loss_oracle(model, batch):
    """Independent plain-python softmax cross-entropy."""
    total = 0.0
    for i in range(batch.size):
        x = batch.inputs[i]
        a = list(x)
        shapes = model.arch.weight_shapes()
        for k, (fin, fout) in enumerate(shapes):
            w = model.params.blocks[2 * k].reshape(fin, fout)
            b = model.params.blocks[2 * k + 1]
            znew = [math.fsum(a[j] * w[j, o] for j in range(fin)) + b[o] for o in range(fout)]
            if k < len(shapes) - 1:
                if model.arch.activation == "relu":
                    a = [max(v, 0.0) for v in znew]
                else:
                    a = [math.tanh(v) for v in znew]
            else:
                a = znew
        m = max(a)
        lse = m + math.log(math.fsum(math.exp(v - m) for v in a))
        total += lse - a[batch.labels[i]]
    return total / batch.size


def finite_difference_gradient(model, batch, h=1e-5):
    """Central differences of the mean loss, coordinate by coordinate, taken
    from the float64 reference: the float32 evaluation's rounding would
    swamp a difference over 2h."""
    blocks = [b.copy() for b in model.params.blocks]
    grad_blocks = [np.zeros_like(b) for b in blocks]
    for li, block in enumerate(blocks):
        for j in range(block.size):
            orig = block[j]
            block[j] = orig + h
            up = row_major_evaluate(type(model)(model.arch, from_blocks(blocks)), batch)[0]
            block[j] = orig - h
            down = row_major_evaluate(type(model)(model.arch, from_blocks(blocks)), batch)[0]
            block[j] = orig
            grad_blocks[li][j] = (up - down) / (2 * h)
    return from_blocks(grad_blocks)


class TestLoss:
    def test_uniform_logits_gives_log_k(self):
        arch = logistic_regression(4, 10)
        model = type(init_model(arch, 0))(arch, LayeredVector.zeros(arch.parameter_layer_dims()))
        batch = Batch(np.ones((3, 4)), np.array([0, 5, 9]))
        assert evaluate(model, batch)[0] == pytest.approx(math.log(10), rel=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        arch = logistic_regression(1, 2)
        # weight column for class 1 is huge: x=1, y=1 is classified with margin 50
        params = from_blocks([[-25.0, 25.0], [0.0, 0.0]])
        model = type(init_model(arch, 0))(arch, params)
        batch = Batch(np.array([[1.0]]), np.array([1]))
        assert evaluate(model, batch)[0] < 1e-8

    def test_against_independent_oracle(self):
        for seed in range(5):
            model, batch = random_problem(seed)
            assert evaluate(model, batch)[0] == eval_loss_approx(loss_oracle(model, batch))

    def test_label_out_of_range(self):
        model, _ = random_problem(0, d_in=3, n_classes=2, batch=1)
        bad = Batch(np.zeros((1, 3)), np.array([2]))
        with pytest.raises(ContractViolation):
            evaluate(model, bad)

    def test_empty_batch_rejected(self):
        model, _ = random_problem(0, d_in=3)
        with pytest.raises(ContractViolation):
            evaluate(model, Batch(np.zeros((0, 3)), np.zeros(0, dtype=int)))

    def test_order_invariance(self):
        model, batch = random_problem(3, batch=5)
        perm = np.array([4, 2, 0, 1, 3])
        shuffled = Batch(batch.inputs[perm], batch.labels[perm])
        assert evaluate(model, shuffled)[0] == pytest.approx(evaluate(model, batch)[0], rel=1e-12)


class TestPerSampleGradients:
    def test_binary_logistic_closed_form(self):
        arch = logistic_regression(3, 2)
        w1 = np.array([0.3, -0.2, 0.5])
        params = from_blocks(
            [np.stack([np.zeros(3), w1], axis=1).ravel(), np.zeros(2)]
        )
        model = type(init_model(arch, 0))(arch, params)
        x = np.array([1.0, 2.0, -1.0])
        y = 1
        grads = per_sample_gradients(model, Batch(x[None, :], np.array([y])))
        p1 = 1.0 / (1.0 + math.exp(-float(x @ w1)))
        w_block = grads[0].blocks[0].reshape(3, 2)
        assert w_block[:, 1] == pytest.approx((p1 - y) * x, rel=1e-12)
        assert w_block[:, 0] == pytest.approx(-(p1 - y) * x, rel=1e-12)

    def test_matches_finite_differences(self):
        for seed in range(6):
            model, batch = random_problem(seed, activation="tanh")
            assert model.params.total_dim <= 60
            grads = per_sample_gradients(model, batch)
            mean = from_blocks(
                [np.mean([g.blocks[l] for g in grads], axis=0) for l in range(grads[0].layer_count)]
            )
            fd = finite_difference_gradient(model, batch)
            assert l2_norm(sub(mean, fd)) <= 1e-5 * max(l2_norm(fd), 1e-12)

    def test_relu_gradients_match_finite_differences(self):
        model, batch = random_problem(123, d_in=4, hidden=(3,), n_classes=2, batch=3,
                                      activation="relu")
        fd = finite_difference_gradient(model, batch)
        mean = mean_gradient(model, batch)
        assert l2_norm(sub(mean, fd)) <= 1e-5 * l2_norm(fd)

    def test_duplicated_sample_gives_identical_gradients(self):
        model, _ = random_problem(1, d_in=4, n_classes=3, batch=1)
        x = np.array([[0.5, -1.0, 2.0, 0.1], [0.5, -1.0, 2.0, 0.1]])
        grads = per_sample_gradients(model, Batch(x, np.array([1, 1])))
        assert grads[0].equals(grads[1])

    def test_mean_equals_mean_gradient(self):
        for seed in range(4):
            model, batch = random_problem(seed + 40)
            grads = per_sample_gradients(model, batch)
            stacked = from_blocks(
                [np.mean([g.blocks[l] for g in grads], axis=0) for l in range(grads[0].layer_count)]
            )
            direct = mean_gradient(model, batch)
            assert l2_norm(sub(stacked, direct)) <= 1e-10 * max(l2_norm(direct), 1e-12)

    def test_permutation_permutes_gradients(self):
        model, batch = random_problem(9, batch=4)
        perm = np.array([3, 1, 0, 2])
        shuffled = Batch(batch.inputs[perm], batch.labels[perm])
        orig = per_sample_gradients(model, batch)
        out = per_sample_gradients(model, shuffled)
        for i, p in enumerate(perm):
            assert out[i].equals(orig[p])


class TestApplyUpdate:
    def test_zero_lr(self):
        model, batch = random_problem(2)
        after = apply_update(model, mean_gradient(model, batch), 0.0)
        assert after.params.equals(model.params)

    def test_zero_direction(self):
        model, _ = random_problem(2)
        zero = LayeredVector.zeros(model.params.layer_dims)
        assert apply_update(model, zero, 0.7).params.equals(model.params)

    def test_hand_case(self):
        arch = logistic_regression(1, 2)
        model = type(init_model(arch, 0))(arch, from_blocks([[1.0, 1.0], [1.0, 1.0]]))
        direction = from_blocks([[2.0, -2.0], [0.0, 0.0]])
        out = apply_update(model, direction, 0.5)
        assert list(out.params.blocks[0]) == [0.0, 2.0]

    def test_descent_does_not_increase_convex_loss(self):
        model, batch = random_problem(5, hidden=(), batch=5)
        before = evaluate(model, batch)[0]
        after = apply_update(model, mean_gradient(model, batch), 0.01)
        assert evaluate(after, batch)[0] <= before + 1e-12


class TestInit:
    def test_deterministic(self):
        arch = mlp(6, (4,), 3, "tanh")
        assert init_model(arch, 99).params.equals(init_model(arch, 99).params)

    def test_bias_blocks_zero_and_nonzero_norm(self):
        arch = mlp(6, (4,), 3)
        model = init_model(arch, 1)
        assert np.all(model.params.blocks[1] == 0.0)
        assert np.all(model.params.blocks[3] == 0.0)
        assert l2_norm(model.params) > 0.0

    def test_weight_std_scales_with_fan_in(self):
        arch = logistic_regression(100, 100)  # 10^4 weight entries, fan_in=100
        weights = init_model(arch, 3).params.blocks[0]
        assert weights.size == 10_000
        assert abs(weights.std() - 0.1) / 0.1 < 0.10

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ContractViolation):
            Architecture(0, (), 2)
        with pytest.raises(ContractViolation):
            Architecture(3, (4,), 1)
        with pytest.raises(ContractViolation):
            Architecture(3, (0,), 2)

    @pytest.mark.parametrize(
        "args",
        [(784.0, (64,), 10), (784, (64.5,), 10), (784, (64,), 10.0), (True, (), 2),
         (784, (True,), 10)],
        ids=["d_in-float", "width-float", "n_classes-float", "d_in-bool", "width-bool"],
    )
    def test_non_integer_sizes_rejected(self, args):
        # a float width was truncated (64.5 built a 64-wide layer), and a
        # float d_in gave float layer dims
        with pytest.raises(ContractViolation, match="integer"):
            mlp(*args)

    def test_numpy_integer_sizes_stored_as_ints(self):
        arch = mlp(np.int64(5), (np.int32(4),), np.uint8(3))
        assert arch == mlp(5, (4,), 3)
        assert {type(v) for v in (arch.d_in, *arch.hidden, arch.n_classes)} == {int}

    def test_empty_hidden_equals_logistic_regression(self):
        assert mlp(5, (), 3).parameter_layer_dims() == logistic_regression(5, 3).parameter_layer_dims()


class TestEvaluate:
    def test_matches_loss_and_accuracy(self):
        """Against the plain-python loss oracle and a count of argmax hits."""
        model, batch = random_problem(8, batch=5)
        ls, acc = evaluate(model, batch)
        assert ls == eval_loss_approx(loss_oracle(model, batch))
        z, _, _ = _forward(model, batch.inputs)
        hits = sum(int(np.argmax(row) == y) for row, y in zip(z, batch.labels))
        assert acc == hits / batch.size

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_in=st.integers(1, 12),
        hidden=st.sampled_from([(), (1,), (5,), (16,), (7, 3)]),
        n_classes=st.integers(2, 12),
        n=st.integers(1, 300),
        activation=st.sampled_from(["relu", "tanh"]),
        zero=st.booleans(),
    )
    def test_matches_row_major_reference(self, seed, d_in, hidden, n_classes, n, activation,
                                         zero):
        arch = Architecture(d_in, hidden, n_classes, activation)
        scale = 0.0 if zero else 1.0
        model = type(init_model(arch, 0))(
            arch, random_vector(arch.parameter_layer_dims(), seed, scale)
        )
        gen = np.random.Generator(np.random.Philox(key=seed))
        batch = Batch(gen.standard_normal((n, d_in)), gen.integers(0, n_classes, size=n))
        ls, acc = evaluate(model, batch)
        ref_ls, ref_acc = row_major_evaluate(model, batch)
        assert ls == eval_loss_approx(ref_ls)
        assert round(abs(acc - ref_acc) * n) <= near_ties(model, batch)
        if zero:  # every logit ties, so both layouts pick class 0
            assert ls == pytest.approx(math.log(n_classes), rel=1e-15)
            assert acc == float(np.mean(batch.labels == 0))


def random_model(arch, seed, scale=1.0):
    return Model(arch, random_vector(arch.parameter_layer_dims(), seed, scale))


class TestEvalWindow:
    ARCHS = [
        logistic_regression(5, 3),
        mlp(5, (4,), 3, "relu"),
        mlp(5, (4,), 3, "tanh"),
        mlp(5, (6, 3), 4, "relu"),
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        arch=st.sampled_from(ARCHS),
        scales=st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=1, max_size=8),
        n=st.integers(1, 120),
        chunk_rows=st.integers(1, 50),
    )
    # logits 66, -123, 99 and 103 on the one sample: a loss of 0.0154 off by
    # 1.4e-5 of itself, beyond the relative term alone
    @example(seed=0, arch=ARCHS[3], scales=[0.0, 0.0, 0.0, 0.0, 3.0], n=1, chunk_rows=1)
    def test_matches_per_model_references(self, seed, arch, scales, n, chunk_rows):
        """A window of 1-8 float32 models scores each as evaluate does, over
        any chunking, and can be refilled after evaluate; against the float64
        row-major reference the loss keeps the stated bound and a hit differs
        only on a float32 near-tie, which is counted."""
        models = [random_model(arch, seed + i, s) for i, s in enumerate(scales)]
        gen = np.random.Generator(np.random.Philox(key=seed))
        batch = Batch(gen.standard_normal((n, arch.d_in)), gen.integers(0, arch.n_classes, n))
        window = EvalWindow(arch, batch, len(models))
        with pytest.MonkeyPatch.context() as mp:  # chunk_rows samples per chunk
            mp.setattr("dplab.models._chunk_rows", lambda count, widths, n: min(n, chunk_rows))
            for model in models:
                window.add(model)
            scores = window.evaluate()
            for model in reversed(models):
                window.add(model)
            refilled = window.evaluate()[::-1]
            singles = [evaluate(model, batch) for model in models]
        moved = 0
        for model, scale, *three in zip(models, scales, scores, singles, refilled):
            ref_ls, ref_acc = row_major_evaluate(model, batch)
            logits, _, _ = _forward(model, batch.inputs)
            ties = near_ties(model, batch)
            # a model's float32 bits depend on its slot in the stacked products
            for ls, acc in three:
                assert ls == eval_loss_approx(ref_ls, logits)
                hits_moved = round(abs(acc - ref_acc) * n)
                assert hits_moved <= ties
                moved += hits_moved
                if scale == 0.0:  # every logit ties, so class 0 wins
                    assert ls == pytest.approx(math.log(arch.n_classes), rel=1e-15)
                    assert acc == float(np.mean(batch.labels == 0))
        event(f"hits moved by float32 near-ties: {moved}")

    @pytest.mark.parametrize("arch", [logistic_regression(5, 4), mlp(5, (6,), 4, "relu")])
    @pytest.mark.parametrize("chunk_rows", [1, 4, 7, 200])
    def test_tied_top_logits_go_to_the_first_class(self, arch, chunk_rows):
        """Classes 1 and 2 share one last-layer column, so their logits tie
        exactly: a label on class 1 is a hit and on class 2 a miss. The window
        mixes models tied on every row, tied on some rows, and untied."""
        gen = np.random.Generator(np.random.Philox(key=chunk_rows))
        n = 60
        batch = Batch(gen.standard_normal((n, arch.d_in)), np.tile([1, 2, 1, 0, 2, 3], n // 6))
        fan_in, n_classes = arch.weight_shapes()[-1]

        def tied(seed, lift):
            params = random_vector(arch.parameter_layer_dims(), seed)
            blocks = [b.copy() for b in params.blocks]
            w, b = blocks[-2].reshape(fan_in, n_classes), blocks[-1]
            w[:, 2], b[2] = w[:, 1], b[1]
            b[1:3] += lift  # a large lift puts the tie on top of every row
            return Model(arch, join(blocks))

        models = [tied(1, 50.0), random_model(arch, 2), tied(3, 0.0), tied(4, 50.0)]
        window = EvalWindow(arch, batch, len(models))
        for model in models:
            window.add(model)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dplab.models._chunk_rows", lambda count, widths, n: min(n, chunk_rows))
            scores = window.evaluate()
        for model, (ls, acc) in zip(models, scores):
            ref_ls, ref_acc = row_major_evaluate(model, batch)
            assert ls == eval_loss_approx(ref_ls, _forward(model, batch.inputs)[0])
            assert acc == ref_acc
        assert scores[0][1] == scores[3][1] == float(np.mean(batch.labels == 1)) == 1 / 3
        z, _, _ = _forward(models[2], batch.inputs)
        top = z.max(axis=1)
        assert 0 < np.sum(z[:, 1] == top) < n  # tied on some rows only

    @pytest.mark.parametrize("arch", [logistic_regression(5, 3), mlp(5, (6, 3), 4, "relu")])
    @pytest.mark.parametrize("scale", [0.0, 1.0])
    def test_working_memory_within_chunk_bound(self, arch, scale):
        """Beyond its (count, n) loss terms and hits, evaluate() holds at most
        EVAL_CHUNK_BYTES however large n grows. At scale 0 every top logit
        ties, so every row takes the first-max fallback."""
        count = 3
        widths = [arch.d_in, *(fan_out for _, fan_out in arch.weight_shapes())]
        for n in (1_000, 20_000, 80_000):
            gen = np.random.Generator(np.random.Philox(key=n))
            batch = Batch(gen.standard_normal((n, arch.d_in)), gen.integers(0, arch.n_classes, n))
            window = EvalWindow(arch, batch, count)
            for i in range(count):
                window.add(random_model(arch, i, scale))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                window.evaluate()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak - count * n * (8 + 1) <= EVAL_CHUNK_BYTES
        assert _chunk_rows(count, widths, n) < n / 3  # the largest n takes several chunks

    @pytest.mark.parametrize("arch", [logistic_regression(5, 3), mlp(5, (4,), 3, "relu")])
    def test_beyond_float32_range_scored_in_float64(self, arch):
        """Inputs beyond float32's range (a 1e300 coordinate, or 1e39 under
        weights of 1e-12, whose logits stay small) make the window float64
        when it is built; a model whose logits could leave float32's range
        (weights of 1e40) widens a float32 window for good when it is added.
        Casting any of them to float32 would warn; the losses stay finite and
        close to the float64 reference."""
        gen = np.random.Generator(np.random.Philox(key=5))
        inputs, labels = gen.standard_normal((40, 5)), gen.integers(0, 3, 40)
        wide = {}
        for coordinate in (1e300, 1e39):
            wide[coordinate] = inputs.copy()
            wide[coordinate][7, 1] = coordinate
        normal, tiny, huge = (random_model(arch, i, s) for i, s in enumerate((1.0, 1e-12, 1e40)))
        cases = ((wide[1e300], [normal]), (wide[1e39], [tiny]), (inputs, [normal, huge, normal]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, models in cases:
                batch = Batch(x, labels)
                window = EvalWindow(arch, batch, len(models))
                for model in models:
                    window.add(model)
                for model, (ls, acc) in zip(models, window.evaluate()):
                    ref_ls, ref_acc = row_major_evaluate(model, batch)
                    assert math.isfinite(ls) and ls == eval_loss_approx(ref_ls)
                    assert acc == ref_acc

    def test_rejects_mixed_architectures_and_empty_or_full_windows(self):
        model, batch = random_problem(3, d_in=4, hidden=(), n_classes=3, batch=5)
        window = EvalWindow(model.arch, batch, 1)
        with pytest.raises(ContractViolation):
            window.evaluate()
        with pytest.raises(ContractViolation):
            window.add(init_model(mlp(4, (2,), 3), 0))
        window.add(model)
        with pytest.raises(ContractViolation):
            window.add(model)
        window.evaluate()
        with pytest.raises(ContractViolation):
            window.evaluate()


class TestAccuracy:
    """The input checks of ``evaluate(model, Batch(inputs, labels))``."""

    def setup_method(self):
        self.model, self.batch = random_problem(4, d_in=3, hidden=(), n_classes=3, batch=6)

    def test_scalar_label_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate(self.model, Batch(self.batch.inputs[:1], 0))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate(self.model, Batch(self.batch.inputs, np.full(self.batch.size, 3)))

    def test_non_finite_input_rejected(self):
        inputs = self.batch.inputs.copy()
        inputs[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            evaluate(self.model, Batch(inputs, self.batch.labels))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate(self.model, Batch(self.batch.inputs, self.batch.labels[:-1]))

    def test_input_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate(self.model, Batch(self.batch.inputs[:, :2], self.batch.labels))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate(self.model, Batch(np.zeros((0, 3)), np.zeros(0, dtype=int)))

    def test_caller_arrays_stay_writable(self):
        inputs, labels = self.batch.inputs.copy(), self.batch.labels.copy()
        evaluate(self.model, Batch(inputs, labels))
        assert inputs.flags.writeable and labels.flags.writeable


@functools.cache
def wide_dataset():
    """12000 x 200 inputs, whose float64 rows (19.2 MB) span three chunks
    of the input scan."""
    ds = gen_synthetic(12000, 200, 3, margin=6.0, seed=8)
    assert ds.n * ds.d_in * 8 > 2 * EVAL_CHUNK_BYTES
    return ds


def assert_sq_norms_uncached(grads):
    assert grads.sq_norms().tobytes() == reference_sq_norms(grads).tobytes()


class TestCachedInputNorms:
    """Layer 0's ||x_i||^2 comes from the batch's scan, not from the layer
    inputs; ``sq_norms`` keeps the bytes of recomputing it (the uncached
    reference in conftest) on batches, their ``take`` subsets, the factors'
    own ``take`` and a ``DifferenceRows`` subset. A dataset's float32 rows
    are scanned in float64, so the norms are those of the rows upcast."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from([(), (3,), (4, 2)]),
        st.sampled_from(["relu", "tanh"]),
        st.integers(0, 9),
        st.data(),
    )
    def test_matches_uncached_reference(self, seed, hidden, activation, size, data):
        model, batch = random_problem(seed, hidden=hidden, batch=size, activation=activation)
        picks = st.lists(st.integers(0, size - 1), max_size=7) if size else st.just([])
        idx = np.array(data.draw(picks), dtype=np.intp)
        grads = backprop(model, batch)
        assert_sq_norms_uncached(grads)
        for sub_idx in (idx, idx[:1], idx[:0]):
            assert_sq_norms_uncached(backprop(model, batch.take(sub_idx)))
            assert_sq_norms_uncached(grads.take(sub_idx))
        v = random_vector(grads.layer_dims, seed)
        subset = DifferenceRows(grads, v, grads.block_dots(v))._subset(idx)
        assert_sq_norms_uncached(subset.grads)

    def test_fortran_order_inputs_stored_row_major(self):
        # a row's sum follows the memory layout, so the scan and every
        # gathered batch must see the rows in one layout
        model, batch = random_problem(6, d_in=300, hidden=(4,), batch=40)
        fortran = Batch(np.asfortranarray(batch.inputs), batch.labels)
        assert fortran.inputs.flags.c_contiguous
        idx = np.array([3, 5, 39, 0])
        assert_sq_norms_uncached(backprop(model, fortran))
        assert_sq_norms_uncached(backprop(model, fortran.take(idx)))

    def test_scan_spans_chunks_bit_for_bit(self):
        ds = wide_dataset()
        x = ds.inputs.astype(np.float64)
        expected = np.sum(x * x, axis=1)
        assert ds.input_sq_norms.tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(), (5,)]), st.lists(st.integers(0, 11_999), max_size=40))
    def test_batches_across_chunks(self, hidden, picks):
        ds = wide_dataset()
        rows = EVAL_CHUNK_BYTES // (8 * ds.d_in)
        edges = [0, rows - 1, rows, 2 * rows - 1, 2 * rows, ds.n - 1]
        idx = np.array(edges + picks, dtype=np.intp)
        model = init_model(mlp(ds.d_in, hidden, ds.n_classes), 3)
        grads = backprop(model, ds.take(idx))
        assert_sq_norms_uncached(grads)
        x = ds.inputs[idx].astype(np.float64)
        assert grads.input_sq_norms.tobytes() == np.sum(x * x, axis=1).tobytes()
