import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplab import (
    Architecture,
    Batch,
    ClipSpec,
    ContractViolation,
    LayeredVector,
    NoisePlan,
    RngStream,
    TrainConfig,
    add,
    aggregate_and_perturb,
    aggregate_and_perturb_scalars,
    decompose_batch,
    diff_step,
    dpdr_train,
    dpsgd_step,
    gdr_step,
    gen_synthetic,
    init_model,
    l2_norm,
    normalize_base,
    per_sample_gradients,
    privacy_schedule,
    reconstruct,
    scale,
    sub,
    train,
)
from dplab.trainers import sgd_step
from tests.conftest import random_problem, random_vector

LOOSE = ClipSpec(1e9, 1e9, 1e9)
SILENT = NoisePlan(0.0, 0.0, 0.0)


def mean_of(vectors):
    return LayeredVector.from_blocks(
        [np.mean([v.blocks[l] for v in vectors], axis=0) for l in range(vectors[0].layer_count)]
    )


def make_config(method="dpsgd", **kw):
    defaults = dict(
        method=method,
        total_steps=6,
        batch=8,
        lr=0.5,
        seed=3,
        clip=ClipSpec(1.0, 0.5, 1.0),
        noise=NoisePlan(1.0, 1.0, 2.0),
    )
    if method == "dpdr":
        defaults["switch_step"] = 4
    if method == "sgd":
        defaults["clip"] = None
        defaults["noise"] = None
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestDpsgdStep:
    def test_noiseless_within_bounds_is_sgd(self):
        model, batch = random_problem(0, batch=5)
        out = dpsgd_step(model, batch, 1e9, 0.0, 0.1, RngStream(0, 1, "noise-g"))
        expected = mean_of(per_sample_gradients(model, batch))
        assert l2_norm(sub(out.released, expected)) <= 1e-12 * max(1.0, l2_norm(expected))
        assert out.event is None  # sigma=0 is a non-private ablation

    def test_single_overlong_gradient_halved(self):
        model, batch = random_problem(1, batch=1)
        g = per_sample_gradients(model, batch)[0]
        c = l2_norm(g) / 2.0
        out = dpsgd_step(model, batch, c, 0.0, 0.1, RngStream(0, 1, "noise-g"))
        assert out.released.allclose(scale(0.5, g), rtol=1e-12, atol=1e-15)

    def test_fixed_seed_bit_identical(self):
        model, batch = random_problem(2, batch=4)
        a = dpsgd_step(model, batch, 1.0, 1.0, 0.1, RngStream(9, 5, "noise-g"))
        b = dpsgd_step(model, batch, 1.0, 1.0, 0.1, RngStream(9, 5, "noise-g"))
        assert a.released.equals(b.released)
        assert a.event == b.event

    def test_empty_batch_rejected(self):
        model, _ = random_problem(0, d_in=3)
        empty = Batch(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ContractViolation):
            dpsgd_step(model, empty, 1.0, 1.0, 0.1, RngStream(0, 1, "noise-g"))


class TestDiffStep:
    def test_zero_difference_returns_previous(self):
        model, batch = random_problem(3, batch=1)
        g = per_sample_gradients(model, batch)[0]
        out = diff_step(model, batch, g, 1.0, 0.0, 0.1, RngStream(0, 1, "noise-g"))
        assert out.released.allclose(g, rtol=1e-12, atol=1e-15)

    def test_unbiased_without_clipping(self):
        model, batch = random_problem(4, batch=6)
        prev = random_vector(model.params.layer_dims, seed=50, scale=0.3)
        out = diff_step(model, batch, prev, 1e9, 0.0, 0.1, RngStream(0, 1, "noise-g"))
        expected = mean_of(per_sample_gradients(model, batch))
        assert out.released.allclose(expected, rtol=1e-10, atol=1e-12)

    def test_staleness_doubles_difference_norm(self):
        # per-sample gradient equals -previous release: ||diff|| = 2||g|| exactly
        model, batch = random_problem(5, batch=1)
        g = per_sample_gradients(model, batch)[0]
        out = diff_step(model, batch, scale(-1.0, g), 1e9, 0.0, 0.1, RngStream(0, 1, "noise-g"))
        ratio = out.metrics.diff_norm_median / out.metrics.grad_norm_median
        assert ratio == 2.0


class TestGdrStep:
    def test_noiseless_loose_bounds_equal_sgd(self):
        for seed in range(10):
            model, batch = random_problem(seed, batch=4)
            base = normalize_base(random_vector(model.params.layer_dims, seed + 99), 0)
            out, _ = gdr_step(
                model, batch, base, LOOSE, SILENT, 0.1,
                RngStream(0, 2, "noise-perp"), RngStream(0, 2, "noise-alpha"),
            )
            expected = mean_of(per_sample_gradients(model, batch))
            assert l2_norm(sub(out.released, expected)) <= 1e-10 * max(1.0, l2_norm(expected))

    @pytest.mark.parametrize("seed", range(50))
    def test_parallel_batch_updates_along_base_only(self, seed):
        model, batch = random_problem(seed, batch=3)
        grad = mean_of(per_sample_gradients(model, Batch(batch.inputs[:1], batch.labels[:1])))
        base = normalize_base(grad, 0)
        single = Batch(
            np.repeat(batch.inputs[:1], 3, axis=0), np.repeat(batch.labels[:1], 3)
        )
        out, _ = gdr_step(
            model, single, base, LOOSE, SILENT, 0.1,
            RngStream(0, 2, "noise-perp"), RngStream(0, 2, "noise-alpha"),
        )
        assert out.metrics.perp_norm_median <= 1e-9 * max(1.0, l2_norm(grad))
        # every layer of the release points along that layer of the base
        from dplab import dot_layer, l2_norm_layer

        for layer in range(out.released.layer_count):
            r_norm = l2_norm_layer(out.released, layer)
            if r_norm <= 1e-12:
                continue
            cos = dot_layer(out.released, base.b, layer) / r_norm
            assert abs(cos) == pytest.approx(1.0, abs=1e-9)

    def test_base_refreshes_from_release(self):
        model, batch = random_problem(8, batch=4)
        base = normalize_base(random_vector(model.params.layer_dims, 1), 0)
        out, new_base = gdr_step(
            model, batch, base, LOOSE, SILENT, 0.1,
            RngStream(0, 3, "noise-perp"), RngStream(0, 3, "noise-alpha"),
        )
        expected = normalize_base(out.released, 3)
        assert new_base.b.allclose(expected.b, rtol=1e-12, atol=1e-15)
        assert new_base.source_step == 3

    def test_never_reads_raw_history(self):
        # only the released base carries information between steps: feed the
        # same base while fabricating different raw histories
        model, batch = random_problem(9, batch=4)
        base = normalize_base(random_vector(model.params.layer_dims, 5), 0)
        history_a = [random_vector(model.params.layer_dims, i) for i in range(3)]

        out_a, _ = gdr_step(
            model, batch, base, LOOSE, SILENT, 0.1,
            RngStream(1, 2, "noise-perp"), RngStream(1, 2, "noise-alpha"),
        )
        del history_a
        _history_b = [random_vector(model.params.layer_dims, 100 + i, scale=9.0) for i in range(3)]
        out_b, _ = gdr_step(
            model, batch, base, LOOSE, SILENT, 0.1,
            RngStream(1, 2, "noise-perp"), RngStream(1, 2, "noise-alpha"),
        )
        assert out_a.released.equals(out_b.released)


class TestPrivacySchedule:
    def test_dpdr_phases(self):
        sched = privacy_schedule("dpdr", 0.1, 10, 4)
        assert sched == [(0.1, 1, "first"), (0.1, 3, "gdr"), (0.1, 6, "dpsgd")]

    def test_switch_one_has_no_gdr(self):
        assert privacy_schedule("dpdr", 0.1, 5, 1) == [(0.1, 1, "first"), (0.1, 4, "dpsgd")]

    def test_switch_at_end_has_no_tail(self):
        assert privacy_schedule("dpdr", 0.1, 5, 5) == [(0.1, 1, "first"), (0.1, 4, "gdr")]

    def test_flat_methods(self):
        assert privacy_schedule("dpsgd", 0.2, 7) == [(0.2, 7, "dpsgd")]
        assert privacy_schedule("sgd", 0.2, 7) == []


class TestTrainLoop:
    def setup_method(self):
        self.dataset = gen_synthetic(128, 6, 2, margin=6.0, seed=11)

    def test_ledger_matches_schedule_s1(self):
        config = make_config("dpdr", switch_step=1, total_steps=5, seed=1)
        result = train(config, self.dataset)
        assert [(e.q, e.sigma_eff) for e in result.ledger.events] == [
            (config.batch / self.dataset.n, 1.0)
        ] * 5

    def test_ledger_matches_schedule_s_equals_t(self):
        config = make_config("dpdr", switch_step=5, total_steps=5, seed=1)
        result = train(config, self.dataset)
        sigma_eff = 1.0 / math.sqrt(1 / 1.0**2 + 1 / 2.0**2)
        sigmas = [e.sigma_eff for e in result.ledger.events]
        assert sigmas[0] == 1.0
        assert sigmas[1:] == pytest.approx([sigma_eff] * 4)

    def test_ledger_pattern_t3_s2(self):
        config = make_config("dpdr", switch_step=2, total_steps=3, seed=2)
        result = train(config, self.dataset)
        sigma_eff = 1.0 / math.sqrt(1 / 1.0**2 + 1 / 2.0**2)
        assert [e.sigma_eff for e in result.ledger.events] == pytest.approx(
            [1.0, sigma_eff, 1.0]
        )
        assert result.phase_steps == {"first": 1, "gdr": 1, "dpsgd": 1}

    def test_dpdr_s1_bitwise_equals_dpsgd(self):
        dpdr = train(make_config("dpdr", switch_step=1, total_steps=6, seed=7), self.dataset)
        dpsgd = train(make_config("dpsgd", total_steps=6, seed=7), self.dataset)
        assert dpdr.ledger.events == dpsgd.ledger.events
        assert dpdr.model.params.equals(dpsgd.model.params)
        for a, b in zip(dpdr.rows, dpsgd.rows):
            assert a.train_loss == b.train_loss
            assert a.eps_cum == b.eps_cum

    def test_methods_share_batch_streams(self):
        # the batch sampling stream depends only on (seed, step), not method:
        # with all noise silenced, sgd and dpsgd with huge bounds coincide
        sgd = train(make_config("sgd", total_steps=4, seed=5), self.dataset)
        dpsgd = train(
            make_config("dpsgd", total_steps=4, seed=5, clip=LOOSE, noise=SILENT), self.dataset
        )
        for a, b in zip(sgd.rows, dpsgd.rows):
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-10)

    def test_ledger_complete_despite_empty_batches(self):
        tiny = gen_synthetic(64, 4, 2, margin=6.0, seed=3)
        config = make_config("dpsgd", total_steps=40, batch=1, seed=13)
        result = train(config, tiny)
        # q = 1/64 makes empty draws near-certain somewhere in 40 steps
        sizes = [
            len(np.nonzero(RngStream(13, t, "batch").generator().random(64) < 1 / 64)[0])
            for t in range(1, 41)
        ]
        assert 0 in sizes
        assert len(result.ledger.events) == 40

    def test_eps_monotone_and_reported(self):
        result = train(make_config("dpsgd", total_steps=8, seed=4), self.dataset)
        eps = [r.eps_cum for r in result.rows]
        assert all(b >= a for a, b in zip(eps, eps[1:]))
        assert eps[0] > 0

    def test_sgd_reports_zero_eps_and_empty_ledger(self):
        result = train(make_config("sgd", total_steps=4, seed=4), self.dataset)
        assert all(r.eps_cum == 0.0 for r in result.rows)
        assert result.ledger.events == []
        assert result.non_private

    def test_zero_noise_flagged_non_private(self):
        config = make_config("dpsgd", total_steps=3, seed=4, noise=NoisePlan(0.0, 0.0, 0.0))
        result = train(config, self.dataset)
        assert result.non_private
        assert all(math.isinf(r.eps_cum) for r in result.rows)
        assert result.ledger.events == []

    def test_deterministic_rerun(self):
        config = make_config("dpdr", total_steps=6, seed=21)
        a = train(config, self.dataset)
        b = train(config, self.dataset)
        assert a.model.params.equals(b.model.params)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.train_loss == rb.train_loss
            assert ra.eps_cum == rb.eps_cum
            assert ra.cos_prev == rb.cos_prev

    def test_noiseless_loose_trainers_agree_with_sgd(self):
        silent_clip = LOOSE
        sgd = train(make_config("sgd", total_steps=5, seed=6), self.dataset)
        variants = [
            make_config("dpsgd", total_steps=5, seed=6, clip=silent_clip, noise=SILENT),
            make_config("diff", total_steps=5, seed=6, clip=silent_clip, noise=SILENT),
            make_config("dpdr", total_steps=5, seed=6, switch_step=4, clip=silent_clip,
                        noise=SILENT),
        ]
        for config in variants:
            result = train(config, self.dataset)
            assert l2_norm(sub(result.model.params, sgd.model.params)) <= 1e-10 * max(
                1.0, l2_norm(sgd.model.params)
            )

    def test_perp_snapshot_recorded_for_dpdr(self):
        result = train(make_config("dpdr", total_steps=6, seed=8), self.dataset)
        assert result.perp_snapshot is not None
        assert result.perp_snapshot.size > 0

    def test_diff_records_difference_telemetry(self):
        result = train(make_config("diff", total_steps=4, seed=9), self.dataset)
        assert result.rows[0].diff_norm_median > 0  # vs zero initial release

    def test_dpdr_train_wrapper(self):
        config = make_config("dpdr", total_steps=4, seed=10)
        model, rows, ledger = dpdr_train(config, self.dataset)
        assert len(rows) == 4
        assert len(ledger.events) == 4

    def test_batch_larger_than_dataset_rejected(self):
        config = make_config("dpsgd", batch=4096)
        with pytest.raises(ContractViolation):
            train(config, self.dataset)


class TestConfigValidation:
    def test_method_checked(self):
        with pytest.raises(ContractViolation):
            make_config("adam")

    def test_dpdr_switch_bounds(self):
        with pytest.raises(ContractViolation):
            make_config("dpdr", switch_step=0)
        with pytest.raises(ContractViolation):
            make_config("dpdr", switch_step=7, total_steps=6)

    def test_switch_step_only_for_dpdr(self):
        with pytest.raises(ContractViolation):
            make_config("dpsgd", switch_step=3)

    def test_private_methods_need_noise_or_target(self):
        with pytest.raises(ContractViolation):
            make_config("dpsgd", noise=None)
        config = make_config("dpsgd", noise=None, eps_target=3.0)
        assert config.eps_target == 3.0

    def test_calibrated_dpdr_needs_sigma_alpha(self):
        with pytest.raises(ContractViolation):
            make_config("dpdr", noise=None, eps_target=3.0)


class TestSgdStep:
    def test_releases_exact_mean(self):
        model, batch = random_problem(12, batch=5)
        out = sgd_step(model, batch)
        assert out.released.allclose(mean_of(per_sample_gradients(model, batch)), rtol=1e-12)
        assert out.event is None


class TestSilentStepsMatchSgd:
    def test_all_private_steps_collapse_to_sgd_on_100_instances(self):
        from dplab import normalize_base

        for seed in range(100):
            model, batch = random_problem(seed + 700, batch=3)
            expected = mean_of(per_sample_gradients(model, batch))
            tol = 1e-10 * max(1.0, l2_norm(expected))
            stream = RngStream(seed, 1, "noise-g")
            a = dpsgd_step(model, batch, 1e9, 0.0, 0.1, stream)
            prev = random_vector(model.params.layer_dims, seed + 12, scale=0.2)
            b = diff_step(model, batch, prev, 1e9, 0.0, 0.1, stream)
            base = normalize_base(random_vector(model.params.layer_dims, seed + 13), 0)
            c, _ = gdr_step(
                model, batch, base, LOOSE, SILENT, 0.1,
                RngStream(seed, 1, "noise-perp"), RngStream(seed, 1, "noise-alpha"),
            )
            for out in (a, b, c):
                assert l2_norm(sub(out.released, expected)) <= tol


class TestGdrTelemetryInvariant:
    def test_perp_median_never_exceeds_grad_median(self):
        dataset = gen_synthetic(128, 6, 2, margin=6.0, seed=11)
        result = train(make_config("dpdr", total_steps=8, switch_step=8, seed=19), dataset)
        gdr_rows = result.rows[1:]  # steps 2..8 run the decomposition
        assert any(r.perp_norm_median > 0 for r in gdr_rows)
        for row in gdr_rows:
            assert row.perp_norm_median <= row.grad_norm_median * (1 + 1e-12)


class TestDifferenceChannelSensitivity:
    """A clipped difference channel must release what it measured: each
    sample's contribution stays within its clip bound even when the
    difference is a tiny remainder of two large, nearly equal vectors."""

    ANGLE = 1e-9  # radians between each gradient layer and its base layer

    def tilted_base(self, g, seed):
        gen = np.random.Generator(np.random.Philox(key=seed))
        blocks = []
        for block in g.blocks:
            u = gen.standard_normal(block.size)
            u -= (u @ block) / (block @ block) * block
            u *= np.linalg.norm(block) / np.linalg.norm(u)
            blocks.append(block * math.cos(self.ANGLE) + u * math.sin(self.ANGLE))
        return normalize_base(LayeredVector(tuple(blocks)), 0)

    def test_near_parallel_sample_keeps_orthogonal_release_within_c_perp(self):
        for seed in range(20):
            model, batch = random_problem(seed + 900, batch=1)
            g = per_sample_gradients(model, batch)[0]
            base = self.tilted_base(g, seed)
            assert not base.degenerate_layers
            c = 0.5 * math.sin(self.ANGLE) * l2_norm(g)  # below the orthogonal norm
            # c_alpha = c keeps the parallel part of the release small, so the
            # projection below does not add rounding relative to ||g||
            out, _ = gdr_step(
                model, batch, base, ClipSpec(1.0, c, c), SILENT, 0.1,
                RngStream(seed, 2, "noise-perp"), RngStream(seed, 2, "noise-alpha"),
            )
            assert out.metrics.perp_norm_median > c
            sq = 0.0
            for r, b in zip(out.released.blocks, base.b.blocks):
                orth = r - (r @ b) * b
                sq += float(orth @ orth)
            assert math.sqrt(sq) <= c * (1 + 1e-12)


# --- factored steps against the list-based reference ----------------------

TOL = 1e-12


def assert_close_vector(actual, expected):
    assert l2_norm(sub(actual, expected)) <= TOL * max(1.0, l2_norm(expected))


def assert_close_scalar(actual, expected):
    assert abs(actual - expected) <= TOL * max(1.0, abs(expected))


def median_norm(vectors):
    return float(np.median([l2_norm(v) for v in vectors]))


def clip_bound(norms, regime):
    """A positive bound that clips no sample, about half of them, or every
    one with a nonzero norm."""
    norms = np.asarray(norms)
    if regime == "none":
        return 2.0 * float(norms.max()) + 1.0
    if regime == "some":
        return max(float(np.median(norms)), 1e-6)
    positive = norms[norms > 0]
    return 0.5 * float(positive.min()) if positive.size else 1.0


@st.composite
def step_problems(draw):
    kind = draw(st.sampled_from(["logistic", "relu", "tanh"]))
    d_in = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    hidden = () if kind == "logistic" else (draw(st.integers(1, 4)),)
    arch = Architecture(d_in, hidden, n_classes, "tanh" if kind == "tanh" else "relu")
    size = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.Generator(np.random.Philox(key=seed))
    model = init_model(arch, seed)
    batch = Batch(gen.standard_normal((size, d_in)), gen.integers(0, n_classes, size=size))
    other = LayeredVector(
        tuple(gen.standard_normal(d) * 0.3 for d in model.params.layer_dims)
    )
    return model, batch, other, seed


REGIMES = st.sampled_from(["none", "some", "all"])
SIGMAS = st.sampled_from([0.0, 1.3])


class TestFactoredStepsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(step_problems())
    def test_sgd(self, problem):
        model, batch, _, _ = problem
        grads = per_sample_gradients(model, batch)
        norms = [l2_norm(g) for g in grads]
        out = sgd_step(model, batch)
        expected = aggregate_and_perturb(grads, clip_bound(norms, "none"), 0.0)
        assert_close_vector(out.released, expected)
        assert_close_scalar(out.metrics.grad_norm_median, float(np.median(norms)))

    @settings(max_examples=150, deadline=None)
    @given(step_problems(), REGIMES, SIGMAS)
    def test_dpsgd_with_and_without_telemetry(self, problem, regime, sigma):
        model, batch, prev, seed = problem
        grads = per_sample_gradients(model, batch)
        norms = [l2_norm(g) for g in grads]
        c = clip_bound(norms, regime)
        stream = RngStream(seed, 3, "noise-g")
        plain = dpsgd_step(model, batch, c, sigma, 0.1, stream)
        tracked = dpsgd_step(model, batch, c, sigma, 0.1, stream, prev)
        assert_close_vector(plain.released, aggregate_and_perturb(grads, c, sigma, stream))
        assert_close_scalar(plain.metrics.grad_norm_median, float(np.median(norms)))
        assert_close_scalar(
            tracked.metrics.diff_norm_median, median_norm([sub(g, prev) for g in grads])
        )
        # the telemetry never changes what is clipped or released
        assert tracked.released.equals(plain.released)
        assert tracked.metrics.grad_norm_median == plain.metrics.grad_norm_median
        assert plain.metrics.diff_norm_median == 0.0

    @settings(max_examples=150, deadline=None)
    @given(step_problems(), REGIMES, SIGMAS)
    def test_diff(self, problem, regime, sigma):
        model, batch, prev, seed = problem
        grads = per_sample_gradients(model, batch)
        diffs = [sub(g, prev) for g in grads]
        diff_norms = [l2_norm(d) for d in diffs]
        c = clip_bound(diff_norms, regime)
        stream = RngStream(seed, 4, "noise-g")
        out = diff_step(model, batch, prev, c, sigma, 0.1, stream)
        expected = add(aggregate_and_perturb(diffs, c, sigma, stream), prev)
        assert_close_vector(out.released, expected)
        assert_close_scalar(out.metrics.grad_norm_median, median_norm(grads))
        assert_close_scalar(out.metrics.diff_norm_median, median_norm(diffs))

    @settings(max_examples=200, deadline=None)
    @given(step_problems(), REGIMES, SIGMAS, st.data())
    def test_gdr(self, problem, regime, sigma, data):
        model, batch, raw_base, seed = problem
        # zero some layers of the base so that they are degenerate
        zeroed = data.draw(st.sets(st.integers(0, raw_base.layer_count - 1)))
        base = normalize_base(
            LayeredVector(
                tuple(
                    np.zeros_like(b) if layer in zeroed else b.copy()
                    for layer, b in enumerate(raw_base.blocks)
                )
            ),
            0,
        )
        assert base.degenerate_layers == frozenset(zeroed)
        grads = per_sample_gradients(model, batch)
        decs = decompose_batch(grads, base)
        perps = [d.g_perp for d in decs]
        alphas = [d.alphas for d in decs]
        perp_norms = [l2_norm(p) for p in perps]
        clip = ClipSpec(
            1.0,
            clip_bound(perp_norms, regime),
            clip_bound([math.sqrt(float(a @ a)) for a in alphas], regime),
        )
        noise = NoisePlan(sigma, sigma, 2.0 * sigma)
        perp_stream = RngStream(seed, 5, "noise-perp")
        alpha_stream = RngStream(seed, 5, "noise-alpha")
        out, _ = gdr_step(model, batch, base, clip, noise, 0.1, perp_stream, alpha_stream)
        noisy_perp = aggregate_and_perturb(perps, clip.c_perp, noise.sigma_perp, perp_stream)
        noisy_alpha = aggregate_and_perturb_scalars(
            alphas, clip.c_alpha, noise.sigma_alpha, alpha_stream
        )
        assert_close_vector(out.released, reconstruct(noisy_alpha, noisy_perp, base))
        assert_close_scalar(out.metrics.grad_norm_median, median_norm(grads))
        assert_close_scalar(out.metrics.perp_norm_median, median_norm(perps))
        assert_close_scalar(out.metrics.alpha_vec_norm, float(np.linalg.norm(noisy_alpha)))
        np.testing.assert_allclose(out.perp_norms, perp_norms, rtol=TOL, atol=TOL)
