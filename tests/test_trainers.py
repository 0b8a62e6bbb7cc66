import inspect
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dplab import (
    Architecture,
    Batch,
    ClipSpec,
    ContractViolation,
    Dataset,
    GradientFactors,
    LayeredVector,
    NoisePlan,
    PrivacyLedger,
    ReleaseEvent,
    RngStream,
    TrainConfig,
    apply_update,
    diff_step,
    dpsgd_step,
    effective_sigma,
    gaussian_sample,
    gdr_step,
    gen_synthetic,
    init_model,
    l2_norm,
    logistic_regression,
    mlp,
    normalize_base,
    poisson_sample,
    privacy_schedule,
    reconstruct,
    release_sigma,
    resolve_noise,
    schedule_ledger,
    train,
)
from dplab.decomposition import decompose_batch
from dplab.mechanism import CANCELLATION_TAU, aggregate_and_perturb, aggregate_and_perturb_scalars
from dplab.models import EVAL_CHUNK_BYTES, EvalWindow, _chunk_rows, per_sample_gradients
from dplab.trainers import METHODS, TAKES, _eval_windows
from dplab.vectors import sub
from tests.conftest import (
    add,
    allclose,
    degenerate_layers,
    dot_layer,
    eval_loss_approx,
    from_blocks,
    join,
    random_problem,
    random_vector,
    row_major_evaluate,
    scale,
    tilted,
)

LOOSE = ClipSpec(1e9, 1e9, 1e9)
SILENT = NoisePlan(0.0, 0.0, 0.0)


def mean_of(vectors):
    return from_blocks(
        [np.mean([v.blocks[l] for v in vectors], axis=0) for l in range(vectors[0].layer_count)]
    )


def formula_roles(method, total, switch=None):
    """The accounting role of each step by the phase formula, independent of
    privacy_schedule: first at t = 1, gdr for 2 <= t <= switch, then dpsgd
    (none for sgd)."""
    if method == "sgd":
        return []
    if method != "dpdr":
        return ["dpsgd"] * total
    return ["first" if t == 1 else "gdr" if t <= switch else "dpsgd" for t in range(1, total + 1)]


def role_sigmas(roles, noise):
    return [release_sigma(r, noise.sigma_g, noise.sigma_perp, noise.sigma_alpha) for r in roles]


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


def calibrated_config(method, **kw):
    """``make_config(method)`` with an eps target of 3 in place of its noise."""
    if method == "dpdr":
        kw = {"sigma_alpha": 2.0, **kw}
    return make_config(method, noise=None, eps_target=3.0, **kw)


def calibrated_float_settings():
    """(method, setting) for every float setting in an eps_target row of TAKES."""
    for method, forms in TAKES.items():
        if "eps_target" in forms:
            config = calibrated_config(method)
            for name in forms["eps_target"]:
                if isinstance(getattr(config, name), float):
                    yield pytest.param(method, name, id=f"{method}-{name}")


def count_calls(monkeypatch, name):
    """Record the sample count of every GradientFactors.<name> call."""
    calls = []
    original = getattr(GradientFactors, name)

    def counting(self, *args):
        calls.append(self.size)
        return original(self, *args)

    monkeypatch.setattr(GradientFactors, name, counting)
    return calls


class TestDpsgdStep:
    def test_noiseless_within_bounds_is_sgd(self):
        model, batch = random_problem(0, batch=5)
        out = dpsgd_step(model, batch, 1e9, 0.0, RngStream(0, 1, "noise-g"), batch.size)
        expected = mean_of(per_sample_gradients(model, batch))
        assert l2_norm(sub(out.released, expected)) <= 1e-12 * max(1.0, l2_norm(expected))

    def test_single_overlong_gradient_halved(self):
        model, batch = random_problem(1, batch=1)
        g = per_sample_gradients(model, batch)[0]
        c = l2_norm(g) / 2.0
        out = dpsgd_step(model, batch, c, 0.0, RngStream(0, 1, "noise-g"), batch.size)
        assert allclose(out.released, scale(0.5, g), rtol=1e-12, atol=1e-15)

    def test_fixed_seed_bit_identical(self):
        model, batch = random_problem(2, batch=4)
        a = dpsgd_step(model, batch, 1.0, 1.0, RngStream(9, 5, "noise-g"), batch.size)
        b = dpsgd_step(model, batch, 1.0, 1.0, RngStream(9, 5, "noise-g"), batch.size)
        assert a.released.equals(b.released)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_telemetry_expands_rows_only_for_near_parallel_samples(self, parallel, monkeypatch):
        # the difference norms come from the factors; a dense row is built
        # only for the one sample that equals the previous release
        model, batch = random_problem(4, hidden=(3,), batch=6)
        dims = model.params.layer_dims
        prev = (
            per_sample_gradients(model, batch)[2] if parallel
            else random_vector(dims, 4, scale=0.3)
        )
        expanded = []
        block_rows = GradientFactors.block_rows

        def counting(self, block, lo=0, hi=None):
            rows = block_rows(self, block, lo, hi)
            expanded.append(rows.shape[0])
            return rows

        monkeypatch.setattr(GradientFactors, "block_rows", counting)
        out = dpsgd_step(model, batch, 1.0, 1.0, RngStream(0, 1, "noise-g"), batch.size, prev)
        assert expanded == ([1] * len(dims) if parallel else [])
        assert out.metrics.diff_norm_median > 0

    def test_tracked_step_squares_the_norms_once(self, monkeypatch):
        # the clip and the difference telemetry share one sq_norms result
        model, batch = random_problem(4, hidden=(3,), batch=6)
        prev = random_vector(model.params.layer_dims, 4, scale=0.3)
        calls = count_calls(monkeypatch, "sq_norms")
        dpsgd_step(model, batch, 1.0, 1.0, RngStream(0, 1, "noise-g"), batch.size, prev)
        assert calls == [6]


class TestDiffStep:
    def test_zero_difference_returns_previous(self):
        model, batch = random_problem(3, batch=1)
        g = per_sample_gradients(model, batch)[0]
        out = diff_step(model, batch, g, 1.0, 0.0, RngStream(0, 1, "noise-g"), batch.size)
        assert allclose(out.released, g, rtol=1e-12, atol=1e-15)

    def test_unbiased_without_clipping(self):
        model, batch = random_problem(4, batch=6)
        prev = random_vector(model.params.layer_dims, seed=50, scale=0.3)
        out = diff_step(model, batch, prev, 1e9, 0.0, RngStream(0, 1, "noise-g"), batch.size)
        expected = mean_of(per_sample_gradients(model, batch))
        assert allclose(out.released, expected, rtol=1e-10, atol=1e-12)

    def test_staleness_doubles_difference_norm(self):
        # per-sample gradient equals -previous release: ||diff|| = 2||g|| exactly
        model, batch = random_problem(5, batch=1)
        g = per_sample_gradients(model, batch)[0]
        out = diff_step(
            model, batch, scale(-1.0, g), 1e9, 0.0, RngStream(0, 1, "noise-g"), batch.size
        )
        ratio = out.metrics.diff_norm_median / out.metrics.grad_norm_median
        assert ratio == 2.0


class TestGdrStep:
    def test_noiseless_loose_bounds_equal_sgd(self):
        for seed in range(10):
            model, batch = random_problem(seed, batch=4)
            base = normalize_base(random_vector(model.params.layer_dims, seed + 99))
            out = gdr_step(
                model, batch, base, LOOSE, SILENT,
                RngStream(0, 2, "noise-perp"), RngStream(0, 2, "noise-alpha"), batch.size,
            )
            expected = mean_of(per_sample_gradients(model, batch))
            assert l2_norm(sub(out.released, expected)) <= 1e-10 * max(1.0, l2_norm(expected))

    @pytest.mark.parametrize("seed", range(50))
    def test_parallel_batch_updates_along_base_only(self, seed):
        model, batch = random_problem(seed, batch=3)
        grad = mean_of(per_sample_gradients(model, Batch(batch.inputs[:1], batch.labels[:1])))
        base = normalize_base(grad)
        single = Batch(
            np.repeat(batch.inputs[:1], 3, axis=0), np.repeat(batch.labels[:1], 3)
        )
        out = gdr_step(
            model, single, base, LOOSE, SILENT,
            RngStream(0, 2, "noise-perp"), RngStream(0, 2, "noise-alpha"), single.size,
        )
        assert out.metrics.perp_norm_median <= 1e-9 * max(1.0, l2_norm(grad))
        # every layer of the release points along that layer of the base
        from dplab import l2_norm_layer

        for layer in range(out.released.layer_count):
            r_norm = l2_norm_layer(out.released, layer)
            if r_norm <= 1e-12:
                continue
            cos = dot_layer(out.released, base.b, layer) / r_norm
            assert abs(cos) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "name, expected", [("sq_norms", [6]), ("block_dots", [6]), ("block_rows", [])]
    )
    def test_factor_calls(self, name, expected, monkeypatch):
        # one sq_norms result serves the orthogonal clip norms and the
        # gradient-norm telemetry, the coefficients are the block dots those
        # norms need, and a well-conditioned batch builds no dense row
        model, batch = random_problem(4, hidden=(3,), batch=6)
        base = normalize_base(random_vector(model.params.layer_dims, 4))
        calls = count_calls(monkeypatch, name)
        gdr_step(
            model, batch, base, ClipSpec(1.0, 0.5, 1.0), NoisePlan(1.0, 1.0, 2.0),
            RngStream(0, 2, "noise-perp"), RngStream(0, 2, "noise-alpha"), batch.size,
        )
        assert calls == expected

    def test_base_refreshes_from_release(self):
        # train() hands the gdr step at t the release of step t - 1, normalized
        dataset = gen_synthetic(128, 6, 2, margin=6.0, seed=11)
        bases, releases = [], []

        def recording_step(model, batch, base, *args):
            bases.append(base)
            return gdr_step(model, batch, base, *args)

        def recording_update(model, direction, lr):
            releases.append(direction)
            return apply_update(model, direction, lr)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dplab.trainers.gdr_step", recording_step)
            mp.setattr("dplab.trainers.apply_update", recording_update)
            train(make_config("dpdr", total_steps=6, switch_step=4, seed=8), dataset)
        assert len(bases) == 3
        for t, base in enumerate(bases, start=2):
            expected = normalize_base(releases[t - 2])
            assert base.b.equals(expected.b)

    def test_never_reads_raw_history(self):
        # only the released base carries information between steps: feed the
        # same base while fabricating different raw histories
        model, batch = random_problem(9, batch=4)
        base = normalize_base(random_vector(model.params.layer_dims, 5))
        history_a = [random_vector(model.params.layer_dims, i) for i in range(3)]

        out_a = gdr_step(
            model, batch, base, LOOSE, SILENT,
            RngStream(1, 2, "noise-perp"), RngStream(1, 2, "noise-alpha"), batch.size,
        )
        del history_a
        _history_b = [random_vector(model.params.layer_dims, 100 + i, scale=9.0) for i in range(3)]
        out_b = gdr_step(
            model, batch, base, LOOSE, SILENT,
            RngStream(1, 2, "noise-perp"), RngStream(1, 2, "noise-alpha"), batch.size,
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

    @pytest.mark.parametrize(
        "method, total, switch",
        [("dpdr", 10, 0), ("dpdr", 10, 11), ("dpdr", 10, 25), ("dpdr", 0, 1),
         ("dpsgd", 0, None), ("sgd", 0, None)],
    )
    def test_rejects_a_switch_outside_the_run_and_an_empty_run(self, method, total, switch):
        # the schedule would otherwise spend switch + 1 steps, or none
        with pytest.raises(ContractViolation):
            privacy_schedule(method, 0.1, total, switch)


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

    @pytest.mark.parametrize("method, events", [("sgd", 0), ("dpsgd", 40), ("diff", 40),
                                                ("dpdr", 40)])
    def test_ledger_complete_despite_empty_batches(self, method, events):
        tiny = gen_synthetic(64, 4, 2, margin=6.0, seed=3)
        switch = {"switch_step": 20} if method == "dpdr" else {}
        config = make_config(method, total_steps=40, batch=1, seed=13, **switch)
        result = train(config, tiny)
        # q = 1/64 makes empty draws near-certain somewhere in 40 steps; at
        # this seed they land in every dpdr phase: first, gdr and dpsgd
        empty = [
            t for t in range(1, 41)
            if not np.any(RngStream(13, t, "batch").generator().random(64) < 1 / 64)
        ]
        assert 1 in empty
        assert any(2 <= t <= 20 for t in empty) and any(t > 20 for t in empty)
        assert len(result.ledger.events) == events
        # an empty draw spends the same event as a full step of its role
        roles = formula_roles(method, 40, config.switch_step)
        assert [e.sigma_eff for e in result.ledger.events] == role_sigmas(roles, config.noise)
        assert all(e.q == 1 / 64 and e.steps == 1 for e in result.ledger.events)
        assert all(np.all(np.isfinite(b)) for b in result.model.params.blocks)

    def test_empty_draw_divides_noise_by_expected_batch(self):
        tiny = gen_synthetic(64, 4, 2, margin=6.0, seed=3)
        config = make_config("dpsgd", total_steps=3, batch=3, seed=11)
        # at this seed step 3 draws no example at q = 3/64
        assert poisson_sample(tiny, 3 / 64, RngStream(11, 3, "batch")).size == 0
        before = train(replace(config, total_steps=2), tiny).model.params
        after = train(config, tiny).model.params
        std = config.clip.c_g * config.noise.sigma_g
        noise = gaussian_sample(RngStream(11, 3, "noise-g"), before.layer_dims, std)
        expected = sub(before, scale(config.lr / config.batch, noise))
        assert l2_norm(sub(after, expected)) <= 1e-14 * l2_norm(expected)

    @pytest.mark.parametrize("method", ["dpsgd", "diff", "dpdr"])
    def test_phase_steps_count_every_ledger_event(self, method):
        result = train(make_config(method, total_steps=6, seed=4), self.dataset)
        assert len(result.ledger.events) == 6
        assert sum(result.phase_steps.values()) == len(result.ledger.events)

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

    @pytest.mark.parametrize(
        "noise", [NoisePlan(1.0, 1.0, 0.0), NoisePlan(1.0, 0.0, 2.0)], ids=["alpha", "perp"]
    )
    def test_silent_gdr_channel_spends_only_first_and_tail(self, noise):
        config = make_config("dpdr", total_steps=6, switch_step=4, seed=4, noise=noise)
        result = train(config, self.dataset)
        q = config.batch / self.dataset.n
        assert result.ledger.events == [ReleaseEvent(q, 1.0)] * 3
        assert result.non_private
        assert all(math.isinf(r.eps_cum) for r in result.rows)
        assert result.phase_steps == {"first": 1, "gdr": 3, "dpsgd": 2}

    def test_calibrated_dpdr_spends_the_solved_schedule(self):
        config = calibrated_config("dpdr", total_steps=6, switch_step=4, seed=4)
        result = train(config, self.dataset)
        schedule = privacy_schedule("dpdr", config.batch / self.dataset.n, 6, 4)
        solved = schedule_ledger(schedule, config.delta, result.noise.sigma_perp, 2.0)
        solved_sigma = {role: e.sigma_eff for (_, _, role), e in zip(schedule, solved.events)}
        roles = formula_roles("dpdr", 6, 4)
        assert [e.sigma_eff for e in result.ledger.events] == [solved_sigma[r] for r in roles]
        assert [e.q for e in result.ledger.events] == [schedule[0][0]] * 6
        assert result.rows[-1].eps_cum == pytest.approx(solved.epsilon()[0], rel=1e-12)

    def test_explicit_dpdr_noise_spends_each_role_at_its_multiplier(self):
        # the criterion-4 reference multipliers: sigma_g and sigma_perp apart
        noise = NoisePlan(sigma_g=0.803, sigma_perp=0.81, sigma_alpha=2.0)
        config = make_config("dpdr", total_steps=6, switch_step=4, seed=4, noise=noise)
        result = train(config, self.dataset)
        gdr = effective_sigma(0.81, 2.0)
        q = config.batch / self.dataset.n
        expected = [ReleaseEvent(q, s) for s in (0.803, gdr, gdr, gdr, 0.803, 0.803)]
        assert result.ledger.events == expected
        ledger = PrivacyLedger(1e-5)
        for event in expected:
            ledger.append(event)
        assert result.rows[-1].eps_cum == ledger.epsilon()[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_step_roles_follow_phase_formula(self, total, data):
        switch = data.draw(st.integers(1, total))
        config = make_config("dpdr", total_steps=total, switch_step=switch, seed=total)
        called = []

        def spy(name, step_fn):
            def recorded(*args, **kwargs):
                called.append(name)
                return step_fn(*args, **kwargs)
            return recorded

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dplab.trainers.gdr_step", spy("gdr", gdr_step))
            mp.setattr("dplab.trainers.dpsgd_step", spy("dpsgd", dpsgd_step))
            result = train(config, self.dataset)
        roles = formula_roles("dpdr", total, switch)
        assert called == ["gdr" if r == "gdr" else "dpsgd" for r in roles]
        assert [e.sigma_eff for e in result.ledger.events] == role_sigmas(roles, config.noise)
        assert result.phase_steps == {r: roles.count(r) for r in ("first", "gdr", "dpsgd")}

    def test_deterministic_rerun(self):
        config = make_config("dpdr", total_steps=6, seed=21)
        a = train(config, self.dataset)
        b = train(config, self.dataset)
        assert a.model.params.equals(b.model.params)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.train_loss == rb.train_loss
            assert ra.eps_cum == rb.eps_cum
            assert ra.cos_prev == rb.cos_prev

    def noiseless_reference(self, config, carry):
        """Final parameters of the noiseless release r_t = sum_i g_i / b +
        carry (1 - B_t / b) r_{t-1}, from the list-based gradients: b is
        ``config.batch`` and B_t the realized Poisson size. ``carry`` is
        diff's p + sum_i (g_i - p) / b; without it the release is sgd's."""
        b = config.batch
        model = init_model(logistic_regression(self.dataset.d_in, self.dataset.n_classes),
                           config.seed)
        release = LayeredVector.zeros(model.params.layer_dims)
        for t in range(1, config.total_steps + 1):
            stream = RngStream(config.seed, t, "batch")
            batch = poisson_sample(self.dataset, b / self.dataset.n, stream)
            grads = per_sample_gradients(model, batch)
            total = scale(len(grads), mean_of(grads)) if grads else scale(0.0, release)
            share = (1.0 - batch.size / b) if carry else 0.0
            release = add(scale(1.0 / b, total), scale(share, release))
            model = apply_update(model, release, config.lr)
        return model.params

    def test_noiseless_loose_trainers_agree_with_sgd(self):
        sgd = train(make_config("sgd", total_steps=5, seed=6), self.dataset)
        reference = self.noiseless_reference(sgd.config, carry=False)
        tol = 1e-10 * max(1.0, l2_norm(reference))
        assert l2_norm(sub(sgd.model.params, reference)) <= tol
        for config in [
            make_config("dpsgd", total_steps=5, seed=6, clip=LOOSE, noise=SILENT),
            make_config("dpdr", total_steps=5, seed=6, switch_step=4, clip=LOOSE, noise=SILENT),
        ]:
            result = train(config, self.dataset)
            assert l2_norm(sub(result.model.params, sgd.model.params)) <= tol
        # diff adds the previous release back, so its share of the draws not
        # made, (1 - B / b) p, stays in the noiseless release
        diff = train(
            make_config("diff", total_steps=5, seed=6, clip=LOOSE, noise=SILENT), self.dataset
        )
        reference = self.noiseless_reference(diff.config, carry=True)
        assert l2_norm(sub(diff.model.params, reference)) <= 1e-10 * max(1.0, l2_norm(reference))
        assert l2_norm(sub(diff.model.params, sgd.model.params)) > 1e-3 * l2_norm(reference)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_step_divides_by_the_expected_batch(self, method, monkeypatch):
        """The divisor is the public ``config.batch``, on empty and non-empty
        draws alike, never the realized Poisson size."""
        tiny = gen_synthetic(64, 4, 2, margin=6.0, seed=3)
        switch = {"switch_step": 20} if method == "dpdr" else {}
        config = make_config(method, total_steps=40, batch=3, seed=13, **switch)
        seen = []  # (realized size, denom) of every step call

        def spy(step_fn):
            signature = inspect.signature(step_fn)

            def recorded(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                seen.append((bound["batch"].size, bound["denom"]))
                return step_fn(*args, **kwargs)
            return recorded

        for name, fn in (("dpsgd_step", dpsgd_step), ("diff_step", diff_step),
                         ("gdr_step", gdr_step)):
            monkeypatch.setattr(f"dplab.trainers.{name}", spy(fn))
        train(config, tiny)
        sizes = {size for size, _ in seen}
        assert len(seen) == 40
        assert 0 in sizes and sizes - {0, config.batch}
        assert {denom for _, denom in seen} == {config.batch}

    def test_perp_snapshot_recorded_for_dpdr(self):
        result = train(make_config("dpdr", total_steps=6, seed=8), self.dataset)
        assert result.perp_snapshot is not None
        assert result.perp_snapshot.size > 0

    def test_diff_records_difference_telemetry(self):
        result = train(make_config("diff", total_steps=4, seed=9), self.dataset)
        assert result.rows[0].diff_norm_median > 0  # vs zero initial release

    def test_batch_larger_than_dataset_rejected(self):
        config = make_config("dpsgd", batch=4096)
        with pytest.raises(ContractViolation):
            train(config, self.dataset)

    def test_dataset_rows_scanned_once(self, monkeypatch):
        """train() scores on the dataset's own Batch and takes the Poisson
        draws from it, so no row is checked again while training."""
        sizes = []
        check = Batch.__post_init__

        def counting(batch):
            sizes.append(len(batch.labels))
            check(batch)

        monkeypatch.setattr(Batch, "__post_init__", counting)
        train(make_config("dpsgd", total_steps=3), self.dataset)
        assert sizes == []


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

    @pytest.mark.parametrize(
        "setting",
        [{"clip": ClipSpec(1.0, 1.0, 1.0)}, {"noise": NoisePlan(1.0, 0.0, 0.0)},
         {"eps_target": 3.0}, {"delta": 0.3}],
        ids=["clip", "noise", "eps_target", "delta"],
    )
    def test_sgd_takes_no_privacy_settings(self, setting):
        # sgd trains without privacy; these settings would be silently ignored
        with pytest.raises(ContractViolation, match="sgd"):
            make_config("sgd", **setting)

    def test_sigma_alpha_rejected_beside_noise(self):
        # calibration alone reads sigma_alpha; the plan's own sigma_alpha wins
        with pytest.raises(ContractViolation, match="sigma_alpha"):
            make_config("dpdr", noise=NoisePlan(1.0, 1.0, 2.0), sigma_alpha=0.3)

    @pytest.mark.parametrize("method", ["dpsgd", "diff", "dpdr"])
    @pytest.mark.parametrize("name,value", [("delta", 0.3)])
    def test_calibration_settings_rejected_beside_noise(self, method, name, value):
        # the noise plan fixes every multiplier, and the CLI cannot state delta beside it
        with pytest.raises(ContractViolation, match=name):
            make_config(method, **{name: value})

    def test_eps_target_fills_delta(self):
        config = make_config("dpsgd", noise=None, eps_target=3.0)
        assert config.delta == 1e-5
        # compare re-checks each seed's config, defaults filled in
        assert replace(config, seed=9).delta == 1e-5

    @pytest.mark.parametrize("method, name", calibrated_float_settings())
    def test_every_calibration_setting_moves_the_noise(self, method, name):
        """A setting that a calibrated run takes is read: doubling it changes
        the resolved noise plan."""
        config = calibrated_config(method)
        schedule = privacy_schedule(method, config.batch / 128, 6, config.switch_step)
        doubled = replace(config, **{name: 2 * getattr(config, name)})
        assert resolve_noise(doubled, schedule) != resolve_noise(config, schedule)

    @pytest.mark.parametrize(
        "method, setting",
        [("dpsgd", {"total_steps": 2.5}), ("dpsgd", {"batch": 8.5}), ("dpsgd", {"batch": True}),
         ("dpsgd", {"seed": 3.0}), ("dpdr", {"switch_step": 4.0})],
        ids=["total_steps-float", "batch-float", "batch-bool", "seed-float", "switch_step-float"],
    )
    def test_non_integer_settings_rejected(self, method, setting):
        # a float total_steps failed later in train() with a TypeError, and a
        # float or bool batch trained at q = batch / n
        with pytest.raises(ContractViolation, match="integer"):
            make_config(method, **setting)

    def test_numpy_integer_settings_stored_as_ints(self):
        names = ("total_steps", "batch", "seed", "switch_step")
        config = make_config("dpdr", **dict(zip(names, np.array([6, 8, 3, 4]))))
        assert config == make_config("dpdr")
        assert [type(getattr(config, name)) for name in names] == [int] * 4


class TestEmptyBatchSteps:
    """At B = 0 with an explicit denom b, every step releases its noise alone
    over b: (1/b) N sigma c per block, plus the previous release for diff."""

    B = 7  # not a power of two, so x / b and (1/b) x may differ in the last bit

    def setup_method(self):
        self.model, _ = random_problem(30, batch=5)
        self.empty = Batch(np.zeros((0, self.model.arch.d_in)), np.zeros(0, dtype=int))
        self.dims = self.model.params.layer_dims

    def noise_only(self, c, sigma, stream):
        return scale(1.0 / self.B, gaussian_sample(stream, self.dims, sigma * c))

    def assert_rel_close(self, actual, expected):
        assert l2_norm(sub(actual, expected)) <= 1e-15 * l2_norm(expected)

    def assert_medians_zero(self, row):
        assert row.grad_norm_median == row.perp_norm_median == row.diff_norm_median == 0.0

    def test_sgd(self):
        # sgd is the dpsgd step with no clip and no noise
        out = dpsgd_step(self.model, self.empty, math.inf, 0.0, RngStream(4, 3, "noise-g"), self.B)
        assert out.released.equals(LayeredVector.zeros(self.dims))
        self.assert_medians_zero(out.metrics)

    def test_dpsgd(self):
        stream = RngStream(4, 3, "noise-g")
        prev = random_vector(self.dims, 31)
        out = dpsgd_step(self.model, self.empty, 1.5, 1.1, stream, self.B, prev)
        self.assert_rel_close(out.released, self.noise_only(1.5, 1.1, stream))
        self.assert_medians_zero(out.metrics)

    def test_diff(self):
        stream = RngStream(4, 3, "noise-g")
        prev = random_vector(self.dims, 31)
        out = diff_step(self.model, self.empty, prev, 1.5, 1.1, stream, self.B)
        self.assert_rel_close(out.released, add(self.noise_only(1.5, 1.1, stream), prev))
        self.assert_medians_zero(out.metrics)

    def test_gdr(self):
        base = normalize_base(random_vector(self.dims, 32))
        clip, noise = ClipSpec(1.0, 0.5, 1.5), NoisePlan(1.0, 1.2, 2.0)
        streams = RngStream(4, 3, "noise-perp"), RngStream(4, 3, "noise-alpha")
        out = gdr_step(self.model, self.empty, base, clip, noise, *streams, self.B)
        noisy_perp = self.noise_only(clip.c_perp, noise.sigma_perp, streams[0])
        noisy_alpha = (
            streams[1].generator().standard_normal(base.layer_count)
            * (noise.sigma_alpha * clip.c_alpha) / self.B
        )
        self.assert_rel_close(out.released, reconstruct(noisy_alpha, noisy_perp, base))
        # the reported alpha norm is that of the released noisy coefficients
        assert out.metrics.alpha_vec_norm == pytest.approx(np.linalg.norm(noisy_alpha), rel=1e-15)
        assert out.perp_norms.size == 0
        self.assert_medians_zero(out.metrics)


class TestSgdStep:
    """sgd runs :func:`dpsgd_step` with clip bound inf and noise multiplier 0."""

    def test_releases_exact_mean(self):
        model, batch = random_problem(12, batch=5)
        grads = per_sample_gradients(model, batch)
        denom = 7  # the expected batch size, not the realized 5
        out = dpsgd_step(model, batch, math.inf, 0.0, RngStream(0, 1, "noise-g"), denom)
        expected = scale(len(grads) / denom, mean_of(grads))
        assert allclose(out.released, expected, rtol=1e-12)
        assert out.metrics.grad_norm_median == pytest.approx(
            float(np.median([l2_norm(g) for g in grads])), rel=1e-12
        )


class TestSilentStepsMatchSgd:
    def test_all_private_steps_collapse_to_sgd_on_100_instances(self):
        from dplab import normalize_base

        for seed in range(100):
            model, batch = random_problem(seed + 700, batch=3)
            expected = mean_of(per_sample_gradients(model, batch))
            tol = 1e-10 * max(1.0, l2_norm(expected))
            stream = RngStream(seed, 1, "noise-g")
            a = dpsgd_step(model, batch, 1e9, 0.0, stream, batch.size)
            prev = random_vector(model.params.layer_dims, seed + 12, scale=0.2)
            b = diff_step(model, batch, prev, 1e9, 0.0, stream, batch.size)
            base = normalize_base(random_vector(model.params.layer_dims, seed + 13))
            c = gdr_step(
                model, batch, base, LOOSE, SILENT,
                RngStream(seed, 1, "noise-perp"), RngStream(seed, 1, "noise-alpha"), batch.size,
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


class RowMajorWindow:
    """Reference for EvalWindow: each model scored on its own by the
    row-major forward."""

    def __init__(self, arch, batch, size):
        self.batch, self.models = batch, []

    def add(self, model):
        self.models.append(model)

    def evaluate(self):
        scores = [row_major_evaluate(model, self.batch) for model in self.models]
        self.models.clear()
        return scores


class TestEvaluationNeverFeedsTrajectory:
    """The full-dataset evaluation is telemetry only: swapping the stacked
    float32 window for a per-model float64 row-major reference changes
    nothing but the loss, within the evaluation's stated bound."""

    @staticmethod
    def assert_same_run(fast, ref, steps):
        assert fast.model.params.equals(ref.model.params)
        assert fast.ledger.events == ref.ledger.events
        assert len(fast.rows) == len(ref.rows) == steps
        telemetry_only = dict(train_loss=0.0, train_accuracy=0.0, wall_ms=0.0)
        for a, b in zip(fast.rows, ref.rows):
            assert replace(a, **telemetry_only) == replace(b, **telemetry_only)
            assert a.train_loss == eval_loss_approx(b.train_loss)
            assert a.train_accuracy == b.train_accuracy

    @pytest.mark.parametrize("method", ["dpsgd", "diff", "dpdr"])
    @pytest.mark.parametrize("arch", [None, mlp(6, (5,), 3, "relu"), mlp(6, (4,), 3, "tanh")])
    def test_row_major_reference_leaves_run_unchanged(self, method, arch, monkeypatch):
        dataset = gen_synthetic(128, 6, 3, margin=6.0, seed=11)
        config = make_config(method, total_steps=6, seed=17, arch=arch)
        fast = train(config, dataset)
        monkeypatch.setattr("dplab.trainers.EvalWindow", RowMajorWindow)
        ref = train(config, dataset)
        self.assert_same_run(fast, ref, 6)

    @pytest.mark.parametrize("beyond", ["inputs", "weights"])
    def test_beyond_float32_range_scored_in_float64(self, beyond, monkeypatch):
        """A coordinate of 2^110, within float32's range but beyond the
        float32 window's bound 2^100, or noise that takes the weights to
        about 1e43, beyond float32's range: the window scores in float64, so
        the run and its losses are the reference's and no warning escapes."""
        dataset = gen_synthetic(128, 6, 3, margin=6.0, seed=11)
        if beyond == "inputs":
            inputs = dataset.inputs.copy()
            inputs[5, 2] = 2.0**110
            dataset = Dataset(inputs, dataset.labels, 3)
            config = make_config("dpsgd", seed=17, arch=mlp(6, (5,), 3, "relu"))
        else:
            config = make_config("dpsgd", seed=17, noise=NoisePlan(1e45, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = train(config, dataset)
            monkeypatch.setattr("dplab.trainers.EvalWindow", RowMajorWindow)
            ref = train(config, dataset)
        self.assert_same_run(fast, ref, 6)
        assert max(row.train_loss for row in fast.rows) > 1e30
        for a, b in zip(fast.rows, ref.rows):
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-12)


def window_holdings(arch, n):
    """Bytes one model holds in an EvalWindow on n samples: its float32 slot
    in the stacks and its (n,) float64 loss terms and (n,) bool hits."""
    return 4 * sum(arch.parameter_layer_dims()) + 9 * n


def count_scored(monkeypatch):
    """Record how many models every EvalWindow.evaluate call scores."""
    scored = []
    original = EvalWindow.evaluate

    def counting(self):
        scores = original(self)
        scored.append(len(scores))
        return scores

    monkeypatch.setattr(EvalWindow, "evaluate", counting)
    return scored


class TestEvaluationWindow:
    """Scoring a window of steps at once changes no row field but the timing
    and the loss in its last bits; the rows' times add up to the loop's.

    The byte budget ``dplab.trainers.EVAL_CHUNK_BYTES`` is the window rule's
    one seam: a budget of WINDOW models' holdings caps windows at WINDOW
    steps, and a budget of one byte gives windows of one."""

    WINDOW = 8

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("total", [1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1])
    def test_window_of_one_gives_same_rows(self, method, total, monkeypatch):
        dataset = gen_synthetic(128, 6, 3, margin=6.0, seed=11)
        switch = {"switch_step": max(1, total // 2)} if method == "dpdr" else {}
        config = make_config(method, total_steps=total, seed=23, **switch)
        scored = count_scored(monkeypatch)
        budget = self.WINDOW * window_holdings(logistic_regression(6, 3), dataset.n)
        monkeypatch.setattr("dplab.trainers.EVAL_CHUNK_BYTES", budget)
        windowed = train(config, dataset)
        assert len(scored) == -(-total // self.WINDOW)
        assert sum(scored) == total
        assert max(scored) <= self.WINDOW and max(scored) - min(scored) <= 1
        scored.clear()
        monkeypatch.setattr("dplab.trainers.EVAL_CHUNK_BYTES", 1)
        single = train(config, dataset)
        assert scored == [1] * total
        assert windowed.model.params.equals(single.model.params)
        assert windowed.ledger.events == single.ledger.events
        assert len(windowed.rows) == len(single.rows) == total
        for a, b in zip(windowed.rows, single.rows):
            assert replace(a, train_loss=0.0, wall_ms=0.0) == replace(b, train_loss=0.0, wall_ms=0.0)
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-12)
        for result in (windowed, single):
            walls = [row.wall_ms for row in result.rows]
            assert all(ms > 0 for ms in walls)
            assert sum(walls) <= result.runtime_ms


class TestEvalWindowSizing:
    """The window rule, without timing: the fewest windows of near-equal
    size whose holdings fit EVAL_CHUNK_BYTES, and bounded evaluation memory
    for the windows train() builds."""

    @settings(max_examples=300, deadline=None)
    @given(
        d_in=st.integers(1, 4096),
        hidden=st.lists(st.integers(1, 512), max_size=2),
        n_classes=st.integers(2, 20),
        n=st.integers(1, 2_000_000),
        total=st.integers(1, 5000),
    )
    def test_windows_cover_the_run_within_the_budget(self, d_in, hidden, n_classes, n, total):
        arch = mlp(d_in, hidden, n_classes)
        per_model = window_holdings(arch, n)
        cap = max(1, EVAL_CHUNK_BYTES // per_model)
        sizes = _eval_windows(arch, n, total)
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= cap
        assert len(sizes) == -(-total // cap)
        for size in sizes:
            assert size == 1 or size * per_model <= EVAL_CHUNK_BYTES

    def test_benchmark_shapes_take_one_or_two_windows(self):
        """Logistic regression and the 784-64-10 MLP on 10000 MNIST-shaped
        samples, at the benchmark's 75 and 20 steps."""
        assert _eval_windows(logistic_regression(784, 10), 10000, 75) == [38, 37]
        assert _eval_windows(mlp(784, (64,), 10), 10000, 20) == [20]

    def test_window_memory_within_budget(self, monkeypatch):
        """A window train() builds holds its stacks and its models' (n,)
        loss terms and hits within EVAL_CHUNK_BYTES, and its evaluation's
        chunk arrays take at most EVAL_CHUNK_BYTES more. mlp(50, (2000,), 10)
        on 500 samples holds 492540 bytes per model, so 40 steps take three
        windows, each scored in several chunks."""
        measured = []

        class MeasuredWindow(EvalWindow):
            def __init__(self, *args):
                before = tracemalloc.get_traced_memory()[0]
                super().__init__(*args)
                self.held = tracemalloc.get_traced_memory()[0] - before

            def evaluate(self):
                count = self._count
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                scores = super().evaluate()
                measured.append((count, self.held, tracemalloc.get_traced_memory()[1] - before))
                return scores

        monkeypatch.setattr("dplab.trainers.EvalWindow", MeasuredWindow)
        dataset = gen_synthetic(500, 50, 10, margin=6.0, seed=11)
        config = make_config("sgd", total_steps=40, batch=16, seed=5, arch=mlp(50, (2000,), 10))
        tracemalloc.start()
        try:
            train(config, dataset)
        finally:
            tracemalloc.stop()
        assert [count for count, _, _ in measured] == [14, 13, 13]
        for count, held, peak in measured:
            rows = count * dataset.n * (8 + 1)
            assert held + rows <= EVAL_CHUNK_BYTES
            assert peak - rows <= EVAL_CHUNK_BYTES
        assert _chunk_rows(14, [50, 2000, 10], dataset.n) < dataset.n / 3


class TestDifferenceChannelSensitivity:
    """A clipped difference channel must release what it measured: each
    sample's contribution stays within its clip bound even when the
    difference is a tiny remainder of two large, nearly equal vectors."""

    ANGLE = 1e-9  # radians between each gradient layer and its base layer

    def tilted_base(self, g, seed):
        return normalize_base(tilted(g, self.ANGLE, seed))

    def test_near_parallel_sample_keeps_orthogonal_release_within_c_perp(self):
        for seed in range(20):
            model, batch = random_problem(seed + 900, batch=1)
            g = per_sample_gradients(model, batch)[0]
            base = self.tilted_base(g, seed)
            assert not degenerate_layers(base)
            c = 0.5 * math.sin(self.ANGLE) * l2_norm(g)  # below the orthogonal norm
            # c_alpha = c keeps the parallel part of the release small, so the
            # projection below does not add rounding relative to ||g||
            out = gdr_step(
                model, batch, base, ClipSpec(1.0, c, c), SILENT,
                RngStream(seed, 2, "noise-perp"), RngStream(seed, 2, "noise-alpha"), batch.size,
            )
            assert out.metrics.perp_norm_median > c
            sq = 0.0
            for r, b in zip(out.released.blocks, base.b.blocks):
                orth = r - (r @ b) * b
                sq += float(orth @ orth)
            assert math.sqrt(sq) <= c * (1 + 1e-12)


class TestOrthogonalReleaseAcrossTheGuard:
    """The dpdr orthogonal channel clips and sums a sample from its factors
    when the cancellation guard passes it and on its dense row otherwise.
    For one layer tilted by theta from its base the guard switches at
    sin^2 theta = 2 tau / (1 + tau) (theta ~ 0.1412 rad at tau = 1e-2); on
    both sides the orthogonal release must stay within c_perp."""

    SWITCH = math.asin(math.sqrt(2 * CANCELLATION_TAU / (1 + CANCELLATION_TAU)))

    @pytest.mark.parametrize("angle", [0.1, 0.14, 0.142, 0.15, 0.2, 0.5, 1.2])
    def test_orthogonal_release_within_c_perp(self, angle, monkeypatch):
        expanded = count_calls(monkeypatch, "block_rows")
        for seed in range(40):
            model, batch = random_problem(seed + 900, batch=1)
            g = per_sample_gradients(model, batch)[0]
            base = normalize_base(tilted(g, angle, seed))
            assert not degenerate_layers(base)
            c = 0.5 * math.sin(angle) * l2_norm(g)  # below the orthogonal norm
            expanded.clear()
            out = gdr_step(
                model, batch, base, ClipSpec(1.0, c, c), SILENT,
                RngStream(seed, 2, "noise-perp"), RngStream(seed, 2, "noise-alpha"), batch.size,
            )
            assert out.metrics.perp_norm_median > c
            assert bool(expanded) == (angle < self.SWITCH)
            sq = 0.0
            for r, b in zip(out.released.blocks, base.b.blocks):
                orth = r - (r @ b) * b
                sq += float(orth @ orth)
            assert math.sqrt(sq) <= c * (1 + 1e-12)


class TestNeighbouringBatchSensitivity:
    """The deterministic half of a privacy audit: a release on D (63 rows
    and a canary) and on D' (D without the canary), both divided by
    b = ``config.batch``, differ by at most c / b, the sensitivity the ledger
    assumes. sigma = 0 and every row is clipped. The canary has the 63
    rows' input and the other class, so its logistic-regression gradient is
    a negative multiple of theirs and its clipped contribution opposes
    theirs: the gap reaches c / b, the worst case. The statistical half
    (noisy releases, an empirical epsilon lower bound against the
    accountant's) is not run here: at about 1e5 releases per world it would
    cost seconds of the suite."""

    B = 64  # b: the expected batch size, and the realized size of D
    RTOL = 1e-12

    def setup_method(self):
        x = np.random.Generator(np.random.Philox(key=41)).standard_normal(3)
        self.model = init_model(logistic_regression(3, 2), 41)
        self.d = Batch(np.tile(x, (self.B, 1)), np.array([0] * (self.B - 1) + [1]))
        self.d_prime = self.d.take(np.arange(self.B - 1))
        grads = per_sample_gradients(self.model, self.d)
        self.other, self.canary = grads[0], grads[-1]
        cos = (self.other.flat @ self.canary.flat) / (l2_norm(self.other) * l2_norm(self.canary))
        assert cos == pytest.approx(-1.0, abs=1e-12)

    def gap(self, step, denoms=(B, B)):
        """||r(D) - r(D')|| of ``step(batch, denom)``'s release."""
        r, r_prime = (step(batch, denom).released
                      for batch, denom in zip((self.d, self.d_prime), denoms))
        return l2_norm(sub(r, r_prime))

    def assert_worst_case_within(self, gap, c):
        assert gap <= c / self.B * (1 + self.RTOL)
        assert gap == pytest.approx(c / self.B, rel=1e-9)

    def test_dpsgd(self):
        c = 0.5 * min(l2_norm(self.other), l2_norm(self.canary))
        stream = RngStream(0, 1, "noise-g")
        gap = self.gap(lambda batch, denom: dpsgd_step(self.model, batch, c, 0.0, stream, denom))
        self.assert_worst_case_within(gap, c)

    def test_realized_size_divisor_exceeds_the_bound(self):
        # dividing D by its 64 rows and D' by its 63 moves every other row's
        # contribution too: the gap is 2c / B, twice what the ledger assumes
        c = 0.5 * min(l2_norm(self.other), l2_norm(self.canary))
        stream = RngStream(0, 1, "noise-g")
        gap = self.gap(lambda batch, denom: dpsgd_step(self.model, batch, c, 0.0, stream, denom),
                       denoms=(self.B, self.B - 1))
        assert gap > 1.5 * c / self.B
        assert gap == pytest.approx(2 * c / self.B, rel=1e-9)

    def test_diff_against_a_fixed_previous_release(self):
        # p at the midpoint makes g - p of the canary the negative of the others'
        p = scale(0.5, add(self.other, self.canary))
        c = 0.5 * l2_norm(sub(self.canary, p))
        stream = RngStream(0, 1, "noise-g")
        gap = self.gap(lambda batch, denom: diff_step(self.model, batch, p, c, 0.0, stream, denom))
        self.assert_worst_case_within(gap, c)

    @pytest.mark.parametrize("angle, dense", [(0.1, True), (1.2, False)])
    def test_each_gdr_channel(self, angle, dense, monkeypatch):
        """A base 0.1 rad from the canary fails the cancellation guard, so
        the orthogonal channel is clipped on dense rows; at 1.2 rad it is
        clipped from the factors. With sigma = 0 the orthogonal sum is
        orthogonal to every base layer, so the release r splits back into
        alpha_l = <r_l, b_l> and r - alpha b."""
        base = normalize_base(tilted(self.canary, angle, 5))
        decs = decompose_batch([self.other, self.canary], base)
        c_perp = 0.5 * min(l2_norm(d.g_perp) for d in decs)
        c_alpha = 0.5 * min(float(np.linalg.norm(d.alphas)) for d in decs)
        clip = ClipSpec(1.0, c_perp, c_alpha)
        streams = RngStream(0, 2, "noise-perp"), RngStream(0, 2, "noise-alpha")
        expanded = count_calls(monkeypatch, "block_rows")
        channels = []
        for batch in (self.d, self.d_prime):
            r = gdr_step(self.model, batch, base, clip, SILENT, *streams, self.B).released
            alphas = np.array([rb @ bb for rb, bb in zip(r.blocks, base.b.blocks)])
            perp = r.flat - np.repeat(alphas, r.layer_dims) * base.b.flat
            channels.append((alphas, perp))
        assert bool(expanded) == dense
        (alphas, perp), (alphas_prime, perp_prime) = channels
        self.assert_worst_case_within(float(np.linalg.norm(alphas - alphas_prime)), c_alpha)
        self.assert_worst_case_within(float(np.linalg.norm(perp - perp_prime)), c_perp)


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
    other = join(gen.standard_normal(d) * 0.3 for d in model.params.layer_dims)
    return model, batch, other, seed


REGIMES = st.sampled_from(["none", "some", "all"])
SIGMAS = st.sampled_from([0.0, 1.3])


class TestFactoredStepsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(step_problems())
    def test_sgd(self, problem):
        model, batch, _, seed = problem
        grads = per_sample_gradients(model, batch)
        norms = [l2_norm(g) for g in grads]
        out = dpsgd_step(model, batch, math.inf, 0.0, RngStream(seed, 3, "noise-g"), batch.size)
        assert_close_vector(out.released, mean_of(grads))
        assert_close_scalar(out.metrics.grad_norm_median, float(np.median(norms)))

    @settings(max_examples=150, deadline=None)
    @given(step_problems(), REGIMES, SIGMAS)
    def test_dpsgd_with_and_without_telemetry(self, problem, regime, sigma):
        model, batch, prev, seed = problem
        grads = per_sample_gradients(model, batch)
        norms = [l2_norm(g) for g in grads]
        c = clip_bound(norms, regime)
        stream = RngStream(seed, 3, "noise-g")
        plain = dpsgd_step(model, batch, c, sigma, stream, batch.size)
        tracked = dpsgd_step(model, batch, c, sigma, stream, batch.size, prev)
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
        out = diff_step(model, batch, prev, c, sigma, stream, batch.size)
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
            join(
                np.zeros_like(b) if layer in zeroed else b.copy()
                for layer, b in enumerate(raw_base.blocks)
            ),
        )
        assert degenerate_layers(base) == frozenset(zeroed)
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
        out = gdr_step(model, batch, base, clip, noise, perp_stream, alpha_stream, batch.size)
        noisy_perp = aggregate_and_perturb(perps, clip.c_perp, noise.sigma_perp, perp_stream)
        noisy_alpha = aggregate_and_perturb_scalars(
            alphas, clip.c_alpha, noise.sigma_alpha, alpha_stream
        )
        assert_close_vector(out.released, reconstruct(noisy_alpha, noisy_perp, base))
        assert_close_scalar(out.metrics.grad_norm_median, median_norm(grads))
        assert_close_scalar(out.metrics.perp_norm_median, median_norm(perps))
        assert_close_scalar(out.metrics.alpha_vec_norm, float(np.linalg.norm(noisy_alpha)))
        np.testing.assert_allclose(out.perp_norms, perp_norms, rtol=TOL, atol=TOL)
