"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criterion 4 exercises reference noise multipliers whose epsilon under this
package's integer-order accountant, converted to (eps, delta) by Balle et
al. 2020 (Thm 21), lands at 3.0198 / 3.0446 / 3.1376 for switch steps
10 / 50 / 200, inside the stated [2.4, 3.6] band. The classic conversion
RDP + log(1/delta)/(lambda-1) of the same RDP curve gives 3.5605 / 3.5853 /
3.6783 and would put the 200 case above the band.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from dplab import (
    ClipSpec,
    NoisePlan,
    PrivacyLedger,
    ReleaseEvent,
    RngStream,
    TrainConfig,
    backprop,
    calibrate_sigma,
    effective_sigma,
    gdr_step,
    gen_synthetic,
    l2_norm,
    l2_norm_layer,
    load_idx_pair,
    mlp,
    normalize_base,
    rdp_subsampled_gaussian,
    diff_step,
    train,
)
from dplab.diagnostics import steps_to_target_loss
from dplab.mechanism import DenseRows, DifferenceRows, privatize
from dplab.models import GradientFactors, per_sample_gradients
from dplab.vectors import sub
from tests.conftest import (
    dot_layer,
    join,
    mean_gradient,
    random_problem,
    random_vector,
    scale,
)
from tests.test_models import finite_difference_gradient

LOOSE = ClipSpec(1e9, 1e9, 1e9)
SILENT = NoisePlan(0.0, 0.0, 0.0)


def report(criterion, passed, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} {detail}")


def mean_of(vectors):
    return join(
        np.mean([v.blocks[l] for v in vectors], axis=0) for l in range(vectors[0].layer_count)
    )


def sample_rows(grads):
    """The dense (B, d) rows of every parameter block, expanded from the factors."""
    return [grads.block_rows(j) for j in range(len(grads.layer_dims))]


class TestCriterion1ReconstructionExactness:
    def test_noiseless_decomposition_step_equals_sgd(self):
        worst = 0.0
        for seed in range(100):
            model, batch = random_problem(seed, batch=4)
            base = normalize_base(random_vector(model.params.layer_dims, seed + 5000))
            out = gdr_step(
                model, batch, base, LOOSE, SILENT,
                RngStream(seed, 2, "noise-perp"), RngStream(seed, 2, "noise-alpha"), batch.size,
            )
            expected = mean_of(per_sample_gradients(model, batch))
            err = l2_norm(sub(out.released, expected)) / max(l2_norm(expected), 1e-300)
            worst = max(worst, err)
        report(1, worst <= 1e-10, f"(max relative error {worst:.3e})")
        assert worst <= 1e-10


class TestCriterion2DecompositionInvariants:
    """The decomposition as ``gdr_step`` makes it: per-sample alphas are the
    ``block_dots`` of ``backprop``'s factors with a ``normalize_base`` base,
    and the remainders are the factors' dense ``block_rows`` minus alpha
    times the base block, as the orthogonal channel builds its dense rows."""

    def test_orthogonality_and_pythagoras_per_layer(self):
        checked = 0
        gen = np.random.Generator(np.random.Philox(key=77))
        while checked < 1000:
            model, batch = random_problem(int(gen.integers(0, 2**31)))
            grads = backprop(model, batch)
            dims = grads.layer_dims
            base = normalize_base(random_vector(dims, int(gen.integers(0, 2**32))))
            alphas = grads.block_dots(base.b)
            rows = sample_rows(grads)
            perps = [
                r - alphas[:, j, None] * b for j, (r, b) in enumerate(zip(rows, base.b.blocks))
            ]
            for i in range(grads.size):
                g = join(r[i] for r in rows)
                g_perp = join(p[i] for p in perps)
                for layer in range(len(dims)):
                    g_norm = l2_norm_layer(g, layer)
                    assert abs(dot_layer(g_perp, base.b, layer)) <= 1e-9 * max(g_norm, 1e-300)
                    lhs = alphas[i, layer] ** 2 + l2_norm_layer(g_perp, layer) ** 2
                    assert lhs == pytest.approx(g_norm**2, rel=1e-9, abs=1e-15)
                    checked += 1
        report(2, True, f"({checked} layers checked)")


class TestCriterion3AccountantCorrectness:
    def test_a_full_batch_matches_gaussian_closed_form(self):
        for order in range(2, 257):
            for sigma in (0.5, 1.0, 3.0):
                assert rdp_subsampled_gaussian(1.0, sigma, order) == order / (2 * sigma**2)
        report("3a", True, "(q=1 closed form exact at all 255 grid orders)")

    def test_b_binomial_sum_oracle(self):
        got = rdp_subsampled_gaussian(0.01, 1.0, 2)
        oracle = math.log(0.99**2 + 2 * 0.01 * 0.99 + 0.01**2 * math.e)
        passed = abs(got - oracle) <= 1e-12 * oracle
        report("3b", passed, f"(impl {got:.12e} vs oracle {oracle:.12e})")
        assert passed

    def test_c_calibration_round_trip_grid(self):
        worst = 0.0
        for eps_target in (1.0, 3.0, 8.0):
            for q in (0.001, 0.005, 0.02):
                schedule = [(q, 1, "first"), (q, 49, "gdr"), (q, 450, "dpsgd")]
                sigma = calibrate_sigma(eps_target, 1e-5, schedule, 2.0)
                ledger = PrivacyLedger(1e-5)
                ledger.append(ReleaseEvent(q, sigma, 1))
                ledger.append(ReleaseEvent(q, effective_sigma(sigma, 2.0), 49))
                ledger.append(ReleaseEvent(q, sigma, 450))
                err = abs(ledger.epsilon()[0] - eps_target) / eps_target
                worst = max(worst, err)
        report("3c", worst <= 1e-3, f"(worst round-trip error {worst:.2e})")
        assert worst <= 1e-3

    def test_d_monotonicity_scans(self):
        qs = (0.0, 0.001, 0.01, 0.1, 0.5, 1.0)
        rdp_q = [rdp_subsampled_gaussian(q, 1.0, 16) for q in qs]
        assert rdp_q == sorted(rdp_q)
        sigmas = (0.5, 0.8, 1.0, 2.0, 5.0)
        rdp_s = [rdp_subsampled_gaussian(0.01, s, 16) for s in sigmas]
        assert rdp_s == sorted(rdp_s, reverse=True)
        eps_t = []
        for steps in (1, 10, 100, 1000):
            led = PrivacyLedger(1e-5)
            led.append(ReleaseEvent(0.01, 1.0, steps))
            eps_t.append(led.epsilon()[0])
        assert eps_t == sorted(eps_t)
        report("3d", True, "(monotone in q, sigma, and steps)")


class TestCriterion4ReferenceNoiseMultipliers:
    """sigma_perp=0.81, sigma_alpha=2.0, sigma_g=0.803 at q=256/60000 for
    20 epochs. The accountant yields 3.0198/3.0446/3.1376 for s=10/50/200
    (verified against exact arithmetic in test_accountant.TestReferenceRow)."""

    @pytest.mark.parametrize("switch_step", [10, 50, 200])
    def test_epsilon_band(self, switch_step):
        q = 256 / 60000
        total = 20 * math.ceil(60000 / 256)
        ledger = PrivacyLedger(1e-5)
        ledger.append(ReleaseEvent(q, 0.803, 1))
        ledger.append(ReleaseEvent(q, effective_sigma(0.81, 2.0), switch_step - 1))
        ledger.append(ReleaseEvent(q, 0.803, total - switch_step))
        eps, _ = ledger.epsilon()
        passed = 2.4 <= eps <= 3.6
        report(4, passed, f"(s={switch_step}: eps={eps:.4f}, band [2.4, 3.6])")
        assert passed, (
            f"eps={eps:.4f} outside [2.4, 3.6] for s={switch_step}; the exact value of "
            "this schedule is pinned in test_accountant.TestReferenceRow"
        )


class TestCriterion5NoiseStatistics:
    """Noise std of each released channel, measured through ``privatize`` over
    the row sources ``gdr_step`` releases: the orthogonal remainders
    (``DifferenceRows`` against the base) and the coefficients (``DenseRows``)."""

    B, SIGMA, C = 4, 1.0, 2.0

    def noise_std_error(self, rows, seed, tag):
        clean = privatize(rows, self.C, 0.0, None, self.B)[0]
        noise = np.concatenate(
            [
                privatize(rows, self.C, self.SIGMA, RngStream(seed, t, tag), self.B)[0] - clean
                for t in range(2000)
            ]
        )
        assert noise.size == 10_000
        expected = self.SIGMA * self.C / self.B
        return abs(noise.std() - expected) / expected

    def test_vector_channel_noise_std(self):
        # one dense layer with 4 inputs and 1 output: blocks (4, 1), 5 coordinates
        gen = np.random.default_rng(0)
        a = 0.3 * gen.standard_normal((self.B, 4))
        grads = GradientFactors((a,), (0.3 * gen.standard_normal((self.B, 1)),),
                                np.sum(a * a, axis=1))
        base = normalize_base(random_vector(grads.layer_dims, seed=1))
        rows = DifferenceRows(grads, base.b, grads.block_dots(base.b))
        err = self.noise_std_error(rows, 1, "noise-perp")
        report(5, err < 0.03, f"(orthogonal channel std error {err:.2%})")
        assert err < 0.03

    def test_scalar_channel_noise_std(self):
        rows = DenseRows(np.array([[0.4, -0.1, 0.2, 0.3, -0.25]] * self.B))
        err = self.noise_std_error(rows, 2, "noise-alpha")
        report(5, err < 0.03, f"(coefficient channel std error {err:.2%})")
        assert err < 0.03


class TestCriterion6PerSampleGradients:
    """``backprop``'s factors against central differences, both as the
    trainers sum them (``weighted_sum``, in ``mean_gradient``) and as the
    mean of the per-sample rows they expand to (``block_rows``)."""

    def test_finite_difference_agreement(self):
        worst = 0.0
        for seed in range(20):
            model, batch = random_problem(seed + 300, activation="tanh")
            assert model.params.total_dim <= 60
            fd = finite_difference_gradient(model, batch)
            mean = mean_gradient(model, batch)
            stacked = join(np.mean(r, axis=0) for r in sample_rows(backprop(model, batch)))
            for candidate in (mean, stacked):
                err = l2_norm(sub(candidate, fd)) / max(l2_norm(fd), 1e-300)
                worst = max(worst, err)
        report(6, worst <= 1e-5, f"(max relative error vs central differences {worst:.2e})")
        assert worst <= 1e-5


@pytest.fixture(scope="module")
def convergence_experiment():
    """Criterion 7 protocol: one coherent synthetic task (margin 8, blob
    std 0.5 so margin = 16 std), both methods calibrated to eps=3 at
    delta=1e-5, lr tuned once per method by final accuracy (ties toward
    the smaller rate), then 10 shared evaluation seeds."""
    dataset = gen_synthetic(4096, 50, 2, margin=8.0, seed=0, std=0.5)
    clips = {"dpsgd": ClipSpec(1.0, 1.0, 1.0), "dpdr": ClipSpec(1.0, 0.5, 1.0)}

    def run(method, lr, seed):
        kwargs = dict(
            method=method, total_steps=200, batch=128, lr=lr, seed=seed,
            clip=clips[method], eps_target=3.0, delta=1e-5,
        )
        if method == "dpdr":
            kwargs["switch_step"] = 50
            kwargs["sigma_alpha"] = 2.0
        return train(TrainConfig(**kwargs), dataset)

    tuned = {}
    for method in ("dpsgd", "dpdr"):
        best = None
        for lr in (0.1, 0.5, 1.0):
            acc = run(method, lr, 100).rows[-1].train_accuracy
            if best is None or acc > best[1] + 1e-12:
                best = (lr, acc)
        tuned[method] = best[0]
    runs = {m: [run(m, tuned[m], s) for s in range(10)] for m in ("dpsgd", "dpdr")}
    return tuned, runs


class TestCriterion7ConvergenceOrdering:
    def test_dpdr_matches_or_beats_dpsgd(self, convergence_experiment):
        tuned, runs = convergence_experiment
        acc = {m: [r.rows[-1].train_accuracy for r in runs[m]] for m in runs}
        final_loss_dpsgd = float(np.mean([r.rows[-1].train_loss for r in runs["dpsgd"]]))
        crossings = {
            m: [
                steps_to_target_loss([row.train_loss for row in r.rows], final_loss_dpsgd)
                or 200
                for r in runs[m]
            ]
            for m in runs
        }
        mean_acc = {m: float(np.mean(acc[m])) for m in acc}
        mean_cross = {m: float(np.mean(crossings[m])) for m in crossings}

        # two-sided sign test on paired final accuracies; ties dropped
        wins_dpsgd = sum(1 for a, b in zip(acc["dpsgd"], acc["dpdr"]) if a > b)
        wins_dpdr = sum(1 for a, b in zip(acc["dpsgd"], acc["dpdr"]) if b > a)
        n = wins_dpsgd + wins_dpdr
        if n:
            k = max(wins_dpsgd, wins_dpdr)
            p = min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n)
        else:
            p = 1.0
        dpsgd_significantly_better = p < 0.05 and wins_dpsgd > wins_dpdr

        detail = (
            f"(lr {tuned}; mean acc dpdr={mean_acc['dpdr']:.4f} vs dpsgd={mean_acc['dpsgd']:.4f}; "
            f"mean steps-to-target dpdr={mean_cross['dpdr']:.1f} vs dpsgd={mean_cross['dpsgd']:.1f}; "
            f"sign test p={p:.3f})"
        )
        passed = (
            mean_acc["dpdr"] >= mean_acc["dpsgd"]
            and mean_cross["dpdr"] <= mean_cross["dpsgd"]
            and not dpsgd_significantly_better
        )
        report(7, passed, detail)
        assert mean_acc["dpdr"] >= mean_acc["dpsgd"]
        assert mean_cross["dpdr"] <= mean_cross["dpsgd"]
        assert not dpsgd_significantly_better

    def test_both_methods_spent_their_budget(self, convergence_experiment):
        _, runs = convergence_experiment
        for method in ("dpsgd", "dpdr"):
            for r in runs[method]:
                assert abs(r.rows[-1].eps_cum - 3.0) <= 3.0 * 1.5e-3


class TestCriterion8CoherencePhenomena:
    def test_orthogonal_share_stays_small_early(self, convergence_experiment):
        _, runs = convergence_experiment
        ratios = []
        for r in runs["dpdr"]:
            for row in r.rows[1:50]:  # decomposition phase, steps 2..50
                assert row.grad_norm_median > 0
                ratios.append(row.perp_norm_median / row.grad_norm_median)
        med = float(np.median(ratios))
        report(8, med < 0.9, f"(median per-sample orthogonal share {med:.4f})")
        assert med < 0.9

    def test_staleness_inflates_difference_norm(self):
        model, batch = random_problem(41, batch=1)
        g = join(r[0] for r in sample_rows(backprop(model, batch)))
        out = diff_step(
            model, batch, scale(-1.0, g), 1e9, 0.0, RngStream(0, 1, "noise-g"), batch.size
        )
        ratio = out.metrics.diff_norm_median / out.metrics.grad_norm_median
        report(8, ratio == 2.0, f"(constructed staleness ratio {ratio})")
        assert ratio == 2.0


class TestCriterion9DegenerateSchedule:
    def test_switch_one_is_bitwise_dpsgd(self):
        dataset = gen_synthetic(512, 8, 2, margin=6.0, seed=3, std=0.5)
        shared = dict(total_steps=25, batch=32, lr=0.5, seed=17,
                      clip=ClipSpec(1.0, 0.5, 1.0), noise=NoisePlan(1.1, 1.0, 2.0))
        dpdr = train(TrainConfig(method="dpdr", switch_step=1, **shared), dataset)
        dpsgd = train(TrainConfig(method="dpsgd", **shared), dataset)
        assert dpdr.ledger.events == dpsgd.ledger.events
        assert dpdr.model.params.equals(dpsgd.model.params)
        same_rows = all(
            a.train_loss == b.train_loss
            and a.eps_cum == b.eps_cum
            and a.grad_norm_median == b.grad_norm_median
            for a, b in zip(dpdr.rows, dpsgd.rows)
        )
        report(9, same_rows, "(ledger, updates, and telemetry bit-identical)")
        assert same_rows


def _find_mnist():
    candidates = []
    env = os.environ.get("DPLAB_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data"), Path("data/mnist"), Path("/root/data/mnist")]
    names = [
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
    ]
    for root in candidates:
        for img, lab in names:
            if (root / img).exists() and (root / lab).exists():
                return root / img, root / lab
    return None


class TestCriterion10MnistDeskRun:
    def test_mnist_subset_comparison(self):
        found = _find_mnist()
        if found is None:
            report(10, True, "(SKIPPED: no IDX files; set DPLAB_MNIST_DIR to enable)")
            pytest.skip("MNIST IDX files not present")
        dataset = load_idx_pair(*found, limit=10_000)
        arch = mlp(dataset.d_in, (64,), dataset.n_classes)
        clips = {"dpsgd": ClipSpec(1.0, 1.0, 1.0), "dpdr": ClipSpec(1.0, 0.5, 1.0)}

        def run(method, seed):
            kwargs = dict(
                method=method, total_steps=400, batch=256, lr=0.5, seed=seed,
                clip=clips[method], eps_target=3.0, delta=1e-5, arch=arch,
            )
            if method == "dpdr":
                kwargs["switch_step"] = 50
                kwargs["sigma_alpha"] = 2.0
            return train(TrainConfig(**kwargs), dataset)

        acc = {m: [run(m, s).rows[-1].train_accuracy for s in range(3)] for m in ("dpsgd", "dpdr")}
        mean_dpsgd = float(np.mean(acc["dpsgd"]))
        mean_dpdr = float(np.mean(acc["dpdr"]))
        passed = mean_dpdr >= mean_dpsgd - 0.005 and min(mean_dpdr, mean_dpsgd) > 0.80
        report(10, passed, f"(dpdr {mean_dpdr:.4f} vs dpsgd {mean_dpsgd:.4f})")
        assert mean_dpdr >= mean_dpsgd - 0.005
        assert mean_dpdr > 0.80 and mean_dpsgd > 0.80
