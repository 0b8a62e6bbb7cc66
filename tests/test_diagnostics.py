import numpy as np
import pytest

from dplab import (
    ContractViolation,
    LayeredVector,
    coherence_stats,
    normalize_base,
    steps_to_target_loss,
)
from tests.conftest import from_blocks, join, random_vector, scale


class TestCoherenceStats:
    def test_identical_vectors(self):
        v = random_vector((4, 3), seed=1)
        assert coherence_stats(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_equal_norm(self):
        a = from_blocks([[1.0, 0.0]])
        b = from_blocks([[0.0, 1.0]])
        assert coherence_stats(a, b) == 0.0

    def test_opposite_vectors(self):
        v = random_vector((5,), seed=2)
        assert coherence_stats(scale(-1.0, v), v) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        v = random_vector((3,), seed=3)
        z = LayeredVector.zeros((3,))
        for pair in ((z, v), (v, z)):
            assert coherence_stats(*pair) == 0.0

    def test_quadratic_descent_has_nonnegative_cosine(self):
        # gradient descent on 0.5*||w - w*||^2: consecutive gradients stay aligned
        target = random_vector((6,), seed=4)
        w = random_vector((6,), seed=5, scale=3.0)
        lr = 0.3
        prev_grad = None
        for _ in range(20):
            grad = join(bw - bt for bw, bt in zip(w.blocks, target.blocks))
            if prev_grad is not None:
                assert coherence_stats(prev_grad, grad) >= 0.0
            w = join(bw - lr * bg for bw, bg in zip(w.blocks, grad.blocks))
            prev_grad = grad


class TestOrthogonalShare:
    def test_coherent_run_keeps_orthogonal_share_small(self):
        # desk-scale decomposition run on a coherent task: the median
        # per-sample orthogonal share over steps 2..50 stays below 0.9
        from dplab import (
            ClipSpec,
            NoisePlan,
            RngStream,
            apply_update,
            backprop,
            gdr_step,
            gen_synthetic,
            init_model,
            logistic_regression,
            poisson_sample,
        )
        from dplab.trainers import dpsgd_step

        ds = gen_synthetic(2048, 50, 2, margin=8.0, seed=0, std=0.5)
        clip = ClipSpec(1.0, 0.5, 1.0)
        noise = NoisePlan(1.0, 1.0, 2.0)
        lr = 0.1
        q = 128 / ds.n  # releases divide by the expected batch size 128, as in train()
        model = init_model(logistic_regression(ds.d_in, ds.n_classes), 0)
        batch = poisson_sample(ds, q, RngStream(0, 1, "batch"))
        first = dpsgd_step(model, batch, clip.c_g, noise.sigma_g, RngStream(0, 1, "noise-g"), 128)
        model = apply_update(model, first.released, lr)
        base = normalize_base(first.released)
        shares = []
        for t in range(2, 51):
            batch = poisson_sample(ds, q, RngStream(0, t, "batch"))
            out = gdr_step(
                model, batch, base, clip, noise,
                RngStream(0, t, "noise-perp"), RngStream(0, t, "noise-alpha"), 128,
            )
            grad_norms = np.sqrt(backprop(model, batch).sq_norms())
            shares.append(float(np.median(out.perp_norms / grad_norms)))
            model = apply_update(model, out.released, lr)
            base = normalize_base(out.released)
        assert float(np.median(shares)) < 0.9


class TestStepsToTargetLoss:
    def test_first_crossing_of_trailing_mean(self):
        losses = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        # trailing-5 means: 1.0, .95, .9, .85, .8, .7, .6
        assert steps_to_target_loss(losses, 0.75) == 6

    def test_prefix_window(self):
        assert steps_to_target_loss([0.1, 2.0, 2.0], 0.5) == 1

    def test_never_crossing(self):
        assert steps_to_target_loss([1.0, 1.0, 1.0], 0.5) is None

    def test_noise_robustness(self):
        # a single dip below target does not count if the trailing mean stays above
        losses = [1.0, 1.0, 1.0, 1.0, 0.1, 1.0, 1.0]
        assert steps_to_target_loss(losses, 0.5) is None
