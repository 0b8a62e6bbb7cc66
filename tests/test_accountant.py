import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dplab import (
    CalibrationInfeasible,
    ContractViolation,
    PrivacyLedger,
    ReleaseEvent,
    calibrate_sigma,
    effective_sigma,
    privacy_schedule,
    rdp_subsampled_gaussian,
    release_sigma,
    schedule_ledger,
)
from dplab import accountant
from dplab.accountant import CALIBRATION_MAX_ITER, DEFAULT_ORDERS
from dplab.errors import CalibrationError
from tests.conftest import eager_ledger, rdp_grid_uncached, rdp_loop


def rdp_oracle(q, sigma, order):
    """Independent direct evaluation of the binomial sum, in exact arithmetic."""
    from mpmath import mp, mpf

    mp.dps = 50
    q, sigma = mpf(q), mpf(sigma)
    total = mpf(0)
    for k in range(order + 1):
        total += (
            math.comb(order, k)
            * (1 - q) ** (order - k)
            * q**k
            * mp.exp(k * (k - 1) / (2 * sigma**2))
        )
    return float(mp.log(total) / (order - 1))


def improved_eps(rdp, order, delta):
    """Balle et al. 2020 (Thm 21) conversion of RDP at one order, written out."""
    return rdp + math.log((order - 1) / order) - (math.log(delta) + math.log(order)) / (order - 1)


def classic_eps(ledger):
    """The classic conversion min_lambda RDP(lambda) + log(1/delta)/(lambda-1)."""
    orders = np.array(ledger.orders, dtype=np.float64)
    return float(np.min(ledger.rdp_values() + math.log(1.0 / ledger.delta) / (orders - 1)))


def spy_curve_counts(monkeypatch):
    """The ``count`` of every ``_rdp_vector`` call from here on."""
    counts = []
    rdp_vector = accountant._rdp_vector

    def spy(q, sigma, count=len(DEFAULT_ORDERS)):
        counts.append(count)
        return rdp_vector(q, sigma, count)

    monkeypatch.setattr(accountant, "_rdp_vector", spy)
    return counts


class TestRdpSubsampledGaussian:
    def test_q_zero_releases_nothing(self):
        assert rdp_subsampled_gaussian(0.0, 1.0, 8) == 0.0

    def test_q_one_gaussian_closed_form(self):
        assert rdp_subsampled_gaussian(1.0, 1.0, 4) == 2.0
        for order in (2, 17, 256):
            assert rdp_subsampled_gaussian(1.0, 0.5, order) == order / (2 * 0.25)

    def test_small_q_against_three_term_oracle(self):
        got = rdp_subsampled_gaussian(0.01, 1.0, 2)
        oracle = math.log(0.99**2 + 2 * 0.01 * 0.99 + 0.01**2 * math.e) / 1
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.7181e-4, rel=1e-3)

    def test_matches_oracle_on_grid(self):
        for q in (0.001, 0.02, 0.3):
            for sigma in (0.6, 1.0, 4.0):
                for order in (2, 3, 7, 32):
                    assert rdp_subsampled_gaussian(q, sigma, order) == pytest.approx(
                        rdp_oracle(q, sigma, order), rel=1e-11
                    )

    def test_monotone_in_q(self):
        values = [rdp_subsampled_gaussian(q, 1.0, 8) for q in (0.0, 0.01, 0.1, 0.5, 1.0)]
        assert values == sorted(values)

    def test_monotone_in_order(self):
        values = [rdp_subsampled_gaussian(0.01, 1.0, o) for o in (2, 4, 8, 64, 256)]
        assert values == sorted(values)

    def test_antitone_in_sigma(self):
        values = [rdp_subsampled_gaussian(0.01, s, 8) for s in (0.5, 1.0, 2.0, 8.0)]
        assert values == sorted(values, reverse=True)

    def test_subsampling_amplifies(self):
        for q in (0.001, 0.1, 0.9):
            assert rdp_subsampled_gaussian(q, 1.0, 16) <= rdp_subsampled_gaussian(1.0, 1.0, 16)

    # 1e-170: every order is inf; 1e-153: orders >= 20 are inf
    @pytest.mark.parametrize("q", [0.0, 1.0, 1e-4, 256 / 60000, 0.3, 0.99])
    @pytest.mark.parametrize("sigma", [1e-170, 1e-153, 0.5, 1.0, 50.0])
    def test_equals_full_curve_at_every_order(self, q, sigma):
        full = accountant._rdp_vector(q, sigma)
        for order in DEFAULT_ORDERS:
            got = rdp_subsampled_gaussian(q, sigma, order)
            assert np.float64(got).tobytes() == full[order - 2].tobytes(), order

    def test_evaluates_only_orders_up_to_its_own(self, monkeypatch):
        counts = spy_curve_counts(monkeypatch)
        for order in (2, 7, 256):
            rdp_subsampled_gaussian(0.01, 1.0, order)
        assert counts == [1, 6, 255]

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            rdp_subsampled_gaussian(-0.1, 1.0, 2)
        with pytest.raises(ContractViolation):
            rdp_subsampled_gaussian(1.1, 1.0, 2)
        with pytest.raises(ContractViolation):
            rdp_subsampled_gaussian(0.1, 0.0, 2)
        with pytest.raises(ContractViolation):
            rdp_subsampled_gaussian(0.1, 1.0, 1)
        with pytest.raises(ContractViolation):
            rdp_subsampled_gaussian(0.1, 1.0, 2.5)


def loop_curve(q, sigma):
    return np.array([rdp_loop(q, sigma, order) for order in DEFAULT_ORDERS])


class TestGridCurve:
    """The curve the ledger uses, evaluated on the one (order, k) grid,
    against the per-order loop of the reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.05, 50.0),
    )
    def test_matches_per_order_loop(self, q, sigma):
        ref = loop_curve(q, sigma)
        curve = accountant._rdp_vector(q, sigma)
        assert np.array_equal(np.isinf(curve), np.isinf(ref))
        assert np.all(curve >= 0.0)
        # the terms are the loop's bit for bit; only the order of the sum
        # differs. Where log_total = peak + log(sum) cancels to near 0 the
        # two sums may round it apart by a few ulp of 1, hence the absolute
        # share of 16 eps / (order - 1)
        orders = np.array(DEFAULT_ORDERS, dtype=np.float64)
        finite = np.isfinite(ref)
        slack = 1e-12 * ref + 16 * np.finfo(np.float64).eps / (orders - 1)
        assert np.all(np.abs(curve[finite] - ref[finite]) <= slack[finite])

    def test_q_zero_and_q_one_exact(self):
        for sigma in (0.05, 0.5, 1.0, 3.7, 50.0):
            for q in (0.0, 1.0):
                assert np.array_equal(accountant._rdp_vector(q, sigma), loop_curve(q, sigma))

    # 2 sigma^2 = 2e-306: k(k-1) / (2 sigma^2) overflows from k = 20 on, so
    # orders >= 20 are inf; at 1e-170, 2 sigma^2 underflows to 0 and every
    # order is inf
    @pytest.mark.parametrize("sigma, first_inf", [(1e-153, 20), (1e-170, 2)])
    def test_tiny_sigma_reaches_inf_without_warning(self, sigma, first_inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = accountant._rdp_vector(0.3, sigma)
        with np.errstate(all="ignore"):
            ref = loop_curve(0.3, sigma)
        orders = np.array(DEFAULT_ORDERS)
        assert np.array_equal(np.isinf(curve), orders >= first_inf)
        assert np.array_equal(np.isinf(ref), orders >= first_inf)
        finite = orders < first_inf
        np.testing.assert_allclose(curve[finite], ref[finite], rtol=1e-12)


class TestSigmaFreeCache:
    """The sigma-free grid terms are built for the rows a prefix reads and
    cached per q; the rows and curves stay the ones built from the full
    grid's fresh terms, bit for bit."""

    QS = (1e-4, 256 / 60000, 256 / 10000, 0.5, 0.99)
    # 1e-170: 2 sigma^2 underflows to 0 and every order is inf; 1e-153:
    # orders >= 20 overflow to inf
    SIGMAS = (1e-170, 1e-153, 1e-3, 0.05, 0.3, 0.9326171875, 1.0, 2.0, 7.5, 50.0)

    def test_matches_uncached_formula_bit_for_bit(self):
        # the first sigma at each q fills the cache, the others read it
        accountant._sigma_free_terms.cache_clear()
        for q in self.QS:
            for sigma in self.SIGMAS:
                curve = accountant._rdp_vector(q, sigma)
                assert curve.tobytes() == rdp_grid_uncached(q, sigma).tobytes(), (q, sigma)
        assert accountant._sigma_free_terms.cache_info().hits == len(self.QS) * (len(self.SIGMAS) - 1)
        assert np.isinf(accountant._rdp_vector(0.5, 1e-170)).all()

    @pytest.mark.parametrize("q", QS)
    def test_prefix_rows_are_the_full_grids_bit_for_bit(self, q):
        full = accountant._sigma_free_terms(q)
        for count in (1, 16, 32, 64, 128, 200):
            assert accountant._sigma_free_terms(q, count).tobytes() == full[:count].tobytes()

    def test_cached_terms_are_read_only(self):
        terms = accountant._sigma_free_terms(0.5)
        assert terms is accountant._sigma_free_terms(0.5)
        with pytest.raises(ValueError, match="read-only"):
            terms[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            terms += 1.0


class TestEffectiveSigma:
    def test_symmetric_case_exact(self):
        for sigma in (0.3, 1.0, 2.7):
            assert effective_sigma(sigma, sigma) == sigma / math.sqrt(2)

    def test_limit_large_alpha_noise(self):
        assert effective_sigma(0.84, 1e9) == pytest.approx(0.84, abs=1e-6)

    def test_reference_row(self):
        oracle = 1.0 / math.sqrt(1 / 0.84**2 + 1 / 3.0**2)
        got = effective_sigma(0.84, 3.0)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(0.8089, abs=5e-5)

    def test_never_exceeds_either_input(self):
        assert effective_sigma(0.5, 2.0) <= 0.5
        assert effective_sigma(2.0, 0.5) <= 0.5

    def test_nonpositive_rejected(self):
        with pytest.raises(ContractViolation):
            effective_sigma(0.0, 1.0)
        with pytest.raises(ContractViolation):
            effective_sigma(1.0, -2.0)


class TestReleaseSigma:
    @pytest.mark.parametrize("role", ["GDR", "Dpsgd", "", "sgd", None])
    def test_unknown_role_rejected(self, role):
        # an unknown role was accounted at sigma_g: "GDR" gave eps 4.1117 at
        # order 5 where "gdr" gives 5.1786 at order 4
        with pytest.raises(ContractViolation, match="unknown schedule role"):
            release_sigma(role, 1.0, 1.0, 2.0)
        with pytest.raises(ContractViolation, match="unknown schedule role"):
            schedule_ledger([(0.05, 100, role)], 1e-5, 1.0, 2.0, 1.0)

    def test_gdr_reference_value(self):
        eps, order = schedule_ledger([(0.05, 100, "gdr")], 1e-5, 1.0, 2.0, 1.0).epsilon()
        assert eps == pytest.approx(5.1786, abs=5e-5)
        assert order == 4


class TestLedger:
    def test_single_event_scan_oracle(self):
        led = PrivacyLedger(1e-5)
        led.append(ReleaseEvent(1.0, 1.0, 1))
        eps, order = led.epsilon()
        oracle = min((improved_eps(o / 2, o, 1e-5), o) for o in DEFAULT_ORDERS)
        assert eps == pytest.approx(oracle[0], rel=1e-12)
        assert order == oracle[1] == 5
        closed_form = 2.5 + math.log(4 / 5) - (math.log(1e-5) + math.log(5)) / 4
        assert eps == pytest.approx(closed_form, rel=1e-12)
        assert eps == pytest.approx(4.7527283, abs=1e-7)

    def test_two_events_equal_doubled_steps(self):
        a = PrivacyLedger(1e-5)
        a.append(ReleaseEvent(0.01, 1.1, 5))
        a.append(ReleaseEvent(0.01, 1.1, 5))
        b = PrivacyLedger(1e-5)
        b.append(ReleaseEvent(0.01, 1.1, 10))
        assert a.epsilon()[0] == pytest.approx(b.epsilon()[0], rel=1e-12)

    def test_eps_strictly_increases_with_steps(self):
        values = []
        for steps in (1, 10, 100, 1000):
            led = PrivacyLedger(1e-5)
            led.append(ReleaseEvent(0.02, 1.0, steps))
            values.append(led.epsilon()[0])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_append_q_zero_changes_nothing(self):
        led = PrivacyLedger(1e-5)
        led.append(ReleaseEvent(0.05, 1.0, 7))
        before = led.epsilon()[0]
        led.append(ReleaseEvent(0.0, 1.0, 100))
        assert led.epsilon()[0] == before

    def test_append_order_commutes(self):
        events = [ReleaseEvent(0.01, 0.9, 3), ReleaseEvent(0.5, 2.0, 1), ReleaseEvent(0.1, 1.3, 8)]
        a = PrivacyLedger(1e-5)
        for e in events:
            a.append(e)
        b = PrivacyLedger(1e-5)
        for e in reversed(events):
            b.append(e)
        assert a.epsilon()[0] == pytest.approx(b.epsilon()[0], rel=1e-12)

    def test_hundred_singles_equal_one_hundredfold(self):
        a = PrivacyLedger(1e-5)
        for _ in range(100):
            a.append(ReleaseEvent(0.01, 1.0, 1))
        b = PrivacyLedger(1e-5)
        b.append(ReleaseEvent(0.01, 1.0, 100))
        assert a.epsilon()[0] == pytest.approx(b.epsilon()[0], rel=1e-12)

    def test_accumulated_rdp_is_sum_of_event_rdp(self):
        led = PrivacyLedger(1e-5)
        events = [ReleaseEvent(0.01, 0.9, 3), ReleaseEvent(0.1, 1.3, 8)]
        for e in events:
            led.append(e)
        for idx, order in enumerate(led.orders):
            expected = sum(
                e.steps * rdp_subsampled_gaussian(e.q, e.sigma_eff, order) for e in events
            )
            assert led.rdp_values()[idx] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_monotone_under_append(self):
        led = PrivacyLedger(1e-5)
        led.append(ReleaseEvent(0.01, 1.0, 10))
        before = led.epsilon()[0]
        led.append(ReleaseEvent(0.02, 0.8, 1))
        assert led.epsilon()[0] >= before

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.3, 50.0), st.integers(1, 5000)),
            min_size=1,
            max_size=4,
        ),
        st.floats(1e-12, 1.0, exclude_max=True),
    )
    def test_nonnegative_and_never_looser_than_classic(self, events, delta):
        led = PrivacyLedger(delta)
        for q, sigma, steps in events:
            led.append(ReleaseEvent(q, sigma, steps))
        eps, _ = led.epsilon()
        assert 0.0 <= eps <= classic_eps(led)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ContractViolation):
            PrivacyLedger(1e-5).epsilon()

    def test_event_validation(self):
        with pytest.raises(ContractViolation):
            ReleaseEvent(-0.1, 1.0, 1)
        with pytest.raises(ContractViolation):
            ReleaseEvent(0.1, 0.0, 1)
        with pytest.raises(ContractViolation):
            ReleaseEvent(0.1, 1.0, 0)
        with pytest.raises(ContractViolation):
            PrivacyLedger(0.0)


_Q = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
)
_EVENTS = st.lists(
    st.builds(ReleaseEvent, _Q, st.floats(1e-170, 1e3), st.integers(1, 10_000)),
    min_size=1,
    max_size=5,
)


class TestOrderPrefix:
    """The ledger evaluates a growing prefix of the orders; every answer is
    the eager full-grid ledger's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_EVENTS, st.floats(1e-12, 0.5), st.integers(1, len(DEFAULT_ORDERS)))
    # steps times a finite curve overflows to inf: past the first prefix
    # (on growth), and within it (on append)
    @example([ReleaseEvent(1.0, 7.86e-153, 87)], 1e-5, 1)
    @example([ReleaseEvent(1.0, 7.86e-153, 10_000)], 1e-5, 1)
    def test_matches_eager_full_grid_ledger(self, events, delta, count):
        led = PrivacyLedger(delta)
        for e in events:
            led.append(e)
        rdp, eps, order = eager_ledger(events, delta)
        got = led.epsilon()
        assert np.float64(got[0]).tobytes() == np.float64(eps).tobytes()
        assert got[1] == order
        assert led.rdp_values().tobytes() == rdp.tobytes()
        # the same answer once every order is evaluated
        assert led.epsilon() == got
        orders = np.array(DEFAULT_ORDERS, dtype=np.float64)
        for e in events:
            full = accountant._rdp_vector(e.q, e.sigma_eff)
            prefix = accountant._rdp_vector(e.q, e.sigma_eff, count)
            assert prefix.tobytes() == full[:count].tobytes()
            # nondecreasing in the order, up to the log-sum-exp's rounding
            # residue: where the RDP lies below an ulp of 1 (q near 1e-18)
            # the computed curve may fall by a few ulp of 1 over (order - 1)
            slack = 16 * np.finfo(np.float64).eps / (orders[:-1] - 1.0)
            assert np.all(full[1:] >= full[:-1] - slack)

    def test_curves_nondecreasing_on_shipped_scales(self):
        for q in (256 / 60000, 256 / 10000, 128 / 4096, 0.05, 1.0):
            for sigma in np.geomspace(0.3, 50.0, 40):
                curve = accountant._rdp_vector(q, float(sigma))
                assert np.all(curve[1:] >= curve[:-1])

    def test_all_q_zero_grows_to_full_grid(self, monkeypatch):
        counts = spy_curve_counts(monkeypatch)
        events = [ReleaseEvent(0.0, 1.0, 10), ReleaseEvent(0.0, 3.0, 5)]
        led = PrivacyLedger(1e-5)
        for e in events:
            led.append(e)
        got = led.epsilon()
        assert counts == [16, 16, 32, 32, 64, 64, 128, 128, 255, 255]
        assert got == eager_ledger(events, 1e-5)[1:]
        assert got[1] == 256

    def test_calibrated_schedule_grows_an_intermediate_prefix(self, monkeypatch):
        schedule = [(0.05, 1000, "dpsgd")]
        assert calibrate_sigma(0.5, 1e-5, schedule, 1.0) == (12.203125, 12.203125)
        counts = spy_curve_counts(monkeypatch)
        led = schedule_ledger(schedule, 1e-5, 12.203125, 1.0, 1.0)
        got = led.epsilon()
        assert counts == [16, 32, 64]
        assert got == eager_ledger(led.events, 1e-5)[1:]
        assert got[1] == 32

    def test_shipped_schedule_stays_on_first_prefix(self, monkeypatch):
        counts = spy_curve_counts(monkeypatch)
        led = schedule_ledger(_SHORT_DPDR, 1e-5, 1.0, 2.0, 1.0)
        got = led.epsilon()
        # one curve per distinct (q, sigma): first and dpsgd share sigma_g
        assert counts == [16, 16]
        assert got == eager_ledger(led.events, 1e-5)[1:]

    def test_rounding_residue_falling_with_order(self):
        # q ~ 1e-15: each step's computed curve is rounding residue of about
        # an ulp of 1 over (order - 1), falling with the order; 1e16 steps
        # make the fall larger than a floor margin without a per-step share
        events = [ReleaseEvent(9.740010054467618e-16, 14.580088359672688, 9638406778825612)]
        led = PrivacyLedger(0.015873148181246046)
        led.append(events[0])
        assert led.epsilon() == eager_ledger(events, 0.015873148181246046)[1:] == (0.0, 24)

    def test_replay_follows_append_order_and_skips_append(self, monkeypatch):
        events = [ReleaseEvent(0.0, 1.0, 3), ReleaseEvent(0.01, 0.9, 7), ReleaseEvent(0.0, 2.0, 1)]
        led = PrivacyLedger(1e-5)
        for e in events:
            led.append(e)
        appended = []
        monkeypatch.setattr(PrivacyLedger, "append", lambda self, e: appended.append(e))
        assert led.rdp_values().tobytes() == eager_ledger(events, 1e-5)[0].tobytes()
        assert appended == []
        assert led.events == events


class TestCalibrateSigma:
    def test_round_trip_of_known_epsilon(self):
        target = improved_eps(5 / 2, 5, 1e-5)  # single full-batch Gaussian at sigma=1
        sigma_perp, sigma_g = calibrate_sigma(target, 1e-5, [(1.0, 1, "dpsgd")], 1.0)
        assert sigma_g == pytest.approx(1.0, abs=5e-3)

    def test_round_trip_epsilon(self):
        schedule = [(0.01, 1, "first"), (0.01, 49, "gdr"), (0.01, 450, "dpsgd")]
        for target in (1.0, 3.0, 8.0):
            sigma_perp, sigma_g = calibrate_sigma(target, 1e-5, schedule, 2.0)
            led = PrivacyLedger(1e-5)
            led.append(ReleaseEvent(0.01, sigma_g, 1))
            led.append(ReleaseEvent(0.01, effective_sigma(sigma_perp, 2.0), 49))
            led.append(ReleaseEvent(0.01, sigma_g, 450))
            assert abs(led.epsilon()[0] - target) <= 1e-3 * target

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.5, 8.0),
        st.sampled_from([128 / 4096, 256 / 10000, 256 / 60000]),
        st.integers(50, 1000),
        st.sampled_from([None, 10, 50]),
        st.sampled_from([2.0, 4.0]),
    )
    def test_never_lands_above_target(self, eps_target, q, total, switch, sigma_alpha):
        # switch None is a dpsgd schedule, else dpdr switching at that step
        method = "dpsgd" if switch is None else "dpdr"
        schedule = privacy_schedule(method, q, total, switch)
        try:
            scale, _ = calibrate_sigma(eps_target, 1e-5, schedule, sigma_alpha)
        except CalibrationInfeasible:
            return  # the alpha channel alone overspends this target
        eps = schedule_ledger(schedule, 1e-5, scale, sigma_alpha, 1.0).epsilon()[0]
        tol = accountant.CALIBRATION_REL_TOL * eps_target
        assert eps_target - tol <= eps <= eps_target

    def test_doubling_target_never_increases_sigma(self):
        schedule = [(0.02, 1, "first"), (0.02, 30, "gdr"), (0.02, 169, "dpsgd")]
        lo, _ = calibrate_sigma(2.0, 1e-5, schedule, 2.0)
        hi, _ = calibrate_sigma(4.0, 1e-5, schedule, 2.0)
        assert hi <= lo

    def test_ratio_binds_sigma_g(self):
        schedule = [(0.01, 100, "dpsgd")]
        sigma_perp, sigma_g = calibrate_sigma(2.0, 1e-5, schedule, 1.0, ratio_g=0.5)
        assert sigma_g == pytest.approx(0.5 * sigma_perp, rel=1e-12)

    def test_infeasible_when_alpha_noise_alone_overspends(self):
        # 2000 gdr steps at sigma_alpha=0.4 spend much more than eps=1 on their own
        schedule = [(0.05, 1, "first"), (0.05, 2000, "gdr")]
        with pytest.raises(CalibrationInfeasible) as err:
            calibrate_sigma(1.0, 1e-5, schedule, 0.4)
        assert err.value.floor_eps > 1.0

    def test_infeasible_below_grid_floor(self):
        floor = math.log(255 / 256) - (math.log(1e-5) + math.log(256)) / 255
        with pytest.raises(CalibrationInfeasible):
            calibrate_sigma(floor * 0.5, 1e-5, [(0.01, 10, "dpsgd")], 1.0)

    def test_degenerate_all_q_zero_schedule_errors(self):
        with pytest.raises(CalibrationError):
            calibrate_sigma(1.0, 1e-5, [(0.0, 10, "dpsgd")], 1.0)

    def test_input_validation(self):
        with pytest.raises(ContractViolation):
            calibrate_sigma(0.0, 1e-5, [(0.01, 1, "dpsgd")], 1.0)
        with pytest.raises(ContractViolation):
            calibrate_sigma(1.0, 1e-5, [], 1.0)
        with pytest.raises(ContractViolation):
            calibrate_sigma(1.0, 1e-5, [(0.01, 1, "bogus")], 1.0)
        with pytest.raises(ContractViolation):
            calibrate_sigma(1.0, 1e-5, [(0.01, 1, "dpsgd")], -1.0)


_REF_SCHEDULE = privacy_schedule("dpdr", 256 / 60000, 20 * math.ceil(60000 / 256), 50)
_SHORT_DPDR = [(0.01, 1, "first"), (0.01, 49, "gdr"), (0.01, 450, "dpsgd")]


def _eps_at(scale, schedule, sigma_alpha, ratio_g=1.0):
    return schedule_ledger(schedule, 1e-5, scale, sigma_alpha, ratio_g).epsilon()[0]


class TestCalibrationPinned:
    """The exact sigma calibrate_sigma returns and how many schedule ledgers
    it evaluates on the way. Scales start at 1, double or halve until the
    target is bracketed, then bisect; every scale on that path is a dyadic
    rational, so these values are exact."""

    @pytest.mark.parametrize(
        "target, schedule, sigma_alpha, ratio_g, expected, evals",
        [
            # scale 1 already meets the target: no further evaluation
            (lambda: _eps_at(1.0, [(1.0, 1, "dpsgd")], 1.0), [(1.0, 1, "dpsgd")],
             1.0, 1.0, (1.0, 1.0), 1),
            # grow path, ending exactly on a doubled scale
            (lambda: _eps_at(2.0, _SHORT_DPDR, 2.0), _SHORT_DPDR, 2.0, 1.0, (2.0, 2.0), 2),
            # shrink path, ending exactly on a halved scale
            (lambda: _eps_at(0.5, _SHORT_DPDR, 2.0), _SHORT_DPDR, 2.0, 1.0, (0.5, 0.5), 2),
            # grow path passing a scale within the tolerance above the target:
            # it is not returned, the doubling goes on and bisection follows
            (lambda: _eps_at(2.0, _SHORT_DPDR, 2.0) / (1 + 5e-4), _SHORT_DPDR, 2.0, 1.0,
             (2.001953125, 2.001953125), 13),
            # shrink path passing a scale within the tolerance below the target
            (lambda: _eps_at(0.5, _SHORT_DPDR, 2.0) / (1 - 5e-4), _SHORT_DPDR, 2.0, 1.0,
             (0.4998779296875, 0.4998779296875), 14),
            # grow over four doublings, then bisect
            (lambda: 0.5, [(0.05, 1000, "dpsgd")], 1.0, 1.0, (12.203125, 12.203125), 14),
            # shrink (the MNIST reference row at eps 3, s=50), then bisect
            (lambda: 3.0, _REF_SCHEDULE, 2.0, 1.0, (0.80712890625, 0.80712890625), 12),
            # shrink twice, then bisect
            (lambda: 30.0, [(0.01, 100, "dpsgd")], 1.0, 1.0,
             (0.3604736328125, 0.3604736328125), 14),
            (lambda: 8.0, _SHORT_DPDR, 2.0, 1.0, (0.5836181640625, 0.5836181640625), 14),
            # ratio_g != 1: grow, then bisect
            (lambda: 2.0, [(0.01, 100, "dpsgd")], 1.0, 0.5, (1.654296875, 0.8271484375), 11),
            (lambda: 3.0, _REF_SCHEDULE, 2.0, 0.7, (1.14794921875, 0.7 * 1.14794921875), 13),
        ],
    )
    def test_exact_sigma_and_evaluations(
        self, monkeypatch, target, schedule, sigma_alpha, ratio_g, expected, evals
    ):
        eps_target = target()
        scales = []

        def spy(schedule, delta, sigma_perp, sigma_alpha, ratio_g):
            scales.append(sigma_perp)
            return schedule_ledger(schedule, delta, sigma_perp, sigma_alpha, ratio_g)

        monkeypatch.setattr(accountant, "schedule_ledger", spy)
        out = calibrate_sigma(eps_target, 1e-5, schedule, sigma_alpha, ratio_g)
        assert out == expected
        assert len(scales) == evals
        assert scales[0] == 1.0 and scales[-1] == out[0]

    def test_error_after_max_iter_evaluations(self, monkeypatch):
        # every q is 0, so eps stays at the conversion floor below the target
        # and the scale halves on every evaluation until the budget runs out
        scales = []

        def spy(*args):
            scales.append(args[2])
            return schedule_ledger(*args)

        monkeypatch.setattr(accountant, "schedule_ledger", spy)
        with pytest.raises(CalibrationError):
            calibrate_sigma(1.0, 1e-5, [(0.0, 10, "dpsgd")], 1.0)
        assert len(scales) == CALIBRATION_MAX_ITER == 200
        assert scales == [0.5**i for i in range(200)]


class TestReferenceRow:
    """MNIST-style multipliers: sigma_perp=0.81, sigma_alpha=2.0, sigma_g=0.803,
    q=256/60000, 20 epochs of 235 steps. The RDP curve is pinned through its
    classic conversion (3.5605 / 3.5853 / 3.6783 for s = 10 / 50 / 200) and
    the ledger's epsilon through the Balle et al. 2020 conversion
    (3.0198 / 3.0446 / 3.1376); both sets of values come from an exact
    high-precision recomputation of the same binomial-sum bound."""

    def test_epsilon_against_exact_recomputation(self):
        q = 256 / 60000
        total = 20 * math.ceil(60000 / 256)
        classic = {10: 3.5605218, 50: 3.5853082, 200: 3.6782574}
        improved = {10: 3.0198483, 50: 3.0446348, 200: 3.1375839}
        for s, value in classic.items():
            led = PrivacyLedger(1e-5)
            led.append(ReleaseEvent(q, 0.803, 1))
            led.append(ReleaseEvent(q, effective_sigma(0.81, 2.0), s - 1))
            led.append(ReleaseEvent(q, 0.803, total - s))
            assert classic_eps(led) == pytest.approx(value, abs=2e-6)
            eps, order = led.epsilon()
            assert eps == pytest.approx(improved[s], abs=2e-6)
            assert order == 6

    def test_early_switch_steps_inside_band(self):
        q = 256 / 60000
        total = 20 * math.ceil(60000 / 256)
        for s in (10, 50):
            led = PrivacyLedger(1e-5)
            led.append(ReleaseEvent(q, 0.803, 1))
            led.append(ReleaseEvent(q, effective_sigma(0.81, 2.0), s - 1))
            led.append(ReleaseEvent(q, 0.803, total - s))
            assert 2.4 <= led.epsilon()[0] <= 3.6
