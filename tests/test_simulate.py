import math

import numpy as np
import pytest
from scipy.special import ndtri

from censlmm.data import bivariate_model
from censlmm.likelihood import Theta
from censlmm.simulate import SimConfig, calibrate_threshold, default_truth, simulate


class TestSimulate:
    def test_degenerate_noise_is_deterministic_line(self):
        truth = Theta([3.0, 0.5], np.zeros((2, 2)), [0.0])
        d = simulate(SimConfig(n_subjects=3, n_per_subject=4, truth=truth,
                               threshold=-1e10, seed=1))
        for s in d.subjects:
            for o in s.observations:
                assert o.response == pytest.approx(3.0 + 0.5 * o.time, abs=1e-12)

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n_subjects=10, n_per_subject=5, truth=default_truth(),
                        target_censoring=0.15, seed=99)
        d1, d2 = simulate(cfg), simulate(cfg)
        for s1, s2 in zip(d1.subjects, d2.subjects):
            for o1, o2 in zip(s1.observations, s2.observations):
                assert o1.response == o2.response
                assert o1.is_observed == o2.is_observed

    def test_different_seed_differs(self):
        base = dict(n_subjects=10, n_per_subject=5, truth=default_truth(),
                    target_censoring=0.15)
        d1 = simulate(SimConfig(seed=1, **base))
        d2 = simulate(SimConfig(seed=2, **base))
        r1 = [o.response for s in d1.subjects for o in s.observations]
        r2 = [o.response for s in d2.subjects for o in s.observations]
        assert r1 != r2

    def test_censoring_flags_match_latent(self):
        cfg = SimConfig(n_subjects=20, n_per_subject=5, truth=default_truth(),
                        threshold=2.8, seed=5)
        d, latent = simulate(cfg, return_latent=True)
        flat = [o for s in d.subjects for o in s.observations]
        assert len(flat) == latent.shape[0]
        for obs, lat in zip(flat, latent):
            if obs.is_observed:
                assert lat >= 2.8
                assert obs.response == lat
            else:
                assert lat < 2.8
                assert obs.response == 2.8  # placeholder stores the limit

    def test_censored_placeholder_and_threshold(self):
        d = simulate(SimConfig(n_subjects=30, n_per_subject=5, truth=default_truth(),
                               target_censoring=0.3, seed=6))
        assert d.n_censored > 0
        for s in d.subjects:
            for o in s.observations:
                assert math.isfinite(o.threshold)
                if not o.is_observed:
                    assert o.response == o.threshold

    def test_empirical_moments_large_sample(self):
        truth = default_truth()
        d = simulate(SimConfig(n_subjects=5000, n_per_subject=5, truth=truth,
                               threshold=-1e10, seed=7))
        t0 = np.array([s.observations[0].response for s in d.subjects])
        # grand mean at t=0 estimates the intercept; 3 MC SEs of tolerance
        se0 = math.sqrt(0.7 / 5000)
        assert t0.mean() == pytest.approx(3.0, abs=3 * se0)
        slopes = []
        times = np.arange(5.0)
        xt = times - times.mean()
        for s in d.subjects:
            ys = np.array([o.response for o in s.observations])
            slopes.append(float(xt @ ys / (xt @ xt)))
        slopes = np.array(slopes)
        assert slopes.mean() == pytest.approx(0.5, abs=3 * slopes.std() / math.sqrt(5000))

    def test_requires_exactly_one_limit_spec(self):
        with pytest.raises(ValueError):
            SimConfig(n_subjects=2, n_per_subject=2, truth=default_truth(), seed=0)
        with pytest.raises(ValueError):
            SimConfig(n_subjects=2, n_per_subject=2, truth=default_truth(),
                      threshold=1.0, target_censoring=0.2, seed=0)

    def test_bivariate_rows_per_marker(self):
        spec = bivariate_model()
        g = np.diag([0.5, 0.1, 0.5, 0.1]).astype(float)
        truth = Theta.from_moments([3.0, 0.5, 2.5, 0.3], g, [0.45, 0.45])
        d = simulate(SimConfig(n_subjects=4, n_per_subject=3, truth=truth,
                               threshold=-1e10, seed=8, model=spec))
        assert d.n_rows == 4 * 3 * 2
        markers = {o.marker for s in d.subjects for o in s.observations}
        assert markers == {1, 2}


class TestCalibrateThreshold:
    def test_median_single_time(self):
        truth = default_truth()
        c = calibrate_threshold(truth, [2.0], 0.5)
        assert c == pytest.approx(3.0 + 0.5 * 2.0, abs=1e-8)

    def test_tiny_target_goes_into_deep_tail(self):
        truth = default_truth()
        c = calibrate_threshold(truth, [0.0], 1e-9)
        # at t = 0 the marginal response is N(3, 0.7); ndtri(1e-9) = -5.9978
        assert c == pytest.approx(3.0 + ndtri(1e-9) * math.sqrt(0.7), abs=1e-8)

    def test_target_beyond_bracket_rejected(self):
        # the root of 1e-300 for N(3, 0.7) is -27.996, far below the 10-SD bracket
        with pytest.raises(ValueError, match="outside"):
            calibrate_threshold(default_truth(), [0.0], 1e-300)

    def test_monte_carlo_agreement(self):
        truth = default_truth()
        times = np.arange(5.0)
        c = calibrate_threshold(truth, times, 0.152)
        rng = np.random.default_rng(77)
        g = truth.g_matrix()
        n = 200_000
        gam = rng.multivariate_normal([0, 0], g, size=n)
        eps = rng.normal(0.0, math.sqrt(0.2), size=(n, 5))
        ys = 3.0 + gam[:, [0]] + (0.5 + gam[:, [1]]) * times + eps
        frac = float(np.mean(ys < c))
        assert frac == pytest.approx(0.152, abs=0.003)

    def test_realized_fraction_over_replicates(self):
        truth = default_truth()
        fractions = []
        for rep in range(100):
            d = simulate(SimConfig(n_subjects=50, n_per_subject=5, truth=truth,
                                   target_censoring=0.152, seed=1000 + rep))
            fractions.append(d.n_censored / d.n_rows)
        assert float(np.mean(fractions)) == pytest.approx(0.152, abs=0.03)

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            calibrate_threshold(default_truth(), [0.0], 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold(default_truth(), [0.0], 1.0)
