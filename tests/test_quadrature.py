import math

import numpy as np
import pytest
from scipy.special import gamma, log_ndtr

from censlmm.errors import DimensionError, IntegrationError, ModeSearchError
from censlmm.quadrature import START_ORDER, choose_orders, gh_rule, max_order
from oracles import agq_log_integral, find_mode

SQRT_PI = math.sqrt(math.pi)
LOG_2PI = math.log(2.0 * math.pi)


class TestGhRule:
    def test_order_one(self):
        nodes, weights = gh_rule(1)
        assert nodes == pytest.approx([0.0], abs=1e-15)
        assert weights == pytest.approx([SQRT_PI], abs=1e-14)

    def test_order_two_against_polynomial_roots(self):
        # roots of the degree-2 Hermite polynomial 4x^2 - 2, found independently
        roots = np.sort(np.roots([4.0, 0.0, -2.0]))
        nodes, weights = gh_rule(2)
        assert nodes == pytest.approx(roots, abs=1e-12)
        assert weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 10, 30, 64])
    def test_weight_sum_and_symmetry(self, order):
        nodes, weights = gh_rule(order)
        assert weights.sum() == pytest.approx(SQRT_PI, rel=1e-13)
        assert np.all(np.diff(nodes) > 0)
        assert nodes == pytest.approx(-nodes[::-1], abs=1e-12)
        assert weights == pytest.approx(weights[::-1], rel=1e-10)

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_polynomial_exactness(self, order):
        # E[x^{2m} e^{-x^2}] = Gamma(m + 1/2); exact for degrees <= 2*order - 1
        nodes, weights = gh_rule(order)
        for two_m in range(0, 2 * order, 2):
            m = two_m // 2
            quad = float(np.sum(weights * nodes**two_m))
            assert quad == pytest.approx(gamma(m + 0.5), rel=1e-12), f"degree {two_m}"
        # odd powers integrate to zero by symmetry
        for deg in range(1, 2 * order, 2):
            assert float(np.sum(weights * nodes**deg)) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment_any_order(self):
        for order in range(1, 21):
            nodes, weights = gh_rule(order)
            val = float(np.sum(weights * nodes**2))
            if order == 1:
                continue  # single node at 0 cannot see x^2
            assert val == pytest.approx(SQRT_PI / 2, rel=1e-12)

    def test_order_bounds(self):
        with pytest.raises(DimensionError):
            gh_rule(0)
        with pytest.raises(DimensionError):
            gh_rule(65)

    def test_cached_arrays_are_read_only(self):
        # gh_rule is cached, so a caller's write would reach every later caller
        for array in gh_rule(5):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestFindMode:
    def test_standard_kernel(self):
        mode, curv = find_mode(lambda u: -0.5 * u[..., 0] ** 2, [3.0])
        assert mode == pytest.approx([0.0], abs=1e-8)
        assert curv[0, 0] == pytest.approx(-1.0, rel=1e-6)

    def test_shifted_scaled_kernel(self):
        mode, curv = find_mode(lambda u: -((u[..., 0] - 2.0) ** 2) / (2 * 0.25), [0.0])
        assert mode == pytest.approx([2.0], abs=1e-8)
        assert curv[0, 0] == pytest.approx(-4.0, rel=1e-6)

    def test_two_dimensional(self):
        prec = np.array([[2.0, 0.5], [0.5, 1.0]])
        center = np.array([1.0, -2.0])

        def logf(u):
            d = u - center
            return -0.5 * np.einsum("...i,ij,...j->...", d, prec, d)

        mode, curv = find_mode(logf, [0.0, 0.0])
        assert mode == pytest.approx(center, abs=1e-7)
        assert curv == pytest.approx(-prec, rel=1e-5, abs=1e-7)

    def test_censored_style_integrand_against_grid(self):
        # Gaussian prior times one probit factor; oracle = dense-grid argmax
        def logf(u):
            return -0.5 * u[..., 0] ** 2 + log_ndtr(1.2 - 0.8 * u[..., 0])

        xs = np.linspace(-6, 6, 1_200_001)
        vals = -0.5 * xs**2 + log_ndtr(1.2 - 0.8 * xs)
        oracle = xs[np.argmax(vals)]
        mode, _ = find_mode(logf, [0.5])
        assert mode[0] == pytest.approx(oracle, abs=1e-4)

    def test_nonfinite_start(self):
        with pytest.raises(ModeSearchError):
            find_mode(lambda u: np.where(np.abs(u[..., 0]) < 10, -np.inf, -1.0), [0.0])


def gaussian_logpdf_1d(mu, sigma):
    def logf(u):
        return -0.5 * ((u[..., 0] - mu) / sigma) ** 2 - 0.5 * LOG_2PI - math.log(sigma)

    return logf


class TestAgqLogIntegral:
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 10, 20])
    def test_standard_normal_exact(self, order):
        val = agq_log_integral(gaussian_logpdf_1d(0.0, 1.0), 1, order, [0.7])
        assert abs(val) <= 1e-10

    @pytest.mark.parametrize("mu,sigma", [(5.0, 0.001), (-3.0, 100.0), (2.0, 0.25)])
    def test_location_scale_absorbed(self, mu, sigma):
        val = agq_log_integral(gaussian_logpdf_1d(mu, sigma), 1, 1, [mu + 0.3 * sigma])
        assert abs(val) <= 1e-10

    def test_multivariate_gaussian_exact(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        prec = np.linalg.inv(cov)
        logdet = math.log(np.linalg.det(cov))
        center = np.array([1.0, -2.0])

        def logf(u):
            d = u - center
            return -0.5 * np.einsum("...i,ij,...j->...", d, prec, d) - 0.5 * logdet - LOG_2PI

        for order in (1, 3, 10):
            assert abs(agq_log_integral(logf, 2, order, [0.0, 0.0])) <= 1e-10

    def _probit_integrand(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        prec = np.linalg.inv(cov)
        logdet = math.log(np.linalg.det(cov))

        def logf(u):
            quad = -0.5 * np.einsum("...i,ij,...j->...", u, prec, u) - 0.5 * logdet - LOG_2PI
            return quad + log_ndtr(1.5 - u[..., 0] - 0.5 * u[..., 1])

        return logf

    def _dense_oracle(self, logf, half_width=9.0, n=1200):
        xs = np.linspace(-half_width, half_width, n)
        grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([grid_x.ravel(), grid_y.ravel()], axis=-1)
        vals = np.exp(logf(pts)).reshape(n, n)
        dx = xs[1] - xs[0]
        return math.log(np.trapezoid(np.trapezoid(vals, dx=dx, axis=1), dx=dx))

    def test_probit_factor_against_dense_grid(self):
        logf = self._probit_integrand()
        oracle = self._dense_oracle(logf)
        for order in (10, 16):
            val = agq_log_integral(logf, 2, order, [0.0, 0.0])
            assert val == pytest.approx(oracle, abs=1e-6), f"order {order}"

    def test_error_shrinks_with_order(self):
        logf = self._probit_integrand()
        oracle = self._dense_oracle(logf)
        errors = [abs(agq_log_integral(logf, 2, order, [0.0, 0.0]) - oracle)
                  for order in (3, 5, 10, 20)]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), errors

    def test_one_dim_probit_against_dense_grid(self):
        def logf(u):
            return (-0.5 * u[..., 0] ** 2 - 0.5 * LOG_2PI
                    + log_ndtr(0.4 - 1.3 * u[..., 0]))

        xs = np.linspace(-9, 9, 200_001)
        vals = np.exp(-0.5 * xs**2 - 0.5 * LOG_2PI + log_ndtr(0.4 - 1.3 * xs))
        oracle = math.log(np.trapezoid(vals, dx=xs[1] - xs[0]))
        assert agq_log_integral(logf, 1, 10, [0.0]) == pytest.approx(oracle, abs=1e-6)

    def test_affine_invariance(self):
        logf = self._probit_integrand()
        scale = np.array([[1.4, 0.0], [-0.3, 0.7]])
        shift = np.array([0.4, -0.2])
        logjac = math.log(abs(np.linalg.det(scale)))

        def mapped(v):
            return logf(v @ scale.T + shift)

        base = agq_log_integral(logf, 2, 12, [0.0, 0.0])
        new_start = np.linalg.solve(scale, np.array([0.0, 0.0]) - shift)
        other = agq_log_integral(mapped, 2, 12, new_start) + logjac
        assert other == pytest.approx(base, abs=1e-8)

    def test_order_one_is_laplace(self):
        logf = self._probit_integrand()
        mode, hess = find_mode(logf, [0.0, 0.0])
        f_mode = float(np.asarray(logf(mode[None, :]))[0])
        laplace = f_mode + LOG_2PI - 0.5 * math.log(np.linalg.det(-hess))
        assert agq_log_integral(logf, 2, 1, [0.0, 0.0]) == pytest.approx(laplace, abs=1e-9)

    def test_nonfinite_node_error(self):
        def logf(u):
            x = u[..., 0]
            return np.where(np.abs(x) > 2.0, np.nan, -0.5 * x * x)

        with pytest.raises(IntegrationError):
            agq_log_integral(logf, 1, 30, [0.0])

    def test_dimension_guards(self):
        with pytest.raises(DimensionError):
            agq_log_integral(gaussian_logpdf_1d(0, 1), 5, 10, np.zeros(5))
        with pytest.raises(DimensionError):
            agq_log_integral(gaussian_logpdf_1d(0, 1), 1, 10, np.zeros(2))


class TestChooseOrder:
    @staticmethod
    def rule(values, qtol=1e-6, max_order=64, count=None):
        """choose_orders on ``values[order][subject]``, with the (order, subjects) of each call."""
        seen = []
        n = len(next(iter(values.values())))

        def evaluate(order, subjects):
            seen.append((order, subjects.tolist()))
            return np.asarray(values[order], dtype=float)[subjects]

        count = np.ones(n) if count is None else np.asarray(count, dtype=float)
        orders, picked = choose_orders(evaluate, count, qtol, max_order)
        return orders.tolist(), picked.tolist(), seen

    def test_stops_at_agreement(self):
        values = {10: [1.00], 20: [1.10], 40: [1.10 + 1e-9]}
        assert self.rule(values, max_order=40)[:2] == ([40], [1.10 + 1e-9])

    def test_caps_at_max_order(self):
        values = {k: [float(k)] for k in (10, 20, 40)}
        assert self.rule(values, max_order=40)[:2] == ([40], [40.0])

    def test_cap_evaluated_when_doubling_overshoots(self):
        values = {k: [float(k)] for k in (10, 20, 40, 64)}
        orders, picked, seen = self.rule(values)
        assert (orders, picked) == ([64], [64.0])
        assert [order for order, _ in seen] == [10, 20, 40, 64]

    def test_start_clamped_to_cap(self):
        # a cap below START_ORDER: the rule evaluates the cap only
        assert self.rule({5: [5.0]}, max_order=5) == ([5], [5.0], [(5, [0])])

    def test_each_subject_stops_at_its_own_order(self):
        # subject 0 settles from 10 to 20, subject 2 from 20 to 40, and
        # subject 1 never: only it goes on to the cap
        values = {10: [1.0, 2.0, 3.0], 20: [1.0 + 1e-8, 2.5, 3.5],
                  40: [9.0, 2.7, 3.5 + 1e-8], 64: [9.0, 2.8, 9.0]}
        orders, picked, seen = self.rule(values)
        assert orders == [20, 64, 40]
        assert picked == [1.0 + 1e-8, 2.8, 3.5 + 1e-8]
        assert seen == [(10, [0, 1, 2]), (20, [0, 1, 2]), (40, [1, 2]), (64, [1])]

    def test_the_changes_share_one_budget(self):
        # changes of 1, 2, 3 and 5 (x 1e-7) from 10 to 20: in ascending order
        # the first three sum to 6e-7 < 1e-6, the fourth would reach 1.1e-6;
        # from 20 to 40 its change of 3e-7 still fits beside the 6e-7
        values = {10: [0.0, 0.0, 0.0, 0.0], 20: [3e-7, -1e-7, 5e-7, 2e-7],
                  40: [0.0, 0.0, 0.0 + 8e-7, 0.0]}
        orders, picked, _ = self.rule(values, max_order=40)
        assert orders == [20, 20, 40, 20]
        assert picked == [3e-7, -1e-7, 8e-7, 2e-7]
        # a count weights its subject's change: subject 0's doubled 6e-7 now
        # ranks after subject 2's 5e-7, and with it the sum would reach 1.4e-6
        orders, _, _ = self.rule(values, max_order=40, count=[2, 1, 1, 1])
        assert orders == [40, 20, 20, 20]

    def test_subjects_that_fit_together_stop_at_once(self):
        # their changes cancel in the total, but not in the sum of their sizes
        values = {10: [0.0, 0.0], 20: [4e-7, -4e-7], 40: [9.0, 9.0]}
        assert self.rule(values, max_order=40)[0] == [20, 20]
        # 8e-7 in all: a tighter qtol stops only the first of the two equal changes
        assert self.rule(values, qtol=5e-7, max_order=40)[0] == [20, 40]

    def test_cap_table(self):
        assert [max_order(q) for q in (1, 2, 3, 4)] == [64, 64, 40, 20]
        assert START_ORDER == 10
