import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import log_ndtr

from censlmm.errors import DimensionError, NotPositiveDefiniteError
from censlmm.gaussian import (
    MvnProblem,
    _ordered_cholesky,
    _scramble_means,
    log_orthant_probs,
    mvn_logpdf,
    mvn_rect_prob,
    std_normal_cdf,
    std_normal_pdf,
)


def erf_series_cdf(x, terms=120):
    """Independent oracle: Phi via the Taylor series of the error function."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * 2**k * (2 * k + 1))
    return 0.5 + total / math.sqrt(2.0 * math.pi)


class TestScalarNormal:
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_pdf_symmetry(self):
        assert std_normal_pdf(1.0) == std_normal_pdf(-1.0)

    def test_pdf_at_two_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 40
        oracle = float(mpmath.npdf(2))
        assert std_normal_pdf(2.0) == pytest.approx(oracle, abs=1e-12)

    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_limits(self):
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_cdf(math.inf) == 1.0

    def test_cdf_against_erf_series(self):
        assert std_normal_cdf(1.0) == pytest.approx(erf_series_cdf(1.0), abs=1e-12)
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-10)

    def test_cdf_tail_accuracy(self):
        import mpmath

        mpmath.mp.dps = 40
        for x in (-3.0, -1.2, 0.3, 2.5, 4.0):
            assert std_normal_cdf(x) == pytest.approx(float(mpmath.ncdf(x)), abs=1e-12)


class TestMvnLogpdf:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        mean = rng.normal(size=3)
        y = rng.normal(size=3)
        resid = y - mean
        direct = (-0.5 * resid @ np.linalg.solve(cov, resid)
                  - 0.5 * np.linalg.slogdet(cov)[1]
                  - 1.5 * math.log(2 * math.pi))
        assert mvn_logpdf(y, mean, cov) == pytest.approx(direct, abs=1e-12)


def orthant_probability(rho):
    """Closed-form lower orthant probability of a standard bivariate normal."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


class TestRectProb:
    def test_dim1_exact(self):
        res = mvn_rect_prob(MvnProblem(mean=[0.0], cov=[[1.0]], upper=[0.0]))
        assert res.value == 0.5
        assert res.evals == 1

    def test_dim2_independent(self):
        res = mvn_rect_prob(MvnProblem(mean=[0, 0], cov=np.eye(2), upper=[0, 0]))
        assert res.value == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.5, 0.9])
    def test_bivariate_orthant(self, rho):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        res = mvn_rect_prob(MvnProblem(mean=[0, 0], cov=cov, upper=[0, 0]))
        assert res.value == pytest.approx(orthant_probability(rho), abs=1e-6)
        assert res.err_est <= 1e-6

    def test_dim3_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.standard_normal(3)
        upper = mean + rng.standard_normal(3) * np.sqrt(np.diag(cov))
        res = mvn_rect_prob(MvnProblem(mean=mean, cov=cov, upper=upper))
        draws = rng.multivariate_normal(mean, cov, size=1_000_000)
        mc = float(np.mean(np.all(draws <= upper, axis=1)))
        assert res.value == pytest.approx(mc, abs=3e-3)

    def test_log_value_consistent(self):
        res = mvn_rect_prob(MvnProblem(mean=[1.0], cov=[[0.25]], upper=[-2.0]))
        assert res.log_value == pytest.approx(math.log(res.value), rel=1e-10)
        deep = mvn_rect_prob(MvnProblem(mean=[0.0], cov=[[1.0]], upper=[-40.0]))
        assert deep.value == 0.0
        assert deep.log_value < -700  # log_ndtr keeps resolving where value underflows

    def test_reproducible(self):
        problem = MvnProblem(mean=[0, 0, 0], cov=np.eye(3) + 0.3, upper=[0.3, -0.2, 0.5])
        r1 = mvn_rect_prob(problem, seed=7)
        r2 = mvn_rect_prob(problem, seed=7)
        assert r1.value == r2.value

    def test_budget_exhaustion_flag(self):
        cov = np.eye(4) + 0.4 * (np.ones((4, 4)) - np.eye(4))
        problem = MvnProblem(mean=[0, 0, 0, 0], cov=cov, upper=[0, 0, 0, 0],
                             tol=1e-13, rel_tol=1e-13, max_evals=20_000)
        res = mvn_rect_prob(problem)
        assert res.budget_exhausted
        assert 0.0 <= res.value <= 1.0

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            mvn_rect_prob(MvnProblem(mean=np.zeros(11), cov=np.eye(11), upper=np.zeros(11)))

    def test_not_positive_definite(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            mvn_rect_prob(MvnProblem(mean=[0, 0], cov=cov, upper=[0, 0]))

    def test_variance_floor_rejected(self):
        cov = np.diag([1.0, 1e-14])
        with pytest.raises(NotPositiveDefiniteError):
            mvn_rect_prob(MvnProblem(mean=[0, 0], cov=cov, upper=[0, 0]))

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.2], [0.4, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            mvn_rect_prob(MvnProblem(mean=[0, 0], cov=cov, upper=[0, 0]))


class TestRectProbProperties:
    def _random_problem(self, rng, m):
        a = rng.standard_normal((m, m))
        cov = a @ a.T + 0.5 * np.eye(m)
        mean = rng.standard_normal(m)
        upper = mean + rng.uniform(-1.0, 1.5, m) * np.sqrt(np.diag(cov))
        return mean, cov, upper

    def test_monotone_in_upper(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            mean, cov, upper = self._random_problem(rng, m)
            base = mvn_rect_prob(MvnProblem(mean=mean, cov=cov, upper=upper))
            k = int(rng.integers(0, m))
            bumped = upper.copy()
            bumped[k] += 0.5
            more = mvn_rect_prob(MvnProblem(mean=mean, cov=cov, upper=bumped))
            assert more.value >= base.value - 2.0 * (base.err_est + more.err_est)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            mean, cov, upper = self._random_problem(rng, m)
            res = mvn_rect_prob(MvnProblem(mean=mean, cov=cov, upper=upper))
            assert 0.0 <= res.value <= 1.0

    def test_block_independence(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 2))
        c1 = a @ a.T + 0.5 * np.eye(2)
        b = rng.standard_normal((2, 2))
        c2 = b @ b.T + 0.5 * np.eye(2)
        cov = np.block([[c1, np.zeros((2, 2))], [np.zeros((2, 2)), c2]])
        upper = np.array([0.3, -0.1, 0.6, 0.2])
        whole = mvn_rect_prob(MvnProblem(mean=np.zeros(4), cov=cov, upper=upper))
        p1 = mvn_rect_prob(MvnProblem(mean=np.zeros(2), cov=c1, upper=upper[:2]))
        p2 = mvn_rect_prob(MvnProblem(mean=np.zeros(2), cov=c2, upper=upper[2:]))
        combined_err = whole.err_est + p1.err_est + p2.err_est + 1e-8
        assert whole.value == pytest.approx(p1.value * p2.value, abs=5 * combined_err)

    def test_affine_consistency(self):
        rng = np.random.default_rng(14)
        mean, cov, upper = self._random_problem(rng, 3)
        raw = mvn_rect_prob(MvnProblem(mean=mean, cov=cov, upper=upper))
        sds = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sds, sds)
        std = mvn_rect_prob(MvnProblem(mean=np.zeros(3), cov=corr, upper=(upper - mean) / sds))
        assert raw.value == pytest.approx(std.value, abs=3 * (raw.err_est + std.err_est) + 1e-9)

    def test_limit_consistency(self):
        cov = np.eye(2) + 0.3 * (np.ones((2, 2)) - np.eye(2))
        everything = mvn_rect_prob(MvnProblem(mean=[0, 0], cov=cov, upper=[40.0, 40.0]))
        assert everything.value == pytest.approx(1.0, abs=1e-9)
        nothing = mvn_rect_prob(MvnProblem(mean=[0, 0], cov=cov, upper=[-40.0, 3.0]))
        assert nothing.value == pytest.approx(0.0, abs=1e-9)


def corr3(r12, r13, r23):
    return np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])


def log_outer_quad(log_f, slope, end):
    """log of the integral of exp(log_f) over (-inf, end] by adaptive quadrature.

    ``log_f`` is log-concave with derivative ``slope``; it is scaled by its
    maximum, and the range is cut 45 below the maximizer, where the scaled
    integrand is below e^-1000.
    """
    if slope(end) >= 0.0:
        top = end
    else:
        lo = end - 1.0
        while slope(lo) < 0.0:
            lo -= 2.0 * (end - lo)
        top = brentq(slope, lo, end, xtol=1e-14)
    peak = log_f(top)
    steep = max(slope(end), 1e-3)
    points = sorted({p for p in (top, top - 1.0, top - 5.0, top + 0.1, end - 1.0 / steep,
                                 end - 5.0 / steep, end - 20.0 / steep) if top - 45.0 < p < end})
    value, _ = integrate.quad(lambda x: math.exp(log_f(x) - peak), top - 45.0, end,
                              points=points or None, epsabs=0.0, epsrel=1e-13, limit=500)
    return peak + math.log(value)


def log_mills(x):
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi) - float(log_ndtr(x))


def bvn_oracle(b1, b2, rho):
    """log Phi2 by quad of phi(x) Phi((b2 - rho x) / sqrt(1 - rho^2)) over x <= b1."""
    s = math.sqrt(1.0 - rho * rho)
    return log_outer_quad(
        lambda x: -0.5 * x * x - 0.5 * math.log(2.0 * math.pi) + float(log_ndtr((b2 - rho * x) / s)),
        lambda x: -x - rho / s * math.exp(log_mills((b2 - rho * x) / s)),
        b1)


def tvn_oracle(b, corr):
    """log Phi3 by quad over x1 of phi(x1) times the exact m = 2 probability given x1."""
    r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
    s2, s3 = math.sqrt(1.0 - r12 ** 2), math.sqrt(1.0 - r13 ** 2)
    cond = (r23 - r12 * r13) / (s2 * s3)

    def log_f(x):
        limits = [[(b[1] - r12 * x) / s2, (b[2] - r13 * x) / s3]]
        pair = float(log_orthant_probs(limits, [[[1.0, cond], [cond, 1.0]]])[0])
        return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi) + pair

    h = 1e-5
    return log_outer_quad(log_f, lambda x: (log_f(x + h) - log_f(x - h)) / (2.0 * h), b[0])


def qmc_value(limits, corr):
    """The quasi-Monte Carlo estimate that served m = 2 and 3 before the exact forms."""
    chol, b = _ordered_cholesky(corr, np.asarray(limits, dtype=float))
    return float(np.mean(_scramble_means(chol, b, 0, 512)))


ORACLE_RHOS = (-0.95, -0.5, 0.0, 0.3, 0.9, 0.93, 0.99, 0.999)
ORACLE_LIMITS = (-8.0, -5.0, -2.5, -1.0, 0.0, 0.7, 2.0, 4.0, 8.0)


class TestExactOrthantProbs:
    @pytest.mark.parametrize("rho", ORACLE_RHOS)
    def test_bivariate_against_quadrature(self, rho):
        pairs = np.array(list(itertools.combinations_with_replacement(ORACLE_LIMITS, 2)))
        corr = np.broadcast_to(np.array([[1.0, rho], [rho, 1.0]]), (len(pairs), 2, 2))
        got = log_orthant_probs(pairs, corr)
        want = np.array([bvn_oracle(b1, b2, rho) for b1, b2 in pairs])
        tol = 1e-10 if abs(rho) <= 0.95 else 1e-8
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
        # the order of the two variables does not matter
        np.testing.assert_allclose(log_orthant_probs(pairs[:, ::-1], corr), got, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("corr", [
        corr3(0.5, 0.5, 0.5), corr3(-0.3, -0.3, -0.3), corr3(0.9, -0.4, -0.2),
        corr3(0.3, -0.34, 0.77), corr3(0.93, 0.9, 0.95), corr3(-0.34, 0.2, -0.6),
    ], ids=["equi", "neg-equi", "mixed", "data-like", "high", "negative"])
    def test_trivariate_against_quadrature(self, corr):
        rng = np.random.default_rng(31)
        limits = np.concatenate([rng.uniform(-8.0, 8.0, (4, 3)), rng.uniform(-4.0, 1.0, (4, 3)),
                                 [[-8.0, -8.0, -8.0], [0.0, 0.0, 0.0]]])
        got = log_orthant_probs(limits, np.broadcast_to(corr, (len(limits), 3, 3)))
        want = np.array([tvn_oracle(b, corr) for b in limits])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("rho", ORACLE_RHOS + (-0.999,))
    def test_bivariate_orthant_closed_form(self, rho):
        got = log_orthant_probs([[0.0, 0.0]], [[[1.0, rho], [rho, 1.0]]])[0]
        assert got == pytest.approx(math.log(0.25 + math.asin(rho) / (2.0 * math.pi)), abs=1e-12)

    @pytest.mark.parametrize("r", [(0.5, 0.5, 0.5), (-0.3, -0.3, -0.3), (0.9, -0.4, -0.2),
                                   (0.95, 0.9, 0.93), (-0.45, -0.45, 0.1)])
    def test_trivariate_orthant_closed_form(self, r):
        got = log_orthant_probs([[0.0, 0.0, 0.0]], corr3(*r)[None])[0]
        want = 0.125 + sum(math.asin(x) for x in r) / (4.0 * math.pi)
        assert got == pytest.approx(math.log(want), abs=1e-10)

    def test_trivariate_permutation_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            cov = a @ a.T + 0.2 * np.eye(3)
            sd = np.sqrt(np.diag(cov))
            corr = cov / np.outer(sd, sd)
            b = rng.uniform(-6.0, 3.0, 3)
            values = [log_orthant_probs(b[list(p)][None], corr[np.ix_(p, p)][None])[0]
                      for p in itertools.permutations(range(3))]
            assert max(values) - min(values) <= 1e-10

    def test_limits_at_forty(self):
        corr2 = np.array([[[1.0, 0.3], [0.3, 1.0]]])
        assert log_orthant_probs([[40.0, 40.0]], corr2)[0] == pytest.approx(0.0, abs=1e-15)
        assert log_orthant_probs([[-40.0, 3.0]], corr2)[0] == pytest.approx(
            bvn_oracle(-40.0, 3.0, 0.3), abs=1e-10)
        assert log_orthant_probs([[np.inf, -1.0]], corr2)[0] == pytest.approx(log_ndtr(-1.0), abs=1e-15)
        assert log_orthant_probs([[-np.inf, 1.0]], corr2)[0] == -np.inf
        # log Phi(-1e200) is -inf in double precision, so log p is too; the
        # other rows of the batch are unaffected
        got2 = log_orthant_probs([[-1e200, -1e200], [0.0, 0.0]], np.repeat(corr2, 2, axis=0))
        assert got2[0] == -np.inf
        assert got2[1] == pytest.approx(math.log(0.25 + math.asin(0.3) / (2.0 * math.pi)), abs=1e-12)
        c3 = corr3(0.5, 0.2, -0.3)[None]
        got3 = log_orthant_probs([[-1e200, 0.0, 0.0], [0.0, 1.0, -1e200]], np.repeat(c3, 2, axis=0))
        assert np.all(got3 == -np.inf)
        assert log_orthant_probs([[40.0, 40.0, 40.0]], c3)[0] == pytest.approx(0.0, abs=1e-15)
        assert log_orthant_probs([[40.0, -1.0, 0.5]], c3)[0] == pytest.approx(
            log_orthant_probs([[-1.0, 0.5]], c3[:, 1:, 1:])[0], abs=1e-13)
        assert log_orthant_probs([[-40.0, 0.0, 2.0]], c3)[0] == pytest.approx(
            tvn_oracle(np.array([-40.0, 0.0, 2.0]), c3[0]), abs=1e-10)

    @pytest.mark.parametrize("m", [2, 3])
    def test_finite_wherever_qmc_was_positive(self, m):
        rng = np.random.default_rng(33 + m)
        for _ in range(200):
            a = rng.normal(size=(m, m))
            cov = a @ a.T + 0.1 * np.eye(m)
            sd = np.sqrt(np.diag(cov))
            corr = cov / np.outer(sd, sd)
            b = rng.uniform(-12.0, 4.0, m)
            if qmc_value(b, corr) > 0.0:
                assert np.isfinite(log_orthant_probs(b[None], corr[None])[0])

    def test_rect_prob_uses_the_exact_forms(self):
        cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
        mean = np.array([0.5, -1.0, 0.2])
        upper = np.array([1.0, 0.0, -0.4])
        res = mvn_rect_prob(MvnProblem(mean=mean, cov=cov, upper=upper, fixed_points=512))
        sd = np.sqrt(np.diag(cov))
        want = tvn_oracle((upper - mean) / sd, cov / np.outer(sd, sd))
        assert res.log_value == pytest.approx(want, abs=1e-10)
        assert res.evals == 1 and not res.budget_exhausted
