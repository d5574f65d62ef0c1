import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import log_ndtr
from scipy.stats import qmc

from censlmm.errors import DimensionError, NotPositiveDefiniteError
from censlmm import gaussian
from censlmm.gaussian import (
    _genz_qmc,
    _ordered_cholesky,
    _stream_levels,
    log_orthant_probs,
    mvn_rect_probs,
    truncated_moments,
)
from oracles import mvn_logpdf, truncated_moments_by_differences


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


class Block(NamedTuple):
    """One block's results from :func:`mvn_rect_probs`; the last three are None for m <= 3."""

    value: float
    log_value: float
    err_est: float | None
    points: int | None
    exhausted: bool | None


def rect_prob(mean, cov, upper, **kwargs):
    """:func:`mvn_rect_probs` on a group of one; raises its error."""
    probs, error = mvn_rect_probs(*(np.asarray(a, dtype=float)[None] for a in (mean, cov, upper)),
                                  **kwargs)
    if error is not None:
        raise error[1]
    log_p, err_est, points, exhausted = (None if a is None else a[0].item() for a in probs)
    return Block(math.exp(log_p), log_p, err_est, points, exhausted)


class TestRectProb:
    def test_dim1_exact(self):
        res = rect_prob([0.0], [[1.0]], [0.0])
        assert res.value == 0.5
        assert res.points is None

    def test_dim2_independent(self):
        res = rect_prob([0, 0], np.eye(2), [0, 0])
        assert res.value == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.5, 0.9])
    def test_bivariate_orthant(self, rho):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        res = rect_prob([0, 0], cov, [0, 0])
        assert res.value == pytest.approx(orthant_probability(rho), abs=1e-6)
        assert res.err_est is None

    def test_dim3_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.standard_normal(3)
        upper = mean + rng.standard_normal(3) * np.sqrt(np.diag(cov))
        res = rect_prob(mean, cov, upper)
        draws = rng.multivariate_normal(mean, cov, size=1_000_000)
        mc = float(np.mean(np.all(draws <= upper, axis=1)))
        assert res.value == pytest.approx(mc, abs=3e-3)

    def test_log_value_consistent(self):
        res = rect_prob([1.0], [[0.25]], [-2.0])
        assert res.log_value == pytest.approx(math.log(res.value), rel=1e-10)
        deep = rect_prob([0.0], [[1.0]], [-40.0])
        assert deep.value == 0.0
        assert deep.log_value < -700  # log_ndtr keeps resolving where value underflows

    def test_reproducible(self):
        cov = np.eye(4) + 0.3
        r1 = rect_prob([0, 0, 0, 0], cov, [0.3, -0.2, 0.5, 0.1], seed=7)
        r2 = rect_prob([0, 0, 0, 0], cov, [0.3, -0.2, 0.5, 0.1], seed=7)
        assert r1 == r2

    def test_budget_exhaustion_flag(self):
        # an unreachable tolerance runs out of points and says so; a loose one does not
        cov = np.eye(4) + 0.4 * (np.ones((4, 4)) - np.eye(4))
        res = rect_prob([0, 0, 0, 0], cov, [0, 0, 0, 0], tol=1e-13)
        assert res.exhausted
        assert 0.0 <= res.value <= 1.0
        loose = rect_prob([0, 0, 0, 0], cov, [0, 0, 0, 0], tol=1e-2)
        assert not loose.exhausted and loose.points < res.points

    def test_dimension_cap(self):
        # a block needs a measure; there is no upper cap (see TestFactorOracle)
        with pytest.raises(DimensionError):
            rect_prob(np.zeros(0), np.eye(0), np.zeros(0))

    def test_not_positive_definite(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            rect_prob([0, 0], cov, [0, 0])

    def test_variance_floor_rejected(self):
        cov = np.diag([1.0, 1e-14])
        with pytest.raises(NotPositiveDefiniteError):
            rect_prob([0, 0], cov, [0, 0])

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.2], [0.4, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            rect_prob([0, 0], cov, [0, 0])


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
            base = rect_prob(mean, cov, upper)
            k = int(rng.integers(0, m))
            bumped = upper.copy()
            bumped[k] += 0.5
            more = rect_prob(mean, cov, bumped)
            # the exact sizes, up to 3, carry no error estimate
            assert more.value >= base.value - 2.0 * ((base.err_est or 0.0) + (more.err_est or 0.0))

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            mean, cov, upper = self._random_problem(rng, m)
            res = rect_prob(mean, cov, upper)
            assert 0.0 <= res.value <= 1.0

    def test_block_independence(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 2))
        c1 = a @ a.T + 0.5 * np.eye(2)
        b = rng.standard_normal((2, 2))
        c2 = b @ b.T + 0.5 * np.eye(2)
        cov = np.block([[c1, np.zeros((2, 2))], [np.zeros((2, 2)), c2]])
        upper = np.array([0.3, -0.1, 0.6, 0.2])
        whole = rect_prob(np.zeros(4), cov, upper)
        p1 = rect_prob(np.zeros(2), c1, upper[:2])
        p2 = rect_prob(np.zeros(2), c2, upper[2:])
        combined_err = whole.err_est + 1e-8
        assert whole.value == pytest.approx(p1.value * p2.value, abs=5 * combined_err)

    def test_affine_consistency(self):
        rng = np.random.default_rng(14)
        mean, cov, upper = self._random_problem(rng, 3)
        raw = rect_prob(mean, cov, upper)
        sds = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sds, sds)
        std = rect_prob(np.zeros(3), corr, (upper - mean) / sds)
        assert raw.value == pytest.approx(std.value, abs=1e-9)

    def test_limit_consistency(self):
        cov = np.eye(2) + 0.3 * (np.ones((2, 2)) - np.eye(2))
        everything = rect_prob([0, 0], cov, [40.0, 40.0])
        assert everything.value == pytest.approx(1.0, abs=1e-9)
        nothing = rect_prob([0, 0], cov, [-40.0, 3.0])
        assert nothing.value == pytest.approx(0.0, abs=1e-9)


class TestNestedStreams:
    @staticmethod
    def group(rng, m=5):
        """Blocks of one size, with limits from 3 SDs above the mean to 2 below."""
        mean, cov, upper = [], [], []
        for shift in [3.0, 2.0, 1.0, 0.0, -1.0, -2.0]:
            a = rng.normal(size=(m, m))
            c = a @ a.T + np.eye(m)
            mean.append(np.zeros(m))
            cov.append(c)
            upper.append(shift * np.sqrt(np.diag(c)) + 0.3 * rng.normal(size=m))
        return np.array(mean), np.array(cov), np.array(upper)

    def test_grouped_estimate_equals_the_block_alone(self):
        rng = np.random.default_rng(20)
        blocks = self.group(rng)
        others = self.group(rng)
        orders = [list(range(6)), list(range(5, -1, -1)), list(rng.permutation(6))]
        for settings in ({"tol": 1e-4}, {"fixed": True}):
            alone = [rect_prob(*(a[i] for a in blocks), seed=3, **settings) for i in range(6)]
            if "tol" in settings:
                # six stopping levels, one of them at the cap
                assert len({r.points for r in alone}) == 6
                assert [r.exhausted for r in alone] == [False] * 4 + [True, False]
            for order in orders:
                for extra in (0, 3):
                    group = [np.concatenate([a[order], b[:extra]]) for a, b in zip(blocks, others)]
                    (log_p, err, points, exhausted), error = mvn_rect_probs(*group, seed=3, **settings)
                    assert error is None
                    for k, i in enumerate(order):
                        assert math.exp(log_p[k]) == pytest.approx(alone[i].value, abs=1e-12)
                        assert err[k] == pytest.approx(alone[i].err_est, abs=1e-12)
                        assert (points[k], exhausted[k]) == (alone[i].points, alone[i].exhausted)

    @staticmethod
    def draw(dim, n):
        """The first n points per scramble of the (seed 5, dim) stream, drawn in levels."""
        drawn = [[] for _ in range(10)]
        for end, level in _stream_levels(5, dim, 512):
            for s, points in enumerate(level):
                drawn[s].append(points)
            if end == n:
                return [np.concatenate(d, axis=1).T for d in drawn]

    @staticmethod
    def sobol(dim, n):
        """The same points from fresh engines, in one draw per scramble."""
        return [qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng([5, dim, s]))
                .random_base2(int(math.log2(n))) for s in range(10)]

    @pytest.mark.parametrize("dim", [3, 9])
    def test_stream_is_one_sobol_sequence(self, dim):
        # up to the most points an adaptive block takes
        n = 32768
        for got, want in zip(self.draw(dim, n), self.sobol(dim, n)):
            np.testing.assert_array_equal(got, want)

    def test_abandoned_stream_leaves_the_cached_engines_unmoved(self):
        # a group that stops after its first level leaves its stream there;
        # the next stream of that dimension starts again at the first point
        levels = _stream_levels(5, 4, 512)
        _, first = next(levels)
        abandoned = list(first)
        levels.close()
        again = self.draw(4, 1024)
        for s, want in enumerate(self.sobol(4, 1024)):
            np.testing.assert_array_equal(abandoned[s].T, want[:512])
            np.testing.assert_array_equal(again[s], want)

    def test_capped_block_uses_the_largest_set(self):
        cov = np.eye(4) + 0.4 * (np.ones((4, 4)) - np.eye(4))
        res = rect_prob(np.zeros(4), cov, np.zeros(4), tol=1e-15)
        assert res.points == 10 * 32768 and res.exhausted
        assert 0.0 <= res.value <= 1.0

    def test_first_failing_problem_is_named(self):
        # the blocks fail different checks: the first failing one is named,
        # for the exact sizes and for QMC
        for m in (2, 4):
            low = np.eye(m)
            low[1, 1] = 1e-14
            cov = np.stack([np.eye(m), np.ones((m, m)), low])
            zeros = np.zeros((3, m))
            results, (index, error) = mvn_rect_probs(zeros, cov, zeros)
            assert results is None and index == 1
            assert isinstance(error, NotPositiveDefiniteError)
            assert "positive definite" in str(error)
            _, (index, error) = mvn_rect_probs(zeros, cov[[0, 2, 1]], zeros)
            assert index == 1 and "floor" in str(error)


def factor_oracle(loadings, unique, upper, order=64):
    """Pr(Y <= upper) for Y ~ N(0, R R^T + D) with R of shape (m, 2), D = diag(unique).

    Given the two factors z, the variables are independent, so p is
    E over z ~ N(0, I_2) of prod_i Phi((upper_i - R_i z) / sqrt(D_i)): a
    2-D Gauss-Hermite tensor rule of ``order`` nodes per axis.
    """
    x, w = np.polynomial.hermite.hermgauss(order)
    z = math.sqrt(2.0) * np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    t = (upper - z @ loadings.T) / np.sqrt(unique)
    return float(np.sum(np.outer(w, w).ravel() / math.pi * np.exp(np.sum(log_ndtr(t), axis=1))))


class TestFactorOracle:
    # (m, shift of the limits): four central blocks, then deep tails with p < 1e-6
    @pytest.mark.parametrize("m,shift", [(4, 0.3), (7, 0.6), (10, 1.0), (12, 1.0),
                                         (4, -2.5), (7, -1.2), (10, -1.0), (16, -0.8)])
    def test_adaptive_qmc_within_its_error_estimate(self, m, shift):
        rng = np.random.default_rng([m, 0])
        loadings = 0.6 * rng.normal(size=(m, 2))
        unique = rng.uniform(0.5, 1.0, m)
        upper = shift + 0.5 * rng.normal(size=m)
        want = factor_oracle(loadings, unique, upper)
        res = rect_prob(np.zeros(m), loadings @ loadings.T + np.diag(unique), upper)
        # the oracle itself has converged far inside the QMC error
        assert abs(factor_oracle(loadings, unique, upper, order=96) - want) < 0.01 * res.err_est
        assert shift > 0.0 or want < 1e-6
        assert abs(res.value - want) <= 2.0 * res.err_est


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


def bvn_mpmath(b1, b2, rho):
    """log Phi2 by mpmath quad of phi(x) Phi((b2 - rho x) / sqrt(1 - rho^2)) over x <= b1.

    Deep in the lower tail the integrand falls off from x = b1 on a scale of
    about 1/|b1|, so the breakpoints are 1/|b1| apart over the last 100/|b1|;
    with only [b1 - 5, b1 - 1, b1] the quad itself erred by up to 3e-5.
    """
    import mpmath

    with mpmath.workdps(20):
        b1, b2, rho = mpmath.mpf(b1), mpmath.mpf(b2), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - rho * rho)
        step = 1 / abs(b1)
        points = [-mpmath.inf] + [b1 - k * step for k in range(100, -1, -1)]
        value = mpmath.quad(lambda x: mpmath.npdf(x) * mpmath.ncdf((b2 - rho * x) / s), points)
        return float(mpmath.log(value))


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
    return float(_genz_qmc(chol[None], b[None], 0, 512, -np.inf)[0][0])


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

    @pytest.mark.parametrize("rho", [0.93, 0.95, 0.99])
    @pytest.mark.parametrize("b", [-38.0, -50.0, -100.0])
    def test_high_correlation_deep_tail(self, b, rho):
        # Genz's form cancels here: it gave -inf, or 169 too high at (-100, -100), 0.93
        got = log_orthant_probs([[b, b]], [[[1.0, rho], [rho, 1.0]]])[0]
        assert got == pytest.approx(bvn_mpmath(b, b, rho), abs=1e-9)

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
        res = rect_prob(mean, cov, upper, fixed=True)
        sd = np.sqrt(np.diag(cov))
        want = tvn_oracle((upper - mean) / sd, cov / np.outer(sd, sd))
        assert res.log_value == pytest.approx(want, abs=1e-10)
        assert res.err_est is None and res.points is None and res.exhausted is None


def block_log_prob(mean, cov, upper):
    """log Pr(Y <= upper) of one block, from the exact m <= 3 forms of :func:`mvn_rect_probs`."""
    return float(rect_prob(mean, cov, upper).log_value)


def scaled_block(limits, corr, seed):
    """A block with the given standardized limits and correlations, on a random mean and scale."""
    rng = np.random.default_rng(seed)
    limits = np.asarray(limits, dtype=float)
    sd = rng.uniform(0.5, 2.0, limits.size)
    mean = rng.normal(size=limits.size)
    return mean, np.asarray(corr, dtype=float) * np.outer(sd, sd), mean + sd * limits


def corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


# (limits, correlation): |rho| on both sides of the 0.925 switch of the
# bivariate forms, limits down to -8 SD, and (-8, -8) at rho = -0.5, which
# the endpoint Gauss-Laguerre rule integrates
MOMENT_CASES = {
    "m1-deep": ((-8.0,), [[1.0]]),
    "m1-mid": ((-1.5,), [[1.0]]),
    "m1-high": ((2.5,), [[1.0]]),
    "m2-laguerre": ((-8.0, -8.0), corr2(-0.5)),
    "m2-0.3": ((0.5, -1.0), corr2(0.3)),
    "m2-0.9": ((-2.0, 1.0), corr2(0.9)),
    "m2-0.95": ((-2.0, 1.0), corr2(0.95)),
    "m2-neg-0.95-deep": ((-8.0, 0.5), corr2(-0.95)),
    "m3-mixed": ((-1.0, 0.5, -2.0), corr3(0.9, -0.4, -0.2)),
    "m3-high-deep": ((-8.0, -8.0, -8.0), corr3(0.93, 0.9, 0.95)),
    "m3-negative": ((-8.0, -3.0, 1.0), corr3(-0.34, 0.2, -0.6)),
    "m3-data-like": ((-0.3, 0.4, 0.1), corr3(0.3, -0.34, 0.77)),
}


class TestTruncatedMoments:
    @pytest.mark.parametrize("case", sorted(MOMENT_CASES))
    def test_against_derivatives_of_the_log_probability(self, case):
        limits, corr = MOMENT_CASES[case]
        mean, cov, upper = scaled_block(limits, corr, seed=len(case))
        log_p = mvn_rect_probs(mean[None], cov[None], upper[None])[0][0]
        got_mean, got_cov = truncated_moments(mean[None], cov[None], upper[None], log_p)
        want_mean, want_second = truncated_moments_by_differences(
            block_log_prob, mean, cov, upper)
        shift = got_mean[0] - mean
        got_second = got_cov[0] + np.outer(shift, shift)
        scale = np.max(np.abs(want_mean))
        np.testing.assert_allclose(got_mean[0], want_mean, rtol=0.0, atol=1e-8 * max(1.0, scale))
        np.testing.assert_allclose(got_second, want_second, rtol=0.0,
                                   atol=1e-8 * np.max(np.abs(want_second)))

    def test_a_case_takes_the_endpoint_laguerre_rule(self, monkeypatch):
        calls = []
        original = gaussian._endpoint_laguerre
        monkeypatch.setattr(gaussian, "_endpoint_laguerre",
                            lambda *args: calls.append(1) or original(*args))
        limits, corr = MOMENT_CASES["m2-laguerre"]
        log_orthant_probs(np.array([limits]), corr[None])
        assert calls

    def test_blocks_of_a_group_are_independent(self):
        blocks = [scaled_block(*MOMENT_CASES[case], seed=k)
                  for k, case in enumerate(["m3-mixed", "m3-negative", "m3-data-like"])]
        mean, cov, upper = (np.stack(a) for a in zip(*blocks))
        log_p = mvn_rect_probs(mean, cov, upper)[0][0]
        together = truncated_moments(mean, cov, upper, log_p)
        for k in range(3):
            alone = truncated_moments(mean[k:k + 1], cov[k:k + 1], upper[k:k + 1], log_p[k:k + 1])
            np.testing.assert_allclose(together[0][k], alone[0][0], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(together[1][k], alone[1][0], rtol=1e-14, atol=1e-15)

    def test_qmc_sizes_are_refused(self):
        with pytest.raises(DimensionError):
            truncated_moments(np.zeros((1, 4)), np.eye(4)[None], np.zeros((1, 4)), np.zeros(1))
