import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from scipy.special import log_ndtr

from censlmm.data import (
    MODEL_TEMPLATES,
    Dataset,
    Observation,
    SubjectData,
    bivariate_model,
    intercept_slope_model,
    random_intercept_model,
)
from censlmm.errors import (
    DimensionError,
    EvaluationError,
    IntegrationError,
    InvalidParameterError,
    ModeSearchError,
    NotPositiveDefiniteError,
)
from censlmm import likelihood
from censlmm.gaussian import FIT_POINTS, FIT_POINTS_DEFAULT, mvn_rect_probs
from censlmm.likelihood import (
    LikelihoodEvaluator,
    LogLikOptions,
    Theta,
    loglik_agq,
    loglik_marginal,
    loglik_naive,
    n_free_params,
    natural_names,
    natural_values,
    theta_from_vector,
    theta_to_vector,
)
from censlmm.optimize import fd_gradient
from censlmm.quadrature import max_order
from censlmm.simulate import SimConfig, default_truth, simulate
from conftest import make_subject, random_small_dataset, random_theta, renamed, with_copies
from oracles import (agq_reference, conditional_moments, cubature_loglik, dense_terms,
                     design_rows, marginal_moments, subject_layout)

LOG_2PI = math.log(2.0 * math.pi)


def closed_form_loglik(dataset, spec, theta):
    """Independent mixed-model log-likelihood for fully observed data."""
    g = theta.g_matrix()
    total = 0.0
    for subject in dataset.subjects:
        x, z = design_rows(subject.observations, spec)
        y = np.array([o.response for o in subject.observations])
        sde = theta.sigma_e[[o.marker - 1 for o in subject.observations]]
        v = z @ g @ z.T + np.diag(sde**2)
        resid = y - x @ theta.beta
        _, logdet = np.linalg.slogdet(v)
        total += (-0.5 * resid @ np.linalg.solve(v, resid)
                  - 0.5 * logdet - 0.5 * len(y) * LOG_2PI)
    return float(total)


class TestTheta:
    def test_vector_round_trip_cholesky(self):
        # every template: ri (q = 1), is (q = 2) and biv (q = 4, two strata)
        rng = np.random.default_rng(17)
        for name, template in MODEL_TEMPLATES.items():
            spec = template()
            theta = random_theta(rng, spec.q, spec.n_strata)
            vec = theta_to_vector(theta)
            assert vec.shape == (n_free_params(spec),), name
            again = theta_from_vector(vec, spec)
            assert theta_to_vector(again) == pytest.approx(vec, abs=1e-12), name
            assert again.g_matrix() == pytest.approx(theta.g_matrix(), abs=1e-12), name
            assert again.sigma_e == pytest.approx(theta.sigma_e, abs=1e-12), name

    def test_negative_entries_are_kept_as_given(self, is_spec):
        vec = np.array([3.0, 0.5, -0.7, -0.2, -0.3, -0.45])
        theta = theta_from_vector(vec, is_spec)
        # L is any lower-triangular factor of G: its lower triangle as given
        raw = np.array([[-0.7, 0.0], [-0.2, -0.3]])
        assert np.array_equal(theta.chol, raw)
        assert np.array_equal(theta.sigma_e, [0.45])
        assert np.array_equal(theta.g_matrix(), raw @ raw.T)
        assert np.array_equal(theta_to_vector(theta), np.r_[vec[:-1], 0.45])

    def test_gradient_is_smooth_where_a_diagonal_entry_of_l_is_zero(self, is_spec, truth,
                                                                      benchmark_dataset):
        # With L11 = 0 and L21 != 0, G12 = L11 L21 changes sign with L11: L
        # is the vector's lower triangle as given, so G is smooth there. A
        # map that reflected only the diagonal entry made G12 = |L11| L21, a
        # kink at which the central difference read 0.
        ev = LikelihoodEvaluator(benchmark_dataset, is_spec)
        x = theta_to_vector(truth)
        k = is_spec.p  # L11
        x[k] = 0.0
        assert truth.chol[1, 0] != 0.0

        def f(v):
            return ev.naive(theta_from_vector(v, is_spec))

        central = fd_gradient(f, x)[k]
        e = np.eye(x.size)[k] * 1e-5
        forward, backward = (f(x + e) - f(x)) / 1e-5, (f(x) - f(x - e)) / 1e-5
        assert central != 0.0
        assert central == pytest.approx(forward, rel=1e-2)
        assert central == pytest.approx(backward, rel=1e-2)

    @pytest.mark.parametrize("chol,rank", [([[0.7, 0.0], [-0.2, 0.3]], 2),
                                           ([[0.7, 0.0], [-0.2, 0.0]], 1),
                                           ([[0.0, 0.0], [0.0, 0.0]], 0)])
    def test_reduced_factor_spans_g(self, chol, rank):
        theta = Theta([1.0, 1.0], chol, [0.4])
        a = theta.reduced_factor()
        assert a.shape == (2, rank)
        assert a @ a.T == pytest.approx(theta.g_matrix(), abs=1e-15)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            Theta([1.0], [[0.5]], [-0.1])

    def test_upper_triangle_rejected(self):
        with pytest.raises(InvalidParameterError):
            Theta([1.0, 1.0], [[0.5, 0.2], [0.0, 0.5]], [0.4])

    @pytest.mark.parametrize("g", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0]],
                                   [[1.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 1.0]]])
    def test_from_moments_factors_a_singular_g(self, g):
        g = np.array(g)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
        theta = Theta.from_moments([0.0], g, [1.0])
        assert np.array_equal(theta.chol, np.tril(theta.chol))
        assert np.max(np.abs(theta.g_matrix() - g)) <= 1e-14 * max(1.0, np.max(np.abs(g)))

    def test_natural_names_table_order(self, is_spec):
        assert natural_names(is_spec) == (
            "intercept", "slope", "var_intercept", "cov_intercept_slope",
            "var_slope", "sd_residual", "var_residual",
        )

    def test_natural_values(self):
        g = np.array([[0.5, -0.1], [-0.1, 0.1]])
        theta = Theta.from_moments([3.0, 0.5], g, [math.sqrt(0.2)])
        vals = natural_values(theta)
        assert vals == pytest.approx([3.0, 0.5, 0.5, -0.1, 0.1, math.sqrt(0.2), 0.2], abs=1e-12)


class TestMarginalMoments:
    def test_intercept_only(self):
        spec = random_intercept_model()
        theta = Theta([3.0], [[math.sqrt(0.5)]], [math.sqrt(0.2)])
        s = make_subject("a", [0.0, 1.0], [3.0, 3.0], [1, 1], 0.0)
        mu, v = marginal_moments(s, spec, theta)
        assert mu == pytest.approx([3.0, 3.0])
        assert v == pytest.approx(np.array([[0.7, 0.5], [0.5, 0.7]]), abs=1e-12)

    def test_intercept_slope_example(self, is_spec):
        g = np.array([[0.5, -0.1], [-0.1, 0.1]])
        theta = Theta.from_moments([3.0, 0.5], g, [math.sqrt(0.2)])
        s = make_subject("a", [0.0, 1.0], [3.0, 3.5], [1, 1], 0.0)
        _, v = marginal_moments(s, is_spec, theta)
        assert v[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert v[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert v[1, 1] == pytest.approx(0.6, abs=1e-12)

    def test_zero_g_gives_diagonal(self, is_spec):
        theta = Theta([3.0, 0.5], np.zeros((2, 2)), [0.6])
        s = make_subject("a", [0.0, 2.0, 4.0], [1.0, 2.0, 3.0], [1, 1, 1], 0.0)
        _, v = marginal_moments(s, is_spec, theta)
        assert v == pytest.approx(0.36 * np.eye(3), abs=1e-12)


class TestConditionalMoments:
    def test_schur_example(self):
        mu_c, v_c = conditional_moments([3.0, 3.0], [[0.7, 0.5], [0.5, 0.7]],
                                        [0], [1], [3.7])
        assert mu_c == pytest.approx([3.5], abs=1e-12)
        assert v_c[0, 0] == pytest.approx(0.7 - 0.25 / 0.7, abs=1e-12)

    def test_diagonal_v_independence(self):
        v = np.diag([0.4, 0.6, 0.8])
        mu = np.array([1.0, 2.0, 3.0])
        mu_c, v_c = conditional_moments(mu, v, [0], [1, 2], [5.0])
        assert mu_c == pytest.approx([2.0, 3.0])
        assert v_c == pytest.approx(np.diag([0.6, 0.8]))

    def test_against_grid_oracle(self):
        # conditional moments from the joint-density ratio on a dense grid
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))
        v = a @ a.T + 2.0 * np.eye(4)
        mu = rng.normal(size=4)
        obs_idx, cens_idx = [0, 1], [2, 3]
        y_obs = mu[:2] + rng.normal(size=2) * 0.5
        mu_c, v_c = conditional_moments(mu, v, obs_idx, cens_idx, y_obs)

        sds = np.sqrt(np.diag(v_c))
        n = 260
        xs = np.linspace(mu_c[0] - 7 * sds[0], mu_c[0] + 7 * sds[0], n)
        ys = np.linspace(mu_c[1] - 7 * sds[1], mu_c[1] + 7 * sds[1], n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([np.broadcast_to(y_obs[0], gx.shape), np.broadcast_to(y_obs[1], gx.shape),
                        gx, gy], axis=-1).reshape(-1, 4)
        resid = pts - mu
        dens = np.exp(-0.5 * np.einsum("ni,ij,nj->n", resid, np.linalg.inv(v), resid))
        dens = dens.reshape(n, n)
        mass = dens.sum()
        ex = (dens * gx).sum() / mass
        ey = (dens * gy).sum() / mass
        vx = (dens * (gx - ex) ** 2).sum() / mass
        vy = (dens * (gy - ey) ** 2).sum() / mass
        cxy = (dens * (gx - ex) * (gy - ey)).sum() / mass
        assert mu_c == pytest.approx([ex, ey], abs=1e-6)
        assert v_c == pytest.approx(np.array([[vx, cxy], [cxy, vy]]), abs=1e-6)


class TestMarginalLoglik:
    def test_uncensored_equals_closed_form(self, is_spec, truth):
        d = simulate(SimConfig(n_subjects=8, n_per_subject=5, truth=truth,
                               threshold=-1e10, seed=21))
        assert d.n_censored == 0
        assert loglik_marginal(d, is_spec, truth) == pytest.approx(
            closed_form_loglik(d, is_spec, truth), abs=1e-10)

    def test_single_censored_row_formula(self):
        spec = random_intercept_model()
        theta = Theta([3.0], [[math.sqrt(0.5)]], [math.sqrt(0.2)])
        c = 2.4
        s = make_subject("a", [0.0], [c], [0], c)
        d = Dataset(subjects=(s,))
        expected = float(log_ndtr((c - 3.0) / math.sqrt(0.7)))
        assert loglik_marginal(d, spec, theta) == pytest.approx(expected, abs=1e-12)

    def test_all_censored_subject_supported(self, is_spec, truth):
        s = make_subject("a", [0.0, 1.0], [2.0, 2.0], [0, 0], 2.0)
        d = Dataset(subjects=(s,))
        val = loglik_marginal(d, is_spec, truth)
        assert math.isfinite(val)
        assert val < 0.0  # a probability contributes a nonpositive log

    def test_sigma_zero_rejected(self, is_spec, truth):
        d = simulate(SimConfig(n_subjects=2, n_per_subject=3, truth=truth,
                               threshold=-1e10, seed=3))
        bad = Theta(truth.beta, truth.chol, [0.0])
        with pytest.raises(InvalidParameterError):
            loglik_marginal(d, is_spec, bad)

    def test_twelve_censored_rows_evaluate_on_the_marginal_path(self, is_spec, truth):
        # no block size cap: the m = 12 block runs adaptive QMC and agrees
        # with the hierarchical path within its own error estimate
        s = make_subject("a", range(12), [0.0] * 12, [0] * 12, 2.0)
        ev = LikelihoodEvaluator(Dataset(subjects=(s,)), is_spec)
        total = ev.marginal(truth)
        assert ev.qmc_record.blocks == 1 and ev.qmc_record.max_rel_err > 0.0
        assert abs(total - ev.agq(truth, 64)) <= 2.0 * ev.qmc_record.max_rel_err

    @pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed-points"])
    def test_exact_blocks_agree_with_agq(self, is_spec, truth, benchmark_dataset, fixed):
        # every censored block of the benchmark data has m <= 3, so the
        # marginal path runs no QMC and equals the hierarchical path
        ev = LikelihoodEvaluator(benchmark_dataset, is_spec)
        assert np.max(np.diff(ev.start) - ev.n_obs) <= 3
        assert ev.marginal(truth, fixed) == pytest.approx(ev.agq(truth, 64), abs=1e-8)

    def test_block_failure_names_first_subject(self, is_spec):
        # With G = 0 and sigma_e = 1e-7 every censored variance, 1e-14, is
        # below the floor. "pair" (m = 2) comes first in the data although
        # the m = 1 group is evaluated first.
        d = Dataset(subjects=(
            make_subject("observed", [0.0, 1.0], [3.1, 3.6], [1, 1], 2.5),
            make_subject("pair", [0.0, 1.0, 2.0], [2.5, 2.5, 4.0], [0, 0, 1], 2.5),
            make_subject("single", [0.0, 1.0], [2.5, 3.4], [0, 1], 2.5),
        ))
        theta = Theta([3.0, 0.5], np.zeros((2, 2)), [1e-7])
        with pytest.raises(EvaluationError, match="^subject pair: ") as err:
            loglik_marginal(d, is_spec, theta)
        assert err.value.subject_id == "pair"
        assert isinstance(err.value.__cause__, NotPositiveDefiniteError)

    def test_censored_contribution_nonpositive(self, is_spec, truth):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = random_small_dataset(rng, is_spec, truth)
            with_cens = loglik_marginal(d, is_spec, truth)
            naive_part = loglik_naive(d, is_spec, truth)
            assert math.isfinite(with_cens) and math.isfinite(naive_part)

    def test_threshold_monotonicity(self, is_spec, truth):
        def with_threshold(c):
            s = make_subject("a", [0.0, 1.0, 2.0], [c, 3.4, 4.1], [0, 1, 1], c)
            return loglik_marginal(Dataset(subjects=(s,)), is_spec, truth)

        values = [with_threshold(c) for c in (2.0, 2.4, 2.8, 3.2)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestAgqLoglik:
    def test_uncensored_equals_closed_form(self, is_spec, truth):
        d = simulate(SimConfig(n_subjects=6, n_per_subject=4, truth=truth,
                               threshold=-1e10, seed=22))
        assert loglik_agq(d, is_spec, truth) == pytest.approx(
            closed_form_loglik(d, is_spec, truth), abs=1e-8)

    def test_single_subject_against_dense_grid(self):
        # one random intercept, one censored + two observed measures
        spec = random_intercept_model()
        var_u, var_e = 0.5, 0.2
        theta = Theta([3.0], [[math.sqrt(var_u)]], [math.sqrt(var_e)])
        c = 2.6
        s = make_subject("a", [0.0, 1.0, 2.0], [c, 3.2, 3.9], [0, 1, 1], c)
        d = Dataset(subjects=(s,))

        sde = math.sqrt(var_e)
        us = np.linspace(-8 * math.sqrt(var_u), 8 * math.sqrt(var_u), 400_001)
        log_prior = -0.5 * us**2 / var_u - 0.5 * math.log(2 * math.pi * var_u)
        log_obs = sum(
            -0.5 * ((y - 3.0 - us) / sde) ** 2 - math.log(sde) - 0.5 * LOG_2PI
            for y in (3.2, 3.9)
        )
        log_cens = log_ndtr((c - 3.0 - us) / sde)
        integrand = np.exp(log_prior + log_obs + log_cens)
        oracle = math.log(np.trapezoid(integrand, dx=us[1] - us[0]))
        assert loglik_agq(d, spec, theta) == pytest.approx(oracle, abs=1e-6)

    def test_degenerate_g_reduces_dimension(self, is_spec):
        # slope row of L zeroed: the slope effect is deterministic zero
        chol = np.array([[math.sqrt(0.5), 0.0], [0.0, 0.0]])
        theta = Theta([3.0, 0.5], chol, [math.sqrt(0.2)])
        c = 2.8
        s = make_subject("a", [0.0, 1.0], [c, 3.6], [0, 1], c)
        d = Dataset(subjects=(s,))
        val = loglik_agq(d, is_spec, theta)
        # oracle: 1-D integral over the intercept effect only
        us = np.linspace(-6, 6, 200_001)
        sde = math.sqrt(0.2)
        logp = (-0.5 * us**2 / 0.5 - 0.5 * math.log(2 * math.pi * 0.5)
                - 0.5 * ((3.6 - 3.0 - 0.5 - us) / sde) ** 2 - math.log(sde) - 0.5 * LOG_2PI
                + log_ndtr((c - 3.0 - us) / sde))
        oracle = math.log(np.trapezoid(np.exp(logp), dx=us[1] - us[0]))
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_zero_g_closed_form(self, is_spec):
        theta = Theta([3.0, 0.5], np.zeros((2, 2)), [math.sqrt(0.2)])
        c = 2.9
        s = make_subject("a", [0.0, 1.0], [c, 3.8], [0, 1], c)
        d = Dataset(subjects=(s,))
        sde = math.sqrt(0.2)
        expected = (-0.5 * ((3.8 - 3.5) / sde) ** 2 - math.log(sde) - 0.5 * LOG_2PI
                    + log_ndtr((c - 3.0) / sde))
        assert loglik_agq(d, is_spec, theta) == pytest.approx(expected, abs=1e-10)

    def test_bad_start_is_evaluation_error(self, is_spec, truth):
        s = make_subject("a", [0.0], [2.0], [0], 2.0)
        d = Dataset(subjects=(s,))
        assert math.isfinite(loglik_agq(d, is_spec, truth))
        # a residual of -1e200 overflows the integrand's squared residuals and
        # log Phi term, so the mode search has no finite starting value
        far = Theta([1e200, 0.0], truth.chol, truth.sigma_e)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(EvaluationError) as err:
            loglik_agq(d, is_spec, far)
        assert err.value.subject_id == "a"
        assert isinstance(err.value.__cause__, ModeSearchError)

    def test_mode_search_iteration_cap_is_evaluation_error(self, monkeypatch, is_spec, truth):
        d = simulate(SimConfig(20, 5, truth, target_censoring=0.3, seed=3))
        monkeypatch.setattr(likelihood, "_MODE_MAX_ITER", 0)
        with pytest.raises(EvaluationError, match="^subject 1: mode search did not converge "
                                                  "in 0 iterations$") as err:
            loglik_agq(d, is_spec, truth)
        assert err.value.subject_id == "1"
        assert isinstance(err.value.__cause__, ModeSearchError)

    def test_a_full_newton_step_that_lowers_f_is_halved(self, monkeypatch, is_spec):
        # five censored rows, a large G and a small sigma_e: the log Phi terms
        # curve sharply near the mode, and a full Newton step overshoots it
        times, c = np.array([0.0, 0.4, 1.8, 2.5, 2.9]), -2.2
        theta = Theta([-1.3, -1.9], [[5.23, 0.0], [-5.03, 2.28]], [0.075])
        d = Dataset(subjects=(make_subject("a", times, [c] * 5, [0] * 5, c),))
        laplace = LikelihoodEvaluator(d, is_spec).agq(theta, 1)

        # oracle: the Laplace approximation at the integrand's mode in u
        z, g, sd = np.column_stack([np.ones(5), times]), theta.g_matrix(), theta.sigma_e[0]
        base = (c - z @ theta.beta) / sd

        def terms(u):
            t = base - z @ u / sd
            lam = np.exp(-0.5 * t * t - 0.5 * LOG_2PI - log_ndtr(t))
            f = (-0.5 * u @ np.linalg.solve(g, u) - 0.5 * np.linalg.slogdet(g)[1] - LOG_2PI
                 + np.sum(log_ndtr(t)))
            grad = -np.linalg.solve(g, u) - z.T @ lam / sd
            neg_hess = np.linalg.inv(g) + (z.T * lam * (t + lam)) @ z / sd ** 2
            return f, grad, neg_hess

        mode = scipy.optimize.minimize(lambda u: -terms(u)[0], np.zeros(2), method="trust-exact",
                                       jac=lambda u: -terms(u)[1], hess=lambda u: terms(u)[2],
                                       options={"gtol": 1e-10}).x
        f, _, neg_hess = terms(mode)
        assert laplace == pytest.approx(f + LOG_2PI - 0.5 * np.linalg.slogdet(neg_hess)[1],
                                        abs=1e-8)
        # with full steps only, the search fails far from the mode
        monkeypatch.setattr(likelihood, "_MIN_STEP", 0.75)
        with pytest.raises(EvaluationError, match="^subject a: no ascent step found") as err:
            LikelihoodEvaluator(d, is_spec).agq(theta, 1)
        assert isinstance(err.value.__cause__, ModeSearchError)
        assert float(str(err.value).rsplit(" ", 1)[1]) > 0.1  # the gradient norm

    def test_a_full_step_that_loses_only_to_rounding_is_kept(self, monkeypatch, is_spec):
        # a large G and a small sigma_e: at gradient norm 1.3e-7 the full
        # Newton step lowers f by 1.4e-14, above the rounding slack of 5.6e-15,
        # while its predicted rise g^T H^-1 g / 2 is about 1e-18; rejecting it
        # cost seven halvings and 17 passes in all
        theta = Theta([0.9, 2.8], [[-10.77, 0.0], [-5.28, 7.71]], [0.171])
        d = Dataset(subjects=(make_subject("a", [0.1, 0.3, 0.5], [6.6, 5.9, 5.9], [1, 0, 0],
                                           5.9),))
        calls = []
        derivatives = likelihood._Integrands._derivatives

        def counted(self, *args):
            calls.append(1)
            return derivatives(self, *args)

        monkeypatch.setattr(likelihood._Integrands, "_derivatives", counted)
        value = LikelihoodEvaluator(d, is_spec).agq(theta, 20)
        assert len(calls) == 8
        assert value == pytest.approx(-5.661792698079593, abs=1e-12)

    @pytest.mark.parametrize("ndim,cause", [(1, ModeSearchError), (2, IntegrationError)],
                             ids=["mode-search", "grid"])
    def test_batched_failure_names_subject(self, monkeypatch, is_spec, truth, ndim, cause):
        # Censored rows are stacked by subject, so row 1 is the first row of
        # "two-censored". The mode search passes log_ndtr all rows at once,
        # one value each; the grid passes consecutive chunks of rows, one
        # value per node. NaN goes to row 1 in one of the two stages.
        d = Dataset(subjects=(
            make_subject("observed", [0.0, 1.0], [3.1, 3.6], [1, 1], 2.5),
            make_subject("one-censored", [0.0, 1.0], [2.5, 3.4], [0, 1], 2.5),
            make_subject("two-censored", [0.0, 1.0, 2.0], [2.5, 2.5, 4.0], [0, 0, 1], 2.5),
        ))

        offset = [0]

        def poisoned(t):
            out = log_ndtr(t)
            if np.ndim(t) == ndim:
                if offset[0] <= 1 < offset[0] + len(out):
                    out[1 - offset[0]] = np.nan
                if ndim == 2:
                    offset[0] += len(out)
            return out

        monkeypatch.setattr(likelihood, "log_ndtr", poisoned)
        with pytest.raises(EvaluationError, match="^subject two-censored: ") as err:
            LikelihoodEvaluator(d, is_spec).agq(truth, 10)
        assert err.value.subject_id == "two-censored"
        assert isinstance(err.value.__cause__, cause)


class TestNaiveLoglik:
    def test_no_censoring_identical_to_marginal(self, is_spec, truth):
        d = simulate(SimConfig(n_subjects=5, n_per_subject=4, truth=truth,
                               threshold=-1e10, seed=23))
        assert loglik_naive(d, is_spec, truth) == pytest.approx(
            loglik_marginal(d, is_spec, truth), abs=1e-12)

    def test_single_censored_row_is_density_not_cdf(self):
        spec = random_intercept_model()
        theta = Theta([3.0], [[math.sqrt(0.5)]], [math.sqrt(0.2)])
        c = 2.4
        s = make_subject("a", [0.0], [c], [0], c)
        d = Dataset(subjects=(s,))
        total_var = 0.7
        expected = (-0.5 * (c - 3.0) ** 2 / total_var
                    - 0.5 * math.log(2 * math.pi * total_var))
        assert loglik_naive(d, spec, theta) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("loglik,observed", [
    (loglik_naive, [1, 1]), (loglik_marginal, [1, 1]), (loglik_agq, [1, 1]),
    (loglik_marginal, [0, 0]), (loglik_marginal, [0, 0, 0]),
], ids=["naive", "marginal", "agq", "marginal-2-censored", "marginal-3-censored"])
def test_overflowing_residual_gives_minus_inf(is_spec, truth, loglik, observed):
    # A residual of -1e200 squares to inf; the density is 0, not inf - inf.
    # An all-censored block's standardized limits are near -1e200, where
    # log Phi is -inf, and so is the block's log probability. (AGQ has no
    # finite mode-search start there; see test_bad_start_is_evaluation_error.)
    m = len(observed)
    d = Dataset(subjects=(make_subject("a", range(m), [3.0, 3.4, 3.8][:m], observed, 2.0),))
    far = Theta([1e200, 0.0], truth.chol, truth.sigma_e)
    assert loglik(d, is_spec, far) == -math.inf


class TestCrossMethodProperties:
    def test_cross_method_identity_small_random(self, truth):
        rng = np.random.default_rng(100)
        spec1 = random_intercept_model()
        spec2 = intercept_slope_model()
        for trial in range(10):
            q = 1 + trial % 2
            spec = spec1 if q == 1 else spec2
            theta_gen = random_theta(rng, q)
            d = random_small_dataset(rng, spec, theta_gen)
            theta_eval = random_theta(rng, q)
            lm = loglik_marginal(d, spec, theta_eval)
            la = loglik_agq(d, spec, theta_eval)
            assert abs(lm - la) <= 1e-4, f"trial {trial}: {lm} vs {la}"

    def test_permutation_invariance(self, is_spec, truth):
        rng = np.random.default_rng(101)
        s = make_subject("a", [0.0, 1.0, 2.0, 3.0], [2.8, 3.1, 2.8, 4.4],
                         [0, 1, 0, 1], 2.8)
        d = Dataset(subjects=(s,))
        base_m = loglik_marginal(d, is_spec, truth)
        base_a = loglik_agq(d, is_spec, truth)
        for _ in range(4):
            perm = rng.permutation(4)
            obs = tuple(s.observations[i] for i in perm)
            d2 = Dataset(subjects=(SubjectData(subject_id="a", observations=obs),))
            assert loglik_marginal(d2, is_spec, truth) == pytest.approx(base_m, abs=1e-10)
            assert loglik_agq(d2, is_spec, truth) == pytest.approx(base_a, abs=1e-10)


def block_alone(block, options, fixed=False):
    """The censored block's (log p, err_est, points, exhausted) from a group of one."""
    probs, error = mvn_rect_probs(*(a[None] for a in block), seed=options.seed, fixed=fixed)
    assert error is None
    return [None if a is None else a[0] for a in probs]


def dense_reference(dataset, spec, theta, options, fixed):
    """Naive and marginal totals, subject by subject, from the dense moments."""
    naive = marginal = 0.0
    for naive_term, observed, block in dense_terms(dataset, spec, theta):
        naive += naive_term
        marginal += observed
        if block is not None:
            marginal += block_alone(block, options, fixed)[0]
    return naive, marginal


@pytest.mark.parametrize("options,fixed", [(LogLikOptions(), False), (LogLikOptions(seed=3), True)],
                         ids=["adaptive", "fixed-points"])
class TestFlatEvaluatorAgainstDenseReference:
    def check(self, dataset, spec, theta, options, fixed):
        ev = LikelihoodEvaluator(dataset, spec, options)
        naive, marginal = dense_reference(dataset, spec, theta, options, fixed)
        assert ev.naive(theta) == pytest.approx(naive, abs=1e-10)
        assert ev.marginal(theta, fixed) == pytest.approx(marginal, abs=1e-10)
        # a singular G puts the integral in fewer dimensions than the u-space oracle
        if np.linalg.matrix_rank(theta.g_matrix()) == theta.q:
            order = min(40, max_order(theta.q))
            assert ev.agq(theta, order) == pytest.approx(
                agq_reference(dataset, spec, theta, order), abs=1e-9)

    def test_random_small_datasets(self, options, fixed):
        rng = np.random.default_rng(202)
        for trial in range(8):
            q = 1 + trial % 2
            spec = random_intercept_model() if q == 1 else intercept_slope_model()
            d = random_small_dataset(rng, spec, random_theta(rng, q))
            self.check(d, spec, random_theta(rng, q), options, fixed)

    def test_bivariate_two_strata(self, options, fixed):
        spec = bivariate_model()
        g = np.diag([0.5, 0.1, 0.5, 0.1])
        g[0, 2] = g[2, 0] = 0.1
        theta = Theta.from_moments([3.0, 0.5, 2.5, 0.3], g, [0.4, 0.6])
        d = simulate(SimConfig(n_subjects=6, n_per_subject=3, truth=theta,
                               target_censoring=0.3, seed=5, model=spec))
        assert d.n_censored > 0
        self.check(d, spec, theta, options, fixed)

    @pytest.mark.parametrize("chol", [[[0.7, 0.0], [-0.2, 0.0]], [[0.7, 0.0], [-0.2, 0.3]]],
                             ids=["rank-1-g", "full-g"])
    def test_all_censored_and_single_measure_subjects(self, is_spec, options, fixed, chol):
        theta = Theta([3.0, 0.5], chol, [0.45])
        d = Dataset(subjects=(
            make_subject("all-censored", [0.0, 1.0, 2.0], [2.9] * 3, [0, 0, 0], 2.9),
            make_subject("one-observed", [1.0], [3.3], [1], 2.9),
            make_subject("one-censored", [2.0], [2.9], [0], 2.9),
            make_subject("mixed", [0.0, 1.0, 2.0, 3.0], [2.9, 3.6, 2.9, 4.4], [0, 1, 0, 1], 2.9),
        ))
        self.check(d, is_spec, theta, options, fixed)


def _subject(sid, flags, markers):
    """One subject at times 0, 1, ... with the given observed flags and markers."""
    return SubjectData(sid, tuple(
        Observation(sid, float(j), 3.0 + 0.1 * j if o else 2.9, bool(o), 2.9, marker=mk)
        for j, (o, mk) in enumerate(zip(flags, markers))))


@pytest.mark.parametrize("model", ["ri", "is", "biv"])
def test_flat_layout_matches_the_subject_by_subject_reference(model):
    spec = MODEL_TEMPLATES[model]()
    simulated = simulate(SimConfig(n_subjects=12, n_per_subject=4, truth=default_truth(model),
                                   target_censoring=0.4, seed=11, model=spec))
    markers = [1, 2] * 3 if model == "biv" else [1] * 6
    d = Dataset(subjects=simulated.subjects + (
        _subject("all-censored", [0] * 6, markers),
        _subject("none-censored", [1] * 6, markers),
        _subject("interleaved", [0, 1, 1, 0, 1, 0], markers),
    ))
    ev = LikelihoodEvaluator(d, spec)
    reference = subject_layout(d, spec)
    assert ev.subject_ids == reference.pop("subject_ids")
    assert reference["count"].sum() == len(d.subjects)
    for name, expected in reference.items():
        actual = getattr(ev, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name
    # every censored block of size m lists its subjects and their m censored rows
    n_cens = np.diff(ev.start) - ev.n_obs
    assert np.array_equal(ev.n_cens, n_cens)
    cens_subject = ev.row_subject[~ev.observed]
    assert sum(blocks.size for _, blocks, _ in ev.cens_blocks) == np.count_nonzero(n_cens)
    for m, blocks, rows in ev.cens_blocks:
        assert np.all(n_cens[blocks] == m)
        assert np.array_equal(cens_subject[rows], np.repeat(blocks[:, None], m, axis=1))


def test_qmc_record_reports_exhausted_blocks(is_spec, truth):
    # 100 subjects x 10 times at 50% censoring has blocks of up to m = 10,
    # many of which cannot meet MVN_TOL within the budget; the record of the
    # grouped evaluation must count them as calls on each block alone do
    d = simulate(SimConfig(n_subjects=100, n_per_subject=10, truth=truth,
                           target_censoring=0.5, seed=7))
    ev = LikelihoodEvaluator(d, is_spec)
    # pinned, bit for bit: a change to the QMC streams or rule moves this total
    assert ev.marginal(truth) == -602.1559563319042
    record = ev.qmc_record
    # the 17 subjects censored at all ten times are one block, integrated once
    assert record.integrated == record.blocks - 16 == 49
    alone = [block_alone(block, LogLikOptions())
             for _, _, block in dense_terms(d, is_spec, truth)
             if block is not None and block[0].size >= 4]
    assert record.exhausted > 0
    assert record.exhausted == sum(exhausted for _, _, _, exhausted in alone)
    assert record.blocks == len(alone)
    assert record.points == sum(points for _, _, points, _ in alone)
    assert record.max_rel_err == pytest.approx(
        max(err * math.exp(-log_p) for log_p, err, _, _ in alone), rel=1e-6)


def test_qmc_record_describes_the_last_evaluation(is_spec, truth):
    d = simulate(SimConfig(n_subjects=20, n_per_subject=8, truth=truth,
                           target_censoring=0.6, seed=3))
    ev = LikelihoodEvaluator(d, is_spec)
    n_cens = np.diff(ev.start) - ev.n_obs
    qmc = n_cens >= 4
    assert np.any(qmc)
    # the record counts every subject of a class of identical ones
    points = sum(c * 10 * FIT_POINTS.get(m, FIT_POINTS_DEFAULT)
                 for m, c in zip(n_cens[qmc], ev.count[qmc]))
    for _ in range(2):
        # pinned: a change to the QMC streams or rule moves this total
        assert ev.marginal(truth, fixed=True) == pytest.approx(-89.35815290417091, abs=1e-9)
        assert ev.qmc_record.blocks == ev.count[qmc].sum() and ev.qmc_record.points == points
        assert ev.qmc_record.integrated == np.count_nonzero(qmc)
        assert ev.qmc_record.exhausted == 0 and 0.0 < ev.qmc_record.max_rel_err < 1.0
    uncensored = simulate(SimConfig(n_subjects=5, n_per_subject=3, truth=truth,
                                    threshold=-1e10, seed=3))
    ev = LikelihoodEvaluator(uncensored, is_spec)
    ev.marginal(truth)
    assert ev.qmc_record == likelihood.QmcRecord()


@pytest.fixture(scope="module")
def censored_100x10(truth):
    """100 subjects x 10 times at 50% target censoring: censored blocks of up to m = 10."""
    return simulate(SimConfig(n_subjects=100, n_per_subject=10, truth=truth,
                              target_censoring=0.5, seed=7))


@pytest.mark.xfail(strict=True, reason="ROADMAP defect 1: each block's Genz variable order is "
                                       "picked from its moments, so it switches with theta and "
                                       "the fixed-count total jumps there")
def test_fixed_count_total_is_continuous_across_a_genz_order_switch(is_spec, censored_100x10):
    # two thetas 9.3e-13 apart on the line through the truth along a unit
    # direction, bracketing the point where some block's pivot order
    # switches, found by bisecting on the pivot orders of every block; the
    # totals jump by -1.74e-4 there
    below = [2.998277436343755, 0.49590464614469076, 0.70545971829658, -0.13492577184115323,
             0.27832996811967237, 0.44498864241158886]
    above = [2.9982774363439244, 0.4959046461450929, 0.7054597182967418, -0.13492577184179103,
             0.2783299681201155, 0.44498864241180736]
    ev = LikelihoodEvaluator(censored_100x10, is_spec)
    totals = [ev.marginal(theta_from_vector(x, is_spec), fixed=True) for x in (below, above)]
    assert totals[0] == pytest.approx(totals[1], abs=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP defect 2: the AGQ grid is oriented by the "
                                       "eigenvectors of G, in ascending order of their "
                                       "eigenvalues, which swap where two eigenvalues cross")
def test_agq_total_is_continuous_where_two_eigenvalues_of_g_meet(is_spec, truth, censored_100x10):
    # G = diag(0.3 +- 1e-12, 0.3): the order-20 totals differ by 0.1375
    ev = LikelihoodEvaluator(censored_100x10, is_spec)
    totals = [ev.agq(Theta.from_moments(truth.beta, np.diag([0.3 + d, 0.3]), truth.sigma_e), 20)
              for d in (-1e-12, 1e-12)]
    assert totals[0] == pytest.approx(totals[1], abs=1e-9)


# ---------------------------------------------------------------------------
# Each subject's GH order from its own integral
# ---------------------------------------------------------------------------


def integrands_at(monkeypatch, dataset, spec, theta):
    """The ``_Integrands`` of one AGQ evaluation at ``theta``, modes found."""
    made = []
    build = likelihood._Integrands

    def kept(*args):
        made.append(build(*args))
        return made[-1]

    monkeypatch.setattr(likelihood, "_Integrands", kept)
    LikelihoodEvaluator(dataset, spec).agq(theta, 1)
    monkeypatch.setattr(likelihood, "_Integrands", build)
    return made[0]


@pytest.fixture(scope="module")
def ri_40x6():
    """The random-intercept model, r = 1, on 40 subjects x 6 at 40% target censoring."""
    return simulate(SimConfig(n_subjects=40, n_per_subject=6, truth=default_truth("ri"),
                              target_censoring=0.4, seed=11, model=MODEL_TEMPLATES["ri"]()))


@pytest.fixture(scope="module")
def cubature_cases(benchmark_dataset, censored_100x10, ri_40x6):
    """(data, spec, truth, cubature total): r = 2 on the 50x5 data and on 25 subjects of the
    100x10 data, whose rule orders are 20, 40 and 64, and r = 1 on the ri data."""
    cases = {"50x5": (benchmark_dataset, "is"),
             "100x10[:25]": (Dataset(subjects=censored_100x10.subjects[:25]), "is"),
             "ri-40x6": (ri_40x6, "ri")}
    return {name: (d, MODEL_TEMPLATES[model](), default_truth(model),
                   cubature_loglik(d, MODEL_TEMPLATES[model](), default_truth(model)))
            for name, (d, model) in cases.items()}


@pytest.mark.parametrize("data", ["50x5", "100x10[:25]", "ri-40x6"])
def test_agq_totals_agree_with_the_cubature_oracle(cubature_cases, data):
    d, spec, theta, oracle = cubature_cases[data]
    ev = LikelihoodEvaluator(d, spec)
    orders, total = ev.agq_order(theta)
    assert abs(total - oracle) < ev.options.qtol
    assert abs(ev.agq(theta, 64) - oracle) < 1e-7
    # the rule's total is the total at its orders, from one pass per order
    assert ev.agq(theta, orders) == total


def test_the_cubature_oracle_has_converged(censored_100x10, is_spec, truth):
    # a wider, finer grid moves the total of 6 subjects by rounding only;
    # on all 100 subjects the total is -602.1559702422601 and moves by 3.6e-12
    d = Dataset(subjects=censored_100x10.subjects[:6])
    assert cubature_loglik(d, is_spec, truth, half_width=14.0, step=0.05) == pytest.approx(
        cubature_loglik(d, is_spec, truth), abs=1e-11)


def test_each_subject_stops_at_its_own_order(censored_100x10, is_spec, truth):
    ev = LikelihoodEvaluator(censored_100x10, is_spec)
    orders, total = ev.agq_order(truth)
    # at the truth, 1 of the 84 distinct censored subjects needs the cap
    assert np.unique(orders, return_counts=True)[1].tolist() == [66, 17, 1]
    assert total == pytest.approx(ev.agq(truth, 64), abs=1e-9)
    with pytest.raises(DimensionError, match="^83 GH orders, 84 subjects with censored rows$"):
        ev.agq(truth, orders[1:])


@pytest.mark.parametrize("model,data", [("ri", "ri_40x6"), ("is", "censored_100x10")])
def test_a_pass_over_some_subjects_gives_their_values_bit_for_bit(request, monkeypatch,
                                                                  model, data):
    spec = MODEL_TEMPLATES[model]()
    integrands = integrands_at(monkeypatch, request.getfixturevalue(data), spec,
                               default_truth(model))
    n = integrands.counts.size
    some = np.arange(1, n, 3)
    rows = likelihood._rows_of(integrands.counts, integrands.seg, some)
    every = integrands.log_integrals(64, moments=True)
    part = integrands.log_integrals(64, moments=True, subjects=some)
    assert np.array_equal(part[0], every[0][some])
    for whole, sub, index in zip(every[1], part[1], (some, some, rows, rows)):
        assert np.array_equal(sub, whole[index])
    # one pass per order: each subject's values are those of its order's pass
    orders = np.where(np.arange(n) % 3 == 1, 64, 20)
    mixed = integrands.log_integrals(orders, moments=True)
    at_20 = integrands.log_integrals(20, moments=True)
    assert np.array_equal(mixed[0], np.where(orders == 64, every[0], at_20[0]))
    row_orders = np.repeat(orders, integrands.counts)
    for k, (got, high, low) in enumerate(zip(mixed[1], every[1], at_20[1])):
        pick = orders if k < 2 else row_orders
        pick = pick.reshape(pick.shape + (1,) * (got.ndim - 1))
        assert np.array_equal(got, np.where(pick == 64, high, low))


def test_a_failure_names_the_first_failing_subject_in_layout_order(monkeypatch, is_spec, truth,
                                                                   censored_20x8):
    integrands = integrands_at(monkeypatch, censored_20x8, is_spec, truth)
    # subjects 0 and 1 fail; 1 is in the pass at order 20, which runs first
    integrands.shift[:integrands.seg[2]] = np.nan
    orders = np.full(integrands.counts.size, 20)
    orders[0] = 64
    with pytest.raises(EvaluationError) as err:
        integrands.log_integrals(orders)
    assert err.value.subject_id == integrands.ids[0]
    assert isinstance(err.value.__cause__, IntegrationError)


def test_halving_evaluates_only_the_subjects_that_need_it(monkeypatch, is_spec):
    # subject "a" (five censored rows, a large G, a small sigma_e) needs
    # halvings; "b" and "c" do not. Each halving evaluates "a" alone, and
    # every mode equals the one that a search over its subject alone finds
    times, c = np.array([0.0, 0.4, 1.8, 2.5, 2.9]), -2.2
    theta = Theta([-1.3, -1.9], [[5.23, 0.0], [-5.03, 2.28]], [0.075])
    subjects = (make_subject("b", times, [-1.0, -2.5, -5.0, c, c], [1, 1, 1, 0, 0], c),
                make_subject("a", times, [c] * 5, [0] * 5, c),
                make_subject("c", times, [-0.9, c, -4.8, -6.1, c], [1, 0, 1, 1, 0], c))
    sizes = []
    derivatives = likelihood._Integrands._derivatives

    def counted(self, v, subjects=None):
        sizes.append(self.counts.size if subjects is None else subjects.size)
        return derivatives(self, v, subjects)

    monkeypatch.setattr(likelihood._Integrands, "_derivatives", counted)
    together = integrands_at(monkeypatch, Dataset(subjects=subjects), is_spec, theta)
    assert 1 in sizes and set(sizes) == {1, 3}
    for s, subject in enumerate(subjects):
        alone = integrands_at(monkeypatch, Dataset(subjects=(subject,)), is_spec, theta)
        assert np.array_equal(alone.mode[0], together.mode[s])


@pytest.fixture(scope="module")
def censored_20x8(truth):
    """20 subjects x 8 times at 60% target censoring: censored blocks of m >= 4."""
    d = simulate(SimConfig(n_subjects=20, n_per_subject=8, truth=truth,
                           target_censoring=0.6, seed=3))
    assert np.any(LikelihoodEvaluator(d, intercept_slope_model()).n_cens >= 4)
    return d


class TestEveryOptionChangesTheEvaluation:
    """Each accuracy field of LogLikOptions moves what the evaluator computes."""

    def test_seed_moves_the_fixed_count_total(self, censored_20x8, is_spec, truth):
        totals = [LikelihoodEvaluator(censored_20x8, is_spec, LogLikOptions(seed=seed))
                  .marginal(truth, fixed=True) for seed in (0, 3)]
        assert totals[0] != totals[1]

    def test_qtol_moves_the_picked_order(self, censored_20x8, is_spec, truth):
        orders = [LikelihoodEvaluator(censored_20x8, is_spec, LogLikOptions(qtol=qtol))
                  .agq_order(truth)[0] for qtol in (1e-6, 1e-3, 1e-1)]
        # one subject needs the cap at 1e-6; a looser qtol lowers its order
        assert [o.max() for o in orders] == [64, 40, 20]
        assert np.all(orders[0] >= orders[1]) and np.all(orders[1] >= orders[2])

    def test_pinned_order_moves_the_total(self, censored_20x8, is_spec, truth):
        by_rule = LikelihoodEvaluator(censored_20x8, is_spec)
        pinned = LikelihoodEvaluator(censored_20x8, is_spec, LogLikOptions(gh_order=5))
        orders, total = pinned.agq_order(truth)
        assert orders.tolist() == [5] * np.count_nonzero(pinned.n_cens)
        assert total == by_rule.agq(truth, 5)
        assert pinned.agq(truth) != by_rule.agq(truth)

    def test_pin_skips_the_doubling_rule(self, censored_20x8, is_spec, truth, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a pinned order must not run the doubling rule")

        monkeypatch.setattr(likelihood.quadrature, "choose_orders", no_rule)
        ev = LikelihoodEvaluator(censored_20x8, is_spec, LogLikOptions(gh_order=10))
        orders, total = ev.agq_order(truth)
        assert set(orders.tolist()) == {10} and total == ev.agq(truth, 10)

    @pytest.mark.parametrize("model,pin,cap", [("is", 100, 64), ("biv", 40, 20)])
    def test_pinned_order_capped_at_max_order(self, model, pin, cap):
        spec, theta = MODEL_TEMPLATES[model](), default_truth(model)
        d = simulate(SimConfig(n_subjects=6, n_per_subject=4, truth=theta,
                               target_censoring=0.4, seed=5, model=spec))
        assert max_order(spec.q) == cap
        ev = LikelihoodEvaluator(d, spec, LogLikOptions(gh_order=pin))
        orders, total = ev.agq_order(theta)
        assert set(orders.tolist()) == {cap} and total == ev.agq(theta, cap)


@pytest.mark.parametrize("settings", [{"qtol": 0.0}, {"qtol": -1e-6}, {"qtol": math.nan},
                                      {"gh_order": 0}])
def test_options_reject_values_without_a_meaning(settings):
    # gh_order is the pin, so a qtol <= 0 has no meaning
    with pytest.raises(ValueError):
        LogLikOptions(**settings)


def _scores_agree(actual, expected):
    assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12 * np.max(np.abs(expected)))


class TestIdenticalSubjectsAreOneSubject:
    """The table holds identical subjects once, and every path weights its terms by their count."""

    K = 3

    def _evaluators(self, dataset, spec, s):
        """Evaluators of the data, of its table's subject s alone and of the data with K copies of it."""
        base = LikelihoodEvaluator(dataset, spec)
        subject = next(x for x in dataset.subjects if x.subject_id == base.subject_ids[s])
        more = LikelihoodEvaluator(with_copies(dataset, subject, self.K), spec)
        # the copies are no new subjects of the layout, only a larger count
        assert more.subject_ids == base.subject_ids
        assert np.array_equal(more.count, base.count + self.K * (np.arange(base.count.size) == s))
        return base, LikelihoodEvaluator(Dataset(subjects=(subject,)), spec), more

    def _paths_add_k_terms(self, evs, truth, marginal_score):
        flat = Theta(truth.beta, np.zeros((2, 2)), truth.sigma_e)
        paths = {
            "naive": lambda ev: ev.naive(truth, score=True),
            "agq": lambda ev: ev.agq(truth, 20, score=True),
            "agq at G = 0": lambda ev: ev.agq(flat, 20, score=True),
        }
        if marginal_score:
            paths["marginal"] = lambda ev: ev.marginal(truth, score=True)
        for name, path in paths.items():
            (total, score), (term, own), (grown, grown_score) = map(path, evs)
            assert grown == pytest.approx(total + self.K * term, rel=1e-12), name
            _scores_agree(grown_score, score + self.K * own)

    def test_copies_of_a_qmc_block_add_k_terms(self, censored_20x8, is_spec, truth):
        base = LikelihoodEvaluator(censored_20x8, is_spec)
        # a subject with a QMC block (m >= 4) that repeats no other
        s = next(s for s in range(base.count.size) if base.n_cens[s] >= 4 and base.count[s] == 1)
        evs = self._evaluators(censored_20x8, is_spec, s)
        self._paths_add_k_terms(evs, truth, marginal_score=False)
        for fixed in (False, True):
            (total, record), (term, alone), (grown, grown_record) = [
                (ev.marginal(truth, fixed), ev.qmc_record) for ev in evs]
            assert grown == pytest.approx(total + self.K * term, rel=1e-12)
            assert grown_record.blocks == record.blocks + self.K
            assert grown_record.points == record.points + self.K * alone.points
            assert grown_record.exhausted == record.exhausted + self.K * alone.exhausted
            assert grown_record.integrated == record.integrated

    @pytest.mark.parametrize("n_cens", [3, 0])
    def test_copies_add_k_terms_and_marginal_scores(self, benchmark_dataset, is_spec, truth,
                                                    n_cens):
        base = LikelihoodEvaluator(benchmark_dataset, is_spec)
        assert base.marginal_has_score
        s = next(s for s in range(base.count.size) if base.n_cens[s] == n_cens)
        self._paths_add_k_terms(self._evaluators(benchmark_dataset, is_spec, s), truth,
                                marginal_score=True)

    def test_a_limit_one_ulp_apart_stays_apart(self, is_spec, truth):
        # "b" repeats "a"; "c" moves one detection limit by one ulp
        a = make_subject("a", range(5), [2.5, 2.5, 2.5, 2.5, 4.0], [0, 0, 0, 0, 1], 2.5)
        limit = float(np.nextafter(2.5, 3.0))
        c = SubjectData("c", (dataclasses.replace(a.observations[0], subject_id="c",
                                                  response=limit, threshold=limit),)
                        + renamed(a, "c").observations[1:])
        ev = LikelihoodEvaluator(Dataset(subjects=(a, renamed(a, "b"), c)), is_spec)
        assert ev.subject_ids == ("a", "c")
        assert ev.count.tolist() == [2, 1]
        ev.marginal(truth)
        assert (ev.qmc_record.blocks, ev.qmc_record.integrated) == (3, 2)

    def test_a_failing_class_names_its_first_subject(self):
        # "pair" and "pair-copy" are one class; between them sits "between",
        # whose rows evaluate. Only the class has marker-2 rows, so a theta
        # that breaks marker 2 breaks only it.
        spec = bivariate_model()

        def subject(sid, markers, observed):
            return SubjectData(sid, tuple(
                Observation(sid, float(j), 3.0 + 0.1 * j if o else 2.9, bool(o), 2.9, marker=mk)
                for j, (mk, o) in enumerate(zip(markers, observed))))

        pair = subject("pair", [1, 2, 2], [1, 0, 0])
        d = Dataset(subjects=(
            subject("first", [1, 1], [1, 0]), pair, subject("between", [1, 1, 1], [0, 1, 0]),
            renamed(pair, "pair-copy"),
        ))
        ev = LikelihoodEvaluator(d, spec)
        assert ev.subject_ids == ("first", "pair", "between")
        assert ev.count.tolist() == [1, 2, 1]
        truth = default_truth("biv")
        # G = 0 and a marker-2 residual variance of 1e-14, below the floor
        flat = Theta(truth.beta, np.zeros((4, 4)), [truth.sigma_e[0], 1e-7])
        with pytest.raises(EvaluationError, match="^subject pair: ") as err:
            ev.marginal(flat)
        assert err.value.subject_id == "pair"
        assert isinstance(err.value.__cause__, NotPositiveDefiniteError)
        # a marker-2 intercept of 1e200 leaves the class's mode search no finite start
        far = Theta(np.array([3.0, 0.5, 1e200, 0.3]), truth.chol, truth.sigma_e)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(EvaluationError, match="^subject pair: ") as err:
            ev.agq(far, 10)
        assert err.value.subject_id == "pair"
        assert isinstance(err.value.__cause__, ModeSearchError)
