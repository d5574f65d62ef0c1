import math

import numpy as np
import pytest
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
from conftest import make_subject, random_small_dataset, random_theta
from oracles import (agq_reference, conditional_moments, dense_terms, marginal_moments,
                     subject_layout)

LOG_2PI = math.log(2.0 * math.pi)


def closed_form_loglik(dataset, spec, theta):
    """Independent mixed-model log-likelihood for fully observed data."""
    from censlmm.data import build_designs

    g = theta.g_matrix()
    total = 0.0
    for subject in dataset.subjects:
        x, z = build_designs(subject.observations, spec)
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

    def test_reflection_makes_negatives_valid(self, is_spec):
        vec = np.array([3.0, 0.5, -0.7, -0.2, -0.3, -0.45])
        theta = theta_from_vector(vec, is_spec)
        assert np.all(np.diag(theta.chol) >= 0)
        assert np.all(theta.sigma_e >= 0)
        # the sign flips take whole columns, so G is the raw vector's L L^T
        raw = np.array([[-0.7, 0.0], [-0.2, -0.3]])
        assert theta.g_matrix() == pytest.approx(raw @ raw.T, abs=1e-15)

    def test_gradient_is_smooth_where_a_diagonal_entry_of_l_is_zero(self, is_spec, truth,
                                                                      benchmark_dataset):
        # With L11 = 0 and L21 != 0, G12 = L11 L21 changes sign with L11. A
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
    # pinned: a change to the QMC streams or rule moves this total
    assert ev.marginal(truth) == pytest.approx(-602.1559563319042, abs=1e-9)
    record = ev.qmc_record
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
    sizes = n_cens[n_cens >= 4]
    assert sizes.size > 0
    points = sum(10 * FIT_POINTS.get(m, FIT_POINTS_DEFAULT) for m in sizes)
    for _ in range(2):
        # pinned: a change to the QMC streams or rule moves this total
        assert ev.marginal(truth, fixed=True) == pytest.approx(-89.35815290417091, abs=1e-9)
        assert ev.qmc_record.blocks == sizes.size and ev.qmc_record.points == points
        assert ev.qmc_record.exhausted == 0 and 0.0 < ev.qmc_record.max_rel_err < 1.0
    uncensored = simulate(SimConfig(n_subjects=5, n_per_subject=3, truth=truth,
                                    threshold=-1e10, seed=3))
    ev = LikelihoodEvaluator(uncensored, is_spec)
    ev.marginal(truth)
    assert ev.qmc_record == likelihood.QmcRecord()


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
        assert orders == [64, 40, 20]

    def test_pinned_order_moves_the_total(self, censored_20x8, is_spec, truth):
        by_rule = LikelihoodEvaluator(censored_20x8, is_spec)
        pinned = LikelihoodEvaluator(censored_20x8, is_spec, LogLikOptions(gh_order=5))
        assert pinned.agq_order(truth) == (5, by_rule.agq(truth, 5))
        assert pinned.agq(truth) != by_rule.agq(truth)

    def test_pin_skips_the_doubling_rule(self, censored_20x8, is_spec, truth, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a pinned order must not run the doubling rule")

        monkeypatch.setattr(likelihood.quadrature, "choose_order", no_rule)
        ev = LikelihoodEvaluator(censored_20x8, is_spec, LogLikOptions(gh_order=10))
        assert ev.agq_order(truth) == (10, ev.agq(truth, 10))

    @pytest.mark.parametrize("model,pin,cap", [("is", 100, 64), ("biv", 40, 20)])
    def test_pinned_order_capped_at_max_order(self, model, pin, cap):
        spec, theta = MODEL_TEMPLATES[model](), default_truth(model)
        d = simulate(SimConfig(n_subjects=6, n_per_subject=4, truth=theta,
                               target_censoring=0.4, seed=5, model=spec))
        assert max_order(spec.q) == cap
        ev = LikelihoodEvaluator(d, spec, LogLikOptions(gh_order=pin))
        assert ev.agq_order(theta) == (cap, ev.agq(theta, cap))


@pytest.mark.parametrize("settings", [{"qtol": 0.0}, {"qtol": -1e-6}, {"qtol": math.nan},
                                      {"gh_order": 0}])
def test_options_reject_values_without_a_meaning(settings):
    # gh_order is the pin, so a qtol <= 0 has no meaning
    with pytest.raises(ValueError):
        LogLikOptions(**settings)
