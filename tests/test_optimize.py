import math
from collections import Counter

import numpy as np
import pytest

from censlmm.data import MODEL_TEMPLATES, Dataset, intercept_slope_model
from censlmm.errors import EvaluationError, GradientError, OptimizationStall
from censlmm.likelihood import (
    LikelihoodEvaluator,
    LogLikOptions,
    Method,
    Theta,
    n_free_params,
    natural_from_vector,
    theta_from_vector,
    theta_to_vector,
)
from censlmm import optimize
from censlmm.optimize import (
    _natural_jacobian,
    _wrap_objective,
    fd_gradient,
    fd_hessian,
    fit_model,
    moment_start,
    quasi_newton_maximize,
    score_hessian,
)
from censlmm.simulate import SimConfig, simulate, default_truth
from conftest import make_subject, with_copies
from oracles import design_rows


def rosenbrock_neg(x):
    return -float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


class TestFdGradient:
    def test_square_central(self):
        g = fd_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_affine_exact(self):
        # exact in exact arithmetic; float division leaves ~1e-12
        g = fd_gradient(lambda x: float(2 * x[0] - x[1]), np.array([0.3, -0.7]))
        assert g == pytest.approx([2.0, -1.0], abs=1e-10)

    def test_nonfinite_probe_names_coordinate(self):
        def f(x):
            return math.nan if x[1] > 0.5 else float(x.sum())

        with pytest.raises(GradientError) as err:
            fd_gradient(f, np.array([0.0, 0.5]))
        assert err.value.coordinate == 1

    def test_loglik_gradient_against_richardson(self, is_spec, truth, benchmark_dataset):
        ev = LikelihoodEvaluator(benchmark_dataset, is_spec, LogLikOptions())
        f = lambda x: ev.marginal(theta_from_vector(x, is_spec))
        x = theta_to_vector(truth)
        g = fd_gradient(f, x)

        # Richardson extrapolation of central differences at two step sizes
        def central(h_rel):
            h = h_rel * np.maximum(1.0, np.abs(x))
            out = np.empty_like(x)
            for k in range(x.shape[0]):
                xp, xm = x.copy(), x.copy()
                xp[k] += h[k]
                xm[k] -= h[k]
                out[k] = (f(xp) - f(xm)) / (2 * h[k])
            return out

        d1, d2 = central(1e-4), central(5e-5)
        oracle = (4.0 * d2 - d1) / 3.0
        assert g == pytest.approx(oracle, rel=1e-4, abs=1e-6)


class TestFdHessian:
    def test_quadratic_exact(self):
        h = fd_hessian(lambda x: float(x[0] ** 2 + 3 * x[0] * x[1] - 2 * x[1] ** 2),
                       np.array([0.4, -1.2]))
        assert h == pytest.approx(np.array([[2.0, 3.0], [3.0, -4.0]]), abs=1e-6)

    def test_known_center_value_is_not_recomputed(self):
        calls = []
        f = lambda x: calls.append(1) or float(x[0] ** 2 + 3 * x[0] * x[1])  # noqa: E731
        x = np.array([0.4, -1.2])
        h = fd_hessian(f, x, f0=f(x))
        assert len(calls) == 1 + 2 * 2 + 4
        assert h == pytest.approx(np.array([[2.0, 3.0], [3.0, 0.0]]), abs=1e-6)

    def test_nonfinite_probe_raises(self):
        # the probes at x0 + h leave the finite domain
        f = lambda x: -math.inf if x[0] > 0.4 else float(x @ x)  # noqa: E731
        with pytest.raises(GradientError, match="^Hessian probe hit a non-finite objective value$"):
            fd_hessian(f, np.array([0.4, -1.2]))


def test_score_hessian_is_the_symmetrised_difference_of_the_gradient():
    # gradient of x0^2 + 3 x0 x1 - 2 x1^2 + x0^3, plus an antisymmetric part
    # that symmetrisation removes
    grad = lambda x: np.array([2 * x[0] + 3 * x[1] + 3 * x[0] ** 2 + x[1],  # noqa: E731
                               3 * x[0] - 4 * x[1] - x[0]])
    x = np.array([0.4, -1.2])
    expected = np.array([[2.0 + 6 * x[0], 3.0], [3.0, -4.0]])
    assert score_hessian(grad, x) == pytest.approx(expected, abs=1e-9)


class TestQuasiNewton:
    def test_quadratic_bowl_fast(self):
        center = np.array([1.0, -2.0, 0.5])
        f = lambda z: -float(np.sum((z - center) ** 2))
        x, trace = quasi_newton_maximize(f, np.zeros(3))
        assert x == pytest.approx(center, abs=1e-7)
        assert trace.iterations <= 5  # dimension + 2

    def test_nonsmooth_probe(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITER", 500)
        f = lambda z: -float(abs(z[0]) ** 1.5)
        x, _ = quasi_newton_maximize(f, np.array([1.0]))
        assert abs(x[0]) <= 1e-4

    def test_rosenbrock(self, monkeypatch):
        monkeypatch.setattr(optimize, "G_TOL", 1e-7)
        monkeypatch.setattr(optimize, "MAX_ITER", 500)
        x, trace = quasi_newton_maximize(rosenbrock_neg, np.array([-1.2, 1.0]))
        assert np.abs(x - 1.0).max() <= 1e-5

    def test_line_search_failure_returns_its_reason(self):
        # asymmetric tent: the central-difference gradient at 0 reads +0.5,
        # yet every candidate step is strictly worse, so all halvings fail
        f = lambda z: 2.0 * float(z[0]) if z[0] <= 0 else -float(z[0])
        x, trace = quasi_newton_maximize(f, np.array([0.0]))
        assert x[0] == 0.0
        assert trace.f_values == [0.0]
        assert trace.converged is False
        assert trace.stop_reason == ("line search failed after 50 halvings"
                                     " (gradient norm 5.000e-01)")

    def test_creep_to_the_edge_of_the_domain_keeps_the_last_point(self):
        # the line search accepts a point within a gradient step of z = 1,
        # the edge of the finite domain, where the upper probe reads -inf
        f = lambda z: -float((z[0] - 2.0) ** 2) if z[0] <= 1.0 else -math.inf
        x, trace = quasi_newton_maximize(f, np.array([0.0]))
        assert 1.0 - 6e-6 < x[0] <= 1.0
        assert trace.f_values == [-4.0, f(x)]
        assert math.isnan(trace.gradient_norms[-1])
        assert trace.converged is False
        assert trace.stop_reason == "objective not finite at probe of coordinate 0"

    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_nonfinite_start_returns_its_reason(self, value):
        x, trace = quasi_newton_maximize(lambda z: value, np.array([0.5, 1.5]))
        assert list(x) == [0.5, 1.5]
        assert trace.n_evals == 1 and trace.iterations == 1
        assert trace.converged is False
        assert trace.stop_reason == "objective not finite at the start"

    def test_iteration_limit_returns_the_value_at_its_point(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITER", 4)
        x, trace = quasi_newton_maximize(rosenbrock_neg, np.array([-1.2, 1.0]))
        assert trace.stop_reason == "iteration limit reached"
        assert trace.iterations == 4
        assert trace.f_values[-1] == rosenbrock_neg(x)
        assert trace.gradient_norms[-1] == float(np.linalg.norm(fd_gradient(rosenbrock_neg, x)))

    @pytest.mark.parametrize("g_tol,converged,reason", [
        (1e-5, False, "no progress"),
        (1.0, True, "function change and gradient norm below tolerance"),
    ])
    def test_stops_when_accepted_step_leaves_x_unchanged(self, monkeypatch, g_tol, converged,
                                                          reason):
        # a kink at 1000 on a plateau of height 5: the central-difference
        # gradient reads 0.5, every step that moves x loses, and once the
        # halved step is below half an ulp of 1000 the candidate equals x and
        # its value passes the sufficient-increase test at float resolution;
        # the state would then repeat, so the gradient test decides at once
        f = lambda z: 5.0 + (2.0 * (z[0] - 1e3) if z[0] <= 1e3 else -(z[0] - 1e3))
        monkeypatch.setattr(optimize, "G_TOL", g_tol)
        x, trace = quasi_newton_maximize(f, np.array([1e3]))
        assert x[0] == 1e3
        assert trace.converged is converged
        assert trace.stop_reason == reason
        assert trace.iterations == 1

    def test_gradient_callable_replaces_the_probes(self):
        center = np.array([1.0, -2.0, 0.5])
        values, grads = [], []

        def f(z):
            values.append(1)
            return -float(np.sum((z - center) ** 2))

        def gradient(z):
            grads.append(1)
            return -2.0 * (z - center)

        x, trace = quasi_newton_maximize(f, np.zeros(3), gradient=gradient)
        assert x == pytest.approx(center, abs=1e-9)
        assert trace.converged
        # one gradient per point checked, and no probes of f
        assert len(grads) == trace.iterations
        assert trace.n_evals == len(values) + len(grads)

    def test_gradient_error_stops_the_run_with_its_text(self, is_spec, small_dataset):
        def gradient(z):
            raise GradientError("score not finite")

        # a library error in the score: the naive path rejects sigma_e = 0
        score = optimize._score_gradient(LikelihoodEvaluator(small_dataset, is_spec).naive,
                                         is_spec)
        for grad, x0, reason in [
            (gradient, np.ones(2), "score not finite"),
            (score, np.r_[np.ones(5), 0.0],
             "score not available: residual variance must be strictly positive"),
        ]:
            x, trace = quasi_newton_maximize(lambda z: -float(z @ z), x0, gradient=grad)
            assert np.array_equal(x, x0)
            assert trace.stop_reason == reason
            assert math.isnan(trace.gradient_norms[-1])

    def test_n_evals_counts_every_objective_call(self, monkeypatch):
        calls = [0]

        def counted(z):
            calls[0] += 1
            return rosenbrock_neg(z)

        monkeypatch.setattr(optimize, "G_TOL", 1e-7)
        monkeypatch.setattr(optimize, "MAX_ITER", 500)
        _, trace = quasi_newton_maximize(counted, np.array([-1.2, 1.0]))
        assert trace.n_evals == calls[0]


@pytest.fixture(scope="module")
def small_dataset():
    return simulate(SimConfig(n_subjects=25, n_per_subject=5, truth=default_truth(),
                              target_censoring=0.18, seed=515))


def test_wrapped_objective_maps_errors_and_nan_to_minus_inf():
    def failing(x):
        raise EvaluationError("subject a: bad", subject_id="a")

    assert _wrap_objective(failing)(np.zeros(2)) == -math.inf
    assert _wrap_objective(lambda x: math.nan)(np.zeros(2)) == -math.inf
    assert _wrap_objective(lambda x: -3.5)(np.zeros(2)) == -3.5


def test_moment_start_counts_each_identical_subject(benchmark_dataset, is_spec):
    # the table holds each class of identical subjects once; the reference is
    # unweighted least squares on every input subject's rows
    subjects = benchmark_dataset.subjects
    d = with_copies(with_copies(benchmark_dataset, subjects[3], 4), subjects[7], 1)
    assert d.table.count.sum() == len(subjects) + 5
    rows = [o for s in d.subjects for o in s.observations]
    x, _ = design_rows(rows, is_spec)
    y = np.array([o.response if o.is_observed else o.threshold for o in rows])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    sd = math.sqrt(float(np.sum((y - x @ beta) ** 2)) / (y.size - is_spec.p) / 2.0)
    start = moment_start(d, is_spec)
    assert start.beta == pytest.approx(beta, rel=1e-12, abs=1e-12)
    assert start.sigma_e == pytest.approx([sd], rel=1e-12)
    assert start.chol == pytest.approx(sd * np.eye(is_spec.q), rel=1e-12)


class TestFitModel:
    def test_uncensored_matches_statsmodels(self, is_spec, truth):
        statsmodels = pytest.importorskip("statsmodels.api")
        d = simulate(SimConfig(n_subjects=40, n_per_subject=5, truth=truth,
                               threshold=-1e10, seed=77))
        res = fit_model(d, is_spec, LogLikOptions(method=Method.MARGINAL))
        assert res.converged

        rows = [(int(s.subject_id), o.time, o.response)
                for s in d.subjects for o in s.observations]
        groups = np.array([r[0] for r in rows])
        times = np.array([r[1] for r in rows])
        y = np.array([r[2] for r in rows])
        exog = np.column_stack([np.ones_like(times), times])
        model = statsmodels.MixedLM(y, exog, groups=groups, exog_re=exog)
        sm_fit = model.fit(reml=False, method="lbfgs")

        ours = dict(zip(res.param_names, res.estimates))
        assert ours["intercept"] == pytest.approx(sm_fit.fe_params[0], abs=1e-4)
        assert ours["slope"] == pytest.approx(sm_fit.fe_params[1], abs=1e-4)
        cov_re = np.asarray(sm_fit.cov_re)
        assert ours["var_intercept"] == pytest.approx(cov_re[0, 0], abs=1e-4)
        assert ours["cov_intercept_slope"] == pytest.approx(cov_re[0, 1], abs=1e-4)
        assert ours["var_slope"] == pytest.approx(cov_re[1, 1], abs=1e-4)
        assert ours["var_residual"] == pytest.approx(sm_fit.scale, abs=1e-4)

    def test_explicit_start_respected(self, is_spec, small_dataset, truth):
        res = fit_model(small_dataset, is_spec,
                        LogLikOptions(method=Method.MARGINAL), start=truth)
        assert res.converged

    def test_start_replaces_the_naive_warm_start(self, is_spec, benchmark_dataset):
        # a censoring-aware fit starts from the naive fit's optimum unless
        # given a start; given that optimum, it runs the same fit bit for bit
        naive = fit_model(benchmark_dataset, is_spec, LogLikOptions(method=Method.NAIVE))
        for method in (Method.MARGINAL, Method.AGQ):
            opts = LogLikOptions(method=method)
            default = fit_model(benchmark_dataset, is_spec, opts)
            given = fit_model(benchmark_dataset, is_spec, opts, start=naive.theta_hat)
            assert given.loglik == default.loglik
            assert np.array_equal(given.estimates, default.estimates)
            assert np.array_equal(given.se, default.se)
            assert given.iterations == default.iterations == 18
            assert given.trace.n_evals == default.trace.n_evals == 85
            if method is Method.AGQ:
                # the start's rule stops all 23 subjects with censored rows at 20
                assert (default.gh_order_used, default.gh_orders) == (20, {20: 23})

    def test_local_maximum_probe(self, is_spec, small_dataset):
        res = fit_model(small_dataset, is_spec, LogLikOptions(method=Method.MARGINAL))
        ev = LikelihoodEvaluator(small_dataset, is_spec)
        x_hat = theta_to_vector(res.theta_hat)
        base = ev.marginal(res.theta_hat, fixed=True)
        for k in range(x_hat.shape[0]):
            for sign in (1.0, -1.0):
                x = x_hat.copy()
                x[k] += sign * 1e-3
                assert ev.marginal(theta_from_vector(x, is_spec), fixed=True) <= base + 1e-6

    def test_start_point_robustness(self, is_spec, small_dataset, truth):
        rng = np.random.default_rng(42)
        solutions = []
        for _ in range(5):
            scale = rng.uniform(0.5, 1.5)
            g = truth.g_matrix() * scale
            start = Theta.from_moments(truth.beta * rng.uniform(0.5, 1.5, 2), g,
                                       truth.sigma_e * rng.uniform(0.7, 1.4))
            res = fit_model(small_dataset, is_spec, LogLikOptions(method=Method.MARGINAL),
                            start=start)
            if res.converged:
                solutions.append(res.estimates)
        assert len(solutions) >= 3
        spread = np.max(np.abs(np.array(solutions) - solutions[0]), axis=0)
        assert np.max(spread) <= 1e-2

    def test_se_reported_only_with_good_hessian(self, is_spec, small_dataset, monkeypatch):
        res = fit_model(small_dataset, is_spec, LogLikOptions(method=Method.NAIVE))
        assert res.hessian_ok
        assert res.se is not None
        assert np.all(res.se > 0)
        # a Hessian that is not negative definite has no inverse information
        monkeypatch.setattr(optimize, "score_hessian", lambda gradient, x: np.eye(x.size))
        res = fit_model(small_dataset, is_spec, LogLikOptions(method=Method.NAIVE))
        assert not res.hessian_ok
        assert res.se is None
        assert not any(key.startswith("se.") for key in res.as_dict())

    def test_se_match_the_inverse_hessian_in_natural_parameters(self, is_spec,
                                                                benchmark_dataset):
        # The fit inverts the Hessian in the optimizer's vector and maps it
        # to the natural scale through the delta method; here the Hessian is
        # taken in the natural parameters (beta, the G entries, sigma)
        # directly, so only the two SEs of var_residual share a formula.
        res = fit_model(benchmark_dataset, is_spec, LogLikOptions(method=Method.NAIVE))
        assert res.hessian_ok
        ev = LikelihoodEvaluator(benchmark_dataset, is_spec)
        names = list(res.param_names)
        nat = res.estimates[:names.index("var_residual")]

        def total(p):
            g = np.array([[p[2], p[3]], [p[3], p[4]]])
            return ev.naive(Theta.from_moments(p[:2], g, p[5:]))

        n = nat.size
        h = 1e-4 * np.maximum(1.0, np.abs(nat))
        step = np.diag(h)
        hess = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                hess[i, j] = hess[j, i] = (
                    total(nat + step[i] + step[j]) - total(nat + step[i] - step[j])
                    - total(nat - step[i] + step[j]) + total(nat - step[i] - step[j])
                ) / (4.0 * h[i] * h[j])
        se = np.sqrt(np.diag(np.linalg.inv(-hess)))
        sigma = nat[names.index("sd_residual")]
        se = np.append(se, 2.0 * sigma * se[names.index("sd_residual")])
        assert res.se == pytest.approx(se, rel=5e-3)

    def test_fit_result_as_dict(self, is_spec, small_dataset):
        res = fit_model(small_dataset, is_spec, LogLikOptions(method=Method.NAIVE))
        record = res.as_dict()
        assert record["method"] == "naive"
        assert "est.slope" in record and "se.slope" in record
        assert res.stop_reason == "function change and gradient norm below tolerance"
        assert record["stop_reason"] == res.stop_reason
        # the trace's last value, not a second evaluation
        assert res.loglik == LikelihoodEvaluator(small_dataset, is_spec).naive(res.theta_hat)

    def test_failure_at_start_names_the_subject(self, is_spec, truth, small_dataset):
        # with G = 0 and sigma_e = 1e-7 the censored variance of "late",
        # 1e-14, is below the floor at the start
        d = Dataset(subjects=(
            make_subject("observed", [0.0, 1.0, 2.0], [3.1, 3.6, 4.0], [1, 1, 1], 2.5),
            make_subject("late", [0.0, 1.0, 2.0], [3.0, 3.4, 2.5], [1, 1, 0], 2.5),
        ))
        start = Theta([3.0, 0.5], np.zeros((2, 2)), [1e-7])
        with pytest.raises(EvaluationError, match="^subject late: ") as err:
            fit_model(d, is_spec, LogLikOptions(method=Method.MARGINAL), start=start)
        assert err.value.subject_id == "late"
        # a start whose total is -inf without an error: every residual overflows
        far = Theta([1e200, 0.0], truth.chol, truth.sigma_e)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OptimizationStall, match="^objective not finite at the starting"):
            fit_model(small_dataset, is_spec, LogLikOptions(method=Method.NAIVE), start=far)

    @pytest.mark.xfail(strict=True, reason="ROADMAP defect 4: the order-64 AGQ score is the "
                                           "quadrature of the Fisher identity, not the "
                                           "derivative of the order-64 total")
    def test_agq_score_is_the_gradient_where_the_fit_stalled(self, is_spec, truth):
        # the point where the default AGQ fit on this data stopped on a failed
        # line search, at -50.924290; whether a fit reaches it hangs on the
        # last bits of its start, but the score there is off on any path
        d = simulate(SimConfig(n_subjects=8, n_per_subject=12, truth=truth,
                               target_censoring=0.6, seed=1))
        ev = LikelihoodEvaluator(d, is_spec)
        x = np.array([0.8888563089967582, 0.3758609352865536, 6.643037648091119,
                      0.9671553831088086, 2.3303461829671862e-06, 0.46738083470964714])
        _, score = ev.agq(theta_from_vector(x, is_spec), 64, score=True)

        def total(v):
            return ev.agq(theta_from_vector(v, is_spec), 64)

        gradient = np.empty(x.size)
        for i, e in enumerate(np.eye(x.size)):
            h = 1e-4 * max(1.0, abs(x[i])) * e
            gradient[i] = (total(x - 2 * h) - 8 * total(x - h) + 8 * total(x + h)
                           - total(x + 2 * h)) / (12 * h[i])
        assert score == pytest.approx(gradient, abs=1e-3 * np.max(np.abs(gradient)))

    @pytest.mark.xfail(strict=True, reason="ROADMAP defect 5: at L22 = 0 the gradient in L22 is "
                                           "0, BFGS leaves it there, and the stopping rule "
                                           "reads only the gradient norm")
    def test_fit_from_a_singular_g_leaves_the_saddle(self, is_spec, benchmark_dataset):
        # from the naive estimates with L22 = 0, both fits stop after 26
        # iterations with converged=1 at -273.4265238, 23.4 below the optimum
        naive = fit_model(benchmark_dataset, is_spec, LogLikOptions(method=Method.NAIVE)).theta_hat
        chol = naive.chol.copy()
        chol[1, 1] = 0.0
        start = Theta(naive.beta, chol, naive.sigma_e)
        for method in (Method.AGQ, Method.MARGINAL):
            res = fit_model(benchmark_dataset, is_spec, LogLikOptions(method=method), start=start)
            assert res.loglik == pytest.approx(-250.0309480, abs=1e-6)

    def test_laplace_fit_converges(self, is_spec, benchmark_dataset):
        # with the closed-form mode search the order-1 objective is smooth;
        # finite-difference curvature noise used to stall BFGS ("no progress")
        res = fit_model(benchmark_dataset, is_spec,
                        LogLikOptions(method=Method.AGQ, gh_order=1))
        assert res.gh_order_used == 1
        assert res.converged
        assert res.gradient_norm <= optimize.G_TOL
        assert res.trace.stop_reason == "function change and gradient norm below tolerance"


@pytest.mark.parametrize("spec_name", ["ri", "is", "biv"])
def test_natural_jacobian_matches_central_differences(spec_name):
    # a negative L diagonal entry and a negative residual SD: L is kept as
    # given, and the absolute value acts at this point
    spec = MODEL_TEMPLATES[spec_name]()
    x = np.random.default_rng(3).normal(0.5, 0.4, size=n_free_params(spec))
    x[spec.p] = -0.7
    x[-1] = -0.45
    h = 1e-6
    fd = np.stack([(natural_from_vector(x + h * e, spec) - natural_from_vector(x - h * e, spec))
                   / (2.0 * h) for e in np.eye(x.size)], axis=1)
    assert _natural_jacobian(x, spec) == pytest.approx(fd, abs=1e-8)


class TestScoreFits:
    """Fits on the closed-form score against fits of the same objectives on finite differences."""

    @staticmethod
    def fd_fit(dataset, spec, method):
        """A default fit rebuilt from quasi_newton_maximize, fd_gradient and fd_hessian."""
        ev = LikelihoodEvaluator(dataset, spec)

        def wrapped(evaluate):
            return _wrap_objective(lambda x: evaluate(theta_from_vector(x, spec)))

        x0 = theta_to_vector(moment_start(dataset, spec))
        objective = wrapped(ev.naive)
        if method is Method.AGQ:
            x0, _ = quasi_newton_maximize(objective, x0)
            orders = ev.agq_order(theta_from_vector(x0, spec))[0]
            objective = wrapped(lambda theta: ev.agq(theta, orders))
        elif method is Method.MARGINAL:
            x0, _ = quasi_newton_maximize(objective, x0)
            objective = wrapped(lambda theta: ev.marginal(theta, fixed=True))
        x_hat, trace = quasi_newton_maximize(objective, x0)
        chol = np.linalg.cholesky(-fd_hessian(objective, x_hat))
        se = np.linalg.norm(np.linalg.solve(chol, _natural_jacobian(x_hat, spec).T), axis=0)
        return trace, natural_from_vector(x_hat, spec), se

    @pytest.mark.parametrize("method", list(Method))
    def test_score_fit_matches_the_finite_difference_fit(self, method, is_spec,
                                                         benchmark_dataset):
        res = fit_model(benchmark_dataset, is_spec, LogLikOptions(method=method))
        trace, estimates, se = self.fd_fit(benchmark_dataset, is_spec, method)
        assert res.converged and trace.converged
        assert res.hessian_ok
        assert res.estimates == pytest.approx(estimates, abs=1e-6)
        assert res.se == pytest.approx(se, rel=1e-4)

    @staticmethod
    def count_calls(monkeypatch):
        """Count the evaluator's calls per path."""
        calls = Counter()
        for name in ("naive", "agq", "marginal"):
            def counted(self, *args, _original=getattr(LikelihoodEvaluator, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(LikelihoodEvaluator, name, counted)
        return calls

    @pytest.mark.parametrize("method", list(Method))
    def test_each_evaluation_is_made_once(self, method, is_spec, benchmark_dataset,
                                          monkeypatch):
        # the fit's own path: the trace's evaluations and the SE Hessian's
        # 2n score passes, without a second evaluation of the start or of
        # the estimate
        calls = self.count_calls(monkeypatch)
        res = fit_model(benchmark_dataset, is_spec, LogLikOptions(method=method))
        assert res.hessian_ok
        assert calls[method.value] == res.trace.n_evals + 2 * n_free_params(is_spec)

    def test_marginal_fit_with_a_qmc_block_takes_finite_differences(self, monkeypatch):
        # a block of 4 censored rows has no closed-form moments
        spec = MODEL_TEMPLATES["ri"]()
        data = simulate(SimConfig(n_subjects=50, n_per_subject=5, truth=default_truth("ri"),
                                  target_censoring=0.152, seed=2024, model=spec))
        assert max(m for m, _, _ in LikelihoodEvaluator(data, spec).cens_blocks) == 4
        calls = self.count_calls(monkeypatch)
        probes = []

        def counted_gradient(f, x):
            before = calls["marginal"]
            grad = fd_gradient(f, x)
            probes.append(calls["marginal"] - before)
            return grad

        monkeypatch.setattr(optimize, "fd_gradient", counted_gradient)
        res = fit_model(data, spec, LogLikOptions(method=Method.MARGINAL))
        assert res.converged and res.hessian_ok
        n = n_free_params(spec)
        # one central-difference gradient per point checked, of 2n values
        assert probes == [2 * n] * res.iterations
        # and the value Hessian: 2n diagonal and 4 n (n - 1) / 2 mixed values
        assert calls["marginal"] == res.trace.n_evals + 2 * n * n
