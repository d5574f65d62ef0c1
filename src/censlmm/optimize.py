"""Likelihood maximization and standard errors.

One ascent driver, as in the default of SAS Proc NLMIXED: BFGS quasi-Newton
with a backtracking line search. It takes the gradient as a callable, or
else takes central finite differences of the objective. It converges when
the relative function change is below 1e-8 and the gradient norm below
``G_TOL``; every run returns its last point, the value there and why it
stopped. ``fit_model`` wires it to the likelihood paths, starting from the
threshold-imputation fit as in the reference analysis workflow. The naive
path, the AGQ path at the order rule's orders and the marginal path on data
whose censored blocks have at most three measures supply their closed-form
score, and their SE Hessian is the central difference of that score. An
AGQ fit at a pinned order, and a marginal fit with a QMC block (four or
more censored measures in one subject), use finite differences of their
values for both. The marginal score comes from the blocks' truncated-normal
moments and the AGQ score from the quadrature grid, so the two paths stay
independent checks of each other.
The inverse observed information maps to natural-scale standard errors by
the delta method, on the exact Jacobian of that map.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import design_matrices
from .errors import CensLmmError, GradientError, OptimizationStall
from .likelihood import (
    LikelihoodEvaluator,
    LogLikOptions,
    Method,
    Theta,
    natural_from_vector,
    natural_names,
    theta_from_vector,
    theta_to_vector,
)

_CONVERGED = "function change and gradient norm below tolerance"
# relative central-difference steps: the gradient and the SE Hessian
_FD_STEP = 6e-6
_HESS_STEP = 1e-3
# relative function change below which, with the gradient test, a run converges
_F_TOL = 1e-8
MAX_ITER = 200  # the points one maximization checks at most (``Trace.iterations``)
G_TOL = 1e-5  # the gradient-norm part of the stopping rule


@dataclass
class Trace:
    """Iteration log of one maximization: the value and gradient norm (NaN
    when no gradient was taken) at each point checked, the returned one last.
    ``n_evals`` counts the objective's values and gradient passes."""

    f_values: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    n_evals: int = 0
    converged: bool = False
    stop_reason: str = ""

    @property
    def iterations(self):
        return len(self.f_values)


def fd_gradient(f, x):
    """Central finite-difference gradient of ``f`` at ``x``."""
    x = np.asarray(x, dtype=float)
    h = _FD_STEP * np.maximum(1.0, np.abs(x))
    grad = np.empty(x.shape[0])
    for k, e in enumerate(np.diag(h)):
        fp, fm = f(x + e), f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradientError(f"objective not finite at probe of coordinate {k}", coordinate=k)
        grad[k] = (fp - fm) / (2.0 * h[k])
    return grad


def fd_hessian(f, x, f0=None):
    """Central finite-difference Hessian from function values only; ``f0`` is f(x) when known."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = _HESS_STEP * np.maximum(1.0, np.abs(x))
    e = np.diag(h)
    if f0 is None:
        f0 = f(x)
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (f(x + e[i]) - 2.0 * f0 + f(x - e[i])) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            diff = (f(x + e[i] + e[j]) - f(x + e[i] - e[j])
                    - f(x - e[i] + e[j]) + f(x - e[i] - e[j]))
            hess[i, j] = hess[j, i] = diff / (4.0 * h[i] * h[j])
    if not np.all(np.isfinite(hess)):
        raise GradientError("Hessian probe hit a non-finite objective value")
    return hess


def score_hessian(gradient, x):
    """Hessian as the symmetrised central difference of ``gradient``: 2n gradient calls."""
    x = np.asarray(x, dtype=float)
    h = _HESS_STEP * np.maximum(1.0, np.abs(x))
    hess = np.stack([(gradient(x + e) - gradient(x - e)) / (2.0 * h[i])
                     for i, e in enumerate(np.diag(h))], axis=1)
    return 0.5 * (hess + hess.T)


def quasi_newton_maximize(f, x0, gradient=None):
    """Maximize ``f`` from the vector ``x0`` by BFGS with a backtracking search.

    ``gradient(x)`` is the gradient of ``f``; without it, :func:`fd_gradient`
    of ``f`` is. ``trace.n_evals`` counts the calls of ``f``, its gradient
    probes included, and of ``gradient``. The inverse Hessian approximation
    is updated only when the curvature condition holds; the search
    direction falls back to the gradient when the approximation loses
    ascent.  Every run returns ``(x, trace)``, with ``x`` the last accepted
    point, and raises nothing of its own.  The run stops when the stopping
    rule holds (``trace.converged``), when ``f`` is not finite at the
    start, when the gradient raises a ``GradientError`` (its text, such as
    a probe that is not finite, naming the coordinate), after 50 halvings
    with no acceptable step, at ``MAX_ITER`` points, or when an accepted
    step leaves ``x`` unchanged at float resolution, as every later
    iteration would repeat that state: converged if the gradient norm is
    below ``G_TOL``, otherwise "no progress". Both limits are read at
    call time.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.shape[0]
    trace = Trace()

    def counted(z):
        trace.n_evals += 1
        return f(z)

    def grad_at(z):
        if gradient is None:
            return fd_gradient(counted, z)
        trace.n_evals += 1
        return gradient(z)

    f0 = counted(x)
    b_inv = np.eye(n)
    rel = math.inf
    s = grad = None
    while True:
        if not np.isfinite(f0):  # only the start: accepted values are finite
            gnorm, reason = math.nan, "objective not finite at the start"
            break
        try:
            grad_new = grad_at(x)
        except GradientError as exc:
            gnorm, reason = math.nan, str(exc)
            break
        if s is not None:
            y = grad - grad_new  # gradient change of the negated objective
            sy = float(s @ y)
            if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                rho = 1.0 / sy
                sy_outer = np.outer(s, y)
                b_inv = (np.eye(n) - rho * sy_outer) @ b_inv @ (np.eye(n) - rho * sy_outer.T)
                b_inv += rho * np.outer(s, s)
        grad = grad_new
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= G_TOL and rel <= _F_TOL:
            trace.converged, reason = True, _CONVERGED
            break
        if trace.iterations + 1 == MAX_ITER:
            reason = "iteration limit reached"
            break

        direction = b_inv @ grad
        slope = float(grad @ direction)
        if slope <= 0.0 or not np.all(np.isfinite(direction)):
            b_inv = np.eye(n)
            direction = grad
            slope = float(grad @ grad)

        t = 1.0
        for _ in range(50):
            cand = x + t * direction
            f_new = counted(cand)
            if np.isfinite(f_new) and f_new >= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            reason = f"line search failed after 50 halvings (gradient norm {gnorm:.3e})"
            break
        if np.array_equal(cand, x):
            # every later iteration would repeat this state with f unchanged
            trace.converged = gnorm <= G_TOL
            reason = _CONVERGED if trace.converged else "no progress"
            break

        trace.f_values.append(f0)
        trace.gradient_norms.append(gnorm)
        s = cand - x
        rel = abs(f_new - f0) / max(1.0, abs(f_new), abs(f0))
        x, f0 = cand, f_new

    trace.f_values.append(f0)
    trace.gradient_norms.append(gnorm)
    trace.stop_reason = reason
    return x, trace


@dataclass(frozen=True)
class FitResult:
    """Estimates, SEs and diagnostics of one maximum-likelihood fit.

    An AGQ fit also reports its GH orders: ``gh_orders`` maps each order to
    the number of the dataset's subjects with censored rows that it
    integrates at that order, and ``gh_order_used`` is the largest of them.
    Both are None for the other methods, and for an AGQ fit on data without
    censored rows, which has no integral.
    """

    theta_hat: Theta
    param_names: tuple
    estimates: np.ndarray
    se: np.ndarray | None
    loglik: float
    converged: bool
    stop_reason: str
    iterations: int
    gradient_norm: float
    hessian_ok: bool
    method: Method
    trace: Trace
    gh_order_used: int | None = None
    gh_orders: dict | None = None

    def as_dict(self):
        out = {"method": self.method.value, "loglik": self.loglik,
               "converged": self.converged, "stop_reason": self.stop_reason,
               "iterations": self.iterations,
               "gradient_norm": self.gradient_norm, "hessian_ok": self.hessian_ok}
        if self.gh_order_used is not None:
            out["gh_order"] = self.gh_order_used
            out["gh_orders"] = ",".join(f"{k}:{n}" for k, n in sorted(self.gh_orders.items()))
        for i, name in enumerate(self.param_names):
            out[f"est.{name}"] = float(self.estimates[i])
            if self.se is not None:
                out[f"se.{name}"] = float(self.se[i])
        return out


def moment_start(dataset, spec):
    """Crude starting values: pooled least squares plus an even variance split.

    A table row counts once per subject of its class (``data.Table.count``).
    """
    # input order: the evaluator's row order moves the start, and a fit's path, in the last bits
    table = dataset.table
    x, _ = design_matrices(spec, table.time, table.marker, table.covariates, table.subject,
                           table.ids)
    count = table.count[table.subject]
    root = np.sqrt(count)
    beta, *_ = np.linalg.lstsq(x * root[:, None], table.y * root, rcond=None)
    dof = max(1, dataset.n_rows - spec.p)
    s2 = float(np.sum(count * (table.y - x @ beta) ** 2)) / dof
    s2 = max(s2, 1e-4)
    sigma_e = np.full(spec.n_strata, math.sqrt(s2 / 2.0))
    chol = math.sqrt(s2 / 2.0) * np.eye(spec.q)
    return Theta(beta, chol, sigma_e)


def _wrap_objective(evaluate):
    """``evaluate`` with a library error or a NaN value mapped to -inf."""
    def objective(x):
        try:
            value = evaluate(x)
        except CensLmmError:
            return -math.inf
        return -math.inf if math.isnan(value) else value
    return objective


def _score_gradient(evaluate, spec):
    """The gradient on the optimizer vector from the score of ``evaluate(theta, score=True)``.

    The score is on :func:`theta_to_vector`'s coordinates. The vector maps to
    them as given, beta and L's lower triangle included, L being any
    lower-triangular factor of G, except that each residual SD is its
    absolute value, so the chain rule multiplies those entries by sign(x).
    A library error or a non-finite entry raises ``GradientError``.
    """
    sigma = slice(-spec.n_strata, None)

    def gradient(x):
        try:
            _, grad = evaluate(theta_from_vector(x, spec), score=True)
        except CensLmmError as exc:
            raise GradientError(f"score not available: {exc}") from exc
        grad[sigma] *= np.sign(x[sigma])
        if not np.all(np.isfinite(grad)):
            raise GradientError("score not finite")
        return grad
    return gradient


def fit_model(dataset, spec, llopt=LogLikOptions(), start=None):
    """Maximum-likelihood fit of the selected formulation.

    Unless ``start`` provides a Theta, as the PARMS statement of SAS Proc
    NLMIXED does, the threshold-imputation fit is run first and its optimum
    seeds the censoring-aware optimization.  The likelihood is optimized
    over the unconstrained parameterization by ``quasi_newton_maximize``.
    The naive path, the naive warm start of every method, the AGQ path and
    the marginal path give it their closed-form score
    (``LikelihoodEvaluator.naive``/``agq``/``marginal`` with
    ``score=True``), with two exceptions that take central differences of
    the values instead. The AGQ orders are picked once, at the start
    point, and kept for the whole fit: each subject's is the order whose
    integral the doubling rule accepted there (``ev.agq_order``), or the
    pinned one for every subject. The score is the quadrature of the Fisher
    identity, not the derivative of the quadrature total, and the two agree
    only as the order grows. On the 50 x 5 benchmark data the rule accepts
    order 20 for every subject, where they agree within 2e-7; at order 10
    they are 1.2e-3 apart at that total's optimum, and BFGS on the score
    stops above ``G_TOL`` with "no progress". A pinned order is the
    user's, down to the Laplace order 1, whose score misses the derivative
    of the log-determinant, so an AGQ fit at a pinned order keeps finite
    differences.

    On the marginal path, censored blocks of up to three measures are exact,
    and so are their truncated moments, from which the score comes. Larger
    blocks run quasi-random QMC, on the fixed point counts of the
    ``gaussian`` module (``ev.marginal(theta, fixed=True)``). The objective
    is then smooth only while each block's Genz variable order stays the
    same; it jumps where an order switches, and a gradient or Hessian probe
    pair that straddles a switch is off by the jump over the step. Moments
    from the Genz points would not be the derivative of that total either,
    so a marginal fit on data with such a block keeps finite differences,
    until each block's variable order is frozen for the fit.

    The start is evaluated once. A likelihood error there, such as an
    ``EvaluationError`` naming the subject, propagates, and a non-finite
    value there raises ``OptimizationStall``; later errors, and NaN values,
    count as a non-finite objective.  ``loglik`` and the diagnostics are
    the trace's, at the returned point.  Standard errors are the
    delta-method image of the inverse observed information through the
    exact Jacobian of the natural-scale map. The information is minus the
    Hessian: the symmetrised central difference of the score where the fit
    ran on the score (2n score passes), else ``fd_hessian`` of the values.
    ``hessian_ok`` is False, and ``se`` None, unless the Hessian probes and
    the Cholesky factor of the information succeed.
    """
    ev = LikelihoodEvaluator(dataset, spec, llopt)
    naive_gradient = _score_gradient(ev.naive, spec)

    if start is None and llopt.method is Method.NAIVE:
        start = moment_start(dataset, spec)
    elif start is None:
        x0 = theta_to_vector(moment_start(dataset, spec))
        naive_obj = _wrap_objective(lambda x: ev.naive(theta_from_vector(x, spec)))
        x_naive, _ = quasi_newton_maximize(naive_obj, x0, naive_gradient)
        start = theta_from_vector(x_naive, spec)

    gh_orders = None
    if llopt.method is Method.AGQ:
        orders = ev.agq_order(start)[0]
        counts = ev.count[ev.n_cens > 0]
        gh_orders = {int(k): int(counts[orders == k].sum()) for k in np.unique(orders)}
        target = lambda th, score=False: ev.agq(th, orders, score)
        # a pinned order can be too low for the score: see the docstring
        gradient = None if llopt.gh_order is not None else _score_gradient(target, spec)
    elif llopt.method is Method.MARGINAL:
        target = lambda th, score=False: ev.marginal(th, fixed=True, score=score)
        gradient = _score_gradient(target, spec) if ev.marginal_has_score else None
    else:
        target, gradient = ev.naive, naive_gradient

    objective = _wrap_objective(lambda x: target(theta_from_vector(x, spec)))
    x_hat, trace = quasi_newton_maximize(objective, theta_to_vector(start), gradient)
    if not np.isfinite(trace.f_values[0]):
        # the wrapped objective hid the cause: evaluate once more, unwrapped,
        # so that an EvaluationError names the subject
        target(start)
        raise OptimizationStall("objective not finite at the starting parameters")

    se = None
    try:
        if gradient is None:
            hess = fd_hessian(objective, x_hat, trace.f_values[-1])
        else:
            hess = score_hessian(gradient, x_hat)
        chol = np.linalg.cholesky(-hess)
        jac = _natural_jacobian(x_hat, spec)
        se = np.linalg.norm(np.linalg.solve(chol, jac.T), axis=0)
    except (np.linalg.LinAlgError, GradientError):
        pass

    return FitResult(
        theta_hat=theta_from_vector(x_hat, spec),
        param_names=natural_names(spec),
        estimates=natural_from_vector(x_hat, spec),
        se=se,
        loglik=trace.f_values[-1],
        converged=trace.converged,
        stop_reason=trace.stop_reason,
        iterations=trace.iterations,
        gradient_norm=trace.gradient_norms[-1],
        hessian_ok=se is not None,
        method=llopt.method,
        trace=trace,
        gh_order_used=max(gh_orders) if gh_orders else None,
        gh_orders=gh_orders or None,
    )


def _natural_jacobian(x, spec):
    """Exact Jacobian of :func:`natural_from_vector` at ``x``.

    The identity for beta. G = L L^T with L the lower triangle of ``x``, any
    lower-triangular factor of G, so dG / dL_ab = E_ab L^T + L E_ba, with
    E_ab the unit matrix at (a, b). Each residual SD |x| has derivative
    sign(x) and each variance x^2 has 2x.
    """
    p, n_strata = spec.p, spec.n_strata
    rows, cols = np.tril_indices(spec.q)
    k = rows.shape[0]
    chol = np.zeros((spec.q, spec.q))
    chol[rows, cols] = x[p : p + k]
    eye = np.eye(spec.q)
    sigma = x[p + k :]
    jac = np.zeros((p + k + 2 * n_strata, x.shape[0]))
    jac[:p, :p] = np.eye(p)
    jac[p : p + k, p : p + k] = (eye[np.ix_(rows, rows)] * chol[np.ix_(cols, cols)]
                                 + chol[np.ix_(rows, cols)] * eye[np.ix_(cols, rows)])
    jac[p + k : p + k + n_strata, p + k :] = np.diag(np.sign(sigma))
    jac[p + k + n_strata :, p + k :] = np.diag(2.0 * sigma)
    return jac
