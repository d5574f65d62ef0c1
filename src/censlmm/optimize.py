"""Likelihood maximization and standard errors.

One ascent driver, as in the default of SAS Proc NLMIXED: BFGS quasi-Newton
with a backtracking line search on central finite-difference gradients. It
converges when the relative function change is below 1e-8 and the gradient
norm below ``g_tol``. ``fit_model`` wires it to the likelihood paths,
starting from the threshold-imputation fit as in the reference analysis
workflow, and derives natural-scale standard errors from the inverse
observed information by the delta method.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
# relative step of the central-difference gradient
_FD_STEP = 6e-6
# relative function change below which, with the gradient test, a run converges
_F_TOL = 1e-8


@dataclass(frozen=True)
class OptConfig:
    """Optimizer settings.

    ``max_iter`` caps the BFGS iterations and ``g_tol`` is the gradient-norm
    part of the stopping rule. ``start``, when given, is the Theta that
    ``fit_model`` starts from in place of its warm start. ``compute_se`` asks
    ``fit_model`` for standard errors at the optimum.
    """

    max_iter: int = 200
    g_tol: float = 1e-5
    start: object = None
    compute_se: bool = True

    def __post_init__(self):
        if self.max_iter < 1 or self.g_tol <= 0:
            raise ValueError("max_iter must be >= 1 and g_tol positive")


@dataclass
class Trace:
    """Iteration log of one maximization."""

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
    for k in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[k] += h[k]
        xm[k] -= h[k]
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradientError(f"objective not finite at probe of coordinate {k}", coordinate=k)
        grad[k] = (fp - fm) / (2.0 * h[k])
    return grad


def fd_hessian(f, x, rel_step=1e-3):
    """Central finite-difference Hessian from function values only."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = rel_step * np.maximum(1.0, np.abs(x))
    f0 = f(x)
    hess = np.empty((n, n))
    fp = np.empty(n)
    fm = np.empty(n)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        fp[i], fm[i] = f(xp), f(xm)
        hess[i, i] = (fp[i] - 2.0 * f0 + fm[i]) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += h[[i, j]]
            xmm[[i, j]] -= h[[i, j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            hess[i, j] = hess[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h[i] * h[j])
    if not np.all(np.isfinite(hess)):
        raise GradientError("Hessian probe hit a non-finite objective value")
    return hess


def _rel_change(f_new, f_old):
    return abs(f_new - f_old) / max(1.0, abs(f_new), abs(f_old))


def quasi_newton_maximize(f, x0, cfg=OptConfig()):
    """Maximize ``f`` from the vector ``x0`` by BFGS with a backtracking search.

    The inverse Hessian approximation is updated only when the curvature
    condition holds; the search direction falls back to the gradient when the
    approximation loses ascent.  Raises OptimizationStall when 50 halvings
    find no acceptable step.  An accepted step too small to change ``x`` at
    float resolution ends the run, as every later iteration would repeat the
    same state with no change in f: converged if the gradient norm is below
    ``g_tol``, otherwise with stop reason "no progress".
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.shape[0]
    trace = Trace()
    f0 = f(x)
    trace.n_evals += 1
    if not np.isfinite(f0):
        raise OptimizationStall("objective not finite at the start", best_x=x, best_f=f0, trace=trace)
    grad = fd_gradient(f, x)
    trace.n_evals += 2 * n

    b_inv = np.eye(n)
    rel = math.inf
    for _ in range(cfg.max_iter):
        gnorm = float(np.linalg.norm(grad))
        trace.f_values.append(f0)
        trace.gradient_norms.append(gnorm)
        if gnorm <= cfg.g_tol and rel <= _F_TOL:
            trace.converged = True
            trace.stop_reason = _CONVERGED
            return x, trace

        direction = b_inv @ grad
        slope = float(grad @ direction)
        if slope <= 0.0 or not np.all(np.isfinite(direction)):
            b_inv = np.eye(n)
            direction = grad
            slope = float(grad @ grad)

        t = 1.0
        f_new = -math.inf
        cand = x
        for _ in range(50):
            cand = x + t * direction
            f_new = f(cand)
            trace.n_evals += 1
            if np.isfinite(f_new) and f_new >= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise OptimizationStall(
                f"line search failed after 50 halvings (gradient norm {gnorm:.3e})",
                best_x=x, best_f=f0, trace=trace,
            )
        if np.array_equal(cand, x):
            # every later iteration would repeat this state with f unchanged
            trace.converged = gnorm <= cfg.g_tol
            trace.stop_reason = _CONVERGED if trace.converged else "no progress"
            return x, trace

        grad_new = fd_gradient(f, cand)
        trace.n_evals += 2 * n
        s = cand - x
        y = grad - grad_new  # gradient change of the negated objective
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            sy_outer = np.outer(s, y)
            b_inv = (np.eye(n) - rho * sy_outer) @ b_inv @ (np.eye(n) - rho * sy_outer.T)
            b_inv += rho * np.outer(s, s)
        rel = _rel_change(f_new, f0)
        x, f0, grad = cand, f_new, grad_new

    trace.stop_reason = "iteration limit reached"
    return x, trace


@dataclass(frozen=True)
class FitResult:
    """Estimates, SEs and diagnostics of one maximum-likelihood fit."""

    theta_hat: Theta
    param_names: tuple
    estimates: np.ndarray
    se: np.ndarray | None
    loglik: float
    converged: bool
    iterations: int
    gradient_norm: float
    hessian_ok: bool
    method: Method
    gh_order_used: int | None = None
    trace: Trace | None = None

    def as_dict(self):
        out = {"method": self.method.value, "loglik": self.loglik,
               "converged": self.converged, "iterations": self.iterations,
               "gradient_norm": self.gradient_norm, "hessian_ok": self.hessian_ok}
        if self.gh_order_used is not None:
            out["gh_order"] = self.gh_order_used
        for i, name in enumerate(self.param_names):
            out[f"est.{name}"] = float(self.estimates[i])
            if self.se is not None:
                out[f"se.{name}"] = float(self.se[i])
        return out


def moment_start(dataset, spec):
    """Crude starting values: pooled least squares plus an even variance split."""
    rows, ys = [], []
    for subject in dataset.subjects:
        for obs in subject.observations:
            rows.append(spec.fixed_design(obs))
            ys.append(obs.response if obs.is_observed else obs.threshold)
    x = np.array(rows, dtype=float)
    y = np.array(ys, dtype=float)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    dof = max(1, y.shape[0] - spec.p)
    s2 = float(np.sum((y - x @ beta) ** 2)) / dof
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


def _maximize(objective, x0, cfg):
    try:
        x_hat, trace = quasi_newton_maximize(objective, x0, cfg)
    except OptimizationStall as stall:
        return np.asarray(stall.best_x, dtype=float), stall.trace, False
    return x_hat, trace, trace.converged


def fit_model(dataset, spec, llopt=LogLikOptions(), cfg=OptConfig()):
    """Maximum-likelihood fit of the selected formulation.

    Unless ``cfg.start`` provides a Theta, the threshold-imputation fit is
    run first and its optimum seeds the censoring-aware optimization.  The
    likelihood is optimized over the unconstrained parameterization by
    ``quasi_newton_maximize`` (BFGS on central-difference gradients). On the
    marginal path, censored blocks of up to three measures are exact and
    only larger ones run quasi-random QMC, with fixed point counts so the
    objective is smooth; the AGQ order is the one
    ``LikelihoodEvaluator.agq_order`` picks at the start point.  A
    likelihood error at the start point, such as an ``EvaluationError``
    naming the subject, propagates; later ones, and NaN values, count as a
    non-finite objective.  Standard errors are delta-method images of
    the inverse observed information (central finite differences at the
    optimum).
    """
    ev = LikelihoodEvaluator(dataset, spec, replace(llopt, mvn_fixed_points=True))

    if cfg.start is not None:
        start_theta = cfg.start
    elif llopt.method is Method.NAIVE:
        start_theta = moment_start(dataset, spec)
    else:
        x0 = theta_to_vector(moment_start(dataset, spec))
        naive_obj = _wrap_objective(lambda x: ev.naive(theta_from_vector(x, spec)))
        x_naive, _, _ = _maximize(naive_obj, x0, cfg)
        start_theta = theta_from_vector(x_naive, spec)

    gh_order = None
    if llopt.method is Method.AGQ:
        gh_order, _ = ev.agq_order(start_theta)
        target = lambda th: ev.agq(th, order=gh_order)
    else:
        target = ev.marginal if llopt.method is Method.MARGINAL else ev.naive

    objective = _wrap_objective(lambda x: target(theta_from_vector(x, spec)))
    x_start = theta_to_vector(start_theta)
    if not np.isfinite(target(theta_from_vector(x_start, spec))):
        raise OptimizationStall("objective not finite at the starting parameters",
                                best_x=x_start, best_f=-math.inf)

    x_hat, trace, converged = _maximize(objective, x_start, cfg)
    loglik = objective(x_hat)
    theta_hat = theta_from_vector(x_hat, spec)

    names = natural_names(spec)
    estimates = natural_from_vector(x_hat, spec)
    se = None
    hessian_ok = False
    if cfg.compute_se:
        try:
            info = -fd_hessian(objective, x_hat)
            chol = np.linalg.cholesky(info)
            inv_chol = np.linalg.inv(chol)
            cov_u = inv_chol.T @ inv_chol
            cov_u = 0.5 * (cov_u + cov_u.T)
            jac = _natural_jacobian(x_hat, spec)
            cov_nat = jac @ cov_u @ jac.T
            diag = np.diag(cov_nat)
            if np.all(diag >= 0.0):
                se = np.sqrt(diag)
                hessian_ok = True
        except (np.linalg.LinAlgError, GradientError):
            se = None
            hessian_ok = False

    grad_norm = trace.gradient_norms[-1] if trace and trace.gradient_norms else math.nan
    return FitResult(
        theta_hat=theta_hat,
        param_names=names,
        estimates=estimates,
        se=se,
        loglik=loglik,
        converged=converged,
        iterations=trace.iterations if trace else 0,
        gradient_norm=grad_norm,
        hessian_ok=hessian_ok,
        method=llopt.method,
        gh_order_used=gh_order,
        trace=trace,
    )


def _natural_jacobian(x, spec, rel_step=1e-6):
    """Central-difference Jacobian of the natural-scale map at ``x``."""
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(1.0, np.abs(x))
    cols = []
    for k in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[k] += h[k]
        xm[k] -= h[k]
        cols.append((natural_from_vector(xp, spec) - natural_from_vector(xm, spec)) / (2.0 * h[k]))
    return np.stack(cols, axis=1)
