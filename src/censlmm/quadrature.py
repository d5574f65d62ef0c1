"""Gauss-Hermite rules, the adaptive grid, and a generic adaptive quadrature.

The adaptive rule (Liu and Pierce, Biometrika 1994; Pinheiro and Bates,
JCGS 1995) recentres a tensor Gauss-Hermite grid at the integrand's mode and
scales it by the lower Cholesky factor of the inverse negated Hessian there.
:func:`tensor_grid` and :func:`scale_factor` are those two pieces; the
likelihood evaluator combines them with its closed-form derivatives for all
subjects at once.

:func:`find_mode` and :func:`agq_log_integral` serve any log-valued callable
that accepts an ``(..., q)`` array of points and broadcasts over the leading
axes. They take derivatives by batched finite-difference stencils and are
the generic reference that tests compare against. Accumulation happens in
log space throughout so that products of many small cumulative normal
factors cannot underflow.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DimensionError, IntegrationError, ModeSearchError

MAX_ORDER = 64
MAX_DIM = 4

_H_GRAD = 6.0e-6     # ~eps^(1/3), central gradients
_H_HESS = 6.0e-3     # large step: cancellation-safe curvature (exact on quadratics)
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class GhRule:
    """Nodes and weights for the weight function exp(-x^2)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=128)
def gh_rule(order):
    """Gauss-Hermite rule of the given order (1..64).

    Integrates polynomials of degree up to 2*order - 1 exactly against
    exp(-x^2); the weights sum to sqrt(pi).
    """
    if not 1 <= order <= MAX_ORDER:
        raise DimensionError(f"quadrature order {order} outside [1, {MAX_ORDER}]")
    nodes, weights = hermgauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GhRule(order=order, nodes=nodes, weights=weights)


@lru_cache(maxsize=64)
def tensor_grid(order, q):
    """Tensor-product grid: points (order^q, q) and combined log-factors.

    The combined factor per node is log(prod w_j) + ||z||^2, i.e. everything
    the recentred integral needs besides the integrand values.
    """
    rule = gh_rule(order)
    grids = np.meshgrid(*([rule.nodes] * q), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    w_grids = np.meshgrid(*([np.log(rule.weights)] * q), indexing="ij")
    logw = np.sum([g.ravel() for g in w_grids], axis=0)
    factor = logw + np.sum(nodes * nodes, axis=1)
    nodes.setflags(write=False)
    factor.setflags(write=False)
    return nodes, factor


def _logsumexp(v):
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + math.log(np.sum(np.exp(v - m))))


def _stencil(x, h_grad, h_hess):
    """Probe points for one batched gradient+Hessian evaluation."""
    q = x.shape[0]
    n_cross = 4 * (q * (q - 1)) // 2
    pts = np.tile(x, (1 + 4 * q + n_cross, 1))
    for i in range(q):
        base = 1 + 4 * i
        pts[base, i] += h_grad[i]
        pts[base + 1, i] -= h_grad[i]
        pts[base + 2, i] += h_hess[i]
        pts[base + 3, i] -= h_hess[i]
    k = 1 + 4 * q
    for i in range(q):
        for j in range(i + 1, q):
            pts[k, [i, j]] += (h_hess[i], h_hess[j])
            pts[k + 1, i] += h_hess[i]
            pts[k + 1, j] -= h_hess[j]
            pts[k + 2, i] -= h_hess[i]
            pts[k + 2, j] += h_hess[j]
            pts[k + 3, [i, j]] -= (h_hess[i], h_hess[j])
            k += 4
    return pts


def _grad_hess(logf, x, h_grad, h_hess):
    """Central-difference gradient and Hessian from a single batched call."""
    q = x.shape[0]
    vals = np.asarray(logf(_stencil(x, h_grad, h_hess)), dtype=float)
    f0 = vals[0]
    grad = np.empty(q)
    hess = np.empty((q, q))
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(q):
            base = 1 + 4 * i
            gp, gm, hp, hm = vals[base : base + 4]
            grad[i] = (gp - gm) / (2.0 * h_grad[i])
            hess[i, i] = (hp - 2.0 * f0 + hm) / (h_hess[i] ** 2)
        k = 1 + 4 * q
        for i in range(q):
            for j in range(i + 1, q):
                fpp, fpm, fmp, fmm = vals[k : k + 4]
                k += 4
                hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h_hess[i] * h_hess[j])
    return f0, grad, hess


def _ascent_direction(grad, hess):
    """Newton direction from the negated Hessian, eigenvalue-clamped to PD."""
    neg = -hess
    try:
        chol = np.linalg.cholesky(neg)
        d = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        return d
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(neg)
        floor = max(1e-8, 1e-8 * float(np.max(np.abs(vals))))
        vals = np.maximum(vals, floor)
        return vecs @ ((vecs.T @ grad) / vals)


def find_mode(logf, start, gtol=1e-8, max_iter=100):
    """Locate the maximum of ``logf`` by safeguarded Newton iteration.

    Derivatives come from central differences (batched); steps are halved
    until the objective improves.  Returns the mode and the numeric Hessian
    there, the latter re-estimated with curvature-scaled steps so it is
    cancellation-safe even for very flat or very tight integrands.

    Raises ModeSearchError (carrying the last iterate) when the gradient norm
    cannot be brought below ``gtol`` within ``max_iter`` iterations, beyond
    the resolution of the finite differences.
    """
    x = np.atleast_1d(np.asarray(start, dtype=float)).copy()
    q = x.shape[0]
    scale = np.maximum(1.0, np.abs(x))
    f0, grad, hess = _grad_hess(logf, x, _H_GRAD * scale, _H_HESS * scale)
    if not np.isfinite(f0):
        raise ModeSearchError("objective not finite at the starting point", last_iterate=x)

    eps = float(np.finfo(float).eps)
    polish_left = 5
    converged = False
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= gtol:
            converged = True
            break
        d = _ascent_direction(grad, hess)
        slope = float(grad @ d)
        if slope <= 0.0:
            d = grad
            slope = float(grad @ grad)

        if slope <= 8.0 * eps * (1.0 + abs(f0)):
            # expected improvement below float resolution of f: the line
            # search is uninformative, so polish with plain Newton steps
            # (the gradient remains resolvable even when f is not)
            if polish_left == 0:
                if gnorm <= 1e3 * gtol:
                    converged = True
                    break
                raise ModeSearchError(
                    f"gradient stalled at norm {gnorm:.3e} at float resolution",
                    last_iterate=x,
                )
            polish_left -= 1
            x = x + d
        else:
            t = 1.0
            accepted = False
            while t >= 1e-12:
                cand = x + t * d
                f_new = float(np.asarray(logf(cand[None, :]))[0])
                if np.isfinite(f_new) and f_new >= f0 + 1e-4 * t * slope:
                    x = cand
                    f0 = f_new
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                if gnorm <= 1e3 * gtol:
                    converged = True
                    break
                raise ModeSearchError(
                    f"no ascent step found at gradient norm {gnorm:.3e}", last_iterate=x
                )
        scale = np.maximum(1.0, np.abs(x))
        f0, grad, hess = _grad_hess(logf, x, _H_GRAD * scale, _H_HESS * scale)
    if not converged:
        raise ModeSearchError(
            f"mode search did not converge in {max_iter} iterations", last_iterate=x
        )

    # curvature-adapted final pass: relative steps keep the second difference
    # well above rounding error whatever the integrand's length scale
    h_curv = _H_HESS / np.sqrt(np.maximum(np.abs(np.diag(hess)), 1e-12))
    _, grad, hess = _grad_hess(logf, x, _H_GRAD * scale, h_curv)
    return x, hess


def scale_factor(hess):
    """Lower-triangular L with L L^T = (-hess)^{-1}, eigenvalue-clamped.

    ``hess`` may be one (q, q) matrix or a stack (..., q, q). The grid is not
    rotation-invariant, so this particular factor is part of the rule.
    """
    vals, vecs = np.linalg.eigh(-hess)
    floor = np.maximum(1e-12, 1e-12 * np.max(np.abs(vals), axis=-1, keepdims=True))
    vals = np.maximum(vals, floor)
    cov = (vecs / vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return np.linalg.cholesky(cov)


def agq_log_integral(logf, q, order, start):
    """log of the adaptive Gauss-Hermite approximation to int exp(logf(u)) du.

    The grid is recentred at the integrand's mode, found by :func:`find_mode`
    from ``start``, and rescaled by its curvature; order 1 reproduces the
    Laplace approximation.
    """
    if not 1 <= q <= MAX_DIM:
        raise DimensionError(f"integration dimension {q} outside [1, {MAX_DIM}]")
    start = np.atleast_1d(np.asarray(start, dtype=float))
    if start.shape != (q,):
        raise DimensionError(f"start has shape {start.shape}, expected ({q},)")
    u_hat, hess = find_mode(logf, start)
    chol = scale_factor(hess)
    nodes, factor = tensor_grid(order, q)
    pts = u_hat[None, :] + math.sqrt(2.0) * nodes @ chol.T
    vals = np.asarray(logf(pts), dtype=float)
    bad = ~(np.isfinite(vals) | (vals == -np.inf))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise IntegrationError(f"integrand not finite at node {idx}: {pts[idx]}")
    logdet = float(np.sum(np.log(np.diag(chol))))
    return 0.5 * q * _LOG2 + logdet + _logsumexp(factor + vals)


def choose_order(evaluate, start_order=10, qtol=1e-6, max_order=MAX_ORDER):
    """Pick a quadrature order by doubling until successive values agree.

    ``evaluate(order)`` must return the quantity of interest (typically a
    total log-likelihood). The order starts at k = min(start_order,
    max_order) and doubles while 2k <= max_order. At the first doubling that
    changes the value by less than ``qtol``, returns ``(k, evaluate(2k))``;
    if none does, returns ``(max_order, evaluate(max_order))``. ``qtol <= 0``
    pins the order: ``(k, evaluate(k))``.
    """
    k = min(start_order, max_order)
    f_k = evaluate(k)
    if qtol <= 0.0:
        return k, f_k
    while 2 * k <= max_order:
        f_2k = evaluate(2 * k)
        if abs(f_2k - f_k) < qtol:
            return k, f_2k
        k, f_k = 2 * k, f_2k
    if k < max_order:
        k, f_k = max_order, evaluate(max_order)
    return k, f_k
