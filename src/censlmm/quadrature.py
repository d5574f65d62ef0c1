"""Gauss-Hermite rules, the adaptive grid, and the order rule.

The adaptive rule (Liu and Pierce, Biometrika 1994; Pinheiro and Bates,
JCGS 1995) recentres a tensor Gauss-Hermite grid at the integrand's mode and
scales it by the lower Cholesky factor of the inverse negated Hessian there.
:func:`tensor_grid` and :func:`scale_factor` are those two pieces; the
likelihood evaluator combines them with its closed-form derivatives for all
subjects at once. The order is pinned, or picked by the doubling rule
:func:`choose_order`; either way it is capped at :func:`max_order` of q.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DimensionError

MAX_ORDER = 64
START_ORDER = 10
# tensor-grid budget: largest order per integration dimension q
_ORDER_CAP = {1: 64, 2: 64, 3: 40, 4: 20}


@lru_cache(maxsize=128)
def gh_rule(order):
    """Gauss-Hermite ``(nodes, weights)`` of the given order (1..64), read-only.

    Integrates polynomials of degree up to 2*order - 1 exactly against
    exp(-x^2); the weights sum to sqrt(pi).
    """
    if not 1 <= order <= MAX_ORDER:
        raise DimensionError(f"quadrature order {order} outside [1, {MAX_ORDER}]")
    nodes, weights = hermgauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def tensor_grid(order, q):
    """Tensor-product grid: points (order^q, q) and combined log-factors.

    The combined factor per node is log(prod w_j) + ||z||^2, i.e. everything
    the recentred integral needs besides the integrand values.
    """
    nodes_1d, weights = gh_rule(order)
    grids = np.meshgrid(*([nodes_1d] * q), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    w_grids = np.meshgrid(*([np.log(weights)] * q), indexing="ij")
    logw = np.sum([g.ravel() for g in w_grids], axis=0)
    factor = logw + np.sum(nodes * nodes, axis=1)
    nodes.setflags(write=False)
    factor.setflags(write=False)
    return nodes, factor


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


def max_order(q):
    """Largest usable Gauss-Hermite order for a q-dimensional tensor grid."""
    return _ORDER_CAP[q]


def choose_order(evaluate, qtol, max_order):
    """Pick a quadrature order by doubling until successive values agree.

    ``evaluate(order)`` must return the quantity of interest (typically a
    total log-likelihood). The order starts at k = min(``START_ORDER``,
    max_order) and doubles while 2k <= max_order. At the first doubling that
    changes the value by less than ``qtol``, returns ``(k, evaluate(2k))``;
    if none does, returns ``(max_order, evaluate(max_order))``.
    """
    k = min(START_ORDER, max_order)
    f_k = evaluate(k)
    while 2 * k <= max_order:
        f_2k = evaluate(2 * k)
        if abs(f_2k - f_k) < qtol:
            return k, f_2k
        k, f_k = 2 * k, f_2k
    if k < max_order:
        k, f_k = max_order, evaluate(max_order)
    return k, f_k
