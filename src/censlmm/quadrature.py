"""Gauss-Hermite rules, the adaptive grid, and the order rule.

The adaptive rule (Liu and Pierce, Biometrika 1994; Pinheiro and Bates,
JCGS 1995) recentres a tensor Gauss-Hermite grid at the integrand's mode and
scales it by the lower Cholesky factor of the inverse negated Hessian there.
:func:`tensor_grid` and :func:`scale_factor` are those two pieces; the
likelihood evaluator combines them with its closed-form derivatives for all
subjects at once. The order is pinned, one for every subject, or picked
per subject by the doubling rule :func:`choose_orders`, which stops each
subject once its own integral has settled; either way it is capped at
:func:`max_order` of q.
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


def choose_orders(evaluate, count, qtol, max_order):
    """Pick each subject's quadrature order by doubling until its value settles.

    ``evaluate(order, subjects)`` returns the values (log integrals) of the
    subjects with those indexes, in ascending order, at that order, and
    subject s stands for ``count[s]`` identical ones. Every subject starts at
    k = min(``START_ORDER``, max_order), and orders double while
    2k <= max_order. At a doubling k -> 2k each active subject changes by
    d_s = count_s |value_s(2k) - value_s(k)|. The active subjects are taken
    in ascending d_s, and the longest run of them for which the sum of every
    change accepted so far, at any doubling, stays below ``qtol`` stops at
    2k with its value there. Subjects still active after the last doubling
    go to max_order, unchecked. So ``qtol`` bounds the sum of the last
    changes, which estimates how far the total of the values is from its
    order limit. Returns ``(orders, values)``, one entry per subject, each
    value at its subject's order.
    """
    k = min(START_ORDER, max_order)
    active = np.arange(count.size)
    orders = np.full(count.size, k)
    values = evaluate(k, active)
    spent = 0.0
    while active.size and 2 * k <= max_order:
        k *= 2
        new = evaluate(k, active)
        change = count[active] * np.abs(new - values[active])
        rank = np.argsort(change, kind="stable")
        spend = spent + np.cumsum(change[rank])
        stop = np.count_nonzero(spend < qtol)  # spend is ascending: a prefix
        if stop:
            spent = spend[stop - 1]
        orders[active], values[active] = k, new
        active = np.sort(active[rank[stop:]])
    if active.size and k < max_order:
        orders[active], values[active] = max_order, evaluate(max_order, active)
    return orders, values
