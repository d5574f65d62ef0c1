"""Log-likelihoods of the intercept-slope model computed apart from censlmm.

Nothing here imports censlmm. The data come from the long CSV through the
standard ``csv`` module, and the parameters are natural-scale arrays: the
fixed effects ``beta`` (intercept, slope), the random-effects covariance
``g`` (2 x 2) and the residual SD ``sigma``.

The censoring-aware likelihood of a subject is

    phi(y_o; mu_o, V_oo) * E[ prod_c Phi((limit_c - x_c beta - z_c b) / sigma) | y_o ]

where the expectation runs over the Gaussian posterior of the random effects
b given the observed measures. Given b the censored measures are
independent, so the expectation is a two-dimensional integral of a bounded,
smooth function. It is computed with the trapezoidal rule on a fixed square
grid in whitened posterior coordinates, which for such integrands converges
faster than any power of the spacing; ``GRID_HALF_WIDTH`` and ``GRID_STEP``
leave the truncation and discretisation errors far below 1e-10 in log terms
on the benchmark's data (``test_perfbench.py`` checks this against a finer
grid and against ``scipy.stats.multivariate_normal.cdf``). This form is not
the one censlmm uses on either path: the marginal path integrates the
censored block's conditional normal by quasi-Monte Carlo, and the AGQ path
recentres Gauss-Hermite nodes at the mode of the joint integrand.
"""

import csv
import math

import numpy as np
from scipy.special import log_ndtr, logsumexp
from scipy.stats import multivariate_normal

GRID_HALF_WIDTH = 10.0
GRID_STEP = 0.1


def read_subjects(path):
    """Subjects of a long CSV as ``(times, y, observed, limits)`` array tuples."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["id"], []).append(
                (float(row["time"]), float(row["y"]), row["obs"] == "1", float(row["limit"]))
            )
    out = []
    for rows in groups.values():
        t, y, obs, lim = (np.array(col) for col in zip(*rows))
        out.append((t, y, obs.astype(bool), lim))
    return out


def _designs(t):
    return np.column_stack([np.ones_like(t), t])


def naive_loglik(subjects, beta, g, sigma):
    """Threshold imputation: censored responses set to their limit, all treated as observed."""
    total = 0.0
    for t, y, obs, lim in subjects:
        z = _designs(t)
        y_star = np.where(obs, y, lim)
        v = z @ g @ z.T + sigma ** 2 * np.eye(t.shape[0])
        total += multivariate_normal.logpdf(y_star, mean=z @ beta, cov=v)
    return float(total)


def make_grid(half_width, step):
    """Trapezoidal nodes on a square around 0, with log(step^2 * phi_2(u)) as log weights."""
    axis = np.arange(-half_width, half_width + 0.5 * step, step)
    u1, u2 = np.meshgrid(axis, axis, indexing="ij")
    u = np.column_stack([u1.ravel(), u2.ravel()])
    log_w = -0.5 * np.sum(u * u, axis=1) - math.log(2.0 * math.pi) + 2.0 * math.log(step)
    return u, log_w


def censored_log_prob(t, y, obs, lim, beta, g, sigma, grid=None):
    """log Pr(censored measures below their limits | observed measures)."""
    u, log_w = grid if grid is not None else make_grid(GRID_HALF_WIDTH, GRID_STEP)
    z = _designs(t)
    resid = y[obs] - z[obs] @ beta
    prec = np.linalg.inv(g) + z[obs].T @ z[obs] / sigma ** 2
    cov = np.linalg.inv(prec)
    mean = cov @ z[obs].T @ resid / sigma ** 2
    root = np.linalg.cholesky(0.5 * (cov + cov.T))
    b = mean + u @ root.T
    cens = ~obs
    arg = (lim[cens] - z[cens] @ beta - b @ z[cens].T) / sigma
    return float(logsumexp(log_w + np.sum(log_ndtr(arg), axis=1)))


def exact_loglik(subjects, beta, g, sigma, grid=None):
    """The censoring-aware log-likelihood that the marginal and AGQ paths approximate."""
    grid = grid if grid is not None else make_grid(GRID_HALF_WIDTH, GRID_STEP)
    total = 0.0
    for t, y, obs, lim in subjects:
        z = _designs(t)
        if obs.any():
            zo = z[obs]
            v_oo = zo @ g @ zo.T + sigma ** 2 * np.eye(zo.shape[0])
            total += multivariate_normal.logpdf(y[obs], mean=zo @ beta, cov=v_oo)
        if not obs.all():
            total += censored_log_prob(t, y, obs, lim, beta, g, sigma, grid)
    return float(total)


def unpack(natural):
    """(beta, g, sigma) from censlmm's natural-scale estimate order.

    The order is intercept, slope, var_intercept, cov_intercept_slope,
    var_slope, sd_residual (a trailing var_residual is ignored).
    """
    b0, b1, v0, c01, v1, sd = natural[:6]
    return np.array([b0, b1]), np.array([[v0, c01], [c01, v1]]), float(sd)


def scaled_score(loglik, natural, se, rel_step=1e-4):
    """Central-difference score of ``loglik`` at the first six natural parameters, times their SEs.

    For a log-likelihood close to quadratic, entry k is about the distance of
    parameter k from the maximum in units of its standard error.
    """
    x = np.asarray(natural[:6], dtype=float)
    out = np.empty(6)
    for k in range(6):
        h = rel_step * max(1.0, abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out[k] = (loglik(*unpack(xp)) - loglik(*unpack(xm))) / (2.0 * h) * se[k]
    return out
