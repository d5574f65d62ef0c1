"""Reference implementations that the tests compare the library against.

None of this runs in the library. Each piece computes a quantity the
library also computes, by a separate and plainer route:

- :func:`find_mode` and :func:`agq_log_integral`, a generic adaptive
  Gauss-Hermite quadrature for any log-valued callable that accepts an
  ``(..., q)`` array of points and broadcasts over the leading axes. They
  take derivatives by batched finite-difference stencils, where the
  likelihood evaluator uses closed forms. Accumulation happens in log space
  throughout so that products of many small cumulative normal factors
  cannot underflow.
- :func:`marginal_moments`, :func:`conditional_moments` and
  :func:`mvn_logpdf`, the dense per-subject Gaussian moments, where the
  evaluator works on the r x r posterior of the random effects.
- :func:`design_rows`, the design matrices X and Z of a sequence of
  observations, one row at a time by the per-row rules of the three model
  templates, where the library builds them from whole columns.
- :func:`partition_subject` and :func:`subject_layout`, a subject's
  observed and censored rows and the evaluator's flat row layout built
  subject by subject, identical subjects merged by a dict of their rows,
  where the evaluator builds it in one pass.
- :func:`agq_reference` and :func:`dense_terms`, the hierarchical and the
  naive and marginal terms of a dataset, subject by subject, built from
  the pieces above.
- :func:`truncated_moments_by_differences`, the mean and second moment of a
  truncated normal block from Richardson derivatives of its log
  probability, where the library uses Tallis's closed forms.
- :func:`ordered_cholesky`, Genz's variable-ordered Cholesky factor of one
  block, one variable and one entry at a time, where the library factors
  all blocks of a size together.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import log_ndtr, ndtr

from censlmm.errors import DimensionError, IntegrationError, ModeSearchError, NotPositiveDefiniteError
from censlmm.quadrature import scale_factor, tensor_grid

MAX_DIM = 4

_H_GRAD = 6.0e-6     # ~eps^(1/3), central gradients
_H_HESS = 6.0e-3     # large step: cancellation-safe curvature (exact on quadratics)
_LOG2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Generic adaptive Gauss-Hermite quadrature
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Dense Gaussian moments
# ---------------------------------------------------------------------------


def mvn_logpdf(y, mean, cov):
    """Log density of N(mean, cov) at y via Cholesky factorization."""
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = y.shape[0]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"covariance of dimension {n} is not positive definite") from exc
    z = solve_triangular(chol, y - mean, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (z @ z) - 0.5 * logdet - n * _LOG_SQRT_2PI)


def marginal_moments(subject, spec, theta):
    """Marginal mean X beta and covariance Z G Z^T + R of one subject."""
    theta.validate_for(spec)
    x, z = design_rows(subject.observations, spec)
    mu = x @ theta.beta
    strata = np.array([o.marker - 1 for o in subject.observations])
    if np.any(strata >= spec.n_strata):
        raise DimensionError("marker index exceeds the number of residual strata")
    resid_var = theta.sigma_e[strata] ** 2
    v = z @ theta.g_matrix() @ z.T + np.diag(resid_var)
    return mu, v


def conditional_moments(mu, v, obs_idx, cens_idx, y_obs):
    """Gaussian conditional moments of the censored block given the observed one."""
    mu = np.asarray(mu, dtype=float)
    v = np.asarray(v, dtype=float)
    obs_idx = np.asarray(obs_idx, dtype=int)
    cens_idx = np.asarray(cens_idx, dtype=int)
    y_obs = np.asarray(y_obs, dtype=float)
    if obs_idx.size == 0:
        raise ValueError("conditioning requires at least one observed measure")
    v_oo = v[np.ix_(obs_idx, obs_idx)]
    v_co = v[np.ix_(cens_idx, obs_idx)]
    v_cc = v[np.ix_(cens_idx, cens_idx)]
    try:
        solve = cho_factor(v_oo, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("observed-block covariance is singular") from exc
    gain = cho_solve(solve, v_co.T).T
    mu_c = mu[cens_idx] + gain @ (y_obs - mu[obs_idx])
    v_c = v_cc - gain @ v_co.T
    v_c = 0.5 * (v_c + v_c.T)
    return mu_c, v_c


# ---------------------------------------------------------------------------
# Design rows, observation by observation
# ---------------------------------------------------------------------------


def _with_covariates(row, obs, n_extra):
    if n_extra == 0:
        return row
    if len(obs.covariates) < n_extra:
        raise DimensionError(
            f"subject {obs.subject_id}: {len(obs.covariates)} covariates, {n_extra} required"
        )
    return row + tuple(obs.covariates[:n_extra])


def _template_rows(obs, spec):
    """(fixed row, random row) of one observation under the ri, is or biv template."""
    if spec.n_strata == 1:
        random = (1.0, obs.time) if spec.slope else (1.0,)
    elif spec.slope and spec.n_strata == 2:
        if obs.marker == 1:
            random = (1.0, obs.time, 0.0, 0.0)
        elif obs.marker == 2:
            random = (0.0, 0.0, 1.0, obs.time)
        else:
            raise DimensionError(f"marker {obs.marker} outside the bivariate template")
    else:
        raise ValueError("not one of the three model templates")
    return _with_covariates(random, obs, len(spec.covariates)), random


def design_rows(observations, spec):
    """X (n x p) and Z (n x q) of a sequence of observations, one row at a time."""
    rows = [_template_rows(obs, spec) for obs in observations]
    return (np.array([fixed for fixed, _ in rows], dtype=float),
            np.array([random for _, random in rows], dtype=float))


# ---------------------------------------------------------------------------
# Dataset totals, subject by subject
# ---------------------------------------------------------------------------


def partition_subject(subject):
    """Index lists of observed and censored measurements, input order kept."""
    observed = [i for i, o in enumerate(subject.observations) if o.is_observed]
    censored = [i for i, o in enumerate(subject.observations) if not o.is_observed]
    return observed, censored


def subject_layout(dataset, spec):
    """The evaluator's flat row layout, built subject by subject.

    Subjects whose rows (time, y, observed, marker, covariates) are equal, in
    input order, are one subject: the first of them, counted once for each.
    Each kept subject's rows are reordered to its observed rows, then its
    censored ones, by :func:`partition_subject`, and its designs come from
    :func:`design_rows`. Returns the arrays the evaluator stores under the
    same names.
    """
    counts = {}  # each class's first subject and its count, in order of first appearance
    for subject in dataset.subjects:
        key = tuple((o.time, o.response if o.is_observed else o.threshold, o.is_observed,
                     o.marker, o.covariates) for o in subject.observations)
        first, count = counts.get(key, (subject, 0))
        counts[key] = (first, count + 1)
    xs, zs, rows, n_obs = [], [], [], []
    for subject, _ in counts.values():
        obs_idx, cens_idx = partition_subject(subject)
        order = obs_idx + cens_idx
        x, z = design_rows(subject.observations, spec)
        xs.append(x[order])
        zs.append(z[order])
        rows.extend(subject.observations[i] for i in order)
        n_obs.append(len(obs_idx))
    sizes = np.array([x.shape[0] for x in xs])
    return {
        "x": np.concatenate(xs),
        "z": np.concatenate(zs),
        "y": np.array([o.response if o.is_observed else o.threshold for o in rows]),
        "observed": np.array([o.is_observed for o in rows]),
        "strata": np.array([o.marker - 1 for o in rows], dtype=int),
        "start": np.concatenate([[0], np.cumsum(sizes)]),
        "n_obs": np.array(n_obs),
        "row_subject": np.repeat(np.arange(len(sizes)), sizes),
        "subject_ids": tuple(subject.subject_id for subject, _ in counts.values()),
        "count": np.array([count for _, count in counts.values()]),
    }


def agq_reference(dataset, spec, theta, order):
    """Hierarchical total, subject by subject, by generic AGQ over u ~ N(0, G).

    Each subject's integrand is the model's joint log-density in u: the
    normal prior of u, the observed rows' normal densities given u and the
    censored rows' log Phi terms. G must be nonsingular.
    """
    g = theta.g_matrix()
    g_inv = np.linalg.inv(g)
    log_prior = -0.5 * (np.linalg.slogdet(g)[1] + theta.q * LOG_2PI)
    total = 0.0
    for subject in dataset.subjects:
        x, z = design_rows(subject.observations, spec)
        obs, cens = partition_subject(subject)
        y = np.array([o.response if o.is_observed else o.threshold
                      for o in subject.observations])
        sde = theta.sigma_e[[o.marker - 1 for o in subject.observations]]
        mu = x @ theta.beta

        def logf(u):
            fitted = mu + u @ z.T
            std = (y - fitted) / sde
            dens = -0.5 * std[..., obs] ** 2 - np.log(sde[obs]) - 0.5 * LOG_2PI
            return (log_prior - 0.5 * np.einsum("...i,ij,...j->...", u, g_inv, u)
                    + np.sum(dens, axis=-1) + np.sum(log_ndtr(std[..., cens]), axis=-1))

        total += agq_log_integral(logf, theta.q, order, np.zeros(theta.q))
    return total


def dense_terms(dataset, spec, theta):
    """Per subject, from the dense moments: its naive log-density, the log-density
    of its observed rows, and its censored block's (mean, cov, upper) (None if it has none)."""
    for subject in dataset.subjects:
        mu, v = marginal_moments(subject, spec, theta)
        obs, cens = partition_subject(subject)
        y = np.array([o.response if o.is_observed else o.threshold
                      for o in subject.observations])
        observed = mvn_logpdf(y[obs], mu[obs], v[np.ix_(obs, obs)]) if obs else 0.0
        block = None
        if cens:
            if obs:
                mu_c, v_c = conditional_moments(mu, v, obs, cens, y[obs])
            else:
                mu_c, v_c = mu[cens], v[np.ix_(cens, cens)]
            block = (mu_c, v_c, y[cens])
        yield mvn_logpdf(y, mu, v), observed, block


# ---------------------------------------------------------------------------
# Truncated normal moments
# ---------------------------------------------------------------------------


def _richardson(f, step):
    """(f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / 12h, the 4-point central derivative at 0."""
    return (f(-2 * step) - 8 * f(-step) + 8 * f(step) - f(2 * step)) / (12 * step)


def truncated_moments_by_differences(log_prob, mean, cov, upper, rel_step=3e-5):
    """E[Y] and E[(Y - mean)(Y - mean)^T] of Y ~ N(mean, cov) given Y <= upper, by differences.

    ``log_prob(mean, cov, upper)`` is log Pr(Y <= upper) of one block. Its
    derivatives give the moments: the gradient in the mean is
    V^{-1} (E[Y] - mean), and the derivative in the covariance V is
    (V^{-1} S V^{-1} - V^{-1}) / 2 with S = E[(Y - mean)(Y - mean)^T], from
    d phi / dV = phi (V^{-1} z z^T V^{-1} - V^{-1}) / 2 under the integral.
    An off-diagonal step moves V_jk and V_kj together, so it reads twice that
    entry. Steps are ``rel_step`` times the SDs, each derivative a 4-point
    Richardson central difference. Deep in the tail log P curves fast in the
    covariance: at limits near -8 SD a step of 1e-4 SD left a truncation
    error of 1e-8 in the second moment, and steps from 1e-5 to 5e-5 agree
    with the closed forms to 1e-9.
    """
    mean, cov, upper = (np.asarray(a, dtype=float) for a in (mean, cov, upper))
    m = mean.shape[0]
    sd = np.sqrt(np.diag(cov))
    grad_mean = np.empty(m)
    for j in range(m):
        e = np.eye(m)[j]
        grad_mean[j] = _richardson(lambda t: log_prob(mean + t * e, cov, upper), rel_step * sd[j])
    grad_cov = np.empty((m, m))
    for j in range(m):
        for k in range(j + 1):
            e = np.zeros((m, m))
            e[j, k] = e[k, j] = 1.0
            d = _richardson(lambda t: log_prob(mean, cov + t * e, upper), rel_step * sd[j] * sd[k])
            # d/dV_jj is half the diagonal entry; the paired step reads the off-diagonal one
            grad_cov[j, k] = grad_cov[k, j] = 2.0 * d if j == k else d
    first = mean + cov @ grad_mean
    second = cov + cov @ grad_cov @ cov
    return first, second


# ---------------------------------------------------------------------------
# Genz's variable ordering
# ---------------------------------------------------------------------------


def ordered_cholesky(cov, b):
    """Cholesky factor of one permuted covariance, most restrictive variable first.

    At each elimination step the remaining variable with the smallest
    conditional probability is pivoted in (Genz's ordering), using the
    truncated-normal expectation of the already-factored coordinates as a
    proxy for the integration variables. Returns the lower-triangular factor
    and the permuted limits; raises ``NotPositiveDefiniteError`` where a
    pivot has no variance left.
    """
    m = b.shape[0]
    a = cov.copy()
    b = b.copy()
    chol = np.zeros((m, m))
    y = np.zeros(m)
    for k in range(m):
        best, best_p = k, np.inf
        for i in range(k, m):
            var_i = a[i, i] - chol[i, :k] @ chol[i, :k]
            if var_i <= 0.0:
                continue
            s = math.sqrt(var_i)
            p = ndtr((b[i] - chol[i, :k] @ y[:k]) / s)
            if p < best_p:
                best, best_p = i, p
        if best != k:
            a[[k, best], :] = a[[best, k], :]
            a[:, [k, best]] = a[:, [best, k]]
            chol[[k, best], :k] = chol[[best, k], :k]
            b[[k, best]] = b[[best, k]]
        var_k = a[k, k] - chol[k, :k] @ chol[k, :k]
        if var_k <= 0.0:
            raise NotPositiveDefiniteError("covariance is not positive definite")
        ckk = math.sqrt(var_k)
        chol[k, k] = ckk
        for i in range(k + 1, m):
            chol[i, k] = (a[i, k] - chol[i, :k] @ chol[k, :k]) / ckk
        alpha = (b[k] - chol[k, :k] @ y[:k]) / ckk
        p = max(ndtr(alpha), 1e-300)
        y[k] = -np.exp(-0.5 * alpha * alpha - _LOG_SQRT_2PI) / p
    return chol, b
