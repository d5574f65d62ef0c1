"""Normal-distribution primitives: densities, CDFs and rectangle probabilities.

The rectangle probability Pr(Y <= upper) for Y ~ N(mean, cov) over a
lower-infinite box is exact for up to three variables. One variable is the
normal CDF. Two and three use fixed quadrature nodes on standardized limits,
batched over many blocks by :func:`log_orthant_probs`: Drezner and
Wesolowsky's sum and Genz's transformed form for two (JSCS 1990; Stat.
Comput. 2004), Plackett's path for three, and an endpoint Gauss-Laguerre rule
where those forms would cancel in the tails. All of them work in log space.

From four variables on, the Genz approach is used: a variable-reordered
Cholesky factorization transforms the integral to the unit cube, which is then
evaluated with randomized (scrambled Sobol) quasi-Monte Carlo.  Independent
scramblings give an error estimate; the number of points is doubled until the
requested tolerance is met or the evaluation budget runs out.  Point sets are
derived from the configured seed and the problem dimension only, so repeated
calls are reproducible and the estimate varies smoothly with the problem's
moments.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import qmc

from .errors import DimensionError, NotPositiveDefiniteError

MAX_DIM = 10
VARIANCE_FLOOR = 1e-12
_FLOOR_MESSAGE = f"a variance fell below the floor {VARIANCE_FLOOR:g}; refusing to regularize"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)
_N_SCRAMBLES = 10
_TINY_P = 1e-300
_CACHE_POINT_LIMIT = 2 ** 13

# fixed rules of the exact m = 2 and m = 3 probabilities, as (nodes, log
# weights): 20-node Gauss-Legendre on [0, 1], 40 nodes for Plackett's m = 3
# path (20 erred by up to 7e-6 in log p in tails, 40 by 4e-12), and 20-node
# Gauss-Laguerre
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_T, _GL_LOGW = 0.5 * (_GL_X + 1.0), np.log(0.5 * _GL_W)
_PATH_X, _PATH_W = np.polynomial.legendre.leggauss(40)
_PATH_T, _PATH_LOGW = 0.5 * (_PATH_X + 1.0), np.log(0.5 * _PATH_W)
_LAG_T, _LAG_W = np.polynomial.laguerre.laggauss(20)
_LAG_LOGW = np.log(_LAG_W)
# |rho| from which Genz's transformed form replaces the Drezner-Wesolowsky sum
_HIGH_CORR = 0.925
# the endpoint Gauss-Laguerre rule replaces the other forms where the
# integrand is close to exponential (curvature / slope^2 below _FLAT), or
# where they lose more than e^3 to cancellation (for m = 3 if that ratio is
# below _FLAT_CANCEL); thresholds chosen in a scan against adaptive quadrature
# with limits in [-8, 8]
_CANCEL = -3.0
_FLAT = 0.02
_FLAT_CANCEL = 0.1
# a standardized limit beyond this is infinite to double precision
_BIG = 40.0
# relative error reported for the exact m = 2 and m = 3 probabilities
_EXACT_REL_ERR = 1e-12


def std_normal_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def log_std_normal_pdf(x):
    """log phi(x), safe for large |x|."""
    x = np.asarray(x, dtype=float)
    out = -0.5 * x * x - _LOG_SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF Phi(x); accepts +-inf."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def log_std_normal_cdf(x):
    """log Phi(x) without underflow in the left tail."""
    out = log_ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_icdf(p):
    """Inverse standard normal CDF."""
    out = ndtri(np.asarray(p, dtype=float))
    return float(out) if out.ndim == 0 else out


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


@dataclass(frozen=True)
class MvnProblem:
    """A lower-infinite rectangle probability problem.

    Pr(Y_1 <= upper_1, ..., Y_m <= upper_m) for Y ~ N(mean, cov); all lower
    limits are -inf.  ``tol`` is the requested absolute error and ``rel_tol``
    an additional relative target (both must be met before sampling stops,
    budget permitting).  When ``fixed_points`` is set, exactly that many
    quasi-random points per scramble are used with no adaptive escalation;
    likelihood evaluation relies on this to keep the objective a smooth
    function of the model parameters.  The sampling settings apply only
    from dimension 4 on: up to dimension 3 the probability is exact and
    no QMC runs.
    """

    mean: np.ndarray
    cov: np.ndarray
    upper: np.ndarray
    tol: float = 1e-6
    rel_tol: float = 1e-6
    max_evals: int = 1_000_000
    fixed_points: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "cov", np.atleast_2d(np.asarray(self.cov, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True)
class ProbResult:
    """Estimated probability with error estimate and cost accounting."""

    value: float
    err_est: float
    evals: int
    log_value: float
    budget_exhausted: bool = False


def _validate(problem):
    m = problem.dim
    if m < 1:
        raise DimensionError("empty problem")
    if m > MAX_DIM:
        raise DimensionError(f"dimension {m} exceeds the supported maximum of {MAX_DIM}")
    if problem.cov.shape != (m, m) or problem.upper.shape != (m,):
        raise DimensionError("mean, cov and upper dimensions do not match")
    if problem.tol <= 0.0:
        raise ValueError("tol must be positive")
    if not np.allclose(problem.cov, problem.cov.T, rtol=1e-8, atol=1e-12):
        raise NotPositiveDefiniteError("covariance is not symmetric")
    variances = np.diag(problem.cov)
    if np.any(variances < VARIANCE_FLOOR):
        raise NotPositiveDefiniteError(_FLOOR_MESSAGE)


def _ordered_cholesky(cov, b):
    """Cholesky factor of a permuted covariance, most restrictive variable first.

    At each elimination step the remaining variable with the smallest
    conditional probability is pivoted in (Genz's ordering), using the
    truncated-normal expectation of the already-factored coordinates as a
    proxy for the integration variables.
    Returns the lower-triangular factor and the permuted limits.
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
        p = max(ndtr(alpha), _TINY_P)
        y[k] = -std_normal_pdf(alpha) / p
    return chol, b


def _make_points(seed, dim, n_points, scrambles):
    out = np.empty((len(scrambles), n_points, dim))
    for k, s in enumerate(scrambles):
        rng = np.random.default_rng([seed, dim, n_points, s])
        engine = qmc.Sobol(d=dim, scramble=True, seed=rng)
        out[k] = engine.random_base2(int(math.log2(n_points)))
    return out


@lru_cache(maxsize=16)
def _cached_points(seed, dim, n_points, n_scrambles):
    return _make_points(seed, dim, n_points, range(n_scrambles))


def _point_sets(seed, dim, n_points, n_scrambles):
    """Scrambled Sobol points, as (scrambles, n_points, dim) chunks.

    Sizes up to ``_CACHE_POINT_LIMIT``, which the fit path hits, are one
    cached chunk. Larger sets are made one scramble at a time as they are
    used, so that only one is held in memory.
    """
    if n_points <= _CACHE_POINT_LIMIT:
        return [_cached_points(seed, dim, n_points, n_scrambles)]
    return (_make_points(seed, dim, n_points, [s]) for s in range(n_scrambles))


def _scramble_means(chol, b, seed, n_points):
    """Per-scramble means of the Genz-transformed integrand over ``n_points`` points."""
    chunks = _point_sets(seed, b.shape[0] - 1, n_points, _N_SCRAMBLES)
    return np.concatenate([_transformed_means(chol, b, points) for points in chunks])


def _transformed_means(chol, b, points):
    """Per-scramble means of the Genz-transformed integrand.

    Each uniform coordinate drives the chain y_i = Phi^{-1}(w_i * e_i) with
    e_i the conditional probability of the i-th (reordered) coordinate.  All
    scrambles are evaluated in one flattened pass.
    """
    m = b.shape[0]
    n_scrambles, n_points, _ = points.shape
    w = points.reshape(n_scrambles * n_points, m - 1)
    e1 = ndtr(b[0] / chol[0, 0])
    f = np.full(w.shape[0], e1)
    e_cur = f.copy()
    ys = np.empty((w.shape[0], m - 1))
    for i in range(1, m):
        ys[:, i - 1] = ndtri(np.clip(w[:, i - 1] * e_cur, _TINY_P, 1.0))
        e_cur = ndtr((b[i] - ys[:, :i] @ chol[i, :i]) / chol[i, i])
        f *= e_cur
    return f.reshape(n_scrambles, n_points).mean(axis=1)


def _summarize(means):
    value = float(means.mean())
    err = 3.0 * float(means.std(ddof=1)) / math.sqrt(means.shape[0])
    return value, err


def _log1mexp(x):
    """log(1 - e^x) for x <= 0, accurate at both ends."""
    x = np.minimum(x, 0.0)
    with np.errstate(divide="ignore"):
        return np.where(x > -_LOG2, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _log_sum_exp(a, scale=None):
    """log |sum of scale * e^a| over the last axis, and the sum's sign."""
    top = np.max(a, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    terms = np.exp(a - top)
    total = np.sum(terms if scale is None else scale * terms, axis=-1)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(total)) + top[..., 0], np.sign(total)


def _endpoint_laguerre(end, slope, log_f):
    """log of the integral of exp(log_f(x)) over (-inf, end], for slope > 0.

    ``slope`` is the derivative of the log-concave ``log_f`` at ``end``. With
    x = end - t / slope the integrand is e^-t times a factor that is nearly
    flat where the integrand falls off exponentially from the endpoint, which
    20-node Gauss-Laguerre integrates to about machine precision.
    """
    x = end[:, None] - _LAG_T / slope[:, None]
    return _log_sum_exp(log_f(x) + _LAG_T + _LAG_LOGW)[0] - np.log(slope)


def _log_dw(b1, b2, r):
    """log |Phi2(b1, b2; r) - Phi(b1) Phi(b2)|, the Drezner-Wesolowsky sum.

    The difference is (1/2pi) times the integral over theta from 0 to asin r
    of exp(-(b1^2 + b2^2 - 2 b1 b2 sin theta) / (2 cos^2 theta)).
    """
    a = np.arcsin(r)
    s = np.sin(a[:, None] * _GL_T)
    lg = -(b1[:, None] ** 2 + b2[:, None] ** 2 - 2.0 * (b1 * b2)[:, None] * s) / (2.0 * (1.0 - s * s))
    with np.errstate(divide="ignore"):
        return _log_sum_exp(lg + _GL_LOGW)[0] + np.log(np.abs(a)) - 2.0 * _LOG_SQRT_2PI


def _log_bvn_tail(h, k, r):
    """log of the integral of phi2(h, k; t) over t in [r, 1], for 0 < r < 1.

    Genz's transformed form (Stat. Comput. 2004, code ``bvnu``): the
    singular part near t = 1 is integrated in closed form and the rest with
    the 20 Gauss-Legendre nodes. Every term carries at most exp(-hk/2),
    which is factored out so that deep tails do not underflow.
    """
    hk = h * k
    as_ = 1.0 - r * r
    a = np.sqrt(as_)
    bs = (h - k) ** 2
    b = np.sqrt(bs)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    t0 = a * np.exp(-bs / (2.0 * as_)) * (1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_ * as_)
    t1 = math.sqrt(2.0 * math.pi) * ndtr(-b / a) * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
    xs = (a[:, None] * _GL_T) ** 2
    sp = 1.0 + c[:, None] * xs * (1.0 + 5.0 * d[:, None] * xs)
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-(hk[:, None] / 2.0) * xs / (1.0 + rs) ** 2) / rs
    total = np.sum(np.exp(_GL_LOGW - bs[:, None] / (2.0 * xs)) * (sp - ep), axis=1)
    scaled = (t0 - t1 - a * total) / (2.0 * math.pi)
    with np.errstate(divide="ignore"):
        return -0.5 * hk + np.log(np.maximum(scaled, 0.0))


def _log_bvn(b1, b2, r):
    """log Phi2(b1, b2; r), the standard bivariate normal lower orthant, for 1-d arrays.

    Three fixed-node forms, each used where it keeps full relative accuracy:
    - |r| < 0.925: Phi(b1) Phi(b2) plus the Drezner-Wesolowsky sum;
    - |r| >= 0.925: Genz's transformed form, integrated from the nearer of
      r = 1, where the probability is Phi(min b), and r = -1, where it is
      max(0, Phi(b1) + Phi(b2) - 1);
    - an endpoint Gauss-Laguerre rule over the more restrictive variable,
      for r < 0.925, where the integrand falls off exponentially from its
      endpoint or where a negative r makes the first form cancel (both
      limits in the lower tail).
    """
    b1, b2 = np.minimum(b1, b2), np.maximum(b1, b2)
    lp = log_ndtr(b1) + log_ndtr(b2)
    out = np.empty_like(r)
    mid = np.abs(r) < _HIGH_CORR
    if np.any(mid):
        ld = _log_dw(b1[mid], b2[mid], r[mid])
        lpm = lp[mid]
        out[mid] = np.where(r[mid] >= 0.0, np.logaddexp(lpm, ld), lpm + _log1mexp(ld - lpm))
    if not np.all(mid):
        x1, x2, rt = b1[~mid], b2[~mid], r[~mid]
        # for r < 0 the integral runs from -1: phi2(h, k; -t) = phi2(h, -k; t)
        tail = _log_bvn_tail(-x1, -np.sign(rt) * x2, np.abs(rt))
        l1, l2 = log_ndtr(x1), log_ndtr(x2)
        at_minus_one = np.where(x1 + x2 > 0.0, l2 + _log1mexp(log_ndtr(-x1) - l2), -np.inf)
        out[~mid] = np.where(rt > 0.0, l1 + _log1mexp(tail - l1), np.logaddexp(at_minus_one, tail))

    # the endpoint rule in x = the more restrictive variable
    sig = np.sqrt(1.0 - r * r)
    a = (b2 - r * b1) / sig
    mills = np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_ndtr(a))
    slope = -b1 - (r / sig) * mills
    curv = 1.0 + (r / sig) ** 2 * mills * (a + mills)
    use = (slope > 0.0) & (r < _HIGH_CORR)
    use &= (curv < _FLAT * slope * slope) | (mid & (r < 0.0) & ~(out - lp > _CANCEL))
    if np.any(use):
        rb, sb, b2b = r[use, None], sig[use, None], b2[use, None]
        out[use] = _endpoint_laguerre(
            b1[use], slope[use],
            lambda x: -0.5 * x * x - _LOG_SQRT_2PI + log_ndtr((b2b - rb * x) / sb))
    return out


def _outer_terms(b, corr, x):
    """For x1 = x: phi(x), and Phi2 of (x2, x3) given x1 = x, with its x-slope.

    ``b`` and ``corr`` are (S, 3) and (S, 3, 3); ``x`` is (S,) or (S, n).
    Returns log phi(x) + log Phi2(c2, c3; r) and its derivative in x, where
    c2, c3 are the conditional standardized limits of x2, x3 and r their
    conditional correlation.
    """
    col = (slice(None),) + (None,) * (x.ndim - 1)
    r12, r13, r23 = corr[:, 0, 1][col], corr[:, 0, 2][col], corr[:, 1, 2][col]
    s2, s3 = np.sqrt(1.0 - r12 ** 2), np.sqrt(1.0 - r13 ** 2)
    r = np.broadcast_to((r23 - r12 * r13) / (s2 * s3), x.shape)
    sr = np.sqrt(1.0 - r * r)
    c2 = (b[:, 1][col] - r12 * x) / s2
    c3 = (b[:, 2][col] - r13 * x) / s3
    log_p2 = _log_bvn(c2.ravel(), c3.ravel(), r.ravel()).reshape(x.shape)
    g2 = np.exp(-0.5 * c2 * c2 - _LOG_SQRT_2PI + log_ndtr((c3 - r * c2) / sr) - log_p2)
    g3 = np.exp(-0.5 * c3 * c3 - _LOG_SQRT_2PI + log_ndtr((c2 - r * c3) / sr) - log_p2)
    return -0.5 * x * x - _LOG_SQRT_2PI + log_p2, -x - g2 * r12 / s2 - g3 * r13 / s3


def _log_tvn_path(b, corr):
    """Plackett's path for log Phi3; returns the value and its cancellation.

    Relabels so that rho_23 is the largest |rho| and lets rho_12 and rho_13
    grow from 0 by a factor t. At t = 0 the probability is
    Phi(b1) Phi2(b2, b3; rho_23); its derivative in t is
    rho_12 phi2(b1, b2; t rho_12) Phi(x3 | x1 = b1, x2 = b2)
    + rho_13 phi2(b1, b3; t rho_13) Phi(x2 | x1 = b1, x3 = b3).
    Each term is integrated with 40 Gauss-Legendre nodes in
    theta = asin(t rho), the Drezner-Wesolowsky variable, as in Genz
    (Stat. Comput. 2004). The cancellation is log |sum| minus the log of the
    sum of magnitudes; the value is NaN where the sum is not positive.
    """
    rows = np.arange(b.shape[0])[:, None]
    pairs = np.abs(corr[:, [1, 0, 0], [2, 2, 1]])
    perm = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])[np.argmax(pairs, axis=1)]
    b = b[rows, perm]
    corr = corr[rows[:, :, None], perm[:, :, None], perm[:, None, :]]
    b1, b2, b3 = (b[:, i, None] for i in range(3))
    r12, r13, r23 = corr[:, 0, 1, None], corr[:, 0, 2, None], corr[:, 1, 2, None]
    a12, a13 = np.arcsin(r12), np.arcsin(r13)

    def term(ba, bc, r_a, r_b, angle):
        # the path's pair (x1, x_a) at correlation s = sin(angle t), the
        # other coupling at the same t, and x_c conditional on both
        s = np.sin(angle * _PATH_T)
        t = np.where(r_a != 0.0, s / np.where(r_a != 0.0, r_a, 1.0), _PATH_T)
        s_b = t * r_b
        det = 1.0 - s * s - s_b * s_b - r23 * r23 + 2.0 * s * s_b * r23
        mu = (b1 * (s_b - s * r23) + ba * (r23 - s * s_b)) / (1.0 - s * s)
        return (-(b1 * b1 - 2.0 * b1 * ba * s + ba * ba) / (2.0 * (1.0 - s * s))
                - 2.0 * _LOG_SQRT_2PI + log_ndtr((bc - mu) / np.sqrt(det / (1.0 - s * s))) + _PATH_LOGW)

    terms = np.concatenate([
        (log_ndtr(b1[:, 0]) + _log_bvn(b2[:, 0], b3[:, 0], r23[:, 0]))[:, None],
        term(b2, b3, r12, r13, a12),
        term(b3, b2, r13, r12, a13),
    ], axis=1)
    signs = np.concatenate([np.ones_like(a12), np.repeat(a12, _PATH_T.size, axis=1),
                            np.repeat(a13, _PATH_T.size, axis=1)], axis=1)
    value, sign = _log_sum_exp(terms, signs)
    value = np.where(sign > 0.0, value, np.nan)
    return value, value - _log_sum_exp(terms, np.abs(signs))[0]


def _log_tvn(b, corr):
    """log Pr(Z <= b) for Z ~ N(0, corr), b (S, 3), corr (S, 3, 3) correlations.

    Two fixed-node forms. The endpoint Gauss-Laguerre rule integrates
    phi(x1) Phi2(x2, x3 | x1) over the variable x1 whose integrand is
    closest to exponential at its limit (smallest curvature / slope^2,
    estimated from two slopes); it is used where that ratio is below 0.02,
    or below 0.1 where Plackett's path (:func:`_log_tvn_path`) loses more
    than e^3 to cancellation. Elsewhere the path is used.
    """
    n = b.shape[0]
    # each block under each choice of x1, stacked as 3n blocks
    orders = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
    bk = b[:, orders].reshape(3 * n, 3)
    ck = corr[:, orders[:, :, None], orders[:, None, :]].reshape(3 * n, 3, 3)
    _, slope = _outer_terms(bk, ck, bk[:, 0])
    step = 0.1 / np.maximum(np.abs(slope), 1.0)
    _, lower = _outer_terms(bk, ck, bk[:, 0] - step)
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = np.where(slope > 0.0, (lower - slope) / (step * slope * slope), np.inf)
    pick = 3 * np.arange(n) + np.argmin(flat.reshape(n, 3), axis=1)
    flat = flat[pick]
    value, cancel = _log_tvn_path(b, corr)
    use = (flat < _FLAT) | (~(cancel > _CANCEL) & (flat < _FLAT_CANCEL))
    if np.any(use):
        pick = pick[use]
        bu, cu = bk[pick], ck[pick]
        value[use] = _endpoint_laguerre(bu[:, 0], slope[pick], lambda x: _outer_terms(bu, cu, x)[0])
    return value


def log_orthant_probs(limits, corr):
    """log Pr(Z <= limits) for Z ~ N(0, corr), batched over blocks, exactly for m = 2 and 3.

    ``limits`` is (S, m) standardized upper limits and ``corr`` (S, m, m)
    correlation matrices; returns S log probabilities. Fixed quadrature
    nodes, no sampling: the result is a smooth, deterministic function of
    its inputs, with a relative error near 1e-12 (see :func:`_log_bvn` and
    :func:`_log_tvn`). A limit of +inf counts as certain. A limit whose
    log Phi is -inf (-inf itself, or a finite one below about -1.9e154)
    gives -inf, since log p <= min log Phi(limit).
    """
    limits = np.asarray(limits, dtype=float)
    corr = np.asarray(corr, dtype=float)
    m = limits.shape[1]
    impossible = np.any(log_ndtr(limits) == -np.inf, axis=1)
    clipped = np.where(impossible[:, None], 0.0, np.minimum(limits, _BIG))
    if m == 2:
        out = _log_bvn(clipped[:, 0], clipped[:, 1], corr[:, 0, 1])
    elif m == 3:
        out = _log_tvn(clipped, corr)
    else:
        raise DimensionError(f"exact orthant probabilities cover m = 2 and 3, not {m}")
    out[impossible] = -np.inf
    return out


def exact_block_log_probs(mean, cov, upper):
    """log Pr(Y <= upper) for (S, m) blocks with m <= 3, batched and exact.

    ``mean`` and ``upper`` are (S, m), ``cov`` is (S, m, m). Checks the
    variance floor and positive definiteness. Returns the S log
    probabilities and None, or None and (index, error) of the first
    failing block.
    """
    var = np.diagonal(cov, axis1=1, axis2=2)
    low = np.any(var < VARIANCE_FLOOR, axis=1)
    if np.any(low):
        return None, (int(np.argmax(low)), NotPositiveDefiniteError(_FLOOR_MESSAGE))
    sd = np.sqrt(var)
    limits = (upper - mean) / sd
    if mean.shape[1] == 1:
        return log_ndtr(limits[:, 0]), None
    corr = cov / (sd[:, :, None] * sd[:, None, :])
    singular = np.linalg.eigvalsh(corr)[:, 0] <= 0.0
    if np.any(singular):
        return None, (int(np.argmax(singular)),
                      NotPositiveDefiniteError("covariance is not positive definite"))
    return log_orthant_probs(limits, corr), None


def mvn_rect_prob(problem, seed=0):
    """Pr(Y <= upper) for Y ~ N(mean, cov) with all lower limits at -inf.

    Dimensions 1 to 3 go through :func:`exact_block_log_probs` (the scalar
    CDF, or :func:`log_orthant_probs`); these are exact to about 1e-12 relative
    (``err_est``), take one evaluation and ignore the sampling settings.
    From dimension 4 on, the transformed quasi-Monte Carlo rule is used; the
    returned ``err_est`` is three standard errors over the independent
    scramblings.  If the evaluation budget is exhausted before the tolerance
    is met, the best estimate is returned with ``budget_exhausted`` set.
    """
    _validate(problem)
    if problem.dim <= 3:
        log_p, error = exact_block_log_probs(problem.mean[None], problem.cov[None],
                                             problem.upper[None])
        if error is not None:
            raise error[1]
        log_value = float(log_p[0])
        value = math.exp(log_value)
        return ProbResult(value=value, err_est=_EXACT_REL_ERR * value, evals=1,
                          log_value=log_value)

    chol, b_perm = _ordered_cholesky(problem.cov, problem.upper - problem.mean)

    if problem.fixed_points is not None:
        n_points = int(problem.fixed_points)
        value, err = _summarize(_scramble_means(chol, b_perm, seed, n_points))
        log_value = math.log(value) if value > 0.0 else -math.inf
        return ProbResult(value=value, err_est=err, evals=_N_SCRAMBLES * n_points,
                          log_value=log_value)

    n_points = 512
    evals = 0
    value = err = np.nan
    while True:
        value, err = _summarize(_scramble_means(chol, b_perm, seed, n_points))
        evals += _N_SCRAMBLES * n_points
        if err <= problem.tol and err <= problem.rel_tol * max(value, _TINY_P):
            break
        if evals + 2 * _N_SCRAMBLES * n_points > problem.max_evals:
            log_value = math.log(value) if value > 0.0 else -math.inf
            return ProbResult(value=value, err_est=err, evals=evals,
                              log_value=log_value, budget_exhausted=True)
        n_points *= 2

    log_value = math.log(value) if value > 0.0 else -math.inf
    return ProbResult(value=value, err_est=err, evals=evals, log_value=log_value)
