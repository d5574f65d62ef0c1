"""Multivariate normal rectangle probabilities of the censored blocks.

:func:`mvn_rect_probs` is the one entry point for the rectangle probability
Pr(Y <= upper) for Y ~ N(mean, cov) over a lower-infinite box. It takes
stacked blocks of one size m >= 1, checks them in one batched pass (symmetry,
the variance floor and positive definiteness), and picks the rule by m.

Up to three variables the probability is exact. One variable is the normal
CDF. Two and three use fixed quadrature nodes on standardized limits,
batched over many blocks by :func:`log_orthant_probs`: Drezner and
Wesolowsky's sum and Genz's transformed form for two (JSCS 1990; Stat.
Comput. 2004), Plackett's path for three, and an endpoint Gauss-Laguerre rule
where those forms would cancel in the tails. All of them work in log space.
For those sizes :func:`truncated_moments` also gives the mean and covariance
of Y given Y <= upper in closed form; the marginal path's score needs them.

From four variables on, the Genz approach is used (JCGS 1992): a
variable-reordered Cholesky factorization transforms the integral to the unit
cube, which is then evaluated with randomized quasi-Monte Carlo on nested
point streams. The method has no dimension limit, and neither has this
module: a block of any size m >= 4 takes this rule. Each dimension m has one
stream of ten independently scrambled Sobol sequences, seeded from the
configured seed, m - 1 and the scramble index only; the spread of the ten
per-scramble means gives the error estimate. Every block of one dimension
reads the same stream from its start, and the blocks of one call are
evaluated together. The points come in doubling levels (512, 1024, ... per
scramble); each level is drawn once and adds only its new points to the
running sums of the blocks that have not yet met their tolerance, so going
from n to 2n points evaluates n. A block stops when its error estimate is at
most ``tol`` times its probability, or at 32,768 points per scramble; with a
fixed count, every block runs ``FIT_POINTS`` of its m. No points are cached:
each stream draws its levels from copies of its scrambled engines, which are
cached per (seed, dimension) unadvanced, since making them costs more than
copying them. A block's estimate does not depend on the rest of its group,
and repeated calls are reproducible. With a fixed count the
estimate varies smoothly with the block's moments only while the block's
variable order stays the same. That order is picked from the moments, so it
is a step function of them, and where it switches the estimate jumps: on 100
subjects x 10 times at 50% censoring, two switches moved the total
log-likelihood by -1.74e-4 and +2.19e-4.
"""

import copy
import math
from functools import lru_cache

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri

from .errors import DimensionError, NotPositiveDefiniteError

EXACT_DIM = 3  # the largest block size whose probability, and truncated moments, are exact
VARIANCE_FLOOR = 1e-12
_FLOOR_MESSAGE = f"a variance fell below the floor {VARIANCE_FLOOR:g}; refusing to regularize"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_N_SCRAMBLES = 10
_TINY_P = 1e-300
MVN_TOL = 1e-6  # the relative error an adaptive block is asked to meet
# points per scramble of the first QMC level
_FIRST_POINTS = 512
# the most points per scramble an adaptive block evaluates
_MAX_POINTS = 2 ** 15
# points per scramble of each block size m with a fixed count, as in the fits
FIT_POINTS = {4: 2048}
FIT_POINTS_DEFAULT = 4096
# blocks x coordinates x points evaluated in one batched pass of the Genz
# integrand; bounds its temporaries to a few MB
_GENZ_CHUNK = 2 ** 18

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
# where they lose more than e^3 to cancellation (for m = 3, and for m = 2 at
# rho >= 0.925, if that ratio is below _FLAT_CANCEL); thresholds chosen in a
# scan against adaptive quadrature with limits in [-8, 8]
_CANCEL = -3.0
_FLAT = 0.02
_FLAT_CANCEL = 0.1
# a standardized limit beyond this is infinite to double precision
_BIG = 40.0


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
        y[k] = -np.exp(-0.5 * alpha * alpha - _LOG_SQRT_2PI) / p
    return chol, b


@lru_cache(maxsize=16)
def _engines(seed, dim):
    """The stream's scrambled Sobol engines, seeded from (seed, dim, scramble) only; never drawn from."""
    # imported here: scipy.stats takes most of the package's import time, and
    # only QMC blocks (m >= 4) need it
    from scipy.stats import qmc

    return tuple(qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng([seed, dim, s]))
                 for s in range(_N_SCRAMBLES))


def _stream_levels(seed, dim, first):
    """The stream's points in doubling levels: [0, first), [first, 2 first), ... per scramble.

    Yields, per level, its end n (points per scramble so far) and an
    iterator over the scrambles' new points, (dim, n_new) each; consume it
    before asking for the next level. The levels are drawn from copies of
    the cached engines, which stay at the start of the stream.
    """
    cached = _engines(seed, dim)
    # drawing points does not read the engines' random generators, which
    # made the scramble, so the copies share them: copying those is most of
    # the cost of a deep copy
    generators = {id(v): v for engine in cached for v in vars(engine).values()
                  if isinstance(v, np.random.Generator)}
    engines = copy.deepcopy(cached, generators)
    lo, hi = 0, first
    while True:
        log_n = int(math.log2(hi - lo))
        yield hi, (np.ascontiguousarray(engine.random_base2(log_n).T) for engine in engines)
        lo, hi = hi, 2 * hi


def _genz_sums(chol, b, w):
    """Each block's sum of the Genz-transformed integrand over the points ``w``.

    ``chol`` (B, m, m) and ``b`` (B, m) are the blocks' ordered Cholesky
    factors and limits, and ``w`` the (m - 1, n) uniform coordinates of n
    points. Coordinate i drives the chain y_i = Phi^{-1}(w_i e_i), with e_i
    the conditional probability of the i-th (reordered) variable given the
    earlier y; the integrand is the product of the e_i. Blocks are taken in
    chunks of about ``_GENZ_CHUNK`` entries.
    """
    n_blocks, m = b.shape
    n = w.shape[1]
    step = max(1, _GENZ_CHUNK // (m * n))
    out = np.empty(n_blocks)
    for lo in range(0, n_blocks, step):
        c, lim = chol[lo:lo + step], b[lo:lo + step]
        e = np.repeat(ndtr(lim[:, :1] / c[:, 0, :1]), n, axis=1)
        f = e.copy()
        ys = np.empty((lim.shape[0], m - 1, n))
        for i in range(1, m):
            ys[:, i - 1] = ndtri(np.maximum(w[i - 1] * e, _TINY_P))
            shift = (c[:, i, None, :i] @ ys[:, :i])[:, 0]
            e = ndtr((lim[:, i, None] - shift) / c[:, i, i, None])
            f *= e
        out[lo:lo + step] = f.sum(axis=1)
    return out


def _genz_qmc(chol, b, seed, n_max, tol):
    """Genz QMC for a group of blocks of one size m on the shared stream of dimension m - 1.

    ``chol`` (B, m, m) and ``b`` (B, m) are as in :func:`_genz_sums`, and
    ``n_max`` is the largest point count per scramble, a power of two. Each
    level doubles the points per scramble, from ``_FIRST_POINTS`` (or
    ``n_max`` if below it), and adds the new points to the running sums of
    every block still active. A block stops at ``n_max``, or once its error
    estimate meets ``tol`` times its estimate. Returns the estimates, their
    errors (three standard errors over the scrambles), the points per
    scramble each block used, and whether each met its tolerance.
    """
    n_blocks = b.shape[0]
    dim = b.shape[1] - 1
    sums = np.zeros((n_blocks, _N_SCRAMBLES))
    value, err, used = np.zeros(n_blocks), np.zeros(n_blocks), np.zeros(n_blocks, dtype=int)
    met = np.zeros(n_blocks, dtype=bool)
    active = np.ones(n_blocks, dtype=bool)
    for hi, level in _stream_levels(seed, dim, min(_FIRST_POINTS, n_max)):
        idx = np.flatnonzero(active)
        chol_a, b_a = chol[idx], b[idx]
        for s, w in enumerate(level):
            sums[idx, s] += _genz_sums(chol_a, b_a, w)
        means = sums[idx] / hi
        value[idx] = means.mean(axis=1)
        err[idx] = 3.0 * means.std(axis=1, ddof=1) / math.sqrt(_N_SCRAMBLES)
        used[idx] = hi
        met[idx] = err[idx] <= tol * np.maximum(value[idx], _TINY_P)
        active[idx] = ~met[idx] & (n_max > hi)
        if not np.any(active):
            return value, err, used, met


def mills(t):
    """The inverse Mills ratio phi(t) / Phi(t), free of cancellation deep in the lower tail."""
    return _SQRT_2_OVER_PI / erfcx(-t / _SQRT2)


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
      where the integrand falls off exponentially from its endpoint, or
      where one of the other forms cancels with both limits in the lower
      tail: the first for r < 0, and Genz's for r >= 0.925 if the integrand
      is still close to exponential (as in :func:`_log_tvn`).
    """
    b1, b2 = np.minimum(b1, b2), np.maximum(b1, b2)
    l1 = log_ndtr(b1)
    lp = l1 + log_ndtr(b2)
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
        l1h, l2 = l1[~mid], log_ndtr(x2)
        at_minus_one = np.where(x1 + x2 > 0.0, l2 + _log1mexp(log_ndtr(-x1) - l2), -np.inf)
        out[~mid] = np.where(rt > 0.0, l1h + _log1mexp(tail - l1h), np.logaddexp(at_minus_one, tail))

    # the endpoint rule in x = the more restrictive variable
    sig = np.sqrt(1.0 - r * r)
    a = (b2 - r * b1) / sig
    mills = np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_ndtr(a))
    slope = -b1 - (r / sig) * mills
    curv = 1.0 + (r / sig) ** 2 * mills * (a + mills)
    cancels = np.where(mid, (r < 0.0) & ~(out - lp > _CANCEL),
                       (r > 0.0) & ~(out - l1 > _CANCEL) & (curv < _FLAT_CANCEL * slope * slope))
    use = (slope > 0.0) & ((curv < _FLAT * slope * slope) | cancels)
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


def mvn_rect_probs(mean, cov, upper, tol=MVN_TOL, seed=0, fixed=False):
    """log Pr(Y <= upper) for Y ~ N(mean, cov), over B blocks of one size m.

    ``mean`` and ``upper`` are (B, m) and ``cov`` is (B, m, m), for any
    m >= 1; all lower limits are -inf. Sizes 1 to 3 are exact: the normal
    CDF, or :func:`log_orthant_probs` on the standardized limits, to about
    1e-12 relative. From m = 4 on, with no upper size cap, each block is
    factored by Genz's ordered Cholesky and the group runs the transformed
    quasi-Monte Carlo rule on the size's shared stream, drawn from copies of
    its cached scrambled engines (see the module docstring). There a
    block stops once its error estimate, three standard errors over the
    scrambles, is at most ``tol`` times its probability, or at 32,768
    points per scramble (``_MAX_POINTS``), when it is flagged exhausted. With
    ``fixed``, every block uses exactly ``FIT_POINTS`` points per scramble
    for its m instead, and none is flagged.

    Returns ``(log_p, err_est, points, exhausted)`` as (B,) arrays, where
    ``points`` counts the points evaluated over all scrambles and the last
    three are None for m <= 3, and None; or None and (index, error) of the
    first block whose size or covariance fails: an asymmetric covariance, a
    variance below ``VARIANCE_FLOOR``, or one that is not positive definite.
    """
    mean, cov, upper = (np.asarray(a, dtype=float) for a in (mean, cov, upper))
    n_blocks, m = mean.shape
    if cov.shape != (n_blocks, m, m) or upper.shape != (n_blocks, m):
        raise DimensionError("mean, cov and upper dimensions do not match")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if m < 1:
        return None, (0, DimensionError("a censored block needs at least one measure"))

    var = np.diagonal(cov, axis1=1, axis2=2)
    low = np.any(var < VARIANCE_FLOOR, axis=1)
    # np.isclose's test (NaN fails it), written out: np.isclose takes 3x as long
    cov_t = np.swapaxes(cov, 1, 2)
    asym = np.any(~(np.abs(cov - cov_t) <= 1e-12 + 1e-8 * np.abs(cov_t)), axis=(1, 2))
    checks = [(asym, "covariance is not symmetric"), (low, _FLOOR_MESSAGE)]
    if m <= EXACT_DIM:
        sd = np.sqrt(np.maximum(var, VARIANCE_FLOOR)[:, :, None])
        limits = (upper - mean) / sd[:, :, 0]
        corr = cov / (sd * np.swapaxes(sd, 1, 2))
        if m > 1:
            checks.append((np.linalg.eigvalsh(corr)[:, 0] <= 0.0, "covariance is not positive definite"))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    first = int(np.argmax(bad)) if bad.any() else n_blocks
    if m > EXACT_DIM:
        # the ordered Cholesky is the positive-definiteness check
        factors = []
        for i in range(first):
            try:
                factors.append(_ordered_cholesky(cov[i], upper[i] - mean[i]))
            except NotPositiveDefiniteError as exc:
                return None, (i, exc)
    if first < n_blocks:
        message = next(message for mask, message in checks if mask[first])
        return None, (first, NotPositiveDefiniteError(message))

    if m <= EXACT_DIM:
        log_p = log_ndtr(limits[:, 0]) if m == 1 else log_orthant_probs(limits, corr)
        return (log_p, None, None, None), None
    chol, b = (np.array(f) for f in zip(*factors))
    # a tolerance of -inf is never met: fixed counts run to the end
    value, err, used, met = _genz_qmc(chol, b, seed,
                                      FIT_POINTS.get(m, FIT_POINTS_DEFAULT) if fixed else _MAX_POINTS,
                                      -np.inf if fixed else tol)
    with np.errstate(divide="ignore"):
        log_p = np.log(np.maximum(value, 0.0))
    return (log_p, err, _N_SCRAMBLES * used, ~met & (not fixed)), None


def truncated_moments(mean, cov, upper, log_p):
    """Mean and covariance of Y ~ N(mean, cov) given Y <= upper, for B blocks of one size m <= 3.

    ``mean`` and ``upper`` are (B, m), ``cov`` is (B, m, m) and ``log_p`` the
    blocks' log Pr(Y <= upper) as :func:`mvn_rect_probs` returns it; the
    blocks are assumed to have passed its checks. Returns the truncated
    means (B, m) and covariances (B, m, m).

    In standardized form X ~ N(0, R) with limits h, let P = Pr(X <= h), g
    its gradient in h and H its Hessian. Then E[X] = -R g / P and
    E[X X^T] = R + R H R / P (Tallis, JRSS-B 1961; Kan and Robotti, JCGS
    2017). g_j is phi(h_j) times the probability of the other variables
    given X_j = h_j; H_jk, j != k, is the bivariate density at (h_j, h_k)
    times the probability of the third variable given both, and
    H_jj = -h_j g_j - sum_k R_jk H_jk. These need only Phi, and for m = 3
    the exact Phi2 of :func:`log_orthant_probs`. Each ratio to P is formed
    as exp(log numerator - log P), so deep-tail blocks do not underflow;
    for m = 1 it is the inverse Mills ratio.
    """
    mean, cov, upper, log_p = (np.asarray(a, dtype=float) for a in (mean, cov, upper, log_p))
    n_blocks, m = mean.shape
    if not 1 <= m <= EXACT_DIM:
        raise DimensionError(f"truncated moments are exact for m = 1 to {EXACT_DIM}, not {m}")
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    # a limit beyond _BIG is infinite to double precision, as in log_orthant_probs
    h = np.minimum((upper - mean) / sd, _BIG)
    if m == 1:
        lam = mills(h)
        return mean - sd * lam, cov * (1.0 - lam * (h + lam))[:, :, None]
    corr = cov / (sd[:, :, None] * sd[:, None, :])
    log_phi = -0.5 * h * h - _LOG_SQRT_2PI
    grad = np.empty((n_blocks, m))
    for j in range(m):
        # the others given X_j = h_j: limits (h_k - r_kj h_j) / s_k, s_k^2 = 1 - r_kj^2
        rest = [k for k in range(m) if k != j]
        r = corr[:, rest, j]
        s = np.sqrt(1.0 - r * r)
        limits = (h[:, rest] - r * h[:, j, None]) / s
        if m == 2:
            log_rest = log_ndtr(limits[:, 0])
        else:
            rho = (corr[:, rest[0], rest[1]] - r[:, 0] * r[:, 1]) / (s[:, 0] * s[:, 1])
            pair = np.stack([np.ones_like(rho), rho, rho, np.ones_like(rho)], axis=1)
            log_rest = log_orthant_probs(limits, pair.reshape(-1, 2, 2))
        grad[:, j] = np.exp(log_phi[:, j] + log_rest - log_p)
    hess = np.zeros((n_blocks, m, m))
    det = np.linalg.det(corr) if m == 3 else None
    for j in range(m):
        for k in range(j + 1, m):
            rho = corr[:, j, k]
            one_minus = 1.0 - rho * rho
            log_num = (-(h[:, j] ** 2 - 2.0 * rho * h[:, j] * h[:, k] + h[:, k] ** 2) / (2.0 * one_minus)
                       - 2.0 * _LOG_SQRT_2PI - 0.5 * np.log(one_minus))
            if m == 3:
                # the third variable given X_j = h_j and X_k = h_k
                i = 3 - j - k
                r_ij, r_ik = corr[:, i, j], corr[:, i, k]
                cond_mean = ((r_ij - rho * r_ik) * h[:, j] + (r_ik - rho * r_ij) * h[:, k]) / one_minus
                log_num = log_num + log_ndtr((h[:, i] - cond_mean) / np.sqrt(det / one_minus))
            hess[:, j, k] = hess[:, k, j] = np.exp(log_num - log_p)
    diag = -h * grad - np.sum(corr * hess, axis=2)
    hess[:, np.arange(m), np.arange(m)] = diag
    z_mean = -(corr @ grad[:, :, None])[:, :, 0]
    z_cov = corr + corr @ (hess - grad[:, :, None] * grad[:, None, :]) @ corr
    scale = sd[:, :, None] * sd[:, None, :]
    return mean + sd * z_mean, scale * z_cov
