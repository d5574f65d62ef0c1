"""Model moments and the censoring-aware log-likelihood formulations.

Two mutually verifying evaluation paths are provided for the same model:

* marginal: per subject, the joint normal density of the observed measures
  times the conditional probability that the censored ones fall below their
  detection limits (a multivariate normal rectangle probability);
* hierarchical: per subject, the product over measurements of a normal
  density (observed) or cumulative (censored) conditional on the random
  effects, integrated over the random-effect distribution with adaptive
  Gauss-Hermite quadrature.

A third, deliberately biased baseline replaces censored responses by their
detection limit and evaluates the ordinary mixed-model likelihood.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erfcx, log_ndtr, logsumexp

from . import quadrature
from .data import build_designs
from .errors import (
    DimensionError,
    EvaluationError,
    IntegrationError,
    InvalidParameterError,
    ModeSearchError,
)
from .gaussian import mvn_rect_probs

_LOG_2PI = math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Newton mode search of the hierarchical integrands: gradient-norm tolerance,
# iteration cap, smallest step fraction, and the rounding slack (relative to
# |f|) within which a step counts as not lowering f
_MODE_GTOL = 1e-8
_MODE_MAX_ITER = 100
_MIN_STEP = 1e-12
_F_SLACK = 8.0 * np.finfo(float).eps

# censored-row x node entries evaluated at once on the quadrature grid; bounds
# the temporaries of one chunk to a few MB
_GRID_CHUNK = 2 ** 18


class Method(Enum):
    MARGINAL = "marginal"
    AGQ = "agq"
    NAIVE = "naive"


@dataclass(frozen=True)
class Theta:
    """Full parameter vector: fixed effects, covariance factor, residual SDs.

    ``chol`` is the lower-triangular Cholesky factor L of the random-effects
    covariance, G = L L^T, with a nonnegative diagonal; any PSD G has one, for
    any q. ``sigma_e`` holds one residual SD per stratum.
    """

    beta: np.ndarray
    chol: np.ndarray
    sigma_e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "sigma_e", np.atleast_1d(np.asarray(self.sigma_e, dtype=float)))
        L = np.atleast_2d(np.asarray(self.chol, dtype=float))
        if np.any(np.triu(L, 1) != 0.0):
            raise InvalidParameterError("L must be lower triangular")
        if np.any(np.diag(L) < 0.0):
            raise InvalidParameterError("L must have a nonnegative diagonal")
        object.__setattr__(self, "chol", L)
        if np.any(self.sigma_e < 0.0) or not np.all(np.isfinite(self.sigma_e)):
            raise InvalidParameterError("residual SDs must be finite and nonnegative")

    @classmethod
    def from_moments(cls, beta, g, sigma_e):
        """Build a Theta from a covariance matrix G (must be PSD)."""
        g = np.atleast_2d(np.asarray(g, dtype=float))
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            # PSD fallback: eigenvalue-clipped symmetric square root, re-triangularized
            vals, vecs = np.linalg.eigh(g)
            vals = np.clip(vals, 0.0, None)
            root = vecs * np.sqrt(vals)
            r = np.linalg.qr(root.T, mode="r")
            chol = r.T * np.sign(np.diag(r))[None, :]
            chol = np.tril(chol)
        return cls(beta, chol, sigma_e)

    @property
    def p(self):
        return self.beta.shape[0]

    @property
    def q(self):
        return self.chol.shape[0]

    def g_matrix(self):
        """The random-effects covariance G."""
        return self.chol @ self.chol.T

    def reduced_factor(self):
        """A (q x r) with G = A A^T over the eigenvalues of G above 1e-12 relative.

        u = A v with v ~ N(0, I_r) spans the random effects, also where G is
        rank-deficient.
        """
        vals, vecs = np.linalg.eigh(self.g_matrix())
        keep = vals > 1e-12 * max(1.0, float(vals.max()))
        return vecs[:, keep] * np.sqrt(vals[keep])

    def validate_for(self, spec):
        if self.p != spec.p:
            raise DimensionError(f"{self.p} fixed effects, model expects {spec.p}")
        if self.q != spec.q:
            raise DimensionError(f"{self.q} random effects, model expects {spec.q}")
        if self.sigma_e.shape[0] != spec.n_strata:
            raise DimensionError(
                f"{self.sigma_e.shape[0]} residual SDs, model expects {spec.n_strata}"
            )


# ---------------------------------------------------------------------------
# Constrained <-> unconstrained mapping
# ---------------------------------------------------------------------------


def n_free_params(spec):
    return spec.p + spec.q * (spec.q + 1) // 2 + spec.n_strata


def theta_to_vector(theta):
    """Map a valid Theta to the unconstrained optimization vector.

    The vector is beta, then the lower triangle of L row by row, then the
    residual SDs, all as raw values. The inverse map accepts any vector:
    it flips the sign of each column of L whose diagonal entry is negative
    and takes the absolute value of each SD.
    """
    tri = theta.chol[np.tril_indices(theta.q)]
    return np.concatenate([theta.beta, tri, theta.sigma_e])


def theta_from_vector(vec, spec):
    """Inverse of :func:`theta_to_vector`, defined on every vector.

    A column of L whose diagonal entry is negative changes sign as a whole.
    That leaves G = L L^T equal to the raw vector's L L^T, so G is smooth in
    the vector, also where a diagonal entry crosses 0. Reflecting only the
    diagonal entry would put a kink in G_ij = |L_jj| L_ij there, where a
    central difference reads 0. The residual SDs enter only squared, so
    their absolute value keeps the likelihood smooth.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[0] != n_free_params(spec):
        raise DimensionError(f"vector has {vec.shape[0]} entries, expected {n_free_params(spec)}")
    beta = vec[: spec.p]
    k = spec.q * (spec.q + 1) // 2
    chol = np.zeros((spec.q, spec.q))
    chol[np.tril_indices(spec.q)] = vec[spec.p : spec.p + k]
    chol *= np.where(np.diag(chol) < 0.0, -1.0, 1.0)
    sigma_e = np.abs(vec[spec.p + k :])
    return Theta(beta, chol, sigma_e)


def natural_names(spec):
    """Names of the natural-scale parameters, reporting order."""
    names = list(spec.fixed_names)
    rn = spec.random_names
    for i in range(spec.q):
        for j in range(i + 1):
            if i == j:
                names.append(f"var_{rn[i]}")
            else:
                names.append(f"cov_{rn[j]}_{rn[i]}")
    for s in range(spec.n_strata):
        suffix = f"_{s + 1}" if spec.n_strata > 1 else ""
        names.append(f"sd_residual{suffix}")
    for s in range(spec.n_strata):
        suffix = f"_{s + 1}" if spec.n_strata > 1 else ""
        names.append(f"var_residual{suffix}")
    return tuple(names)


def natural_values(theta):
    """Natural-scale values matching :func:`natural_names`.

    Covariance entries are reported as variances/covariances; the residual
    scale is reported both as SD and as variance.
    """
    g = theta.g_matrix()
    tri = g[np.tril_indices(g.shape[0])]
    return np.concatenate([theta.beta, tri, theta.sigma_e, theta.sigma_e ** 2])


def natural_from_vector(vec, spec):
    return natural_values(theta_from_vector(vec, spec))


@dataclass(frozen=True)
class LogLikOptions:
    """Evaluation settings shared by the likelihood paths.

    ``gh_order`` pins the GH order, capped per q; None leaves it to the
    doubling rule, run to ``qtol`` (see the ``quadrature`` module).
    """

    method: Method = Method.MARGINAL
    gh_order: int | None = None
    qtol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not (self.qtol > 0.0 and (self.gh_order is None or self.gh_order >= 1)):
            raise ValueError("qtol must be positive and gh_order at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class QmcRecord:
    """The QMC blocks (m >= 4) of one marginal evaluation: their count and cost, and the accuracy reached.

    ``points`` counts the integrand points evaluated over all of them,
    ``exhausted`` the blocks whose budget ran out before they met
    ``gaussian.MVN_TOL``, and ``max_rel_err`` is the largest err_est / p,
    which is about the error of that block's log probability.
    """

    blocks: int = 0
    points: int = 0
    exhausted: int = 0
    max_rel_err: float = 0.0


def _subject_error(sid, exc):
    return EvaluationError(f"subject {sid}: {exc}", subject_id=sid)


def _mills(t):
    """The inverse Mills ratio phi(t) / Phi(t), free of cancellation deep in the lower tail."""
    return _SQRT_2_OVER_PI / erfcx(-t / _SQRT2)


def _inverse(chol):
    """M^{-1} from the stacked Cholesky factors of M."""
    inv = np.linalg.inv(chol)
    return np.swapaxes(inv, 1, 2) @ inv


class _Integrands:
    """The hierarchical integrands of the subjects with censored rows, batched.

    In subject s's whitened effects v the integrand is

        f_s(v) = const_s - (v - m_s)^T M_s (v - m_s) / 2 + sum_c log Phi(t_c),
        t_c = base_c - a_c^T v,

    where N(m_s, M_s^{-1}) is the posterior of v given the observed rows,
    ``const_s`` the log of their density times that posterior's normalizing
    constant, and c runs over the subject's censored rows, with
    base_c = (c - x_c beta) / sigma_c and a_c = (z_c A)^T / sigma_c. With the
    inverse Mills ratio lambda = phi(t) / Phi(t), the gradient is
    -M (v - m) - sum_c lambda_c a_c and the Hessian is
    -M - sum_c lambda_c (t_c + lambda_c) a_c a_c^T <= -M <= -I, so f_s is
    concave and Newton's method needs no curvature safeguard.

    Censored rows are stacked by subject, ``counts[s]`` rows each. The
    modes are found on construction, from ``start``. Errors name the first
    failing subject by its id in ``ids``.
    """

    def __init__(self, ids, counts, const, mean, chol, base, a, start):
        self.ids = ids
        self.counts = counts
        self.const, self.mean, self.chol = const, mean, chol
        self.prec = chol @ np.swapaxes(chol, 1, 2)
        self.base, self.a = base, a
        self.seg = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.owner = np.repeat(np.arange(counts.size), counts)
        self._find_modes(start)

    def _fail(self, s, exc):
        raise _subject_error(self.ids[s], exc) from exc

    def _derivatives(self, v):
        """f, its gradient and its negated Hessian for every subject at ``v`` (S, r)."""
        d = v - self.mean
        pd = (self.prec @ d[:, :, None])[:, :, 0]
        t = self.base - np.sum(self.a * v[self.owner], axis=1)
        f = self.const - 0.5 * np.sum(d * pd, axis=1) + np.add.reduceat(log_ndtr(t), self.seg)
        mills = _mills(t)
        curv = np.maximum(mills * (t + mills), 0.0)
        grad = -pd - np.add.reduceat(mills[:, None] * self.a, self.seg, axis=0)
        outer = curv[:, None, None] * self.a[:, :, None] * self.a[:, None, :]
        return f, grad, self.prec + np.add.reduceat(outer, self.seg, axis=0)

    def _find_modes(self, start):
        """Every subject's mode and the scale of its adaptive grid, by batched Newton steps.

        Each iteration takes the full Newton step for every subject whose
        gradient norm exceeds ``_MODE_GTOL`` and halves it only for those
        whose f did not rise. The grid is then scaled by
        :func:`quadrature.scale_factor` of the exact Hessian at the mode.
        """
        v = start
        f, grad, neg_hess = self._derivatives(v)
        if not np.all(np.isfinite(f)):
            s = int(np.argmin(np.isfinite(f)))
            self._fail(s, ModeSearchError("objective not finite at the starting point",
                                          last_iterate=v[s]))
        for iteration in range(_MODE_MAX_ITER + 1):
            gnorm = np.linalg.norm(grad, axis=1)
            todo = gnorm > _MODE_GTOL
            if not np.any(todo):
                break
            if iteration == _MODE_MAX_ITER:
                s = int(np.argmax(todo))
                self._fail(s, ModeSearchError(
                    f"mode search did not converge in {_MODE_MAX_ITER} iterations",
                    last_iterate=v[s]))
            step = np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0] * todo[:, None]
            cand = v + step
            floor = f - _F_SLACK * (1.0 + np.abs(f))
            new = self._derivatives(cand)
            low = ~(new[0] >= floor)
            t = 1.0
            while np.any(low):
                t *= 0.5
                if t < _MIN_STEP:
                    s = int(np.argmax(low))
                    self._fail(s, ModeSearchError(
                        f"no ascent step found at gradient norm {gnorm[s]:.3e}",
                        last_iterate=v[s]))
                cand[low] = v[low] + t * step[low]
                new = self._derivatives(cand)
                low &= ~(new[0] >= floor)
            v = cand
            f, grad, neg_hess = new
        scale = quadrature.scale_factor(-neg_hess)
        self.mode = v
        self.logdet = np.sum(np.log(np.diagonal(scale, axis1=1, axis2=2)), axis=1)
        # At node z, v = mode + sqrt(2) L z. With w0 = chol^T (mode - m) and
        # W = chol^T sqrt(2) L, the Gaussian term's |w0 + W z|^2 is
        # |w0|^2 + 2 (W^T w0) . z + z^T W^T W z, and t_c = shift_c - b_c . z.
        self.scale = _SQRT2 * scale
        w0 = np.sum(self.chol * (v - self.mean)[:, :, None], axis=1)
        w = np.swapaxes(self.chol, 1, 2) @ self.scale
        self.gauss0 = self.const - 0.5 * np.sum(w0 * w0, axis=1)
        self.gauss1 = -np.sum(w * w0[:, :, None], axis=1)
        self.gauss2 = -0.5 * (np.swapaxes(w, 1, 2) @ w).reshape(v.shape[0], -1)
        self.shift = self.base - np.sum(self.a * v[self.owner], axis=1)
        self.b = np.sum(self.a[:, :, None] * self.scale[self.owner], axis=1)

    def log_integrals(self, order, moments=False):
        """Each subject's log integral by adaptive GH of ``order``, in chunks of subjects.

        The censored rows' log Phi terms at all nodes are one (rows x nodes)
        product per chunk; a chunk holds about ``_GRID_CHUNK`` such entries.
        With ``moments``, returns ``(logs, (mean, cov, lam, lam_v))`` from the
        same pass: the posterior expectations that the score needs, as sums
        over the nodes with their normalised weights softmax(factor + vals).
        They are each subject's posterior mean (S, r) and covariance
        (S, r, r) of v, and each censored row's E[lambda] and E[lambda v]
        (rows, r), lambda = phi(t_c) / Phi(t_c).
        """
        r = self.mode.shape[1]
        nodes, factor = quadrature.tensor_grid(order, r)
        pairs = (nodes[:, :, None] * nodes[:, None, :]).reshape(-1, r * r)
        out = np.empty(self.counts.size)
        if moments:
            ez, ezz = np.empty((out.size, r)), np.empty((out.size, r * r))
            lam, lam_z = np.empty(self.base.size), np.empty((self.base.size, r))
        rows_per_chunk = max(1, _GRID_CHUNK // nodes.shape[0])
        cuts = np.flatnonzero(np.diff(self.seg // rows_per_chunk)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, self.counts.size]):
            rows = slice(self.seg[lo], self.seg[hi - 1] + self.counts[hi - 1])
            t = self.shift[rows, None] - self.b[rows] @ nodes.T
            vals = np.add.reduceat(log_ndtr(t), self.seg[lo:hi] - self.seg[lo], axis=0)
            vals += self.gauss0[lo:hi, None] + self.gauss1[lo:hi] @ nodes.T
            vals += self.gauss2[lo:hi] @ pairs.T
            bad = np.isnan(vals) | (vals == np.inf)
            if np.any(bad):
                s, k = np.unravel_index(np.argmax(bad), bad.shape)
                point = self.mode[lo + s] + self.scale[lo + s] @ nodes[k]
                self._fail(lo + s, IntegrationError(f"integrand not finite at node {k}: {point}"))
            out[lo:hi] = logsumexp(factor + vals, axis=1)
            if moments:
                weight = np.exp(factor + vals - out[lo:hi, None])
                ez[lo:hi], ezz[lo:hi] = weight @ nodes, weight @ pairs
                row_weight = weight[self.owner[rows] - lo] * _mills(t)
                lam[rows], lam_z[rows] = row_weight.sum(axis=1), row_weight @ nodes
        logs = 0.5 * r * _LOG2 + self.logdet + out
        if not moments:
            return logs
        # from the node z back to v = mode + scale z
        mean = self.mode + (self.scale @ ez[:, :, None])[:, :, 0]
        spread = ezz.reshape(-1, r, r) - ez[:, :, None] * ez[:, None, :]
        cov = self.scale @ spread @ np.swapaxes(self.scale, 1, 2)
        lam_v = lam[:, None] * self.mode[self.owner]
        lam_v += (self.scale[self.owner] @ lam_z[:, :, None])[:, :, 0]
        return logs, (mean, cov, lam, lam_v)


class LikelihoodEvaluator:
    """Evaluates the three likelihood paths on one long-format layout.

    All subjects' rows are stacked once, in one pass, in flat arrays: designs
    ``x`` and ``z`` (one :func:`data.build_designs` call), responses ``y``
    (the detection limit on a censored row), ``strata`` and the ``observed``
    mask. Subject ``s`` owns rows ``start[s]:start[s + 1]``, its ``n_obs[s]``
    observed rows first and then its ``n_cens[s]`` censored ones, each group
    in input order; ``cens_blocks`` groups the censored blocks by size. One
    evaluator serves every evaluation of a fit, and every path reads its
    Gaussian moments from :meth:`_posterior`.

    The hierarchical path works on all subjects at once. Batched Newton steps
    with the closed-form gradient and Hessian of each integrand find every
    mode (:class:`_Integrands`), and each GH order is then one chunked
    evaluation of all subjects' grids. The naive and hierarchical paths
    return their score with their total when asked (``score=True``), from
    the same posterior or the same grid pass (:meth:`_score`).
    """

    def __init__(self, dataset, spec, options=LogLikOptions()):
        self.spec = spec
        self.options = options
        self.subject_ids = [subject.subject_id for subject in dataset.subjects]
        rows = [o for subject in dataset.subjects for o in subject.observations]
        sizes = np.array([len(subject.observations) for subject in dataset.subjects])
        self.start = np.concatenate([[0], np.cumsum(sizes)])
        self.row_subject = np.repeat(np.arange(sizes.size), sizes)
        observed = np.array([o.is_observed for o in rows])
        # each subject's observed rows first; lexsort is stable, so each group keeps input order
        order = np.lexsort((~observed, self.row_subject))
        x, z = build_designs(rows, spec)
        self.x, self.z = x[order], z[order]
        self.y = np.array([o.response if o.is_observed else o.threshold for o in rows])[order]
        self.observed = observed[order]
        self.strata = np.array([o.marker - 1 for o in rows], dtype=int)[order]
        self.n_obs = np.add.reduceat(self.observed.astype(int), self.start[:-1])
        self.n_cens = sizes - self.n_obs
        # per block size m: (m, the blocks' subjects, their (B, m) indexes among the censored rows)
        first = np.concatenate([[0], np.cumsum(self.n_cens)[:-1]])
        self.cens_blocks = []
        for m in np.unique(self.n_cens[self.n_cens > 0]):
            blocks = np.flatnonzero(self.n_cens == m)
            self.cens_blocks.append((m, blocks, first[blocks][:, None] + np.arange(m)))
        bad = np.flatnonzero(self.strata >= spec.n_strata)
        if bad.size:
            sid = self.subject_ids[self.row_subject[bad[0]]]
            raise DimensionError(f"subject {sid}: marker exceeds residual strata")
        self.qmc_record = QmcRecord()

    # -- shared helpers -----------------------------------------------------

    def _check(self, theta):
        theta.validate_for(self.spec)
        if np.any(theta.sigma_e ** 2 <= 0.0):
            raise InvalidParameterError("residual variance must be strictly positive")

    def _posterior(self, theta, zf, weight):
        """Per subject: log-density of its weighted rows and the posterior of v.

        With u = A v, v ~ N(0, I_r) and ``zf`` = Z A, the rows of weight 1
        are N(X beta, zf zf^T + R). By the Woodbury identity (Lindstrom and
        Bates, JASA 1988) their log-density needs only the r x r matrix
        M = I + zf^T R^{-1} zf: it is -(e^T R^{-1} e - b^T M^{-1} b + log|R|
        + log|M| + n log 2 pi) / 2 with e = y - X beta and b = zf^T R^{-1} e,
        and the posterior of v given those rows is N(M^{-1} b, M^{-1}).
        Rows of weight 0 drop out. Returns the log-densities (S,), -inf where
        a residual overflows, the posterior means (S, r) and the Cholesky
        factors of M (S, r, r).
        """
        seg = self.start[:-1]
        resid = self.y - self.x @ theta.beta
        var = theta.sigma_e[self.strata] ** 2
        scaled = zf * (weight / var)[:, None]
        prec = np.add.reduceat(scaled[:, :, None] * zf[:, None, :], seg, axis=0)
        prec += np.eye(zf.shape[1])
        chol = np.linalg.cholesky(prec)
        b = np.add.reduceat(scaled * resid[:, None], seg, axis=0)
        white = np.linalg.solve(chol, b[:, :, None])
        mean = np.linalg.solve(np.swapaxes(chol, 1, 2), white)[:, :, 0]
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            quad = np.add.reduceat(weight * resid * resid / var, seg)
            quad -= np.sum(white[:, :, 0] ** 2, axis=1)
        log_r = np.add.reduceat(weight * np.log(var), seg)
        n = np.add.reduceat(weight, seg)
        logpdf = -0.5 * (quad + log_r + logdet + n * _LOG_2PI)
        # a residual whose square overflows gives inf - inf; its density is 0
        return np.where(np.isnan(logpdf), -np.inf, logpdf), mean, chol

    # -- marginal path ------------------------------------------------------

    def marginal(self, theta, fixed=False):
        """Observed-rows density times each censored block's rectangle probability.

        Given the observed rows, a censored block is Gaussian with mean
        X_c beta + Z_c A m and covariance Z_c A M^{-1} A^T Z_c^T + R_c, from
        the posterior (m, M) of :meth:`_posterior`. Blocks are grouped by
        their size m, with one :func:`gaussian.mvn_rect_probs` call per size:
        sizes 1 to 3 are exact, and from 4 on Genz QMC runs to its tolerance,
        or on its fixed counts when ``fixed`` is set. A fixed count keeps the
        total smooth in theta only while each block's Genz variable order
        stays the same; where an order switches, the total jumps, by about
        2e-4 on 100 subjects x 10 times at 50% censoring.
        What the QMC blocks cost and the accuracy they reached go to
        ``qmc_record``. A failure names the first failing subject.
        """
        self._check(theta)
        self.qmc_record = QmcRecord()
        zf = self.z @ theta.reduced_factor()
        logpdf, mean, chol = self._posterior(theta, zf, self.observed.astype(float))
        total = float(np.sum(logpdf))
        if total == -math.inf:
            # no block can raise it, and an overflowed residual leaves the
            # blocks' moments non-finite
            return total
        cens = ~self.observed
        subject = self.row_subject[cens]
        zf_c = zf[cens]
        mu_c = self.x[cens] @ theta.beta + np.sum(zf_c * mean[subject], axis=1)
        root = np.linalg.solve(chol[subject], zf_c[:, :, None])[:, :, 0]
        var_c = theta.sigma_e[self.strata[cens]] ** 2
        upper = self.y[cens]
        seed = self.options.seed
        failures = {}
        qmc = []
        for m, blocks, rows in self.cens_blocks:
            root_m = root[rows]
            cov = root_m @ np.swapaxes(root_m, 1, 2) + var_c[rows][:, :, None] * np.eye(m)
            probs, error = mvn_rect_probs(mu_c[rows], cov, upper[rows], seed=seed, fixed=fixed)
            if error is None and np.any(np.isnan(probs[0])):
                error = (int(np.argmax(np.isnan(probs[0]))),
                         IntegrationError("censored-block probability is not a number"))
            if error is not None:
                failures[blocks[error[0]]] = error[1]
                continue
            total += float(np.sum(probs[0]))
            if probs[1] is not None:  # a QMC size, m >= 4, with its cost and accuracy
                qmc.append(probs)
        if qmc:
            log_p, err, points, exhausted = (np.concatenate(a) for a in zip(*qmc))
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(log_p > -np.inf, err / np.exp(log_p), np.inf)
            self.qmc_record = QmcRecord(log_p.size, int(points.sum()), int(exhausted.sum()),
                                        float(rel.max()))
        if failures:
            s = min(failures)
            raise _subject_error(self.subject_ids[s], failures[s]) from failures[s]
        return total

    # -- hierarchical path --------------------------------------------------

    def _agq_total_at(self, theta):
        """The hierarchical-path total at ``theta`` as a function ``at(order, score=False)``.

        A subject without censored rows contributes its observed-rows
        log-density exactly. The others' modes are found once, together,
        from their posterior means given all rows (thresholds imputed), and
        every order reuses them. With ``score``, ``at`` returns ``(total,
        score)`` (:meth:`_score`): the exact Gaussian posterior for a subject
        without censored rows, and for the others the expectations from
        the same grid pass as their integrals.
        """
        factor = theta.reduced_factor()
        zf = self.z @ factor
        r = zf.shape[1]
        resid = self.y - self.x @ theta.beta
        sde = theta.sigma_e[self.strata]
        logpdf, mean, chol = self._posterior(theta, zf, self.observed.astype(float))
        cens = ~self.observed
        has = np.flatnonzero(self.n_cens)
        if r == 0 or has.size == 0:
            # no integral: without random effects the censored rows, if any,
            # are independent, and their expectations are their values at u = 0
            t = resid[cens] / sde[cens]
            total = float(np.sum(logpdf) + np.sum(log_ndtr(t)))

            def exact_at(order, score=False):
                if not score:
                    return total
                return total, self._score(theta, factor, mean, _inverse(chol),
                                          _mills(t), np.zeros((t.size, r)))
            return exact_at

        exact = float(np.sum(logpdf[self.n_cens == 0]))
        const = logpdf + np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        const -= 0.5 * r * _LOG_2PI
        _, v0, _ = self._posterior(theta, zf, np.ones_like(resid))
        integrands = _Integrands(
            [self.subject_ids[s] for s in has], self.n_cens[has], const[has], mean[has], chol[has],
            resid[cens] / sde[cens], zf[cens] / sde[cens, None], v0[has])

        def at(order, score=False):
            if not score:
                return exact + float(np.sum(integrands.log_integrals(order)))
            logs, (mean_c, cov_c, lam, lam_v) = integrands.log_integrals(order, moments=True)
            post_mean, post_cov = mean.copy(), _inverse(chol)
            post_mean[has], post_cov[has] = mean_c, cov_c
            total = exact + float(np.sum(logs))
            return total, self._score(theta, factor, post_mean, post_cov, lam, lam_v)
        return at

    def agq_order(self, theta):
        """``(order, total)`` at the pinned ``gh_order`` or the doubling rule's, capped per q."""
        self._check(theta)
        total_at = self._agq_total_at(theta)
        cap = quadrature.max_order(self.spec.q)
        if self.options.gh_order is None:
            return quadrature.choose_order(total_at, self.options.qtol, cap)
        order = min(self.options.gh_order, cap)
        return order, total_at(order)

    def agq(self, theta, order=None, score=False):
        """Hierarchical-path total at ``order``, or at the order :meth:`agq_order` picks.

        With ``score``, which needs an ``order``, ``(total, score)`` from one
        mode search and one grid pass; the score is exact at that order only
        up to its quadrature error.
        """
        if order is None:
            if score:
                raise ValueError("the AGQ score needs an order")
            return self.agq_order(theta)[1]
        self._check(theta)
        return self._agq_total_at(theta)(order, score)

    # -- threshold-imputation baseline ---------------------------------------

    def naive(self, theta, score=False):
        """Threshold-imputation total; with ``score``, ``(total, score)``, the score exact."""
        self._check(theta)
        factor = theta.reduced_factor()
        logpdf, mean, chol = self._posterior(theta, self.z @ factor, np.ones(self.y.shape[0]))
        total = float(np.sum(logpdf))
        if not score:
            return total
        return total, self._score(theta, factor, mean, _inverse(chol))

    # -- score ----------------------------------------------------------------

    def _score(self, theta, factor, mean, cov, lam=None, lam_v=None):
        """The score on :func:`theta_to_vector`'s coordinates, by the Fisher identity.

        The score is the posterior expectation of the complete-data score,
        the gradient of log p(y | u) with u = L e and e ~ N(0, I_q), whose
        prior is free of theta. The expectations come in the whitened
        effects v of u = A v, A = ``factor``, as in :meth:`_posterior`: each
        subject's posterior ``mean`` (S, r) and ``cov`` (S, r, r) of v.

        Row j has the linear predictor eta_j = x_j beta + z_j u and SD
        sigma_j. An observed row's log-density has d/d eta = res / sigma^2
        and d/d sigma = res^2 / sigma^3 - 1 / sigma, res = y - eta, so it
        needs only those two moments. A censored row has log Phi(t), t = (c - eta) /
        sigma, with d/d eta = -lambda / sigma and d/d sigma = -lambda t /
        sigma, lambda = phi(t) / Phi(t); ``lam`` and ``lam_v`` hold its
        E[lambda] and E[lambda v]. Without them every row counts as observed.

        The derivative in L_ab is sum_j z_ja E[d/d eta_j e_b]. Given the
        data, e = L^+ A v plus a part in the null space of L that is
        independent of the data and has mean 0, so that part adds nothing;
        this holds where G is rank-deficient too. A's columns are orthogonal,
        so L^+ A = L^T A (A^T A)^{-1}.
        """
        s = self.row_subject
        zf = self.z @ factor
        resid = self.y - self.x @ theta.beta
        sd = theta.sigma_e[self.strata]
        var = sd * sd
        # per row: E[res] and Cov(v) zf^T, with res = resid - zf v
        dev = resid - np.sum(zf * mean[s], axis=1)
        cov_zf = (cov[s] @ zf[:, :, None])[:, :, 0]
        # E[d/d eta], E[d/d eta v] and E[d/d sigma]
        d_eta = dev / var
        d_eta_v = d_eta[:, None] * mean[s] - cov_zf / var[:, None]
        d_sigma = (dev * dev + np.sum(zf * cov_zf, axis=1)) / (var * sd) - 1.0 / sd
        if lam is not None:
            c = ~self.observed
            d_eta[c] = -lam / sd[c]
            d_eta_v[c] = -lam_v / sd[c, None]
            d_sigma[c] = -(resid[c] * lam - np.sum(zf[c] * lam_v, axis=1)) / var[c]
        link = theta.chol.T @ factor / np.sum(factor * factor, axis=0)  # L^+ A
        d_chol = self.z.T @ d_eta_v @ link.T
        return np.concatenate([
            self.x.T @ d_eta,
            d_chol[np.tril_indices(self.spec.q)],
            np.bincount(self.strata, d_sigma, minlength=self.spec.n_strata),
        ])


def loglik_marginal(dataset, spec, theta, options=LogLikOptions()):
    """Total log-likelihood via the observed-measures formulation."""
    return LikelihoodEvaluator(dataset, spec, options).marginal(theta)


def loglik_agq(dataset, spec, theta, options=LogLikOptions()):
    """Total log-likelihood via random-effects integration, at the order the GH order rule picks."""
    return LikelihoodEvaluator(dataset, spec, options).agq(theta)


def loglik_naive(dataset, spec, theta, options=LogLikOptions()):
    """Threshold-imputation baseline: censored responses treated as observed."""
    return LikelihoodEvaluator(dataset, spec, options).naive(theta)
