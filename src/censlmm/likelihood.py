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
from scipy.special import log_ndtr, logsumexp

from . import quadrature
from .data import design_matrices
from .errors import (
    DimensionError,
    EvaluationError,
    IntegrationError,
    InvalidParameterError,
    ModeSearchError,
)
from .gaussian import EXACT_DIM, mills, mvn_rect_probs, truncated_moments

_LOG_2PI = math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)

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

    ``chol`` is any lower-triangular factor L of the random-effects
    covariance, G = L L^T, for any q. Every computation reads L only through
    G, and flipping the sign of a column of L leaves G unchanged, so the
    signs of its diagonal entries are free (Pinheiro and Bates, Stat.
    Comput. 1996). ``sigma_e`` holds one residual SD per stratum.
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
            # PSD fallback: eigenvalue-clipped square root R, R R^T = G; with
            # R^T = Q U, L = U^T is lower triangular and L L^T = R R^T
            vals, vecs = np.linalg.eigh(g)
            root = vecs * np.sqrt(np.clip(vals, 0.0, None))
            chol = np.linalg.qr(root.T, mode="r").T
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
    """Map a Theta to the unconstrained optimization vector.

    The vector is beta, then the lower triangle of L, any lower-triangular
    factor of G, row by row, then the residual SDs, all as raw values. The
    inverse map accepts any vector.
    """
    tri = theta.chol[np.tril_indices(theta.q)]
    return np.concatenate([theta.beta, tri, theta.sigma_e])


def theta_from_vector(vec, spec):
    """Inverse of :func:`theta_to_vector`, defined on every vector.

    L is the vector's lower triangle as given, any lower-triangular factor
    of G = L L^T, so G is smooth in the vector, also where a diagonal entry
    crosses 0. Each residual SD is the absolute value of its entry: the
    likelihood reads sigma_e squared, and the AGQ path divides by sigma_e.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[0] != n_free_params(spec):
        raise DimensionError(f"vector has {vec.shape[0]} entries, expected {n_free_params(spec)}")
    beta = vec[: spec.p]
    k = spec.q * (spec.q + 1) // 2
    chol = np.zeros((spec.q, spec.q))
    chol[np.tril_indices(spec.q)] = vec[spec.p : spec.p + k]
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

    ``gh_order`` pins the GH order of every subject, capped per q; None
    leaves each subject's order to the doubling rule, run to ``qtol`` (see
    the ``quadrature`` module).
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

    ``points`` counts the points each block's estimate rests on, summed over
    blocks, ``exhausted`` the blocks whose budget ran out before they met
    ``gaussian.MVN_TOL``, and ``max_rel_err`` is the largest err_est / p,
    which is about the error of that block's log probability. They count
    each of identical subjects (``data.Table.count``), which are
    integrated once: ``integrated`` counts the distinct blocks that ran.
    """

    blocks: int = 0
    points: int = 0
    exhausted: int = 0
    max_rel_err: float = 0.0
    integrated: int = 0


def _subject_error(sid, exc):
    return EvaluationError(f"subject {sid}: {exc}", subject_id=sid)


def _mills_terms(lam, lam_v, resid, zf, sd):
    """Censored rows' E[d/d eta], E[d/d eta v] and E[d/d sigma] from E[lambda] and E[lambda v].

    A censored row has log Phi(t), t = (c - eta) / sigma and resid = c -
    x beta, with d/d eta = -lambda / sigma and d/d sigma = -lambda t /
    sigma, lambda = phi(t) / Phi(t); ``zf`` is the rows' Z A, so that
    sigma t = resid - zf v.
    """
    return -lam / sd, -lam_v / sd[:, None], -(resid * lam - np.sum(zf * lam_v, axis=1)) / (sd * sd)


def _inverse(chol):
    """M^{-1} from the stacked Cholesky factors of M."""
    inv = np.linalg.inv(chol)
    return np.swapaxes(inv, 1, 2) @ inv


def _rows_of(counts, seg, which):
    """The indexes of the rows of the segments ``which``, segment s being seg[s]:seg[s] + counts[s]."""
    n = counts[which]
    return np.repeat(seg[which] - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _row_sums(weight, x):
    """weight @ x, (S, K) and (K, d) to (S, d), one (1 x K) product per row.

    A BLAS matrix product rounds a row depending on the rows beside it, so
    each row is its own product and its sums do not depend on the others.
    """
    return (weight[:, None, :] @ x)[:, 0]


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
    failing subject by its id in ``ids``. Every per-subject output depends
    only on that subject's rows: a pass over some of the subjects gives
    their values bit for bit as a pass over all of them.
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

    def _layout(self, subjects):
        """The rows of ``subjects`` (indexes, ascending; None for all), stacked as their own.

        Returns the index of ``subjects`` among all subjects, their row
        counts, the start of each one's rows in the stack, the index of the
        stacked rows among all censored rows, and each stacked row's subject
        among ``subjects``. For all subjects the indexes are slices, so that
        indexing with them gives views.
        """
        if subjects is None:
            return slice(None), self.counts, self.seg, slice(None), self.owner
        counts = self.counts[subjects]
        seg = np.cumsum(counts) - counts
        rows = _rows_of(self.counts, self.seg, subjects)
        return subjects, counts, seg, rows, np.repeat(np.arange(subjects.size), counts)

    def _derivatives(self, v, subjects=None):
        """f, its gradient and its negated Hessian at ``v`` (S, r), for all subjects or ``subjects``."""
        pick, _, seg, rows, owner = self._layout(subjects)
        base, a = self.base[rows], self.a[rows]
        prec = self.prec[pick]
        d = v - self.mean[pick]
        pd = (prec @ d[:, :, None])[:, :, 0]
        t = base - np.sum(a * v[owner], axis=1)
        f = self.const[pick] - 0.5 * np.sum(d * pd, axis=1) + np.add.reduceat(log_ndtr(t), seg)
        lam = mills(t)
        curv = np.maximum(lam * (t + lam), 0.0)
        grad = -pd - np.add.reduceat(lam[:, None] * a, seg, axis=0)
        outer = curv[:, None, None] * a[:, :, None] * a[:, None, :]
        return f, grad, prec + np.add.reduceat(outer, seg, axis=0)

    def _find_modes(self, start):
        """Every subject's mode and the scale of its adaptive grid, by batched Newton steps.

        Each iteration takes the full Newton step for every subject whose
        gradient norm exceeds ``_MODE_GTOL`` and halves it only for those
        whose f did not rise, within a rounding slack; each halving
        evaluates only those subjects. A full step whose predicted rise,
        g^T H^-1 g / 2, is itself within that slack is kept even if f fell:
        the search is then at the mode up to rounding. The grid is then
        scaled by :func:`quadrature.scale_factor` of the exact Hessian at
        the mode.
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
            slack = _F_SLACK * (1.0 + np.abs(f))
            floor = f - slack
            new = self._derivatives(cand)
            kept = (new[0] >= floor) | ((0.5 * np.sum(grad * step, axis=1) <= slack)
                                        & np.isfinite(new[0]))
            low = np.flatnonzero(~kept)
            t = 1.0
            while low.size:
                t *= 0.5
                if t < _MIN_STEP:
                    s = low[0]
                    self._fail(s, ModeSearchError(
                        f"no ascent step found at gradient norm {gnorm[s]:.3e}",
                        last_iterate=v[s]))
                cand[low] = v[low] + t * step[low]
                halved = self._derivatives(cand[low], low)
                for whole, part in zip(new, halved):
                    whole[low] = part
                low = low[~(halved[0] >= floor[low])]
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

    def log_integrals(self, order, moments=False, subjects=None):
        """Log integrals of ``subjects`` (indexes, ascending; default all) by adaptive GH.

        ``order`` is one order for all of them or one per subject, and each
        distinct order is one chunked pass over its subjects (:meth:`_grid_pass`).
        With ``moments``, returns ``(logs, (mean, cov, lam, lam_v))`` from the
        same passes: the posterior expectations that the score needs, as sums
        over the nodes with their normalised weights softmax(factor + vals).
        They are each subject's posterior mean (S, r) and covariance
        (S, r, r) of v, and each of its censored rows' E[lambda] and
        E[lambda v] (rows, r), lambda = phi(t_c) / Phi(t_c). A failure names
        the first failing subject.
        """
        pick, counts, seg, _, owner = self._layout(subjects)
        index = np.arange(counts.size) if subjects is None else subjects
        order = np.broadcast_to(order, counts.shape)
        r = self.mode.shape[1]
        out = np.empty(counts.size)
        if moments:
            ez, ezz = np.empty((out.size, r)), np.empty((out.size, r * r))
            lam, lam_z = np.empty(owner.size), np.empty((owner.size, r))
        failures = {}
        for k in np.unique(order):
            at = np.flatnonzero(order == k)
            whole = at.size == out.size
            failure, sums = self._grid_pass(int(k), subjects if whole else index[at], moments)
            if failure is not None:
                failures[at[failure[0]]] = failure[1]
                continue
            out[at] = sums[0]
            if moments:
                part = slice(None) if whole else _rows_of(counts, seg, at)
                ez[at], ezz[at], lam[part], lam_z[part] = sums[1:]
        if failures:
            s = min(failures)
            self._fail(index[s], failures[s])
        logs = 0.5 * r * _LOG2 + self.logdet[pick] + out
        if not moments:
            return logs
        # from the node z back to v = mode + scale z
        mode, scale = self.mode[pick], self.scale[pick]
        mean = mode + (scale @ ez[:, :, None])[:, :, 0]
        spread = ezz.reshape(-1, r, r) - ez[:, :, None] * ez[:, None, :]
        cov = scale @ spread @ np.swapaxes(scale, 1, 2)
        lam_v = lam[:, None] * mode[owner]
        lam_v += (scale[owner] @ lam_z[:, :, None])[:, :, 0]
        return logs, (mean, cov, lam, lam_v)

    def _grid_pass(self, order, subjects, moments):
        """One chunked pass of the GH grid of ``order`` over ``subjects`` (as in :meth:`_layout`).

        The censored rows' log Phi terms at all nodes are one (rows x nodes)
        product per chunk; a chunk holds about ``_GRID_CHUNK`` such entries.
        Returns ``(failure, sums)``: ``failure`` is None, or the first
        failing subject's place among ``subjects`` and its error; ``sums``
        holds each subject's log of its sum over the nodes and, with
        ``moments``, its node moments and its rows' E[lambda] and E[lambda z].
        """
        r = self.mode.shape[1]
        nodes, factor = quadrature.tensor_grid(order, r)
        pairs = (nodes[:, :, None] * nodes[:, None, :]).reshape(-1, r * r)
        pick, counts, seg, rows, owner = self._layout(subjects)
        shift, b = self.shift[rows], self.b[rows]
        gauss0, gauss1, gauss2 = self.gauss0[pick], self.gauss1[pick], self.gauss2[pick]
        out = np.empty(counts.size)
        if moments:
            ez, ezz = np.empty((out.size, r)), np.empty((out.size, r * r))
            lam, lam_z = np.empty(owner.size), np.empty((owner.size, r))
        rows_per_chunk = max(1, _GRID_CHUNK // nodes.shape[0])
        cuts = np.flatnonzero(np.diff(seg // rows_per_chunk)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, out.size]):
            span = slice(seg[lo], seg[hi - 1] + counts[hi - 1])
            t = shift[span, None] - b[span] @ nodes.T
            vals = np.add.reduceat(log_ndtr(t), seg[lo:hi] - seg[lo], axis=0)
            vals += gauss0[lo:hi, None] + gauss1[lo:hi] @ nodes.T
            vals += gauss2[lo:hi] @ pairs.T
            bad = np.isnan(vals) | (vals == np.inf)
            if np.any(bad):
                s, k = np.unravel_index(np.argmax(bad), bad.shape)
                point = self.mode[pick][lo + s] + self.scale[pick][lo + s] @ nodes[k]
                return (lo + s, IntegrationError(f"integrand not finite at node {k}: {point}")), None
            out[lo:hi] = logsumexp(factor + vals, axis=1)
            if moments:
                weight = np.exp(factor + vals - out[lo:hi, None])
                ez[lo:hi], ezz[lo:hi] = _row_sums(weight, nodes), _row_sums(weight, pairs)
                row_weight = weight[owner[span] - lo] * mills(t)
                lam[span], lam_z[span] = row_weight.sum(axis=1), _row_sums(row_weight, nodes)
        return None, ((out, ez, ezz, lam, lam_z) if moments else (out,))


class LikelihoodEvaluator:
    """Evaluates the three likelihood paths on one long-format layout.

    All subjects' rows come from the dataset's long-format columns
    (``Dataset.table``), stacked in flat arrays: designs ``x`` and ``z``
    (one :func:`data.design_matrices` call on the rows' time, marker and
    covariate columns), responses ``y`` (the detection limit on a censored
    row), ``strata`` and the ``observed`` mask. Subject
    ``s`` owns rows ``start[s]:start[s + 1]``, its ``n_obs[s]`` observed
    rows first and then its ``n_cens[s]`` censored ones, each group in input
    order; ``cens_blocks`` groups the censored blocks by size. Subject s
    stands for ``count[s]`` identical subjects of the dataset, and every
    path weights its terms by that count. One evaluator serves every
    evaluation of a fit, and every path reads its Gaussian moments from
    :meth:`_posterior`.

    The hierarchical path works on all subjects at once. Batched Newton steps
    with the closed-form gradient and Hessian of each integrand find every
    mode (:class:`_Integrands`), and each GH order is then one chunked
    evaluation of the grids of the subjects at that order. Every path
    returns its score with its total when asked (``score=True``), by the
    Fisher identity (:meth:`_score`): the naive path from the same
    posterior, the hierarchical path from the same grid passes, and the
    marginal path from its censored blocks' truncated-normal moments, which
    exist in closed form only for blocks of at most three measures.
    """

    def __init__(self, dataset, spec, options=LogLikOptions()):
        self.spec = spec
        self.options = options
        table = dataset.table
        self.subject_ids, self.start, self.row_subject = table.ids, table.start, table.subject
        self.count = table.count
        x, z = design_matrices(spec, table.time, table.marker, table.covariates, table.subject,
                               table.ids)
        # each subject's observed rows first; lexsort is stable, so each group keeps input order
        order = np.lexsort((~table.observed, table.subject))
        self.x, self.z = x[order], z[order]
        self.y = table.y[order]
        self.observed = table.observed[order]
        self.strata = table.marker[order] - 1
        self.n_obs = np.add.reduceat(self.observed.astype(int), self.start[:-1])
        self.n_cens = np.diff(self.start) - self.n_obs
        # per block size m: (m, the blocks' subjects, their (B, m) indexes among the censored rows)
        first = np.concatenate([[0], np.cumsum(self.n_cens)[:-1]])
        self.cens_blocks = []
        for m in np.unique(self.n_cens[self.n_cens > 0]):
            blocks = np.flatnonzero(self.n_cens == m)
            self.cens_blocks.append((m, blocks, first[blocks][:, None] + np.arange(m)))
        # the marginal score needs every block's truncated moments in closed form
        self.marginal_has_score = all(m <= EXACT_DIM for m, _, _ in self.cens_blocks)
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

    def marginal(self, theta, fixed=False, score=False):
        """Observed-rows density times each censored block's rectangle probability.

        Given the observed rows, a censored block is Gaussian with mean
        X_c beta + Z_c A m and covariance Z_c A M^{-1} A^T Z_c^T + R_c, from
        the posterior (m, M) of :meth:`_posterior`. Blocks are grouped by
        their size m, with one :func:`gaussian.mvn_rect_probs` call per size:
        sizes 1 to 3 are exact, and from 4 on Genz QMC runs to its tolerance,
        or on its fixed counts when ``fixed`` is set. Each subject's terms
        are weighted by its ``count``. A fixed count keeps the total smooth
        in theta only while each block's Genz variable order stays the same;
        where an order switches, the total jumps, by about 2e-4 on 100
        subjects x 10 times at 50% censoring.
        What the QMC blocks cost and the accuracy they reached go to
        ``qmc_record``. A failure names the first failing subject.

        With ``score``, returns ``(total, score)`` from the same pass
        (:meth:`_marginal_score`), with a NaN score where the total is -inf.
        The score needs every block's truncated moments in closed form, so it
        raises ``ValueError`` when a block has more than
        ``gaussian.EXACT_DIM`` = 3 measures: a moment estimate from the Genz
        points would not be the derivative of their fixed-count total, which
        jumps where a variable order switches.
        """
        if score and not self.marginal_has_score:
            raise ValueError(f"the marginal score needs censored blocks of at most {EXACT_DIM} "
                             f"measures, not {self.cens_blocks[-1][0]}")
        self._check(theta)
        self.qmc_record = QmcRecord()
        factor = theta.reduced_factor()
        zf = self.z @ factor
        logpdf, mean, chol = self._posterior(theta, zf, self.observed.astype(float))
        total = float(np.sum(logpdf * self.count))
        if total == -math.inf:
            # no block can raise it, and an overflowed residual leaves the
            # blocks' moments non-finite
            return (total, np.full(n_free_params(self.spec), np.nan)) if score else total
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
        blocks_at = []
        for m, blocks, rows in self.cens_blocks:
            root_m = root[rows]
            cov = root_m @ np.swapaxes(root_m, 1, 2) + var_c[rows][:, :, None] * np.eye(m)
            probs, error = mvn_rect_probs(mu_c[rows], cov, upper[rows], seed=seed, fixed=fixed)
            if error is not None:
                failures[blocks[error[0]]] = error[1]
                continue
            total += float(np.sum(probs[0] * self.count[blocks]))
            blocks_at.append((blocks, rows, cov, probs[0]))
            if probs[1] is not None:  # a QMC size, m >= 4, with its cost and accuracy
                qmc.append(probs + (self.count[blocks],))
        if qmc:
            log_p, err, points, exhausted, count = (np.concatenate(a) for a in zip(*qmc))
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(log_p > -np.inf, err / np.exp(log_p), np.inf)
            self.qmc_record = QmcRecord(int(count.sum()), int(np.sum(points * count)),
                                        int(np.sum(exhausted * count)), float(rel.max()),
                                        log_p.size)
        if failures:
            s = min(failures)
            raise _subject_error(self.subject_ids[s], failures[s]) from failures[s]
        if not score:
            return total
        if total == -math.inf:
            return total, np.full(n_free_params(self.spec), np.nan)
        return total, self._marginal_score(theta, factor, mean, _inverse(chol), mu_c, blocks_at)

    def _marginal_score(self, theta, factor, mean, cov, mu_c, blocks_at):
        """The marginal path's score from each censored block's truncated moments.

        Given a subject's observed rows, its effects v are N(``mean``,
        ``cov``) and its censored values y_c are N(nu, Sigma), nu = ``mu_c``,
        with Cov(v, y_c) = cov zf_c^T. So v = mean + B (y_c - nu) + w, with
        B = cov zf_c^T Sigma^{-1} and w independent of y_c. The censored rows
        condition y_c on y_c <= c; with its truncated mean and covariance
        from :func:`gaussian.truncated_moments`, v has mean mean + B (E[y_c] -
        nu) and covariance cov + B (Cov(y_c) - Sigma) B^T, and res_j = y_j -
        x_j beta - zf_j v has its moments and its moments with v in closed
        form. Those feed :meth:`_score` like an observed row's. ``blocks_at``
        holds, per block size, the blocks' subjects, their rows among the
        censored ones, and their Sigma and log probabilities.
        """
        cens = ~self.observed
        zf_c = (self.z @ factor)[cens]
        sd = theta.sigma_e[self.strata[cens]]
        var = sd * sd
        upper = self.y[cens]
        post_mean, post_cov = mean.copy(), cov.copy()
        d_eta, d_sigma = np.empty(sd.size), np.empty(sd.size)
        d_eta_v = np.empty(zf_c.shape)
        for blocks, rows, sigma, log_p in blocks_at:
            t_mean, t_cov = truncated_moments(mu_c[rows], sigma, upper[rows], log_p)
            z = zf_c[rows]  # (B, m, r)
            cov_vy = cov[blocks] @ np.swapaxes(z, 1, 2)
            gain = np.swapaxes(np.linalg.solve(sigma, np.swapaxes(cov_vy, 1, 2)), 1, 2)
            shift = t_mean - mu_c[rows]
            e_v = mean[blocks] + (gain @ shift[:, :, None])[:, :, 0]
            cov_v = cov[blocks] + gain @ (t_cov - sigma) @ np.swapaxes(gain, 1, 2)
            # per row: E[res], Cov(y_j, v) and Cov(zf_j v, v)
            e_res = shift - (z @ (e_v - mean[blocks])[:, :, None])[:, :, 0]
            cov_yv = t_cov @ np.swapaxes(gain, 1, 2)
            cov_zv = z @ cov_v
            var_res = (np.diagonal(t_cov, axis1=1, axis2=2) - 2.0 * np.sum(z * cov_yv, axis=2)
                       + np.sum(z * cov_zv, axis=2))
            v_row = var[rows]
            d_eta[rows] = e_res / v_row
            d_eta_v[rows] = (cov_yv - cov_zv + e_res[:, :, None] * e_v[:, None, :]) / v_row[:, :, None]
            d_sigma[rows] = (var_res + e_res * e_res) / (v_row * sd[rows]) - 1.0 / sd[rows]
            post_mean[blocks], post_cov[blocks] = e_v, cov_v
        return self._score(theta, factor, post_mean, post_cov, (d_eta, d_eta_v, d_sigma))

    # -- hierarchical path --------------------------------------------------

    def _agq_total_at(self, theta):
        """The hierarchical-path total at ``theta`` as two functions, ``(at, pick)``.

        ``at(order, score=False)`` is the total at ``order``: one GH order for
        every subject with censored rows, or one per such subject, in layout
        order. ``pick(qtol, cap)`` runs :func:`quadrature.choose_orders` on
        those subjects' integrals and returns their orders and the total at
        them. A subject without censored rows contributes its observed-rows
        log-density exactly. The others' modes are found once, together,
        from their posterior means given all rows (thresholds imputed), and
        every order reuses them. Where no integral is left (r = 0), the
        total does not depend on the orders. Each subject's term is weighted
        by its ``count``. With ``score``, ``at`` returns ``(total, score)``
        (:meth:`_score`): the exact Gaussian posterior for a subject without
        censored rows, and for the others the expectations from the same
        grid passes as their integrals.
        """
        factor = theta.reduced_factor()
        zf = self.z @ factor
        r = zf.shape[1]
        resid = self.y - self.x @ theta.beta
        sde = theta.sigma_e[self.strata]
        logpdf, mean, chol = self._posterior(theta, zf, self.observed.astype(float))
        cens = ~self.observed
        has = np.flatnonzero(self.n_cens)
        count = self.count[has]
        if r == 0 or has.size == 0:
            # no integral: without random effects the censored rows, if any,
            # are independent, and their expectations are their values at u = 0
            t = resid[cens] / sde[cens]
            total = float(np.sum(logpdf * self.count)
                          + np.sum(log_ndtr(t) * self.count[self.row_subject[cens]]))

            def exact_at(order, score=False):
                if not score:
                    return total
                censored = _mills_terms(mills(t), np.zeros((t.size, r)), resid[cens], zf[cens],
                                        sde[cens])
                return total, self._score(theta, factor, mean, _inverse(chol), censored)

            def exact_pick(qtol, cap):
                orders, _ = quadrature.choose_orders(
                    lambda order, subjects: np.zeros(subjects.size), count, qtol, cap)
                return orders, total
            return exact_at, exact_pick

        uncensored = self.n_cens == 0
        exact = float(np.sum(logpdf[uncensored] * self.count[uncensored]))
        const = logpdf + np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        const -= 0.5 * r * _LOG_2PI
        _, v0, _ = self._posterior(theta, zf, np.ones_like(resid))
        integrands = _Integrands(
            [self.subject_ids[s] for s in has], self.n_cens[has], const[has], mean[has], chol[has],
            resid[cens] / sde[cens], zf[cens] / sde[cens, None], v0[has])

        def at(order, score=False):
            if not score:
                return exact + float(np.sum(integrands.log_integrals(order) * count))
            logs, (mean_c, cov_c, lam, lam_v) = integrands.log_integrals(order, moments=True)
            post_mean, post_cov = mean.copy(), _inverse(chol)
            post_mean[has], post_cov[has] = mean_c, cov_c
            total = exact + float(np.sum(logs * count))
            censored = _mills_terms(lam, lam_v, resid[cens], zf[cens], sde[cens])
            return total, self._score(theta, factor, post_mean, post_cov, censored)

        def pick(qtol, cap):
            orders, logs = quadrature.choose_orders(
                lambda order, subjects: integrands.log_integrals(order, subjects=subjects),
                count, qtol, cap)
            return orders, exact + float(np.sum(logs * count))
        return at, pick

    def agq_order(self, theta):
        """``(orders, total)``: the GH orders of the subjects with censored rows and the total there.

        ``orders`` holds one order per subject with censored rows, in layout
        order. A pinned ``gh_order``, capped per q, is every subject's;
        otherwise the doubling rule picks each subject's order from its own
        integral (:func:`quadrature.choose_orders`), capped per q.
        """
        self._check(theta)
        at, pick = self._agq_total_at(theta)
        cap = quadrature.max_order(self.spec.q)
        if self.options.gh_order is None:
            return pick(self.options.qtol, cap)
        order = min(self.options.gh_order, cap)
        return np.full(np.count_nonzero(self.n_cens), order), at(order)

    def agq(self, theta, order=None, score=False):
        """Hierarchical-path total at ``order``, or at the orders :meth:`agq_order` picks.

        ``order`` is one GH order for every subject, or one per subject with
        censored rows as :meth:`agq_order` returns them. With ``score``,
        which needs an ``order``, ``(total, score)`` from one mode search and
        one grid pass per distinct order; the score is exact at those orders
        only up to their quadrature error.
        """
        if order is None:
            if score:
                raise ValueError("the AGQ score needs an order")
            return self.agq_order(theta)[1]
        n = np.count_nonzero(self.n_cens)
        if np.ndim(order) and np.shape(order) != (n,):
            raise DimensionError(f"{np.size(order)} GH orders, {n} subjects with censored rows")
        self._check(theta)
        return self._agq_total_at(theta)[0](order, score)

    # -- threshold-imputation baseline ---------------------------------------

    def naive(self, theta, score=False):
        """Threshold-imputation total; with ``score``, ``(total, score)``, the score exact."""
        self._check(theta)
        factor = theta.reduced_factor()
        logpdf, mean, chol = self._posterior(theta, self.z @ factor, np.ones(self.y.shape[0]))
        total = float(np.sum(logpdf * self.count))
        if not score:
            return total
        return total, self._score(theta, factor, mean, _inverse(chol))

    # -- score ----------------------------------------------------------------

    def _score(self, theta, factor, mean, cov, censored=None):
        """The score on :func:`theta_to_vector`'s coordinates, by the Fisher identity.

        The score is the posterior expectation of the complete-data score,
        the gradient of log p(y | u) with u = L e and e ~ N(0, I_q), whose
        prior is free of theta. The expectations come in the whitened
        effects v of u = A v, A = ``factor``, as in :meth:`_posterior`: each
        subject's posterior ``mean`` (S, r) and ``cov`` (S, r, r) of v.

        Row j has the linear predictor eta_j = x_j beta + z_j u and SD
        sigma_j. An observed row's log-density has d/d eta = res / sigma^2
        and d/d sigma = res^2 / sigma^3 - 1 / sigma, res = y - eta, so it
        needs only those two moments. A censored row's expectations depend on
        the path, and ``censored`` holds them per censored row, in layout
        order: E[d/d eta] (n,), E[d/d eta v] (n, r) and E[d/d sigma] (n,).
        Without it every row counts as observed. Each row's terms are
        weighted by its subject's ``count``.

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
        if censored is not None:
            c = ~self.observed
            d_eta[c], d_eta_v[c], d_sigma[c] = censored
        count = self.count[s]
        d_eta, d_eta_v, d_sigma = d_eta * count, d_eta_v * count[:, None], d_sigma * count
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
