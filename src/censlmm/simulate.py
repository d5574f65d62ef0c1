"""Synthetic longitudinal datasets with left-censoring.

Generates data from the linear mixed model (subject-level Gaussian random
effects plus independent residuals) on a fixed measurement schedule, then
flags every response below the detection limit as censored, storing the limit
as the placeholder response.  A target censoring fraction can be converted
into a limit by bisection on the exact marginal normal probabilities.

Every subject shares the schedule's design rows: each marker of the model
at every time, built once by ``data.design_matrices`` from the schedule's
times and markers.  The simulator draws no covariates, so a model with
covariates is a ``DimensionError``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (Dataset, ModelSpec, Observation, SubjectData, design_matrices,
                   intercept_slope_model)
from .errors import DimensionError, InvalidParameterError
from .likelihood import Theta


def default_truth(model="is"):
    """Benchmark generating values for a model template of ``data.MODEL_TEMPLATES``.

    - "is", intercept-slope: intercept 3, slope 0.5, random-effect
      covariance [[0.5, -0.1], [-0.1, 0.1]], residual variance 0.2 - the
      standard simulation-study configuration for this model;
    - "ri", random intercept: intercept 3, random-intercept variance 0.5,
      residual variance 0.2;
    - "biv", bivariate: intercept-slope pairs (3, 0.5) and (2.5, 0.3), each
      with variances 0.5 and 0.1, a weak cross-marker link of covariance
      0.1 between the intercepts, and residual variance 0.2 per marker.
    """
    if model == "is":
        g = np.array([[0.5, -0.1], [-0.1, 0.1]])
        return Theta.from_moments([3.0, 0.5], g, [math.sqrt(0.2)])
    if model == "ri":
        return Theta.from_moments([3.0], [[0.5]], [math.sqrt(0.2)])
    if model == "biv":
        g = np.diag([0.5, 0.1, 0.5, 0.1])
        g[0, 2] = g[2, 0] = 0.1
        return Theta.from_moments([3.0, 0.5, 2.5, 0.3], g, [math.sqrt(0.2), math.sqrt(0.2)])
    raise ValueError(f"no model template named {model!r}")


@dataclass(frozen=True)
class SimConfig:
    """Design of one simulated dataset.

    Each subject is measured at times 0, 1, ..., ``n_per_subject`` - 1.
    Exactly one of ``threshold`` (detection limit, scalar or one value per
    schedule time) and ``target_censoring`` (marginal censoring fraction used
    to calibrate the limit) must be given. A limit of -inf censors nothing;
    NaN and +inf are rejected with ValueError.
    """

    n_subjects: int
    n_per_subject: int
    truth: Theta
    threshold: float | np.ndarray | None = None
    target_censoring: float | None = None
    seed: int = 0
    model: ModelSpec = field(default_factory=intercept_slope_model)

    def __post_init__(self):
        if self.n_subjects < 1 or self.n_per_subject < 1:
            raise ValueError("need at least one subject and one measure per subject")
        if (self.threshold is None) == (self.target_censoring is None):
            raise ValueError("give exactly one of threshold and target_censoring")
        if self.threshold is not None and not np.all(np.asarray(self.threshold, dtype=float) < np.inf):
            raise ValueError("threshold must be a number below +inf")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        self.truth.validate_for(self.model)


def _schedule_designs(spec, times):
    """X and Z rows of the measurement schedule: markers in order, each at every time in order."""
    if spec.covariates:
        raise DimensionError(f"the simulator draws no covariates; the model has "
                             f"{len(spec.covariates)}")
    markers = np.repeat(np.arange(1, spec.n_strata + 1), len(times))
    return design_matrices(spec, np.tile(times, spec.n_strata), markers)


def _schedule_moments(truth, times, spec):
    """Marginal mean and SD of each scheduled measurement (all markers)."""
    g = truth.g_matrix()
    xs, zs = _schedule_designs(spec, times)
    mus, sds = [], []
    for k in range(len(xs)):
        mus.append(float(xs[k] @ truth.beta))
        var = float(zs[k] @ g @ zs[k]) + float(truth.sigma_e[k // len(times)] ** 2)
        sds.append(math.sqrt(var))
    return np.array(mus), np.array(sds)


def calibrate_threshold(truth, times, target, model=None):
    """Detection limit whose schedule-averaged censoring probability hits ``target``.

    Solves mean_t Phi((c - mu_t) / sd_t) = target by bisection on the exact
    normal CDF over the bracket [min_t(mu_t - 10 sd_t), max_t(mu_t + 10 sd_t)].
    Bisection stops once the bracket is narrower than 1e-13 * max(1, |c|), so
    the returned c is within that distance of the root. The achieved
    probability is then within 1e-10 of ``target`` in absolute terms (not
    relative to a small target) whenever every sd_t exceeds about
    4e-4 * max(1, |c|).

    The root is only searched inside the bracket, so a target outside
    [frac(lower edge), frac(upper edge)] raises ValueError. The lower-edge
    probability is at most Phi(-10) ~ 7.6e-24; for N(3, 0.7) a target of
    1e-300, whose root is -27.996, is rejected.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target censoring fraction must lie in (0, 1)")
    spec = model if model is not None else intercept_slope_model()
    times = np.asarray(times, dtype=float)
    mus, sds = _schedule_moments(truth, times, spec)
    if np.any(sds <= 0.0):
        raise InvalidParameterError("degenerate marginal variance; cannot calibrate")
    from scipy.special import ndtr

    def frac(c):
        return float(np.mean(ndtr((c - mus) / sds)))

    lo = float(np.min(mus - 10.0 * sds))
    hi = float(np.max(mus + 10.0 * sds))
    if not frac(lo) <= target <= frac(hi):
        raise ValueError(f"target {target:g} outside [{frac(lo):g}, {frac(hi):g}], the 10-SD bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if frac(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def simulate(config, return_latent=False):
    """Draw one dataset; fully deterministic given the seed.

    Censored rows store the detection limit as their response placeholder.
    With ``return_latent`` the uncensored responses are also returned (test
    side channel, never part of the written output).
    """
    spec = config.model
    truth = config.truth
    rng = np.random.default_rng(config.seed)

    factor = truth.reduced_factor()
    times = np.arange(config.n_per_subject, dtype=float)

    if config.threshold is not None:
        thr = np.broadcast_to(np.asarray(config.threshold, dtype=float),
                              (config.n_per_subject,)).astype(float)
    else:
        c = calibrate_threshold(truth, times, config.target_censoring, model=spec)
        thr = np.full(config.n_per_subject, c)

    xs, zs = _schedule_designs(spec, times)
    subjects = []
    latents = []
    for i in range(config.n_subjects):
        sid = str(i + 1)
        gamma = factor @ rng.standard_normal(factor.shape[1])
        observations = []
        for marker in range(1, spec.n_strata + 1):
            sde = float(truth.sigma_e[marker - 1])
            for j, t in enumerate(times):
                k = (marker - 1) * config.n_per_subject + j
                latent = float(xs[k] @ truth.beta + zs[k] @ gamma + sde * rng.standard_normal())
                latents.append(latent)
                censored = latent < thr[j]
                observations.append(
                    Observation(
                        subject_id=sid,
                        time=float(t),
                        response=float(thr[j]) if censored else latent,
                        is_observed=not censored,
                        threshold=float(thr[j]),
                        marker=marker,
                    )
                )
        subjects.append(SubjectData(subject_id=sid, observations=tuple(observations)))

    dataset = Dataset(subjects=tuple(subjects))
    if return_latent:
        return dataset, np.array(latents)
    return dataset
