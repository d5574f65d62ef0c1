import dataclasses
import math

import numpy as np
import pytest

from censlmm.data import Dataset, SubjectData, intercept_slope_model
from censlmm.likelihood import Theta
from censlmm.simulate import SimConfig, simulate, default_truth

BENCHMARK_SEED = 2024
BENCHMARK_TARGET = 0.152


@pytest.fixture(scope="session")
def is_spec():
    return intercept_slope_model()


@pytest.fixture(scope="session")
def truth():
    return default_truth()


@pytest.fixture(scope="session")
def benchmark_dataset(truth):
    """50 subjects x 5 measures at the standard truth, ~15.2% censored."""
    cfg = SimConfig(n_subjects=50, n_per_subject=5, truth=truth,
                    target_censoring=BENCHMARK_TARGET, seed=BENCHMARK_SEED)
    return simulate(cfg)


def make_subject(sid, times, responses, observed, threshold):
    """Hand-build one subject from parallel lists."""
    from censlmm.data import Observation, SubjectData

    obs = tuple(
        Observation(
            subject_id=sid,
            time=float(t),
            response=float(threshold) if not o else float(y),
            is_observed=bool(o),
            threshold=float(threshold),
        )
        for t, y, o in zip(times, responses, observed)
    )
    return SubjectData(subject_id=sid, observations=obs)


def renamed(subject, sid):
    """``subject``'s observations under the id ``sid``."""
    return SubjectData(sid, tuple(dataclasses.replace(o, subject_id=sid)
                                  for o in subject.observations))


def with_copies(dataset, subject, k):
    """``dataset`` with k copies of ``subject`` appended under new ids."""
    copies = tuple(renamed(subject, f"{subject.subject_id}-copy-{i}") for i in range(k))
    return Dataset(subjects=dataset.subjects + copies)


def random_small_dataset(rng, spec, truth, max_subjects=10, max_per_subject=5,
                         censoring=(0.1, 0.4)):
    """One random small dataset from the given truth."""
    n = int(rng.integers(2, max_subjects + 1))
    ni = int(rng.integers(1, max_per_subject + 1))
    return simulate(
        SimConfig(
            n_subjects=n,
            n_per_subject=ni,
            truth=truth,
            target_censoring=float(rng.uniform(*censoring)),
            seed=int(rng.integers(1_000_000)),
            model=spec,
        )
    )


def random_theta(rng, q, n_strata=1):
    """A valid random Theta with moderately scaled components."""
    beta = rng.normal(3.0, 0.5, size=q if q > 1 else 1)
    if q == 1:
        g = np.array([[rng.uniform(0.2, 0.8)]])
        beta = np.array([rng.normal(3.0, 0.5)])
    else:
        a = rng.normal(size=(q, q)) * 0.3
        g = a @ a.T + np.diag(rng.uniform(0.05, 0.3, size=q))
        beta = rng.normal(0.5, 1.0, size=q)
    sigma_e = rng.uniform(0.3, 0.7, size=n_strata)
    return Theta.from_moments(beta, g, sigma_e)
