"""The closed-form score of the three paths against finite differences.

The score comes from the Fisher identity (``LikelihoodEvaluator._score``),
chained to the optimizer vector by ``optimize._score_gradient``. The oracle
is a 4-point Richardson central difference of the same objective on the
same vector, whose truncation error at a relative step of 3e-4 is about
1e-10 relative here.
"""

import numpy as np
import pytest

from censlmm.data import MODEL_TEMPLATES, Dataset
from censlmm.errors import GradientError
from censlmm.gaussian import EXACT_DIM
from censlmm.likelihood import LikelihoodEvaluator, Theta, theta_from_vector, theta_to_vector
from censlmm.optimize import _score_gradient
from censlmm.simulate import SimConfig, default_truth, simulate
from conftest import make_subject

NAIVE_TOL = 1e-7
AGQ_TOL = 1e-6
MARGINAL_TOL = 1e-7


def richardson_gradient(f, x, rel_step=3e-4):
    """(f(x - 2h) - 8 f(x - h) + 8 f(x + h) - f(x + 2h)) / 12h per coordinate."""
    out = np.empty_like(x)
    for k, h in enumerate(rel_step * np.maximum(1.0, np.abs(x))):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (f(x - 2 * e) - 8 * f(x - e) + 8 * f(x + e) - f(x + 2 * e)) / (12 * h)
    return out


def point(model, where):
    """The optimizer vector at the template's truth, or with one entry of L moved.

    "L11=0" leaves L21 != 0 on the templates with q >= 2; on ``ri`` it is
    G = 0. "rank1" zeroes L22, so G has rank q - 1. "flip" negates L11, so
    L has a negative diagonal entry; L is any lower-triangular factor of G,
    and ``theta_from_vector`` keeps it as given.
    """
    spec = MODEL_TEMPLATES[model]()
    x = theta_to_vector(default_truth(model))
    p = spec.p
    if where == "L11=0":
        x[p] = 0.0
    elif where == "rank1":
        x[p + 2] = 0.0
    elif where == "flip":
        x[p] = -x[p]
    return spec, x


@pytest.fixture(scope="module")
def censored_100x10(truth):
    """100 subjects x 10 times at 50% target censoring (seed 7)."""
    return simulate(SimConfig(n_subjects=100, n_per_subject=10, truth=truth,
                              target_censoring=0.5, seed=7))


@pytest.fixture(scope="module")
def biv_50x5():
    spec = MODEL_TEMPLATES["biv"]()
    return simulate(SimConfig(n_subjects=50, n_per_subject=5, truth=default_truth("biv"),
                              target_censoring=0.152, seed=2024, model=spec))


@pytest.fixture(scope="module")
def biv_50x3():
    """50 subjects x 3 times of the ``biv`` template: 15, 5 and 3 blocks of 1, 2 and 3 censored rows."""
    spec = MODEL_TEMPLATES["biv"]()
    return simulate(SimConfig(n_subjects=50, n_per_subject=3, truth=default_truth("biv"),
                              target_censoring=0.152, seed=3, model=spec))


def datasets(request, name):
    return request.getfixturevalue({"50x5": "benchmark_dataset", "100x10": "censored_100x10",
                                    "biv": "biv_50x5"}[name])


CASES = [("ri", "truth"), ("ri", "L11=0"), ("ri", "flip"),
         ("is", "truth"), ("is", "L11=0"), ("is", "rank1"), ("is", "flip")]


@pytest.mark.parametrize("data", ["50x5", "100x10"])
@pytest.mark.parametrize("model,where", CASES + [("biv", "truth"), ("biv", "L11=0")])
def test_naive_score_matches_richardson(request, data, model, where):
    spec, x = point(model, where)
    ev = LikelihoodEvaluator(datasets(request, "biv" if model == "biv" else data), spec)
    grad = _score_gradient(ev.naive, spec)(x)
    oracle = richardson_gradient(lambda z: ev.naive(theta_from_vector(z, spec)), x)
    assert grad == pytest.approx(oracle, rel=NAIVE_TOL, abs=NAIVE_TOL)


# On the 100x10 data the rule sends one subject to the q = 2 cap of 64 at
# every point but "rank1", and at two points the derivative of the order-64
# total is itself not converged in the order:
# at "flip" its L21 entry moves 108.527 -> 108.468 -> 108.4643 over orders
# 32 -> 48 -> 64 while the score moves 108.454 -> 108.4634 -> 108.4639, and
# the two end 3.5e-4 apart (2.6e-4 at "L11=0"). No higher order exists, so
# those two points are checked on the 50x5 data only.
AGQ_CASES = ([("50x5",) + case for case in CASES]
             + [("100x10",) + case for case in CASES
                if case not in (("is", "L11=0"), ("is", "flip"))])


@pytest.mark.parametrize("data,model,where", AGQ_CASES)
def test_agq_score_matches_richardson_at_the_fit_order(request, data, model, where):
    spec, x = point(model, where)
    ev = LikelihoodEvaluator(datasets(request, data), spec)
    orders = ev.agq_order(theta_from_vector(x, spec))[0]
    evaluate = lambda theta, score=False: ev.agq(theta, orders, score)  # noqa: E731
    grad = _score_gradient(evaluate, spec)(x)
    oracle = richardson_gradient(lambda z: evaluate(theta_from_vector(z, spec)), x)
    assert grad == pytest.approx(oracle, rel=AGQ_TOL, abs=AGQ_TOL)


# every censored block of the data has at most 3 measures, so the marginal
# total is exact and the score is its derivative
MARGINAL_CASES = CASES + [("biv", "truth"), ("biv", "L11=0"), ("biv", "rank1"), ("biv", "flip")]


@pytest.mark.parametrize("model,where", MARGINAL_CASES)
def test_marginal_score_matches_richardson(request, model, where):
    spec, x = point(model, where)
    data = request.getfixturevalue("biv_50x3" if model == "biv" else "benchmark_dataset")
    ev = LikelihoodEvaluator(data, spec)
    assert max(m for m, _, _ in ev.cens_blocks) <= EXACT_DIM
    assert ev.marginal_has_score
    grad = _score_gradient(ev.marginal, spec)(x)
    oracle = richardson_gradient(lambda z: ev.marginal(theta_from_vector(z, spec)), x)
    assert grad == pytest.approx(oracle, rel=MARGINAL_TOL, abs=MARGINAL_TOL)


def test_marginal_score_refuses_qmc_blocks(biv_50x5):
    spec = MODEL_TEMPLATES["biv"]()
    ev = LikelihoodEvaluator(biv_50x5, spec)
    assert max(m for m, _, _ in ev.cens_blocks) > EXACT_DIM
    assert not ev.marginal_has_score
    assert np.isfinite(ev.marginal(default_truth("biv"), fixed=True))
    with pytest.raises(ValueError, match="at most 3 measures"):
        ev.marginal(default_truth("biv"), fixed=True, score=True)


def all_censored_subject():
    return Dataset(subjects=(make_subject("a", [0.0, 1.0], [0.0, 0.0], [False, False], 1.0),))


@pytest.mark.parametrize("data", ["overflowed residual", "impossible block"])
def test_minus_inf_marginal_total_is_a_gradient_error(benchmark_dataset, is_spec, truth, data):
    # beta = 1e200: the squared residuals of the observed rows overflow; a
    # subject with only censored rows has limits near -1e200 SD instead
    dataset = benchmark_dataset if data == "overflowed residual" else all_censored_subject()
    ev = LikelihoodEvaluator(dataset, is_spec)
    theta = Theta([1e200, 0.0], truth.chol, truth.sigma_e)
    total, score = ev.marginal(theta, score=True)
    assert total == -np.inf and np.all(np.isnan(score))
    with pytest.raises(GradientError, match="score not finite"):
        _score_gradient(ev.marginal, is_spec)(theta_to_vector(theta))


def test_score_pass_returns_the_total(benchmark_dataset, is_spec, truth):
    ev = LikelihoodEvaluator(benchmark_dataset, is_spec)
    assert ev.naive(truth, score=True)[0] == ev.naive(truth)
    assert ev.agq(truth, 20, score=True)[0] == ev.agq(truth, 20)
    assert ev.marginal(truth, score=True)[0] == ev.marginal(truth)
    with pytest.raises(ValueError):
        ev.agq(truth, score=True)
