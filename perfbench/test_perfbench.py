"""Tests of the benchmark itself: smoke runs, and checks that can fail.

Run from the repository root with ``python3 -m pytest perfbench``. The smoke
runs use tiny datasets, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import reference as ref
import run as bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    censlmm = bench.import_censlmm()
    assert censlmm is not None
    return censlmm


def smoke(lib, name, trace=False, seed=3):
    result, info = bench.run_workload(lib, name, seed, 0.0, trace, smoke=True)
    return result, info


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(lib, name):
    result, info = smoke(lib, name)
    assert result["correct"] and result["failed"] == 0, info["notes"]
    assert result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric(lib):
    result, info = smoke(lib, "eval-censored-100x10", trace=True)
    assert result["correct"] and result["failed"] == 0, info["notes"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["gaussian.mvn_rect_prob.calls"]["value"] > 0
    assert result["metrics"]["quadrature.find_mode.calls"]["value"] > 0


def test_perturbed_loglik_is_a_failed_operation(lib, monkeypatch):
    original = lib.loglik_marginal

    def perturbed(*args, **kwargs):
        value = original(*args, **kwargs)
        return value + 1e-3 * abs(value)

    monkeypatch.setattr(lib, "loglik_marginal", perturbed)
    result, info = smoke(lib, "eval-1000x5")
    assert result["failed"] == 1 and not result["correct"]
    assert any("marginal loglik" in note for note in info["notes"])


def test_swapped_method_outputs_are_failed_operations(lib, monkeypatch):
    monkeypatch.setattr(lib, "loglik_agq", lib.loglik_naive)
    result, info = smoke(lib, "eval-censored-100x10")
    assert result["failed"] == 1 and not result["correct"]


def test_swapped_fit_is_a_failed_operation(lib, monkeypatch):
    original = lib.fit_model

    def swapped(dataset, spec, llopt, *args):
        if llopt.method is lib.Method.AGQ:
            llopt = lib.LogLikOptions(method=lib.Method.NAIVE)
        return original(dataset, spec, llopt, *args)

    monkeypatch.setattr(lib, "fit_model", swapped)
    result, info = smoke(lib, "fit-50x5")
    assert not result["correct"]
    # the AGQ fit's log-likelihood and its score miss the reference, and it
    # no longer agrees with the marginal fit
    assert result["failed"] == 3, info["notes"]


def test_raised_error_is_a_failed_operation_without_a_wrong_output(lib, monkeypatch):
    def broken(*args, **kwargs):
        raise lib.EvaluationError("subject 1: injected", subject_id="1")

    monkeypatch.setattr(lib, "loglik_naive", broken)
    result, _ = smoke(lib, "eval-1000x5")
    assert result["correct"] and result["failed"] == 2 and result["attempted"] == 4


def test_reference_block_probability_matches_scipy_and_a_finer_grid():
    rng = np.random.default_rng(5)
    t = np.arange(6.0)
    beta, g, sigma = np.array([3.0, 0.5]), np.array([[0.5, -0.1], [-0.1, 0.1]]), 0.45
    y = 3.0 + 0.5 * t + rng.normal(0.0, 0.8, size=6)
    obs = np.array([True, False, True, False, False, True])
    lim = np.full(6, 4.5)
    z = np.column_stack([np.ones(6), t])
    v = z @ g @ z.T + sigma ** 2 * np.eye(6)
    mu = z @ beta
    o, c = obs, ~obs
    gain = v[np.ix_(c, o)] @ np.linalg.inv(v[np.ix_(o, o)])
    cond_mean = mu[c] + gain @ (y[o] - mu[o])
    cond_cov = v[np.ix_(c, c)] - gain @ v[np.ix_(o, c)]
    scipy_p = multivariate_normal.cdf(lim[c], cond_mean, cond_cov, maxpts=2_000_000,
                                      abseps=1e-10, releps=1e-10)
    grid_lp = ref.censored_log_prob(t, y, obs, lim, beta, g, sigma)
    fine = ref.make_grid(12.0, 0.05)
    fine_lp = ref.censored_log_prob(t, y, obs, lim, beta, g, sigma, grid=fine)
    assert grid_lp == pytest.approx(np.log(scipy_p), abs=1e-6)
    assert grid_lp == pytest.approx(fine_lp, abs=1e-10)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_run", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-50x5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
