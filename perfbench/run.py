"""Benchmark of censlmm: three workloads, five end-to-end metrics, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload fit-50x5 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
Each run sets up its data (simulate, then a long-CSV write/read round trip),
computes reference values with ``reference.py``, which does not use censlmm,
and then repeats whole rounds of the workload's operations until the next
round would end after ``--seconds``. Every operation's output is checked
outside the timed region; a mismatch or an error counts as a failed
operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, and the per-layer metrics of a run with the span
recorder of ``tracing.py`` installed on every second round with
``--trace 1``. README.md describes the workloads, metrics and checks.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, like the library's own default of one thread, so that the
# whole load runs on one core of the machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METHODS = ("naive", "marginal", "agq")


@dataclass(frozen=True)
class Workload:
    """One workload: a simulated dataset and the timed operations of one round."""

    n_subjects: int
    n_times: int
    target: float  # target censoring fraction given to the simulator
    data_seed: int
    fit: bool  # each operation is one fit_model; otherwise one loglik_* call
    schedule: tuple  # the methods of one round's operations, in order


# Cheap paths get more operations per round so that their median is steady,
# and each path's operations are spread over the round so that they meet
# the machine in more than one state of speed; README.md says why.
WORKLOADS = {
    "fit-50x5": Workload(50, 5, 0.152, 2024, True,
                         ("naive", "marginal", "naive", "agq", "naive", "marginal", "naive")),
    "eval-1000x5": Workload(1000, 5, 0.152, 7, False,
                            ("naive",) * 7 + ("agq",) + ("naive",) * 7 + ("marginal",)
                            + ("naive",) * 6),
    "eval-censored-100x10": Workload(100, 10, 0.50, 7, False,
                                     ("naive",) * 17 + ("agq",) * 2 + ("naive",) * 16
                                     + ("marginal",) + ("naive",) * 17 + ("agq",) * 3),
}
SMOKE_SUBJECTS = {"fit-50x5": 20, "eval-1000x5": 40, "eval-censored-100x10": 8}
SMOKE_SCHEDULE = ("naive", "marginal", "naive", "agq")

SETUP_REPS = 3
REF_LOOP_REPS = 15

# Tolerances of the checks against reference.py (README.md says why).
NAIVE_REL_TOL = 1e-8
MVN_TOL = 1e-6  # the default LogLikOptions.mvn_tol each censored block is asked to meet
AGQ_EVAL_TOL = 1e-5  # ten times the default qtol of the order-doubling rule
FIT_LOGLIK_TOL = {"naive": None, "marginal": 1e-3, "agq": 1e-3}
FIT_AGREE_TOL = 1e-3  # marginal vs AGQ estimates, natural scale
FIT_SCORE_TOL = 0.05  # |reference score| x SE at the estimate


def ref_loop():
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Counts, timed samples and check results of one benchmark run."""

    def __init__(self, censlmm, workload, recorder=None):
        self.lib = censlmm
        self.wl = workload
        self.rec = recorder
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples = {m: [] for m in METHODS}
        self.traced_samples = {m: [] for m in METHODS}
        self.abs_err = {m: 0.0 for m in METHODS}
        self.fits = {}
        self.verdicts = {}
        self.notes = []

    # -- operations ----------------------------------------------------------

    def timed(self, method, span, fn, *args):
        """Run one operation, record its time; returns its output or None on an error."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracing:
                out = self.rec.call(span, fn, *args)
            else:
                out = fn(*args)
        except self.lib.CensLmmError as exc:
            out = None
            self.failed += 1
            self.notes.append(f"{method}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        (self.traced_samples if self.tracing else self.samples)[method].append(elapsed)
        return out

    def check(self, ok, what):
        """Record a failed check of an operation that returned."""
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.notes.append(f"check failed: {what}")
        return ok

    def check_value(self, method, value, ref, tol):
        err = abs(value - ref)
        self.abs_err[method] = max(self.abs_err[method], err)
        return self.check(math.isfinite(value) and err <= tol,
                          f"{method} loglik {value!r} vs reference {ref!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_data(lib, wl, workdir, seed):
    """simulate -> write_long_csv -> read_long_csv, each timed; the read dataset is used.

    The eval workloads write their subjects in an order drawn from ``seed``.
    Their likelihoods are sums over subjects, so the order changes the input
    file and the order of summation but not the work. The fits keep the
    simulated order: there the last bits of the objective steer the
    optimizer, and a new order changed the naive fit from 18 to 17 iterations.
    """
    import numpy as np

    truth = lib.default_truth()
    cfg = lib.SimConfig(n_subjects=wl.n_subjects, n_per_subject=wl.n_times, truth=truth,
                        target_censoring=wl.target, seed=wl.data_seed)
    path = workdir / "data.csv"
    t0 = time.perf_counter()
    simulated = lib.simulate(cfg)
    if not wl.fit:
        order = np.random.default_rng(seed).permutation(wl.n_subjects)
        simulated = replace(simulated, subjects=tuple(simulated.subjects[i] for i in order))
    t1 = time.perf_counter()
    lib.write_long_csv(simulated, path)
    t2 = time.perf_counter()
    dataset = lib.read_long_csv(path)
    t3 = time.perf_counter()
    steps = {"simulate.simulate.s": t1 - t0, "data.write_long_csv.s": t2 - t1,
             "data.read_long_csv.s": t3 - t2}
    return simulated, dataset, path, steps


def same_data(a, b):
    """True when two datasets hold the same subjects and observations, bit for bit."""
    if len(a.subjects) != len(b.subjects):
        return False
    for sa, sb in zip(a.subjects, b.subjects):
        if sa.subject_id != sb.subject_id or len(sa.observations) != len(sb.observations):
            return False
        for oa, ob in zip(sa.observations, sb.observations):
            if (oa.time, oa.response, oa.is_observed, oa.threshold, oa.marker) != (
                    ob.time, ob.response, ob.is_observed, ob.threshold, ob.marker):
                return False
    return True


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def op_span(wl, method):
    """Name of the span around one of the workload's operations in a traced round."""
    return f"bench.fit_model.{method}" if wl.fit else f"bench.loglik_{method}"


def eval_round(run, dataset, spec, theta, refs, tols):
    """One loglik_* call per scheduled operation, each checked against reference.py."""
    for method in run.wl.schedule:
        fn = getattr(run.lib, f"loglik_{method}")
        value = run.timed(method, op_span(run.wl, method), fn, dataset, spec, theta)
        if value is not None:
            run.check_value(method, value, refs[method], tols[method])


def fit_verdicts(method, fit, subjects):
    """Checks of one fit against reference.py: converged, SEs, log-likelihood, maximum.

    Returns ``(ok, what)`` pairs and |loglik - reference| (None when not reached).
    """
    import reference as ref

    if not fit.converged:
        return [(False, f"{method} fit did not converge")], None
    if not (fit.hessian_ok and fit.se is not None and all(s > 0 for s in fit.se)):
        return [(False, f"{method} fit has no standard errors")], None
    loglik = ref.naive_loglik if method == "naive" else ref.exact_loglik
    ll = lambda beta, g, sigma: loglik(subjects, beta, g, sigma)  # noqa: E731
    reference = ll(*ref.unpack(fit.estimates))
    tol = FIT_LOGLIK_TOL[method]
    tol = NAIVE_REL_TOL * abs(reference) if tol is None else tol
    err = abs(fit.loglik - reference)
    score = max(abs(ref.scaled_score(ll, fit.estimates, fit.se)))
    return [
        (err <= tol, f"{method} loglik {fit.loglik!r} vs reference {reference!r} (tol {tol:g})"),
        (score <= FIT_SCORE_TOL,
         f"{method} estimates are not at the reference maximum: |score| x SE = {score:.3g}"),
    ], err


def check_fit(run, method, fit, subjects):
    """Apply :func:`fit_verdicts`; a fit that repeats an earlier output bit for bit gets its verdicts."""
    key = (method, fit.converged, fit.loglik, fit.estimates.tobytes(),
           None if fit.se is None else fit.se.tobytes())
    if key not in run.verdicts:
        run.verdicts[key] = fit_verdicts(method, fit, subjects)
    verdicts, err = run.verdicts[key]
    if err is not None:
        run.abs_err[method] = max(run.abs_err[method], err)
    for ok, what in verdicts:
        run.check(ok, what)


def fit_round(run, dataset, spec, subjects):
    """One fit_model per scheduled operation, each checked; then the cross-method checks."""
    lib = run.lib
    last = {}
    for method in run.wl.schedule:
        opts = lib.LogLikOptions(method=lib.Method(method))
        fit = run.timed(method, op_span(run.wl, method), lib.fit_model, dataset, spec, opts)
        if fit is not None:
            last[method] = run.fits[method] = fit
            check_fit(run, method, fit, subjects)
    if "marginal" in last and "agq" in last:
        gap = float(max(abs(last["marginal"].estimates - last["agq"].estimates)))
        run.check(gap <= FIT_AGREE_TOL, f"marginal and AGQ estimates differ by {gap:.3g}")
    if "naive" in last and "marginal" in last:
        names = list(last["naive"].param_names)
        i0, iv = names.index("intercept"), names.index("var_intercept")
        naive, aware = last["naive"].estimates, last["marginal"].estimates
        run.check(naive[i0] > aware[i0] and naive[iv] < aware[iv],
                  "threshold imputation does not show its bias (intercept up, "
                  f"var_intercept down): naive {naive[i0]:.4f}/{naive[iv]:.4f}, "
                  f"marginal {aware[i0]:.4f}/{aware[iv]:.4f}")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def import_censlmm():
    """Import censlmm from this checkout's src/, or return None when it is absent."""
    src = ROOT / "src"
    if not (src / "censlmm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import censlmm

    if Path(censlmm.__file__).resolve().parent != src / "censlmm":
        return None
    return censlmm


def run_workload(lib, name, seed, seconds, trace, smoke=False, import_s=0.0):
    """Run one workload; returns the result object of the last output line plus notes."""
    import reference as ref

    wl = WORKLOADS[name]
    if smoke:
        wl = replace(wl, n_subjects=SMOKE_SUBJECTS[name], schedule=SMOKE_SCHEDULE)
    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder(wl.n_subjects)
    run = Run(lib, wl, recorder)
    ref_loop_s = [_median_time(ref_loop, REF_LOOP_REPS)]

    run_dir = HERE / "_run"
    run_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_dir) as tmp:
        steps = []
        round_trip_ok = True
        for _ in range(SETUP_REPS):
            simulated, dataset, path, step = setup_data(lib, wl, Path(tmp), seed)
            steps.append(step)
            round_trip_ok &= same_data(simulated, dataset)
        subjects = ref.read_subjects(path)
    data_setup = [sum(s.values()) for s in steps]
    setup_s = import_s + statistics.median(data_setup)
    spec = lib.intercept_slope_model()

    if wl.fit:
        do_round = lambda: fit_round(run, dataset, spec, subjects)  # noqa: E731
    else:
        truth = lib.default_truth()
        beta, g, sigma = truth.beta, truth.g_matrix(), float(truth.sigma_e[0])
        theta = lib.Theta.from_moments(beta, g, [sigma])
        n_blocks = sum(1 for t, y, obs, lim in subjects if (~obs).sum() >= 2)
        refs = {"naive": ref.naive_loglik(subjects, beta, g, sigma),
                "marginal": ref.exact_loglik(subjects, beta, g, sigma)}
        refs["agq"] = refs["marginal"]
        tols = {"naive": NAIVE_REL_TOL * abs(refs["naive"]),
                "marginal": n_blocks * MVN_TOL, "agq": AGQ_EVAL_TOL}
        do_round = lambda: eval_round(run, dataset, spec, theta, refs, tols)  # noqa: E731

    # Whole rounds until the next one would end after `seconds`; a traced run
    # alternates untraced and traced rounds and makes at least one of each.
    t_start = time.perf_counter()
    rounds = traced_rounds = 0
    while True:
        r0 = time.perf_counter()
        run.tracing = trace and rounds % 2 == 1
        if run.tracing:
            with recorder:
                do_round()
            traced_rounds += 1
        else:
            do_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= (2 if trace else 1) and now - t_start + (now - r0) > seconds:
            break
    ref_loop_s.append(_median_time(ref_loop, REF_LOOP_REPS))

    info = {"workload": name, "seed": seed, "rounds": rounds, "ref_loop_s": ref_loop_s,
            "samples": run.samples, "notes": run.notes[:20]}
    if trace:
        metrics = recorder.layer_metrics(traced_rounds)
        for method in METHODS:
            fit = run.fits.get(method)
            metrics[f"optimize.objective_evals.{method}"] = (
                float(fit.trace.n_evals) if fit is not None and fit.trace else 0.0, "count")
            metrics[f"optimize.iterations.{method}"] = (
                float(fit.iterations) if fit is not None else 0.0, "count")
            metrics[f"likelihood.{method}.loglik_abs_err"] = (run.abs_err[method], "loglik")
            untraced = statistics.median(run.samples[method])
            traced = statistics.median(run.traced_samples[method])
            metrics[f"trace.overhead.{method}"] = (traced / untraced - 1.0, "share")
        for key in steps[0]:
            metrics[key] = (statistics.median(s[key] for s in steps), "s")
        metrics["setup.import_s"] = (import_s, "s")
        metrics["machine.ref_loop_s"] = (statistics.median(ref_loop_s), "s")
        info["traced_samples"] = run.traced_samples
        info["self_by_layer"] = {m: recorder.self_by_layer(op_span(wl, m)) for m in METHODS}
        recorder.write(HERE / "traces" / f"{name}-seed{seed}.json.gz",
                       {"workload": name, "seed": seed, "traced_rounds": traced_rounds})
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "naive_s": (statistics.median(run.samples["naive"]), "s"),
            "marginal_s": (statistics.median(run.samples["marginal"]), "s"),
            "agq_s": (statistics.median(run.samples["agq"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": bool(round_trip_ok and run.wrong == 0),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    if not round_trip_ok:
        info["notes"].append("the long-CSV round trip changed the data")
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets and a four-operation round, for tests")
    args = parser.parse_args(argv)

    lib = import_censlmm()
    if lib is None:
        print(f"censlmm not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    result, info = run_workload(lib, args.workload, args.seed, args.seconds, bool(args.trace),
                                smoke=args.smoke, import_s=import_s)
    print("info " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
