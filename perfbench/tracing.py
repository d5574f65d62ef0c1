"""Span recorder for the traced benchmark run.

The recorder wraps public functions of censlmm where their callers look them
up (for example ``censlmm.likelihood.mvn_rect_prob``, which the likelihood
module calls), records one span per call (name, start, end, parent) in
memory, and restores every original on exit. Self time is a span's
duration minus the durations of its direct children; the benchmark runs on
one thread, so children never overlap.
"""

import functools
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# span names whose self time is the optimizer's own work
OPTIMIZE_SPANS = ("bench.fit_model", "optimize.fd_gradient", "optimize.fd_hessian")


class Recorder:
    """Spans and counters from the calls into each censlmm layer."""

    def __init__(self, n_subjects):
        self.n_subjects = n_subjects
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.max_order = 0
        self.max_err_est = 0.0
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def _wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _on_prob(self, result):
        self.counts["gaussian.points"] += int(result.evals)
        self.counts["gaussian.budget_exhausted"] += int(bool(result.budget_exhausted))
        self.max_err_est = max(self.max_err_est, float(result.err_est))

    def _count_subjects(self, args):
        self.counts["likelihood.subject_evals"] += self.n_subjects
        return args

    def _count_integrand(self, args):
        """Count subject integrals and wrap the integrand to count its calls and points."""
        self.counts["likelihood.subject_evals"] += 1
        if len(args) < 3:
            return args
        logf, q, order = args[0], int(args[1]), int(args[2])
        self.max_order = max(self.max_order, order)
        counts = self.counts

        def counted(v):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_points"] += np.size(v) // q
            return logf(v)

        return (counted,) + tuple(args[1:])

    def _targets(self, censlmm):
        lk, quad, opt = censlmm.likelihood, censlmm.quadrature, censlmm.optimize
        ev = lk.LikelihoodEvaluator
        return [
            (lk, "mvn_rect_prob", "gaussian.mvn_rect_prob", None, self._on_prob),
            (lk, "agq_log_integral", "quadrature.agq_log_integral", self._count_integrand, None),
            (quad, "find_mode", "quadrature.find_mode", None, None),
            (opt, "choose_order", "quadrature.choose_order", None, None),
            (lk, "conditional_moments", "likelihood.conditional_moments", None, None),
            (ev, "__init__", "likelihood.evaluator_init", None, None),
            (ev, "naive", "likelihood.naive", self._count_subjects, None),
            (ev, "marginal", "likelihood.marginal", self._count_subjects, None),
            (ev, "agq", "likelihood.agq", None, None),
            (opt, "fd_gradient", "optimize.fd_gradient", None, None),
            (opt, "fd_hessian", "optimize.fd_hessian", None, None),
        ]

    def __enter__(self):
        """Install the wrappers; a target the program no longer has is skipped."""
        import censlmm

        for owner, attr, name, before, after in self._targets(censlmm):
            if owner.__dict__.get(attr) is None:
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self seconds of each span: its duration minus its direct children's."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        return out

    def naive_within(self, parent_name):
        """Seconds from the first to the last ``likelihood.naive`` span inside each ``parent_name`` span."""
        total = 0.0
        spans = self.spans
        for i, (name, start, end, _) in enumerate(spans):
            if name != parent_name:
                continue
            first = last = None
            for other, s, e, _ in spans[i + 1:]:
                if s >= end:
                    break
                if other == "likelihood.naive":
                    first = s if first is None else first
                    last = e
            if first is not None:
                total += last - first
        return total

    def layer_metrics(self, n_rounds):
        """Per-layer metrics, per traced round, by ``<module>.<function>.<quantity>`` name."""
        t = self.totals()
        c = self.counts
        per = 1.0 / n_rounds

        def calls(name):
            return t[name][0] * per

        def incl(name):
            return t[name][1] * per

        def self_s(name):
            return t[name][2] * per

        prob_s = incl("gaussian.mvn_rect_prob")
        points = c["gaussian.points"] * per
        return {
            "gaussian.mvn_rect_prob.calls": (calls("gaussian.mvn_rect_prob"), "count"),
            "gaussian.mvn_rect_prob.s": (prob_s, "s"),
            "gaussian.mvn_rect_prob.points": (points, "count"),
            "gaussian.mvn_rect_prob.points_per_s": (points / prob_s if prob_s else 0.0, "1/s"),
            "gaussian.mvn_rect_prob.budget_exhausted": (c["gaussian.budget_exhausted"] * per, "count"),
            "gaussian.mvn_rect_prob.max_err_est": (self.max_err_est, "prob"),
            "quadrature.find_mode.calls": (calls("quadrature.find_mode"), "count"),
            "quadrature.find_mode.s": (incl("quadrature.find_mode"), "s"),
            "quadrature.integrand_calls": (c["quadrature.integrand_calls"] * per, "count"),
            "quadrature.integrand_points": (c["quadrature.integrand_points"] * per, "count"),
            "quadrature.agq_log_integral.calls": (calls("quadrature.agq_log_integral"), "count"),
            "quadrature.agq_log_integral.self_s": (self_s("quadrature.agq_log_integral"), "s"),
            "quadrature.choose_order.s": (incl("quadrature.choose_order"), "s"),
            "quadrature.gh_order": (float(self.max_order), "order"),
            "likelihood.naive.calls": (calls("likelihood.naive"), "count"),
            "likelihood.naive.self_s": (self_s("likelihood.naive"), "s"),
            "likelihood.evaluator_init.s": (incl("likelihood.evaluator_init"), "s"),
            "likelihood.subject_evals": (c["likelihood.subject_evals"] * per, "count"),
            "likelihood.marginal.calls": (calls("likelihood.marginal"), "count"),
            "likelihood.marginal.self_s": (self_s("likelihood.marginal"), "s"),
            "likelihood.conditional_moments.calls": (calls("likelihood.conditional_moments"), "count"),
            "likelihood.conditional_moments.s": (incl("likelihood.conditional_moments"), "s"),
            "likelihood.agq.calls": (calls("likelihood.agq"), "count"),
            "likelihood.agq.self_s": (self_s("likelihood.agq"), "s"),
            "optimize.fd_gradient.calls": (calls("optimize.fd_gradient"), "count"),
            "optimize.fd_gradient.s": (incl("optimize.fd_gradient"), "s"),
            "optimize.fd_hessian.s": (incl("optimize.fd_hessian"), "s"),
            "optimize.warm_start.s": (self.naive_within("bench.fit_model.marginal") * per
                                      + self.naive_within("bench.fit_model.agq") * per, "s"),
            "optimize.self_s": (sum(v[2] for k, v in t.items()
                                    if k.startswith(OPTIMIZE_SPANS)) * per, "s"),
        }

    def self_by_layer(self, op_prefix):
        """Self seconds per layer (module) inside the ops whose span name starts with ``op_prefix``."""
        spans = self.spans
        out = Counter()
        for i, ((name, _, _, _), own) in enumerate(zip(spans, self.self_times())):
            root = i
            while spans[root][3] >= 0:
                root = spans[root][3]
            if spans[root][0].startswith(op_prefix):
                layer = "optimize" if name.startswith("bench.fit_model") else name.split(".")[0]
                out[layer] += own
        return dict(out)

    def write(self, path, header):
        """Write the spans as gzipped JSON: the header plus ``[name, start, end, parent]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(dict(header, spans=self.spans), fh)
