"""Batch command-line front end: fit, simulate and compare.

Reports are written as flat key=value records (one blank-line-separated
record per fitted method) so downstream scripts can parse them without a
table reader; a human-readable table goes to standard output.

Exit codes: 0 success, 1 input/usage error, 2 non-convergence or a compare
difference beyond tolerance.
"""

import argparse
import re
import sys

import numpy as np

from .data import MODEL_TEMPLATES, read_long_csv, write_long_csv
from .errors import CensLmmError
from .likelihood import LogLikOptions, Method
from .optimize import fit_model
from .simulate import SimConfig, default_truth, simulate

_METHODS = {m.value: m for m in Method}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any negative float literal as a value.

    Stock argparse treats ``-1e10`` or ``-inf`` as an option string because
    its negative-number pattern only knows plain decimals. Usage errors exit
    with 1 (input/usage error) rather than argparse's 2, which this CLI
    reserves for non-convergence and compare discrepancies. Subparsers
    inherit the class, so both rules hold for every command.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf)$",
            re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bounded(convert, ok, rule):
    """An argparse type: ``convert`` the text, then reject a value the library would reject."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {value:g}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" message
    return parse


_SEED = _bounded(int, lambda v: v >= 0, "nonnegative")
_COUNT = _bounded(int, lambda v: v >= 1, "at least 1")  # also a GH order
_TOLERANCE = _bounded(float, lambda v: v > 0.0, "positive")
_DIFFERENCE = _bounded(float, lambda v: v >= 0.0, "nonnegative")  # NaN compares false
_THRESHOLD = _bounded(float, lambda v: v < np.inf, "below inf")  # -inf censors nothing
_FRACTION = _bounded(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")


def _build_parser():
    parser = _Parser(prog="censlmm",
                     description="Mixed models for left-censored repeated measures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", choices=sorted(MODEL_TEMPLATES), default="is",
                       help="model template: ri=random intercept, is=intercept+slope, biv=bivariate")
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--threshold", type=_THRESHOLD, default=None,
                       help="global detection limit when the file has no limit column")
        p.add_argument("--output", default=None, help="report/dataset destination")

    def add_fit_options(p):
        add_common(p)
        p.add_argument("--input", required=True)
        p.add_argument("--gh-order", type=_COUNT, default=None,
                       help="pin every subject's quadrature order, capped at 64, 40 or 20 for "
                            "q <= 2, 3 or 4 (ignores --qtol); default: each subject's order "
                            "doubles from 10 until its integral settles, to --qtol in all")
        p.add_argument("--qtol", type=_TOLERANCE, default=1e-6,
                       help="quadrature-order doubling tolerance on the total log-likelihood")

    fit = sub.add_parser("fit", help="fit one or more likelihood methods to a dataset")
    add_fit_options(fit)
    fit.add_argument("--method", action="append", choices=sorted(_METHODS),
                     help="repeatable; defaults to marginal")

    sim = sub.add_parser("simulate", help="write a synthetic left-censored dataset")
    add_common(sim)
    sim.add_argument("--n-subjects", type=_COUNT, default=50)
    sim.add_argument("--n-per-subject", type=_COUNT, default=5)
    sim.add_argument("--target-censoring", type=_FRACTION, default=None,
                     help="censoring fraction used to calibrate the detection limit")

    cmp_ = sub.add_parser("compare", help="fit both censoring-aware formulations and diff them")
    add_fit_options(cmp_)
    cmp_.add_argument("--tolerance", type=_DIFFERENCE, default=0.01,
                      help="max acceptable per-parameter difference")
    return parser


def _loglik_options(args, method):
    return LogLikOptions(method=method, gh_order=args.gh_order, qtol=args.qtol, seed=args.seed)


def _read_dataset(args):
    return read_long_csv(args.input, default_threshold=args.threshold)


def _format_value(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_records(path, records):
    lines = []
    for record in records:
        for key, value in record.items():
            lines.append(f"{key}={_format_value(value)}")
        lines.append("")
    text = "\n".join(lines)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def read_report(path):
    """Parse a report written by this CLI back into a list of dicts."""
    records = []
    current = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if current:
                    records.append(current)
                    current = {}
                continue
            key, _, value = line.partition("=")
            current[key] = value
    if current:
        records.append(current)
    return records


def _print_fit_table(results):
    names = results[0].param_names
    header = ["method", "converged", "loglik"] + list(names)
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for res in results:
        cells = [res.method.value, "yes" if res.converged else "NO", f"{res.loglik:.4f}"]
        cells += [f"{v:.4f}" for v in res.estimates]
        print("".join(c.ljust(w) for c, w in zip(cells, widths)))
        if res.se is not None:
            se_cells = ["", "", "(se)"] + [f"{v:.4f}" for v in res.se]
            print("".join(c.ljust(w) for c, w in zip(se_cells, widths)))


def run_fit(args):
    dataset = _read_dataset(args)
    spec = MODEL_TEMPLATES[args.model]()
    methods = [_METHODS[m] for m in (args.method or ["marginal"])]
    results = []
    for method in methods:
        llopt = _loglik_options(args, method)
        results.append(fit_model(dataset, spec, llopt))
    _print_fit_table(results)
    records = [{"record": "fit", "model": args.model, "input": args.input, **r.as_dict()}
               for r in results]
    _write_records(args.output, records)
    return 0 if all(r.converged for r in results) else 2


def run_simulate(args):
    if args.output is None:
        print("simulate requires --output", file=sys.stderr)
        return 1
    if (args.threshold is None) == (args.target_censoring is None):
        print("simulate requires exactly one of --threshold / --target-censoring", file=sys.stderr)
        return 1
    config = SimConfig(
        n_subjects=args.n_subjects,
        n_per_subject=args.n_per_subject,
        truth=default_truth(args.model),
        threshold=args.threshold,
        target_censoring=args.target_censoring,
        seed=args.seed,
        model=MODEL_TEMPLATES[args.model](),
    )
    try:
        dataset = simulate(config)
    except ValueError as exc:  # a target censoring fraction that no limit reaches
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_long_csv(dataset, args.output)
    fraction = dataset.n_censored / dataset.n_rows
    print(f"wrote {dataset.n_rows} rows ({dataset.n_subjects} subjects) to {args.output}")
    print(f"censoring fraction: {fraction:.4f}")
    return 0


def run_compare(args):
    dataset = _read_dataset(args)
    spec = MODEL_TEMPLATES[args.model]()
    results = {}
    for method in (Method.MARGINAL, Method.AGQ):
        llopt = _loglik_options(args, method)
        results[method] = fit_model(dataset, spec, llopt)
    _print_fit_table([results[Method.MARGINAL], results[Method.AGQ]])

    diff = np.abs(results[Method.MARGINAL].estimates - results[Method.AGQ].estimates)
    max_diff = float(np.max(diff))
    within = max_diff <= args.tolerance
    print(f"max parameter difference: {max_diff:.6f} (tolerance {args.tolerance:g})"
          f" -> {'OK' if within else 'DISCREPANT'}")

    records = [{"record": "fit", "model": args.model, "input": args.input, **r.as_dict()}
               for r in results.values()]
    compare_rec = {"record": "compare", "tolerance": args.tolerance,
                   "max_diff": max_diff, "within_tolerance": within,
                   "loglik_marginal": results[Method.MARGINAL].loglik,
                   "loglik_agq": results[Method.AGQ].loglik}
    for name, d in zip(results[Method.MARGINAL].param_names, diff):
        compare_rec[f"diff.{name}"] = float(d)
    records.append(compare_rec)
    _write_records(args.output, records)

    converged = all(r.converged for r in results.values())
    return 0 if (within and converged) else 2


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code
    handlers = {"fit": run_fit, "simulate": run_simulate, "compare": run_compare}
    try:
        return handlers[args.command](args)
    except (CensLmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
