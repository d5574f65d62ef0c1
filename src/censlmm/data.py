"""Longitudinal censored-data representation and long-format CSV handling.

A dataset is an ordered collection of subjects, each holding an ordered list
of observations.  A measurement is either observed (indicator 1) or
left-censored at its detection limit (indicator 0), in which case only the
limit enters any likelihood; the stored response is just a placeholder.
All containers are immutable after construction: subjects and observations
are stored as tuples.

This module is the one reader of the observations: ``Dataset.table`` reads
them once per dataset into long-format columns (:class:`Table`, one row per
measure), which the likelihood evaluator and the optimizer's start read.
It holds identical subjects, such as those censored at every visit, once.

A model template (:class:`ModelSpec`) is data: the number of markers,
whether each has a slope in time, and the names of the fixed covariates.
:func:`design_matrices` builds the fixed- and random-effect design matrices
X and Z of many rows at once from their time, marker and covariate columns.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter

import numpy as np

from .errors import DimensionError, ParseError, SchemaError


@dataclass(frozen=True)
class Observation:
    """One measurement: response or, when censored, its detection limit."""

    subject_id: str
    time: float
    response: float
    is_observed: bool
    threshold: float = math.nan
    marker: int = 1
    covariates: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError(f"subject {self.subject_id}: time is not finite")
        # most data have no covariates, and simulated datasets build thousands of rows
        if self.covariates and not all(math.isfinite(c) for c in self.covariates):
            raise ValueError(f"subject {self.subject_id}: a covariate is not finite")
        if self.is_observed and not math.isfinite(self.response):
            raise ValueError(f"subject {self.subject_id}: observed response is not finite")
        if not self.is_observed and not math.isfinite(self.threshold):
            raise ValueError(f"subject {self.subject_id}: censored measure lacks a finite threshold")
        if self.marker < 1:
            raise ValueError(f"subject {self.subject_id}: marker stratum index is 1-based")


@dataclass(frozen=True)
class SubjectData:
    """All measurements of one subject, in input order."""

    subject_id: str
    observations: tuple

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if len(self.observations) < 1:
            raise ValueError("a subject needs at least one observation")
        for obs in self.observations:
            if obs.subject_id != self.subject_id:
                raise ValueError(f"observation of subject {obs.subject_id!r} grouped under "
                                 f"{self.subject_id!r}")


@dataclass(frozen=True)
class Table:
    """A dataset's rows as long-format columns, in input order; the arrays are read-only.

    Subjects whose rows (time, y, observed, marker, covariates) match byte
    for byte, in input order, are held once, as the first of them, and
    ``count`` is their number. Subject ``s`` (id ``ids[s]``) owns rows
    ``start[s]:start[s + 1]``, and ``subject`` holds each row's s. ``y`` is
    the response of an observed row and the detection limit of a censored
    one; ``covariates`` holds each row's tuple.
    """

    start: np.ndarray
    subject: np.ndarray
    count: np.ndarray
    ids: tuple
    time: np.ndarray
    y: np.ndarray
    observed: np.ndarray
    marker: np.ndarray
    covariates: tuple


@dataclass(frozen=True)
class Dataset:
    """Ordered subjects plus covariate-column metadata."""

    subjects: tuple
    column_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if len(self.subjects) == 0:
            raise ValueError("dataset is empty")
        if len({s.subject_id for s in self.subjects}) != len(self.subjects):
            raise ValueError("subject ids are not unique")

    @cached_property
    def table(self):
        """The rows as long-format columns (:class:`Table`), read once per dataset."""
        rows = [o for s in self.subjects for o in s.observations]
        sizes = np.fromiter(map(len, (s.observations for s in self.subjects)), int, self.n_subjects)
        covariates = tuple(map(attrgetter("covariates"), rows))

        def column(name, dtype):
            return np.fromiter(map(attrgetter(name), rows), dtype, len(rows))

        arrays = {
            "time": column("time", float),
            "y": np.fromiter((o.response if o.is_observed else o.threshold for o in rows), float,
                             len(rows)),
            "observed": column("is_observed", bool),
            "marker": column("marker", int),
        }
        count = np.bincount(_first_of_class(sizes, arrays, covariates), minlength=sizes.size)
        kept = count > 0
        kept_rows = np.repeat(kept, sizes)
        arrays = {name: a[kept_rows] for name, a in arrays.items()}
        sizes, arrays["count"] = sizes[kept], count[kept]
        arrays["start"] = np.concatenate([[0], np.cumsum(sizes)])
        arrays["subject"] = np.repeat(np.arange(sizes.size), sizes)
        for a in arrays.values():
            a.setflags(write=False)
        return Table(ids=tuple(compress((s.subject_id for s in self.subjects), kept)),
                     covariates=tuple(compress(covariates, kept_rows)), **arrays)

    @property
    def n_subjects(self):
        return len(self.subjects)

    @property
    def n_rows(self):
        return int(self.table.count @ np.diff(self.table.start))

    @property
    def n_censored(self):
        t = self.table
        return int(np.sum(t.count[t.subject[~t.observed]]))


def _first_of_class(sizes, columns, covariates):
    """Each subject's class: the first subject whose rows equal its own byte for byte.

    Subject s has ``sizes[s]`` consecutive rows of the (n,) ``columns`` and
    the n ``covariates``. One ``np.unique`` per size compares the subjects'
    rows, each subject's as one ``np.void``.
    """
    key = [columns[name].astype(float) for name in ("time", "y", "observed", "marker")]
    if any(covariates):
        # covariates are finite, so a NaN pad cannot equal a value
        pad = (math.nan,) * max(map(len, covariates))
        key.append(np.array([c + pad[len(c):] for c in covariates], float))
    key = np.column_stack(key)
    start = np.concatenate([[0], np.cumsum(sizes)])
    first = np.arange(sizes.size)
    for n in np.unique(sizes):
        subjects = np.flatnonzero(sizes == n)
        stacked = key[start[subjects, None] + np.arange(n)].reshape(subjects.size, -1)
        whole = stacked.view(np.dtype((np.void, stacked.shape[1] * stacked.itemsize)))[:, 0]
        _, index, inverse = np.unique(whole, return_index=True, return_inverse=True)
        first[subjects] = subjects[index[inverse]]
    return first


@dataclass(frozen=True)
class ModelSpec:
    """A model template as data: the columns of the design matrices.

    Each of ``n_strata`` markers has its own intercept, with ``slope`` its
    own slope in time, and its own residual stratum. A row of marker k
    fills only its marker's columns of Z, from column (k - 1)(1 + slope):
    1, then with ``slope`` the row's time. X is Z followed by one column
    per name in ``covariates``, shared fixed effects that take the row's
    first covariates in order.
    """

    slope: bool
    n_strata: int = 1
    covariates: tuple = ()

    def __post_init__(self):
        if not 1 <= self.q <= 4:
            raise ValueError("between 1 and 4 random effects are supported")

    @cached_property
    def q(self):
        return self.n_strata * (1 + self.slope)

    @cached_property
    def p(self):
        return self.q + len(self.covariates)

    @cached_property
    def random_names(self):
        effects = ("intercept", "slope") if self.slope else ("intercept",)
        if self.n_strata == 1:
            return effects
        return tuple(f"{e}_{k}" for k in range(1, self.n_strata + 1) for e in effects)

    @cached_property
    def fixed_names(self):
        return self.random_names + tuple(self.covariates)


# ---------------------------------------------------------------------------
# Model templates
# ---------------------------------------------------------------------------


def random_intercept_model(covariates=()):
    """Fixed and random intercept only; optional extra fixed covariates."""
    return ModelSpec(slope=False, covariates=tuple(covariates))


def intercept_slope_model(covariates=()):
    """Fixed and random intercept and slope in time; optional extra fixed covariates."""
    return ModelSpec(slope=True, covariates=tuple(covariates))


def bivariate_model(covariates=()):
    """Two markers, each with its own intercept/slope pair and residual stratum.

    A row only fills the columns of its own marker; covariates (if any) are
    shared linear fixed effects.
    """
    return ModelSpec(slope=True, n_strata=2, covariates=tuple(covariates))


MODEL_TEMPLATES = {
    "ri": random_intercept_model,
    "is": intercept_slope_model,
    "biv": bivariate_model,
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def design_matrices(spec, time, marker, covariates=(), subject=(), ids=()):
    """X (n x p) and Z (n x q) of n rows given as columns, in the layout of ``spec``.

    ``time`` and ``marker`` are (n,) arrays, as in :class:`Table`.
    ``covariates`` holds each row's covariate tuple; it is read only when
    the model has covariates. Row i belongs to subject ``ids[subject[i]]``,
    read only to name the subject of a bad row: a marker outside
    1..``n_strata``, or fewer covariates than the model has.
    """
    bad = np.flatnonzero((marker < 1) | (marker > spec.n_strata))
    if bad.size:
        i, plural = bad[0], "s" if spec.n_strata > 1 else ""
        raise DimensionError(
            f"subject {ids[subject[i]]}: marker {marker[i]}, the model has {spec.n_strata} marker{plural}"
        )
    n, q, k = marker.shape[0], spec.q, len(spec.covariates)
    rows, first = np.arange(n), (marker - 1) * (1 + spec.slope)
    x = np.zeros((n, spec.p))
    x[rows, first] = 1.0
    if spec.slope:
        x[rows, first + 1] = time
    if k:
        counts = np.fromiter(map(len, covariates), int, n)
        short = np.flatnonzero(counts < k)
        if short.size:
            i = short[0]
            raise DimensionError(f"subject {ids[subject[i]]}: {counts[i]} covariates, {k} required")
        x[:, q:] = [c[:k] for c in covariates]
    return x, x[:, :q].copy()


# The long format's columns, in the order the writer puts them: the subject's
# id, the time, the response, the censoring indicator (1 for an observed value,
# 0 for a left-censored one), the row's detection limit and its 1-based marker.
# The last two are optional on input; fixed covariates follow them.
COLUMNS = ("id", "time", "y", "obs", "limit", "marker")


def _parse_float(text, name, line):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {line}: column {name!r} has non-numeric value {text!r}", row=line) from None


def read_long_csv(path, default_threshold=None, covariate_cols=()):
    """Read a long-format CSV (:data:`COLUMNS`) into a Dataset, grouping rows by subject.

    A row's detection limit is its ``limit`` cell when that is not empty,
    else ``default_threshold``. The named ``covariate_cols`` are read, in
    order, as each row's covariates. Subjects appear in order of first
    appearance; within-subject row order is preserved.  Rows whose response
    is missing while marked observed are dropped with a warning.
    """
    id_col, time_col, y_col, obs_col, limit_col, marker_col = COLUMNS
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for required in COLUMNS[:4]:
            if required not in header:
                raise SchemaError(f"required column {required!r} not found in {path}")
        for cov in covariate_cols:
            if cov not in header:
                raise SchemaError(f"covariate column {cov!r} not found in {path}")

        groups: dict = {}  # subjects in order of first appearance
        for line_no, row in enumerate(reader, start=2):
            sid = row[id_col]
            raw_y = (row[y_col] or "").strip()
            raw_obs = (row[obs_col] or "").strip()
            if raw_obs not in ("0", "1"):
                raise ParseError(f"line {line_no}: censoring indicator must be 0 or 1, got {raw_obs!r}",
                                 row=line_no)
            is_observed = raw_obs == "1"
            time = _parse_float(row[time_col], time_col, line_no)

            # an optional column that the file lacks reads as empty
            threshold = math.nan
            raw_thr = (row.get(limit_col) or "").strip()
            if raw_thr != "":
                threshold = _parse_float(raw_thr, limit_col, line_no)
            if not math.isfinite(threshold) and default_threshold is not None:
                threshold = float(default_threshold)
            if not is_observed and not math.isfinite(threshold):
                raise SchemaError(
                    f"line {line_no}: censored row without a threshold column or default threshold"
                )

            if raw_y == "":
                if is_observed:
                    warnings.warn(
                        f"line {line_no}: missing response on an observed row; row dropped",
                        stacklevel=2,
                    )
                    continue
                response = threshold
            else:
                response = _parse_float(raw_y, y_col, line_no)

            marker = 1
            raw_m = (row.get(marker_col) or "").strip()
            if raw_m != "":
                marker = _parse_float(raw_m, marker_col, line_no)
                if not marker.is_integer():
                    raise ParseError(f"line {line_no}: marker {raw_m!r} is not an integer", row=line_no)
                marker = int(marker)

            covs = tuple(_parse_float(row[c], c, line_no) for c in covariate_cols)
            try:
                obs = Observation(subject_id=sid, time=time, response=response, is_observed=is_observed,
                                  threshold=threshold, marker=marker, covariates=covs)
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {exc}", row=line_no) from None
            groups.setdefault(sid, []).append(obs)

    if not groups:
        raise SchemaError(f"{path} contains no data rows")
    subjects = [SubjectData(sid, observations) for sid, observations in groups.items()]
    return Dataset(subjects=subjects, column_names=tuple(covariate_cols))


def write_long_csv(dataset, path):
    """Write a Dataset to the long format: :data:`COLUMNS`, then its covariate columns.

    Floats are written with the shortest round-tripping representation, so a
    write/read cycle reproduces values bit-for-bit.  Missing thresholds
    become empty cells.
    """
    header = [*COLUMNS, *dataset.column_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for subject in dataset.subjects:
            for o in subject.observations:
                thr = "" if not math.isfinite(o.threshold) else repr(o.threshold)
                writer.writerow([o.subject_id, repr(o.time), repr(o.response), int(o.is_observed),
                                 thr, o.marker, *[repr(c) for c in o.covariates]])
