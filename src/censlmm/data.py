"""Longitudinal censored-data representation and long-format CSV handling.

A dataset is an ordered collection of subjects, each holding an ordered list
of observations.  A measurement is either observed (indicator 1) or
left-censored at its detection limit (indicator 0), in which case only the
limit enters any likelihood; the stored response is just a placeholder.
All containers are immutable after construction.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

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
        if self.is_observed and not math.isfinite(self.response):
            raise ValueError(f"subject {self.subject_id}: observed response is not finite")
        if not self.is_observed and not math.isfinite(self.threshold):
            raise ValueError(f"subject {self.subject_id}: censored measure lacks a finite threshold")
        if self.marker < 1:
            raise ValueError("marker stratum index is 1-based")


@dataclass(frozen=True)
class SubjectData:
    """All measurements of one subject, in input order."""

    subject_id: str
    observations: tuple

    def __post_init__(self):
        if len(self.observations) < 1:
            raise ValueError("a subject needs at least one observation")
        for obs in self.observations:
            if obs.subject_id != self.subject_id:
                raise ValueError(
                    f"observation of subject {obs.subject_id!r} grouped under {self.subject_id!r}"
                )

    @property
    def n_total(self):
        return len(self.observations)

    @property
    def n_obs(self):
        return sum(1 for o in self.observations if o.is_observed)

    @property
    def n_cens(self):
        return sum(1 for o in self.observations if not o.is_observed)


@dataclass(frozen=True)
class Dataset:
    """Ordered subjects plus covariate-column metadata."""

    subjects: tuple
    column_names: tuple = ()

    def __post_init__(self):
        if len(self.subjects) == 0:
            raise ValueError("dataset is empty")
        ids = [s.subject_id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValueError("subject ids are not unique")

    @property
    def n_subjects(self):
        return len(self.subjects)

    @property
    def n_rows(self):
        return sum(s.n_total for s in self.subjects)

    @property
    def n_censored(self):
        return sum(s.n_cens for s in self.subjects)


@dataclass(frozen=True)
class ModelSpec:
    """Design rules mapping an observation to fixed- and random-effect rows."""

    p: int
    q: int
    fixed_design: Callable
    random_design: Callable
    fixed_names: tuple
    random_names: tuple
    n_strata: int = 1

    def __post_init__(self):
        if not 1 <= self.q <= 4:
            raise ValueError("between 1 and 4 random effects are supported")
        if len(self.fixed_names) != self.p or len(self.random_names) != self.q:
            raise ValueError("design names do not match dimensions")


# ---------------------------------------------------------------------------
# Model templates
# ---------------------------------------------------------------------------


def _with_covariates(row, obs, n_extra):
    if n_extra == 0:
        return row
    if len(obs.covariates) < n_extra:
        raise DimensionError(
            f"subject {obs.subject_id}: {len(obs.covariates)} covariates, {n_extra} required"
        )
    return row + tuple(obs.covariates[:n_extra])


def random_intercept_model(covariates=()):
    """Fixed and random intercept only; optional extra fixed covariates."""
    n_extra = len(covariates)

    def fixed(obs):
        return _with_covariates((1.0,), obs, n_extra)

    def random(obs):
        return (1.0,)

    return ModelSpec(
        p=1 + n_extra,
        q=1,
        fixed_design=fixed,
        random_design=random,
        fixed_names=("intercept",) + tuple(covariates),
        random_names=("intercept",),
    )


def intercept_slope_model(covariates=()):
    """Fixed and random intercept and slope in time; optional extra fixed covariates."""
    n_extra = len(covariates)

    def fixed(obs):
        return _with_covariates((1.0, obs.time), obs, n_extra)

    def random(obs):
        return (1.0, obs.time)

    return ModelSpec(
        p=2 + n_extra,
        q=2,
        fixed_design=fixed,
        random_design=random,
        fixed_names=("intercept", "slope") + tuple(covariates),
        random_names=("intercept", "slope"),
    )


def bivariate_model(covariates=()):
    """Two markers, each with its own intercept/slope pair and residual stratum.

    Design rows are zero-padded so a row only activates the columns of its
    own marker; covariates (if any) are shared linear fixed effects.
    """
    n_extra = len(covariates)

    def fixed(obs):
        if obs.marker == 1:
            row = (1.0, obs.time, 0.0, 0.0)
        elif obs.marker == 2:
            row = (0.0, 0.0, 1.0, obs.time)
        else:
            raise DimensionError(f"marker {obs.marker} outside the bivariate template")
        return _with_covariates(row, obs, n_extra)

    def random(obs):
        if obs.marker == 1:
            return (1.0, obs.time, 0.0, 0.0)
        if obs.marker == 2:
            return (0.0, 0.0, 1.0, obs.time)
        raise DimensionError(f"marker {obs.marker} outside the bivariate template")

    return ModelSpec(
        p=4 + n_extra,
        q=4,
        fixed_design=fixed,
        random_design=random,
        fixed_names=("intercept_1", "slope_1", "intercept_2", "slope_2") + tuple(covariates),
        random_names=("intercept_1", "slope_1", "intercept_2", "slope_2"),
        n_strata=2,
    )


MODEL_TEMPLATES = {
    "ri": random_intercept_model,
    "is": intercept_slope_model,
    "biv": bivariate_model,
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def partition_subject(subject):
    """Index lists of observed and censored measurements, input order kept."""
    observed = [i for i, o in enumerate(subject.observations) if o.is_observed]
    censored = [i for i, o in enumerate(subject.observations) if not o.is_observed]
    return observed, censored


def build_designs(subject, spec):
    """Stack the per-observation design rows into X (n x p) and Z (n x q)."""
    x_rows, z_rows = [], []
    for obs in subject.observations:
        fr = tuple(spec.fixed_design(obs))
        zr = tuple(spec.random_design(obs))
        if len(fr) != spec.p or len(zr) != spec.q:
            raise DimensionError(
                f"design rule returned {len(fr)}/{len(zr)} entries, expected {spec.p}/{spec.q}"
            )
        x_rows.append(fr)
        z_rows.append(zr)
    return np.array(x_rows, dtype=float), np.array(z_rows, dtype=float)


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for the long format.

    The censoring indicator uses 1 for an observed value and 0 for a
    left-censored one.  Per-row detection limits come from ``threshold_col``
    when that column exists; otherwise ``default_threshold`` is applied to
    every row.
    """

    id_col: str = "id"
    time_col: str = "time"
    response_col: str = "y"
    observed_col: str = "obs"
    threshold_col: str = "limit"
    marker_col: str = "marker"
    covariate_cols: tuple = ()
    default_threshold: float | None = None


def _parse_float(text, name, line):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {line}: column {name!r} has non-numeric value {text!r}", row=line) from None


def read_long_csv(path, schema=CsvSchema()):
    """Read a long-format CSV into a Dataset, grouping rows by subject.

    Subjects appear in order of first appearance; within-subject row order is
    preserved.  Rows whose response is missing while marked observed are
    dropped with a warning.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for required in (schema.id_col, schema.time_col, schema.response_col, schema.observed_col):
            if required not in header:
                raise SchemaError(f"required column {required!r} not found in {path}")
        for cov in schema.covariate_cols:
            if cov not in header:
                raise SchemaError(f"covariate column {cov!r} not found in {path}")
        has_threshold = schema.threshold_col in header
        has_marker = schema.marker_col in header

        groups: dict = {}
        order = []
        for line_no, row in enumerate(reader, start=2):
            sid = row[schema.id_col]
            raw_y = (row[schema.response_col] or "").strip()
            raw_obs = (row[schema.observed_col] or "").strip()
            if raw_obs not in ("0", "1"):
                raise ParseError(
                    f"line {line_no}: censoring indicator must be 0 or 1, got {raw_obs!r}",
                    row=line_no,
                )
            is_observed = raw_obs == "1"
            time = _parse_float(row[schema.time_col], schema.time_col, line_no)

            threshold = math.nan
            if has_threshold:
                raw_thr = (row[schema.threshold_col] or "").strip()
                if raw_thr != "":
                    threshold = _parse_float(raw_thr, schema.threshold_col, line_no)
            if not math.isfinite(threshold) and schema.default_threshold is not None:
                threshold = float(schema.default_threshold)
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
                response = _parse_float(raw_y, schema.response_col, line_no)

            marker = 1
            if has_marker:
                raw_m = (row[schema.marker_col] or "").strip()
                if raw_m != "":
                    marker = int(_parse_float(raw_m, schema.marker_col, line_no))

            covs = tuple(
                _parse_float(row[c], c, line_no) for c in schema.covariate_cols
            )
            obs = Observation(
                subject_id=sid,
                time=time,
                response=response,
                is_observed=is_observed,
                threshold=threshold,
                marker=marker,
                covariates=covs,
            )
            if sid not in groups:
                groups[sid] = []
                order.append(sid)
            groups[sid].append(obs)

    if not order:
        raise SchemaError(f"{path} contains no data rows")
    subjects = tuple(SubjectData(subject_id=sid, observations=tuple(groups[sid])) for sid in order)
    return Dataset(subjects=subjects, column_names=tuple(schema.covariate_cols))


def write_long_csv(dataset, path, schema=CsvSchema()):
    """Write a Dataset back to the long format.

    Floats are written with the shortest round-tripping representation, so a
    write/read cycle reproduces values bit-for-bit.  Missing thresholds
    become empty cells.
    """
    header = [schema.id_col, schema.time_col, schema.response_col, schema.observed_col,
              schema.threshold_col, schema.marker_col, *dataset.column_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for subject in dataset.subjects:
            for o in subject.observations:
                thr = "" if not math.isfinite(o.threshold) else repr(o.threshold)
                writer.writerow(
                    [o.subject_id, repr(o.time), repr(o.response), int(o.is_observed),
                     thr, o.marker, *[repr(c) for c in o.covariates]]
                )
