import dataclasses
import math

import numpy as np
import pytest

from censlmm.data import (
    Dataset,
    ModelSpec,
    Observation,
    SubjectData,
    bivariate_model,
    design_matrices,
    intercept_slope_model,
    random_intercept_model,
    read_long_csv,
    write_long_csv,
)
from censlmm.errors import DimensionError, ParseError, SchemaError
from censlmm.likelihood import LikelihoodEvaluator
from conftest import make_subject, renamed
from oracles import design_rows, partition_subject


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


class TestDomainTypes:
    def test_observed_requires_finite_response(self):
        with pytest.raises(ValueError):
            Observation(subject_id="a", time=0.0, response=math.nan, is_observed=True)

    def test_censored_requires_finite_threshold(self):
        with pytest.raises(ValueError):
            Observation(subject_id="a", time=0.0, response=1.0, is_observed=False)

    @pytest.mark.parametrize("time,covariates,message", [
        (math.nan, (), "time is not finite"),
        (math.inf, (1.0,), "time is not finite"),
        (0.0, (1.0, -math.inf), "a covariate is not finite"),
        (0.0, (math.nan,), "a covariate is not finite"),
    ])
    def test_time_and_covariates_must_be_finite(self, time, covariates, message):
        with pytest.raises(ValueError, match=message):
            Observation(subject_id="a", time=time, response=1.0, is_observed=True,
                        covariates=covariates)

    def test_marker_below_one_names_its_subject(self):
        with pytest.raises(ValueError, match="subject a: marker stratum index is 1-based"):
            Observation(subject_id="a", time=0.0, response=1.0, is_observed=True, marker=0)

    def test_dataset_counts(self):
        s = make_subject("a", [0, 1, 2], [3.0, 2.0, 4.0], [1, 0, 1], threshold=2.5)
        d = Dataset(subjects=(s,))
        assert (d.n_subjects, d.n_rows, d.n_censored) == (1, 3, 1)

    def test_subject_id_mismatch_rejected(self):
        obs = Observation(subject_id="b", time=0.0, response=1.0, is_observed=True)
        with pytest.raises(ValueError):
            SubjectData(subject_id="a", observations=(obs,))

    def test_dataset_unique_ids(self):
        s = make_subject("a", [0], [1.0], [1], 0.0)
        with pytest.raises(ValueError):
            Dataset(subjects=(s, s))


class TestPartition:
    def test_all_observed(self):
        s = make_subject("a", range(3), [1.0, 2.0, 3.0], [1, 1, 1], 0.0)
        assert partition_subject(s) == ([0, 1, 2], [])

    def test_all_censored(self):
        s = make_subject("a", range(3), [1.0, 2.0, 3.0], [0, 0, 0], 5.0)
        assert partition_subject(s) == ([], [0, 1, 2])

    def test_mixed_flags(self):
        s = make_subject("a", range(5), [1.0] * 5, [1, 0, 1, 0, 0], 5.0)
        assert partition_subject(s) == ([0, 2], [1, 3, 4])

    def test_random_flags_partition_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            flags = rng.integers(0, 2, size=n)
            if flags.sum() == 0:
                flags[0] = 1  # keep at least the promise of variety
            s = make_subject("a", range(n), rng.normal(3, 1, n), flags, -10.0)
            obs, cens = partition_subject(s)
            assert sorted(obs + cens) == list(range(n))
            assert set(obs).isdisjoint(cens)


def _with_good_subject(subject, covariates=()):
    """A dataset of a valid subject "z" followed by ``subject``."""
    good = Observation(subject_id="z", time=0.0, response=1.0, is_observed=True,
                       covariates=covariates)
    return Dataset(subjects=(SubjectData(subject_id="z", observations=(good,)), subject))


def table_designs(subjects, spec):
    """X and Z of a dataset of ``subjects``, by design_matrices on its table."""
    t = Dataset(subjects=subjects).table
    return design_matrices(spec, t.time, t.marker, t.covariates, t.subject, t.ids)


class TestDesignMatrices:
    def test_intercept_slope_rows(self):
        spec = intercept_slope_model()
        s = make_subject("a", [2.0], [3.0], [1], 0.0)
        x, z = table_designs([s], spec)
        assert x.tolist() == [[1.0, 2.0]]
        assert z.tolist() == [[1.0, 2.0]]

    def test_intercept_only_rows(self):
        spec = random_intercept_model()
        s = make_subject("a", [7.5], [3.0], [1], 0.0)
        x, z = table_designs([s], spec)
        assert x.tolist() == [[1.0]]
        assert z.tolist() == [[1.0]]

    def test_bivariate_marker_padding(self):
        spec = bivariate_model()
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True, marker=2)
        s = SubjectData(subject_id="a", observations=(obs,))
        x, z = table_designs([s], spec)
        assert x.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert z.tolist() == [[0.0, 0.0, 1.0, 1.0]]

    def test_covariates_appended(self):
        spec = intercept_slope_model(covariates=("age",))
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True,
                          covariates=(34.0,))
        s = SubjectData(subject_id="a", observations=(obs,))
        x, z = table_designs([s], spec)
        assert x.tolist() == [[1.0, 1.0, 34.0]]
        assert z.shape == (1, 2)

    def test_short_covariates_dimension_error(self):
        spec = intercept_slope_model(covariates=("age",))
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True)
        s = SubjectData(subject_id="a", observations=(obs,))
        with pytest.raises(DimensionError, match="subject a: 0 covariates, 1 required"):
            table_designs([s], spec)
        with pytest.raises(DimensionError, match="subject a: 0 covariates, 1 required"):
            LikelihoodEvaluator(_with_good_subject(s, covariates=(34.0,)), spec)

    @pytest.mark.parametrize("template,marker", [
        (bivariate_model, 3),
        (intercept_slope_model, 2),
        (random_intercept_model, 2),
    ])
    def test_marker_beyond_the_template_names_its_subject(self, template, marker):
        spec = template()
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True, marker=marker)
        s = SubjectData(subject_id="a", observations=(obs,))
        with pytest.raises(DimensionError, match=f"subject a: marker {marker}"):
            table_designs([s], spec)
        with pytest.raises(DimensionError, match=f"subject a: marker {marker}"):
            LikelihoodEvaluator(_with_good_subject(s), spec)

    @pytest.mark.parametrize("covariates", [(), ("age", "dose")])
    @pytest.mark.parametrize("template", [random_intercept_model, intercept_slope_model,
                                          bivariate_model])
    def test_rows_match_the_per_row_oracle_byte_for_byte(self, template, covariates):
        spec = template(covariates=covariates)
        rng = np.random.default_rng(21)
        n = 200
        times = rng.uniform(-3.0, 5.0, n)
        times[:4] = (-0.0, 0.0, -3.0, 5.0)
        markers = np.concatenate([np.arange(1, spec.n_strata + 1),
                                  rng.integers(1, spec.n_strata + 1, n - spec.n_strata)])
        rows = [Observation(subject_id=str(i % 7), time=float(t), response=1.0, is_observed=True,
                            marker=int(m),
                            covariates=tuple(rng.normal(0.0, 10.0, int(rng.integers(2, 4)))))
                for i, (t, m) in enumerate(zip(times, markers))]
        subjects = [SubjectData(str(k), [o for o in rows if o.subject_id == str(k)])
                    for k in range(7)]
        x, z = table_designs(subjects, spec)
        x_ref, z_ref = design_rows([o for s in subjects for o in s.observations], spec)
        assert (x.dtype, x.shape) == (x_ref.dtype, x_ref.shape)
        assert (z.dtype, z.shape) == (z_ref.dtype, z_ref.shape)
        assert x.tobytes() == x_ref.tobytes()
        assert z.tobytes() == z_ref.tobytes()

    @pytest.mark.parametrize("template,covariates,p,q,n_strata,fixed_names,random_names", [
        (random_intercept_model, (), 1, 1, 1, ("intercept",), ("intercept",)),
        (random_intercept_model, ("age", "dose"), 3, 1, 1, ("intercept", "age", "dose"),
         ("intercept",)),
        (intercept_slope_model, (), 2, 2, 1, ("intercept", "slope"), ("intercept", "slope")),
        (intercept_slope_model, ("age", "dose"), 4, 2, 1, ("intercept", "slope", "age", "dose"),
         ("intercept", "slope")),
        (bivariate_model, (), 4, 4, 2, ("intercept_1", "slope_1", "intercept_2", "slope_2"),
         ("intercept_1", "slope_1", "intercept_2", "slope_2")),
        (bivariate_model, ("age", "dose"), 6, 4, 2,
         ("intercept_1", "slope_1", "intercept_2", "slope_2", "age", "dose"),
         ("intercept_1", "slope_1", "intercept_2", "slope_2")),
    ])
    def test_template_dimensions_and_names(self, template, covariates, p, q, n_strata,
                                           fixed_names, random_names):
        spec = template(covariates=covariates)
        assert (spec.p, spec.q, spec.n_strata) == (p, q, n_strata)
        assert spec.fixed_names == fixed_names
        assert spec.random_names == random_names

    def test_more_than_four_random_effects_rejected(self):
        with pytest.raises(ValueError, match="between 1 and 4 random effects"):
            ModelSpec(slope=True, n_strata=3)

    def test_dimensions_on_random_subjects(self):
        rng = np.random.default_rng(4)
        spec = intercept_slope_model()
        for _ in range(10):
            n = int(rng.integers(1, 9))
            s = make_subject("a", rng.uniform(0, 4, n), rng.normal(3, 1, n),
                             np.ones(n, dtype=int), 0.0)
            x, z = table_designs([s], spec)
            assert x.shape == (n, spec.p)
            assert z.shape == (n, spec.q)


def _two_marker_dataset():
    """Three subjects of two markers, with censored rows and two covariates per row."""
    def row(sid, time, marker, response, observed=True, threshold=math.nan, covariates=(1.0, 2.0)):
        return Observation(subject_id=sid, time=time, response=response, is_observed=observed,
                           threshold=threshold, marker=marker, covariates=covariates)

    return Dataset(subjects=(
        SubjectData("b", (row("b", 0.0, 1, 3.25), row("b", 0.5, 2, 9.0, False, 1.5, (0.1, -2.0)),
                          row("b", 1.0, 1, 2.0, False, 2.0))),
        SubjectData("a", (row("a", -1.0, 2, 4.75, threshold=0.5),)),
        SubjectData("c", (row("c", 2.0, 2, 0.125, covariates=(7.0, 8.0, 9.0)),
                          row("c", 3.0, 1, -1.0, False, -0.5))),
    ), column_names=("age", "dose"))


class TestTable:
    def test_columns_equal_a_per_row_read_bit_for_bit(self):
        d = _two_marker_dataset()
        rows = [o for s in d.subjects for o in s.observations]
        want = {
            "start": np.cumsum([0] + [len(s.observations) for s in d.subjects]),
            "subject": np.array([i for i, s in enumerate(d.subjects) for _ in s.observations]),
            "time": np.array([o.time for o in rows]),
            "y": np.array([o.response if o.is_observed else o.threshold for o in rows]),
            "observed": np.array([o.is_observed for o in rows]),
            "marker": np.array([o.marker for o in rows]),
        }
        t = d.table
        for name, column in want.items():
            got = getattr(t, name)
            assert (got.dtype, got.shape) == (column.dtype, column.shape), name
            assert got.tobytes() == column.tobytes(), name
        assert t.y.tolist() == [3.25, 1.5, 2.0, 4.75, 0.125, -0.5]
        assert t.ids == ("b", "a", "c")
        assert t.covariates == tuple(o.covariates for o in rows)
        assert t.count.tolist() == [1, 1, 1]
        assert (d.n_rows, d.n_censored) == (6, 3)

    def test_identical_subjects_are_one_subject_with_a_count(self):
        b, a, c = _two_marker_dataset().subjects

        def changed(subject, sid, i, **fields):
            """``subject`` under ``sid``, with row i's fields replaced."""
            rows = list(renamed(subject, sid).observations)
            rows[i] = dataclasses.replace(rows[i], **fields)
            return SubjectData(sid, rows)

        d = Dataset(subjects=(
            b, a, renamed(b, "b2"), c,
            # neither an observed row's limit nor a censored row's response is part of a row
            changed(a, "a2", 0, threshold=9.0),
            changed(b, "b3", 1, response=-3.0),
            # each of these differs from c in one part of one row
            changed(c, "c-cov", 0, covariates=(7.0, float(np.nextafter(8.0, 9.0)), 9.0)),
            changed(c, "c-short", 0, covariates=(7.0, 8.0)),
            changed(c, "c-marker", 1, marker=2),
            changed(c, "c-time", 1, time=-3.0),
            SubjectData("c-reversed", renamed(c, "c-reversed").observations[::-1]),
        ))
        t = d.table
        assert t.ids == ("b", "a", "c", "c-cov", "c-short", "c-marker", "c-time", "c-reversed")
        assert t.count.tolist() == [3, 2, 1, 1, 1, 1, 1, 1]
        assert t.start.tolist() == [0, 3, 4, 6, 8, 10, 12, 14, 16]
        assert t.subject.tolist() == np.repeat(np.arange(8), np.diff(t.start)).tolist()
        kept = [b, a, c, *d.subjects[6:]]
        assert t.time.tolist() == [o.time for s in kept for o in s.observations]
        assert t.covariates == tuple(o.covariates for s in kept for o in s.observations)
        # every input subject counts
        assert (d.n_subjects, d.n_rows, d.n_censored) == (11, 23, 12)

    def test_built_once_per_dataset(self):
        d = _two_marker_dataset()
        assert d.table is d.table
        other = dataclasses.replace(d, subjects=d.subjects[1:])
        assert other.table is not d.table
        assert other.table.ids == ("a", "c")
        assert other.table.start.tolist() == [0, 1, 3]
        assert d.table.ids == ("b", "a", "c")

    def test_a_list_given_later_changes_do_not_reach_the_table(self):
        s = make_subject("a", [0, 1], [3.0, 2.0], [1, 1], 0.0)
        subjects = [s]
        d = Dataset(subjects=subjects)
        observations = list(s.observations)
        d2 = Dataset(subjects=[SubjectData("a", observations)])
        subjects.append(make_subject("c", [0], [1.0], [1], 0.0))
        observations.pop()
        assert isinstance(d.subjects, tuple) and isinstance(d2.subjects[0].observations, tuple)
        assert d.table.ids == ("a",)
        assert d2.table.start.tolist() == [0, 2]

    def test_columns_are_read_only(self):
        t = _two_marker_dataset().table
        with pytest.raises(ValueError):
            t.y[0] = 0.0
        for name in ("start", "subject", "count", "time", "observed", "marker"):
            assert not getattr(t, name).flags.writeable

    def test_a_short_covariate_row_names_its_subject(self):
        d = _two_marker_dataset()
        bad = SubjectData("e", (dataclasses.replace(d.subjects[2].observations[0], subject_id="e"),
                                dataclasses.replace(d.subjects[2].observations[1], subject_id="e",
                                                    covariates=(1.0,))))
        d = dataclasses.replace(d, subjects=d.subjects + (bad,))
        spec = bivariate_model(covariates=("age", "dose"))
        t = d.table
        with pytest.raises(DimensionError, match="subject e: 1 covariates, 2 required"):
            design_matrices(spec, t.time, t.marker, t.covariates, t.subject, t.ids)
        with pytest.raises(DimensionError, match="subject e: 1 covariates, 2 required"):
            LikelihoodEvaluator(d, spec)


class TestReadLongCsv:
    def test_single_subject_no_censoring(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"],
                   [[1, t, 3.0 + 0.5 * t, 1] for t in range(5)])
        d = read_long_csv(path)
        assert (d.n_subjects, d.n_rows, d.n_censored) == (1, 5, 0)

    def test_benchmark_census(self, tmp_path, benchmark_dataset):
        # the benchmark simulation reproduces the canonical 38/250 censored split
        assert benchmark_dataset.n_rows == 250
        assert benchmark_dataset.n_censored == 38
        path = tmp_path / "bench.csv"
        write_long_csv(benchmark_dataset, path)
        again = read_long_csv(path)
        assert again.n_rows == 250
        assert again.n_censored == 38

    def test_missing_indicator_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y"], [[1, 0, 3.0]])
        with pytest.raises(SchemaError) as err:
            read_long_csv(path)
        assert "obs" in str(err.value)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, 3.0, 1], [1, "oops", 3.1, 1]])
        with pytest.raises(ParseError) as err:
            read_long_csv(path)
        assert err.value.row == 3

    @pytest.mark.parametrize("y,marker,message", [
        ("nan", 1, "observed response is not finite"),
        ("inf", 1, "observed response is not finite"),
        (2.0, 0, "marker stratum index is 1-based"),
        (2.0, 1.7, "is not an integer"),
        (2.0, "inf", "is not an integer"),
    ])
    def test_invalid_row_is_parse_error_naming_line(self, tmp_path, y, marker, message):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs", "marker"],
                   [[1, 0, 3.0, 1, 1], [1, 1, y, 1, marker]])
        with pytest.raises(ParseError, match=message) as err:
            read_long_csv(path)
        assert err.value.row == 3
        assert str(err.value).startswith("line 3: ")

    @pytest.mark.parametrize("time,age,message", [
        ("nan", 41.5, "time is not finite"),
        ("-inf", 41.5, "time is not finite"),
        (1, "inf", "a covariate is not finite"),
    ])
    def test_nonfinite_time_or_covariate_is_parse_error_naming_line(self, tmp_path, time, age,
                                                                     message):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs", "age"],
                   [[1, 0, 3.0, 1, 41.5], [1, time, 3.1, 1, age]])
        with pytest.raises(ParseError, match=f"^line 3: subject 1: {message}$") as err:
            read_long_csv(path, covariate_cols=("age",))
        assert err.value.row == 3

    def test_bad_indicator_value(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, 3.0, 2]])
        with pytest.raises(ParseError):
            read_long_csv(path)

    def test_censored_without_threshold(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, 2.5, 0]])
        with pytest.raises(SchemaError):
            read_long_csv(path)

    def test_global_default_threshold(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, 2.5, 0], [1, 1, 3.5, 1]])
        d = read_long_csv(path, default_threshold=2.5)
        assert d.subjects[0].observations[0].threshold == 2.5
        assert d.n_censored == 1

    def test_per_row_threshold_column(self, tmp_path):
        path = tmp_path / "d.csv"
        # a censored row with an empty response takes its limit as the response
        write_rows(path, ["id", "time", "y", "obs", "limit"],
                   [[1, 0, 1.7, 0, 1.7], [1, 1, 3.5, 1, 2.9], [1, 2, "", 0, 2.2]])
        d = read_long_csv(path)
        observations = d.subjects[0].observations
        assert [o.threshold for o in observations] == [1.7, 2.9, 2.2]
        assert [o.response for o in observations] == [1.7, 3.5, 2.2]

    def test_missing_observed_response_dropped_with_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, "", 1], [1, 1, 3.5, 1]])
        with pytest.warns(UserWarning):
            d = read_long_csv(path)
        assert d.n_rows == 1

    def test_subject_order_preserved(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"],
                   [["b", 0, 1.0, 1], ["a", 0, 2.0, 1], ["b", 1, 3.0, 1]])
        d = read_long_csv(path)
        assert [s.subject_id for s in d.subjects] == ["b", "a"]
        assert [o.time for o in d.subjects[0].observations] == [0.0, 1.0]

    def test_covariate_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs", "age"], [[1, 0, 3.0, 1, 41.5]])
        d = read_long_csv(path, covariate_cols=("age",))
        assert d.subjects[0].observations[0].covariates == (41.5,)
        assert d.column_names == ("age",)

    def test_missing_covariate_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, 3.0, 1]])
        with pytest.raises(SchemaError):
            read_long_csv(path, covariate_cols=("age",))


class TestRoundTrip:
    def test_write_read_identical(self, tmp_path, benchmark_dataset):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_long_csv(benchmark_dataset, p1)
        again = read_long_csv(p1)
        write_long_csv(again, p2)
        assert p1.read_text() == p2.read_text()
        assert p1.read_text().split("\n", 1)[0] == "id,time,y,obs,limit,marker"
        for s1, s2 in zip(benchmark_dataset.subjects, again.subjects):
            assert s1.subject_id == s2.subject_id
            for o1, o2 in zip(s1.observations, s2.observations):
                assert o1.response == o2.response  # bit-equal after the text cycle
                assert o1.time == o2.time
                assert o1.is_observed == o2.is_observed
                assert o1.threshold == o2.threshold
