import math

import numpy as np
import pytest

from censlmm.data import (
    CsvSchema,
    Dataset,
    Observation,
    SubjectData,
    bivariate_model,
    build_designs,
    intercept_slope_model,
    partition_subject,
    random_intercept_model,
    read_long_csv,
    write_long_csv,
)
from censlmm.errors import DimensionError, ParseError, SchemaError
from conftest import make_subject


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

    def test_subject_counts(self):
        s = make_subject("a", [0, 1, 2], [3.0, 2.0, 4.0], [1, 0, 1], threshold=2.5)
        assert (s.n_obs, s.n_cens, s.n_total) == (2, 1, 3)

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


class TestBuildDesigns:
    def test_intercept_slope_rows(self):
        spec = intercept_slope_model()
        s = make_subject("a", [2.0], [3.0], [1], 0.0)
        x, z = build_designs(s, spec)
        assert x.tolist() == [[1.0, 2.0]]
        assert z.tolist() == [[1.0, 2.0]]

    def test_intercept_only_rows(self):
        spec = random_intercept_model()
        s = make_subject("a", [7.5], [3.0], [1], 0.0)
        x, z = build_designs(s, spec)
        assert x.tolist() == [[1.0]]
        assert z.tolist() == [[1.0]]

    def test_bivariate_marker_padding(self):
        spec = bivariate_model()
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True, marker=2)
        s = SubjectData(subject_id="a", observations=(obs,))
        x, z = build_designs(s, spec)
        assert x.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert z.tolist() == [[0.0, 0.0, 1.0, 1.0]]

    def test_covariates_appended(self):
        spec = intercept_slope_model(covariates=("age",))
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True,
                          covariates=(34.0,))
        s = SubjectData(subject_id="a", observations=(obs,))
        x, z = build_designs(s, spec)
        assert x.tolist() == [[1.0, 1.0, 34.0]]
        assert z.shape == (1, 2)

    def test_short_covariates_dimension_error(self):
        spec = intercept_slope_model(covariates=("age",))
        obs = Observation(subject_id="a", time=1.0, response=2.0, is_observed=True)
        s = SubjectData(subject_id="a", observations=(obs,))
        with pytest.raises(DimensionError):
            build_designs(s, spec)

    def test_dimensions_on_random_subjects(self):
        rng = np.random.default_rng(4)
        spec = intercept_slope_model()
        for _ in range(10):
            n = int(rng.integers(1, 9))
            s = make_subject("a", rng.uniform(0, 4, n), rng.normal(3, 1, n),
                             np.ones(n, dtype=int), 0.0)
            x, z = build_designs(s, spec)
            assert x.shape == (n, spec.p)
            assert z.shape == (n, spec.q)


class TestReadLongCsv:
    def test_single_subject_no_censoring(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"],
                   [[1, t, 3.0 + 0.5 * t, 1] for t in range(5)])
        d = read_long_csv(path)
        assert d.n_subjects == 1
        assert d.subjects[0].n_obs == 5
        assert d.subjects[0].n_cens == 0

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
        d = read_long_csv(path, CsvSchema(default_threshold=2.5))
        assert d.subjects[0].observations[0].threshold == 2.5
        assert d.subjects[0].n_cens == 1

    def test_per_row_threshold_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs", "limit"],
                   [[1, 0, 1.7, 0, 1.7], [1, 1, 3.5, 1, 2.9]])
        d = read_long_csv(path)
        thresholds = [o.threshold for o in d.subjects[0].observations]
        assert thresholds == [1.7, 2.9]

    def test_missing_observed_response_dropped_with_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, "", 1], [1, 1, 3.5, 1]])
        with pytest.warns(UserWarning):
            d = read_long_csv(path)
        assert d.subjects[0].n_total == 1

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
        d = read_long_csv(path, CsvSchema(covariate_cols=("age",)))
        assert d.subjects[0].observations[0].covariates == (41.5,)
        assert d.column_names == ("age",)

    def test_missing_covariate_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["id", "time", "y", "obs"], [[1, 0, 3.0, 1]])
        with pytest.raises(SchemaError):
            read_long_csv(path, CsvSchema(covariate_cols=("age",)))


class TestRoundTrip:
    def test_write_read_identical(self, tmp_path, benchmark_dataset):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_long_csv(benchmark_dataset, p1)
        again = read_long_csv(p1)
        write_long_csv(again, p2)
        assert p1.read_text() == p2.read_text()
        for s1, s2 in zip(benchmark_dataset.subjects, again.subjects):
            assert s1.subject_id == s2.subject_id
            for o1, o2 in zip(s1.observations, s2.observations):
                assert o1.response == o2.response  # bit-equal after the text cycle
                assert o1.time == o2.time
                assert o1.is_observed == o2.is_observed
                assert o1.threshold == o2.threshold
