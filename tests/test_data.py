"""Tests for dataset value types, CSV ingestion, alignment, and the pipeline's partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfkt import experiment, lkt
from vfkt.data import (
    DataError,
    FeatureMatrix,
    LabelVector,
    PartyState,
    load_csv,
    psi_intersect,
    standardize,
    standardize_columns,
    write_csv,
)
from vfkt.synthetic import SyntheticSpec


def _matrix(n=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        ids=tuple(f"s{i}" for i in range(n)),
        columns=tuple(f"c{j}" for j in range(d)),
        values=rng.normal(size=(n, d)),
    )


class TestFeatureMatrix:
    def test_values_frozen(self):
        m = _matrix()
        with pytest.raises(ValueError):
            m.values[0, 0] = 99.0

    def test_rejects_1d(self):
        with pytest.raises(DataError, match="2-D"):
            FeatureMatrix(ids=("a",), columns=("x",), values=np.ones(3))

    def test_rejects_misaligned_dims(self):
        with pytest.raises(DataError, match="dimensions"):
            FeatureMatrix(ids=("a", "b"), columns=("x",), values=np.ones((3, 1)))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            FeatureMatrix(ids=(), columns=(), values=np.empty((0, 0)))

    def test_rejects_duplicate_id(self):
        with pytest.raises(DataError, match="'a'"):
            FeatureMatrix(ids=("a", "a"), columns=("x",), values=np.ones((2, 1)))

    def test_rejects_duplicate_column(self):
        with pytest.raises(DataError, match="duplicate column name 'y'"):
            FeatureMatrix(ids=("a",), columns=("y", "x", "y"), values=np.ones((1, 3)))
        with pytest.raises(DataError, match="duplicate column name 'c1'"):
            _matrix().select_columns(["c1", "c0", "c1"])

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="NaN"):
            FeatureMatrix(ids=("a",), columns=("x",), values=np.array([[np.nan]]))

    def test_select_rows_reorders(self):
        m = _matrix(n=3)
        sub = m.select_rows([2, 0])
        assert sub.ids == ("s2", "s0")
        np.testing.assert_array_equal(sub.values, m.values[[2, 0]])
        assert sub.columns == m.columns

    def test_select_columns_reorders(self):
        m = _matrix(d=3)
        sub = m.select_columns(["c2", "c0"])
        assert sub.columns == ("c2", "c0")
        np.testing.assert_array_equal(sub.values, m.values[:, [2, 0]])

    def test_select_columns_unknown(self):
        with pytest.raises(DataError, match="nope"):
            _matrix().select_columns(["nope"])

    def test_shape_properties(self):
        m = _matrix(n=5, d=2)
        assert (m.n_rows, m.n_cols) == (5, 2)


class TestLabelVector:
    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="range"):
            LabelVector(ids=("a",), labels=np.array([2]), num_classes=2)

    def test_negative_rejected(self):
        with pytest.raises(DataError, match="range"):
            LabelVector(ids=("a",), labels=np.array([-1]), num_classes=2)

    def test_misaligned_rejected(self):
        with pytest.raises(DataError, match="misaligned"):
            LabelVector(ids=("a", "b"), labels=np.array([0]), num_classes=1)

    def test_select_rows(self):
        lv = LabelVector(ids=("a", "b", "c"), labels=np.array([0, 1, 0]), num_classes=2)
        sub = lv.select_rows([1, 2])
        assert sub.ids == ("b", "c")
        np.testing.assert_array_equal(sub.labels, [1, 0])
        assert sub.num_classes == 2


class TestPartyState:
    def test_data_party_with_labels_rejected(self):
        m = _matrix(n=2)
        lv = LabelVector(ids=m.ids, labels=np.array([0, 1]), num_classes=2)
        with pytest.raises(DataError, match="must not carry labels"):
            PartyState(party_id="d1", role="data", features=m, labels=lv)

    def test_unknown_role_rejected(self):
        with pytest.raises(DataError, match="role"):
            PartyState(party_id="p", role="server", features=_matrix())

    def test_label_id_mismatch_rejected(self):
        m = _matrix(n=2)
        lv = LabelVector(ids=("x", "y"), labels=np.array([0, 1]), num_classes=2)
        with pytest.raises(DataError, match="misaligned"):
            PartyState(party_id="t", role="task", features=m, labels=lv)

    def test_task_party_ok(self):
        m = _matrix(n=2)
        lv = LabelVector(ids=m.ids, labels=np.array([1, 0]), num_classes=2)
        p = PartyState(party_id="t", role="task", features=m, labels=lv)
        assert p.labels is lv


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        m = _matrix(n=6, d=4, seed=7)
        lv = LabelVector(ids=m.ids, labels=np.array([0, 1, 2, 0, 1, 2]), num_classes=3)
        path = tmp_path / "t.csv"
        write_csv(path, m, lv)
        m2, lv2 = load_csv(path, id_column="id", label_column="y")
        assert m2.ids == m.ids
        assert m2.columns == m.columns
        np.testing.assert_array_equal(m2.values, m.values)  # repr round trip is exact
        np.testing.assert_array_equal(lv2.labels, lv.labels)
        assert lv2.num_classes == 3

    def test_no_labels(self, tmp_path):
        m = _matrix(n=2)
        path = tmp_path / "t.csv"
        write_csv(path, m)
        m2, lv2 = load_csv(path, id_column="id")
        assert lv2 is None
        np.testing.assert_array_equal(m2.values, m.values)

    def test_labels_reencoded_densely(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x,y\na,1.0,7\nb,2.0,3\nc,3.0,7\n")
        _, lv = load_csv(path, id_column="id", label_column="y")
        # classes sorted by raw text: "3" -> 0, "7" -> 1
        np.testing.assert_array_equal(lv.labels, [1, 0, 1])
        assert lv.num_classes == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", id_column="id")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path, id_column="id")

    def test_missing_id_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pk,x\na,1.0\n")
        with pytest.raises(DataError, match="missing id column 'id'"):
            load_csv(path, id_column="id")

    def test_bad_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x\na,1.0\nb,oops\n")
        with pytest.raises(DataError, match=r":3: column 'x'.*'oops'"):
            load_csv(path, id_column="id")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x,y\na,1.0\n")
        with pytest.raises(DataError, match=":2: expected 3 cells, got 2"):
            load_csv(path, id_column="id")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x\na,1.0\na,2.0\n")
        with pytest.raises(DataError, match="duplicate sample id 'a'"):
            load_csv(path, id_column="id")

    def test_repeated_header_name_rejected(self, tmp_path):
        # select_columns would otherwise pick the first of the two silently
        path = tmp_path / "t.csv"
        path.write_text("id,x,y,x\na,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="duplicate column name 'x'"):
            load_csv(path, id_column="id")

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, id_column="id")


class TestPsi:
    def test_intersection_sorted_with_row_maps(self):
        task = ["p3", "p1", "p9", "p2"]
        data = ["p2", "p7", "p3"]
        ov = psi_intersect(task, data)
        assert ov.overlapping_ids == ("p2", "p3")
        assert ov.size == 2
        # row maps point back into the original (unsorted) tables
        assert [task[i] for i in ov.task_rows] == ["p2", "p3"]
        assert [data[i] for i in ov.data_rows] == ["p2", "p3"]

    def test_empty_intersection_allowed(self):
        ov = psi_intersect(["a"], ["b"])
        assert ov.size == 0

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            psi_intersect([], ["a"])

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="task side: 'a'"):
            psi_intersect(["a", "a"], ["b"])
        with pytest.raises(DataError, match="data side: 'b'"):
            psi_intersect(["a"], ["b", "b"])

    @settings(max_examples=25, deadline=None)
    @given(
        left=st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=12),
        right=st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=12),
    )
    def test_commutes_and_matches_set_intersection(self, left, right):
        a = psi_intersect(sorted(left), sorted(right))
        b = psi_intersect(sorted(right), sorted(left))
        assert a.overlapping_ids == b.overlapping_ids
        assert set(a.overlapping_ids) == left & right
        assert list(a.overlapping_ids) == sorted(a.overlapping_ids)


class TestSplitPartitions:
    """The pipeline's split of the task table: each pair trains on the rows
    it shares with the task party and transfers to the rows no data party
    holds."""

    def _dataset(self, shared):
        m = FeatureMatrix(ids=tuple(f"s{i:02d}" for i in range(30)),
                          columns=("c0", "c1", "c2"),
                          values=np.random.default_rng(1).normal(size=(30, 3)))
        lv = LabelVector(ids=m.ids, labels=np.arange(30) % 2, num_classes=2)
        task = PartyState(party_id="t", role="task", features=m, labels=lv)
        ids = tuple(shared) + ("zz",)
        party = PartyState(party_id="d", role="data", features=FeatureMatrix(
            ids=ids, columns=("d0", "d1"),
            values=np.random.default_rng(2).normal(size=(len(ids), 2))))
        return experiment.Dataset(task=task, data_parties=[party])

    def _run(self, monkeypatch, ds, **cfg):
        """One unitrans seed; returns what the pipeline handed to LKT training
        and to the downstream split, and the run's bus."""
        seen = {}
        train, split = lkt.lkt_train, experiment.stratified_split

        def lkt_train(h_t_ols, h_t_nl, *args, **kwargs):
            (h_t_ol,) = h_t_ols  # the one data party's pair
            seen.update(h_t_ol=h_t_ol, h_t_nl=h_t_nl)
            return train(h_t_ols, h_t_nl, *args, **kwargs)

        def stratified_split(labels, params, seed):
            seen["labels"] = labels
            return split(labels, params, seed)

        monkeypatch.setattr(lkt, "lkt_train", lkt_train)
        monkeypatch.setattr(experiment, "stratified_split", stratified_split)
        config = experiment.ExperimentConfig(
            synthetic=SyntheticSpec(),
            lkt=lkt.LktConfig(latent_dim=2, epochs=1, hidden_width=3, mine_hidden=(3, 3),
                              batch_size=8),
            downstream=experiment.DownstreamParams(n_seeds=1, epochs=5), **cfg)
        result = experiment.run_pipeline_once(config, "unitrans", ds, run_seed=0)
        return seen, result.bus

    def test_split_is_a_partition(self, monkeypatch):
        ds = self._dataset(["s03", "s01", "s17"])
        seen, _ = self._run(monkeypatch, ds)
        task = ds.task
        h_ol, h_nl = seen["h_t_ol"], seen["h_t_nl"]
        assert h_ol.ids == ("s01", "s03", "s17")
        assert set(h_nl.ids) == set(task.features.ids) - {"s01", "s03", "s17"}
        assert len(h_nl.ids) == 27
        # rows come from the original table untouched, labels aligned with them
        for part in (h_ol, h_nl):
            rows = [task.features.ids.index(sid) for sid in part.ids]
            np.testing.assert_array_equal(part.values, task.features.values[rows])
        np.testing.assert_array_equal(
            seen["labels"], [task.labels.labels[task.features.ids.index(sid)]
                             for sid in h_nl.ids])

    def test_column_schema_split(self, monkeypatch):
        ds = self._dataset(["s00", "s05", "s09", "s21"])
        seen, bus = self._run(monkeypatch, ds, ol_columns=("c0",), nl_columns=("c1", "c2"))
        assert seen["h_t_ol"].columns == ("c0",)
        assert seen["h_t_nl"].columns == ("c1", "c2")
        # the task party's FedSVD block is its one overlap column on 4 rows
        (task_keys,) = [r for r in bus.messages_of_kind("mask_keys") if r["to"] == "t"]
        assert task_keys["shape"] == [[4, 4], [1, 3]]

    def test_full_overlap_rejected(self, monkeypatch):
        ds = self._dataset([f"s{i:02d}" for i in range(30)])
        with pytest.raises(DataError, match="no non-overlapping samples"):
            self._run(monkeypatch, ds)


class TestStandardize:
    def test_zero_mean_unit_sample_std(self):
        m = _matrix(n=50, d=4, seed=2)
        z, stats = standardize(m)
        np.testing.assert_allclose(z.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.values.std(axis=0, ddof=1), 1.0, atol=1e-12)
        assert stats.constant_columns == ()

    def test_constant_column_zeroed_and_flagged(self):
        vals = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        m = FeatureMatrix(
            ids=tuple(f"s{i}" for i in range(5)), columns=("k", "x"), values=vals
        )
        z, stats = standardize(m)
        np.testing.assert_array_equal(z.values[:, 0], 0.0)
        assert stats.constant_columns == ("k",)
        assert stats.std[0] == 1.0

    def test_an_inexact_constant_column_is_zeroed(self):
        # three 0.1s average to 0.1 plus an ulp, so the shift alone leaves
        # -1.4e-17 in each row; the constant rule makes them exact zeros
        vals = np.column_stack([np.full(3, 0.1), [1.0, 2.0, 4.0]])
        out, mean, std, constant = standardize_columns(vals)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert constant.tolist() == [True, False]
        assert std[0] == 1.0
        z, stats = standardize(FeatureMatrix(ids=("a", "b", "c"), columns=("k", "x"),
                                             values=vals))
        np.testing.assert_array_equal(z.values, out)
        np.testing.assert_array_equal(stats.mean, mean)

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="at least 2 rows"):
            standardize(_matrix(n=1))

    def test_inverse_recovers_original(self):
        m = _matrix(n=20, d=3, seed=5)
        z, stats = standardize(m)
        np.testing.assert_allclose(z.values * stats.std + stats.mean, m.values, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 30), d=st.integers(1, 6))
    def test_idempotent(self, seed, n, d):
        m = _matrix(n=n, d=d, seed=seed)
        z1, _ = standardize(m)
        z2, _ = standardize(z1)
        np.testing.assert_allclose(z2.values, z1.values, atol=1e-12)
