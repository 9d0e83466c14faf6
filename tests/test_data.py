import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbreg.data import (
    ColumnSpec,
    DataError,
    Dataset,
    RankDeficiencyError,
    encode_profile,
    load_csv,
    validate_full_rank,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = """y,dose,group
0,0.5,a
3,1.0,b
1,2.0,a
5,0.0,b
2,1.5,c
0,2.5,c
"""


class TestLoadCsv:
    def test_numeric_passthrough_with_intercept(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("dose")])
        assert ds.X.shape == (6, 2)
        assert np.all(ds.X[:, 0] == 1.0)
        np.testing.assert_allclose(ds.X[:, 1], [0.5, 1.0, 2.0, 0.0, 1.5, 2.5])
        assert ds.column_names == ("intercept", "dose")

    def test_n_defaults_to_max_y(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("dose")])
        assert ds.N == 5

    def test_n_override_upward_only(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("dose")], N=12)
        assert ds.N == 12
        with pytest.raises(DataError):
            load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("dose")], N=3)

    def test_categorical_dummy_coding(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("group", "categorical")])
        # first-appearance reference: 'a'; dummies for b, c in appearance order
        assert ds.column_names == ("intercept", "group=b", "group=c")
        assert ds.categorical_levels["group"] == ("a", "b", "c")
        np.testing.assert_allclose(ds.X[:, 1], [0, 1, 0, 1, 0, 0])
        np.testing.assert_allclose(ds.X[:, 2], [0, 0, 0, 0, 1, 1])

    def test_two_level_categorical_single_dummy(self, tmp_path):
        text = "y,photo\n0,8\n2,16\n1,8\n4,16\n"
        ds = load_csv(write(tmp_path, text), "y", [ColumnSpec("photo", "categorical")])
        assert ds.column_names == ("intercept", "photo=16")
        np.testing.assert_allclose(ds.X[:, 1], [0, 1, 0, 1])

    def test_reference_level_override(self, tmp_path):
        ds = load_csv(
            write(tmp_path, BASIC),
            "y",
            [ColumnSpec("group", "categorical", reference_level="b")],
        )
        assert ds.categorical_levels["group"] == ("b", "a", "c")
        assert ds.column_names == ("intercept", "group=a", "group=c")

    def test_unobserved_reference_rejected(self, tmp_path):
        with pytest.raises(DataError, match="never observed"):
            load_csv(
                write(tmp_path, BASIC),
                "y",
                [ColumnSpec("group", "categorical", reference_level="z")],
            )

    def test_dummy_row_sums_zero_or_one(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("group", "categorical")])
        sums = ds.X[:, 1:].sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}

    def test_missing_rows_dropped_with_count(self, tmp_path):
        text = "y,dose\n0,0.5\n,1.0\n2,\n3,2.0\n1,NA\n"
        ds = load_csv(write(tmp_path, text), "y", [ColumnSpec("dose")])
        assert ds.n == 2
        assert ds.n_dropped == 3

    def test_missing_column_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing covariate"):
            load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("nope")])
        with pytest.raises(DataError, match="missing response"):
            load_csv(write(tmp_path, BASIC), "z", [ColumnSpec("dose")])

    def test_negative_or_fractional_response_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(write(tmp_path, "y,x\n-1,0.5\n"), "y", [ColumnSpec("x")])
        with pytest.raises(DataError):
            load_csv(write(tmp_path, "y,x\n1.5,0.5\n"), "y", [ColumnSpec("x")])

    def test_integer_valued_float_response_accepted(self, tmp_path):
        ds = load_csv(write(tmp_path, "y,x\n3.0,0.5\n1,1.5\n"), "y", [ColumnSpec("x")])
        np.testing.assert_array_equal(ds.y, [3, 1])

    def test_single_level_categorical_rejected(self, tmp_path):
        text = "y,g\n0,a\n1,a\n2,a\n"
        with pytest.raises(DataError, match=">= 2 observed levels"):
            load_csv(write(tmp_path, text), "y", [ColumnSpec("g", "categorical")])


class TestFullRank:
    def test_duplicate_column_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 1))
        X = np.hstack([np.ones((10, 1)), x, x])
        with pytest.raises(RankDeficiencyError, match="dependent"):
            validate_full_rank(X, ["intercept", "a", "b"])

    def test_dummy_trap_detected(self, tmp_path):
        # all L levels one-hot plus intercept is exactly dependent
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=30)
        onehot = np.eye(3)[labels]
        X = np.hstack([np.ones((30, 1)), onehot])
        with pytest.raises(RankDeficiencyError):
            validate_full_rank(X, ["intercept", "g0", "g1", "g2"])

    def test_ok_design_passes(self):
        rng = np.random.default_rng(2)
        X = np.hstack([np.ones((20, 1)), rng.normal(size=(20, 2))])
        validate_full_rank(X)

    def test_constant_covariate_rejected_via_dataset(self):
        with pytest.raises(RankDeficiencyError):
            Dataset(
                y=np.array([0, 1, 2]),
                X=np.column_stack([np.ones(3), np.full(3, 7.0)]),
                column_names=("intercept", "const"),
                N=2,
            )

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(RankDeficiencyError):
            validate_full_rank(np.ones((2, 3)))


class TestDatasetInvariants:
    def test_intercept_column_enforced(self):
        with pytest.raises(DataError, match="identically 1"):
            Dataset(
                y=np.array([0, 1]),
                X=np.array([[2.0, 1.0], [1.0, 0.0]]),
                column_names=("intercept", "x"),
                N=1,
            )

    def test_intercept_free_design_allowed(self):
        ds = Dataset(
            y=np.array([0, 1, 2]),
            X=np.array([[0.5, 1.0], [1.5, -1.0], [-0.5, 2.0]]),
            column_names=("x1", "x2"),
            N=5,
            has_intercept=False,
        )
        assert ds.n_covariate_columns == 2

    def test_n_below_max_y_rejected(self):
        with pytest.raises(DataError, match="below max"):
            Dataset(
                y=np.array([0, 7]),
                X=np.column_stack([np.ones(2), [0.1, 0.9]]),
                column_names=("intercept", "x"),
                N=5,
            )

    def test_arrays_read_only(self):
        ds = Dataset(
            y=np.array([0, 1, 2]),
            X=np.column_stack([np.ones(3), [0.1, 0.9, 0.4]]),
            column_names=("intercept", "x"),
            N=2,
        )
        with pytest.raises(ValueError):
            ds.y[0] = 9
        with pytest.raises(ValueError):
            ds.X[0, 0] = 9.0


class TestDesignCells:
    def test_repeated_pairs_share_a_cell(self):
        X = np.column_stack([np.ones(7), [0, 1, 0, 1, 0, 0, 1]])
        y = np.array([2, 0, 2, 1, 2, 0, 0])
        ds = Dataset(y=y, X=X, column_names=("intercept", "g"), N=3)
        cells = ds.cells
        # first appearance: (0, 2), (1, 0), (1, 1), (0, 0)
        np.testing.assert_array_equal(cells.X[:, 1], [0, 1, 1, 0])
        np.testing.assert_array_equal(cells.y, [2, 0, 1, 0])
        np.testing.assert_array_equal(cells.counts, [3, 2, 1, 1])
        np.testing.assert_array_equal(cells.inverse, [0, 1, 0, 2, 0, 3, 1])
        np.testing.assert_array_equal(cells.X[cells.inverse], ds.X)
        np.testing.assert_array_equal(cells.y[cells.inverse], ds.y)
        assert ds.cells is cells
        for a in cells:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_continuous_design_keeps_every_row_in_order(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        ds = Dataset(y=rng.integers(0, 2, 40), X=X, column_names=("intercept", "x"), N=1)
        np.testing.assert_array_equal(ds.cells.X, ds.X)
        np.testing.assert_array_equal(ds.cells.y, ds.y)
        np.testing.assert_array_equal(ds.cells.counts, np.ones(40))
        np.testing.assert_array_equal(ds.cells.inverse, np.arange(40))


class TestDigestAndRoundTrip:
    def test_digest_pinned(self):
        # stored artifacts carry this hash; it must not change with the code
        ds = Dataset(
            y=np.array([0, 3, 1, 0]),
            X=np.array([[1.0, 0.5], [1.0, -1.25], [1.0, 0.1], [1.0, 2.0]]),
            column_names=("intercept", "x"),
            N=5,
        )
        assert ds.digest() == (
            "24c4c2909fc3a8d150d66203b056432371203b3fc1ff1ada084aa17ee8068324"
        )

    def test_digest_computed_once(self, tmp_path, monkeypatch):
        from fbreg import data

        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("dose")])
        calls = []
        sha256 = data.hashlib.sha256
        monkeypatch.setattr(
            data.hashlib, "sha256", lambda *a: calls.append(1) or sha256(*a)
        )
        first = ds.digest()
        assert all(ds.digest() == first for _ in range(3))
        assert len(calls) == 1

    def test_digest_stable_and_format_independent(self, tmp_path):
        ds1 = load_csv(write(tmp_path, BASIC, "a.csv"), "y", [ColumnSpec("dose")])
        spaced = BASIC.replace("0.5", "0.50").replace(",", " ,").replace(" ,", ",")
        ds2 = load_csv(write(tmp_path, spaced, "b.csv"), "y", [ColumnSpec("dose")])
        assert ds1.digest() == ds2.digest()

    def test_digest_excludes_n(self, tmp_path):
        ds1 = load_csv(write(tmp_path, BASIC, "a.csv"), "y", [ColumnSpec("dose")])
        ds2 = load_csv(write(tmp_path, BASIC, "b.csv"), "y", [ColumnSpec("dose")], N=20)
        assert ds1.digest() == ds2.digest()

    def test_digest_sensitive_to_values(self, tmp_path):
        ds1 = load_csv(write(tmp_path, BASIC, "a.csv"), "y", [ColumnSpec("dose")])
        ds2 = load_csv(
            write(tmp_path, BASIC.replace("0.5", "0.6"), "b.csv"), "y", [ColumnSpec("dose")]
        )
        assert ds1.digest() != ds2.digest()

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
                lambda v: abs(v) > 1e-6 or v == 0.0
            ),
            min_size=4,
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_csv_round_trip_bit_exact(self, tmp_path_factory, values):
        rng = np.random.default_rng(7)
        n = len(values)
        X = np.column_stack([np.ones(n), np.asarray(values), rng.normal(size=n)])
        try:
            ds = Dataset(
                y=rng.integers(0, 5, size=n),
                X=X,
                column_names=("intercept", "v", "z"),
                N=6,
            )
        except RankDeficiencyError:
            return  # degenerate draw, nothing to round-trip
        path = tmp_path_factory.mktemp("rt") / "out.csv"
        ds.to_csv(path)
        back = load_csv(path, "y", [ColumnSpec("v"), ColumnSpec("z")], N=6)
        np.testing.assert_array_equal(back.y, ds.y)
        assert np.array_equal(back.X, ds.X)

    def test_summary_fields(self, tmp_path):
        ds = load_csv(
            write(tmp_path, BASIC), "y", [ColumnSpec("dose"), ColumnSpec("group", "categorical")]
        )
        s = ds.summary()
        assert s == {
            "n": 6,
            "k": 3,
            "N": 5,
            "columns": ["intercept", "dose", "group=b", "group=c"],
            "dropped_rows": 0,
        }


class TestEncodeProfile:
    def test_numeric_and_categorical(self, tmp_path):
        ds = load_csv(
            write(tmp_path, BASIC), "y", [ColumnSpec("dose"), ColumnSpec("group", "categorical")]
        )
        row = encode_profile(ds, {"dose": 1.5, "group": "c"})
        np.testing.assert_allclose(row, [1.0, 1.5, 0.0, 1.0])
        row_ref = encode_profile(ds, {"dose": 0.0, "group": "a"})
        np.testing.assert_allclose(row_ref, [1.0, 0.0, 0.0, 0.0])

    def test_missing_covariate_rejected(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("dose")])
        with pytest.raises(DataError, match="profile missing"):
            encode_profile(ds, {})

    def test_unknown_level_rejected(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y", [ColumnSpec("group", "categorical")])
        with pytest.raises(DataError, match="not among observed"):
            encode_profile(ds, {"group": "zz"})
