import re

import numpy as np
import pytest

import oracles
from genefunnel.data import (Dataset, apply_minmax, impute_knn, load_csv,
                             make_folds, minmax_stats, normalize_minmax,
                             project)
from genefunnel.errors import ParseError, ValidationError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_first_appearance_label_mapping(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n3,4,B\n5,6,A\n")
        ds, mask = load_csv(path)
        assert ds.n_samples == 3 and ds.n_genes == 2 and ds.n_classes == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ("A", "B")
        assert not mask

    def test_missing_cell_recorded(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n,4,B\n")
        ds, mask = load_csv(path)
        assert mask == {(1, 0)}
        assert ds.values[1, 0] == 0.0  # provisional zero fill

    def test_missing_token_configurable(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,?,A\n3,4,B\n")
        _, mask = load_csv(path, missing_token="?")
        assert mask == {(0, 1)}

    def test_label_column_first(self, tmp_path):
        path = write(tmp_path, "label,g1,g2\nA,1,2\nB,3,4\n")
        ds, _ = load_csv(path, label_column="first")
        assert ds.gene_ids == ("g1", "g2")
        assert ds.values[0].tolist() == [1.0, 2.0]

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n3,B\n")
        with pytest.raises(ParseError, match=":3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,oops,A\n3,4,B\n")
        with pytest.raises(ParseError, match="oops"):
            load_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n3,4,A\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_colon_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        m, n = 62, 2000
        header = ",".join(f"g{j}" for j in range(n)) + ",label"
        lines = [header]
        for i in range(m):
            row = ",".join(f"{v:.4f}" for v in rng.normal(size=n))
            lines.append(row + "," + ("tumor" if i % 2 else "normal"))
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds, _ = load_csv(path)
        assert (ds.n_samples, ds.n_genes, ds.n_classes) == (62, 2000, 2)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"g1,g2,label\n1,\xff,A\n3,4,B\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        # the blank line still counts, so the bad row is on line 4
        path = write(tmp_path, f"g1,g2,label\n1,2,A\n\n3,{cell},B\n")
        with pytest.raises(ParseError, match=r"data\.csv:4: non-finite cell "
                                             r".* in column 'g2'"):
            load_csv(path)

    def test_nan_as_missing_token(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,nan,A\n3,4,B\n")
        ds, mask = load_csv(path, missing_token="nan")
        assert mask == {(0, 1)} and ds.values[0, 1] == 0.0

    def test_load_twice_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = ["g0,g1,g2,label"]
        for i in range(8):
            vals = [("" if (i, j) == (2, 1) else f"{rng.normal():.6f}")
                    for j in range(3)]
            lines.append(",".join(vals) + "," + "AB"[i % 2])
        path = write(tmp_path, "\n".join(lines) + "\n")
        first, m1 = load_csv(path)
        second, m2 = load_csv(path)
        a = normalize_minmax(impute_knn(first, m1, 3))
        b = normalize_minmax(impute_knn(second, m2, 3))
        np.testing.assert_array_equal(a.values, b.values)


class TestImputeKnn:
    def base(self):
        values = np.array([
            [1.0, 1.0, 0.0],
            [1.1, 0.0, 5.0],   # (1,1) missing
            [1.2, 3.0, 5.1],
            [9.0, 9.0, 9.0],
        ])
        labels = np.array([0, 0, 1, 1])
        return Dataset(values, labels, ("a", "b", "c"), ("x", "y"))

    def test_mean_of_nearest_neighbors(self):
        # neighbors 0 and 2 are nearest to sample 1; their column-1 values
        # are 1.0 and 3.0
        ds = self.base()
        out = impute_knn(ds, frozenset({(1, 1)}), n_neighbors=2)
        assert out.values[1, 1] == pytest.approx(2.0)

    def test_empty_mask_identity(self):
        ds = self.base()
        out = impute_knn(ds, frozenset(), n_neighbors=2)
        assert out is ds

    def test_non_missing_cells_bit_identical(self):
        ds = self.base()
        out = impute_knn(ds, frozenset({(1, 1)}), n_neighbors=2)
        expected = ds.values.copy()
        expected[1, 1] = out.values[1, 1]
        np.testing.assert_array_equal(out.values, expected)

    def test_matches_bruteforce_partial_distances(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, 4))
        mask = {(2, 1), (4, 3)}
        ds = Dataset(values, np.array([0, 1] * 3),
                     tuple("abcd"), ("x", "y"))
        out = impute_knn(ds, frozenset(mask), n_neighbors=2)

        n = 4
        observed = np.ones((6, n), dtype=bool)
        for (i, j) in mask:
            observed[i, j] = False
        for (i, j) in mask:
            dists = []
            for o in range(6):
                if o == i:
                    continue
                usable = observed[i] & observed[o]
                if not usable.any() or not observed[o, j]:
                    continue
                diff = values[i, usable] - values[o, usable]
                d = np.sqrt((diff @ diff) / (usable.sum() / n))
                dists.append((d, o))
            dists.sort()
            expect = np.mean([values[o, j] for _, o in dists[:2]])
            assert out.values[i, j] == pytest.approx(expect)

    def test_column_without_observations_rejected(self):
        ds = self.base()
        mask = frozenset({(i, 1) for i in range(4)})
        with pytest.raises(ValidationError):
            impute_knn(ds, mask, n_neighbors=2)


def _masked(values, missing):
    m, n = values.shape
    ds = Dataset(values, np.arange(m) % 2, tuple(f"g{j}" for j in range(n)),
                 ("x", "y"))
    return ds, frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(missing)))


class TestImputeKnnOracle:
    """The vectorised imputer against the per-pair reference loop
    (``oracles.impute_knn_loop``): imputed matrices must be bit-equal."""

    @staticmethod
    def check(ds, mask, n_neighbors):
        got = impute_knn(ds, mask, n_neighbors)
        want = oracles.impute_knn_loop(ds, mask, n_neighbors)
        assert got.values.tobytes() == want.values.tobytes()
        return got

    @pytest.mark.parametrize("seed, shape, frac, k", [
        (0, (12, 7), 0.15, 3), (1, (30, 40), 0.05, 5), (2, (25, 60), 0.3, 1),
        (3, (40, 9), 0.1, 10), (4, (9, 300), 0.02, 4)])
    def test_random_float_data(self, seed, shape, frac, k):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[1])
        ds, mask = _masked(values, rng.random(shape) < frac)
        self.check(ds, mask, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_integer_data(self, seed):
        # sums of small integers are exact in any order, so only the
        # lower-index tie rule separates the many equidistant donors
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 3, size=(24, 6)).astype(float)
        ds, mask = _masked(values, rng.random((24, 6)) < 0.2)
        for k in (1, 2, 5):
            self.check(ds, mask, k)

    def test_duplicated_rows(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 8))
        values = np.vstack([base, base, base[::-1]])
        missing = np.zeros(values.shape, dtype=bool)
        missing[[0, 5, 9], [1, 1, 6]] = True
        missing[4, 2] = True
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 2)
        # (0, 1) has two copies of sample 0 at distance 0: rows 4 and 11;
        # row 4 misses column 2 only, so both donate column 1
        assert out.values[0, 1] == base[0, 1]

    def test_no_usable_overlap_is_infinitely_far(self):
        values = np.array([
            [1.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 4.0],   # shares no observed column with row 0
            [1.5, 2.5, 3.5, 4.5],
            [9.0, 9.0, 9.0, 9.0],
        ])
        missing = np.array([[0, 0, 1, 1], [1, 1, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0]], dtype=bool)
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 3)
        # row 1 cannot donate to row 0, so (0, 2) averages rows 2 and 3
        assert out.values[0, 2] == (3.5 + 9.0) / 2

    def test_column_without_donors_falls_back_to_column_mean(self):
        nan = np.nan  # masked cells may hold anything, NaN included
        values = np.array([
            [1.0, nan, nan],
            [nan, 7.0, 2.0],   # the only observer of column 1; far from row 0
            [2.0, nan, 3.0],
            [4.0, nan, 5.0],
        ])
        ds, mask = _masked(values, np.isnan(values))
        out = self.check(ds, mask, 2)
        assert out.values[0, 1] == 7.0  # the column mean, not a donor mean
        assert out.values[2, 1] == 7.0  # row 1 donates via column 2

    def test_every_other_row_infinitely_far(self):
        values = np.array([[1.0, np.nan], [np.nan, 2.0], [np.nan, 4.0]])
        ds, mask = _masked(values, np.isnan(values))
        out = self.check(ds, mask, 2)
        assert out.values[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert out.values[0, 1] == 3.0

    def test_more_neighbors_than_donors(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(8, 5))
        ds, mask = _masked(values, rng.random((8, 5)) < 0.25)
        out = self.check(ds, mask, 50)
        i, j = min(mask)
        donors = [o for o in range(8) if (o, j) not in mask]
        assert out.values[i, j] == pytest.approx(values[donors, j].mean())

    def test_lowest_all_missing_column_is_named(self):
        values = np.ones((4, 5))
        missing = np.zeros((4, 5), dtype=bool)
        missing[:, [3, 1]] = True
        missing[0, 0] = True
        ds, mask = _masked(values, missing)
        with pytest.raises(ValidationError,
                           match="^gene column 1 has no observed values$"):
            impute_knn(ds, mask, 2)
        with pytest.raises(ValidationError,
                           match="^gene column 1 has no observed values$"):
            oracles.impute_knn_loop(ds, mask, 2)

    def test_out_of_bounds_coordinate(self):
        ds, _ = _masked(np.ones((4, 3)), np.zeros((4, 3), dtype=bool))
        for bad in [(4, 0), (0, 3), (-1, 1)]:
            with pytest.raises(ValidationError,
                               match=f"coordinate {re.escape(str(bad))} out"):
                impute_knn(ds, frozenset({(0, 0), bad}), 2)

    def test_bad_neighbor_count_with_empty_mask(self):
        ds, _ = _masked(np.ones((4, 3)), np.zeros((4, 3), dtype=bool))
        with pytest.raises(ValidationError, match="n_neighbors"):
            impute_knn(ds, frozenset(), 0)


class TestNormalize:
    def make(self, column):
        values = np.column_stack([column, np.arange(len(column), dtype=float)])
        labels = np.array([0, 1] * (len(column) // 2) + [0] * (len(column) % 2))
        return Dataset(values, labels, ("a", "b"), ("x", "y"))

    def test_linear_map(self):
        ds = normalize_minmax(self.make([2.0, 4.0, 6.0]))
        assert ds.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = normalize_minmax(self.make([5.0, 5.0, 5.0]))
        assert ds.values[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_negative_min(self):
        ds = normalize_minmax(self.make([-1.0, 0.0, 3.0]))
        assert ds.values[:, 0].tolist() == [0.0, 0.25, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(10, 5))
        values[:, 3] = 7.0
        ds = Dataset(values, np.array([0, 1] * 5), tuple("abcde"), ("x", "y"))
        once = normalize_minmax(ds)
        twice = normalize_minmax(once)
        np.testing.assert_array_equal(once.values, twice.values)
        assert once.values.min() >= 0.0 and once.values.max() <= 1.0

    def test_stats_replay_on_heldout(self):
        rng = np.random.default_rng(3)
        train = Dataset(rng.normal(size=(8, 3)), np.array([0, 1] * 4),
                        ("a", "b", "c"), ("x", "y"))
        held = Dataset(rng.normal(size=(4, 3)), np.array([0, 1, 0, 1]),
                       ("a", "b", "c"), ("x", "y"))
        mins, maxs = minmax_stats(train)
        out = apply_minmax(held, mins, maxs)
        np.testing.assert_allclose(out.values, (held.values - mins) / (maxs - mins))


class TestMakeFolds:
    def test_basic_stratification(self):
        plan = make_folds([0, 0, 1, 1], k=2, rounds=1, seed=0)
        for fold in plan.assignments[0]:
            labels = [0, 0, 1, 1]
            counts = [labels[i] for i in fold]
            assert sorted(counts) == [0, 1]

    def test_100_train_test_pairs(self):
        labels = [0, 1] * 30
        plan = make_folds(labels, k=10, rounds=10, seed=7)
        assert sum(1 for _ in plan.splits()) == 100

    def test_determinism(self):
        labels = [0, 1, 2] * 7
        a = make_folds(labels, k=3, rounds=4, seed=42)
        b = make_folds(labels, k=3, rounds=4, seed=42)
        assert a.assignments == b.assignments

    def test_partition_properties(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=29)
        labels[:3] = [0, 1, 2]
        plan = make_folds(labels, k=5, rounds=3, seed=1)
        for folds in plan.assignments:
            flat = [i for fold in folds for i in fold]
            assert sorted(flat) == list(range(29))
            # per-class counts across folds differ by at most 1
            for c in range(3):
                per_fold = [sum(1 for i in fold if labels[i] == c)
                            for fold in folds]
                assert max(per_fold) - min(per_fold) <= 1

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(ValidationError):
            make_folds([0, 1, 0], k=4, rounds=1, seed=0)


class TestProject:
    def make(self):
        values = np.arange(12, dtype=float).reshape(4, 3)
        return Dataset(values, np.array([0, 1, 0, 1]),
                       ("a", "b", "c"), ("x", "y"))

    def test_identity(self):
        ds = self.make()
        out = project(ds, [0, 1, 2])
        np.testing.assert_array_equal(out.values, ds.values)
        assert out.gene_ids == ds.gene_ids

    def test_single_column(self):
        out = project(self.make(), [0])
        assert out.n_genes == 1 and out.gene_ids == ("a",)

    def test_subset_count(self):
        rng = np.random.default_rng(0)
        big = Dataset(rng.normal(size=(5, 7129)), np.array([0, 1, 0, 1, 0]),
                      tuple(f"g{i}" for i in range(7129)), ("x", "y"))
        assert project(big, [1, 5, 10, 100, 1000, 5000, 7000]).n_genes == 7

    def test_restriction_consistency(self):
        ds = self.make()
        s1, union = [0, 2], [0, 1, 2]
        full = project(ds, union)
        small = project(ds, s1)
        np.testing.assert_array_equal(full.values[:, [0, 2]], small.values)

    def test_invalid_subsets(self):
        ds = self.make()
        with pytest.raises(ValidationError):
            project(ds, [])
        with pytest.raises(ValidationError):
            project(ds, [1, 1])
        with pytest.raises(ValidationError):
            project(ds, [0, 5])
