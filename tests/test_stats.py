import math

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from genefunnel.classifiers import ClassifierSpec, predict, train
from genefunnel.data import Dataset, make_folds, project
from genefunnel.errors import ValidationError
from genefunnel.stats import (METRIC_NAMES, ConfusionMatrix, CvSummary,
                              cross_validate, fold_splits, metrics,
                              score_split, score_splits,
                              wilcoxon_signed_rank)


def make_ds(x, labels):
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    c = int(labels.max()) + 1
    return Dataset(x, labels, tuple(f"g{i}" for i in range(x.shape[1])),
                   tuple(f"c{k}" for k in range(c)))


class TestConfusion:
    """The one confusion counter, ``score_splits``'s bincount, seen
    through ``score_split``: 1-NN on two well-separated clusters
    predicts each held-out row's nearest cluster."""

    train_ds = make_ds([[0.0], [0.1], [10.0], [10.1]], [0, 0, 1, 1])
    spec = ClassifierSpec(kind="knn", knn_k=1)

    def test_identity(self):
        test_ds = make_ds([[0.05], [10.05], [9.9]], [0, 1, 1])
        assert (score_split(self.train_ds, test_ds, self.spec)
                == metrics(ConfusionMatrix(np.diag([1, 2]))))

    def test_all_misses_bucket(self):
        # a miss counts in its (actual, predicted) cell, not in the
        # transposed one, which would swap precision and recall
        test_ds = make_ds([[0.0], [0.05], [0.1], [10.0]], [0, 0, 1, 1])
        rep = score_split(self.train_ds, test_ds, self.spec)
        assert rep == metrics(ConfusionMatrix(np.array([[2, 0], [1, 1]])))
        assert rep.macro_precision != rep.macro_recall

    def test_equals_the_one_split_case_of_score_splits(self):
        rng = np.random.default_rng(3)
        labels = np.arange(30) % 3
        x = rng.normal(size=(30, 4)) + labels[:, None] * 0.5
        train_ds, test_ds = make_ds(x[:20], labels[:20]), make_ds(
            x[20:], labels[20:])
        for spec in (ClassifierSpec(kind="knn", knn_k=3),
                     ClassifierSpec(kind="gaussian_nb"),
                     ClassifierSpec(kind="linear_svm", svm_epochs=10)):
            summary = score_splits(spec, [(train_ds, test_ds.values,
                                           test_ds.labels)])
            assert score_split(train_ds, test_ds, spec) == (
                summary.fold_results[0])

    def test_out_of_range(self):
        # the held-out set has a third class the training set lacks
        test_ds = make_ds([[0.0], [10.0], [5.0]], [0, 1, 2])
        with pytest.raises(ValidationError, match="training class"):
            score_split(self.train_ds, test_ds, self.spec)


class TestMetrics:
    def test_binary_worked_example(self):
        # actual positives: TP=3, FN=1; actual negatives: FP=1, TN=5
        counts = np.array([[5, 1],   # class 0 = negative
                           [1, 3]])  # class 1 = positive
        rep = metrics(ConfusionMatrix(counts))
        assert rep.accuracy == pytest.approx(0.8)
        # positive class: P = R = F = 0.75; negative class: P = R = 5/6
        assert rep.macro_precision == pytest.approx((0.75 + 5 / 6) / 2)
        assert rep.macro_recall == pytest.approx((0.75 + 5 / 6) / 2)

    def test_diagonal_is_perfect(self):
        rep = metrics(ConfusionMatrix(np.diag([4, 2, 9])))
        assert (rep.accuracy, rep.macro_precision, rep.macro_recall,
                rep.macro_f_score) == (1.0, 1.0, 1.0, 1.0)

    def test_absent_class_contributes_zero(self):
        # class 2 never actual, never predicted -> P=R=F=0 for it
        counts = np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]])
        rep = metrics(ConfusionMatrix(counts))
        assert rep.accuracy == 1.0
        assert rep.macro_precision == pytest.approx(2 / 3)
        assert rep.macro_recall == pytest.approx(2 / 3)
        assert rep.macro_f_score == pytest.approx(2 / 3)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int)))

    def test_binary_agrees_with_direct_equations(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tn, fp, fn, tp = rng.integers(0, 20, 4)
            if tn + fp + fn + tp == 0:
                continue
            rep = metrics(ConfusionMatrix(np.array([[tn, fp], [fn, tp]])))
            total = tp + fp + tn + fn
            assert rep.accuracy == pytest.approx((tp + tn) / total,
                                                 abs=1e-12)
            p1 = tp / (tp + fp) if tp + fp else 0.0
            r1 = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p1 * r1 / (p1 + r1) if p1 + r1 else 0.0
            p0 = tn / (tn + fn) if tn + fn else 0.0
            r0 = tn / (tn + fp) if tn + fp else 0.0
            f0 = 2 * p0 * r0 / (p0 + r0) if p0 + r0 else 0.0
            assert rep.macro_precision == pytest.approx((p0 + p1) / 2,
                                                        abs=1e-12)
            assert rep.macro_recall == pytest.approx((r0 + r1) / 2,
                                                     abs=1e-12)
            assert rep.macro_f_score == pytest.approx((f0 + f1) / 2,
                                                      abs=1e-12)

    def test_f_between_min_and_max_of_p_r(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            counts = rng.integers(0, 10, (2, 2))
            if counts.sum() == 0:
                continue
            for k in range(2):
                tp = counts[k, k]
                fp = counts[:, k].sum() - tp
                fn = counts[k, :].sum() - tp
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                if p + r == 0:
                    continue
                f = 2 * p * r / (p + r)
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


class TestCrossValidate:
    def test_majority_base_rate(self):
        # constant features force gaussian_nb to the prior: with a 50/50
        # class balance and stratified folds every fold scores near 0.5
        rng = np.random.default_rng(4)
        m = 40
        labels = np.array([0, 1] * (m // 2))
        x = np.ones((m, 3)) + rng.normal(0, 1e-12, (m, 3))
        ds = make_ds(x, labels)
        plan = make_folds(labels, k=5, rounds=2, seed=0)
        summary = cross_validate((0, 1, 2), ds,
                                 ClassifierSpec(kind="gaussian_nb"), plan)
        assert abs(summary.means["accuracy"] - 0.5) < 0.15

    def test_perfect_knn_is_100_pm_0(self, separable_ds):
        plan = make_folds(separable_ds.labels, k=5, rounds=2, seed=1)
        summary = cross_validate((0,), separable_ds,
                                 ClassifierSpec(kind="knn", knn_k=3), plan)
        assert summary.means["accuracy"] == 1.0
        assert summary.stds["accuracy"] == 0.0
        assert len(summary.fold_results) == 10
        assert summary.skipped_folds == ()

    def test_mean_equals_pooled_accuracy_on_equal_folds(self, separable_ds):
        # 20 samples, k=4 -> every fold has exactly 5 samples
        plan = make_folds(separable_ds.labels, k=4, rounds=3, seed=2)
        spec = ClassifierSpec(kind="gaussian_nb")
        summary = cross_validate((0, 1, 2), separable_ds, spec, plan)
        correct = total = 0
        for r, f, train_idx, test_idx in plan.splits():
            sub_train = make_ds(separable_ds.values[train_idx],
                                separable_ds.labels[train_idx])
            sub_test = make_ds(separable_ds.values[test_idx],
                               separable_ds.labels[test_idx])
            rep = score_split(sub_train, sub_test, spec)
            correct += rep.accuracy * test_idx.size
            total += test_idx.size
        assert summary.means["accuracy"] == pytest.approx(correct / total)

    def test_skipped_fold_recorded(self):
        # class 1 is a singleton: whichever fold tests it leaves a
        # training partition with no class-1 sample
        labels = np.array([0] * 8 + [1])
        x = np.arange(18, dtype=float).reshape(9, 2)
        ds = make_ds(x, labels)
        plan = make_folds(labels, k=3, rounds=1, seed=0)
        skipped_expected = []
        for r, f, train_idx, test_idx in plan.splits():
            if np.unique(labels[train_idx]).size < 2:
                skipped_expected.append((r, f))
        assert skipped_expected, "fixture must produce a skipped fold"
        summary = cross_validate((0, 1), ds, ClassifierSpec(kind="knn",
                                                            knn_k=1), plan)
        assert summary.skipped_folds == tuple(skipped_expected)
        assert len(summary.fold_results) == 3 - len(skipped_expected)


def per_fold_summary(ds, subset, spec, plan):
    """The CvSummary of a plain loop: one train/predict per fold."""
    sub = project(ds, subset)
    results, skipped = [], []
    for r, f, train_idx, test_idx in plan.splits():
        if np.unique(sub.labels[train_idx]).size != sub.n_classes:
            skipped.append((r, f))
            continue
        model = train(spec, Dataset(sub.values[train_idx],
                                    sub.labels[train_idx], sub.gene_ids,
                                    sub.class_names))
        results.append(metrics(ConfusionMatrix(oracles.confusion_counts(
            sub.labels[test_idx], predict(model, sub.values[test_idx]),
            sub.n_classes))))
    return CvSummary(
        fold_results=tuple(results), skipped_folds=tuple(skipped),
        means={n: float(np.mean([getattr(x, n) for x in results]))
               for n in METRIC_NAMES},
        stds={n: float(np.std([getattr(x, n) for x in results]))
              for n in METRIC_NAMES})


class TestCrossValidateBatched:
    """Training every fold in one call gives the per-fold loop's summary."""

    @pytest.mark.parametrize("kind", ["linear_svm", "gaussian_nb", "knn"])
    @pytest.mark.parametrize("c", [2, 3])
    def test_matches_per_fold_loop(self, kind, c):
        rng = np.random.default_rng(c)
        m = 23 * c  # folds of unequal size
        labels = np.arange(m) % c
        x = rng.normal(size=(m, 6)) + labels[:, None] * 0.4
        ds = make_ds(x, labels)
        plan = make_folds(labels, k=5, rounds=2, seed=3)
        spec = ClassifierSpec(kind=kind, svm_epochs=20, knn_k=3)
        summary = cross_validate((0, 2, 5), ds, spec, plan)
        assert summary == per_fold_summary(ds, (0, 2, 5), spec, plan)

    def test_skipped_folds_match_per_fold_loop(self):
        labels = np.array([0] * 8 + [1] + [2] * 6)
        x = np.random.default_rng(2).normal(size=(15, 3))
        ds = make_ds(x, labels)
        plan = make_folds(labels, k=3, rounds=2, seed=0)
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=10)
        summary = cross_validate((0, 1), ds, spec, plan)
        assert summary.skipped_folds
        assert summary == per_fold_summary(ds, (0, 1), spec, plan)


class TestScoreSplitsCounts:
    """``score_splits`` counts every fold in one bincount and scores the
    folds together; each fold must get the bits of ``metrics`` over its
    own confusion counts, tallied pair by pair."""

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_fold_results_equal_per_fold_metrics(self, c):
        rng = np.random.default_rng(60 + c)
        m = 12 * c
        labels = np.arange(m) % c
        x = rng.normal(size=(m, 3)) + labels[:, None] * 0.3
        ds = make_ds(x, labels)
        splits = []
        for f in range(8):
            test = rng.random(m) < 0.2
            test[rng.integers(m)] = True
            # a held-out part without class 0, or one class only
            if f % 3 == 1:
                test &= labels != 0
            elif f % 3 == 2:
                test &= labels == f % c
            train_idx = np.flatnonzero(~test)
            splits.append((Dataset(x[train_idx], labels[train_idx],
                                   ds.gene_ids, ds.class_names),
                           x[test], labels[test]))
        assert any(np.unique(a).size < c for _, _, a in splits)
        spec = ClassifierSpec(kind="knn", knn_k=3)
        summary = score_splits(spec, splits)
        expected = tuple(
            metrics(ConfusionMatrix(oracles.confusion_counts(
                actual, predict(train(spec, train_ds), values), c)))
            for train_ds, values, actual in splits)
        assert summary.fold_results == expected

    def test_metrics_rejects_an_empty_matrix(self):
        with pytest.raises(ValidationError, match="empty"):
            metrics(ConfusionMatrix(np.zeros((3, 3), dtype=np.int64)))


class TestFoldSplits:
    def test_select_sees_training_rows_and_projects_both_parts(self):
        labels = np.array([0] * 8 + [1] + [2] * 6)
        x = np.random.default_rng(5).normal(size=(15, 4))
        ds = make_ds(x, labels)
        plan = make_folds(labels, k=3, rounds=2, seed=0)
        seen = {}

        def genes_of(r, f):
            return [(r + f) % 4, 3] if (r + f) % 4 < 3 else [3]

        def select(train_ds, r, f):
            seen[(r, f)] = train_ds.values
            return np.array(genes_of(r, f))

        splits, skipped = fold_splits(ds, plan, select)
        expected_skipped = [(r, f) for r, f, train_idx, _ in plan.splits()
                            if np.unique(labels[train_idx]).size < 3]
        assert skipped and skipped == expected_skipped
        scored = [s for s in plan.splits() if (s[0], s[1]) not in skipped]
        assert len(splits) == len(scored) == len(seen)
        for (r, f, train_idx, test_idx), split in zip(scored, splits):
            train_ds, values, actual = split
            genes = genes_of(r, f)
            np.testing.assert_array_equal(seen[(r, f)], x[train_idx])
            np.testing.assert_array_equal(train_ds.values,
                                          x[np.ix_(train_idx, genes)])
            np.testing.assert_array_equal(values, x[np.ix_(test_idx, genes)])
            np.testing.assert_array_equal(actual, labels[test_idx])
            assert train_ds.gene_ids == tuple(f"g{j}" for j in genes)


class TestWilcoxon:
    def test_all_positive_five_differences(self):
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
        assert res.w_statistic == 0.0
        assert res.p_value == pytest.approx(2 / 32)
        assert res.method == "exact"
        assert res.significant is False  # 0.0625 > 0.05

    def test_identical_samples_degenerate(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.degenerate is True
        assert res.p_value == 1.0
        assert res.significant is False

    def test_swap_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(y, x)
        assert a.w_statistic == b.w_statistic
        assert a.p_value == b.p_value

    def test_matches_scipy_exact_no_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(6, 16))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            ours = wilcoxon_signed_rank(x, y)
            ref = sps.wilcoxon(x, y, zero_method="wilcox", mode="exact")
            assert ours.w_statistic == pytest.approx(ref.statistic)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_exact_vs_normal_within_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = rng.normal(size=20)
            x = d
            y = np.zeros(20)
            exact = wilcoxon_signed_rank(x, y)
            assert exact.method == "exact"
            ranks = sps.rankdata(np.abs(d))
            w_plus = ranks[d > 0].sum()
            w_minus = ranks[d < 0].sum()
            w = min(w_plus, w_minus)
            mean = ranks.sum() / 2.0
            var = (ranks ** 2).sum() / 4.0
            z = (w - mean + 0.5) / math.sqrt(var)
            approx = min(1.0, math.erfc(-z / math.sqrt(2.0)))
            assert abs(exact.p_value - approx) <= 0.02

    def test_normal_approx_used_above_limit(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        res = wilcoxon_signed_rank(x, y)
        assert res.method == "normal_approx"
        ref = sps.wilcoxon(x, y, zero_method="wilcox", mode="approx",
                           correction=True)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_thirteen_fold_dominance_minimum_p(self):
        # 13 paired values, one side always better, no ties: the smallest
        # attainable two-sided exact p is 2 / 2^13
        x = np.arange(1.0, 14.0)
        y = np.zeros(13)
        res = wilcoxon_signed_rank(x, y)
        assert res.p_value == pytest.approx(2 / 2 ** 13)
        assert res.p_value == pytest.approx(0.000244, abs=5e-7)
        assert res.significant is True

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank([1.0, 2.0], [0.0])

    @pytest.mark.parametrize("x, y", [
        ([1, 2, 3, 4, 5, math.nan], [0] * 6),
        ([1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, math.inf]),
    ], ids=["nan_x", "inf_y"])
    def test_non_finite_input_rejected(self, x, y):
        # a NaN difference has no sign: ranked, it read as a sixth
        # difference in favour of neither side and gave p = 0.03125
        with pytest.raises(ValidationError, match="finite"):
            wilcoxon_signed_rank(x, y)
