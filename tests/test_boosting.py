import math

import numpy as np
import pytest

import oracles
from genefunnel import _kernels
from genefunnel.boosting import (HESS_FLOOR, BoostParams, BoostedEnsemble,
                                 TreeNode, fit, grad_hess, importances,
                                 leaf_weight, select_nonzero, split_gain)
from genefunnel.data import Dataset
from genefunnel.errors import ConfigError, ValidationError


def make_ds(x, labels=None):
    x = np.asarray(x, dtype=float)
    if labels is None:
        labels = np.arange(x.shape[0]) % 2
    return Dataset(x, np.asarray(labels),
                   tuple(f"g{i}" for i in range(x.shape[1])), ("a", "b"))


class TestParams:
    @pytest.mark.parametrize("name", ["learning_rate", "lam", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError):
            BoostParams(**{name: value})

    @pytest.mark.parametrize("kwargs", [
        {"n_estimators": 0},
        {"max_depth": 0},
        {"subsample": 0.0},
        {"subsample": 1.5},
        {"loss": "hinge"},
    ], ids=["no_trees", "depth_0", "subsample_0", "subsample_above_1",
            "unknown_loss"])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BoostParams(**kwargs)


class TestGradHess:
    def test_logistic_at_zero(self):
        g, h = grad_hess("logistic", 1.0, 0.0)
        assert g == pytest.approx(-0.5) and h == pytest.approx(0.25)

    def test_logistic_past_exp_range(self):
        # exp(-raw) overflows below raw of about -709.78; p is then 0
        assert grad_hess("logistic", 1.0, -800.0) == (-1.0, HESS_FLOOR)
        assert grad_hess("logistic", 0.0, -800.0) == (0.0, HESS_FLOOR)

    @staticmethod
    def scalar_rule(loss, y, r):
        """The per-sample rule: one math.exp, and p = 0 where it
        overflows."""
        if loss == "squared":
            return r - y, 1.0
        try:
            p = 1.0 / (1.0 + math.exp(-r))
        except OverflowError:
            p = 0.0
        return p - y, max(p * (1.0 - p), HESS_FLOOR)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_arrays_match_the_scalar_rule_bit_for_bit(self, loss):
        # a grid from -800 to 800 crossing +-709.78, where exp(-raw)
        # overflows, with the last finite point and its neighbours
        limit = 709.782712893384
        edge = np.array([limit, np.nextafter(limit, 0.0),
                         np.nextafter(limit, 1e3)])
        rng = np.random.default_rng(9)
        r = np.concatenate([np.linspace(-800.0, 800.0, 4001), edge, -edge,
                            rng.normal(0.0, 5.0, 501)])
        y = (np.arange(r.size) % 2).astype(float)
        if loss == "squared":
            y = y + rng.normal(size=r.size)
        want = [self.scalar_rule(loss, a, b)
                for a, b in zip(y.tolist(), r.tolist())]
        g, h = grad_hess(loss, y, r)
        assert g.tolist() == [w[0] for w in want]
        assert h.tolist() == [float(w[1]) for w in want]
        # any shape, and one float at a time
        g2, h2 = grad_hess(loss, y.reshape(-1, 2), r.reshape(-1, 2))
        assert g2.shape == h2.shape == (r.size // 2, 2)
        assert g2.ravel().tolist() == g.tolist()
        assert h2.ravel().tolist() == h.tolist()
        for i in range(0, r.size, 97):
            assert grad_hess(loss, y[i], r[i]) == want[i]

    def test_squared_zero_residual(self):
        assert grad_hess("squared", 2.0, 2.0) == (0.0, 1.0)

    def test_unknown_loss(self):
        with pytest.raises(ConfigError):
            grad_hess("absolute", 0.0, 0.0)

    @pytest.mark.parametrize("loss,loss_fn", [
        ("squared", oracles.squared_loss),
        ("logistic", oracles.logistic_loss),
    ])
    def test_matches_finite_differences(self, loss, loss_fn):
        ys = [0.0, 1.0] if loss == "logistic" else np.linspace(-2, 2, 10)
        for y in ys:
            for r in np.linspace(-3, 3, 10):
                g, h = grad_hess(loss, float(y), float(r))
                g_fd, h_fd = oracles.finite_diff_grads(loss_fn, float(y), float(r))
                assert g == pytest.approx(g_fd, abs=1e-6)
                assert h == pytest.approx(h_fd, abs=1e-4)


class TestLeafWeight:
    def test_closed_form(self):
        assert leaf_weight(4.0, 2.0, 1.0) == pytest.approx(-4.0 / 3.0)

    def test_zero_gradient(self):
        for h, lam in [(1.0, 0.0), (0.0, 2.0), (5.0, 5.0)]:
            assert leaf_weight(0.0, h, lam) == 0.0

    def test_degenerate(self):
        with pytest.raises(ValidationError):
            leaf_weight(1.0, 0.0, 0.0)

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = float(rng.normal(scale=3))
            h = float(rng.uniform(0.1, 5))
            lam = float(rng.uniform(0, 3))
            w_star, _ = oracles.leaf_objective(g, h, lam)
            assert leaf_weight(g, h, lam) == pytest.approx(w_star, abs=1e-6)

    def test_perturbation_never_improves(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = float(rng.normal(scale=3))
            h = float(rng.uniform(0.1, 5))
            lam = float(rng.uniform(0, 3))
            w = leaf_weight(g, h, lam)
            obj = lambda v: g * v + 0.5 * (h + lam) * v * v
            assert obj(w) <= obj(w + 1e-3) and obj(w) <= obj(w - 1e-3)


class TestSplitGain:
    def test_symmetric_case_returns_minus_gamma(self):
        # the bracket collapses exactly when lambda = 0
        for gamma in (0.0, 0.3, 2.0):
            assert split_gain(1.5, 2.0, 1.5, 2.0, 0.0, gamma) == pytest.approx(-gamma)

    def test_hand_computed(self):
        assert split_gain(-2, 1, 2, 1, 1.0, 0.0) == pytest.approx(2.0)

    def test_matches_objective_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            gl, gr = rng.normal(scale=3, size=2)
            hl, hr = rng.uniform(0.1, 4, size=2)
            lam = float(rng.uniform(0, 2))
            gamma = float(rng.uniform(0, 1))
            expect = oracles.split_gain_by_objective(gl, hl, gr, hr, lam, gamma)
            assert split_gain(gl, hl, gr, hr, lam, gamma) == pytest.approx(
                expect, abs=1e-9)


class TestFit:
    def test_depth1_stump_equals_child_means(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 7.0])
        ds = make_ds(x)
        params = BoostParams(n_estimators=1, max_depth=1, subsample=1.0,
                             learning_rate=1.0, lam=0.0, gamma=0.0,
                             loss="squared", seed=0)
        model = fit(ds, y, params)
        tree = model.trees[0][0]
        assert not tree.is_leaf
        base = y.mean()
        left = y[x[:, 0] <= tree.threshold]
        right = y[x[:, 0] > tree.threshold]
        assert tree.left.weight == pytest.approx(left.mean() - base)
        assert tree.right.weight == pytest.approx(right.mean() - base)
        # stump prediction is the least-squares child mean
        pred = oracles.ensemble_scores(model, x)[:, 0]
        for xi, pi in zip(x[:, 0], pred):
            group = left if xi <= tree.threshold else right
            assert pi == pytest.approx(group.mean())

    def test_separable_logistic_reaches_perfect_training_accuracy(
            self, separable_ds):
        params = BoostParams(n_estimators=20, max_depth=2, subsample=1.0,
                             loss="logistic", seed=0)
        model = fit(separable_ds, separable_ds.labels, params)
        assert (oracles.ensemble_labels(model, separable_ds.values)
                == separable_ds.labels).all()

    def test_matches_exhaustive_oracle_small_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(4, 11))
            n = int(rng.integers(1, 5))
            # Continuous values: duplicate-partition ties across features
            # (where float ordering is arbitrary) have probability zero.
            x = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            lam = float(rng.uniform(0, 2))
            ds = make_ds(x)
            params = BoostParams(n_estimators=1, max_depth=2, subsample=1.0,
                                 learning_rate=1.0, lam=lam, gamma=0.0,
                                 loss="squared", seed=0)
            model = fit(ds, y, params)
            g = np.full(m, y.mean()) - y
            h = np.ones(m)
            oracle = oracles.grow_tree_exhaustive(
                x, g, h, np.arange(m), 2, lam, 0.0)
            oracles.assert_same_tree(model.trees[0][0], oracle)

    def test_deterministic_with_subsampling(self, separable_ds):
        params = BoostParams(n_estimators=10, subsample=0.75, seed=5)
        a = fit(separable_ds, separable_ds.labels, params)
        b = fit(separable_ds, separable_ds.labels, params)
        assert a.trees == b.trees

    def test_training_loss_monotone_in_rounds(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        ds = make_ds(x)
        errors = []
        for t in (1, 3, 6, 10):
            params = BoostParams(n_estimators=t, max_depth=2, subsample=1.0,
                                 learning_rate=0.5, loss="squared", seed=0)
            raw = oracles.ensemble_scores(fit(ds, y, params), x)[:, 0]
            errors.append(((raw - y) ** 2).sum())
        for e1, e2 in zip(errors, errors[1:]):
            assert e2 <= e1 + 1e-12

    def test_constant_features_yield_single_leaf_trees(self):
        ds = make_ds(np.ones((6, 2)))
        params = BoostParams(n_estimators=2, subsample=1.0, loss="squared")
        model = fit(ds, np.array([1.0, 2.0] * 3), params)
        assert all(t.is_leaf for head in model.trees for t in head)

    def test_nan_rejected(self):
        x = np.ones((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            fit(make_ds(x), np.zeros(4), BoostParams(loss="squared"))

    def test_targets_must_align_with_samples(self, separable_ds):
        with pytest.raises(ValidationError, match="align"):
            fit(separable_ds, separable_ds.labels[:-1], BoostParams())

    @pytest.mark.parametrize("loss, n_classes, subsample", [
        ("squared", 0, 0.6), ("logistic", 2, 0.6), ("logistic", 3, 0.6),
        ("squared", 0, 1.0), ("logistic", 2, 1.0), ("logistic", 3, 1.0)],
        ids=["squared-0", "logistic-2", "logistic-3", "squared-0-all-rows",
             "logistic-2-all-rows", "logistic-3-all-rows"])
    def test_each_round_fits_the_scores_of_every_earlier_tree(
            self, loss, n_classes, subsample):
        # a subsampled round's gradients include rows that earlier rounds
        # left out, so each tree must reach the scores of every sample;
        # the reference walks the earlier trees from their roots. Every
        # tree takes its columns from the fit's one sort
        rng = np.random.default_rng(40 + n_classes)
        m, n_rounds = 12, 5
        x = rng.normal(size=(m, 3))
        labels = np.arange(m) % max(n_classes, 2)
        targets = rng.normal(size=m) if loss == "squared" else labels
        ds = Dataset(x, labels, ("g0", "g1", "g2"),
                     tuple(f"c{c}" for c in range(max(n_classes, 2))))
        params = BoostParams(n_estimators=n_rounds, max_depth=2,
                             subsample=subsample, learning_rate=0.5,
                             lam=0.5, loss=loss, seed=9)
        model = fit(ds, targets, params)
        assert len(model.trees) == (3 if n_classes == 3 else 1)
        if loss == "squared":
            y_heads = [targets]
        elif n_classes == 2:
            y_heads = [(labels == 1).astype(float)]
        else:
            y_heads = [(labels == c).astype(float) for c in range(3)]
        draws = np.random.default_rng(params.seed)
        for t in range(n_rounds):
            rows = (np.sort(draws.choice(m, size=round(0.6 * m),
                                         replace=False))
                    if subsample < 1.0 else np.arange(m))
            earlier = BoostedEnsemble(
                trees=[head[:t] for head in model.trees],
                base_score=model.base_score, params=params, n_genes=3,
                n_classes=model.n_classes)
            raw = oracles.ensemble_scores(earlier, x)
            for head, y in enumerate(y_heads):
                g, h = np.zeros(m), np.zeros(m)
                for i in rows:
                    g[i], h[i] = grad_hess(loss, y[i], raw[i, head])
                oracle = oracles.grow_tree_exhaustive(
                    x, g, h, rows, params.max_depth, params.lam, 0.0)
                oracles.assert_same_tree(model.trees[head][t], oracle)

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(8)
        labels = np.array([0, 1, 2] * 8)
        x = rng.normal(0, 0.2, size=(24, 4))
        x[:, 1] += labels * 3.0
        ds = Dataset(x, labels, tuple("abcd"), ("u", "v", "w"))
        params = BoostParams(n_estimators=15, subsample=1.0, seed=0)
        model = fit(ds, labels, params)
        assert len(model.trees) == 3
        assert (oracles.ensemble_labels(model, x) == labels).all()


class TestTieFlags:
    """``fit`` flags the features that hold a tie among all its rows,
    once per fit, and masks equal neighbours only in them; each tree's
    subsample keeps those flags, a superset of its own, and flagging
    every feature must grow the same trees."""

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_same_trees_as_every_feature_flagged(self, monkeypatch,
                                                 n_classes):
        rng = np.random.default_rng(30 + n_classes)
        m = 48
        labels = np.arange(m) % n_classes
        rng.shuffle(labels)
        # integer values: narrow ranges tie, permutations never do
        x = np.column_stack(
            [rng.integers(0, hi, size=m) + labels for hi in (2, 3, 5, 8)]
            + [rng.permutation(m) + 100 * labels for _ in range(3)])
        ds = Dataset(x.astype(float), labels,
                     tuple(f"g{i}" for i in range(x.shape[1])),
                     tuple(f"c{i}" for i in range(n_classes)))
        tied = _kernels.sort_columns(ds.values)[2]
        assert tied.any() and not tied.all()
        params = BoostParams(n_estimators=8, max_depth=3, subsample=0.75,
                             seed=n_classes)
        model = fit(ds, labels, params)

        sort_columns = _kernels.sort_columns

        def flag_every_feature(x):
            xs, order, tied = sort_columns(x)
            return xs, order, np.ones_like(tied)

        monkeypatch.setattr(_kernels, "sort_columns", flag_every_feature)
        assert fit(ds, labels, params).trees == model.trees
        assert len(model.trees) == (1 if n_classes == 2 else n_classes)


class TestOneSortPerFit:
    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("subsample", [0.6, 1.0])
    @pytest.mark.parametrize("n_estimators", [1, 5])
    def test_sort_columns_runs_once_per_fit(self, monkeypatch, n_classes,
                                            subsample, n_estimators):
        rng = np.random.default_rng(50 + n_classes)
        m = 30
        labels = np.arange(m) % n_classes
        x = rng.normal(size=(m, 6)) + labels[:, None]
        ds = Dataset(x, labels, tuple(f"g{i}" for i in range(6)),
                     tuple(f"c{i}" for i in range(n_classes)))
        params = BoostParams(n_estimators=n_estimators, max_depth=2,
                             subsample=subsample, seed=n_classes)
        sort_columns = _kernels.sort_columns
        calls = []

        def counted(x):
            calls.append(x.shape)
            return sort_columns(x)

        monkeypatch.setattr(_kernels, "sort_columns", counted)
        model = fit(ds, labels, params)
        assert calls == [x.shape]  # every row, once
        assert all(len(head) == n_estimators for head in model.trees)
        assert importances(model).total_gain.sum() > 0


class TestSplitSearchEntryPoint:
    def test_every_tree_scans_through_best_split(self, monkeypatch,
                                                  separable_ds):
        # the benchmark's tracer wraps _kernels.best_split by name, so
        # stage 1 must look it up there at every node
        params = BoostParams(n_estimators=6, max_depth=2, seed=3)
        expected = importances(fit(separable_ds, separable_ds.labels, params))
        best_split = _kernels.best_split
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return best_split(*args)

        monkeypatch.setattr(_kernels, "best_split", counted)
        got = importances(fit(separable_ds, separable_ds.labels, params))
        # each scan gets every gene's sorted column over the node's rows,
        # and each tree scans its root: all of its 15 subsampled rows
        assert {genes for genes, _ in calls} == {separable_ds.n_genes}
        assert [rows for _, rows in calls].count(15) == params.n_estimators
        assert got.total_gain.tobytes() == expected.total_gain.tobytes()
        assert np.array_equal(got.split_count, expected.split_count)
        assert np.array_equal(got.ranking, expected.ranking)


class TestImportances:
    def test_never_split_ensemble_is_identity_ranking(self):
        ds = make_ds(np.ones((6, 3)))
        params = BoostParams(n_estimators=1, subsample=1.0, loss="squared")
        model = fit(ds, np.array([1.0, 2.0] * 3), params)
        report = importances(model)
        assert (report.total_gain == 0).all()
        assert report.ranking.tolist() == [0, 1, 2]

    def test_single_split_attribution(self):
        tree = TreeNode(feature=5, threshold=0.0, gain=2.0,
                        left=TreeNode(weight=-1.0), right=TreeNode(weight=1.0))
        model = BoostedEnsemble(trees=[[tree]], base_score=np.array([0.0]),
                                params=BoostParams(), n_genes=8, n_classes=2)
        report = importances(model)
        assert report.total_gain[5] == 2.0
        assert report.total_gain.sum() == 2.0
        assert report.ranking[0] == 5

    def test_informative_gene_ranked_first(self, separable_ds):
        params = BoostParams(n_estimators=10, subsample=1.0, seed=0)
        model = fit(separable_ds, separable_ds.labels, params)
        report = importances(model)
        assert report.ranking[0] == 0 and report.total_gain[0] > 0

    def test_selected_genes_are_exactly_the_split_features(self, separable_ds):
        params = BoostParams(n_estimators=10, subsample=0.8, seed=3)
        model = fit(separable_ds, separable_ds.labels, params)
        report = importances(model)
        kept = set(select_nonzero(report).tolist())
        used = set()
        stack = [t for head in model.trees for t in head]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                used.add(node.feature)
                stack.extend((node.left, node.right))
        assert kept == used


class TestSelectNonzero:
    def make_report(self, gains):
        model = BoostedEnsemble(trees=[[]], base_score=np.array([0.0]),
                                params=BoostParams(), n_genes=len(gains),
                                n_classes=2)
        report = importances(model)
        object.__setattr__(report, "total_gain", np.asarray(gains, dtype=float))
        return report

    def test_threshold_at_zero(self):
        assert select_nonzero(
            self.make_report([0.0, 1.5, 0.0, 0.2])).tolist() == [1, 3]

    def test_all_zero_is_an_error(self):
        with pytest.raises(ValidationError):
            select_nonzero(self.make_report([0.0, 0.0]))
