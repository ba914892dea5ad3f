import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from genefunnel import classifiers
from genefunnel.classifiers import ClassifierSpec, predict, train, train_many
from genefunnel.data import Dataset, make_folds
from genefunnel.errors import ConfigError, ValidationError
from genefunnel.pipeline import SynthSpec, generate_synth


def make_ds(x, labels):
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    c = int(labels.max()) + 1
    return Dataset(x, labels, tuple(f"g{i}" for i in range(x.shape[1])),
                   tuple(f"c{k}" for k in range(c)))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ClassifierSpec(kind="decision_tree")

    @pytest.mark.parametrize("kwargs", [
        {"knn_k": 0}, {"svm_c": 0.0}, {"svm_epochs": 0},
        {"nb_var_smoothing": -1.0}, {"svm_c": float("nan")},
        {"svm_c": float("inf")}, {"nb_var_smoothing": float("nan")},
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            ClassifierSpec(**kwargs)


class TestKnn:
    def test_k1_reproduces_training_labels(self, separable_ds):
        model = train(ClassifierSpec(kind="knn", knn_k=1), separable_ds)
        pred = predict(model, separable_ds.values)
        assert np.array_equal(pred, separable_ds.labels)

    def test_five_sample_query_matches_bruteforce(self):
        train_x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                            [3.0, 3.0], [3.0, 4.0]])
        labels = np.array([0, 0, 0, 1, 1])
        ds = make_ds(train_x, labels)
        query = np.array([[2.0, 2.0]])
        model = train(ClassifierSpec(kind="knn", knn_k=3), ds)
        got = predict(model, query)
        expect = oracles.knn_label_bruteforce(train_x, labels, query[0], 3, 2)
        assert got[0] == expect

    def test_random_queries_match_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(5, 15))
            n = int(rng.integers(1, 4))
            c = int(rng.integers(2, 4))
            labels = np.concatenate([np.arange(c),
                                     rng.integers(0, c, m - c)])
            x = rng.normal(size=(m, n))
            k = int(rng.integers(1, m + 1))
            ds = make_ds(x, labels)
            model = train(ClassifierSpec(kind="knn", knn_k=k), ds)
            queries = rng.normal(size=(5, n))
            got = predict(model, queries)
            for q, pred in zip(queries, got):
                assert pred == oracles.knn_label_bruteforce(
                    x, labels, q, k, c)

    def test_permutation_invariant_on_distinct_distances(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 3))
        labels = np.array([0, 1] * 6)
        queries = rng.normal(size=(6, 3))
        base = predict(train(ClassifierSpec(kind="knn", knn_k=3),
                             make_ds(x, labels)), queries)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(12)
            shuffled = predict(
                train(ClassifierSpec(kind="knn", knn_k=3),
                      make_ds(x[perm], labels[perm])), queries)
            assert np.array_equal(base, shuffled)

    def test_k_exceeds_samples(self, separable_ds):
        with pytest.raises(ValidationError):
            train(ClassifierSpec(kind="knn", knn_k=21), separable_ds)


class TestGaussianNb:
    def test_class_means_example(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]])
        labels = np.array([0, 0, 1, 1])
        model = train(ClassifierSpec(kind="gaussian_nb"), make_ds(x, labels))
        assert np.allclose(model.means, [[0.0, 0.5], [5.0, 5.5]])

    def test_variance_floor_positive(self):
        # constant gene: per-class variance is zero, must be floored > 0
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]])
        labels = np.array([0, 0, 1, 1])
        model = train(ClassifierSpec(kind="gaussian_nb"), make_ds(x, labels))
        assert np.all(model.variances > 0.0)

    def test_equidistant_tie_goes_to_class_zero(self):
        # symmetric classes around the origin, equal priors
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        model = train(ClassifierSpec(kind="gaussian_nb"), make_ds(x, labels))
        pred = predict(model, np.array([[0.0]]))
        assert pred[0] == 0

    def test_log_space_no_overflow_in_unit_range(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, size=(30, 8))
        labels = np.array([0, 1, 2] * 10)
        ds = make_ds(x, labels)
        model = train(ClassifierSpec(kind="gaussian_nb"), ds)
        pred = predict(model, ds.values)
        assert pred.shape == (30,) and set(pred) <= {0, 1, 2}

    def test_separates_obvious_classes(self, separable_ds):
        model = train(ClassifierSpec(kind="gaussian_nb"), separable_ds)
        pred = predict(model, separable_ds.values)
        assert np.mean(pred == separable_ds.labels) == 1.0


class TestLinearSvm:
    def test_separable_training_accuracy(self, separable_ds):
        model = train(ClassifierSpec(kind="linear_svm", svm_epochs=200),
                      separable_ds)
        pred = predict(model, separable_ds.values)
        assert np.mean(pred == separable_ds.labels) == 1.0

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(9)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        labels = np.array([0, 1, 2] * 10)
        x = centers[labels] + rng.normal(0.0, 0.3, size=(30, 2))
        ds = make_ds(x, labels)
        model = train(ClassifierSpec(kind="linear_svm"), ds)
        assert model.weights.shape == (3, 2)
        pred = predict(model, ds.values)
        assert np.mean(pred == labels) == 1.0

    def test_deterministic_given_seed(self, separable_ds):
        # training draws nothing at random: the same data, the same bits
        spec = ClassifierSpec(kind="linear_svm")
        a = train(spec, separable_ds)
        b = train(spec, separable_ds)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)


def fold_training_sets(ds, k, rounds, seed=0):
    """The training partitions of a stratified CV plan."""
    plan = make_folds(ds.labels, k, rounds, seed)
    return [Dataset(ds.values[tr], ds.labels[tr], ds.gene_ids,
                    ds.class_names) for _, _, tr, _ in plan.splits()]


def planted(m, n, c, seed):
    return generate_synth(SynthSpec(m_samples=m, n_genes=n, n_informative=n,
                                    n_classes=c, seed=seed)).dataset


def assert_optimal(spec, datasets, models):
    """Every head of every model minimizes its squared-hinge objective:
    the gradient is zero to within 1e-9 of ||w||, and the objective
    matches scipy's minimum."""
    assert len(models) == len(datasets)
    for ds, model in zip(datasets, models):
        heads = oracles.svm_heads(ds)
        assert model.weights.shape == (len(heads), ds.n_genes)
        for (x, y), w, b in zip(heads, model.weights, model.biases):
            w = np.append(w, b)
            args = (x, y, spec.svm_c)
            grad = oracles.squared_hinge_gradient(w, *args)
            assert np.linalg.norm(grad) <= 1e-9 * np.linalg.norm(w)
            best = minimize(oracles.squared_hinge_objective, np.zeros_like(w),
                            args=args, jac=oracles.squared_hinge_gradient,
                            method="L-BFGS-B",
                            options={"gtol": 1e-12, "ftol": 1e-15,
                                     "maxiter": 10000})
            assert oracles.squared_hinge_objective(w, *args) == pytest.approx(
                best.fun, rel=1e-9)


def assert_solo_bits(spec, datasets, models):
    """Every model holds the weights and biases of its set trained alone,
    bit for bit (tobytes also tells -0.0 from 0.0)."""
    assert len(models) == len(datasets)
    for ds, model in zip(datasets, models):
        solo = train(spec, ds)
        assert model.weights.tobytes() == solo.weights.tobytes()
        assert model.biases.tobytes() == solo.biases.tobytes()


# Two-sample problems of 7 and 20 genes, found by a random search for
# hinge margins within 2 ulp of 1.0 under the stochastic solver this
# module used before; with 2 rows they take the dual branch.
EDGE_PAIRS = [
    [[0.74439093604867, -0.9629655646595785, 0.41499113467435467,
      -0.9976006328263427, 0.006727931107328944, -0.12666589564869457,
      -0.5934943277708704],
     [-0.5618961874052479, 0.8863972826569163, -0.485162060287452,
      -0.4181024305041728, 0.39510986385325025, -0.06687496741273777,
      0.766729916262444]],
    [[0.4257805251331368, 0.6952487605090678, -0.19754850401473711,
      0.10650007958708185, -0.041024496478275774, 0.917045999598743,
      -0.36544431944656863, -0.19583094612446827, -0.9981604217782685,
      -0.15963093061373912, 0.26287221226458013, 0.8699221883733006,
      0.8473531695154692, -0.3453003733518043, 0.9777220512380385,
      -0.6246501195309624, 0.6465040360720631, -0.6854810258319108,
      -0.18980269427768093, -0.8530533763854449],
     [0.7240217837036615, 0.6705676169658631, -0.724107127548971,
      0.056199958628875356, -0.48448241311409185, 0.0006610159695155764,
      0.09959380217625861, -0.7911295772185847, 0.7101281329582343,
      -0.44558564646109294, -0.10084886722590324, -0.8692523944188739,
      -0.9787002523242225, -0.616123334583976, -0.2984079636331526,
      0.8445725480879154, 0.7915186063615919, -0.05178720201943814,
      -0.09402157145833187, 0.3180704022942671]],
]


class TestLinearSvmLockstep:
    """All heads of all training sets in one call, in Newton batches: each
    head reaches the optimum of its own objective, and each set gets the
    bits it gets when trained alone."""

    def test_single_problem(self, separable_ds):
        spec = ClassifierSpec(kind="linear_svm")
        assert_optimal(spec, [separable_ds], [train(spec, separable_ds)])

    def test_unequal_fold_sizes(self):
        # 57 samples in 10 folds: training sets of 51 and 52 rows, two
        # shapes and so two batches
        ds = planted(57, 4, 2, seed=1)
        sets = fold_training_sets(ds, 10, 2)
        assert len({s.n_samples for s in sets}) == 2
        spec = ClassifierSpec(kind="linear_svm")
        models = train_many(spec, sets)
        assert_optimal(spec, sets, models)
        assert_solo_bits(spec, sets, models)

    @pytest.mark.parametrize("c", [3, 4])
    def test_one_vs_rest_heads(self, c):
        ds = planted(10 * c + 1, 3, c, seed=c)
        sets = fold_training_sets(ds, 5, 1)
        spec = ClassifierSpec(kind="linear_svm", svm_c=0.5)
        models = train_many(spec, sets)
        assert all(m.weights.shape == (c, 3) for m in models)
        assert_optimal(spec, sets, models)

    def test_mixed_widths_and_classes_in_one_call(self):
        # binary and 3- and 4-class sets, primal and dual shapes, two sets
        # of one shape. Two steps stop most problems short of the optimum;
        # at svm_c=300 steps backtrack, each problem by its own halvings
        sets = [planted(30, 3, 2, seed=1), planted(25, 5, 3, seed=2),
                planted(31, 3, 2, seed=3), planted(24, 1, 4, seed=4),
                planted(28, 5, 2, seed=5), planted(30, 3, 2, seed=6),
                planted(20, 37, 4, seed=7)]
        sets += [make_ds(x, [0, 1]) for x in EDGE_PAIRS]
        for spec in (ClassifierSpec(kind="linear_svm", svm_epochs=2),
                     ClassifierSpec(kind="linear_svm"),
                     ClassifierSpec(kind="linear_svm", svm_c=300.0)):
            assert_solo_bits(spec, sets, train_many(spec, sets))

    def test_wide_problems(self):
        # 37 genes and 20 rows: the dual branch
        sets = fold_training_sets(planted(30, 37, 3, seed=11), 3, 1)
        spec = ClassifierSpec(kind="linear_svm")
        assert_optimal(spec, sets, train_many(spec, sets))

    @pytest.mark.parametrize("case", ["constant_gene", "duplicated_gene",
                                      "duplicated_rows"])
    @pytest.mark.parametrize("genes", [4, 30], ids=["primal", "dual"])
    def test_degenerate_data(self, case, genes):
        # each makes X'X or XX' singular; the identity term keeps the
        # Newton systems positive definite
        ds = planted(16, genes, 3, seed=genes)
        x, labels = ds.values.copy(), ds.labels
        if case == "constant_gene":
            x[:, 1] = 0.7
        elif case == "duplicated_gene":
            x[:, 2] = x[:, 0]
        else:
            x, labels = np.vstack([x, x[:8]]), np.concatenate(
                [labels, labels[:8]])
        sets = [make_ds(x, labels), make_ds(x[:, :3], labels)]
        spec = ClassifierSpec(kind="linear_svm")
        assert_optimal(spec, sets, train_many(spec, sets))

    def test_one_epoch(self):
        # svm_epochs caps the Newton steps. From w = 0 every row is active,
        # so the first step heads for the ridge solution of all rows,
        # (X'X + I/2c)^-1 X'y with the bias column in X, and takes a
        # power-of-two share of it
        sets = fold_training_sets(planted(40, 6, 3, seed=8), 4, 1)
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=1)
        capped, again = train_many(spec, sets), train_many(spec, sets)
        converged = train_many(ClassifierSpec(kind="linear_svm"), sets)
        for ds, a, b, best in zip(sets, capped, again, converged):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()
            assert np.any(a.weights != 0.0)
            assert not np.array_equal(a.weights, best.weights)
            for (x, y), w, bias in zip(oracles.svm_heads(ds), a.weights,
                                       a.biases):
                ridge = np.linalg.solve(x.T @ x + np.eye(x.shape[1]) / 2.0,
                                        x.T @ y)
                w = np.append(w, bias)
                share = (w @ ridge) / (ridge @ ridge)
                assert share == pytest.approx(2.0 ** round(np.log2(share)),
                                              rel=1e-9)
                np.testing.assert_allclose(w, share * ridge, rtol=1e-9)

    def test_small_chunk_budget(self, monkeypatch):
        # 4 folds of 3 heads, 29 or 30 rows, steps that backtrack: batches
        # of one problem each, then of at most 5, give the bits of the
        # whole batches
        sets = fold_training_sets(planted(39, 4, 3, seed=6), 4, 1)
        assert {s.n_samples for s in sets} == {29, 30}
        spec = ClassifierSpec(kind="linear_svm", svm_c=300.0)
        whole = train_many(spec, sets)
        for budget in (1, 5 * 8 * (2 * 30 * 5 + 5 * 5)):
            monkeypatch.setattr(classifiers, "_BATCH_BYTES", budget)
            for a, b in zip(whole, train_many(spec, sets)):
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.biases.tobytes() == b.biases.tobytes()

    def test_every_width_in_one_pass(self):
        # widths 1, 3 and 37, binary and 4-class, 16 to 23 rows: primal
        # and dual batches in one call
        sets = [planted(20, 1, 2, seed=1), planted(23, 3, 4, seed=2),
                planted(26, 37, 2, seed=3), planted(21, 37, 4, seed=4),
                planted(29, 3, 2, seed=5)]
        spec = ClassifierSpec(kind="linear_svm")
        models = train_many(spec, sets)
        assert_optimal(spec, sets, models)
        assert_solo_bits(spec, sets, models)

    def test_padding_is_never_read(self):
        # a batch holds one shape, so this 3-gene pair beside a 37-gene
        # set is never padded to 37 genes
        pair = make_ds([[-0.13010489554971594, 0.9483723865185107,
                         0.7953552162170976],
                        [3.3886395908843614, -1.059177628962313,
                         -0.06868199658785011]], [0, 1])
        sets = [pair, planted(20, 37, 2, seed=3)]
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=1)
        assert_solo_bits(spec, sets, train_many(spec, sets))

    def test_one_newton_batch_per_shape(self, monkeypatch):
        shapes = []
        newton = classifiers._newton

        def counted(x, y, c, max_steps):
            shapes.append(x.shape)
            return newton(x, y, c, max_steps)

        monkeypatch.setattr(classifiers, "_newton", counted)
        sets = [planted(20, 1, 2, seed=1), planted(23, 3, 4, seed=2),
                planted(26, 37, 2, seed=3), planted(21, 37, 4, seed=4),
                planted(23, 3, 2, seed=5)]
        # the binary 23 x 3 set joins the batch of the 4-class one's heads
        train_many(ClassifierSpec(kind="linear_svm", svm_epochs=1), sets)
        assert sorted(shapes) == [(1, 20, 2), (1, 26, 38), (4, 21, 38),
                                  (5, 23, 4)]

    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_no_training_sets(self, kind):
        assert train_many(ClassifierSpec(kind=kind), []) == []

    @pytest.mark.parametrize("kind", ["knn", "gaussian_nb"])
    def test_other_kinds_map_over_sets(self, kind):
        sets = fold_training_sets(planted(30, 4, 3, seed=9), 3, 1)
        spec = ClassifierSpec(kind=kind, knn_k=3)
        query = planted(12, 4, 3, seed=10).values
        for model, ds in zip(train_many(spec, sets), sets):
            assert np.array_equal(predict(model, query),
                                  predict(train(spec, ds), query))


class TestCommon:
    def test_dimension_mismatch_rejected(self, separable_ds):
        model = train(ClassifierSpec(kind="knn"), separable_ds)
        # a wrong gene count, and one sample as a 1-D vector
        for bad in (np.zeros((2, 5)), separable_ds.values[0]):
            with pytest.raises(ValidationError, match="model expects"):
                predict(model, bad)

    def test_every_class_must_appear(self):
        # Dataset construction itself enforces M >= C
        with pytest.raises(ValidationError):
            Dataset(np.zeros((1, 2)), np.array([0]), ("g0", "g1"),
                    ("c0", "c1"))

    @pytest.mark.parametrize("kind", ["knn", "gaussian_nb", "linear_svm"])
    def test_sanity_floor_on_planted_synthetic(self, kind):
        result = generate_synth(SynthSpec(m_samples=60, n_genes=30,
                                          n_informative=10, noise_sigma=0.5,
                                          seed=12))
        ds = result.dataset
        model = train(ClassifierSpec(kind=kind), ds)
        acc = float(np.mean(predict(model, ds.values) == ds.labels))
        c = ds.n_classes
        assert acc >= 1.0 - 1.0 / c
