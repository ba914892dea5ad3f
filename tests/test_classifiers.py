import numpy as np
import pytest

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
        model = train(ClassifierSpec(kind="linear_svm", svm_epochs=200,
                                     seed=0), separable_ds)
        pred = predict(model, separable_ds.values)
        assert np.mean(pred == separable_ds.labels) == 1.0

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(9)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        labels = np.array([0, 1, 2] * 10)
        x = centers[labels] + rng.normal(0.0, 0.3, size=(30, 2))
        ds = make_ds(x, labels)
        model = train(ClassifierSpec(kind="linear_svm", seed=1), ds)
        assert model.weights.shape == (3, 2)
        pred = predict(model, ds.values)
        assert np.mean(pred == labels) == 1.0

    def test_deterministic_given_seed(self, separable_ds):
        spec = ClassifierSpec(kind="linear_svm", seed=4)
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


def assert_matches_sequential(spec, datasets, models):
    """Every model holds the sequential oracle's weights and biases, bit
    for bit (tobytes also tells -0.0 from 0.0)."""
    assert len(models) == len(datasets)
    for ds, model in zip(datasets, models):
        weights, biases = oracles.linear_svm_sequential(spec, ds)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.biases.tobytes() == biases.tobytes()


# Two-sample problems found by a random search: with svm_epochs=1 and
# seed 0, the hinge margin of step 2 is 1.0 and 1.0 + 2 ulp.
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
    """The lockstep kernel against the one-problem-at-a-time Pegasos loop."""

    def test_single_problem(self, separable_ds):
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=30, seed=3)
        assert_matches_sequential(spec, [separable_ds],
                                  [train(spec, separable_ds)])

    def test_unequal_fold_sizes(self):
        # 57 samples in 10 folds: training sets of 51 and 52 rows
        ds = planted(57, 4, 2, seed=1)
        sets = fold_training_sets(ds, 10, 2)
        assert len({s.n_samples for s in sets}) == 2
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=15, seed=2)
        assert_matches_sequential(spec, sets, train_many(spec, sets))

    @pytest.mark.parametrize("c", [3, 4])
    def test_one_vs_rest_heads(self, c):
        ds = planted(10 * c + 1, 3, c, seed=c)
        sets = fold_training_sets(ds, 5, 1)
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=10, svm_c=0.5,
                              seed=7)
        models = train_many(spec, sets)
        assert all(m.weights.shape == (c, 3) for m in models)
        assert_matches_sequential(spec, sets, models)

    def test_mixed_widths_and_classes_in_one_call(self):
        sets = [planted(30, 3, 2, seed=1), planted(25, 5, 3, seed=2),
                planted(31, 3, 2, seed=3), planted(24, 1, 4, seed=4),
                planted(28, 5, 2, seed=5)]
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=12, seed=1)
        assert_matches_sequential(spec, sets, train_many(spec, sets))

    def test_wide_problems(self):
        # 37 genes: BLAS dot products run blocked, with fused multiply-adds,
        # so only the same dot routine as ``x @ w`` reproduces the bits
        sets = fold_training_sets(planted(30, 37, 3, seed=11), 3, 1)
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=5, seed=6)
        assert_matches_sequential(spec, sets, train_many(spec, sets))

    @pytest.mark.parametrize("x", EDGE_PAIRS, ids=["7_genes", "20_genes"])
    def test_margin_on_the_rounding_edge(self, x):
        # at step 2 the margin is within 2 ulp of 1.0, so a dot
        # product summed in another order than the BLAS dot of ``x @ w``
        # flips the hinge decision (a pairwise sum below 16 genes agrees
        # with it, hence the 20-gene pair)
        ds = make_ds(x, [0, 1])
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=1, seed=0)
        assert_matches_sequential(spec, [ds, ds], train_many(spec, [ds, ds]))

    def test_one_epoch(self):
        sets = fold_training_sets(planted(40, 6, 3, seed=8), 4, 1)
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=1, seed=5)
        assert_matches_sequential(spec, sets, train_many(spec, sets))

    def test_small_chunk_budget(self, monkeypatch):
        # 4 folds of 3 heads, 29 or 30 rows, 2 genes: 12 problems at
        # 8 * 12 * (3 * 2 + 8) bytes per step, so 6 steps per chunk, and
        # the 29-row problems finish inside a chunk (261 steps)
        sets = fold_training_sets(planted(39, 2, 3, seed=6), 4, 1)
        assert {s.n_samples for s in sets} == {29, 30}
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=9, seed=4)
        whole = train_many(spec, sets)
        monkeypatch.setattr(classifiers, "_CHUNK_BYTES",
                            7 * 8 * 12 * 12 + 5)
        chunked = train_many(spec, sets)
        assert_matches_sequential(spec, sets, chunked)
        for a, b in zip(whole, chunked):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()

    def test_every_width_in_one_pass(self, monkeypatch):
        # widths 1, 3 and 37 (a blocked BLAS dot), binary and 4-class, 20 to
        # 29 rows: 11 problems with Nmax = 37 at 8 * 11 * (3 * 37 + 8) bytes
        # per step, so 7 steps per chunk; with 3 epochs the 20-, 23- and
        # 26-row problems finish inside a chunk (60, 69 and 78 steps) and
        # then take no-op steps until step 87
        sets = [planted(20, 1, 2, seed=1), planted(23, 3, 4, seed=2),
                planted(26, 37, 2, seed=3), planted(21, 37, 4, seed=4),
                planted(29, 3, 2, seed=5)]
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=3, seed=8)
        whole = train_many(spec, sets)
        assert_matches_sequential(spec, sets, whole)
        monkeypatch.setattr(classifiers, "_CHUNK_BYTES",
                            7 * 8 * 11 * 119 + 5)
        chunked = train_many(spec, sets)
        assert_matches_sequential(spec, sets, chunked)
        for a, b in zip(whole, chunked):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()

    @pytest.mark.parametrize("chunk_steps", [1, 7])
    def test_reused_buffers_across_chunks(self, monkeypatch, chunk_steps):
        # widths 1, 3 and 37, binary, 3- and 4-class: 9 problems with
        # Nmax = 37 at 8 * 9 * (3 * 37 + 8) bytes per step. With 2 epochs
        # the 20-, 23- and 26-row problems run 40, 46 and 52 steps, so with
        # 7-step chunks they finish in three different chunks, and every
        # later chunk refills the buffers and must no-op them again
        sets = [planted(20, 3, 2, seed=1), planted(23, 1, 3, seed=2),
                planted(26, 37, 2, seed=3), planted(20, 37, 4, seed=4)]
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=2, seed=5)
        whole = train_many(spec, sets)
        monkeypatch.setattr(classifiers, "_CHUNK_BYTES",
                            chunk_steps * 8 * 9 * 119 + 5)
        chunked = train_many(spec, sets)
        assert_matches_sequential(spec, sets, chunked)
        for a, b in zip(whole, chunked):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()

    def test_padding_is_never_read(self):
        # at step 2 the margin of this 3-gene pair is 1.0 by the BLAS dot
        # of its 3 genes but 1.0 - 4 ulp by a dot over the same genes
        # zero-padded to the 37 of the other problem's block
        pair = make_ds([[-0.13010489554971594, 0.9483723865185107,
                         0.7953552162170976],
                        [3.3886395908843614, -1.059177628962313,
                         -0.06868199658785011]], [0, 1])
        sets = [pair, planted(20, 37, 2, seed=3)]
        spec = ClassifierSpec(kind="linear_svm", svm_epochs=1, seed=0)
        assert_matches_sequential(spec, sets, train_many(spec, sets))

    def test_one_pegasos_pass_per_call(self, monkeypatch):
        calls = []
        pegasos = classifiers._pegasos

        def counted(spec, datasets):
            calls.append(len(datasets))
            return pegasos(spec, datasets)

        monkeypatch.setattr(classifiers, "_pegasos", counted)
        sets = [planted(20, 1, 2, seed=1), planted(23, 3, 4, seed=2),
                planted(26, 37, 2, seed=3), planted(21, 37, 4, seed=4)]
        # one call holds the 4 sets, whose 1 + 4 + 1 + 4 heads make 10
        # problems
        train_many(ClassifierSpec(kind="linear_svm", svm_epochs=1), sets)
        assert calls == [4]

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
        model = train(ClassifierSpec(kind=kind, seed=0), ds)
        acc = float(np.mean(predict(model, ds.values) == ds.labels))
        c = ds.n_classes
        assert acc >= 1.0 - 1.0 / c
