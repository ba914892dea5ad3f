import dataclasses
import json

import numpy as np
import pytest

from genefunnel import boosting, classifiers, data, ga, pipeline, stats
from genefunnel.classifiers import ClassifierSpec
from genefunnel.cli import main
from genefunnel.data import Dataset, impute_knn, make_folds, project
from genefunnel.errors import PipelineError, ValidationError
from genefunnel.pipeline import (PipelineConfig, SynthSpec, generate_synth,
                                 report_from_json, report_to_json,
                                 report_to_markdown, run_pipeline,
                                 write_json_atomic)
from genefunnel.stats import (METRIC_NAMES, ConfusionMatrix, cross_validate,
                              score_split)


def small_config(seed=0, protocol="paper"):
    """Desk-sized settings so pipeline tests stay fast."""
    return PipelineConfig(
        boost=boosting.BoostParams(n_estimators=20, max_depth=2,
                                   subsample=1.0, seed=seed),
        ga=ga.GaConfig(population_size=20, iterations=8, seed=seed),
        eval_classifiers=(ClassifierSpec(kind="knn", knn_k=3),
                          ClassifierSpec(kind="gaussian_nb")),
        cv_k=5,
        cv_rounds=2,
        protocol=protocol,
        seed=seed,
    )


class TestSynth:
    def test_no_mask_by_default(self):
        result = generate_synth(SynthSpec(m_samples=20, n_genes=30,
                                          n_informative=5, seed=0))
        assert result.mask.shape == (0, 2)
        assert result.mask.dtype == np.int64
        assert result.dataset.values.shape == (20, 30)
        assert len(result.informative_genes) == 5

    def test_missing_fraction_masks_cells(self):
        spec = SynthSpec(m_samples=20, n_genes=30, n_informative=5,
                         missing_fraction=0.1, seed=1)
        result = generate_synth(spec)
        frac = len(result.mask) / (20 * 30)
        assert 0.03 <= frac <= 0.2
        assert all(0 <= i < 20 and 0 <= j < 30 for i, j in result.mask)
        # a read-only (K, 2) int64 array of distinct cells, row-major
        assert result.mask.dtype == np.int64
        assert not result.mask.flags.writeable
        assert (np.diff(result.mask @ [30, 1]) > 0).all()
        # masked dataset stays loadable through the imputer
        imputed = impute_knn(result.dataset, result.mask, n_neighbors=3)
        assert np.isfinite(imputed.values).all()

    def test_zero_noise_limit_perfectly_separable(self):
        spec = SynthSpec(m_samples=16, n_genes=10, n_informative=3,
                         noise_sigma=1e-12, seed=2)
        ds = generate_synth(spec).dataset
        j = generate_synth(spec).informative_genes[0]
        col = ds.values[:, j]
        # any informative gene alone separates: 1-NN LOO accuracy 1.0
        correct = 0
        for q in range(16):
            others = np.delete(np.arange(16), q)
            nearest = others[np.argmin(np.abs(col[others] - col[q]))]
            correct += ds.labels[nearest] == ds.labels[q]
        assert correct == 16

    def test_planted_genes_support_accurate_knn(self):
        result = generate_synth(SynthSpec(m_samples=60, n_genes=500,
                                          n_informative=10, noise_sigma=0.5,
                                          seed=3))
        ds = result.dataset
        cols = ds.values[:, list(result.informative_genes)]
        correct = 0
        for q in range(60):
            others = np.delete(np.arange(60), q)
            d = ((cols[others] - cols[q]) ** 2).sum(axis=1)
            correct += ds.labels[others[np.argmin(d)]] == ds.labels[q]
        assert correct / 60 >= 0.95

    def test_balanced_labels(self):
        ds = generate_synth(SynthSpec(m_samples=30, n_genes=10,
                                      n_informative=2, n_classes=3,
                                      seed=4)).dataset
        assert np.bincount(ds.labels).tolist() == [10, 10, 10]

    def test_deterministic(self):
        spec = SynthSpec(m_samples=20, n_genes=30, n_informative=5, seed=5)
        a = generate_synth(spec)
        b = generate_synth(spec)
        assert np.array_equal(a.dataset.values, b.dataset.values)
        assert a.informative_genes == b.informative_genes

    @pytest.mark.parametrize("kwargs", [
        {"n_informative": 31, "n_genes": 30},
        {"missing_fraction": 1.0},
        {"n_classes": 1},
        {"m_samples": 3},
        {"noise_sigma": float("nan")},
        {"noise_sigma": float("inf")},
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValidationError):
            SynthSpec(**{"m_samples": 20, "n_genes": 30,
                         "n_informative": 5, **kwargs})


@pytest.mark.parametrize("kwargs, message", [
    ({"protocol": "holdout"}, "unknown protocol 'holdout'"),
    ({"cv_k": 1}, "cv_k >= 2"),
    ({"cv_rounds": 0}, "cv_rounds >= 1"),
    ({"impute_neighbors": 0}, r"n_neighbors\) must be >= 1, got 0"),
    ({"eval_classifiers": ()}, r"--classifiers\) must name one or more"),
    ({"eval_classifiers": (ClassifierSpec(kind="knn"),
                           ClassifierSpec(kind="knn", knn_k=1))},
     r"each once; got \['knn', 'knn'\]"),
], ids=["unknown_protocol", "cv_k_below_2", "no_cv_rounds",
        "no_impute_neighbors", "no_classifiers", "repeated_kind"])
def test_invalid_pipeline_config(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def planted():
    return generate_synth(SynthSpec(m_samples=40, n_genes=60,
                                    n_informative=6, noise_sigma=0.5,
                                    seed=11))


@pytest.fixture(scope="module")
def report(planted):
    return run_pipeline(planted.dataset, small_config(seed=11))


@pytest.fixture(scope="module")
def small_report():
    res = generate_synth(SynthSpec(m_samples=24, n_genes=30,
                                   n_informative=4, noise_sigma=0.5,
                                   seed=6))
    return run_pipeline(res.dataset, small_config(seed=6))


class TestRunPipeline:
    def test_funnel_containment(self, report):
        assert set(report.final_genes) <= set(report.stage1_genes)
        assert len(report.final_genes) <= report.n_stage1 <= report.n_genes
        assert report.final_ids == [f"g{j:05d}" for j in report.final_genes]

    def test_runtimes_recorded(self, report):
        assert set(report.runtimes) == {"stage1", "stage2", "evaluation"}
        assert all(v >= 0 for v in report.runtimes.values())

    def test_summaries_present(self, report):
        assert set(report.summaries) == {"knn", "gaussian_nb"}
        for summary in report.summaries.values():
            assert 0.0 <= summary.means["accuracy"] <= 1.0

    def test_deterministic_reports(self, planted):
        a = run_pipeline(planted.dataset, small_config(seed=11))
        b = run_pipeline(planted.dataset, small_config(seed=11))
        assert (report_to_json(a, include_timings=False)
                == report_to_json(b, include_timings=False))

    def test_selection_beats_all_genes_baseline(self, planted, report):
        ds = planted.dataset
        plan = make_folds(ds.labels, 5, 2, 11)
        spec = ClassifierSpec(kind="knn", knn_k=3)
        baseline = cross_validate(tuple(range(ds.n_genes)), ds, spec, plan)
        selected = cross_validate(tuple(report.final_genes), ds, spec, plan)
        assert (selected.means["accuracy"]
                >= baseline.means["accuracy"] - 1e-12)

    def test_nested_protocol_runs(self, planted):
        cfg = PipelineConfig(
            boost=boosting.BoostParams(n_estimators=10, max_depth=2,
                                       subsample=1.0, seed=1),
            ga=ga.GaConfig(population_size=10, iterations=3, seed=1),
            eval_classifiers=(ClassifierSpec(kind="knn", knn_k=3),),
            cv_k=4, cv_rounds=1, protocol="nested", seed=1)
        report = run_pipeline(planted.dataset, cfg)
        assert report.protocol == "nested"
        assert len(report.summaries["knn"].fold_results) == 4
        assert 0.0 <= report.summaries["knn"].means["accuracy"] <= 1.0

    def test_nested_is_unbiased_on_null_data(self):
        """On data where no gene carries signal, ``nested`` scores near
        chance over 20 seeds, while ``paper``, which selects on all rows
        before it cross-validates, scores well above it (selection bias:
        Ambroise & McLachlan, PNAS 2002)."""
        accuracy = {"paper": [], "nested": []}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 100))
            labels = rng.permutation(np.arange(40) % 2)
            ds = data.normalize_minmax(Dataset(
                x, labels, tuple(f"g{j}" for j in range(100)), ("a", "b")))
            for protocol in accuracy:
                cfg = PipelineConfig(
                    boost=boosting.BoostParams(n_estimators=20, max_depth=2,
                                               seed=seed),
                    ga=ga.GaConfig(population_size=20, iterations=10,
                                   seed=seed),
                    eval_classifiers=(ClassifierSpec(kind="knn", knn_k=3),
                                      ClassifierSpec(kind="gaussian_nb")),
                    cv_k=5, cv_rounds=1, protocol=protocol, seed=seed)
                summaries = run_pipeline(ds, cfg).summaries
                accuracy[protocol].append(
                    [summaries[kind].means["accuracy"]
                     for kind in ("knn", "gaussian_nb")])
        nested = np.mean(accuracy["nested"], axis=0)
        paper = np.mean(accuracy["paper"], axis=0)
        assert ((0.40 <= nested) & (nested <= 0.62)).all(), nested
        assert (paper > 0.62).all(), paper

    def test_label_independent_data_raises(self):
        rng = np.random.default_rng(0)
        from genefunnel.data import Dataset
        # constant features carry no signal: stage 1 keeps nothing
        x = np.ones((20, 5))
        labels = np.array([0, 1] * 10)
        ds = Dataset(x, labels, tuple(f"g{i}" for i in range(5)), ("a", "b"))
        with pytest.raises(PipelineError):
            run_pipeline(ds, small_config())


    @pytest.mark.parametrize("protocol", ["paper", "nested"])
    def test_every_fold_skipped_raises_one_error(self, protocol):
        # classes of 1, 1 and 10 samples: with 2 outer folds, each
        # training part misses a single-sample class
        labels = np.array([0, 1] + [2] * 10)
        x = np.random.default_rng(3).normal(size=(12, 5))
        x[:, 0] = labels  # gene 0 is informative, so stage 1 keeps it
        ds = Dataset(x, labels, tuple(f"g{j}" for j in range(5)),
                     ("a", "b", "c"))
        cfg = dataclasses.replace(small_config(protocol=protocol), cv_k=2)
        with pytest.raises(ValidationError, match=(
                "^every fold was skipped; cannot summarize$")):
            run_pipeline(ds, cfg)

    @pytest.mark.parametrize("protocol", ["paper", "nested"])
    def test_bad_fold_plan_fails_before_selection(self, planted, monkeypatch,
                                                  protocol):
        def unreachable(*args, **kwargs):
            raise AssertionError("selection ran before the fold plan")

        monkeypatch.setattr(boosting, "fit", unreachable)
        cfg = dataclasses.replace(small_config(protocol=protocol), cv_k=50)
        m = planted.dataset.n_samples
        assert m < 50
        with pytest.raises(ValidationError,
                           match=f"^k=50 exceeds sample count {m}$"):
            run_pipeline(planted.dataset, cfg)


class TestNestedEvaluation:
    def test_matches_per_fold_loop(self):
        """Scoring all outer folds together gives the summaries of a loop
        that selects, trains and predicts one outer fold at a time."""
        ds = generate_synth(SynthSpec(m_samples=37, n_genes=30,
                                      n_informative=6, n_classes=3,
                                      seed=4)).dataset
        cfg = PipelineConfig(
            boost=boosting.BoostParams(n_estimators=5, max_depth=2, seed=2),
            ga=ga.GaConfig(population_size=10, iterations=3, seed=2),
            eval_classifiers=(ClassifierSpec(kind="linear_svm",
                                             svm_epochs=10),
                              ClassifierSpec(kind="gaussian_nb")),
            cv_k=3, cv_rounds=2, protocol="nested", seed=5)
        report = run_pipeline(ds, cfg)
        expected = {spec.kind: [] for spec in cfg.eval_classifiers}
        plan = make_folds(ds.labels, cfg.cv_k, cfg.cv_rounds, cfg.seed)
        widths = set()
        for r, f, train_idx, test_idx in plan.splits():
            train_ds = Dataset(ds.values[train_idx], ds.labels[train_idx],
                               ds.gene_ids, ds.class_names)
            test_ds = Dataset(ds.values[test_idx], ds.labels[test_idx],
                              ds.gene_ids, ds.class_names)
            final = pipeline.select_genes(train_ds, cfg,
                                          seed_offset=(r, f)).final
            widths.add(len(final))
            for spec in cfg.eval_classifiers:
                expected[spec.kind].append(score_split(
                    project(train_ds, final), project(test_ds, final), spec))
        assert len(widths) > 1  # outer folds of different widths
        for kind, folds in expected.items():
            summary = report.summaries[kind]
            assert summary.fold_results == tuple(folds)
            assert summary.means == {
                n: float(np.mean([getattr(x, n) for x in folds]))
                for n in METRIC_NAMES}
            assert summary.stds == {
                n: float(np.std([getattr(x, n) for x in folds]))
                for n in METRIC_NAMES}


# two scored folds that hold out only class-A rows and predict them all
# right (class B scores 0 precision and recall), and one skipped fold
SUMMARY_LAYOUT = {
    "means": {"accuracy": 1.0, "macro_precision": 0.5, "macro_recall": 0.5,
              "macro_f_score": 0.5},
    "stds": dict.fromkeys(METRIC_NAMES, 0.0),
    "fold_results": [{"accuracy": 1.0, "macro_precision": 0.5,
                      "macro_recall": 0.5, "macro_f_score": 0.5}] * 2,
    "skipped_folds": [[0, 0]],
}


class TestSerialization:

    def test_summary_layout_that_compare_reads(self):
        fold = stats.MetricReport(accuracy=1.0, macro_precision=0.5,
                                  macro_recall=0.5, macro_f_score=0.5)
        summary = stats.CvSummary(
            fold_results=(fold, fold), means=dataclasses.asdict(fold),
            stds=dict.fromkeys(METRIC_NAMES, 0.0), skipped_folds=((0, 0),))
        report = pipeline.PipelineReport(
            dataset_name="d", n_samples=7, n_genes=1, stage1_genes=[0],
            stage1_ids=["g1"], stage1_gains=[1.0], final_genes=[0],
            final_ids=["g1"], summaries={"knn": summary}, runtimes={},
            config={}, protocol="paper", seed=0)
        doc = json.loads(report_to_json(report))
        assert doc["summaries"] == {"knn": SUMMARY_LAYOUT}

    def test_evaluate_result_has_the_report_summary_layout(self, tmp_path):
        # class B's one sample lands in fold 0, whose training rows then
        # miss it; the knn vote of the other folds' 5 training rows is A
        data = tmp_path / "d.csv"
        data.write_text("g1,label\n" + "".join(
            f"{v},{c}\n" for v, c in zip(range(7), "AAAAAAB")))
        genes = tmp_path / "genes.json"
        genes.write_text("[0]")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--data", str(data), "--genes", str(genes),
                     "--cv-k", "3", "--cv-rounds", "1", "--classifiers",
                     "knn", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summaries"] == {"knn": SUMMARY_LAYOUT}

    def test_json_round_trip_byte_stable(self, small_report):
        text = report_to_json(small_report)
        again = report_to_json(report_from_json(text))
        assert text == again

    def test_round_trip_preserves_fields(self, small_report):
        back = report_from_json(report_to_json(small_report))
        assert back.final_genes == small_report.final_genes
        assert back.stage1_genes == small_report.stage1_genes
        assert back.summaries.keys() == small_report.summaries.keys()
        for kind in small_report.summaries:
            assert (back.summaries[kind].means
                    == small_report.summaries[kind].means)

    def test_ga_trace_is_not_serialized(self, small_report):
        assert small_report.ga_trace is not None
        assert report_to_json(small_report) == report_to_json(
            dataclasses.replace(small_report, ga_trace=None))

    def test_loads_classifier_configs_that_hold_a_seed(self, small_report):
        # reports written while ClassifierSpec had a seed field
        doc = json.loads(report_to_json(small_report))
        for spec in doc["config"]["eval_classifiers"]:
            spec["seed"] = 0
        back = report_from_json(json.dumps(doc))
        assert back.config == doc["config"]
        assert back.summaries == small_report.summaries

    def test_timings_excluded_by_default_flag(self, small_report):
        with_t = report_to_json(small_report, include_timings=True)
        without = report_to_json(small_report, include_timings=False)
        assert '"runtimes"' in with_t
        assert '"runtimes"' not in without

    def test_schema_version_enforced(self, small_report):
        doc = json.loads(report_to_json(small_report))
        doc["schema_version"] = 99
        with pytest.raises(ValidationError):
            report_from_json(json.dumps(doc))

    def test_markdown_format(self, small_report):
        for protocol in ("paper", "nested"):
            report = dataclasses.replace(small_report, protocol=protocol)
            md = report_to_markdown(report)
            assert "(+/-" in md
            assert "| classifier |" in md
            assert (f"{report.n_genes} -> {report.n_stage1} -> "
                    f"{len(report.final_genes)} genes ({protocol} protocol)"
                    in md)
            # only paper CV scores genes selected on its own test rows
            biased = "selection-biased" in md and "Ambroise & McLachlan" in md
            assert biased == (protocol == "paper")

    def test_atomic_write(self, tmp_path, small_report):
        out = tmp_path / "small_report.json"
        text = report_to_json(small_report)
        write_json_atomic(out, text)
        assert out.read_text() == text
        assert not (tmp_path / "small_report.json.tmp").exists()


@pytest.mark.parametrize("make", [
    lambda: Dataset(np.eye(2), [0, 1], ("g0", "g1"), ("a", "b")),
    lambda: make_folds([0, 1, 0, 1], k=2, rounds=1, seed=0),
    lambda: generate_synth(SynthSpec(m_samples=6, n_genes=12, seed=1)),
    lambda: ConfusionMatrix(np.eye(2, dtype=np.int64)),
    lambda: boosting.ImportanceReport(np.ones(2), np.ones(2), np.arange(2)),
    lambda: ga.Chromosome(np.array([1, 0, 1], dtype=np.uint8)),
], ids=["Dataset", "FoldPlan", "SynthResult", "ConfusionMatrix",
        "ImportanceReport", "Chromosome"])
def test_array_holders_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare the numpy fields as a tuple and
    # raise, and would leave the instances unhashable
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("module", [boosting, ga, data, stats, classifiers,
                                    pipeline], ids=lambda m: m.__name__)
def test_exported_names_exist(module):
    # a stale __all__ entry breaks only ``from module import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
