import json

import pytest

from genefunnel.cli import main


SELECT_FAST = [
    "--trees", "15", "--max-depth", "2", "--subsample", "1.0",
    "--pop", "15", "--gens", "5", "--cv-k", "4", "--cv-rounds", "1",
    "--classifiers", "knn",
]


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    path = d / "bench.csv"
    truth = d / "truth.json"
    code = main(["synth", "--out", str(path), "--samples", "30",
                 "--genes", "40", "--informative", "5", "--sigma", "0.5",
                 "--seed", "3", "--truth-out", str(truth)])
    assert code == 0
    return path, truth


class TestSynth:
    def test_writes_csv_and_truth(self, synth_csv):
        path, truth = synth_csv
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 31  # header + 30 samples
        assert lines[0].endswith(",label")
        doc = json.loads(truth.read_text())
        assert len(doc["informative_genes"]) == 5

    def test_missing_cells_blank(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["synth", "--out", str(out), "--samples", "20",
                     "--genes", "10", "--informative", "2",
                     "--missing-fraction", "0.1", "--seed", "1"])
        assert code == 0
        assert ",," in out.read_text()


class TestRank:
    def test_happy_path(self, synth_csv, tmp_path):
        path, _ = synth_csv
        out = tmp_path / "rank.json"
        csv_out = tmp_path / "rank.csv"
        code = main(["rank", "--data", str(path), "--trees", "15",
                     "--max-depth", "2", "--subsample", "1.0",
                     "--seed", "0", "--out", str(out),
                     "--csv", str(csv_out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_genes"] == 40
        assert len(doc["ranking"]) == 40
        assert all(v > 0 for v in doc["total_gain"].values())
        assert csv_out.read_text().startswith(
            "gene_index,gene_id,total_gain,split_count")

    def test_absent_file_exits_2(self, tmp_path):
        code = main(["rank", "--data", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_unknown_flag_exits_1(self, synth_csv):
        path, _ = synth_csv
        code = main(["rank", "--data", str(path), "--bogus"])
        assert code == 1

    def test_bad_impute_neighbors_without_missing_cells(self, synth_csv,
                                                        capsys):
        path, _ = synth_csv
        assert main(["rank", "--data", str(path),
                     "--impute-neighbors", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_neighbors" in err

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1


class TestSelect:
    def test_happy_path_and_determinism(self, synth_csv, tmp_path, capsys):
        path, _ = synth_csv
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        md = tmp_path / "report.md"
        trace = tmp_path / "trace.csv"
        base = ["select", "--data", str(path), "--seed", "7",
                *SELECT_FAST]
        assert main(base + ["--out", str(out_a), "--markdown-out", str(md),
                            "--trace-out", str(trace)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["schema_version"] == 1
        assert "runtimes" not in doc  # timings are opt-in
        assert set(doc["final_genes"]) <= set(doc["stage1_genes"])
        assert "(+/-" in md.read_text()
        assert trace.read_text().startswith("generation,")

    def test_class_smaller_than_ga_fold_count(self, tmp_path):
        # 4 samples per class against the GA's 5 internal folds
        data = tmp_path / "small.csv"
        assert main(["synth", "--out", str(data), "--samples", "12",
                     "--genes", "40", "--classes", "3", "--seed", "1"]) == 0
        assert main(["select", "--data", str(data), "--trees", "5",
                     "--pop", "10", "--gens", "2", "--cv-k", "3",
                     "--cv-rounds", "1",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_timings_flag_includes_runtimes(self, synth_csv, tmp_path):
        path, _ = synth_csv
        out = tmp_path / "timed.json"
        assert main(["select", "--data", str(path), "--seed", "7",
                     *SELECT_FAST, "--timings", "--out", str(out)]) == 0
        assert "runtimes" in json.loads(out.read_text())

    def test_config_file_overlay(self, synth_csv, tmp_path):
        path, _ = synth_csv
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gens=5\npop=15\ncv-k=4\ncv-rounds=1\n"
                       "trees=15\nmax-depth=2\nsubsample=1.0\n"
                       "classifiers=knn\n")
        out_file = tmp_path / "file.json"
        out_flags = tmp_path / "flags.json"
        assert main(["select", "--data", str(path), "--seed", "7",
                     "--config", str(cfg), "--out", str(out_file)]) == 0
        assert main(["select", "--data", str(path), "--seed", "7",
                     *SELECT_FAST, "--out", str(out_flags)]) == 0
        assert (json.loads(out_file.read_text())["config"]
                == json.loads(out_flags.read_text())["config"])
        # explicit flag beats the file
        out_win = tmp_path / "win.json"
        assert main(["select", "--data", str(path), "--seed", "7",
                     "--config", str(cfg), "--gens", "3",
                     "--out", str(out_win)]) == 0
        assert (json.loads(out_win.read_text())["config"]["ga"]["iterations"]
                == 3)

    def test_unknown_config_key_exits_1(self, synth_csv, tmp_path):
        path, _ = synth_csv
        cfg = tmp_path / "bad.txt"
        cfg.write_text("warp-speed=9\n")
        assert main(["select", "--data", str(path), "--config", str(cfg),
                     *SELECT_FAST]) == 1

    @pytest.mark.parametrize("flag", [["--seed", "0"], ["--seed=0"]],
                             ids=["separate", "joined"])
    def test_explicit_flag_at_default_beats_file(self, synth_csv, tmp_path,
                                                 flag):
        path, _ = synth_csv
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=7\n")
        out = tmp_path / "r.json"
        assert main(["select", "--data", str(path), *flag, "--config",
                     str(cfg), *SELECT_FAST, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 0
        # without the flag the file's value applies
        assert main(["select", "--data", str(path), "--config", str(cfg),
                     *SELECT_FAST, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 7


class TestMalformedConfig:
    """Each malformed config file exits 1 with one stderr line that names
    the file and, where there is one, the offending key."""

    @pytest.mark.parametrize("name, text, key", [
        ("c.cfg", "seed=abc\n", "seed"),
        ("c.json", '{"seed": [1]}', "seed"),
        ("c.json", '{"seed": true}', "seed"),
        ("c.json", '{"cv-k": 2.5}', "cv-k"),
        ("c.cfg", "timings=maybe\n", "timings"),
        ("c.cfg", "protocol=bogus\n", "protocol"),
        ("c.json", '{"out": {"path": "x"}}', "out"),
        ("c.cfg", "warp-speed=9\n", "warp-speed"),
        ("c.cfg", "command=rank\n", "command"),
        ("c.cfg", "just words\n", None),
        ("c.json", "[1, 2]", None),
    ], ids=["kv_not_int", "json_list", "json_bool_for_int",
            "json_float_for_int", "bad_bool", "bad_choice", "json_object",
            "unknown_key", "not_a_flag", "no_equals", "json_array"])
    def test_exits_1_with_one_line(self, synth_csv, tmp_path, capsys, name,
                                   text, key):
        path, _ = synth_csv
        cfg = tmp_path / name
        cfg.write_text(text)
        assert main(["select", "--data", str(path), "--config", str(cfg),
                     *SELECT_FAST, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cfg) in err
        assert key is None or repr(key) in err
        assert not (tmp_path / "r.json").exists()

    def test_not_utf8_exits_1(self, synth_csv, tmp_path, capsys):
        path, _ = synth_csv
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"seed=\xff\n")
        assert main(["select", "--data", str(path), "--config", str(cfg),
                     *SELECT_FAST]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cfg) in err


class TestEvaluate:
    def test_subset_json_file(self, synth_csv, tmp_path):
        path, truth = synth_csv
        genes = tmp_path / "genes.json"
        genes.write_text(json.dumps(
            json.loads(truth.read_text())["informative_genes"]))
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--data", str(path), "--genes", str(genes),
                     "--cv-k", "4", "--cv-rounds", "1",
                     "--classifiers", "knn", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summaries"]["knn"]["means"]["accuracy"] >= 0.8

    def test_newline_separated_subset(self, synth_csv, tmp_path):
        path, _ = synth_csv
        genes = tmp_path / "genes.txt"
        genes.write_text("0\n1\n2\n")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--data", str(path), "--genes", str(genes),
                     "--cv-k", "4", "--cv-rounds", "1",
                     "--classifiers", "knn", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["genes"] == [0, 1, 2]

    def test_single_index_subset(self, synth_csv, tmp_path):
        path, _ = synth_csv
        genes = tmp_path / "genes.txt"
        genes.write_text("3\n")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--data", str(path), "--genes", str(genes),
                     "--cv-k", "4", "--cv-rounds", "1",
                     "--classifiers", "knn", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["genes"] == [3]


class TestMalformedInputs:
    """Each malformed data CSV or gene-subset file ends in exit 1 or 2 with
    one stderr line, never a traceback."""

    @pytest.mark.parametrize("kind, content", [
        ("csv", b"g1,g2,label\n1,\xff,A\n3,4,B\n"),
        ("csv", b"g1,g2,label\n1,2,A\n3,B\n"),
        ("csv", b"g1,g2,label\n1,oops,A\n3,4,B\n"),
        ("csv", b"g1,g2,label\n1,inf,A\n3,4,B\n"),
        ("csv", b"g1,g2,label\n1,NA,A\n3,,B\n"),
        ("csv", b"g1,g2,label\n1,2,A\n3,4,A\n"),
        ("csv", b""),
        ("csv", b"g1,g2,label\n"),
        ("genes", b"0\nabc\n"),
        ("genes", b'{"genes": [0]}'),
        ("genes", b'"abc"'),
        ("genes", b'["a"]'),
        ("genes", b"[1.5]"),
        ("genes", b"[true]"),
        ("genes", b"[null]"),
        ("genes", b"\xff\n"),
        ("genes", b"[0, 999]"),
    ], ids=["csv_not_utf8", "csv_ragged", "csv_non_numeric",
            "csv_non_finite", "csv_all_na_column", "csv_one_class",
            "csv_empty", "csv_header_only", "genes_bad_token",
            "genes_json_object", "genes_json_string", "genes_string_entry",
            "genes_float_entry", "genes_bool_entry", "genes_null_entry",
            "genes_not_utf8", "genes_out_of_bounds"])
    def test_one_line_no_traceback(self, synth_csv, tmp_path, capsys, kind,
                                   content):
        data, _ = synth_csv
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(content)
        if kind == "csv":
            argv = ["rank", "--data", str(bad), "--trees", "2"]
        else:
            argv = ["evaluate", "--data", str(data), "--genes", str(bad),
                    "--cv-k", "2", "--cv-rounds", "1",
                    "--classifiers", "gaussian_nb"]
        assert main(argv) in (1, 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        # a well-formed subset out of bounds is caught later, by project
        if kind == "genes" and content != b"[0, 999]":
            assert str(bad) in err


class TestCompare:
    def test_over_report_directories(self, synth_csv, tmp_path):
        path, _ = synth_csv
        dir_a = tmp_path / "runA"
        dir_b = tmp_path / "runB"
        dir_a.mkdir()
        dir_b.mkdir()
        for i, seed in enumerate([1, 2, 3, 4, 5]):
            # reports pair up by dataset name, one dataset file per seed
            data = tmp_path / f"data{i}.csv"
            data.write_bytes(path.read_bytes())
            for d in (dir_a, dir_b):
                assert main(["select", "--data", str(data),
                             "--seed", str(seed), *SELECT_FAST,
                             "--out", str(d / f"r{i}.json")]) == 0
        out = tmp_path / "cmp.json"
        assert main(["compare", "--a", str(dir_a), "--b", str(dir_b),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # identical runs: degenerate comparison, never significant
        assert doc["p_value"] == 1.0
        assert doc["verdict"] == "not significant"
        assert doc["n_datasets"] == 5

    def test_empty_directory_exits_2(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(["compare", "--a", str(tmp_path / "a"),
                     "--b", str(tmp_path / "b")]) == 2


@pytest.fixture(scope="module")
def report_doc(synth_csv, tmp_path_factory):
    path, _ = synth_csv
    out = tmp_path_factory.mktemp("report") / "r.json"
    assert main(["select", "--data", str(path), "--seed", "1",
                 *SELECT_FAST, "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestComparePairing:
    """compare pairs reports by dataset name, not by file name."""

    @staticmethod
    def _write(directory, report_doc, files):
        """files: file stem -> (dataset name, accuracy mean)."""
        directory.mkdir()
        for stem, (name, accuracy) in files.items():
            doc = json.loads(json.dumps(report_doc))
            doc["dataset_name"] = name
            doc["summaries"]["knn"]["means"]["accuracy"] = accuracy
            (directory / f"{stem}.json").write_text(json.dumps(doc))

    def _compare(self, tmp_path, report_doc, files_a, files_b):
        self._write(tmp_path / "a", report_doc, files_a)
        self._write(tmp_path / "b", report_doc, files_b)
        out = tmp_path / "cmp.json"
        code = main(["compare", "--a", str(tmp_path / "a"),
                     "--b", str(tmp_path / "b"), "--out", str(out)])
        return code, (json.loads(out.read_text()) if code == 0 else None)

    def test_pairs_by_dataset_name(self, tmp_path, report_doc):
        # B is 0.05 better on every dataset, but its file names run in the
        # opposite order: paired by file name the differences change sign
        acc = [0.50, 0.90, 0.60, 0.80, 0.55, 0.85]
        files_a = {f"r{i}": (f"d{i}", a) for i, a in enumerate(acc)}
        files_b = {f"r{5 - i}": (f"d{i}", a + 0.05)
                   for i, a in enumerate(acc)}
        code, doc = self._compare(tmp_path, report_doc, files_a, files_b)
        assert code == 0
        assert doc["n_datasets"] == 6
        assert doc["w_statistic"] == 0.0
        assert doc["verdict"] == "significant"

    @pytest.mark.parametrize("files_a, files_b, needle", [
        ({"r0": ("d0", 0.5), "r1": ("d1", 0.6)},
         {"r0": ("d0", 0.5), "r1": ("d2", 0.6)}, "'d1', 'd2'"),
        ({"r0": ("d0", 0.5), "r1": ("d0", 0.6)},
         {"r0": ("d0", 0.5), "r1": ("d1", 0.6)}, "'d0'"),
    ], ids=["mismatched_names", "duplicate_names"])
    def test_unpaired_reports_exit_1(self, tmp_path, report_doc, capsys,
                                     files_a, files_b, needle):
        code, _ = self._compare(tmp_path, report_doc, files_a, files_b)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err


class TestCompareMalformedReports:
    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("dataset_name"),
        lambda doc: doc.update(summaries=[]),
        lambda doc: doc["summaries"]["knn"].pop("means"),
        lambda doc: doc.update(schema_version=99),
    ], ids=["no_dataset_name", "summaries_list", "no_means",
            "schema_99"])
    def test_partial_report_exits_1(self, report_doc, tmp_path, capsys,
                                    edit):
        doc = json.loads(json.dumps(report_doc))
        edit(doc)
        self._check(tmp_path, capsys, json.dumps(doc))

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "", "\xff"],
                             ids=["bad_json", "json_array", "empty",
                                  "not_utf8"])
    def test_unreadable_report_exits_1(self, tmp_path, capsys, text):
        self._check(tmp_path, capsys, text)

    def test_missing_classifier_exits_1(self, report_doc, tmp_path, capsys):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "r0.json").write_text(json.dumps(report_doc))
        assert main(["compare", "--a", str(tmp_path / "a"),
                     "--b", str(tmp_path / "b"),
                     "--classifier", "linear_svm"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "linear_svm" in err

    @staticmethod
    def _check(tmp_path, capsys, text):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
        good = tmp_path / "b" / "r0.json"
        good.write_text("{}")
        bad = tmp_path / "a" / "r0.json"
        bad.write_text(text, encoding="latin-1")
        assert main(["compare", "--a", str(tmp_path / "a"),
                     "--b", str(good.parent)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err


class TestTrace:
    def test_emits_csv(self, synth_csv, tmp_path):
        path, _ = synth_csv
        out = tmp_path / "trace.csv"
        assert main(["trace", "--data", str(path), "--trees", "15",
                     "--max-depth", "2", "--subsample", "1.0",
                     "--pop", "10", "--gens", "4", "--seed", "0",
                     "--trace-out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness,best_size"
        assert len(lines) == 1 + 5  # generations 0..4
