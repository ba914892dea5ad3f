import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from genefunnel import boosting, ga
from genefunnel.cli import (_build, _load_prepared, _pipeline_config,
                           build_parser, main)
from genefunnel.data import load_csv
from genefunnel.pipeline import (PipelineConfig, SynthSpec, generate_synth,
                                 select_genes)


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

    def test_round_trip_through_load_csv(self, tmp_path):
        # the CSV blanks exactly the drawn mask's cells and holds every
        # other cell as repr(v), which reads back as the same float
        out = tmp_path / "gaps.csv"
        assert main(["synth", "--out", str(out), "--samples", "30",
                     "--genes", "40", "--informative", "5", "--classes", "3",
                     "--sigma", "0.5", "--missing-fraction", "0.1",
                     "--seed", "3"]) == 0
        want = generate_synth(SynthSpec(
            m_samples=30, n_genes=40, n_informative=5, n_classes=3,
            noise_sigma=0.5, missing_fraction=0.1, seed=3))
        ds, mask = load_csv(out)
        assert mask.size and np.array_equal(mask, want.mask)
        observed = np.ones(ds.values.shape, dtype=bool)
        observed[mask[:, 0], mask[:, 1]] = False
        assert (ds.values[observed].tobytes()
                == want.dataset.values[observed].tobytes())
        assert np.array_equal(ds.labels, want.dataset.labels)

    def test_empty_gene_column_exits_1(self, tmp_path, capsys):
        # a draw this sparse masks every cell of some column, which every
        # command would reject
        out = tmp_path / "sparse.csv"
        assert main(["synth", "--out", str(out), "--samples", "20",
                     "--genes", "30", "--missing-fraction", "0.999",
                     "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "0.999" in err and "gene column 0 ('g00000')" in err
        assert not out.exists()


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

    def test_json_to_stdout_without_out(self, synth_csv, capsys):
        path, _ = synth_csv
        assert main(["rank", "--data", str(path), "--trees", "5",
                     "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_genes"] == 40 and len(doc["ranking"]) == 40

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1

    @pytest.mark.parametrize("command", [["rank", "--trees", "20"],
                                         ["select", *SELECT_FAST]])
    def test_huge_learning_rate_exits_0(self, synth_csv, tmp_path, command):
        # raw logistic scores fall far below exp's range
        path, _ = synth_csv
        out = tmp_path / "out.json"
        assert main([*command, "--data", str(path), "--eta", "1000",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestAtomicWrite:
    @pytest.mark.parametrize("argv", [
        ["rank", "--data", "{data}", "--trees", "2", "--out", "{dir}"],
        ["synth", "--out", "{csv}", "--truth-out", "{dir}"],
        ["select", "--data", "{data}", *SELECT_FAST, "--out", "{dir}/r.json",
         "--markdown-out", "{dir}"],
    ], ids=["rank_out", "synth_truth_out", "select_markdown_out"])
    def test_failed_rename_leaves_no_temp_file(self, synth_csv, tmp_path,
                                               capsys, argv):
        # os.replace cannot put a file over an existing directory
        target = tmp_path / "outdir"
        target.mkdir()
        argv = [arg.format(data=synth_csv[0], dir=target,
                           csv=tmp_path / "s.csv") for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        # the line names the target, not the temp file it removed
        assert err.endswith(f": '{target}'\n") and ".tmp" not in err
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("argv", [
        ["select", "--data", "{data}", *SELECT_FAST, "--out", "{target}"],
        ["rank", "--data", "{data}", "--trees", "2", "--out", "{dir}/r.json",
         "--csv", "{target}"],
    ], ids=["select_out", "rank_csv"])
    def test_missing_directory_names_the_target(self, synth_csv, tmp_path,
                                                capsys, argv):
        target = tmp_path / "nodir" / "x.out"
        argv = [arg.format(data=synth_csv[0], dir=tmp_path, target=target)
                for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert err.endswith(f": '{target}'\n") and ".tmp" not in err

    @pytest.mark.parametrize("argv", [
        ["synth", "--samples", "6", "--genes", "12", "--out", "{target}"],
        ["rank", "--data", "{data}", "--trees", "2", "--out", "{dir}/r.json",
         "--csv", "{target}"],
        ["select", "--data", "{data}", *SELECT_FAST, "--out",
         "{dir}/r.json", "--trace-out", "{target}"],
    ], ids=["synth_out", "rank_csv", "select_trace_out"])
    def test_failed_csv_write_leaves_no_file(self, synth_csv, tmp_path,
                                             capsys, monkeypatch, argv):
        # a write that fails after the header leaves neither a
        # header-only target nor its temp file
        writer = csv.writer

        class Failing:
            def __init__(self, fh):
                self.rows = 0
                self.writer = writer(fh)

            def writerow(self, row):
                self.rows += 1
                if self.rows == 2:
                    raise OSError("No space left on device")
                return self.writer.writerow(row)

        monkeypatch.setattr(csv, "writer", Failing)
        target = tmp_path / "out.csv"
        argv = [arg.format(data=synth_csv[0], dir=tmp_path, target=target)
                for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: No space left on device\n"
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp")) == []


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

    def test_nested_is_unbiased_on_null_data_with_gaps(self, tmp_path):
        """Through the CLI, where the file is imputed and scaled on all
        rows before either protocol runs: on data with gaps where no gene
        carries signal, ``nested`` scores near chance over 10 seeds, while
        ``paper`` scores well above it (selection bias: Ambroise &
        McLachlan, PNAS 2002)."""
        accuracy = {"paper": [], "nested": []}
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 100))
            labels = rng.permutation(np.arange(40) % 2)
            gaps = rng.random(x.shape) < 0.05
            data = tmp_path / f"null-{seed}.csv"
            data.write_text(
                ",".join(f"g{j}" for j in range(100)) + ",label\n"
                + "".join(",".join("" if gap else repr(v)
                                   for v, gap in zip(row, row_gaps))
                          + f",{'ab'[label]}\n"
                          for row, row_gaps, label
                          in zip(x.tolist(), gaps.tolist(), labels)))
            for protocol in accuracy:
                out = tmp_path / f"{protocol}-{seed}.json"
                assert main(["select", "--data", str(data),
                             "--trees", "20", "--max-depth", "2",
                             "--pop", "20", "--gens", "10", "--cv-k", "5",
                             "--cv-rounds", "1",
                             "--classifiers", "knn,gaussian_nb",
                             "--protocol", protocol, "--seed", str(seed),
                             "--out", str(out)]) == 0
                summaries = json.loads(out.read_text())["summaries"]
                accuracy[protocol].append(
                    [summaries[kind]["means"]["accuracy"]
                     for kind in ("knn", "gaussian_nb")])
        nested = np.mean(accuracy["nested"], axis=0)
        paper = np.mean(accuracy["paper"], axis=0)
        assert ((0.40 <= nested) & (nested <= 0.62)).all(), nested
        assert (paper > 0.62).all(), paper

    def test_timings_flag_includes_runtimes(self, synth_csv, tmp_path):
        path, _ = synth_csv
        out = tmp_path / "timed.json"
        assert main(["select", "--data", str(path), "--seed", "7",
                     *SELECT_FAST, "--timings", "--out", str(out)]) == 0
        assert "runtimes" in json.loads(out.read_text())

    def test_config_file_overlay(self, synth_csv, tmp_path):
        path, _ = synth_csv
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# fast settings\n\ngens=5\npop=15\ncv-k=4\n"
                       "cv-rounds=1\n  # stage 1\ntrees=15\nmax-depth=2\n"
                       "subsample=1.0\n\nclassifiers=knn\ntimings=true\n")
        out_file = tmp_path / "file.json"
        out_flags = tmp_path / "flags.json"
        assert main(["select", "--data", str(path), "--seed", "7",
                     "--config", str(cfg), "--out", str(out_file)]) == 0
        assert main(["select", "--data", str(path), "--seed", "7",
                     *SELECT_FAST, "--out", str(out_flags)]) == 0
        from_file = json.loads(out_file.read_text())
        from_flags = json.loads(out_flags.read_text())
        assert from_file["config"] == from_flags["config"]
        # timings=true in the file acts as the --timings flag
        assert "runtimes" in from_file and "runtimes" not in from_flags
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
        ("c.cfg", "seed=-1\n", "seed"),
        ("c.json", '{"out": {"path": "x"}}', "out"),
        ("c.cfg", "warp-speed=9\n", "warp-speed"),
        ("c.cfg", "command=rank\n", "command"),
        ("c.cfg", "just words\n", None),
        ("c.json", "[1, 2]", None),
    ], ids=["kv_not_int", "json_list", "json_bool_for_int",
            "json_float_for_int", "bad_bool", "bad_choice", "negative_seed",
            "json_object",
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


# each select flag that sets a config field: a value that is neither its
# default nor SELECT_FAST's (fractional for a float field, so that an int
# flag type would reject it), and where the report's config holds it
CONFIG_FLAGS = [
    ("--impute-neighbors", "3", ("impute_neighbors",), 3),
    ("--trees", "7", ("boost", "n_estimators"), 7),
    ("--max-depth", "4", ("boost", "max_depth"), 4),
    ("--subsample", "0.85", ("boost", "subsample"), 0.85),
    ("--eta", "0.25", ("boost", "learning_rate"), 0.25),
    ("--lambda", "0.5", ("boost", "lam"), 0.5),
    ("--gamma", "0.125", ("boost", "gamma"), 0.125),
    ("--pop", "12", ("ga", "population_size"), 12),
    ("--gens", "3", ("ga", "iterations"), 3),
    ("--cx-prob", "0.65", ("ga", "crossover_prob"), 0.65),
    ("--mut-prob", "0.05", ("ga", "mutation_prob"), 0.05),
    ("--tournament", "3", ("ga", "tournament_size"), 3),
    ("--knn-k", "3", ("ga", "fitness_knn_k"), 3),
    ("--cv-k", "3", ("cv_k",), 3),
    ("--cv-rounds", "2", ("cv_rounds",), 2),
    ("--classifiers", "gaussian_nb,knn", ("eval_classifiers", 1, "kind"),
     "knn"),
    ("--seed", "5", ("seed",), 5),
    ("--protocol", "nested", ("protocol",), "nested"),
]


class TestTuningFlags:
    @pytest.mark.parametrize("flag, value, path, expected", CONFIG_FLAGS,
                             ids=[f[0][2:] for f in CONFIG_FLAGS])
    def test_config_key_equals_flag(self, synth_csv, tmp_path, flag, value,
                                    path, expected):
        data, _ = synth_csv
        base = ["select", "--data", str(data)]
        if flag in SELECT_FAST:
            i = SELECT_FAST.index(flag)
            base += SELECT_FAST[:i] + SELECT_FAST[i + 2:]
        else:
            base += SELECT_FAST
        # keys with "-" are covered by TestSelect; here they use "_"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')}={value}\n")
        from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
        assert main(base + ["--config", str(cfg),
                            "--out", str(from_file)]) == 0
        assert main(base + [flag, value, "--out", str(from_flag)]) == 0
        config = json.loads(from_flag.read_text())["config"]
        assert json.loads(from_file.read_text())["config"] == config
        for key in path:
            config = config[key]
        assert config == expected

    def test_every_config_flag_is_covered(self):
        other = {"--help", "--config", "--data", "--label-column",
                 "--missing-token", "--out", "--markdown-out", "--trace-out",
                 "--timings"}
        select = build_parser().commands["select"]
        flags = {s for a in select._actions for s in a.option_strings
                 if s.startswith("--")}
        assert flags - other == {f[0] for f in CONFIG_FLAGS}

    def test_defaults_are_the_dataclass_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["select", "--data", "d.csv",
                                  "--seed", "5"])
        assert asdict(_pipeline_config(args)) == asdict(
            PipelineConfig(
                boost=boosting.BoostParams(seed=5), ga=ga.GaConfig(seed=5),
                seed=5))
        args = parser.parse_args(["synth", "--out", "s.csv", "--seed", "5"])
        assert _build(SynthSpec, args) == SynthSpec(seed=5)

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    @pytest.mark.parametrize("kinds", ["", ",", "knn,knn"],
                             ids=["empty", "comma", "twice"])
    def test_classifiers_naming_none_or_one_twice_exits_1(
            self, synth_csv, tmp_path, capsys, command, kinds):
        data, _ = synth_csv
        genes = tmp_path / "genes.json"
        genes.write_text("[0, 1, 2]")
        # SELECT_FAST ends with "--classifiers", "knn"
        flags = (SELECT_FAST[:-1] if command == "select"
                 else ["--genes", str(genes), "--classifiers"])
        out = tmp_path / "r.json"
        assert main([command, "--data", str(data), *flags, kinds,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--classifiers" in err
        assert not out.exists()


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
        assert doc["schema_version"] == 1
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

    def test_json_to_stdout_without_out(self, synth_csv, tmp_path, capsys):
        path, _ = synth_csv
        genes = tmp_path / "genes.txt"
        genes.write_text("0\n1\n")
        assert main(["evaluate", "--data", str(path), "--genes", str(genes),
                     "--cv-k", "4", "--cv-rounds", "1",
                     "--classifiers", "knn"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["genes"] == [0, 1] and list(doc["summaries"]) == ["knn"]

    @pytest.mark.parametrize("indices", ["0\n40\n", "[-1, 2]"])
    def test_index_outside_the_data_exits_1(self, synth_csv, tmp_path,
                                            capsys, indices):
        path, _ = synth_csv
        genes = tmp_path / "genes.txt"
        genes.write_text(indices)
        assert main(["evaluate", "--data", str(path), "--genes", str(genes),
                     "--cv-k", "4", "--cv-rounds", "1",
                     "--classifiers", "knn"]) == 1
        bad = 40 if "40" in indices else -1
        assert capsys.readouterr().err == (
            f"error: {genes}: gene index {bad} is outside 0..39 "
            f"({path} has 40 genes)\n")

    def test_every_fold_skipped_exits_1(self, tmp_path, capsys):
        # one sample per class: each 2-fold training part misses a class
        data = tmp_path / "two.csv"
        data.write_text("g1,label\n1.0,A\n2.0,B\n")
        genes = tmp_path / "genes.txt"
        genes.write_text("0\n")
        assert main(["evaluate", "--data", str(data), "--genes", str(genes),
                     "--cv-k", "2", "--cv-rounds", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "every fold was skipped" in err


class TestMalformedInputs:
    """Each malformed data CSV or gene-subset file ends in exit 1 or 2 with
    one stderr line, never a traceback."""

    @pytest.mark.parametrize("kind, content, names", [
        ("csv", b"g1,g2,label\n1,\xff,A\n3,4,B\n", ()),
        ("csv", b"g1,g2,label\n1,2,A\n3,B\n", (":3:",)),
        ("csv", b"g1,g2,label\n1,oops,A\n3,4,B\n", (":2:", "'oops'")),
        ("csv", b"g1,g2,label\n1,inf,A\n3,4,B\n", (":2:", "'g2'")),
        ("csv", b"g1,g2,label\n1,NA,A\n3,,B\n", ("column 1", "'g2'")),
        ("csv", b"g1,g2,label\n1,2,A\n3,4,A\n", ()),
        ("csv", b"", ()),
        ("csv", b"g1,g2,label\n", ()),
        ("csv", b"g1,g1,g2,label\n1,2,3,A\n4,5,6,B\n", ("'g1'", "0 and 1")),
        ("csv", b"g1,g2,label\n1,2,A\n3,4,\n5,6,B\n", (":3:",)),
        ("genes", b"0\nabc\n", ("'abc'",)),
        ("genes", b'{"genes": [0]}', ()),
        ("genes", b'"abc"', ()),
        ("genes", b'["a"]', ("'a'",)),
        ("genes", b"[1.5]", ("1.5",)),
        ("genes", b"[true]", ("True",)),
        ("genes", b"[null]", ("None",)),
        ("genes", b"\xff\n", ()),
        ("genes", b"[0, 999]", ("index 999",)),
        ("genes", b"3\n-1\n", ("index -1",)),
        ("genes", b"", ()),
    ], ids=["csv_not_utf8", "csv_ragged", "csv_non_numeric",
            "csv_non_finite", "csv_all_na_column", "csv_one_class",
            "csv_empty", "csv_header_only", "csv_duplicate_gene_id",
            "csv_missing_label", "genes_bad_token",
            "genes_json_object", "genes_json_string", "genes_string_entry",
            "genes_float_entry", "genes_bool_entry", "genes_null_entry",
            "genes_not_utf8", "genes_out_of_bounds", "genes_negative",
            "genes_empty"])
    def test_one_line_no_traceback(self, synth_csv, tmp_path, capsys, kind,
                                   content, names):
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
        # every message names the file it is about
        assert str(bad) in err
        for name in names:
            assert name in err


class TestBadNumbers:
    """A flag value out of its range ends in exit 1 with one stderr line,
    never a traceback or the usage text."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "{out}", "--seed", "-1"],
        ["rank", "--data", "{data}", "--seed", "-1"],
        ["select", "--data", "{data}", "--seed", "-1"],
        ["evaluate", "--data", "{data}", "--genes", "{out}", "--seed", "-1"],
        ["select", "--data", "{data}", "--trees", "abc"],
        ["compare", "--a", "{a}", "--b", "{b}", "--metric", "foo"],
        ["compare", "--a", "{a}", "--b", "{b}", "--alpha", "7"],
        ["compare", "--a", "{a}", "--b", "{b}", "--alpha", "-1"],
        ["compare", "--a", "{a}", "--b", "{b}", "--alpha", "nan"],
        ["synth", "--out", "{out}", "--informative", "-1", "--genes", "5"],
        ["synth", "--out", "{out}", "--sigma", "-1"],
        ["synth", "--out", "{out}", "--genes", "0", "--informative", "0"],
        ["rank", "--data", "{data}", "--lambda", "nan", "--out", "{out}"],
        ["select", "--data", "{data}", "--eta", "inf", "--out", "{out}"],
        ["rank", "--data", "{data}", "--gamma", "nan", "--out", "{out}"],
        ["synth", "--out", "{out}", "--sigma", "nan"],
        # each command checks its flags before it reads the data file,
        # which would exit 2 here
        ["rank", "--data", "{missing}", "--eta", "inf", "--out", "{out}"],
        ["select", "--data", "{missing}", "--eta", "inf", "--out", "{out}"],
        ["evaluate", "--data", "{missing}", "--genes", "{out}",
         "--classifiers", ","],
        ["evaluate", "--data", "{missing}", "--genes", "{out}",
         "--cv-k", "1"],
        ["rank", "--data", "{missing}", "--impute-neighbors", "0",
         "--out", "{out}"],
        ["select", "--data", "{missing}", "--impute-neighbors", "0",
         "--out", "{out}"],
        ["evaluate", "--data", "{missing}", "--genes", "{out}",
         "--impute-neighbors", "0"],
        # compare checks --alpha before it reads the directories
        ["compare", "--a", "{missing}", "--b", "{missing}", "--alpha", "7"],
    ], ids=["synth_seed", "rank_seed", "select_seed", "evaluate_seed",
            "select_trees_not_int", "compare_metric",
            "compare_alpha_above_1", "compare_alpha_negative",
            "compare_alpha_nan",
            "synth_informative", "synth_sigma", "synth_no_genes",
            "rank_lambda_nan", "select_eta_inf", "rank_gamma_nan",
            "synth_sigma_nan", "rank_eta_inf_no_data",
            "select_eta_inf_no_data", "evaluate_classifiers_no_data",
            "evaluate_cv_k_no_data", "rank_impute_neighbors_no_data",
            "select_impute_neighbors_no_data",
            "evaluate_impute_neighbors_no_data", "compare_alpha_no_reports"])
    def test_exits_1_with_one_line(self, synth_csv, report_doc, tmp_path,
                                   capsys, argv):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            for i in range(5):  # compare needs 5 paired datasets
                doc = dict(report_doc, dataset_name=f"d{i}")
                (tmp_path / d / f"r{i}.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [arg.format(data=synth_csv[0], out=out, a=tmp_path / "a",
                           b=tmp_path / "b", missing=tmp_path / "missing.csv")
                for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()


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

    def test_select_reports_against_evaluate_results(self, tmp_path):
        # the funnel against a fixed-gene baseline on the same 5 datasets
        genes = tmp_path / "genes.json"
        genes.write_text("[0, 1, 2]")
        runs = {"select": [*SELECT_FAST],
                "evaluate": ["--genes", str(genes), "--cv-k", "4",
                             "--cv-rounds", "1", "--classifiers", "knn"]}
        for command in runs:
            (tmp_path / command).mkdir()
        for i in range(5):
            data = tmp_path / f"data{i}.csv"
            assert main(["synth", "--out", str(data), "--samples", "24",
                         "--genes", "20", "--informative", "4",
                         "--seed", str(i)]) == 0
            for command, flags in runs.items():
                assert main([command, "--data", str(data), *flags, "--out",
                             str(tmp_path / command / f"r{i}.json")]) == 0
        out = tmp_path / "cmp.json"
        assert main(["compare", "--a", str(tmp_path / "select"),
                     "--b", str(tmp_path / "evaluate"),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_datasets"] == 5 and doc["classifier"] == "knn"
        assert doc["verdict"] in ("significant", "not significant")

    def test_dataset_paths_pair_as_normalized(self, tmp_path, monkeypatch):
        # the same CSV typed as data/d1.csv and ./data/d1.csv pairs up;
        # each file keeps its dataset name as typed
        monkeypatch.chdir(tmp_path)
        Path("data").mkdir()
        Path("genes.json").write_text("[0, 1, 2]")
        runs = {"select": ("data", [*SELECT_FAST]),
                "evaluate": ("./data", ["--genes", "genes.json", "--cv-k",
                                        "4", "--cv-rounds", "1",
                                        "--classifiers", "knn"])}
        for command in runs:
            Path(command).mkdir()
        for i in range(5):
            assert main(["synth", "--out", f"data/d{i}.csv", "--samples",
                         "24", "--genes", "20", "--informative", "4",
                         "--seed", str(i)]) == 0
            for command, (folder, flags) in runs.items():
                assert main([command, "--data", f"{folder}/d{i}.csv", *flags,
                             "--out", f"{command}/r{i}.json"]) == 0
        assert json.loads(Path("evaluate/r0.json").read_text())[
            "dataset_name"] == "./data/d0.csv"
        assert main(["compare", "--a", "select", "--b", "evaluate",
                     "--out", "cmp.json"]) == 0
        assert json.loads(Path("cmp.json").read_text())["n_datasets"] == 5

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


    def test_too_few_pairs_exit_1(self, tmp_path, report_doc, capsys):
        files = {f"r{i}": (f"d{i}", 0.5 + 0.1 * i) for i in range(4)}
        code, _ = self._compare(tmp_path, report_doc, files, files)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least 5 paired datasets" in err

    def test_nan_mean_exits_1(self, tmp_path, report_doc, capsys):
        # json.loads reads NaN; ranked, it would look like a difference
        files_a = {f"r{i}": (f"d{i}", 0.5 + 0.05 * i) for i in range(6)}
        files_b = dict(files_a, r5=("d5", math.nan))
        code, _ = self._compare(tmp_path, report_doc, files_a, files_b)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(tmp_path / "b" / "r5.json") in err and "finite" in err


class TestCompareDefaultClassifier:
    """Without --classifier, compare reads the first --a file's first
    configured classifier if it is a select report, or its only one if it
    is an evaluate result."""

    @staticmethod
    def _write(directory, report_doc, kinds, select, shift=0.0):
        """Six files for datasets d0..d5 with a summary per kind: select
        reports configured with ``kinds`` in that order, or evaluate
        results. Written with sorted keys, as both commands write them."""
        directory.mkdir()
        for i in range(6):
            if select:
                doc = json.loads(json.dumps(report_doc))
                spec = doc["config"]["eval_classifiers"][0]
                doc["config"]["eval_classifiers"] = [dict(spec, kind=kind)
                                                     for kind in kinds]
            else:
                doc = {"schema_version": report_doc["schema_version"],
                       "genes": [0, 1]}
            doc["dataset_name"] = f"d{i}"
            doc["summaries"] = {}
            for kind in kinds:
                summary = json.loads(json.dumps(report_doc["summaries"]["knn"]))
                summary["means"]["accuracy"] = 0.5 + 0.05 * i + shift
                doc["summaries"][kind] = summary
            (directory / f"r{i}.json").write_text(
                json.dumps(doc, sort_keys=True))

    def _compare(self, tmp_path, *flags):
        out = tmp_path / "cmp.json"
        code = main(["compare", "--a", str(tmp_path / "a"), "--b",
                     str(tmp_path / "b"), "--out", str(out), *flags])
        return code, (json.loads(out.read_text()) if code == 0 else None)

    def test_select_report_gives_its_first_configured_classifier(
            self, tmp_path, report_doc):
        # sorted keys put gaussian_nb first in summaries
        self._write(tmp_path / "a", report_doc, ["knn", "gaussian_nb"], True)
        self._write(tmp_path / "b", report_doc, ["gaussian_nb", "knn"],
                    False, shift=0.01)
        code, doc = self._compare(tmp_path)
        assert code == 0 and doc["classifier"] == "knn"

    def test_evaluate_result_gives_its_only_classifier(self, tmp_path,
                                                       report_doc):
        self._write(tmp_path / "a", report_doc, ["gaussian_nb"], False)
        self._write(tmp_path / "b", report_doc, ["knn", "gaussian_nb"], True,
                    shift=0.01)
        code, doc = self._compare(tmp_path)
        assert code == 0 and doc["classifier"] == "gaussian_nb"

    def test_evaluate_result_with_several_classifiers_exits_1(
            self, tmp_path, report_doc, capsys):
        self._write(tmp_path / "a", report_doc, ["knn", "gaussian_nb"], False)
        self._write(tmp_path / "b", report_doc, ["knn", "gaussian_nb"], True,
                    shift=0.01)
        code, _ = self._compare(tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "a" / "r0.json") in err
        assert "'gaussian_nb', 'knn'" in err and "--classifier" in err
        code, doc = self._compare(tmp_path, "--classifier", "knn")
        assert code == 0 and doc["classifier"] == "knn"


class TestCompareMalformedReports:
    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("dataset_name"),
        lambda doc: doc.update(summaries=[]),
        lambda doc: doc["summaries"]["knn"].pop("means"),
        lambda doc: doc.update(schema_version=99),
        lambda doc: doc["config"].update(eval_classifiers=[]),
    ], ids=["no_dataset_name", "summaries_list", "no_means",
            "schema_99", "no_configured_classifier"])
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
        assert main(["select", "--data", str(path), "--trees", "15",
                     "--max-depth", "2", "--subsample", "1.0",
                     "--pop", "10", "--gens", "4", "--seed", "0",
                     "--cv-k", "2", "--cv-rounds", "1",
                     "--out", str(tmp_path / "r.json"),
                     "--trace-out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness,best_size"
        assert len(lines) == 1 + 5  # generations 0..4

    @pytest.mark.parametrize("protocol", ["paper", "nested"])
    def test_is_the_selection_on_all_rows(self, synth_csv, tmp_path,
                                          protocol):
        path, _ = synth_csv
        traced = tmp_path / "trace.csv"
        argv = ["select", "--data", str(path), "--seed", "7", *SELECT_FAST,
                "--protocol", protocol, "--out", str(tmp_path / "r.json"),
                "--trace-out", str(traced)]
        assert main(argv) == 0
        args = build_parser().parse_args(argv)
        selection = select_genes(_load_prepared(args), _pipeline_config(args))
        expected = tmp_path / "expected.csv"
        ga.trace_to_csv(selection.trace, expected)
        assert traced.read_bytes() == expected.read_bytes()

    def test_trace_command_is_gone(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["trace", "--data", str(synth_csv[0]),
                     "--trace-out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'trace'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["select"])
    def test_no_gene_kept_names_stage_1(self, tmp_path, capsys, command):
        # every gene is constant, so no split gains and stage 1 keeps none
        data = tmp_path / "constant.csv"
        data.write_text("g0,g1,g2,label\n"
                        + "".join(f"1.0,2.0,3.0,{'ab'[i % 2]}\n"
                                  for i in range(12)))
        argv = [command, "--data", str(data), "--trees", "3", "--pop", "4",
                "--gens", "1", "--trace-out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: stage 1 kept no genes; the labels look independent of "
            "the data\n")
