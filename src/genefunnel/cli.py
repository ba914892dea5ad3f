"""Command-line interface.

Subcommands: synth (emit a benchmark CSV), rank (stage-1 importance only),
select (full pipeline report), evaluate (CV of a given gene subset),
compare (Wilcoxon over two directories, each of select reports or evaluate
results, paired by dataset name).

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import boosting, ga, pipeline
from .classifiers import KINDS, ClassifierSpec
from .data import impute_knn, load_csv, make_folds, normalize_minmax, project
from .errors import GeneFunnelError, ValidationError
from .stats import (METRIC_NAMES, fold_splits, score_splits,
                    wilcoxon_signed_rank)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_INDEX = re.compile(r"-?[0-9]+")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _seed(text):
    """argparse type of ``--seed``: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _alpha(text):
    """argparse type of ``compare --alpha``: a number in (0, 1)."""
    try:
        value = float(text)
        if 0.0 < value < 1.0:  # false for nan
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a number in (0, 1), got {text!r}")


def _field_flags(cls, flags) -> argparse.ArgumentParser:
    """A parent parser of ``flags``, each mapped to the field of config
    dataclass ``cls`` it sets. A flag stores its value under the field's
    name, so ``_build`` finds it there, and takes the field's default and
    that default's type."""
    p = argparse.ArgumentParser(add_help=False)
    for flag, name in flags.items():
        default = getattr(cls, name)
        p.add_argument(flag, dest=name, type=type(default), default=default)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="genefunnel",
                     description="Two-stage gene selection and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0)
    data = _field_flags(pipeline.PipelineConfig,
                        {"--impute-neighbors": "impute_neighbors"})
    data.add_argument("--data", required=True, help="input CSV path")
    data.add_argument("--label-column", choices=("first", "last"),
                      default="last")
    data.add_argument("--missing-token", default="NA")
    boost = _field_flags(boosting.BoostParams, {
        "--trees": "n_estimators", "--max-depth": "max_depth",
        "--subsample": "subsample", "--eta": "learning_rate",
        "--lambda": "lam", "--gamma": "gamma"})
    search = _field_flags(ga.GaConfig, {
        "--pop": "population_size", "--gens": "iterations",
        "--cx-prob": "crossover_prob", "--mut-prob": "mutation_prob",
        "--tournament": "tournament_size", "--knn-k": "fitness_knn_k"})
    evaluation = _field_flags(pipeline.PipelineConfig,
                              {"--cv-k": "cv_k", "--cv-rounds": "cv_rounds"})
    evaluation.add_argument(
        "--classifiers", help="comma-separated: " + ", ".join(KINDS),
        default=",".join(spec.kind for spec
                         in pipeline.PipelineConfig().eval_classifiers))

    p = sub.add_parser("synth", help="emit a synthetic benchmark CSV",
                       parents=[_field_flags(pipeline.SynthSpec, {
                           "--samples": "m_samples", "--genes": "n_genes",
                           "--informative": "n_informative",
                           "--classes": "n_classes", "--sigma": "noise_sigma",
                           "--missing-fraction": "missing_fraction"}), seed])
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", help="write planted gene indices as JSON")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("rank", help="stage 1 only: importance report",
                       parents=[data, boost, seed])
    p.add_argument("--out", help="JSON output path (default: stdout)")
    p.add_argument("--csv", dest="csv_out", help="also write ranking as CSV")
    p.set_defaults(run=_cmd_rank)

    p = sub.add_parser("select", help="full pipeline: report JSON + markdown",
                       parents=[data, boost, search, evaluation, seed])
    p.add_argument("--protocol", choices=("paper", "nested"),
                   default=pipeline.PipelineConfig.protocol)
    p.add_argument("--config", help="JSON or key=value config file; flags win")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--markdown-out", help="markdown table path")
    p.add_argument("--trace-out", help="GA trace CSV path: the selection "
                   "on all rows, under either protocol")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock runtimes in the JSON report "
                        "(breaks byte-for-byte reproducibility)")
    p.set_defaults(run=_cmd_select)

    p = sub.add_parser("evaluate", help="CV of a given gene-subset file",
                       parents=[data, evaluation, seed])
    p.add_argument("--genes", required=True,
                   help="JSON list or newline-separated gene indices")
    p.add_argument("--out", help="JSON output path (default: stdout)")
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("compare", help="Wilcoxon test over two report sets")
    p.add_argument("--a", required=True, help="directory of report JSON files")
    p.add_argument("--b", required=True, help="directory of report JSON files")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--metric", choices=METRIC_NAMES, default="accuracy")
    p.add_argument("--classifier", default=None,
                   help="classifier kind to compare (default: the first "
                   "--a file's first configured classifier, or its only one)")
    p.add_argument("--out", help="JSON output path (default: stdout)")
    p.set_defaults(run=_cmd_compare)

    parser.commands = sub.choices  # subparsers by name
    return parser


def _load_prepared(args):
    ds, mask = load_csv(args.data, label_column=args.label_column,
                        missing_token=args.missing_token)
    ds = impute_knn(ds, mask, n_neighbors=args.impute_neighbors)
    return normalize_minmax(ds)


def _build(cls, args, **values):
    """Config dataclass ``cls`` from each of its fields that ``args`` holds
    under the field's name, then ``values``; a field whose flag the command
    lacks keeps its default."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if hasattr(args, f.name)}
    return cls(**{**given, **values})


def _pipeline_config(args) -> pipeline.PipelineConfig:
    """The config of ``rank``, ``select`` and ``evaluate``, which build it
    before they read the data file, so a bad flag fails first."""
    values = {}
    if hasattr(args, "classifiers"):
        values["eval_classifiers"] = _eval_specs(args)
    return _build(pipeline.PipelineConfig, args,
                  boost=_build(boosting.BoostParams, args),
                  ga=_build(ga.GaConfig, args), **values)


def _eval_specs(args) -> tuple:
    """The evaluation classifiers that ``--classifiers`` names, which
    ``PipelineConfig`` checks."""
    return tuple(ClassifierSpec(kind=k.strip())
                 for k in args.classifiers.split(",") if k.strip())


def _emit(text: str, path):
    if path:
        pipeline.write_json_atomic(path, text)
    else:
        sys.stdout.write(text)


def _config_value(action, val):
    """Convert one config-file value the way its flag's argparse action
    would; raises ValueError, TypeError or argparse.ArgumentTypeError on
    a value the flag rejects."""
    if not isinstance(val, (str, int, float)):
        raise TypeError(f"expected a scalar, got {type(val).__name__}")
    if action.nargs == 0:  # store_true
        text = str(val).lower()
        if text not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"expected true or false, got {val!r}")
        return text in ("1", "true", "yes")
    if isinstance(val, bool):
        raise TypeError("expected a number or string, got a boolean")
    val = action.type(str(val)) if action.type else str(val)
    if action.choices and val not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return val


def _config_defaults(path, parser) -> dict:
    """The config file's values by dest, each converted and checked as
    ``parser``'s flag would. A key is a long flag name without its leading
    ``--``, written with ``-`` or ``_``. A file that is not UTF-8, an
    unknown key or a value the flag rejects raises GeneFunnelError naming
    the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GeneFunnelError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise GeneFunnelError(f"{path}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    if not isinstance(values, dict):
        raise GeneFunnelError(f"{path}: expected a JSON object or key=value "
                              "lines")
    actions = {flag: a for a in parser._actions for flag in a.option_strings
               if a.dest not in ("help", "config")}
    defaults = {}
    for key, val in values.items():
        action = actions.get("--" + key.replace("_", "-"))
        if action is None:
            raise GeneFunnelError(f"{path}: unknown config key {key!r}")
        try:
            defaults[action.dest] = _config_value(action, val)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise GeneFunnelError(
                f"{path}: bad value for config key {key!r}: {exc}") from exc
    return defaults


def _cmd_synth(args) -> int:
    result = pipeline.generate_synth(_build(pipeline.SynthSpec, args))
    ds = result.dataset
    missing = np.zeros(ds.values.shape, dtype=bool)
    missing[result.mask[:, 0], result.mask[:, 1]] = True
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.gene_ids) + ["label"])
        for values, gaps, label in zip(ds.values.tolist(), missing.tolist(),
                                       ds.labels):
            row = ["" if gap else repr(v) for v, gap in zip(values, gaps)]
            writer.writerow(row + [ds.class_names[label]])
    if args.truth_out:
        pipeline.write_json_atomic(
            args.truth_out,
            json.dumps({"informative_genes": list(result.informative_genes)},
                       sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_rank(args) -> int:
    params = _pipeline_config(args).boost
    ds = _load_prepared(args)
    model = boosting.fit(ds, ds.labels, params)
    report = boosting.importances(model)
    doc = {
        "dataset_name": ds.name,
        "n_genes": ds.n_genes,
        "ranking": [int(j) for j in report.ranking],
        "total_gain": {ds.gene_ids[int(j)]: float(report.total_gain[j])
                       for j in np.flatnonzero(report.total_gain > 0)},
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    if args.csv_out:
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gene_index", "gene_id", "total_gain", "split_count"])
            for j in report.ranking:
                writer.writerow([int(j), ds.gene_ids[int(j)],
                                 float(report.total_gain[j]),
                                 int(report.split_count[j])])
    return EXIT_OK


def _cmd_select(args) -> int:
    cfg = _pipeline_config(args)
    ds = _load_prepared(args)
    report = pipeline.run_pipeline(ds, cfg)
    text = pipeline.report_to_json(report, include_timings=args.timings)
    _emit(text, args.out)
    markdown = pipeline.report_to_markdown(report)
    if args.markdown_out:
        pipeline.write_json_atomic(args.markdown_out, markdown)
    if args.out:  # else the JSON is already on stdout
        sys.stdout.write(markdown)
    if args.trace_out:
        ga.trace_to_csv(report.ga_trace, args.trace_out)
    print(f"runtimes (s): {report.runtimes}", file=sys.stderr)
    return EXIT_OK


def _read_gene_subset(path) -> list:
    """Gene indices from a JSON list of integers or from whitespace-
    separated integers; any other content is an error naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise GeneFunnelError(f"{path}: not UTF-8 text") from None
    tokens = text.split()
    if all(_INDEX.fullmatch(t) for t in tokens):
        return [int(t) for t in tokens]
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        bad = next(t for t in tokens if not _INDEX.fullmatch(t))
        raise GeneFunnelError(
            f"{path}: expected a JSON list or whitespace-separated gene "
            f"indices, got {bad!r}") from None
    if not isinstance(parsed, list):
        raise GeneFunnelError(f"{path}: expected a JSON list of indices")
    for v in parsed:
        if type(v) is not int:  # bool is an int subclass; int(1.5) is 1
            raise GeneFunnelError(f"{path}: gene index {v!r} is not an "
                                  "integer")
    return parsed


def _cmd_evaluate(args) -> int:
    cfg = _pipeline_config(args)
    ds = _load_prepared(args)
    subset = sorted(set(_read_gene_subset(args.genes)))
    if not subset:
        raise GeneFunnelError(f"{args.genes}: no gene indices")
    for index in subset:
        if not 0 <= index < ds.n_genes:
            raise GeneFunnelError(
                f"{args.genes}: gene index {index} is outside "
                f"0..{ds.n_genes - 1} ({ds.name} has {ds.n_genes} genes)")
    plan = make_folds(ds.labels, cfg.cv_k, cfg.cv_rounds, cfg.seed)
    splits, skipped = fold_splits(project(ds, subset), plan)
    summaries = {spec.kind: dataclasses.asdict(
        score_splits(spec, splits, skipped)) for spec in cfg.eval_classifiers}
    doc = {"schema_version": pipeline.SCHEMA_VERSION, "dataset_name": ds.name,
           "genes": subset, "summaries": summaries}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _default_kind(path, doc):
    """The classifier ``compare`` reads when none is named: the first one a
    ``select`` report was configured with, or the only one of an
    ``evaluate`` result."""
    if "config" in doc:
        return doc["config"]["eval_classifiers"][0]["kind"]
    kinds = list(doc["summaries"])
    if len(kinds) > 1:
        raise ValidationError(f"{path}: holds classifiers "
                              f"{', '.join(map(repr, kinds))}; name one "
                              "with --classifier")
    return next(iter(kinds), None)


def _read_means(d, kind, metric):
    """(kind, {dataset key: (path, CV mean of ``metric`` for ``kind``,
    dataset name)}) over the JSON files of directory ``d``. The key is the
    dataset name with its path normalized, so ``data/d1.csv`` and
    ``./data/d1.csv`` pair. ``kind`` None takes the first file's default
    (``_default_kind``). A file may be a ``select`` report or an
    ``evaluate`` result: only schema_version, dataset_name and summaries
    are read, and a report's classifiers when ``kind`` is None."""
    paths = sorted(Path(d).glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no report JSON files in {d}")
    named = {}
    for p in paths:
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
            if doc["schema_version"] != pipeline.SCHEMA_VERSION:
                raise ValueError("unsupported schema_version "
                                 f"{doc['schema_version']!r}")
            name, summaries = doc["dataset_name"], doc["summaries"]
            if not (isinstance(name, str) and isinstance(summaries, dict)):
                raise TypeError("dataset_name is not a string or summaries "
                                "is not an object")
            kind = kind or _default_kind(p, doc)
            if kind not in summaries:
                raise ValidationError(f"{p}: no {kind!r} classifier summary")
            mean = summaries[kind]["means"][metric]
            if type(mean) not in (int, float) or not math.isfinite(mean):
                raise ValueError(f"{kind} {metric} mean {mean!r} is not a "
                                 "finite number")
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        except (LookupError, TypeError, ValueError) as exc:
            raise ValidationError(f"{p}: not a valid report "
                                  f"({type(exc).__name__}: {exc})") from None
        key = os.path.normpath(name)
        if key in named:
            raise ValidationError(f"{d}: dataset {name!r} is in both "
                                  f"{named[key][0]} and {p}")
        named[key] = (p, mean, name)
    return kind, named


def _cmd_compare(args) -> int:
    kind, named_a = _read_means(args.a, args.classifier, args.metric)
    _, named_b = _read_means(args.b, kind, args.metric)
    unpaired = set(named_a) ^ set(named_b)
    if unpaired:
        written = {**named_a, **named_b}
        raise ValidationError(
            f"datasets not in both {args.a} and {args.b}: "
            + ", ".join(map(repr, sorted(written[key][2]
                                         for key in unpaired))))
    if len(named_a) < 5:
        raise ValidationError(f"{args.a}, {args.b}: need at least 5 paired "
                              f"datasets, got {len(named_a)}")
    x = [named_a[key][1] for key in sorted(named_a)]
    y = [named_b[key][1] for key in sorted(named_a)]
    result = wilcoxon_signed_rank(x, y, alpha=args.alpha)
    doc = {
        "classifier": kind,
        "metric": args.metric,
        "n_datasets": len(x),
        "w_statistic": result.w_statistic,
        "p_value": result.p_value,
        "n_effective": result.n_effective,
        "method": result.method,
        "alpha": result.alpha,
        "verdict": "significant" if result.significant else "not significant",
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            # the file's values become select's defaults and argv is parsed
            # again: the command line beats the file, the file the built-ins
            select = parser.commands["select"]
            select.set_defaults(**_config_defaults(args.config, select))
            args = parser.parse_args(argv)
        return args.run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GeneFunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
