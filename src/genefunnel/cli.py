"""Command-line interface.

Subcommands: synth (emit a benchmark CSV), rank (stage-1 importance only),
select (full pipeline report), evaluate (CV of a given gene subset),
compare (Wilcoxon over two report directories), trace (GA trace CSV).

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import boosting, ga, pipeline
from .classifiers import ClassifierSpec
from .data import impute_knn, load_csv, make_folds, normalize_minmax
from .errors import GeneFunnelError, ValidationError
from .stats import cross_validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_INDEX = re.compile(r"-?[0-9]+")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--label-column", choices=("first", "last"), default="last")
    p.add_argument("--missing-token", default="NA")
    p.add_argument("--impute-neighbors", type=int, default=5)


def _add_boost_flags(p):
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--subsample", type=float, default=0.75)
    p.add_argument("--eta", type=float, default=0.3, help="learning rate")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)


def _add_ga_flags(p):
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--gens", type=int, default=50)
    p.add_argument("--cx-prob", type=float, default=0.8)
    p.add_argument("--mut-prob", type=float, default=0.01)
    p.add_argument("--tournament", type=int, default=2)
    p.add_argument("--knn-k", type=int, default=5)


def _add_eval_flags(p):
    p.add_argument("--cv-k", type=int, default=10)
    p.add_argument("--cv-rounds", type=int, default=10)
    p.add_argument("--classifiers", default="linear_svm,gaussian_nb",
                   help="comma-separated: knn, gaussian_nb, linear_svm")


def build_parser() -> _Parser:
    parser = _Parser(prog="genefunnel",
                     description="Two-stage gene selection and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="emit a synthetic benchmark CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--genes", type=int, default=500)
    p.add_argument("--informative", type=int, default=10)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--missing-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth-out", help="write planted gene indices as JSON")

    p = sub.add_parser("rank", help="stage 1 only: importance report")
    _add_data_flags(p)
    _add_boost_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON output path (default: stdout)")
    p.add_argument("--csv", dest="csv_out", help="also write ranking as CSV")

    p = sub.add_parser("select", help="full pipeline: report JSON + markdown")
    _add_data_flags(p)
    _add_boost_flags(p)
    _add_ga_flags(p)
    _add_eval_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--protocol", choices=("paper", "nested"), default="paper")
    p.add_argument("--config", help="JSON or key=value config file; flags win")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--markdown-out", help="markdown table path")
    p.add_argument("--trace-out", help="GA trace CSV path")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock runtimes in the JSON report "
                        "(breaks byte-for-byte reproducibility)")

    p = sub.add_parser("evaluate", help="CV of a given gene-subset file")
    _add_data_flags(p)
    _add_eval_flags(p)
    p.add_argument("--genes", required=True,
                   help="JSON list or newline-separated gene indices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON output path (default: stdout)")

    p = sub.add_parser("compare", help="Wilcoxon test over two report sets")
    p.add_argument("--a", required=True, help="directory of report JSON files")
    p.add_argument("--b", required=True, help="directory of report JSON files")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--metric", default="accuracy")
    p.add_argument("--classifier", default=None,
                   help="classifier kind to compare (default: first in reports)")
    p.add_argument("--out", help="JSON output path (default: stdout)")

    p = sub.add_parser("trace", help="run selection and emit the GA trace CSV")
    _add_data_flags(p)
    _add_boost_flags(p)
    _add_ga_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", required=True)

    return parser


def _load_prepared(args):
    ds, mask = load_csv(args.data, label_column=args.label_column,
                        missing_token=args.missing_token)
    # impute_knn validates n_neighbors even when no cell is missing
    ds = impute_knn(ds, mask, n_neighbors=args.impute_neighbors)
    return normalize_minmax(ds)


def _boost_params(args) -> boosting.BoostParams:
    return boosting.BoostParams(
        n_estimators=args.trees, max_depth=args.max_depth,
        subsample=args.subsample, learning_rate=args.eta,
        lam=args.lam, gamma=args.gamma, seed=args.seed)


def _ga_config(args) -> ga.GaConfig:
    return ga.GaConfig(
        population_size=args.pop, iterations=args.gens,
        crossover_prob=args.cx_prob, mutation_prob=args.mut_prob,
        tournament_size=args.tournament, fitness_knn_k=args.knn_k,
        seed=args.seed)


def _eval_specs(args) -> tuple:
    kinds = [k.strip() for k in args.classifiers.split(",") if k.strip()]
    return tuple(ClassifierSpec(kind=k, seed=args.seed) for k in kinds)


def _emit(text: str, path):
    if path:
        pipeline.write_json_atomic(path, text)
    else:
        sys.stdout.write(text)


def _config_value(action, val):
    """Convert one config-file value the way its flag's argparse action
    would; raises ValueError or TypeError on a value the flag rejects."""
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


def _apply_config_file(args, actions, given):
    """Overlay config-file values under explicit flags: file beats
    defaults, command line beats file.

    ``actions`` maps each flag's dest to its argparse action; ``given``
    holds the dests set on the command line, whatever their value.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
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
    for key, val in values.items():
        attr = key.replace("-", "_")
        if attr not in actions or attr == "config":
            raise GeneFunnelError(f"{path}: unknown config key {key!r}")
        try:
            val = _config_value(actions[attr], val)
        except (TypeError, ValueError) as exc:
            raise GeneFunnelError(
                f"{path}: bad value for config key {key!r}: {exc}") from exc
        # explicit command-line flags keep priority
        if attr not in given:
            setattr(args, attr, val)
    return args


def _given_dests(argv) -> set:
    """Dests that the command line sets, found by parsing it again with
    every default suppressed: a flag given with its default value counts
    as given."""
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices.values()
    for p in (parser, *subparsers):
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _cmd_synth(args) -> int:
    spec = pipeline.SynthSpec(
        m_samples=args.samples, n_genes=args.genes,
        n_informative=args.informative, n_classes=args.classes,
        noise_sigma=args.sigma, missing_fraction=args.missing_fraction,
        seed=args.seed)
    result = pipeline.generate_synth(spec)
    ds = result.dataset
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.gene_ids) + ["label"])
        for i in range(ds.n_samples):
            row = [("" if (i, j) in result.mask else repr(float(ds.values[i, j])))
                   for j in range(ds.n_genes)]
            writer.writerow(row + [ds.class_names[ds.labels[i]]])
    if args.truth_out:
        pipeline.write_json_atomic(
            args.truth_out,
            json.dumps({"informative_genes": list(result.informative_genes)},
                       sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_rank(args) -> int:
    ds = _load_prepared(args)
    model = boosting.fit(ds, ds.labels, _boost_params(args))
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


def _cmd_select(args, actions, given) -> int:
    args = _apply_config_file(args, actions, given)
    ds = _load_prepared(args)
    cfg = pipeline.PipelineConfig(
        boost=_boost_params(args), ga=_ga_config(args),
        eval_classifiers=_eval_specs(args), cv_k=args.cv_k,
        cv_rounds=args.cv_rounds, protocol=args.protocol,
        impute_neighbors=args.impute_neighbors, seed=args.seed)
    report = pipeline.run_pipeline(ds, cfg)
    text = pipeline.report_to_json(report, include_timings=args.timings)
    _emit(text, args.out)
    markdown = pipeline.report_to_markdown(report)
    if args.markdown_out:
        pipeline.write_json_atomic(args.markdown_out, markdown)
    if not args.out:
        pass  # JSON already on stdout
    else:
        sys.stdout.write(markdown)
    if args.trace_out and report.ga_trace is not None:
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
    ds = _load_prepared(args)
    subset = sorted(set(_read_gene_subset(args.genes)))
    plan = make_folds(ds.labels, args.cv_k, args.cv_rounds, args.seed)
    doc = {"dataset_name": ds.name, "genes": subset, "summaries": {}}
    for spec in _eval_specs(args):
        doc["summaries"][spec.kind] = cross_validate(subset, ds, spec,
                                                     plan).as_dict()
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    def read_dir(d):
        """Reports of one directory by dataset name, as (path, report)."""
        paths = sorted(Path(d).glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no report JSON files in {d}")
        named = {}
        for p in paths:
            try:
                report = pipeline.report_from_json(
                    p.read_text(encoding="utf-8"))
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            except (GeneFunnelError, AttributeError, KeyError, TypeError,
                    ValueError) as exc:
                raise ValidationError(
                    f"{p}: not a valid report ({type(exc).__name__}: {exc})"
                ) from exc
            name = report.dataset_name
            if not isinstance(name, str):
                raise ValidationError(
                    f"{p}: not a valid report (dataset_name is not a string)")
            if name in named:
                raise ValidationError(f"{d}: dataset {name!r} is in both "
                                      f"{named[name][0]} and {p}")
            named[name] = (p, report)
        return named

    def summaries(named, kind):
        for p, r in named.values():
            if kind not in r.summaries:
                raise ValidationError(f"{p}: no {kind!r} classifier summary")
        return [named[name][1].summaries[kind] for name in sorted(named)]

    named_a = read_dir(args.a)
    named_b = read_dir(args.b)
    unpaired = sorted(set(named_a) ^ set(named_b))
    if unpaired:
        raise ValidationError(
            f"datasets not in both {args.a} and {args.b}: "
            + ", ".join(map(repr, unpaired)))
    kind = args.classifier
    if kind is None:
        _, first = next(iter(named_a.values()))
        kind = next(iter(first.summaries), None)
    summaries_a = summaries(named_a, kind)
    summaries_b = summaries(named_b, kind)
    result = pipeline.compare_reports(summaries_a, summaries_b,
                                      alpha=args.alpha, metric=args.metric)
    doc = {
        "classifier": kind,
        "metric": args.metric,
        "n_datasets": len(summaries_a),
        "w_statistic": result.w_statistic,
        "p_value": result.p_value,
        "n_effective": result.n_effective,
        "method": result.method,
        "alpha": result.alpha,
        "verdict": "significant" if result.significant else "not significant",
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_trace(args) -> int:
    ds = _load_prepared(args)
    model = boosting.fit(ds, ds.labels, _boost_params(args))
    stage1 = boosting.select_nonzero(boosting.importances(model))
    from .data import project
    _, trace = ga.evolve(project(ds, stage1), _ga_config(args))
    ga.trace_to_csv(trace, args.trace_out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    sub = parser._subparsers._group_actions[0].choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.option_strings
               and a.dest != "help"}

    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "rank":
            return _cmd_rank(args)
        if args.command == "select":
            return _cmd_select(args, actions, _given_dests(argv))
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return EXIT_VALIDATION
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GeneFunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
