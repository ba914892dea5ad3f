"""End-to-end orchestration: boosted ranking, GA search, CV evaluation,
synthetic benchmark generation, and report (de)serialization.

Two protocols are supported. ``paper`` selects genes on the full dataset
and cross-validates afterwards; ``nested`` repeats both selection stages
inside every outer training fold and scores only the held-out fold.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import boosting, ga
from .classifiers import KINDS, ClassifierSpec
from .data import Dataset, atomic_open, make_folds, project
from .errors import PipelineError, ValidationError
from .stats import METRIC_NAMES, CvSummary, fold_splits, score_splits

__all__ = [
    "PipelineConfig",
    "PipelineReport",
    "SynthSpec",
    "SynthResult",
    "Selection",
    "select_genes",
    "run_pipeline",
    "generate_synth",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
    "report_to_markdown",
    "write_json_atomic",
]

SCHEMA_VERSION = 1


def _default_eval_classifiers():
    return (ClassifierSpec(kind="linear_svm"), ClassifierSpec(kind="gaussian_nb"))


@dataclass(frozen=True)
class PipelineConfig:
    boost: boosting.BoostParams = field(default_factory=boosting.BoostParams)
    ga: ga.GaConfig = field(default_factory=ga.GaConfig)
    eval_classifiers: tuple = field(default_factory=_default_eval_classifiers)
    cv_k: int = 10
    cv_rounds: int = 10
    protocol: str = "paper"
    impute_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in ("paper", "nested"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if self.cv_k < 2 or self.cv_rounds < 1:
            raise ValidationError("cv_k >= 2 and cv_rounds >= 1 required")
        if self.impute_neighbors < 1:
            raise ValidationError(f"impute_neighbors (the imputer's "
                                  f"n_neighbors) must be >= 1, got "
                                  f"{self.impute_neighbors}")
        # summaries are keyed by kind: none would leave nothing to compare,
        # and a repeated kind would report only its last spec
        kinds = [spec.kind for spec in self.eval_classifiers]
        if not kinds or len(set(kinds)) < len(kinds):
            raise ValidationError(f"eval_classifiers (--classifiers) must "
                                  f"name one or more of {', '.join(KINDS)}, "
                                  f"each once; got {kinds}")


@dataclass
class PipelineReport:
    dataset_name: str
    n_samples: int
    n_genes: int
    stage1_genes: list        # original indices, ascending
    stage1_ids: list
    stage1_gains: list
    final_genes: list
    final_ids: list
    summaries: dict           # classifier kind -> CvSummary
    runtimes: dict            # stage -> seconds (ms resolution)
    config: dict
    protocol: str
    seed: int
    ga_trace: ga.GaTrace | None = None  # not serialized

    @property
    def n_stage1(self) -> int:
        return len(self.stage1_genes)


@dataclass(frozen=True)
class SynthSpec:
    m_samples: int = 60
    n_genes: int = 500
    n_informative: int = 10
    n_classes: int = 2
    noise_sigma: float = 0.5
    missing_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_genes < 1:
            raise ValidationError("n_genes must be at least 1")
        if self.n_informative < 0:
            raise ValidationError("n_informative must be non-negative")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError("noise_sigma must be finite and non-negative")
        if self.n_informative > self.n_genes:
            raise ValidationError("n_informative exceeds n_genes")
        if not 0.0 <= self.missing_fraction < 1.0:
            raise ValidationError("missing_fraction must be in [0, 1)")
        if self.n_classes < 2:
            raise ValidationError("need at least two classes")
        if self.m_samples < 2 * self.n_classes:
            raise ValidationError("need at least two samples per class")


@dataclass(frozen=True, eq=False)
class SynthResult:
    """``mask`` holds the missing cells as ``load_csv`` returns them: a
    read-only (K, 2) int64 array of (row, column) in row-major order."""
    dataset: Dataset
    mask: np.ndarray
    informative_genes: tuple        # planted gene indices, ascending


def generate_synth(spec: SynthSpec) -> SynthResult:
    """Planted-informative-gene benchmark generator.

    Informative genes get class-conditional means spaced by
    max(1, 2*noise_sigma); the rest are standard-normal noise. Labels are
    balanced, and missing_fraction of cells is masked uniformly; a draw
    that masks every cell of a gene column raises ValidationError, since
    no command accepts such a column.
    """
    rng = np.random.default_rng(spec.seed)
    m, n, c = spec.m_samples, spec.n_genes, spec.n_classes
    labels = np.arange(m) % c
    informative = np.sort(rng.choice(n, size=spec.n_informative, replace=False))
    values = rng.normal(0.0, 1.0, size=(m, n))
    separation = max(1.0, 2.0 * spec.noise_sigma)
    for j in informative:
        values[:, j] = (labels * separation
                        + rng.normal(0.0, spec.noise_sigma, size=m))
    mask = np.empty((0, 2), dtype=np.int64)
    if spec.missing_fraction > 0.0:
        cells = rng.random((m, n)) < spec.missing_fraction
        empty = np.flatnonzero(cells.all(axis=0))
        if empty.size:
            raise ValidationError(
                f"missing_fraction {spec.missing_fraction} left gene column "
                f"{empty[0]} ('g{empty[0]:05d}') with no observed cell")
        mask = np.argwhere(cells)
    mask.setflags(write=False)
    gene_ids = tuple(f"g{j:05d}" for j in range(n))
    class_names = tuple(f"class{k}" for k in range(c))
    ds = Dataset(values, labels, gene_ids, class_names,
                 name=f"synth-{spec.seed}")
    return SynthResult(dataset=ds, mask=mask,
                       informative_genes=tuple(int(j) for j in informative))


@dataclass
class Selection:
    """Both selection stages' result on one dataset."""
    stage1: np.ndarray        # genes kept by stage 1, ascending indices
    gains: np.ndarray         # their stage-1 total gains
    final: np.ndarray         # genes the GA picked among them
    trace: ga.GaTrace
    runtimes: dict            # "stage1" and "stage2" seconds (ms resolution)


def select_genes(ds: Dataset, cfg: PipelineConfig,
                 seed_offset=None) -> Selection:
    """Run both selection stages on ``ds``: boosted-tree ranking keeps the
    genes of nonzero gain, then the GA searches among them. With a
    ``seed_offset`` (an outer fold's ``(r, f)``), both stages draw from
    seeds derived from it."""
    boost_params = cfg.boost
    ga_cfg = cfg.ga
    if seed_offset is not None:
        boost_params = dataclasses.replace(
            boost_params, seed=_derive_seed(boost_params.seed, seed_offset))
        ga_cfg = dataclasses.replace(
            ga_cfg, seed=_derive_seed(ga_cfg.seed, seed_offset))
    t0 = time.perf_counter()
    model = boosting.fit(ds, ds.labels, boost_params)
    importance = boosting.importances(model)
    try:
        stage1 = boosting.select_nonzero(importance)
    except ValidationError as exc:
        raise PipelineError(
            "stage 1 kept no genes; the labels look independent of the data"
        ) from exc
    t1 = time.perf_counter()
    best, trace = ga.evolve(project(ds, stage1), ga_cfg)
    final = ga.decode(best, stage1)
    t2 = time.perf_counter()
    return Selection(stage1=stage1, gains=importance.total_gain[stage1],
                     final=final, trace=trace,
                     runtimes={"stage1": _ms(t1 - t0),
                               "stage2": _ms(t2 - t1)})


def _derive_seed(seed: int, offset: tuple) -> int:
    return int(np.random.SeedSequence([seed, *offset]).generate_state(1)[0])


def run_pipeline(ds: Dataset, cfg: PipelineConfig) -> PipelineReport:
    """Execute the two-stage selection and the CV evaluation harness.

    The input is expected to be imputed and normalized already. The fold
    plan depends only on the labels and the config, so a plan that cannot
    be made fails before any selection runs.
    """
    plan = make_folds(ds.labels, cfg.cv_k, cfg.cv_rounds, cfg.seed)
    selection = select_genes(ds, cfg)
    stage1, final = selection.stage1, selection.final
    runtimes = dict(selection.runtimes)

    t2 = time.perf_counter()
    if cfg.protocol == "paper":
        splits, skipped = fold_splits(project(ds, final), plan)
    else:
        # both selection stages are re-run inside each outer training fold
        splits, skipped = fold_splits(ds, plan, lambda train_ds, r, f: (
            select_genes(train_ds, cfg, seed_offset=(r, f)).final))
    summaries = {spec.kind: score_splits(spec, splits, skipped)
                 for spec in cfg.eval_classifiers}
    runtimes["evaluation"] = _ms(time.perf_counter() - t2)

    return PipelineReport(
        dataset_name=ds.name,
        n_samples=ds.n_samples,
        n_genes=ds.n_genes,
        stage1_genes=[int(j) for j in stage1],
        stage1_ids=[ds.gene_ids[int(j)] for j in stage1],
        stage1_gains=[float(v) for v in selection.gains],
        final_genes=[int(j) for j in final],
        final_ids=[ds.gene_ids[int(j)] for j in final],
        summaries=summaries,
        runtimes=runtimes,
        config=config_to_dict(cfg),
        protocol=cfg.protocol,
        seed=cfg.seed,
        ga_trace=selection.trace,
    )


def _ms(seconds: float) -> float:
    return round(seconds, 3)


def config_to_dict(cfg: PipelineConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["eval_classifiers"] = list(doc["eval_classifiers"])
    return doc


def _report_fields() -> list:
    """Names of the PipelineReport fields that a report serializes."""
    return [f.name for f in dataclasses.fields(PipelineReport)
            if f.name != "ga_trace"]


def report_to_dict(report: PipelineReport, include_timings: bool = True) -> dict:
    # asdict deep-copies every field, so the trace is dropped first
    doc = dataclasses.asdict(dataclasses.replace(report, ga_trace=None))
    del doc["ga_trace"]
    doc.update(schema_version=SCHEMA_VERSION, n_stage1=report.n_stage1)
    if not include_timings:
        del doc["runtimes"]
    return doc


def report_from_dict(doc: dict) -> PipelineReport:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported report schema_version {doc.get('schema_version')!r}")
    # runtimes are optional: reports written without --timings omit them
    values = {name: doc[name] if name != "runtimes" else doc.get(name, {})
              for name in _report_fields()}
    values["summaries"] = {k: CvSummary.from_dict(v)
                           for k, v in values["summaries"].items()}
    return PipelineReport(**values)


def report_to_json(report: PipelineReport, include_timings: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_timings=include_timings),
                      sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> PipelineReport:
    return report_from_dict(json.loads(text))


def report_to_markdown(report: PipelineReport) -> str:
    """Human-readable summary table in the percent +/- std style."""
    lines = [
        f"# {report.dataset_name}",
        "",
        f"- samples: {report.n_samples}, genes: {report.n_genes}",
        f"- selection funnel: {report.n_genes} -> {report.n_stage1} -> "
        f"{len(report.final_genes)} genes ({report.protocol} protocol)",
        f"- final genes: {', '.join(report.final_ids)}",
    ]
    if report.protocol == "paper":
        lines.append(
            "- CV is selection-biased: genes were selected on all rows "
            "before cross-validation (Ambroise & McLachlan, PNAS 2002)")
    if report.runtimes:
        lines.append(
            "- runtimes (s): "
            + ", ".join(f"{k}={v:.3f}" for k, v in report.runtimes.items()))
    lines += ["", "| classifier | " + " | ".join(METRIC_NAMES) + " |",
              "|---" * (len(METRIC_NAMES) + 1) + "|"]
    for kind, summary in report.summaries.items():
        cells = [f"{100 * summary.means[m]:.2f} (+/- {100 * summary.stds[m]:.2f})"
                 for m in METRIC_NAMES]
        lines.append(f"| {kind} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def write_json_atomic(path, text: str):
    """Write text through ``data.atomic_open``: readers never see partial
    output, and a failed write or rename leaves no temp file."""
    with atomic_open(path) as fh:
        fh.write(text)
