"""End-to-end benchmark of the genefunnel pipeline, with per-layer tracing.

Usage (from the repository root):

    python3 pipebench/run.py --workload paper-60x500 --seed 42 \
        [--trace 0|1] [--record out.json]

A run draws its workload's input datasets from ``--seed`` with
``pipeline.generate_synth``, writes each one as a CSV inside the
checkout, and prepares it the way ``genefunnel select`` does
(``load_csv``, ``impute_knn``, ``normalize_minmax``): that is set-up.
It then calls ``run_pipeline`` on the inputs in turn for BENCHMARK.json's
``run_seconds``, checking every report, and prints the end-to-end
metrics. ``setup_s`` and ``pipeline_s`` are wall times scaled to a fixed
machine speed measured by the reference loop in reference.py, taken as
the median per input and then averaged over the inputs; the unscaled
figures are printed beside them as ``setup_wall_s`` and
``pipeline_wall_s``. ``--seconds`` is accepted only with the value
``run_seconds``, so every run measures for the same time.
With ``--trace 1`` it instead makes one untraced and one traced call per
input and prints per-layer spans, counters and layer shares.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, where ``metrics`` holds the ones
BENCHMARK.json lists. ``--record`` also writes the full result, with
the environment, for ``compare.py``. BLAS and OpenMP get one thread
each, set before numpy is imported.
"""
from __future__ import annotations

import os

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

if not (ROOT / "src" / "genefunnel").is_dir():
    sys.exit(f"pipebench: no genefunnel sources under {ROOT / 'src'}")

import numpy as np  # noqa: E402

import genefunnel  # noqa: E402
from genefunnel import data, pipeline  # noqa: E402

import tracer  # noqa: E402
from reference import REFERENCE_S, reference_loop  # noqa: E402
from workloads import TRACE_INPUTS, WORKLOADS  # noqa: E402

SHARE_TOLERANCE = 0.05  # "within a few points" of a workload's target share
SETUP_SLICE = 0.2       # seconds of set-up re-timed after each pipeline call
REFERENCE_SLICE = 0.2   # seconds of reference loop around each timed sample
ROOT_TOLERANCE_S = 0.05  # run_pipeline span vs the report's own stage timers
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "kernel_backend": genefunnel.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def write_csv(path: Path, synth) -> None:
    """Write a generated dataset in the CSV layout ``load_csv`` reads,
    with masked cells as ``NA`` and the label in the last column."""
    ds = synth.dataset
    missing = {}
    for i, j in synth.mask:
        missing.setdefault(i, []).append(j)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.gene_ids) + ",label\n")
        for i, row in enumerate(ds.values):
            cells = ["%.6g" % v for v in row]
            for j in missing.get(i, ()):
                cells[j] = "NA"
            cells.append(ds.class_names[ds.labels[i]])
            fh.write(",".join(cells) + "\n")


def make_inputs(workload, seed: int, count: int, workdir: Path) -> list:
    """Generate the run's first ``count`` datasets from the seed; returns
    (csv path, planted genes) per input."""
    inputs = []
    for i in range(count):
        sub_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        synth = pipeline.generate_synth(pipeline.SynthSpec(
            m_samples=workload.samples, n_genes=workload.genes,
            n_informative=10, n_classes=workload.classes, noise_sigma=0.5,
            missing_fraction=workload.missing_fraction, seed=sub_seed))
        path = workdir / f"input{i}.csv"
        write_csv(path, synth)
        inputs.append((path, synth.informative_genes))
    return inputs


def prepare(path: Path, workload) -> data.Dataset:
    """CSV to prepared Dataset, as ``genefunnel select`` does it."""
    ds, mask = data.load_csv(path, name=path.stem)
    ds = data.impute_knn(ds, mask, workload.config.impute_neighbors)
    return data.normalize_minmax(ds)


def fingerprint(report) -> str:
    text = pipeline.report_to_json(report, include_timings=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(report) -> list:
    """Correctness gate on one report; returns the failed checks."""
    problems = []
    text = pipeline.report_to_json(report)
    if pipeline.report_to_json(pipeline.report_from_json(text)) != text:
        problems.append("report does not round-trip through report_from_json")
    if not (report.n_genes >= report.n_stage1 >= len(report.final_genes) >= 1):
        problems.append(
            f"funnel sizes {report.n_genes} >= {report.n_stage1} >= "
            f"{len(report.final_genes)} >= 1 do not hold")
    return problems


class Runs:
    """Timed ``run_pipeline`` calls on prepared inputs, with the
    correctness gate applied to each report."""

    def __init__(self, workload, prepared):
        self.workload = workload
        self.prepared = prepared
        self.times = {}          # input index -> list of seconds
        self.reports = {}        # input index -> first report
        self.fingerprints = {}   # input index -> sha256 of first report
        self.attempted = 0
        self.failed = 0

    def run(self, i: int):
        """One checked call on input ``i``; returns its seconds, or None
        when it raised or failed a check."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = pipeline.run_pipeline(self.prepared[i],
                                           self.workload.config)
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        elapsed = time.perf_counter() - start
        problems = check_report(report)
        fp = fingerprint(report)
        if self.fingerprints.setdefault(i, fp) != fp:
            problems.append(f"input {i}: report differs between runs")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        self.times.setdefault(i, []).append(elapsed)
        self.reports.setdefault(i, report)
        return elapsed


def reference_slice() -> float:
    """Median seconds of the reference loop over REFERENCE_SLICE seconds."""
    times = []
    end = time.perf_counter() + REFERENCE_SLICE
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, inputs) -> tuple:
    """Cycle over the inputs for RUN_SECONDS seconds, running every
    input at least once and the first one twice, so that each run of the
    benchmark checks that its reports repeat. Between pipeline calls, SETUP_SLICE seconds go to
    re-timing set-up.

    Every pipeline call and every set-up slice is bracketed by reference
    loop slices (see reference.py), so each sample is paired with the
    machine speed just before and after it. Returns the runs and the
    pipeline and set-up samples as (input index, wall seconds, reference
    seconds).
    """
    runs = Runs(workload, [prepare(path, workload) for path, _ in inputs])
    pipeline_samples, setup_samples = [], []
    n = len(inputs)
    before = reference_slice()
    start = time.perf_counter()
    last = 0.0
    k = j = 0
    while k <= n or time.perf_counter() - start + last / 2 < RUN_SECONDS:
        t0 = time.perf_counter()
        elapsed = runs.run(k % n)
        after = reference_slice()
        if elapsed is not None:
            pipeline_samples.append((k % n, elapsed, (before + after) / 2))
        walls = []
        slice_end = time.perf_counter() + SETUP_SLICE
        while not walls or time.perf_counter() < slice_end:
            s0 = time.perf_counter()
            prepare(inputs[j % n][0], workload)
            walls.append((j % n, time.perf_counter() - s0))
            j += 1
        before = reference_slice()
        setup_samples += [(i, w, (after + before) / 2) for i, w in walls]
        last = time.perf_counter() - t0
        k += 1
    return runs, pipeline_samples, setup_samples


def input_mean(samples, scaled: bool = True) -> float:
    """Median time per input, averaged over the inputs, so that each input
    weighs the same however many samples it got. Wall times are scaled
    to the reference speed unless ``scaled`` is false."""
    per_input = {}
    for i, wall, ref in samples:
        per_input.setdefault(i, []).append(
            wall * REFERENCE_S / ref if scaled else wall)
    return statistics.fmean(map(statistics.median, per_input.values()))


def quality(runs: Runs, planted: list) -> dict:
    """Selection quality, averaged over the inputs that produced a report."""
    acc, recall, size = [], [], []
    for i, report in runs.reports.items():
        first = next(iter(report.summaries.values()))
        acc.append(first.means["accuracy"])
        recall.append(len(set(report.final_genes) & set(planted[i]))
                      / len(planted[i]))
        size.append(len(report.final_genes))
    if not acc:
        return dict.fromkeys(("cv_accuracy", "planted_recall", "final_size"),
                             float("nan"))
    return {"cv_accuracy": statistics.fmean(acc),
            "planted_recall": statistics.fmean(recall),
            "final_size": statistics.fmean(size)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def merged_totals(tracers, scales) -> dict:
    """Span totals of the traced inputs, one tracer each: calls summed,
    seconds scaled like ``pipeline_s`` and averaged per input."""
    out = {}
    for tr, scale in zip(tracers, scales):
        for name, (calls, total, own) in tr.totals().items():
            c, t, o = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + total * scale / len(tracers),
                         o + own * scale / len(tracers))
    return out


def layer_metrics(totals: dict, counts, reports) -> dict:
    """Per-layer metrics of one traced pass: seconds per input (one
    prepare and one run_pipeline call), counts summed over the inputs."""

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    m = {
        "kernels.best_split_s": secs("kernels.best_split"),
        "kernels.best_split_calls": calls("kernels.best_split"),
        "kernels.best_split_cells": counts["kernels.best_split_cells"],
        "kernels.knn_predict_s": secs("kernels.knn_predict"),
        "kernels.knn_predict_calls": calls("kernels.knn_predict"),
        "kernels.knn_distance_cells": counts["kernels.knn_distance_cells"],
        "boosting.fit_s": secs("boosting.fit"),
        "boosting.fit_calls": calls("boosting.fit"),
        "boosting.self_s": own("boosting.fit"),
        "boosting.grad_hess_calls": counts["boosting.grad_hess_calls"],
        "ga.evolve_s": secs("ga.evolve"),
        "ga.fitness_s": secs("ga.fitness"),
        "ga.fitness_calls": calls("ga.fitness"),
        "ga.eval_ratio": (calls("ga.fitness") / counts["ga.candidates"]
                          if counts["ga.candidates"] else 0.0),
        "ga.self_s": own("ga.evolve"),
        "data.load_csv_s": secs("data.load_csv"),
        "data.impute_knn_s": secs("data.impute_knn"),
        "data.normalize_minmax_s": secs("data.normalize_minmax"),
        "data.imputed_cells": counts["data.imputed_cells"],
        "data.project_calls": counts["data.project_calls"],
        "data.dataset_builds": counts["data.dataset_builds"],
        "classifiers.svm_steps": counts["classifiers.svm_steps"],
        "stats.cross_validate_s": secs("stats.cross_validate"),
        "stats.score_split_s": secs("stats.score_split"),
        "stats.evaluate_s": (secs("stats.cross_validate")
                             + secs("stats.score_split")),
        "stats.folds_scored": sum(len(cv.fold_results) for r in reports
                                  for cv in r.summaries.values()),
        "stats.folds_skipped": sum(len(cv.skipped_folds) for r in reports
                                   for cv in r.summaries.values()),
        "pipeline.run_s": secs("pipeline.run_pipeline"),
        "pipeline.self_s": own("pipeline.run_pipeline"),
    }
    for kind in ("knn", "gaussian_nb", "linear_svm"):
        m[f"classifiers.train_s.{kind}"] = secs(f"classifiers.train.{kind}")
        m[f"classifiers.train_calls.{kind}"] = counts[
            f"classifiers.train_calls.{kind}"]
        m[f"classifiers.predict_s.{kind}"] = secs(
            f"classifiers.predict.{kind}")
    return m


def share_checks(layers: dict, workload) -> list:
    """Compare the traced layer shares with what the workload targets."""
    run_s = layers["pipeline.run_s"]
    measured = {
        "stage1": layers["boosting.fit_s"] / run_s,
        "kernels.best_split": layers["kernels.best_split_s"] / run_s,
        "ga.evolve": layers["ga.evolve_s"] / run_s,
        "svm": (layers["classifiers.train_s.linear_svm"]
                + layers["classifiers.predict_s.linear_svm"]) / run_s,
    }
    lines = []
    for layer, target in workload.expected_shares.items():
        got = measured[layer]
        verdict = ("ok" if abs(got - target) <= SHARE_TOLERANCE
                   else "MISMATCH")
        lines.append(f"share {layer:<20} {100 * got:5.1f}% "
                     f"(target {100 * target:.0f}%) {verdict}")
    dominant = max(("kernels.best_split", "ga.evolve", "svm"),
                   key=measured.get)
    lines.append(f"largest layer: {dominant} "
                 f"({100 * measured[dominant]:.1f}%)")
    imputes = layers["data.imputed_cells"] > 0
    if imputes != (workload.missing_fraction > 0):
        lines.append("MISMATCH: impute_knn work does not follow the "
                     "workload's missing cells")
    else:
        lines.append(f"impute_knn imputed {layers['data.imputed_cells']} "
                     "cells, as the workload's missing cells predict")
    return lines


def root_checks(tracers, reports: dict) -> list:
    """Check each traced ``run_pipeline`` span against the report's own
    stage timers (stage1 + stage2 + evaluation), which run_pipeline
    takes with its own clock. Returns the problems found."""
    problems = []
    for i, tr in enumerate(tracers):
        if i not in reports:
            continue
        span = tr.totals()["pipeline.run_pipeline"][1]
        timed = sum(reports[i].runtimes.values())
        if abs(span - timed) > ROOT_TOLERANCE_S:
            problems.append(f"input {i}: run_pipeline span {span:.3f} s but "
                            f"its stage timers sum to {timed:.3f} s")
    return problems


def traced_pass(workload, inputs) -> tuple:
    """One untraced and one traced call per input, alternating, so the
    tracing overhead compares calls made close together in time. Each
    call is bracketed by reference-loop slices and scaled like
    ``pipeline_s``. Returns the untraced and traced runs, one tracer per
    input, the scale of each traced call and the overhead per input."""
    runs = Runs(workload, [prepare(path, workload) for path, _ in inputs])
    traced = Runs(workload, [])
    tracers, scales, overhead = [], [], []
    before = reference_slice()
    for i, (path, _) in enumerate(inputs):
        untraced = runs.run(i)
        middle = reference_slice()
        tr = tracer.Tracer()
        with tracer.installed(tr):
            traced.prepared.append(prepare(path, workload))
            elapsed = traced.run(i)
        after = reference_slice()
        tracers.append(tr)
        scales.append(REFERENCE_S / ((middle + after) / 2))
        if untraced is not None and elapsed is not None:
            overhead.append(elapsed * scales[-1] - untraced * REFERENCE_S
                            / ((before + middle) / 2))
        before = after
    return runs, traced, tracers, scales, overhead


def run_workload(workload, seed: int, trace: bool, workdir: Path) -> tuple:
    inputs = make_inputs(workload, seed,
                         TRACE_INPUTS if trace else workload.inputs, workdir)
    planted = [genes for _, genes in inputs]
    info = {"inputs": len(inputs)}
    if not trace:
        runs, pipeline_samples, setup_samples = measure(workload, inputs)
        if not pipeline_samples:
            pipeline_samples = [(0, float("nan"), 1.0)]
        info["setup_samples"] = len(setup_samples)
        metrics = {
            "setup_s": (input_mean(setup_samples), "s"),
            "pipeline_s": (input_mean(pipeline_samples), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        for name, value in quality(runs, planted).items():
            metrics[name] = (value, "ratio" if name != "final_size"
                             else "genes")
        metrics["setup_wall_s"] = (input_mean(setup_samples, False), "s")
        metrics["pipeline_wall_s"] = (input_mean(pipeline_samples, False),
                                      "s")
        metrics["reference_loop_s"] = (
            statistics.median(r for _, _, r in pipeline_samples), "s")
        info["pipeline_samples"] = sum(map(len, runs.times.values()))
        lines = [f"setup_s and pipeline_s: wall times scaled by "
                 f"{REFERENCE_S} s / the reference loop's time around each, "
                 f"median per input, mean over the inputs"]
    else:
        runs, traced, tracers, scales, overhead = traced_pass(workload,
                                                              inputs)
        for i, fp in traced.fingerprints.items():
            if runs.fingerprints.get(i, fp) != fp:
                print(f"input {i}: traced report differs from untraced",
                      file=sys.stderr)
                traced.failed += 1
        problems = root_checks(tracers, traced.reports)
        for problem in problems:
            print(problem, file=sys.stderr)
        traced.failed += len(problems)
        runs.attempted += traced.attempted
        runs.failed += traced.failed
        counts = sum((tr.counts for tr in tracers), Counter())
        layers = layer_metrics(merged_totals(tracers, scales), counts,
                               traced.reports.values())
        layers["trace.overhead_s"] = (statistics.median(overhead)
                                      if overhead else float("nan"))
        lines = [f"per-layer seconds: per input (one prepare and one "
                 f"run_pipeline call), scaled like pipeline_s; counts: "
                 f"totals over the {len(inputs)} traced inputs"]
        lines += share_checks(layers, workload)
        lines.append("tracing overhead per input (scaled s): "
                     + " ".join(f"{o:+.3f}" for o in overhead))
        run_s = layers["pipeline.run_s"]
        lines.append(
            f"root span: children cover "
            f"{100 * (1 - layers['pipeline.self_s'] / run_s):.1f}% of "
            f"run_pipeline; span "
            + ("agrees with" if not problems else "DISAGREES with")
            + f" the report's stage timers within {ROOT_TOLERANCE_S} s")
        metrics = {name: (value, _unit(name)) for name, value in
                   layers.items()}
    return runs, metrics, info, lines


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,),
                        default=RUN_SECONDS,
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".pipebench-", dir=ROOT))
    try:
        runs, metrics, info, lines = run_workload(
            workload, args.seed, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fps = [runs.fingerprints.get(i, "missing")
           for i in range(info["inputs"])]
    combined = hashlib.sha256("".join(fps).encode()).hexdigest()
    print(f"workload {workload.name} seed {args.seed}: {info}")
    for i, fp in enumerate(fps):
        times = " ".join(f"{t:.3f}" for t in runs.times.get(i, ()))
        print(f"fingerprint input{i} {fp}  run_pipeline s: {times}")
    print(f"fingerprint {workload.name} {combined}")
    fail_rate = runs.failed / max(runs.attempted, 1)
    print(f"{'fail_rate':<34} {fail_rate:>14.6g} ratio "
          f"({runs.failed}/{runs.attempted})")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name.startswith("kernels.") and name.endswith("_cells"):
            extra = f"  computed bytes moved {8 * value:.4g} B (8 B/cell)"
        print(f"{name:<34} {value:>14.6g} {unit}{extra}")
    for line in lines:
        print(line)

    every = {name: {"value": value, "unit": unit}
             for name, (value, unit) in metrics.items()}
    reported = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {m["name"]: every[m["name"]] for m in reported},
    }
    if args.record:
        record = {"env": env, "workload": workload.name, "seed": args.seed,
                  "seconds": RUN_SECONDS, "trace": args.trace, **info,
                  "fingerprint": combined, "fail_rate": fail_rate,
                  "checks": lines, **result, "metrics": every}
        Path(args.record).write_text(json.dumps(record, indent=2,
                                                sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
