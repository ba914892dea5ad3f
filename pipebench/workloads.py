"""The benchmark's workloads: a synthetic data shape plus a pipeline config.

Every workload uses the paper's planted-gene generator with 10
informative genes and sigma = 0.5. A run draws ``inputs`` datasets from
its seed, so that the reported timings and quality means do not rest on
one draw: pipeline time varies by about 15% from one dataset to the
next. Config sizes are scaled down from the paper's (100 trees, GA
100x50, 10x10 CV) so that one pipeline call takes 2 to 4 s on the numpy
kernels and a run can go through every input; each scaling keeps the layer shares
that the workload is there to exercise (``expected_shares``, checked in
traced runs).

BENCHMARK.json lists paper-60x500 and nested-4class; wide-200x5000 is
run by hand. A run needs about 55 s for steady timings on a 2-vCPU
machine, and three workloads at that length do not fit the benchmark's
total time budget.
"""
from __future__ import annotations

from dataclasses import dataclass

from genefunnel import boosting, ga
from genefunnel.classifiers import ClassifierSpec
from genefunnel.pipeline import PipelineConfig

TRACE_INPUTS = 3  # the first datasets, traced with --trace 1
NB = ClassifierSpec(kind="gaussian_nb")


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    genes: int
    classes: int
    missing_fraction: float
    inputs: int  # datasets per run, as many as one run can go through
    config: PipelineConfig
    expected_shares: dict  # layer -> share of pipeline time the workload targets


def _config(trees, pop, gens, cv_k, cv_rounds, classifiers, protocol="paper"):
    return PipelineConfig(
        boost=boosting.BoostParams(n_estimators=trees),
        ga=ga.GaConfig(population_size=pop, iterations=gens),
        eval_classifiers=classifiers, cv_k=cv_k, cv_rounds=cv_rounds,
        protocol=protocol)


WORKLOADS = {w.name: w for w in (
    Workload(
        # The acceptance shape; the only workload where stage 1, the GA
        # and Pegasos evaluation all carry weight.
        name="paper-60x500",
        samples=60, genes=500, classes=2, missing_fraction=0.0, inputs=8,
        config=_config(20, 50, 25, 10, 2,
                       (ClassifierSpec(kind="linear_svm"), NB)),
        expected_shares={"stage1": 0.43, "ga.evolve": 0.31,
                         "svm": 0.26}),
    Workload(
        # An 8 MB matrix, larger than cache, and the largest M: split
        # search dominates; no SVM, little GA work.
        name="wide-200x5000",
        samples=200, genes=5000, classes=2, missing_fraction=0.0, inputs=8,
        config=_config(3, 10, 5, 5, 1, (NB,)),
        expected_shares={"kernels.best_split": 0.94, "ga.evolve": 0.06}),
    Workload(
        # Selection runs once per outer fold plus once on all data, so the
        # GA leads; four one-vs-rest heads; the only workload with missing
        # cells to impute; bypasses cross_validate.
        name="nested-4class",
        samples=80, genes=200, classes=4, missing_fraction=0.05, inputs=16,
        config=_config(1, 50, 12, 5, 1,
                       (ClassifierSpec(kind="linear_svm", svm_epochs=20), NB),
                       protocol="nested"),
        expected_shares={"ga.evolve": 0.59, "kernels.best_split": 0.35}),
)}
