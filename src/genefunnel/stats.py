"""Confusion-matrix metrics, cross-validation aggregation, and the
Wilcoxon signed-rank test.

Precision/recall/F are computed one-vs-rest per class and macro-averaged
(unweighted class mean), for binary data as well. A class with a zero
denominator contributes 0. The records serialize through
``dataclasses.asdict``, and ``METRIC_NAMES`` are ``MetricReport``'s fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .classifiers import ClassifierSpec, predict, train, train_many
from .data import Dataset, FoldPlan, project, training_fold
from .errors import ValidationError

__all__ = [
    "ConfusionMatrix",
    "MetricReport",
    "CvSummary",
    "WilcoxonResult",
    "confusion",
    "metrics",
    "fold_splits",
    "cross_validate",
    "score_split",
    "score_splits",
    "wilcoxon_signed_rank",
]

EXACT_LIMIT = 25


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    counts: np.ndarray  # (C, C), rows = actual, cols = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f_score: float


METRIC_NAMES = tuple(f.name for f in fields(MetricReport))


@dataclass(frozen=True)
class CvSummary:
    fold_results: tuple          # MetricReport per scored fold
    means: dict                  # metric name -> mean over folds
    stds: dict                   # metric name -> population std
    skipped_folds: tuple = ()    # (round, fold) pairs lacking a class in train

    @staticmethod
    def from_dict(d: dict) -> "CvSummary":
        return CvSummary(
            fold_results=tuple(MetricReport(**r) for r in d["fold_results"]),
            means=d["means"],
            stds=d["stds"],
            skipped_folds=tuple(tuple(p) for p in d["skipped_folds"]),
        )


@dataclass(frozen=True)
class WilcoxonResult:
    w_statistic: float
    p_value: float
    n_effective: int
    method: str       # "exact" or "normal_approx"
    alpha: float
    significant: bool
    degenerate: bool = False


def confusion(actual, predicted, n_classes: int) -> ConfusionMatrix:
    actual = np.asarray(actual, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if actual.shape != predicted.shape:
        raise ValidationError("actual and predicted lengths differ")
    if actual.size and (max(actual.max(), predicted.max()) >= n_classes
                        or min(actual.min(), predicted.min()) < 0):
        raise ValidationError("class index out of range")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    return ConfusionMatrix(counts)


def metrics(cm: ConfusionMatrix) -> MetricReport:
    return _stack_metrics(cm.counts[None])[0]


def _stack_metrics(counts: np.ndarray) -> list:
    """The MetricReport of each (C, C) matrix of an (F, C, C) stack."""
    total = counts.sum(axis=(1, 2))
    if not total.all():
        raise ValidationError("empty confusion matrix")
    tp = np.diagonal(counts, axis1=1, axis2=2)
    accuracy = tp.sum(axis=1) / total
    p = _ratio(tp, counts.sum(axis=1))
    r = _ratio(tp, counts.sum(axis=2))
    f = _ratio(2.0 * p * r, p + r)
    return [MetricReport(*map(float, row)) for row in
            zip(accuracy, p.mean(axis=1), r.mean(axis=1), f.mean(axis=1))]


def _ratio(num, den) -> np.ndarray:
    """num / den per class, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def score_split(train_ds: Dataset, test_ds: Dataset,
                spec: ClassifierSpec) -> MetricReport:
    """Train on one split, score the other."""
    model = train(spec, train_ds)
    predicted = predict(model, test_ds.values)
    return metrics(confusion(test_ds.labels, predicted, train_ds.n_classes))


def score_splits(spec: ClassifierSpec, splits, skipped=()) -> CvSummary:
    """Train one model per split with one ``train_many`` call, score each
    on its held-out rows and summarize the folds.

    ``splits`` holds (training Dataset, held-out values, held-out labels)
    triples; the held-out part may miss classes, so it stays a bare
    matrix and label vector.
    """
    models = train_many(spec, [train_ds for train_ds, _, _ in splits])
    c = models[0].n_classes
    # every fold's (actual, predicted) pairs, counted by one bincount over
    # their flat (fold, actual, predicted) cells
    cells = np.concatenate([
        (f * c + actual) * c + predict(model, values)
        for f, (model, (_, values, actual)) in enumerate(zip(models, splits))])
    counts = np.bincount(cells, minlength=len(splits) * c * c)
    results = _stack_metrics(counts.reshape(-1, c, c))
    means = {name: float(np.mean([getattr(r, name) for r in results]))
             for name in METRIC_NAMES}
    stds = {name: float(np.std([getattr(r, name) for r in results]))
            for name in METRIC_NAMES}
    return CvSummary(fold_results=tuple(results), means=means, stds=stds,
                     skipped_folds=tuple(skipped))


def fold_splits(ds: Dataset, plan: FoldPlan, select=None):
    """The (training Dataset, held-out values, held-out labels) split of
    each fold of ``plan``, and the (round, fold) pairs skipped, never
    silently dropped, because their training rows miss a class; raises
    ValidationError when every fold is skipped.

    ``select(train_ds, r, f)``, when given, picks each fold's genes from
    its training rows, and both parts of the split keep only those.
    """
    splits, skipped = [], []
    for r, f, train_idx, test_idx in plan.splits():
        train_ds = training_fold(ds, train_idx)
        if train_ds is None:
            skipped.append((r, f))
            continue
        values = ds.values[test_idx]
        if select is not None:
            genes = select(train_ds, r, f)
            train_ds, values = project(train_ds, genes), values[:, genes]
        splits.append((train_ds, values, ds.labels[test_idx]))
    if not splits:
        raise ValidationError("every fold was skipped; cannot summarize")
    return splits, skipped


def cross_validate(gene_subset, ds: Dataset, spec: ClassifierSpec,
                   plan: FoldPlan) -> CvSummary:
    """Repeated stratified CV of one classifier on a projected gene subset,
    over the folds ``fold_splits`` scores; their models train together."""
    return score_splits(spec, *fold_splits(project(ds, gene_subset), plan))


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their midrank."""
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)  # 1-based rank of each group's last member
    return (ends - (counts - 1) / 2.0)[group]


def _exact_two_sided_p(ranks: np.ndarray, w: float) -> float:
    """Two-sided tail probability of W+ by enumerating the 2^n equally
    likely sign assignments over the given (mid)ranks.

    Counting runs over the distribution of 2*W+ (integral since midranks
    are multiples of 0.5), which tallies the same assignments as direct
    enumeration.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:counts.size - r]
        counts = counts + shifted
    n_assignments = 2.0 ** len(doubled)
    w2 = int(math.floor(2.0 * w + 1e-9))
    lower = counts[:w2 + 1].sum()
    upper = counts[total - w2:].sum() if w2 <= total else n_assignments
    return min(1.0, (lower + upper) / n_assignments)


def wilcoxon_signed_rank(x, y, alpha: float = 0.05) -> WilcoxonResult:
    """Paired two-sided Wilcoxon signed-rank test.

    W = min(W+, W-). Exact enumeration whenever the number of nonzero
    differences is <= 25, else a normal approximation with tie-aware
    variance and continuity correction.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValidationError("paired samples must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("paired samples must be finite numbers")
    d = x - y
    d = d[d != 0.0]  # zero differences are discarded before ranking
    nonzero_ranks = _midranks(np.abs(d))
    signs = np.sign(d)

    n_eff = int(signs.size)
    if n_eff == 0:
        return WilcoxonResult(w_statistic=0.0, p_value=1.0, n_effective=0,
                              method="exact", alpha=alpha,
                              significant=False, degenerate=True)

    w_plus = float(nonzero_ranks[signs > 0].sum())
    w_minus = float(nonzero_ranks[signs < 0].sum())
    w = min(w_plus, w_minus)

    if n_eff <= EXACT_LIMIT:
        p = float(_exact_two_sided_p(nonzero_ranks, w))
        method = "exact"
    else:
        mean = float(nonzero_ranks.sum()) / 2.0
        var = float((nonzero_ranks ** 2).sum()) / 4.0
        z = (w - mean + 0.5) / math.sqrt(var)
        p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
        method = "normal_approx"

    return WilcoxonResult(w_statistic=w, p_value=p, n_effective=n_eff,
                          method=method, alpha=alpha,
                          significant=bool(p < alpha), degenerate=False)
