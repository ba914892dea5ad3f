"""Gradient-boosted regression trees with a second-order regularized
objective: the stage-1 gene ranker. The ensemble is fitted only for the
split gains it accumulates; classification is left to the evaluation
classifiers.

Split search is exact greedy over every feature and every midpoint
between consecutive distinct values. Each tree grows on its round's row
subsample and is applied as it grows: each leaf adds its weight to the
score of every sample that reaches it, in the subsample or not. Per-gene
importance is the total accepted split gain, which drives the
nonzero-importance gene filter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Dataset
from .errors import ConfigError, ValidationError

__all__ = [
    "BoostParams",
    "TreeNode",
    "BoostedEnsemble",
    "ImportanceReport",
    "grad_hess",
    "leaf_weight",
    "split_gain",
    "fit",
    "importances",
    "select_nonzero",
]

HESS_FLOOR = 1e-16


@dataclass(frozen=True)
class BoostParams:
    n_estimators: int = 100
    max_depth: int = 3
    subsample: float = 0.75
    learning_rate: float = 0.3
    lam: float = 1.0         # l2 leaf-weight regularizer
    gamma: float = 0.0       # split-difficulty penalty
    loss: str = "logistic"   # or "squared"
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ConfigError("n_estimators must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError("subsample must be in (0, 1]")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and > 0")
        if not all(math.isfinite(v) and v >= 0 for v in (self.lam, self.gamma)):
            raise ConfigError("lam and gamma must be finite and >= 0")
        if self.loss not in ("squared", "logistic"):
            raise ConfigError(f"unknown loss {self.loss!r}")


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children/gain) or leaf (weight)."""

    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class BoostedEnsemble:
    """Additive tree model: one tree list per output head.

    Binary and regression models have a single head; multiclass models
    have one one-vs-rest logistic head per class.
    """

    trees: list            # [output][round] -> TreeNode
    base_score: np.ndarray  # per output
    params: BoostParams
    n_genes: int
    n_classes: int         # 0 for regression


@dataclass(frozen=True, eq=False)
class ImportanceReport:
    total_gain: np.ndarray   # per gene
    split_count: np.ndarray  # per gene
    ranking: np.ndarray      # genes by total_gain desc, index asc


def grad_hess(loss: str, y: float, y_hat_raw: float) -> tuple[float, float]:
    """First/second derivatives of the loss at a raw prediction.

    Squared loss is L = 0.5*(y - yhat)^2; logistic operates on the raw
    score with p = sigmoid(raw). The hessian is floored to keep leaf
    weights finite.
    """
    if loss == "squared":
        return y_hat_raw - y, 1.0
    if loss == "logistic":
        try:
            p = 1.0 / (1.0 + math.exp(-y_hat_raw))
        except OverflowError:  # raw below about -709.78: p's limit is 0
            p = 0.0
        return p - y, max(p * (1.0 - p), HESS_FLOOR)
    raise ConfigError(f"unknown loss {loss!r}")


def leaf_weight(g_sum: float, h_sum: float, lam: float) -> float:
    """Minimizer -G/(H+lam) of the per-leaf quadratic G*w + 0.5*(H+lam)*w^2."""
    if h_sum + lam <= 0:
        raise ValidationError("degenerate leaf: H + lambda must be > 0")
    return -g_sum / (h_sum + lam)


def split_gain(gl: float, hl: float, gr: float, hr: float,
               lam: float, gamma: float) -> float:
    """Objective decrease of splitting one leaf into two, minus gamma."""
    return 0.5 * (gl * gl / (hl + lam)
                  + gr * gr / (hr + lam)
                  - (gl + gr) ** 2 / (hl + hr + lam)) - gamma


def _grow(x: np.ndarray, g: np.ndarray, h: np.ndarray, rows: np.ndarray,
          reach: np.ndarray, raw: np.ndarray,
          xs: np.ndarray | None, order: np.ndarray | None,
          tied: np.ndarray, depth: int, params: BoostParams) -> TreeNode:
    """Grow the subtree over ``rows`` (ascending) and add learning_rate *
    leaf weight to ``raw`` at ``reach``, every sample that reaches the
    node. xs/order hold the node's columns sorted by value and tied the
    tree's tie flags, as ``_kernels.best_split`` takes them; xs/order are
    None when the node is at max_depth. ``_kernels.sorted_partition``
    gives each child that searches for a split its own sorted part."""
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    feat = -1
    if depth < params.max_depth and rows.size >= 2:
        feat, thr, gain = _kernels.best_split(
            xs, order, tied, g, h, g_sum, h_sum, params.lam, params.gamma)
    if feat < 0:  # at max_depth, one row, or no strictly positive gain
        weight = leaf_weight(g_sum, h_sum, params.lam)
        raw[reach] += params.learning_rate * weight
        return TreeNode(weight=weight)
    on_left = x[:, feat] <= thr  # every sample's side of the split
    go_left = on_left[rows]
    reach_left = on_left[reach]
    left_cols = right_cols = (None, None)
    if depth + 1 < params.max_depth:  # the children search for splits too
        left_cols, right_cols = _kernels.sorted_partition(xs, order, on_left)
    left = _grow(x, g, h, rows[go_left], reach[reach_left], raw, *left_cols,
                 tied, depth + 1, params)
    right = _grow(x, g, h, rows[~go_left], reach[~reach_left], raw,
                  *right_cols, tied, depth + 1, params)
    return TreeNode(feature=int(feat), threshold=float(thr), gain=float(gain),
                    left=left, right=right)


def _log_odds(p: float) -> float:
    p = min(max(p, 1e-12), 1 - 1e-12)
    return math.log(p / (1.0 - p))


def fit(ds: Dataset, targets, params: BoostParams) -> BoostedEnsemble:
    """Train the additive model round by round.

    Squared loss regresses a real target vector with one head; logistic
    loss takes class indices and trains one head for binary data or C
    one-vs-rest heads for multiclass, all sharing the per-round row
    subsamples.
    """
    x = ds.values
    if not np.isfinite(x).all():
        raise ValidationError("expression matrix contains non-finite values")
    targets = np.asarray(targets)
    if targets.shape[0] != ds.n_samples:
        raise ValidationError("targets must align with samples")
    m = ds.n_samples

    if params.loss == "squared":
        y_heads = [targets.astype(np.float64)]
        base = np.array([float(y_heads[0].mean())])
        n_classes = 0
    else:
        labels = targets.astype(np.int64)
        n_classes = max(int(labels.max()) + 1, 2)
        positives = [1] if n_classes == 2 else range(n_classes)
        y_heads = [(labels == c).astype(np.float64) for c in positives]
        base = np.array([_log_odds(float(y.mean())) for y in y_heads])

    raw = [np.full(m, b) for b in base]
    trees: list[list[TreeNode]] = [[] for _ in y_heads]
    rng = np.random.default_rng(params.seed)
    n_sub = max(1, int(round(params.subsample * m)))

    every = np.arange(m)
    for _ in range(params.n_estimators):
        if params.subsample < 1.0:
            rows = np.sort(rng.choice(m, size=n_sub, replace=False))
        else:
            rows = every
        # each tree sorts its rows' columns once and flags their ties;
        # nodes split the orders and keep the flags (int32 row indices
        # halve the orders held along the tree's path)
        xs, local, tied = _kernels.sort_columns(x[rows])
        order = rows.astype(np.int32)[local]
        del local
        for head, y in enumerate(y_heads):
            g = np.empty(m)
            h = np.empty(m)
            for i in rows:
                g[i], h[i] = grad_hess(params.loss, y[i], raw[head][i])
            trees[head].append(_grow(x, g, h, rows, every, raw[head], xs,
                                     order, tied, 0, params))

    return BoostedEnsemble(trees=trees, base_score=base, params=params,
                           n_genes=ds.n_genes, n_classes=n_classes)


def importances(model: BoostedEnsemble) -> ImportanceReport:
    """Total accepted split gain and split count per gene, over all heads."""
    total = np.zeros(model.n_genes)
    count = np.zeros(model.n_genes, dtype=np.int64)
    stack = [t for head in model.trees for t in head]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            total[node.feature] += node.gain
            count[node.feature] += 1
            stack.extend((node.left, node.right))
    ranking = np.lexsort((np.arange(model.n_genes), -total))
    return ImportanceReport(total_gain=total, split_count=count,
                            ranking=ranking.astype(np.int64))


def select_nonzero(report: ImportanceReport) -> np.ndarray:
    """Ascending indices of genes with strictly positive total gain."""
    kept = np.flatnonzero(report.total_gain > 0.0)
    if kept.size == 0:
        raise ValidationError("no gene has positive importance")
    return kept.astype(np.int64)
