"""Evaluation and fitness classifiers: KNN, Gaussian naive Bayes, and a
linear SVM trained by seeded stochastic subgradient descent on the hinge
loss. All three sit behind one train/predict interface; ``train_many``
trains the models of many training sets at once, and ``train`` is its
one-set case. ``_pegasos`` takes the training sets and trains the SVMs
of all their heads, whatever their gene counts, in one lockstep pass,
drawing every visit order once per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Dataset
from .errors import ConfigError, ValidationError

__all__ = ["ClassifierSpec", "TrainedClassifier", "train", "train_many",
           "predict"]

KINDS = ("knn", "gaussian_nb", "linear_svm")


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "knn"
    knn_k: int = 5
    svm_c: float = 1.0
    svm_epochs: int = 200
    nb_var_smoothing: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if not (math.isfinite(self.svm_c) and self.svm_c > 0):
            raise ConfigError("svm_c must be finite and > 0")
        if self.svm_epochs < 1:
            raise ConfigError("svm_epochs must be >= 1")
        if not (math.isfinite(self.nb_var_smoothing)
                and self.nb_var_smoothing >= 0):
            raise ConfigError("nb_var_smoothing must be finite and >= 0")


@dataclass
class TrainedClassifier:
    spec: ClassifierSpec
    n_genes: int
    n_classes: int
    # knn
    train_values: np.ndarray | None = None
    train_labels: np.ndarray | None = None
    # gaussian_nb
    log_priors: np.ndarray | None = None
    means: np.ndarray | None = None
    variances: np.ndarray | None = None
    # linear_svm (one row of weights + one bias per one-vs-rest head)
    weights: np.ndarray | None = None
    biases: np.ndarray | None = None


# Bytes that one lockstep chunk of ``_pegasos`` spends on its per-step
# arrays: the gathered sample rows, the shrink factors and the update
# vectors, (P, Nmax + 1) each, plus a few (P,) vectors (rows, targets,
# step sizes). The buffers are allocated once per call and refilled by
# every chunk; a chunk holds at least one step. The visit table sits
# outside this budget at (max steps) x keys x 8 bytes: 86 KB on the
# paper-60x500 benchmark workload, 41 KB on nested-4class, about 0.96 MB
# for a 4-class 10x10 CV at 75 rows and 200 epochs.
_CHUNK_BYTES = 128 << 10


def _pegasos(spec: ClassifierSpec, datasets: list) -> list[tuple]:
    """Pegasos-style primal hinge descent for the linear SVMs of many
    training sets of any gene counts, trained in one lockstep pass;
    returns each set's (weights (H, N), biases (H,)).

    A set has one head for binary data (y = +1 for class 1) and one
    one-vs-rest head per class otherwise (y = +1 for class h); each head
    of each set is one binary problem. Objective (per sample): lam/2*||w||^2
    + mean hinge, with lam = 1/(svm_c * M), i.e. hinge sum +
    ||w||^2/(2*svm_c) overall. Bias is unregularized. Each epoch visits
    the samples in the order of one ``permutation(M)`` of
    ``default_rng([spec.seed, head])``; problems of one head and one
    training size share that order, so each (head, size) key draws all
    its epochs' orders once per call into one (max steps, keys) visit
    table, which holds sample 0 after the key's last step.

    The weights of all problems sit in one zero-padded (P, Nmax + 1)
    matrix, bias in the last column, with the problems of one width in
    one contiguous block of rows; the sample rows of all training sets
    are stacked once in the same layout, with 1.0 in the bias column.
    The steps run in chunks. A chunk gathers its steps' sample rows into
    buffers allocated once per call and turns them into shrink factors
    and update vectors (one multiply by eta*y gives the weight and the
    bias steps). Step t is then one numpy pass: one ``vecdot`` per width
    block gives that block's margins through the same BLAS dot as
    ``x @ w`` (it never reads the padding), then w shrinks by 1 - eta*lam
    and takes the hinge step where the margin is below 1. Every
    operation is the one-problem algorithm's, in its order, so each
    problem gets the bits it gets when trained alone. A problem that has
    run all its steps takes exact no-op steps until the longest ends:
    shrink 1.0 and update -0.0 (``x + -0.0`` is ``x``, -0.0 included).
    """
    heads = [1 if ds.n_classes == 2 else ds.n_classes for ds in datasets]
    # (set, head) problems, in contiguous row blocks of one width each
    problems = sorted(((q, head) for q, h in enumerate(heads)
                       for head in range(h)),
                      key=lambda qh: datasets[qh[0]].n_genes)
    fitted = [(np.empty((h, ds.n_genes)), np.empty(h))
              for ds, h in zip(datasets, heads)]
    if not problems:
        return fitted
    epochs = spec.svm_epochs
    n_problems = len(problems)
    widths = [datasets[q].n_genes for q, _ in problems]
    n_max = widths[-1]
    # the rows of every training set, stacked once, zero-padded, with 1.0
    # in the bias column
    starts = np.cumsum([0] + [ds.n_samples for ds in datasets])
    xa = np.zeros((int(starts[-1]), n_max + 1))
    xa[:, n_max] = 1.0
    for ds, start in zip(datasets, starts):
        xa[start:start + ds.n_samples, :ds.n_genes] = ds.values
    # sign[r, c]: the target of row r when class c is the positive one
    labels_all = np.concatenate([ds.labels for ds in datasets])
    n_classes = max(ds.n_classes for ds in datasets)
    sign = np.where(labels_all[:, None] == np.arange(n_classes), 1.0, -1.0)

    sizes = [datasets[q].n_samples for q, _ in problems]
    steps = epochs * np.array(sizes)
    offset = starts[[q for q, _ in problems]]
    positive = np.array([1 if datasets[q].n_classes == 2 else head
                         for q, head in problems])
    lam = np.array([1.0 / (spec.svm_c * m) for m in sizes])
    total = int(steps.max())
    # problems of one head and one size share their visit order; a key's
    # column holds sample 0 after its last step
    keys = {}
    key_of = np.array([keys.setdefault((head, m), len(keys))
                       for (_, head), m in zip(problems, sizes)])
    visits = np.zeros((total, len(keys)), dtype=np.int64)
    for key, (head, m) in enumerate(keys):
        rng = np.random.default_rng([spec.seed, head])
        for epoch in range(epochs):
            visits[epoch * m:(epoch + 1) * m, key] = rng.permutation(m)

    # each row is one problem's weights with its bias in the last column:
    # the shrink multiplies the bias by 1.0 and the hinge step adds eta*y
    # to it, both exact, so one masked add updates both
    wb = np.zeros((n_problems, n_max + 1))
    bias = wb[:, n_max]
    bounds = [0] + [p for p in range(1, n_problems)
                    if widths[p] != widths[p - 1]] + [n_problems]
    blocks = [(lo, hi, widths[lo]) for lo, hi in zip(bounds, bounds[1:])]

    chunk = min(total, max(1, _CHUNK_BYTES
                           // (8 * n_problems * (3 * n_max + 8))))
    # per-chunk buffers, refilled in place; full (steps, problems,
    # Nmax + 1) shapes, since an in-place multiply by a broadcast column
    # takes numpy's slower strided loop. The shrink factor of the bias
    # column stays 1.0.
    rows = np.empty((chunk, n_problems), dtype=np.int64)
    y = np.empty((chunk, n_problems))
    x = np.empty((chunk, n_problems, n_max + 1))
    shrink = np.ones((chunk, n_problems, n_max + 1))
    update = np.empty((chunk, n_problems, n_max + 1))
    # a step writes into these and allocates nothing; the margins are
    # 1-D, where numpy's strided loops are faster than on (P, 1) views
    dot = np.empty(n_problems)
    margin = np.empty(n_problems)
    hit = np.empty(n_problems, dtype=bool)
    hit_col = hit[:, None]
    # every view a step reads, made once per call: per width block the
    # weights, the sample rows and the margins, then the targets, shrink
    # factors and updates of all problems
    step_views = [([(wb[lo:hi, :w], x[t, lo:hi, :w], dot[lo:hi])
                    for lo, hi, w in blocks], y[t], shrink[t], update[t])
                  for t in range(chunk)]
    finish = int(steps.min())
    for s0 in range(0, total, chunk):
        n = min(chunk, total - s0)
        np.add(offset, visits[s0:s0 + n, key_of], rows[:n])
        # every row index is in range; unlike the default 'raise', 'clip'
        # writes straight into the buffer instead of through a temporary
        np.take(xa, rows[:n], axis=0, out=x[:n], mode="clip")
        y[:n] = sign[rows[:n], positive]
        eta = 1.0 / (lam * np.arange(s0 + 1.0, s0 + n + 1.0)[:, None])
        shrink[:n, :, :n_max] = (1.0 - eta * lam)[..., None]
        eta *= y[:n]
        # x * (eta*y); the 1.0 bias column turns into the bias step eta*y
        np.multiply(x[:n], eta[..., None], update[:n])
        if s0 + n > finish:  # some problem has run all its steps
            done = np.arange(s0, s0 + n)[:, None] >= steps
            shrink[:n][done] = 1.0
            update[:n][done] = -0.0
        for block_views, yc, sc, uc in step_views[:n]:
            for w_b, x_b, dot_b in block_views:
                np.vecdot(w_b, x_b, out=dot_b)
            np.add(dot, bias, margin)
            np.multiply(margin, yc, margin)
            np.less(margin, 1.0, hit)
            np.multiply(wb, sc, wb)
            np.add(wb, uc, wb, where=hit_col)
    for row, (q, head) in enumerate(problems):
        weights, biases = fitted[q]
        weights[head] = wb[row, :widths[row]]
        biases[head] = bias[row]
    return fitted


def train(spec: ClassifierSpec, ds: Dataset) -> TrainedClassifier:
    return train_many(spec, [ds])[0]


def train_many(spec: ClassifierSpec, datasets) -> list[TrainedClassifier]:
    """Train one model per training set. The linear SVMs of all sets and
    all their one-vs-rest heads train together in one lockstep pass, even
    when the sets differ in gene count; KNN and Gaussian NB fit each set
    on its own."""
    datasets = list(datasets)
    models = []
    for ds in datasets:
        if spec.kind == "knn" and spec.knn_k > ds.n_samples:
            raise ValidationError(
                f"knn_k={spec.knn_k} exceeds {ds.n_samples} samples")
        models.append(TrainedClassifier(spec=spec, n_genes=ds.n_genes,
                                        n_classes=ds.n_classes))

    if spec.kind == "knn":
        for model, ds in zip(models, datasets):
            model.train_values = ds.values
            model.train_labels = ds.labels
    elif spec.kind == "gaussian_nb":
        for model, ds in zip(models, datasets):
            _fit_gaussian_nb(model, ds)
    else:
        for model, (weights, biases) in zip(models,
                                            _pegasos(spec, datasets)):
            model.weights, model.biases = weights, biases
    return models


def _fit_gaussian_nb(model: TrainedClassifier, ds: Dataset):
    pooled = ds.values.var(axis=0)
    floor = max(model.spec.nb_var_smoothing * float(pooled.max()), 1e-12)
    c = ds.n_classes
    means = np.empty((c, ds.n_genes))
    variances = np.empty((c, ds.n_genes))
    priors = np.empty(c)
    for k in range(c):
        rows = ds.values[ds.labels == k]
        priors[k] = rows.shape[0] / ds.n_samples
        means[k] = rows.mean(axis=0)
        variances[k] = np.maximum(rows.var(axis=0), floor)
    model.log_priors = np.log(priors)
    model.means = means
    model.variances = variances


def predict(model: TrainedClassifier, x) -> np.ndarray:
    """Class indices for the rows of the (q, genes) query matrix x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_genes:
        raise ValidationError(
            f"model expects {model.n_genes} genes, query has shape {x.shape}")
    spec = model.spec

    if spec.kind == "knn":
        return _kernels.knn_predict(model.train_values, model.train_labels,
                                    x, spec.knn_k, model.n_classes)

    if spec.kind == "gaussian_nb":
        # log prior + sum of log Gaussian densities, argmax ties to class 0
        scores = np.empty((x.shape[0], model.n_classes))
        for k in range(model.n_classes):
            var = model.variances[k]
            log_density = (-0.5 * np.log(2.0 * np.pi * var)
                           - (x - model.means[k]) ** 2 / (2.0 * var))
            scores[:, k] = model.log_priors[k] + log_density.sum(axis=1)
        return np.argmax(scores, axis=1).astype(np.int64)

    scores = x @ model.weights.T + model.biases
    if model.n_classes == 2:
        return (scores[:, 0] >= 0.0).astype(np.int64)
    return np.argmax(scores, axis=1).astype(np.int64)
