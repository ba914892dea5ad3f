"""Evaluation and fitness classifiers: KNN, Gaussian naive Bayes, and a
linear SVM trained by seeded stochastic subgradient descent on the hinge
loss. All three sit behind one train/predict interface; ``train_many``
trains the models of many training sets at once, and ``train`` is its
one-set case. The SVMs of all sets train in lockstep (``_pegasos``).
"""
from __future__ import annotations

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
        if self.svm_c <= 0:
            raise ConfigError("svm_c must be > 0")
        if self.svm_epochs < 1:
            raise ConfigError("svm_epochs must be >= 1")
        if self.nb_var_smoothing < 0:
            raise ConfigError("nb_var_smoothing must be >= 0")


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


# Bytes that one lockstep chunk of ``_pegasos`` spends on its precomputed
# per-step arrays (sample rows, targets, step sizes, shrink factors and
# update vectors); a chunk holds at least one step.
_CHUNK_BYTES = 128 << 10


def _pegasos(spec: ClassifierSpec, datasets: list,
             heads: list) -> tuple[np.ndarray, np.ndarray]:
    """Pegasos-style primal hinge descent on many binary problems of one
    gene count, trained in lockstep; returns weights (P, N) and biases (P,).

    Problem p trains on ``datasets[p]`` with y = +1 for its positive class
    (class 1 of binary data, else class ``heads[p]``, one-vs-rest) and
    y = -1 for the rest. Objective (per sample): lam/2*||w||^2 + mean
    hinge, with lam = 1/(svm_c * M), i.e. hinge sum + ||w||^2/(2*svm_c)
    overall. Bias is unregularized. Each epoch visits the samples in the
    order of one ``permutation(M)`` of ``default_rng([spec.seed, head])``.

    Step t of every problem still running is one numpy pass: the margins
    come from one stacked matmul, which calls the same BLAS dot as
    ``x @ w``; then w shrinks by 1 - eta*lam and takes the hinge step
    where the margin is below 1. Every operation is the one-problem
    algorithm's, in its order, so each problem gets the bits it gets when
    trained alone. Problems run longest first, so the running ones are
    always a prefix, and a finished one drops out of the arithmetic.
    """
    epochs = spec.svm_epochs
    n_genes = datasets[0].n_genes
    # the rows of each distinct training set, stacked once
    unique = list({id(ds): ds for ds in datasets}.values())
    starts = np.cumsum([0] + [ds.n_samples for ds in unique])
    first_row = {id(ds): int(start) for ds, start in zip(unique, starts)}
    x_all = np.concatenate([ds.values for ds in unique])
    labels_all = np.concatenate([ds.labels for ds in unique])

    longest_first = sorted(range(len(datasets)),
                           key=lambda p: -datasets[p].n_samples)
    sizes = [datasets[p].n_samples for p in longest_first]
    steps = epochs * np.array(sizes)
    offset = np.array([first_row[id(datasets[p])] for p in longest_first])
    positive = np.array([1 if datasets[p].n_classes == 2 else heads[p]
                         for p in longest_first])
    lam = np.array([1.0 / (spec.svm_c * m) for m in sizes])
    # problems of one head and one size share their sample order
    keys = {}
    key_of = np.array([keys.setdefault((heads[p], m), len(keys))
                       for p, m in zip(longest_first, sizes)])
    rngs = [np.random.default_rng([spec.seed, head]) for head, _ in keys]
    key_steps = [epochs * m for _, m in keys]
    pending = [np.empty(0, dtype=np.int64) for _ in keys]

    # each row is one problem's weights with its bias in the last column:
    # the shrink multiplies the bias by 1.0 and the hinge step adds eta*y
    # to it, both exact, so one masked add updates both
    wb = np.zeros((len(datasets), n_genes + 1))
    chunk = max(1, _CHUNK_BYTES // (8 * len(datasets) * (3 * n_genes + 8)))
    for s0 in range(0, int(steps[0]), chunk):
        n = min(chunk, int(steps[0]) - s0)
        order = np.zeros((n, len(keys)), dtype=np.int64)
        for key, (_, m) in enumerate(keys):
            take = min(n, key_steps[key] - s0)
            if take <= 0:
                continue
            while pending[key].size < take:
                pending[key] = np.concatenate(
                    [pending[key], rngs[key].permutation(m)])
            order[:take, key] = pending[key][:take]
            pending[key] = pending[key][take:]
        running = np.count_nonzero(
            steps[:, None] > np.arange(s0, s0 + n), axis=0).tolist()
        k0 = running[0]
        rows = offset[:k0] + order[:, key_of[:k0]]
        x = x_all[rows][..., None]
        y = np.where(labels_all[rows] == positive[:k0], 1.0, -1.0)[..., None]
        eta = 1.0 / (lam[:k0] * np.arange(s0 + 1.0, s0 + n + 1.0)[:, None])
        # full (steps, problems, genes + 1) shapes: an in-place multiply by
        # a broadcast column takes numpy's slower strided loop
        shrink = np.ones((n, k0, n_genes + 1))
        shrink[..., :n_genes] = (1.0 - eta * lam[:k0])[..., None]
        update = np.ones((n, k0, n_genes + 1))
        update[..., :n_genes] = x[..., 0]
        update *= eta[..., None] * y
        # one run of steps per number of running problems
        cuts = [c for c in range(1, n) if running[c] != running[c - 1]]
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            k = running[lo]
            wb_k, b_col = wb[:k], wb[:k, n_genes:]
            w_row = wb[:k, None, :n_genes]
            dot = np.empty((k, 1, 1))
            dot_col = dot[:, 0]
            for xc, yc, sc, uc in zip(x[lo:hi, :k], y[lo:hi, :k],
                                      shrink[lo:hi, :k], update[lo:hi, :k]):
                np.matmul(w_row, xc, out=dot)
                hit = (dot_col + b_col) * yc < 1.0
                wb_k *= sc
                np.add(wb_k, uc, out=wb_k, where=hit)
    weights = np.empty((len(datasets), n_genes))
    biases = np.empty(len(datasets))
    weights[longest_first] = wb[:, :n_genes]
    biases[longest_first] = wb[:, n_genes]
    return weights, biases


def train(spec: ClassifierSpec, ds: Dataset) -> TrainedClassifier:
    return train_many(spec, [ds])[0]


def train_many(spec: ClassifierSpec, datasets) -> list[TrainedClassifier]:
    """Train one model per training set. The linear SVMs of all sets and
    all their one-vs-rest heads train together, one lockstep pass per gene
    count; KNN and Gaussian NB fit each set on its own."""
    datasets = list(datasets)
    models = []
    for ds in datasets:
        if ds.n_samples < ds.n_classes:
            raise ValidationError("need at least one sample per class")
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
        _fit_linear_svms(models, datasets)
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


def _fit_linear_svms(models: list, datasets: list):
    """One head for binary data, one-vs-rest heads for multiclass; every
    head of every set is one problem of a ``_pegasos`` pass."""
    by_width = {}
    for q, model in enumerate(models):
        heads = 1 if model.n_classes == 2 else model.n_classes
        model.weights = np.empty((heads, model.n_genes))
        model.biases = np.empty(heads)
        for head in range(heads):
            by_width.setdefault(model.n_genes, []).append((q, head))
    for group in by_width.values():
        weights, biases = _pegasos(models[0].spec,
                                   [datasets[q] for q, _ in group],
                                   [head for _, head in group])
        for (q, head), w, b in zip(group, weights, biases):
            models[q].weights[head] = w
            models[q].biases[head] = b


def predict(model: TrainedClassifier, ds: Dataset) -> np.ndarray:
    if ds.n_genes != model.n_genes:
        raise ValidationError(
            f"model expects {model.n_genes} genes, dataset has {ds.n_genes}")
    spec = model.spec

    if spec.kind == "knn":
        return _kernels.knn_predict(model.train_values, model.train_labels,
                                    ds.values, spec.knn_k, model.n_classes)

    if spec.kind == "gaussian_nb":
        # log prior + sum of log Gaussian densities, argmax ties to class 0
        x = ds.values
        scores = np.empty((x.shape[0], model.n_classes))
        for k in range(model.n_classes):
            var = model.variances[k]
            log_density = (-0.5 * np.log(2.0 * np.pi * var)
                           - (x - model.means[k]) ** 2 / (2.0 * var))
            scores[:, k] = model.log_priors[k] + log_density.sum(axis=1)
        return np.argmax(scores, axis=1).astype(np.int64)

    scores = ds.values @ model.weights.T + model.biases
    if model.n_classes == 2:
        return (scores[:, 0] >= 0.0).astype(np.int64)
    return np.argmax(scores, axis=1).astype(np.int64)
