"""Evaluation and fitness classifiers: KNN, Gaussian naive Bayes, and a
linear SVM trained to the optimum of the squared hinge by batched Newton
steps. All three sit behind one train/predict interface; ``train_many``
trains the models of many training sets at once (the SVM heads of one
(rows, genes) shape batched together), and ``train`` is its one-set case.
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
    """``svm_epochs`` caps the Newton steps of each linear SVM head; fits
    on the gated benchmark workloads converge in 4-5 steps."""
    kind: str = "knn"
    knn_k: int = 5
    svm_c: float = 1.0
    svm_epochs: int = 200
    nb_var_smoothing: float = 1e-9

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


# Bytes of one Newton batch per problem: its rows with the bias column,
# their copy with the inactive rows zeroed, and its k x k Newton system,
# k = min(rows, genes + 1). Each head copies its set's rows: a 4-class
# 10x10 CV at 273 genes and 75 rows would copy about 65 MB in one batch.
_BATCH_BYTES = 4 << 20
_HALVINGS = 30  # per step, before a problem stops as unable to descend


def _fit_svms(spec: ClassifierSpec, datasets: list, models: list):
    """Fill each model's linear SVM: one head for binary data (y = +1 for
    class 1), one one-vs-rest head per class otherwise. The heads of all
    sets of one (rows, genes) shape go through ``_newton`` in batches of
    at most ``_BATCH_BYTES``, so no batch needs padding."""
    shapes = {}
    for q, model in enumerate(models):
        h = 1 if model.n_classes == 2 else model.n_classes
        model.weights, model.biases = np.empty((h, model.n_genes)), np.empty(h)
        shapes.setdefault(datasets[q].values.shape, []).extend(
            (q, head) for head in range(h))
    for (m, n), problems in shapes.items():
        size = max(1, _BATCH_BYTES
                   // (8 * (2 * m * (n + 1) + min(m, n + 1) ** 2)))
        for lo in range(0, len(problems), size):
            batch = problems[lo:lo + size]
            x = np.ones((len(batch), m, n + 1))
            y = np.empty((len(batch), m))
            for b, (q, head) in enumerate(batch):
                x[b, :, :n] = datasets[q].values
                positive = 1 if models[q].n_classes == 2 else head
                y[b] = np.where(datasets[q].labels == positive, 1.0, -1.0)
            for (q, head), w in zip(batch, _newton(x, y, spec.svm_c,
                                                   spec.svm_epochs)):
                models[q].weights[head], models[q].biases[head] = w[:n], w[n]


def _objective(w, margins, c):
    return (0.5 * np.vecdot(w, w)
            + c * np.sum(np.maximum(1.0 - margins, 0.0) ** 2, axis=1))


def _newton(x, y, c: float, max_steps: int) -> np.ndarray:
    """Minimize 1/2 ||w||^2 + c * sum(max(0, 1 - y * (x @ w))^2) for each
    problem of a batch, x (P, M, D) and y (P, M) in +-1; returns w (P, D).
    x ends in a constant-1 column, so the bias is regularized (LIBLINEAR's
    convention, Fan et al., JMLR 2008) and every system is positive
    definite. Finite Newton steps (Keerthi & DeCoste, JMLR 2005) from
    w = 0: solve for the minimizer with the active rows S (margin below 1)
    as hinge rows, (X_S'X_S + I/2c) w = X_S'y_S, or the dual form
    w = X_S'(X_S X_S' + I/2c)^-1 y_S when D > M. If S is that minimizer's
    own active set, it is the optimum and the problem stops; otherwise
    the step halves from 1 until the Armijo rule holds, and a problem
    that cannot descend stops. Step sizes and stops are per problem, and
    the batched matmul and solve act on each problem's matrices alone, so
    each problem gets the bits it gets alone.
    """
    p, m, d = x.shape
    fitted = np.empty((p, d))
    live = np.arange(p)
    w = np.zeros((p, d))
    for _ in range(max_steps):
        margins = y * (x @ w[..., None])[..., 0]
        active = margins < 1.0
        xa = x * active[..., None]
        xat = xa.transpose(0, 2, 1)
        system, rhs = ((xat @ xa, xat @ y[..., None]) if d <= m
                       else (xa @ xat, (y * active)[..., None]))
        target = np.linalg.solve(
            system + np.eye(system.shape[1]) / (2.0 * c), rhs)
        target = (target if d <= m else xat @ target)[..., 0]
        reached = y * (x @ target[..., None])[..., 0]
        optimal = np.all((reached < 1.0) == active, axis=1)
        step, rise = target - w, reached - margins
        slope = np.vecdot(w, step) - 2.0 * c * np.sum(
            active * (1.0 - margins) * rise, axis=1)
        start = _objective(w, margins, c)
        t = np.ones(len(w))
        for _ in range(_HALVINGS):
            falls = optimal | (_objective(w + t[:, None] * step,
                                          margins + t[:, None] * rise, c)
                               <= start + 1e-4 * t * slope)
            if falls.all():
                break
            t[~falls] /= 2.0
        t[~falls] = 0.0
        w = np.where(t[:, None] == 1.0, target, w + t[:, None] * step)
        fitted[live] = w
        going = ~optimal & (t > 0.0)
        if not going.any():
            break
        live, x, y, w = live[going], x[going], y[going], w[going]
    return fitted


def train(spec: ClassifierSpec, ds: Dataset) -> TrainedClassifier:
    return train_many(spec, [ds])[0]


def train_many(spec: ClassifierSpec, datasets) -> list[TrainedClassifier]:
    """Train one model per training set. The linear SVMs of all sets and
    all their one-vs-rest heads train together, in Newton batches of one
    (rows, genes) shape each; KNN and Gaussian NB fit each set on its
    own."""
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
        _fit_svms(spec, datasets, models)
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
