"""Span tracing of genefunnel's public functions, installed from outside.

Each traced function is replaced by a wrapper that records a span
(name, start, end, parent) in memory. The wrapper is bound in every
genefunnel module that holds the original function object, because
``ga``, ``stats`` and ``pipeline`` import functions by name
(``from .classifiers import train``) and a rebinding in the defining
module alone would miss those call sites. Hot helpers that run once per
row (``boosting.grad_hess``, ``Dataset`` construction) get a counter
only, since a span per call would dominate what it measures.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

MODULES = ("_kernels", "boosting", "classifiers", "data", "ga", "pipeline",
           "stats")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []

    def span(self, fn, name, count=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``count(counts, *args)`` adds the call's work to the counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if count is not None:
                count(tracer.counts, *args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (label, start, end, parent)

        return wrapper

    def counter(self, fn, key):
        """Wrap ``fn`` so each call only increments ``counts[key]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; children run synchronously inside their parent, so they
        never overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (label, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(label, (0, 0.0, 0.0))
            out[label] = (calls + 1, total + (end - start),
                          own + (end - start) - child_time[i])
        return out


def _svm_steps(spec, ds):
    if spec.kind != "linear_svm":
        return 0
    heads = 1 if ds.n_classes == 2 else ds.n_classes
    return spec.svm_epochs * ds.n_samples * heads


def _count_train(counts, spec, ds, *_):
    counts[f"classifiers.train_calls.{spec.kind}"] += 1
    counts["classifiers.svm_steps"] += _svm_steps(spec, ds)


def _count_split(counts, x, *_):
    counts["kernels.best_split_cells"] += x.shape[0] * x.shape[1]


def _count_knn(counts, train, labels, test, *_):
    counts["kernels.knn_distance_cells"] += (
        test.shape[0] * train.shape[0] * train.shape[1])


def _count_evolve(counts, ds, cfg, *_):
    counts["ga.candidates"] += cfg.population_size * (cfg.iterations + 1)


def _count_impute(counts, ds, mask, *_):
    counts["data.imputed_cells"] += len(mask)


@contextlib.contextmanager
def installed(tracer):
    """Bind the tracer's wrappers into genefunnel for the ``with`` block,
    then restore every original binding."""
    mods = {name: importlib.import_module(f"genefunnel.{name}")
            for name in MODULES}
    restore = []

    def rebind(original, wrapper):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, original))

    spans = [
        ("_kernels", "best_split", "kernels.best_split", _count_split),
        ("_kernels", "knn_predict", "kernels.knn_predict", _count_knn),
        ("boosting", "fit", "boosting.fit", None),
        ("ga", "evolve", "ga.evolve", _count_evolve),
        ("ga", "fitness", "ga.fitness", None),
        ("data", "load_csv", "data.load_csv", None),
        ("data", "impute_knn", "data.impute_knn", _count_impute),
        ("data", "normalize_minmax", "data.normalize_minmax", None),
        ("classifiers", "train",
         lambda spec, *a, **k: f"classifiers.train.{spec.kind}",
         _count_train),
        ("classifiers", "predict",
         lambda model, *a, **k: f"classifiers.predict.{model.spec.kind}",
         None),
        ("stats", "cross_validate", "stats.cross_validate", None),
        ("stats", "score_split", "stats.score_split", None),
        ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ]
    try:
        for mod, attr, name, count in spans:
            fn = getattr(mods[mod], attr)
            rebind(fn, tracer.span(fn, name, count))
        for mod, attr, key in (
                ("boosting", "grad_hess", "boosting.grad_hess_calls"),
                ("data", "project", "data.project_calls")):
            fn = getattr(mods[mod], attr)
            rebind(fn, tracer.counter(fn, key))
        dataset = mods["data"].Dataset
        restore.append((dataset, "__post_init__", dataset.__post_init__))
        dataset.__post_init__ = tracer.counter(dataset.__post_init__,
                                               "data.dataset_builds")
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
