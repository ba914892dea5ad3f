"""A fixed reference loop that measures how fast the machine runs right now.

On a shared machine the CPU speed drifts: single-threaded numpy code
ran up to 1.9x slower for minutes at a time and switched between speeds
every few seconds (2 vCPUs, CPython 3.11, numpy 2.4). The benchmark
times this loop just before and just after every timed sample and
scales the sample by ``REFERENCE_S`` over the mean of the two. Over 55 s
windows of repeated run_pipeline calls on one input, that cut the
coefficient of variation of the median from 16% (wall time) to 3.5%.

The loop mixes the same kinds of work as the pipeline: a per-column
argsort/cumsum split search in the style of the numpy split kernel,
per-query KNN votes, and per-row hinge-loss steps in the style of the
Pegasos SVM. It does not call genefunnel, so a change to the
program cannot move it. Do not edit it: every scaled timing is relative
to it, and a change would shift all of them.
"""
from __future__ import annotations

import numpy as np

REFERENCE_S = 0.016  # nominal seconds of one loop call; scaled times use it

_rng = np.random.default_rng(12345)
_X = _rng.normal(size=(45, 500))
_G = _rng.normal(size=45)
_H = _rng.uniform(0.1, 1.0, size=45)
_TRAIN = _rng.normal(size=(48, 20))
_LABELS = _rng.integers(0, 2, size=48)
_QUERIES = _rng.normal(size=(12, 20))
_ROWS = _rng.normal(size=(54, 5))
_SIGNS = np.where(_rng.random(54) < 0.5, 1.0, -1.0)
_ORDER = _rng.permutation(54)


def reference_loop() -> float:
    """Run the fixed work once; returns a value so none of it is skipped."""
    total_g, total_h = float(_G.sum()), float(_H.sum())
    parent = total_g * total_g / (total_h + 1.0)
    best = 0.0
    for j in range(_X.shape[1]):
        col = _X[:, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        gl = np.cumsum(_G[order])
        hl = np.cumsum(_H[order])
        cuts = np.flatnonzero(xs[:-1] != xs[1:])
        gains = 0.5 * (gl[cuts] ** 2 / (hl[cuts] + 1.0)
                       + (total_g - gl[cuts]) ** 2 / (total_h - hl[cuts] + 1.0)
                       - parent)
        best = max(best, float(gains[int(np.argmax(gains))]))
    idx = np.arange(_TRAIN.shape[0])
    for _ in range(20):
        diffs = _QUERIES[:, None, :] - _TRAIN[None, :, :]
        d2 = np.einsum("qmd,qmd->qm", diffs, diffs)
        for q in range(_QUERIES.shape[0]):
            nearest = np.lexsort((idx, d2[q]))[:5]
            best += int(np.bincount(_LABELS[nearest], minlength=2).argmax())
    w, b, t, lam = np.zeros(_ROWS.shape[1]), 0.0, 0, 1.0 / _ROWS.shape[0]
    for _ in range(16):
        for i in _ORDER:
            t += 1
            eta = 1.0 / (lam * t)
            margin = _SIGNS[i] * (_ROWS[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * _SIGNS[i] * _ROWS[i]
                b += eta * _SIGNS[i]
    return best + b
