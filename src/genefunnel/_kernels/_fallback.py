"""Pure-numpy implementations of the hot kernels.

``best_split`` is the only split search on every install. ``knn_predict``
must match the compiled version in ``_core.pyx``, tie-breaks included;
the parity test compares the two on random inputs.
"""
import numpy as np


def best_split(x, g, h, lam, gamma):
    """Exact greedy split search over all features and midpoint thresholds.

    x: (m, n) float64 node matrix; g, h: per-row gradient/hessian sums.
    Returns (feature, threshold, gain) for the highest strictly positive
    gain, ties broken by lower feature index then lower threshold, or
    (-1, 0.0, 0.0) when no split improves the objective.

    One pass over the whole matrix: every column is sorted and scanned at
    once in a feature-major (n, m) layout, so the first maximum of the
    flattened gain matrix is the lowest feature, then the lowest
    threshold. The gain arithmetic runs in place, in the fixed order
    0.5 * (gl*gl/(hl+lam) + gr*gr/(hr+lam) - parent) - gamma; reordering
    it moves the last bits of the gains, and with them tie-breaks, trees
    and report fingerprints.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    m, n = x.shape
    if m < 2 or n == 0:
        return -1, 0.0, 0.0
    total_g = float(g.sum())
    total_h = float(h.sum())
    parent = total_g * total_g / (total_h + lam)

    # Arrays are (n, m) and updated in place, so a call holds about six
    # node-sized arrays at its peak.
    xt = x.T
    order = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, order, axis=1)
    left_g = g[order]
    np.cumsum(left_g, axis=1, out=left_g)
    left_h = h[order]
    np.cumsum(left_h, axis=1, out=left_h)
    del order
    # cut i sends sorted rows 0..i left; the last row has no cut after it
    left_g = left_g[:, :-1]
    left_h = left_h[:, :-1]

    right = np.subtract(total_g, left_g)
    right *= right
    right_h = np.subtract(total_h, left_h)
    right_h += lam
    right /= right_h
    del right_h
    gains = left_g
    gains *= gains
    left_h += lam
    gains /= left_h
    gains += right
    gains -= parent
    gains *= 0.5
    gains -= gamma
    del right
    # no threshold separates equal values
    gains[xs[:, :-1] == xs[:, 1:]] = -np.inf

    feat, cut = divmod(int(np.argmax(gains)), m - 1)
    best_gain = float(gains[feat, cut])
    if not best_gain > 0.0:
        return -1, 0.0, 0.0
    thr = float(0.5 * (xs[feat, cut] + xs[feat, cut + 1]))
    return feat, thr, best_gain


def knn_predict(train, labels, test, k, n_classes):
    """Majority-vote k-nearest-neighbor labels under Euclidean distance.

    Neighbor order ties break on lower training index; vote ties go to
    the tied class whose nearest member comes first, then lower class.
    """
    train = np.ascontiguousarray(train, dtype=np.float64)
    test = np.ascontiguousarray(test, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = train.shape[0]
    k = min(k, m)
    out = np.empty(test.shape[0], dtype=np.int64)
    diffs = test[:, None, :] - train[None, :, :]
    d2 = np.einsum("qmd,qmd->qm", diffs, diffs)
    idx = np.arange(m)
    for q in range(test.shape[0]):
        order = np.lexsort((idx, d2[q]))[:k]
        votes = np.bincount(labels[order], minlength=n_classes)
        top = votes.max()
        tied = np.flatnonzero(votes == top)
        if tied.size == 1:
            out[q] = tied[0]
        else:
            winner = tied[0]
            for t in order:
                if votes[labels[t]] == top:
                    winner = labels[t]
                    break
            out[q] = winner
    return out
