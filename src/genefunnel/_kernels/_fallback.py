"""Pure-numpy implementations of the hot kernels.

``best_split_sorted`` is the only split scan on every install.
``best_split`` sorts one node's columns and scans them; ``boosting.fit``
sorts once per tree (``sort_columns``) and hands each child its part of
the sorted orders (``sorted_partition``).

``knn_vote`` is the only KNN vote rule: ``knn_predict`` calls it, and so
does the GA's batched fitness kernel. ``knn_predict`` serves the ``knn``
evaluation classifier and must match the compiled version in
``_core.pyx``, tie-breaks included; the parity test compares the two on
random inputs.
"""
import numpy as np


def best_split(x, g, h, lam, gamma):
    """Exact greedy split search over all features and midpoint thresholds.

    x: (m, n) float64 node matrix; g, h: per-row gradient/hessian sums.
    Returns (feature, threshold, gain) for the highest strictly positive
    gain, ties broken by lower feature index then lower threshold, or
    (-1, 0.0, 0.0) when no split improves the objective.

    Sorts every column (``sort_columns``) and scans them with
    ``best_split_sorted``.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    m, n = x.shape
    if m < 2 or n == 0:
        return -1, 0.0, 0.0
    xs, order = sort_columns(x)
    return best_split_sorted(xs, order, g, h, float(g.sum()), float(h.sum()),
                             lam, gamma)


def sort_columns(x):
    """Each column of the (m, n) matrix x, stably sorted, feature-major:
    returns xs (n, m) with the values and order (n, m) with their rows."""
    m, n = x.shape
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1)
    offsets = np.arange(0, n * m, m)[:, None]
    order += offsets  # flat indices, shifted back in place after the gather
    xs = xt.ravel()[order]
    order -= offsets
    # The default sort is the fastest but may put tied values (0.0 and
    # -0.0 too) out of row order; only features holding a tie need the
    # stable sort.
    tied = np.flatnonzero((xs[:, 1:] == xs[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(xt[tied], axis=1, kind="stable")
        xs[tied] = np.take_along_axis(xt[tied], order[tied], axis=1)
    return xs, order


def best_split_sorted(xs, order, g, h, total_g, total_h, lam, gamma):
    """``best_split`` over columns that are already sorted.

    xs: (n, m) node values, each feature's row ascending with ties in row
    order; order: the same shape, the index into g and h of each value;
    total_g, total_h: the node's gradient and hessian sums. Same return
    value and tie rules as ``best_split``.

    One pass over the whole matrix: every column is scanned at once in a
    feature-major (n, m) layout, so the first maximum of the flattened
    gain matrix is the lowest feature, then the lowest threshold. The
    gain arithmetic runs in place, in the fixed order
    0.5 * (gl*gl/(hl+lam) + gr*gr/(hr+lam) - parent) - gamma; reordering
    it moves the last bits of the gains, and with them tie-breaks, trees
    and report fingerprints.
    """
    n, m = xs.shape
    if m < 2 or n == 0:
        return -1, 0.0, 0.0
    parent = total_g * total_g / (total_h + lam)

    # Arrays are (n, m), contiguous and updated in place, so a call holds
    # about four node-sized arrays at its peak. Column i is the cut that
    # sends sorted rows 0..i left; the last column has no cut after it and
    # its gain is replaced by -inf.
    left_g = g[order]
    np.cumsum(left_g, axis=1, out=left_g)
    left_h = h[order]
    np.cumsum(left_h, axis=1, out=left_h)

    right = np.subtract(total_g, left_g)
    right *= right
    right_h = np.subtract(total_h, left_h)
    right_h += lam
    right_h[:, -1] = 1.0  # no cut there: keep the division finite
    right /= right_h
    del right_h
    gains = left_g
    gains *= gains
    left_h += lam
    gains /= left_h
    gains += right
    gains -= parent
    gains *= 0.5
    if gamma:
        gains -= gamma
    del right
    # no threshold separates equal values
    gains[:, :-1][xs[:, :-1] == xs[:, 1:]] = -np.inf
    gains[:, -1] = -np.inf

    feat, cut = divmod(int(np.argmax(gains)), m)
    best_gain = float(gains[feat, cut])
    if not best_gain > 0.0:
        return -1, 0.0, 0.0
    thr = float(0.5 * (xs[feat, cut] + xs[feat, cut + 1]))
    return feat, thr, best_gain


def sorted_partition(xs, order, first):
    """Stably move the rows flagged in ``first`` to the front of each
    feature's sorted columns, so both parts stay sorted.

    xs, order: as for ``best_split_sorted``; first: bool per row index.
    Returns the reordered (xs, order).
    """
    n, m = order.shape
    perm = np.argsort(~first[order], axis=1, kind="stable")
    perm += np.arange(0, n * m, m)[:, None]
    perm = perm.ravel()
    order = order.ravel()[perm].reshape(n, m)
    xs = xs.ravel()[perm].reshape(n, m)
    return xs, order


def knn_vote(nearest_labels, n_classes):
    """Majority vote over each row of neighbor labels, nearest first.

    nearest_labels: (q, k) int array, k >= 1. A vote tie goes to the tied
    class whose nearest member comes first. Returns (q,) int64 labels.
    """
    nearest_labels = np.asarray(nearest_labels, dtype=np.int64)
    q = nearest_labels.shape[0]
    offsets = np.arange(q, dtype=np.int64)[:, None] * n_classes
    votes = np.bincount((nearest_labels + offsets).ravel(),
                        minlength=q * n_classes).reshape(q, n_classes)
    top = votes.max(axis=1)
    member_votes = np.take_along_axis(votes, nearest_labels, axis=1)
    first = np.argmax(member_votes == top[:, None], axis=1)
    return np.take_along_axis(nearest_labels, first[:, None], axis=1)[:, 0]


def knn_predict(train, labels, test, k, n_classes):
    """Majority-vote k-nearest-neighbor labels under Euclidean distance.

    Neighbor order ties break on lower training index; vote ties go to
    the tied class whose nearest member comes first (``knn_vote``).
    """
    train = np.ascontiguousarray(train, dtype=np.float64)
    test = np.ascontiguousarray(test, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = min(k, train.shape[0])
    diffs = test[:, None, :] - train[None, :, :]
    d2 = np.einsum("qmd,qmd->qm", diffs, diffs)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return knn_vote(labels[nearest], n_classes)
