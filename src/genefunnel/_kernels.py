"""The hot kernels, in numpy; each has this one implementation.

``best_split`` is the only split search, and it scans columns that are
already sorted: ``boosting.fit`` sorts once per tree (``sort_columns``),
and ``sorted_partition`` gives each child its own contiguous part of the
sorted columns, gathered through the flat indices of the child's cells,
which keep each feature's sorted order. ``sort_columns`` also flags the
features that hold a tied value, and the scan looks for equal
neighbours only in flagged features; a tree's flags hold for all its
nodes. Each block of
the scan takes its left-child sums by one gather and one prefix sum of
(gradient, hessian), carried as the parts of one complex array.

``nearest`` and ``knn_vote`` are the only KNN neighbour-pick and vote
rules: ``knn_predict`` calls them for the ``knn`` evaluation classifier,
and so does the GA's batched fitness kernel, over padded rows whose
+inf distances ``nearest`` never picks while k real ones remain.
``nearest`` also picks the donors of ``data.impute_knn``, over distances
set to +inf at the samples that miss the imputed column.
"""
import numpy as np


def sort_columns(x):
    """Each column of the (m, n) matrix x, stably sorted, feature-major:
    returns xs (n, m) with the values, order (n, m) with their rows and
    tied, an (n,) bool flag of the features that hold a tied value."""
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
    tied = (xs[:, 1:] == xs[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(xt[tied], axis=1, kind="stable")
        xs[tied] = np.take_along_axis(xt[tied], order[tied], axis=1)
    return xs, order, tied


# Bytes of one (genes, rows) float64 array of ``best_split``: it
# scans the genes of a node in blocks of at most _SCAN_BYTES / 8 cells,
# holding about five block-sized arrays at once (the complex prefix sums
# of gradient and hessian count as two). Every node of 60x500 and 80x200
# data fits one block; a 150-row node of 5000 genes takes six.
_SCAN_BYTES = 1 << 20


def best_split(xs, order, tied, g, h, total_g, total_h, lam, gamma):
    """Exact greedy split search over sorted columns: every feature, every
    midpoint threshold between consecutive distinct values.

    xs: (n, m) node values, each feature's row ascending with ties in row
    order; order: the same shape, the index into g and h of each value;
    tied: (n,) bool, True at least for every feature whose row of xs
    holds two equal values; g, h: per-row gradient and hessian; total_g,
    total_h: the node's gradient and hessian sums. Returns (feature,
    threshold, gain) for the highest strictly positive gain, ties broken
    by lower feature index then lower threshold, or (-1, 0.0, 0.0) when
    no split improves the objective.

    Only flagged features are searched for equal neighbours, between
    which no cut is allowed. ``boosting.fit`` flags the features with a
    tie among a tree's rows (``sort_columns``) and keeps the flags for
    every node of the tree: a node's sorted column is a subsequence of
    its tree's, so it holds a tie only where its tree does.

    The features are scanned in blocks of whole rows of xs (see
    ``_SCAN_BYTES``), each block in one pass, in a feature-major layout,
    so the first maximum of a block's flattened gain matrix is its lowest
    feature, then its lowest threshold. A later block wins only with a
    strictly greater gain, so the blocks pick what one pass over the whole
    matrix picks. The gain arithmetic runs in the fixed order
    0.5 * (gl*gl/(hl+lam) + gr*gr/(hr+lam) - parent) - gamma; reordering
    it moves the last bits of the gains, and with them tie-breaks, trees
    and report fingerprints.
    """
    n, m = xs.shape
    if m < 2 or n == 0:
        return -1, 0.0, 0.0
    parent = total_g * total_g / (total_h + lam)
    block = max(1, _SCAN_BYTES // (8 * m))
    best_feat, best_cut, best_gain = -1, 0, -np.inf
    for lo in range(0, n, block):
        gains = _split_gains(xs[lo:lo + block], order[lo:lo + block],
                             tied[lo:lo + block], g, h, total_g, total_h,
                             lam, gamma, parent)
        feat, cut = divmod(int(np.argmax(gains)), m)
        gain = float(gains[feat, cut])
        if gain > best_gain:
            best_feat, best_cut, best_gain = lo + feat, cut, gain
    if not best_gain > 0.0:
        return -1, 0.0, 0.0
    thr = float(0.5 * (xs[best_feat, best_cut] + xs[best_feat, best_cut + 1]))
    return best_feat, thr, best_gain


def _split_gains(xs, order, tied, g, h, total_g, total_h, lam, gamma,
                 parent):
    """The (n, m) gain of every cut of every feature of one block; -inf
    where no cut is (between equal values of a ``tied`` feature, and
    after the last row)."""
    # Column i of the (n, m) arrays is the cut that sends sorted rows 0..i
    # left. One gather and one prefix sum of g + ih give both sums, with
    # the bits of two real ones: complex addition adds each part on its
    # own. np.take gathers by the int32 orders without first casting them
    # to intp, as indexing does. The rest runs contiguous and in place
    gh = np.empty(g.shape, dtype=np.complex128)
    gh.real = g
    gh.imag = h
    left = np.take(gh, order)
    np.cumsum(left, axis=1, out=left)

    right = np.subtract(total_g, left.real)
    right *= right
    right_h = np.subtract(total_h, left.imag)
    right_h += lam
    right_h[:, -1] = 1.0  # no cut there: keep the division finite
    right /= right_h
    gains = np.multiply(left.real, left.real)
    gains /= np.add(left.imag, lam, out=right_h)
    del left, right_h
    gains += right
    gains -= parent
    gains *= 0.5
    if gamma:
        gains -= gamma
    del right
    # no threshold separates equal values
    feats = np.flatnonzero(tied)
    if feats.size:
        rows, cuts = np.nonzero(xs[feats, :-1] == xs[feats, 1:])
        gains[feats[rows], cuts] = -np.inf
    gains[:, -1] = -np.inf
    return gains


def sorted_partition(xs, order, first):
    """Split each feature's sorted columns into the rows flagged in
    ``first`` and the rest, both parts still sorted.

    xs, order: as for ``best_split``; first: bool per row index, read
    only at the rows that ``order`` holds. Returns ((xs, order) of the
    flagged rows, (xs, order) of the rest), each part a new C-contiguous
    (n, count) pair, (n, 0) when the part is empty.

    The flat indices of each part's cells list them in row-major order,
    so every feature's members keep their sorted order: the stable
    partition, without a sort.
    """
    n, m = order.shape
    side = np.take(first, order).ravel()
    n_first = int(np.count_nonzero(side[:m]))  # the same in every feature
    parts = []
    for cells, count in ((np.flatnonzero(side), n_first),
                         (np.flatnonzero(~side), m - n_first)):
        parts.append((np.take(xs, cells).reshape(n, count),
                      np.take(order, cells).reshape(n, count)))
    return tuple(parts)


def nearest(d, k):
    """The int64 indices of the k smallest entries on d's last axis, as a
    stable argsort orders finite d: k argmin passes (the first minimum is
    the lowest index), each setting its picks in d to +inf.

    Only the leading picks that are finite entries are defined: once a
    row's finite entries are spent, its later picks may repeat."""
    picks = np.empty(d.shape[:-1] + (k,), dtype=np.int64)
    for p in range(k):
        pick = np.argmin(d, axis=-1)
        picks[..., p] = pick
        np.put_along_axis(d, pick[..., None], np.inf, axis=-1)
    return picks


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
    return knn_vote(labels[nearest(d2, k)], n_classes)
