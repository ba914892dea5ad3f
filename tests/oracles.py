"""Independent oracles used by the test suite.

These deliberately avoid the library's own formulas: leaf objectives are
scalar-minimized numerically, predictions are recomputed by brute force,
and subsets are enumerated exhaustively.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize_scalar

from genefunnel.data import Dataset
from genefunnel.errors import ValidationError


def leaf_objective(g_sum, h_sum, lam):
    """Minimize the per-leaf objective treated as a black-box quadratic:
    fit the parabola through three samples and take its vertex.
    Returns (w*, objective)."""
    f = lambda w: g_sum * w + 0.5 * (h_sum + lam) * w * w
    a = (f(1.0) + f(-1.0)) / 2.0 - f(0.0)
    b = (f(1.0) - f(-1.0)) / 2.0
    if a <= 0:
        raise AssertionError("objective is not strictly convex")
    w_star = -b / (2.0 * a)
    # polish with a bounded scalar minimization as a cross-check
    res = minimize_scalar(f, bracket=(w_star - 1.0, w_star, w_star + 1.0))
    assert abs(res.x - w_star) < 1e-6
    return w_star, f(w_star)


def split_gain_by_objective(gl, hl, gr, hr, lam, gamma):
    """Objective(parent leaf) - objective(two leaves) - gamma."""
    _, parent = leaf_objective(gl + gr, hl + hr, lam)
    _, left = leaf_objective(gl, hl, lam)
    _, right = leaf_objective(gr, hr, lam)
    return parent - (left + right) - gamma


def _leaf_vertex_exact(g_sum, h_sum, lam):
    """Vertex of the per-leaf quadratic, fitted through three exact
    samples of the objective (rational arithmetic, no closed form)."""
    half = Fraction(1, 2)

    def f(w):
        return g_sum * w + half * (h_sum + lam) * w * w

    a = (f(1) + f(-1)) / 2 - f(0)
    b = (f(1) - f(-1)) / 2
    assert a > 0, "objective is not strictly convex"
    w_star = -b / (2 * a)
    return w_star, f(w_star)


def grow_tree_exhaustive(x, g, h, rows, max_depth, lam, gamma, depth=0):
    """Exhaustive split enumeration: every feature, every midpoint between
    consecutive distinct sorted values. Gains are evaluated in exact
    rational arithmetic so ties are exact; every exactly-tied argmax
    candidate is retained. Returns nested dicts: {'weight': w} or
    {'candidates': [(feature, threshold), ...], 'children': {(f, t): (left,
    right)}}.

    Different (feature, threshold) pairs can induce the same sample
    partition and therefore tie exactly; a fitter resolving such ties by
    float comparison may pick any of them, so equality is asserted against
    the candidate set rather than a single split.
    """
    lam_f = Fraction(lam)
    gamma_f = Fraction(gamma)

    def sums(idx):
        return (sum(Fraction(float(g[i])) for i in idx),
                sum(Fraction(float(h[i])) for i in idx))

    g_sum, h_sum = sums(rows)
    w_star, parent_obj = _leaf_vertex_exact(g_sum, h_sum, lam_f)
    if depth >= max_depth or rows.size < 2:
        return {"weight": float(w_star)}
    best_gain = None
    candidates = []
    for j in range(x.shape[1]):
        values = np.unique(x[rows, j])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = float(0.5 * (lo + hi))
            left_rows = rows[x[rows, j] <= thr]
            right_rows = rows[x[rows, j] > thr]
            _, left_obj = _leaf_vertex_exact(*sums(left_rows), lam_f)
            _, right_obj = _leaf_vertex_exact(*sums(right_rows), lam_f)
            gain = parent_obj - left_obj - right_obj - gamma_f
            if best_gain is None or gain > best_gain:
                best_gain = gain
                candidates = [(j, thr)]
            elif gain == best_gain:
                candidates.append((j, thr))
    if best_gain is None or best_gain <= 0:
        return {"weight": float(w_star)}
    children = {}
    for j, thr in candidates:
        left_rows = rows[x[rows, j] <= thr]
        right_rows = rows[x[rows, j] > thr]
        children[(j, thr)] = (
            grow_tree_exhaustive(x, g, h, left_rows, max_depth, lam, gamma,
                                 depth + 1),
            grow_tree_exhaustive(x, g, h, right_rows, max_depth, lam, gamma,
                                 depth + 1),
        )
    return {"candidates": candidates, "children": children}


def assert_same_tree(node, oracle, atol=1e-9):
    """Structural equality between a TreeNode and an oracle dict. A split
    node must use one of the oracle's exactly-tied argmax candidates."""
    if "weight" in oracle:
        assert node.is_leaf, f"expected leaf, got split on {node.feature}"
        assert math.isclose(node.weight, oracle["weight"], abs_tol=atol), \
            (node.weight, oracle["weight"])
        return
    assert not node.is_leaf, \
        f"expected a split from {oracle['candidates']}, got leaf"
    key = (node.feature, node.threshold)
    assert key in oracle["children"], (key, oracle["candidates"])
    left, right = oracle["children"][key]
    assert_same_tree(node.left, left, atol)
    assert_same_tree(node.right, right, atol)


def finite_diff_grads(loss_fn, y, r, eps=1e-5):
    """Central finite differences of a scalar loss in its raw argument."""
    f = loss_fn
    g = (f(y, r + eps) - f(y, r - eps)) / (2 * eps)
    h = (f(y, r + eps) - 2 * f(y, r) + f(y, r - eps)) / (eps * eps)
    return g, h


def squared_loss(y, r):
    return 0.5 * (y - r) ** 2


def logistic_loss(y, r):
    # -(y*log(p) + (1-y)*log(1-p)) written stably in the raw score
    return math.log1p(math.exp(-abs(r))) + max(r, 0.0) - y * r


def knn_label_bruteforce(train, labels, query, k, n_classes):
    """Sorted-distance majority vote with the documented tie rules."""
    d = np.sqrt(((train - query) ** 2).sum(axis=1))
    order = sorted(range(len(train)), key=lambda i: (d[i], i))[:k]
    votes = [0] * n_classes
    for i in order:
        votes[labels[i]] += 1
    top = max(votes)
    for i in order:
        if votes[labels[i]] == top:
            return labels[i]
    raise AssertionError("unreachable")


def all_subsets(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


def pegasos_binary(x, y_pm, spec, rng):
    """The sequential Pegasos loop on one binary problem (y_pm in {-1, +1}),
    one sample per step, as the linear SVM is specified: lam = 1/(svm_c*M),
    eta = 1/(lam*t), shrink w by 1 - eta*lam, hinge step below margin 1,
    unregularized bias. Returns (w, b)."""
    m, d = x.shape
    lam = 1.0 / (spec.svm_c * m)
    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(spec.svm_epochs):
        for i in rng.permutation(m):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y_pm[i] * (x[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y_pm[i] * x[i]
                b += eta * y_pm[i]
    return w, b


def linear_svm_sequential(spec, ds):
    """Weights (heads, N) and biases (heads,) of the linear SVM trained one
    head at a time: one head for binary data, one-vs-rest heads for
    multiclass, head h drawing its order from default_rng([seed, h])."""
    c = ds.n_classes
    heads = 1 if c == 2 else c
    weights = np.empty((heads, ds.n_genes))
    biases = np.empty(heads)
    for head in range(heads):
        positive = 1 if c == 2 else head
        y_pm = np.where(ds.labels == positive, 1.0, -1.0)
        rng = np.random.default_rng([spec.seed, head])
        weights[head], biases[head] = pegasos_binary(ds.values, y_pm, spec,
                                                     rng)
    return weights, biases


def impute_knn_loop(ds, mask, n_neighbors=5):
    """KNN imputation with one Python step per (row with a gap, other row)
    pair: the partial distance of each pair from the compressed vector of
    coordinates observed in both, donors picked by scanning the sorted
    order for each missing cell."""
    if n_neighbors < 1:
        raise ValidationError("n_neighbors must be >= 1")
    if not mask:
        return ds
    m, n = ds.values.shape
    for (i, j) in mask:
        if not (0 <= i < m and 0 <= j < n):
            raise ValidationError(f"mask coordinate {(i, j)} out of bounds")

    observed = np.ones((m, n), dtype=bool)
    for (i, j) in mask:
        observed[i, j] = False
    values = ds.values.copy()

    col_means = np.empty(n)
    for j in range(n):
        obs = observed[:, j]
        if not obs.any():
            raise ValidationError(f"gene column {j} has no observed values")
        col_means[j] = values[obs, j].mean()

    missing_by_row: dict[int, list[int]] = {}
    for (i, j) in sorted(mask):
        missing_by_row.setdefault(i, []).append(j)

    for i, cols in missing_by_row.items():
        # partial distances from sample i to every other sample
        dists = np.full(m, np.inf)
        for other in range(m):
            if other == i:
                continue
            usable = observed[i] & observed[other]
            cnt = int(usable.sum())
            if cnt == 0:
                continue
            diff = values[i, usable] - values[other, usable]
            dists[other] = np.sqrt((diff @ diff) / (cnt / n))
        order = np.lexsort((np.arange(m), dists))
        for j in cols:
            donors = [o for o in order
                      if np.isfinite(dists[o]) and observed[o, j]][:n_neighbors]
            if donors:
                values[i, j] = values[donors, j].mean()
            else:
                values[i, j] = col_means[j]

    return Dataset(values, ds.labels, ds.gene_ids, ds.class_names, ds.name)
