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

from genefunnel import ga
from genefunnel.data import Dataset, make_folds
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


def ensemble_scores(model, x):
    """Raw additive scores of a fitted ensemble, (samples, heads): each
    sample walks every tree from its root, and its score for a head is the
    base score plus learning_rate times each reached leaf's weight."""
    x = np.asarray(x, dtype=float)
    scores = np.empty((x.shape[0], len(model.trees)))
    for i, row in enumerate(x):
        for head, trees in enumerate(model.trees):
            score = float(model.base_score[head])
            for node in trees:
                while not node.is_leaf:
                    node = (node.left if row[node.feature] <= node.threshold
                            else node.right)
                score += model.params.learning_rate * node.weight
            scores[i, head] = score
    return scores


def ensemble_labels(model, x):
    """Class indices from the raw scores: one head gives class 1 only on
    a score > 0, several heads the argmax (ties to the lowest class)."""
    scores = ensemble_scores(model, x)
    if scores.shape[1] == 1:
        return (scores[:, 0] > 0.0).astype(np.int64)
    return np.argmax(scores, axis=1)


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


def confusion_counts(actual, predicted, n_classes):
    """The (C, C) confusion counts, rows = actual, cols = predicted,
    tallied one pair at a time."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for a, p in zip(actual, predicted, strict=True):
        counts[a][p] += 1
    return np.array(counts, dtype=np.int64)


def all_subsets(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


def oracle_fitness(bits, ds, cfg):
    """Per-fold loop over the brute-force KNN oracle: the internal-CV
    accuracy that the batched GA fitness kernel must reproduce bit for
    bit."""
    x = ds.values[:, np.flatnonzero(bits)]
    plan = make_folds(ds.labels, k=min(cfg.fitness_folds, ds.n_samples),
                      rounds=1, seed=cfg.seed)
    accuracies = []
    for _, _, train_idx, test_idx in plan.splits():
        k = min(cfg.fitness_knn_k, train_idx.size)
        predicted = [knn_label_bruteforce(
            x[train_idx], ds.labels[train_idx], x[q], k, ds.n_classes)
            for q in test_idx]
        accuracies.append(float(np.mean(
            np.array(predicted) == ds.labels[test_idx])))
    return float(np.mean(accuracies))


def _ranks_above(pop, scores, i, j):
    """True when pop[i] ranks above pop[j]: higher fitness (read from
    scores by the mask), then fewer selected genes, then lower index."""
    a, b = pop[i], pop[j]
    if scores[a] != scores[b]:
        return scores[a] > scores[b]
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    return i < j


def _best_of(pop, scores, indices):
    best = indices[0]
    for i in indices[1:]:
        if _ranks_above(pop, scores, i, best):
            best = i
    return best


def _repair_reference(masks, rng):
    """Each mask with no set bit, in order, gets the locus drawn for it
    by one integers(N', size=k) draw over the k empty masks."""
    empty = [i for i, mask in enumerate(masks) if not any(mask)]
    loci = rng.integers(len(masks[0]), size=len(empty)).tolist()
    for i, locus in zip(empty, loci):
        masks[i][locus] = 1


def evolve_reference(ds, cfg):
    """``ga.evolve`` written out pair by pair in plain Python, on masks
    held as lists of 0/1.

    It makes the same generator calls as ``ga``, in the contract's
    order, and reads their arrays as nested lists: the initial bits,
    then per generation the tournament picks, crossover coins and swap
    draws, a repair, the mutation flips and a repair. Tournaments,
    elites and each generation's best are pairwise scans by
    ``_ranks_above``; elites are picked one at a time from the rest;
    every mask is scored by ``oracle_fitness`` into one dict keyed by
    the mask as a tuple. The best-ever mask is replaced only by a
    generation's best that is smaller in (-fitness, set-bit count,
    bitstring).
    """
    rng = np.random.default_rng(cfg.seed)
    p, n = cfg.population_size, ds.n_genes
    children = p - cfg.elitism_count
    scores = {}

    def order(mask):
        return (-scores[mask], sum(mask), mask)

    pop = [[int(u < 0.5) for u in row] for row in rng.random((p, n)).tolist()]
    _repair_reference(pop, rng)
    pop = [tuple(mask) for mask in pop]
    trace = ga.GaTrace()
    for gen in range(cfg.iterations + 1):
        if gen > 0:
            rest = list(range(p))
            next_pop = []
            for _ in range(cfg.elitism_count):
                elite = _best_of(pop, scores, rest)
                rest.remove(elite)
                next_pop.append(pop[elite])
            pairs = (children + 1) // 2
            picks = rng.integers(0, p, size=(pairs, 2,
                                             cfg.tournament_size)).tolist()
            coins = rng.random(pairs).tolist()
            swaps = rng.random((pairs, n)).tolist()
            kids = []
            for tournaments, coin, swap in zip(picks, coins, swaps):
                a, b = (pop[_best_of(pop, scores, t)] for t in tournaments)
                take = [coin < cfg.crossover_prob and u < 0.5 for u in swap]
                kids.append([y if s else x for x, y, s in zip(a, b, take)])
                kids.append([x if s else y for x, y, s in zip(a, b, take)])
            kids = kids[:children]
            _repair_reference(kids, rng)
            flips = rng.random((children, n)).tolist()
            kids = [[bit ^ (u < cfg.mutation_prob) for bit, u in zip(kid, f)]
                    for kid, f in zip(kids, flips)]
            _repair_reference(kids, rng)
            pop = next_pop + [tuple(kid) for kid in kids]
        for mask in pop:
            if mask not in scores:
                scores[mask] = oracle_fitness(np.array(mask), ds, cfg)
        gen_best = pop[_best_of(pop, scores, list(range(p)))]
        if gen == 0 or order(gen_best) < order(best_ever):
            best_ever = gen_best
        trace.record(gen, scores[best_ever],
                     float(np.mean([scores[mask] for mask in pop])),
                     sum(best_ever))
    return ga.Chromosome(np.array(best_ever, dtype=np.uint8)), trace


def svm_heads(ds):
    """(x with a constant-1 bias column, +-1 targets) of each head of a
    linear SVM: one head for binary data (class 1 positive), one
    one-vs-rest head per class otherwise."""
    x = np.column_stack([ds.values, np.ones(ds.n_samples)])
    positives = [1] if ds.n_classes == 2 else range(ds.n_classes)
    return [(x, np.where(ds.labels == k, 1.0, -1.0)) for k in positives]


def squared_hinge_objective(w, x, y, c):
    """1/2 ||w||^2 + c * sum(max(0, 1 - y * (x @ w))^2), bias in w."""
    return 0.5 * w @ w + c * np.sum(np.maximum(0.0, 1.0 - y * (x @ w)) ** 2)


def squared_hinge_gradient(w, x, y, c):
    """w - 2c * sum over rows of margin below 1 of y(1 - y w.x) x."""
    margins = y * (x @ w)
    active = margins < 1.0
    return w - 2.0 * c * (y[active] * (1.0 - margins[active])) @ x[active]


def impute_knn_loop(ds, mask, n_neighbors=5):
    """KNN imputation with one Python step per (row with a gap, other row)
    pair: the partial distance of each pair from the compressed vector of
    coordinates observed in both, donors picked by scanning the sorted
    order for each missing cell. ``mask`` holds (row, column) pairs."""
    if n_neighbors < 1:
        raise ValidationError("n_neighbors must be >= 1")
    cells = sorted(set(map(tuple, np.asarray(mask).tolist())))
    if not cells:
        return ds
    m, n = ds.values.shape
    for (i, j) in cells:
        if not (0 <= i < m and 0 <= j < n):
            raise ValidationError(f"mask coordinate {(i, j)} out of bounds")

    observed = np.ones((m, n), dtype=bool)
    for (i, j) in cells:
        observed[i, j] = False
    values = ds.values.copy()

    col_means = np.empty(n)
    for j in range(n):
        obs = observed[:, j]
        if not obs.any():
            where = f"{ds.name}: " if ds.name else ""
            raise ValidationError(f"{where}gene column {j} "
                                  f"({ds.gene_ids[j]!r}) has no observed "
                                  "values")
        col_means[j] = values[obs, j].mean()

    missing_by_row: dict[int, list[int]] = {}
    for (i, j) in cells:
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
