"""Tabular expression datasets: loading, imputation, normalization, folds.

All other stages assume the shape invariants enforced here: a dense
samples x genes float matrix, contiguous integer class labels, and
stratified, seed-reproducible cross-validation fold plans.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
    "impute_knn",
    "normalize_minmax",
    "minmax_stats",
    "apply_minmax",
    "make_folds",
    "project",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable samples x genes matrix with class labels and gene ids."""

    values: np.ndarray          # (M, N) float64
    labels: np.ndarray          # (M,) int64, in 0..C-1
    gene_ids: tuple[str, ...]   # length N
    class_names: tuple[str, ...]  # length C
    name: str = ""

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        values.setflags(write=False)
        labels.setflags(write=False)
        if values.ndim != 2:
            raise ValidationError("expression values must be a 2-D matrix")
        m, n = values.shape
        if labels.shape != (m,):
            raise ValidationError(
                f"label count {labels.shape} does not match {m} samples")
        if len(self.gene_ids) != n:
            raise ValidationError(
                f"{len(self.gene_ids)} gene ids for {n} columns")
        c = len(self.class_names)
        if c < 1:
            raise ValidationError("at least one class name required")
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            raise ValidationError("labels outside 0..C-1")
        present = np.unique(labels)
        if present.size != c:
            raise ValidationError("every class index must appear at least once")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_genes(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified k-fold assignments for a number of repetition rounds."""

    k: int
    rounds: int
    assignments: tuple  # per round: tuple of k tuples of sample indices
    seed: int

    def splits(self):
        """Yield (round_idx, fold_idx, train_indices, test_indices)."""
        all_idx = {i for fold in self.assignments[0] for i in fold}
        for r, folds in enumerate(self.assignments):
            for f, test in enumerate(folds):
                test_set = set(test)
                train = np.array(sorted(all_idx - test_set), dtype=np.int64)
                yield r, f, train, np.array(sorted(test), dtype=np.int64)


def load_csv(path, label_column: str = "last", missing_token: str = "NA",
             name: str | None = None) -> tuple[Dataset, frozenset]:
    """Parse a UTF-8 comma-separated file into a Dataset and a missing mask.

    The first row is the header (gene ids plus the label column name).
    Empty cells or cells equal to ``missing_token`` are recorded in the
    mask and zero-filled provisionally; any other cell must be a finite
    number. Class labels map to contiguous indices in first-appearance
    order.
    """
    if label_column not in ("first", "last"):
        raise ValidationError(f"label_column must be first or last, got {label_column!r}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            n_cols = len(header)
            if n_cols < 2:
                raise ParseError(
                    f"{path}: need at least one gene column and a label column")
            label_pos = 0 if label_column == "first" else n_cols - 1
            gene_ids = tuple(h for i, h in enumerate(header) if i != label_pos)

            rows, line_nos, raw_labels, mask = [], [], [], set()
            for line_no, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != n_cols:
                    raise ParseError(f"{path}:{line_no}: expected {n_cols} "
                                     f"columns, got {len(cells)}")
                raw_labels.append(cells[label_pos].strip())
                row = np.zeros(n_cols - 1, dtype=np.float64)
                col = 0
                for i, cell in enumerate(cells):
                    if i == label_pos:
                        continue
                    text = cell.strip()
                    if text == "" or text == missing_token:
                        mask.add((len(rows), col))
                    else:
                        try:
                            row[col] = float(text)
                        except ValueError:
                            raise ParseError(f"{path}:{line_no}: non-numeric "
                                             f"cell {cell!r}") from None
                    col += 1
                rows.append(row)
                line_nos.append(line_no)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None

    if not rows:
        raise ParseError(f"{path}: no data rows")
    class_names: list[str] = []
    index_of: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, lbl in enumerate(raw_labels):
        if lbl not in index_of:
            index_of[lbl] = len(class_names)
            class_names.append(lbl)
        labels[i] = index_of[lbl]
    if len(class_names) < 2:
        raise ValidationError(f"{path}: only one class present")

    values = np.vstack(rows)
    # float() accepts nan and inf; one whole-matrix check keeps them out
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(f"{path}:{line_nos[r]}: non-finite cell "
                         f"{float(values[r, c])!r} in column {gene_ids[c]!r}")
    ds = Dataset(values, labels, gene_ids, tuple(class_names),
                 name=name if name is not None else str(path))
    return ds, frozenset(mask)


def impute_knn(ds: Dataset, mask: frozenset, n_neighbors: int = 5) -> Dataset:
    """Replace each masked cell by the mean of that column over the
    nearest neighbors that observe it (KNNimpute).

    The distance from sample i to sample o uses only the ``cnt``
    coordinates observed in both: ``sqrt(d2 / (cnt / n))``, where ``d2``
    sums the squared differences over those coordinates. Samples that
    share no observed coordinate with i are at infinite distance and
    never donate. Donors for cell (i, j) are the ``n_neighbors`` nearest
    samples observing column j, ties going to the lower sample index;
    the cell becomes the mean of their observed values, taken in
    distance order. Columns unobserved everywhere are an error, and
    cells with no donor fall back to the column mean. Imputed cells are
    never read, so the result does not depend on the order of rows.

    Each sample with a gap costs one numpy pass over the whole matrix,
    using O(M x N) memory at a time; no Python loop runs over pairs of
    samples.
    """
    if n_neighbors < 1:
        raise ValidationError("n_neighbors must be >= 1")
    if not mask:
        return ds
    m, n = ds.values.shape
    coords = list(mask)
    cells = np.array(coords, dtype=np.int64).reshape(-1, 2)
    rows, cols = cells[:, 0], cells[:, 1]
    outside = (rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)
    if outside.any():
        raise ValidationError(
            f"mask coordinate {coords[np.argmax(outside)]} out of bounds")

    observed = np.ones((m, n), dtype=bool)
    observed[rows, cols] = False
    empty = ~observed.any(axis=0)
    if empty.any():
        raise ValidationError(
            f"gene column {np.argmax(empty)} has no observed values")

    values = ds.values
    zeroed = np.where(observed, values, 0.0)
    n_observed = np.count_nonzero(observed, axis=1)
    by_row = np.lexsort((cols, rows))
    rows, cols = rows[by_row], cols[by_row]
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    diff = np.empty((m, n))
    donors, counts = [], []
    for i, gaps in zip(rows[starts], np.split(cols, starts[1:])):
        # partial distances from sample i to every sample in one pass:
        # differences over the coordinates both observe, zero elsewhere
        np.subtract(zeroed[i], zeroed, out=diff)
        diff *= observed & observed[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        # usable coordinates: the ones o observes, less i's gaps. Sample i
        # itself sorts first, at distance 0, but observes none of its gaps
        holds = observed[:, gaps]
        cnt = n_observed - np.count_nonzero(holds, axis=1)
        near = cnt > 0
        dists = np.full(m, np.inf)
        dists[near] = np.sqrt(d2[near] / (cnt[near] / n))
        order = np.lexsort((np.arange(m), dists))
        order = order[np.isfinite(dists[order])]
        # the first n_neighbors observers of each gap column, nearest first
        holds = holds[order]
        picked = holds & (np.cumsum(holds, axis=0) <= n_neighbors)
        donors.append(order[np.nonzero(picked.T)[1]])
        counts.append(picked.sum(axis=0))
    # each cell's mean over its donors in distance order; cells with the
    # same donor count share one (cells, k) gather, whose row-wise mean
    # reduces each row as the 1-D mean of that row does
    out = zeroed  # every masked cell is overwritten below
    donors = np.concatenate(donors)
    counts = np.concatenate(counts)
    first = np.cumsum(counts) - counts
    for k in np.unique(counts):
        at = np.flatnonzero(counts == k)
        if k == 0:
            for i, j in zip(rows[at], cols[at]):
                out[i, j] = values[observed[:, j], j].mean()
            continue
        ranked = donors[first[at, None] + np.arange(k)]
        out[rows[at], cols[at]] = values[ranked, cols[at, None]].mean(axis=1)

    return Dataset(out, ds.labels, ds.gene_ids, ds.class_names, ds.name)


def minmax_stats(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) so the transform can be replayed on held-out data."""
    return ds.values.min(axis=0), ds.values.max(axis=0)


def apply_minmax(ds: Dataset, mins: np.ndarray, maxs: np.ndarray) -> Dataset:
    """Map each column j to (v - min_j) / (max_j - min_j); constant columns to 0."""
    span = maxs - mins
    safe = np.where(span == 0, 1.0, span)
    values = (ds.values - mins) / safe
    values[:, span == 0] = 0.0
    return Dataset(values, ds.labels, ds.gene_ids, ds.class_names, ds.name)


def normalize_minmax(ds: Dataset) -> Dataset:
    """Column-wise min-max scaling of the dataset onto [0, 1]."""
    if not np.isfinite(ds.values).all():
        raise ValidationError("normalize_minmax requires a fully observed matrix")
    mins, maxs = minmax_stats(ds)
    return apply_minmax(ds, mins, maxs)


def make_folds(labels, k: int, rounds: int, seed: int) -> FoldPlan:
    """Stratified k-fold plan, repeated ``rounds`` times.

    Shuffling depends only on (seed, round index); per-class counts across
    folds differ by at most one.
    """
    labels = np.asarray(labels, dtype=np.int64)
    m = labels.size
    if k < 2:
        raise ValidationError("k must be >= 2")
    if k > m:
        raise ValidationError(f"k={k} exceeds sample count {m}")
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    classes = np.unique(labels)

    all_rounds = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        folds: list[list[int]] = [[] for _ in range(k)]
        assigned = 0
        for c in classes:
            members = np.flatnonzero(labels == c)
            rng.shuffle(members)
            start = assigned % k
            for i, idx in enumerate(members):
                folds[(start + i) % k].append(int(idx))
            assigned += members.size
        all_rounds.append(tuple(tuple(sorted(f)) for f in folds))
    return FoldPlan(k=k, rounds=rounds, assignments=tuple(all_rounds), seed=seed)


def project(ds: Dataset, gene_subset) -> Dataset:
    """Column-slice the dataset onto a strictly increasing gene index list."""
    subset = np.asarray(gene_subset, dtype=np.int64)
    if subset.size == 0:
        raise ValidationError("gene subset must be nonempty")
    if np.any(np.diff(subset) <= 0):
        raise ValidationError("gene subset must be strictly increasing")
    if subset[0] < 0 or subset[-1] >= ds.n_genes:
        raise ValidationError("gene subset index out of bounds")
    values = ds.values[:, subset]
    gene_ids = tuple(ds.gene_ids[int(j)] for j in subset)
    return Dataset(values, ds.labels, gene_ids, ds.class_names, ds.name)
