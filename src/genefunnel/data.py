"""Tabular expression datasets: loading, imputation, normalization, folds.

All other stages assume the shape invariants enforced here: a dense
samples x genes float matrix, contiguous integer class labels, and
stratified, seed-reproducible cross-validation fold plans. Every output
file is written through ``atomic_open``.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import nearest
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
    "training_fold",
    "project",
    "atomic_open",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Stratified k-fold assignments for a number of repetition rounds:
    ``fold_of[r, i]`` is the fold that holds sample i out in round r, in
    a read-only (rounds, M) int64 array."""

    k: int
    fold_of: np.ndarray

    def splits(self):
        """Yield (round_idx, fold_idx, train_indices, test_indices)."""
        for r, fold in enumerate(self.fold_of):
            for f in range(self.k):
                yield r, f, np.flatnonzero(fold != f), np.flatnonzero(fold == f)


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _loadtxt(source, n_cols: int, label_pos: int, missing_token: str):
    """The (values, labels, class names) of ``source`` from one numpy C
    pass, or None unless every row has ``n_cols`` fields, a label and gene
    cells that read as floats, with at least one row and two classes."""
    codes: dict[str, int] = {}

    def label(cell):
        text = cell.strip()
        if text in ("", missing_token):
            raise ValueError(text)
        return codes.setdefault(text, len(codes))  # first-appearance order

    try:
        with warnings.catch_warnings():
            # a file with no data rows is reported by _parse_rows
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(source, delimiter=",", quotechar='"',
                               comments=None, dtype=np.float64, ndmin=2,
                               converters={label_pos: label})
    except ValueError:  # UnicodeDecodeError included
        return None
    if not table.shape[0] or table.shape[1] != n_cols or len(codes) < 2:
        return None
    values = np.delete(table, label_pos, axis=1)
    return values, table[:, label_pos].astype(np.int64), tuple(codes)


def _gap_rewrites(label_pos: int, missing_token: str) -> list:
    """(pattern, replacement) pairs that rewrite to ``nan`` the raw text
    of the gene cells equal to ``missing_token``, then of the empty ones;
    a padded cell is left as it is. A gene cell has a comma on its side
    away from the label, after it when the label is last and before it
    when first, so a label is never rewritten. No pairs for a token with
    surrounding whitespace, a comma, a quote or a line break, whose raw
    text and stripped cell can differ."""
    if (missing_token != missing_token.strip()
            or any(c in missing_token for c in ',"\r\n')):
        return []
    token = re.escape(missing_token)
    # each pattern opens with a literal, which the regex engine scans for;
    # one that opens with a lookbehind is tried at every character and ran
    # over ten times slower
    if label_pos == 0:
        return [(re.compile(rf"{token}(?<=,{token})(?![^,\r\n])"), "nan"),
                (re.compile(r",(?![^,\r\n])"), ",nan")]
    return [(re.compile(rf"{token}(?<![^,\r\n]{token})(?=,)"), "nan"),
            (re.compile(r",(?<![^,\r\n],)"), "nan,")]


def _parse_numeric(fh, n_cols: int, label_pos: int, missing_token: str):
    """The (values, labels, class names, gap mask) of the rest of ``fh``
    from numpy C passes, or None to leave the file to ``_parse_rows``,
    the one source of every error message.

    A complete file takes one pass over ``fh``. If that pass refuses, the
    rest of the file is read again, each gene cell that is empty or equal
    to ``missing_token`` is rewritten to ``nan``, and the text takes one
    more pass; its gap mask is where the values are nan, in row-major
    order, and those cells read 0.0. The result stands only if the nan
    cells are exactly as many as the rewrites, no cell is infinite and no
    class name holds ``nan``: a literal nan or inf cell, or a rewrite in
    a quoted label, sends the file to the row parser. So does any file
    whose missing token parses as a float, since its gaps are told apart
    by their text, which the C parser does not see."""
    if _parses_as_float(missing_token):
        return None
    parsed = _loadtxt(fh, n_cols, label_pos, missing_token)
    if parsed is not None and np.isfinite(parsed[0]).all():
        return *parsed, np.empty((0, 2), dtype=np.int64)
    _after_header(fh)
    try:
        text = fh.read()
    except UnicodeDecodeError:
        return None  # the row parser may find an error on an earlier line
    rewrites = 0
    for pattern, replacement in _gap_rewrites(label_pos, missing_token):
        text, count = pattern.subn(replacement, text)
        rewrites += count
    if not rewrites:
        return None
    # lines with their ends, as the file holds them: a quoted label may
    # span lines, and an ASCII StringIO would take four bytes a character
    lines = (line + "\n" for line in text.split("\n"))
    parsed = _loadtxt(lines, n_cols, label_pos, missing_token)
    if parsed is None:
        return None
    values, labels, class_names = parsed
    missing = np.isnan(values)
    if (np.count_nonzero(missing) != rewrites or np.isinf(values).any()
            or any("nan" in name for name in class_names)):
        return None
    values[missing] = 0.0
    return values, labels, class_names, np.argwhere(missing)


def _after_header(fh):
    """A ``csv.reader`` of ``fh`` from its start, past the header record,
    which may span lines; it counts lines from the start of the file."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    return reader


def _parse_rows(reader, path, n_cols: int, label_pos: int,
                missing_token: str, gene_ids: tuple):
    """The (values, labels, class names, gap mask) of the rest of the
    ``csv.reader`` ``reader``, one row at a time; every malformed row or
    cell is a ParseError naming ``path`` and the physical line its
    record starts on (a quoted cell may span lines). A gene cell whose
    stripped text is empty or equal to ``missing_token`` is a gap and
    reads 0.0; any other cell is ``float(cell)``."""
    gap = ("", missing_token)
    codes: dict[str, int] = {}
    labels, line_nos, cells_read, gaps = [], [], [], []
    next_line = reader.line_num + 1
    for cells in reader:
        line_no, next_line = next_line, reader.line_num + 1
        if not cells:
            continue
        if len(cells) != n_cols:
            raise ParseError(f"{path}:{line_no}: expected {n_cols} "
                             f"columns, got {len(cells)}")
        label = cells[label_pos].strip()
        if label in gap:
            raise ParseError(f"{path}:{line_no}: missing class "
                             f"label {cells[label_pos]!r}")
        # class codes in first-appearance order
        labels.append(codes.setdefault(label, len(codes)))
        line_nos.append(line_no)
        for cell in cells[1:] if label_pos == 0 else cells[:-1]:
            if cell.strip() in gap:
                gaps.append(len(cells_read))
                cells_read.append(0.0)
                continue
            try:
                cells_read.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}:{line_no}: non-numeric "
                                 f"cell {cell!r}") from None

    if not labels:
        raise ParseError(f"{path}: no data rows")
    if len(codes) < 2:
        raise ValidationError(f"{path}: only one class present")

    values = np.array(cells_read).reshape(len(labels), len(gene_ids))
    # float() accepts nan and inf; one whole-matrix check keeps them out
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(f"{path}:{line_nos[r]}: non-finite cell "
                         f"{float(values[r, c])!r} in column {gene_ids[c]!r}")
    mask = np.column_stack(np.divmod(np.array(gaps, dtype=np.int64),
                                     len(gene_ids)))
    return values, np.array(labels, dtype=np.int64), tuple(codes), mask


def load_csv(path, label_column: str = "last", missing_token: str = "NA",
             name: str | None = None) -> tuple[Dataset, np.ndarray]:
    """Parse a UTF-8 comma-separated file into a Dataset and a missing mask.

    The first row is the header (gene ids plus the label column name). A
    leading byte-order mark is dropped, and lines may end in CRLF.
    Empty cells or cells equal to ``missing_token`` are missing: the mask
    is a read-only (K, 2) int64 array of their (row, column) indices in
    row-major order, and they are zero-filled provisionally. Any other
    cell must be a finite number. Gene ids must be distinct. Class labels
    map to contiguous indices in first-appearance order; an empty label
    or one equal to ``missing_token`` is an error.

    A complete file is parsed in one numpy pass. A file whose gaps are
    all empty cells or cells exactly equal to ``missing_token`` is read
    again with those cells rewritten to ``nan`` and parsed in one more
    numpy pass. Any other file is parsed again, one cell at a time by the
    rule above, which finds its gaps and reports its first error by line:
    one with an error, a padded, blank or quoted gap cell, a literal nan
    or inf cell, gaps and a class name holding ``nan``, or a
    ``missing_token`` that reads as a number or holds whitespace, a comma
    or a quote. That took 5-9 ms on an 80x200 file with 5% padded gaps
    (2 vCPUs, CPython 3.11, numpy 2.4).
    """
    if label_column not in ("first", "last"):
        raise ValidationError(f"label_column must be first or last, got {label_column!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
            first_col: dict[str, int] = {}
            for col, gene in enumerate(gene_ids):
                if gene in first_col:
                    raise ParseError(f"{path}: gene id {gene!r} repeats "
                                     f"in gene columns {first_col[gene]} "
                                     f"and {col}")
                first_col[gene] = col

            parsed = _parse_numeric(fh, n_cols, label_pos, missing_token)
            if parsed is None:
                parsed = _parse_rows(_after_header(fh), path, n_cols,
                                     label_pos, missing_token, gene_ids)
            values, labels, class_names, mask = parsed
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None

    ds = Dataset(values, labels, gene_ids, class_names,
                 name=name if name is not None else str(path))
    mask.setflags(write=False)
    return ds, mask


# Bytes of one float64 block array of ``impute_knn``: partial distances
# are taken over at most _IMPUTE_BYTES / 8 (pair, gene) cells per call,
# and donors picked over at most _IMPUTE_BYTES / 8 (gap cell, sample)
# cells. 80x200 data takes tiles of 25 gap rows by 26 partners; 83x2308
# takes 7 by 8, which ran faster there than tiles four times the size.
_IMPUTE_BYTES = 1 << 20


def _partial_d2(zeroed, observed, a, b):
    """Sums of squared differences between rows ``a`` and ``b`` of
    ``zeroed`` over the genes both observe, for index arrays that
    broadcast together. Each pair's differences, zero where either row
    misses the gene, are reduced by one einsum over contiguous genes, so
    the sum has the same bits whichever row of the pair comes first."""
    diff = zeroed[a] - zeroed[b]
    diff *= observed[a] & observed[b]
    flat = diff.reshape(-1, diff.shape[-1])
    return np.einsum("ij,ij->i", flat, flat).reshape(diff.shape[:-1])


def impute_knn(ds: Dataset, mask: np.ndarray, n_neighbors: int = 5) -> Dataset:
    """Replace each masked cell by the mean of that column over the
    nearest neighbors that observe it (KNNimpute).

    ``mask`` is a (K, 2) integer array of missing (row, column) cells, in
    any order and possibly repeated, as ``load_csv`` returns it.

    The distance from sample i to sample o uses only the ``cnt``
    coordinates observed in both: ``sqrt(d2 / (cnt / n))``, where ``d2``
    sums the squared differences over those coordinates. Samples that
    share no observed coordinate with i are at infinite distance and
    never donate. Donors for cell (i, j) are the ``n_neighbors`` nearest
    samples observing column j, ties going to the lower sample index;
    the cell becomes the mean of their observed values, taken in
    distance order. Columns unobserved everywhere and non-finite
    observed values are errors, and cells with no donor fall back to
    the column mean. Imputed cells are never read, so the result does
    not depend on the order of rows.

    Each pair of samples of which at least one has a gap has its partial
    distance computed once, in numpy blocks of at most ``_IMPUTE_BYTES``
    per float array; pairs of gapless samples are never computed. The
    distances live in an (M, M) matrix, so memory is O(M^2) plus the
    blocks, and time is O(G x M x N) for G samples with a gap. Each gap
    cell's donors are the finite picks of ``_kernels.nearest`` over its
    sample's distances, those of samples missing its column set to +inf.
    No Python loop runs over pairs of samples.
    """
    if n_neighbors < 1:
        raise ValidationError("n_neighbors must be >= 1")
    cells = np.asarray(mask)
    if cells.dtype.kind not in "iu" or cells.shape[1:] != (2,):
        raise ValidationError(f"mask must be a (K, 2) integer array of (row, "
                              f"column) cells, got {cells.dtype} {cells.shape}")
    if not cells.size:
        return ds
    m, n = ds.values.shape
    # negative indices would wrap, so bounds come before any indexing
    outside = ((cells < 0) | (cells >= (m, n))).any(axis=1)
    if outside.any():
        cell = tuple(cells[np.argmax(outside)].tolist())
        raise ValidationError(f"mask coordinate {cell} out of bounds")

    observed = np.ones((m, n), dtype=bool)
    observed[cells[:, 0], cells[:, 1]] = False
    where = f"{ds.name}: " if ds.name else ""
    empty = ~observed.any(axis=0)
    if empty.any():
        j = int(np.argmax(empty))
        raise ValidationError(f"{where}gene column {j} ({ds.gene_ids[j]!r}) "
                              "has no observed values")
    values = ds.values
    # gap cells may hold anything, but an observed inf or nan would give a
    # nan partial distance (inf times a gap's 0)
    bad = observed & ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise ValidationError(f"{where}row {i}, gene column {j} "
                              f"({ds.gene_ids[j]!r}) holds the non-finite "
                              f"observed value {values[i, j]}")

    zeroed = np.where(observed, values, 0.0)
    rows, cols = np.nonzero(~observed)  # each cell once, row-major
    gap_rows, slot = np.unique(rows, return_inverse=True)
    gapless = np.setdiff1d(np.arange(m), gap_rows, assume_unique=True)

    # partial distances, each pair with a gap row once: a block of gap rows
    # against itself, then against every later row and every earlier
    # gapless row in tiles of about as many partners as rows. Pairs of
    # gapless rows are never needed, and the diagonal stays at distance 0
    d2 = np.zeros((m, m))
    cap = max(1, _IMPUTE_BYTES // (8 * n))  # pairs per call
    step = math.isqrt(cap)                  # gap rows per block
    for lo in range(0, gap_rows.size, step):
        a = gap_rows[lo:lo + step]
        i, o = (a[side] for side in np.triu_indices(a.size, 1))
        d2[i, o] = d2[o, i] = _partial_d2(zeroed, observed, i, o)
        later = np.concatenate([gap_rows[lo + step:], gapless])
        width = cap // a.size
        for at in range(0, later.size, width):
            b = later[at:at + width]
            tile = _partial_d2(zeroed, observed, a[:, None], b)
            d2[np.ix_(a, b)] = tile
            d2[np.ix_(b, a)] = tile.T
    # usable coordinates: the genes both i and o observe, exact as the product
    # sums only 0s and 1s. A sample that shares none with i is infinitely far
    held = observed.astype(np.float64)
    usable = held[gap_rows] @ held.T
    near = usable > 0
    dists = np.full(usable.shape, np.inf)
    dists[near] = np.sqrt(d2[gap_rows][near] / (usable[near] / n))

    # each gap cell's donors, in blocks of cells: the finite picks of its row's
    # distances, +inf at samples missing its column
    per_block = max(1, _IMPUTE_BYTES // (8 * m))
    picks, counts = [], []
    for lo in range(0, rows.size, per_block):
        d = dists[slot[lo:lo + per_block]]
        d[~observed.T[cols[lo:lo + per_block]]] = np.inf
        counts.append(np.minimum(np.isfinite(d).sum(axis=1), n_neighbors))
        picks.append(nearest(d, min(n_neighbors, m)))
    # each cell's mean over its donors in distance order; cells with the
    # same donor count share one (cells, k) gather, whose row-wise mean
    # reduces each row as the 1-D mean of that row does
    out = zeroed  # every masked cell is overwritten below
    picks, counts = np.concatenate(picks), np.concatenate(counts)
    for k in np.unique(counts):
        at = np.flatnonzero(counts == k)
        if k == 0:
            for i, j in zip(rows[at], cols[at]):
                out[i, j] = values[observed[:, j], j].mean()
            continue
        ranked = picks[at, :k]
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
    """Stratified k-fold plan, repeated ``rounds`` times, as a FoldPlan
    with a (rounds, M) ``fold_of`` array.

    Each class, shuffled, is dealt round-robin onto the folds from where
    the previous class stopped. Shuffling depends only on (seed, round
    index); per-class counts across folds differ by at most one.
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

    fold_of = np.empty((rounds, m), dtype=np.int64)
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        assigned = 0
        for c in classes:
            members = np.flatnonzero(labels == c)
            rng.shuffle(members)
            fold_of[r, members] = (assigned + np.arange(members.size)) % k
            assigned += members.size
    fold_of.setflags(write=False)
    return FoldPlan(k=k, fold_of=fold_of)


def training_fold(ds: Dataset, rows) -> Dataset | None:
    """The training rows of one CV fold as a Dataset, or None when they
    miss a class: such a fold is skipped, by both protocols."""
    labels = ds.labels[rows]
    if np.unique(labels).size != ds.n_classes:
        return None
    return Dataset(ds.values[rows], labels, ds.gene_ids, ds.class_names,
                   ds.name)


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


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """A UTF-8 text file to write, opened at ``<path>.tmp`` and renamed
    to path when the block ends, so readers never see partial output.
    When the block, the close or the rename raises, the temp file is
    removed and the error re-raised."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
