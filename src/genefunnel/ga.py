"""Wrapper-stage search: a genetic algorithm over binary gene masks.

Fitness is internal stratified-CV KNN accuracy of the masked dataset.
The subset-size objective enters lexicographically through one order,
``_rank``: higher fitness, then fewer selected genes, then lower
population index. ``evolve`` ranks each generation once into rank
positions, from one stacked sum of its masks and one stable lexsort;
the elites and the generation's best come from that ranking, and
tournaments compare rank positions.

``evolve`` breeds each generation into one (population_size, N') uint8
matrix, elites copied in as rows, each pair of children written into
the next two rows. Each operator has one rule on raw masks: ``_winner``
(tournament), ``_cross`` (crossover) and ``_flip`` (mutation), which
``evolve`` calls and ``_tournament``, ``uniform_crossover`` and
``mutate`` wrap.

The draws are a contract: every report and fingerprint depends on
them. One generator, seeded by cfg.seed, first draws the initial
population (each member's bits, then its repair). Then, for each pair
of children in turn: both tournaments' picks, the crossover coin, the
swap mask when the coin is taken, the repair of each child, and for
each child kept, its mutation flips and then its repair. Both
tournaments' picks come from one draw of 2 * tournament_size indices,
the first half the first tournament's: numpy draws bounded integers
one at a time from one stream, so this is the stream that a draw per
tournament gives. A repair draws one locus only when a mask has no set
bit, and the last pair of an odd child count drops its second child
before that child's mutation.

Every fitness value comes from one batched numpy kernel,
``_FitnessKernel``. It lists every internal fold's test rows in fold
order, each with its own fold's training rows padded to the largest
fold's count, and cuts the list into blocks that fit ``_BLOCK_BYTES``
and share one neighbour count k. The squared distances of a whole chunk
of masks to a block are one matrix product with the block's per-gene
squared differences, after which padded pairs get +inf. Those tensors
are cached once per ``evolve`` when they all fit ``_BLOCK_BYTES`` (one
block, unless k differs between folds), and rebuilt for each chunk of
masks otherwise. ``nearest`` and ``knn_vote`` pick the neighbours and
vote with the tie rules of the ``knn`` classifier, once per block, and
each fold's hits are tallied once per chunk. Test rows are unlabeled
queries, so any fold may lack a class. A chromosome is only its mask;
``evolve`` scores each generation's new masks in one call, and its memo
holds each mask's score once. ``fitness`` scores one mask, keeping none.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ._kernels import knn_vote, nearest
from .data import Dataset, atomic_open, make_folds
from .errors import ConfigError, ValidationError

__all__ = [
    "Chromosome",
    "GaConfig",
    "GaTrace",
    "init_population",
    "fitness",
    "uniform_crossover",
    "mutate",
    "evolve",
    "decode",
    "trace_to_csv",
]


@dataclass(eq=False)
class Chromosome:
    """A gene mask; its fitness is kept only in ``evolve``'s memo."""
    bits: np.ndarray                 # uint8 mask over the stage-1 genes

    def n_selected(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    iterations: int = 50
    crossover_prob: float = 0.8
    mutation_prob: float = 0.01
    tournament_size: int = 2
    elitism_count: int = 1
    fitness_knn_k: int = 5
    fitness_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if not (0.0 <= self.crossover_prob <= 1.0
                and 0.0 <= self.mutation_prob <= 1.0):
            raise ConfigError("probabilities must be in [0, 1]")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigError("tournament_size must be in 1..population_size")
        if not 1 <= self.elitism_count < self.population_size:
            raise ConfigError(
                "elitism_count must be in 1..population_size-1")
        if self.fitness_knn_k < 1 or self.fitness_folds < 2:
            raise ConfigError("fitness_knn_k >= 1 and fitness_folds >= 2 required")


@dataclass
class GaTrace:
    generations: list = field(default_factory=list)
    best_fitness: list = field(default_factory=list)
    mean_fitness: list = field(default_factory=list)
    best_size: list = field(default_factory=list)

    def record(self, gen: int, best: float, mean: float, size: int):
        self.generations.append(gen)
        self.best_fitness.append(best)
        self.mean_fitness.append(mean)
        self.best_size.append(size)


def _repair(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Set one uniform locus of a mask that has no set bit, in place."""
    if not np.count_nonzero(bits):
        bits[rng.integers(bits.size)] = 1
    return bits


def init_population(n_prime: int, cfg: GaConfig,
                    rng: np.random.Generator | None = None) -> list[Chromosome]:
    """population_size random masks, each bit set with probability 0.5."""
    if n_prime < 1:
        raise ValidationError("chromosome length must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    pop = []
    for _ in range(cfg.population_size):
        bits = (rng.random(n_prime) < 0.5).astype(np.uint8)
        pop.append(Chromosome(_repair(bits, rng)))
    return pop


# Float64 budget of the fitness kernel: one block's pair tensor, and one
# chunk of masks' distances to the largest block, stay within it, except
# that a block holds at least one test row and a chunk at least one mask.
_BLOCK_BYTES = 2 << 20


class _FitnessKernel:
    """Internal-CV KNN accuracy of many gene masks over one dataset.

    The fold plan has one round, so each sample is a test query in
    exactly one fold, and that fold's training rows are all the others.
    Every fold's test rows form one query list, in fold order; each query
    is paired with its own fold's training rows, padded to the largest
    fold's count W by repeating its last training row. A gene-major
    tensor T[j, a*W + b] holds (x[query a, j] - x[train b of a, j])**2,
    so the squared distances of a chunk of masks to a run of queries are
    one product ``masks @ T``; padded pairs then get +inf added, so no
    real distance changes bits and no padded neighbour is ever picked.

    A block is a run of the query list of as many queries as fit
    _BLOCK_BYTES (8*N'*W bytes each, and at least one), also cut where
    k = min(fitness_knn_k, |train|) changes. When every query fits
    (8*N'*|queries|*W bytes), the block tensors are cached, which leaves
    one block unless k changes; otherwise they are rebuilt for each
    chunk of masks. A chunk holds as many masks as have distances to the
    largest block within _BLOCK_BYTES. Each block makes one product, one
    ``nearest``, one label gather and one ``knn_vote`` per chunk, and
    each chunk one per-fold tally of the hits.
    """

    def __init__(self, ds: Dataset, cfg: GaConfig):
        n = ds.n_genes
        k = min(cfg.fitness_folds, ds.n_samples)  # leave-one-out fallback
        plan = make_folds(ds.labels, k=k, rounds=1, seed=cfg.seed)
        splits = [(test, train) for _, _, train, test in plan.splits()]
        self._fold_sizes = np.array([test.size for test, _ in splits])
        sizes = np.array([train.size for _, train in splits])
        width = int(sizes.max())
        padded = np.array([np.concatenate(
            [train, train[-1:].repeat(width - train.size)])
            for _, train in splits])
        fold = np.repeat(np.arange(sizes.size), self._fold_sizes)
        self._queries = np.concatenate([test for test, _ in splits])
        self._train = padded[fold]
        # added to each distance: 0 for a real pair, +inf for padding
        self._far = np.where(np.arange(width) < sizes[fold, None], 0.0, np.inf)
        self._train_labels = ds.labels[self._train]
        self._truth = ds.labels[self._queries]
        self._fold_starts = np.cumsum(self._fold_sizes) - self._fold_sizes
        self._xt = np.ascontiguousarray(ds.values.T)
        self._n_classes = ds.n_classes
        self._width = width

        q = self._queries.size
        ks = np.minimum(cfg.fitness_knn_k, sizes)[fold]
        cuts = [0, *(np.flatnonzero(np.diff(ks)) + 1).tolist(), q]
        per_block = max(1, _BLOCK_BYTES // (8 * n * width))
        self._blocks = [(a, min(a + per_block, hi), int(ks[lo]))
                        for lo, hi in zip(cuts, cuts[1:])
                        for a in range(lo, hi, per_block)]
        largest = max(hi - lo for lo, hi, _ in self._blocks)
        self._chunk = max(1, _BLOCK_BYTES // (8 * largest * width))
        self._offsets = (np.arange(largest) * width)[:, None]
        self._tensors = ([self._pair_tensor(lo, hi)
                          for lo, hi, _ in self._blocks]
                         if 8 * n * q * width <= _BLOCK_BYTES else None)

    def _pair_tensor(self, lo: int, hi: int) -> np.ndarray:
        xq = self._xt[:, self._queries[lo:hi]]
        t = self._xt[:, self._train[lo:hi]]
        np.subtract(xq[:, :, None], t, out=t)
        np.square(t, out=t)
        return t.reshape(t.shape[0], -1)

    def scores(self, masks: np.ndarray) -> list[float]:
        """Fitness of each row of a (B, N') 0/1 mask matrix."""
        out = []
        for a in range(0, masks.shape[0], self._chunk):
            out.extend(self._score_chunk(masks[a:a + self._chunk]))
        return out

    def _score_chunk(self, masks: np.ndarray) -> list[float]:
        weights = masks.astype(np.float64)
        hits = np.empty((masks.shape[0], self._queries.size), dtype=bool)
        for b, (lo, hi, k) in enumerate(self._blocks):
            tensor = (self._tensors[b] if self._tensors is not None
                      else self._pair_tensor(lo, hi))
            d = (weights @ tensor).reshape(-1, hi - lo, self._width)
            d += self._far[lo:hi]
            picks = nearest(d, k)
            picks += self._offsets[:hi - lo]  # into the block's labels, flat
            labels = self._train_labels[lo:hi].ravel()[picks]
            predicted = knn_vote(labels.reshape(-1, k), self._n_classes)
            hits[:, lo:hi] = (predicted.reshape(-1, hi - lo)
                              == self._truth[lo:hi])
        correct = np.add.reduceat(hits, self._fold_starts, axis=1)
        return (correct / self._fold_sizes).mean(axis=1).tolist()


def fitness(chrom: Chromosome, ds_stage1: Dataset, cfg: GaConfig) -> float:
    """Mean internal-CV KNN accuracy of the dataset masked by the chromosome.

    Fold assignments derive from cfg.seed only, so every chromosome is
    scored on the same splits. It scores the current bits, caching nothing.
    """
    if chrom.bits.size != ds_stage1.n_genes:
        raise ValidationError("chromosome length does not match gene count")
    if chrom.n_selected() == 0:
        raise ValidationError("chromosome selects no genes")
    return _FitnessKernel(ds_stage1, cfg).scores(chrom.bits[None])[0]


def _rank(fitness: np.ndarray, sizes: np.ndarray) -> tuple[list, list]:
    """The GA's one order on a scored population: higher fitness, then
    fewer selected genes, then lower index (lexsort is stable). Returns
    the indices best first and each member's rank position."""
    order = np.lexsort((sizes, -fitness))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return order.tolist(), rank.tolist()


def _winner(picks: list, rank: list) -> int:
    """The tournament rule: the pick with the best rank position."""
    return min(picks, key=rank.__getitem__)


def _tournament(rank: list, cfg: GaConfig, rng: np.random.Generator) -> int:
    """Index of the best rank position among tournament_size uniform
    draws (with replacement)."""
    picks = rng.integers(0, len(rank), size=cfg.tournament_size)
    return _winner(picks.tolist(), rank)


def _cross(a: np.ndarray, b: np.ndarray, kids: np.ndarray, cfg: GaConfig,
           rng: np.random.Generator) -> None:
    """The crossover rule on raw masks: write the children of a and b
    into the two rows of kids, each locus swapped with probability 0.5
    when the crossover_prob coin is taken, else copies; then repair
    each child."""
    kids[0] = a
    kids[1] = b
    if rng.random() < cfg.crossover_prob:
        swap = rng.random(a.size) < 0.5
        np.copyto(kids[0], b, where=swap)
        np.copyto(kids[1], a, where=swap)
    _repair(kids[0], rng)
    _repair(kids[1], rng)


def _flip(bits: np.ndarray, cfg: GaConfig, rng: np.random.Generator) -> None:
    """The mutation rule on a raw mask, in place: flip each bit with
    probability mutation_prob, then repair it."""
    bits ^= rng.random(bits.size) < cfg.mutation_prob
    _repair(bits, rng)


def uniform_crossover(a: Chromosome, b: Chromosome, cfg: GaConfig,
                      rng: np.random.Generator) -> tuple[Chromosome, Chromosome]:
    """With probability crossover_prob, swap each locus independently
    with probability 0.5; otherwise copy the parents."""
    if a.bits.size != b.bits.size:
        raise ValidationError("parents must have equal length")
    kids = np.empty((2, a.bits.size), dtype=np.result_type(a.bits, b.bits))
    _cross(a.bits, b.bits, kids, cfg, rng)
    return Chromosome(kids[0]), Chromosome(kids[1])


def mutate(c: Chromosome, cfg: GaConfig, rng: np.random.Generator) -> Chromosome:
    """Flip each bit independently with probability mutation_prob."""
    bits = c.bits.copy()
    _flip(bits, cfg, rng)
    return Chromosome(bits)


def evolve(ds_stage1: Dataset, cfg: GaConfig) -> tuple[Chromosome, GaTrace]:
    """Generational GA loop with elitism; returns the last generation's
    best by ``_rank`` and a per-generation trace. The first elite sits
    at index 0, so it wins every tie, and each generation's best is the
    best so far."""
    rng = np.random.default_rng(cfg.seed)
    kernel = _FitnessKernel(ds_stage1, cfg)
    memo: dict[bytes, float] = {}
    p, t = cfg.population_size, cfg.tournament_size

    def evaluate(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score the masks not seen before, in first-seen order, and
        return each row's fitness and size."""
        keys = [row.tobytes() for row in pop]
        new = {key: row for key, row in zip(keys, pop) if key not in memo}
        if new:
            scores = kernel.scores(np.array(list(new.values())))
            memo.update(zip(new, scores))
        return np.array([memo[key] for key in keys]), pop.sum(axis=1)

    pop = np.array([c.bits for c in
                    init_population(ds_stage1.n_genes, cfg, rng)])
    trace = GaTrace()
    for gen in range(cfg.iterations + 1):
        if gen:
            # one spare row takes the dropped second child of an odd count
            next_pop = np.empty((p + 1, pop.shape[1]), dtype=np.uint8)
            next_pop[:cfg.elitism_count] = pop[order[:cfg.elitism_count]]
            for i in range(cfg.elitism_count, p, 2):
                picks = rng.integers(0, p, size=2 * t).tolist()
                a, b = _winner(picks[:t], rank), _winner(picks[t:], rank)
                _cross(pop[a], pop[b], next_pop[i:i + 2], cfg, rng)
                _flip(next_pop[i], cfg, rng)
                if i + 1 < p:
                    _flip(next_pop[i + 1], cfg, rng)
            pop = next_pop[:p]
        fit, sizes = evaluate(pop)
        order, rank = _rank(fit, sizes)
        trace.record(gen, float(fit[order[0]]), float(fit.mean()),
                     int(sizes[order[0]]))
    return Chromosome(pop[order[0]].copy()), trace


def decode(best: Chromosome, stage1_genes) -> np.ndarray:
    """Map set bits back to original-dataset gene indices (ascending)."""
    stage1 = np.asarray(stage1_genes, dtype=np.int64)
    if best.bits.size != stage1.size:
        raise ValidationError("chromosome and stage-1 list lengths differ")
    return stage1[best.bits.astype(bool)]


def trace_to_csv(trace: GaTrace, path):
    """Write the trace as CSV, one row per generation, through
    ``data.atomic_open``."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_fitness", "mean_fitness", "best_size"])
        for row in zip(trace.generations, trace.best_fitness,
                       trace.mean_fitness, trace.best_size):
            writer.writerow(row)
