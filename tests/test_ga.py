import numpy as np
import pytest

import oracles
from genefunnel import boosting, ga
from genefunnel.data import Dataset, normalize_minmax, project
from genefunnel.errors import ConfigError, ValidationError
from genefunnel.ga import (Chromosome, GaConfig, decode, evolve, fitness,
                           init_population, mutate, trace_to_csv,
                           uniform_crossover)
from genefunnel.pipeline import SynthSpec, generate_synth


def chrom(bits):
    return Chromosome(np.asarray(bits, dtype=np.uint8))


def random_dataset(rng, m, n, c, duplicate_rows=False):
    labels = np.arange(m) % c
    rng.shuffle(labels)
    x = rng.normal(size=(m, n)) + labels[:, None] * rng.normal(size=n)
    if duplicate_rows:
        # exact distance ties: repeated rows, some with another label
        x[m // 2:] = x[:m - m // 2]
    return Dataset(x, labels, tuple(f"g{i}" for i in range(n)),
                   tuple(f"c{i}" for i in range(c)))


def random_masks(rng, count, n):
    masks = (rng.random((count, n)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    masks[masks.sum(axis=1) == 0, 0] = 1
    return masks


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"population_size": 1}, {"iterations": -1},
        {"crossover_prob": 1.5}, {"mutation_prob": -0.1},
        {"tournament_size": 0}, {"tournament_size": 101},
        {"elitism_count": 100}, {"elitism_count": 0}, {"fitness_folds": 1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GaConfig(**kwargs)


class TestInitPopulation:
    def test_length_one_forces_single_bit(self):
        pop = init_population(1, GaConfig(population_size=20, seed=0))
        assert all(c.bits.tolist() == [1] for c in pop)

    def test_same_seed_identical(self):
        cfg = GaConfig(population_size=10, seed=3)
        a = init_population(8, cfg)
        b = init_population(8, cfg)
        assert all(np.array_equal(x.bits, y.bits) for x, y in zip(a, b))

    def test_aggregate_bit_density_near_half(self):
        cfg = GaConfig(population_size=100, seed=1)
        pop = init_population(100, cfg)
        density = np.mean([c.bits.mean() for c in pop])
        assert 0.45 <= density <= 0.55

    def test_every_chromosome_nonzero(self):
        cfg = GaConfig(population_size=200, seed=2)
        for n in (1, 2, 5):
            assert all(c.n_selected() >= 1
                       for c in init_population(n, cfg))

    def test_bad_length(self):
        with pytest.raises(ValidationError):
            init_population(0, GaConfig())


class TestFitness:
    def test_perfect_gene_scores_one(self, separable_ds):
        cfg = GaConfig(seed=0)
        c = chrom([1, 0, 0])
        assert fitness(c, separable_ds, cfg) == 1.0

    def test_pure_noise_near_chance(self):
        rng = np.random.default_rng(10)
        m = 40
        labels = np.array([0, 1] * (m // 2))
        x = rng.normal(size=(m, 4))
        ds = Dataset(x, labels, tuple(f"g{i}" for i in range(4)), ("a", "b"))
        val = fitness(chrom([1, 1, 1, 1]), ds, GaConfig(seed=0))
        assert 0.3 <= val <= 0.7

    def test_deterministic_and_follows_bits(self, separable_ds):
        cfg = GaConfig(seed=5)
        a = chrom([1, 1, 0])
        b = chrom([1, 1, 0])
        fa = fitness(a, separable_ds, cfg)
        assert fitness(b, separable_ds, cfg) == fa
        # nothing is cached on the chromosome: new bits, new score
        a.bits = np.array([0, 0, 1], dtype=np.uint8)
        assert (fitness(a, separable_ds, cfg)
                == fitness(chrom([0, 0, 1]), separable_ds, cfg) != fa)

    def test_in_unit_interval_random_masks(self, ga_toy_ds):
        rng = np.random.default_rng(3)
        cfg = GaConfig(seed=0)
        for _ in range(10):
            bits = (rng.random(6) < 0.5).astype(np.uint8)
            if bits.sum() == 0:
                bits[0] = 1
            assert 0.0 <= fitness(chrom(bits), ga_toy_ds, cfg) <= 1.0

    def test_empty_chromosome_rejected(self, separable_ds):
        with pytest.raises(ValidationError):
            fitness(chrom([0, 0, 0]), separable_ds, GaConfig())

    def test_length_mismatch(self, separable_ds):
        with pytest.raises(ValidationError):
            fitness(chrom([1, 0]), separable_ds, GaConfig())

    @pytest.mark.parametrize("m, n, c, knn_k, folds, duplicate_rows", [
        (30, 8, 2, 5, 5, False),
        (31, 6, 2, 4, 3, True),    # even k: vote ties
        (36, 10, 3, 2, 4, False),
        (33, 7, 3, 6, 5, True),
        (40, 9, 4, 4, 5, False),
        (28, 5, 4, 3, 2, True),
        (7, 4, 2, 6, 5, False),    # k capped at 5 rows in two folds
        (5, 3, 2, 5, 10, False),   # leave-one-out, k capped at 4 rows
    ])
    def test_matches_per_fold_oracle(self, m, n, c, knn_k, folds,
                                     duplicate_rows):
        rng = np.random.default_rng(m * 100 + n)
        ds = random_dataset(rng, m, n, c, duplicate_rows)
        cfg = GaConfig(fitness_knn_k=knn_k, fitness_folds=folds, seed=m)
        masks = random_masks(rng, 12, n)
        masks[7] = masks[2]  # one batch holding the same mask twice
        expected = [oracles.oracle_fitness(b, ds, cfg) for b in masks]
        assert ga._FitnessKernel(ds, cfg).scores(masks) == expected
        assert [fitness(chrom(b), ds, cfg) for b in masks] == expected

    @pytest.mark.parametrize("labels", [
        [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],  # 4 per class, 5 folds
        [0, 1, 0, 1, 0, 1, 0, 2, 1, 0, 1, 0],  # class 2 has one member
    ])
    def test_class_smaller_than_fold_count(self, labels):
        # some test folds lack a class, and a singleton class is missing
        # from the training rows of its own fold
        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(12, 6)), labels,
                     tuple(f"g{i}" for i in range(6)), ("a", "b", "c"))
        cfg = GaConfig(seed=1)
        for bits in random_masks(rng, 8, 6):
            assert (fitness(chrom(bits), ds, cfg)
                    == oracles.oracle_fitness(bits, ds, cfg))


class TestFitnessChunks:
    """A batch must score the same whether it is one block or spans
    several mask chunks and blocks, cached or rebuilt per chunk; blocks
    are runs of the query list of every fold, padded to the largest
    training fold."""

    @pytest.fixture
    def dyadic_ds(self):
        # multiples of 1/4: every distance sum is exact in any order, and
        # exact distance ties are common
        rng = np.random.default_rng(12)
        m, n = 30, 7
        labels = np.arange(m) % 3
        x = rng.integers(-6, 7, size=(m, n)) / 4 + labels[:, None] / 2
        return Dataset(x, labels, tuple(f"g{i}" for i in range(n)),
                       ("a", "b", "c"))

    CFG = GaConfig(population_size=16, iterations=6, fitness_knn_k=4,
                   fitness_folds=3, seed=3)

    def test_small_budget_gives_identical_results(self, dyadic_ds,
                                                  monkeypatch):
        ds, cfg = dyadic_ds, self.CFG
        masks = random_masks(np.random.default_rng(13), 20, ds.n_genes)
        one_block = ga._FitnessKernel(ds, cfg)
        assert one_block._blocks == [(0, 30, 4)]
        assert one_block._tensors is not None
        scores = one_block.scores(masks)
        best, trace = evolve(ds, cfg)

        # 3 folds of 10 test and 20 training rows: one query's tensor
        # holds 7 * 20 floats, so 3 queries fit per block, and blocks run
        # across folds (the fourth holds fold 0's last query and fold 1's
        # first two); 7 masks of 60 distances each fit per chunk
        monkeypatch.setattr(ga, "_BLOCK_BYTES", 3 * 7 * 20 * 8 + 5)
        blocked = ga._FitnessKernel(ds, cfg)
        assert blocked._blocks == [(a, a + 3, 4) for a in range(0, 30, 3)]
        assert blocked._chunk == 7 and blocked._tensors is None
        assert blocked.scores(masks) == scores
        assert scores == [oracles.oracle_fitness(b, ds, cfg) for b in masks]
        best_b, trace_b = evolve(ds, cfg)
        assert np.array_equal(best.bits, best_b.bits)
        assert vars(trace) == vars(trace_b)

    def test_cache_boundary(self, dyadic_ds, monkeypatch):
        ds, cfg = dyadic_ds, self.CFG
        masks = random_masks(np.random.default_rng(14), 12, ds.n_genes)
        scores = ga._FitnessKernel(ds, cfg).scores(masks)
        # 8 * N' * sum |test| * max |train|: 7 genes, 30 queries, each
        # with 20 training rows
        exact = 8 * 7 * 30 * 20
        for budget, blocks in ((exact, [(0, 30, 4)]),
                               (exact - 1, [(0, 29, 4), (29, 30, 4)])):
            monkeypatch.setattr(ga, "_BLOCK_BYTES", budget)
            kernel = ga._FitnessKernel(ds, cfg)
            assert kernel._blocks == blocks
            assert (kernel._tensors is not None) == (budget == exact)
            assert kernel.scores(masks) == scores

    def test_padding_is_never_a_neighbour(self, monkeypatch):
        # 20 rows in 3 folds of 7, 7 and 6 test rows: the first two
        # folds train on 13 rows, padded to 14 by repeating the last one,
        # whose copy ties it and so would be the next neighbour picked
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 20, 5, 2)
        cfg = GaConfig(fitness_knn_k=3, fitness_folds=3, seed=4)
        masks = random_masks(rng, 40, 5)
        expected = [oracles.oracle_fitness(b, ds, cfg) for b in masks]
        for budget in (ga._BLOCK_BYTES, 8 * 5 * 14 * 4):
            monkeypatch.setattr(ga, "_BLOCK_BYTES", budget)
            kernel = ga._FitnessKernel(ds, cfg)
            assert kernel._width == 14
            assert np.isinf(kernel._far).sum() == 14
            assert kernel.scores(masks) == expected
            kernel._far[:] = 0.0  # the padding at its real distance
            assert kernel.scores(masks) != expected

    def test_k_capped_in_some_folds_only(self, monkeypatch):
        # 7 rows in 5 folds train on 5, 5, 6, 6 and 6 rows, so k = 6 is
        # capped at 5 in the first two folds, and blocks are cut there
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 7, 4, 2)
        cfg = GaConfig(fitness_knn_k=6, fitness_folds=5, seed=7)
        masks = random_masks(rng, 10, 4)
        expected = [oracles.oracle_fitness(b, ds, cfg) for b in masks]
        kernel = ga._FitnessKernel(ds, cfg)
        assert kernel._blocks == [(0, 4, 5), (4, 7, 6)]
        assert kernel._tensors is not None
        assert kernel.scores(masks) == expected
        # one query per block
        monkeypatch.setattr(ga, "_BLOCK_BYTES", 8 * 4 * 6)
        kernel = ga._FitnessKernel(ds, cfg)
        assert kernel._blocks == [(a, a + 1, 5 if a < 4 else 6)
                                  for a in range(7)]
        assert kernel._tensors is None
        assert kernel.scores(masks) == expected

    def test_score_does_not_depend_on_batch(self, monkeypatch):
        # evolve's memo keeps the first score a mask gets, so a mask must
        # score the same alone as in any batch, on float data of the
        # paper's 60x500 shape after stage 1
        synth = generate_synth(SynthSpec(seed=3))
        ds = normalize_minmax(synth.dataset)
        model = boosting.fit(ds, ds.labels,
                             boosting.BoostParams(n_estimators=20))
        ds = project(ds, boosting.select_nonzero(boosting.importances(model)))
        n = ds.n_genes
        cfg = GaConfig(seed=1)
        masks = random_masks(np.random.default_rng(15), 200, n)
        # 5 folds of 12 test rows, each with 48 training rows: the small
        # budget holds 7 queries per block and n masks per chunk
        for budget, cached in ((ga._BLOCK_BYTES, True),
                               (8 * n * 48 * 7, False)):
            monkeypatch.setattr(ga, "_BLOCK_BYTES", budget)
            kernel = ga._FitnessKernel(ds, cfg)
            assert (kernel._tensors is not None) == cached
            alone = [kernel.scores(m[None])[0] for m in masks]
            assert kernel.scores(masks) == alone


class TestTournament:
    """``_tournament`` over ``_rank``'s positions, the GA's only
    tournament."""

    @staticmethod
    def _rank(fits_and_bits):
        fits = np.array([f for f, _ in fits_and_bits])
        sizes = np.array([sum(bits) for _, bits in fits_and_bits])
        return ga._rank(fits, sizes)[1]

    class _FixedPicks:
        """rng stub returning a predetermined tournament draw."""

        def __init__(self, picks):
            self.picks = np.asarray(picks)

        def integers(self, low, high, size):
            assert size == self.picks.size
            return self.picks

    def test_tournament_containing_best_returns_it(self):
        rank = self._rank([(0.2, [1, 0, 0]), (0.9, [0, 1, 0]),
                           (0.5, [0, 0, 1])])
        cfg = GaConfig(population_size=3, tournament_size=3)
        assert ga._tournament(rank, cfg, self._FixedPicks([0, 1, 2])) == 1

    def test_winner_beats_all_drawn_competitors(self):
        pop = [(0.2, [1, 0, 0]), (0.9, [0, 1, 0]), (0.5, [0, 0, 1])]
        rank = self._rank(pop)
        cfg = GaConfig(population_size=3, tournament_size=2)
        rng = np.random.default_rng(0)
        for _ in range(30):
            picks = rng.integers(0, 3, size=2)
            winner = ga._tournament(rank, cfg, self._FixedPicks(picks))
            assert pop[winner][0] == max(pop[i][0] for i in picks)

    def test_size_tie_break(self):
        rank = self._rank([(0.7, [1, 1, 1, 1, 1]), (0.7, [1, 1, 1, 0, 0])])
        cfg = GaConfig(population_size=2, tournament_size=2)
        assert ga._tournament(rank, cfg, self._FixedPicks([0, 1])) == 1

    def test_index_tie_break(self):
        rank = self._rank([(0.7, [1, 1, 0]), (0.7, [0, 1, 1])])
        cfg = GaConfig(population_size=2, tournament_size=2)
        assert ga._tournament(rank, cfg, self._FixedPicks([1, 0])) == 0


class TestCrossover:
    def test_identical_parents(self):
        cfg = GaConfig(crossover_prob=1.0)
        rng = np.random.default_rng(0)
        a, b = chrom([1, 0, 1, 0]), chrom([1, 0, 1, 0])
        c1, c2 = uniform_crossover(a, b, cfg, rng)
        assert c1.bits.tolist() == c2.bits.tolist() == [1, 0, 1, 0]

    def test_probability_zero_copies(self):
        cfg = GaConfig(crossover_prob=0.0)
        rng = np.random.default_rng(0)
        a, b = chrom([1, 1, 0, 0]), chrom([0, 0, 1, 1])
        c1, c2 = uniform_crossover(a, b, cfg, rng)
        assert c1.bits.tolist() == [1, 1, 0, 0]
        assert c2.bits.tolist() == [0, 0, 1, 1]

    def test_per_locus_conservation(self):
        cfg = GaConfig(crossover_prob=1.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = chrom((rng.random(12) < 0.5).astype(np.uint8))
            b = chrom((rng.random(12) < 0.5).astype(np.uint8))
            if a.n_selected() == 0 or b.n_selected() == 0:
                continue
            c1, c2 = uniform_crossover(a, b, cfg, rng)
            # conservation holds unless repair fired on an all-zero child,
            # which adds exactly one bit
            conserved = np.array_equal(c1.bits + c2.bits, a.bits + b.bits)
            repaired = (min(c1.n_selected(), c2.n_selected()) == 1
                        and (c1.bits + c2.bits).sum()
                        == (a.bits + b.bits).sum() + 1)
            assert conserved or repaired

    def test_children_never_alias_parents(self):
        # elites are shared across generations and never scored again, so
        # no child may hold a view of a parent's bits
        rng = np.random.default_rng(5)
        a, b = chrom([1, 0, 1]), chrom([0, 1, 1])
        for p in (0.0, 1.0):
            children = uniform_crossover(a, b, GaConfig(crossover_prob=p),
                                         rng)
            assert not any(np.shares_memory(c.bits, parent.bits)
                           for c in children for parent in (a, b))
            child = mutate(a, GaConfig(mutation_prob=p), rng)
            assert not np.shares_memory(child.bits, a.bits)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            uniform_crossover(chrom([1, 0]), chrom([1, 0, 1]), GaConfig(),
                              np.random.default_rng(0))


class TestMutate:
    def test_probability_zero_identity(self):
        rng = np.random.default_rng(0)
        c = mutate(chrom([1, 0, 1, 1]), GaConfig(mutation_prob=0.0), rng)
        assert c.bits.tolist() == [1, 0, 1, 1]

    def test_probability_one_complement(self):
        rng = np.random.default_rng(0)
        c = mutate(chrom([1, 0, 1, 0]), GaConfig(mutation_prob=1.0), rng)
        assert c.bits.tolist() == [0, 1, 0, 1]

    def test_probability_one_all_ones_repairs(self):
        rng = np.random.default_rng(0)
        c = mutate(chrom([1, 1, 1]), GaConfig(mutation_prob=1.0), rng)
        assert c.n_selected() == 1

    def test_flip_count_binomial_bounds(self):
        rng = np.random.default_rng(6)
        base = chrom(np.ones(1000, dtype=np.uint8))
        cfg = GaConfig(mutation_prob=0.01)
        for _ in range(10):
            mutated = mutate(base, cfg, rng)
            flips = int((mutated.bits != base.bits).sum())
            assert 1 <= flips <= 25


class TestDrawOrder:
    def test_operator_draws_pinned(self, monkeypatch):
        # evolve_reference breeds through these operators, so it cannot
        # see a change in an operator's own draws; the literals can
        fired = []
        repair = ga._repair

        def recording(bits, rng):
            fired.append(not bits.any())
            return repair(bits, rng)

        monkeypatch.setattr(ga, "_repair", recording)
        rng = np.random.default_rng(0)
        pop = init_population(3, GaConfig(population_size=4), rng)
        a, b = chrom([1, 0, 0, 0]), chrom([0, 1, 0, 0])
        kept = uniform_crossover(a, b, GaConfig(crossover_prob=0.0), rng)
        swapped = uniform_crossover(a, b, GaConfig(crossover_prob=1.0), rng)
        flipped = mutate(chrom([1, 1, 1, 1]), GaConfig(mutation_prob=1.0),
                         rng)
        mixed = mutate(chrom([1, 0, 1, 0, 1, 0]),
                       GaConfig(mutation_prob=0.5), rng)
        out = pop + list(kept) + list(swapped) + [flipped, mixed]
        assert [c.bits.tolist() for c in out] == [
            [0, 1, 1], [1, 0, 0], [0, 1, 0], [0, 1, 0],
            [1, 0, 0, 0], [0, 1, 0, 0],
            [0, 0, 0, 1], [1, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 1, 1, 0, 1, 0]]
        # a repair in init_population, after the swap and after the flips
        assert fired == [False, False, True, False, False, False,
                         True, False, True, False]
        assert rng.random() == 0.6884467305709401

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("population", [3, 50, 2**32 + 5])
    def test_one_draw_holds_both_tournaments(self, population, t):
        # evolve draws both tournaments' picks in one integers(size=2t)
        # call, and the operators draw each in a size=t call: numpy must
        # draw bounded integers one at a time from one stream, so both
        # give the same picks and leave the generator in the same state,
        # with the crossover and mutation draws between pairs
        joint, split = np.random.default_rng(11), np.random.default_rng(11)
        for pair in range(40):
            both = joint.integers(0, population, size=2 * t)
            first = split.integers(0, population, size=t)
            second = split.integers(0, population, size=t)
            assert np.array_equal(both, np.concatenate([first, second]))
            for rng in (joint, split):
                rng.random()
                rng.random(pair % 5)
        assert joint.bit_generator.state == split.bit_generator.state


class TestEvolve:
    def test_zero_iterations_returns_initial_best(self, ga_toy_ds):
        cfg = GaConfig(population_size=20, iterations=0, seed=7)
        best, trace = evolve(ga_toy_ds, cfg)
        assert trace.generations == [0]
        pop = init_population(6, cfg, np.random.default_rng(cfg.seed))
        fits = [fitness(c, ga_toy_ds, cfg) for c in pop]
        assert fitness(best, ga_toy_ds, cfg) == max(fits)
        assert trace.best_fitness == [max(fits)]

    def test_trace_monotone_and_deterministic(self, ga_toy_ds):
        cfg = GaConfig(population_size=30, iterations=15, seed=9)
        best_a, trace_a = evolve(ga_toy_ds, cfg)
        best_b, trace_b = evolve(ga_toy_ds, cfg)
        assert np.array_equal(best_a.bits, best_b.bits)
        assert trace_a.best_fitness == trace_b.best_fitness
        diffs = np.diff(trace_a.best_fitness)
        assert np.all(diffs >= 0.0)

    def test_final_at_least_initial(self, ga_toy_ds):
        cfg = GaConfig(population_size=25, iterations=10, seed=4)
        _, trace = evolve(ga_toy_ds, cfg)
        assert trace.best_fitness[-1] >= trace.best_fitness[0]

    def test_finds_bruteforce_optimum(self, ga_toy_ds):
        cfg = GaConfig(seed=0)
        # brute-force lexicographic optimum over all 63 subsets
        best_key, best_subset = None, None
        for subset in oracles.all_subsets(6):
            bits = np.zeros(6, dtype=np.uint8)
            bits[list(subset)] = 1
            f = fitness(Chromosome(bits.copy()), ga_toy_ds, cfg)
            key = (-f, len(subset), tuple(bits))
            if best_key is None or key < best_key:
                best_key, best_subset = key, subset
        assert best_subset == (2, 4)
        best, _ = evolve(ga_toy_ds, cfg)
        assert tuple(np.flatnonzero(best.bits)) == best_subset

    def test_scores_each_new_mask_once(self, monkeypatch):
        # three genes and 20 chromosomes: generations repeat masks, and
        # each batch must hold only masks never scored before
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, 24, 3, 2)
        cfg = GaConfig(population_size=20, iterations=5, seed=2)
        batches = []
        score = ga._FitnessKernel.scores

        def recording(self, masks):
            batches.append(masks.copy())
            return score(self, masks)

        monkeypatch.setattr(ga._FitnessKernel, "scores", recording)
        _, trace = evolve(ds, cfg)
        seen = [bytes(row) for batch in batches for row in batch]
        assert len(seen) == len(set(seen)) <= 7
        monkeypatch.undo()
        fits = {bytes(b): oracles.oracle_fitness(b, ds, cfg)
                for batch in batches for b in batch}
        assert trace.best_fitness[-1] == max(fits.values())

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("tournament_size", [1, 2, 3])
    @pytest.mark.parametrize("elitism_count", [1, 2, 3])
    def test_matches_pairwise_reference(self, elitism_count,
                                        tournament_size, n_classes):
        # 18 samples on a coarse grid: fitness takes few values, so the
        # size and index tie-breaks both decide some picks
        rng = np.random.default_rng(10 * n_classes + tournament_size)
        labels = np.arange(18) % n_classes
        x = rng.integers(0, 3, size=(18, 6)) + labels[:, None] * (
            rng.random(6) < 0.5)
        ds = Dataset(x, labels, tuple(f"g{i}" for i in range(6)),
                     tuple(f"c{i}" for i in range(n_classes)))
        cfg = GaConfig(population_size=10, iterations=8,
                       tournament_size=tournament_size,
                       elitism_count=elitism_count, fitness_knn_k=3,
                       fitness_folds=3, seed=elitism_count)
        best, trace = evolve(ds, cfg)
        ref_best, ref_trace = oracles.evolve_reference(ds, cfg)
        assert np.array_equal(best.bits, ref_best.bits)
        assert vars(trace) == vars(ref_trace)

    @pytest.mark.parametrize("n_genes", [1, 2])
    @pytest.mark.parametrize("crossover_prob", [0.0, 1.0])
    @pytest.mark.parametrize("mutation_prob", [0.0, 0.5, 1.0])
    def test_matches_reference_on_every_draw_path(self, mutation_prob,
                                                  crossover_prob, n_genes):
        # one or two genes make repairs follow crossover and mutation;
        # probabilities 0 and 1 skip or always take the swap and the
        # flips; 9 members after 2 elites leave an odd child count, so
        # each generation's last pair drops its second child
        rng = np.random.default_rng(3 * n_genes)
        labels = np.arange(15) % 3
        x = rng.integers(0, 3, size=(15, n_genes)) + labels[:, None]
        ds = Dataset(x, labels, tuple(f"g{i}" for i in range(n_genes)),
                     ("c0", "c1", "c2"))
        cfg = GaConfig(population_size=9, iterations=6,
                       crossover_prob=crossover_prob,
                       mutation_prob=mutation_prob, tournament_size=2,
                       elitism_count=2, fitness_knn_k=3, fitness_folds=3,
                       seed=n_genes)
        best, trace = evolve(ds, cfg)
        ref_best, ref_trace = oracles.evolve_reference(ds, cfg)
        assert np.array_equal(best.bits, ref_best.bits)
        assert fitness(best, ds, cfg) == ref_trace.best_fitness[-1]
        assert vars(trace) == vars(ref_trace)

    def test_trace_csv_round_trip(self, ga_toy_ds, tmp_path):
        cfg = GaConfig(population_size=10, iterations=3, seed=1)
        _, trace = evolve(ga_toy_ds, cfg)
        out = tmp_path / "trace.csv"
        trace_to_csv(trace, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness,best_size"
        assert len(lines) == 1 + len(trace.generations)


class TestDecode:
    def test_example(self):
        got = decode(chrom([1, 0, 1]), [4, 9, 200])
        assert got.tolist() == [4, 200]

    def test_all_bits_identity(self):
        got = decode(chrom([1, 1, 1]), [3, 7, 11])
        assert got.tolist() == [3, 7, 11]

    def test_size_bound(self):
        rng = np.random.default_rng(2)
        stage1 = np.arange(0, 40, 2)
        for _ in range(20):
            bits = (rng.random(20) < 0.5).astype(np.uint8)
            assert decode(chrom(bits), stage1).size <= 20

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            decode(chrom([1, 0]), [1, 2, 3])
