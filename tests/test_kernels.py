import numpy as np
import pytest

import oracles
from genefunnel import _kernels


def split(x, g, h, lam, gamma):
    """``_kernels.best_split`` on a raw (m, n) node matrix: its columns
    sorted by ``sort_columns``, the node sums taken over all rows."""
    xs, order, tied = _kernels.sort_columns(x)
    return _kernels.best_split(xs, order, tied, g, h, float(g.sum()),
                               float(h.sum()), lam, gamma)


def random_knn_case(rng):
    m = int(rng.integers(2, 20))
    n = int(rng.integers(1, 5))
    c = int(rng.integers(2, 4))
    if rng.random() < 0.4:
        train = np.round(rng.normal(size=(m, n)), 0)
        test = np.round(rng.normal(size=(6, n)), 0)
    else:
        train = rng.normal(size=(m, n))
        test = rng.normal(size=(6, n))
    labels = rng.integers(0, c, size=m)
    k = int(rng.integers(1, m + 1))
    return train, labels, test, k, c


class TestFallbackAgainstOracles:
    def test_knn_matches_bruteforce(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            train, labels, test, k, c = random_knn_case(rng)
            got = _kernels.knn_predict(train, labels, test, k, c)
            for q, pred in zip(test, got):
                assert pred == oracles.knn_label_bruteforce(
                    train, labels, q, k, c)

    def test_best_split_no_improvement(self):
        # constant features: no usable threshold
        g = np.array([1.0, -1.0, 2.0, -2.0, 0.5])
        h = np.ones(5)
        for x in (np.ones((5, 1)),
                  np.tile([3.0, -1.0, 0.0, 2.5], (5, 1))):
            assert split(x, g, h, 1.0, 0.0) == (-1, 0.0, 0.0)

    def test_best_split_single_row(self):
        # the columns of a node of at most one row are sorted as they stand
        for x in (np.array([[3.0]]), np.array([[3.0, 1.0, -2.0]]),
                  np.empty((0, 3))):
            m, n = x.shape
            assert _kernels.best_split(
                x.T, np.zeros((n, m), dtype=np.int64), np.zeros(n, dtype=bool),
                np.ones(m), np.ones(m), float(m), float(m),
                1.0, 0.0) == (-1, 0.0, 0.0)

    def test_best_split_duplicated_columns_pick_lower_feature(self):
        rng = np.random.default_rng(23)
        signal = np.repeat([0.0, 1.0], 6) + rng.normal(0, 0.1, size=12)
        noise = rng.normal(size=12)
        g = np.repeat([-1.0, 1.0], 6)
        h = np.ones(12)
        for cols, expected in (((signal, signal), 0),
                               ((noise, signal, signal, signal), 1),
                               ((noise, signal, noise, signal), 1)):
            feat, _, gain = split(np.column_stack(cols), g, h, 1.0, 0.0)
            assert (feat, gain > 0) == (expected, True)

    def test_best_split_gamma_lowers_gain_and_can_veto(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(12, 4))
        g = rng.normal(size=12)
        h = rng.random(12) + 0.1
        feat, thr, gain = split(x, g, h, 1.0, 0.0)
        assert gain > 0.0
        gamma = gain / 4
        assert split(x, g, h, 1.0, gamma) == (feat, thr, gain - gamma)
        assert split(x, g, h, 1.0, 2 * gain) == (-1, 0.0, 0.0)

    def test_sort_columns_is_a_stable_sort(self):
        # heavy ties, 0.0 and -0.0 among them: rows of equal values keep
        # row order, and the values follow their rows
        rng = np.random.default_rng(27)
        for _ in range(50):
            x = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5],
                           size=(int(rng.integers(1, 30)), 7))
            xs, order, tied = _kernels.sort_columns(x)
            want = np.argsort(x.T, axis=1, kind="stable")
            assert np.array_equal(order, want)
            want_xs = np.take_along_axis(x.T, want, axis=1)
            assert np.array_equal(xs, want_xs)
            assert np.array_equal(np.signbit(xs), np.signbit(want_xs))
            # a feature is flagged exactly when two of its values are equal
            assert tied.tolist() == [np.unique(col).size < col.size
                                     for col in x.T]

    def test_nearest_is_a_stable_argsort(self):
        # heavy ties and +inf entries: the leading finite picks come in
        # stable-argsort order and are set to +inf; picks past the finite
        # entries may repeat, and no caller reads them
        rng = np.random.default_rng(28)
        for _ in range(200):
            q, m = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            d = rng.integers(0, 4, size=(q, m)).astype(np.float64)
            d[rng.random((q, m)) < 0.3] = np.inf
            want = np.argsort(d, axis=1, kind="stable")
            finite = np.isfinite(d).sum(axis=1)
            k = int(rng.integers(1, m + 1))
            got = _kernels.nearest(d, k)
            assert got.shape == (q, k) and got.dtype == np.int64
            for row in range(q):
                lead = min(k, int(finite[row]))
                assert np.array_equal(got[row, :lead], want[row, :lead])
                assert np.isposinf(d[row, want[row, :lead]]).all()

    def test_sorted_partition_matches_sorting_each_part(self):
        # both parts must come out exactly as a stable sort of their own
        # rows would order them, ties in row order
        rng = np.random.default_rng(26)
        x = np.round(rng.normal(size=(15, 6)))
        order = np.argsort(x.T, axis=1, kind="stable")
        xs = np.take_along_axis(x.T, order, axis=1)
        first = rng.random(15) < 0.4
        parts = _kernels.sorted_partition(xs, order, first)
        for (got_xs, got_order), rows in zip(
                parts, (np.flatnonzero(first), np.flatnonzero(~first))):
            want = rows[np.argsort(x[rows].T, axis=1, kind="stable")]
            assert np.array_equal(got_order, want)
            assert np.array_equal(got_xs, np.take_along_axis(x.T, want,
                                                             axis=1))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n_first", [0, 1, 6, 7])
    def test_sorted_partition_part_shapes(self, dtype, n_first):
        # a part of one row, and an empty part of shape (n, 0), on the
        # orders of some of 12 rows; every part is its own C-contiguous
        # pair, in the orders' dtype, and a stable sort of its rows
        rng = np.random.default_rng(27 + n_first)
        rows = np.sort(rng.choice(12, size=7, replace=False))
        x = np.round(rng.normal(size=(7, 5)))
        xs, local, _ = _kernels.sort_columns(x)
        order = rows.astype(dtype)[local]
        first = np.zeros(12, dtype=bool)
        first[rng.choice(rows, size=n_first, replace=False)] = True
        parts = _kernels.sorted_partition(xs, order, first)
        for (got_xs, got_order), flagged in zip(parts, (True, False)):
            members = rows[first[rows] == flagged]
            assert got_xs.shape == got_order.shape == (5, members.size)
            assert got_order.dtype == dtype
            assert got_xs.flags.c_contiguous and got_order.flags.c_contiguous
            own = x[np.searchsorted(rows, members)].T
            sort = np.argsort(own, axis=1, kind="stable")
            assert np.array_equal(got_order, members[sort])
            assert np.array_equal(got_xs, np.take_along_axis(own, sort,
                                                             axis=1))

    def test_best_split_first_exact_tie_candidate(self):
        # Integer-valued data is full of tied values and of exactly tied
        # gains. Tied splits that give the children the same gradient and
        # hessian sums (duplicated columns, mirrored partitions) have equal
        # float gains too, and the kernel must return the first of them in
        # (feature, threshold) order. Distinct sums can tie in exact
        # arithmetic yet round apart in float; there any tied split passes.
        rng = np.random.default_rng(24)
        checked_ties = 0
        for _ in range(300):
            m = int(rng.integers(2, 12))
            x = rng.integers(0, 4, size=(m, int(rng.integers(1, 5))))
            if rng.random() < 0.5:
                x = np.concatenate([x, x[:, ::-1]], axis=1)
            x = x.astype(np.float64)
            g = rng.integers(-2, 3, size=m).astype(np.float64)
            h = rng.integers(1, 3, size=m).astype(np.float64)
            lam = float(rng.choice([0.0, 1.0]))
            oracle = oracles.grow_tree_exhaustive(
                x, g, h, np.arange(m), 1, lam, 0.0)
            feat, thr, _ = split(x, g, h, lam, 0.0)
            if "weight" in oracle:
                assert feat == -1
                continue
            candidates = oracle["candidates"]
            assert (feat, thr) in candidates

            def child_sums(j, t):
                left = x[:, j] <= t
                return frozenset({(g[left].sum(), h[left].sum()),
                                  (g[~left].sum(), h[~left].sum())})

            if len({child_sums(*c) for c in candidates}) == 1:
                assert (feat, thr) == candidates[0]
                checked_ties += len(candidates) > 1
        assert checked_ties >= 100


class TestSplitScanBlocks:
    """``best_split`` scans the genes in blocks under
    ``_SCAN_BYTES``; with 3 or more blocks it must pick exactly what one
    block over all genes picks."""

    @staticmethod
    def tie_heavy(rng):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(7, 16))
        x = rng.integers(0, 3, size=(m, n)).astype(float)
        g = rng.integers(-1, 2, size=m).astype(float)
        h = rng.integers(1, 3, size=m).astype(float)
        return x, g, h

    @staticmethod
    def duplicated(rng):
        # the best column copied into every block of 2 genes, noise between
        m = 12
        signal = np.repeat([0.0, 1.0], 6) + rng.normal(0, 0.1, size=m)
        x = rng.normal(size=(m, 9))
        x[:, 1::2] = signal[:, None]
        return x, np.repeat([-1.0, 1.0], 6), np.ones(m)

    @pytest.mark.parametrize("make", ["tie_heavy", "duplicated"])
    @pytest.mark.parametrize("genes_per_block", [1, 2, 3])
    def test_blocks_pick_what_one_block_picks(self, monkeypatch, make,
                                              genes_per_block):
        rng = np.random.default_rng(41)
        cases = [getattr(self, make)(rng) for _ in range(150)]
        whole = [split(x, g, h, 1.0, 0.0) for x, g, h in cases]
        splits = 0
        for (x, g, h), expected in zip(cases, whole):
            m, n = x.shape
            assert 8 * m * n <= _kernels._SCAN_BYTES  # one block by default
            monkeypatch.setattr(_kernels, "_SCAN_BYTES",
                                8 * m * genes_per_block)
            assert -(-n // genes_per_block) >= 3
            assert split(x, g, h, 1.0, 0.0) == expected
            monkeypatch.undo()
            splits += expected[0] >= 0
        assert splits >= 100
        if make == "duplicated":
            # the first copy wins over its equal-gain copies in later blocks
            assert {feat for feat, _, _ in whole} == {1}


class TestSplitScanBits:
    """``_split_gains`` gives the bits of the documented arithmetic on
    separately gathered gradient and hessian prefix sums, and
    ``best_split`` over 3 or more blocks picks its first maximum."""

    @staticmethod
    def reference(xs, order, g, h, total_g, total_h, lam, gamma):
        gl = np.cumsum(g[order], axis=1)
        hl = np.cumsum(h[order], axis=1)
        gr = total_g - gl
        hr = total_h - hl
        parent = total_g * total_g / (total_h + lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                           - parent) - gamma
        gains[:, :-1][xs[:, :-1] == xs[:, 1:]] = -np.inf
        gains[:, -1] = -np.inf
        return gains, parent

    @staticmethod
    def node(rng):
        """A node as ``boosting.fit`` hands it over: the sorted columns of
        some of M rows, or the left child's part of them."""
        total = int(rng.integers(4, 40))
        m = int(rng.integers(2, total + 1))
        n = int(rng.integers(9, 30))
        x = rng.normal(size=(m, n))
        g = rng.normal(size=total)
        h = rng.uniform(0.05, 0.25, size=total)
        if rng.random() < 0.5:  # tie-heavy: integer values and sums
            x = np.round(2 * x)
            g, h = np.round(2 * g), np.round(4 * h) + 1
        rows = np.sort(rng.choice(total, size=m, replace=False))
        xs, local, tied = _kernels.sort_columns(x)
        dtype = np.int32 if rng.random() < 0.5 else np.int64
        order = rows.astype(dtype)[local]
        if rng.random() < 0.5:
            left = rng.random(total) < 0.7
            left[rows[:2]] = True
            (xs, order), _ = _kernels.sorted_partition(xs, order, left)
        return xs, order, tied, g, h

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_gains_and_pick_keep_their_bits(self, monkeypatch, gamma):
        rng = np.random.default_rng(7)
        dtypes, splits = set(), 0
        for _ in range(300):
            xs, order, tied, g, h = self.node(rng)
            n, m = xs.shape
            total_g = float(g[order[0]].sum())
            total_h = float(h[order[0]].sum())
            lam = 1.0
            want, parent = self.reference(xs, order, g, h, total_g, total_h,
                                          lam, gamma)
            got = _kernels._split_gains(xs, order, tied, g, h, total_g,
                                        total_h, lam, gamma, parent)
            assert np.array_equal(got, want)

            feat, cut = divmod(int(np.argmax(want)), m)
            best = float(want[feat, cut])
            expected = ((feat, float(0.5 * (xs[feat, cut] + xs[feat, cut + 1])),
                         best) if best > 0.0 else (-1, 0.0, 0.0))
            per_block = int(rng.integers(1, n // 3 + 1))
            monkeypatch.setattr(_kernels, "_SCAN_BYTES", 8 * m * per_block)
            assert _kernels.best_split(xs, order, tied, g, h, total_g,
                                       total_h, lam, gamma) == expected
            monkeypatch.undo()
            dtypes.add(order.dtype)
            splits += best > 0.0
        assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}
        assert splits >= 100
