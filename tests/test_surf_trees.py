"""Tests for the from-scratch extremely randomized trees.

A one-tree forest stands for a single tree wherever a test is about one.
``TestGoldenForest`` pins the fitted node arrays themselves, over every
refit of a few default ``tune`` calls and a handful of edge cases.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import SearchError
from repro.surf.forest import ExtraTreesRegressor


def toy_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = 2 * X[:, 0] + np.sin(3 * X[:, 1]) + 0.1 * rng.standard_normal(n)
    return X, y


def one_tree(seed=0):
    return ExtraTreesRegressor(n_estimators=1, seed=seed)


def node_samples(forest, X):
    """For every internal node: the values of its split feature over the
    training rows that reach it, and its threshold."""
    out = []
    frontier = [(int(r), np.arange(X.shape[0])) for r in forest._roots]
    while frontier:
        node, rows = frontier.pop()
        f = int(forest._feature[node])
        if f < 0:
            continue
        t = forest._threshold[node]
        out.append((X[rows, f], t))
        go_left = X[rows, f] <= t
        frontier.append((int(forest._left[node]), rows[go_left]))
        frontier.append((int(forest._right[node]), rows[~go_left]))
    return out


def complementary_pair(n=60, seed=0):
    """Binary data whose columns 0 and 1 are one-hot twins (x1 = 1 - x0)
    and carry the signal; the other columns are noise."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n).astype(float)
    noise = rng.integers(0, 2, size=(n, 3)).astype(float)
    X = np.column_stack((a, 1.0 - a, noise))
    y = 5.0 * a + 0.1 * noise @ np.array([1.0, 2.0, 4.0])
    return X, y


class TestExtraTree:
    def test_fits_and_predicts(self):
        X, y = toy_data()
        tree = one_tree().fit(X, y)
        pred = tree.predict(X)
        assert pred.shape == y.shape
        # Training error far below variance (trees interpolate).
        assert np.mean((pred - y) ** 2) < 0.5 * y.var()

    def test_constant_target_single_leaf(self):
        X = np.zeros((10, 2))
        y = np.full(10, 3.5)
        tree = one_tree().fit(X, y)
        assert tree.node_count == 1
        assert tree.depth == 0
        np.testing.assert_allclose(tree.predict(np.ones((3, 2))), 3.5)

    def test_predictions_within_target_range(self):
        X, y = toy_data()
        tree = one_tree(1).fit(X, y)
        grid = np.random.default_rng(1).uniform(-2, 2, size=(100, 3))
        pred = tree.predict(grid)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_bad_shapes(self):
        with pytest.raises(SearchError, match="shapes"):
            one_tree().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(SearchError, match="zero samples"):
            one_tree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_unfit_predict(self):
        with pytest.raises(SearchError, match="not been fit"):
            one_tree().predict(np.zeros((1, 2)))
        with pytest.raises(SearchError, match="not been fit"):
            one_tree().node_count

    def test_single_sample(self):
        tree = one_tree().fit(np.array([[1.0, 2.0]]), np.array([7.0]))
        np.testing.assert_allclose(tree.predict(np.zeros((2, 2))), 7.0)

    def test_one_hot_features_supported(self):
        # Binarized categoricals: splits on {0,1} columns must work.
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(150, 4)).astype(float)
        y = 3 * X[:, 0] - 2 * X[:, 2] + 0.01 * rng.standard_normal(150)
        tree = one_tree(2).fit(X, y)
        assert np.mean((tree.predict(X) - y) ** 2) < 0.1


class TestFitProperties:
    def test_fully_grown_tree_reproduces_distinct_rows(self):
        # Distinct feature rows always separate, so every training row
        # ends in its own leaf (or one whose targets are all equal).
        X, y = toy_data(150, seed=3)
        X = np.vstack((X, X[:10] + 5.0))
        y = np.concatenate((y, np.full(10, 0.25)))  # an all-equal group
        for seed in range(5):
            assert np.array_equal(one_tree(seed).fit(X, y).predict(X), y)
        forest = ExtraTreesRegressor(n_estimators=7, seed=0).fit(X, y)
        np.testing.assert_allclose(forest.predict(X), y, rtol=1e-13, atol=0)

    def test_thresholds_lie_in_node_range(self):
        rng = np.random.default_rng(4)
        X = np.column_stack((
            rng.uniform(-3, 3, size=120),
            rng.integers(0, 4, size=120).astype(float),
            rng.integers(0, 2, size=120).astype(float),
        ))
        y = X[:, 0] ** 2 + X[:, 1] - 3 * X[:, 2]
        forest = ExtraTreesRegressor(n_estimators=10, seed=1).fit(X, y)
        nodes = node_samples(forest, X)
        assert len(nodes) > 100
        for values, t in nodes:
            assert values.min() <= t < values.max()

    def test_complementary_columns_do_not_make_identical_trees(self):
        # On binary data the threshold draw cannot change a partition, so
        # only the tie draw between the twins tells the trees apart.
        X, y = complementary_pair()
        forest = ExtraTreesRegressor(n_estimators=30, seed=0).fit(X, y)
        assert set(forest._feature[forest._roots].tolist()) == {0, 1}

    def test_complementary_columns_share_the_root_fairly(self):
        # The twins partition every node identically, so they tie exactly;
        # a first-wins rule or float noise would favor one of them.
        X, y = complementary_pair()
        wins = np.zeros(2)
        for seed in range(200):
            root = one_tree(seed).fit(X, y)._feature[0]
            assert root in (0, 1)
            wins[root] += 1
        share = wins / wins.sum()
        assert 0.35 <= share[0] <= 0.65, share


class TestForest:
    def test_better_than_single_tree_on_test_set(self):
        X, y = toy_data(300, seed=1)
        Xt, yt = toy_data(100, seed=2)
        tree = one_tree().fit(X, y)
        forest = ExtraTreesRegressor(n_estimators=30, seed=0).fit(X, y)
        mse_tree = np.mean((tree.predict(Xt) - yt) ** 2)
        mse_forest = np.mean((forest.predict(Xt) - yt) ** 2)
        assert mse_forest < mse_tree

    def test_deterministic_given_seed(self):
        X, y = toy_data()
        a = ExtraTreesRegressor(n_estimators=5, seed=3).fit(X, y).predict(X[:10])
        b = ExtraTreesRegressor(n_estimators=5, seed=3).fit(X, y).predict(X[:10])
        np.testing.assert_array_equal(a, b)

    def test_refits_change_streams_but_stay_deterministic(self):
        X, y = toy_data()
        # Probe off-training points: fully-grown trees interpolate the
        # training set exactly, so only held-out predictions reveal the
        # refit's new randomness.
        probe = np.random.default_rng(9).uniform(-1, 1, size=(20, 3))
        forest = ExtraTreesRegressor(n_estimators=5, seed=3)
        forest.fit(X, y)
        first = forest.predict(probe).copy()
        forest.fit(X, y)  # refit (as SURF does every iteration)
        second = forest.predict(probe)
        # Streams advanced, so trees differ...
        assert not np.array_equal(first, second)
        # ...but the whole sequence is reproducible from scratch.
        again = ExtraTreesRegressor(n_estimators=5, seed=3)
        again.fit(X, y)
        again.fit(X, y)
        np.testing.assert_array_equal(second, again.predict(probe))

    def test_predict_std(self):
        X, y = toy_data()
        forest = ExtraTreesRegressor(n_estimators=10, seed=0).fit(X, y)
        std = forest.predict_std(X[:20])
        assert (std >= 0).all()

    def test_score_r2(self):
        X, y = toy_data()
        forest = ExtraTreesRegressor(n_estimators=20, seed=0).fit(X, y)
        assert forest.score(X, y) > 0.8

    def test_shape_of_the_fit(self):
        X, y = toy_data(50)
        forest = ExtraTreesRegressor(n_estimators=4, seed=0).fit(X, y)
        assert forest._roots.tolist() == [0, 1, 2, 3]
        assert forest.node_count == 4 * (2 * 50 - 1)  # 50 leaves per tree
        assert forest.depth == int(forest._tree_depths.max()) >= 6

    def test_zero_estimators_rejected(self):
        with pytest.raises(SearchError, match="at least one"):
            ExtraTreesRegressor(n_estimators=0)

    def test_unfit_rejected(self):
        with pytest.raises(SearchError, match="not been fit"):
            ExtraTreesRegressor().predict(np.zeros((1, 2)))


def duplicate_rows(seed=0):
    """Rows repeated with different targets (nodes whose targets vary but
    that no feature splits), beside a five-valued column."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, size=(16, 4)).astype(float)
    base[:, 3] = rng.integers(0, 5, size=16)
    X = np.vstack((base, base[:8], base[:4]))
    return X, rng.normal(size=X.shape[0])


def forest_digest(forests) -> str:
    """sha256 (16 hex digits) of every node array of ``forests``, in order:
    what the search reads, plus the leaves' stored thresholds and the
    node order, which no search digest sees."""
    h = hashlib.sha256()
    for arrays in forests:
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def node_arrays(forest):
    return tuple(
        np.copy(a) for a in (
            forest._feature, forest._threshold, forest._left, forest._right,
            forest._value, forest._tree_depths,
        )
    )


@pytest.fixture
def fit_log(monkeypatch):
    """Node arrays of every forest fit while the fixture is active."""
    log = []
    fit = ExtraTreesRegressor.fit

    def logged(self, X, y):
        fit(self, X, y)
        log.append(node_arrays(self))
        return self

    monkeypatch.setattr(ExtraTreesRegressor, "fit", logged)
    return log


def _tune(workload, arch):
    from repro.autotune import Autotuner
    from repro.gpusim.arch import gpu_by_name
    from repro.workloads import get_workload

    # The tune CLI defaults: 100 evaluations in batches of 10, pool 2500.
    tuner = Autotuner(gpu_by_name(arch), seed=1, pool_size=2500)
    get_workload(workload).tune(tuner)


#: Digests of the fitted node arrays (feature, threshold, left, right,
#: value, tree depths) over each case's fits, and the number of fits.
#: Captured from the per-node fit; a change that moves one must say why
#: in CHANGES.md.
GOLDEN_FORESTS = {
    "lg3@K20": (10, "47b94b79271cb88c"),
    "eqn1@GTX980": (10, "9ce6cce9d44a1ba6"),
    "lg3@K20/ordinal": (10, "b3a7a6f7917a3c15"),
    "edge cases": (6, "4cafde04e642a928"),
}


class TestGoldenForest:
    """The fit's node arrays, bitwise, refit by refit."""

    @pytest.mark.parametrize("case", ["lg3@K20", "eqn1@GTX980"])
    def test_default_tune_refits(self, fit_log, case):
        _tune(*case.split("@"))
        assert (len(fit_log), forest_digest(fit_log)) == GOLDEN_FORESTS[case]

    def test_ordinal_refits(self, fit_log, monkeypatch):
        from repro.autotune import tuner
        from repro.surf import SURFSearch

        class Ordinal(SURFSearch):
            def __init__(self, **kw):
                super().__init__(binarize=False, **kw)

        monkeypatch.setattr(tuner, "SURFSearch", Ordinal)
        _tune("lg3", "K20")
        assert (len(fit_log), forest_digest(fit_log)) == GOLDEN_FORESTS[
            "lg3@K20/ordinal"
        ]

    def test_edge_cases(self, fit_log):
        X, y = duplicate_rows()
        cases = [
            (toy_data(), 30, 0),
            (complementary_pair(), 30, 1),
            ((X, y), 30, 2),
            ((X, np.full(y.size, 0.5)), 30, 3),  # constant target
            ((np.vstack((X, X)), np.concatenate((y, y))), 7, 4),
            ((X[:1], y[:1]), 3, 5),  # one sample
        ]
        for (Xc, yc), trees, seed in cases:
            ExtraTreesRegressor(n_estimators=trees, seed=seed).fit(Xc, yc)
        assert (len(fit_log), forest_digest(fit_log)) == GOLDEN_FORESTS[
            "edge cases"
        ]
