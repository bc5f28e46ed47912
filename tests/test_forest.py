"""The level-wise forest against the depth-first reference, and its node layout."""

import numpy as np
import pytest

from callselect import forest
from callselect.errors import ConfigError
from callselect.forest import predict_scores, train
from callselect.oracles import reference_forest


def _random_fit(case):
    """A small random table with tied values, duplicate rows and constant columns."""
    rng = np.random.default_rng(case)
    n, d = int(rng.integers(2, 40)), int(rng.integers(1, 9))
    if rng.integers(0, 2):
        X = rng.integers(0, int(rng.integers(1, 6)), (n, d)).astype(np.float64)
    else:
        X = rng.uniform(0, 1, (n, d))
    if d > 1 and rng.integers(0, 2):
        X[:, rng.integers(0, d)] = 0.5
    if rng.integers(0, 2):
        X[n // 2:] = X[: n - n // 2]
    y = rng.integers(0, 2, n).astype(np.int8)
    y[:2] = [1, 0]
    return rng, X, y, int(rng.integers(1, 9)), int(rng.integers(1, 9))


def _splits(model):
    """{(tree, path, feature, threshold)} over every split, path as L/R steps."""
    found = set()
    for tree, root in enumerate(model.roots):
        stack = [(int(root), "")]
        while stack:
            node, path = stack.pop()
            if model.left[node] == node:
                continue
            found.add((tree, path, int(model.feature[node]), float(model.threshold[node])))
            stack += [(int(model.left[node]), path + "L"), (int(model.right[node]), path + "R")]
    return found


def test_level_wise_matches_reference_forest():
    mismatches = []
    for case in range(300):
        rng, X, y, trees, depth = _random_fit(case)
        fast = train(X, y, seed=case, trees_count=trees, max_depth=depth)
        slow = reference_forest(X, y, seed=case, trees_count=trees, max_depth=depth)
        probe = np.vstack([X, rng.uniform(-1, 6, (5, X.shape[1]))])
        if not (
            np.array_equal(predict_scores(fast, probe), predict_scores(slow, probe))
            and fast.label.size == slow.label.size
            and _splits(fast) == _splits(slow)
        ):
            mismatches.append(case)
    assert mismatches == []


def _tree_by_tree(model):
    """The model's node arrays renumbered tree by tree, each tree in level
    order from its root, so that the grow order of the blocks drops out."""
    order = []
    for root in model.roots.tolist():
        level = [root]
        while level:
            order += level
            level = [child for node in level if model.left[node] != node
                     for child in (int(model.left[node]), int(model.right[node]))]
    order = np.array(order)
    assert np.array_equal(np.sort(order), np.arange(model.label.size))  # every node once
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    return {"feature": model.feature[order], "threshold": model.threshold[order],
            "left": new_id[model.left[order]], "right": new_id[model.right[order]],
            "label": model.label[order], "roots": new_id[model.roots]}


def test_block_size_never_shows(monkeypatch):
    for case in range(20):
        _, X, y, trees, depth = _random_fit(1000 + case)
        n = X.shape[0]
        fits = []
        for slots in (n, 3 * n, forest._TREE_ROW_SLOTS):  # 1 tree, 3 trees, default
            with monkeypatch.context() as m:
                m.setattr(forest, "_TREE_ROW_SLOTS", slots)
                model = train(X, y, seed=case, trees_count=trees + 3, max_depth=depth)
            fits.append(_tree_by_tree(model))
        for other in fits[1:]:
            for name, values in other.items():  # bit for bit
                assert values.dtype == fits[0][name].dtype, name
                assert values.tobytes() == fits[0][name].tobytes(), name


def test_node_layout():
    for case in range(40):
        _, X, y, trees, depth = _random_fit(2000 + case)
        model = train(X, y, seed=case, trees_count=trees, max_depth=depth)
        ids = np.arange(model.label.size)
        leaf = model.left == ids
        assert (model.right[leaf] == ids[leaf]).all()  # leaves loop on themselves
        assert (model.left[~leaf] > ids[~leaf]).all()  # children come after their split
        assert (model.right[~leaf] > ids[~leaf]).all()
        assert (model.label[~leaf] == 0).all()
        # no root-to-leaf path is longer than max_depth, which predict_scores relies on
        node_depth = np.zeros(ids.size, dtype=int)
        for node in ids[~leaf]:  # parents come first, so depths fill in id order
            node_depth[[model.left[node], model.right[node]]] = node_depth[node] + 1
        assert node_depth.max() <= depth
        assert (node_depth[model.roots] == 0).all()


def test_reference_forest_refuses_large_inputs():
    X = np.zeros((300, 2))
    y = np.arange(300) % 2
    with pytest.raises(ConfigError):
        reference_forest(X, y, seed=0, trees_count=100, max_depth=4)


def test_train_rejects_non_finite_values():
    X = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(ConfigError):
        train(X, np.array([1, 0, 1]), seed=0)


_ADJACENT = np.nextafter(1.0, 2.0)


@pytest.mark.parametrize("a, b", [
    (_ADJACENT, np.nextafter(_ADJACENT, 2.0)),  # the midpoint rounds up to b
    (1.7e308, 1.75e308),  # the midpoint overflows to inf
    (-1.75e308, -1.7e308),  # ... and to -inf
])
def test_split_between_close_or_huge_values(a, b):
    X = np.array([[a], [b]] * 4)
    y = np.array([1, 0] * 4, dtype=np.int8)
    for grow in (train, reference_forest):
        model = grow(X, y, seed=0, trees_count=1, max_depth=4)
        # one split and two leaves, the threshold between the two values
        assert model.label.size == 3
        assert a <= model.threshold[model.roots[0]] < b
        assert np.array_equal(predict_scores(model, X[:2]), [1.0, 0.0])
    assert _splits(train(X, y, 0, 1, 4)) == _splits(reference_forest(X, y, 0, 1, 4))
