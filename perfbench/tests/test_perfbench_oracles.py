"""Each oracle on hand-built cases with known answers."""

import math

import numpy as np
import pytest

import oracles


def _orthonormal(rng, p, m):
    q, _ = np.linalg.qr(rng.standard_normal((p, m)))
    return q


@pytest.mark.parametrize("n", [5, 40])  # fewer and more columns than rows
def test_gram_basis_spans_the_leading_directions(n):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, n))
    B = oracles.gram_basis(X, dim=4)
    assert np.allclose(B.T @ B, np.eye(4), atol=1e-10)
    U = np.linalg.svd(X)[0][:, :4]
    assert np.allclose(B @ B.T, U @ U.T, atol=1e-8)


def test_gram_basis_weights_equal_duplicated_columns():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 4))
    dup = np.repeat(X, [1, 3, 2, 1], axis=1)
    B = oracles.gram_basis(X, weights=[1, 3, 2, 1], dim=3)
    D = oracles.gram_basis(dup, dim=3)
    assert np.allclose(B @ B.T, D @ D.T, atol=1e-8)


def test_gram_basis_drops_rank_deficient_directions():
    X = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert oracles.gram_basis(X).shape == (3, 1)


def test_subspace_similarity_known_angles():
    e = np.eye(4)
    assert oracles.subspace_similarity(e[:, :2], e[:, :2]) == pytest.approx(1.0)
    assert oracles.subspace_similarity(e[:, :2], e[:, 2:]) == pytest.approx(0.0)
    theta = 0.3
    a = e[:, [0, 1]]
    b = np.stack([np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 2], e[:, 1]], axis=1)
    assert oracles.subspace_similarity(a, b) == pytest.approx((np.cos(theta) ** 2 + 1) / 2)
    # one angle between a line and a plane
    assert oracles.subspace_similarity(a, b[:, :1]) == pytest.approx(np.cos(theta) ** 2)


def test_subspace_scores_pick_the_planted_class():
    vectors = {"a1": np.array([1.0, 0, 0, 0]), "a2": np.array([0, 1.0, 0, 0]),
               "b1": np.array([0, 0, 1.0, 0]), "b2": np.array([0, 0, 0, 1.0])}
    docs = [("A", ["a1", "a2"]), ("B", ["b1", "b2", "b2"])]
    bases = oracles.class_bases(docs, ("A", "B"), vectors, weighted=True, dim=2)
    q = oracles.query_basis(["b1", "zz"], vectors, weighted=False, dim=None)
    assert oracles.labels_of(("A", "B"), oracles.subspace_scores(bases, q)) == ("B", False)
    assert oracles.query_basis(["zz"], vectors, False, None) is None


def test_sa_scores_mean_pairwise_inner_product():
    vectors = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 2.0])}
    docs = [("A", ["x"]), ("B", ["x", "y"])]
    scores = oracles.sa_scores(docs, ("A", "B"), ["x", "y"], vectors)
    assert scores == pytest.approx([0.5, 0.5])


def test_naive_bayes_hand_computed():
    train = [("A", ["x", "x", "y"]), ("B", ["z"]), ("A", ["x"])]
    test = [("?", ["x", "w"]), ("?", ["z", "z"])]
    denom = 2 + 3
    prior = {"A": 3 / denom, "B": 2 / denom}
    # docs in class containing the term, plus one
    p = {"A": {"x": 3 / denom, "y": 2 / denom, "z": 1 / denom},
         "B": {"x": 1 / denom, "y": 1 / denom, "z": 2 / denom}}
    mnb = oracles.naive_bayes_scores("mnb", train, ("A", "B"), test)
    assert mnb[0] == pytest.approx([math.log(prior[c] * p[c]["x"]) for c in "AB"])
    assert mnb[1] == pytest.approx([math.log(prior[c] * p[c]["z"] ** 2) for c in "AB"])
    mvb = oracles.naive_bayes_scores("mvb", train, ("A", "B"), test)
    expect = [math.log(prior[c] * p[c]["x"] * (1 - p[c]["y"]) * (1 - p[c]["z"]))
              for c in "AB"]
    assert mvb[0] == pytest.approx(expect)


def test_lsa_full_rank_is_cosine_nearest_neighbour():
    train = [("A", ["a", "b"]), ("A", ["a", "c"]), ("B", ["d", "e"]), ("B", ["c", "d"])]
    test = [("?", ["a", "b", "c"]), ("?", ["d"])]
    scores = oracles.lsa_scores(train, ("A", "B"), test, rank=4)
    terms = ["a", "b", "c", "d", "e"]
    D = np.array([[t in toks for t in terms] for _, toks in train], dtype=float)
    for row, (_, toks) in zip(scores, test):
        q = np.array([t in toks for t in terms], dtype=float)
        cos = D @ q / (np.linalg.norm(D, axis=1) * np.linalg.norm(q))
        # the query's part outside the training span shrinks every cosine
        # by the same factor
        best = np.array([cos[:2].max(), cos[2:].max()])
        assert row / row.max() == pytest.approx(best / best.max())


def test_pegasos_first_steps_by_hand():
    # one sample per class, one epoch; order from default_rng(0)
    train = [("A", ["x"]), ("B", ["y"])]
    reg = 0.5
    w, b, index = oracles.pegasos(train, ("A", "B"), reg, 1, 0)
    order = np.random.default_rng(0).permutation(2)
    u = np.zeros((3, 2))  # rows x, y, bias; columns A, B
    scale = 1.0
    for step, i in enumerate(order, start=1):
        lr = 1.0 / (reg * (step + 1))
        y = np.array([1.0, -1.0]) if i == 0 else np.array([-1.0, 1.0])
        score = scale * (u[i] + u[2])
        scale *= 1 - lr * reg
        g = np.where(y * score < 1, lr * y / scale, 0.0)
        u[i] += g
        u[2] += g
    u *= scale
    assert index == {"x": 0, "y": 1}
    assert np.allclose(w, u[:2].T)
    assert np.allclose(b, -u[2])
    assert oracles.svm_scores(w, b, index, [("?", ["x"])])[0] == pytest.approx(u[0] + u[2])


def test_paired_t_known_value():
    t, p = oracles.paired_t([3.0, 4.0, 6.0], [2.0, 2.0, 3.0])
    assert t == pytest.approx(2.0 / (1.0 / math.sqrt(3)))
    assert 0.0 < p < 0.1


def test_labels_of_flags_near_ties():
    assert oracles.labels_of(("a", "b"), [0.5, 0.5 + 1e-12]) == ("b", True)
    assert oracles.labels_of(("a", "b"), [0.5, 0.4]) == ("a", False)
    assert oracles.labels_of(("a", "b"), [-3000.0, -3000.0 - 1e-7]) == ("a", True)
