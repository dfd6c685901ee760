import numpy as np
import pytest
import scipy.sparse as sp

from helpers import bow_reference, exact_cosine_1nn_maximizers, w2v_rows_by_word_loop, whole
from wordspace.corpus import Corpus, Document
from wordspace.errors import DataError, DegenerateQueryError, NumericalError
from wordspace.features import FeatureSpec, feature_matrix, fit_feature_spec
from wordspace.lsa import LsaModel, train_lsa, truncated_svd
from wordspace.model_io import load_model, save_model
from wordspace.svm import LinearSvmModel, fit_linear_svm, train_svm


def binbow_spec(terms):
    return FeatureSpec("binbow", terms=tuple(terms))


class TestFeatureMatrix:
    def test_bow_rows_match_bow_operation(self):
        rng = np.random.default_rng(0)
        pool = ["a", "b", "c", "d"]
        docs = [Document("c", tuple(rng.choice(pool, size=rng.integers(1, 7)).tolist()))
                for _ in range(10)]
        corpus = Corpus(docs)
        for name in ("binbow", "tfbow", "tfidfbow"):
            spec = fit_feature_spec(name, corpus)
            rows = feature_matrix(spec, docs)
            for i, doc in enumerate(docs):
                want = bow_reference(doc, spec.terms, name, docs)
                got = {int(j): rows[i, j] for j in rows[i].indices}
                assert got == pytest.approx(want)

    @pytest.mark.parametrize("name", ["binbow", "tfbow", "tfidfbow"])
    def test_bow_matrix_without_vocabulary_words(self, name):
        spec = fit_feature_spec(name, Corpus([Document("c", ("a", "b"))]))
        empty = feature_matrix(spec, [])
        assert empty.shape == (0, 2) and empty.indptr.tolist() == [0]
        assert empty.data.size == 0
        oov = feature_matrix(spec, [Document("c", ("x", "y")), Document("c", ())])
        assert oov.shape == (2, 2) and oov.indptr.tolist() == [0, 0, 0]
        assert oov.data.size == 0

    def test_w2v_rows_are_mean_unit_vectors(self):
        from wordspace.embeddings import EmbeddingTable

        table = EmbeddingTable(["a", "b"], np.array([[2.0, 0.0], [0.0, 0.5]]))
        spec = fit_feature_spec("w2v", Corpus([Document("c", ("a", "b"))]), table)
        rows = feature_matrix(spec, [Document("c", ("a", "b", "a")),
                                     Document("c", ("zzz",))], table)
        np.testing.assert_allclose(rows[0], [0.5, 0.5])
        np.testing.assert_array_equal(rows[1], [0.0, 0.0])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_w2v_mean_leaves_out_zero_vector_words(self, normalize):
        from wordspace.embeddings import EmbeddingTable

        table = EmbeddingTable(["a", "b"], np.array([[2.0, 0.0], [0.0, 0.0]]))
        spec = fit_feature_spec("w2v", Corpus([Document("c", ("a",))]), table, normalize)
        rows = feature_matrix(spec, [Document("c", ("a", "b")), Document("c", ("b",))],
                              table)
        np.testing.assert_array_equal(rows, [[1.0 if normalize else 2.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_w2v_rows_equal_word_loop(self, normalize):
        from wordspace.embeddings import EmbeddingTable

        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(60)]
        table = EmbeddingTable(words, rng.standard_normal((60, 25)))
        pool = words + ["oov_a", "oov_b"]
        docs = [Document("c", tuple(rng.choice(pool, size=rng.integers(0, 30)).tolist()))
                for _ in range(200)] + [Document("c", ("oov_a",))]
        spec = fit_feature_spec("w2v", Corpus(docs), table, normalize)
        got = feature_matrix(spec, docs, table)
        want = w2v_rows_by_word_loop(table, docs, normalize)
        assert got.tobytes() == want.tobytes()


class TestTruncatedSvd:
    def test_rank_error(self):
        # a request past the numerical rank gets the triplets there are
        X = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        u, s = truncated_svd(X, 2)
        assert u.shape == (2, 1) and s.shape == (1,)
        np.testing.assert_allclose(s, [5.0], rtol=1e-12)
        u, s = truncated_svd(np.zeros((3, 2)), 2)
        assert u.shape == (3, 0) and s.shape == (0,)
        # a dimension below 1 is refused as such, not as a cap overflow
        for k in (0, -1):
            with pytest.raises(NumericalError,
                               match=whole(f"subspace dimension must be >= 1, got {k}")):
                truncated_svd(X, k)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 12))
        u_dense, s_dense = truncated_svd(X, 4)
        u_sparse, s_sparse = truncated_svd(sp.csr_matrix(X), 4)
        np.testing.assert_allclose(s_sparse, s_dense, rtol=1e-10)
        np.testing.assert_allclose(np.abs(u_sparse.T @ u_dense), np.eye(4),
                                   atol=1e-8)


class TestLsa:
    def test_identity_matrix_recovers_training_doc(self):
        corpus = Corpus([Document("c0", ("t0",)), Document("c1", ("t1",))])
        spec = fit_feature_spec("binbow", corpus)
        model = train_lsa(corpus, spec, 2)
        pred = model.predict(("t0",))
        assert pred.label == "c0"
        assert pred.scores[0] == pytest.approx(1.0)

    def test_projection_reconstruction_identity(self):
        # at full rank, sigma_k * coords(d_i) equals Sigma_k V_k^T e_i
        rng = np.random.default_rng(2)
        pool = ["a", "b", "c", "d", "e"]
        docs = [Document("c0", tuple(rng.choice(pool, 4).tolist()))
                for _ in range(4)] + [Document("c1", tuple(rng.choice(pool, 3).tolist()))
                                      for _ in range(3)]
        corpus = Corpus(docs)
        spec = fit_feature_spec("tfbow", corpus)
        X = feature_matrix(spec, docs).toarray().T  # terms x docs
        rank = np.linalg.matrix_rank(X)
        model = train_lsa(corpus, spec, rank)
        u, s, vt = np.linalg.svd(X, full_matrices=False)
        for i in range(len(docs)):
            want = s[:rank] * vt[:rank, i]
            got = model.doc_coords[i] * model.sigma
            np.testing.assert_allclose(np.abs(got), np.abs(want), atol=1e-8)

    def test_rank_one_proportional_docs(self):
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("a", "a"))])
        spec = fit_feature_spec("tfbow", corpus)
        model = train_lsa(corpus, spec, 1)
        np.testing.assert_allclose(model.predict(("a", "a", "a")).scores,
                                   [1.0, 1.0])

    def test_empty_vocabulary_errors(self):
        corpus = Corpus([Document("c0", ()), Document("c1", ())])
        with pytest.raises(DataError, match=whole("training corpus has an empty vocabulary")):
            train_lsa(corpus, fit_feature_spec("binbow", corpus), 1)

    def test_non_finite_projection_raises(self):
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("b",))])
        model = train_lsa(corpus, fit_feature_spec("binbow", corpus), 2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match=whole("lsa query projection is not finite")):
            model.class_scores_from_projection(np.full(2, np.inf))

    def test_zero_projection_raises(self):
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("b",))])
        model = train_lsa(corpus, fit_feature_spec("binbow", corpus), 2)
        with pytest.raises(DegenerateQueryError):
            model.predict(("zzz",))

    def test_full_rank_equals_exact_cosine_1nn(self):
        # the exact-arithmetic oracle pins the answer whenever it is
        # unique; at exact cosine ties any maximizer is acceptable
        rng = np.random.default_rng(3)
        pool = ["a", "b", "c", "d", "e", "f"]
        for trial in range(20):
            docs = [Document(f"c{rng.integers(0, 3)}",
                             tuple(rng.choice(pool, size=rng.integers(1, 6)).tolist()))
                    for _ in range(8)]
            corpus = Corpus(docs)
            spec = fit_feature_spec("tfbow", corpus)
            rows = feature_matrix(spec, docs).toarray()
            rank = np.linalg.matrix_rank(rows)
            model = train_lsa(corpus, spec, rank)
            for _ in range(5):
                tokens = tuple(rng.choice(pool, size=rng.integers(1, 5)).tolist())
                qrow = feature_matrix(spec, [Document("q", tokens)]).toarray()[0]
                want = exact_cosine_1nn_maximizers(
                    rows, [d.label for d in docs], list(corpus.classes), qrow
                )
                if want is None:
                    with pytest.raises(DegenerateQueryError):
                        model.predict(tokens)
                    continue
                got = model.predict(tokens).label
                assert got in want
                if len(want) == 1:
                    assert {got} == want

    def test_roundtrip(self, tmp_path):
        corpus = Corpus([Document("c0", ("a", "b")), Document("c1", ("c",))])
        model = train_lsa(corpus, fit_feature_spec("tfidfbow", corpus), 1)
        save_model(model, tmp_path / "m.npz")
        again = load_model(tmp_path / "m.npz")
        assert isinstance(again, LsaModel)
        np.testing.assert_array_equal(model.predict(("a",)).scores,
                                      again.predict(("a",)).scores)


class TestSvm:
    def test_separable_one_dimensional(self):
        X = np.array([[1.0], [-1.0], [0.8], [-1.2]])
        labels = ["pos", "neg", "pos", "neg"]
        spec = binbow_spec(["f0"])
        [model] = fit_linear_svm(X, labels, ("pos", "neg"), spec, seed=0)
        scores = model.decision_matrix(X)
        preds = [model.classes[j] for j in np.argmax(scores, axis=1)]
        assert preds == labels

    def test_single_class_errors(self):
        with pytest.raises(DataError,
                           match=whole("linear SVM training needs at least 2 classes")):
            fit_linear_svm(np.array([[1.0]]), ["only"], ("only",),
                           binbow_spec(["f0"]))

    def test_tie_on_shared_boundary(self):
        spec = binbow_spec(["f0"])
        model = LinearSvmModel(("x", "y"), np.array([[1.0], [-1.0]]),
                               np.array([0.0, 0.0]), spec, reg=1e-4, epochs=0,
                               seed=0)
        pred = model.predict(())  # empty doc featurizes to the zero vector
        assert pred.tie and pred.label == "x"

    def test_duplicated_feature_dimension_keeps_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 3))
        labels = ["a" if x[0] + 0.5 * x[1] > 0 else "b" for x in X]
        if len(set(labels)) == 1:  # keep the fixture two-class
            labels[0] = "a" if labels[0] == "b" else "b"
        spec3 = binbow_spec(["f0", "f1", "f2"])
        spec4 = binbow_spec(["f0", "f1", "f2", "f2dup"])
        [base] = fit_linear_svm(X, labels, ("a", "b"), spec3, seed=1)
        [dup] = fit_linear_svm(np.hstack([X, X[:, 2:3]]), labels, ("a", "b"),
                               spec4, seed=1)
        base_pred = np.argmax(base.decision_matrix(X), axis=1)
        dup_pred = np.argmax(dup.decision_matrix(np.hstack([X, X[:, 2:3]])), axis=1)
        np.testing.assert_array_equal(base_pred, dup_pred)

    def test_same_seed_is_reproducible(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 4))
        labels = ["a" if i % 2 else "b" for i in range(10)]
        spec = binbow_spec(["f0", "f1", "f2", "f3"])
        [m1] = fit_linear_svm(X, labels, ("a", "b"), spec, seed=7)
        [m2] = fit_linear_svm(X, labels, ("a", "b"), spec, seed=7)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.offsets, m2.offsets)

    def test_one_model_per_reg_in_grid_order(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((14, 3))
        labels = ["a" if x[0] > 0 else "b" for x in X]
        spec = binbow_spec(["f0", "f1", "f2"])
        regs = (1e-2, 1e-4, 1e-2)
        models = fit_linear_svm(X, labels, ("a", "b"), spec, regs=regs, seed=3)
        assert [m.reg for m in models] == list(regs)
        for reg, model in zip(regs, models):
            [alone] = fit_linear_svm(X, labels, ("a", "b"), spec, regs=(reg,), seed=3)
            np.testing.assert_array_equal(model.weights, alone.weights)
            np.testing.assert_array_equal(model.offsets, alone.offsets)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_non_finite_weights_name_their_reg(self, tiny):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match=f"reg={tiny!r}"):
            fit_linear_svm(X, ["a", "b", "a"], ("a", "b"), binbow_spec(["f0", "f1"]),
                           regs=(1e-3, tiny))

    def test_corpus_training_and_roundtrip(self, tmp_path):
        corpus = Corpus([Document("c0", ("up", "up")), Document("c1", ("down",)),
                         Document("c0", ("up",)), Document("c1", ("down", "down"))])
        spec = fit_feature_spec("tfbow", corpus)
        model = train_svm(corpus, spec, seed=2)
        assert model.predict(("up", "up")).label == "c0"
        assert model.predict(("down",)).label == "c1"
        save_model(model, tmp_path / "m.npz")
        again = load_model(tmp_path / "m.npz")
        np.testing.assert_array_equal(model.predict(("up",)).scores,
                                      again.predict(("up",)).scores)
