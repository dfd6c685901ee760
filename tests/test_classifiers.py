import numpy as np
import pytest

from helpers import orthogonal_table, policies, projector, query_by_full_solve, whole
from wordspace.classifiers import (
    SimilarityAverageModel,
    make_prediction,
    query_subspace,
    train_msm,
    train_sa,
    train_tfmsm,
)
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable
from wordspace.errors import DataError, DegenerateQueryError, NumericalError
from wordspace.model_io import load_model, save_model
from wordspace.subspace import similarity

PROJECTOR_TOL = 1e-6


def max_abs(a):
    return float(np.max(np.abs(a)))


@pytest.fixture
def ortho_table():
    # 2 classes x 3 words on disjoint axes, plus 2 free axes for queries
    return orthogonal_table(2, 3, extra_dims=2)


@pytest.fixture
def ortho_corpus():
    return Corpus([
        Document("c0", ("w0_0", "w0_1")),
        Document("c0", ("w0_1", "w0_2")),
        Document("c1", ("w1_0", "w1_1", "w1_2")),
    ])


class TestTrainMsm:
    def test_disjoint_classes_have_zero_similarity(self, ortho_table, ortho_corpus):
        model = train_msm(ortho_corpus, ortho_table)
        a, b = model.subspaces["c0"], model.subspaces["c1"]
        t = min(a.dimension, b.dimension)
        assert similarity(a, b, t) == pytest.approx(0.0, abs=1e-15)

    def test_fully_oov_class_errors(self, ortho_table):
        corpus = Corpus([Document("c0", ("w0_0",)), Document("bad", ("zzz",))])
        with pytest.raises(DataError, match=whole("class 'bad' has no in-vocabulary words")):
            train_msm(corpus, ortho_table)

    def test_duplicates_do_not_change_model(self, ortho_table):
        plain = Corpus([Document("c0", ("w0_0", "w0_1")),
                        Document("c1", ("w1_0",))])
        doubled = Corpus([Document("c0", ("w0_0", "w0_1", "w0_0", "w0_1")),
                          Document("c1", ("w1_0", "w1_0"))])
        a = train_msm(plain, ortho_table)
        b = train_msm(doubled, ortho_table)
        for label in a.classes:
            assert max_abs(projector(a.subspaces[label])
                           - projector(b.subspaces[label])) < PROJECTOR_TOL

    def test_class_dim_policy_caps_by_rank(self, ortho_table, ortho_corpus):
        model = train_msm(ortho_corpus, ortho_table, class_dim=50)
        assert model.subspaces["c0"].dimension == 3
        assert model.subspaces["c1"].dimension == 3


class TestTrainTfmsm:
    def test_single_occurrences_reduce_to_msm(self, ortho_table):
        corpus = Corpus([Document("c0", ("w0_0", "w0_1")),
                         Document("c0", ("w0_2",)),
                         Document("c1", ("w1_0", "w1_1"))])
        plain = train_msm(corpus, ortho_table)
        weighted = train_tfmsm(corpus, ortho_table)
        for label in plain.classes:
            assert max_abs(projector(plain.subspaces[label])
                           - projector(weighted.subspaces[label])) < PROJECTOR_TOL

    def test_dominant_word_aligns_first_direction(self, ortho_table):
        docs = [Document("c0", ("w0_0",) * 100 + ("w0_1", "w0_2")),
                Document("c1", ("w1_0",))]
        model = train_tfmsm(Corpus(docs), ortho_table, class_dim=1)
        first = model.subspaces["c0"].basis[:, 0]
        target = ortho_table.vector("w0_0")
        angle = np.arccos(np.clip(abs(first @ target), -1.0, 1.0))
        assert angle <= 1e-3

    def test_empty_class_errors(self, ortho_table):
        corpus = Corpus([Document("c0", ()), Document("c1", ("w1_0",))])
        with pytest.raises(DataError, match=whole("class 'c0' has no in-vocabulary words")):
            train_tfmsm(corpus, ortho_table)


class TestPredictSubspace:
    def test_exact_training_words_score_one(self, ortho_table, ortho_corpus):
        model = train_msm(ortho_corpus, ortho_table)
        pred = model.predict(("w0_0", "w0_1", "w0_2"), ortho_table)
        assert pred.label == "c0"
        assert pred.scores[0] == pytest.approx(1.0)

    def test_orthogonal_query_ties_to_first_class(self, ortho_corpus):
        table = orthogonal_table(2, 3, extra_dims=2)
        # give the query words their own axes
        words = list(table.words) + ["q_0", "q_1"]
        rows = np.vstack([np.stack([table.vector(w) for w in table.words]),
                          np.eye(8)[6:], ])
        table = EmbeddingTable(words, rows)
        model = train_msm(ortho_corpus, table)
        pred = model.predict(("q_0", "q_1"), table)
        assert pred.tie
        assert pred.label == "c0"
        np.testing.assert_allclose(pred.scores, [0.0, 0.0], atol=1e-15)

    def test_single_unique_word(self, ortho_table, ortho_corpus):
        model = train_msm(ortho_corpus, ortho_table)
        pred = model.predict(("w1_2",), ortho_table)
        assert pred.label == "c1"
        assert not pred.tie

    def test_degenerate_queries(self, ortho_table, ortho_corpus):
        model = train_msm(ortho_corpus, ortho_table)
        with pytest.raises(DegenerateQueryError):
            model.predict((), ortho_table)
        with pytest.raises(DegenerateQueryError):
            model.predict(("not-a-word",), ortho_table)

    def test_query_dim_and_angle_count_policies(self, ortho_table, ortho_corpus):
        model = train_msm(ortho_corpus, ortho_table)
        query = ("w0_0", "w0_1", "w1_0")
        full = model.predict(query, ortho_table)
        model.query_dim = 1
        capped = model.predict(query, ortho_table)
        assert full.scores.shape == capped.scores.shape
        model.query_dim, model.angle_count = None, 1
        one_angle = model.predict(query, ortho_table)
        assert np.all(one_angle.scores >= full.scores - 1e-12)

    def test_tfmsm_prediction_uses_document_counts(self, ortho_table):
        corpus = Corpus([Document("c0", ("w0_0", "w0_1", "w0_2")),
                         Document("c1", ("w1_0", "w1_1", "w1_2"))])
        model = train_tfmsm(corpus, ortho_table, class_dim=1)
        # heavy repetition of a c1 word must pull the query toward c1
        model.query_dim = 1
        pred = model.predict(("w1_0",) * 50 + ("w0_0",), ortho_table)
        assert pred.label == "c1"


class TestStackedScorer:
    """One GEMM against the stacked class bases scores like `similarity`."""

    @staticmethod
    def per_class(model, tokens, table, angle_count=None):
        query = query_subspace(tokens, table, model.query_dim, **policies(model))
        out = []
        for label in model.classes:
            sub = model.subspaces[label]
            t = min(sub.dimension, query.dimension, angle_count or sub.dimension)
            out.append(similarity(sub, query, t))
        return np.array(out)

    @pytest.fixture
    def unequal(self):
        # three classes with 2, 5 and 9 distinct words in a 12-d space
        rng = np.random.default_rng(31)
        words = [f"u{i}" for i in range(20)]
        table = EmbeddingTable(words, rng.standard_normal((20, 12)))
        pools = {"a": words[:2], "b": words[2:7], "c": words[7:16]}
        docs = [Document(label, tuple(pool)) for label, pool in pools.items()]
        docs += [Document(label, tuple(rng.choice(pool, size=4)))
                 for label, pool in pools.items() for _ in range(3)]
        return table, Corpus(docs), words, rng

    @pytest.mark.parametrize("trainer", [train_msm, train_tfmsm])
    def test_scores_match_per_class_similarity(self, trainer, unequal, tmp_path):
        table, corpus, words, rng = unequal
        model = trainer(corpus, table)
        assert sorted(model.class_dims) == [2, 5, 9]
        path = tmp_path / "model.npz"
        save_model(model, path)
        for served in (model, load_model(path)):
            for _ in range(30):
                tokens = tuple(rng.choice(words, size=int(rng.integers(1, 15))))
                for angle_count in (None, 1, 3, 12):
                    served.angle_count = angle_count
                    got = served.predict(tokens, table).scores
                    want = self.per_class(served, tokens, table, angle_count)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_stack_layout(self, unequal):
        table, corpus, _, _ = unequal
        model = train_msm(corpus, table)
        for c, label in enumerate(model.classes):
            start, dim = model.class_starts[c], model.class_dims[c]
            np.testing.assert_array_equal(model.stacked_basis[:, start:start + dim],
                                          model.subspaces[label].basis)
        assert model.stacked_basis.shape == (12, int(model.class_dims.sum()))


def _random_setup(seed=11, dim=8, n_words=30):
    """Random ``dim``-dim table over ``n_words`` words and a 3-class corpus."""
    rng = np.random.default_rng(seed)
    words = [f"v{i}" for i in range(n_words)]
    table = EmbeddingTable(words, rng.standard_normal((n_words, dim)))
    corpus = Corpus([Document(f"c{i % 3}", tuple(rng.choice(words, size=9).tolist()))
                     for i in range(12)])
    return rng, words, table, corpus


class TestQueryPrefix:
    """The query served at a dim is the prefix of the query fitted at a larger cap,
    and a fit capped at that dim agrees with it to roundoff."""

    # 3 and 6 distinct words: the Gram route below the 8-dim ambient space;
    # 20: the p <= N route at ambient rank
    @pytest.mark.parametrize("trainer", [train_msm, train_tfmsm])
    @pytest.mark.parametrize("distinct", [3, 6, 20])
    def test_prefix_is_bitwise_the_smaller_fit(self, trainer, distinct):
        rng, words, table, corpus = _random_setup()
        model = trainer(corpus, table)
        tokens = rng.choice(words[:distinct], size=3 * distinct).tolist() + words[:distinct]
        capped = query_subspace(tokens, table, 200, **policies(model))
        for q in range(1, capped.dimension + 2):
            reference = query_by_full_solve(tokens, table, q, **policies(model))
            prefix = capped.truncated(min(q, capped.dimension))
            assert prefix.basis.tobytes() == reference.basis.tobytes()
            assert prefix.spectrum.tobytes() == reference.spectrum.tobytes()
            fitted = query_subspace(tokens, table, q, **policies(model))
            assert fitted.dimension == reference.dimension
            assert max_abs(projector(fitted) - projector(reference)) <= 1e-12

    @pytest.mark.parametrize("trainer", [train_msm, train_tfmsm])
    @pytest.mark.parametrize("query_dim,angle_count", [
        (None, None), (1, None), (3, None), (3, 2), (None, 1)])
    def test_predict_is_predict_query_of_query_subspace(self, trainer, query_dim,
                                                        angle_count):
        rng, words, table, corpus = _random_setup()
        model = trainer(corpus, table, 4)
        model.query_dim, model.angle_count = query_dim, angle_count
        for _ in range(5):
            tokens = rng.choice(words + ["oov"], size=7).tolist()
            got = model.predict(tokens, table)
            want = model.predict_query(query_subspace(tokens, table, query_dim, **policies(model)))
            assert (got.label, got.tie) == (want.label, want.tie)
            assert got.scores.tobytes() == want.scores.tobytes()

    @pytest.mark.parametrize("trainer", [train_msm, train_tfmsm])
    @pytest.mark.parametrize("query_dim,angle_count", [(1, None), (3, None), (3, 2)])
    def test_predict_query_cuts_a_wider_query(self, trainer, query_dim, angle_count):
        rng, words, table, corpus = _random_setup()
        model = trainer(corpus, table, 4)
        model.query_dim, model.angle_count = query_dim, angle_count
        for _ in range(5):
            query = query_subspace(rng.choice(words, size=9).tolist(), table,
                                   **policies(model))
            assert query.dimension > query_dim
            got = model.predict_query(query)
            want = model.predict_query(query.truncated(query_dim))
            assert (got.label, got.tie) == (want.label, want.tie)
            assert got.scores.tobytes() == want.scores.tobytes()


class TestSimilarityAverage:
    def make_table(self):
        return EmbeddingTable(["a", "b", "c"], np.eye(3))

    def test_identical_singletons(self):
        table = self.make_table()
        model = train_sa(Corpus([Document("c0", ("a",)),
                                 Document("c1", ("b",))]), table)
        pred = model.predict(("a",), table)
        assert pred.scores[0] == pytest.approx(1.0)
        assert pred.scores[1] == pytest.approx(0.0)
        assert pred.label == "c0"

    def test_half_overlap(self):
        table = self.make_table()
        model = train_sa(Corpus([Document("c0", ("a", "b")),
                                 Document("c1", ("c",))]), table)
        # mean pairwise inner product between {a, b} and {a}: (1 + 0) / 2
        pred = model.predict(("a",), table)
        assert pred.scores[0] == pytest.approx(0.5)

    def test_repeated_words_counted_once(self):
        table = self.make_table()
        once = train_sa(Corpus([Document("c0", ("a", "b")),
                                Document("c1", ("c",))]), table)
        many = train_sa(Corpus([Document("c0", ("a", "a", "b", "b", "a")),
                                Document("c1", ("c", "c"))]), table)
        np.testing.assert_allclose(once.sums, many.sums)
        np.testing.assert_array_equal(once.counts, many.counts)

    def test_degenerate_query(self):
        table = self.make_table()
        model = train_sa(Corpus([Document("c0", ("a",)),
                                 Document("c1", ("b",))]), table)
        with pytest.raises(DegenerateQueryError):
            model.predict(("zzz",), table)

    def test_non_unit_vectors_are_normalized(self):
        table = EmbeddingTable(["a", "b"], np.array([[10.0, 0.0], [0.0, 0.2]]))
        model = train_sa(Corpus([Document("c0", ("a",)),
                                 Document("c1", ("b",))]), table)
        pred = model.predict(("a",), table)
        assert pred.scores[0] == pytest.approx(1.0)


class TestPredictionContract:
    def test_argmax_invariance_under_positive_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            scores = rng.random(5)
            base = make_prediction(("a", "b", "c", "d", "e"), scores)
            scaled = make_prediction(("a", "b", "c", "d", "e"), scores * 17.5)
            shifted = make_prediction(("a", "b", "c", "d", "e"), scores + 3.0)
            assert base.label == scaled.label == shifted.label

    def test_tie_flag_and_first_class(self):
        pred = make_prediction(("x", "y"), np.array([2.0, 2.0]))
        assert pred.tie and pred.label == "x"

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError, match=whole("prediction scores must be finite")):
            make_prediction(("x",), np.array([np.nan]))

    def test_non_finite_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match=whole("prediction scores must be finite")):
            make_prediction(("x", "y"), np.array([np.inf, 0.0]))


class TestDeterminismAndRoundtrip:
    def test_training_is_bit_reproducible(self, ortho_table, ortho_corpus):
        a = train_msm(ortho_corpus, ortho_table)
        b = train_msm(ortho_corpus, ortho_table)
        for label in a.classes:
            np.testing.assert_array_equal(a.subspaces[label].basis,
                                          b.subspaces[label].basis)

    def test_subspace_model_roundtrip(self, tmp_path, ortho_table, ortho_corpus):
        model = train_tfmsm(ortho_corpus, ortho_table, class_dim=2)
        model.query_dim = 5
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        assert again.strategy == "tfmsm"
        assert again.classes == model.classes
        assert again.query_dim == 5
        query = ("w0_0", "w1_1")
        np.testing.assert_array_equal(
            model.predict(query, ortho_table).scores,
            again.predict(query, ortho_table).scores,
        )

    def test_sa_model_roundtrip(self, tmp_path, ortho_table, ortho_corpus):
        model = train_sa(ortho_corpus, ortho_table)
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        assert isinstance(again, SimilarityAverageModel)
        np.testing.assert_array_equal(model.sums, again.sums)
