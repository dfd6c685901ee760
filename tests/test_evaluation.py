import csv
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    FUZZ,
    orthogonal_table,
    report_fitting_queries_per_fold,
    shared_centre_corpus,
    shared_vocabulary_corpus,
    spectrum_by_eigvalsh,
    subspace_fold_by_class_loop,
    svm_fold_per_reg,
    synth_corpus,
    whole,
)
from wordspace import classifiers, evaluation, lsa
from wordspace.classifiers import class_vectors
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable
from wordspace.features import fit_feature_spec
from wordspace.lsa import train_lsa
from wordspace.model_io import save_model
from wordspace.subspace import unit_columns
from wordspace.errors import DataError, DegenerateTestError
from wordspace.evaluation import (
    DEFAULT_SEED,
    STRATEGIES,
    Fold,
    _fit_fold,
    _fit_queries,
    _grid,
    make_folds,
    paired_ttest,
    run_experiment,
    spectrum_report,
)


@pytest.fixture(scope="module")
def four_class_setup():
    table = orthogonal_table(4, 4)
    corpus = synth_corpus(4, 4, docs_per_class=10, tokens_per_doc=4,
                          rng=np.random.default_rng(100))
    return table, corpus


class TestMakeFolds:
    def test_proportions(self):
        corpus = Corpus([Document(f"c{i % 3}", ("x",)) for i in range(100)])
        plan = make_folds(corpus, seed=1)
        assert len(plan.folds) == 10
        for fold in plan.folds:
            assert len(fold.train) == 60
            assert len(fold.validation) == 20
            assert len(fold.test) == 20

    def test_proportions_within_one_document(self):
        for n in (10, 13, 53, 77):
            corpus = Corpus([Document("c", ("x",)) for _ in range(n)])
            plan = make_folds(corpus, seed=2)
            for fold in plan.folds:
                assert abs(len(fold.train) - 0.6 * n) <= 1
                assert abs(len(fold.validation) - 0.2 * n) <= 1
                assert abs(len(fold.test) - 0.2 * n) <= 1

    def test_partition(self):
        corpus = Corpus([Document("c", ("x",)) for _ in range(37)])
        plan = make_folds(corpus, seed=3)
        for fold in plan.folds:
            merged = np.concatenate([fold.train, fold.validation, fold.test])
            assert sorted(merged.tolist()) == list(range(37))

    def test_deterministic(self):
        corpus = Corpus([Document("c", ("x",)) for _ in range(25)])
        a = make_folds(corpus, seed=9)
        b = make_folds(corpus, seed=9)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa.train, fb.train)
            np.testing.assert_array_equal(fa.test, fb.test)

    def test_folds_are_rerandomized(self):
        corpus = Corpus([Document("c", ("x",)) for _ in range(40)])
        plan = make_folds(corpus, seed=4)
        assert any(
            plan.folds[0].train.tolist() != f.train.tolist()
            for f in plan.folds[1:]
        )

    def test_too_small(self):
        corpus = Corpus([Document("c", ("x",)) for _ in range(9)])
        with pytest.raises(DataError):
            make_folds(corpus, seed=1)


def _select(name, corpus, fold, grids, table=None):
    """``(params, notes)`` of one fold's selection for strategy ``name``."""
    strategy = STRATEGIES[name]
    grid = _grid(strategy, grids)
    queries = (_fit_queries(corpus, table, name, True, max(grid["query_dim"]))
               if "query_dim" in grid else None)
    _, params, notes = _fit_fold(strategy, corpus, fold, grid, queries, table=table,
                                 feature=strategy.feature, normalize=True,
                                 seed=DEFAULT_SEED)
    return params, notes


class TestSelectHyperparams:
    def test_single_grid_point(self, four_class_setup):
        table, corpus = four_class_setup
        plan = make_folds(corpus, seed=5)
        params, notes = _select(
            "msm", corpus, plan.folds[0],
            {"class_dim": (3,), "query_dim": (2,)}, table=table,
        )
        assert params == {"class_dim": 3, "query_dim": 2}
        assert notes == []

    def test_tie_prefers_smaller_dimensions(self, four_class_setup):
        # every grid value exceeds the fixture's rank cap of 4, so all
        # four cells collapse to identical scores: the smallest nominal
        # pair must win the tie
        table, corpus = four_class_setup
        plan = make_folds(corpus, seed=5)
        params, _ = _select(
            "msm", corpus, plan.folds[0],
            {"class_dim": (100, 50), "query_dim": (200, 25)}, table=table,
        )
        assert params == {"class_dim": 50, "query_dim": 25}

    def test_lsa_infeasible_points_skipped(self):
        corpus = Corpus([Document("c0", ("a", "b")), Document("c1", ("c",)),
                         Document("c0", ("a",)), Document("c1", ("c", "b")),
                         Document("c0", ("b",)), Document("c1", ("c",)),
                         Document("c0", ("a", "b")), Document("c1", ("c",)),
                         Document("c0", ("a",)), Document("c1", ("b",))])
        plan = make_folds(corpus, seed=6)
        params, notes = _select(
            "lsa", corpus, plan.folds[0], {"rank": (1, 50)},
        )
        assert params == {"rank": 1}
        assert any("rank=50" in n for n in notes)

    def test_all_points_infeasible(self):
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("b",))] * 5)
        plan = make_folds(corpus, seed=7)
        with pytest.raises(DataError,
                           match=whole("every grid rank exceeds the numerical rank 2")):
            _select("lsa", corpus, plan.folds[0], {"rank": (99,)})


def _topic_corpus(seed, n_docs=60, n_classes=4, words_per_class=12, shared=10):
    """Documents mixing class topic words with shared words, repeats allowed."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        c = i % n_classes
        pool = [f"t{c}_{j}" for j in range(words_per_class)] + [f"s{j}" for j in range(shared)]
        tokens = rng.choice(pool, size=rng.integers(3, 12)).tolist()
        docs.append(Document(f"c{c}", tuple(tokens)))
    return Corpus(docs)


def _sign_aligned(basis, reference):
    """``basis`` with each column's sign flipped to agree with ``reference``."""
    return np.where(np.sum(basis * reference, axis=0) < 0.0, -1.0, 1.0)


def _repeated_corpus(n_docs=150):
    """Twelve distinct documents, of four classes and distinct lengths, over
    and over: every fold's term-document matrix has numerical rank 12."""
    docs = [Document(f"c{j % 4}", tuple(f"w{j}_{i}" for i in range(j + 2)) + (f"s{j % 3}",))
            for j in range(12)]
    return Corpus([docs[i % 12] for i in range(n_docs)])


class TestLsaFoldIsOneFit:
    """Each fold factorizes its training matrix once, and its model at the
    selected rank equals `train_lsa` at that rank."""

    @staticmethod
    def _check_fold(monkeypatch, corpus, fold, feature, grid, table=None):
        calls = []
        solve = lsa.truncated_svd
        monkeypatch.setattr(lsa, "truncated_svd",
                            lambda X, k: calls.append(k) or solve(X, k))
        model, params, _ = _fit_fold(STRATEGIES["lsa"], corpus, fold, {"rank": grid},
                                     None, table=table, feature=feature,
                                     normalize=True, seed=1)
        assert len(calls) == 1
        train_c = corpus.subset(fold.train)
        ref = train_lsa(train_c, fit_feature_spec(feature, train_c, table), params["rank"],
                        table)
        assert model.rank == ref.rank == params["rank"]
        signs = _sign_aligned(model.basis, ref.basis)
        np.testing.assert_allclose(model.sigma, ref.sigma, rtol=1e-10)
        np.testing.assert_allclose(model.basis * signs, ref.basis, atol=1e-9)
        np.testing.assert_allclose(model.doc_coords * signs, ref.doc_coords, atol=1e-9)
        return params["rank"]

    # selections 10 and 4 of an ARPACK fit at rank 30; for w2v, 8-dim
    # vectors cap the rank at 8 (the dense SVD cuts its one fit there)
    @pytest.mark.parametrize("feature,grid,selected", [
        ("binbow", (1, 2, 4, 10, 20, 30), 10),
        ("tfidfbow", (1, 2, 4, 10, 20, 30), 4),
        ("w2v", (1, 2, 3, 5, 36), 3),
    ])
    def test_selected_model_equals_train_lsa(self, monkeypatch, feature, grid, selected):
        seed = 1
        corpus = _topic_corpus(seed)
        rng = np.random.default_rng(seed)
        words = sorted({t for doc in corpus for t in doc.tokens})
        table = EmbeddingTable(words, rng.standard_normal((len(words), 8)))
        fold = make_folds(corpus, seed=seed).folds[0]
        assert self._check_fold(monkeypatch, corpus, fold, feature, grid, table) == selected

    def test_rank_deficient_folds_fit_once(self, monkeypatch):
        # an ARPACK fit at rank 40 of a rank-12 matrix, cut at 12 in every fold
        corpus = _repeated_corpus()
        for fold in make_folds(corpus, seed=1).folds:
            assert self._check_fold(monkeypatch, corpus, fold, "binbow",
                                    (5, 10, 30, 40)) in (5, 10)

    def test_ties_keep_the_smallest_rank(self):
        # two orthogonal classes: every rank of the grid classifies the
        # validation split alike, so the first grid point must win
        docs = [Document("c0", ("a", "b")), Document("c1", ("x", "y"))] * 10
        corpus = Corpus(docs)
        params, _ = _select("lsa", corpus, make_folds(corpus, seed=3).folds[0],
                            {"rank": (2, 1)})
        assert params == {"rank": 1}

    def test_svm_ties_keep_the_first_reg_in_grid_order(self):
        docs = [Document("c0", ("a", "b")), Document("c1", ("x", "y"))] * 10
        corpus = Corpus(docs)
        fold = make_folds(corpus, seed=3).folds[0]
        params, _ = _select("svm", corpus, fold, {"reg": (1e-3, 1e-2, 1e-4)})
        assert params == {"reg": 1e-3}


class TestSvmFoldIsOnePass:
    """One batched pass per fold selects the reg, and writes the model
    bytes, that one pass per reg did."""

    @pytest.mark.parametrize("feature,regs,n_classes", [
        ("binbow", (1e-2, 1e-3, 1e-4, 1e-5), 4),
        ("tfidfbow", (1e-4, 1.0, 1e-2), 3),     # unsorted, three classes
        ("tfbow", (1e-3, 1e-5, 1e-3), 5),      # a duplicated reg
        ("w2v", (1e-5, 1e-2), 3),               # dense rows
    ])
    def test_same_selection_and_model_bytes_as_per_reg_passes(
            self, feature, regs, n_classes, tmp_path):
        seed = 2
        corpus = _topic_corpus(seed, n_classes=n_classes)
        words = sorted({t for doc in corpus for t in doc.tokens})
        table = EmbeddingTable(words, np.random.default_rng(seed).standard_normal(
            (len(words), 6)))
        for i, fold in enumerate(make_folds(corpus, seed=seed).folds[:4]):
            model, params, _ = _fit_fold(STRATEGIES["svm"], corpus, fold, {"reg": regs},
                                         None, table=table, feature=feature,
                                         normalize=True, seed=seed)
            want, want_params = svm_fold_per_reg(
                corpus.subset(fold.train), [corpus.documents[j] for j in fold.validation],
                table, regs, feature, True, seed)
            assert params == want_params
            save_model(model, tmp_path / f"got{i}.npz")
            save_model(want, tmp_path / f"want{i}.npz")
            assert (tmp_path / f"got{i}.npz").read_bytes() == \
                (tmp_path / f"want{i}.npz").read_bytes()


@st.composite
def subspace_folds(draw):
    """``(strategy, normalize, train corpus, validation documents, table,
    grid)`` of a drawn msm/tfmsm fold.  The table has 3-10 words in 2-5
    dims, with small integer components (exact ties between classes) or
    Gaussian ones.  Each of the 2-4 classes has training documents of
    table words; the validation documents may hold an out-of-vocabulary
    word, and one holds nothing else.  Each grid axis has 1-4 points."""
    dim, n_words = draw(st.integers(2, 5)), draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vectors = rng.integers(-2, 3, size=(n_words, dim)).astype(np.float64)
        vectors[~vectors.any(axis=1), 0] = 1.0
    else:
        vectors = rng.standard_normal((n_words, dim))
    words = [f"w{i}" for i in range(n_words)]
    n_classes = draw(st.integers(2, 4))
    train = [Document(f"c{i % n_classes}", tuple(
                 words[t] for t in draw(st.lists(st.integers(0, n_words - 1),
                                                 min_size=1, max_size=5))))
             for i in range(draw(st.integers(n_classes, 3 * n_classes)))]
    val_docs = [Document(f"c{draw(st.integers(0, n_classes - 1))}", tuple(
                    (words + ["oov"])[t] for t in draw(st.lists(st.integers(0, n_words),
                                                                min_size=1, max_size=5))))
                for _ in range(draw(st.integers(1, 12)))]
    val_docs.insert(draw(st.integers(0, len(val_docs))), Document("c0", ("oov",)))
    grid = {axis: tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
            for axis in ("class_dim", "query_dim")}
    return (draw(st.sampled_from(("msm", "tfmsm"))), draw(st.booleans()), Corpus(train),
            val_docs, EmbeddingTable(words, vectors), grid)


class TestSubspaceFoldParity:
    """One grid call per validation document selects as the per-class loop did."""

    @FUZZ
    @given(subspace_folds())
    def test_params_and_bases_equal_the_class_loop(self, case):
        strategy, normalize, train_c, val_docs, table, grid = case
        entry = STRATEGIES[strategy]
        queries = _fit_queries(Corpus(val_docs), table, strategy, normalize,
                               max(grid["query_dim"]))
        assert queries.count(None) >= 1
        args = (entry, train_c, val_docs, queries, table, grid, "w2v", normalize,
                DEFAULT_SEED)
        got, got_params, _ = evaluation._subspace_fold(*args)
        want, want_params, _ = subspace_fold_by_class_loop(*args)
        assert got_params == want_params
        (got_hyper, got_arrays), (want_hyper, want_arrays) = got.container(), want.container()
        assert got_hyper == want_hyper
        assert got_arrays.keys() == want_arrays.keys()
        for name, array in got_arrays.items():
            assert np.asarray(array).tobytes() == np.asarray(want_arrays[name]).tobytes()


def _cache_setup(seed=4, dim=8):
    """A topic corpus plus two documents without a table word, and a
    random ``dim``-dimensional table: queries below and at ambient rank."""
    topics = _topic_corpus(seed)
    corpus = Corpus(list(topics) + [Document("c1", ("ghost",)),
                                    Document("c2", ("ghost", "zzz"))])
    words = sorted({t for doc in topics for t in doc.tokens})
    table = EmbeddingTable(words, np.random.default_rng(seed).standard_normal(
        (len(words), dim)))
    return table, corpus


def _ghosts(corpus, indices):
    return [int(i) for i in indices if corpus.documents[i].tokens[0] == "ghost"]


class TestQueryCache:
    """`run_experiment` fits each document's query subspace once per run."""

    @pytest.mark.parametrize("strategy", ["msm", "tfmsm"])
    def test_one_fit_per_corpus_document(self, strategy, monkeypatch):
        table, corpus = _cache_setup()
        plan = make_folds(corpus, seed=5)
        fits, caps = Counter(), set()
        fit = classifiers.query_subspace

        def counting(tokens, table, query_dim=None, **policies):
            fits[id(tokens)] += 1
            caps.add(query_dim)
            return fit(tokens, table, query_dim, **policies)

        monkeypatch.setattr(classifiers, "query_subspace", counting)
        run_experiment(corpus, strategy, plan, table=table, threads=2,
                       grids={"query_dim": (3, 1, 6)})
        assert max(fits.values()) == 1
        assert sum(fits.values()) == len(corpus)
        assert caps == {6}

    @pytest.mark.parametrize("strategy", ["msm", "tfmsm"])
    def test_one_grid_call_per_classifiable_validation_document(self, strategy,
                                                                monkeypatch):
        table, corpus = _cache_setup()
        plan = make_folds(corpus, seed=7)
        calls = []
        grid = evaluation.grid_mean_sq_cosines

        def counting(*args):
            calls.append(args)
            return grid(*args)

        monkeypatch.setattr(evaluation, "grid_mean_sq_cosines", counting)
        run_experiment(corpus, strategy, plan, table=table)
        ghosts = [len(_ghosts(corpus, fold.validation)) for fold in plan.folds]
        assert any(ghosts)
        assert len(calls) == sum(len(fold.validation) for fold in plan.folds) - sum(ghosts)

    @pytest.mark.parametrize("strategy", ["msm", "tfmsm"])
    @pytest.mark.parametrize("grids,normalize,threads", [
        (None, True, 1),
        (None, False, 2),
        ({"class_dim": (5, 2), "query_dim": (3, 1, 6)}, True, 1),
        ({"query_dim": (2, 4)}, True, 2),
    ])
    def test_report_bytes_match_fitting_per_fold(self, strategy, grids, normalize,
                                                 threads):
        table, corpus = _cache_setup()
        plan = make_folds(corpus, seed=6)
        got = run_experiment(corpus, strategy, plan, table=table, grids=grids,
                             normalize=normalize, threads=threads)
        want = report_fitting_queries_per_fold(corpus, strategy, plan, table=table,
                                               grids=grids, normalize=normalize,
                                               threads=threads)
        assert got.to_kv_text() == want.to_kv_text()
        assert got.to_table_text() == want.to_table_text()
        # test queries served below the cached cap: the prefix path is taken
        cap = max((grids or {}).get("query_dim", STRATEGIES[strategy].grid["query_dim"]))
        assert any(p["query_dim"] < cap for p in got.params_per_fold)

    @pytest.mark.parametrize("strategy", ["msm", "tfmsm"])
    def test_degenerate_validation_document_adds_no_hit(self, strategy):
        table, corpus = _cache_setup()
        grid = STRATEGIES[strategy].grid
        fold = next(f for f in make_folds(corpus, seed=7).folds
                    if _ghosts(corpus, f.validation))
        kept = np.array([i for i in fold.validation
                         if i not in _ghosts(corpus, fold.validation)])
        selections = []
        for validation in (fold.validation, kept):
            queries = _fit_queries(corpus, table, strategy, True, max(grid["query_dim"]))
            model, params, _ = _fit_fold(
                STRATEGIES[strategy], corpus, Fold(fold.train, validation, fold.test),
                grid, queries, table=table, feature="w2v", normalize=True,
                seed=DEFAULT_SEED)
            selections.append((params, model.stacked_basis.tobytes()))
        assert selections[0] == selections[1]

    @pytest.mark.parametrize("strategy", ["msm", "tfmsm"])
    def test_degenerate_test_document_is_unclassifiable(self, strategy):
        table, corpus = _cache_setup()
        plan = make_folds(corpus, seed=8)
        report = run_experiment(corpus, strategy, plan, table=table)
        in_test = [len(_ghosts(corpus, fold.test)) for fold in plan.folds]
        assert any(in_test)
        assert report.unclassifiable == in_test
        for acc, n_ghost, fold in zip(report.accuracies, in_test, plan.folds):
            assert acc <= 1.0 - n_ghost / len(fold.test) + 1e-12

    @pytest.mark.parametrize("strategy", ["msm", "tfmsm"])
    def test_list_is_indexed_by_corpus_position(self, strategy):
        table, corpus = _cache_setup()
        queries = _fit_queries(corpus, table, strategy, True, 4)
        assert len(queries) == len(corpus)
        for doc, query in zip(corpus.documents, queries):
            if doc.tokens[0] == "ghost":
                assert query is None
            else:
                assert 1 <= query.dimension <= 4
                want = classifiers.query_subspace(doc.tokens, table, 4,
                                                  strategy=strategy, normalize=True)
                assert query.basis.tobytes() == want.basis.tobytes()


class TestRunExperiment:
    def test_orthogonal_fixture_is_perfect(self, four_class_setup):
        table, corpus = four_class_setup
        plan = make_folds(corpus, seed=DEFAULT_SEED)
        for strategy in ("msm", "tfmsm", "sa", "mnb"):
            report = run_experiment(corpus, strategy, plan, table=table)
            assert report.mean_accuracy == 1.0, strategy
            assert report.std_accuracy == 0.0, strategy
            assert all(u == 0 for u in report.unclassifiable)

    def test_single_class_flagged(self):
        table = orthogonal_table(1, 4)
        corpus = synth_corpus(1, 4, docs_per_class=12, tokens_per_doc=3,
                              rng=np.random.default_rng(8))
        plan = make_folds(corpus, seed=8)
        report = run_experiment(corpus, "mnb", plan)
        assert report.mean_accuracy == 1.0
        assert any("single class" in n for n in report.notes)

    def test_training_error_carries_fold_context(self):
        table = EmbeddingTable(["w0_0"], np.array([[1.0]]))
        docs = [Document("c0", ("w0_0",)) for _ in range(6)]
        docs += [Document("c1", ("missing",)) for _ in range(6)]
        corpus = Corpus(docs)
        plan = make_folds(corpus, seed=9)
        with pytest.raises(DataError, match="fold 0"):
            run_experiment(corpus, "msm", plan, table=table,
                           grids={"class_dim": (1,), "query_dim": (1,)})

    def test_fold_error_keeps_its_class(self):
        # class c1 has no in-vocabulary word in any fold
        table = EmbeddingTable(["w0_0"], np.array([[1.0]]))
        docs = [Document("c0", ("w0_0",)) for _ in range(6)]
        docs += [Document("c1", ("missing",)) for _ in range(6)]
        plan = make_folds(Corpus(docs), seed=9)
        with pytest.raises(DataError, match=whole(
                "fold 0: class 'c1' has no in-vocabulary words")) as err:
            run_experiment(Corpus(docs), "msm", plan, table=table,
                           grids={"class_dim": (1,), "query_dim": (1,)})
        assert type(err.value) is DataError

    def test_lsa_zero_projection_counts_as_error(self):
        # each ghost document's one word is its own, so a test ghost has no
        # training vocabulary word: a zero projection, unclassifiable
        docs = [Document("c0", ("a", "b")) for _ in range(8)]
        docs += [Document("c1", ("c", "d")) for _ in range(7)]
        docs += [Document("c1", (f"ghost{i}",)) for i in range(5)]
        corpus = Corpus(docs)
        plan = make_folds(corpus, seed=11)
        report = run_experiment(corpus, "lsa", plan, grids={"rank": (2,)})
        ghosts_in_test = [
            sum(corpus.documents[i].tokens[0].startswith("ghost") for i in fold.test)
            for fold in plan.folds
        ]
        assert report.unclassifiable == ghosts_in_test
        assert sum(ghosts_in_test) > 0
        for acc, n_ghost, fold in zip(report.accuracies, ghosts_in_test, plan.folds):
            assert acc == pytest.approx(1.0 - n_ghost / len(fold.test))

    def test_unclassifiable_counts_as_error(self):
        # one word is missing from the table, so any test document made
        # of it alone is degenerate and must count against accuracy
        table = EmbeddingTable(["a", "b"], np.eye(2))
        docs = [Document("c0", ("a",)) for _ in range(8)]
        docs += [Document("c1", ("b",)) for _ in range(7)]
        docs += [Document("c1", ("ghost",)) for _ in range(5)]
        corpus = Corpus(docs)
        plan = make_folds(corpus, seed=11)
        report = run_experiment(corpus, "msm", plan, table=table,
                                grids={"class_dim": (1,), "query_dim": (1,)})
        ghosts_in_test = [
            sum(corpus.documents[i].tokens == ("ghost",) for i in fold.test)
            for fold in plan.folds
        ]
        assert report.unclassifiable == ghosts_in_test
        for acc, n_ghost, fold in zip(report.accuracies, ghosts_in_test,
                                      plan.folds):
            assert acc <= 1.0 - n_ghost / len(fold.test) + 1e-12

    def test_thread_count_does_not_change_results(self, four_class_setup):
        table, corpus = four_class_setup
        plan = make_folds(corpus, seed=12)
        a = run_experiment(corpus, "msm", plan, table=table, threads=1)
        b = run_experiment(corpus, "msm", plan, table=table, threads=4)
        np.testing.assert_array_equal(a.accuracies, b.accuracies)

    def test_report_serializations(self, four_class_setup):
        table, corpus = four_class_setup
        plan = make_folds(corpus, seed=13)
        report = run_experiment(corpus, "sa", plan, table=table)
        kv = report.to_kv_text()
        assert "schema=wordspace-eval/1" in kv
        assert f"accuracy.mean={report.mean_accuracy!r}" in kv
        table_text = report.to_table_text()
        assert "mean accuracy" in table_text


class TestSpectrumReport:
    def test_single_repeated_word_class(self):
        table = EmbeddingTable(["a", "z"], np.eye(2))
        corpus = Corpus([Document("c0", ("a", "a", "a")),
                         Document("c1", ("z",))])
        report = spectrum_report(corpus, table)
        np.testing.assert_allclose(report.curves[0], [1.0])
        assert report.cumulative_at(1) == pytest.approx(1.0)

    def test_two_orthonormal_words(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        corpus = Corpus([Document("c0", ("a", "b"))])
        report = spectrum_report(corpus, table)
        np.testing.assert_allclose(report.curves[0], [1.0, 1.0])
        # eigenvalues (0.5, 0.5): half of the variance after one direction
        np.testing.assert_allclose(report.cumulative[0], [0.5, 1.0])
        assert report.cumulative_at(1) == pytest.approx(0.5)

    def test_curves_start_at_one_and_decrease(self):
        rng = np.random.default_rng(14)
        table = EmbeddingTable([f"w{i}" for i in range(20)],
                               rng.standard_normal((20, 7)))
        docs = [Document(f"c{i % 3}",
                         tuple(rng.choice([f"w{i}" for i in range(20)],
                                          size=6).tolist()))
                for i in range(12)]
        report = spectrum_report(Corpus(docs), table)
        for curve in report.curves:
            assert curve[0] == pytest.approx(1.0)
            assert np.all(np.diff(curve) <= 1e-12)

    @pytest.mark.parametrize("dim", [5, 40])  # p <= N for every class; N < p
    def test_matches_the_former_eigensolver(self, dim):
        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(30)]
        table = EmbeddingTable(words, rng.standard_normal((30, dim)))
        corpus = Corpus([Document(f"c{i % 3}", tuple(rng.choice(words, size=8).tolist()))
                         for i in range(24)])
        report = spectrum_report(corpus, table)
        for label, curve, cumulative in zip(corpus.classes, report.curves,
                                            report.cumulative):
            matrix, _ = class_vectors(corpus, table, label)
            assert (matrix.shape[0] <= matrix.shape[1]) == (dim == 5)
            ref = spectrum_by_eigvalsh(unit_columns(matrix))
            assert len(curve) == len(ref) == min(matrix.shape)
            np.testing.assert_allclose(curve, ref / ref[0], rtol=1e-12)
            np.testing.assert_allclose(cumulative, np.cumsum(ref) / np.sum(ref),
                                       rtol=1e-12)

    def test_rank_deficient_class_ends_at_its_rank(self):
        # "a" and "b" have one vector: class c0 has two words but rank 1
        table = EmbeddingTable(["a", "b", "x", "y"],
                               np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0],
                                         [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
        corpus = Corpus([Document("c0", ("a", "b")), Document("c1", ("x", "y"))])
        report = spectrum_report(corpus, table)
        matrix, _ = class_vectors(corpus, table, "c0")
        ref = spectrum_by_eigvalsh(unit_columns(matrix))
        assert len(ref) == 2 and ref[1] <= 1e-15 * ref[0]
        assert report.curves[0].tolist() == [1.0]
        assert report.cumulative[0].tolist() == [1.0]
        np.testing.assert_allclose(report.curves[1], [1.0, 1.0], rtol=1e-12)
        rows = [row.split(",") for row in report.to_csv_text().splitlines()]
        eig, cumvar = rows[0].index("eig_c0"), rows[0].index("cumvar_c0")
        assert [row[eig] for row in rows[1:]] == ["1.0", "0.0"]
        assert [row[cumvar] for row in rows[1:]] == ["1.0", "1.0"]

    def test_csv_layout(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        corpus = Corpus([Document("c0", ("a", "b")), Document("c1", ("b",))])
        text = spectrum_report(corpus, table).to_csv_text()
        header = text.splitlines()[0].split(",")
        assert header[0] == "dim"
        assert "eig_c0" in header and "cumvar_mean" in header

    def test_csv_quotes_labels_with_separators(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        labels = ("x,y", "z", 'q"r')
        corpus = Corpus([Document(label, ("a", "b")) for label in labels])
        text = spectrum_report(corpus, table).to_csv_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert {len(row) for row in rows} == {2 * len(labels) + 4}
        assert rows[0][1:4] == [f"eig_{label}" for label in labels]
        assert text.splitlines()[0].startswith('dim,"eig_x,y",eig_z,"eig_q""r"')


class TestPairedTtest:
    def test_textbook_anchor(self):
        # table value: p(|t| >= 2.262) = 0.05 at 9 degrees of freedom;
        # build differences with mean exactly 2.262 * sd / sqrt(10)
        spread = np.array([1.0] * 5 + [-1.0] * 5)
        diffs = spread + 2.262 * np.std(spread, ddof=1) / np.sqrt(10)
        result = paired_ttest(diffs, np.zeros(10))
        assert result.statistic == pytest.approx(2.262, rel=1e-12)
        assert result.p_value == pytest.approx(0.05, abs=1e-3)

    def test_worked_difference_vector(self):
        diffs = np.array([0.02, 0.00, 0.01, 0.02, 0.01,
                          0.00, 0.02, 0.01, 0.01, 0.02])
        result = paired_ttest(diffs, np.zeros(10))
        want_t = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(10))
        assert result.statistic == pytest.approx(want_t, rel=1e-12)
        assert 0.0 < result.p_value <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        a, b = rng.random(10), rng.random(10)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateTestError):
            paired_ttest(np.ones(10), np.ones(10))
        # an exactly constant difference (0.25 is representable) has
        # zero variance even though the two lists differ
        with pytest.raises(DegenerateTestError):
            paired_ttest(np.arange(10) * 0.5, np.arange(10) * 0.5 - 0.25)
        with pytest.raises(DataError):
            paired_ttest(np.ones(3), np.ones(4))
        with pytest.raises(DataError):
            paired_ttest([1.0], [0.5])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_word_subspace_separates_classes_whose_means_coincide(seed):
    # The paper's claim: a word subspace holds the variability of a class's
    # word vectors.  Here the classes share one mean direction, so sa, which
    # compares mean vectors, is near chance (0.25), and msm and tfmsm are not.
    corpus, table = shared_centre_corpus(np.random.default_rng(seed))
    plan = make_folds(corpus, seed)
    grids = {"class_dim": (5, 10, 20, 40), "query_dim": (1, 2, 5, 10)}
    accuracy = {s: run_experiment(corpus, s, plan, table=table, grids=grids).mean_accuracy
                for s in ("msm", "tfmsm", "sa")}
    assert accuracy["msm"] >= accuracy["sa"] + 0.5
    assert accuracy["tfmsm"] >= accuracy["sa"] + 0.5
    assert accuracy["tfmsm"] >= accuracy["msm"] - 0.01


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_term_frequency_separates_classes_that_share_a_vocabulary(seed):
    # The paper's TF claim: weighting puts word frequency in the subspace.
    # Here every class's training split holds nearly every topic word of
    # every class, so msm's distinct-word subspaces nearly coincide (near
    # chance, 0.25) while tfmsm's frequency-weighted ones stay apart.
    corpus, table = shared_vocabulary_corpus(np.random.default_rng(seed))
    plan = make_folds(corpus, seed)
    grids = {"class_dim": (5, 10, 20, 40), "query_dim": (1, 2, 5, 10)}
    accuracy = {s: run_experiment(corpus, s, plan, table=table, grids=grids).mean_accuracy
                for s in ("msm", "tfmsm")}
    assert accuracy["msm"] <= 0.35
    assert accuracy["tfmsm"] >= accuracy["msm"] + 0.3
