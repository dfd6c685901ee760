import csv
import dataclasses
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    FUZZ,
    labels_per_document,
    lsa_fold_by_argmax,
    orthogonal_table,
    report_fitting_queries_per_fold,
    shared_centre_corpus,
    shared_vocabulary_corpus,
    spectrum_by_eigvalsh,
    subspace_fold_by_class_loop,
    svm_fold_by_argmax,
    svm_fold_per_reg,
    synth_corpus,
    whole,
)
from wordspace import classifiers, cli, evaluation, lsa, svm
from wordspace.bayes import train_mnb, train_mvb
from wordspace.classifiers import class_vectors
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable
from wordspace.features import feature_matrix, fit_feature_spec
from wordspace.lsa import train_lsa
from wordspace.model_io import save_model
from wordspace.subspace import unit_columns
from wordspace.svm import train_svm
from wordspace.errors import DataError, DegenerateTestError, NumericalError, WordspaceError
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


def _choose(name, hits, grids=None):
    """The ``params`` `_fit_fold` keeps when strategy ``name``'s selector
    counts ``hits`` on the grid `_grid` resolves from ``grids``."""
    hits = np.asarray(hits, dtype=np.int64)
    fitted = object()
    entry = dataclasses.replace(
        STRATEGIES[name], fit=lambda *args: fitted,
        select=lambda fit, *args: (hits, []) if fit is fitted else None,
        at=lambda fit, params: (fit, params))
    corpus = Corpus([Document(f"c{i % 2}", ("w",)) for i in range(10)])
    (fit, at_params), params, _ = _fit_fold(
        entry, corpus, make_folds(corpus, seed=1).folds[0], _grid(entry, grids), None,
        table=None, feature=entry.feature, normalize=True, seed=DEFAULT_SEED)
    assert fit is fitted and at_params is params  # the model is the fit at the kept point
    return params


class TestFirstBestPoint:
    """`_fit_fold` keeps the first maximum of a selector's hits in grid
    order, with the grid's own values."""

    @pytest.mark.parametrize("name", ["sa", "mvb", "mnb"])
    def test_no_grid_selects_no_setting(self, name):
        assert _choose(name, 0) == {}

    def test_a_tie_goes_to_the_first_point(self):
        params = _choose("lsa", [3, 5, 5, 4], {"rank": (40, 20, 10, 30)})
        assert repr(params) == "{'rank': 20}"  # a plain int

    @pytest.mark.parametrize("hits,want", [
        ([[0, 2, 2], [2, 0, 0], [0, 2, 0]], {"class_dim": 50, "query_dim": 5}),
        ([[0, 0, 0], [2, 0, 2], [2, 0, 0]], {"class_dim": 100, "query_dim": 1}),
    ])
    def test_a_2d_tie_goes_to_the_smallest_class_dim_then_query_dim(self, hits, want):
        params = _choose("msm", hits, {"class_dim": (150, 100, 50), "query_dim": (10, 5, 1)})
        assert params == want
        assert list(params) == ["class_dim", "query_dim"]

    @pytest.mark.parametrize("hits,rank", [([0, 0, -1], 1), ([-1, 0, -1], 2),
                                           ([-1, -1, 0], 3)])
    def test_an_infeasible_point_is_never_chosen(self, hits, rank):
        assert _choose("lsa", hits, {"rank": (1, 2, 3)}) == {"rank": rank}

    @pytest.mark.parametrize("regs", [(1e-2, 1e-3), (1e-3, 1e-2)])
    def test_a_reg_tie_goes_to_the_first_reg_as_given(self, regs):
        params = _choose("svm", [4, 4], {"reg": regs})
        assert repr(params) == repr({"reg": regs[0]})  # a plain float

    def test_the_grid_drops_repeats_and_sorts_every_axis_but_reg(self):
        grids = {"class_dim": (2, 1, 2), "query_dim": (5, 1, 2, 1), "rank": (2, 1, 2),
                 "reg": (1e-3, 1e-2, 1e-3)}
        assert _grid(STRATEGIES["msm"], grids) == {"class_dim": (1, 2), "query_dim": (1, 2, 5)}
        assert _grid(STRATEGIES["lsa"], grids) == {"rank": (1, 2)}
        assert _grid(STRATEGIES["svm"], grids) == {"reg": (1e-3, 1e-2)}

    def test_svm_trains_each_reg_once(self, monkeypatch):
        corpus = _topic_corpus(3)
        passes = []
        fit = svm.fit_linear_svm

        def counting(*args, regs, **kwargs):
            passes.append(regs)
            return fit(*args, regs=regs, **kwargs)

        monkeypatch.setattr(svm, "fit_linear_svm", counting)
        report = run_experiment(corpus, "svm", make_folds(corpus, seed=3),
                                grids={"reg": (1e-3, 1e-2, 1e-3, 1e-2)})
        assert passes == [(1e-3, 1e-2)] * len(report.accuracies)


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
def selection_folds(draw, strategy):
    """``(feature, normalize, corpus, fold, table, grids)`` of a drawn
    msm, tfmsm, lsa or svm fold whose test split is empty.  The table
    has 3-10 words in 2-5 dims, with small integer components (exact
    ties between classes) or Gaussian ones.  Each of the 2-4 classes has
    training documents of table words; the validation documents may
    hold an out-of-vocabulary word, and one holds nothing else.  One
    more document stands in both splits under c0 and under c1, so its
    scores tie and one of its copies is wrong at every point.  The
    dimension and rank axes have 1-4 values, repeats allowed and
    unsorted, that run past the fold's caps, where points tie; the reg
    axis has 1-4 distinct strengths in drawn order."""
    feature = ("w2v" if strategy in ("msm", "tfmsm")
               else draw(st.sampled_from(("binbow", "tfidfbow", "w2v"))))
    dim, n_words = draw(st.integers(2, 5)), draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vectors = rng.integers(-2, 3, size=(n_words, dim)).astype(np.float64)
        vectors[~vectors.any(axis=1), 0] = 1.0
    else:
        vectors = rng.standard_normal((n_words, dim))
    words = [f"w{i}" for i in range(n_words)]

    def tokens(vocab):
        return tuple(vocab[t] for t in draw(st.lists(st.integers(0, len(vocab) - 1),
                                                     min_size=1, max_size=5)))

    n_classes = draw(st.integers(2, 4))
    train = [Document(f"c{i % n_classes}", tokens(words))
             for i in range(draw(st.integers(n_classes, 3 * n_classes)))]
    val_docs = [Document(f"c{draw(st.integers(0, n_classes - 1))}", tokens(words + ["oov"]))
                for _ in range(draw(st.integers(1, 12)))]
    val_docs.insert(draw(st.integers(0, len(val_docs))), Document("c0", ("oov",)))
    shared = tokens(words)
    for docs in (train, val_docs):
        for label in ("c0", "c1"):
            docs.insert(draw(st.integers(0, len(docs))), Document(label, shared))
    grids = {axis: tuple(draw(st.lists(st.integers(1, top), min_size=1, max_size=4)))
             for axis, top in (("class_dim", 6), ("query_dim", 6), ("rank", 8))}
    grids["reg"] = tuple(draw(st.lists(st.sampled_from((1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)),
                                       min_size=1, max_size=4, unique=True)))
    corpus = Corpus(train + val_docs)
    fold = Fold(np.arange(len(train)), np.arange(len(train), len(corpus)), np.arange(0))
    return feature, draw(st.booleans()), corpus, fold, EmbeddingTable(words, vectors), grids


SELECTORS_BY_ARGMAX = {"msm": subspace_fold_by_class_loop,
                       "tfmsm": subspace_fold_by_class_loop,
                       "lsa": lsa_fold_by_argmax, "svm": svm_fold_by_argmax}


def _outcome(call, *args, **kwargs):
    """``call``'s result, or the type and message of the `WordspaceError` it raised."""
    try:
        return call(*args, **kwargs)
    except WordspaceError as err:
        return type(err), str(err)


class TestSelectionParity:
    """`_fit_fold` selects each fold's point, and builds its model, as each
    selector did with its own argmax (the subspace one scoring every class
    in a loop, whose hit counts the selector returns bitwise)."""

    @pytest.mark.parametrize("strategy", sorted(SELECTORS_BY_ARGMAX))
    @FUZZ
    @given(data=st.data())
    def test_first_best_point_equals_the_selectors_own_argmax(self, strategy, data):
        feature, normalize, corpus, fold, table, grids = data.draw(selection_folds(strategy))
        entry = STRATEGIES[strategy]
        grid = _grid(entry, grids)
        queries = (_fit_queries(corpus, table, strategy, normalize, max(grid["query_dim"]))
                   if "query_dim" in grid else None)
        val_docs = [corpus.documents[i] for i in fold.validation]
        val_queries = None if queries is None else [queries[i] for i in fold.validation]
        got = _outcome(_fit_fold, entry, corpus, fold, grid, queries, table=table,
                       feature=feature, normalize=normalize, seed=DEFAULT_SEED)
        want = _outcome(SELECTORS_BY_ARGMAX[strategy], entry, corpus.subset(fold.train),
                        val_docs, val_queries, table, grids, feature, normalize,
                        DEFAULT_SEED)
        if isinstance(want[0], type):  # both refuse the fold alike
            assert got == want
            return
        (model, params, notes), (want_model, want_params, want_notes) = got, want[:3]
        assert repr(params) == repr(want_params)  # plain ints and floats
        assert notes == want_notes
        (hyper, arrays), (want_hyper, want_arrays) = model.container(), want_model.container()
        assert repr(hyper) == repr(want_hyper)
        assert arrays.keys() == want_arrays.keys()
        for name, array in arrays.items():
            assert np.asarray(array).tobytes() == np.asarray(want_arrays[name]).tobytes()
        if strategy in ("msm", "tfmsm"):
            full = entry.fit(corpus.subset(fold.train), table, feature, normalize, grid, {})
            hits, _ = entry.select(full, grid, val_docs, val_queries, table)
            want_hits = want[3]
            assert (hits.dtype, hits.shape) == (want_hits.dtype, want_hits.shape)
            assert hits.tobytes() == want_hits.tobytes()


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


WORDS = tuple(f"w{i}" for i in range(6))
UNSEEN = ("u0", "u1")  # in neither the table nor a training vocabulary


@st.composite
def baseline_test_splits(draw):
    """``(train corpus, test documents, table)`` of a drawn baseline fold.
    2-3 classes over six words, with one document repeated under every
    class (exact ties).  The test documents always include one with no
    tokens and one of unseen words only (an lsa zero projection), and
    others of table and unseen words: their exact cosines often tie, so
    the rounding decides (near-ties for lsa).  Word vectors have small
    components, and some copy another word's vector a few ulps apart
    (near-ties for w2v)."""
    classes = [f"c{j}" for j in range(draw(st.integers(2, 3), label="classes"))]
    tokens = st.lists(st.sampled_from(WORDS), max_size=5)
    shared = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5), label="shared")
    train = [Document(label, words) for label, words in
             draw(st.lists(st.tuples(st.sampled_from(classes), tokens), max_size=10))]
    train += [Document(label, shared) for label in classes]
    test = [Document("c0", words) for words in draw(st.lists(
        st.lists(st.sampled_from(WORDS + UNSEEN), max_size=6), min_size=1, max_size=8))]
    test += [Document("c0", ()), Document("c0", UNSEEN[:1])]
    vectors = np.array(draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                              min_size=3, max_size=3),
                                     min_size=len(WORDS), max_size=len(WORDS))))
    vectors[~vectors.any(axis=1), 0] = 1.0
    for i, j, ulps in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                              st.integers(1, 4)), max_size=3)):
        vectors[i] = vectors[j] + ulps * np.spacing(vectors[j])
    return Corpus(train), test, EmbeddingTable(list(WORDS), vectors)


def _baseline_models(train, table, rank, reg):
    """mvb and mnb, and lsa and svm with each of binbow, tfidfbow and w2v."""
    models = [train_mvb(train), train_mnb(train)]
    for feature in ("binbow", "tfidfbow", "w2v"):
        spec = fit_feature_spec(feature, train, table)
        models += [train_lsa(train, spec, rank, table),
                   train_svm(train, spec, table, reg=reg, epochs=3, seed=rank)]
    return models


# each doctored model scores some test documents non-finite; the message
# is the per-document path's
DOCTORED = {
    "mvb": (lambda m: setattr(m, "_table", np.full_like(m._table, np.nan)),
            "prediction scores must be finite"),
    "mnb": (lambda m: setattr(m, "_table", np.full_like(m._table, np.inf)),
            "prediction scores must be finite"),
    # every row is NaN throughout, which only an lsa model may call unclassifiable
    "svm": (lambda m: setattr(m, "offsets", np.full_like(m.offsets, np.nan)),
            "prediction scores must be finite"),
    # the squared projection norms overflow
    "lsa": (lambda m: setattr(m, "basis", np.full_like(m.basis, 1e300)),
            "lsa query projection is not finite"),
}
DOCS_TXT = ["grain wheat corn harvest", "earn profit dividend", "grain corn grain",
            "earn shares profit earn"] * 6


class TestBaselineTestSplitIsOneProduct:
    """mvb, mnb, lsa and svm label a fold's test split with one product,
    as each document's `predict` labelled it."""

    @FUZZ
    @given(baseline_test_splits(), st.integers(1, 4), st.sampled_from([1e-1, 1e-3]))
    @example((Corpus([Document("c0", ("w0",)), Document("c1", ("w1",)),
                      Document("c0", ("w0", "w1")), Document("c1", ("w0", "w1"))]),
              [Document("c0", words) for words in
               [("w0", "w1"), ("w1", "w0"), ("w0",), (), ("u0",), ("w2",), ("u0", "w1")]],
              EmbeddingTable(list(WORDS), np.eye(6)[:, :3] + 1.0)),
             2, 1e-1)                           # exact and rounded ties
    def test_labels_equal_the_per_document_path(self, case, rank, reg):
        train, test_docs, table = case
        for model in _baseline_models(train, table, rank, reg):
            want = labels_per_document(model, test_docs, table)
            got = evaluation._row_labels(model, feature_matrix(model.spec, test_docs, table))
            assert list(got) == want, (model.strategy, model.spec.name)

    def test_lsa_tie_takes_the_first_class_and_zero_projection_none(self):
        train = Corpus([Document("c0", ("w0",)), Document("c1", ("w0",))])
        spec = fit_feature_spec("binbow", train)
        model = train_lsa(train, spec, 1)
        feats = feature_matrix(spec, [Document("c0", ("w0",)), Document("c0", ("u0",))])
        [tie, zero] = model.decision_matrix(feats)
        assert tie[0] == tie[1] and np.isnan(zero).all()
        assert list(evaluation._row_labels(model, feats)) == ["c0", None]

    @pytest.mark.parametrize("strategy", ["mvb", "mnb", "lsa", "svm"])
    def test_reports_equal_the_per_document_path(self, strategy):
        """Every fold's accuracy and unclassifiable count, with a test
        document of no tokens and one of unseen words only."""
        corpus = Corpus([Document(line.split()[0], tuple(line.split()[1:]))
                         for line in DOCS_TXT + ["earn", "grain u0 u1"]])
        plan = make_folds(corpus, seed=DEFAULT_SEED)
        grid = _grid(STRATEGIES[strategy], {"rank": (1, 2)})
        report = run_experiment(corpus, strategy, plan, grids={"rank": (1, 2)})
        for k, fold in enumerate(plan.folds):
            model, _, _ = _fit_fold(STRATEGIES[strategy], corpus, fold, grid, None,
                                    table=None, feature=STRATEGIES[strategy].feature,
                                    normalize=True, seed=DEFAULT_SEED)
            test_docs = [corpus.documents[i] for i in fold.test]
            want = labels_per_document(model, test_docs)
            assert report.unclassifiable[k] == want.count(None)
            assert report.accuracies[k] == sum(
                p == d.label for p, d in zip(want, test_docs)) / len(test_docs)

    @pytest.mark.parametrize("strategy", sorted(DOCTORED))
    def test_non_finite_scores_fail_as_per_document(self, strategy):
        doctor, message = DOCTORED[strategy]
        corpus = Corpus([Document(line.split()[0], tuple(line.split()[1:]))
                         for line in DOCS_TXT + ["earn"]])
        fold = make_folds(corpus, seed=DEFAULT_SEED).folds[0]
        grid = _grid(STRATEGIES[strategy], {"rank": (1, 2)})
        model, _, _ = _fit_fold(STRATEGIES[strategy], corpus, fold, grid, None, table=None,
                                feature=STRATEGIES[strategy].feature, normalize=True,
                                seed=DEFAULT_SEED)
        doctor(model)
        docs = list(corpus.documents)
        with pytest.raises(NumericalError, match=whole(message)) as per_document:
            labels_per_document(model, docs)
        with pytest.raises(NumericalError, match=whole(message)) as batched:
            evaluation._row_labels(model, feature_matrix(model.spec, docs))
        assert type(batched.value) is type(per_document.value)

    @pytest.mark.parametrize("strategy", sorted(DOCTORED))
    def test_non_finite_scores_exit_4_through_the_cli(self, strategy, monkeypatch,
                                                      tmp_path, capsys):
        doctor, message = DOCTORED[strategy]
        entry = STRATEGIES[strategy]

        def at(fitted, params):
            model = entry.at(fitted, params)
            doctor(model)
            return model

        monkeypatch.setitem(STRATEGIES, strategy, dataclasses.replace(entry, at=at))
        path = tmp_path / "docs.txt"
        path.write_text("".join(f"{line}\n" for line in DOCS_TXT + ["earn"]))
        grid = ["--grid-rank", "1,2"] if strategy == "lsa" else []
        assert cli.main(["eval", "--strategy", strategy, *grid, "--corpus", str(path),
                         "--out", str(tmp_path / "r")]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["docs.txt"]


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
