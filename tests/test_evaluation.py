from collections import Counter

import numpy as np
import pytest

from helpers import (
    orthogonal_table,
    report_fitting_queries_per_fold,
    spectrum_by_eigvalsh,
    svm_fold_per_reg,
    synth_corpus,
)
from wordspace import classifiers
from wordspace.classifiers import class_vectors
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable
from wordspace.features import fit_feature_spec
from wordspace.lsa import train_lsa
from wordspace.model_io import save_model
from wordspace.subspace import unit_columns
from wordspace.errors import (
    DataError,
    DegenerateTestError,
    TrainingDataError,
)
from wordspace.evaluation import (
    DEFAULT_SEED,
    STRATEGIES,
    Fold,
    QueryCache,
    _fit_fold,
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
    queries = (QueryCache(corpus, table, max(grid["query_dim"]))
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
        with pytest.raises(TrainingDataError):
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


class TestLsaFoldIsOneFit:
    """The fold's model at the selected rank equals `train_lsa` at that rank."""

    # selections 10 and 4 of an ARPACK fit at rank 30; for w2v, 8-dim
    # vectors cap the rank at 8 (the fold refits there) and the SVD is dense
    @pytest.mark.parametrize("feature,grid,selected", [
        ("binbow", (1, 2, 4, 10, 20, 30), 10),
        ("tfidfbow", (1, 2, 4, 10, 20, 30), 4),
        ("w2v", (1, 2, 3, 5, 36), 3),
    ])
    def test_selected_model_equals_train_lsa(self, feature, grid, selected):
        seed = 1
        corpus = _topic_corpus(seed)
        rng = np.random.default_rng(seed)
        words = sorted({t for doc in corpus for t in doc.tokens})
        table = EmbeddingTable(words, rng.standard_normal((len(words), 8)))
        fold = make_folds(corpus, seed=seed).folds[0]
        model, params, _ = _fit_fold(STRATEGIES["lsa"], corpus, fold, {"rank": grid},
                                     None, table=table, feature=feature,
                                     normalize=True, seed=seed)
        train_c = corpus.subset(fold.train)
        ref = train_lsa(train_c, fit_feature_spec(feature, train_c, table), params["rank"],
                        table)
        assert model.rank == ref.rank == params["rank"] == selected
        signs = _sign_aligned(model.basis, ref.basis)
        np.testing.assert_allclose(model.sigma, ref.sigma, rtol=1e-10)
        np.testing.assert_allclose(model.basis * signs, ref.basis, atol=1e-9)
        np.testing.assert_allclose(model.doc_coords * signs, ref.doc_coords, atol=1e-9)

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
    def test_one_fit_per_validation_or_test_document(self, strategy, monkeypatch):
        table, corpus = _cache_setup()
        plan = make_folds(corpus, seed=5)
        fits, caps = Counter(), set()
        fit = classifiers.query_subspace

        def counting(model, tokens, table, query_dim=None):
            fits[id(tokens)] += 1
            caps.add(query_dim)
            return fit(model, tokens, table, query_dim)

        monkeypatch.setattr(classifiers, "query_subspace", counting)
        run_experiment(corpus, strategy, plan, table=table, threads=2,
                       grids={"query_dim": (3, 1, 6)})
        queried = {int(i) for f in plan.folds for i in (*f.validation, *f.test)}
        assert max(fits.values()) == 1
        assert sum(fits.values()) == len(queried)
        assert caps == {6}

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
            queries = QueryCache(corpus, table, max(grid["query_dim"]))
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

    def test_document_index_keys_the_cache(self):
        table, corpus = _cache_setup()
        model = classifiers.train_msm(corpus, table)
        queries = QueryCache(corpus, table, 4)
        first = queries.get(model, np.int64(3))
        assert queries.get(model, 3) is first
        assert first.dimension <= 4
        assert queries.get(model, len(corpus) - 1) is None


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
