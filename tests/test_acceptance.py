"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS line on the real stderr stream (so
it shows up regardless of capture settings); a failure raises before
the line is printed.  Criterion 5 needs externally supplied corpus and
embedding files and is skipped unless the environment points at them.
"""

import os
import time

import numpy as np
import pytest

import helpers
from wordspace.bayes import train_mnb, train_mvb
from wordspace.classifiers import train_msm, train_tfmsm
from wordspace.corpus import Corpus, Document, parse_corpus
from wordspace.embeddings import EmbeddingTable, load_binary, save_text
from wordspace.errors import DegenerateQueryError
from wordspace.evaluation import make_folds, paired_ttest, run_experiment, spectrum_report
from wordspace.features import feature_matrix, fit_feature_spec
from wordspace.lsa import train_lsa
from wordspace.subspace import (
    canonical_cosines,
    full_weighted_word_subspace,
    full_word_subspace,
    similarity,
)
from wordspace.utils import read_lines

ORTHONORMALITY_TOL = 1e-8
PROJECTOR_TOL = 1e-6
COSINE_ORACLE_TOL = 1e-8

_MARK = "[acceptance]"


def _report(criterion, name):
    print(f"{_MARK} criterion {criterion} ({name}): PASS", file=__import__("sys").__stderr__)


def _orthonormality_defect(sub):
    gram = sub.basis.T @ sub.basis
    return float(np.max(np.abs(gram - np.eye(sub.dimension))))


def test_criterion_1_numerical_properties():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()

    # weighting-duplication equivalence, 200 instances
    for _ in range(200):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(1, 7))
        X = rng.standard_normal((p, n))
        w = rng.integers(1, 6, size=n)
        m = int(rng.integers(1, min(p, n) + 1))
        weighted = full_weighted_word_subspace(X, w.astype(float)).truncated(m)
        duplicated = full_word_subspace(np.repeat(X, w, axis=1)).truncated(m)
        assert _orthonormality_defect(weighted) <= ORTHONORMALITY_TOL
        assert _orthonormality_defect(duplicated) <= ORTHONORMALITY_TOL
        defect = np.max(np.abs(helpers.projector(weighted) - helpers.projector(duplicated)))
        assert defect <= PROJECTOR_TOL

    # canonical-cosine oracle + similarity properties, 200 instances
    for _ in range(200):
        p = int(rng.integers(2, 7))
        ma = int(rng.integers(1, min(3, p) + 1))
        mb = int(rng.integers(1, min(3, p) + 1))
        a = full_word_subspace(rng.standard_normal((p, p + 1)), ma)
        b = full_word_subspace(rng.standard_normal((p, p + 1)), mb)
        assert _orthonormality_defect(a) <= ORTHONORMALITY_TOL
        assert _orthonormality_defect(b) <= ORTHONORMALITY_TOL
        got = canonical_cosines(a, b)
        want = helpers.cosines_by_eigensolver(a.basis, b.basis)
        assert np.max(np.abs(got - want)) <= COSINE_ORACLE_TOL
        values = []
        for t in range(1, min(ma, mb) + 1):
            s = similarity(a, b, t)
            assert 0.0 <= s <= 1.0
            assert abs(s - similarity(b, a, t)) <= 1e-12
            values.append(s)
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    assert time.perf_counter() - start < 30.0
    _report(1, "numerical property suite")


def test_criterion_2_bayes_oracle():
    cases = helpers.enumerate_nb_corpora()
    assert len(cases) >= 500
    for kind, train in (("mvb", train_mvb), ("mnb", train_mnb)):
        for contents, labels, vocab in cases:
            corpus = Corpus([Document(lab, toks)
                             for lab, toks in zip(labels, contents)])
            model = train(corpus)
            for query in helpers.nb_queries(vocab):
                maximizers = helpers.nb_oracle_maximizers(
                    kind, list(contents), labels, list(corpus.classes),
                    vocab, list(query),
                )
                got = model.predict(query).label
                # log-space scoring must agree with plain arithmetic:
                # the chosen class attains the exact maximum, and is THE
                # maximum whenever it is unique
                assert got in maximizers
                if len(maximizers) == 1:
                    assert {got} == maximizers
    _report(2, "Bayes brute-force oracle suite")


def test_criterion_3_reductions():
    rng = np.random.default_rng(7)

    # TF-MSM with all-ones counts reproduces MSM, 50 synthetic corpora
    for _ in range(50):
        n_classes = int(rng.integers(2, 4))
        words_per_class = int(rng.integers(2, 5))
        p = int(rng.integers(4, 9))
        words = [f"w{c}_{i}" for c in range(n_classes)
                 for i in range(words_per_class)]
        table = EmbeddingTable(words, rng.standard_normal((len(words), p)))
        docs = []
        for c in range(n_classes):
            pool = [f"w{c}_{i}" for i in range(words_per_class)]
            rng.shuffle(pool)
            half = max(1, len(pool) // 2)
            docs.append(Document(f"c{c}", tuple(pool[:half])))
            if pool[half:]:
                docs.append(Document(f"c{c}", tuple(pool[half:])))
        corpus = Corpus(docs)
        plain = train_msm(corpus, table)
        weighted = train_tfmsm(corpus, table)
        for _ in range(4):
            size = int(rng.integers(1, len(words) + 1))
            query = tuple(rng.choice(words, size=size, replace=False).tolist())
            a = plain.predict(query, table)
            b = weighted.predict(query, table)
            assert a.label == b.label
            np.testing.assert_array_equal(a.scores, b.scores)

    # LSA at full rank reproduces exact-cosine nearest neighbor
    pool = ["a", "b", "c", "d", "e", "f"]
    for _ in range(25):
        docs = [Document(f"c{rng.integers(0, 3)}",
                         tuple(rng.choice(pool, size=rng.integers(1, 6)).tolist()))
                for _ in range(8)]
        corpus = Corpus(docs)
        spec = fit_feature_spec("tfbow", corpus)
        rows = feature_matrix(spec, docs).toarray()
        model = train_lsa(corpus, spec, int(np.linalg.matrix_rank(rows)))
        for _ in range(4):
            tokens = tuple(rng.choice(pool, size=rng.integers(1, 5)).tolist())
            qrow = feature_matrix(spec, [Document("q", tokens)]).toarray()[0]
            want = helpers.exact_cosine_1nn_maximizers(
                rows, [d.label for d in docs], list(corpus.classes), qrow)
            if want is None:
                with pytest.raises(DegenerateQueryError):
                    model.predict(tokens)
                continue
            got = model.predict(tokens).label
            assert got in want
            if len(want) == 1:
                assert {got} == want
    _report(3, "reduction checks")


def test_criterion_4_desk_scale_end_to_end(tmp_path, capsys):
    from wordspace.cli import main

    table = helpers.orthogonal_table(4, 4)
    corpus = helpers.synth_corpus(4, 4, docs_per_class=10, tokens_per_doc=4,
                                  rng=np.random.default_rng(100))
    assert len(corpus) == 40
    vec_path = tmp_path / "vecs.txt"
    save_text(table, vec_path)
    corpus_path = tmp_path / "docs.txt"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(doc.label + " " + " ".join(doc.tokens) + "\n")

    start = time.perf_counter()
    for strategy in ("msm", "tfmsm", "sa", "mnb"):
        prefix = str(tmp_path / f"r_{strategy}")
        code = main(["eval", "--strategy", strategy, "--embeddings",
                     str(vec_path), "--corpus", str(corpus_path),
                     "--out", prefix])
        assert code == 0
        kv = dict(
            line.split("=", 1)
            for line in (tmp_path / f"r_{strategy}.{strategy}.kv")
            .read_text().splitlines()
        )
        assert float(kv["accuracy.mean"]) == 1.0, strategy
        assert float(kv["accuracy.std"]) == 0.0, strategy
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"end-to-end runtime {elapsed:.1f}s"
    _report(4, "desk-scale end-to-end")


def test_criterion_6_ttest_anchor():
    spread = np.array([1.0] * 5 + [-1.0] * 5)
    diffs = spread + 2.262 * np.std(spread, ddof=1) / np.sqrt(10)
    result = paired_ttest(diffs, np.zeros(10))
    assert result.statistic == pytest.approx(2.262, rel=1e-12)
    assert abs(result.p_value - 0.05) <= 1e-3
    _report(6, "t-test table anchor")


# ---------------------------------------------------------------------------
# Criterion 5: reproduction on the real corpus (optional, user-supplied data)
# ---------------------------------------------------------------------------

R8_ENV = "WORDSPACE_R8_FILES"      # colon-separated corpus files, pooled
W2V_ENV = "WORDSPACE_W2V_BIN"      # binary embedding file (300-dim)

TABLE_TARGETS = {"msm": 90.62, "tfmsm": 92.01, "mnb": 91.47, "sa": 78.73}
ACCURACY_BAND = 2.0     # percentage points
VARIANCE_TARGET = 0.8637
VARIANCE_BAND = 0.03


@pytest.mark.skipif(
    not (os.environ.get(R8_ENV) and os.environ.get(W2V_ENV)),
    reason=f"set {R8_ENV} and {W2V_ENV} to run the full reproduction",
)
def test_criterion_5_corpus_reproduction():
    from wordspace.embeddings import filter_roman

    # each file read as `wordspace eval --corpus` reads it, then pooled
    corpus = parse_corpus([line for path in os.environ[R8_ENV].split(":")
                           for line in read_lines(path, "corpus")])
    table = filter_roman(load_binary(os.environ[W2V_ENV]))

    spectrum = spectrum_report(corpus, table)
    kept = spectrum.cumulative_at(150)
    assert abs(kept - VARIANCE_TARGET) <= VARIANCE_BAND

    plan = make_folds(corpus, seed=42)
    reports = {}
    for strategy, target in TABLE_TARGETS.items():
        report = run_experiment(corpus, strategy, plan, table=table)
        reports[strategy] = report
        mean_pct = report.mean_accuracy * 100.0
        assert abs(mean_pct - target) <= ACCURACY_BAND, (
            f"{strategy}: {mean_pct:.2f} vs {target}"
        )
    assert reports["tfmsm"].mean_accuracy > reports["mnb"].mean_accuracy
    _report(5, "reference-corpus reproduction")
