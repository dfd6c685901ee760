"""Scale-level check on the benchmark's R8-shaped generator.

The reference-corpus reproduction (criterion 5) needs data that is not
shipped; this runs the paper's protocol on the short input shape of
``perfbench/gen.py`` instead: 8 classes in R8 proportions, 256
documents, 300-d vectors with a planted subspace per class.  The
embedding table keeps only the corpus's words; the ~60k filler rows
are never looked up, so the results are those of the full table.  The
long shape (documents of 600-1100 tokens) checks the serving fit of
``classify`` at ambient rank.
"""

import functools
import os
import sys

import numpy as np
import pytest

from wordspace.classifiers import query_subspace, train_msm, train_tfmsm
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable
from wordspace.evaluation import (
    DEFAULT_SEED,
    FoldPlan,
    make_folds,
    run_experiment,
    spectrum_report,
)
from helpers import policies, projector, query_by_full_solve
from wordspace.subspace import ORTHONORMALITY_TOL

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import gen  # noqa: E402
import workloads  # noqa: E402

SEED = 1
FOLDS = 3
# Mean accuracy over 3 folds with the default grids, measured on input
# seeds 1-6: msm 0.935-0.974, tfmsm 0.954-0.967, sa 0.837-0.974 (0.967,
# 0.967 and 0.961 at seed 1), against a majority rate of 0.51.  Each
# floor sits a few points below the lowest of those runs.
FLOORS = {"msm": 0.90, "tfmsm": 0.90, "sa": 0.80}
STREAM_QUERIES = 150


@functools.cache  # each shape is generated once per session (test_pins reads it too)
def _inputs(shape):
    """The shape's seed-1 table (the corpus's words only), corpus and stream."""
    data = gen.generate(shape, SEED)
    used = {t for docs in (data.corpus, data.stream) for _, toks in docs for t in toks}
    keep = [i for i, w in enumerate(data.words) if w in used]
    table = EmbeddingTable([data.words[i] for i in keep], data.vectors[keep])
    corpus = Corpus([Document(label, tuple(toks)) for label, toks in data.corpus])
    stream = [tuple(toks) for _, toks in data.stream]
    return table, corpus, stream


@pytest.fixture(scope="module")
def r8_short():
    table, corpus, stream = _inputs(workloads.SHORT)
    return table, corpus, stream[:STREAM_QUERIES]


@pytest.mark.parametrize("strategy", sorted(FLOORS))
def test_accuracy_floor(strategy, r8_short):
    table, corpus, _ = r8_short
    plan = make_folds(corpus, DEFAULT_SEED)
    plan = FoldPlan(plan.seed, plan.folds[:FOLDS])  # the folds are drawn in turn
    report = run_experiment(corpus, strategy, plan, table=table)
    majority = max(len(corpus.indices_of(c)) for c in corpus.classes) / len(corpus)
    assert report.mean_accuracy >= FLOORS[strategy]
    assert np.all(report.accuracies > majority)
    assert sum(report.unclassifiable) == 0


def _assert_subspace_invariants(sub, tol):
    gram = sub.basis.T @ sub.basis
    assert np.max(np.abs(gram - np.eye(sub.dimension))) <= tol
    assert np.all(np.diff(sub.spectrum) <= 0.0)
    assert sub.spectrum[-1] > 0.0


@pytest.mark.parametrize("trainer", [train_msm, train_tfmsm])
def test_bases_orthonormal_and_spectra_non_increasing(trainer, r8_short):
    table, corpus, stream = r8_short
    model = trainer(corpus, table)
    for label in model.classes:
        _assert_subspace_invariants(model.subspaces[label], 1e-12)
    for tokens in stream:
        query = query_subspace(tokens, table, **policies(model))
        assert query.dimension < table.dimension  # the Gram route's side
        _assert_subspace_invariants(query, ORTHONORMALITY_TOL)
        model.query_dim = query.dimension
        scores = model.predict(tokens, table).scores
        assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_spectrum_curves(r8_short):
    table, corpus, _ = r8_short
    report = spectrum_report(corpus, table)
    for curve, cumulative in zip(report.curves, report.cumulative):
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) <= 0.0)
        assert np.all(np.diff(cumulative) >= -1e-15)
        assert cumulative[-1] == pytest.approx(1.0, abs=1e-12)


def test_long_queries_solve_only_the_served_directions(partial_solves):
    # the benchmark's serving model: tfmsm at class dim 150, query dim 10;
    # a long query has p = 300 <= N and takes the partial eigensolve
    table, corpus, stream = _inputs(workloads.LONG)
    stream = stream[:30]
    model = train_tfmsm(corpus, table, workloads.SUBSPACE_SERVING["class_dim"])
    model.query_dim = workloads.SUBSPACE_SERVING["query_dim"]
    for tokens in stream:
        query = query_subspace(tokens, table, model.query_dim, **policies(model))
        reference = query_by_full_solve(tokens, table, model.query_dim, **policies(model))
        assert query.dimension == reference.dimension == model.query_dim
        assert np.max(np.abs(projector(query) - projector(reference))) <= 1e-12
        _assert_subspace_invariants(query, ORTHONORMALITY_TOL)
        assert model.predict(tokens, table).label == model.predict_query(reference).label
    assert len(partial_solves) == 2 * len(stream)  # one fit in each comparison
