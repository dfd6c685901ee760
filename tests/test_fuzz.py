"""Parser, setting and numeric-core fuzzing.

Every input file the command line reads (corpus, text and binary
embeddings, model containers) is fed in truncated, with flipped bytes,
or as another kind of file altogether.  Whatever the damage, ``main``
must return one of the documented exit codes and print an ``error:``
line, never let an exception escape.  The svm regularization strength
runs from subnormal values to 1e300, where the step sizes
overflow or the weights underflow: the exit code is documented and no
numpy warning is raised.  The subspace fit itself takes word matrices
with fewer, as many and more words than dimensions, duplicated and
nearly duplicated words, TF weights up to 1e12 and scales from 1e-150
to 1e150; class and query subspaces fitted from such matrices score
in [0, 1], as per-class `similarity` does.  LSA's truncated SVD takes
rank-deficient dense and CSR matrices with fewer, as many and more
documents than terms, and keeps exactly their numerical rank.  The
bag-of-words baselines score drawn documents (empty, out-of-vocabulary,
repeated words) bitwise as a one-row scipy matrix does, and
`make_prediction` decides drawn scores (ties, signed zeros, NaN and
infinities) as numpy's argmax did.  Drawn word
matrices also go through ``main`` as a text table: ``train`` and
``classify`` of msm, tfmsm, sa and svm on word vectors, and ``eval``,
end in exit 0, 3 or 4 with no warning.  Examples are derandomized, so
the suite sees the same inputs on every run.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    FUZZ,
    bow_row_by_dict_loop,
    lsa_class_scores_by_loop,
    lsa_class_scores_by_row,
    make_prediction_by_numpy,
    orthogonal_table,
    projector,
    scores_by_one_row_matrix,
    synth_corpus,
    truncated_svd_by_gesdd,
)
from wordspace import evaluation
from wordspace.bayes import train_mnb, train_mvb
from wordspace.classifiers import SubspaceModel, make_prediction
from wordspace.cli import main
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable, save_text
from wordspace.errors import DegenerateQueryError, NumericalError
from wordspace.features import FeatureSpec, bow_row, fit_feature_spec
from wordspace.lsa import LsaModel, train_lsa, truncated_svd
from wordspace.subspace import (
    ORTHONORMALITY_TOL,
    PARTIAL_SOLVE_RATIO,
    RANK_RTOL,
    _selectable_rank,
    full_weighted_word_subspace,
    full_word_subspace,
    orthonormality_defect,
    similarity,
)
from wordspace.svm import train_svm


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid inputs of every kind: file bytes and paths, plus trained models."""
    root = tmp_path_factory.mktemp("fuzz")
    table = orthogonal_table(4, 4)
    corpus = synth_corpus(4, 4, docs_per_class=6, tokens_per_doc=4,
                          rng=np.random.default_rng(3))
    paths = {"root": root, "corpus": root / "corpus.txt", "txt": root / "vecs.txt",
             "bin": root / "vecs.bin"}
    paths["corpus"].write_text(
        "".join(f"{d.label} {' '.join(d.tokens)}\n" for d in corpus), encoding="utf-8")
    save_text(table, paths["txt"])
    paths["bin"].write_bytes(f"{len(table)} {table.dimension}\n".encode() + b"".join(
        w.encode() + b" " + struct.pack(f"<{table.dimension}f", *table.vector(w)) + b"\n"
        for w in table.words))
    for strategy in ("msm", "sa", "mnb", "lsa", "svm"):
        paths[strategy] = root / f"{strategy}.npz"
        assert main(["train", "--strategy", strategy, "--corpus", str(paths["corpus"]),
                     "--embeddings", str(paths["txt"]),
                     *(["--rank", "3"] if strategy == "lsa" else []),
                     "--out", str(paths[strategy])]) == 0
    paths["bytes"] = {k: paths[k].read_bytes()
                      for k in ("corpus", "txt", "bin", "msm", "sa", "mnb", "lsa", "svm")}
    return paths


@st.composite
def damaged(draw, good_bytes, others):
    """``good_bytes`` truncated, with 1-4 bytes flipped, or another kind of file."""
    how = draw(st.sampled_from(("truncate", "flip", "other kind")))
    if how == "truncate":
        return good_bytes[:draw(st.integers(0, len(good_bytes) - 1))]
    if how == "other kind":
        return draw(st.sampled_from(others))
    data = bytearray(good_bytes)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@st.composite
def doctored(draw, entries, others):
    """A well-formed container whose entry has 1-4 flipped bytes or was
    swapped for an entry of another container."""
    entries = dict(entries)
    name = draw(st.sampled_from(sorted(entries)))
    arr = entries[name]
    if arr.nbytes and draw(st.booleans()):
        raw = bytearray(arr.tobytes())
        for _ in range(draw(st.integers(1, 4))):
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        entries[name] = np.frombuffer(bytes(raw), dtype=arr.dtype).reshape(arr.shape)
    else:
        entries[name] = draw(st.sampled_from(others))
    buf = io.BytesIO()
    np.savez(buf, **entries)
    return buf.getvalue()


def _run(argv):
    """``main(argv)`` with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _fuzz(good, kind, make_argv, inputs=None):
    """Run ``make_argv(good, path)`` on damaged ``kind`` files at ``path``:
    ``inputs`` if given, else `damaged` bytes of the good file."""
    if inputs is None:
        others = [raw for name, raw in good["bytes"].items() if name != kind] + [b""]
        inputs = damaged(good["bytes"][kind], others)
    path = good["root"] / f"damaged-{kind}"

    @FUZZ
    @given(inputs)
    def check(raw):
        path.write_bytes(raw)
        code, err = _run(make_argv(good, path))
        assert code in (0, 2, 3)
        assert code == 0 or err.startswith("error: ")

    check()


def test_corpus(good):
    _fuzz(good, "corpus", lambda g, p: [
        "train", "--strategy", "mnb", "--corpus", p, "--out", g["root"] / "m.npz"])


def test_corpus_to_classify(good):
    _fuzz(good, "corpus", lambda g, p: [
        "classify", "--model", g["msm"], "--corpus", p, "--embeddings", g["txt"]])


@pytest.mark.parametrize("kind", ["txt", "bin"])
def test_embeddings(good, kind):
    _fuzz(good, kind, lambda g, p: [
        "train", "--strategy", "sa", "--corpus", g["corpus"], "--embeddings", p,
        "--format", kind, "--out", g["root"] / "m.npz"])


@pytest.mark.parametrize("strategy", ["msm", "sa", "mnb", "lsa", "svm"])
def test_model_file(good, strategy):
    _fuzz(good, strategy, lambda g, p: [
        "classify", "--model", p, "--corpus", g["corpus"], "--embeddings", g["txt"]])


MODELS = ("msm", "sa", "mnb", "lsa", "svm")


@pytest.mark.parametrize("strategy", MODELS)
def test_model_entries(good, strategy):
    with np.load(good[strategy]) as data:
        entries = dict(data)
    others = [np.array(7), np.array("text"), np.zeros((2, 2))]
    for other in MODELS:
        with np.load(good[other]) as data:
            others += [data[k] for k in data.files]
    _fuzz(good, strategy, lambda g, p: [
        "classify", "--model", p, "--corpus", g["corpus"], "--embeddings", g["txt"]],
        inputs=doctored(entries, others))


# positive floats whose exponents run evenly from -323 to 299
REGS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-323, 299))


def _run_warning_free(argv):
    """`_run` with every warning raised as an exception, so one escapes ``main``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run(argv)


def test_svm_reg(good):
    model = good["root"] / "svm-reg.npz"

    @FUZZ
    @given(REGS)
    def check(reg):
        code, err = _run_warning_free([
            "train", "--strategy", "svm", "--corpus", good["corpus"], "--reg", repr(reg),
            "--out", model])
        assert code in (0, 2, 4)
        assert code == 0 or err.startswith("error: ")
        if code == 0:
            code, err = _run_warning_free([
                "classify", "--model", model, "--corpus", good["corpus"]])
            assert code in (0, 4)
            assert code == 0 or err.startswith("error: ")

    check()


def test_svm_grid_reg(good):
    @FUZZ
    @given(st.lists(REGS, min_size=1, max_size=3))
    def check(regs):
        code, err = _run_warning_free([
            "eval", "--strategy", "svm", "--corpus", good["corpus"],
            "--grid-reg", ",".join(map(repr, regs)), "--out", good["root"] / "svm-grid"])
        assert code in (0, 2, 4)
        assert code == 0 or err.startswith("error: ")

    check()


@st.composite
def word_matrices(draw, dims=st.integers(2, 40)):
    """``(X, weights, cap)``: a p x N word matrix (p drawn from ``dims``)
    with N below, at or above p and at least 2, some words repeated
    exactly or up to a 1e-6 nudge, scaled by 10^-150 to 10^150, with TF
    weights from 1 to 1e12 or none, and a dimension cap."""
    p = draw(dims)
    n = draw(st.sampled_from((max(2, p // 3), p, 3 * p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((p, n))
    for _ in range(draw(st.integers(0, n // 2))):
        i, j = rng.integers(n, size=2)
        X[:, j] = X[:, i] * (1.0 + draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6)))
                             * rng.standard_normal(p))
    X *= 10.0 ** draw(st.integers(-150, 150))
    weights = None
    if draw(st.booleans()):
        weights = 10.0 ** rng.uniform(0.0, 12.0, size=n)
    # half the caps small enough for the partial eigensolve
    order = min(p, n)
    cap = draw(st.one_of(st.integers(1, max(1, order // 8)), st.integers(1, order)))
    return X, weights, cap


def _fit_warning_free(X, weights, cap=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if weights is None:
            return full_word_subspace(X, cap)
        return full_weighted_word_subspace(X, weights, cap)


# Relative gap between the last kept eigenvalue and the next (or 0) above
# which the kept subspace counts as well separated: both solves then find
# it to within about eps / SEPARATED.
SEPARATED = 1e-5


@FUZZ
@given(word_matrices())
@example((np.array([[1.0], [-2.0], [0.5]]), None, 1))  # order 1: one direction
def test_subspace_fit(case):
    X, weights, cap = case
    full = _fit_warning_free(X, weights)
    capped = _fit_warning_free(X, weights, cap)
    for sub in (full, capped):
        assert orthonormality_defect(sub.basis) <= ORTHONORMALITY_TOL
        assert np.all(np.diff(sub.spectrum) <= 0.0)
        assert sub.spectrum[-1] > 0.0
    m = capped.dimension
    assert m == min(cap, full.dimension)
    boundary = full.spectrum[m] if m < full.dimension else 0.0
    if full.spectrum[m - 1] - boundary > SEPARATED * full.spectrum[0]:
        reference = full.truncated(m)
        assert np.max(np.abs(projector(capped) - projector(reference))) <= 1e-10
        if X.shape[1] < X.shape[0]:  # the Gram route: eigh(X^T X), then X V / sigma
            scaled = X if weights is None else X * np.sqrt(weights)
            u = np.linalg.svd(scaled, full_matrices=False)[0][:, :m]
            assert np.max(np.abs(u @ u.T - projector(reference))) <= 1e-10
    # a fit at a smaller cap is the capped fit's prefix bitwise when both
    # caps take the full solve
    small = max(1, m // 2)
    if PARTIAL_SOLVE_RATIO * small > min(X.shape):
        prefix = _fit_warning_free(X, weights, small)
        assert prefix.basis.tobytes() == capped.basis[:, :small].tobytes()
        assert prefix.spectrum.tobytes() == capped.spectrum[:small].tobytes()


@st.composite
def term_document_matrices(draw):
    """``(X, k, big_k)``: an n x N integer matrix, dense or CSR, with N
    below, at or above n, built from at most three distinct columns, so
    it is rank-deficient, and two requested ranks ``k <= big_k``.

    Its entries are 0..3 and n <= 10, N <= 20, so sigma_1^2 <= ||X||_F^2
    <= 9 * 200.  The product of the r <= 3 nonzero sigma^2 is a sum of
    Gram determinants of integer columns, at least 1, so the smallest is
    at least sigma_1^(2 - 2r) and sigma_r^2 / sigma_1^2 >= sigma_1^(-2r)
    >= 1800^-3 = 1.7e-10: above the rank cut (RANK_RTOL = 1e-10 on
    sigma^2) by a margin roundoff cannot cross, while a zero sigma is
    roundoff, far below it.  With four distinct columns the ratio could
    fall to about 1e-13, under the cut."""
    n = draw(st.integers(1, 10))
    m = draw(st.sampled_from((max(1, n // 2), n, 2 * n)))
    base = np.asarray(draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                    min_size=1, max_size=3)), dtype=np.float64).T
    X = base[:, draw(st.lists(st.integers(0, base.shape[1] - 1), min_size=m, max_size=m))]
    if draw(st.booleans()):
        X = sp.csr_matrix(X)
    # half the ranks small enough for ARPACK on a CSR matrix
    order = min(n, m)
    k = draw(st.one_of(st.integers(1, max(1, order - 2)), st.integers(1, order)))
    return X, k, draw(st.integers(k, order))


@FUZZ
@given(term_document_matrices())
def test_truncated_svd_keeps_the_numerical_rank(case):
    X, k, big_k = case
    u, s = truncated_svd(X, k)
    dense = X.toarray() if sp.issparse(X) else X
    assert s.size == _selectable_rank(np.linalg.svd(dense, compute_uv=False)[:k] ** 2)
    assert u.shape == (X.shape[0], s.size)
    assert s.size == 0 or orthonormality_defect(u) <= ORTHONORMALITY_TOL
    assert np.all(s > 0.0) and np.all(np.diff(s) <= 0.0)
    if not (sp.issparse(X) and k < min(X.shape) - 1):  # the dense LAPACK route
        wide_u, wide_s = truncated_svd(X, big_k)
        assert s.tobytes() == wide_s[:s.size].tobytes()
        assert u.tobytes() == wide_u[:, :s.size].tobytes()


@st.composite
def planted_spectrum_matrices(draw):
    """``(X, k, big_k)``: a dense n x N matrix ``U diag(sigma) V^T`` with
    random orthonormal ``U`` and ``V`` and distinct singular values from
    1 down to 1e-3, some exactly 0 (so roundoff in X), scaled by
    10^-100 to 10^100, and two requested ranks ``k <= big_k``."""
    n = draw(st.integers(2, 40))
    m = draw(st.sampled_from((max(2, n // 3), n, 3 * n)))
    order = min(n, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.sort(10.0 ** rng.uniform(-3.0, 0.0, size=order))[::-1]
    sigma[draw(st.integers(1, order)):] = 0.0
    u = np.linalg.qr(rng.standard_normal((n, order)))[0]
    v = np.linalg.qr(rng.standard_normal((m, order)))[0]
    X = (u * sigma) @ v.T * 10.0 ** draw(st.integers(-100, 100))
    k = draw(st.integers(1, order))
    return X, k, draw(st.integers(k, order))


@FUZZ
@given(st.one_of(term_document_matrices(), planted_spectrum_matrices()))
def test_truncated_svd_keeps_gesdd_directions(case):
    """The dense route keeps the directions gesdd kept: the same count,
    singular values within 1e-12 sigma_1 and the projector onto the kept
    directions within 1e-12, wherever no sigma^2 lies within 1e-6
    (relative) of the rank cut and the kept sigma^2 stand apart from the
    next one by more than 1e-6 sigma_1^2 (tied directions span no
    unique projector)."""
    X, k, _ = case
    if sp.issparse(X) and k < min(X.shape) - 1:
        return  # the ARPACK route, which this does not compare
    dense = X.toarray() if sp.issparse(X) else X
    full = np.linalg.svd(dense, compute_uv=False)
    u, s = truncated_svd(X, k)
    ref_u, ref_s = truncated_svd_by_gesdd(X, k)
    if full[0] == 0.0:
        assert s.size == ref_s.size == 0
        return
    ratio = (full / full[0]) ** 2
    assume(not np.any(np.abs(ratio / RANK_RTOL - 1.0) <= 1e-6))
    assert s.size == ref_s.size
    assert np.max(np.abs(s - ref_s), initial=0.0) <= 1e-12 * full[0]
    if s.size and ratio[s.size - 1] - (ratio[s.size] if s.size < full.size else 0.0) > 1e-6:
        assert np.max(np.abs(u @ u.T - ref_u @ ref_u.T)) <= 1e-12


# two to four word matrices in one ambient dimension: classes, then a query
SHARED_DIM_MATRICES = st.integers(1, 40).flatmap(
    lambda p: st.lists(word_matrices(st.just(p)), min_size=2, max_size=4))


@FUZZ
@given(SHARED_DIM_MATRICES)
def test_predict_query_scores_are_similarities(cases):
    *class_cases, query_case = cases
    subspaces = {f"c{i}": _fit_warning_free(*case) for i, case in enumerate(class_cases)}
    query = _fit_warning_free(*query_case)
    model = SubspaceModel("msm", tuple(subspaces), subspaces, class_dim=None)
    scores = model.predict_query(query).scores
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    want = [similarity(sub, query, min(sub.dimension, query.dimension))
            for sub in subspaces.values()]
    assert np.max(np.abs(scores - want)) <= 1e-12


def _cli_exit(argv):
    """The exit code of a warning-free ``main(argv)``: 0, or 3 or 4 with an
    ``error:`` line and no traceback or warning text on stderr."""
    code, err = _run_warning_free(argv)
    assert code in (0, 3, 4), (argv, err)
    assert code == 0 or err.startswith("error: ")
    assert "Traceback" not in err and "Warning" not in err
    return code


# 12-16 documents of 1-6 tokens each; a token indexes the table's words
# and one out-of-vocabulary word, modulo their count
DOCUMENTS = st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=6),
                     min_size=12, max_size=16)


def test_drawn_word_matrices_through_the_cli(tmp_path):
    table, corpus, model = tmp_path / "vecs.txt", tmp_path / "corpus.txt", tmp_path / "m.npz"
    files = ["--corpus", corpus, "--embeddings", table]

    @settings(FUZZ, max_examples=20)
    @given(word_matrices(st.integers(2, 8)), st.integers(2, 3), DOCUMENTS)
    def check(case, n_classes, documents):
        X = case[0]
        words = [f"w{i}" for i in range(X.shape[1])]
        save_text(EmbeddingTable(words, X.T), table)
        tokens = words + ["oov"]
        corpus.write_text("".join(
            f"c{i % n_classes} " + " ".join(tokens[t % len(tokens)] for t in doc) + "\n"
            for i, doc in enumerate(documents)), encoding="utf-8")
        for flags in (["msm"], ["tfmsm"], ["sa"], ["svm", "--feature", "w2v"]):
            model.unlink(missing_ok=True)
            if _cli_exit(["train", "--strategy", *flags, *files, "--out", model]) == 0:
                _cli_exit(["classify", "--model", model, *files])
        _cli_exit(["eval", "--strategy", "msm,tfmsm,sa", *files, "--out", tmp_path / "r"])

    check()


@pytest.fixture(scope="module")
def baselines():
    """Bag-of-words baselines trained on a corpus in which the word
    ``the`` is in every document, so its tfidf weight is 0.  The naive
    Bayes models of the same documents as one class and the rank-1 lsa
    models score from one-column tables, which numpy would sum pairwise
    rather than in row order."""
    corpus = synth_corpus(3, 5, docs_per_class=6, tokens_per_doc=5,
                          rng=np.random.default_rng(11))
    corpus = Corpus([Document(d.label, ("the",) + d.tokens) for d in corpus])
    one_class = Corpus([Document("c0", d.tokens) for d in corpus])
    specs = [fit_feature_spec(name, corpus) for name in ("binbow", "tfbow", "tfidfbow")]
    assert specs[2].idf_log[specs[2].index["the"]] == 0.0
    models = [train_mvb(corpus), train_mnb(corpus),
              train_mvb(one_class), train_mnb(one_class),
              *(train_svm(corpus, spec, reg=1e-3) for spec in specs),
              *(train_lsa(corpus, spec, k) for spec in specs for k in (8, 1))]
    return models, specs, corpus


def test_baseline_rows_equal_one_row_matrix(baselines):
    models, specs, _ = baselines
    words = list(specs[0].terms) + ["oov", "zzz"]

    @FUZZ
    @given(st.lists(st.sampled_from(words), max_size=30))
    def check(tokens):
        for model in models:
            want = scores_by_one_row_matrix(model, tokens)
            if want is None:  # an lsa query with a zero projection
                with pytest.raises(DegenerateQueryError):
                    model.predict(tokens)
            else:
                assert model.predict(tokens).scores.tobytes() == want.tobytes()
        for spec in specs:
            # the sparse row mvb, mnb, lsa and svm score, bitwise the former dict loop's
            cols, vals = bow_row(spec, tokens)
            want_cols, want_vals = bow_row_by_dict_loop(spec, tokens)
            assert cols.dtype == np.int64 and vals.dtype == np.float64
            assert cols.tobytes() == np.asarray(want_cols, dtype=np.int64).tobytes()
            assert vals.tobytes() == np.asarray(want_vals, dtype=np.float64).tobytes()

    check()


def test_lsa_fold_projects_as_predict(baselines, monkeypatch):
    """A validation row of the lsa selector's one CSR product, which the
    fold scores as one matrix, is bitwise the projection `predict` takes
    from `row_product` and scores as a one-row matrix."""
    _, specs, corpus = baselines
    entry = evaluation.STRATEGIES["lsa"]
    words = list(specs[0].terms) + ["oov"]
    seen = []
    real = LsaModel.class_scores_from_projection

    def recording(model, projections):
        seen.append(projections)
        return real(model, projections)

    monkeypatch.setattr(LsaModel, "class_scores_from_projection", recording)

    @FUZZ
    @given(st.lists(st.lists(st.sampled_from(words), max_size=12), min_size=1, max_size=6))
    def check(documents):
        val_docs = [Document("c0", tuple(tokens)) for tokens in documents]
        for spec in specs:
            seen.clear()
            full = entry.fit(corpus, None, spec.name, True, {"rank": (8,)}, {})
            entry.select(full, {"rank": (8,)}, val_docs, None, None)
            model = entry.at(full, {"rank": 8})
            # one grid rank and a few documents: one matrix for the fold
            [matrix] = seen
            seen.clear()
            for doc in val_docs:
                try:
                    model.predict(doc.tokens)
                except DegenerateQueryError:
                    pass
            assert len(matrix) == len(seen) == len(val_docs)
            assert all(one.shape[0] == 1 for one in seen)
            for row, [projection] in zip(matrix, seen):
                assert row.size == projection.size == model.rank
                assert row.tobytes() == projection.tobytes()

    check()


@FUZZ
@given(st.data())
def test_lsa_masked_max_equals_class_loop(data):
    """Each class's best cosine by one reduceat over the documents in
    class order is bitwise the former per-class loop's, -inf cosines of
    zero-norm documents and classes without documents included."""
    classes = [f"c{j}" for j in range(data.draw(st.integers(1, 4), label="classes"))]
    labels = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=12))
    k = data.draw(st.integers(1, 4), label="rank")
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])
    row = st.one_of(st.just([0.0] * k), st.lists(value, min_size=k, max_size=k))
    coords = np.array(data.draw(st.lists(row, min_size=len(labels), max_size=len(labels))))
    sigma = np.array(sorted(data.draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]),
                                               min_size=k, max_size=k)), reverse=True))
    spec = FeatureSpec("binbow", terms=tuple(f"t{i}" for i in range(k)))
    model = LsaModel(classes, labels, np.eye(k), sigma, coords, spec)
    projection = np.array(data.draw(st.lists(value, min_size=k, max_size=k)))
    want = lsa_class_scores_by_loop(model, projection)
    [got] = _scores_of_rows(model, projection[np.newaxis])
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tobytes() == want.tobytes()


def _scores_of_rows(model, projections):
    """Each row's class scores from one `LsaModel.class_scores_from_projection`
    call, None for a row with a zero projection (a NaN row)."""
    scores = model.class_scores_from_projection(projections)
    return [None if np.isnan(row[0]) else row for row in scores]


@FUZZ
@given(st.data())
def test_lsa_scores_of_many_rows_equal_row_by_row(data):
    """The scores of a matrix of projections are each row's own, as the
    per-row scorer gives them: the same None rows and -1.0 entries,
    scores within 1e-13 and the same label wherever the reference's two
    best scores differ by more than that, and a `NumericalError` on the
    same inputs.  A one-row matrix, as `predict` scores, is bitwise the
    per-row scorer's.  Rows are drawn zero, finite, wider than the rank, or
    holding an infinity; documents zero-norm or not, classes with or
    without documents."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    classes = [f"c{j}" for j in range(data.draw(st.integers(1, 5), label="classes"))]
    labels = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=40))
    k = data.draw(st.integers(1, 12), label="rank")
    coords = rng.standard_normal((len(labels), k))
    coords[rng.random(len(labels)) < data.draw(st.sampled_from([0.0, 0.2]))] = 0.0
    sigma = np.sort(10.0 ** rng.uniform(-3.0, 3.0, size=k))[::-1]
    spec = FeatureSpec("binbow", terms=tuple(f"t{i}" for i in range(k)))
    model = LsaModel(classes, labels, np.eye(k), sigma, coords, spec)
    n = data.draw(st.integers(1, 30), label="rows")
    projections = rng.standard_normal((n, k + data.draw(st.integers(0, 3))))
    projections[rng.random(n) < 0.2, :k] = 0.0
    if data.draw(st.booleans(), label="infinite"):
        projections[rng.integers(n), rng.integers(k)] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = [lsa_class_scores_by_row(model, row) for row in projections]
        except NumericalError:
            with pytest.raises(NumericalError):
                _scores_of_rows(model, projections)
            return
        got = _scores_of_rows(model, projections)
        alone = [_scores_of_rows(model, row[np.newaxis])[0] for row in projections]
    for row_want, row_got, row_alone in zip(want, got, alone):
        assert (row_got is None) == (row_alone is None) == (row_want is None)
        if row_want is None:
            continue
        assert row_alone.tobytes() == row_want.tobytes()
        np.testing.assert_array_equal(row_got == -1.0, row_want == -1.0)
        assert np.max(np.abs(row_got - row_want)) <= 1e-13
        top = np.sort(row_want)[::-1]
        if top.size == 1 or top[0] - top[1] > 1e-13:
            assert make_prediction(classes, row_got).label == \
                make_prediction(classes, row_want).label


SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 5e-324,
                          np.nan, np.inf, -np.inf])


@settings(FUZZ, max_examples=300)
@given(st.lists(st.one_of(SCORES, st.floats()), min_size=1, max_size=9))
def test_make_prediction_equals_numpy_reference(values):
    """The label, tie flag and refusal decided on Python floats are the
    former numpy argmax's: first maximum, ``0.0 == -0.0`` a tie, a NaN
    or an infinity refused."""
    classes = tuple(f"c{j}" for j in range(len(values)))
    scores = np.array(values)

    def outcome(decide):
        try:
            pred = decide(classes, scores)
        except Exception as err:  # the class and text of the refusal are compared
            return type(err), str(err)
        assert pred.scores.dtype == np.float64
        assert pred.scores.tobytes() == scores.tobytes()
        return pred.label, pred.tie

    assert outcome(make_prediction) == outcome(make_prediction_by_numpy)
