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
to 1e150.  Examples are derandomized, so the suite sees the same inputs
on every run.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import orthogonal_table, projector, synth_corpus
from wordspace.cli import main
from wordspace.embeddings import save_text
from wordspace.subspace import (
    ORTHONORMALITY_TOL,
    full_weighted_word_subspace,
    full_word_subspace,
    orthonormality_defect,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=50,
                suppress_health_check=[HealthCheck.too_slow])


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
def word_matrices(draw):
    """``(X, weights, cap)``: a p x N word matrix with N below, at or above
    p, some words repeated exactly or up to a 1e-6 nudge, scaled by 10^-150
    to 10^150, with TF weights from 1 to 1e12 or none, and a dimension cap."""
    p = draw(st.integers(1, 40))
    n = draw(st.sampled_from((max(1, p // 3), p, 3 * p)))
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
