import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from helpers import FITS_BY_HYPER, FUZZ, orthogonal_table, synth_corpus
from wordspace import cli, lsa
from wordspace.cli import main
from wordspace.corpus import parse_corpus
from wordspace.embeddings import EmbeddingTable, load_text, save_text
from wordspace.errors import ConfigError, DataError, NumericalError, WordspaceError
from wordspace.evaluation import DEFAULT_SEED, HYPERPARAMETERS, STRATEGIES
from wordspace.model_io import load_model, save_model


def write_corpus(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(doc.label + " " + " ".join(doc.tokens) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    table = orthogonal_table(4, 4)
    corpus = synth_corpus(4, 4, docs_per_class=10, tokens_per_doc=4,
                          rng=np.random.default_rng(100))
    vec_path = root / "vecs.txt"
    corpus_path = root / "train.txt"
    save_text(table, vec_path)
    write_corpus(corpus_path, corpus)
    return {"root": root, "vecs": str(vec_path), "corpus": str(corpus_path),
            "n_docs": len(corpus)}


class TestTrainAndClassify:
    def test_train_writes_model_and_summary(self, workspace, capsys):
        # deliberately not a .npz name: --out must be honored verbatim
        model_path = str(workspace["root"] / "model.bin")
        code = main(["train", "--strategy", "msm",
                     "--embeddings", workspace["vecs"],
                     "--corpus", workspace["corpus"], "--out", model_path])
        assert code == 0
        assert (workspace["root"] / "model.bin").exists()
        out = capsys.readouterr().out
        assert "strategy=msm" in out
        assert "class c0" in out

    def test_classify_training_file_is_perfect(self, workspace, capsys):
        model_path = str(workspace["root"] / "msm2.npz")
        main(["train", "--strategy", "msm", "--embeddings", workspace["vecs"],
              "--corpus", workspace["corpus"], "--out", model_path])
        capsys.readouterr()
        code = main(["classify", "--model", model_path,
                     "--embeddings", workspace["vecs"],
                     "--corpus", workspace["corpus"]])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == workspace["n_docs"]
        with open(workspace["corpus"], encoding="utf-8") as fh:
            labels = [ln.split()[0] for ln in fh if ln.strip()]
        for line, want in zip(lines, labels):
            idx, label, score = line.split("\t")
            assert label == want
            assert float(score) == pytest.approx(1.0)

    def test_classify_rerun_is_byte_identical(self, workspace, capsys):
        model_path = str(workspace["root"] / "msm3.npz")
        main(["train", "--strategy", "msm", "--embeddings", workspace["vecs"],
              "--corpus", workspace["corpus"], "--out", model_path])
        capsys.readouterr()
        argv = ["classify", "--model", model_path, "--embeddings",
                workspace["vecs"], "--corpus", workspace["corpus"]]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_classify_empty_input(self, workspace, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        model_path = str(workspace["root"] / "msm4.npz")
        main(["train", "--strategy", "msm", "--embeddings", workspace["vecs"],
              "--corpus", workspace["corpus"], "--out", model_path])
        capsys.readouterr()
        code = main(["classify", "--model", model_path, "--embeddings",
                     workspace["vecs"], "--corpus", str(empty)])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_classify_dimension_mismatch(self, workspace, tmp_path, capsys):
        model_path = str(workspace["root"] / "msm5.npz")
        main(["train", "--strategy", "msm", "--embeddings", workspace["vecs"],
              "--corpus", workspace["corpus"], "--out", model_path])
        small = EmbeddingTable(["w0_0"], np.array([[1.0, 0.0]]))
        other_vecs = tmp_path / "small.txt"
        save_text(small, other_vecs)
        capsys.readouterr()
        code = main(["classify", "--model", model_path, "--embeddings",
                     str(other_vecs), "--corpus", workspace["corpus"]])
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: model expects dimension 16, embeddings have 2\n")

    def test_unclassifiable_marker(self, workspace, tmp_path, capsys):
        model_path = str(workspace["root"] / "msm6.npz")
        main(["train", "--strategy", "msm", "--embeddings", workspace["vecs"],
              "--corpus", workspace["corpus"], "--out", model_path])
        capsys.readouterr()
        query = tmp_path / "query.txt"
        query.write_text("c0 unseen words only\n")
        code = main(["classify", "--model", model_path, "--embeddings",
                     workspace["vecs"], "--corpus", str(query)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t")[1] == "__UNCLASSIFIABLE__"

    def test_bow_model_needs_no_embeddings(self, workspace, capsys):
        model_path = str(workspace["root"] / "mnb.npz")
        main(["train", "--strategy", "mnb", "--corpus", workspace["corpus"],
              "--out", model_path])
        capsys.readouterr()
        code = main(["classify", "--model", model_path,
                     "--corpus", workspace["corpus"]])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == workspace["n_docs"]

    def test_default_query_dim_keeps_long_documents_apart(self, tmp_path, capsys):
        # four classes on mutually orthogonal 5-d blocks of a 20-d space;
        # the query has 23 distinct words spanning all 20 dimensions, so a
        # query subspace of its full rank would score every class 1.0
        rng = np.random.default_rng(5)
        blocks = np.linalg.qr(rng.standard_normal((20, 20)))[0].reshape(20, 4, 5)
        words, rows, lines = [], [], []
        for c in range(4):
            names = [f"c{c}w{k}" for k in range(8)]
            words += names
            rows += [blocks[:, c] @ rng.standard_normal(5) for _ in names]
            lines += [f"c{c} " + " ".join(rng.choice(names, size=4)) for _ in range(5)]
        save_text(EmbeddingTable(words, np.array(rows)), tmp_path / "vecs.txt")
        (tmp_path / "train.txt").write_text("\n".join(lines) + "\n")
        query = [f"c0w{k}" for k in range(8)] * 2
        query += [f"c{c}w{k}" for c in (1, 2, 3) for k in range(5)]
        (tmp_path / "query.txt").write_text("c0 " + " ".join(query) + "\n")
        model_path = str(tmp_path / "tfmsm.npz")
        common = ["--embeddings", str(tmp_path / "vecs.txt")]
        assert main(["train", "--strategy", "tfmsm", "--corpus",
                     str(tmp_path / "train.txt"), "--out", model_path] + common) == 0
        capsys.readouterr()
        assert main(["classify", "--model", model_path, "--corpus",
                     str(tmp_path / "query.txt")] + common) == 0
        assert capsys.readouterr().out.split("\t")[1] == "c0"
        model = load_model(model_path)
        scores = model.predict(query, load_text(tmp_path / "vecs.txt")).scores
        assert model.query_dim == 10
        assert scores.max() - np.sort(scores)[-2] > 0.1


# non-default `train` flags per strategy and the model attributes they set;
# a strategy without an entry is trained with the defaults
TRAIN_FLAGS = {
    "tfmsm": (["--query-dim", "2"], {"query_dim": 2}),
    "lsa": (["--feature", "tfidfbow", "--rank", "3"], {"rank": 3}),
    "svm": (["--feature", "w2v", "--epochs", "3"], {"embed_dim": 16, "epochs": 3}),
}


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_train_classify_resave_roundtrip(strategy, workspace, tmp_path, capsys):
    flags, attrs = TRAIN_FLAGS.get(strategy, ([], {}))
    common = ["--corpus", workspace["corpus"], "--embeddings", workspace["vecs"]]
    model_path = tmp_path / "model.npz"
    assert main(["train", "--strategy", strategy, "--out", str(model_path),
                 *common, *flags]) == 0
    capsys.readouterr()
    assert main(["classify", "--model", str(model_path), *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == workspace["n_docs"]
    model = load_model(model_path)
    assert model.strategy == strategy
    assert {k: getattr(model, k) for k in attrs} == attrs
    assert {line.split("\t")[1] for line in lines} <= set(model.classes)
    save_model(model, tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == model_path.read_bytes()


# exit code of each refusal family, as `cli.main` maps them
EXIT_CODES = ((ConfigError, 2), (DataError, 3), (NumericalError, 4))
TRAIN_FEATURES = {"lsa": ("binbow", "tfbow", "tfidfbow", "w2v"),
                  "svm": ("binbow", "tfbow", "tfidfbow", "w2v")}
# a drawn value for each train setting
TRAIN_SETTINGS = {
    "class_dim": st.integers(1, 8),
    "query_dim": st.integers(1, 8),
    "rank": st.integers(1, 10),
    "reg": st.sampled_from((1.0, 1e-1, 1e-2, 1e-4, 1e-310)),
    "epochs": st.integers(1, 4),
    "seed": st.integers(0, 2**32 - 1),
}


@st.composite
def train_runs(draw, strategy):
    """``(argv flags, feature, normalize, table, corpus text)`` of a drawn
    ``wordspace train`` run.  The table has 3-10 words in 2-5 dims; each
    of the 2-3 classes has 1-5 documents of 1-6 tokens, out-of-vocabulary
    ones allowed, so an lsa rank may exceed the numerical rank.  Each
    setting the strategy reads is drawn or left at its default."""
    dim, n_words = draw(st.integers(2, 5)), draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [f"w{i}" for i in range(n_words)]
    table = EmbeddingTable(words, rng.standard_normal((n_words, dim)))
    tokens = st.lists(st.sampled_from(words + ["oov"]), min_size=1, max_size=6)
    lines = [f"c{c} {' '.join(draw(tokens))}"
             for c in range(draw(st.integers(2, 3))) for _ in range(draw(st.integers(1, 5)))]
    feature = draw(st.sampled_from(TRAIN_FEATURES.get(strategy, (STRATEGIES[strategy].feature,))))
    flags = ["--feature", feature]
    for name in STRATEGIES[strategy].settings:
        if draw(st.integers(0, 3)) < 3:  # about one run in four leaves the flag out
            flags += [f"--{name.replace('_', '-')}", repr(draw(TRAIN_SETTINGS[name]))]
    normalize = draw(st.booleans())
    flags += ["--normalize-vectors", "on" if normalize else "off"]
    return flags, feature, normalize, table, "".join(f"{line}\n" for line in lines)


def _train_outcome(argv):
    """``(exit code, stderr)`` of ``wordspace train`` run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_train_writes_the_fit_of_its_settings(strategy, monkeypatch):
    """``wordspace train`` writes, byte for byte, the container of the
    strategy's fit at its settings as `helpers.FITS_BY_HYPER` made it,
    and refuses where that fit refused, with the same exit code and
    ``error:`` line (an lsa rank above the numerical rank among them).
    numpy writes every zip entry with the same fixed date, so equal
    models give equal bytes.

    Two lsa fits of one corpus may differ within one process, which
    these fits share:
    - when ARPACK's Krylov space turns invariant early (tied singular
      values, as on three one-word documents), it asks for a restart
      vector that scipy draws from fresh OS entropy (older releases, from
      ARPACK's own saved seed).  So `lsa.truncated_svd` is memoized
      on its whole input: both fits take one factorization of equal
      matrices, and a different matrix still gets its own;
    - the projected training documents, ``doc_coords``, of two fits of
      one corpus with one factorization may still round apart in the
      last place (up to 1.1e-16 on these corpora).  So that entry is
      compared to 1e-12 of its largest magnitude, and every other
      entry, with its dtype and shape, bitwise."""
    factorizations = {}
    truncated_svd = lsa.truncated_svd

    def memoized(X, k):
        dense = X.toarray() if sp.issparse(X) else np.asarray(X)
        key = (sp.issparse(X), dense.shape, dense.tobytes(), k)
        if key not in factorizations:
            factorizations[key] = truncated_svd(X, k)
        return factorizations[key]

    monkeypatch.setattr(lsa, "truncated_svd", memoized)
    refusals = []

    @FUZZ
    @given(train_runs(strategy))
    def check(run):
        flags, feature, normalize, table, text = run
        with tempfile.TemporaryDirectory() as root:
            corpus_path, vecs_path = os.path.join(root, "c.txt"), os.path.join(root, "v.txt")
            got_path, want_path = os.path.join(root, "got.npz"), os.path.join(root, "want.npz")
            with open(corpus_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            save_text(table, vecs_path)
            got = _train_outcome(["train", "--strategy", strategy, "--corpus", corpus_path,
                                  "--embeddings", vecs_path, "--out", got_path, *flags])
            args = cli.build_parser().parse_args(
                ["train", "--strategy", strategy, "--corpus", corpus_path, "--out", "-", *flags])
            hyper = {name: hp.default if getattr(args, name) is None else getattr(args, name)
                     for name, hp in HYPERPARAMETERS.items()}
            hyper["seed"] = DEFAULT_SEED if args.seed is None else args.seed
            try:
                model = FITS_BY_HYPER[strategy](
                    parse_corpus(corpus_path), load_text(vecs_path) if feature == "w2v" else None,
                    feature, normalize, hyper)
                save_model(model, want_path)
                want = 0, ""
            except WordspaceError as err:
                want = next(c for t, c in EXIT_CODES if isinstance(err, t)), f"error: {err}\n"
            assert got == want
            if want[0]:
                refusals.append(want[1])
                assert not os.path.exists(got_path)
            elif strategy == "lsa":
                with np.load(got_path) as got_entries, np.load(want_path) as want_entries:
                    assert got_entries.files == want_entries.files
                    for name in got_entries.files:
                        a, b = got_entries[name], want_entries[name]
                        assert (a.dtype, a.shape) == (b.dtype, b.shape)
                        if name == "doc_coords":
                            np.testing.assert_allclose(a, b, rtol=0,
                                                       atol=1e-12 * np.abs(b).max(initial=1.0))
                        else:
                            assert a.tobytes() == b.tobytes()
            else:
                with open(got_path, "rb") as a, open(want_path, "rb") as b:
                    assert a.read() == b.read()

    check()
    if strategy == "lsa":
        assert any("exceeds the rank cap" in err for err in refusals)


class RecordingNamespace(argparse.Namespace):
    """Parsed arguments that note the name of every attribute read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_read").add(name)
        return super().__getattribute__(name)


# subcommand -> argv given the workspace and a scratch directory; msm
# loads the embeddings, so their flags are read too
READ_RUNS = {
    "train": lambda ws, d: ["train", "--strategy", "msm", "--out", str(d / "m.npz")],
    "classify": lambda ws, d: ["classify", "--model", str(d / "m.npz")],
    "eval": lambda ws, d: ["eval", "--strategy", "msm", "--out", str(d / "r")],
    "spectrum": lambda ws, d: ["spectrum", "--out", str(d / "s.csv")],
}


def test_every_declared_option_is_read(workspace, tmp_path, capsys):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(READ_RUNS)
    for command, make_argv in READ_RUNS.items():  # train first: classify reads its model
        argv = make_argv(workspace, tmp_path) + [
            "--corpus", workspace["corpus"], "--embeddings", workspace["vecs"]]
        args = RecordingNamespace(_read=set(), **vars(parser.parse_args(argv)))
        assert cli._HANDLERS[command](args) == 0
        declared = {a.dest for a in commands[command]._actions if a.dest != "help"}
        assert declared <= args._read, (command, declared - args._read)


def test_option_values_only_go_down():
    # a new flag raises this ceiling here, in plain sight
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = [s for p in commands.values() for a in p._actions
               for s in a.option_strings if s not in ("-h", "--help")]
    assert len(options) <= 36


class TestErrorPaths:
    def test_missing_corpus_is_config_error(self, workspace, capsys):
        code = main(["train", "--strategy", "msm", "--embeddings",
                     workspace["vecs"], "--corpus", "no-such-file.txt",
                     "--out", "/tmp/x.npz"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'no-such-file.txt'\n")

    def test_fully_oov_class_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("c0 w0_0 w0_1\nghostly zzz qqq\n")
        code = main(["train", "--strategy", "msm", "--embeddings",
                     workspace["vecs"], "--corpus", str(bad),
                     "--out", str(tmp_path / "m.npz")])
        assert code == 3
        assert "ghostly" in capsys.readouterr().err

    def test_unknown_strategy_exits_two(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--strategy", "bogus", "--corpus",
                  workspace["corpus"], "--out", "/tmp/x.npz"])
        assert exc.value.code == 2

    def test_threads_flag_is_unrecognized(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--strategy", "mnb", "--corpus", workspace["corpus"],
                  "--out", str(tmp_path / "r"), "--threads", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["train", "--strategy", "mnb"], "the following arguments are required: --out"),
        (["train", "--out", "{d}/refused"],
         "the following arguments are required: --strategy"),
        (["eval", "--strategy", "mnb"], "the following arguments are required: --out"),
        (["eval", "--out", "{d}/refused"],
         "the following arguments are required: --strategy"),
        (["eval", "--strategy", "mnb", "--out", "{d}/refused", "--strategies", "msm"],
         "unrecognized arguments: --strategies msm"),
        (["spectrum", "--embeddings", "{vecs}"],
         "the following arguments are required: --out"),
        # every model scores with all canonical angles
        (["train", "--strategy", "msm", "--out", "{d}/refused", "--angle-count", "0"],
         "unrecognized arguments: --angle-count 0"),
        (["train", "--strategy", "svm", "--out", "{d}/refused", "--angle-count", "1"],
         "unrecognized arguments: --angle-count 1"),
    ], ids=["train-without-out", "train-without-strategy", "eval-without-out",
            "eval-without-strategy", "eval-strategies-unrecognized",
            "spectrum-without-out", "train-angle-count-zero", "train-svm-angle-count"])
    def test_argparse_refusal(self, workspace, tmp_path, capsys, argv, message):
        argv = [a.format(d=tmp_path, vecs=workspace["vecs"]) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--corpus", workspace["corpus"]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_rank_too_large_is_numerical_error(self, workspace):
        code = main(["train", "--strategy", "lsa", "--corpus",
                     workspace["corpus"], "--rank", "9999",
                     "--out", "/tmp/x.npz"])
        assert code == 4

    @pytest.mark.parametrize("command,flags,code,message", [
        ("train", ("--strategy", "lsa", "--rank", "9999"), 4,
         "requested subspace dimension 9999 exceeds the rank cap 16"),
        ("train", ("--strategy", "lsa", "--feature", "tfidfbow", "--rank", "1"), 4,
         "requested subspace dimension 1 exceeds the rank cap 0"),
        ("eval", ("--strategy", "lsa", "--feature", "tfidfbow"), 3,
         "fold 0: every grid rank exceeds the numerical rank 0"),
    ], ids=["train-past-rank", "train-rank-zero", "eval-rank-zero"])
    def test_lsa_rank_cap_messages(self, workspace, tmp_path, capsys, command, flags,
                                   code, message):
        # the tfidfbow cases read a corpus whose one word is in every document:
        # its tfidf weight is 0, and so is the numerical rank
        corpus = workspace["corpus"]
        if "tfidfbow" in flags:
            corpus = _write(tmp_path / "c.txt", b"c0 a a\nc1 a a\n" * 10)
        capsys.readouterr()
        assert main([command, *flags, "--corpus", corpus,
                     "--out", str(tmp_path / "refused")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("refused*"))


def _doctored(root, ws, strategy, change, flags=()):
    """A ``strategy`` container written by ``train``, then ``change``d."""
    path = root / "model.npz"
    assert main(["train", "--strategy", strategy, "--corpus", ws["corpus"],
                 "--embeddings", ws["vecs"], "--out", str(path), *flags]) == 0
    with np.load(path) as data:
        entries = dict(data)
    change(entries)
    bad = root / "doctored.npz"
    with open(bad, "wb") as fh:
        np.savez(fh, **entries)
    return str(bad)


def _nan_first_weight(entries):
    entries["weights"][0, 0] = np.nan


def _set(name, value):
    return lambda entries: entries.update({name: value})


def _hyper(**fields):
    return lambda entries: entries.update(hyper_json=np.array(json.dumps(
        {**json.loads(str(entries["hyper_json"])), **fields})))


def _cut(name, index):
    return lambda entries: entries.update({name: entries[name][index]})


def _classify_doctored(strategy, change, code=3, flags=()):
    """``classify`` with a doctored ``strategy`` container, expecting ``code``."""
    return (lambda ws, d: [
        "classify", "--model", _doctored(d, ws, strategy, change, flags),
        "--corpus", ws["corpus"], "--embeddings", ws["vecs"]], code)


def _write(path, raw):
    path.write_bytes(raw)
    return str(path)


def _zip_bytes(change):
    """``classify`` with an mnb container whose raw bytes were ``change``d."""
    def argv(ws, d):
        path = d / "model.npz"
        assert main(["train", "--strategy", "mnb", "--corpus", ws["corpus"],
                     "--out", str(path)]) == 0
        raw = bytearray(path.read_bytes())
        change(raw)
        return ["classify", "--model", _write(d / "doctored.npz", bytes(raw)),
                "--corpus", ws["corpus"]]
    return argv, 3


def _central_field(offset, value):
    """Set the 2-byte field at ``offset`` of the first central-directory record."""
    def change(raw):
        at = raw.index(b"PK\x01\x02") + offset
        raw[at:at + 2] = value.to_bytes(2, "little")
    return change


def _flip_first_member_last_byte(raw):
    # the byte before the second member's local header: the CRC no longer matches
    raw[raw.index(b"PK\x03\x04", 4) - 1] ^= 1


def _relabel_first_class(entries):
    labels, classes = entries["labels"], entries["classes"]
    entries["labels"] = np.where(labels == classes[0], classes[1], labels)


def _refused(command, *flags, code=2):
    """``command`` with a setting it refuses: exit ``code`` (by default 2,
    out of range), and no output (``refused`` or, for eval,
    ``refused.*``) is written."""
    return (lambda ws, d: [command, "--corpus", ws["corpus"], "--embeddings", ws["vecs"],
                           "--out", str(d / "refused"), *flags]), code


def _huge_rows_train(strategy):
    """``train`` with a text table of 40 words in 8 dims, every other row
    scaled by 1e160: finite values whose squared norms overflow."""
    rows = np.random.default_rng(7).standard_normal((40, 8))
    rows[::2] *= 1e160
    words = [f"w{c}_{i}" for c in range(4) for i in range(4)] + [f"x{j}" for j in range(24)]
    text = "".join(f"{w} {' '.join(repr(float(v)) for v in row)}\n"
                   for w, row in zip(words, rows))
    return (lambda ws, d: [
        "train", "--strategy", strategy, "--corpus", ws["corpus"], "--embeddings",
        _write(d / "huge.txt", text.encode()), "--out", str(d / "refused")], 3)


def _nul_ended_train(corpus):
    """``train --strategy mnb`` on the raw ``corpus``, whose words may end
    in a NUL character."""
    return (lambda ws, d: ["train", "--strategy", "mnb", "--corpus",
                           _write(d / "nul.txt", corpus), "--out", str(d / "refused")], 3)


# input -> (argv given the workspace and a scratch directory, exit code)
BAD_INPUTS = {
    "corpus-is-directory": (lambda ws, d: [
        "train", "--strategy", "mnb", "--corpus", str(d), "--out", str(d / "m.npz")], 2),
    "model-is-directory": (lambda ws, d: [
        "classify", "--model", str(d), "--corpus", ws["corpus"]], 2),
    "train-out-is-directory": (lambda ws, d: [
        "train", "--strategy", "mnb", "--corpus", ws["corpus"], "--out", str(d)], 2),
    "train-out-missing-dir": (lambda ws, d: [
        "train", "--strategy", "mnb", "--corpus", ws["corpus"],
        "--out", str(d / "missing" / "refused")], 2),
    # headers numpy would refuse to allocate: the one record present is truncated
    "bin-embeddings-count-huge": (lambda ws, d: [
        "train", "--strategy", "sa", "--corpus", ws["corpus"], "--embeddings",
        _write(d / "v.bin", b"1000000000000000000 300\nw0_0 " + bytes(8)),
        "--out", str(d / "refused")], 3),
    "bin-embeddings-dim-huge": (lambda ws, d: [
        "train", "--strategy", "sa", "--corpus", ws["corpus"], "--embeddings",
        _write(d / "v.bin", b"1 10000000000000000000\nw0_0 " + bytes(8)),
        "--out", str(d / "refused")], 3),
    # headers whose dimension numpy cannot describe a float64 row of, and a
    # table with no words, which no run can use
    "bin-embeddings-empty-dim-huge": (lambda ws, d: [
        "train", "--strategy", "sa", "--corpus", ws["corpus"], "--embeddings",
        _write(d / "v.bin", b"0 10000000000000000000\n"), "--out", str(d / "refused")], 3),
    "text-embeddings-empty-dim-huge": (lambda ws, d: [
        "train", "--strategy", "sa", "--corpus", ws["corpus"], "--embeddings",
        _write(d / "v.txt", b"0 10000000000000000000\n"), "--out", str(d / "refused")], 3),
    "bin-embeddings-empty-dim-past-a-row": (lambda ws, d: [
        "train", "--strategy", "svm", "--feature", "w2v", "--corpus", ws["corpus"],
        "--embeddings", _write(d / "v.bin", b"0 4611686018427387904\n"),
        "--out", str(d / "refused")], 3),
    # of the model's dimension: it would label every document unclassifiable
    "classify-embeddings-no-words": (lambda ws, d: [
        "classify", "--model", _doctored(d, ws, "msm", lambda e: None), "--corpus",
        ws["corpus"], "--embeddings", _write(d / "v.txt", b"0 16\n")], 3),
    "corpus-not-utf8": (lambda ws, d: [
        "train", "--strategy", "mnb", "--corpus", _write(d / "c.txt", b"c0 caf\xe9 x\n"),
        "--out", str(d / "m.npz")], 3),
    "text-embeddings-not-utf8": (lambda ws, d: [
        "train", "--strategy", "sa", "--corpus", ws["corpus"], "--embeddings",
        _write(d / "v.txt", b"1 2\ncaf\xe9 1.0 0.0\n"), "--out", str(d / "m.npz")], 3),
    "model-not-npz": (lambda ws, d: [
        "classify", "--model", _write(d / "m.npz", b"c0 not a model\n"),
        "--corpus", ws["corpus"]], 3),
    "model-empty": (lambda ws, d: [
        "classify", "--model", _write(d / "m.npz", b""), "--corpus", ws["corpus"]], 3),
    "model-truncated-zip": (lambda ws, d: [
        "classify", "--model", _write(d / "m.npz", b"PK\x03\x04" + bytes(40)),
        "--corpus", ws["corpus"]], 3),
    "model-lacks-entry": (lambda ws, d: [
        "classify", "--model", _doctored(d, ws, "mnb", lambda e: e.pop("log_prob")),
        "--corpus", ws["corpus"]], 3),
    "model-strategy-not-a-name": (lambda ws, d: [
        "classify", "--model",
        _doctored(d, ws, "mnb", lambda e: e.update(strategy=np.array(5))),
        "--corpus", ws["corpus"]], 3),
    "svm-weight-nan": (lambda ws, d: [
        "classify", "--model", _doctored(d, ws, "svm", _nan_first_weight),
        "--corpus", ws["corpus"]], 3),
    "hyper-json-not-object": _classify_doctored("mnb", _set("hyper_json", np.array("[1, 2]"))),
    "hyper-json-not-text": _classify_doctored("mnb", _set("hyper_json", np.array(7))),
    "svm-weights-one-column": _classify_doctored("svm", _cut("weights", np.s_[:, :1])),
    "svm-offsets-not-a-vector": _classify_doctored("svm", _cut("offsets", np.s_[None])),
    "svm-more-classes-than-weights": _classify_doctored(
        "svm", lambda e: e.update(classes=np.append(e["classes"], "extra"))),
    "msm-basis-ambient-not-embed-dim": _classify_doctored("msm", _cut("class_0_basis", np.s_[1:])),
    "msm-spectrum-not-basis-width": _classify_doctored("msm", _cut("class_0_spectrum", np.s_[1:])),
    # the score clip min(..., 1) would hide a scaled basis: refused at load
    "msm-basis-not-orthonormal": _classify_doctored(
        "msm", lambda e: e.update(class_0_basis=2.0 * e["class_0_basis"])),
    "msm-embed-dim-not-an-int": _classify_doctored(
        "msm", _set("hyper_json", np.array('{"class_dim": 150, "query_dim": 10, '
                                           '"angle_count": null, "normalize": true, '
                                           '"embed_dim": "16"}'))),
    "msm-query-dim-not-an-int": _classify_doctored("msm", _hyper(query_dim="5")),
    # caps that would fail every document with exit 4: refused at load
    "msm-query-dim-zero": _classify_doctored("msm", _hyper(query_dim=0)),
    "msm-query-dim-negative": _classify_doctored("msm", _hyper(query_dim=-3)),
    # a model scores with every canonical angle: any angle count is refused
    "tfmsm-angle-count-not-an-int": _classify_doctored("tfmsm", _hyper(angle_count=[2])),
    "tfmsm-angle-count-zero": _classify_doctored("tfmsm", _hyper(angle_count=0)),
    "tfmsm-angle-count-true": _classify_doctored("tfmsm", _hyper(angle_count=True)),
    "tfmsm-angle-count-two": _classify_doctored("tfmsm", _hyper(angle_count=2)),
    "sa-embed-dim-zero": _classify_doctored("sa", _hyper(embed_dim=0)),
    "msm-class-dim-not-an-int": _classify_doctored("msm", _hyper(class_dim="x")),
    # would normalize, as any value but false does
    "msm-normalize-not-a-bool": _classify_doctored("msm", _hyper(normalize="off")),
    "sa-normalize-not-a-bool": _classify_doctored("sa", _hyper(normalize="off")),
    "sa-sums-not-embed-dim": _classify_doctored("sa", _cut("sums", np.s_[:, 1:])),
    "mnb-log-prob-not-terms-by-classes": _classify_doctored("mnb", _cut("log_prob", np.s_[1:])),
    "lsa-sigma-not-rank": _classify_doctored("lsa", _cut("sigma", np.s_[1:]),
                                             flags=("--rank", "3")),
    # settings that disagree with the arrays they describe, or that no
    # train run writes
    "lsa-rank-not-an-int": _classify_doctored("lsa", _hyper(rank="x"), flags=("--rank", "3")),
    "lsa-rank-not-basis-width": _classify_doctored("lsa", _hyper(rank=2),
                                                   flags=("--rank", "3")),
    "lsa-rank-true": _classify_doctored("lsa", _hyper(rank=True), flags=("--rank", "1")),
    "msm-class-dim-below-basis-width": _classify_doctored("msm", _hyper(class_dim=1)),
    "tfmsm-class-dim-below-basis-width": _classify_doctored("tfmsm", _hyper(class_dim=3)),
    "svm-reg-negative-epochs-not-an-int": _classify_doctored(
        "svm", _hyper(reg=-1, epochs="many")),
    "svm-reg-zero": _classify_doctored("svm", _hyper(reg=0.0)),
    "svm-reg-nan": _classify_doctored("svm", _hyper(reg=float("nan"))),
    "svm-reg-infinite": _classify_doctored("svm", _hyper(reg=float("inf"))),
    "svm-reg-not-a-number": _classify_doctored("svm", _hyper(reg="1e-4")),
    "svm-reg-true": _classify_doctored("svm", _hyper(reg=True)),
    "svm-epochs-not-an-int": _classify_doctored("svm", _hyper(epochs="many")),
    "svm-epochs-zero": _classify_doctored("svm", _hyper(epochs=0)),
    "svm-epochs-true": _classify_doctored("svm", _hyper(epochs=True)),
    "svm-seed-negative": _classify_doctored("svm", _hyper(seed=-1)),
    "svm-seed-not-an-int": _classify_doctored("svm", _hyper(seed=1.5)),
    "svm-seed-false": _classify_doctored("svm", _hyper(seed=False)),
    "lsa-labels-not-text": _classify_doctored("lsa", _set("labels", np.array(5)),
                                              flags=("--rank", "3")),
    "svm-spec-name-not-text": _classify_doctored("svm", _set("spec_name", np.zeros(2))),
    "model-no-classes": _classify_doctored("msm", _set("classes", np.array([], dtype=np.str_))),
    # classify prints each label as one field of a tab-separated line
    "model-class-label-tab": _classify_doctored(
        "mnb", _set("classes", np.array(["c\t0", "c1", "c2", "c3"]))),
    "model-class-label-newline": _classify_doctored(
        "mnb", _set("classes", np.array(["c0", "c\n1", "c2", "c3"]))),
    "model-class-label-empty": _classify_doctored(
        "mnb", _set("classes", np.array(["c0", "c1", "", "c3"]))),
    "model-class-label-repeated": _classify_doctored(
        "mnb", _set("classes", np.array(["c0", "c1", "c2", "c1"]))),
    # a container string loses its trailing NULs: train would write
    # "grain" twice as a class, and "wheat" twice as a term
    "train-class-label-ends-in-nul": _nul_ended_train(
        b"grain\x00 wheat corn\nearn profit wheat\x00\ngrain corn\n"),
    "train-term-ends-in-nul": _nul_ended_train(
        b"grain wheat corn\nearn profit wheat\x00\ngrain corn\n"),
    "lsa-class-without-documents": _classify_doctored("lsa", _relabel_first_class,
                                                      flags=("--rank", "3")),
    "model-zip-version-unsupported": _zip_bytes(_central_field(6, 109)),
    "model-zip-member-encrypted": _zip_bytes(_central_field(8, 1)),
    "model-zip-member-crc-mismatch": _zip_bytes(_flip_first_member_last_byte),
    # finite weights whose scores overflow: a numerical error, not a data error
    "svm-score-overflow": _classify_doctored(
        "svm", lambda e: e.update(weights=np.full_like(e["weights"], 1e308)), code=4),
    "mnb-score-overflow": _classify_doctored(
        "mnb", lambda e: e.update(log_prob=np.full_like(e["log_prob"], -1e308)), code=4),
    # count * idf overflows in the row weights, then in the scores
    "svm-tfidf-weight-overflow": _classify_doctored(
        "svm", lambda e: e.update(spec_idf_log=np.full_like(e["spec_idf_log"], 1e308)),
        code=4, flags=("--feature", "tfidfbow")),
    "lsa-tfidf-weight-overflow": _classify_doctored(
        "lsa", lambda e: e.update(spec_idf_log=np.full_like(e["spec_idf_log"], 1e308)),
        code=4, flags=("--rank", "3", "--feature", "tfidfbow")),
    # would score every class -1 without a word
    "lsa-sigma-zero": _classify_doctored(
        "lsa", lambda e: e.update(sigma=np.zeros_like(e["sigma"])), flags=("--rank", "3")),
    "lsa-sigma-increasing": _classify_doctored(
        "lsa", lambda e: e.update(sigma=e["sigma"][::-1].copy()), flags=("--rank", "3")),
    "lsa-basis-not-orthonormal": _classify_doctored(
        "lsa", lambda e: e.update(basis=2.0 * e["basis"]), flags=("--rank", "3")),
    "lsa-basis-huge": _classify_doctored(
        "lsa", lambda e: e.update(basis=1e300 * e["basis"]), flags=("--rank", "3")),
    # the weighted document norms overflow
    "lsa-doc-coords-huge": _classify_doctored(
        "lsa", lambda e: e.update(doc_coords=1e300 * e["doc_coords"]), flags=("--rank", "3")),
    # would negate every score, or divide by zero
    "sa-counts-negative": _classify_doctored(
        "sa", lambda e: e.update(counts=np.full_like(e["counts"], -1))),
    "sa-counts-zero": _classify_doctored(
        "sa", lambda e: e.update(counts=np.zeros_like(e["counts"]))),
    # B^T B overflows: refused without a numpy warning ahead of the error line
    "msm-basis-huge": _classify_doctored(
        "msm", lambda e: e.update(class_0_basis=1e300 * e["class_0_basis"])),
    "train-reg-zero": _refused("train", "--strategy", "svm", "--reg", "0"),
    "train-reg-negative": _refused("train", "--strategy", "svm", "--reg", "-1"),
    "train-reg-nan": _refused("train", "--strategy", "svm", "--reg", "nan"),
    "train-reg-inf": _refused("train", "--strategy", "svm", "--reg", "inf"),
    "train-epochs-zero": _refused("train", "--strategy", "svm", "--epochs", "0"),
    "train-class-dim-zero": _refused("train", "--strategy", "msm", "--class-dim", "0"),
    "train-query-dim-negative": _refused("train", "--strategy", "msm", "--query-dim", "-3"),
    "train-rank-zero": _refused("train", "--strategy", "lsa", "--rank", "0"),
    "eval-grid-reg-zero": _refused("eval", "--strategy", "svm", "--grid-reg", "0"),
    "eval-grid-class-dim-negative": _refused("eval", "--strategy", "msm",
                                             "--grid-class-dim", "-1"),
    "eval-grid-query-dim-zero": _refused("eval", "--strategy", "msm", "--grid-query-dim", "0"),
    "eval-grid-rank-zero": _refused("eval", "--strategy", "lsa", "--grid-rank", "0"),
    # the msm report would be complete; the svm grid is refused in the second run
    "eval-second-strategy-refused": _refused("eval", "--strategy", "msm,svm",
                                             "--grid-reg", "1e-3,0"),
    "spectrum-at-dim-zero": _refused("spectrum", "--at-dim", "0"),
    "spectrum-at-dim-negative": _refused("spectrum", "--at-dim", "-100000"),
    # refused before the embeddings are read, so their damage is never reported
    "spectrum-at-dim-zero-before-embeddings": (lambda ws, d: [
        "spectrum", "--corpus", ws["corpus"], "--embeddings",
        _write(d / "v.txt", b"not a table\n"), "--out", str(d / "refused"),
        "--at-dim", "0"], 2),
    "train-msm-without-embeddings": (lambda ws, d: [
        "train", "--strategy", "msm", "--corpus", ws["corpus"],
        "--out", str(d / "refused")], 2),
    "eval-strategies-unknown": _refused("eval", "--strategy", "bogus"),
    "train-seed-negative": _refused("train", "--strategy", "svm", "--seed", "-1"),
    "eval-seed-negative": _refused("eval", "--strategy", "mnb", "--seed", "-1"),
    # mnb has no grid: both axes would be ignored
    "eval-grid-axis-of-no-strategy": _refused("eval", "--strategy", "mnb", "--grid-reg",
                                              "1e-3", "--grid-rank", "2"),
    # mnb twice: one report pair and an "mnb vs mnb" t-test
    "eval-strategy-repeated": _refused("eval", "--strategy", "mnb,mnb", "--ttest"),
    # a setting the strategy's fit does not read would be ignored
    "train-mnb-rank-and-reg": _refused("train", "--strategy", "mnb", "--rank", "3",
                                       "--reg", "5"),
    "train-sa-query-dim": _refused("train", "--strategy", "sa", "--query-dim", "10"),
    "train-msm-epochs": _refused("train", "--strategy", "msm", "--epochs", "3"),
    "train-lsa-class-dim": _refused("train", "--strategy", "lsa", "--class-dim", "5"),
    "train-svm-rank-at-its-default": _refused("train", "--strategy", "svm", "--rank", "130"),
    "train-mnb-seed": _refused("train", "--strategy", "mnb", "--seed", "7"),
    "train-msm-seed-at-its-default": _refused("train", "--strategy", "msm", "--seed", "42"),
    # a reg so small that its Pegasos step sizes overflow: no NaN model is written
    "train-svm-reg-subnormal": _refused("train", "--strategy", "svm", "--reg", "1e-310",
                                        code=4),
    "train-svm-reg-smallest-subnormals": _refused("train", "--strategy", "svm", "--reg",
                                                  "1e-320", code=4),
    "eval-svm-grid-reg-subnormal": _refused("eval", "--strategy", "svm", "--grid-reg",
                                            "1e-320", code=4),
    "eval-svm-grid-mixes-subnormal-reg": _refused("eval", "--strategy", "svm", "--grid-reg",
                                                  "1e-3,1e-320", code=4),
    # refused at load, not left to normalize to a zero vector or tie every class
    "embeddings-norm-overflows-msm": _huge_rows_train("msm"),
    "embeddings-norm-overflows-sa": _huge_rows_train("sa"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code_without_traceback(case, workspace, tmp_path, capsys):
    # run in-process: an exception escaping main() fails the test here,
    # as it would print a traceback from the console entry point
    make_argv, want = BAD_INPUTS[case]
    argv = make_argv(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == want
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert not list(tmp_path.glob("refused*"))


@pytest.mark.parametrize("case,entry", [
    ("msm-basis-not-orthonormal", "class 0 subspace: basis"),
    ("lsa-basis-not-orthonormal", "lsa basis"),
])
def test_loaded_basis_refusal_names_its_entry(case, entry, workspace, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[case]
    argv = make_argv(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: {entry} is not orthonormal: max |B^T B - I| = 3\n")


@pytest.mark.parametrize("case,message", [
    ("msm-query-dim-zero", "query_dim must be a positive integer or null, found 0"),
    ("msm-query-dim-negative", "query_dim must be a positive integer or null, found -3"),
    ("tfmsm-angle-count-not-an-int", "angle_count must be null, found [2]"),
    ("tfmsm-angle-count-zero", "angle_count must be null, found 0"),
    ("tfmsm-angle-count-true", "angle_count must be null, found True"),
    ("tfmsm-angle-count-two", "angle_count must be null, found 2"),
    ("sa-embed-dim-zero", "embed_dim must be a positive integer, found 0"),
    ("msm-class-dim-not-an-int", "class_dim must be a positive integer or null, found 'x'"),
    ("msm-normalize-not-a-bool", "normalize must be a boolean, found 'off'"),
    ("sa-normalize-not-a-bool", "normalize must be a boolean, found 'off'"),
    ("lsa-rank-not-an-int", "rank must be the basis width 3, found 'x'"),
    ("lsa-rank-not-basis-width", "rank must be the basis width 3, found 2"),
    ("lsa-rank-true", "rank must be the basis width 1, found True"),
    ("msm-class-dim-below-basis-width",
     "class_dim must be null or at least the widest class basis (4), found 1"),
    ("tfmsm-class-dim-below-basis-width",
     "class_dim must be null or at least the widest class basis (4), found 3"),
    ("svm-reg-negative-epochs-not-an-int", "reg must be a finite number > 0, found -1"),
    ("svm-reg-zero", "reg must be a finite number > 0, found 0.0"),
    ("svm-reg-nan", "reg must be a finite number > 0, found nan"),
    ("svm-reg-infinite", "reg must be a finite number > 0, found inf"),
    ("svm-reg-not-a-number", "reg must be a finite number > 0, found '1e-4'"),
    ("svm-reg-true", "reg must be a finite number > 0, found True"),
    ("svm-epochs-not-an-int", "epochs must be a positive integer, found 'many'"),
    ("svm-epochs-zero", "epochs must be a positive integer, found 0"),
    ("svm-epochs-true", "epochs must be a positive integer, found True"),
    ("svm-seed-negative", "seed must be an integer >= 0, found -1"),
    ("svm-seed-not-an-int", "seed must be an integer >= 0, found 1.5"),
    ("svm-seed-false", "seed must be an integer >= 0, found False"),
])
def test_container_setting_refusal_names_it(case, message, workspace, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[case]
    argv = make_argv(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("case,message", [
    ("model-class-label-tab", "class label 'c\\t0' is empty or contains whitespace"),
    ("model-class-label-newline", "class label 'c\\n1' is empty or contains whitespace"),
    ("model-class-label-empty", "class label '' is empty or contains whitespace"),
    ("model-class-label-repeated", "class label 'c1' is repeated"),
])
def test_class_label_refusal_names_it(case, message, workspace, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[case]
    argv = make_argv(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("case,message", [
    ("train-class-label-ends-in-nul", "container entry 'classes' cannot hold 'grain\\x00'"),
    ("train-term-ends-in-nul", "container entry 'terms' cannot hold 'wheat\\x00'"),
])
def test_nul_ended_word_is_refused_before_the_container_is_written(
        case, message, workspace, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[case]
    argv = make_argv(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", f"error: {message}: a stored string loses its trailing NUL characters\n")
    assert not (tmp_path / "refused").exists()


# strategies whose models cannot score a document without in-vocabulary
# words; the others score it as a document with no vocabulary word
UNCLASSIFIABLE_WITHOUT_WORDS = ("msm", "tfmsm", "sa", "lsa")


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_document_without_vocabulary_words(strategy, workspace, tmp_path, capsys):
    model_path = str(tmp_path / "m.npz")
    rank = ["--rank", "3"] if strategy == "lsa" else []
    assert main(["train", "--strategy", strategy, "--embeddings", workspace["vecs"],
                 "--corpus", workspace["corpus"], "--out", model_path, *rank]) == 0
    queries = tmp_path / "q.txt"
    queries.write_text("c0\nc0 zzz yyy\n")  # an empty and an all-OOV document
    capsys.readouterr()
    assert main(["classify", "--model", model_path, "--embeddings", workspace["vecs"],
                 "--corpus", str(queries)]) == 0
    lines = capsys.readouterr().out.splitlines()
    if strategy in UNCLASSIFIABLE_WITHOUT_WORDS:
        want = f"{cli.UNCLASSIFIABLE}\tnan"
    else:
        model = load_model(model_path)
        scores = {
            "mnb": lambda: model.log_prior,
            "mvb": lambda: model.log_prior + model.log_not_prob.sum(axis=0),
            "svm": lambda: -model.offsets,
        }[strategy]()
        want = f"{model.classes[int(np.argmax(scores))]}\t{scores.max():.6f}"
    assert lines == [f"0\t{want}", f"1\t{want}"]


@pytest.mark.parametrize("strategy", ["msm", "tfmsm", "sa"])
def test_zero_vector_word_counts_as_oov(strategy, tmp_path, capsys):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("a 1 0\nb 0 0\nc 0 1\n")
    corpus = tmp_path / "train.txt"
    corpus.write_text("c0 a\nc0 a b\nc1 c\nc1 c b\n" * 3)
    queries = tmp_path / "q.txt"
    queries.write_text("c0 a\nc0 a b\nc1 c\nc0 b\n")
    common = ["--embeddings", str(vecs)]
    model_path = str(tmp_path / "m.npz")
    assert main(["train", "--strategy", strategy, "--corpus", str(corpus),
                 "--out", model_path, *common]) == 0
    capsys.readouterr()
    assert main(["classify", "--model", model_path, "--corpus", str(queries), *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[1] for line in lines] == ["c0", "c0", "c1", cli.UNCLASSIFIABLE]
    assert main(["eval", "--strategy", strategy, "--corpus", str(corpus),
                 "--out", str(tmp_path / "r"), *common]) == 0
    assert "mean_accuracy=1.0 " in capsys.readouterr().out


def _lsa_rank_3(ws, d):
    return ["train", "--strategy", "lsa", "--rank", "3", "--corpus", ws["corpus"],
            "--out", str(d / "m.npz")]


LAPACK = np.linalg.LinAlgError("did not converge")

# solver -> (functions made to fail, the error they raise, argv given the
# workspace and a scratch directory)
SOLVER_FAILURES = {
    "subspace-eigh": ([(np.linalg, "eigh")], LAPACK, lambda ws, d: [
        "train", "--strategy", "msm", "--corpus", ws["corpus"], "--embeddings", ws["vecs"],
        "--out", str(d / "m.npz")]),
    "lsa-svds": ([(spla, "svds")], LAPACK, _lsa_rank_3),
    "lsa-svds-arpack": ([(spla, "svds")], spla.ArpackError(-9999), _lsa_rank_3),
    "lsa-svds-arpack-no-convergence": ([(spla, "svds")], spla.ArpackNoConvergence(
        "ARPACK did not converge", np.zeros(0), np.zeros((0, 0))), _lsa_rank_3),
    # the dense route is the subspace eigensolver, with its SVD fallback
    "lsa-dense-svd": ([(np.linalg, "eigh"), (np.linalg, "svd")], LAPACK, lambda ws, d: [
        "train", "--strategy", "lsa", "--rank", "15", "--corpus", ws["corpus"],
        "--out", str(d / "m.npz")]),
    "spectrum": ([(np.linalg, "eigh"), (np.linalg, "svd")], LAPACK, lambda ws, d: [
        "spectrum", "--corpus", ws["corpus"], "--embeddings", ws["vecs"],
        "--out", str(d / "s.csv")]),
}


@pytest.mark.parametrize("case", sorted(SOLVER_FAILURES))
def test_solver_failure_exits_four(case, workspace, tmp_path, capsys, monkeypatch):
    targets, error, make_argv = SOLVER_FAILURES[case]

    def fail(*args, **kwargs):
        raise error

    for owner, name in targets:
        monkeypatch.setattr(owner, name, fail)
    capsys.readouterr()
    assert main(make_argv(workspace, tmp_path)) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(error) in err


@pytest.mark.parametrize("case,message", [
    ("lsa-svds-arpack", "ARPACK error -9999: Unknown error"),
    ("lsa-svds-arpack-no-convergence", "ARPACK error -1: ARPACK did not converge"),
])
def test_arpack_failure_is_named_as_the_truncated_svd(case, message, workspace, tmp_path,
                                                      capsys, monkeypatch):
    _, error, make_argv = SOLVER_FAILURES[case]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(spla, "svds", fail)
    capsys.readouterr()
    assert main(make_argv(workspace, tmp_path)) == 4
    assert capsys.readouterr() == ("", f"error: truncated SVD failed: {message}\n")


class TestEval:
    def test_perfect_strategies_report_one(self, workspace, capsys):
        prefix = str(workspace["root"] / "report")
        code = main(["eval", "--strategy", "msm", "--embeddings",
                     workspace["vecs"], "--corpus", workspace["corpus"],
                     "--out", prefix])
        assert code == 0
        kv = (workspace["root"] / "report.msm.kv").read_text()
        assert "accuracy.mean=1.0" in kv
        assert "accuracy.std=0.0" in kv
        assert (workspace["root"] / "report.msm.txt").exists()

    def test_eval_kv_rerun_byte_identical(self, workspace):
        prefix_a = str(workspace["root"] / "runA")
        prefix_b = str(workspace["root"] / "runB")
        for prefix in (prefix_a, prefix_b):
            main(["eval", "--strategy", "sa", "--embeddings", workspace["vecs"],
                  "--corpus", workspace["corpus"], "--out", prefix])
        a = (workspace["root"] / "runA.sa.kv").read_bytes()
        b = (workspace["root"] / "runB.sa.kv").read_bytes()
        assert a == b

    def test_ttest_pair(self, tmp_path, capsys):
        # a fixture with vocabulary overlap so the strategies disagree
        rng = np.random.default_rng(77)
        words = [f"t{i}" for i in range(12)]
        table = EmbeddingTable(words, rng.standard_normal((12, 6)))
        lines = []
        for i in range(40):
            label = f"c{i % 2}"
            pool = words[:8] if label == "c0" else words[4:]
            tokens = rng.choice(pool, size=5)
            lines.append(label + " " + " ".join(tokens))
        corpus_path = tmp_path / "noisy.txt"
        corpus_path.write_text("\n".join(lines) + "\n")
        vec_path = tmp_path / "vecs.txt"
        save_text(table, vec_path)
        prefix = str(tmp_path / "cmp")
        code = main(["eval", "--strategy", "mnb,mvb", "--ttest",
                     "--corpus", str(corpus_path), "--embeddings",
                     str(vec_path), "--out", prefix])
        assert code == 0
        ttest_kv = (tmp_path / "cmp.ttest.kv").read_text()
        assert "pair.mnb.mvb.t=" in ttest_kv
        assert "pair.mnb.mvb.p=" in ttest_kv
        assert (tmp_path / "cmp.mnb.kv").exists()
        assert (tmp_path / "cmp.mvb.kv").exists()

    def test_ttest_pair_tied_on_every_fold_is_undefined(self, workspace, tmp_path, capsys):
        # msm and sa both classify the orthogonal fixture perfectly on every fold
        code = main(["eval", "--strategy", "msm,sa", "--ttest",
                     "--embeddings", workspace["vecs"], "--corpus", workspace["corpus"],
                     "--out", str(tmp_path / "tie")])
        assert code == 0
        undefined = "undefined (zero variance of per-fold differences)"
        assert (tmp_path / "tie.ttest.kv").read_text() == (
            "schema=wordspace-ttest/1\npair.msm.sa.t=nan\npair.msm.sa.p=nan\n")
        assert (tmp_path / "tie.ttest.txt").read_text() == (
            f"paired t-test msm vs sa: {undefined}\n")
        assert f"ttest msm vs sa: {undefined}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("axis,grid", [("class-dim", "2,{}"), ("query-dim", "1,{}")],
                             ids=["class-dim", "query-dim"])
    def test_grid_value_past_int64_caps_like_any_large_value(self, tmp_path, capsys,
                                                             axis, grid):
        rng = np.random.default_rng(77)
        words = [f"t{i}" for i in range(12)]
        vec_path = tmp_path / "vecs.txt"
        save_text(EmbeddingTable(words, rng.standard_normal((12, 6))), vec_path)
        lines = [f"c{i % 2} " + " ".join(rng.choice(words[:8] if i % 2 else words[4:], 5))
                 for i in range(40)]
        corpus_path = _write(tmp_path / "noisy.txt", ("\n".join(lines) + "\n").encode())
        reports = []
        for value in ("100000000000000000000", "1000000"):
            prefix = tmp_path / value
            assert main(["eval", "--strategy", "msm", f"--grid-{axis}", grid.format(value),
                         "--embeddings", str(vec_path), "--corpus", corpus_path,
                         "--out", str(prefix)]) == 0
            kv = (tmp_path / f"{value}.msm.kv").read_text().splitlines()
            reports.append([line for line in kv if ".selected." not in line])
        assert "Traceback" not in capsys.readouterr().err
        assert reports[0] == reports[1]

    def test_ttest_requires_two_strategies(self, workspace):
        code = main(["eval", "--strategy", "msm", "--ttest",
                     "--embeddings", workspace["vecs"],
                     "--corpus", workspace["corpus"], "--out", "/tmp/r"])
        assert code == 2


def test_hyperparameter_flags_come_from_the_table(workspace, tmp_path):
    parser = cli.build_parser()
    train = parser.parse_args(["train", "--strategy", "msm", "--corpus", "c", "--out", "m"])
    assert all(getattr(train, name) is None for name in (*HYPERPARAMETERS, "seed"))
    # a train without flags stores the table's defaults; lsa's rank 130
    # needs a corpus of that rank: one distinct word per document
    wide = _write(tmp_path / "wide.txt",
                  "".join(f"c{i % 2} u{i}\n" for i in range(140)).encode())
    stored = {}
    for strategy, corpus in (("msm", workspace["corpus"]), ("svm", workspace["corpus"]),
                             ("lsa", wide)):
        path = tmp_path / f"{strategy}.npz"
        assert main(["train", "--strategy", strategy, "--corpus", corpus,
                     "--embeddings", workspace["vecs"], "--out", str(path)]) == 0
        model = load_model(path)
        stored.update({name: getattr(model, name) for name in STRATEGIES[strategy].settings})
    assert stored == {"seed": DEFAULT_SEED,
                      **{name: hp.default for name, hp in HYPERPARAMETERS.items()}}
    grid_axes = {name for name, hp in HYPERPARAMETERS.items() if hp.grid_help}
    assert grid_axes == {axis for s in STRATEGIES.values() for axis in s.grid}
    evaluate = vars(parser.parse_args(["eval", "--strategy", "msm", "--corpus", "c",
                                       "--out", "r"]))
    assert {k[len("grid_"):] for k in evaluate if k.startswith("grid_")} == grid_axes


GRID_AXES = [(name, axis) for name, s in STRATEGIES.items() for axis in s.grid]


@pytest.mark.parametrize("strategy,axis", GRID_AXES)
def test_grid_flag_sets_each_fold_selection(strategy, axis, workspace, tmp_path):
    value = HYPERPARAMETERS[axis].type(3e-3 if axis == "reg" else 3)
    prefix = tmp_path / "grid"
    assert main(["eval", "--strategy", strategy, f"--grid-{axis.replace('_', '-')}",
                 str(value), "--embeddings", workspace["vecs"],
                 "--corpus", workspace["corpus"], "--out", str(prefix)]) == 0
    kv = (tmp_path / f"grid.{strategy}.kv").read_text().splitlines()
    selected = [line for line in kv if f".selected.{axis}=" in line]
    assert selected == [f"fold.{i}.selected.{axis}={value!r}" for i in range(10)]


def test_repeated_unordered_grid_values_write_the_canonical_reports(tmp_path):
    """A grid axis drops its repeats, and every axis but reg is sorted, so
    ``2,1,2`` selects and reports as ``1,2``; ``1e-3,1e-2,1e-3`` as
    ``1e-3,1e-2``, whose order breaks ties."""
    rng = np.random.default_rng(77)
    words = [f"t{i}" for i in range(12)]
    vec_path = tmp_path / "vecs.txt"
    save_text(EmbeddingTable(words, rng.standard_normal((12, 6))), vec_path)
    lines = [f"c{i % 3} " + " ".join(rng.choice(words[3 * (i % 3):][:7], 5))
             for i in range(45)]
    corpus_path = _write(tmp_path / "noisy.txt", ("\n".join(lines) + "\n").encode())
    strategies = ("msm", "tfmsm", "lsa", "svm")
    grids = {"canonical": ("1,2", "1,2,5", "1,2", "1e-3,1e-2"),
             "repeated": ("2,1,2", "5,1,2,1", "2,1,2", "1e-3,1e-2,1e-3")}
    for name, (class_dims, query_dims, ranks, regs) in grids.items():
        assert main(["eval", "--strategy", ",".join(strategies),
                     "--grid-class-dim", class_dims, "--grid-query-dim", query_dims,
                     "--grid-rank", ranks, "--grid-reg", regs, "--embeddings", str(vec_path),
                     "--corpus", corpus_path, "--out", str(tmp_path / name)]) == 0
    for strategy in strategies:
        for kind in ("kv", "txt"):
            assert (tmp_path / f"repeated.{strategy}.{kind}").read_bytes() == \
                (tmp_path / f"canonical.{strategy}.{kind}").read_bytes()


class TestSpectrum:
    def test_rank_one_class(self, tmp_path, capsys):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        save_text(table, tmp_path / "v.txt")
        (tmp_path / "c.txt").write_text("c0 a a a\n")
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--corpus", str(tmp_path / "c.txt"),
                     "--embeddings", str(tmp_path / "v.txt"),
                     "--out", str(out), "--at-dim", "1"])
        assert code == 0
        assert "mean_cumulative_variance@1=1.0" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert rows[0].startswith("dim,eig_c0")
        assert rows[1].split(",")[1] == "1.0"

    def test_unwritable_output(self, tmp_path):
        table = EmbeddingTable(["a"], np.eye(1))
        save_text(table, tmp_path / "v.txt")
        (tmp_path / "c.txt").write_text("c0 a\n")
        code = main(["spectrum", "--corpus", str(tmp_path / "c.txt"),
                     "--embeddings", str(tmp_path / "v.txt"),
                     "--out", str(tmp_path / "nodir" / "x.csv")])
        assert code == 2


# Run in a fresh interpreter with a JSON object of step name -> argv:
# prints, as its last line, step -> [exit code, scipy modules loaded so far]
SCIPY_FOOTPRINT = """
import contextlib, io, json, sys

def step(code):
    return [code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]

import wordspace, wordspace.cli
loaded = {"import": step(0)}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        wordspace.cli.main(["--help"])
    except SystemExit as stop:
        loaded["--help"] = step(stop.code)
    for name, argv in json.loads(sys.argv[1]).items():
        loaded[name] = step(wordspace.cli.main(argv))
print(json.dumps(loaded))
"""


class TestConsoleEntry:
    def test_module_invocation(self, workspace, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "wordspace", "train", "--strategy", "sa",
             "--embeddings", workspace["vecs"], "--corpus",
             workspace["corpus"], "--out", str(tmp_path / "m.npz")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "strategy=sa" in result.stdout

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_reader_closing_early_ends_classify_by_sigpipe(self, workspace, tmp_path):
        model = str(tmp_path / "m.npz")
        assert main(["train", "--strategy", "mnb", "--corpus", workspace["corpus"],
                     "--out", model]) == 0
        docs = tmp_path / "docs.txt"  # far more output than a pipe buffer holds
        docs.write_text(Path(workspace["corpus"]).read_text() * 250)
        proc = subprocess.Popen(
            [sys.executable, "-m", "wordspace", "classify", "--model", model,
             "--corpus", str(docs)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.readline()
        proc.stdout.close()  # as `| head -1` does
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert b"Traceback" not in err

    def test_reruns_are_byte_identical_across_processes(self, workspace, tmp_path):
        """Every output of a rerun, in a fresh interpreter with another
        string-hash seed, is byte-identical."""
        files = ["--embeddings", workspace["vecs"], "--corpus", workspace["corpus"]]

        def run(hash_seed):
            out = tmp_path / f"hash{hash_seed}"
            out.mkdir()
            stdout = []
            for argv in (
                ["eval", "--strategy", ",".join(STRATEGIES), "--ttest", *files,
                 "--out", str(out / "r")],
                ["train", "--strategy", "tfmsm", *files, "--out", str(out / "m.npz")],
                ["classify", "--model", str(out / "m.npz"), *files],
                ["spectrum", *files, "--out", str(out / "s.csv")],
            ):
                result = subprocess.run(
                    [sys.executable, "-m", "wordspace", *argv], capture_output=True,
                    check=True, env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
                stdout.append(result.stdout.replace(str(out).encode(), b"OUT"))
            return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first, again = run(1), run(2)
        assert len(first[1]) == 2 * len(STRATEGIES) + 4  # reports, ttest, model, csv
        assert first == again

    def test_commands_that_never_call_scipy_leave_it_unloaded(self, workspace, tmp_path):
        """One fresh interpreter imports the package, prints --help and
        classifies with every strategy's train model, loading no scipy
        module; then an lsa/svm eval with a t-test, which calls scipy,
        loads it and exits 0.  No document has 8 x --query-dim distinct
        words, so no msm/tfmsm query takes the partial eigensolve."""
        files = ["--embeddings", workspace["vecs"], "--corpus", workspace["corpus"]]
        steps = {}
        for strategy in STRATEGIES:
            model = str(tmp_path / f"{strategy}.npz")
            rank = ["--rank", "3"] if strategy == "lsa" else []
            assert main(["train", "--strategy", strategy, *files, "--out", model, *rank]) == 0
            steps[f"classify {strategy}"] = ["classify", "--model", model, *files]
        unloaded = {step: [0, []] for step in ("import", "--help", *steps)}
        steps["eval"] = ["eval", "--strategy", "lsa,svm", "--ttest", *files,
                         "--out", str(tmp_path / "r")]
        child = subprocess.run([sys.executable, "-c", SCIPY_FOOTPRINT, json.dumps(steps)],
                               capture_output=True, text=True, check=True)
        loaded = json.loads(child.stdout.splitlines()[-1])
        eval_code, eval_modules = loaded.pop("eval")
        assert loaded == unloaded
        assert eval_code == 0
        assert {"scipy.sparse.linalg", "scipy.special"} <= set(eval_modules)

    def test_import_leaves_scipy_stats_unloaded(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, wordspace; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False"
