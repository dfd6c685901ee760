import subprocess
import sys

import numpy as np
import pytest

from helpers import orthogonal_table, synth_corpus
from wordspace.cli import main
from wordspace.embeddings import EmbeddingTable, load_text, save_text
from wordspace.evaluation import STRATEGIES
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
                     "--corpus", workspace["corpus"], "--threads", "1"])
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
        code = main(["classify", "--model", model_path, "--embeddings",
                     str(other_vecs), "--corpus", workspace["corpus"]])
        assert code == 3

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
    "tfmsm": (["--query-dim", "2", "--angle-count", "1"], {"query_dim": 2, "angle_count": 1}),
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


class TestErrorPaths:
    def test_missing_corpus_is_config_error(self, workspace):
        code = main(["train", "--strategy", "msm", "--embeddings",
                     workspace["vecs"], "--corpus", "no-such-file.txt",
                     "--out", "/tmp/x.npz"])
        assert code == 2

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

    def test_train_without_strategy(self, workspace):
        code = main(["train", "--corpus", workspace["corpus"],
                     "--out", "/tmp/x.npz"])
        assert code == 2

    def test_rank_too_large_is_numerical_error(self, workspace):
        code = main(["train", "--strategy", "lsa", "--corpus",
                     workspace["corpus"], "--rank", "9999",
                     "--out", "/tmp/x.npz"])
        assert code == 4


def _doctored(root, corpus, strategy, change):
    """A ``strategy`` container written by ``train``, then ``change``d."""
    path = root / "model.npz"
    assert main(["train", "--strategy", strategy, "--corpus", corpus,
                 "--out", str(path)]) == 0
    with np.load(path) as data:
        entries = dict(data)
    change(entries)
    bad = root / "doctored.npz"
    with open(bad, "wb") as fh:
        np.savez(fh, **entries)
    return str(bad)


def _nan_first_weight(entries):
    entries["weights"][0, 0] = np.nan


def _write(path, raw):
    path.write_bytes(raw)
    return str(path)


# input -> (argv given the workspace and a scratch directory, exit code)
BAD_INPUTS = {
    "corpus-is-directory": (lambda ws, d: [
        "train", "--strategy", "mnb", "--corpus", str(d), "--out", str(d / "m.npz")], 2),
    "model-is-directory": (lambda ws, d: [
        "classify", "--model", str(d), "--corpus", ws["corpus"]], 2),
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
        "classify", "--model", _doctored(d, ws["corpus"], "mnb", lambda e: e.pop("log_prob")),
        "--corpus", ws["corpus"]], 3),
    "model-strategy-not-a-name": (lambda ws, d: [
        "classify", "--model",
        _doctored(d, ws["corpus"], "mnb", lambda e: e.update(strategy=np.array(5))),
        "--corpus", ws["corpus"]], 3),
    "svm-weight-nan": (lambda ws, d: [
        "classify", "--model", _doctored(d, ws["corpus"], "svm", _nan_first_weight),
        "--corpus", ws["corpus"]], 3),
}


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


class TestEval:
    def test_perfect_strategies_report_one(self, workspace, capsys):
        prefix = str(workspace["root"] / "report")
        code = main(["eval", "--strategy", "msm", "--embeddings",
                     workspace["vecs"], "--corpus", workspace["corpus"],
                     "--out", prefix, "--threads", "1"])
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
        code = main(["eval", "--strategies", "mnb,mvb", "--ttest",
                     "--corpus", str(corpus_path), "--embeddings",
                     str(vec_path), "--out", prefix])
        assert code == 0
        ttest_kv = (tmp_path / "cmp.ttest.kv").read_text()
        assert "pair.mnb.mvb.t=" in ttest_kv
        assert "pair.mnb.mvb.p=" in ttest_kv
        assert (tmp_path / "cmp.mnb.kv").exists()
        assert (tmp_path / "cmp.mvb.kv").exists()

    def test_ttest_requires_two_strategies(self, workspace):
        code = main(["eval", "--strategy", "msm", "--ttest",
                     "--embeddings", workspace["vecs"],
                     "--corpus", workspace["corpus"], "--out", "/tmp/r"])
        assert code == 2


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

    def test_import_leaves_scipy_stats_unloaded(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, wordspace; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False"
