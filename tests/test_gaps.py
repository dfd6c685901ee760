"""Cross-cutting contract checks that do not belong to one module."""

import struct

import numpy as np
import pytest

from wordspace.bayes import train_mnb, train_mvb
from wordspace.cli import main
from wordspace.corpus import Corpus, Document
from wordspace.embeddings import EmbeddingTable, save_text
from wordspace.features import feature_matrix, fit_feature_spec
from wordspace.model_io import load_model, save_model
from wordspace.subspace import canonical_cosines, full_word_subspace, similarity


class TestBowVectorInvariants:
    """Invariants of the bag-of-words rows `feature_matrix` stores."""

    @staticmethod
    def rows(name):
        rng = np.random.default_rng(3)
        docs = [Document("c", ("common",) + tuple(
            rng.choice(["a", "b", "c"], size=rng.integers(0, 8)).tolist()))
            for _ in range(20)]
        train = Corpus(docs)
        return feature_matrix(fit_feature_spec(name, train), docs)

    def test_rejects_explicit_zero(self):
        # "common" is in every document: its tfidf weight is 0 and not stored
        for name in ("binbow", "tfbow", "tfidfbow"):
            rows = self.rows(name)
            assert np.all(rows.data > 0.0), name
        assert self.rows("tfidfbow").nnz < self.rows("tfbow").nnz

    def test_rejects_non_unit_binary(self):
        np.testing.assert_array_equal(self.rows("binbow").data, 1.0)

    def test_rejects_fractional_tf(self):
        data = self.rows("tfbow").data
        np.testing.assert_array_equal(data, np.rint(data))
        assert data.max() > 1.0


class TestSimilarityPaths:
    def test_frobenius_shortcut_matches_svd_route(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = int(rng.integers(2, 9))
            a = full_word_subspace(rng.standard_normal((p, p + 2)),
                                   int(rng.integers(1, p + 1)))
            b = full_word_subspace(rng.standard_normal((p, p + 2)),
                                   int(rng.integers(1, p + 1)))
            t = min(a.dimension, b.dimension)
            via_cosines = float(np.mean(canonical_cosines(a, b)[:t] ** 2))
            assert similarity(a, b, t) == pytest.approx(via_cosines, abs=1e-12)


class TestNaiveBayesDeterminismAndIo:
    def test_bit_reproducible(self):
        rng = np.random.default_rng(1)
        docs = [Document(f"c{rng.integers(0, 3)}",
                         tuple(rng.choice(["a", "b", "c"], size=4).tolist()))
                for _ in range(15)]
        corpus = Corpus(docs)
        m1, m2 = train_mvb(corpus), train_mvb(corpus)
        np.testing.assert_array_equal(m1.log_prob, m2.log_prob)
        np.testing.assert_array_equal(m1.log_prior, m2.log_prior)

    def test_container_roundtrip(self, tmp_path):
        corpus = Corpus([Document("c0", ("a", "b")), Document("c1", ("b",))])
        for train in (train_mvb, train_mnb):
            model = train(corpus)
            save_model(model, tmp_path / "nb.npz")
            again = load_model(tmp_path / "nb.npz")
            assert again.kind == model.kind
            for query in ((), ("a",), ("a", "b", "zzz")):
                np.testing.assert_array_equal(model.predict(query).scores,
                                              again.predict(query).scores)


class TestCliVariants:
    def test_binary_embeddings_with_format_override(self, tmp_path, capsys):
        words = [("w0_0", [1.0, 0.0]), ("w1_0", [0.0, 1.0])]
        raw = b"2 2\n"
        for w, vec in words:
            raw += w.encode() + b" " + struct.pack("<2f", *vec) + b"\n"
        vec_path = tmp_path / "vectors.dat"
        vec_path.write_bytes(raw)
        (tmp_path / "c.txt").write_text("c0 w0_0\nc1 w1_0\n")
        code = main(["train", "--strategy", "sa", "--embeddings", str(vec_path),
                     "--format", "bin", "--corpus", str(tmp_path / "c.txt"),
                     "--out", str(tmp_path / "m.npz")])
        assert code == 0

    def test_normalize_vectors_off(self, tmp_path, capsys):
        # stretched vectors only stay apart when normalization is off
        table = EmbeddingTable(["w0_0", "w1_0"],
                               np.array([[5.0, 0.0], [0.0, 0.1]]))
        save_text(table, tmp_path / "v.txt")
        (tmp_path / "c.txt").write_text("c0 w0_0\nc1 w1_0\n")
        for flag in ("on", "off"):
            code = main(["train", "--strategy", "msm", "--embeddings",
                         str(tmp_path / "v.txt"), "--corpus",
                         str(tmp_path / "c.txt"), "--normalize-vectors", flag,
                         "--out", str(tmp_path / f"m_{flag}.npz")])
            assert code == 0
        on = load_model(tmp_path / "m_on.npz")
        off = load_model(tmp_path / "m_off.npz")
        assert on.normalize and not off.normalize
        # projectors agree here (normalization only rescales columns);
        # spectra differ because the unnormalized lengths differ
        assert on.subspaces["c0"].spectrum[0] == pytest.approx(1.0)
        assert off.subspaces["c0"].spectrum[0] == pytest.approx(25.0)
