"""The generator: same seed, same bytes; the documented make-up holds."""

import dataclasses

import numpy as np

import gen
import workloads

TINY = dataclasses.replace(workloads.SHORT, name="tiny", n_docs=200, n_stream=40,
                           n_common=400, n_topic=30, n_oov=40, table_extra=300)


def test_same_seed_same_bytes(tmp_path):
    a = gen.write_inputs(TINY, 7, str(tmp_path / "a"))
    b = gen.write_inputs(TINY, 7, str(tmp_path / "b"))
    c = gen.write_inputs(TINY, 8, str(tmp_path / "c"))
    assert a["sha256"] == b["sha256"]
    assert a["sha256"]["corpus"] != c["sha256"]["corpus"]
    for key in ("corpus", "stream", "table"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_cache_reuses_a_seed(tmp_path):
    first = gen.write_inputs(TINY, 3, str(tmp_path))
    again = gen.write_inputs(TINY, 3, str(tmp_path))
    assert first == again


def test_text_table_round_trips_exactly(tmp_path):
    shape = dataclasses.replace(TINY, table="txt")
    data = gen.generate(shape, 5)
    paths = gen.write_inputs(shape, 5, str(tmp_path))
    with open(paths["table"], encoding="ascii") as fh:
        lines = fh.read().splitlines()[1:]
    parsed = {ln.split()[0]: np.array([float(v) for v in ln.split()[1:]]) for ln in lines}
    for w, v in zip(data.words, data.vectors):
        assert np.array_equal(parsed[w], v)


def test_make_up():
    data = gen.generate(TINY, 11)
    vocab = set(data.words)
    anchors = set()
    for docs in (data.corpus, data.stream):
        for label, tokens in docs:
            assert all(t.isascii() and t.isalpha() for t in tokens)
            assert tokens[0] in vocab  # the frequent in-vocabulary anchor
            anchors.add(tokens[0])
    assert len(anchors) <= gen.ANCHORS
    assert any(t not in vocab for _, toks in data.corpus for t in toks)  # some OOV
    labels = [label for label, _ in data.corpus]
    assert [labels.count(c) for c, _ in workloads.R8_CLASSES] == gen._class_counts(200)
    assert labels.count("earn") / len(labels) > 0.5
    assert labels.count("grain") / len(labels) < 0.01
    assert len(data.words) == len(set(data.words))
