"""Byte-identity pins: the eval reports and the ``classify`` labels on
the benchmark's seed-1 inputs.

The ``.kv`` and ``.txt`` reports hold only decisions (per-fold accuracy
is a count ratio, plus the selected grid points and the notes), so a
change to a scoring or selection path that keeps every decision keeps
their bytes.  ``eval_pins.json`` holds their sha256 for every strategy
on the short shape, and on the long shape for the long-docs strategies
and for lsa, whose 48-document folds take the Gram route of its
factorization and skip infeasible grid ranks with a note, at the
default grids and seed.  Under its ``classify`` key it holds the
sha256 of the label column ``wordspace classify`` prints for a model
``wordspace train`` built at its defaults: every strategy on the short
shape's first 500 stream documents, and the long-docs strategies on
the long shape's 150.  A change that moves a pin updates the file in
the same commit; ``python tests/test_pins.py`` rewrites it.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from test_scale import _inputs
from wordspace.cli import main
from wordspace.embeddings import save_text
from wordspace.evaluation import DEFAULT_SEED, STRATEGIES, make_folds, run_experiment

import workloads  # perfbench/, put on the path by test_scale

PINS = os.path.join(os.path.dirname(__file__), "eval_pins.json")
LONG_STRATEGIES = workloads.WORKLOADS["long-docs"].strategies
CASES = ([("short", s) for s in STRATEGIES]
         + [("long", s) for s in (*LONG_STRATEGIES, "lsa")])
CLASSIFY_CASES = [("short", s) for s in STRATEGIES] + [("long", s) for s in LONG_STRATEGIES]
CLASSIFIED_DOCS = {"short": 500, "long": 150}


def _shapes():
    """The seed-1 (table, corpus, stream) of each input shape."""
    return {name: _inputs(getattr(workloads, name.upper()))
            for name in ("short", "long")}


@pytest.fixture(scope="module")
def shapes():
    return _shapes()


def _hashes(inputs, shape, strategy):
    table, corpus, _ = inputs[shape]
    report = run_experiment(corpus, strategy, make_folds(corpus, DEFAULT_SEED), table=table)
    return {kind: hashlib.sha256(text.encode()).hexdigest()
            for kind, text in (("kv", report.to_kv_text()), ("txt", report.to_table_text()))}


def _write_files(inputs, shape, root):
    """The shape's table (exact float64 text), corpus and classified
    stream documents as ``train`` and ``classify`` read them."""
    table, corpus, stream = inputs[shape]
    paths = {name: os.path.join(root, f"{shape}.{name}.txt")
             for name in ("table", "corpus", "stream")}
    save_text(table, paths["table"])
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{doc.label} {' '.join(doc.tokens)}\n" for doc in corpus)
    with open(paths["stream"], "w", encoding="utf-8") as fh:
        # classify reads a labelled corpus and ignores the label
        fh.writelines(f"stream {' '.join(tokens)}\n"
                      for tokens in stream[:CLASSIFIED_DOCS[shape]])
    return paths


def _classify_hash(paths, strategy, root):
    """sha256 of the label column of ``classify`` with a default ``train`` model."""
    model = os.path.join(root, f"{strategy}.npz")
    table = ["--embeddings", paths["table"]] if STRATEGIES[strategy].feature == "w2v" else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--strategy", strategy, "--corpus", paths["corpus"],
                     "--out", model, *table]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", "--model", model, "--corpus", paths["stream"], *table]) == 0
    labels = [line.split("\t")[1] for line in out.getvalue().splitlines()]
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


@pytest.fixture(scope="module")
def classify_files(shapes, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("classify"))
    return root, {shape: _write_files(shapes, shape, root) for shape in CLASSIFIED_DOCS}


@pytest.mark.parametrize("shape,strategy", CASES)
def test_eval_reports_match_their_pins(shape, strategy, shapes):
    with open(PINS) as fh:
        pins = json.load(fh)
    assert _hashes(shapes, shape, strategy) == pins[shape][strategy]


@pytest.mark.parametrize("shape,strategy", CLASSIFY_CASES)
def test_classify_labels_match_their_pins(shape, strategy, classify_files):
    root, files = classify_files
    with open(PINS) as fh:
        pins = json.load(fh)
    assert _classify_hash(files[shape], strategy, root) == pins["classify"][shape][strategy]


if __name__ == "__main__":
    inputs = _shapes()
    pins = {}
    for shape, strategy in CASES:
        pins.setdefault(shape, {})[strategy] = _hashes(inputs, shape, strategy)
    with tempfile.TemporaryDirectory() as root:
        files = {shape: _write_files(inputs, shape, root) for shape in CLASSIFIED_DOCS}
        for shape, strategy in CLASSIFY_CASES:
            pins.setdefault("classify", {}).setdefault(shape, {})[strategy] = \
                _classify_hash(files[shape], strategy, root)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
