"""Pins on the benchmark's seed-1 inputs: the eval reports and the
``classify`` labels byte for byte, and the ``classify`` scores to a
tolerance.

The ``.kv`` and ``.txt`` reports hold only decisions (per-fold accuracy
is a count ratio, plus the selected grid points and the notes), so a
change to a scoring or selection path that keeps every decision keeps
their bytes.  ``eval_pins.json`` holds their sha256 for every strategy
on the short shape, and on the long shape for the long-docs strategies
and for lsa, whose 48-document folds take the Gram route of its
factorization and skip infeasible grid ranks with a note, at the
default grids and seed; the short shape's reports also hold when the
default grids are given twice over and out of order.  Under its
``classify`` key it holds the sha256 of the label column ``wordspace
classify`` prints for a model ``wordspace train`` built at its
defaults: every strategy on the short shape's first 500 stream
documents, and the long-docs strategies on the long shape's 150.
Under its ``classify_scores`` key it holds the score column of those
same runs, parsed as floats, which are compared to within
`SCORE_ATOL`: a few units in the sixth decimal that ``classify``
prints, so a BLAS build that rounds differently still passes while a
change to the scoring arithmetic does not.  Under its ``model_spectra``
key it holds the stored spectra of those same models, each class's of
an msm or tfmsm one and an lsa one's singular values, compared to
within `SPECTRA_RTOL` of each array's largest entry; under its
``spectrum`` key, the header and values of the short shape's
``wordspace spectrum`` CSV, compared to within `SPECTRUM_ATOL`.  A
change that moves a pin updates the file in the same commit;
``python tests/test_pins.py`` rewrites it.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import tempfile

import numpy as np
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
# printed scores may differ by one unit in the sixth decimal on another BLAS
SCORE_ATOL = 3e-6
# a stored eigenvalue or singular value is kept down to RANK_RTOL (1e-10) of
# the largest, and its roundoff is a few units of the largest's last place:
# another BLAS moves an entry by far less than 1e-9 of the largest
SPECTRA_RTOL = 1e-9
# the spectrum CSV holds normalized eigenvalues and variance fractions in [0, 1]
SPECTRUM_ATOL = 1e-9


def _shapes():
    """The seed-1 (table, corpus, stream) of each input shape."""
    return {name: _inputs(getattr(workloads, name.upper()))
            for name in ("short", "long")}


@pytest.fixture(scope="module")
def shapes():
    return _shapes()


def _hashes(inputs, shape, strategy, grids=None):
    table, corpus, _ = inputs[shape]
    report = run_experiment(corpus, strategy, make_folds(corpus, DEFAULT_SEED), table=table,
                            grids=grids)
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


def _classify_columns(paths, strategy, root):
    """The label and score columns of ``classify`` with a default ``train``
    model (an unclassifiable document's score is NaN), and the model's
    stored spectra: ``{entry: values}`` of its class spectra or lsa
    singular values, empty for the other strategies."""
    model = os.path.join(root, f"{strategy}.npz")
    table = ["--embeddings", paths["table"]] if STRATEGIES[strategy].feature == "w2v" else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--strategy", strategy, "--corpus", paths["corpus"],
                     "--out", model, *table]) == 0
    with np.load(model) as entries:
        spectra = {name: entries[name].tolist() for name in sorted(entries.files)
                   if name.endswith("_spectrum") or name == "sigma"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", "--model", model, "--corpus", paths["stream"], *table]) == 0
    rows = [line.split("\t") for line in out.getvalue().splitlines()]
    return [row[1] for row in rows], [float(row[2]) for row in rows], spectra


def _spectrum_csv(paths, root):
    """The header and the values of ``wordspace spectrum``'s CSV."""
    out = os.path.join(root, "spectrum.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectrum", "--corpus", paths["corpus"], "--embeddings", paths["table"],
                     "--out", out]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return {"header": header, "rows": [[float(v) for v in row] for row in rows]}


def _label_hash(labels):
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


@pytest.fixture(scope="module")
def files(shapes, tmp_path_factory):
    """``(root, {shape: paths})`` of each shape's files, written once."""
    root = str(tmp_path_factory.mktemp("classify"))
    return root, {shape: _write_files(shapes, shape, root) for shape in CLASSIFIED_DOCS}


@pytest.fixture(scope="module")
def classified(files):
    """``(shape, strategy) -> (labels, scores, spectra)``, each case run once."""
    root, paths = files
    return functools.cache(lambda shape, strategy: _classify_columns(paths[shape], strategy, root))


@pytest.mark.parametrize("shape,strategy", CASES)
def test_eval_reports_match_their_pins(shape, strategy, shapes):
    with open(PINS) as fh:
        pins = json.load(fh)
    assert _hashes(shapes, shape, strategy) == pins[shape][strategy]


def _repeated(axis, values):
    """``values`` twice over, and reversed unless ``axis`` is reg, whose
    order breaks ties."""
    return tuple(values) * 2 if axis == "reg" else tuple(reversed(values)) * 2


@pytest.mark.parametrize("strategy", [name for name, s in STRATEGIES.items() if s.grid])
def test_repeated_unordered_grids_write_the_pinned_reports(strategy, shapes):
    """The default grid given twice over and out of order selects, and
    reports, as the default grid: `kernels.hinge_sgd`, whose strided
    scores may round differently with more strengths, sees each reg once."""
    with open(PINS) as fh:
        pins = json.load(fh)
    grids = {axis: _repeated(axis, values) for axis, values in STRATEGIES[strategy].grid.items()}
    assert _hashes(shapes, "short", strategy, grids) == pins["short"][strategy]


@pytest.mark.parametrize("shape,strategy", CLASSIFY_CASES)
def test_classify_labels_match_their_pins(shape, strategy, classified):
    with open(PINS) as fh:
        pins = json.load(fh)
    labels, _, _ = classified(shape, strategy)
    assert _label_hash(labels) == pins["classify"][shape][strategy]


@pytest.mark.parametrize("shape,strategy", CLASSIFY_CASES)
def test_classify_scores_match_their_pins(shape, strategy, classified):
    with open(PINS) as fh:
        pins = json.load(fh)
    _, scores, _ = classified(shape, strategy)
    np.testing.assert_allclose(scores, pins["classify_scores"][shape][strategy],
                               rtol=0, atol=SCORE_ATOL)


@pytest.mark.parametrize("shape,strategy", CLASSIFY_CASES)
def test_model_spectra_match_their_pins(shape, strategy, classified):
    with open(PINS) as fh:
        pins = json.load(fh)
    _, _, spectra = classified(shape, strategy)
    want = pins["model_spectra"][shape][strategy]
    assert spectra.keys() == want.keys()
    assert bool(spectra) == (strategy in ("msm", "tfmsm", "lsa"))
    for name, values in want.items():
        assert len(spectra[name]) == len(values)
        np.testing.assert_allclose(spectra[name], values, rtol=0,
                                   atol=SPECTRA_RTOL * max(values), err_msg=name)


def test_spectrum_csv_matches_its_pin(files):
    with open(PINS) as fh:
        pins = json.load(fh)
    root, paths = files
    got, want = _spectrum_csv(paths["short"], root), pins["spectrum"]["short"]
    assert got["header"] == want["header"]
    assert [len(row) for row in got["rows"]] == [len(row) for row in want["rows"]]
    np.testing.assert_allclose(got["rows"], want["rows"], rtol=0, atol=SPECTRUM_ATOL)


if __name__ == "__main__":
    inputs = _shapes()
    pins = {}
    for shape, strategy in CASES:
        pins.setdefault(shape, {})[strategy] = _hashes(inputs, shape, strategy)
    with tempfile.TemporaryDirectory() as root:
        files = {shape: _write_files(inputs, shape, root) for shape in CLASSIFIED_DOCS}
        for shape, strategy in CLASSIFY_CASES:
            labels, scores, spectra = _classify_columns(files[shape], strategy, root)
            pins.setdefault("classify", {}).setdefault(shape, {})[strategy] = _label_hash(labels)
            pins.setdefault("classify_scores", {}).setdefault(shape, {})[strategy] = scores
            pins.setdefault("model_spectra", {}).setdefault(shape, {})[strategy] = spectra
        pins["spectrum"] = {"short": _spectrum_csv(files["short"], root)}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
