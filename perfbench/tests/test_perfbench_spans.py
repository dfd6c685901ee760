"""The span recorder: self time, per-round scaling, wrapping by namespace."""

import os
import subprocess
import sys

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def test_self_time_and_rounds():
    rec = spans.Recorder()
    rec.add("cli.import", 0.0, 2.0)
    rec.mark()
    for offset in (10.0, 20.0):  # two rounds
        rec.spans.append(["evaluation.run", -1, offset, offset + 4.0])
        parent = len(rec.spans) - 1
        rec.spans.append(["kernels.grid", parent, offset + 1.0, offset + 2.5])
        rec.counters["kernels.grid.cells"] += 35
    m = rec.metrics(rounds=2)
    assert m["cli.import.s"] == (2.0, "s")
    assert m["evaluation.run.s"] == (4.0, "s")
    assert m["evaluation.run.self_s"] == (2.5, "s")
    assert m["kernels.grid.calls"] == (1.0, "count")
    assert m["kernels.grid.cells"] == (35.0, "count")
    assert m["subspace.fit.calls"] == (0.0, "count")


def test_instrument_wraps_every_namespace_that_binds_a_function():
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import wordspace, spans
from wordspace import evaluation, features, lsa, svm, corpus
rec = spans.Recorder()
spans.instrument(rec)
fm = features.feature_matrix
assert evaluation.feature_matrix is fm and lsa.feature_matrix is fm and svm.feature_matrix is fm
spec = features.fit_feature_spec("binbow", corpus.parse_corpus(["a x y", "b y z"]))
lsa.feature_matrix(spec, [corpus.Document("a", ("x", "q"))])
names = [s[0] for s in rec.spans]
assert names.count("features.matrix") == 1 and "features.fit_spec" in names, names
assert rec.counters["features.matrix.rows"] == 1
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), BENCH],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "ok"
