"""In-memory span recorder that times the package's public functions from outside.

`instrument(recorder)` replaces each function in `TARGETS` with a
timing wrapper in every ``wordspace`` module namespace that holds it
(a function imported by name lives in several, e.g. `feature_matrix`
in features, evaluation, lsa and svm), and each method on its class.
A call that does not go through one of those names stays untimed.

Each span records its parent, so a span's self time is its duration
minus the time its child spans cover.  `Recorder.metrics` turns the
spans into ``<span>.s``, ``<span>.self_s`` and ``<span>.calls`` plus the
counters in `TARGETS`.
"""

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# span, module, function or Class.method, counter (name, fn(args, kwargs, result))
TARGETS = (
    ("embeddings.load", "embeddings", "load_binary", ("embeddings.load.words", lambda a, k, r: len(r))),
    ("embeddings.load", "embeddings", "load_text", ("embeddings.load.words", lambda a, k, r: len(r))),
    ("embeddings.lookup", "embeddings", "lookup_all", None),
    ("corpus.parse", "corpus", "parse_corpus", None),
    ("corpus.subset", "corpus", "Corpus.subset", None),
    ("features.fit_spec", "features", "fit_feature_spec", None),
    ("features.matrix", "features", "feature_matrix", ("features.matrix.rows", lambda a, k, r: r.shape[0])),
    ("subspace.fit", "subspace", "full_word_subspace", None),
    ("subspace.fit", "subspace", "full_weighted_word_subspace", None),
    ("subspace.similarity", "subspace", "similarity", None),
    ("classifiers.train", "classifiers", "train_msm", None),
    ("classifiers.train", "classifiers", "train_tfmsm", None),
    ("classifiers.train", "classifiers", "train_sa", None),
    ("classifiers.query_subspace", "classifiers", "query_subspace", None),
    ("classifiers.predict", "classifiers", "SubspaceModel.predict", None),
    ("classifiers.predict", "classifiers", "SimilarityAverageModel.predict", None),
    ("kernels.grid", "kernels", "grid_mean_sq_cosines", ("kernels.grid.cells", lambda a, k, r: r.size)),
    ("kernels.hinge_sgd", "kernels", "hinge_sgd", ("kernels.hinge_sgd.samples", lambda a, k, r: a[6].size)),
    ("bayes.train", "bayes", "train_mvb", None),
    ("bayes.train", "bayes", "train_mnb", None),
    ("bayes.predict", "bayes", "NaiveBayesModel.predict", None),
    ("lsa.svd", "lsa", "truncated_svd", None),
    ("lsa.predict", "lsa", "LsaModel.predict", None),
    ("svm.fit", "svm", "fit_linear_svm", None),
    ("svm.predict", "svm", "LinearSvmModel.predict", None),
    ("evaluation.run", "evaluation", "run_experiment", None),
    ("evaluation.spectrum", "evaluation", "spectrum_report", None),
    ("evaluation.ttest", "evaluation", "paired_ttest", None),
    ("evaluation.report", "evaluation", "EvalReport.to_kv_text", None),
    ("evaluation.report", "evaluation", "EvalReport.to_table_text", None),
    ("model_io.save", "model_io", "save_model", ("model_io.bytes", lambda a, k, r: os.path.getsize(a[1]))),
    ("model_io.load", "model_io", "load_model", ("model_io.bytes", lambda a, k, r: os.path.getsize(a[0]))),
    ("utils.parallel_map", "utils", "parallel_map", ("utils.parallel_map.items", lambda a, k, r: len(r))),
)

# `import wordspace` is timed by the session itself.
SPANS = ("cli.import",) + tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTERS = tuple(dict.fromkeys(t[3][0] for t in TARGETS if t[3]))


class Recorder:
    """Spans as [name, parent index, start, end]; counters as sums."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._open = []
        self._mark = (0, {})

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][3] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, name, start, end):
        """A span the caller timed itself (it has no children)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, start, end])

    def mark(self):
        """End of set-up: what follows repeats once per round."""
        self._mark = (len(self.spans), dict(self.counters))

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result
        return timed

    def covered(self):
        """Time each span's direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def metrics(self, rounds=1):
        """Per-layer metrics of a session as if it ran one round: set-up
        counts once, everything after `mark` is divided by ``rounds``."""
        first, setup_counters = self._mark
        covered = self.covered()
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            weight = 1.0 if i < first else 1.0 / rounds
            total[name] += (end - start) * weight
            own[name] += (end - start - covered[i]) * weight
            calls[name] += weight
        out = {}
        for name in SPANS:
            out[f"{name}.s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        for name in COUNTERS:
            before = setup_counters.get(name, 0.0)
            value = before + (self.counters[name] - before) / rounds
            out[name] = (value, "bytes" if name.endswith("bytes") else "count")
        return out


def phase_self_times(recorder, rounds=1):
    """Per-round self time of every span under each ``phase.*`` span the
    session opened, e.g. ``{"phase.eval": {"evaluation.run": 0.4, ...}}``."""
    covered = recorder.covered()
    phase_of = [None] * len(recorder.spans)
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, parent, start, end) in enumerate(recorder.spans):
        # a parent is appended before its children
        phase_of[i] = name if name.startswith("phase.") else (
            phase_of[parent] if parent >= 0 else None)
        if phase_of[i] is not None:
            out[phase_of[i]][name] += (end - start - covered[i]) / rounds
    return {phase: dict(times) for phase, times in out.items()}


def instrument(recorder):
    """Wrap every target in every ``wordspace`` namespace that binds it."""
    owners = {m: importlib.import_module(f"wordspace.{m}") for m in {t[1] for t in TARGETS}}
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "wordspace" or n.startswith("wordspace.")) and m is not None]
    for span, module, attr, counter in TARGETS:
        owner = owners[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(span, getattr(cls, meth), counter))
            continue
        original = getattr(owner, attr)
        timed = recorder.wrap(span, original, counter)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, timed)
