"""Checks of a session's outputs against the oracles and the method's properties.

`run_checks(out)` takes a `SessionOutput` (plain data: the raw input
documents, the exact word vectors, and what the program returned) and
returns ``[(name, ok, detail)]``.  A session is correct only when every
check passes.  The checks use one fold, ``seed % 10``, and a seeded
sample of the stream, so every run covers different documents.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

STREAM_SAMPLE = 40
SVM_WEIGHT_RTOL = 1e-9   # float64 roundoff over ~1e4 Pegasos steps, with margin
SCORE_RTOL = 1e-9
FOLD_EPOCHS = 20         # run_experiment trains the svm with its default epochs
SPECTRUM_ATOL = 1e-9


@dataclass
class SessionOutput:
    """What a session read and what the program returned for it."""

    seed: int
    program_seed: int
    corpus: list                 # (label, tokens) in file order
    stream: list
    vectors: dict                # word -> exact float64 vector (may be empty)
    folds: list                  # (train indices, test indices) per fold
    reports: dict                # strategy -> report fields (see session.py)
    ttests: dict                 # (a, b) -> (t, p)
    spectrum: dict = None        # classes, curves, cumulative
    serving: str = ""
    serving_classes: tuple = ()
    serving_params: dict = field(default_factory=dict)
    svm_weights: np.ndarray = None
    svm_offsets: np.ndarray = None
    predictions: list = field(default_factory=list)   # (label, score) per stream doc
    report_hashes: list = field(default_factory=list)  # one per round


def _first_seen(labels):
    return tuple(dict.fromkeys(labels))


def _compare_fold(name, out, strategy, scorer):
    """Oracle accuracy on the check fold must equal the reported one up to near-ties."""
    fold = out.seed % len(out.folds)
    train_ix, test_ix = out.folds[fold]
    train = [out.corpus[i] for i in train_ix]
    test = [out.corpus[i] for i in test_ix]
    classes = _first_seen(label for label, _ in train)
    params = out.reports[strategy]["params"][fold]
    scores = scorer(train, classes, test, params)
    correct = ties = 0
    for (label, _), row in zip(test, scores):
        if row is None:
            continue
        pred, near = oracles.labels_of(classes, row)
        correct += pred == label
        ties += near
    reported = round(out.reports[strategy]["accuracies"][fold] * len(test))
    ok = abs(reported - correct) <= ties
    return (name, ok, f"fold {fold}: reported {reported}/{len(test)} correct, "
                      f"oracle {correct}, near-ties {ties}")


def _subspace_scorer(out, weighted):
    def score(train, classes, test, params):
        bases = oracles.class_bases(train, classes, out.vectors, weighted,
                                    params["class_dim"])
        rows = []
        for _, toks in test:
            q = oracles.query_basis(toks, out.vectors, weighted, params["query_dim"])
            rows.append(None if q is None else oracles.subspace_scores(bases, q))
        return rows
    return score


def _sa_scorer(out):
    def score(train, classes, test, params):
        return [oracles.sa_scores(train, classes, toks, out.vectors) for _, toks in test]
    return score


def _nb_scorer(kind):
    def score(train, classes, test, params):
        return list(oracles.naive_bayes_scores(kind, train, classes, test))
    return score


def _lsa_scorer(train, classes, test, params):
    return list(oracles.lsa_scores(train, classes, test, params["rank"]))


def _svm_scorer(out):
    def score(train, classes, test, params):
        w, b, index = oracles.pegasos(train, classes, params["reg"], FOLD_EPOCHS,
                                      out.program_seed)
        return list(oracles.svm_scores(w, b, index, test))
    return score


def check_folds(out):
    results = []
    scorers = {
        "msm": _subspace_scorer(out, False), "tfmsm": _subspace_scorer(out, True),
        "sa": _sa_scorer(out), "mvb": _nb_scorer("mvb"), "mnb": _nb_scorer("mnb"),
        "lsa": _lsa_scorer, "svm": _svm_scorer(out),
    }
    for strategy in out.reports:
        results.append(_compare_fold(f"oracle.{strategy}", out, strategy, scorers[strategy]))
    return results


def check_fold_sizes(out):
    n_test = round(0.2 * len(out.corpus))
    bad = [(s, r["test_sizes"]) for s, r in out.reports.items()
           if any(size != n_test for size in r["test_sizes"])
           or len(r["test_sizes"]) != len(out.folds)]
    return [("fold_sizes", not bad, f"test size {n_test}; wrong: {bad}")]


def check_ttests(out):
    bad = []
    for a, b in itertools.combinations(out.reports, 2):
        t, p = out.ttests[(a, b)]
        t_ref, p_ref = oracles.paired_t(out.reports[a]["accuracies"],
                                        out.reports[b]["accuracies"])
        if not (math.isclose(t, t_ref, rel_tol=SCORE_RTOL, abs_tol=1e-12)
                and math.isclose(p, p_ref, rel_tol=SCORE_RTOL, abs_tol=1e-12)):
            bad.append(f"{a}/{b}: t={t} p={p} scipy t={t_ref} p={p_ref}")
    return [("ttest", not bad, "; ".join(bad) or f"{len(out.ttests)} pairs")]


def check_spectrum(out):
    if out.spectrum is None:
        return []
    problems = []
    for c, curve, cum in zip(out.spectrum["classes"], out.spectrum["curves"],
                             out.spectrum["cumulative"]):
        curve, cum = np.asarray(curve), np.asarray(cum)
        if abs(curve[0] - 1.0) > SPECTRUM_ATOL or np.any(np.diff(curve) > SPECTRUM_ATOL):
            problems.append(f"{c}: curve not 1 then non-increasing")
        if np.any(np.diff(cum) < -SPECTRUM_ATOL) or abs(cum[-1] - 1.0) > SPECTRUM_ATOL:
            problems.append(f"{c}: cumvar does not rise to 1")
        tokens = [t for label, toks in out.corpus if label == c for t in toks]
        X, _ = oracles.distinct_vectors(tokens, out.vectors)
        ref = oracles.spectrum(X)
        if (len(ref) != len(curve)
                or np.max(np.abs(ref / ref[0] - curve)) > SPECTRUM_ATOL
                or np.max(np.abs(np.cumsum(ref) / ref.sum() - cum)) > SPECTRUM_ATOL):
            problems.append(f"{c}: differs from eigvalsh")
    return [("spectrum", not problems, "; ".join(problems) or
             f"{len(out.spectrum['classes'])} classes")]


def check_classify(out):
    preds = out.predictions
    bad = [i for i, (label, score) in enumerate(preds)
           if label not in out.serving_classes or not math.isfinite(score)]
    ok = len(preds) == len(out.stream) and not bad
    results = [("classify.output", ok,
                f"{len(preds)} predictions for {len(out.stream)} documents; bad {bad[:5]}")]

    rng = np.random.default_rng(out.seed)
    sample = np.sort(rng.choice(len(out.stream), min(STREAM_SAMPLE, len(out.stream)),
                                replace=False))
    docs = [out.stream[i] for i in sample]
    classes = tuple(out.serving_classes)
    if out.serving in ("msm", "tfmsm"):
        bases = oracles.class_bases(out.corpus, classes, out.vectors,
                                    out.serving == "tfmsm",
                                    out.serving_params["class_dim"])
        rows = [oracles.subspace_scores(bases, oracles.query_basis(
            toks, out.vectors, out.serving == "tfmsm", out.serving_params["query_dim"]))
            for _, toks in docs]
    else:
        w, b, index = oracles.pegasos(out.corpus, classes, out.serving_params["reg"],
                                      out.serving_params["epochs"], out.program_seed)
        scale = max(1.0, float(np.max(np.abs(w))))
        err = max(float(np.max(np.abs(w - out.svm_weights))),
                  float(np.max(np.abs(b - out.svm_offsets))))
        results.append(("oracle.svm.weights", err <= SVM_WEIGHT_RTOL * scale,
                        f"max |w - w_oracle| = {err:.3g} (scale {scale:.3g})"))
        rows = list(oracles.svm_scores(w, b, index, docs))
    mismatch = ties = 0
    for i, row in zip(sample, rows):
        pred, near = oracles.labels_of(classes, row)
        ties += near
        mismatch += i >= len(preds) or (pred != preds[i][0] and not near)
    results.append(("oracle.stream", mismatch == 0,
                    f"{len(sample)} sampled documents, {mismatch} mismatches, "
                    f"{ties} near-ties"))
    return results


def check_accuracy(out):
    labels = [label for label, _ in out.corpus]
    majority = max(labels.count(c) for c in set(labels)) / len(labels)
    results = []
    for s in ("msm", "tfmsm"):
        if s in out.reports:
            acc = float(np.mean(out.reports[s]["accuracies"]))
            results.append((f"accuracy.{s}", acc > majority,
                            f"{acc:.4f} against majority rate {majority:.4f}"))
    return results


def check_determinism(out):
    ok = len(set(out.report_hashes)) == 1
    return [("determinism", ok, f"report sha256 {out.report_hashes[0][:16]} over "
                                f"{len(out.report_hashes)} rounds")]


def run_checks(out):
    results = []
    for check in (check_fold_sizes, check_folds, check_ttests, check_spectrum,
                  check_classify, check_accuracy, check_determinism):
        try:
            results += check(out)
        except Exception as err:  # malformed output fails the check, not the run
            results.append((check.__name__, False, f"{type(err).__name__}: {err}"))
    return results
