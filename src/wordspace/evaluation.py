"""Experiment harness: folds, grid selection, reports, significance.

The evaluation protocol builds a fixed number of independent random
train/validation/test splits (60/20/20), selects hyperparameters per
fold by validation accuracy, scores the test split with the selected
model, and aggregates mean/std accuracy.  Documents that cannot be
classified (empty or fully out-of-vocabulary) count as errors and are
reported separately.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy import special

from . import bayes, classifiers, lsa, svm
from .corpus import Corpus
from .errors import (
    ConfigError,
    DataError,
    DegenerateQueryError,
    DegenerateTestError,
    NumericalError,
    SubspaceRankError,
    TrainingDataError,
)
from .features import fit_feature_spec, feature_matrix
from .kernels import grid_mean_sq_cosines
from .subspace import unit_columns
from .utils import parallel_map

DEFAULT_SEED = 42
FOLD_COUNT = 10

# Dimension grids bracket the selections reported for the reference
# corpus; entries are capped by the available rank per fold.
DEFAULT_GRIDS = {
    "msm": {"class_dim": (50, 100, 150, 175, 200),
            "query_dim": (1, 5, 10, 25, 50, 100, 200)},
    "tfmsm": {"class_dim": (50, 100, 150, 175, 200),
              "query_dim": (1, 5, 10, 25, 50, 100, 200)},
    "lsa": {"rank": (10, 30, 50, 90, 130, 200)},
    "svm": {"reg": (1e-2, 1e-3, 1e-4, 1e-5)},
    "sa": {},
    "mvb": {},
    "mnb": {},
}


@dataclass(frozen=True)
class Fold:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class FoldPlan:
    seed: int
    folds: tuple


def make_folds(corpus: Corpus, seed: int, fold_count: int = FOLD_COUNT) -> FoldPlan:
    """Independent random 60/20/20 splits, one per fold.

    Each fold re-randomizes the whole corpus; the plan is a pure
    function of ``(len(corpus), seed)``.
    """
    n = len(corpus)
    if n < 10:
        raise DataError(f"corpus too small for {fold_count}-fold evaluation: {n} < 10")
    n_val = round(0.2 * n)
    n_test = round(0.2 * n)
    rng = np.random.default_rng(seed)
    folds = []
    for _ in range(fold_count):
        perm = rng.permutation(n)
        folds.append(Fold(
            train=np.sort(perm[n_val + n_test:]),
            validation=np.sort(perm[:n_val]),
            test=np.sort(perm[n_val:n_val + n_test]),
        ))
    return FoldPlan(seed, tuple(folds))


# ---------------------------------------------------------------------------
# Per-strategy drivers: hyperparameter selection + final model for one fold.
# ---------------------------------------------------------------------------

def _grid_axis(grids, key, default):
    values = grids.get(key, default) if grids else default
    values = tuple(values)
    if not values:
        raise ConfigError(f"empty hyperparameter grid for {key!r}")
    return values


def _best_cell(correct, class_dims, query_dims):
    """Grid argmax; ties go to the lexicographically smallest dims."""
    best = (-1, None)
    for i, mc in enumerate(class_dims):
        for j, mq in enumerate(query_dims):
            if correct[i, j] > best[0]:
                best = (correct[i, j], {"class_dim": mc, "query_dim": mq})
    return best[1]


def _subspace_fold(strategy, train_c, val_docs, table, grids, normalize):
    class_dims = tuple(sorted(set(_grid_axis(grids, "class_dim",
                                             DEFAULT_GRIDS[strategy]["class_dim"]))))
    query_dims = tuple(sorted(set(_grid_axis(grids, "query_dim",
                                             DEFAULT_GRIDS[strategy]["query_dim"]))))
    trainer = classifiers.train_tfmsm if strategy == "tfmsm" else classifiers.train_msm
    full = trainer(train_c, table, class_dim=max(class_dims), normalize=normalize)

    classes = np.asarray(full.classes, dtype=object)
    mc_arr = np.asarray(class_dims, dtype=np.int64)
    mq_arr = np.asarray(query_dims, dtype=np.int64)
    correct = np.zeros((len(class_dims), len(query_dims)), dtype=np.int64)
    for doc in val_docs:
        try:
            query = classifiers.query_subspace(full, doc.tokens, table,
                                               max(query_dims))
        except DegenerateQueryError:
            continue  # counts as wrong at every grid point
        mq_caps = np.minimum(mq_arr, query.dimension)
        stack = np.empty((len(classes), len(class_dims), len(query_dims)))
        for c, label in enumerate(full.classes):
            sub = full.subspaces[label]
            g = sub.basis.T @ query.basis
            mc_caps = np.minimum(mc_arr, sub.dimension)
            stack[c] = grid_mean_sq_cosines(g * g, mc_caps, mq_caps)
        correct += classes[np.argmax(stack, axis=0)] == doc.label

    params = _best_cell(correct, class_dims, query_dims)
    subspaces = {
        label: sub.truncated(min(params["class_dim"], sub.dimension))
        for label, sub in full.subspaces.items()
    }
    model = classifiers.SubspaceModel(
        strategy, full.classes, subspaces, full.word_counts,
        class_dim=params["class_dim"], query_dim=params["query_dim"],
        normalize=normalize, embed_dim=full.embed_dim,
    )
    return model, params, []


def _lsa_fold(strategy, train_c, val_docs, table, grids, spec):
    ranks = tuple(sorted(set(_grid_axis(grids, "rank", DEFAULT_GRIDS["lsa"]["rank"]))))
    docs = list(train_c)
    feats = feature_matrix(spec, docs, table)
    X = feats.T  # features x documents
    notes = []

    available = 0
    try:
        basis, sigma = lsa.truncated_svd(X, min(max(ranks), min(X.shape)))
        available = sigma.size
    except SubspaceRankError as err:
        available = err.cap
        if available >= 1:
            basis, sigma = lsa.truncated_svd(X, available)
    feasible = [k for k in ranks if k <= available]
    for k in ranks:
        if k > available:
            notes.append(f"rank={k} infeasible (numerical rank {available})")
    if not feasible:
        raise TrainingDataError(
            f"every grid rank exceeds the numerical rank {available}"
        )

    labels = [d.label for d in docs]
    coords = np.asarray(feats @ basis) / sigma
    models = {
        k: lsa.LsaModel(train_c.classes, labels, basis[:, :k], sigma[:k],
                        coords[:, :k], spec)
        for k in feasible
    }
    val_feats = feature_matrix(spec, val_docs, table)
    if sp.issparse(val_feats):
        val_feats = val_feats.toarray()
    projections = val_feats @ basis  # query coordinates at the largest rank

    best = (-1, None)
    for k in feasible:
        model = models[k]
        n_correct = 0
        for row, doc in enumerate(val_docs):
            scores = model.class_scores_from_projection(projections[row])
            if scores is None:
                continue
            pred = model.classes[int(np.argmax(scores))]
            n_correct += pred == doc.label
        if n_correct > best[0]:
            best = (n_correct, k)
    params = {"rank": best[1]}
    return models[best[1]], params, notes


def _svm_fold(strategy, train_c, val_docs, table, grids, spec, seed):
    regs = _grid_axis(grids, "reg", DEFAULT_GRIDS["svm"]["reg"])
    docs = list(train_c)
    feats = feature_matrix(spec, docs, table)
    labels = [d.label for d in docs]
    val_feats = feature_matrix(spec, val_docs, table)
    val_labels = np.asarray([d.label for d in val_docs], dtype=object)

    best = (-1, None, None)
    for reg in regs:
        model = svm.fit_linear_svm(feats, labels, train_c.classes, spec,
                                   reg=reg, seed=seed)
        classes = np.asarray(model.classes, dtype=object)
        preds = classes[np.argmax(model.decision_matrix(val_feats), axis=1)]
        n_correct = int(np.sum(preds == val_labels))
        if n_correct > best[0]:
            best = (n_correct, reg, model)
    return best[2], {"reg": best[1]}, []


def _plain_fold(strategy, train_c, table, normalize):
    if strategy == "sa":
        return classifiers.train_sa(train_c, table, normalize=normalize)
    if strategy == "mvb":
        return bayes.train_mvb(train_c)
    if strategy == "mnb":
        return bayes.train_mnb(train_c)
    raise ConfigError(f"unknown strategy {strategy!r}")


def _check_feature(strategy, feature):
    feature = feature or classifiers.DEFAULT_FEATURES[strategy]
    fixed = {"msm": "w2v", "tfmsm": "w2v", "sa": "w2v", "mvb": "binbow",
             "mnb": "tfbow"}
    if strategy in fixed and feature != fixed[strategy]:
        raise ConfigError(
            f"strategy {strategy!r} requires feature {fixed[strategy]!r}, "
            f"got {feature!r}"
        )
    return feature


def select_hyperparams(strategy, corpus, fold: Fold, grids=None, *, table=None,
                       feature=None, normalize=True, seed=DEFAULT_SEED):
    """Grid point maximizing validation accuracy for one fold.

    Returns ``(params, notes)`` where ``notes`` lists grid points that
    were skipped as infeasible.  Ties prefer the smallest dimensions,
    then grid order.
    """
    _, params, notes = _fit_fold(strategy, corpus, fold, grids, table=table,
                                 feature=feature, normalize=normalize, seed=seed)
    return params, notes


def _fit_fold(strategy, corpus, fold, grids, *, table, feature, normalize, seed):
    feature = _check_feature(strategy, feature)
    train_c = corpus.subset(fold.train)
    val_docs = [corpus.documents[i] for i in fold.validation]
    if strategy in ("msm", "tfmsm"):
        return _subspace_fold(strategy, train_c, val_docs, table, grids, normalize)
    if strategy == "lsa":
        spec = fit_feature_spec(feature, train_c, table, normalize)
        return _lsa_fold(strategy, train_c, val_docs, table, grids, spec)
    if strategy == "svm":
        spec = fit_feature_spec(feature, train_c, table, normalize)
        return _svm_fold(strategy, train_c, val_docs, table, grids, spec, seed)
    model = _plain_fold(strategy, train_c, table, normalize)
    return model, {}, []


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Per-fold accuracies with selection and degeneracy bookkeeping."""

    strategy: str
    feature: str
    seed: int
    accuracies: np.ndarray
    params_per_fold: list
    unclassifiable: list
    test_sizes: list
    notes: list = field(default_factory=list)

    @property
    def mean_accuracy(self):
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self):
        return float(np.std(self.accuracies, ddof=1)) if len(self.accuracies) > 1 else 0.0

    def to_table_text(self) -> str:
        lines = [
            f"strategy: {self.strategy}   feature: {self.feature}   seed: {self.seed}",
            f"{'fold':>4}  {'accuracy':>9}  {'unclassifiable':>14}  selected",
        ]
        for i, acc in enumerate(self.accuracies):
            sel = ", ".join(f"{k}={v}" for k, v in self.params_per_fold[i].items())
            lines.append(
                f"{i:>4}  {acc:>9.4f}  {self.unclassifiable[i]:>14}  {sel or '-'}"
            )
        lines.append(
            f"mean accuracy: {self.mean_accuracy * 100:.2f}%   "
            f"std deviation: {self.std_accuracy * 100:.2f}"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_kv_text(self) -> str:
        lines = [
            "schema=wordspace-eval/1",
            f"strategy={self.strategy}",
            f"feature={self.feature}",
            f"seed={self.seed}",
            f"folds={len(self.accuracies)}",
        ]
        for i, acc in enumerate(self.accuracies):
            lines.append(f"fold.{i}.accuracy={float(acc)!r}")
            lines.append(f"fold.{i}.test_size={self.test_sizes[i]}")
            lines.append(f"fold.{i}.unclassifiable={self.unclassifiable[i]}")
            for k, v in sorted(self.params_per_fold[i].items()):
                lines.append(f"fold.{i}.selected.{k}={v!r}")
        lines.append(f"accuracy.mean={self.mean_accuracy!r}")
        lines.append(f"accuracy.std={self.std_accuracy!r}")
        for i, note in enumerate(self.notes):
            lines.append(f"note.{i}={note}")
        return "\n".join(lines) + "\n"


def run_experiment(corpus: Corpus, strategy: str, plan: FoldPlan, *, table=None,
                   feature=None, grids=None, normalize=True, seed=DEFAULT_SEED,
                   threads=1) -> EvalReport:
    """Train/select/test on every fold and aggregate accuracies."""
    feature = _check_feature(strategy, feature)
    accuracies = []
    params_per_fold = []
    unclassifiable = []
    test_sizes = []
    notes = []
    if len(corpus.classes) == 1:
        notes.append("degenerate setup: corpus has a single class")
    for fold_idx, fold in enumerate(plan.folds):
        try:
            model, params, fold_notes = _fit_fold(
                strategy, corpus, fold, grids,
                table=table, feature=feature, normalize=normalize, seed=seed,
            )
        except ConfigError as err:
            raise ConfigError(f"fold {fold_idx}: {err}") from err
        except DataError as err:
            raise DataError(f"fold {fold_idx}: {err}") from err
        except NumericalError as err:
            raise NumericalError(f"fold {fold_idx}: {err}") from err
        notes.extend(f"fold {fold_idx}: {n}" for n in fold_notes)
        test_docs = [corpus.documents[i] for i in fold.test]

        def _classify(doc):
            try:
                return model.predict(doc.tokens, table).label
            except DegenerateQueryError:
                return None

        predicted = parallel_map(_classify, test_docs, threads)
        n_correct = sum(p == d.label for p, d in zip(predicted, test_docs))
        n_degenerate = sum(p is None for p in predicted)
        accuracies.append(n_correct / len(test_docs))
        unclassifiable.append(n_degenerate)
        params_per_fold.append(params)
        test_sizes.append(len(test_docs))
    return EvalReport(strategy, feature, plan.seed, np.asarray(accuracies),
                      params_per_fold, unclassifiable, test_sizes, notes)


# ---------------------------------------------------------------------------
# Eigenvalue-spectrum analysis
# ---------------------------------------------------------------------------

@dataclass
class SpectrumReport:
    """Per-class normalized eigenvalue curves and variance fractions."""

    classes: tuple
    curves: list           # normalized eigenvalues, max = 1.0, per class
    cumulative: list       # cumulative variance fractions, per class
    mean_curve: np.ndarray
    std_curve: np.ndarray
    mean_cumulative: np.ndarray

    def cumulative_at(self, dim: int) -> float:
        """Cross-class mean variance fraction kept by ``dim`` directions."""
        i = min(dim, len(self.mean_cumulative)) - 1
        return float(self.mean_cumulative[i])

    def to_csv_text(self) -> str:
        header = ["dim"]
        header += [f"eig_{c}" for c in self.classes]
        header += ["eig_mean", "eig_std"]
        header += [f"cumvar_{c}" for c in self.classes]
        header += ["cumvar_mean"]
        length = len(self.mean_curve)
        padded_c = [_pad(c, length, 0.0) for c in self.curves]
        padded_v = [_pad(v, length, 1.0) for v in self.cumulative]
        lines = [",".join(header)]
        for i in range(length):
            row = [str(i + 1)]
            row += [repr(float(c[i])) for c in padded_c]
            row += [repr(float(self.mean_curve[i])), repr(float(self.std_curve[i]))]
            row += [repr(float(v[i])) for v in padded_v]
            row += [repr(float(self.mean_cumulative[i]))]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _pad(arr, length, value):
    if len(arr) >= length:
        return np.asarray(arr)
    return np.concatenate([arr, np.full(length - len(arr), value)])


def _full_spectrum(X):
    """All min(p, N) eigenvalues of the uncentered autocorrelation matrix."""
    p, n = X.shape
    if p <= n:
        vals = np.linalg.eigvalsh(X @ X.T)[::-1] / n
    else:
        sing = np.linalg.svd(X, compute_uv=False)
        vals = (sing * sing) / n
    return np.maximum(vals, 0.0)


def spectrum_report(corpus: Corpus, table, normalize=True) -> SpectrumReport:
    """Full-rank spectra per class, normalized by the class maximum."""
    curves = []
    cumulative = []
    for label in corpus.classes:
        matrix, _ = classifiers.class_vectors(corpus, table, label)
        if normalize:
            matrix = unit_columns(matrix)
        spectrum = _full_spectrum(matrix)
        total = float(np.sum(spectrum))
        curves.append(spectrum / spectrum[0])
        cumulative.append(np.cumsum(spectrum) / total)
    length = max(len(c) for c in curves)
    padded_c = np.stack([_pad(c, length, 0.0) for c in curves])
    padded_v = np.stack([_pad(v, length, 1.0) for v in cumulative])
    std = padded_c.std(axis=0, ddof=1) if len(curves) > 1 else np.zeros(length)
    return SpectrumReport(
        corpus.classes, curves, cumulative,
        padded_c.mean(axis=0), std, padded_v.mean(axis=0),
    )


# ---------------------------------------------------------------------------
# Significance testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTestResult:
    statistic: float
    p_value: float


def paired_ttest(acc_a, acc_b) -> TTestResult:
    """Two-tailed paired Student t-test on fold-aligned accuracies.

    The statistic is mean(d) / (sd(d) / sqrt(n)) on the per-fold
    differences d with n-1 degrees of freedom.
    """
    a = np.asarray(acc_a, dtype=np.float64)
    b = np.asarray(acc_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("need two fold-aligned 1-D accuracy lists")
    if a.size < 2:
        raise DataError("need at least 2 folds for a paired t-test")
    diff = a - b
    sd = float(np.std(diff, ddof=1))
    if sd == 0.0:
        raise DegenerateTestError("zero variance of per-fold differences")
    t = float(np.mean(diff) / (sd / math.sqrt(diff.size)))
    p = 2.0 * float(special.stdtr(diff.size - 1, -abs(t)))
    return TTestResult(t, min(p, 1.0))
