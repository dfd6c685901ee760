"""Experiment harness: folds, grid selection, reports, significance.

The evaluation protocol builds a fixed number of independent random
train/validation/test splits (60/20/20), selects hyperparameters per
fold by validation accuracy, scores the test split with the selected
model, and aggregates mean/std accuracy.  Documents that cannot be
classified (empty or fully out-of-vocabulary) count as errors and are
reported separately.

`STRATEGIES` is the one table of what each strategy name means: how to
fit it, how to select its hyperparameters on a fold, its default grid,
which features it accepts, and which model class reads its container.
`HYPERPARAMETERS` beside it types the settings those fits and grids
take; the CLI declares its ``train`` and ``eval --grid-*`` flags from it.
"""

import math
from collections.abc import Callable
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
from .utils import parallel_map

DEFAULT_SEED = 42
FOLD_COUNT = 10

@dataclass(frozen=True)
class Fold:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class FoldPlan:
    seed: int
    folds: tuple


def make_folds(corpus: Corpus, seed: int) -> FoldPlan:
    """``FOLD_COUNT`` independent random 60/20/20 splits.

    Each fold re-randomizes the whole corpus; the plan is a pure
    function of ``(len(corpus), seed)``.
    """
    n = len(corpus)
    if n < 10:
        raise DataError(f"corpus too small for {FOLD_COUNT}-fold evaluation: {n} < 10")
    n_val = round(0.2 * n)
    n_test = round(0.2 * n)
    rng = np.random.default_rng(seed)
    folds = []
    for _ in range(FOLD_COUNT):
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

def check_positive(name, value):
    """``value`` of the setting ``name`` (a dimension, count, rank, epoch
    count or regularization strength) when it is finite and > 0, so an
    integer setting is >= 1; `ConfigError` otherwise."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _grid(strategy, grids):
    """The strategy's validation grid: each axis from ``grids`` or the default."""
    grid = {}
    for key, default in strategy.grid.items():
        values = tuple(grids.get(key, default) if grids else default)
        if not values:
            raise ConfigError(f"empty hyperparameter grid for {key!r}")
        grid[key] = tuple(check_positive(key, v) for v in values)
    return grid


class QueryCache:
    """The query subspace of each corpus document, fitted at most once per
    `run_experiment` call at ``max_dim``, the grid's largest query dim;
    None for a document without in-vocabulary words.

    A query subspace depends only on the document, the table and the
    model's normalize and weighted policies, which every fold of a run
    shares.  When ``max_dim`` is too large for the partial eigensolve
    (as the default grid's 200 is on 300-d vectors), a prefix of the
    cached basis is bitwise the uncapped fit cut to that dim; a fresh
    fit at a small dim may solve only its leading eigenpairs and agree
    with the prefix to roundoff.  The cache holds p x min(max_dim, rank)
    float64 values per document it has seen.
    """

    def __init__(self, corpus, table, max_dim):
        self._documents = corpus.documents
        self._table = table
        self._max_dim = max_dim
        self._subspaces = {}  # corpus document index -> Subspace or None

    def get(self, model, index):
        index = int(index)
        if index not in self._subspaces:
            try:
                query = classifiers.query_subspace(
                    model, self._documents[index].tokens, self._table, self._max_dim)
            except DegenerateQueryError:
                query = None
            self._subspaces[index] = query
        return self._subspaces[index]


def _fixed_fold(strategy, train_c, val_docs, val_queries, table, grid, feature,
                normalize, seed):
    """A strategy without a grid: the fold's model is its plain fit."""
    return strategy.fit(train_c, table, feature, normalize, {}), {}, []


def _subspace_fold(strategy, train_c, val_docs, val_queries, table, grid, feature,
                   normalize, seed):
    class_dims = tuple(sorted(set(grid["class_dim"])))
    query_dims = tuple(sorted(set(grid["query_dim"])))
    full = strategy.fit(train_c, table, feature, normalize,
                        {"class_dim": max(class_dims)})

    classes = np.asarray(full.classes, dtype=object)
    mc_arr = np.asarray(class_dims, dtype=np.int64)
    mq_arr = np.asarray(query_dims, dtype=np.int64)
    blocks = [(slice(start, start + dim), np.minimum(mc_arr, dim))
              for start, dim in zip(full.class_starts, full.class_dims)]
    correct = np.zeros((len(class_dims), len(query_dims)), dtype=np.int64)
    for doc, query in zip(val_docs, val_queries(full)):
        if query is None:
            continue  # counts as wrong at every grid point
        mq_caps = np.minimum(mq_arr, query.dimension)
        g = full.basis_products(query)
        sq = g * g
        stack = np.empty((len(classes), len(class_dims), len(query_dims)))
        for c, (cols, mc_caps) in enumerate(blocks):
            stack[c] = grid_mean_sq_cosines(sq[:, cols].T, mc_caps, mq_caps)
        correct += classes[np.argmax(stack, axis=0)] == doc.label

    i, j = np.unravel_index(np.argmax(correct), correct.shape)
    params = {"class_dim": class_dims[i], "query_dim": query_dims[j]}
    subspaces = {
        label: sub.truncated(min(params["class_dim"], sub.dimension))
        for label, sub in full.subspaces.items()
    }
    model = classifiers.SubspaceModel(
        strategy.name, full.classes, subspaces, class_dim=params["class_dim"],
        query_dim=params["query_dim"], normalize=normalize, embed_dim=full.embed_dim,
    )
    return model, params, []


def _lsa_fold(strategy, train_c, val_docs, val_queries, table, grid, feature,
              normalize, seed):
    spec = fit_feature_spec(feature, train_c, table, normalize)
    ranks = tuple(sorted(set(grid["rank"])))
    # one factorization at the largest feasible rank; lower ranks are its prefixes
    try:
        full = lsa.train_lsa(train_c, spec, min(max(ranks), len(train_c)), table)
    except SubspaceRankError as err:
        if err.cap < 1:
            raise TrainingDataError(
                f"every grid rank exceeds the numerical rank {err.cap}") from None
        full = lsa.train_lsa(train_c, spec, err.cap, table)
    feasible = [k for k in ranks if k <= full.rank]
    notes = [f"rank={k} infeasible (numerical rank {full.rank})"
             for k in ranks if k > full.rank]
    if not feasible:
        raise TrainingDataError(
            f"every grid rank exceeds the numerical rank {full.rank}"
        )

    val_feats = feature_matrix(spec, val_docs, table)
    if sp.issparse(val_feats):
        val_feats = val_feats.toarray()
    projections = val_feats @ full.basis  # query coordinates at the largest rank
    models = [full.truncated(k) for k in feasible]
    hits = np.zeros(len(models), dtype=np.int64)
    for i, model in enumerate(models):
        for row, doc in enumerate(val_docs):
            scores = model.class_scores_from_projection(projections[row])
            if scores is not None:
                hits[i] += model.classes[int(np.argmax(scores))] == doc.label
    best = int(np.argmax(hits))
    return models[best], {"rank": feasible[best]}, notes


def _svm_fold(strategy, train_c, val_docs, val_queries, table, grid, feature,
              normalize, seed):
    spec = fit_feature_spec(feature, train_c, table, normalize)
    regs = grid["reg"]
    docs = list(train_c)
    feats = feature_matrix(spec, docs, table)
    labels = [d.label for d in docs]
    val_feats = feature_matrix(spec, val_docs, table)
    val_labels = np.asarray([d.label for d in val_docs], dtype=object)
    classes = np.asarray(train_c.classes, dtype=object)

    # one pass trains every reg: they share the seed, so the visiting order
    models = svm.fit_linear_svm(feats, labels, train_c.classes, spec, regs=regs, seed=seed)
    hits = [np.sum(classes[np.argmax(m.decision_matrix(val_feats), axis=1)] == val_labels)
            for m in models]
    best = int(np.argmax(hits))
    return models[best], {"reg": regs[best]}, []


# Fits at given hyperparameters: ``fit(corpus, table, feature, normalize,
# hyper)``, where ``hyper`` holds the ``wordspace train`` settings
# (class_dim, query_dim, angle_count, rank, reg, epochs, seed) or, inside
# a fold, only what the fold sets.  Modules are looked up at call time so
# that a caller that rebinds their functions (a tracer) sees every call.

def _serving_policy(model, hyper):
    model.query_dim = hyper.get("query_dim")
    model.angle_count = hyper.get("angle_count")
    return model


def _fit_msm(corpus, table, feature, normalize, hyper):
    return _serving_policy(
        classifiers.train_msm(corpus, table, hyper.get("class_dim"), normalize), hyper)


def _fit_tfmsm(corpus, table, feature, normalize, hyper):
    return _serving_policy(
        classifiers.train_tfmsm(corpus, table, hyper.get("class_dim"), normalize), hyper)


def _fit_sa(corpus, table, feature, normalize, hyper):
    return classifiers.train_sa(corpus, table, normalize)


def _fit_mvb(corpus, table, feature, normalize, hyper):
    return bayes.train_mvb(corpus)


def _fit_mnb(corpus, table, feature, normalize, hyper):
    return bayes.train_mnb(corpus)


def _fit_lsa(corpus, table, feature, normalize, hyper):
    spec = fit_feature_spec(feature, corpus, table, normalize)
    return lsa.train_lsa(corpus, spec, hyper["rank"], table)


def _fit_svm(corpus, table, feature, normalize, hyper):
    spec = fit_feature_spec(feature, corpus, table, normalize)
    return svm.train_svm(corpus, spec, table, reg=hyper["reg"],
                         epochs=hyper["epochs"], seed=hyper["seed"])


def _document_count(model, corpus, label):
    return f"documents={len(corpus.indices_of(label))}"


def _subspace_size(model, corpus, label):
    sub = model.subspaces[label]
    return f"words={sub.source_word_count} dim={sub.dimension}"


@dataclass(frozen=True)
class Strategy:
    """What the harness, the CLI and the model container know of a strategy."""

    name: str
    any_feature: bool   # accepts features other than its default
    grid: dict          # validation grid: axis -> default values
    fit: Callable       # fit at given hyperparameters (see above)
    select: Callable    # one fold: (model, selected params, notes)
    model: type         # class that reads the strategy's model container
    settings: tuple = ()  # the `HYPERPARAMETERS` (and "seed") its ``fit`` reads
    summary: Callable = _document_count  # per-class line of ``wordspace train``

    @property
    def feature(self):
        """The strategy's own feature scheme."""
        return classifiers.DEFAULT_FEATURES[self.name]

    def resolve_feature(self, feature):
        """``feature``, or the default when None; ConfigError if refused."""
        feature = feature or self.feature
        if feature != self.feature and not self.any_feature:
            raise ConfigError(
                f"strategy {self.name!r} requires feature {self.feature!r}, "
                f"got {feature!r}"
            )
        return feature


@dataclass(frozen=True)
class Hyperparameter:
    """A ``wordspace train`` setting; a grid axis is also ``eval --grid-<name>``."""

    type: type
    default: object   # ``train`` default
    help: str         # ``train --<name>`` help
    grid_help: str | None = None  # ``eval --grid-<name>`` help; None: no grid axis


# The settings `fit` reads from ``hyper`` besides the seed, in flag order
HYPERPARAMETERS = {
    "class_dim": Hyperparameter(int, 150, "class subspace dimension cap (msm/tfmsm)",
                                "comma-separated class-dimension grid"),
    "query_dim": Hyperparameter(int, 10, "query subspace dimension cap (msm/tfmsm)",
                                "comma-separated query-dimension grid"),
    "angle_count": Hyperparameter(int, None,
                                  "canonical angles used (default: all available)"),
    "rank": Hyperparameter(int, 130, "approximation rank (lsa)",
                           "comma-separated lsa rank grid"),
    "reg": Hyperparameter(float, svm.DEFAULT_REG, "regularization strength (svm)",
                          "comma-separated svm regularization grid"),
    "epochs": Hyperparameter(int, svm.DEFAULT_EPOCHS, "training epochs (svm)"),
}


# Dimension grids bracket the selections reported for the reference
# corpus; entries are capped by the available rank per fold.
_SUBSPACE_GRID = {"class_dim": (50, 100, 150, 175, 200),
                  "query_dim": (1, 5, 10, 25, 50, 100, 200)}

_SUBSPACE_SETTINGS = ("class_dim", "query_dim", "angle_count")

STRATEGIES = {s.name: s for s in (
    Strategy("msm", any_feature=False, grid=_SUBSPACE_GRID, fit=_fit_msm,
             select=_subspace_fold, model=classifiers.SubspaceModel,
             settings=_SUBSPACE_SETTINGS, summary=_subspace_size),
    Strategy("tfmsm", any_feature=False, grid=_SUBSPACE_GRID, fit=_fit_tfmsm,
             select=_subspace_fold, model=classifiers.SubspaceModel,
             settings=_SUBSPACE_SETTINGS, summary=_subspace_size),
    Strategy("sa", any_feature=False, grid={}, fit=_fit_sa, select=_fixed_fold,
             model=classifiers.SimilarityAverageModel),
    Strategy("mvb", any_feature=False, grid={}, fit=_fit_mvb, select=_fixed_fold,
             model=bayes.NaiveBayesModel),
    Strategy("mnb", any_feature=False, grid={}, fit=_fit_mnb, select=_fixed_fold,
             model=bayes.NaiveBayesModel),
    Strategy("lsa", any_feature=True, grid={"rank": (10, 30, 50, 90, 130, 200)},
             fit=_fit_lsa, select=_lsa_fold, model=lsa.LsaModel, settings=("rank",)),
    Strategy("svm", any_feature=True, grid={"reg": (1e-2, 1e-3, 1e-4, 1e-5)},
             fit=_fit_svm, select=_svm_fold, model=svm.LinearSvmModel,
             settings=("reg", "epochs", "seed")),
)}


def _fit_fold(strategy, corpus, fold, grid, queries, *, table, feature, normalize, seed):
    """``(model, params, notes)`` of the point of ``grid`` (see `_grid`)
    maximizing validation accuracy for one fold.

    ``queries`` is the run's `QueryCache` for a strategy with a
    ``query_dim`` axis, None otherwise.  ``notes`` lists grid points
    that were skipped as infeasible.  Every selector counts validation
    hits in grid order and keeps the first best point.  The dimension
    and rank grids are sorted ascending, so ties go to the smallest
    class dimension, then the smallest query dimension, and to the
    smallest rank; the reg grid keeps the order it is given in.
    """
    train_c = corpus.subset(fold.train)
    val_docs = [corpus.documents[i] for i in fold.validation]
    val_queries = None if queries is None else (
        lambda model: [queries.get(model, i) for i in fold.validation])
    return strategy.select(strategy, train_c, val_docs, val_queries, table, grid,
                           feature, normalize, seed)


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
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    entry = STRATEGIES[strategy]
    feature = entry.resolve_feature(feature)
    grid = _grid(entry, grids)
    queries = (QueryCache(corpus, table, max(grid["query_dim"]))
               if "query_dim" in grid else None)
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
                entry, corpus, fold, grid, queries,
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

        def _classify(index):
            if queries is not None:
                # the selected query dim is a prefix of the cached basis
                query = queries.get(model, index)
                if query is None:
                    return None
                query = query.truncated(min(model.query_dim, query.dimension))
                return model.predict_query(query).label
            try:
                return model.predict(corpus.documents[index].tokens, table).label
            except DegenerateQueryError:
                return None

        predicted = parallel_map(_classify, fold.test, threads)
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
        """Cross-class mean variance fraction kept by ``dim`` >= 1 directions."""
        i = min(check_positive("dim", dim), len(self.mean_cumulative)) - 1
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


def spectrum_report(corpus: Corpus, table, normalize=True) -> SpectrumReport:
    """Spectra of the full-rank msm class subspaces, normalized by the
    class maximum; each curve ends at its class's numerical rank."""
    model = classifiers.train_msm(corpus, table, None, normalize)
    curves = []
    cumulative = []
    for label in corpus.classes:
        spectrum = model.subspaces[label].spectrum
        curves.append(spectrum / spectrum[0])
        cumulative.append(np.cumsum(spectrum) / np.sum(spectrum))
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
