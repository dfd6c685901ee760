"""Experiment harness: folds, grid selection, reports, significance.

The evaluation protocol builds a fixed number of independent random
train/validation/test splits (60/20/20), selects hyperparameters per
fold by validation accuracy, scores the test split with the selected
model (mvb, mnb, lsa and svm with one product, the others per document)
and aggregates mean/std accuracy.  Documents that cannot be classified
(empty or fully out-of-vocabulary) count as errors, reported separately.

`STRATEGIES` is the one table of what each strategy name means: its one
fit for a whole grid, how a fold counts its validation hits on that fit,
how to take the model at one grid point, its default grid, which
features it accepts, and which model class reads its container.
`HYPERPARAMETERS` beside it types the settings those fits and grids
take; the CLI declares its ``train`` and ``eval --grid-*`` flags from it.
"""

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import bayes, classifiers, lsa, svm
from .corpus import Corpus
from .errors import (
    ConfigError,
    DataError,
    DegenerateQueryError,
    DegenerateTestError,
    WordspaceError,
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
# Per-strategy fits, validation hits and grid points.
# ---------------------------------------------------------------------------

def check_positive(name, value):
    """``value`` of the setting ``name`` (a dimension, count, rank, epoch
    count or regularization strength) when it is finite and > 0, so an
    integer setting is >= 1; `ConfigError` otherwise."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _grid(strategy, grids):
    """The strategy's validation grid: each axis from ``grids`` or the
    default, without repeats, and ascending but for reg (see `_fit_fold`)."""
    grid = {}
    for key, default in strategy.grid.items():
        values = [check_positive(key, v) for v in (grids or {}).get(key, default)]
        if not values:
            raise ConfigError(f"empty hyperparameter grid for {key!r}")
        grid[key] = tuple(dict.fromkeys(values if key == "reg" else sorted(values)))
    return grid


def _fit_queries(corpus, table, strategy, normalize, max_dim):
    """The query subspace of every corpus document, in corpus order, at
    ``max_dim``, the grid's largest query dim (None for a document
    without in-vocabulary words): it depends only on the document, the
    table and the strategy's policies, which every fold shares.

    A model cuts a wider query to its own ``query_dim``.  When
    ``max_dim`` is too large for the partial eigensolve (as the default
    grid's 200 is on 300-d vectors), that cut is bitwise the uncapped
    fit cut to that dim; a fresh fit at a small dim may solve only its
    leading eigenpairs and agree with the cut to roundoff.
    """
    queries = []
    for doc in corpus.documents:
        try:
            queries.append(classifiers.query_subspace(
                doc.tokens, table, max_dim, strategy=strategy, normalize=normalize))
        except DegenerateQueryError:
            queries.append(None)
    return queries


def _subspace_hits(full, grid, val_docs, val_queries, table):
    """Validation hits at every (class dim, query dim) point of an msm or
    tfmsm fit at the grid's largest class dim."""
    class_dims, query_dims = grid["class_dim"], grid["query_dim"]
    classes = np.asarray(full.classes, dtype=object)
    # capped first, as int64 cannot hold every grid value: a class has at most
    # max(class_dims) directions and a query at most embed_dim
    mc_arr = np.asarray([min(d, int(full.class_dims.max())) for d in class_dims],
                        dtype=np.int64)
    mq_arr = np.asarray([min(d, full.embed_dim) for d in query_dims], dtype=np.int64)
    correct = np.zeros((len(class_dims), len(query_dims)), dtype=np.int64)
    for doc, query in zip(val_docs, val_queries):
        if query is None:
            continue  # counts as wrong at every grid point
        scores = grid_mean_sq_cosines(full.basis_products(query), full.class_dims,
                                      mc_arr, mq_arr)
        correct += classes[np.argmax(scores, axis=0)] == doc.label
    return correct, []


def _subspace_at(full, params):
    subspaces = {label: sub.truncated(min(params["class_dim"], sub.dimension))
                 for label, sub in full.subspaces.items()}
    return classifiers.SubspaceModel(full.strategy, full.classes, subspaces, **params,
                                     normalize=full.normalize, embed_dim=full.embed_dim)


def _row_labels(model, feats):
    """Each row's label from an mvb, mnb, lsa or svm model's one
    `decision_matrix` product, as `predict` gives it: the first best
    class, None for an lsa zero projection, or `make_prediction`'s error."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model.decision_matrix(feats)
    zero = np.isnan(scores[:, 0]) & (model.strategy == "lsa")
    bad = ~np.isfinite(scores).all(axis=1) & ~zero
    if bad.any():  # raises the per-document error
        classifiers.make_prediction(model.classes, scores[bad][0])
    return np.where(zero, None, np.asarray(model.classes, dtype=object)[scores.argmax(axis=1)])


def _hits(models, docs, table):
    """How many of ``docs`` each of ``models`` (mvb, mnb, lsa or svm, of one
    feature spec) labels right from one feature matrix."""
    feats, labels = feature_matrix(models[0].spec, docs, table), [doc.label for doc in docs]
    return np.array([np.count_nonzero(_row_labels(m, feats) == labels) for m in models])


def _lsa_hits(full, grid, val_docs, val_queries, table):
    """Validation hits at every grid rank of one factorization, -1 above
    its numerical rank, where lower ranks are its prefixes."""
    ranks = grid["rank"]
    feasible = [k for k in ranks if k <= full.rank]
    notes = [f"rank={k} infeasible (numerical rank {full.rank})"
             for k in ranks if k > full.rank]
    if not feasible:
        raise DataError(f"every grid rank exceeds the numerical rank {full.rank}")
    hits = np.full(len(ranks), -1, dtype=np.int64)
    hits[[k <= full.rank for k in ranks]] = _hits([full.truncated(k) for k in feasible],
                                                  val_docs, table)
    return hits, notes


# Each strategy's one fit: ``fit(corpus, table, feature, normalize, grid,
# hyper)`` fits what every point of ``grid`` (axis -> values, see `_grid`)
# is cut from, where ``hyper`` holds svm's epochs and seed, and
# ``at(fitted, params)`` is the model at one point.  Modules are looked up
# at call time so that a caller that rebinds their functions (a tracer)
# sees every call.

def _fit_msm(corpus, table, feature, normalize, grid, hyper):
    return classifiers.train_msm(corpus, table, max(grid["class_dim"]), normalize)


def _fit_tfmsm(corpus, table, feature, normalize, grid, hyper):
    return classifiers.train_tfmsm(corpus, table, max(grid["class_dim"]), normalize)


def _fit_sa(corpus, table, feature, normalize, grid, hyper):
    return classifiers.train_sa(corpus, table, normalize)


def _fit_mvb(corpus, table, feature, normalize, grid, hyper):
    return bayes.train_mvb(corpus)


def _fit_mnb(corpus, table, feature, normalize, grid, hyper):
    return bayes.train_mnb(corpus)


def _fit_lsa(corpus, table, feature, normalize, grid, hyper):
    # one factorization, capped at the numerical rank
    spec = fit_feature_spec(feature, corpus, table, normalize)
    return lsa.train_lsa(corpus, spec, max(grid["rank"]), table)


def _fit_svm(corpus, table, feature, normalize, grid, hyper):
    spec = fit_feature_spec(feature, corpus, table, normalize)
    docs = list(corpus)
    # one pass trains every reg: they share the seed, so the visiting order
    return svm.fit_linear_svm(feature_matrix(spec, docs, table), [d.label for d in docs],
                              corpus.classes, spec, regs=grid["reg"],
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
    fit: Callable       # the one fit of a whole grid (see above)
    model: type         # class that reads the strategy's model container
    # a fold's validation (hits, notes), see `_fit_fold`; without a grid, none
    select: Callable = lambda *args: (np.zeros((), dtype=np.int64), [])
    at: Callable = lambda fitted, params: fitted  # the model at one grid point
    settings: tuple = ()  # the `HYPERPARAMETERS` (and "seed") that set its model
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


# The settings of a ``wordspace train`` model besides the seed, in flag order
HYPERPARAMETERS = {
    "class_dim": Hyperparameter(int, 150, "class subspace dimension cap (msm/tfmsm)",
                                "comma-separated class-dimension grid"),
    "query_dim": Hyperparameter(int, 10, "query subspace dimension cap (msm/tfmsm)",
                                "comma-separated query-dimension grid"),
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

_SUBSPACE_SETTINGS = ("class_dim", "query_dim")

STRATEGIES = {s.name: s for s in (
    Strategy("msm", any_feature=False, grid=_SUBSPACE_GRID, fit=_fit_msm,
             model=classifiers.SubspaceModel, select=_subspace_hits, at=_subspace_at,
             settings=_SUBSPACE_SETTINGS, summary=_subspace_size),
    Strategy("tfmsm", any_feature=False, grid=_SUBSPACE_GRID, fit=_fit_tfmsm,
             model=classifiers.SubspaceModel, select=_subspace_hits, at=_subspace_at,
             settings=_SUBSPACE_SETTINGS, summary=_subspace_size),
    Strategy("sa", any_feature=False, grid={}, fit=_fit_sa,
             model=classifiers.SimilarityAverageModel),
    Strategy("mvb", any_feature=False, grid={}, fit=_fit_mvb, model=bayes.NaiveBayesModel),
    Strategy("mnb", any_feature=False, grid={}, fit=_fit_mnb, model=bayes.NaiveBayesModel),
    Strategy("lsa", any_feature=True, grid={"rank": (10, 30, 50, 90, 130, 200)},
             fit=_fit_lsa, model=lsa.LsaModel, select=_lsa_hits,
             at=lambda full, params: full.truncated(params["rank"]), settings=("rank",)),
    Strategy("svm", any_feature=True, grid={"reg": (1e-2, 1e-3, 1e-4, 1e-5)},
             fit=_fit_svm, model=svm.LinearSvmModel,
             select=lambda models, grid, docs, queries, table: (_hits(models, docs, table), []),
             at=lambda models, params: next(m for m in models if m.reg == params["reg"]),
             settings=("reg", "epochs", "seed")),
)}


def _fit_fold(strategy, corpus, fold, grid, queries, *, table, feature, normalize, seed):
    """``(model, params, notes)`` of the point of ``grid`` (see `_grid`)
    maximizing validation accuracy for one fold.

    ``queries`` is the run's `_fit_queries` list for a strategy with a
    ``query_dim`` axis, None otherwise.  The strategy fits the fold's
    training split once for the whole grid, and its selector counts
    ``(hits, notes)`` on that fit: the validation hits, one axis per grid
    axis (0-d and not counted without a grid, -1 at an infeasible point),
    and notes naming the infeasible points.  The first best point in grid
    order wins: ties go to the smallest class dim, then query dim, to the
    smallest rank and the first reg.  The fold's model is the fit at it.
    """
    train_c = corpus.subset(fold.train)
    val_docs = [corpus.documents[i] for i in fold.validation]
    val_queries = None if queries is None else [queries[i] for i in fold.validation]
    fitted = strategy.fit(train_c, table, feature, normalize, grid,
                          {"epochs": HYPERPARAMETERS["epochs"].default, "seed": seed})
    hits, notes = strategy.select(fitted, grid, val_docs, val_queries, table)
    point = np.unravel_index(np.argmax(hits), hits.shape)
    params = {axis: values[i] for (axis, values), i in zip(grid.items(), point)}
    return strategy.at(fitted, params), params, notes


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
    """Train/select/test on every fold and aggregate accuracies; ``threads``
    reaches only msm, tfmsm and sa, which label a test split per document."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    entry = STRATEGIES[strategy]
    feature = entry.resolve_feature(feature)
    grid = _grid(entry, grids)
    queries = (_fit_queries(corpus, table, strategy, normalize, max(grid["query_dim"]))
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
        except WordspaceError as err:
            err.args = (f"fold {fold_idx}: {err}",)
            raise
        notes.extend(f"fold {fold_idx}: {n}" for n in fold_notes)
        test_docs = [corpus.documents[i] for i in fold.test]

        def _classify(index):
            if queries is not None:
                query = queries[index]
                return None if query is None else model.predict_query(query).label
            try:
                return model.predict(corpus.documents[index].tokens, table).label
            except DegenerateQueryError:
                return None

        predicted = (_row_labels(model, feature_matrix(model.spec, test_docs, table))
                     if hasattr(model, "decision_matrix")  # mvb, mnb, lsa and svm
                     else parallel_map(_classify, fold.test, threads))
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes a label with , or "
        writer.writerow(header)
        for i in range(length):
            row = [str(i + 1)]
            row += [repr(float(c[i])) for c in padded_c]
            row += [repr(float(self.mean_curve[i])), repr(float(self.std_curve[i]))]
            row += [repr(float(v[i])) for v in padded_v]
            row += [repr(float(self.mean_cumulative[i]))]
            writer.writerow(row)
        return out.getvalue()


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
    from scipy import special
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
