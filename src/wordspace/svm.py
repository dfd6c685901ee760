"""One-vs-rest linear support vector machine.

Each class gets a binary hinge-loss problem minimizing

    reg * ||w||^2 / 2  +  mean_i max(0, 1 - y_i (w . x_i - b))

by stochastic subgradient descent with the 1/(reg * t) step schedule,
a fixed epoch budget and a seeded sample order shared by all classes
and all strengths, so one pass trains every class at every ``reg`` of a
grid.  The bias is learned as an augmented always-one feature, so it is
(weakly) regularized together with ``w``.  Prediction is the argmax of
``w_c . x - b_c``; a bag-of-words query is scored from its ``(cols,
vals)`` row through `kernels.row_product`, with no sparse matrix per
query, and a w2v query from its dense row.
"""

import numpy as np

from .classifiers import Prediction, _positive_int, make_prediction
from .errors import DataError, FormatError, NumericalError
from .features import FeatureSpec, bow_row, dense_row, feature_matrix
from .kernels import hinge_sgd, row_product
from .utils import container_array

DEFAULT_REG = 1e-4
DEFAULT_EPOCHS = 20


class LinearSvmModel:
    """Per-class weight vectors and offsets."""

    strategy = "svm"

    def __init__(self, classes, weights, offsets, spec: FeatureSpec, *,
                 reg, epochs, seed):
        self.classes = tuple(classes)
        self.weights = np.asarray(weights, dtype=np.float64)  # (n_classes, d)
        self.offsets = np.asarray(offsets, dtype=np.float64)  # (n_classes,)
        self.spec = spec
        self.reg = reg
        self.epochs = epochs
        self.seed = seed
        self.embed_dim = spec.embed_dim if spec.name == "w2v" else None

    def container(self):
        return ({"reg": self.reg, "epochs": self.epochs, "seed": self.seed},
                {"weights": self.weights, "offsets": self.offsets,
                 **self.spec.container()})

    @classmethod
    def from_container(cls, hyper, arrays):
        classes, spec = arrays["classes"], FeatureSpec.from_container(arrays)
        reg, seed = hyper["reg"], hyper["seed"]
        if not (type(reg) in (int, float) and np.isfinite(reg) and reg > 0):
            raise FormatError(f"reg must be a finite number > 0, found {reg!r}")
        epochs = _positive_int(hyper, "epochs")
        if not (type(seed) is int and seed >= 0):
            raise FormatError(f"seed must be an integer >= 0, found {seed!r}")
        return cls(classes, container_array(arrays, "weights", len(classes), spec.width),
                   container_array(arrays, "offsets", len(classes)), spec,
                   reg=reg, epochs=epochs, seed=seed)

    def decision_matrix(self, feats) -> np.ndarray:
        """Scores ``w_c . x - b_c`` for every (row, class) pair."""
        return np.asarray(feats @ self.weights.T) - self.offsets

    def predict(self, tokens, table=None) -> Prediction:
        # a non-finite score is refused by make_prediction, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.name == "w2v":
                scores = self.decision_matrix(dense_row(self.spec, tokens, table)[None])[0]
            else:
                scores = row_product(*bow_row(self.spec, tokens), self.weights.T) - self.offsets
        return make_prediction(self.classes, scores)


def fit_linear_svm(feats, labels, classes, spec: FeatureSpec, *, regs=(DEFAULT_REG,),
                   epochs=DEFAULT_EPOCHS, seed=0) -> list:
    """One-vs-rest scorers on a prebuilt feature matrix, one model per
    strength in ``regs``, in order; `NumericalError` names a strength
    whose weights are not finite (one too small for its step sizes)."""
    import scipy.sparse as sp
    classes = tuple(classes)
    if len(classes) < 2:
        raise DataError("linear SVM training needs at least 2 classes")
    csr = sp.csr_matrix(feats, dtype=np.float64)
    n, d = csr.shape
    rng = np.random.default_rng(seed)
    order = np.stack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)
    y = np.where(np.asarray(labels, dtype=object)[:, None]
                 == np.asarray(classes, dtype=object)[None, :], 1.0, -1.0)
    # an overflowing step is reported below, not as a numpy warning
    with np.errstate(all="ignore"):
        w_aug = hinge_sgd(csr.data, csr.indices.astype(np.int64),
                          csr.indptr.astype(np.int64), y, regs, int(epochs), order, d)
    models = []
    for reg, w in zip(regs, w_aug):
        if not np.all(np.isfinite(w)):
            raise NumericalError(f"svm weights at reg={reg!r} are not finite")
        models.append(LinearSvmModel(classes, np.ascontiguousarray(w[:d].T), -w[d], spec,
                                     reg=reg, epochs=epochs, seed=seed))
    return models


def train_svm(corpus, spec: FeatureSpec, table=None, *,
              reg=DEFAULT_REG, epochs=DEFAULT_EPOCHS, seed=0) -> LinearSvmModel:
    """Featurize ``corpus`` and train the one-vs-rest scorers."""
    docs = list(corpus)
    feats = feature_matrix(spec, docs, table)
    [model] = fit_linear_svm(feats, [doc.label for doc in docs], corpus.classes,
                             spec, regs=(reg,), epochs=epochs, seed=seed)
    return model
