"""Text classification with word subspaces.

Documents are modeled as low-dimensional linear subspaces of a word
embedding space (plain or frequency-weighted uncentered PCA) and
classified by canonical-angle similarity, alongside classic baselines
(similarity average, naive Bayes, LSA, linear SVM) and a
cross-validation evaluation harness.
"""

from .classifiers import Prediction, train_msm, train_sa, train_tfmsm
from .corpus import Corpus, Document, parse_corpus
from .embeddings import (
    EmbeddingTable,
    filter_roman,
    load_binary,
    load_text,
    lookup_all,
    save_text,
)
from .evaluation import (
    EvalReport,
    FoldPlan,
    make_folds,
    paired_ttest,
    run_experiment,
    spectrum_report,
)
from .subspace import (
    Subspace,
    canonical_cosines,
    full_weighted_word_subspace,
    full_word_subspace,
    similarity,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus", "Document", "EmbeddingTable", "EvalReport", "FoldPlan",
    "Prediction", "Subspace", "canonical_cosines", "filter_roman",
    "full_weighted_word_subspace", "full_word_subspace", "load_binary",
    "load_text", "lookup_all", "make_folds", "paired_ttest", "parse_corpus",
    "run_experiment", "save_text", "similarity", "spectrum_report",
    "train_msm", "train_sa", "train_tfmsm",
]
