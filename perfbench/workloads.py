"""The benchmark's workloads: input shape, strategies and serving model.

Each workload is one *session* of a user of the paper's method: load
the embeddings (if any) and the corpus, run the 10-fold protocol for
the session's strategies, then train a serving model and classify a
held-out stream with it.  The two corpus shapes differ only in size
and document length; the word make-up is shared (see gen.py).
"""

from dataclasses import dataclass

# R8 class sizes (train + test, 7674 documents); the generator keeps
# these proportions, so earn is ~51% and grain < 1% of every corpus.
R8_CLASSES = (
    ("earn", 3923), ("acq", 2292), ("crude", 374), ("trade", 327),
    ("money-fx", 293), ("interest", 271), ("ship", 144), ("grain", 51),
)


@dataclass(frozen=True)
class Shape:
    """Size of one generated input set; the word make-up is fixed in gen.py."""

    name: str
    n_docs: int          # labelled corpus for the 10-fold protocol
    n_stream: int        # held-out labelled stream for classify
    median_len: int      # median tokens per document (log-normal lengths)
    min_len: int
    max_len: int
    n_common: int        # words shared by every class (Zipf ranked)
    n_topic: int         # words planted in each class's subspace
    n_oov: int           # corpus tokens with no embedding
    table: str           # embedding file format: "bin" or "txt"
    table_extra: int     # embedding rows for words the corpus never uses


SHORT = Shape("short", n_docs=256, n_stream=5000, median_len=45, min_len=8,
              max_len=160, n_common=3000, n_topic=150, n_oov=400,
              table="bin", table_extra=60000)
LONG = Shape("long", n_docs=80, n_stream=150, median_len=800, min_len=600,
             max_len=1100, n_common=6000, n_topic=200, n_oov=400,
             table="txt", table_extra=2000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    use_table: bool      # load the shape's embedding file
    strategies: tuple    # evaluated with the 10-fold protocol
    serving: str         # trained on the whole corpus, used for classify
    serving_params: dict # its ``wordspace train`` options
    spectrum: bool
    stream_docs: int     # leading stream documents classified per round


# The CLI defaults (--class-dim 150, --reg 1e-4, --epochs 20) except
# --query-dim, whose default (all of the query's rank) makes every class
# score 1 once a document has as many distinct words as dimensions.
SUBSPACE_SERVING = {"class_dim": 150, "query_dim": 10}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "r8-subspace",
            "the paper's method (msm, tfmsm, sa, spectrum) on short R8-length "
            "documents with a large .bin table: queries below ambient rank",
            SHORT, True, ("msm", "tfmsm", "sa"), "tfmsm", SUBSPACE_SERVING, True, 1400),
        Workload(
            "r8-baselines",
            "the classic baselines (mvb, mnb, lsa, svm) on the same corpus "
            "shape without embeddings: bag-of-words, SVD and hinge SGD",
            SHORT, False, ("mvb", "mnb", "lsa", "svm"), "svm", {"reg": 1e-4, "epochs": 20},
            False, 5000),
        Workload(
            "long-docs",
            "tfmsm and svm on ten-times-longer documents with .txt embeddings: "
            "queries at ambient rank, dense rows, the text parser",
            LONG, True, ("tfmsm", "svm"), "tfmsm", SUBSPACE_SERVING, False, 150),
    )
}

# Seed the program itself receives (the CLI default); the benchmark
# seed only shapes the inputs.
PROGRAM_SEED = 42
