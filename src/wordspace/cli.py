"""Command-line interface.

Subcommands: ``train``, ``classify``, ``eval``, ``spectrum``.  All
diagnostics go to stderr; data goes to stdout or to the files named by
``--out``.  Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numerical error.
"""

import argparse
import itertools
import logging
import sys
from pathlib import Path

from . import classifiers, bayes, svm, lsa, model_io
from .corpus import parse_corpus
from .embeddings import load_binary, load_text
from .errors import (
    ConfigError,
    DataError,
    DegenerateQueryError,
    DimensionMismatchError,
    EmptyCorpusError,
    NumericalError,
)
from .evaluation import (
    DEFAULT_GRIDS,
    DEFAULT_SEED,
    make_folds,
    paired_ttest,
    run_experiment,
    spectrum_report,
)
from .features import FEATURE_NAMES, fit_feature_spec
from .utils import parallel_map

UNCLASSIFIABLE = "__UNCLASSIFIABLE__"

log = logging.getLogger("wordspace")


def _existing_path(value):
    if not Path(value).exists():
        raise ConfigError(f"path does not exist: {value}")
    return value


def _load_embeddings(args):
    path = args.embeddings
    if path is None:
        raise ConfigError("this run requires --embeddings")
    _existing_path(path)
    fmt = args.format
    if fmt is None:
        fmt = "bin" if path.endswith(".bin") else "txt"
    table = load_binary(path) if fmt == "bin" else load_text(path)
    log.info("loaded %d vectors of dimension %d", len(table), table.dimension)
    return table


def _needs_table(strategy, feature):
    if strategy in ("msm", "tfmsm", "sa"):
        return True
    return feature == "w2v"


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _grid_overrides(args):
    grids = {}
    if args.grid_class_dim:
        grids["class_dim"] = args.grid_class_dim
    if args.grid_query_dim:
        grids["query_dim"] = args.grid_query_dim
    if args.grid_rank:
        grids["rank"] = args.grid_rank
    if args.grid_reg:
        grids["reg"] = args.grid_reg
    return grids or None


def _resolve_feature(strategy, feature):
    return feature or classifiers.DEFAULT_FEATURES[strategy]


def cmd_train(args) -> int:
    _existing_path(args.corpus)
    if args.out is None:
        raise ConfigError("train requires --out for the model file")
    corpus = parse_corpus(args.corpus)
    feature = _resolve_feature(args.strategy, args.feature)
    table = _load_embeddings(args) if _needs_table(args.strategy, feature) else None
    normalize = args.normalize_vectors == "on"

    strategy = args.strategy
    if strategy == "msm":
        model = classifiers.train_msm(corpus, table, args.class_dim, normalize)
        model.query_dim = args.query_dim
        model.angle_count = args.angle_count
    elif strategy == "tfmsm":
        model = classifiers.train_tfmsm(corpus, table, args.class_dim, normalize)
        model.query_dim = args.query_dim
        model.angle_count = args.angle_count
    elif strategy == "sa":
        model = classifiers.train_sa(corpus, table, normalize)
    elif strategy == "mvb":
        model = bayes.train_mvb(corpus)
    elif strategy == "mnb":
        model = bayes.train_mnb(corpus)
    elif strategy == "lsa":
        spec = fit_feature_spec(feature, corpus, table, normalize)
        model = lsa.train_lsa(corpus, spec, args.rank, table)
    else:
        spec = fit_feature_spec(feature, corpus, table, normalize)
        model = svm.train_svm(corpus, spec, table, reg=args.reg,
                              epochs=args.epochs, seed=args.seed)

    model_io.save_model(model, args.out)
    print(f"strategy={strategy} classes={len(corpus.classes)} "
          f"documents={len(corpus)} model={args.out}")
    if strategy in ("msm", "tfmsm"):
        for label in model.classes:
            sub = model.subspaces[label]
            print(f"class {label}: words={model.word_counts[label]} "
                  f"dim={sub.dimension}")
    else:
        for label in corpus.classes:
            print(f"class {label}: documents={len(corpus.indices_of(label))}")
    return 0


def cmd_classify(args) -> int:
    _existing_path(args.model)
    _existing_path(args.corpus)
    model = model_io.load_model(args.model)
    needs_table = getattr(model, "embed_dim", None) is not None
    table = _load_embeddings(args) if needs_table else None
    if table is not None and table.dimension != model.embed_dim:
        raise DimensionMismatchError(
            f"model expects dimension {model.embed_dim}, embeddings have "
            f"{table.dimension}"
        )
    try:
        corpus = parse_corpus(args.corpus)
    except EmptyCorpusError:
        return 0  # zero input documents, zero output lines

    def _classify(doc):
        try:
            pred = model.predict(doc.tokens, table)
            return pred.label, float(pred.scores.max())
        except DegenerateQueryError:
            return UNCLASSIFIABLE, float("nan")

    results = parallel_map(_classify, corpus.documents, args.threads)
    for i, (label, score) in enumerate(results):
        print(f"{i}\t{label}\t{score:.6f}")
    return 0


def cmd_eval(args) -> int:
    _existing_path(args.corpus)
    if args.out is None:
        raise ConfigError("eval requires --out as a report path prefix")
    strategies = list(args.strategies) if args.strategies else [args.strategy]
    if not strategies or strategies == [None]:
        raise ConfigError("eval requires --strategy or --strategies")
    for s in strategies:
        if s not in classifiers.STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}")
    if args.ttest and len(strategies) < 2:
        raise ConfigError("--ttest needs at least two strategies")

    corpus = parse_corpus(args.corpus)
    plan = make_folds(corpus, args.seed)
    needs = [s for s in strategies
             if _needs_table(s, _resolve_feature(s, args.feature))]
    table = _load_embeddings(args) if needs else None
    grids = _grid_overrides(args)
    normalize = args.normalize_vectors == "on"

    reports = {}
    for strategy in strategies:
        feature = _resolve_feature(strategy, args.feature)
        report = run_experiment(
            corpus, strategy, plan, table=table, feature=feature, grids=grids,
            normalize=normalize, seed=args.seed, threads=args.threads,
        )
        reports[strategy] = report
        _write_text(f"{args.out}.{strategy}.kv", report.to_kv_text())
        _write_text(f"{args.out}.{strategy}.txt", report.to_table_text())
        print(f"{strategy}: mean_accuracy={report.mean_accuracy!r} "
              f"std={report.std_accuracy!r}")

    if args.ttest:
        kv_lines = ["schema=wordspace-ttest/1"]
        txt_lines = []
        for a, b in itertools.combinations(strategies, 2):
            result = paired_ttest(reports[a].accuracies, reports[b].accuracies)
            kv_lines.append(f"pair.{a}.{b}.t={result.statistic!r}")
            kv_lines.append(f"pair.{a}.{b}.p={result.p_value!r}")
            txt_lines.append(
                f"paired t-test {a} vs {b}: t={result.statistic:.4f} "
                f"p={result.p_value:.4f}"
            )
            print(f"ttest {a} vs {b}: t={result.statistic!r} p={result.p_value!r}")
        _write_text(f"{args.out}.ttest.kv", "\n".join(kv_lines) + "\n")
        _write_text(f"{args.out}.ttest.txt", "\n".join(txt_lines) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    _existing_path(args.corpus)
    if args.out is None:
        raise ConfigError("spectrum requires --out for the CSV file")
    corpus = parse_corpus(args.corpus)
    table = _load_embeddings(args)
    report = spectrum_report(corpus, table, args.normalize_vectors == "on")
    _write_text(args.out, report.to_csv_text())
    kept = report.cumulative_at(args.at_dim)
    print(f"mean_cumulative_variance@{args.at_dim}={kept!r}")
    return 0


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordspace",
        description="Subspace-based text classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, with_strategy=True):
        p.add_argument("--embeddings", help="embedding file (bin or txt)")
        p.add_argument("--format", choices=("bin", "txt"),
                       help="embedding format override (default: by extension)")
        p.add_argument("--corpus", required=True,
                       help="corpus file: one 'label tokens...' document per line")
        if with_strategy:
            p.add_argument("--strategy", choices=classifiers.STRATEGIES)
            p.add_argument("--feature", choices=FEATURE_NAMES,
                           help="feature scheme (defaults to the strategy's own)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default: 1, sequential)")
        p.add_argument("--out", help="output path (eval: path prefix)")
        p.add_argument("--normalize-vectors", choices=("on", "off"), default="on",
                       help="unit-normalize word vectors before modeling")

    p_train = sub.add_parser("train", help="train a model and save it")
    add_shared(p_train)
    p_train.add_argument("--class-dim", type=int, default=150,
                         help="class subspace dimension cap (msm/tfmsm)")
    p_train.add_argument("--query-dim", type=int, default=10,
                         help="query subspace dimension cap (msm/tfmsm)")
    p_train.add_argument("--angle-count", type=int, default=None,
                         help="canonical angles used (default: all available)")
    p_train.add_argument("--rank", type=int, default=130,
                         help="approximation rank (lsa)")
    p_train.add_argument("--reg", type=float, default=svm.DEFAULT_REG,
                         help="regularization strength (svm)")
    p_train.add_argument("--epochs", type=int, default=svm.DEFAULT_EPOCHS,
                         help="training epochs (svm)")

    p_classify = sub.add_parser("classify", help="classify documents with a model")
    add_shared(p_classify, with_strategy=False)
    p_classify.add_argument("--model", required=True, help="model container file")

    p_eval = sub.add_parser("eval", help="run the cross-validation experiment")
    add_shared(p_eval)
    p_eval.add_argument("--strategies", type=lambda s: s.split(","),
                        help="comma-separated strategy list")
    p_eval.add_argument("--ttest", action="store_true",
                        help="paired t-test between the evaluated strategies")
    p_eval.add_argument("--grid-class-dim", type=_int_list,
                        help="comma-separated class-dimension grid")
    p_eval.add_argument("--grid-query-dim", type=_int_list,
                        help="comma-separated query-dimension grid")
    p_eval.add_argument("--grid-rank", type=_int_list,
                        help="comma-separated lsa rank grid")
    p_eval.add_argument("--grid-reg", type=_float_list,
                        help="comma-separated svm regularization grid")

    p_spec = sub.add_parser("spectrum", help="per-class eigenvalue spectra")
    add_shared(p_spec, with_strategy=False)
    p_spec.add_argument("--at-dim", type=int, default=150,
                        help="report mean cumulative variance at this dimension")
    return parser


_HANDLERS = {
    "train": cmd_train,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "strategy", None) is None and args.command == "train":
        print("error: train requires --strategy", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
