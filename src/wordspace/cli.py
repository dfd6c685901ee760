"""Command-line interface.

Subcommands: ``train``, ``classify``, ``eval``, ``spectrum``.  All
diagnostics go to stderr; data goes to stdout or to the files named by
``--out``.  Exit codes: 0 success, 2 configuration error (an output
that cannot be written among them), 3 data error, 4 numerical error.
"""

import argparse
import itertools
import logging
import signal
import sys
from pathlib import Path

from . import model_io
from .corpus import parse_corpus
from .embeddings import load_binary, load_text
from .errors import (
    ConfigError,
    DataError,
    DegenerateQueryError,
    DegenerateTestError,
    EmptyCorpusError,
    NumericalError,
)
from .evaluation import (
    DEFAULT_SEED,
    HYPERPARAMETERS,
    STRATEGIES,
    check_positive,
    make_folds,
    paired_ttest,
    run_experiment,
    spectrum_report,
)
from .features import FEATURE_NAMES

UNCLASSIFIABLE = "__UNCLASSIFIABLE__"


def _load_embeddings(args):
    path = args.embeddings
    if path is None:
        raise ConfigError("this run requires --embeddings")
    fmt = args.format
    if fmt is None:
        fmt = "bin" if path.endswith(".bin") else "txt"
    table = load_binary(path) if fmt == "bin" else load_text(path)
    if len(table) == 0:  # no run can use it: every document would be out of vocabulary
        raise DataError(f"embedding file has no words: {path}")
    return table


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


_GRID_AXES = tuple(name for name, hp in HYPERPARAMETERS.items() if hp.grid_help)


def _grid_overrides(args):
    grids = {name: getattr(args, f"grid_{name}") for name in _GRID_AXES}
    return {name: grid for name, grid in grids.items() if grid} or None


def _seed(args):
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:  # what np.random.default_rng refuses
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    return seed


def cmd_train(args) -> int:
    seed = _seed(args)
    strategy = STRATEGIES[args.strategy]
    given = {name: getattr(args, name) for name in (*HYPERPARAMETERS, "seed")}
    for name, value in given.items():  # None: the flag was left out
        if value is not None and name not in strategy.settings:
            raise ConfigError(f"strategy {strategy.name!r} does not read "
                              f"--{name.replace('_', '-')}")
    hyper = {name: hp.default if given[name] is None else given[name]
             for name, hp in HYPERPARAMETERS.items()}
    for name, value in hyper.items():
        if value is not None:  # None: unset (every canonical angle)
            check_positive(name, value)
    hyper["seed"] = seed
    corpus = parse_corpus(args.corpus)
    feature = strategy.resolve_feature(args.feature)
    table = _load_embeddings(args) if feature == "w2v" else None
    model = strategy.fit(corpus, table, feature, args.normalize_vectors == "on", hyper)

    model_io.save_model(model, args.out)
    print(f"strategy={strategy.name} classes={len(corpus.classes)} "
          f"documents={len(corpus)} model={args.out}")
    for label in corpus.classes:
        print(f"class {label}: {strategy.summary(model, corpus, label)}")
    return 0


def cmd_classify(args) -> int:
    model = model_io.load_model(args.model)
    needs_table = getattr(model, "embed_dim", None) is not None
    table = _load_embeddings(args) if needs_table else None
    if table is not None and table.dimension != model.embed_dim:
        raise DataError(
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

    results = [_classify(doc) for doc in corpus.documents]
    for i, (label, score) in enumerate(results):
        print(f"{i}\t{label}\t{score:.6f}")
    return 0


def cmd_eval(args) -> int:
    strategies = args.strategy
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}")
        if strategies.count(s) > 1:
            raise ConfigError(f"strategy {s!r} is listed more than once")
    if args.ttest and len(strategies) < 2:
        raise ConfigError("--ttest needs at least two strategies")
    grids = _grid_overrides(args)
    for axis in grids or ():
        if not any(axis in STRATEGIES[s].grid for s in strategies):
            raise ConfigError(f"--grid-{axis.replace('_', '-')} is a grid axis of "
                              f"no evaluated strategy ({', '.join(strategies)})")
    seed = _seed(args)

    corpus = parse_corpus(args.corpus)
    plan = make_folds(corpus, seed)
    features = {s: STRATEGIES[s].resolve_feature(args.feature) for s in strategies}
    table = _load_embeddings(args) if "w2v" in features.values() else None
    normalize = args.normalize_vectors == "on"

    # every strategy runs before any report is written: a failing run writes nothing
    reports = {strategy: run_experiment(
        corpus, strategy, plan, table=table, feature=features[strategy], grids=grids,
        normalize=normalize, seed=seed,
    ) for strategy in strategies}
    for strategy, report in reports.items():
        _write_text(f"{args.out}.{strategy}.kv", report.to_kv_text())
        _write_text(f"{args.out}.{strategy}.txt", report.to_table_text())
        print(f"{strategy}: mean_accuracy={report.mean_accuracy!r} "
              f"std={report.std_accuracy!r}")

    if args.ttest:
        kv_lines = ["schema=wordspace-ttest/1"]
        txt_lines = []
        for a, b in itertools.combinations(strategies, 2):
            try:
                result = paired_ttest(reports[a].accuracies, reports[b].accuracies)
                t, p = result.statistic, result.p_value
                shown, exact = f"t={t:.4f} p={p:.4f}", f"t={t!r} p={p!r}"
            except DegenerateTestError as err:  # the pair tied on every fold
                t = p = float("nan")
                shown = exact = f"undefined ({err})"
            kv_lines.append(f"pair.{a}.{b}.t={t!r}")
            kv_lines.append(f"pair.{a}.{b}.p={p!r}")
            txt_lines.append(f"paired t-test {a} vs {b}: {shown}")
            print(f"ttest {a} vs {b}: {exact}")
        _write_text(f"{args.out}.ttest.kv", "\n".join(kv_lines) + "\n")
        _write_text(f"{args.out}.ttest.txt", "\n".join(txt_lines) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    check_positive("at_dim", args.at_dim)
    corpus = parse_corpus(args.corpus)
    table = _load_embeddings(args)
    report = spectrum_report(corpus, table, args.normalize_vectors == "on")
    kept = report.cumulative_at(args.at_dim)
    _write_text(args.out, report.to_csv_text())
    print(f"mean_cumulative_variance@{args.at_dim}={kept!r}")
    return 0


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordspace",
        description="Subspace-based text classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags several subcommands read; each is declared only where it is read
    shared = {
        "feature": dict(choices=FEATURE_NAMES,
                        help="feature scheme (defaults to the strategy's own)"),
        "seed": dict(type=int, help=f"random seed (default {DEFAULT_SEED})"),
        "out": dict(required=True, help="output path (eval: path prefix)"),
        "normalize-vectors": dict(choices=("on", "off"), default="on",
                                  help="unit-normalize word vectors before modeling"),
    }

    def add_shared(p, *names):
        p.add_argument("--embeddings", help="embedding file (bin or txt)")
        p.add_argument("--format", choices=("bin", "txt"),
                       help="embedding format override (default: by extension)")
        p.add_argument("--corpus", required=True,
                       help="corpus file: one 'label tokens...' document per line")
        for name in names:
            p.add_argument(f"--{name}", **shared[name])

    p_train = sub.add_parser("train", help="train a model and save it")
    p_train.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    add_shared(p_train, "feature", "seed", "out", "normalize-vectors")
    for name, hp in HYPERPARAMETERS.items():
        p_train.add_argument("--" + name.replace("_", "-"), type=hp.type, help=hp.help)

    p_classify = sub.add_parser("classify", help="classify documents with a model")
    add_shared(p_classify)
    p_classify.add_argument("--model", required=True, help="model container file")

    p_eval = sub.add_parser("eval", help="run the cross-validation experiment")
    p_eval.add_argument("--strategy", required=True, type=lambda s: s.split(","),
                        help="strategy name or comma-separated list")
    add_shared(p_eval, "feature", "seed", "out", "normalize-vectors")
    p_eval.add_argument("--ttest", action="store_true",
                        help="paired t-test between the evaluated strategies")
    for name in _GRID_AXES:
        hp = HYPERPARAMETERS[name]
        p_eval.add_argument("--grid-" + name.replace("_", "-"), help=hp.grid_help,
                            type={int: _int_list, float: _float_list}[hp.type])

    p_spec = sub.add_parser("spectrum", help="per-class eigenvalue spectra")
    add_shared(p_spec, "out", "normalize-vectors")
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
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, OSError) as err:  # an OSError names the path it could not open
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


def entry():
    if hasattr(signal, "SIGPIPE"):
        # a reader that goes early ends the process, as it ends any Unix filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
