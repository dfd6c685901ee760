"""One benchmark session in a fresh process; started by run.py.

A session does what a user of the paper's method does, through the
public functions that ``wordspace eval`` / ``train`` / ``classify``
call: set-up (``import wordspace``, load the embeddings, parse the
corpus and the stream), then rounds of

  eval      make_folds + run_experiment per strategy, the report texts,
            paired_ttest over the strategies, spectrum_report;
  train     the serving model with the workload's `wordspace train`
            options, save_model (untimed);
  classify  load_model + the per-document predict path of ``classify``

until ``--seconds`` have passed, then the checks of checks.py on the
last round.  The last line of stdout is a JSON record for run.py.
With ``--setup-only`` the session stops after set-up.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

UNCLASSIFIABLE = "__UNCLASSIFIABLE__"


def setup(workload, inputs, recorder):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import wordspace
    from wordspace import corpus, embeddings, model_io  # noqa: F401
    t1 = time.perf_counter()
    if recorder is not None:
        import spans
        recorder.add("cli.import", t0, t1)
        spans.instrument(recorder)
    table = None
    if workload.use_table:
        path = inputs["table"]
        load = embeddings.load_binary if path.endswith(".bin") else embeddings.load_text
        table = load(path)
    corp = corpus.parse_corpus(inputs["corpus"])
    stream = corpus.parse_corpus(inputs["stream"])
    if recorder is not None:
        recorder.mark()
    return wordspace, table, corp, stream, time.perf_counter() - t0


def _train_serving(name, corp, table, params, program_seed):
    """The serving model as ``wordspace train`` builds it with ``params``."""
    from wordspace import classifiers, features, svm
    if name in ("msm", "tfmsm"):
        trainer = classifiers.train_tfmsm if name == "tfmsm" else classifiers.train_msm
        model = trainer(corp, table, params["class_dim"], True)
        model.query_dim = params["query_dim"]
        return model
    spec = features.fit_feature_spec(classifiers.DEFAULT_FEATURES[name], corp, table, True)
    return svm.train_svm(corp, spec, table, reg=params["reg"], epochs=params["epochs"],
                         seed=program_seed)


def _phase(recorder, name):
    """A ``phase.<name>`` span around a session phase when tracing."""
    return recorder.span(f"phase.{name}") if recorder else contextlib.nullcontext()


def run_round(workload, table, corp, stream, model_path, program_seed, recorder=None):
    from wordspace import errors, evaluation, model_io, utils
    out = {"ttests": {}, "spectrum": None, "failed": 0, "attempted": 0}
    texts = []
    reports = {}

    with _phase(recorder, "eval"):
        t0 = time.perf_counter()
        plan = evaluation.make_folds(corp, program_seed)
        for strategy in workload.strategies:
            n_ops = sum(len(f.test) for f in plan.folds)
            out["attempted"] += n_ops
            try:
                rep = evaluation.run_experiment(corp, strategy, plan, table=table,
                                                seed=program_seed, threads=1)
            except Exception:  # a crash fails every document of the strategy
                traceback.print_exc()
                out["failed"] += n_ops
                continue
            reports[strategy] = rep
            out["failed"] += sum(rep.unclassifiable)
            texts += [rep.to_kv_text(), rep.to_table_text()]
        for a, b in itertools.combinations(reports, 2):
            res = evaluation.paired_ttest(reports[a].accuracies, reports[b].accuracies)
            out["ttests"][(a, b)] = (res.statistic, res.p_value)
            texts.append(f"pair.{a}.{b}.t={res.statistic!r}\npair.{a}.{b}.p={res.p_value!r}\n")
        if workload.spectrum:
            spec = evaluation.spectrum_report(corp, table)
            texts.append(spec.to_csv_text())
            out["spectrum"] = {"classes": spec.classes, "curves": spec.curves,
                               "cumulative": spec.cumulative}
        out["eval_s"] = time.perf_counter() - t0
    out["report_sha256"] = hashlib.sha256("".join(texts).encode()).hexdigest()
    out["reports"] = {
        s: {"accuracies": [float(a) for a in r.accuracies], "params": r.params_per_fold,
            "test_sizes": r.test_sizes, "unclassifiable": r.unclassifiable}
        for s, r in reports.items()}
    out["folds"] = [(f.train, f.test) for f in plan.folds]

    with _phase(recorder, "train"):
        model = _train_serving(workload.serving, corp, table, workload.serving_params,
                               program_seed)
        model_io.save_model(model, model_path)

    def classify_one(doc):  # the per-document path of ``wordspace classify``
        try:
            pred = served.predict(doc.tokens, table)
            return pred.label, float(pred.scores.max())
        except errors.DegenerateQueryError:
            return UNCLASSIFIABLE, float("nan")
        except Exception:  # counted as a failed operation, run goes on
            traceback.print_exc()
            return None, float("nan")

    with _phase(recorder, "classify"):
        t0 = time.perf_counter()
        served = model_io.load_model(model_path)
        predictions = utils.parallel_map(classify_one, stream.documents[:workload.stream_docs], 1)
        out["classify_s"] = time.perf_counter() - t0
    out["attempted"] += len(predictions)
    out["failed"] += sum(label in (None, UNCLASSIFIABLE) for label, _ in predictions)
    out["predictions"] = predictions
    out["served"] = served
    return out


def _peak_rss_mb():
    """Peak resident set size of this process image (``VmHWM``).

    Not ``ru_maxrss``: Linux carries it across exec, so a child started
    by vfork reports its parent's peak (here the input generator's)
    whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _raw_documents(path):
    with open(path, encoding="utf-8") as fh:
        return [(f[0], f[1:]) for f in (line.split() for line in fh) if f]


def session_output(workload, inputs, seed, program_seed, last, hashes):
    """The checks' view of a session: raw inputs plus the last round's outputs."""
    import numpy as np

    import checks
    with np.load(inputs["truth"]) as truth:
        vectors = dict(zip(truth["words"].tolist(), truth["vectors"]))
    served = last["served"]
    return checks.SessionOutput(
        seed=seed, program_seed=program_seed,
        corpus=_raw_documents(inputs["corpus"]),
        stream=_raw_documents(inputs["stream"])[:workload.stream_docs],
        vectors=vectors, folds=last["folds"], reports=last["reports"],
        ttests=last["ttests"], spectrum=last["spectrum"], serving=workload.serving,
        serving_classes=tuple(served.classes), serving_params=workload.serving_params,
        svm_weights=getattr(served, "weights", None),
        svm_offsets=getattr(served, "offsets", None),
        predictions=last["predictions"], report_hashes=hashes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="manifest.json of gen.write_inputs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    ws, table, corp, stream, setup_s = setup(workload, inputs, recorder)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    model_path = os.path.join(args.workdir, "serving.npz")
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(workload, table, corp, stream, model_path,
                                workloads.PROGRAM_SEED, recorder))
    peak_rss_mb = _peak_rss_mb()
    hashes = [r["report_sha256"] for r in rounds]
    import checks
    results = checks.run_checks(session_output(workload, inputs, args.seed,
                                               workloads.PROGRAM_SEED, rounds[-1], hashes))
    accs = {s: sum(r["accuracies"]) / len(r["accuracies"])
            for s, r in rounds[-1]["reports"].items()}
    record = {
        "setup_s": setup_s,
        "eval_s": [r["eval_s"] for r in rounds],
        "classify_docs_per_s": [len(r["predictions"]) / r["classify_s"] for r in rounds],
        "peak_rss_mb": peak_rss_mb,
        "accuracy": accs,
        "accuracy_mean": sum(accs.values()) / len(accs) if accs else math.nan,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "checks": results,
        "report_sha256": hashes[-1],
        "wordspace": os.path.relpath(os.path.dirname(ws.__file__), ROOT),
    }
    if recorder is not None:
        import spans
        record["per_layer"] = recorder.metrics(rounds=len(rounds))
        record["phases"] = spans.phase_self_times(recorder, rounds=len(rounds))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
