"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload r8-subspace --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The inputs for ``--seed`` are generated once (untimed) under
``perfbench/.cache``.  Every timed process is fresh, pins BLAS and
OpenMP to one thread and passes ``threads=1`` to the package.  Set-up
is timed in ``SETUP_SAMPLES`` processes (the session among them) and
reported as their median; ``eval_s`` and ``classify_docs_per_s`` are
medians over the session's rounds.  Manifest and check lines go to
stdout first; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer
metrics for ``--trace 1``.  Exit code 2 when the package is missing.
"""

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 150


def _child(args, workdir):
    cmd = [sys.executable, os.path.join(HERE, "session.py"), *args, "--workdir", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _manifest(workload, seed, program_seed, inputs):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "program_seed": program_seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": PINNED, "package_threads": 1,
        "inputs_sha256": inputs["sha256"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wordspace", "__init__.py")):
        print(f"error: no package at {os.path.join(ROOT, 'src', 'wordspace')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import gen
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = gen.write_inputs(workload.shape, args.seed, CACHE)
    inputs_path = os.path.join(os.path.dirname(inputs["corpus"]), "manifest.json")
    print("manifest", json.dumps(_manifest(args.workload, args.seed, workloads.PROGRAM_SEED, inputs)))

    workdir = os.path.join(CACHE, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", args.workload, "--inputs", inputs_path,
              "--seed", str(args.seed), "--trace", str(args.trace)]
    try:
        setups = [_child(common + ["--setup-only"], workdir)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        rec = _child(common + ["--seconds", str(args.seconds)], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(rec["setup_s"])

    for name, ok, detail in rec["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print("session", json.dumps({
        "rounds": len(rec["eval_s"]), "setup_s": setups, "eval_s": rec["eval_s"],
        "classify_docs_per_s": rec["classify_docs_per_s"], "accuracy": rec["accuracy"],
        "report_sha256": rec["report_sha256"], "package": rec["wordspace"]}))
    if args.trace:
        print("phases", json.dumps(rec["phases"]))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "eval_s": {"value": statistics.median(rec["eval_s"]), "unit": "s"},
            "classify_docs_per_s": {"value": statistics.median(rec["classify_docs_per_s"]),
                                    "unit": "1/s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "accuracy_mean": {"value": rec["accuracy_mean"], "unit": "ratio"},
        }
    print(json.dumps({
        "correct": all(ok for _, ok, _ in rec["checks"]),
        "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
