"""Run a set of benchmark runs and summarise their spread.

    python3 perfbench/sets.py --workloads r8-subspace,long-docs --seeds 1-10 \
        --seconds 15 --out perfbench/.cache/set1.jsonl

Runs ``run.py`` once per (workload, seed), one at a time, appends each
result line to ``--out`` and prints, per workload and metric, the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (third minus first quartile, as a share of the median).
``--summarise FILE`` prints the same table for an existing file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(rows):
    by = defaultdict(list)
    for row in rows:
        by[row["workload"]].append(row)
    for workload, runs in by.items():
        failed = sorted({(r["result"]["failed"], r["result"]["attempted"]) for r in runs})
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, (failed, attempted)={failed[:3]}")
        metrics = defaultdict(list)
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                metrics[name].append(m["value"])
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {(q3 - q1) / med:7.2%}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="r8-subspace,r8-baselines,long-docs")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    parser.add_argument("--summarise")
    args = parser.parse_args(argv)
    if args.summarise:
        with open(args.summarise, encoding="utf-8") as fh:
            summarise([json.loads(line) for line in fh if line.strip()])
        return 0
    rows = []
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
                                  text=True, check=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            session = next(json.loads(ln[8:]) for ln in lines if ln.startswith("session "))
            row = {"workload": workload, "seed": seed, "session": session,
                   "result": json.loads(lines[-1])}
            rows.append(row)
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in
                                              row["result"]["metrics"].items()}), flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
    summarise(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
