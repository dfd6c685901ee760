"""Byte-identity pins: the eval reports on the benchmark's seed-1 inputs.

The ``.kv`` and ``.txt`` reports hold only decisions (per-fold accuracy
is a count ratio, plus the selected grid points and the notes), so a
change to a scoring or selection path that keeps every decision keeps
their bytes.  ``eval_pins.json`` holds their sha256 for every strategy
on the short shape and for the long-docs strategies on the long shape,
at the default grids and seed.  A change that moves a pin updates the
file in the same commit; ``python tests/test_pins.py`` rewrites it.
"""

import hashlib
import json
import os

import pytest

from test_scale import _inputs
from wordspace.evaluation import DEFAULT_SEED, STRATEGIES, make_folds, run_experiment

import workloads  # perfbench/, put on the path by test_scale

PINS = os.path.join(os.path.dirname(__file__), "eval_pins.json")
LONG_STRATEGIES = workloads.WORKLOADS["long-docs"].strategies
CASES = [("short", s) for s in STRATEGIES] + [("long", s) for s in LONG_STRATEGIES]


def _shapes():
    """The seed-1 (table, corpus) of each input shape."""
    return {name: _inputs(getattr(workloads, name.upper()))[:2]
            for name in ("short", "long")}


@pytest.fixture(scope="module")
def shapes():
    return _shapes()


def _hashes(inputs, shape, strategy):
    table, corpus = inputs[shape]
    report = run_experiment(corpus, strategy, make_folds(corpus, DEFAULT_SEED), table=table)
    return {kind: hashlib.sha256(text.encode()).hexdigest()
            for kind, text in (("kv", report.to_kv_text()), ("txt", report.to_table_text()))}


@pytest.mark.parametrize("shape,strategy", CASES)
def test_eval_reports_match_their_pins(shape, strategy, shapes):
    with open(PINS) as fh:
        pins = json.load(fh)
    assert _hashes(shapes, shape, strategy) == pins[shape][strategy]


if __name__ == "__main__":
    inputs = _shapes()
    pins = {}
    for shape, strategy in CASES:
        pins.setdefault(shape, {})[strategy] = _hashes(inputs, shape, strategy)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
