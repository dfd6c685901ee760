"""The checks pass on a real session and reject deliberately wrong outputs."""

import copy
import dataclasses

import numpy as np
import pytest

import checks
import gen
import session
import workloads

TINY = dataclasses.replace(workloads.SHORT, name="tiny", n_docs=120, n_stream=30,
                           n_common=400, n_topic=30, n_oov=40, table_extra=300)


def _session(tmp_path, name, seed=3):
    workload = dataclasses.replace(workloads.WORKLOADS[name], shape=TINY,
                                   stream_docs=TINY.n_stream)
    inputs = gen.write_inputs(TINY, seed, str(tmp_path))
    _, table, corp, stream, _ = session.setup(workload, inputs, None)
    last = session.run_round(workload, table, corp, stream, str(tmp_path / "m.npz"),
                             workloads.PROGRAM_SEED)
    return session.session_output(workload, inputs, seed, workloads.PROGRAM_SEED, last,
                                  [last["report_sha256"]] * 2)


@pytest.fixture(scope="module")
def subspace_out(tmp_path_factory):
    return _session(tmp_path_factory.mktemp("s"), "r8-subspace")


@pytest.fixture(scope="module")
def baselines_out(tmp_path_factory):
    return _session(tmp_path_factory.mktemp("b"), "r8-baselines")


def _failed(out):
    return {name for name, ok, _ in checks.run_checks(out) if not ok}


def test_real_sessions_pass(subspace_out, baselines_out):
    assert _failed(subspace_out) == set()
    assert _failed(baselines_out) == set()


def test_permuted_stream_labels_fail(subspace_out, baselines_out):
    for out in (subspace_out, baselines_out):
        bad = copy.copy(out)
        labels = [label for label, _ in out.predictions]
        shifted = labels[1:] + labels[:1]
        bad.predictions = [(lab, s) for lab, (_, s) in zip(shifted, out.predictions)]
        assert "oracle.stream" in _failed(bad)


@pytest.mark.parametrize("strategy", ["msm", "tfmsm", "sa"])
def test_wrong_fold_accuracy_fails(subspace_out, strategy):
    bad = copy.deepcopy(subspace_out)
    fold = bad.seed % len(bad.folds)
    n_test = len(bad.folds[fold][1])
    acc = bad.reports[strategy]["accuracies"]
    acc[fold] = (round(acc[fold] * n_test) + (2 if acc[fold] < 0.5 else -2)) / n_test
    assert f"oracle.{strategy}" in _failed(bad)


@pytest.mark.parametrize("strategy", ["mvb", "mnb", "lsa", "svm"])
def test_wrong_baseline_accuracy_fails(baselines_out, strategy):
    bad = copy.deepcopy(baselines_out)
    fold = bad.seed % len(bad.folds)
    n_test = len(bad.folds[fold][1])
    acc = bad.reports[strategy]["accuracies"]
    acc[fold] = (round(acc[fold] * n_test) + (2 if acc[fold] < 0.5 else -2)) / n_test
    assert f"oracle.{strategy}" in _failed(bad)


def test_wrong_svm_weights_fail(baselines_out):
    bad = copy.copy(baselines_out)
    bad.svm_weights = baselines_out.svm_weights * (1 + 1e-6)
    assert "oracle.svm.weights" in _failed(bad)


def test_other_wrong_outputs_fail(subspace_out):
    bad = copy.deepcopy(subspace_out)
    (a, b), (t, p) = next(iter(bad.ttests.items()))
    bad.ttests[(a, b)] = (t * 1.001, p)
    assert _failed(bad) == {"ttest"}

    bad = copy.deepcopy(subspace_out)
    bad.spectrum["curves"][0] = bad.spectrum["curves"][0][::-1]
    assert "spectrum" in _failed(bad)

    bad = copy.deepcopy(subspace_out)
    bad.reports["msm"]["test_sizes"][0] += 1
    assert _failed(bad) == {"fold_sizes"}

    bad = copy.copy(subspace_out)
    bad.predictions = subspace_out.predictions[:-1]
    assert "classify.output" in _failed(bad)

    bad = copy.copy(subspace_out)
    bad.predictions = [("nonsense", 1.0)] + subspace_out.predictions[1:]
    assert "classify.output" in _failed(bad)

    bad = copy.copy(subspace_out)
    bad.report_hashes = ["a", "b"]
    assert _failed(bad) == {"determinism"}

    bad = copy.deepcopy(subspace_out)
    bad.reports["tfmsm"]["accuracies"] = list(np.full(10, 0.3))
    assert "accuracy.tfmsm" in _failed(bad)
