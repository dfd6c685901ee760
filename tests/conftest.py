import pytest
import scipy.linalg

CRITERION_NAMES = {
    "test_criterion_1_numerical_properties": "1 numerical property suite",
    "test_criterion_2_bayes_oracle": "2 Bayes brute-force oracle",
    "test_criterion_3_reductions": "3 reduction checks",
    "test_criterion_4_desk_scale_end_to_end": "4 desk-scale end-to-end",
    "test_criterion_5_corpus_reproduction": "5 reference-corpus reproduction",
    "test_criterion_6_ttest_anchor": "6 t-test table anchor",
}

_results = {}


@pytest.fixture
def partial_solves(monkeypatch):
    """Count the partial eigensolves (scipy's ``eigh`` on an index range)."""
    calls = []
    real = scipy.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(kwargs["subset_by_index"])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    base = item.name.split("[")[0]
    if base in CRITERION_NAMES:
        if report.when == "call" or (report.when == "setup" and report.skipped):
            _results[base] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(CRITERION_NAMES):
        if name in _results:
            outcome = _results[name]
            label = {"passed": "PASS", "failed": "FAIL",
                     "skipped": "SKIPPED"}.get(outcome, outcome.upper())
            terminalreporter.write_line(
                f"criterion {CRITERION_NAMES[name]}: {label}"
            )
