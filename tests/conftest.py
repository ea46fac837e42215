"""Shared pytest hooks: surface acceptance PASS/FAIL lines in the summary,
run property tests without a per-example deadline, and measure the peak
memory of one call."""

import tracemalloc

import pytest
from hypothesis import settings

# A per-example deadline fails property tests on a loaded shared host,
# where one example can stall far longer than its typical run time.
settings.register_profile("modmd", deadline=None)
settings.load_profile("modmd")

_CRITERION_LINES = []


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn`` under
    ``tracemalloc`` and returns ``(result, peak)``: the peak bytes of
    Python and numpy allocations made during the call. Tracing stops when
    the call returns or raises, before any assertion on the peak."""

    def _measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return _measure


@pytest.fixture
def record_criterion():
    """Record one PASS/FAIL line for an acceptance criterion, then assert."""

    def _record(criterion: int, passed: bool, detail: str) -> None:
        line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
        _CRITERION_LINES.append(line)
        print(line, flush=True)
        assert passed, line

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
