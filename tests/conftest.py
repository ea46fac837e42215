"""Shared pytest hooks: surface acceptance PASS/FAIL lines in the summary,
and run property tests without a per-example deadline."""

import pytest
from hypothesis import settings

# A per-example deadline fails property tests on a loaded shared host,
# where one example can stall far longer than its typical run time.
settings.register_profile("modmd", deadline=None)
settings.load_profile("modmd")

_CRITERION_LINES = []


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
