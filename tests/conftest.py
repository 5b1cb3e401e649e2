import dataclasses
import sys

import pytest

from qfock import budget


@pytest.fixture
def set_bound(monkeypatch):
    """set_bound(name, value): one row of ``qfock.budget.BOUNDS`` at another
    value for the test; guards read the table at call time."""

    def set_(name: str, value: int) -> None:
        monkeypatch.setitem(budget.BOUNDS, name, dataclasses.replace(budget.BOUNDS[name], value=value))

    return set_


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # verdict lines from the acceptance suite, one per criterion, shown
    # regardless of capture settings
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
