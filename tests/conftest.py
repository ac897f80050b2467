import gc
from pathlib import Path

import pytest

from gevreykit.verification import run_suite

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gevreykit"


@pytest.fixture(scope="session")
def quick_suite():
    """One shared run of the quick verification suite."""
    return run_suite(quick=True)


@pytest.fixture(autouse=True)
def gc_left_enabled():
    """Fails any test after which Python's cyclic collector is disabled,
    and turns it back on for the tests that follow."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def pytest_terminal_summary(terminalreporter):
    """One line of src/gevreykit line counts per module and in total;
    it reports only and gates nothing."""
    counts = {p.stem: len(p.read_text().splitlines()) for p in sorted(SOURCE.glob("*.py"))}
    terminalreporter.write_line("src/gevreykit lines: %s; total %d" % (
        ", ".join("%s %d" % kv for kv in counts.items()), sum(counts.values())))
