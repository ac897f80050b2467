import gc
from pathlib import Path

import pytest

from gevreykit.verification import run_suite

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gevreykit"
QUICK_RESULTS = pytest.StashKey[list]()
PIPELINE_SECONDS = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def quick_suite(request):
    """One shared run of the quick verification suite."""
    results = request.config.stash[QUICK_RESULTS] = run_suite(quick=True)
    return results


@pytest.fixture
def pipeline_seconds(request):
    """Seconds per README pipeline, filled by the tests that run them."""
    return request.config.stash.setdefault(PIPELINE_SECONDS, {})


@pytest.fixture(autouse=True)
def gc_left_enabled():
    """Fails any test after which Python's cyclic collector is disabled,
    and turns it back on for the tests that follow."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def pytest_terminal_summary(terminalreporter, config):
    """One line of src/gevreykit line counts per module and in total and,
    when the shared quick suite or the README pipelines ran, one line each
    of their seconds; they report only and gate nothing."""
    counts = {p.stem: len(p.read_text().splitlines()) for p in sorted(SOURCE.glob("*.py"))}
    terminalreporter.write_line("src/gevreykit lines: %s; total %d" % (
        ", ".join("%s %d" % kv for kv in counts.items()), sum(counts.values())))
    results = config.stash.get(QUICK_RESULTS, None)
    if results is not None:
        terminalreporter.write_line("quick suite seconds: %s; total %.1f" % (
            ", ".join("%s %.1f" % (r.name, r.seconds) for r in results),
            sum(r.seconds for r in results)))
    pipelines = config.stash.get(PIPELINE_SECONDS, None)
    if pipelines:
        terminalreporter.write_line("README pipeline seconds: %s" % (
            ", ".join("%s %.2f" % kv for kv in pipelines.items())))
