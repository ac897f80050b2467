import gc
import subprocess
from collections import Counter
from pathlib import Path

import pytest

from gevreykit.verification import run_suite

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gevreykit"
QUICK_RESULTS = pytest.StashKey[list]()
PIPELINE_SECONDS = pytest.StashKey[dict]()
VERDICT_LEDGER = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def quick_suite(request):
    """One shared run of the quick verification suite."""
    results = request.config.stash[QUICK_RESULTS] = run_suite(quick=True)
    return results


@pytest.fixture
def pipeline_seconds(request):
    """Seconds per README pipeline, filled by the tests that run them."""
    return request.config.stash.setdefault(PIPELINE_SECONDS, {})


@pytest.fixture
def verdict_ledger_wrong(request):
    """Each verdict ledger battery's count and wrong keys with their flags,
    filled by its test."""
    return request.config.stash.setdefault(VERDICT_LEDGER, {})


@pytest.fixture(autouse=True)
def gc_left_enabled():
    """Fails any test after which Python's cyclic collector is disabled,
    and turns it back on for the tests that follow."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def _head_counts():
    """Line counts of the src/gevreykit modules at git HEAD, or None outside
    a git checkout (an archive copy has no .git)."""
    root = SOURCE.parent.parent
    if not (root / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=True).stdout

    try:
        names = git("ls-tree", "--name-only", "HEAD", "src/gevreykit/").split()
        return {Path(n).stem: len(git("show", "HEAD:" + n).splitlines())
                for n in names if n.endswith(".py")}
    except (OSError, subprocess.CalledProcessError):
        return None


def pytest_terminal_summary(terminalreporter, config):
    """One line of src/gevreykit line counts per module and in total, one of
    each module's change against git HEAD inside a git checkout and, when
    the shared quick suite, the README pipelines or the verdict ledger ran,
    one line each of their seconds or wrong verdicts; they report only and
    gate nothing."""
    counts = {p.stem: len(p.read_text().splitlines()) for p in sorted(SOURCE.glob("*.py"))}
    terminalreporter.write_line("src/gevreykit lines: %s; total %d" % (
        ", ".join("%s %d" % kv for kv in counts.items()), sum(counts.values())))
    head = _head_counts()
    if head is not None:
        delta = {m: counts.get(m, 0) - head.get(m, 0) for m in sorted(counts.keys() | head.keys())}
        terminalreporter.write_line("src/gevreykit lines against HEAD: %s; total %+d" % (
            ", ".join("%s %+d" % kv for kv in delta.items()), sum(delta.values())))
    results = config.stash.get(QUICK_RESULTS, None)
    if results is not None:
        terminalreporter.write_line("quick suite seconds: %s; total %.1f" % (
            ", ".join("%s %.1f" % (r.name, r.seconds) for r in results),
            sum(r.seconds for r in results)))
    pipelines = config.stash.get(PIPELINE_SECONDS, None)
    if pipelines:
        terminalreporter.write_line("README pipeline seconds: %s" % (
            ", ".join("%s %.2f" % kv for kv in pipelines.items())))
    for battery, ledger in config.stash.get(VERDICT_LEDGER, {}).items():
        sides = [k.split()[0] for k in ledger["wrong"]]
        groups = [k.split()[1] for k in ledger["wrong"]]
        flags = Counter(f for fs in ledger["wrong"].values() for f in fs or ("none",))
        terminalreporter.write_line("verdict ledger %s wrong of %d: %s; %s; flags %s" % (
            battery, ledger["total"],
            ", ".join("%s %d" % (v, sides.count(v)) for v in ("fourier", "space", "dual")),
            ", ".join("%s %d" % (v, groups.count(v)) for v in ("T1", "T2", "SU2", "SO3")),
            ", ".join("%s %d" % kv for kv in sorted(flags.items()))))
