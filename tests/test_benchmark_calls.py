"""The benchmark's calls into gevreykit resolve.

benchmark/ reaches into the package by module and attribute name: the
functions its traced run wraps (spans.LAYER_FUNCTIONS), the modules its
worker imports (worker.LAYER_MODULES), and every m.<module>.<name> in its
scripts.  The files are read as text, never imported, so this test
starts no benchmark code.
"""

import ast
import importlib
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _assigned(path, name):
    """The syntax tree of the value assigned to a module-level name."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError("%s assigns no %s" % (path.name, name))


def benchmark_calls():
    """Sorted (module, attribute) pairs the benchmark uses; attribute None
    for a module it only imports."""
    layer = _assigned(BENCHMARK / "spans.py", "LAYER_FUNCTIONS")
    calls = {(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in layer.elts}
    calls |= {(mod, None) for mod in ast.literal_eval(_assigned(BENCHMARK / "worker.py",
                                                                "LAYER_MODULES"))}
    for path in BENCHMARK.glob("*.py"):
        calls |= set(re.findall(r"\bm\.(\w+)\.(\w+)", path.read_text()))
    return sorted(calls, key=lambda c: (c[0], c[1] or ""))


def test_the_benchmark_reads_its_calls_from_every_source():
    calls = benchmark_calls()
    assert ("quadrature", "wigner_d_all") in calls  # spans.LAYER_FUNCTIONS
    assert ("parallel", None) in calls  # worker.LAYER_MODULES
    assert ("quadrature", "wigner_d_cached") in calls  # sweep.py
    assert ("calculus", "linf_bound") in calls  # workloads.py


def test_every_benchmark_call_resolves_in_gevreykit():
    missing = []
    for mod, attr in benchmark_calls():
        try:
            module = importlib.import_module("gevreykit." + mod)
        except ImportError:
            missing.append("gevreykit.%s" % mod)
            continue
        if attr is not None and not hasattr(module, attr):
            missing.append("gevreykit.%s.%s" % (mod, attr))
    assert missing == []
