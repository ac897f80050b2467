"""One workload process: set-up, warm-up, the closed loop, and (traced)
the per-layer numbers.  Started by run.py; prints ``ready`` once set-up
is done and one JSON line of raw results at the end.

Usage: python3 benchmark/worker.py --workload NAME --seed N --seconds S
       [--trace] [--setup-only] [--short] [--perturb]
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import COUNTERS, SPAN_NAMES, Tracer  # noqa: E402
from sweep import band_sweep  # noqa: E402
from workloads import VERDICT_LAYERS, WORKLOADS  # noqa: E402

SHORT_OPS = 4
LAYER_MODULES = ("groups", "quadrature", "fourier", "calculus", "gevrey",
                 "duality", "sphere", "serialize", "parallel")


class Modules:
    """The gevreykit modules, looked up by attribute at call time."""

    def __init__(self):
        self.package = importlib.import_module("gevreykit")
        if not os.path.abspath(self.package.__file__).startswith(SRC + os.sep):
            raise SystemExit("gevreykit imported from %s, not %s" % (self.package.__file__, SRC))
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module("gevreykit." + name))


def machine_facts(m):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "worker_count": m.parallel.worker_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                         if k in os.environ} or "library default",
    }


def reference_kernel_ms():
    """A fixed kernel that does not use gevreykit, timed once per run to
    show host speed drift: one three-operand einsum of the SO(3) band-12
    inverse shapes, and a pure-Python loop like the per-class code."""
    rng = np.random.default_rng(0)
    ea = rng.standard_normal((49, 26)) + 0j
    acc = rng.standard_normal((49, 13, 49)) + 0j
    eg = rng.standard_normal((49, 52)) + 0j
    t0 = time.perf_counter()
    np.einsum("ma,mbn,ng->abg", ea, acc, eg)
    table = {}
    for i in range(100000):
        table[(i % 997, i % 13)] = table.get((i % 997, i % 13), 0.0) + i
    return (time.perf_counter() - t0) * 1e3


def attempt(wl, op):
    """Run one op; an op that raises is a failure named by its exception."""
    try:
        return wl.run(op)
    except Exception as exc:
        return type(exc).__name__


def run_loop(wl, rng, seconds, short, tracer=None):
    """Closed loop over whole passes, stopping at the pass boundary nearest
    to ``seconds``.  Returns the loop statistics and per-op outcomes."""
    latencies = []
    outcomes = []  # (op, failure kind or None)
    t_start = time.perf_counter()
    c_start = time.process_time()
    while True:
        pass_start = time.perf_counter()
        for op in wl.make_pass(rng):
            if tracer is not None:
                tracer.op = len(outcomes)
                idx = tracer.open("bench.op")
            t0 = time.perf_counter()
            failure = attempt(wl, op)
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(idx)
            outcomes.append((op, failure))
            if short and len(outcomes) >= SHORT_OPS:
                break
        now = time.perf_counter()
        if short or now - t_start >= seconds - (now - pass_start) / 2.0:
            break
    wall = time.perf_counter() - t_start
    cpu = time.process_time() - c_start
    return {"wall": wall, "cpu": cpu, "latencies": latencies, "outcomes": outcomes}


def loop_stats(loop):
    lat_ms = np.array(loop["latencies"]) * 1e3
    n = len(lat_ms)
    failures = Counter(f for _, f in loop["outcomes"] if f is not None)
    return {
        "attempted": n,
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "ops_per_s": n / loop["wall"],
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p95_ms": float(np.percentile(lat_ms, 95)),
        "beyond_p95": int(np.sum(lat_ms > np.percentile(lat_ms, 95))),
        "cpu_ms_per_op": loop["cpu"] * 1e3 / n,
        "loop_s": loop["wall"],
    }


def per_layer(m, tracer, outcomes, overhead_frac):
    """Per-op layer metrics of the traced loop, and each module's share of
    the total self time."""
    n = len(outcomes)
    op_ids = set(range(n))
    self_s, calls = tracer.self_times(op_ids)
    setup_self, _ = tracer.self_times({"setup"})
    counts = tracer.total_counts(op_ids)
    out = {}
    for name in SPAN_NAMES:
        out[name + ".self_s"] = self_s[name] / n
        out[name + ".calls"] = calls[name] / n
    for name in ("quadrature.build_grid", "quadrature.wigner_d_all"):
        out[name + ".setup_s"] = setup_self[name]
    for name in COUNTERS:
        out[name] = counts[name] / n
    for layer, kind in VERDICT_LAYERS.items():
        mine = [f for op, f in outcomes if op[0] == kind]
        out[layer + ".correct_frac"] = (
            sum(f is None for f in mine) / len(mine) if mine else 0.0
        )
    out["parallel.worker_count"] = m.parallel.worker_count()
    out["bench.self_s"] = self_s["bench.op"] / n
    out["trace.overhead_frac"] = overhead_frac
    modules = Counter()
    for name, sec in self_s.items():
        modules[name.split(".")[0]] += sec
    total = sum(modules.values())
    shares = {k: v / total for k, v in modules.most_common()}
    return out, shares


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--short", action="store_true")
    p.add_argument("--perturb", action="store_true")
    args = p.parse_args()

    m = Modules()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    rng = np.random.default_rng(args.seed)
    wl = WORKLOADS[args.workload](m, perturb=args.perturb)
    warm_op = wl.make_pass(rng)[0]
    warm_failure = attempt(wl, warm_op)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"facts": machine_facts(m), "ref_kernel_ms": reference_kernel_ms()}
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    untraced = run_loop(wl, rng, seconds, args.short)
    loops = [untraced]
    stats = loop_stats(untraced)
    if tracer is not None:
        tracer.install()
        traced = run_loop(wl, rng, seconds, args.short, tracer=tracer)
        tracer.uninstall()
        loops.append(traced)
        traced_stats = loop_stats(traced)
        overhead = 1.0 - traced_stats["ops_per_s"] / stats["ops_per_s"]
        result["per_layer"], result["self_share"] = per_layer(
            m, tracer, traced["outcomes"], overhead)
        result["per_layer"].update(band_sweep(m, rng))
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        with open(path, "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
        result["traced"] = traced_stats
    result["untraced"] = stats
    failed_keys = {wl.op_key(warm_op): warm_failure} if warm_failure else {}
    for loop in loops:
        failed_keys.update((wl.op_key(op), f) for op, f in loop["outcomes"] if f is not None)
    result["attempted"] = sum(len(loop["outcomes"]) for loop in loops)
    result["failed"] = sum(f is not None for loop in loops for _, f in loop["outcomes"])
    result["failed_keys"] = dict(sorted(failed_keys.items()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
