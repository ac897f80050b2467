"""gevreykit benchmark: one closed-loop workload, end-to-end or traced.

Usage (from the repository root):

    python3 benchmark/run.py --workload transform_grid --seed 1 --seconds 30 --trace 0

Set-up time is measured from outside: the time from starting a fresh
worker interpreter to its ``ready`` line, taken over several workers and
reported as the median.  The last worker also runs the timed loop.  The
last stdout line is the result object; the line before it holds the
details (machine facts, drift probe, failure tally, sample counts).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def _known_failures(workload):
    with open(os.path.join(HERE, "known_failures.json")) as fh:
        return json.load(fh).get(workload, {})


def _spawn(args, extra, deadline):
    """Start a worker; return (seconds to its ready line, result line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise SystemExit("worker %s exited with code %s" % (" ".join(extra), code))
    return ready, (lines[-1] if lines else None)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("transform_grid", "pointwise_eval", "classify_pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--short", action="store_true",
                   help="smoke mode: a few ops per loop, one set-up sample")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt every output before its check (smoke test)")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gevreykit", "__init__.py")):
        print("no gevreykit sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    flags = [f for f, on in (("--short", args.short), ("--perturb", args.perturb)) if on]

    setup_samples = []
    if not args.trace:
        for _ in range(1 if args.short else SETUP_SAMPLES - 1):
            setup_samples.append(_spawn(args, ["--setup-only"] + flags, deadline)[0])
    ready, line = _spawn(args, flags + (["--trace"] if args.trace else []), deadline)
    setup_samples.append(ready)
    res = json.loads(line)

    known = _known_failures(args.workload)
    unexpected = [k for k in res["failed_keys"] if k not in known]
    correct = not unexpected
    loop = res["untraced"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["per_layer"].items()}
    else:
        values = {
            "ops_per_s": (loop["ops_per_s"], "1/s"),
            "latency_p50_ms": (loop["latency_p50_ms"], "ms"),
            "latency_p95_ms": (loop["latency_p95_ms"], "ms"),
            "cpu_ms_per_op": (loop["cpu_ms_per_op"], "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - loop["failed"] / loop["attempted"], "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "facts": res["facts"], "ref_kernel_ms": res["ref_kernel_ms"],
        "setup_samples_s": setup_samples, "untraced": loop,
        "traced": res.get("traced"), "self_share": res.get("self_share"),
        "failed_ops": res["failed_keys"], "unexpected_failures": unexpected,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith(".calls") or name in ("groups.classes", "fourier.grid_points",
                                            "pointwise.terms", "parallel.worker_count"):
        return "count"
    if name == "serialize.jsonl_bytes":
        return "bytes"
    if name == "quadrature.dstack_bytes":
        return "bytes-computed"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("band_exp"):
        return "exponent"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
