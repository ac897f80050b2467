"""Smoke test of the benchmark itself, in short mode (about a minute).

For every workload it checks that the end-to-end run emits every
end_to_end metric of BENCHMARK.json with its unit, that the traced run
emits every per_layer metric with its unit, and that a deliberately
perturbed output is counted as a failed op.

Usage (from the repository root): python3 benchmark/smoke.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *flags):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"] + list(flags)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=180, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("%s: result keys %s" % (workload, sorted(result)))
    return result


def check_metrics(workload, result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise SystemExit("%s: missing %s, extra %s, wrong unit %s"
                         % (workload, missing, extra, wrong))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            raise SystemExit("%s: %s is %r" % (workload, k, v["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = run(name, 0)
        check_metrics(name, plain, spec["end_to_end"])
        if not plain["correct"] or plain["attempted"] < 1:
            raise SystemExit("%s: short run not correct: %s" % (name, plain))
        check_metrics(name, run(name, 1), spec["per_layer"])
        bad = run(name, 0, "--perturb")
        ok_frac = bad["metrics"]["ok_frac"]["value"]
        if bad["correct"] or bad["failed"] < 1 or ok_frac != 1 - bad["failed"] / bad["attempted"]:
            raise SystemExit("%s: perturbed outputs not counted: %s" % (name, bad))
        print("%s ok: %d metrics, perturbed run failed %d of %d"
              % (name, len(plain["metrics"]), bad["failed"], bad["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
