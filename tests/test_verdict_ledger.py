"""The verdict ledger: which verdicts of the benchmark's classify factorial are wrong.

The factorial is that of the ``classify_pipeline`` workload: on each of the
four classify catalogs, Gevrey fields of order s0 in {0.5, 1, 2, 3} (B = 1)
are classified on both sides at s in the same set and in both modes, and
growth sequences of order s0 in {2, 3} get the dual test at s in {1, 2, 3}.
That is 304 verdicts, judged by the benchmark's truth rule.  Here the field
goes to the classifier without the JSONL round trip, which keeps every bit.

The keys it gets wrong are checked against ``verdict_ledger.json``: a key
that turns wrong fails the test, and so does a listed key that turns right,
until it is removed from the list, as a strict xfail does.  The list is
data the ledger checks, not a bound.
"""

import json
from pathlib import Path

import numpy as np

from gevreykit.duality import growth_sequence, ultra_membership_test
from gevreykit.gevrey import fourier_side_test, space_side_test, synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual

LEDGER = Path(__file__).with_name("verdict_ledger.json")
# (name, family, torus_dim, cutoff): the classify catalogs of the benchmark
CATALOGS = (
    ("T1", "torus", 1, 1000.5),
    ("T2", "torus", 2, 30.5),
    ("SU2", "su2", 1, 16.1),
    ("SO3", "so3", 1, 16.1),
)
PROFILES = ("diagonal", "random_phase")
ORDERS = (0.5, 1.0, 2.0, 3.0)
SEED = 0


def factorial():
    """(side, group, s0, profile, s, mode) of every verdict, in the benchmark's order."""
    ops = []
    for group, *_ in CATALOGS:
        for i, s0 in enumerate(ORDERS):
            for s in ORDERS:
                for mode in ("R", "B"):
                    for side in ("fourier", "space"):
                        ops.append((side, group, s0, PROFILES[i % 2], s, mode))
        for i, s0 in enumerate((2.0, 3.0)):
            for s in (1.0, 2.0, 3.0):
                for mode in ("R", "B"):
                    ops.append(("dual", group, s0, PROFILES[i % 2], s, mode))
    return ops


def truth(side, s0, s, mode):
    """The benchmark's rule: gamma_s holds order s0 from s >= s0 (Roumieu) or
    s > s0 (Beurling); the dual holds growth of order s0 below it."""
    if side == "dual":
        return s < s0 if mode == "R" else s <= s0
    return s >= s0 if mode == "R" else s > s0


def key(side, group, s0, profile, s, mode):
    """The benchmark's op key."""
    return "%s %s s0=%g %s s=%g %s" % (side, group, s0, profile, s, mode)


def wrong_keys():
    """The keys of the factorial whose verdict disagrees with the truth rule,
    each field drawn with its own seed from one stream seeded with SEED."""
    catalogs = {name: enumerate_dual(GroupSpec(family, dim), cutoff)
                for name, family, dim, cutoff in CATALOGS}
    ops = factorial()
    seeds = np.random.default_rng(SEED).integers(0, 2**31, size=len(ops)).tolist()
    wrong = set()
    for op, field_seed in zip(ops, seeds):
        side, group, s0, profile, s, mode = op
        cat = catalogs[group]
        if side == "dual":
            verdict = ultra_membership_test(growth_sequence(cat, s0, 1.0, profile, field_seed),
                                            s, mode)
        else:
            test = fourier_side_test if side == "fourier" else space_side_test
            verdict = test(synthesize_gevrey(cat, s0, 1.0, profile, field_seed), s, mode)
        if verdict.passed != truth(side, s0, s, mode):
            wrong.add(key(*op))
    return wrong


def test_the_classify_factorial_gets_exactly_the_listed_verdicts_wrong(verdict_ledger_wrong):
    wrong = wrong_keys()
    listed = set(json.loads(LEDGER.read_text()))
    verdict_ledger_wrong.update(total=len(factorial()), wrong=sorted(wrong))
    assert not wrong - listed, "newly wrong: %s" % sorted(wrong - listed)
    assert not listed - wrong, "now right, remove from the ledger: %s" % sorted(listed - wrong)
