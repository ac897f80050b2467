"""The verdict ledger: which verdicts of two seeded batteries are wrong.

The first battery is the factorial of the benchmark's ``classify_pipeline``
workload: on each of the four classify catalogs, Gevrey fields of order s0
in {0.5, 1, 2, 3} (B = 1) are classified on both sides at s in the same set
and in both modes, and growth sequences of order s0 in {2, 3} get the dual
test at s in {1, 2, 3}.  That is 304 verdicts.

The second battery draws off that grid of orders: on each classify catalog,
fields of order s0 uniform in [0.5, 3.5] with B uniform in [0.5, 2], a random
profile and seed, one s from {0.5, 1, ..., 3.5}, and one class-preserving
perturbation of the HS norms (none, a factor e^U with U uniform in (-2, 2)
per class, or a prefactor <xi>^3).  Each field is classified on both sides
in both modes; where s >= 1 the growth sequence of the same draw gets the
dual test in both modes, unless its norms pass e^700, where growth_sequence
refuses.

Both batteries are judged by the benchmark's truth rule, and the fields go
to the classifiers without the JSONL round trip, which keeps every bit.  The
keys each gets wrong are checked against its list in ``verdict_ledger.json``:
a key that turns wrong fails the test, and so does a listed key that turns
right, until it is removed from the list, as a strict xfail does.  The lists
are data the ledger checks, not bounds.
"""

import json
import math
from pathlib import Path

import numpy as np

from gevreykit.duality import growth_sequence, ultra_membership_test
from gevreykit.gevrey import (_bracket_rates, fourier_side_test, profile_field,
                              space_side_test, synthesize_gevrey)
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
OFF_GRID_FIELDS = 100  # per catalog
OFF_GRID_SEED = 1
OFF_GRID_S = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
PERTURBATIONS = ("none", "eU", "xi3")
GROWTH_LOG_MAX = 700.0  # growth_sequence refuses norms past e^700


def _catalogs():
    return {name: enumerate_dual(GroupSpec(family, dim), cutoff)
            for name, family, dim, cutoff in CATALOGS}


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


def _classify(side, field, s, mode):
    if side == "dual":
        return ultra_membership_test(field, s, mode)
    return (fourier_side_test if side == "fourier" else space_side_test)(field, s, mode)


def wrong_keys():
    """{key: flags} of the factorial's verdicts that disagree with the truth
    rule, each field drawn with its own seed from one stream seeded with SEED."""
    catalogs = _catalogs()
    ops = factorial()
    seeds = np.random.default_rng(SEED).integers(0, 2**31, size=len(ops)).tolist()
    wrong = {}
    for op, field_seed in zip(ops, seeds):
        side, group, s0, profile, s, mode = op
        make = growth_sequence if side == "dual" else synthesize_gevrey
        verdict = _classify(side, make(catalogs[group], s0, 1.0, profile, field_seed), s, mode)
        if verdict.passed != truth(side, s0, s, mode):
            wrong[key(*op)] = verdict.flags
    return wrong, len(ops)


def off_grid_draws():
    """(group, index, s0, B, profile, seed, s, perturbation) of every field of
    the off-grid battery, drawn from one stream seeded with OFF_GRID_SEED."""
    rng = np.random.default_rng(OFF_GRID_SEED)
    return [(group, k, float(rng.uniform(0.5, 3.5)), float(rng.uniform(0.5, 2.0)),
             PROFILES[rng.integers(2)], int(rng.integers(0, 2**31)),
             OFF_GRID_S[rng.integers(len(OFF_GRID_S))], PERTURBATIONS[rng.integers(3)])
            for group, *_ in CATALOGS for k in range(OFF_GRID_FIELDS)]


def _log_perturbation(catalog, kind, seed):
    """The log of the class-preserving factor on each class's HS norm, by libm's log."""
    if kind == "eU":
        return np.random.default_rng([seed, 1]).uniform(-2.0, 2.0, len(catalog))
    if kind == "xi3":
        return 3.0 * np.array([math.log(b) for b in catalog.brackets.tolist()])
    return np.zeros(len(catalog))


def off_grid_wrong_keys():
    """{key: flags} of the off-grid battery's verdicts that disagree with the
    truth rule, and the number of verdicts."""
    catalogs = _catalogs()
    wrong, total = {}, 0
    for group, k, s0, B, profile, seed, s, kind in off_grid_draws():
        cat = catalogs[group]
        rates = np.array(_bracket_rates(cat, s0, B))
        tilt = _log_perturbation(cat, kind, seed)
        decay = profile_field(cat, (tilt - rates).tolist(), profile, seed)
        fields = {"fourier": decay, "space": decay}
        if s >= 1 and (rates + tilt).max() <= GROWTH_LOG_MAX:
            fields["dual"] = profile_field(cat, (rates + tilt).tolist(), profile, seed)
        for side, field in fields.items():
            for mode in ("R", "B"):
                total += 1
                verdict = _classify(side, field, s, mode)
                if verdict.passed != truth(side, s0, s, mode):
                    wrong["%s %s #%d s0=%.3f B=%.3f %s %s s=%g %s" % (
                        side, group, k, s0, B, profile, kind, s, mode)] = verdict.flags
    return wrong, total


def _check(battery, found, record):
    wrong, total = found
    listed = set(json.loads(LEDGER.read_text())[battery])
    record[battery] = {"total": total, "wrong": wrong}
    assert not wrong.keys() - listed, "newly wrong: %s" % sorted(wrong.keys() - listed)
    assert not listed - wrong.keys(), "now right, remove from the ledger: %s" % sorted(
        listed - wrong.keys())


def test_the_classify_factorial_gets_exactly_the_listed_verdicts_wrong(verdict_ledger_wrong):
    _check("classify", wrong_keys(), verdict_ledger_wrong)


def test_the_off_grid_battery_gets_exactly_the_listed_verdicts_wrong(verdict_ledger_wrong):
    _check("off_grid", off_grid_wrong_keys(), verdict_ledger_wrong)
