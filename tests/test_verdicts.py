"""Verdict construction shared by the Gevrey, dual and sphere classifiers:
pinned JSON, the pass/margin/witness rule, and the paper's inclusions."""

import functools
import hashlib
import math

import pytest

from gevreykit.duality import growth_sequence, ultra_membership_test
from gevreykit.errors import DomainError
from gevreykit.fourier import CoefficientField
from gevreykit.gevrey import fourier_side_test, space_side_test, synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.serialize import verdict_to_json
from gevreykit.sphere import (
    ClassIStructure,
    project_class_one,
    sphere_gevrey_test,
    sphere_ultra_test,
)

CATALOGS = {
    "T1": enumerate_dual(GroupSpec("torus", 1), 20.0),
    "T2": enumerate_dual(GroupSpec("torus", 2), 6.0),
    "SU2": enumerate_dual(GroupSpec("su2"), 7.0),
    "SO3": enumerate_dual(GroupSpec("so3"), 7.0),
}
MODES = ("R", "B")


@functools.lru_cache(maxsize=None)
def battery():
    """Verdicts by (catalog, test) over synthesized decay and growth fields."""
    out = {}
    for name, cat in CATALOGS.items():
        fourier, space, dual = [], [], []
        for s0 in (0.5, 1.0, 2.0, 3.0):
            for profile in ("diagonal", "random_phase"):
                f = synthesize_gevrey(cat, s0, 1.0, profile, seed=3)
                for s in (0.5, 1.0, 2.0, 3.0):
                    for mode in MODES:
                        fourier.append(fourier_side_test(f, s, mode))
                        space.append(space_side_test(f, s, mode=mode))
        for s0 in (1.0, 2.0, 3.0):
            g = growth_sequence(cat, s0, 1.0, "diagonal", seed=3)
            dual += [ultra_membership_test(g, s, mode) for s in (1.0, 2.0, 3.0) for mode in MODES]
        out[name, "fourier"], out[name, "space"], out[name, "dual"] = fourier, space, dual
    cat = CATALOGS["SO3"]
    structure = ClassIStructure(cat)
    fields = (
        (sphere_gevrey_test, project_class_one(synthesize_gevrey(cat, 2.0, 1.0), structure)),
        (sphere_ultra_test, project_class_one(growth_sequence(cat, 2.0, 1.0), structure)),
        (sphere_gevrey_test, synthesize_gevrey(cat, 2.0, 1.0, "dense")),  # leaks off class I
    )
    out["SO3", "sphere"] = [test(f, structure, s, mode) for test, f in fields
                            for s in (1.0, 2.0, 3.0) for mode in MODES]
    return out


# sha256 of the verdict JSON lines of each battery group.  The SO3 dual
# and sphere groups hold Beurling dual verdicts on a short spectrum, which
# pass vacuously with margin "inf", and Roumieu class-I leakage verdicts,
# which report "mode": "R".
PINS = {
    ("T1", "fourier"): "3ca536463cc77c916e79783ea1331c31774807546f25b8d91e25f26c78a217f3",
    ("T1", "space"): "eab083af113a11b9b896d415ac9ccfba0f4170b3f8a1d552e26b576d119beebd",
    ("T1", "dual"): "e2d3d08289086feef20369b5a0f0a8faa90958e616fea53eda26fbb97687586c",
    ("T2", "fourier"): "cbf7055c2d11628749a500fa8943f51ddceef7235bac8b01c6651925627e3146",
    ("T2", "space"): "f50f6fbbefa9367411d1ae8efcc181c887dbe0857ed891934fa68e076b7e5da4",
    ("T2", "dual"): "30d69ae65297f0b6f7971e67cb0e2967549047dca2792ad7baf4bf20dd759455",
    ("SU2", "fourier"): "6a1e6461285f4da7e8a9f45709f94ff1803a727c19453903db23dea5bf596530",
    ("SU2", "space"): "411e17088b3ec621ef881863126b008c0ced3617eb219811c0b8995e6acb0f2a",
    ("SU2", "dual"): "ab5bbedd06e7c28930e044957dd44dd21d7eefc81be24b02b17eb923aa41114e",
    ("SO3", "fourier"): "d752b1b2b36b1406692fcb7b29f2e9a1be1fda438f63c0bf3f977e5c26a0b7a2",
    ("SO3", "space"): "ed8c3d3a7309f552343c91844762779b68a022e2771e0c184f8568b0f0cf18ea",
    ("SO3", "dual"): "5363acc0962237dfb062ab45517706398e04ebf97d73329d7a7c4fe5978e9ee2",
    ("SO3", "sphere"): "ce67df7e1295352aef222b32b91ee464c955ba6055e1b17a42e41d18efcaf7a4",
}


@pytest.mark.parametrize("group", sorted(PINS), ids=" ".join)
def test_verdict_json_pinned(group):
    text = "\n".join(verdict_to_json(v) for v in battery()[group])
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[group]


def test_pass_is_exactly_a_nonnegative_margin():
    verdicts = [v for group in battery().values() for v in group]
    for cat in CATALOGS.values():
        constant = CoefficientField(cat)
        constant[cat.labels[0]] = [[1.0]]
        for f in (CoefficientField(cat), constant):
            verdicts += [test(f, 2.0, mode) for test in (fourier_side_test, ultra_membership_test)
                         for mode in MODES]
    assert len(verdicts) > 600
    for v in verdicts:
        assert v.passed == (v.margin >= 0.0), v
        assert not v.passed or v.witness_label is None, v
    assert any(v.passed for v in verdicts) and any(not v.passed for v in verdicts)


INCLUSION_CATALOGS = (
    (GroupSpec("torus", 1), 1000.5),
    (GroupSpec("torus", 2), 30.5),
    (GroupSpec("su2"), 16.1),
    (GroupSpec("so3"), 16.1),
)
ORDERS = (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
DUAL_ORDERS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
PROFILES = ("diagonal", "dense", "random_phase")


def _monotone(passes, upward):
    """Membership never lost toward larger orders (upward) or smaller ones."""
    steps = zip(passes, passes[1:]) if upward else zip(passes[1:], passes)
    return all(b or not a for a, b in steps)


@pytest.mark.parametrize("spec, cutoff", INCLUSION_CATALOGS, ids=lambda x: str(x))
def test_inclusions(spec, cutoff):
    cat = enumerate_dual(spec, cutoff)
    sides = (fourier_side_test, lambda f, s, mode: space_side_test(f, s, mode=mode))
    for s0 in (0.5, 1.0, 2.0, 3.0):
        for profile in PROFILES:
            f = synthesize_gevrey(cat, s0, 1.0, profile, seed=11)
            for test in sides:
                r, b = ([test(f, s, mode).passed for s in ORDERS] for mode in MODES)
                # Beurling implies Roumieu; gamma_s sits inside gamma_t for t > s
                assert all(rr or not bb for rr, bb in zip(r, b)), (s0, profile, r, b)
                assert _monotone(r, True) and _monotone(b, True), (s0, profile, r, b)
    for s0 in (2.0, 3.0):
        for profile in PROFILES:
            g = growth_sequence(cat, s0, 1.0, profile, seed=11)
            r, b = ([ultra_membership_test(g, s, mode).passed for s in DUAL_ORDERS]
                    for mode in MODES)
            # the duals reverse both inclusions
            assert all(bb or not rr for rr, bb in zip(r, b)), (s0, profile, r, b)
            assert _monotone(r, False) and _monotone(b, False), (s0, profile, r, b)


def test_orders_that_are_not_finite_are_refused():
    cat = CATALOGS["SO3"]
    f = synthesize_gevrey(cat, 2.0, 1.0)
    structure = ClassIStructure(cat)
    leaky = synthesize_gevrey(cat, 2.0, 1.0, "dense")
    calls = (
        lambda s: fourier_side_test(f, s, "R"),
        lambda s: space_side_test(f, s, mode="B"),
        lambda s: ultra_membership_test(f, s, "R"),
        lambda s: sphere_gevrey_test(leaky, structure, s, "R"),
        lambda s: sphere_ultra_test(leaky, structure, s, "B"),
        lambda s: synthesize_gevrey(cat, s, 1.0),
        lambda B: synthesize_gevrey(cat, 2.0, B),
        lambda s: growth_sequence(cat, s, 1.0),
        lambda B: growth_sequence(cat, 2.0, B),
    )
    for bad in (math.nan, math.inf, -math.inf):
        for call in calls:
            with pytest.raises(DomainError):
                call(bad)
    # <xi>^(2/s) overflows on the catalog
    for call in calls[:2]:
        with pytest.raises(DomainError, match="too small"):
            call(1e-320)


def test_underflowing_classes_are_omitted_and_overflowing_growth_refused():
    cat = enumerate_dual(GroupSpec("torus", 1), 50.0)
    # bracket^(1/s) overflows a double on every nontrivial class
    assert synthesize_gevrey(cat, 0.001, 1.0).labels() == [(0,)]
    with pytest.raises(DomainError, match="reduce the cutoff"):
        growth_sequence(cat, 0.001, 1.0)
