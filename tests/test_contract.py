"""The scalar contract at the library boundary.

Every scalar parameter of every callable in gevreykit.__all__, and of the
public methods of the exported classes, is fed NaN, +-inf, 0 and -1, plus
1.5 and True where an integer is expected, every real one the finite
extremes +-400, 1000 and +-1e308, and every order s the small positive
1e-3, at which <xi>^(1/s) overflows on the torus catalog; every real one
is also swept with seeded log-uniform draws of both signs.  Each call
either raises a GevreyKitError or returns a finite result, and an
integer parameter refuses every value that is not an int; any other
exception, and any RuntimeWarning, fails the test.
"""

import cmath
import dataclasses
import inspect
import json
import math
import numbers
import zlib

import numpy as np
import pytest

import gevreykit
from gevreykit import (
    ClassIStructure,
    CoefficientField,
    GevreyVerdict,
    GroupSpec,
    alpha_dual_series_probe,
    build_grid,
    continuity_modulus,
    cross_check,
    delta_sequence,
    enumerate_dual,
    fourier_side_test,
    growth_sequence,
    laplacian_power_apply,
    lp_norm,
    p_alpha_symbol,
    perfectness_roundtrip,
    plancherel_norm,
    project_class_one,
    series_convergence_probe,
    sobolev_norm,
    space_side_test,
    sphere_gevrey_test,
    sphere_ultra_test,
    synthesize_gevrey,
    ultra_membership_test,
    vector_field_symbol,
)
from gevreykit.errors import GevreyKitError
from gevreykit.fourier import matrix_lp_norm, matrix_norm_slacks
from gevreykit.serialize import verdict_record

CAT = enumerate_dual(GroupSpec("torus", 1), 200.0)
PHI = synthesize_gevrey(CAT, 1.0, 1.0)
DELTA = delta_sequence(CAT)
SO3_CAT = enumerate_dual(GroupSpec("so3"), 5.0)
STRUCTURE = ClassIStructure(SO3_CAT)
CLASS_ONE = project_class_one(synthesize_gevrey(SO3_CAT, 2.0, 1.0), STRUCTURE)

REAL = (math.nan, math.inf, -math.inf, 0.0, -1.0)
INTEGER = (math.nan, math.inf, -math.inf, 0, -1, 1.5, True)

# "callable-parameter": (values fed, a valid value, the call with the value in place)
SCALARS = {
    "CoefficientField.scaled-c": (REAL, 2.0, lambda v: PHI.scaled(v)),
    "CoefficientField.add-a": (REAL, 2.0, lambda v: PHI.add(DELTA, v, 1.0)),
    "CoefficientField.add-b": (REAL, 2.0, lambda v: PHI.add(DELTA, 1.0, v)),
    "GroupSpec-torus_dim": (INTEGER, 2, lambda v: GroupSpec("torus", v)),
    "alpha_dual_series_probe-s": (REAL, 2.0, lambda v: alpha_dual_series_probe(DELTA, v, 1.0)),
    "alpha_dual_series_probe-B": (REAL, 1.0, lambda v: alpha_dual_series_probe(DELTA, 2.0, v)),
    "build_grid-band": (INTEGER, 2, lambda v: build_grid(GroupSpec("su2"), v)),
    "continuity_modulus-s": (REAL, 1.0, lambda v: continuity_modulus(DELTA, v, (0.5,), [PHI])),
    "continuity_modulus-epsilon_grid": (
        REAL, 0.25, lambda v: continuity_modulus(DELTA, 1.0, (0.5, v), [PHI])),
    "cross_check-s": (REAL, 2.0, lambda v: cross_check(PHI, v, "R")),
    "enumerate_dual-cutoff": (REAL, 3.0, lambda v: enumerate_dual(GroupSpec("su2"), v)),
    "fourier_side_test-s": (REAL, 2.0, lambda v: fourier_side_test(PHI, v, "R")),
    "growth_sequence-s": (REAL, 2.0, lambda v: growth_sequence(CAT, v, 0.5)),
    "growth_sequence-B": (REAL, 0.5, lambda v: growth_sequence(CAT, 2.0, v)),
    "growth_sequence-seed": (
        INTEGER, 3, lambda v: growth_sequence(CAT, 2.0, 0.5, "random_phase", seed=v)),
    "laplacian_power_apply-k": (INTEGER, 2, lambda v: laplacian_power_apply(PHI, v)),
    "lp_norm-p": (REAL, 2.0, lambda v: lp_norm(PHI, v)),
    "p_alpha_symbol-k": (INTEGER, 1, lambda v: p_alpha_symbol((1,), v, CAT)),
    "perfectness_roundtrip-s": (REAL, 2.0, lambda v: perfectness_roundtrip(PHI, v)),
    "series_convergence_probe-t": (REAL, 2.0, lambda v: series_convergence_probe(CAT, v)),
    "sobolev_norm-t": (REAL, 1.0, lambda v: sobolev_norm(PHI, v)),
    "space_side_test-s": (REAL, 2.0, lambda v: space_side_test(PHI, v, "R")),
    "sphere_gevrey_test-s": (
        REAL, 2.0, lambda v: sphere_gevrey_test(CLASS_ONE, STRUCTURE, v, "R")),
    "sphere_ultra_test-s": (REAL, 2.0, lambda v: sphere_ultra_test(CLASS_ONE, STRUCTURE, v, "B")),
    "synthesize_gevrey-s": (REAL, 2.0, lambda v: synthesize_gevrey(CAT, v, 1.0)),
    "synthesize_gevrey-B": (REAL, 1.0, lambda v: synthesize_gevrey(CAT, 2.0, v)),
    "synthesize_gevrey-seed": (
        INTEGER, 3, lambda v: synthesize_gevrey(CAT, 2.0, 1.0, "random_phase", seed=v)),
    "ultra_membership_test-s": (REAL, 2.0, lambda v: ultra_membership_test(DELTA, v, "R")),
    "vector_field_symbol-j": (INTEGER, 3, lambda v: vector_field_symbol(SO3_CAT, v)),
    # not exported: the matrix norms behind `probe --lemma norms`
    "matrix_lp_norm-p": (REAL, 2.0, lambda v: matrix_lp_norm(np.eye(3), v)),
    "matrix_norm_slacks-p": (REAL, 1.0, lambda v: matrix_norm_slacks(np.eye(3), v, 2)),
}

# Finite arguments past the double range: the exact result of each call
# overflows a double, or underflows to 0 where it is not 0 (the weighted
# l^p norm of a nonzero field is at least its l^inf norm for every p)
SU2_CAT = enumerate_dual(GroupSpec("su2"), 10.0)
SU2_F = synthesize_gevrey(SU2_CAT, 2.0, 1.0)
EXTREMES = {
    "laplacian_power_apply-k": ((400, 10**6), lambda v: laplacian_power_apply(SU2_F, v)),
    "sobolev_norm-t": ((400.0, -400.0, 1e308, -1e308), lambda v: sobolev_norm(SU2_F, v)),
    "series_convergence_probe-t": (
        (400.0, -400.0, 1e308, -1e308), lambda v: series_convergence_probe(SU2_CAT, v)),
    "lp_norm-p": ((1000, 1e308), lambda v: lp_norm(SU2_F, v)),
    "plancherel_norm-coeffs.scaled": (
        (1e-160, 1e300), lambda v: plancherel_norm(SU2_F.scaled(v))),
    "lp_norm-coeffs.scaled": ((1e-160, 1e300), lambda v: lp_norm(SU2_F.scaled(v), 2)),
    "alpha_dual_series_probe-B": ((1e5,), lambda v: alpha_dual_series_probe(DELTA, 2.0, v)),
}

# Rows whose exact value is a finite double: a refusal fails them too
REQUIRED = {
    "plancherel_norm-coeffs.scaled": lambda v: v * plancherel_norm(SU2_F),
    "lp_norm-coeffs.scaled": lambda v: v * lp_norm(SU2_F, 2),
}

# Parameters that take no scalar, by name, and what they take instead
NON_SCALAR = {
    "catalog": "a DualCatalog",
    "spec": "a GroupSpec",
    "grid": "a GroupGrid",
    "structure": "a ClassIStructure",
    "coeffs": "a coefficient field",
    "seq": "a coefficient field read as a sequence",
    "sym": "a Symbol",
    "f": "a coefficient field",
    "g": "a coefficient field",
    "other": "a coefficient field",
    "battery": "a list of coefficient fields",
    "blocks": "a mapping from labels to matrices",
    "data": "a packed array",
    "present": "a mask array",
    "factor": "an array, one entry per class",
    "samples": "an array of grid samples",
    "sphere_samples": "an array of sphere samples",
    "synth": "an array of grid samples",
    "points": "a sequence of group elements, checked point by point",
    "word": "a sequence of basis letters, each checked as a basis index",
    "alpha": "a multi-index, checked entry by entry",
    "label": "a catalog label, checked against the catalog",
    "family": "a name, checked against groups.FAMILIES",
    "mode": "a name, Roumieu or Beurling",
    "profile": "a name, checked against gevrey.PROFILES",
    "fn": "a function of the grid coordinates",
    "quick": "a switch, read for its truth",
}

# Exported names whose parameters are not arguments of a computation
EXEMPT = {
    "DecayModel": "a record fit_decay and the classifiers fill with results",
    "GevreyVerdict": "a record the classifiers fill with results",
    "RepInfo": "a record DualCatalog builds from its own arrays",
    "GroupGrid": "a record build_grid fills from a checked band",
    "DualCatalog": "a record enumerate_dual fills from a checked cutoff",
}


def _finite(x):
    """True when every number reachable from x is finite."""
    if isinstance(x, CoefficientField):
        return _finite(x.data)
    if isinstance(x, np.ndarray):
        return x.dtype.kind not in "fc" or bool(np.isfinite(x).all())
    if isinstance(x, numbers.Number):
        return cmath.isfinite(x)
    if isinstance(x, dict):
        return all(map(_finite, x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(_finite, x))
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    # None holds no number: a passing verdict's witness_label
    return x is None or isinstance(x, str)


SMALL_ORDER = 1e-3
CASES = ([(key, bad) for key, (values, _, _) in SCALARS.items() for bad in values]
         + [(key, SMALL_ORDER) for key in SCALARS if key.endswith("-s")])


@pytest.mark.parametrize("key,bad", CASES, ids=["%s-%r" % case for case in CASES])
def test_scalar_is_refused_or_gives_a_finite_result(key, bad):
    values, _, call = SCALARS[key]
    if values is INTEGER and type(bad) is not int:
        with pytest.raises(GevreyKitError):
            call(bad)
        return
    try:
        result = call(bad)
    except GevreyKitError:
        return
    assert _finite(result), (key, bad)


EXTREME_CASES = [(key, value) for key, (values, _) in EXTREMES.items() for value in values]


@pytest.mark.parametrize("key,value", EXTREME_CASES, ids=["%s-%r" % case for case in EXTREME_CASES])
def test_finite_extremes_are_refused_or_give_a_finite_result(key, value):
    if key in REQUIRED:
        assert EXTREMES[key][1](value) == pytest.approx(REQUIRED[key](value), rel=1e-12, abs=0.0)
        return
    try:
        result = EXTREMES[key][1](value)
    except GevreyKitError:
        return
    assert _finite(result), (key, value)
    if key == "lp_norm-p":
        assert result >= lp_norm(SU2_F, math.inf) * (1.0 - 1e-12)
    if key == "alpha_dual_series_probe-B":
        # every exact term is positive, so partial sums that are all 0 have underflowed
        assert result[-1] > 0.0


REAL_EXTREMES = (400.0, -400.0, 1000.0, 1e308, -1e308)
REAL_EXTREME_CASES = [(key, value) for key, (values, _, _) in SCALARS.items() if values is REAL
                      for value in REAL_EXTREMES]


def _refused_or_valid(call, value):
    """A verdict may hold a designed margin of +-inf, which verdict_record
    writes as a string; its JSON holds no NaN or infinity.  Any other
    result is finite.  Returns the result, or None on a refusal."""
    try:
        result = call(value)
    except GevreyKitError:
        return None
    parts = result.values() if isinstance(result, dict) else [result]
    verdicts = [part for part in parts if isinstance(part, GevreyVerdict)]
    for verdict in verdicts:
        json.dumps(verdict_record(verdict), allow_nan=False)
    assert verdicts or _finite(result), value
    return result


@pytest.mark.parametrize("key,value", REAL_EXTREME_CASES,
                         ids=["%s-%r" % case for case in REAL_EXTREME_CASES])
def test_real_rows_refuse_the_finite_extremes_or_give_a_result(key, value):
    _refused_or_valid(SCALARS[key][2], value)


# Seeded log-uniform draws of both signs over an ordinary range and over the
# whole double range, per REAL row, in place of points picked by hand
SWEEP_RANGES = ((1e-2, 1e3), (1e-12, 1e308))
SWEEP_DRAWS = 30  # per range
# The matrix rows are swept on scaled matrices too: at a large p the powers of
# 0.5 I underflow and those of 10 ones overflow, and the norm of 1e308 ones leaves the
# double range below p = 2.4.  Each call gives ||a||_p - ||a||_inf, which is not
# negative at any finite p (for the slacks it is the second one at q = inf)
MATRICES = (np.eye(3), 0.5 * np.eye(3), np.full((2, 2), 10.0), 1e308 * np.ones((2, 2)))
MATRIX_SWEEP = {
    "matrix_lp_norm-p": lambda a, v: matrix_lp_norm(a, v) - matrix_lp_norm(a, math.inf),
    "matrix_norm_slacks-p": lambda a, v: matrix_norm_slacks(a, v, math.inf)[1],
}


def _sweep(seed):
    rng = np.random.default_rng(seed)
    return [float(sign * math.exp(rng.uniform(math.log(lo), math.log(hi))))
            for lo, hi in SWEEP_RANGES
            for sign in rng.choice((-1.0, 1.0), SWEEP_DRAWS)]


REAL_ROWS = [key for key, (values, _, _) in SCALARS.items() if values is REAL]


@pytest.mark.parametrize("key", REAL_ROWS)
def test_real_rows_refuse_a_seeded_sweep_or_give_a_result(key):
    values = _sweep(zlib.crc32(key.encode()))
    if key in MATRIX_SWEEP:
        for a in MATRICES:
            for v in (1.0, 2.0, *values):  # the sweep with the two norms most used
                excess = _refused_or_valid(lambda p: MATRIX_SWEEP[key](a, p), v)
                assert excess is None or excess >= -1e-12 * np.abs(a).max(), (a, v)
        return
    for v in values:
        result = _refused_or_valid(SCALARS[key][2], v)
        if key == "lp_norm-p" and result is not None:
            assert result >= lp_norm(PHI, math.inf) * (1.0 - 1e-12), v


@pytest.mark.parametrize("key", SCALARS)
def test_every_contract_row_runs_on_its_valid_value(key):
    _, valid, call = SCALARS[key]
    call(valid)


def _signatures():
    """(qualified name, signature) of every exported callable and of the
    public methods of the exported classes."""
    for name in gevreykit.__all__:
        obj = getattr(gevreykit, name)
        if name in EXEMPT or (inspect.isclass(obj) and issubclass(obj, GevreyKitError)):
            continue
        yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_") and not inspect.isclass(member):
                    yield member.__qualname__, inspect.signature(member)


def test_contract_table_covers_every_exported_scalar():
    missing = sorted({"%s-%s" % (qualname, param)
                      for qualname, sig in _signatures()
                      for param in sig.parameters
                      if param not in ("self", "cls") and param not in NON_SCALAR
                      and "%s-%s" % (qualname, param) not in SCALARS})
    assert missing == []
