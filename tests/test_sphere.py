import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from gevreykit.duality import delta_sequence
from gevreykit.errors import ConfigurationError, ContractViolation, DomainError
from gevreykit.fourier import CoefficientField, forward_transform, inverse_on_grid
from gevreykit.gevrey import fourier_side_test, synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import build_grid
from gevreykit.sphere import (
    LEAKAGE_TOL,
    ClassIStructure,
    leakage,
    lift,
    project_class_one,
    sphere_gevrey_test,
    sphere_series,
    sphere_ultra_test,
)

SO3 = GroupSpec("so3")


def _setup(lmax):
    cat = enumerate_dual(SO3, math.sqrt(1.0 + lmax * (lmax + 1.0)))
    return cat, build_grid(SO3, lmax), ClassIStructure(cat)


def test_spherical_harmonic_round_trip():
    rng = np.random.default_rng(40)
    cat, grid, struct = _setup(8)
    bmesh, amesh = np.meshgrid(grid.beta, grid.alpha, indexing="ij")
    for l, m in ((0, 0), (1, -1), (2, 1), (4, 3), (6, -5)):
        ylm = sph_harm_y(l, m, bmesh, amesh)
        co = forward_transform(grid, lift(ylm, grid), cat)
        assert leakage(co, struct) < 1e-12
        proj = project_class_one(co, struct)
        pts = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
               for _ in range(5)]
        vals = sphere_series(proj, struct, pts)
        truth = np.array([sph_harm_y(l, m, b, a) for b, a in pts])
        assert np.abs(vals - truth).max() < 1e-10


def test_projection_idempotent_exactly():
    cat, _, struct = _setup(10)
    f = synthesize_gevrey(cat, 2.0, 1.0, "dense")
    p1 = project_class_one(f, struct)
    p2 = project_class_one(p1, struct)
    for rep in cat:
        assert np.array_equal(p1[rep.label], p2[rep.label])


def test_lift_is_constant_on_fibers():
    rng = np.random.default_rng(41)
    _, grid, _ = _setup(5)
    vals = rng.standard_normal((len(grid.beta), len(grid.alpha)))
    lifted = lift(vals, grid)
    assert lifted.shape == grid.shape
    assert np.ptp(lifted, axis=2).max() == 0.0
    assert lifted[3, 2, 0] == vals[2, 3]


def test_lift_shape_checked():
    _, grid, _ = _setup(5)
    with pytest.raises(ContractViolation):
        lift(np.zeros((2, 2)), grid)


def test_series_refuses_unprojected_input():
    rng = np.random.default_rng(42)
    cat, _, struct = _setup(6)
    f = CoefficientField(cat)
    for rep in cat:
        f[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 0j
    with pytest.raises(ContractViolation):
        sphere_series(f, struct, [(1.0, 1.0)])


def test_dimension_accounting():
    cat, _, struct = _setup(7)
    for rep in cat:
        l = rep.label[0]
        assert rep.dim == 2 * l + 1
        assert struct.invariant_index(rep.label) == l


def test_deliberate_leakage_names_witness():
    cat, _, struct = _setup(8)
    f = project_class_one(synthesize_gevrey(cat, 2.0, 1.0, "dense"), struct)
    bad = f[(3,)].copy()
    bad[0, 0] = 0.5
    f[(3,)] = bad
    v = sphere_gevrey_test(f, struct, 2.0, "R")
    assert not v.passed
    assert "class_one_leakage" in v.flags
    assert v.witness_label == (3,)


def test_verdict_matches_group_side():
    cat, _, struct = _setup(10)
    f = project_class_one(synthesize_gevrey(cat, 2.0, 1.0, "dense"), struct)
    for s in (1.0, 2.0):
        for mode in ("R", "B"):
            assert sphere_gevrey_test(f, struct, s, mode).passed == \
                fourier_side_test(f, s, mode).passed


def test_sphere_delta_is_ultradistribution():
    cat, _, struct = _setup(10)
    seq = project_class_one(delta_sequence(cat), struct)
    for s in (1.0, 2.0):
        assert sphere_ultra_test(seq, struct, s, "R").passed


def test_s_below_one_rejected():
    cat, _, struct = _setup(5)
    f = project_class_one(synthesize_gevrey(cat, 2.0, 1.0), struct)
    with pytest.raises(DomainError):
        sphere_gevrey_test(f, struct, 0.5, "R")


def test_structure_requires_so3():
    with pytest.raises(ConfigurationError):
        ClassIStructure(enumerate_dual(GroupSpec("su2"), 5.0))


def test_lifting_never_creates_leakage():
    # transform of any lifted function stays class-I up to quadrature noise
    rng = np.random.default_rng(43)
    cat, grid, struct = _setup(6)
    vals = rng.standard_normal((len(grid.beta), len(grid.alpha))) + 1j * (
        rng.standard_normal((len(grid.beta), len(grid.alpha)))
    )
    co = forward_transform(grid, lift(vals, grid), cat)
    assert leakage(co, struct) < 1e-10


def test_series_matches_group_inverse():
    cat, grid, struct = _setup(6)
    f = project_class_one(synthesize_gevrey(cat, 1.0, 0.5, "dense"), struct)
    vals = inverse_on_grid(f, grid)
    pts = [(grid.beta[2], grid.alpha[4]), (grid.beta[0], grid.alpha[1])]
    series = sphere_series(f, struct, pts)
    assert abs(series[0] - vals[4, 2, 0]) < 1e-10
    assert abs(series[1] - vals[1, 0, 0]) < 1e-10


def test_series_ignores_leakage_below_tolerance():
    rng = np.random.default_rng(44)
    cat, grid, struct = _setup(6)
    proj = project_class_one(synthesize_gevrey(cat, 1.0, 0.5, "dense"), struct)
    noisy = proj.copy()
    for rep in cat:
        block = noisy[rep.label].copy()
        l = struct.invariant_index(rep.label)
        off = np.arange(rep.dim) != l
        block[off, :] = 0.9 * LEAKAGE_TOL * np.exp(2j * np.pi * rng.random((rep.dim - 1, rep.dim)))
        noisy[rep.label] = block
    assert 0.0 < leakage(noisy, struct) <= LEAKAGE_TOL
    pts = [(grid.beta[2], grid.alpha[4]), (0.3, 5.9), (2.8, 1.1)]
    assert np.abs(sphere_series(noisy, struct, pts) - sphere_series(proj, struct, pts)).max() < 1e-14
