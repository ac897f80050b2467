import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreykit import fourier, groups
from gevreykit.duality import delta_sequence
from gevreykit.errors import ContractViolation, DomainError
from gevreykit.fourier import (
    CoefficientField,
    forward_transform,
    hausdorff_young_gap,
    hs_norm,
    inverse_on_grid,
    inverse_transform,
    lp_norm,
    matrix_norm_slacks,
    plancherel_inner,
    plancherel_norm,
)
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import (
    band_for_catalog,
    build_grid,
    identity_element,
    random_element,
    rep_matrix,
    sample_function,
    tree_sum,
    wigner_d_all,
)

FAMILIES = [
    (GroupSpec("torus", 1), 12.0),
    (GroupSpec("torus", 2), 6.0),
    (GroupSpec("su2"), 7.0),
    (GroupSpec("so3"), 7.0),
]


def _random_field(catalog, rng):
    out = CoefficientField(catalog)
    for rep in catalog:
        out[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 1j * (
            rng.standard_normal((rep.dim, rep.dim))
        )
    return out


@pytest.mark.parametrize("spec,cutoff", FAMILIES)
def test_round_trip_and_parseval(spec, cutoff):
    rng = np.random.default_rng(10)
    cat = enumerate_dual(spec, cutoff)
    grid = build_grid(spec, band_for_catalog(cat))
    coeffs = _random_field(cat, rng)
    samples = inverse_on_grid(coeffs, grid)
    back = forward_transform(grid, samples, cat)
    for rep in cat:
        assert np.abs(back[rep.label] - coeffs[rep.label]).max() < 1e-12
    # Parseval: the grid L2 norm matches the weighted coefficient norm
    from gevreykit.quadrature import haar_integrate

    l2 = math.sqrt(abs(haar_integrate(grid, np.abs(samples) ** 2)))
    assert l2 == pytest.approx(plancherel_norm(coeffs), rel=1e-12)


def test_constant_function_hits_only_trivial_class():
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 6.0)
    grid = build_grid(spec, band_for_catalog(cat))
    coeffs = forward_transform(grid, np.full(grid.shape, 3.5 + 0j), cat)
    assert coeffs[(0,)][0, 0] == pytest.approx(3.5)
    for rep in cat:
        if rep.label != (0,):
            assert np.abs(coeffs[rep.label]).max() < 1e-13


def test_torus_exponential_line():
    spec = GroupSpec("torus", 1)
    cat = enumerate_dual(spec, 8.0)
    grid = build_grid(spec, band_for_catalog(cat))
    samples = sample_function(grid, lambda x: np.exp(3j * x))
    coeffs = forward_transform(grid, samples, cat)
    assert coeffs[(3,)][0, 0] == pytest.approx(1.0, abs=1e-13)
    assert sum(np.abs(coeffs[r.label]).max() > 1e-12 for r in cat) == 1


def test_matrix_coefficient_transform():
    # f = xi_{ij} has a single nonzero coefficient, 1/d at entry (j, i)
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 6.0)
    grid = build_grid(spec, band_for_catalog(cat))
    rep = cat.lookup((2,))
    i, j = 0, 1
    samples = np.empty(grid.shape, dtype=complex)
    mesh = grid.mesh()
    for idx in np.ndindex(grid.shape):
        x = tuple(m[idx] for m in mesh)
        samples[idx] = rep_matrix(spec, rep, x)[i, j]
    coeffs = forward_transform(grid, samples, cat)
    block = coeffs[rep.label]
    assert block[j, i] == pytest.approx(1.0 / rep.dim, abs=1e-13)
    block2 = block.copy()
    block2[j, i] = 0.0
    assert np.abs(block2).max() < 1e-13
    for other in cat:
        if other.label != rep.label:
            assert np.abs(coeffs[other.label]).max() < 1e-13


def test_delta_inverse_at_identity():
    spec = GroupSpec("so3")
    cat = enumerate_dual(spec, 10.0)
    delta = delta_sequence(cat)
    val = inverse_transform(delta, [identity_element(spec)])[0]
    assert val.real == pytest.approx(float(sum(r.dim**2 for r in cat)), rel=1e-12)
    assert abs(val.imag) < 1e-9


def test_lp_norm_weights():
    rng = np.random.default_rng(11)
    cat = enumerate_dual(GroupSpec("su2"), 8.0)
    coeffs = _random_field(cat, rng)
    assert lp_norm(coeffs, 2) == pytest.approx(plancherel_norm(coeffs), rel=1e-12)
    # p = infinity takes the sup of d^(-1/2) ||block||_HS
    sup = max(r.dim ** -0.5 * hs_norm(coeffs[r.label]) for r in cat)
    assert lp_norm(coeffs, math.inf) == pytest.approx(sup, rel=1e-12)
    with pytest.raises(DomainError):
        lp_norm(coeffs, 0.5)


@pytest.mark.parametrize("spec,cutoff", FAMILIES)
def test_hausdorff_young_both_directions(spec, cutoff):
    rng = np.random.default_rng(12)
    cat = enumerate_dual(spec, cutoff)
    grid = build_grid(spec, band_for_catalog(cat))
    for _ in range(5):
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        coeffs = forward_transform(grid, samples, cat)
        (linf_dual, l1_group), (sup_group, l1_dual) = hausdorff_young_gap(
            grid, samples, coeffs
        )
        assert linf_dual <= l1_group + 1e-9
        assert sup_group <= l1_dual + 1e-9


def test_matrix_norm_slacks_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for p, q in ((1, 2), (1, math.inf), (2, math.inf)):
            s1, s2 = matrix_norm_slacks(a, p, q)
            assert s1 >= -1e-12
            assert s2 >= -1e-12


def test_matrix_norm_identity_saturates():
    # for the all-ones matrix ||a||_1 = d^2 = d ||a||_2 exactly
    d = 5
    s1, _ = matrix_norm_slacks(np.ones((d, d)), 1, 2)
    assert s1 == pytest.approx(0.0, abs=1e-12)


def test_hs_norm_survives_huge_entries():
    a = np.full((3, 3), 1e300)
    assert hs_norm(a) == pytest.approx(3e300, rel=1e-12)
    assert hs_norm(np.zeros((2, 2))) == 0.0


def test_cross_catalog_arithmetic_refused():
    rng = np.random.default_rng(14)
    a = _random_field(enumerate_dual(GroupSpec("su2"), 5.0), rng)
    b = _random_field(enumerate_dual(GroupSpec("su2"), 7.0), rng)
    with pytest.raises(ContractViolation):
        plancherel_inner(a, b)


def test_block_shape_checked():
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    f = CoefficientField(cat)
    with pytest.raises(ContractViolation):
        f[(2,)] = np.zeros((2, 2))


@pytest.mark.parametrize("spec,cutoff,band,absent", [
    (GroupSpec("su2"), 3.0, 7, (1, 3)),
    (GroupSpec("so3"), 4.0, 5, (0, 2)),
])
def test_grid_transforms_match_the_rep_matrix_series(spec, cutoff, band, absent):
    rng = np.random.default_rng(12)
    cat = enumerate_dual(spec, cutoff)
    assert band > band_for_catalog(cat)
    coeffs = _random_field(cat, rng)
    for i in absent:
        coeffs.present[i] = False
        coeffs.data[cat.offsets[i] : cat.offsets[i + 1]] = 0.0
    grid = build_grid(spec, band)
    samples = inverse_on_grid(coeffs, grid)
    nodes = [(0, 0, 0), (1, 2, 3), (len(grid.alpha) - 1, len(grid.beta) - 1, len(grid.gamma) - 1)]
    points = [(grid.alpha[a], grid.beta[b], grid.gamma[g]) for a, b, g in nodes]
    ref = inverse_transform(coeffs, points)
    got = np.array([samples[node] for node in nodes])
    assert np.abs(got - ref).max() < 1e-12
    back = forward_transform(grid, samples, cat)
    assert np.abs(back.data - coeffs.data).max() < 1e-12
    for i in absent:
        assert np.abs(back[cat.labels[i]]).max() < 1e-12


def _series_oracle(coeffs, points):
    """inverse_transform as a per-point, per-class rep_matrix loop."""
    spec = coeffs.catalog.spec
    values = np.zeros(len(points), dtype=complex)
    labels = coeffs.labels()
    for i, x in enumerate(points):
        terms = np.empty(len(labels), dtype=complex)
        for j, label in enumerate(labels):
            rep = coeffs.catalog.lookup(label)
            xi = rep_matrix(spec, rep, x)
            terms[j] = rep.dim * np.trace(xi @ coeffs[label])
        values[i] = tree_sum(terms) if len(terms) else 0.0
    return values


SERIES_CATALOGS = {
    "T1": enumerate_dual(GroupSpec("torus", 1), 9.0),
    "T2": enumerate_dual(GroupSpec("torus", 2), 4.5),
    "SU2": enumerate_dual(GroupSpec("su2"), 6.8),
    "SO3": enumerate_dual(GroupSpec("so3"), 9.0),
}


@st.composite
def series_inputs(draw):
    """A field with absent classes (or none present) and points with repeats
    and shared betas (or none)."""
    cat = SERIES_CATALOGS[draw(st.sampled_from(sorted(SERIES_CATALOGS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.lists(st.booleans(), min_size=len(cat), max_size=len(cat)))
    field = CoefficientField(cat)
    for rep, k in zip(cat, keep):
        if k:
            shape = (rep.dim, rep.dim)
            field[rep.label] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec = cat.spec
    points = [random_element(spec, rng) for _ in range(draw(st.integers(0, 5)))]
    if points and draw(st.booleans()):
        points += [points[0], points[-1]]
        if spec.family != "torus":
            points += [(rng.uniform(0, 6), points[0][1], rng.uniform(0, 6)),
                       (0.0, 0.0, 0.0), (1.0, -0.0, 2.0), (0.5, math.pi, 1.0)]
    return field, points


@settings(max_examples=60, deadline=None)
@given(series_inputs())
def test_inverse_transform_is_bit_identical_to_the_rep_matrix_loop(case):
    field, points = case
    got = inverse_transform(field, points)
    ref = _series_oracle(field, points)
    assert np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


def _count_d_stacks(monkeypatch):
    calls = []

    def counting(two_jmax, beta):
        calls.append((two_jmax, len(beta)))
        return wigner_d_all(two_jmax, beta)

    monkeypatch.setattr(fourier, "wigner_d_all", counting)
    return calls


def test_inverse_transform_builds_one_d_stack_per_call(monkeypatch):
    rng = np.random.default_rng(21)
    calls = _count_d_stacks(monkeypatch)
    # the pointwise_eval sizes: SO(3) l <= 8 at 4 points, SU(2) 2j <= 12 at 2
    for key, n in (("SO3", 4), ("SU2", 2)):
        cat = SERIES_CATALOGS[key]
        field = _random_field(cat, rng)
        points = [random_element(cat.spec, rng) for _ in range(n)]
        calls.clear()
        inverse_transform(field, points)
        assert calls == [(int(cat.dims[-1]) - 1, n)]


def test_inverse_transform_chunks_betas_to_fit_the_budget(monkeypatch):
    rng = np.random.default_rng(22)
    cat = SERIES_CATALOGS["SU2"]
    field = _random_field(cat, rng)
    points = [random_element(cat.spec, rng) for _ in range(7)]
    points += [(0.1, points[2][1], 0.2), points[5]]
    ref = _series_oracle(field, points)
    calls = _count_d_stacks(monkeypatch)
    # two betas' stacks up to 2j = 12 fit, three do not
    monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", 2 * 13 * 14 * 27 // 6)
    got = inverse_transform(field, points)
    assert got.tobytes() == ref.tobytes()
    assert calls == [(12, 2), (12, 2), (12, 2), (12, 1)]


@pytest.mark.parametrize("key,point,message", [
    ("SU2", (1.0, 2.0), "point 1 is not an Euler triple"),
    ("SO3", (1.0, 2.0, 3.0, 4.0), "point 1 is not an Euler triple"),
    ("SO3", "abc", "point 1 is not an Euler triple"),
    ("SU2", (0.0, math.nan, 1.0), "point 1 has a non-finite angle"),
    ("SO3", (math.inf, 1.0, 1.0), "point 1 has a non-finite angle"),
    ("T2", (0.5, -math.inf), "point 1 has a non-finite angle"),
    ("T1", (math.nan,), "point 1 has a non-finite angle"),
    ("T2", (0.5,), "torus element needs 2 angles"),
])
def test_inverse_transform_refuses_bad_points(monkeypatch, key, point, message):
    cat = SERIES_CATALOGS[key]
    calls = _count_d_stacks(monkeypatch)
    with pytest.raises(DomainError, match=message):
        inverse_transform(CoefficientField.identity(cat), [identity_element(cat.spec), point])
    assert calls == []
