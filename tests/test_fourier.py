import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreykit import fourier, groups, quadrature, verification
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
from gevreykit.gevrey import synthesize_gevrey
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
from gevreykit.sphere import ClassIStructure, project_class_one

from euler_algebra import haar_integrate

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


@pytest.mark.parametrize("p", [740, 745])
def test_lp_norm_at_large_p_matches_an_fsum_oracle(p):
    # each term's p-th power is subnormal or 0; the oracle scales by the largest term
    f = synthesize_gevrey(enumerate_dual(GroupSpec("su2"), 10.0), 2.0, 1.0)
    terms = [r.dim ** (2.0 / p - 0.5) * hs_norm(f[r.label]) for r in f.catalog]
    top = max(terms)
    want = top * math.fsum((t / top) ** p for t in terms) ** (1.0 / p)
    assert lp_norm(f, p) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec,cutoff", FAMILIES)
def test_hausdorff_young_both_directions(spec, cutoff):
    rng = np.random.default_rng(12)
    cat = enumerate_dual(spec, cutoff)
    grid = build_grid(spec, band_for_catalog(cat))
    for _ in range(5):
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        coeffs = forward_transform(grid, samples, cat)
        (linf_dual, l1_group), (sup_group, l1_dual) = hausdorff_young_gap(
            grid, samples, coeffs, inverse_on_grid(coeffs, grid)
        )
        assert linf_dual <= l1_group + 1e-9
        assert sup_group <= l1_dual + 1e-9


def test_hausdorff_young_check_synthesizes_each_trial_once(monkeypatch):
    calls = []

    def counting(coeffs, grid):
        calls.append(grid.spec)
        # zeros stand in for the synthesis: the test counts calls, not slacks
        return np.zeros(grid.shape, dtype=complex)

    monkeypatch.setattr(fourier, "inverse_on_grid", counting)
    verification.check_hausdorff_young()
    assert calls == [spec for _, spec, _ in verification._families() for _ in range(50)]


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


def test_block_norms_past_the_double_range_are_refused_and_subnormal_ones_kept():
    with pytest.raises(DomainError, match="the HS norm of this matrix"):
        hs_norm(np.full((2, 2), 1e308))
    # a 1 x 1 block whose |entry| is 2.1e308, and a 2 x 2 one whose HS norm is 2e308
    for cat, label, block in (
            (enumerate_dual(GroupSpec("torus", 1), 3.0), (2,), [[1.5e308 + 1.5e308j]]),
            (enumerate_dual(GroupSpec("su2"), 4.0), (1,), np.full((2, 2), 1e308))):
        f = CoefficientField(cat)
        f[(0,)] = [[1.0]]
        f[label] = block
        with pytest.raises(DomainError, match=r"class \(%d,\)'s HS norm" % label[0]):
            f.hs_norms()
        f[label] = 0.5 * np.asarray(block)  # norms of 1.06e308 and 1e308: in range again
        assert np.isfinite(f.hs_norms()).all()
    # subnormal entries, whose reciprocals overflow, have their norms in range too
    f = CoefficientField(enumerate_dual(GroupSpec("su2"), 4.0))
    f[(0,)] = [[3e-320 + 4e-320j]]
    f[(1,)] = np.full((2, 2), 1e-320 + 0j)
    hs = f.hs_norms()
    assert hs[:2].tolist() == [hs_norm(f[(0,)]), hs_norm(f[(1,)])]
    assert hs[:2] == pytest.approx([5e-320, 2e-320], rel=1e-3, abs=0.0)


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
    "T3": enumerate_dual(GroupSpec("torus", 3), 2.5),
    "SU2": enumerate_dual(GroupSpec("su2"), 6.8),
    "SO3": enumerate_dual(GroupSpec("so3"), 9.0),
}


SUPPORTS = ("dense", "diagonal", "one entry", "class I")


@st.composite
def series_inputs(draw):
    """A field with absent classes (or none present) and points with repeats
    and shared betas (or none).  The field's support is dense, diagonal, one
    entry or (on SO(3)) the class-I rows, and present classes may hold a
    block of zeros."""
    cat = SERIES_CATALOGS[draw(st.sampled_from(sorted(SERIES_CATALOGS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.lists(st.booleans(), min_size=len(cat), max_size=len(cat)))
    field = CoefficientField(cat)
    for rep, k in zip(cat, keep):
        if k:
            shape = (rep.dim, rep.dim)
            field[rep.label] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    support = draw(st.sampled_from(SUPPORTS if cat.spec.family == "so3" else SUPPORTS[:3]))
    row, col, _ = cat.entry_index
    if support == "diagonal":
        field.data[row != col] = 0
    elif support == "one entry":
        at = np.flatnonzero(field.data)
        kept = at[draw(st.integers(0, len(at) - 1))] if len(at) else -1
        field.data[np.arange(len(field.data)) != kept] = 0
    elif support == "class I":
        field = project_class_one(field, ClassIStructure(cat))
    zeroed = draw(st.lists(st.booleans(), min_size=len(cat), max_size=len(cat)))
    field.data[np.repeat(zeroed, np.diff(cat.offsets))] = 0
    spec = cat.spec
    points = [random_element(spec, rng) for _ in range(draw(st.integers(0, 5)))]
    if points and draw(st.booleans()):
        points += [points[0], points[-1]]
        if spec.family != "torus":
            points += [(rng.uniform(0, 6), points[0][1], rng.uniform(0, 6)),
                       (0.0, 0.0, 0.0), (1.0, -0.0, 2.0), (0.5, math.pi, 1.0)]
    return field, points


@settings(max_examples=150, deadline=None)
@given(series_inputs())
def test_inverse_transform_is_bit_identical_to_the_rep_matrix_loop(case):
    field, points = case
    got = inverse_transform(field, points)
    ref = _series_oracle(field, points)
    assert np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


def _count_d_stacks(monkeypatch):
    """Record (2j max, beta count, parities, chain set) of every d stack inverse_transform asks for."""
    calls = []

    def counting(two_jmax, beta, parities, chains=None):
        calls.append((two_jmax, len(beta), parities, chains))
        return wigner_d_all(two_jmax, beta, parities, chains)

    monkeypatch.setattr(fourier, "wigner_d_all", counting)
    return calls


def _every_chain(two_jmax, parities):
    """Every (2m, 2n) chain of a stack up to 2j = two_jmax of the given parities."""
    return {(tm, tn) for p in parities for tm in range(-two_jmax, two_jmax + 1)
            for tn in range(-two_jmax, two_jmax + 1) if tm % 2 == tn % 2 == p}


def test_inverse_transform_builds_one_d_stack_per_call(monkeypatch):
    rng = np.random.default_rng(21)
    calls = _count_d_stacks(monkeypatch)
    # the pointwise_eval sizes: SO(3) l <= 8 at 4 points, SU(2) 2j <= 12 at 2
    for key, n, parities in (("SO3", 4, (0,)), ("SU2", 2, (0, 1))):
        cat = SERIES_CATALOGS[key]
        field = _random_field(cat, rng)
        points = [random_element(cat.spec, rng) for _ in range(n)]
        calls.clear()
        inverse_transform(field, points)
        top = int(cat.dims[-1]) - 1
        assert calls == [(top, n, parities, _every_chain(top, parities))]


def test_inverse_transform_builds_only_the_chains_its_coefficients_meet(monkeypatch):
    rng = np.random.default_rng(26)
    cat = SERIES_CATALOGS["SO3"]
    points = [random_element(cat.spec, rng) for _ in range(4)]
    calls = _count_d_stacks(monkeypatch)
    # a class-I field holds only the m = 0 row of each block, so Tr(xi f_hat) reads
    # the column d^l_{m0} of xi: 17 chains of the 289 at l <= 8
    inverse_transform(project_class_one(_random_field(cat, rng), ClassIStructure(cat)), points)
    assert [c[3] for c in calls] == [{(two_m, 0) for two_m in range(-16, 17, 2)}]
    calls.clear()
    inverse_transform(_random_field(cat, rng), points)
    assert len(calls[0][3]) == 289
    # entry (m, n) = (1, -2) of the spin-3 block meets the chain (m, n) = (-2, 1) alone
    field = CoefficientField(cat)
    block = np.zeros((7, 7), dtype=complex)
    block[2, 5] = 0.5
    field[(3,)] = block
    calls.clear()
    assert inverse_transform(field, points).tobytes() == _series_oracle(field, points).tobytes()
    assert calls == [(6, 4, (0,), {(-4, 2)})]


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
    chains = _every_chain(12, (0, 1))
    assert calls == [(12, 2, (0, 1), chains)] * 3 + [(12, 1, (0, 1), chains)]


def test_d_stacks_ask_for_the_parities_of_the_dual(monkeypatch):
    # SO(3) classes have integer spin, so only even 2j is built for them
    calls = []

    def recording(two_jmax, beta, *parities):
        calls.append((two_jmax, parities[0] if parities else (0, 1)))
        return wigner_d_all(two_jmax, beta, *parities)

    monkeypatch.setattr(quadrature, "wigner_d_all", recording)
    monkeypatch.setattr(fourier, "wigner_d_all", recording)
    rng = np.random.default_rng(25)
    for key, parities in (("SO3", (0,)), ("SU2", (0, 1))):
        cat = SERIES_CATALOGS[key]
        field = _random_field(cat, rng)
        top = int(cat.dims[-1]) - 1
        calls.clear()
        inverse_transform(field, [random_element(cat.spec, rng) for _ in range(3)])
        grid = build_grid(cat.spec, band_for_catalog(cat) + 1)
        forward_transform(grid, inverse_on_grid(field, grid), cat)
        two_band = 2 * grid.band if key == "SO3" else grid.band
        assert calls == [(top, parities), (two_band, parities)]
    calls.clear()
    su2 = SERIES_CATALOGS["SU2"]
    for rep in list(su2)[:6]:
        rep_matrix(su2.spec, rep, (0.1, 0.4, 0.2))
    assert calls == [(two_j, (two_j % 2,)) for two_j in range(6)]


@pytest.mark.parametrize("key", ["SU2", "SO3"])
def test_each_grid_builds_its_euler_tables_once_and_frees_them_with_itself(monkeypatch, key):
    calls = []

    def recording(two_jmax, beta, *parities):
        calls.append((two_jmax, len(beta), parities[0] if parities else (0, 1)))
        return wigner_d_all(two_jmax, beta, *parities)

    monkeypatch.setattr(quadrature, "wigner_d_all", recording)
    cat = SERIES_CATALOGS[key]
    grid = build_grid(cat.spec, band_for_catalog(cat))
    top, parities = (2 * grid.band, (0,)) if key == "SO3" else (grid.band, (0, 1))
    field = _random_field(cat, np.random.default_rng(27))
    for _ in range(3):
        forward_transform(grid, inverse_on_grid(field, grid), cat)
    assert calls == [(top, grid.band + 1, parities)]
    # a second grid of the same band builds its own tables
    twin = build_grid(cat.spec, grid.band)
    inverse_on_grid(field, twin)
    assert calls == [(top, grid.band + 1, parities)] * 2
    tables = grid.euler_tables
    assert grid.euler_tables is tables and twin.euler_tables is not tables
    ea, eg, dstack = tables
    assert sorted(dstack) == [t for t in range(top + 1) if t % 2 in parities]
    assert not any(a.flags.writeable for a in (ea, eg, *dstack.values()))
    # the tables go with their grid
    kept = weakref.ref(dstack[top])
    del grid, tables, ea, eg, dstack
    gc.collect()
    assert kept() is None


def _euler_entries_full_stack(catalog, grid):
    two_band = 2 * grid.band if grid.spec.family == "so3" else grid.band
    twice = np.arange(-two_band, two_band + 1)
    ea = np.exp(0.5j * np.outer(twice, grid.alpha))
    eg = np.exp(0.5j * np.outer(twice, grid.gamma))
    dstack = wigner_d_all(two_band, grid.beta)
    d = np.concatenate([dstack[t].reshape(len(grid.beta), -1)
                        for t in (catalog.dims - 1).tolist()], axis=1)
    _, two_m, two_n = catalog.entry_weights
    return ea, eg, d, two_band + two_m, two_band + two_n


def _forward_oracle(grid, samples, catalog):
    """forward_transform's packed data, on the full d stack of both parities."""
    if catalog.spec.family == "torus":
        spectrum = np.fft.fftn(samples) / samples.size
        return spectrum[tuple((np.array(catalog.labels) % len(grid.alpha)).T)]
    ea, eg, d, mi, ni = _euler_entries_full_stack(catalog, grid)
    t1 = np.einsum("ma,abg->mbg", ea, samples) / len(grid.alpha)
    t2 = np.einsum("ng,mbg->mbn", eg, t1) / len(grid.gamma)
    coef = np.einsum("be,eb->e", 0.5 * grid.beta_weights[:, None] * d, t2[mi, :, ni])
    return coef[catalog.transposed]


def _inverse_oracle(coeffs, grid):
    """inverse_on_grid on the full d stack of both parities."""
    cat = coeffs.catalog
    if cat.spec.family == "torus":
        spectrum = np.zeros(grid.shape, dtype=complex)
        spectrum[tuple((np.array(cat.labels) % len(grid.alpha)).T)] = coeffs.data
        return np.fft.ifftn(spectrum) * spectrum.size
    ea, eg, d, mi, ni = _euler_entries_full_stack(cat, grid)
    acc = np.zeros((len(ea), len(grid.beta), len(eg)), dtype=complex)
    np.add.at(acc, (mi, slice(None), ni),
              (cat.entry_index[2] * (d * coeffs.data[cat.transposed])).T)
    return np.einsum("ma,mbn,ng->abg", np.conj(ea), acc, np.conj(eg))


@pytest.mark.parametrize("key", ["T1", "T2", "SU2", "SO3"])
@pytest.mark.parametrize("extra_band", [0, 2])
def test_grid_transforms_match_the_full_stack_kernels_bit_for_bit(key, extra_band):
    cat = SERIES_CATALOGS[key]
    grid = build_grid(cat.spec, band_for_catalog(cat) + extra_band)
    rng = np.random.default_rng(26 + extra_band)
    for keep in (0.0, 0.6, 1.0):  # no class present, some absent, all present
        field = CoefficientField(cat)
        for rep in cat:
            if rng.random() < keep:
                field[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 1j * (
                    rng.standard_normal((rep.dim, rep.dim)))
        samples = inverse_on_grid(field, grid)
        assert samples.tobytes() == _inverse_oracle(field, grid).tobytes()
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for data in (samples, noise):
            back = forward_transform(grid, data, cat)
            assert back.present.all()
            assert back.data.tobytes() == _forward_oracle(grid, data, cat).tobytes()


@pytest.mark.parametrize("key,entries,budget", [
    ("T2", 3 * 61, None), ("T3", 57, None), ("SO3", 6 * 17 * 17, 17 * 18 * 35 // 6)])
def test_inverse_transform_slices_points_to_fit_the_slice_size(monkeypatch, key, entries, budget):
    rng = np.random.default_rng(24)
    cat = SERIES_CATALOGS[key]
    field = _random_field(cat, rng)
    points = [random_element(cat.spec, rng) for _ in range(7)]
    if cat.spec.family != "torus":
        points += [(a, points[2][1], g) for a, g in rng.uniform(0, 6, (8, 2))] + [points[5]]
    ref = _series_oracle(field, points)
    # slices of 3 torus points (1 on T3); on SO(3) one beta's stack up to
    # l = 8 and slices of 6 points, so the shared beta's 9 points take two
    monkeypatch.setattr(fourier, "SERIES_SLICE_ENTRIES", entries)
    if budget:
        monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", budget)
    slices, held = fourier._slices, []

    def recording(idx, width, cap=None):
        pieces = slices(idx, width, cap)
        held.extend(len(p) * width for p in pieces if cap is None)
        return pieces

    monkeypatch.setattr(fourier, "_slices", recording)
    assert inverse_transform(field, points).tobytes() == ref.tobytes()
    assert len(held) >= 3 and max(held) <= entries


@pytest.mark.parametrize("key", ["T1", "T2", "SU2", "SO3"])
def test_inverse_transform_calls_no_rep_matrix(monkeypatch, key):
    def refuse(*args):
        raise AssertionError("rep_matrix called")

    monkeypatch.setattr(quadrature, "rep_matrix", refuse)
    monkeypatch.setattr(fourier, "rep_matrix", refuse, raising=False)
    cat = SERIES_CATALOGS[key]
    rng = np.random.default_rng(23)
    points = [random_element(cat.spec, rng) for _ in range(3)]
    assert inverse_transform(_random_field(cat, rng), points).shape == (3,)


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
