import math

import numpy as np
import pytest
from scipy.linalg import expm

from gevreykit.calculus import (
    _multi_indices,
    alpha_symbol,
    apply_symbol,
    canonical_word,
    first_order_constant,
    laplacian_power_apply,
    linf_bound,
    p_alpha_symbol,
    sobolev_norm,
    vector_field_symbol,
)
from gevreykit.errors import DomainError
from gevreykit.fourier import CoefficientField, inverse_transform, plancherel_norm
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import random_element

from euler_algebra import euler_to_su2, su2_to_euler

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def _random_field(catalog, rng):
    out = CoefficientField(catalog)
    for rep in catalog:
        out[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 1j * (
            rng.standard_normal((rep.dim, rep.dim))
        )
    return out


@pytest.mark.parametrize("fam", ["su2", "so3"])
def test_casimir_identity(fam):
    spec = GroupSpec(fam)
    cat = enumerate_dual(spec, 12.0)
    syms = [vector_field_symbol(cat, j) for j in (1, 2, 3)]
    for rep in cat:
        total = sum(s[rep.label] @ s[rep.label] for s in syms)
        assert np.abs(total + rep.lambda_sq * np.eye(rep.dim)).max() < 1e-10


def test_torus_symbol_is_ik():
    cat = enumerate_dual(GroupSpec("torus", 2), 5.0)
    s1 = vector_field_symbol(cat, 1)
    s2 = vector_field_symbol(cat, 2)
    for rep in cat:
        assert s1[rep.label][0, 0] == 1j * rep.label[0]
        assert s2[rep.label][0, 0] == 1j * rep.label[1]


def test_commutator_closes_on_third_field():
    cat = enumerate_dual(GroupSpec("su2"), 10.0)
    s = {j: vector_field_symbol(cat, j) for j in (1, 2, 3)}
    for rep in cat:
        comm = s[1][rep.label] @ s[2][rep.label] - s[2][rep.label] @ s[1][rep.label]
        assert np.abs(comm - s[3][rep.label]).max() < 1e-12


def test_flow_derivative_oracle():
    # d/dt f(x exp(t X_j)) at t = 0 must equal (X_j f)(x)
    rng = np.random.default_rng(20)
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 4.0)
    coeffs = _random_field(cat, rng)
    h = 1e-4
    for j in (1, 2, 3):
        xj = -0.5j * PAULI[j - 1]
        deriv = apply_symbol(vector_field_symbol(cat, j), coeffs)
        for _ in range(3):
            x = random_element(spec, rng)
            u = euler_to_su2(x)
            plus = inverse_transform(coeffs, [su2_to_euler(u @ expm(h * xj))])[0]
            minus = inverse_transform(coeffs, [su2_to_euler(u @ expm(-h * xj))])[0]
            fd = (plus - minus) / (2.0 * h)
            exact = inverse_transform(deriv, [x])[0]
            assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


def word_to_alpha(word, n):
    alpha = [0] * n
    for letter in word:
        if not 1 <= letter <= n:
            raise DomainError("letter %d outside 1..%d" % (letter, n))
        alpha[letter - 1] += 1
    return tuple(alpha)


def test_canonical_word_and_alpha_round_trip():
    assert canonical_word((2, 0, 1)) == (1, 1, 3)
    assert word_to_alpha((1, 1, 3), 3) == (2, 0, 1)
    assert canonical_word((0, 0, 0)) == ()


def test_factorization_identity():
    # sigma of the full derivative equals sigma_P_alpha times lambda^(2k)
    cat = enumerate_dual(GroupSpec("su2"), 12.0)
    for alpha in ((1, 0, 1), (2, 1, 0), (0, 0, 3)):
        word = canonical_word(alpha)
        k = (sum(alpha) + 2) // 2
        full = alpha_symbol(word, cat)
        part = p_alpha_symbol(word, k, cat)
        for rep in cat:
            if rep.lambda_sq == 0.0:
                assert np.abs(part[rep.label]).max() == 0.0
                continue
            lhs = full[rep.label]
            rhs = part[rep.label] * rep.lambda_sq**k
            assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())


def test_p_alpha_requires_enough_smoothing():
    cat = enumerate_dual(GroupSpec("su2"), 6.0)
    with pytest.raises(DomainError):
        p_alpha_symbol((1, 2), 1, cat)


def test_laplacian_power_apply():
    rng = np.random.default_rng(21)
    cat = enumerate_dual(GroupSpec("so3"), 8.0)
    coeffs = _random_field(cat, rng)
    out = laplacian_power_apply(coeffs, 2)
    for rep in cat:
        assert np.abs(out[rep.label] - rep.lambda_sq**2 * coeffs[rep.label]).max() < 1e-9


def test_sobolev_norm_log_convex():
    rng = np.random.default_rng(22)
    cat = enumerate_dual(GroupSpec("su2"), 10.0)
    coeffs = _random_field(cat, rng)
    n0, n1, n2 = (sobolev_norm(coeffs, t) for t in (0.0, 1.0, 2.0))
    assert n1 * n1 <= n0 * n2 * (1.0 + 1e-12)


def test_torus_derivative_of_exponential():
    cat = enumerate_dual(GroupSpec("torus", 1), 6.0)
    f = CoefficientField(cat)
    f[(3,)] = np.array([[1.0 + 0j]])
    df = apply_symbol(alpha_symbol((1,), cat), f)
    assert df[(3,)][0, 0] == pytest.approx(3j)


def test_linf_bound_dominates_samples():
    rng = np.random.default_rng(23)
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 6.0)
    coeffs = _random_field(cat, rng)
    pts = [random_element(spec, rng) for _ in range(30)]
    sup = np.abs(inverse_transform(coeffs, pts)).max()
    assert linf_bound(coeffs) >= sup


def derivative_l2_profile(coeffs, up_to):
    """L2 norms of every canonical derivative up to total order up_to."""
    n = coeffs.catalog.spec.manifold_dim
    out = {}
    for total in range(up_to + 1):
        for alpha in _multi_indices(n, total):
            sym = alpha_symbol(canonical_word(alpha), coeffs.catalog)
            out[alpha] = plancherel_norm(apply_symbol(sym, coeffs))
    return out


def test_first_order_constant_and_profile():
    cat = enumerate_dual(GroupSpec("su2"), 8.0)
    c0 = first_order_constant(cat)
    assert c0 >= 1.0
    rng = np.random.default_rng(24)
    coeffs = _random_field(cat, rng)
    prof = derivative_l2_profile(coeffs, 1)
    # one zeroth-order entry plus the three first-order fields
    assert len(prof) == 4
    for alpha, norm in prof.items():
        if sum(alpha) == 1:
            assert norm <= c0 * sobolev_norm(coeffs, 1.0) * (1.0 + 1e-12)
