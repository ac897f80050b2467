import math

import numpy as np
import pytest

from gevreykit.duality import (
    alpha_dual_series_probe,
    continuity_modulus,
    delta_sequence,
    growth_sequence,
    pair,
    pairing_diagnostic,
    perfectness_roundtrip,
    ultra_membership_test,
)
from gevreykit.errors import DomainError, IllPairedError
from gevreykit.fourier import CoefficientField, inverse_transform
from gevreykit.gevrey import synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import identity_element

T1 = GroupSpec("torus", 1)
SU2 = GroupSpec("su2")


def test_delta_is_roumieu_dual():
    for spec, cutoff in ((T1, 2000.0), (SU2, 70.0)):
        delta = delta_sequence(enumerate_dual(spec, cutoff))
        for s in (1.0, 2.0):
            v = ultra_membership_test(delta, s, "R")
            assert v.passed, (spec.family, s)


def test_growth_sequence_splits_modes():
    cat = enumerate_dual(T1, 2000.0)
    seq = growth_sequence(cat, 2.0, 1.0)
    vb = ultra_membership_test(seq, 2.0, "B")
    vr = ultra_membership_test(seq, 2.0, "R")
    assert vb.passed
    assert not vr.passed
    assert vr.witness_label is not None
    assert cat.contains(vr.witness_label)


def test_echelon_containment():
    # duals shrink as s grows: passing at s = 2 implies passing at s = 1
    cat = enumerate_dual(T1, 2000.0)
    for seq in (delta_sequence(cat), growth_sequence(cat, 2.0, 1.0)):
        if ultra_membership_test(seq, 2.0, "R").passed:
            assert ultra_membership_test(seq, 1.0, "R").passed


def test_full_exponential_growth_fails():
    cat = enumerate_dual(T1, 600.0)
    seq = CoefficientField(cat)
    for rep in cat:
        seq[rep.label] = np.array([[math.exp(min(rep.bracket, 700.0)) + 0j]])
    assert not ultra_membership_test(seq, 2.0, "R").passed
    assert not ultra_membership_test(seq, 2.0, "B").passed


def test_s_below_one_rejected():
    delta = delta_sequence(enumerate_dual(SU2, 20.0))
    with pytest.raises(DomainError):
        ultra_membership_test(delta, 0.5, "R")


def test_alpha_dual_series_probe():
    cat = enumerate_dual(SU2, 200.0)
    delta = delta_sequence(cat)
    sums = alpha_dual_series_probe(delta, 2.0, 1.0)
    assert np.all(np.diff(sums) >= 0)
    # the exponential beats sqrt(d): increments die off toward the tail
    assert sums[-1] - sums[-2] < 1e-5 * sums[-1]
    assert sums[-1] - sums[len(sums) // 2] < 1e-2 * sums[-1]
    # a deeper scalar catalog pushes the Cauchy window below 1e-8
    deep = delta_sequence(enumerate_dual(T1, 2000.0))
    deep_sums = alpha_dual_series_probe(deep, 2.0, 1.0)
    assert deep_sums[-1] - deep_sums[-2] < 1e-8 * deep_sums[-1]
    # exact inverse growth keeps increments of order one per class
    seq = growth_sequence(cat, 2.0, 1.0)
    diverging = alpha_dual_series_probe(seq, 2.0, 1.0)
    incs = np.diff(diverging)
    assert incs[-1] > 0.5


def test_pairing_reproduces_point_evaluation():
    rng = np.random.default_rng(30)
    cat = enumerate_dual(SU2, 70.0)
    delta = delta_sequence(cat)
    phi = CoefficientField(cat)
    for rep in cat:
        if rep.label[0] <= 12:
            phi[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 1j * (
                rng.standard_normal((rep.dim, rep.dim))
            )
    value = pair(delta, phi)
    at_e = inverse_transform(phi, [identity_element(SU2)])[0]
    assert abs(value - at_e) < 1e-9 * max(1.0, abs(at_e))


def test_pairing_is_linear():
    rng = np.random.default_rng(31)
    cat = enumerate_dual(SU2, 70.0)
    delta = delta_sequence(cat)

    def band_field():
        f = CoefficientField(cat)
        for rep in cat:
            if rep.bracket <= 6.0:
                f[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 1j * (
                    rng.standard_normal((rep.dim, rep.dim))
                )
        return f

    f, g = band_field(), band_field()
    a, b = 2.5, -1.25
    lhs = pair(delta, f.add(g, a, b))
    rhs = a * pair(delta, f) + b * pair(delta, g)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_ill_paired_sentinel():
    cat = enumerate_dual(T1, 500.0)
    seq = growth_sequence(cat, 2.0, 1.0)
    slow = CoefficientField(cat)
    for rep in cat:
        slow[rep.label] = np.array([[rep.bracket**-2.0 + 0j]])
    diag = pairing_diagnostic(seq, slow)
    assert diag.tail_fraction > 1e-8
    assert diag.tail_abs > 0.0
    with pytest.raises(IllPairedError) as err:
        pair(seq, slow)
    assert err.value.diagnostic["tail_fraction"] > 1e-8


def test_continuity_modulus_for_delta():
    cat = enumerate_dual(T1, 2000.0)
    delta = delta_sequence(cat)
    battery = [synthesize_gevrey(cat, 1.0, b, "diagonal") for b in (0.5, 1.0, 2.0)]
    out = continuity_modulus(delta, 1.0, (0.5, 1.0), battery)
    assert out["k_cap"] >= 1
    for _, c in out["curve"]:
        assert 0.0 < c < 100.0


def test_scaled_sequence_keeps_verdict():
    cat = enumerate_dual(T1, 2000.0)
    seq = growth_sequence(cat, 2.0, 1.0)
    scaled = seq.scaled(10.0)
    a = ultra_membership_test(seq, 2.0, "B")
    b = ultra_membership_test(scaled, 2.0, "B")
    assert a.passed == b.passed


def test_perfectness_roundtrip():
    cat = enumerate_dual(T1, 14000.0)
    coeffs = synthesize_gevrey(cat, 2.0, 1.0, "diagonal")
    out = perfectness_roundtrip(coeffs, 2.0, b_grid=(0.25, 0.5))
    assert out["converged"]
    assert out["resynthesis_mismatch"] <= 1e-10
    assert out["passed"]
    for bp in (0.25, 0.5):
        assert out["series"][bp]["converged"]


def test_pair_refuses_non_finite_terms():
    # 1e300 * 1e300 overflows, and inf / inf would slip past the tail check
    cat = enumerate_dual(T1, 10.0)
    big = CoefficientField(cat)
    for rep in cat:
        big[rep.label] = np.array([[1e300 + 0j]])
    with pytest.raises(IllPairedError, match="not finite"):
        pair(big, big)
