import math

import numpy as np
import pytest

from gevreykit import duality
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
from gevreykit.gevrey import log_l1_bounds, synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import identity_element
from test_contract import SCALARS

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


def test_continuity_modulus_pairs_and_bounds_each_field_once(monkeypatch):
    cat = enumerate_dual(T1, 2000.0)
    battery = [synthesize_gevrey(cat, 1.0, b, "diagonal") for b in (0.5, 1.0, 2.0)]
    battery.insert(1, CoefficientField(cat))
    calls = {"pair": [], "log_l1_bounds": 0}

    def counting_pair(seq, phi):
        calls["pair"].append(phi)
        return pair(seq, phi)

    def counting_bounds(*args):
        calls["log_l1_bounds"] += 1
        return log_l1_bounds(*args)

    monkeypatch.setattr(duality, "pair", counting_pair)
    monkeypatch.setattr(duality, "log_l1_bounds", counting_bounds)
    eps_grid = (0.25, 0.5, 1.0, 2.0)
    # the constants of the per-epsilon loop this replaced, bit for bit
    expected = {
        "delta": ["0x1.0000000000001p+0"] * 3 + ["0x1.290dea2b37eaap-2"],
        "growth": ["0x1.e89e79ac9005bp+0", "0x1.e89e79ac9005bp+0",
                   "0x1.c496d85f12a6fp+0", "0x1.0695cd56c9b80p-1"],
    }
    for name, seq, fields in (("delta", delta_sequence(cat), battery),
                              ("growth", growth_sequence(cat, 2.0, 0.5), battery[2:])):
        calls["pair"].clear()
        calls["log_l1_bounds"] = 0
        out = continuity_modulus(seq, 1.0, eps_grid, fields)
        assert [(e, c.hex()) for e, c in out["curve"]] == list(zip(eps_grid, expected[name]))
        assert len(calls["pair"]) == len(fields)
        assert all(a is b for a, b in zip(calls["pair"], fields))
        # the zero field pairs to 0 and needs no seminorm
        assert calls["log_l1_bounds"] == len(fields) - (name == "delta")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_duality_refuses_non_positive_or_non_finite_parameters(bad):
    # the duality rows of the library's contract table, each with its message
    for key in ("continuity_modulus-s", "continuity_modulus-epsilon_grid",
                "perfectness_roundtrip-s", "alpha_dual_series_probe-s",
                "alpha_dual_series_probe-B"):
        with pytest.raises(DomainError, match="must be positive and finite"):
            SCALARS[key][2](bad)


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
    out = perfectness_roundtrip(coeffs, 2.0)
    assert out["converged"]
    assert out["resynthesis_mismatch"] <= 1e-10
    assert out["passed"]
    for bp in (0.25, 0.5):
        assert out["series"][bp]["converged"]


@pytest.mark.parametrize("spec,cutoff", [(T1, 20.0), (SU2, 6.8)])
def test_perfectness_roundtrip_on_a_field_with_no_norm_above_the_floor(spec, cutoff):
    cat = enumerate_dual(spec, cutoff)
    tiny = CoefficientField(cat)
    tiny[cat.labels[1]] = np.full((cat.dims[1], cat.dims[1]), 1e-300 + 0j)
    for coeffs in (CoefficientField(cat), tiny):
        out = perfectness_roundtrip(coeffs, 2.0)
        assert out["series"] == {bp: {"total": 0.0, "tail_fraction": 0.0, "converged": True}
                                 for bp in (0.25, 0.5)}
        assert out["converged"] and out["passed"]
        assert out["resynthesis_mismatch"] == 0.0


def test_pair_refuses_non_finite_terms():
    # 1e300 * 1e300 overflows, and inf / inf would slip past the tail check
    cat = enumerate_dual(T1, 10.0)
    big = CoefficientField(cat)
    for rep in cat:
        big[rep.label] = np.array([[1e300 + 0j]])
    with pytest.raises(IllPairedError, match="not finite"):
        pair(big, big)
    # a NaN mass has a NaN tail share, not a share of 0
    nan = CoefficientField(cat)
    nan[cat.labels[0]] = np.array([[math.nan + 0j]])
    assert math.isnan(pairing_diagnostic(nan, big).tail_fraction)
    with pytest.raises(IllPairedError, match="not finite"):
        pair(nan, big)
