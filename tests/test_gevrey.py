import json
import math

import numpy as np
import pytest

from gevreykit.errors import DomainError, check_positive
from gevreykit.fourier import CoefficientField
from gevreykit.gevrey import (
    _pinned,
    bracket_profile,
    cross_check,
    fit_decay,
    fourier_side_test,
    log_l1_bounds,
    space_side_test,
    synthesize_gevrey,
)
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.serialize import verdict_to_json
from test_contract import SCALARS

T1 = GroupSpec("torus", 1)


@pytest.fixture(scope="module")
def battery():
    cat = enumerate_dual(T1, 6000.0)
    return {
        s0: synthesize_gevrey(cat, s0, 1.0, "random_phase", seed=42)
        for s0 in (0.5, 1.0, 2.0)
    }


@pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("profile", ["diagonal", "dense", "random_phase"])
def test_fit_recovers_synthesis(s0, profile):
    cat = enumerate_dual(T1, 3000.0)
    coeffs = synthesize_gevrey(cat, s0, 1.0, profile, seed=3)
    model = fit_decay(coeffs)
    assert model.s == pytest.approx(s0, rel=0.05)
    assert model.B == pytest.approx(1.0, rel=0.10)
    assert model.r2 > 0.999


def test_fit_recovers_on_su2():
    cat = enumerate_dual(GroupSpec("su2"), 60.0)
    coeffs = synthesize_gevrey(cat, 1.0, 1.0, "diagonal")
    model = fit_decay(coeffs)
    assert model.s == pytest.approx(1.0, rel=0.05)
    assert model.B == pytest.approx(1.0, rel=0.10)


def test_truth_table_both_sides(battery):
    # Roumieu holds iff s_test >= s0; Beurling iff s_test > s0
    for s0, coeffs in battery.items():
        for s_test in (0.5, 1.0, 2.0, 3.0):
            for mode, truth in (
                ("R", s_test >= s0),
                ("B", s_test > s0),
            ):
                fv = fourier_side_test(coeffs, s_test, mode)
                sv = space_side_test(coeffs, s_test, mode=mode)
                assert fv.passed == truth, (s0, s_test, mode, "fourier")
                assert sv.passed == truth, (s0, s_test, mode, "space")


def test_cross_check_agrees(battery):
    res = cross_check(battery[1.0], 2.0, "R")
    assert res["agree"]
    assert res["fourier"].passed and res["space"].passed


def test_space_side_plateau_estimates_radius(battery):
    # at s = s0 the rho_k plateau sits near (2/B)^s0 = 4
    verdict = space_side_test(battery[2.0], 2.0, mode="R")
    rho = verdict.extras["rho"][verdict.extras["usable"]]
    plateau = float(np.median(rho[len(rho) // 2:]))
    assert plateau == pytest.approx(4.0, rel=2.0)
    assert plateau < 12.0 and plateau > 4.0 / 3.0


def test_verdicts_scale_invariant(battery):
    coeffs = battery[1.0]
    scaled = coeffs.scaled(1e6)
    for mode in ("R", "B"):
        a = fourier_side_test(coeffs, 2.0, mode)
        b = fourier_side_test(scaled, 2.0, mode)
        assert a.passed == b.passed
        assert a.margin == pytest.approx(b.margin, rel=1e-6)


def test_zero_and_constant_fields_pass_vacuously():
    cat = enumerate_dual(T1, 100.0)
    zero = CoefficientField(cat)
    v = fourier_side_test(zero, 1.0, "R")
    assert v.passed and "zero_field" in v.flags
    const = CoefficientField(cat)
    const[(0,)] = np.array([[2.0 + 0j]])
    v = space_side_test(const, 1.0, mode="B")
    assert v.passed and "constant_function" in v.flags


def test_short_spectrum_flagged():
    cat = enumerate_dual(T1, 3.0)
    coeffs = synthesize_gevrey(cat, 1.0, 1.0)
    v = fourier_side_test(coeffs, 1.0, "R")
    assert "short_spectrum" in v.flags
    assert v.passed
    assert not fourier_side_test(coeffs, 1.0, "B").passed


def test_fewer_than_three_brackets_give_insufficient_data():
    # one bracket per SU(2) class: (1,), then (1,) and (2,), then three brackets
    coeffs = CoefficientField(enumerate_dual(GroupSpec("su2"), 5.0))
    for label in ((1,), (2,), (3,)):
        coeffs[label] = 0.5 ** label[0] * np.eye(label[0] + 1)
        for mode in ("R", "B"):
            data = json.loads(verdict_to_json(fourier_side_test(coeffs, 2.0, mode)))
            if label == (3,):
                assert data["flags"] == ["short_spectrum"] and data["B"] is not None
            else:
                assert (data["pass"], data["flags"], data["witness_label"], data["B"]) == (
                    False, ["insufficient_data"], list(label), None)


def test_invalid_s_rejected():
    cat = enumerate_dual(T1, 50.0)
    coeffs = synthesize_gevrey(cat, 1.0, 1.0)
    with pytest.raises(DomainError):
        fourier_side_test(coeffs, 0.0, "R")
    with pytest.raises(DomainError):
        synthesize_gevrey(cat, 1.0, -1.0)


def infimum_decay_bound(r, s):
    """Closed form of inf over x > 0 of x^(sx) r^(-x), namely e^(-(s/e) r^(1/s))."""
    check_positive("r", r)
    check_positive("s", s)
    return math.exp(-(s / math.e) * r ** (1.0 / s))


def infimum_decay_grid(r, s, points=200001):
    """Dense-grid minimization of x^(sx) r^(-x); oracle for the closed form."""
    check_positive("r", r)
    check_positive("s", s)
    x_hi = 10.0 * max(1.0, r ** (1.0 / s))
    x = np.linspace(x_hi / points, x_hi, points)
    vals = s * x * np.log(x) - x * math.log(r)
    return math.exp(float(vals.min()))


def pinned_model(coeffs, s):
    """DecayModel with s pinned, B and K refitted on the full profile."""
    check_positive("s", s)
    brackets, logs, _ = bracket_profile(coeffs)
    return _pinned(brackets, logs, s)


def test_infimum_bound_matches_grid_oracle():
    for r in (2.0, 10.0, 1e4):
        for s in (0.5, 1.0, 2.0):
            closed = infimum_decay_bound(r, s)
            grid = infimum_decay_grid(r, s)
            assert closed == pytest.approx(grid, rel=1e-6)


FIELD = synthesize_gevrey(enumerate_dual(T1, 50.0), 2.0, 1.0)
# the norm rows come from the library's contract table
SCALAR_CALLS = {
    **{key: SCALARS[key][2] for key in ("lp_norm-p", "matrix_lp_norm-p", "matrix_norm_slacks-p")},
    "infimum_decay_bound-r": lambda v: infimum_decay_bound(v, 1.0),
    "infimum_decay_bound-s": lambda v: infimum_decay_bound(1.0, v),
    "infimum_decay_grid-r": lambda v: infimum_decay_grid(v, 1.0),
    "infimum_decay_grid-s": lambda v: infimum_decay_grid(1.0, v),
    "pinned_model-s": lambda v: pinned_model(FIELD, v),
}


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
def test_scalar_parameters_refuse_nan_zero_and_negative(call, bad):
    with pytest.raises(DomainError):
        call(bad)


def test_polynomial_decay_is_not_gevrey():
    # distributions with power-law decay must fail both tests at s <= 1
    cat = enumerate_dual(T1, 4000.0)
    coeffs = CoefficientField(cat)
    for rep in cat:
        coeffs[rep.label] = np.array([[rep.bracket**-6.0 + 0j]])
    for s in (0.5, 1.0):
        assert not fourier_side_test(coeffs, s, "R").passed
        assert not space_side_test(coeffs, s, mode="R").passed
    # the single best exponential fit can still look plausible; the
    # tertile slopes are what expose the power law
    model = fit_decay(coeffs)
    assert model.s == pytest.approx(5.0, abs=0.2)


def test_decay_fits_keep_log_k_past_the_double_range():
    # log ||f_hat|| = 750 - 50 <xi>: finite norms, K = e^750 overflows
    cat = enumerate_dual(T1, 13.0)
    coeffs = synthesize_gevrey(cat, 1.0, 50.0).scaled(math.exp(375.0)).scaled(math.exp(375.0))
    for model in (fit_decay(coeffs), pinned_model(coeffs, 1.0)):
        assert model.s == 1.0
        assert model.log_K == pytest.approx(750.0, rel=1e-9)
        assert model.K == math.inf
    data = json.loads(verdict_to_json(fourier_side_test(coeffs, 1.0, "R")))
    assert data["K"] == "inf"


def _log_l1_bounds_scipy(catalog, hs, idx, powers):
    """log_l1_bounds with one scipy.special.logsumexp call per power."""
    from scipy.special import logsumexp

    base = 1.5 * np.log(catalog.dims[idx]) + np.log(hs[idx])
    moving = catalog.lambda_sq[idx] > 0.0
    log_abs = 0.5 * np.log(catalog.lambda_sq[idx[moving]])
    u, peaks = np.full(len(powers), -math.inf), np.full(len(powers), -1)
    for i, p in enumerate(powers):
        at, terms = (idx, base) if p == 0 else (idx[moving], base[moving] + p * log_abs)
        if len(terms):
            u[i], peaks[i] = logsumexp(terms), at[np.argmax(terms)]
    return u, peaks


# the power lists of space_side_test (2k) and of the dual seminorm (k, from 0)
L1_POWERS = (2.0 * np.arange(1, 17), np.arange(61))


@pytest.mark.parametrize("spec,cutoff", [
    (T1, 1000.5), (GroupSpec("torus", 2), 30.5), (GroupSpec("su2"), 16.1), (GroupSpec("so3"), 16.1),
])
def test_log_l1_bounds_match_scipy_logsumexp_bit_for_bit(spec, cutoff):
    cat = enumerate_dual(spec, cutoff)
    for s0 in (0.5, 1.0, 2.0, 3.0):
        for profile in ("diagonal", "random_phase"):
            hs = synthesize_gevrey(cat, s0, 1.0, profile, seed=7).hs_norms()
            idx = np.flatnonzero(hs > 1e-290)
            for powers in L1_POWERS:
                got = log_l1_bounds(cat, hs, idx, powers)
                want = _log_l1_bounds_scipy(cat, hs, idx, powers)
                assert got[0].tobytes() == want[0].tobytes(), (spec, s0, profile)
                assert got[1].tolist() == want[1].tolist()


def test_log_l1_bounds_match_scipy_on_ties_and_single_terms():
    cat = enumerate_dual(GroupSpec("torus", 2), 6.5)
    rng = np.random.default_rng(3)
    powers = np.array([0.0, 1.0, 2.0, 7.5])
    # every class ties at p = 0; classes on one circle tie at every p
    for hs in (np.ones(len(cat)), np.exp(-cat.lambda_sq), rng.uniform(0.5, 2.0, len(cat))):
        for idx in (np.arange(len(cat)), np.array([0]), np.array([3]), np.array([1, 2, 3, 4]),
                    np.array([], dtype=int)):
            got = log_l1_bounds(cat, hs, idx, powers)
            want = _log_l1_bounds_scipy(cat, hs, idx, powers)
            assert got[0].tobytes() == want[0].tobytes(), idx
            assert got[1].tolist() == want[1].tolist()
