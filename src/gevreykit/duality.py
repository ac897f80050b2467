"""Ultradistributions as growth sequences, the duality pairing, and
perfectness round-trips.

A sequence v = (v_xi) is dual to the Roumieu class gamma_s when its
growth is beaten by e^{B <xi>^(1/s)} for EVERY B > 0, and dual to the
Beurling class when some B works.  As in the decay classifiers, finite
truncation makes both statements formally true, so the tests compare
growth slopes of log ||v_xi|| against x = <xi>^(1/s) across spectrum
thirds: Roumieu-dual requires the tail slope to decay toward zero,
Beurling-dual only that it stops increasing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllPairedError, check_positive
from .fourier import CoefficientField, _require_same_catalog, inverse_transform
from .gevrey import (
    HS_FLOOR,
    _bracket_rates,
    _ls_line,
    _open_verdict,
    _tertile_slopes,
    _verdict,
    bracket_profile,
    log_l1_bounds,
    profile_field,
)
from .quadrature import identity_element, rep_matrix, tree_sum

GROWTH_EPS = 1e-3
ROUMIEU_DUAL_RATIO = 0.95
BEURLING_DUAL_RATIO = 1.05
PAIR_TAIL_REL = 1e-8
SERIES_TAIL_REL = 1e-6
CONTINUITY_K_CAP = 60
PERFECTNESS_B_GRID = (0.25, 0.5)


def growth_sequence(catalog, s, B, profile="diagonal", seed=0):
    """Sequence with ||v_xi||_HS = exp(+B <xi>^(1/s)) per class.

    Raises a domain error if any norm would overflow double precision;
    pick a smaller catalog cutoff in that case.
    """
    log_hs = _bracket_rates(catalog, s, B)
    for value, bracket in zip(log_hs, catalog.brackets.tolist()):
        if value > 700.0:
            raise DomainError("growth e^%.1f overflows at bracket %.1f; reduce the cutoff"
                              % (value, bracket))
    return profile_field(catalog, log_hs, profile, seed)


def delta_sequence(catalog):
    """Coefficients of the delta distribution at the unit: identity blocks."""
    return CoefficientField.identity(catalog)


def ultra_membership_test(seq, s, mode):
    """Dual-space membership verdict from growth slopes.

    Requires s >= 1: the duality theory is stated for s >= 1 only.
    """
    if s < 1:
        raise DomainError("dual tests require s >= 1 (duality range restriction)")
    mode, hs, vacuous = _open_verdict(seq, s, mode)
    if vacuous is not None:
        return vacuous
    brackets, logs, labels = bracket_profile(seq, hs)
    x = brackets ** (1.0 / s)
    if len(x) < 9:
        # some exponential beats any short spectrum, so Beurling-dual
        # membership holds vacuously
        slope = _ls_line(x, logs)[0] if len(x) >= 2 else 0.0
        margin = GROWTH_EPS - slope if mode == "roumieu" else math.inf
        return _verdict(mode, s, margin, flags=("short_spectrum",))
    (g_lo, g_mid, g_top), top_labels, excess = _tertile_slopes(x, logs, labels)
    extras = {"g_lower": g_lo, "g_middle": g_mid, "g_top": g_top}
    if mode == "roumieu":
        # tail growth slope must decay: beaten by every exponential
        ceiling = max(ROUMIEU_DUAL_RATIO * g_mid, GROWTH_EPS)
    else:
        # one exponential suffices: the slope must merely stop growing
        ceiling = BEURLING_DUAL_RATIO * max(g_mid, GROWTH_EPS)
    witness = top_labels[int(np.argmax(excess))]
    return _verdict(mode, s, ceiling - g_top, witness, extras=extras)


def alpha_dual_series_probe(seq, s, B):
    """Partial sums of sum_xi e^{-B <xi>^(1/s)} ||v_xi||_HS in catalog order."""
    check_positive("s", s)
    check_positive("B", B)
    hs = seq.hs_norms()[seq.present]
    with np.errstate(divide="ignore"):
        return np.cumsum(np.exp(np.log(hs) - B * seq.catalog.brackets[seq.present] ** (1.0 / s)))


@dataclass(frozen=True)
class PairingDiagnostic:
    total_abs: float
    tail_abs: float
    tail_fraction: float
    tail_bracket: float


def _pairing_terms(seq, coeffs):
    """d_xi Tr(phi_hat(xi) v_xi) on every class either holds, and their Cauchy check."""
    _require_same_catalog(seq, coeffs)
    cat = seq.catalog
    keep = seq.present | coeffs.present
    # Tr(a b) sums a_mn b_nm
    terms = cat.dims * np.add.reduceat(coeffs.data * seq.data[cat.transposed], cat.offsets[:-1])
    terms = terms[keep]
    return terms, PairingDiagnostic(*_tail_share(np.abs(terms), cat.brackets[keep]))


def _tail_share(mags, brackets):
    """Cauchy check over the last decade of brackets: the total of ``mags``,
    its part on brackets >= max/10, that part's share of the total (NaN on
    a NaN total), and where the decade starts; all 0 on no brackets."""
    total = float(mags.sum())
    cut = brackets.max(initial=0.0) / 10.0
    tail = float(mags[brackets >= cut].sum())
    return total, tail, tail / total if total else 0.0, cut


def pairing_diagnostic(seq, coeffs):
    """Cauchy check of the pairing terms over the last decade of brackets."""
    return _pairing_terms(seq, coeffs)[1]


def pair(seq, coeffs):
    """Duality pairing sum_xi d_xi Tr(phi_hat(xi) v_xi).

    Refuses with an ill-paired error when the absolute mass of the terms
    is not finite, or when the last decade of brackets still carries
    more than a 1e-8 relative share of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms, diag = _pairing_terms(seq, coeffs)
    if not math.isfinite(diag.total_abs):
        raise IllPairedError("pairing terms are not finite (absolute mass %r)"
                             % diag.total_abs, diagnostic=diag.__dict__)
    if diag.tail_fraction > PAIR_TAIL_REL:
        raise IllPairedError(
            "pairing tail fraction %.3e over brackets >= %.1f exceeds %.0e"
            % (diag.tail_fraction, diag.tail_bracket, PAIR_TAIL_REL),
            diagnostic=diag.__dict__,
        )
    return complex(tree_sum(terms)) if len(terms) else 0.0 + 0.0j


def continuity_modulus(seq, s, epsilon_grid, battery):
    """Smallest constants C_eps with |v(phi)| <= C_eps * seminorm_eps(phi), where
    seminorm_eps(phi) = sup_k eps^k (k!)^(-s) * l1-bound of ||(-L)^(k/2) phi||_inf.

    k is capped at CONTINUITY_K_CAP (reported); the battery is a
    caller-supplied list of coefficient fields.
    """
    from scipy.special import gammaln  # on use: loading scipy.special costs a start-up 0.3 s
    check_positive("s", s)
    ks = np.arange(CONTINUITY_K_CAP + 1)
    k_weight = s * gammaln(ks + 1.0)
    paired = []
    for phi in battery:
        value = abs(pair(seq, phi))
        if value != 0.0:
            hs = phi.hs_norms()
            nk, _ = log_l1_bounds(phi.catalog, hs, np.flatnonzero(hs > HS_FLOOR), ks)
            paired.append((math.log(value), nk))
    rows = []
    for eps in epsilon_grid:
        check_positive("epsilon", eps)
        worst = 0.0
        for log_value, nk in paired:
            denom_log = float(np.max(ks * math.log(eps) - k_weight + nk))
            worst = max(worst, math.exp(log_value - denom_log))
        rows.append((float(eps), worst))
    return {"curve": rows, "k_cap": CONTINUITY_K_CAP}


def perfectness_roundtrip(coeffs, s, points=None):
    """Second-dual membership plus re-synthesis identity.

    Checks that sum_xi e^{B' <xi>^(1/s)} ||w_xi|| is Cauchy (last-decade
    tail below 1e-6 relative) for every B' in PERFECTNESS_B_GRID, then
    re-sums the inversion series independently at the given points and
    compares with inverse_transform.  s must be positive and finite.
    """
    check_positive("s", s)
    brackets, logs, _ = bracket_profile(coeffs)
    series = {}
    for bp in PERFECTNESS_B_GRID:
        total, _, frac, _ = _tail_share(np.exp(logs + bp * brackets ** (1.0 / s)), brackets)
        series[bp] = {"total": total, "tail_fraction": frac,
                      "converged": frac <= SERIES_TAIL_REL}
    all_converge = all(v["converged"] for v in series.values())
    if points is None:
        points = [identity_element(coeffs.catalog.spec)]
    direct = inverse_transform(coeffs, points)
    resynth = np.zeros(len(points), dtype=complex)
    for i, x in enumerate(points):
        acc = []
        for label in coeffs.labels():
            rep = coeffs.catalog.lookup(label)
            xi = rep_matrix(coeffs.catalog.spec, rep, x)
            acc.append(rep.dim * np.trace(coeffs[label] @ xi))
        resynth[i] = tree_sum(np.array(acc, dtype=complex))
    mismatch = float(np.abs(direct - resynth).max(initial=0.0))
    return {
        "series": series,
        "converged": all_converge,
        "resynthesis_mismatch": mismatch,
        "passed": all_converge and mismatch <= 1e-10,
    }
