"""Gevrey synthesis and classification from Fourier decay.

A field belongs to the Roumieu class gamma_s when its coefficients decay
like K exp(-B <xi>^(1/s)) for some B > 0, and to the Beurling class when
such a bound holds for every B > 0.  At a finite catalog truncation both
conditions are always formally satisfiable, so the classifiers below are
margin-based: they compare local decay slopes of log ||f_hat|| against
<xi>^(1/s) across the lower, middle, and upper thirds of the spectrum.
A genuinely Roumieu field shows a stable positive slope; a Beurling
field shows a growing slope; anything slower shows a collapsing slope.

The space-side test bounds ||(-L)^k f||_inf through the l1 dual norm in
log-domain and inspects the normalized radius rho_k, which stabilizes
near A = (2/B)^s exactly on Gevrey-s fields and drifts upward otherwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError, check_int, check_positive
from .fourier import CoefficientField, diagonal_at, ranges

HS_FLOOR = 1e-290
S_GRID = np.round(np.arange(0.2, 5.0 + 1e-9, 0.01), 10)
B_MIN = 1e-3
ROUMIEU_SLOPE_RATIO = 0.85
BEURLING_SLOPE_RATIO = 1.05
RHO_WINDOW_FACTOR = 1.35
BEURLING_RHO_LOG_SLOPE = -0.25
SATURATION_FRACTION = 0.95
MIN_USABLE_K = 6
SPACE_K_MAX = 16
PROFILES = ("diagonal", "dense", "random_phase")
LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class DecayModel:
    """Fitted decay shape ||f_hat|| ~ K exp(-B <xi>^(1/s)), kept as log K."""

    s: float
    B: float
    log_K: float
    r2: float
    support: int

    @property
    def K(self):
        """exp(log_K), or inf where that overflows."""
        return math.inf if self.log_K > LOG_DBL_MAX else math.exp(self.log_K)


@dataclass(frozen=True)
class GevreyVerdict:
    mode: str
    s: float
    passed: bool
    margin: float
    model: object = None
    witness_label: tuple = None
    flags: tuple = ()
    extras: dict = field(default_factory=dict, compare=False)


def profile_field(catalog, log_hs, profile="diagonal", seed=0):
    """Field with ||f_hat(xi)||_HS = exp(log_hs[xi]) per class.

    Classes whose target norm underflows double precision are omitted.
    ``diagonal`` puts hs/sqrt(d) on the diagonal, ``dense`` hs/d in
    every entry, and ``random_phase`` a complex Gaussian block rescaled
    to norm hs.  The Gaussians come from one seeded stream in catalog
    order, per class d^2 real parts then d^2 imaginary parts, so a seed
    fixes the field.
    """
    if profile not in PROFILES:
        raise DomainError("unknown profile %r" % (profile,))
    check_int("seed", seed, 0)
    out = CoefficientField(catalog)
    idx = np.flatnonzero(np.array(log_hs) >= math.log(HS_FLOOR))
    # libm exp, not numpy's vectorised one, keeps the bits CPU-independent
    hs = np.array([math.exp(log_hs[i]) for i in idx.tolist()])
    d = catalog.dims[idx]
    n = d * d
    if profile == "diagonal":
        at, values = diagonal_at(catalog, idx), np.repeat(hs / np.sqrt(d), d)
    elif profile == "dense":
        at, values = ranges(catalog.offsets[idx], n), np.repeat(hs / d, n)
    else:
        at = ranges(catalog.offsets[idx], n)
        start = np.cumsum(n) - n
        draws = np.random.default_rng(seed).standard_normal(2 * n.sum())
        real_at = ranges(2 * start, n)
        values = draws[real_at] + 1j * draws[real_at + np.repeat(n, n)]
        # np.linalg.norm per block: written out for 1 x 1, called otherwise
        first = values[start]
        norms = np.sqrt(first.real * first.real + first.imag * first.imag)
        for k in np.flatnonzero(n > 1).tolist():
            norms[k] = np.linalg.norm(values[start[k] : start[k] + n[k]])
        values = values * np.repeat(hs / norms, n)
    out.data[at] = values
    out.present[idx] = True
    return out


def _bracket_rates(catalog, s, B):
    """B <xi>^(1/s) per class in catalog order, inf where the power overflows."""
    check_positive("s", s)
    check_positive("B", B)
    rates = []
    for b in catalog.brackets.tolist():
        try:
            rates.append(B * b ** (1.0 / s))
        except OverflowError:
            rates.append(math.inf)
    return rates


def synthesize_gevrey(catalog, s, B, profile="diagonal", seed=0):
    """Field with ||f_hat(xi)||_HS = exp(-B <xi>^(1/s)) exactly per class.

    Classes whose target norm underflows double precision are omitted
    (they would round to the zero matrix anyway).
    """
    return profile_field(catalog, [-r for r in _bracket_rates(catalog, s, B)], profile, seed)


def bracket_profile(coeffs, hs=None):
    """Per-bracket max of the HS norms over nonzero classes.

    Returns (brackets, log_norms, labels) sorted by ascending bracket,
    with labels recording which class attained each maximum.  Classes
    with norm at or below the underflow floor are dropped.  ``hs`` takes
    the field's hs_norms() when the caller already has them.
    """
    cat = coeffs.catalog
    hs = coeffs.hs_norms() if hs is None else hs
    idx = np.flatnonzero(hs > HS_FLOOR)
    if len(idx) == 0:
        return np.array([]), np.array([]), []
    br, h = cat.brackets[idx], hs[idx]
    # by bracket, then largest norm first, then catalog order: the first
    # class attaining a bracket's maximum is its witness
    order = np.lexsort((-h, br))
    win = order[np.unique(br[order], return_index=True)[1]]
    logs = np.array([math.log(v) for v in h[win].tolist()])
    return br[win], logs, [cat.labels[i] for i in idx[win].tolist()]


def _ls_line(x, y):
    """Least-squares slope/intercept plus the r-squared of the fit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        return 0.0, ym, 0.0
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sst = float(((y - ym) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / sst if sst > 0 else 1.0
    return slope, intercept, r2


def fit_decay(coeffs):
    """Best (s, B, K) over a fixed s-grid by least squares in log-domain.

    For each s the model log||f_hat|| = log K - B <xi>^(1/s) is fitted on
    the per-bracket maxima; the s maximizing r-squared wins, smallest s
    on ties within 1e-12.
    """
    brackets, logs, _ = bracket_profile(coeffs)
    if len(brackets) < 3:
        raise InsufficientDataError(
            "need >= 3 nonzero brackets to fit, have %d" % len(brackets)
        )
    fits = [_ls_line(brackets ** (1.0 / s), logs) for s in S_GRID]
    r2s = np.array([r2 for _, _, r2 in fits])
    idx = int(np.nonzero(r2s >= r2s.max() - 1e-12)[0][0])
    slope, intercept, r2 = fits[idx]
    return DecayModel(float(S_GRID[idx]), -slope, float(intercept), float(r2), len(brackets))


def _pinned(brackets, logs, s):
    if len(brackets) < 3:
        raise InsufficientDataError("need >= 3 nonzero brackets")
    slope, intercept, r2 = _ls_line(brackets ** (1.0 / s), logs)
    return DecayModel(float(s), -slope, float(intercept), r2, len(brackets))


def _verdict(mode, s, margin, witness=None, **fields):
    """The one place verdicts are built: a verdict passes exactly when its
    margin is >= 0, and names a witness only when it fails."""
    passed = bool(margin >= 0.0)
    return GevreyVerdict(mode=mode, s=s, passed=passed, margin=margin,
                         witness_label=None if passed else witness, **fields)


def _check_order(catalog, s):
    """Refuse an order s that is not positive and finite, or so small
    that the slope fits' <xi>^(2/s), summed over the catalog, overflow."""
    check_positive("s", s)
    if 2.0 * math.log(catalog.brackets.max()) / s + math.log(len(catalog)) > LOG_DBL_MAX:
        raise DomainError("s = %r is too small for this catalog: <xi>^(2/s) overflows" % (s,))


def _open_verdict(coeffs, s, mode):
    """What every classifier starts with: the order check, the normalised
    mode, the HS norms in catalog order and, for a zero or trivial-only
    field, the verdict that passes vacuously (else None)."""
    _check_order(coeffs.catalog, s)
    mode = _norm_mode(mode)
    hs = coeffs.hs_norms()
    nonzero = hs > HS_FLOOR
    if not nonzero.any():
        return mode, hs, _verdict(mode, s, math.inf, flags=("zero_field",))
    if (coeffs.catalog.lambda_sq[nonzero] == 0.0).all():
        return mode, hs, _verdict(mode, s, math.inf, flags=("constant_function",))
    return mode, hs, None


def _tertile_slopes(x, logs, labels):
    """Slopes of logs against x fitted on the lower, middle and upper
    thirds, the top-third labels, and how far each top-third point lies
    above the middle-third line."""
    lo, hi = len(x) // 3, 2 * len(x) // 3
    slope_mid, icpt_mid, _ = _ls_line(x[lo:hi], logs[lo:hi])
    excess = logs[hi:] - (slope_mid * x[hi:] + icpt_mid)
    slopes = (_ls_line(x[:lo], logs[:lo])[0], slope_mid, _ls_line(x[hi:], logs[hi:])[0])
    return slopes, labels[hi:], excess


def fourier_side_test(coeffs, s, mode):
    """Membership verdict from the decay of log||f_hat|| vs <xi>^(1/s).

    Decay slopes are fitted on the lower, middle, and upper thirds of the
    bracket range.  Roumieu passes when the upper slope stays positive
    and does not collapse relative to the middle one; Beurling requires
    the slope to strictly grow toward the tail.
    """
    mode, hs, vacuous = _open_verdict(coeffs, s, mode)
    if vacuous is not None:
        return vacuous
    flags = () if s >= 1 else ("s_below_duality_range",)
    brackets, logs, labels = bracket_profile(coeffs, hs)
    x = brackets ** (1.0 / s)
    try:
        model = _pinned(brackets, logs, s)
    except InsufficientDataError:
        model = None
    if len(x) < 9:
        # Too little spectrum for tertile slopes; fall back to one fit.
        if model is None:
            return _verdict(mode, s, -math.inf, labels[-1],
                            flags=flags + ("insufficient_data",))
        margin = model.B - B_MIN if mode == "roumieu" else -math.inf
        return _verdict(mode, s, margin, model=model, flags=flags + ("short_spectrum",))
    slopes, top_labels, excess = _tertile_slopes(x, logs, labels)
    b_lo, b_mid, b_top = (-g for g in slopes)
    # witness: tail class exceeding the extrapolated middle-third decay most
    pick = np.argmax if mode == "roumieu" else np.argmin
    witness = top_labels[int(pick(excess))]
    extras = {"b_lower": b_lo, "b_middle": b_mid, "b_top": b_top}
    if mode == "roumieu":
        margins = [b_top / B_MIN - 1.0]
        if b_mid > 0:
            margins.append(b_top / (ROUMIEU_SLOPE_RATIO * b_mid) - 1.0)
        margin = min(margins)
    else:
        floor = max(b_mid, b_lo, B_MIN)
        margin = b_top / (BEURLING_SLOPE_RATIO * floor) - 1.0
    return _verdict(mode, s, margin, witness, model=model, flags=flags, extras=extras)


def _logsumexp(a):
    """log sum exp(a) of a finite 1-D float array, by the steps of
    scipy.special.logsumexp (scipy 1.17) so the bits agree: the maxima
    are kept out of the shifted sum, which is divided by their count
    unless it is 0."""
    top = a.max(keepdims=True)
    is_top = a == top
    count = is_top.sum(keepdims=True, dtype=float)
    rest = np.exp(np.where(is_top, -math.inf, a) - top).sum(keepdims=True)
    rest = np.where(rest == 0, rest, rest / count)
    return (np.log1p(rest) + np.log(count) + top)[0]


def log_l1_bounds(catalog, hs, idx, powers):
    """For each power p, the logsumexp over the classes ``idx`` of
    1.5 log d + log hs + p log|xi|, the log of the l1 bound on
    ||(-L)^(p/2) f||_inf, and the catalog position of its largest term.

    Classes with |xi| = 0 count only at p = 0; a power no class reaches
    gives (-inf, -1).
    """
    base = 1.5 * np.log(catalog.dims[idx]) + np.log(hs[idx])
    moving = catalog.lambda_sq[idx] > 0.0
    idx_m, base_m = idx[moving], base[moving]
    log_abs = 0.5 * np.log(catalog.lambda_sq[idx_m])
    u, peaks = np.full(len(powers), -math.inf), np.full(len(powers), -1)
    for i, p in enumerate(powers):
        at, terms = (idx, base) if p == 0 else (idx_m, base_m + p * log_abs)
        if len(terms):
            u[i], peaks[i] = _logsumexp(terms), at[np.argmax(terms)]
    return u, peaks


def space_side_test(coeffs, s, mode="roumieu"):
    """Membership verdict from sup-norm bounds of Laplacian powers.

    u_k = log l1-bound of ||(-L)^k f||_inf, k = 1..SPACE_K_MAX, by
    log-sum-exp; rho_k = exp((u_k - s log (2k)!)/(2k)) estimates the
    Gevrey radius A.  Roumieu passes when rho_k stays within a fixed
    window of its early median; Beurling requires a decreasing trend.
    Values of k dominated by the truncation edge are excluded; if too few
    remain the spectrum cannot support the factorial scale: a fail.
    """
    from scipy.special import gammaln  # on use: loading scipy.special costs a start-up 0.3 s
    mode, hs, vacuous = _open_verdict(coeffs, s, mode)
    if vacuous is not None:
        return vacuous
    cat = coeffs.catalog
    flags = () if s >= 1 else ("s_below_duality_range",)
    idx = np.flatnonzero((hs > HS_FLOOR) & (cat.lambda_sq > 0.0))
    ks = np.arange(1, SPACE_K_MAX + 1)
    u, peaks = log_l1_bounds(cat, hs, idx, 2.0 * ks)
    log_rho = (u - s * gammaln(2.0 * ks + 1.0)) / (2.0 * ks)
    rho = np.array([math.exp(v) for v in log_rho.tolist()])
    usable = cat.brackets[peaks] < SATURATION_FRACTION * cat.brackets[idx].max()
    witness = cat.labels[peaks[-1]]
    extras = {"k": ks, "u": u, "rho": rho, "usable": usable}
    early = rho[(ks >= 2) & (ks <= SPACE_K_MAX // 2) & usable]
    late_mask = (ks >= SPACE_K_MAX // 2) & usable
    late = rho[late_mask]
    if int(usable.sum()) < MIN_USABLE_K or len(early) == 0 or len(late) == 0:
        return _verdict(mode, s, -math.inf, witness,
                        flags=flags + ("saturated_spectrum",), extras=extras)
    if mode == "roumieu":
        margin = RHO_WINDOW_FACTOR * float(np.median(early)) / float(late.max()) - 1.0
    else:
        # Beurling-true fields have log rho_k falling like -delta log k;
        # a plateau (boundary Roumieu) flattens out, so fit the late
        # window only, where the small-k transient has decayed.
        slope = _ls_line(np.log(2.0 * ks[late_mask]), np.log(rho[late_mask]))[0]
        margin = (BEURLING_RHO_LOG_SLOPE - slope) / abs(BEURLING_RHO_LOG_SLOPE)
        extras["rho_log_slope"] = slope
    return _verdict(mode, s, margin, witness, flags=flags, extras=extras)


def cross_check(coeffs, s, mode):
    """Run both sides and report whether their verdicts agree."""
    fv = fourier_side_test(coeffs, s, mode)
    sv = space_side_test(coeffs, s, mode=mode)
    return {
        "fourier": fv,
        "space": sv,
        "agree": fv.passed == sv.passed,
        "s": s,
        "mode": _norm_mode(mode),
    }


def _norm_mode(mode):
    m = str(mode).lower()
    if m in ("r", "roumieu"):
        return "roumieu"
    if m in ("b", "beurling"):
        return "beurling"
    raise DomainError("mode must be Roumieu or Beurling, got %r" % (mode,))
