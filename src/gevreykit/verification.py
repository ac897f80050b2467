"""Reproducible verification suite shared by the CLI and the test gate.

Each check returns a CheckResult with a pass flag and a short detail
string; the quick suite is the acceptance-scale battery and is meant to
finish in well under two minutes on a small desktop machine.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .groups import (
    GroupSpec,
    enumerate_dual,
    exp_dominance_check,
    series_convergence_probe,
    weyl_dimension_report,
)
from .quadrature import band_for_catalog, build_grid, identity_element, random_element
from . import calculus, duality, fourier, gevrey, sphere


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(fn):
    def wrapper():
        t0 = time.perf_counter()
        passed, detail = fn()
        return CheckResult(fn.__name__.removeprefix("check_"), bool(passed), detail,
                           time.perf_counter() - t0)

    return wrapper


def _families():
    """(name, spec, catalog) of T1 to |k| <= 12, T2 to |k| <= 8, SU(2) to
    j = 6 and SO(3) to l = 12."""
    return [(name, spec, enumerate_dual(spec, math.sqrt(1 + lambda_sq)))
            for name, spec, lambda_sq in (("T1", GroupSpec("torus", 1), 12**2),
                                          ("T2", GroupSpec("torus", 2), 8**2),
                                          ("SU2", GroupSpec("su2"), 6.0 * 7.0),
                                          ("SO3", GroupSpec("so3"), 12.0 * 13.0))]


def _random_field(catalog, rng, reps=None):
    """Complex Gaussian blocks on ``reps`` (default every class), in order."""
    f = fourier.CoefficientField(catalog)
    for r in catalog if reps is None else reps:
        f[r.label] = rng.standard_normal((r.dim, r.dim)) + 1j * rng.standard_normal(
            (r.dim, r.dim)
        )
    return f


@_timed
def check_plancherel_inversion():
    rng = np.random.default_rng(100)
    worst_rt = 0.0
    worst_pg = 0.0
    for name, spec, cat in _families():
        grid = build_grid(spec, band_for_catalog(cat))
        for _ in range(20):
            f = _random_field(cat, rng)
            g = _random_field(cat, rng)
            sf = fourier.inverse_on_grid(f, grid)
            sg = fourier.inverse_on_grid(g, grid)
            back = fourier.forward_transform(grid, sf, cat)
            worst_rt = max(
                worst_rt,
                max(np.abs(back[r.label] - f[r.label]).max() for r in cat),
            )
            ip_grid = complex(np.sum(sf * np.conj(sg) * grid.weights()))
            worst_pg = max(worst_pg, abs(ip_grid - fourier.plancherel_inner(f, g)))
    ok = worst_rt < 1e-10 and worst_pg < 1e-10
    return (
        ok,
        "round-trip %.2e, Parseval gap %.2e (tol 1e-10)" % (worst_rt, worst_pg),
    )


@_timed
def check_schur_orthogonality():
    spec = GroupSpec("su2")
    grid = build_grid(spec, 12)
    # every class with 2j <= 12
    cat = enumerate_dual(spec, math.sqrt(1.0 + 6.0 * 7.0))
    ea, eg, d, mi, ni = fourier._euler_entries(cat, grid)
    # the Haar weights are a product, so the Gram of the entries' samples
    # is the product of an alpha, a beta and a gamma Gram
    ga = np.conj(ea) @ ea.T / len(grid.alpha)
    gb = (0.5 * grid.beta_weights * d.T) @ d
    gg = np.conj(eg) @ eg.T / len(grid.gamma)
    gram = ga[np.ix_(mi, mi)] * gb * gg[np.ix_(ni, ni)]
    resid = float(np.abs(gram - np.diag(1.0 / cat.entry_index[2])).max())
    return (
        resid < 1e-11,
        "max residual %.2e over %d coefficient pairs (tol 1e-11)" % (resid, len(mi) ** 2),
    )


@_timed
def check_hausdorff_young():
    rng = np.random.default_rng(200)
    worst = math.inf
    for name, spec, cat in _families():
        grid = build_grid(spec, band_for_catalog(cat))
        for _ in range(50):
            f = _random_field(cat, rng)
            samples = fourier.inverse_on_grid(f, grid)
            gaps = fourier.hausdorff_young_gap(grid, samples, f, samples)
            worst = min(worst, *(hi - lo for lo, hi in gaps))
    return (
        worst >= -1e-9,
        "smallest slack %.2e (allowed >= -1e-9)" % worst,
    )


def matrix_norm_probe(rng, trials):
    """Smallest slack of the entrywise norm comparisons, (p, q) = (1, 2),
    (1, inf), (2, inf), over ``trials`` complex Gaussian d x d matrices
    with d drawn from 1..8."""
    worst = math.inf
    for _ in range(trials):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for p, q in ((1, 2), (1, math.inf), (2, math.inf)):
            worst = min(worst, *fourier.matrix_norm_slacks(a, p, q))
    return worst


@_timed
def check_matrix_norm_lemma():
    worst = matrix_norm_probe(np.random.default_rng(300), 100)
    return (
        worst >= -1e-12,
        "smallest slack %.2e (allowed >= -1e-12)" % worst,
    )


@_timed
def check_series_convergence():
    cat = enumerate_dual(GroupSpec("su2"), 500.0)
    probe2 = series_convergence_probe(cat, 2.0)
    probe15 = series_convergence_probe(cat, 1.5)
    inc2 = probe2["last_relative_increment"]
    inc15 = probe15["last_relative_increment"]
    # increments must decay monotonically once past the first few reps
    tail2 = probe2["terms"][10:]
    mono = bool(np.all(np.diff(tail2) < 0.0))
    # stabilization deepens with the cutoff only in the convergent case
    far = series_convergence_probe(enumerate_dual(GroupSpec("su2"), 1500.0), 2.0)
    ok = inc2 < 1e-5 and inc15 > 1e-4 and mono and far["last_relative_increment"] < 1e-6
    return (
        ok,
        "relative increment t=2.0: %.2e (<1e-5 at 500, %.2e at 1500), "
        "t=1.5: %.2e (>1e-4), monotone %s"
        % (inc2, far["last_relative_increment"], inc15, mono),
    )


@_timed
def check_casimir_factorization():
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 20.0)
    worst_cas = 0.0
    syms = [calculus.vector_field_symbol(cat, j) for j in (1, 2, 3)]
    for rep in cat:
        total = sum(s[rep.label] @ s[rep.label] for s in syms)
        worst_cas = max(
            worst_cas,
            float(np.linalg.norm(total + rep.lambda_sq * np.eye(rep.dim))),
        )
    worst_fac = 0.0
    n = spec.manifold_dim
    for total in range(5):
        for alpha in calculus._multi_indices(n, total):
            word = calculus.canonical_word(alpha)
            k = (len(word) + 2) // 2
            base = calculus.alpha_symbol(word, cat)
            pal = calculus.p_alpha_symbol(word, k, cat)
            for rep in cat:
                if rep.lambda_sq == 0.0:
                    continue
                resid = pal[rep.label] * rep.lambda_sq**k - base[rep.label]
                worst_fac = max(worst_fac, float(np.abs(resid).max()))
    ok = worst_cas < 1e-10 and worst_fac < 1e-10
    return (
        ok,
        "Casimir residual %.2e, factorization residual %.2e (tol 1e-10)"
        % (worst_cas, worst_fac),
    )


@_timed
def check_gevrey_equivalence():
    cat = enumerate_dual(GroupSpec("torus", 1), 6000.0)
    fit_ok = True
    details = []
    disagreements = 0
    combos = 0
    for s0 in (0.5, 1.0, 2.0):
        f = gevrey.synthesize_gevrey(cat, s0, 1.0, "random_phase", seed=42)
        model = gevrey.fit_decay(f)
        good = abs(model.s - s0) / s0 <= 0.05 and abs(model.B - 1.0) <= 0.10
        fit_ok = fit_ok and good
        details.append("s0=%g->s=%.2f,B=%.3f" % (s0, model.s, model.B))
        for s_test in (0.5, 1.0, 2.0, 3.0):
            for mode in ("roumieu", "beurling"):
                combos += 1
                report = gevrey.cross_check(f, s_test, mode)
                if not report["agree"]:
                    disagreements += 1
    ok = fit_ok and disagreements == 0
    return (
        ok,
        "fits [%s]; side disagreements %d/%d" % ("; ".join(details), disagreements, combos),
    )


@_timed
def check_duality():
    rng = np.random.default_rng(400)
    su2 = GroupSpec("su2")
    cat = enumerate_dual(su2, 70.0)
    delta = duality.delta_sequence(cat)
    delta_ok = all(
        duality.ultra_membership_test(delta, s, "roumieu").passed for s in (1.0, 2.0)
    )
    band_cat = enumerate_dual(su2, math.sqrt(1 + 6.0 * 7.0))
    phi = _random_field(cat, rng, band_cat)
    paired = duality.pair(delta, phi)
    at_e = fourier.inverse_transform(phi, [identity_element(su2)])[0]
    pair_err = abs(paired - at_e)
    t1 = GroupSpec("torus", 1)
    gcat = enumerate_dual(t1, 2000.0)
    growth = duality.growth_sequence(gcat, 2.0, 1.0)
    vb = duality.ultra_membership_test(growth, 2.0, "beurling")
    vr = duality.ultra_membership_test(growth, 2.0, "roumieu")
    growth_ok = vb.passed and not vr.passed and vr.witness_label is not None
    ok = delta_ok and pair_err < 1e-9 and growth_ok
    return (
        ok,
        "delta R-dual %s; pairing err %.2e (tol 1e-9); growth B=%s/R=%s witness %s"
        % (delta_ok, pair_err, vb.passed, vr.passed, vr.witness_label),
    )


@_timed
def check_perfectness():
    rng = np.random.default_rng(500)
    spec = GroupSpec("torus", 1)
    cat = enumerate_dual(spec, 14000.0)
    f = gevrey.synthesize_gevrey(cat, 2.0, 1.0, "diagonal", seed=0)
    points = [random_element(spec, rng) for _ in range(5)]
    report = duality.perfectness_roundtrip(f, 2.0, points=points)
    return (
        report["passed"],
        "converged %s, re-synthesis mismatch %.2e (tol 1e-10)"
        % (report["converged"], report["resynthesis_mismatch"]),
    )


@_timed
def check_sphere():
    from scipy.special import sph_harm_y  # on use: loading scipy.special costs a start-up 0.3 s
    rng = np.random.default_rng(600)
    spec = GroupSpec("so3")
    lmax = 10
    cat = enumerate_dual(spec, math.sqrt(1 + lmax * (lmax + 1.0)))
    grid = build_grid(spec, lmax)
    struct = sphere.ClassIStructure(cat)
    bmesh, amesh = np.meshgrid(grid.beta, grid.alpha, indexing="ij")
    worst_rt = 0.0
    worst_leak = 0.0
    for l in range(9):
        for m in range(-l, l + 1):
            ylm = sph_harm_y(l, m, bmesh, amesh)
            lifted = sphere.lift(ylm, grid)
            co = fourier.forward_transform(grid, lifted, cat)
            worst_leak = max(worst_leak, sphere.leakage(co, struct))
            proj = sphere.project_class_one(co, struct)
            pts = [
                (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                for _ in range(5)
            ]
            vals = sphere.sphere_series(proj, struct, pts)
            truth = np.array([sph_harm_y(l, m, p[0], p[1]) for p in pts])
            worst_rt = max(worst_rt, float(np.abs(vals - truth).max()))
    f = gevrey.synthesize_gevrey(cat, 2.0, 1.0, "dense", seed=1)
    pf = sphere.project_class_one(f, struct)
    p2 = sphere.project_class_one(pf, struct)
    idem = all(np.array_equal(pf[r.label], p2[r.label]) for r in cat)
    verdict_eq = True
    for s_test in (1.0, 2.0):
        for mode in ("roumieu", "beurling"):
            v_sphere = sphere.sphere_gevrey_test(pf, struct, s_test, mode)
            v_group = gevrey.fourier_side_test(pf, s_test, mode)
            verdict_eq = verdict_eq and v_sphere.passed == v_group.passed
    ok = worst_rt < 1e-9 and idem and worst_leak < 1e-10 and verdict_eq
    return (
        ok,
        "Y_lm round-trip %.2e (tol 1e-9), leakage %.2e (tol 1e-10), "
        "idempotent %s, verdicts agree %s" % (worst_rt, worst_leak, idem, verdict_eq),
    )


QUICK_CHECKS = [
    check_plancherel_inversion,
    check_schur_orthogonality,
    check_hausdorff_young,
    check_matrix_norm_lemma,
    check_series_convergence,
    check_casimir_factorization,
    check_gevrey_equivalence,
    check_duality,
    check_perfectness,
    check_sphere,
]


@_timed
def check_extended_probes():
    """Extra invariants outside the acceptance gate (full verify only)."""
    rng = np.random.default_rng(700)
    ok = True
    notes = []
    for name, spec, cat in _families():
        rep_ok = exp_dominance_check(cat)
        ok = ok and rep_ok["lower_slack"] >= -1e-12 and rep_ok["upper_slack"] >= -1e-12
        ratio = weyl_dimension_report(cat)["constant"]
        ok = ok and math.isfinite(ratio)
        notes.append("%s dim-ratio %.2f" % (name, ratio))
    # pairing linearity on band-limited fields inside a larger catalog,
    # so the divergence sentinel sees an empty tail
    su2 = GroupSpec("su2")
    cat = enumerate_dual(su2, 70.0)
    small = [r for r in cat if r.bracket <= 6.0]
    delta = duality.delta_sequence(cat)
    worst = 0.0
    for _ in range(50):
        f = _random_field(cat, rng, small)
        g = _random_field(cat, rng, small)
        a, b = rng.standard_normal(2)
        lhs = duality.pair(delta, f.add(g, a, b))
        rhs = a * duality.pair(delta, f) + b * duality.pair(delta, g)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = ok and worst < 1e-9
    notes.append("pairing linearity %.2e" % worst)
    return ok, "; ".join(notes)


FULL_CHECKS = QUICK_CHECKS + [check_extended_probes]


def run_suite(quick=True):
    checks = QUICK_CHECKS if quick else FULL_CHECKS
    return [check() for check in checks]
