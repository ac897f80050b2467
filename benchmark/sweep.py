"""Band-scaling sweep: fitted log-log exponents of the grid transforms and
of the Wigner-d stack, with the raw points they are fitted on.

Each point is timed once with the d-stack already cached, so the grid
transforms are timed without the stack build; the Wigner-d points time
wigner_d_all itself on one beta.
"""

import math
import time

import numpy as np

TRANSFORM_BANDS = (("su2", (8, 12, 16, 24)), ("so3", (6, 9, 12)))
WIGNER_TWO_J = (24, 48, 96)
WIGNER_BETA = 1.0


def _bracket(family, label):
    lam_sq = (label / 2.0) * (label / 2.0 + 1.0) if family == "su2" else label * (label + 1.0)
    return math.sqrt(1.0 + lam_sq)


def _midway_cutoff(family, band):
    return 0.5 * (_bracket(family, band) + _bracket(family, band + 1))


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _fit_exponent(points):
    """Common log-log slope over families, one intercept per family."""
    families = sorted({fam for fam, _, _ in points})
    rows = [[math.log(band)] + [1.0 if fam == f else 0.0 for f in families]
            for fam, band, _ in points]
    y = [math.log(sec) for _, _, sec in points]
    coef = np.linalg.lstsq(np.array(rows), np.array(y), rcond=None)[0]
    return float(coef[0])


def band_sweep(m, rng):
    """Per-layer metrics of the sweep, keyed by metric name (seconds or exponent)."""
    out = {}
    points = {"inverse_on_grid": [], "forward_transform": []}
    for family, bands in TRANSFORM_BANDS:
        spec = m.groups.GroupSpec(family)
        for band in bands:
            cat = m.groups.enumerate_dual(spec, _midway_cutoff(family, band))
            if len(cat) != band + 1:
                raise RuntimeError("%s band %d catalog has %d classes" % (family, band, len(cat)))
            grid = m.quadrature.build_grid(spec, band)
            two_band = band if family == "su2" else 2 * band
            m.quadrature.wigner_d_cached(two_band, grid.beta)
            field = m.fourier.CoefficientField(cat)
            for r in cat:
                field[r.label] = rng.standard_normal((r.dim, r.dim)) + 1j * rng.standard_normal(
                    (r.dim, r.dim))
            t_inv, samples = _timed(m.fourier.inverse_on_grid, field, grid)
            t_fwd, _ = _timed(m.fourier.forward_transform, grid, samples, cat)
            tag = "%s_%s%d" % (family, "2j" if family == "su2" else "l", band)
            for fn, sec in (("inverse_on_grid", t_inv), ("forward_transform", t_fwd)):
                points[fn].append((family, band, sec))
                out["fourier.%s.band.%s" % (fn, tag)] = sec
    for fn, pts in points.items():
        out["fourier.%s.band_exp" % fn] = _fit_exponent(pts)
    wigner = []
    for two_j in WIGNER_TWO_J:
        sec, _ = _timed(m.quadrature.wigner_d_all, two_j, np.array([WIGNER_BETA]))
        wigner.append(("d", two_j, sec))
        out["quadrature.wigner_d_all.band.2j%d" % two_j] = sec
    out["quadrature.wigner_d_all.band_exp"] = _fit_exponent(wigner)
    return out
