"""Forward/inverse Fourier transform on the group and the dual norms.

Coefficient fields hold one complex d x d matrix per catalog class; the
forward transform computes f_hat(xi) = integral of f(x) xi(x)* dx and the
inversion formula is f(x) = sum_xi d_xi Tr(xi(x) f_hat(xi)).

Grid transforms exploit the product structure of the Euler grid: the
alpha and gamma phases are applied once for all classes, and the
little-d factor is one value per packed entry and beta node, so the
forward transform is one gather and one weighted sum over beta and the
inverse is one scatter of every entry in catalog order.

The pointwise series (inverse_transform) forms each class at a slice of
points at once on every family, bit for bit rep_matrix point by point.
Its little-d stack holds only the chains the coefficients meet: a
class-I field on SO(3) reads the column d^l_{m0} alone.
"""

import math

import numpy as np

from . import groups
from .errors import (ContractViolation, DomainError, ResourceError, check_finite, check_in_range,
                     check_norm_exponent)
from .quadrature import (SPIN_PARITIES, _point_rows, band_for_catalog, d_stack_entries, tree_sum,
                         wigner_d_all)

SERIES_SLICE_ENTRIES = 1 << 18  # per array of an inverse_transform slice: 4 MB complex
LOG_DBL_MAX = math.log(np.finfo(float).max)
DBL_TINY = np.finfo(float).tiny  # numpy divides a complex by a real x via 1 / x: overflows below


class CoefficientField:
    """Finite map from catalog classes to coefficient matrices.

    Storage is packed: ``data`` is one flat complex array holding class
    i's d x d block row-major at ``catalog.offsets[i]``, and ``present``
    marks the classes that hold a block; the entries of absent classes
    are zero.  Missing labels mean the zero matrix.  ``field[label]``
    hands out a read-only view; write through ``field[label] = mat``.
    Two fields are compatible only when built on the same catalog;
    cross-catalog arithmetic is refused rather than zero-padded.  A
    catalog whose fields would hold more than groups.FIELD_ENTRY_BUDGET
    entries is refused.
    """

    def __init__(self, catalog, blocks=None, data=None, present=None):
        entries = int(catalog.offsets[-1])
        if entries > groups.FIELD_ENTRY_BUDGET:
            raise ResourceError("a field on this catalog holds %d entries, more than the %d allowed"
                                % (entries, groups.FIELD_ENTRY_BUDGET))
        self.catalog = catalog
        self.data = np.zeros(catalog.offsets[-1], dtype=complex) if data is None else data
        self.present = np.zeros(len(catalog), dtype=bool) if present is None else present
        for label, mat in (blocks or {}).items():
            self[label] = mat

    @classmethod
    def identity(cls, catalog):
        """The identity matrix on every class."""
        out = cls(catalog, present=np.ones(len(catalog), dtype=bool))
        out.data[diagonal_at(catalog, np.arange(len(catalog)))] = 1.0
        return out

    def __setitem__(self, label, mat):
        i = self.catalog.position(label)
        d = int(self.catalog.dims[i])
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (d, d):
            raise ContractViolation(
                "matrix for %r must be %dx%d, got %r" % (tuple(label), d, d, mat.shape)
            )
        self.data[self.catalog.offsets[i] : self.catalog.offsets[i + 1]] = mat.ravel()
        self.present[i] = True

    def __getitem__(self, label):
        i = self.catalog.position(label)
        d = int(self.catalog.dims[i])
        if not self.present[i]:
            return np.zeros((d, d), dtype=complex)
        view = self.data[self.catalog.offsets[i] : self.catalog.offsets[i + 1]].reshape(d, d)
        view.flags.writeable = False
        return view

    def __contains__(self, label):
        return self.catalog.contains(label) and bool(self.present[self.catalog.position(label)])

    def labels(self):
        """Labels with stored blocks, in catalog order."""
        return [self.catalog.labels[i] for i in np.flatnonzero(self.present).tolist()]

    def _packed(self, data, present):
        data = np.where(np.repeat(present, np.diff(self.catalog.offsets)), data, 0)
        return type(self)(self.catalog, data=data, present=present)

    def copy(self):
        return self._packed(self.data, self.present.copy())

    def scaled(self, c):
        check_finite("c", c)
        return self._packed(c * self.data, self.present.copy())

    def class_scaled(self, factor):
        """Every class's block times that class's entry of ``factor``."""
        return self._packed(self.data * np.repeat(factor, np.diff(self.catalog.offsets)),
                            self.present.copy())

    def add(self, other, a=1.0, b=1.0):
        check_finite("a", a)
        check_finite("b", b)
        _require_same_catalog(self, other)
        return self._packed(a * self.data + b * other.data, self.present | other.present)

    def hs_norms(self):
        """hs_norm of every class's block in catalog order, 0 where absent, refused naming
        a class past the double range; 1 x 1 blocks take its steps array-wide, bit for bit."""
        cat = self.catalog
        z = self.data[cat.offsets[:-1]]
        out = np.abs(z)
        ok = (out > 0.0) & np.isfinite(out)
        peak = np.maximum(out[ok], DBL_TINY)
        z = z[ok] / peak
        out[ok] = peak * np.sqrt(z.real * z.real + z.imag * z.imag)
        for i in np.flatnonzero(self.present & (cat.dims > 1)).tolist():
            out[i] = _hs_norm(self[cat.labels[i]])
        out = np.where(self.present, out, 0.0)
        return check_in_range("class %r's HS norm" % (cat.labels[np.isfinite(out).argmin()],), out)


def ranges(starts, sizes):
    """np.concatenate([np.arange(a, a + n) for a, n in zip(starts, sizes)])."""
    sizes = np.asarray(sizes)
    return np.arange(sizes.sum()) + np.repeat(np.asarray(starts) - np.cumsum(sizes) + sizes, sizes)


def diagonal_at(catalog, idx):
    """Packed positions offsets[i] + k (d + 1), k < d, of the diagonals of classes idx."""
    d = catalog.dims[idx]
    return ranges(catalog.offsets[idx], d) + ranges(0 * d, d) * np.repeat(d, d)


def _require_same_catalog(a, b):
    if a.catalog is not b.catalog and (
        a.catalog.spec != b.catalog.spec or a.catalog.labels != b.catalog.labels
    ):
        raise ContractViolation("coefficient fields live on different catalogs")


def _check_band(grid, catalog):
    need = band_for_catalog(catalog)
    if grid.spec != catalog.spec:
        raise ContractViolation("grid group %r differs from catalog group %r"
                                % (grid.spec, catalog.spec))
    if grid.band < need:
        raise ContractViolation(
            "grid band %d does not cover catalog band %d" % (grid.band, need)
        )


def _euler_entries(catalog, grid):
    """The grid's phase tables exp(+i m alpha) and exp(+i n gamma), 2m and
    2n in [-T, T] (GroupGrid.euler_tables); the little-d value of every
    packed entry of the catalog on the grid's betas, shape (n_beta,
    entries); and each entry's m and n row of those tables."""
    ea, eg, dstack = grid.euler_tables
    d = np.concatenate([dstack[t].reshape(len(grid.beta), -1)
                        for t in (catalog.dims - 1).tolist()], axis=1)
    _, two_m, two_n = catalog.entry_weights
    two_band = len(ea) // 2
    return ea, eg, d, two_band + two_m, two_band + two_n


def _torus_index(catalog, grid):
    """FFT-grid index of every torus class, in catalog order."""
    return tuple((np.array(catalog.labels) % len(grid.alpha)).T)


def forward_transform(grid, samples, catalog):
    """Fourier coefficients of grid samples against every catalog class."""
    _check_band(grid, catalog)
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != grid.shape:
        raise ContractViolation(
            "sample shape %r does not match grid shape %r" % (samples.shape, grid.shape)
        )
    if catalog.spec.family == "torus":
        spectrum = np.fft.fftn(samples) / samples.size
        return CoefficientField(catalog, data=spectrum[_torus_index(catalog, grid)],
                                present=np.ones(len(catalog), dtype=bool))
    ea, eg, d, mi, ni = _euler_entries(catalog, grid)
    # t1[m, b, g] = mean over alpha of e^{i m alpha} f;  t2 adds the gamma mean
    t1 = np.einsum("ma,abg->mbg", ea, samples) / len(grid.alpha)
    t2 = np.einsum("ng,mbg->mbn", eg, t1) / len(grid.gamma)
    coef = np.einsum("be,eb->e", 0.5 * grid.beta_weights[:, None] * d, t2[mi, :, ni])
    # xi(x)* is the conjugate transpose, so entry (m,n) of f_hat pairs
    # with the conjugate of coefficient (n,m)
    return CoefficientField(catalog, data=coef[catalog.transposed],
                            present=np.ones(len(catalog), dtype=bool))


def inverse_on_grid(coeffs, grid):
    """Synthesize the inversion series on every node of the grid."""
    cat = coeffs.catalog
    _check_band(grid, cat)
    if cat.spec.family == "torus":
        spectrum = np.zeros(grid.shape, dtype=complex)
        spectrum[_torus_index(cat, grid)] = coeffs.data
        return np.fft.ifftn(spectrum) * spectrum.size
    ea, eg, d, mi, ni = _euler_entries(cat, grid)
    acc = np.zeros((len(ea), len(grid.beta), len(eg)), dtype=complex)
    # Tr(xi(x) f_hat) pairs entry (m,n) of xi with entry (n,m) of f_hat;
    # classes add in catalog order
    np.add.at(acc, (mi, slice(None), ni),
              (cat.entry_index[2] * (d * coeffs.data[cat.transposed])).T)
    return np.einsum("ma,mbn,ng->abg", np.conj(ea), acc, np.conj(eg))


def _slices(idx, width, entries=None):
    step = max(1, (entries or SERIES_SLICE_ENTRIES) // width)  # rows per piece, at least 1
    return [idx[lo : lo + step] for lo in range(0, len(idx), step)]


def inverse_transform(coeffs, points):
    """Evaluate the inversion series at a list of group elements.

    The points are checked first.  Each class's term d Tr(xi(x) f_hat) is
    a stacked matmul over a slice of points whose arrays hold at most
    SERIES_SLICE_ENTRIES entries, and each point's terms add by tree_sum
    in catalog order.  SU(2) and SO(3) build one little-d stack up to the
    top present 2j of the family's parities over the distinct betas, in
    chunks whose full-stack count stays within the field budget.  The
    stack holds only the (m, n) chains that meet a nonzero entry (n, m)
    of a present class; every other entry is 0 and meets only 0s.
    """
    cat = coeffs.catalog
    torus = cat.spec.family == "torus"
    rows = _point_rows(points, cat.spec.torus_dim if torus else 3,
                       "torus element needs %d angles" % cat.spec.torus_dim if torus
                       else "point {} is not an Euler triple (alpha, beta, gamma)")
    values = np.zeros(len(rows), dtype=complex)
    present = np.flatnonzero(coeffs.present)
    if not len(present):
        return values
    if torus:
        # exp(i k.x) and its product with each 1 x 1 block as stacked matmuls
        k = np.array(cat.labels, dtype=float)[present, None, :]
        f = coeffs.data[cat.offsets[present], None, None]
        for at in _slices(np.arange(len(rows)), len(present)):
            terms = cat.dims[present] * (np.exp(1j * (k @ rows[at, None, :, None])) @ f)[..., 0, 0]
            values[at] = [tree_sum(row) for row in terms]
        return values
    top = int(cat.dims[present].max()) - 1
    # Tr(xi(x) f_hat) reads chain (m, n) of xi against entry (n, m) of f_hat: build the
    # chains that meet a nonzero entry; the rest stay 0 and only ever multiply a 0
    _, two_m, two_n = cat.entry_weights
    met = (coeffs.data != 0) & np.repeat(coeffs.present, np.diff(cat.offsets))
    chains = set(zip(two_n[met].tolist(), two_m[met].tolist()))
    # distinct betas by bit pattern, so -0.0 keeps its own d matrices
    bits, where = np.unique(rows[:, 1].view(np.int64), return_inverse=True)
    for betas in _slices(np.arange(len(bits)), d_stack_entries(top), groups.FIELD_ENTRY_BUDGET):
        stack = wigner_d_all(top, bits[betas].view(float), SPIN_PARITIES[cat.spec.family], chains)
        for at in _slices(np.flatnonzero((where >= betas[0]) & (where <= betas[-1])), (top + 1) ** 2):
            alpha, gamma = rows[at, 0, None, None], rows[at, 2, None, None]
            terms = np.empty((len(at), len(present)), dtype=complex)
            for j, i in enumerate(present.tolist()):
                d = int(cat.dims[i])
                m = (d - 1 - 2 * np.arange(d)) / 2.0
                xi = (np.exp(-1j * m[:, None] * alpha) * stack[d - 1][where[at] - betas[0]]
                      * np.exp(-1j * m[None, :] * gamma))
                terms[:, j] = d * np.trace(xi @ coeffs[cat.labels[i]], axis1=1, axis2=2)
            values[at] = [tree_sum(row) for row in terms]
    return values


def plancherel_inner(f, g):
    """Plancherel inner product sum_xi d_xi Tr(f_hat g_hat*)."""
    _require_same_catalog(f, g)
    terms = f.catalog.dims * np.add.reduceat(f.data * g.data.conj(), f.catalog.offsets[:-1])
    terms = terms[f.present | g.present]
    return tree_sum(terms) if len(terms) else 0.0 + 0.0j


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


def _exp(v):
    """e^v, or inf past the double range."""
    return math.inf if v > LOG_DBL_MAX else math.exp(v)


def _dual_lp_norm(coeffs, p, what, log_weight=None):
    """(sum_xi w_xi d_xi^(p(2/p - 1/2)) ||f_hat(xi)||_HS^p)^(1/p), w = e^log_weight, at finite
    p, as e^(m + L/p): L is the _logsumexp of p (x - m), x_xi the log of each term's p-th root
    and m the largest x.  Terms e^1000 below it add 0 to L and are left out, so p (x - m) is
    finite.  A norm past the double range is refused with check_in_range(what, ...)."""
    hs = coeffs.hs_norms()
    at = hs > 0.0
    x = (2.0 / p - 0.5) * np.log(coeffs.catalog.dims[at]) + np.log(hs[at])
    if log_weight is not None:
        x = x + log_weight[at] / p
    top = x.max(initial=-math.inf)
    if math.isfinite(top):
        top = top + _logsumexp(p * (x[x - top > -1e3 / p] - top)) / p
    return check_in_range(what, _exp(top), nonzero=bool(at.any()))


def plancherel_norm(coeffs):
    """(sum_xi d_xi ||f_hat(xi)||_HS^2)^(1/2), the dual norm at p = 2."""
    return _dual_lp_norm(coeffs, 2, "coeffs")


def lp_norm(coeffs, p):
    """Norm in l^p of the dual with the dimension weight d^(p(2/p - 1/2));
    p = infinity uses sup over classes of d^(-1/2) ||f_hat||_HS."""
    what = "p = %r on these coeffs" % check_norm_exponent("p", p)
    if p < math.inf:
        return _dual_lp_norm(coeffs, p, what)
    hs = coeffs.hs_norms()
    norm = float((hs / np.sqrt(coeffs.catalog.dims)).max(initial=0.0))
    return check_in_range(what, norm, nonzero=bool(hs.any()))


def hausdorff_young_gap(grid, samples, coeffs, synth):
    """Both sides of the two Hausdorff-Young inequalities, from f sampled on
    the grid, f_hat ~ coeffs and the caller's synth = inverse_on_grid(coeffs, grid).
    Returns ((||f_hat||_{l inf}, ||f||_{L1}),
             (max |synth| on the grid, ||coeffs||_{l1})).
    The caller asserts first <= second in each pair.
    """
    l1_f = float(tree_sum(np.abs(samples) * grid.weights()).real)
    linf_dual = lp_norm(coeffs, math.inf)
    sup_f = float(np.abs(synth).max())
    l1_dual = lp_norm(coeffs, 1)
    return (linf_dual, l1_f), (sup_f, l1_dual)


# ---------------------------------------------------------------------------
# Matrix norms on a single coefficient block


def matrix_lp_norm(a, p):
    """Entrywise l^p norm of a matrix, scaled by its largest |entry| and refused as hs_norm is."""
    a = np.abs(np.asarray(a))
    check_norm_exponent("p", p)
    peak = float(a.max()) if a.size else 0.0
    if p == math.inf or peak == 0.0 or not math.isfinite(peak):
        return peak
    return check_in_range("p = %r" % p, peak * float(np.sum((a / peak) ** p) ** (1.0 / p)))


def _hs_norm(a):
    """Unchecked hs_norm: inf past the double range; the peak |entry| if 0 or not finite."""
    a = np.asarray(a)
    peak = float(np.abs(a).max()) if a.size else 0.0
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    peak = max(peak, DBL_TINY)
    return peak * float(np.linalg.norm(a / peak))


def hs_norm(a):
    """Hilbert-Schmidt norm; a non-finite block or a norm past the double range is refused."""
    return check_in_range("the HS norm of this matrix", _hs_norm(a))


def operator_norm(a):
    """Largest singular value."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def matrix_norm_slacks(a, p, q):
    """Slack of the two entrywise norm comparisons for p < q.

    Checks ||a||_p <= d^(2(1/p - 1/q)) ||a||_q and
           ||a||_q <= d^(2/q) ||a||_p, returning both right-minus-left
    differences (nonnegative means the inequality holds).
    """
    a = np.asarray(a)
    d = a.shape[0]
    np_ = matrix_lp_norm(a, p)
    nq = matrix_lp_norm(a, q)
    inv_p = 0.0 if p == math.inf else 1.0 / p
    inv_q = 0.0 if q == math.inf else 1.0 / q
    if not inv_p > inv_q:
        raise DomainError("need p < q")
    first = d ** (2.0 * (inv_p - inv_q)) * nq - np_
    second = d ** (2.0 * inv_q) * np_ - nq
    return first, second
