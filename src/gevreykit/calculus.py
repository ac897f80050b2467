"""Symbols of left-invariant differential operators and their application.

A symbol assigns to every catalog class a d x d matrix; applying it to a
coefficient field left-multiplies each block.  First-order symbols are
the Lie-algebra representation matrices dxi(X_j); higher operators are
word-ordered products.  The basis is fixed so that on SU(2) the flow of
X_3 is the alpha Euler axis and [X_1, X_2] = X_3.
"""

import math

import numpy as np

from .errors import DomainError, check_finite, check_in_range, check_int
from .fourier import CoefficientField, _require_same_catalog, lp_norm, operator_norm
from .quadrature import tree_sum


class Symbol(CoefficientField):
    """Matrix-valued function on the dual; same block discipline as fields."""


def vector_field_symbol(catalog, j):
    """Symbol of the left-invariant field X_j, i.e. dxi(X_j) per class."""
    spec = catalog.spec
    n = spec.manifold_dim
    if check_int("j", j, 1) > n:
        raise DomainError("basis index %d outside 1..%d" % (j, n))
    if spec.family == "torus":
        k = np.array(catalog.labels)[:, j - 1]
        return Symbol(catalog, data=1j * k, present=np.ones(len(catalog), dtype=bool))
    # -i J_x, -i J_y, -i J_z of spin j in the descending-m basis, packed;
    # J_+ raises column n to row n + 1 and J_- is its transpose
    row, col, _ = catalog.entry_index
    two_j, two_m, two_n = catalog.entry_weights
    spin, n = two_j / 2.0, two_n / 2.0
    jp = np.where(col == row + 1, np.sqrt(spin * (spin + 1) - n * (n + 1.0)), 0.0)
    jm = jp[catalog.transposed]
    jz = np.where(row == col, two_m / 2.0, 0.0).astype(complex)
    ang = ((jp + jm) / 2.0, (jp - jm) / 2.0j, jz)[j - 1]
    return Symbol(catalog, data=-1j * ang, present=np.ones(len(catalog), dtype=bool))


def canonical_word(alpha):
    """Ascending-letter word realizing the multi-index alpha."""
    word = []
    for letter, count in enumerate(alpha, start=1):
        if count < 0:
            raise DomainError("multi-index entries must be >= 0")
        word.extend([letter] * count)
    return tuple(word)


def alpha_symbol(word, catalog):
    """Word-ordered product of first-order symbols; empty word is identity."""
    sym = Symbol.identity(catalog)
    firsts = {letter: vector_field_symbol(catalog, letter) for letter in set(word)}
    for letter in word:
        sym = Symbol(catalog, {r.label: sym[r.label] @ firsts[letter][r.label] for r in catalog})
    return sym


def apply_symbol(sym, coeffs):
    """Blockwise sym[xi] @ coeffs[xi]; spectral action of the operator."""
    _require_same_catalog(sym, coeffs)
    return CoefficientField(coeffs.catalog, {l: sym[l] @ coeffs[l] for l in coeffs.labels()})


def laplacian_power_apply(coeffs, k):
    """Multiply each block by |xi|^(2k); kills the trivial class for k >= 1."""
    what = "k = %r" % check_int("k", k, 0)
    lam = coeffs.catalog.lambda_sq
    try:
        factor = np.array([x**k for x in lam.tolist()])
    except OverflowError:
        raise DomainError("%s takes the result outside the double range" % what) from None
    with np.errstate(over="ignore"):
        out = coeffs.class_scaled(factor)
    kept = np.repeat((lam != 0) | (k == 0), np.diff(coeffs.catalog.offsets))
    check_in_range(what, out.data, nonzero=bool(coeffs.data[kept].any()))
    out.present &= factor != 0.0
    return out


def p_alpha_symbol(word, k, catalog):
    """Symbol |xi|^(-2k) sigma_word on nontrivial classes, zero on trivial.

    Requires 2k > |word| (the factorization regime).
    """
    if 2 * check_int("k", k, 0) <= len(word):
        raise DomainError("need 2k > |alpha| (got 2k=%d, |alpha|=%d)" % (2 * k, len(word)))
    factor = [lam ** (-k) if lam != 0.0 else 0.0 for lam in catalog.lambda_sq.tolist()]
    return alpha_symbol(word, catalog).class_scaled(factor)


def sobolev_norm(coeffs, t):
    """(sum d <xi>^(2t) ||f_hat||_HS^2)^(1/2)."""
    check_finite("t", t)
    dims = coeffs.catalog.dims.astype(float)
    brackets = coeffs.catalog.brackets
    hs = coeffs.hs_norms()
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(float(tree_sum(dims * brackets ** (2.0 * t) * hs * hs)))
    return check_in_range("t = %r" % t, norm, nonzero=bool(hs.any()))


def _multi_indices(n, total):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(n - 1, total - head):
            yield (head,) + rest


def linf_bound(coeffs):
    """l1 dual norm, a certified upper bound for the sup of the synthesis."""
    return lp_norm(coeffs, 1)


def first_order_constant(catalog):
    """C0 = max_j sup_xi ||dxi(X_j)||_op / <xi> + 1, computed from the catalog."""
    syms = [vector_field_symbol(catalog, j) for j in range(1, catalog.spec.manifold_dim + 1)]
    return max(operator_norm(sym[r.label]) / r.bracket for sym in syms for r in catalog) + 1.0
