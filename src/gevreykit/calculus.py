"""Symbols of left-invariant differential operators and their application.

A symbol assigns to every catalog class a d x d matrix; applying it to a
coefficient field left-multiplies each block.  First-order symbols are
the Lie-algebra representation matrices dxi(X_j); higher operators are
word-ordered products.  The basis is fixed so that on SU(2) the flow of
X_3 is the alpha Euler axis and [X_1, X_2] = X_3.
"""

import math

import numpy as np

from .errors import ContractViolation, DomainError
from .fourier import CoefficientField, plancherel_norm
from .quadrature import tree_sum


class Symbol(CoefficientField):
    """Matrix-valued function on the dual; same block discipline as fields."""


def algebra_dim(spec):
    return spec.torus_dim if spec.family == "torus" else 3


def _angular_momentum(two_j):
    """J_x, J_y, J_z for spin j in the descending-m basis."""
    j = two_j / 2.0
    d = two_j + 1
    m = j - np.arange(d)
    jp = np.zeros((d, d))
    for i in range(1, d):
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1.0))
    jm = jp.T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    jz = np.diag(m).astype(complex)
    return jx, jy, jz


def vector_field_symbol(catalog, j):
    """Symbol of the left-invariant field X_j, i.e. dxi(X_j) per class."""
    spec = catalog.spec
    n = algebra_dim(spec)
    if not 1 <= j <= n:
        raise DomainError("basis index %d outside 1..%d" % (j, n))
    if spec.family == "torus":
        k = np.array(catalog.labels)[:, j - 1]
        return Symbol(catalog, data=1j * k, present=np.ones(len(catalog), dtype=bool))
    return Symbol(catalog, {r.label: -1j * _angular_momentum(r.dim - 1)[j - 1]
                            for r in catalog})


def identity_symbol(catalog):
    return Symbol.identity(catalog)


def canonical_word(alpha):
    """Ascending-letter word realizing the multi-index alpha."""
    word = []
    for letter, count in enumerate(alpha, start=1):
        if count < 0:
            raise DomainError("multi-index entries must be >= 0")
        word.extend([letter] * count)
    return tuple(word)


def word_to_alpha(word, n):
    alpha = [0] * n
    for letter in word:
        if not 1 <= letter <= n:
            raise DomainError("letter %d outside 1..%d" % (letter, n))
        alpha[letter - 1] += 1
    return tuple(alpha)


def alpha_symbol(word, catalog):
    """Word-ordered product of first-order symbols; empty word is identity."""
    sym = identity_symbol(catalog)
    firsts = {letter: vector_field_symbol(catalog, letter) for letter in set(word)}
    for letter in word:
        sym = Symbol(catalog, {r.label: sym[r.label] @ firsts[letter][r.label] for r in catalog})
    return sym


def apply_symbol(sym, coeffs):
    """Blockwise sym[xi] @ coeffs[xi]; spectral action of the operator."""
    if sym.catalog is not coeffs.catalog and sym.catalog.labels != coeffs.catalog.labels:
        raise ContractViolation("symbol and field live on different catalogs")
    return CoefficientField(coeffs.catalog, {l: sym[l] @ coeffs[l] for l in coeffs.labels()})


def laplacian_power_apply(coeffs, k):
    """Multiply each block by |xi|^(2k); kills the trivial class for k >= 1."""
    if k < 0:
        raise DomainError("k must be >= 0")
    factor = np.array([lam**k for lam in coeffs.catalog.lambda_sq.tolist()])
    out = coeffs.class_scaled(factor)
    out.present &= factor != 0.0
    return out


def p_alpha_symbol(word, k, catalog):
    """Symbol |xi|^(-2k) sigma_word on nontrivial classes, zero on trivial.

    Requires 2k > |word| (the factorization regime).
    """
    if 2 * k <= len(word):
        raise DomainError("need 2k > |alpha| (got 2k=%d, |alpha|=%d)" % (2 * k, len(word)))
    factor = [lam ** (-k) if lam != 0.0 else 0.0 for lam in catalog.lambda_sq.tolist()]
    return alpha_symbol(word, catalog).class_scaled(factor)


def sobolev_norm(coeffs, t):
    """(sum d <xi>^(2t) ||f_hat||_HS^2)^(1/2)."""
    dims = coeffs.catalog.dims.astype(float)
    brackets = coeffs.catalog.brackets
    hs = coeffs.hs_norms()
    return math.sqrt(float(tree_sum(dims * brackets ** (2.0 * t) * hs * hs)))


def derivative_l2_profile(coeffs, up_to):
    """L2 norms of every canonical derivative up to total order up_to."""
    if up_to < 0:
        raise DomainError("up_to must be >= 0")
    n = algebra_dim(coeffs.catalog.spec)
    out = {}
    for total in range(up_to + 1):
        for alpha in _multi_indices(n, total):
            sym = alpha_symbol(canonical_word(alpha), coeffs.catalog)
            out[alpha] = plancherel_norm(apply_symbol(sym, coeffs))
    return out


def _multi_indices(n, total):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(n - 1, total - head):
            yield (head,) + rest


def linf_bound(coeffs):
    """l1 dual norm, a certified upper bound for the sup of the synthesis."""
    from .fourier import lp_norm

    return lp_norm(coeffs, 1)


def first_order_constant(catalog):
    """C0 = max_j sup_xi ||dxi(X_j)||_op / <xi> + 1, computed from the catalog."""
    from .fourier import operator_norm

    syms = [vector_field_symbol(catalog, j) for j in range(1, algebra_dim(catalog.spec) + 1)]
    return max(operator_norm(sym[r.label]) / r.bracket for sym in syms for r in catalog) + 1.0
