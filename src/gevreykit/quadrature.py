"""Group elements, representation matrices, and exact quadrature grids.

Euler-angle convention for SU(2) and SO(3): an element is written
g = z(alpha) y(beta) z(gamma) where z, y are the one-parameter subgroups
of rotations about the z and y axes.  Representation matrices follow

    D^j_{mn}(alpha, beta, gamma) = exp(-i m alpha) d^j_{mn}(beta)
                                   exp(-i n gamma),

with rows and columns ordered by descending weight m = j, j-1, ..., -j.
With this convention the spin-1/2 matrix coincides with the defining
2x2 unitary and the spin-1 matrix is conjugate to the 3x3 rotation.

Grids integrate products of any two catalog matrix coefficients exactly:
uniform nodes in alpha and gamma, Gauss-Legendre nodes in cos(beta).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError, DomainError

TWO_PI = 2.0 * math.pi


def tree_sum(values):
    """Pairwise reduction with a fixed tree, independent of chunking.

    Used for every accumulation whose result is compared against pinned
    tolerances, so results do not drift with vector length or platform
    summation order.
    """
    arr = np.asarray(values).ravel()
    n = arr.shape[0]
    if n == 0:
        return arr.dtype.type(0) if arr.dtype != object else 0.0
    while n > 1:
        half = n // 2
        arr = np.concatenate([arr[:half] + arr[half : 2 * half], arr[2 * half : n]])
        n = arr.shape[0]
    return arr[0]


# ---------------------------------------------------------------------------
# Wigner little-d matrices


def _d_seed(two_j, two_m, two_n, cb, sb):
    """d^j_{mn} at j = max(|m|, |n|), vectorized over the beta nodes.

    cb, sb are cos(beta/2) and sin(beta/2).
    """
    j = two_j / 2.0
    m = two_m / 2.0
    n = two_n / 2.0
    if two_m == two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j + n + 1) - gammaln(j - n + 1))
        return np.exp(lc) * cb ** (j + n) * (-sb) ** (j - n)
    if two_m == -two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j - n + 1) - gammaln(j + n + 1))
        return np.exp(lc) * cb ** (j - n) * sb ** (j + n)
    if two_n == two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j + m + 1) - gammaln(j - m + 1))
        return np.exp(lc) * cb ** (j + m) * sb ** (j - m)
    if two_n == -two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j - m + 1) - gammaln(j + m + 1))
        return np.exp(lc) * cb ** (j - m) * (-sb) ** (j + m)
    raise DomainError("seed requires |m| = j or |n| = j")


def wigner_d_all(two_jmax, beta):
    """All little-d matrices d^j(beta) for 2j = 0, 1, ..., two_jmax.

    Parameters
    ----------
    two_jmax : int
        Twice the largest spin.
    beta : array_like
        Angles in [0, pi], any shape; the matrices are vectorized over it.

    Returns
    -------
    dict mapping two_j to an array of shape beta.shape + (d, d) with
    d = two_j + 1, rows ordered by descending m.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    cosb = np.cos(beta)
    cb = np.cos(beta / 2.0)
    sb = np.sin(beta / 2.0)
    out = {
        two_j: np.zeros(beta.shape + (two_j + 1, two_j + 1))
        for two_j in range(two_jmax + 1)
    }
    for parity in (0, 1):
        ms = range(-two_jmax + ((two_jmax - parity) % 2), two_jmax + 1, 2)
        pairs = [(tm, tn) for tm in ms for tn in ms]
        for two_m, two_n in pairs:
            two_j0 = max(abs(two_m), abs(two_n))
            if two_j0 > two_jmax:
                continue
            m = two_m / 2.0
            n = two_n / 2.0
            prev = np.zeros_like(beta)
            cur = _d_seed(two_j0, two_m, two_n, cb, sb)
            two_j = two_j0
            while True:
                mat = out[two_j]
                mat[..., (two_j - two_m) // 2, (two_j - two_n) // 2] = cur
                if two_j + 2 > two_jmax:
                    break
                j = two_j / 2.0
                if two_j == 0:
                    nxt = cosb * cur
                else:
                    jp = j + 1.0
                    c1 = (2.0 * j + 1.0) * (j * jp * cosb - m * n)
                    c2 = jp * math.sqrt((j * j - m * m) * (j * j - n * n))
                    den = j * math.sqrt((jp * jp - m * m) * (jp * jp - n * n))
                    nxt = (c1 * cur - c2 * prev) / den
                prev, cur = cur, nxt
                two_j += 2
    return out


def wigner_d_matrix(two_j, beta):
    """Single little-d matrix; convenience wrapper over wigner_d_all."""
    return wigner_d_all(two_j, beta)[two_j]


DSTACK_CACHE_BYTES = 256 * 2**20
_DSTACK_CACHE = {}


def wigner_d_cached(two_jmax, beta):
    """Memoized wigner_d_all for repeated transforms on the same grid.

    The cache keeps at most DSTACK_CACHE_BYTES of stacks, evicting the
    oldest first; a stack larger than the whole budget is not kept.
    """
    key = (two_jmax, beta.tobytes())
    if key in _DSTACK_CACHE:
        return _DSTACK_CACHE[key]
    stack = wigner_d_all(two_jmax, beta)
    if sum(a.nbytes for a in stack.values()) <= DSTACK_CACHE_BYTES:
        _DSTACK_CACHE[key] = stack
        while sum(a.nbytes for st in _DSTACK_CACHE.values() for a in st.values()) > DSTACK_CACHE_BYTES:
            del _DSTACK_CACHE[next(iter(_DSTACK_CACHE))]
    return stack


def rep_matrix(spec, rep, angles):
    """Representation matrix of one catalog class at one group element.

    Torus elements are angle vectors in R^n; SU(2) and SO(3) elements are
    Euler triples (alpha, beta, gamma).
    """
    if spec.family == "torus":
        x = np.atleast_1d(np.asarray(angles, dtype=float))
        if x.shape != (spec.torus_dim,):
            raise DomainError("torus element needs %d angles" % spec.torus_dim)
        k = np.asarray(rep.label, dtype=float)
        return np.array([[np.exp(1j * float(k @ x))]])
    alpha, beta, gamma = (float(a) for a in angles)
    two_j = rep.dim - 1
    d = wigner_d_matrix(two_j, np.array([beta]))[0]
    mvals = (two_j - 2 * np.arange(two_j + 1)) / 2.0
    return np.exp(-1j * mvals[:, None] * alpha) * d * np.exp(-1j * mvals[None, :] * gamma)


# ---------------------------------------------------------------------------
# Element algebra in the defining matrix pictures


def euler_to_su2(angles):
    alpha, beta, gamma = (float(a) for a in angles)
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    return np.array(
        [
            [np.exp(-0.5j * (alpha + gamma)) * c, -np.exp(-0.5j * (alpha - gamma)) * s],
            [np.exp(0.5j * (alpha - gamma)) * s, np.exp(0.5j * (alpha + gamma)) * c],
        ]
    )


def su2_to_euler(u):
    u = np.asarray(u)
    a00 = abs(u[0, 0])
    a10 = abs(u[1, 0])
    beta = 2.0 * math.atan2(a10, a00)
    if a00 > 1e-12:
        ssum = -2.0 * np.angle(u[0, 0])
    else:
        ssum = 0.0
    if a10 > 1e-12:
        sdif = 2.0 * np.angle(u[1, 0])
    else:
        sdif = -ssum
    alpha = 0.5 * (ssum + sdif)
    gamma = 0.5 * (ssum - sdif)
    shift = alpha - (alpha % TWO_PI)
    alpha -= shift
    gamma = (gamma - shift) % (2.0 * TWO_PI)
    return (alpha, beta, gamma)


def euler_to_so3(angles):
    alpha, beta, gamma = (float(a) for a in angles)

    def rz(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(alpha) @ ry(beta) @ rz(gamma)


def so3_to_euler(r):
    r = np.asarray(r)
    sb = math.hypot(r[0, 2], r[1, 2])
    beta = math.atan2(sb, r[2, 2])
    if sb > 1e-12:
        alpha = math.atan2(r[1, 2], r[0, 2])
        gamma = math.atan2(r[2, 1], -r[2, 0])
    else:
        # beta = 0 or pi: only one angle is determined, put it in alpha
        alpha = math.atan2(r[1, 0], r[0, 0]) * (1.0 if r[2, 2] > 0 else -1.0)
        gamma = 0.0
    return (alpha % TWO_PI, beta, gamma % TWO_PI)


def compose_euler(spec, g1, g2):
    """Euler angles of the product of two elements given in Euler angles."""
    if spec.family == "torus":
        return tuple(
            (a + b) % TWO_PI for a, b in zip(np.atleast_1d(g1), np.atleast_1d(g2))
        )
    if spec.family == "su2":
        return su2_to_euler(euler_to_su2(g1) @ euler_to_su2(g2))
    return so3_to_euler(euler_to_so3(g1) @ euler_to_so3(g2))


def identity_element(spec):
    if spec.family == "torus":
        return tuple(0.0 for _ in range(spec.torus_dim))
    return (0.0, 0.0, 0.0)


def random_element(spec, rng):
    """Haar-distributed group element in coordinates."""
    if spec.family == "torus":
        return tuple(rng.uniform(0.0, TWO_PI, size=spec.torus_dim))
    alpha = rng.uniform(0.0, TWO_PI)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    period = 2.0 * TWO_PI if spec.family == "su2" else TWO_PI
    gamma = rng.uniform(0.0, period)
    return (alpha, beta, gamma)


# ---------------------------------------------------------------------------
# Quadrature grids


@dataclass(frozen=True)
class GroupGrid:
    """Product quadrature grid that is exact on a band of the dual.

    For the torus the grid is uniform with ``n_nodes`` points per
    coordinate.  For SU(2) and SO(3) it is the Euler product grid:
    uniform alpha, Gauss-Legendre cos(beta), uniform gamma over one
    gamma-period (4 pi for SU(2), 2 pi for SO(3)).
    """

    spec: object
    band: int
    alpha: np.ndarray
    beta: np.ndarray
    beta_weights: np.ndarray
    gamma: np.ndarray

    @property
    def shape(self):
        if self.spec.family == "torus":
            return (len(self.alpha),) * self.spec.torus_dim
        return (len(self.alpha), len(self.beta), len(self.gamma))

    @property
    def size(self):
        return int(np.prod(self.shape))

    def weights(self):
        """Haar weights broadcast to the grid shape; they sum to 1."""
        if self.spec.family == "torus":
            w = np.full(self.shape, 1.0 / self.size)
            return w
        na, ng = len(self.alpha), len(self.gamma)
        return np.broadcast_to(
            (self.beta_weights / (2.0 * na * ng))[None, :, None], self.shape
        ).copy()

    def mesh(self):
        """Coordinate arrays broadcast to the grid shape."""
        if self.spec.family == "torus":
            axes = [self.alpha] * self.spec.torus_dim
            return np.meshgrid(*axes, indexing="ij")
        return np.meshgrid(self.alpha, self.beta, self.gamma, indexing="ij")


def build_grid(spec, band):
    """Grid exact for products of two coefficients of band-limited data.

    ``band`` is the torus frequency bound |k_i| <= band, twice the top
    spin for SU(2), or the top spin for SO(3).
    """
    band = int(band)
    if band < 0:
        raise DomainError("band must be >= 0")
    if spec.family == "torus":
        n = 2 * band + 1
        nodes = TWO_PI * np.arange(n) / n
        return GroupGrid(
            spec=spec,
            band=band,
            alpha=nodes,
            beta=np.empty(0),
            beta_weights=np.empty(0),
            gamma=nodes,
        )
    if spec.family == "su2":
        gamma_period = 2.0 * TWO_PI
    elif spec.family == "so3":
        gamma_period = TWO_PI
    else:
        raise ConfigurationError("no grid for family %r" % (spec.family,))
    n_alpha = 2 * band + 2
    n_beta = band + 1
    n_gamma = 4 * band + 4
    x, w = np.polynomial.legendre.leggauss(n_beta)
    order = np.argsort(np.arccos(x))
    return GroupGrid(
        spec=spec,
        band=band,
        alpha=TWO_PI * np.arange(n_alpha) / n_alpha,
        beta=np.arccos(x)[order],
        beta_weights=w[order],
        gamma=gamma_period * np.arange(n_gamma) / n_gamma,
    )


def band_for_catalog(catalog):
    """Smallest grid band holding every class of the catalog."""
    spec = catalog.spec
    if spec.family == "torus":
        if len(catalog) == 0:
            return 0
        return int(max(max(abs(c) for c in r.label) for r in catalog))
    return int(max(r.label[0] for r in catalog)) if len(catalog) else 0


def haar_integrate(grid, values):
    """Haar integral of grid samples, deterministic reduction order."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise DomainError("sample shape %r does not match grid %r" % (values.shape, grid.shape))
    return tree_sum(values * grid.weights())


def sample_function(grid, fn):
    """Evaluate a coordinate function on every node of the grid."""
    mesh = grid.mesh()
    return np.asarray(fn(*mesh))
