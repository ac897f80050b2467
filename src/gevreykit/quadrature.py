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
from functools import cached_property

import numpy as np

from . import groups
from .errors import DomainError, ResourceError, check_int

TWO_PI = 2.0 * math.pi
SPIN_PARITIES = {"su2": (0, 1), "so3": (0,)}  # parities of 2j in the dual: SO(3) has integer spins


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


def _d_seeds(tm, tn, cb, sb):
    """d^j_{mn} at j = max(|m|, |n|) for each chain (2m, 2n) = (tm[k], tn[k]), k on the
    last axis; cb, sb are cos(beta/2), sin(beta/2).  Each is exp(lc) cb^p
    (+-sb)^q, lc = (ln(2j)! - ln p! - ln q!) / 2, where (p, q, sign) is (j+n, j-n, -)
    on m = j, (j-n, j+n, +) on m = -j, (j+m, j-m, +) on n = j and (j-m, j+m, -) on
    n = -j, the first border that holds.  ln k! is one gammaln call on k = 0..max 2j.
    """
    from scipy.special import gammaln  # on use: loading scipy.special costs a start-up 0.3 s
    two_j = np.maximum(abs(tm), abs(tn))
    on_m = abs(tm) == two_j
    up = np.where(on_m, tm, tn) == two_j  # the border is m = j or n = j
    p = (two_j + np.where(up, 1, -1) * np.where(on_m, tn, tm)) // 2
    q = two_j - p
    ks = range(int(two_j.max(initial=0)) + 1)
    ln_fact = gammaln(np.arange(1, len(ks) + 1))
    lc = 0.5 * (ln_fact[two_j] - ln_fact[p] - ln_fact[q])
    # a scalar exponent per power keeps numpy's x ** k fast paths, and -sin(beta/2)
    # is raised on its own: a vectorised pow of -x can differ from x in the last bit
    cos_pow, sin_pow, neg_pow = (np.stack([x ** float(k) for k in ks], -1) for x in (cb, sb, -sb))
    return np.exp(lc) * cos_pow[..., p] * np.where(up == on_m, neg_pow[..., q], sin_pow[..., q])


def d_stack_entries(two_jmax):
    """Entries of one beta's little-d stack up to 2j = two_jmax: sum of d^2."""
    return (two_jmax + 1) * (two_jmax + 2) * (2 * two_jmax + 3) // 6


def wigner_d_all(two_jmax, beta, parities=(0, 1), chains=None):
    """Little-d matrices d^j(beta) for 2j = 0, 1, ..., two_jmax of the given parities.

    Each chain (m, n) it builds starts from its closed-form seed at j = max(|m|, |n|), one
    _d_seeds pass per parity, and a three-term recursion steps its 2j by 2: parities never mix.
    What a step needs and no chain changes is formed once: j, j + 1, 2j + 1, j^2, (j + 1)^2
    and j (j + 1) cos(beta) per parity and 2j, and mn, m^2, n^2 per chain.  Each is formed
    by the step's own operations in the same order, so no entry moves by a bit.

    Parameters
    ----------
    two_jmax : int
        Twice the largest spin.
    beta : array_like
        Angles in [0, pi], any shape; the matrices are vectorized over it.
    parities : tuple of 0 and 1
        Parities of 2j to build.
    chains : set of (2m, 2n) pairs, optional
        The chains to build, each at every 2j it reaches; the entries of
        every other chain stay 0.  Default: every chain.

    Returns
    -------
    dict mapping each such two_j to an array of shape beta.shape + (d, d)
    with d = two_j + 1, rows ordered by descending m.  A stack whose full
    count (both parities) is more than groups.FIELD_ENTRY_BUDGET entries
    is refused before it is allocated.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    entries = beta.size * d_stack_entries(two_jmax)
    if entries > groups.FIELD_ENTRY_BUDGET:
        raise ResourceError("a little-d stack up to 2j = %d holds %d entries, more than the %d "
                            "allowed" % (two_jmax, entries, groups.FIELD_ENTRY_BUDGET))
    cosb, cb, sb = np.cos(beta), np.cos(beta / 2.0), np.sin(beta / 2.0)
    out = {two_j: np.zeros(beta.shape + (two_j + 1, two_j + 1))
           for two_j in range(two_jmax + 1) if two_j % 2 in parities}
    for parity in parities:
        ms = range(-two_jmax + ((two_jmax - parity) % 2), two_jmax + 1, 2)
        built = [(tm, tn) for tm in ms for tn in ms if chains is None or (tm, tn) in chains]
        seeds = _d_seeds(*np.array(built, int).reshape(-1, 2).T, cb, sb)
        steps = {}  # 2j > 0: the parts of its step that no chain changes
        for two_j in range(2 - parity, two_jmax - 1, 2):
            j = two_j / 2.0
            jp = j + 1.0
            steps[two_j] = (j, jp, 2.0 * j + 1.0, j * j, jp * jp, j * jp * cosb)
        for k, (two_m, two_n) in enumerate(built):
            two_j = max(abs(two_m), abs(two_n))
            m, n = two_m / 2.0, two_n / 2.0
            mn, mm, nn = m * n, m * m, n * n
            # a scalar zero, not an array: c1 * cur - 0.0 is c1 * cur bit for bit, -0.0 included
            prev, cur = 0.0, seeds[..., k]
            while True:
                out[two_j][..., (two_j - two_m) // 2, (two_j - two_n) // 2] = cur
                if two_j + 2 > two_jmax:
                    break
                if two_j == 0:
                    nxt = cosb * cur
                else:
                    j, jp, odd, jj, jpjp, jjc = steps[two_j]
                    c1 = odd * (jjc - mn)
                    c2 = jp * math.sqrt((jj - mm) * (jj - nn))
                    den = j * math.sqrt((jpjp - mm) * (jpjp - nn))
                    nxt = (c1 * cur - c2 * prev) / den
                prev, cur = cur, nxt
                two_j += 2
    return out


# one alias kept for the benchmark's band sweep, which calls this name (ROADMAP item 1)
wigner_d_cached = wigner_d_all


def _point_rows(points, width, refusal):
    """The points as float rows of ``width`` angles, refused with DomainError
    before any work: ``refusal.format(i)`` where point i is not such a row,
    or where it has a non-finite angle."""
    rows = np.empty((len(points), width))
    for i, x in enumerate(points):
        try:
            row = np.atleast_1d(np.asarray(x, dtype=float))
        except (TypeError, ValueError):
            row = None
        if row is None or row.shape != (width,):
            raise DomainError(refusal.format(i))
        if not np.isfinite(row).all():
            raise DomainError("point %d has a non-finite angle" % i)
        rows[i] = row
    return rows


def rep_matrix(spec, rep, angles):
    """Representation matrix of one catalog class at one group element.

    Torus elements are angle vectors in R^n; SU(2) and SO(3) elements are
    Euler triples (alpha, beta, gamma).
    """
    if spec.family == "torus":
        x = _point_rows([angles], spec.torus_dim, "torus element needs %d angles" % spec.torus_dim)
        return np.array([[np.exp(1j * float(np.asarray(rep.label, dtype=float) @ x[0]))]])
    alpha, beta, gamma = _point_rows([angles], 3, "point {} is not an Euler triple "
                                     "(alpha, beta, gamma)")[0].tolist()
    two_j = rep.dim - 1
    d = wigner_d_all(two_j, np.array([beta]), (two_j % 2,))[two_j][0]
    mvals = (two_j - 2 * np.arange(two_j + 1)) / 2.0
    return np.exp(-1j * mvals[:, None] * alpha) * d * np.exp(-1j * mvals[None, :] * gamma)


# ---------------------------------------------------------------------------
# Group elements


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

    @cached_property
    def euler_tables(self):
        """exp(+i m alpha), exp(+i n gamma) for 2m, 2n in [-T, T], T the top 2j (band
        on SU(2), 2 band on SO(3)), and the little-d stack up to T of the dual's
        parities; built on first use, SU(2) and SO(3) only, every array read-only."""
        two_band = 2 * self.band if self.spec.family == "so3" else self.band
        twice = np.arange(-two_band, two_band + 1)
        ea = np.exp(0.5j * np.outer(twice, self.alpha))
        eg = np.exp(0.5j * np.outer(twice, self.gamma))
        dstack = wigner_d_all(two_band, self.beta, SPIN_PARITIES[self.spec.family])
        for arr in (ea, eg, *dstack.values()):
            arr.flags.writeable = False
        return ea, eg, dstack


def build_grid(spec, band):
    """Grid exact for products of two coefficients of band-limited data.

    ``band`` is the torus frequency bound |k_i| <= band, twice the top
    spin for SU(2), or the top spin for SO(3).  A grid of more than
    groups.GRID_SAMPLE_BUDGET nodes is refused before it is built.
    """
    band = check_int("band", band, 0)
    n = 2 * band + 1
    size = n**spec.torus_dim if spec.family == "torus" else 8 * (band + 1) ** 3
    if size > groups.GRID_SAMPLE_BUDGET:
        raise ResourceError("a grid of band %d holds %d nodes, more than the %d allowed"
                            % (band, size, groups.GRID_SAMPLE_BUDGET))
    if spec.family == "torus":
        nodes = TWO_PI * np.arange(n) / n
        return GroupGrid(
            spec=spec,
            band=band,
            alpha=nodes,
            beta=np.empty(0),
            beta_weights=np.empty(0),
            gamma=nodes,
        )
    gamma_period = 2.0 * TWO_PI if spec.family == "su2" else TWO_PI
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
    """Smallest grid band holding every class of the catalog: the largest
    |label entry|, which is |k_i| on the torus and the label otherwise."""
    return int(np.abs(np.array(catalog.labels)).max(initial=0))


def sample_function(grid, fn):
    """Evaluate a coordinate function on every node of the grid."""
    mesh = grid.mesh()
    return np.asarray(fn(*mesh))
