"""Unitary dual catalogs for the supported compact groups.

Supported families: the torus T^n (any n >= 1), SU(2), and SO(3).
Each irreducible representation is recorded with an integer label, its
matrix dimension, its Laplace eigenvalue lambda^2, and the weight
bracket = sqrt(1 + lambda^2) used everywhere for decay estimates.

Label conventions:
  torus  : the frequency vector k in Z^n.
  su2    : twice the spin, an integer ell >= 0, dimension ell + 1.
  so3    : the integer spin l >= 0, dimension 2l + 1.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, DomainError, ResourceError, check_finite, check_in_range,
                     check_int)

FAMILIES = ("torus", "su2", "so3")

# Most candidate labels enumerate_dual may examine for one catalog
CATALOG_CANDIDATE_BUDGET = 1 << 20
# Most packed entries (sum of d^2 over the catalog) one coefficient field
# may hold; catalogs may be larger as long as no field is built on them.
# Also the most entries of one little-d stack, over all its betas
FIELD_ENTRY_BUDGET = 1 << 25
# Most nodes one quadrature grid may hold
GRID_SAMPLE_BUDGET = 1 << 24


@dataclass(frozen=True)
class RepInfo:
    """One equivalence class of irreducible unitary representations."""

    label: tuple
    dim: int
    lambda_sq: float

    @property
    def bracket(self):
        return math.sqrt(1.0 + self.lambda_sq)


@dataclass(frozen=True)
class GroupSpec:
    """Identifies a group: family name plus torus dimension when relevant."""

    family: str
    torus_dim: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError("unknown group family: %r" % (self.family,))
        check_int("torus_dim", self.torus_dim, 1)

    @property
    def manifold_dim(self):
        if self.family == "torus":
            return self.torus_dim
        return 3

    @property
    def rank(self):
        if self.family == "torus":
            return self.torus_dim
        return 1

    @property
    def min_nonzero_lambda_sq(self):
        """lambda_1^2, the smallest nonzero Laplace eigenvalue."""
        if self.family == "torus":
            return 1.0
        if self.family == "su2":
            return 0.75
        return 2.0


@dataclass(frozen=True)
class DualCatalog:
    """Immutable, deterministically ordered slice of the unitary dual.

    Contains every class with bracket <= cutoff, sorted by ascending
    bracket with lexicographic label order breaking ties.  The trivial
    representation is always entry 0.  Labels, dims, lambda_sq and
    brackets are kept per class in catalog order, the numbers as
    read-only arrays; offsets[i]:offsets[i+1] is class i's slice of a
    packed coefficient array holding each d x d block row-major.  The
    RepInfo records and the label index are built on first use.
    """

    spec: GroupSpec
    cutoff: float
    labels: tuple
    dims: np.ndarray = field(compare=False, repr=False)
    lambda_sq: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "brackets", np.sqrt(1.0 + self.lambda_sq))
        object.__setattr__(self, "offsets", np.concatenate(([0], np.cumsum(self.dims**2))))
        for arr in (self.dims, self.lambda_sq, self.brackets, self.offsets):
            arr.flags.writeable = False

    @cached_property
    def entry_index(self):
        """Row, column and block size d of every entry of a packed field."""
        n = np.diff(self.offsets)
        d = np.repeat(self.dims, n)
        local = np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], n)
        return local // d, local % d, d

    @cached_property
    def entry_weights(self):
        """2j = d - 1, 2m and 2n of every packed entry: rows and columns
        run by descending weight, m = j - row and n = j - column."""
        row, col, d = self.entry_index
        return d - 1, d - 1 - 2 * row, d - 1 - 2 * col

    @cached_property
    def transposed(self):
        """Packed position of the transpose of every entry."""
        row, col, d = self.entry_index
        # entry (n, m) sits (n - m)(d - 1) after (m, n)
        return np.arange(self.offsets[-1]) + (col - row) * (d - 1)

    @cached_property
    def _index(self):
        return {l: i for i, l in enumerate(self.labels)}

    @cached_property
    def reps(self):
        return tuple(map(RepInfo, self.labels, self.dims.tolist(), self.lambda_sq.tolist()))

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.reps)

    def __getitem__(self, i):
        return self.reps[i]

    def lookup(self, label):
        return self.reps[self.position(label)]

    def position(self, label):
        label = tuple(label)
        if label not in self._index:
            raise DomainError("label %r not in catalog" % (label,))
        return self._index[label]

    def positions(self, labels):
        """Catalog positions of a list of labels, as an int array."""
        try:
            return np.fromiter(map(self._index.__getitem__, map(tuple, labels)), int, len(labels))
        except KeyError as exc:
            raise DomainError("label %r not in catalog" % (exc.args[0],)) from None

    def contains(self, label):
        return tuple(label) in self._index


def enumerate_dual(spec, cutoff):
    """Catalog every irreducible class with bracket weight <= cutoff.

    The test is sqrt(1 + lambda^2) <= cutoff, computed exactly as
    RepInfo.bracket does, so a cutoff equal to a bracket keeps its class.
    A cutoff needing more than CATALOG_CANDIDATE_BUDGET candidate labels
    is refused with a resource error.
    """
    if check_finite("cutoff", cutoff) < 1.0:
        raise DomainError("cutoff must be >= 1 so the trivial class is included")
    # |k_i| <= |k| <= bracket on T^n, 2j < 2 bracket on SU(2) and l < bracket on
    # SO(3); a cutoff past the budget, refused below, is clamped (2 * 1e308 is inf)
    reach = min(cutoff, CATALOG_CANDIDATE_BUDGET)
    top = math.floor(2 * reach if spec.family == "su2" else reach)
    candidates = (2 * top + 1) ** spec.torus_dim if spec.family == "torus" else top + 1
    if candidates > CATALOG_CANDIDATE_BUDGET:
        raise ResourceError(
            "cutoff %g needs more than the %d candidate labels a catalog may examine"
            % (cutoff, CATALOG_CANDIDATE_BUDGET)
        )
    if spec.family == "torus":
        # the candidates come out in lexicographic order, which the
        # stable sort below keeps on ties
        axis = np.arange(-top, top + 1)
        grids = np.meshgrid(*([axis] * spec.torus_dim), indexing="ij")
        labels = np.stack([g.ravel() for g in grids], axis=1)
        lambda_sq = (labels * labels).sum(axis=1).astype(float)
        dims = np.ones(len(labels), dtype=int)
    else:
        labels = np.arange(top + 1)[:, None]
        j = labels[:, 0] / 2.0 if spec.family == "su2" else labels[:, 0] * 1.0
        lambda_sq = j * (j + 1.0)
        dims = (2 * j + 1).astype(int)
    brackets = np.sqrt(1.0 + lambda_sq)
    keep = np.flatnonzero(brackets <= cutoff)
    keep = keep[np.argsort(brackets[keep], kind="stable")]
    return DualCatalog(spec=spec, cutoff=float(cutoff),
                       labels=tuple(zip(*labels[keep].T.tolist())),
                       dims=dims[keep], lambda_sq=lambda_sq[keep])


def weyl_dimension_report(catalog):
    """Check d_xi <= C * bracket^((dim - rank)/2) over the catalog.

    Returns the exponent, the smallest admissible constant observed, and
    the per-representation ratios.
    """
    spec = catalog.spec
    exponent = 0.5 * (spec.manifold_dim - spec.rank)
    brackets = catalog.brackets
    dims = catalog.dims.astype(float)
    ratios = dims / brackets**exponent
    return {
        "exponent": exponent,
        "constant": float(ratios.max()) if len(ratios) else 0.0,
        "ratios": ratios,
    }


def series_convergence_probe(catalog, t):
    """Partial sums of sum_xi d_xi^2 * bracket^(-2t) in catalog order.

    The full series converges exactly when 2t > dim(G).  Returns the
    per-rep terms, running partial sums, and the relative size of the
    final increment, which a caller inspects for Cauchy decay.
    """
    check_finite("t", t)
    br = catalog.brackets
    d = catalog.dims.astype(float)
    with np.errstate(over="ignore"):  # a term or a partial sum past the double range is refused
        terms = d * d * br ** (-2.0 * t)
        sums = np.cumsum(terms)
    total = check_in_range("t = %r" % t, float(sums[-1]), nonzero=True)
    last_rel = float(terms[-1] / total)
    return {"terms": terms, "partial_sums": sums, "last_relative_increment": last_rel}


def exp_dominance_check(catalog):
    """Verify |xi| <= bracket <= c * |xi| with c = sqrt(1 + 1/lambda_1^2).

    Only nontrivial classes enter the upper bound.  Returns the worst
    slack on each side (nonnegative means the inequality holds).
    """
    c = math.sqrt(1.0 + 1.0 / catalog.spec.min_nonzero_lambda_sq)
    nontrivial = catalog.lambda_sq != 0.0
    eig = np.sqrt(catalog.lambda_sq[nontrivial])
    br = catalog.brackets[nontrivial]
    return {
        "constant": c,
        "lower_slack": float((br - eig).min(initial=math.inf)),
        "upper_slack": float((c * eig - br).min(initial=math.inf)),
    }
