"""Class-I structure for the sphere S^2 as SO(3)/SO(2).

The subgroup SO(2) is realized as the gamma-axis stabilizer (rotations
about z acting on the right).  Every spin-l class is class I with a
one-dimensional invariant subspace: the m = 0 weight vector, which sits
at row/column index l in the descending-m basis.  The documented
reordering putting the invariant vector first is the cycle that moves
index l to position 0.

A function on the sphere lifts to a gamma-constant function on the
group; its coefficients are supported on the m = 0 row of each block.
Sphere points are (beta, alpha) pairs, i.e. colatitude and longitude.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DomainError
from .fourier import CoefficientField, inverse_transform
from .gevrey import _check_order, _norm_mode, _verdict, fourier_side_test
from .duality import ultra_membership_test

LEAKAGE_TOL = 1e-12


@dataclass(frozen=True)
class ClassIStructure:
    catalog: object

    def __post_init__(self):
        if self.catalog.spec.family != "so3":
            raise ConfigurationError("class-I structure is built for SO(3) only")

    def invariant_index(self, label):
        """Row index of the m = 0 vector in the descending-m basis."""
        return self.catalog.lookup(label).label[0]

def _off_class_one(coeffs, structure):
    """Mask of the packed entries outside each block's invariant row."""
    row = coeffs.catalog.entry_index[0]
    inv = [structure.invariant_index(label) for label in coeffs.catalog.labels]
    return row != np.repeat(inv, np.diff(coeffs.catalog.offsets))


def project_class_one(coeffs, structure):
    """Zero every coefficient row other than the invariant one."""
    data = np.where(_off_class_one(coeffs, structure), 0, coeffs.data)
    return CoefficientField(coeffs.catalog, data=data, present=coeffs.present.copy())


def leakage(coeffs, structure):
    """Largest magnitude outside the class-I rows."""
    return float(np.abs(coeffs.data[_off_class_one(coeffs, structure)]).max(initial=0.0))


def lift(sphere_samples, grid):
    """Extend (beta, alpha)-indexed sphere samples along the gamma fibers.

    The sphere grid must be the (beta, alpha) projection of the group
    grid, so the sample array has shape (len(beta), len(alpha)).
    """
    sphere_samples = np.asarray(sphere_samples)
    expected = (len(grid.beta), len(grid.alpha))
    if sphere_samples.shape != expected:
        raise ContractViolation(
            "sphere samples %r do not match the grid projection %r"
            % (sphere_samples.shape, expected)
        )
    na, nb, ng = grid.shape
    return np.broadcast_to(
        sphere_samples.T[:, :, None], (na, nb, ng)
    ).astype(complex).copy()


def sphere_series(coeffs, structure, points):
    """Evaluate the restricted Fourier series at (beta, alpha) points.

    The group series of the class-I projection, evaluated at the
    gamma = 0 lift of each point.  Requires class-I-projected input;
    forbidden entries above LEAKAGE_TOL are a contract violation.
    """
    bad = leakage(coeffs, structure)
    if bad > LEAKAGE_TOL:
        raise ContractViolation(
            "input is not class-I projected (leakage %.3e)" % bad
        )
    return inverse_transform(project_class_one(coeffs, structure),
                             [(alpha, beta, 0.0) for beta, alpha in points])


def _class_one_verdict(test, coeffs, structure, s, mode):
    """Class-I support check, then ``test`` on the projection."""
    if s < 1:
        raise DomainError("homogeneous-space tests require s >= 1")
    _check_order(coeffs.catalog, s)
    off = np.where(_off_class_one(coeffs, structure), np.abs(coeffs.data), 0.0)
    worst = np.maximum.reduceat(off, coeffs.catalog.offsets[:-1])
    if worst.max() > 1e-10:
        return _verdict(_norm_mode(mode), s, -float(worst.max()),
                        coeffs.catalog.labels[np.flatnonzero(worst > 1e-10)[0]],
                        flags=("class_one_leakage",))
    return test(project_class_one(coeffs, structure), s, mode)


def sphere_gevrey_test(coeffs, structure, s, mode):
    """Class-I support check, then the group-side decay classifier."""
    return _class_one_verdict(fourier_side_test, coeffs, structure, s, mode)


def sphere_ultra_test(seq, structure, s, mode):
    """Class-I support check, then the group-side growth classifier."""
    return _class_one_verdict(ultra_membership_test, seq, structure, s, mode)
