"""Group elements in their defining matrix pictures, and the Haar integral
of grid samples: test oracles for the Euler-angle convention of
gevreykit.quadrature (g = z(alpha) y(beta) z(gamma)) and for the grid
weights.
"""

import math

import numpy as np

from gevreykit.errors import DomainError
from gevreykit.quadrature import TWO_PI, tree_sum


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
    beta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    # alpha + gamma and alpha - gamma each come from the phase of one
    # entry; where that entry vanishes, any phase rebuilds it
    ssum = -2.0 * np.angle(u[0, 0])
    sdif = 2.0 * np.angle(u[1, 0])
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
    beta = math.atan2(math.hypot(r[0, 2], r[1, 2]), r[2, 2])
    # alpha from the third column; gamma from the upper 2 x 2 block,
    # which is (1 + cos beta) / 2 times the rotation by alpha + gamma plus
    # (1 - cos beta) / 2 times a reflection by alpha - gamma: read the term
    # that does not vanish, so the angles rebuild r near beta = 0 and pi
    alpha = math.atan2(r[1, 2], r[0, 2])
    if r[2, 2] >= 0:
        gamma = math.atan2(r[1, 0] - r[0, 1], r[0, 0] + r[1, 1]) - alpha
    else:
        gamma = alpha - math.atan2(-(r[1, 0] + r[0, 1]), r[1, 1] - r[0, 0])
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



def haar_integrate(grid, values):
    """Haar integral of grid samples, deterministic reduction order."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise DomainError("sample shape %r does not match grid %r" % (values.shape, grid.shape))
    return tree_sum(values * grid.weights())
