import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from gevreykit.calculus import vector_field_symbol
from gevreykit import groups, quadrature
from gevreykit.errors import ResourceError
from gevreykit.gevrey import synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import (
    build_grid,
    identity_element,
    random_element,
    rep_matrix,
    sample_function,
    tree_sum,
    wigner_d_all,
)
from gevreykit.sphere import ClassIStructure, project_class_one, sphere_series

from euler_algebra import (compose_euler, euler_to_so3, euler_to_su2, haar_integrate, so3_to_euler,
                           su2_to_euler)


def _angular_momentum(two_j):
    """J_x, J_y, J_z for spin j in the descending-m basis, entry by entry."""
    j = two_j / 2.0
    d = two_j + 1
    m = j - np.arange(d)
    jp = np.zeros((d, d))
    for i in range(1, d):
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1.0))
    jm = jp.T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(m).astype(complex)


def test_vector_field_symbol_is_minus_i_angular_momentum():
    for fam in ("su2", "so3"):
        cat = enumerate_dual(GroupSpec(fam), 9.0)
        for j in (1, 2, 3):
            sym = vector_field_symbol(cat, j)
            for rep in cat:
                oracle = -1j * _angular_momentum(rep.dim - 1)[j - 1]
                assert np.array_equal(sym[rep.label], oracle)


def test_tree_sum_matches_fsum():
    rng = np.random.default_rng(1)
    for n in (1, 2, 7, 1000):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        exact = math.fsum(v)
        assert tree_sum(v) == pytest.approx(exact, rel=1e-14, abs=1e-300)


def test_wigner_d_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    for two_j in range(9):
        _, jy, _ = _angular_momentum(two_j)
        for beta in rng.uniform(0.0, math.pi, 3):
            oracle = expm(-1j * beta * jy)
            d = wigner_d_all(two_j, np.array([beta]), (two_j % 2,))[two_j][0]
            assert np.abs(d - oracle).max() < 1e-12


def test_rep_matrix_matches_exponential_factorization():
    rng = np.random.default_rng(3)
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 4.0)
    for _ in range(5):
        a, b, g = random_element(spec, rng)
        for rep in cat:
            two_j = rep.label[0]
            _, jy, jz = _angular_momentum(two_j)
            oracle = expm(-1j * a * jz) @ expm(-1j * b * jy) @ expm(-1j * g * jz)
            assert np.abs(rep_matrix(spec, rep, (a, b, g)) - oracle).max() < 1e-12


def test_rep_matrices_unitary():
    rng = np.random.default_rng(4)
    for fam in ("su2", "so3"):
        spec = GroupSpec(fam)
        cat = enumerate_dual(spec, 6.0)
        for _ in range(5):
            x = random_element(spec, rng)
            for rep in cat:
                u = rep_matrix(spec, rep, x)
                assert np.abs(u @ u.conj().T - np.eye(rep.dim)).max() < 1e-12


def test_homomorphism_under_composition():
    rng = np.random.default_rng(5)
    for fam, label in (("su2", (3,)), ("so3", (2,))):
        spec = GroupSpec(fam)
        rep = enumerate_dual(spec, 10.0).lookup(label)
        for _ in range(20):
            g1 = random_element(spec, rng)
            g2 = random_element(spec, rng)
            lhs = rep_matrix(spec, rep, compose_euler(spec, g1, g2))
            rhs = rep_matrix(spec, rep, g1) @ rep_matrix(spec, rep, g2)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_euler_round_trips():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = random_element(GroupSpec("su2"), rng)
        u = euler_to_su2(g)
        assert np.abs(euler_to_su2(su2_to_euler(u)) - u).max() < 1e-12
        h = random_element(GroupSpec("so3"), rng)
        r = euler_to_so3(h)
        assert np.abs(euler_to_so3(so3_to_euler(r)) - r).max() < 1e-12


def test_so3_matrices_are_rotations():
    rng = np.random.default_rng(7)
    for _ in range(10):
        r = euler_to_so3(random_element(GroupSpec("so3"), rng))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_identity_element_is_neutral():
    for fam in ("su2", "so3"):
        spec = GroupSpec(fam)
        e = identity_element(spec)
        rep = enumerate_dual(spec, 5.0)[-1]
        assert np.abs(rep_matrix(spec, rep, e) - np.eye(rep.dim)).max() < 1e-14


def test_grid_node_counts():
    g = build_grid(GroupSpec("su2"), 6)
    assert (len(g.alpha), len(g.beta), len(g.gamma)) == (14, 7, 28)
    t = build_grid(GroupSpec("torus", 2), 5)
    assert t.shape == (11, 11)


def test_grid_weights_normalized():
    for spec, band in ((GroupSpec("torus", 2), 4), (GroupSpec("su2"), 8),
                       (GroupSpec("so3"), 8)):
        grid = build_grid(spec, band)
        ones = np.ones(grid.shape)
        assert haar_integrate(grid, ones) == pytest.approx(1.0, abs=1e-13)


def test_grid_kills_nonconstant_coefficients():
    spec = GroupSpec("so3")
    cat = enumerate_dual(spec, 8.0)
    grid = build_grid(spec, 7)
    rep = cat.lookup((3,))
    vals = sample_function(
        grid, lambda a, b, g: np.vectorize(
            lambda x, y, z: rep_matrix(spec, rep, (x, y, z))[0, 2]
        )(a, b, g)
    )
    assert abs(haar_integrate(grid, vals)) < 1e-13


def test_grid_sample_budget_refuses_before_building(monkeypatch):
    for spec, band, size in ((GroupSpec("torus", 2), 3, 49), (GroupSpec("su2"), 4, 1000),
                             (GroupSpec("so3"), 2, 216)):
        monkeypatch.setattr(groups, "GRID_SAMPLE_BUDGET", size)
        assert build_grid(spec, band).size == size
        monkeypatch.setattr(groups, "GRID_SAMPLE_BUDGET", size - 1)
        with pytest.raises(ResourceError, match="%d nodes" % size):
            build_grid(spec, band)
    monkeypatch.undo()
    with pytest.raises(ResourceError):
        build_grid(GroupSpec("so3"), 100000)


def test_dstack_budget_refuses_before_allocating(monkeypatch):
    betas = np.array([0.3, 1.1, 2.9])
    for two_jmax in (0, 3, 8):
        entries = 3 * sum((t + 1) ** 2 for t in range(two_jmax + 1))
        monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", entries)
        assert sum(a.size for a in wigner_d_all(two_jmax, betas).values()) == entries
        monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", entries - 1)
        with pytest.raises(ResourceError, match="%d entries" % entries):
            wigner_d_all(two_jmax, betas)
    monkeypatch.undo()
    # SO(3) at band 127: 5,559,680 entries on each of 128 betas
    with pytest.raises(ResourceError, match="711639040 entries"):
        wigner_d_all(254, np.zeros(128))


def test_one_parity_stack_is_the_full_stacks_entries_bit_for_bit(monkeypatch):
    x, _ = np.polynomial.legendre.leggauss(7)
    betas = np.concatenate([[0.0, -0.0, math.pi, math.pi - 1e-12, 1e-300], np.arccos(x)])
    for two_jmax in (0, 1, 39, 40):
        full = wigner_d_all(two_jmax, betas)
        for parity in (0, 1):
            part = wigner_d_all(two_jmax, betas, (parity,))
            assert sorted(part) == [t for t in range(two_jmax + 1) if t % 2 == parity]
            for two_j, mat in part.items():
                assert mat.tobytes() == full[two_j].tobytes(), (two_jmax, two_j)
    for two_j in range(41):  # against the stack up to 2j = 40
        assert wigner_d_all(two_j, betas, (two_j % 2,))[two_j].tobytes() == full[two_j].tobytes()
    # the budget counts the full stack, whatever the parity built
    monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", len(betas) * 1785 - 1)
    with pytest.raises(ResourceError, match="%d entries" % (len(betas) * 1785)):
        wigner_d_all(16, betas, (0,))
    # each grid keeps the stack of its dual's parities
    monkeypatch.undo()
    assert sorted(build_grid(GroupSpec("so3"), 2).euler_tables[2]) == [0, 2, 4]
    assert sorted(build_grid(GroupSpec("su2"), 4).euler_tables[2]) == [0, 1, 2, 3, 4]


def test_a_stack_of_some_chains_is_the_full_stacks_entries_on_them_and_0_elsewhere():
    rng = np.random.default_rng(28)
    betas = np.concatenate([[0.0, -0.0, math.pi, 1e-300], rng.uniform(0.0, math.pi, 5)])
    for two_jmax in (0, 1, 12, 13, 40):
        full = wigner_d_all(two_jmax, betas)
        every = [(tm, tn) for tm in range(-two_jmax, two_jmax + 1)
                 for tn in range(-two_jmax, two_jmax + 1) if (tm - tn) % 2 == 0]
        for share in (0.0, 0.05, 0.5, 1.0):
            chains = {c for c in every if rng.random() < share}
            for parities in ((0, 1), (0,), (1,)):
                part = wigner_d_all(two_jmax, betas, parities, chains)
                assert sorted(part) == [t for t in full if t % 2 in parities]
                for two_j, mat in part.items():
                    for row in range(two_j + 1):
                        for col in range(two_j + 1):
                            got = mat[:, row, col].tobytes()
                            if (two_j - 2 * row, two_j - 2 * col) in chains:
                                assert got == full[two_j][:, row, col].tobytes()
                            else:
                                assert got == np.zeros(len(betas)).tobytes()


def test_the_seeds_are_those_of_the_chains_built(monkeypatch):
    seeds = quadrature._d_seeds
    seeded = []

    def spying(tm, tn, cb, sb):
        seeded.append(sorted(zip(tm.tolist(), tn.tolist())))
        return seeds(tm, tn, cb, sb)

    monkeypatch.setattr(quadrature, "_d_seeds", spying)
    # a class-I SO(3) series at l <= 8 builds the column d^l_{m0}: 17 chains of the 289
    cat = enumerate_dual(GroupSpec("so3"), 9.0)
    field = project_class_one(synthesize_gevrey(cat, 2.0, 1.0, "dense"), ClassIStructure(cat))
    sphere_series(field, ClassIStructure(cat), [(0.3, 1.1), (2.0, 0.5)])
    assert seeded == [[(two_m, 0) for two_m in range(-16, 17, 2)]] and len(seeded[0]) == 17
    # with no chain set, every chain of each parity asked for is seeded, once
    for two_jmax, parities in ((13, (0, 1)), (13, (0,)), (13, (1,)), (16, (0,)), (0, (0, 1))):
        seeded.clear()
        wigner_d_all(two_jmax, np.array([0.4, math.pi]), parities)
        twice = range(-two_jmax, two_jmax + 1)
        assert seeded == [[(tm, tn) for tm in twice for tn in twice if tm % 2 == tn % 2 == p]
                          for p in parities]


def _seed_oracle(two_j, two_m, two_n, cb, sb):
    """The four-branch scalar seed d^j_{mn} at j = max(|m|, |n|), one pair per call."""
    j, m, n = two_j / 2.0, two_m / 2.0, two_n / 2.0
    if two_m == two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j + n + 1) - gammaln(j - n + 1))
        return np.exp(lc) * cb ** (j + n) * (-sb) ** (j - n)
    if two_m == -two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j - n + 1) - gammaln(j + n + 1))
        return np.exp(lc) * cb ** (j - n) * sb ** (j + n)
    if two_n == two_j:
        lc = 0.5 * (gammaln(two_j + 1) - gammaln(j + m + 1) - gammaln(j - m + 1))
        return np.exp(lc) * cb ** (j + m) * sb ** (j - m)
    lc = 0.5 * (gammaln(two_j + 1) - gammaln(j - m + 1) - gammaln(j + m + 1))
    return np.exp(lc) * cb ** (j - m) * (-sb) ** (j + m)


def _d_stack_oracle(two_jmax, beta):
    """Both parities of the little-d stack, seeded pair by pair and recursed in 2j."""
    cosb, cb, sb = np.cos(beta), np.cos(beta / 2.0), np.sin(beta / 2.0)
    out = {two_j: np.zeros(beta.shape + (two_j + 1, two_j + 1)) for two_j in range(two_jmax + 1)}
    for parity in (0, 1):
        ms = range(-two_jmax + ((two_jmax - parity) % 2), two_jmax + 1, 2)
        for two_m, two_n in [(tm, tn) for tm in ms for tn in ms]:
            two_j = max(abs(two_m), abs(two_n))
            m, n = two_m / 2.0, two_n / 2.0
            prev, cur = np.zeros_like(beta), _seed_oracle(two_j, two_m, two_n, cb, sb)
            while True:
                out[two_j][..., (two_j - two_m) // 2, (two_j - two_n) // 2] = cur
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


def test_wigner_d_stack_matches_the_pairwise_seeded_oracle_bit_for_bit():
    rng = np.random.default_rng(27)
    edges = [-0.0, 0.0, 1e-300, 1e-8, math.pi / 2, math.pi - 1e-9, math.pi]
    # the last is one beta, the shape rep_matrix passes
    for betas in (np.concatenate([edges, rng.uniform(0.0, math.pi, 13)]),
                  rng.uniform(0.0, math.pi, (3, 4)), np.array([rng.uniform(0.0, math.pi)])):
        for two_jmax in (0, 1, 40, 61):
            ref = _d_stack_oracle(two_jmax, betas)
            for parities in ((0, 1), (0,), (1,)):
                stack = wigner_d_all(two_jmax, betas, parities)
                assert sorted(stack) == [t for t in ref if t % 2 in parities]
                for two_j, mat in stack.items():
                    assert mat.tobytes() == ref[two_j].tobytes(), (two_jmax, two_j, parities)


def _betas():
    """beta anywhere in [0, pi], with 0, pi and the last 1e-13 at each end drawn often."""
    edge = st.floats(0.0, 1e-13)
    return st.one_of(st.sampled_from([0.0, math.pi]), edge, edge.map(lambda e: math.pi - e),
                     st.floats(0.0, math.pi))


def _elements(period):
    angle = st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, period))
    return st.tuples(angle, _betas(), angle)


@settings(max_examples=150, deadline=None)
@given(_elements(4 * math.pi), _elements(2 * math.pi))
@example((0.3, math.pi, 0.1), (0.3, math.pi, 0.1))
@example((0.3, math.pi - 1e-13, 0.1), (0.3, 1e-13, 0.1))
def test_euler_round_trips_reach_beta_0_and_pi(g, h):
    u = euler_to_su2(g)
    assert np.abs(euler_to_su2(su2_to_euler(u)) - u).max() < 1e-12
    r = euler_to_so3(h)
    assert np.abs(euler_to_so3(so3_to_euler(r)) - r).max() < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("su2", (3,)), ("su2", (4,)), ("so3", (1,)), ("so3", (2,))]),
       _elements(2 * math.pi), _elements(2 * math.pi))
@example(("so3", (1,)), (0.0, math.pi / 2, 0.0), (0.0, math.pi / 2, 0.0))
@example(("so3", (2,)), (0.3, math.pi, 0.1), (0.0, 1e-13, 0.2))
def test_homomorphism_reaches_beta_0_and_pi(rep, g1, g2):
    spec = GroupSpec(rep[0])
    rep = enumerate_dual(spec, 10.0).lookup(rep[1])
    lhs = rep_matrix(spec, rep, compose_euler(spec, g1, g2))
    rhs = rep_matrix(spec, rep, g1) @ rep_matrix(spec, rep, g2)
    assert np.abs(lhs - rhs).max() < 1e-10
