import math

import numpy as np
import pytest

from gevreykit import groups
from gevreykit.errors import DomainError, ResourceError
from gevreykit.groups import (
    GroupSpec,
    enumerate_dual,
    exp_dominance_check,
    series_convergence_probe,
    weyl_dimension_report,
)


def test_torus_catalog_contents():
    cat = enumerate_dual(GroupSpec("torus", 1), 3.0)
    labels = [r.label for r in cat]
    assert labels == [(0,), (-1,), (1,), (-2,), (2,)]
    for r in cat:
        assert r.dim == 1
        assert r.lambda_sq == r.label[0] ** 2


def test_su2_catalog_contents():
    cat = enumerate_dual(GroupSpec("su2"), 3.0)
    assert [r.label for r in cat] == [(l,) for l in range(5)]
    for r in cat:
        l = r.label[0]
        assert r.dim == l + 1
        assert r.lambda_sq == pytest.approx((l / 2) * (l / 2 + 1))


def test_so3_catalog_contents():
    cat = enumerate_dual(GroupSpec("so3"), 3.0)
    assert [r.label for r in cat] == [(0,), (1,), (2,)]
    assert [r.dim for r in cat] == [1, 3, 5]
    assert [r.lambda_sq for r in cat] == [0.0, 2.0, 6.0]


def test_catalog_sorted_by_bracket():
    for spec in (GroupSpec("torus", 2), GroupSpec("su2"), GroupSpec("so3")):
        cat = enumerate_dual(spec, 8.0)
        br = cat.brackets
        assert np.all(np.diff(br) >= 0)
        assert br[0] == 1.0


def test_cutoff_below_one_rejected():
    with pytest.raises(DomainError):
        enumerate_dual(GroupSpec("su2"), 0.5)


def test_lookup_and_position():
    cat = enumerate_dual(GroupSpec("su2"), 10.0)
    for i, r in enumerate(cat):
        assert cat.position(r.label) == i
        assert cat.lookup(r.label) is r
    assert cat.contains((2,))
    assert not cat.contains((999,))


def test_min_nonzero_lambda_sq():
    assert GroupSpec("torus", 1).min_nonzero_lambda_sq == 1.0
    assert GroupSpec("su2").min_nonzero_lambda_sq == 0.75
    assert GroupSpec("so3").min_nonzero_lambda_sq == 2.0


def test_exp_dominance_slacks_nonnegative():
    for spec in (GroupSpec("torus", 2), GroupSpec("su2"), GroupSpec("so3")):
        rep = exp_dominance_check(enumerate_dual(spec, 20.0))
        assert rep["lower_slack"] >= -1e-12
        assert rep["upper_slack"] >= -1e-12


def test_weyl_dimension_report_finite():
    rep = weyl_dimension_report(enumerate_dual(GroupSpec("su2"), 50.0))
    assert math.isfinite(rep["constant"])


def test_series_probe_su2_convergent_vs_divergent():
    cat = enumerate_dual(GroupSpec("su2"), 500.0)
    conv = series_convergence_probe(cat, 2.0)
    div = series_convergence_probe(cat, 1.5)
    assert np.all(np.diff(conv["partial_sums"]) >= 0)
    assert np.all(np.diff(div["partial_sums"]) >= 0)
    # terms settle into strict decay past the first few classes
    assert np.all(np.diff(conv["terms"][10:]) < 0)
    assert conv["last_relative_increment"] < 1e-5
    assert div["last_relative_increment"] > 1e-4


def test_series_probe_torus_convergent():
    cat = enumerate_dual(GroupSpec("torus", 1), 2000.0)
    probe = series_convergence_probe(cat, 0.6)
    # 2t = 1.2 > 1, so the terms k^(-1.2) decay and the sum stabilizes
    assert probe["last_relative_increment"] < 1e-3
    assert np.all(np.diff(probe["terms"][5:]) <= 0)


def test_cutoff_on_a_bracket_keeps_its_class():
    assert len(enumerate_dual(GroupSpec("su2"), math.sqrt(43.0))) == 13
    assert len(enumerate_dual(GroupSpec("torus", 1), math.sqrt(26.0))) == 11
    for l in range(40):
        cat = enumerate_dual(GroupSpec("so3"), math.sqrt(1.0 + l * (l + 1.0)))
        assert cat[len(cat) - 1].label == (l,)
    for two_j in range(40):
        cat = enumerate_dual(GroupSpec("su2"), math.sqrt(1.0 + two_j / 2 * (two_j / 2 + 1)))
        assert cat[len(cat) - 1].label == (two_j,)
    for k in range(1, 15):
        labels = enumerate_dual(GroupSpec("torus", 2), math.sqrt(1.0 + k * k)).labels
        assert (0, k) in labels and (-k, 0) in labels
        assert all(r.bracket <= math.sqrt(1.0 + k * k) for r in enumerate_dual(
            GroupSpec("torus", 2), math.sqrt(1.0 + k * k)))


def test_catalog_arrays_match_records():
    for spec, cutoff in ((GroupSpec("torus", 2), 7.5), (GroupSpec("su2"), 9.0),
                         (GroupSpec("so3"), 9.0)):
        cat = enumerate_dual(spec, cutoff)
        assert cat.labels == tuple(r.label for r in cat)
        assert cat.dims.tolist() == [r.dim for r in cat]
        assert cat.brackets.tolist() == [r.bracket for r in cat]
        assert cat.offsets[-1] == sum(r.dim**2 for r in cat)
        with pytest.raises(ValueError):
            cat.brackets[0] = 2.0


def test_non_finite_cutoff_rejected():
    for cutoff in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            enumerate_dual(GroupSpec("torus", 1), cutoff)


def test_candidate_budget_refuses_before_enumerating(monkeypatch):
    monkeypatch.setattr(groups, "CATALOG_CANDIDATE_BUDGET", 25)
    # (2 floor(c) + 1)^n on T^n, floor(2c) + 1 on SU(2), floor(c) + 1 on SO(3)
    for spec, admitted, refused in ((GroupSpec("torus", 1), 12.9, 13.0),
                                    (GroupSpec("torus", 2), 2.9, 3.0),
                                    (GroupSpec("su2"), 12.4, 12.5),
                                    (GroupSpec("so3"), 24.9, 25.0)):
        assert len(enumerate_dual(spec, admitted)) > 0
        with pytest.raises(ResourceError, match="25 candidate labels"):
            enumerate_dual(spec, refused)
