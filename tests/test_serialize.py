import json
import math

import numpy as np
import pytest

from gevreykit.errors import DataError
from gevreykit.fourier import CoefficientField
from gevreykit.gevrey import GevreyVerdict, fourier_side_test, synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import build_grid
from gevreykit.serialize import (
    catalog_to_json,
    decay_csv,
    field_from_jsonl,
    field_to_jsonl,
    samples_from_csv,
    samples_to_csv,
    sphere_csv,
    verdict_to_json,
)


def _random_field(catalog, rng):
    out = CoefficientField(catalog)
    for rep in catalog:
        out[rep.label] = rng.standard_normal((rep.dim, rep.dim)) + 1j * (
            rng.standard_normal((rep.dim, rep.dim))
        )
    return out


def test_catalog_json_fields():
    cat = enumerate_dual(GroupSpec("so3"), 4.0)
    data = json.loads(catalog_to_json(cat))
    assert [d["label"] for d in data] == [[0], [1], [2], [3]]
    assert data[2]["dim"] == 5
    assert data[2]["lambda_sq"] == 6.0
    assert data[2]["bracket"] == math.sqrt(7.0)


def test_field_jsonl_round_trip_exact():
    rng = np.random.default_rng(50)
    cat = enumerate_dual(GroupSpec("su2"), 8.0)
    f = _random_field(cat, rng)
    g = field_from_jsonl(field_to_jsonl(f), cat)
    for rep in cat:
        assert np.array_equal(f[rep.label], g[rep.label])


def test_samples_csv_round_trip_exact():
    rng = np.random.default_rng(51)
    grid = build_grid(GroupSpec("torus", 2), 3)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    text = samples_to_csv(vals)
    assert text.splitlines()[0] == "re,im"
    back = samples_from_csv(text, grid.shape)
    assert np.array_equal(vals, back)


def test_samples_csv_shape_checked():
    grid = build_grid(GroupSpec("torus", 1), 3)
    text = samples_to_csv(np.zeros(5, dtype=complex))
    with pytest.raises(DataError):
        samples_from_csv(text, grid.shape)
    with pytest.raises(DataError):
        samples_from_csv("not,a header\n1,2\n", (1,))


def test_field_jsonl_rejects_malformed():
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    with pytest.raises(DataError):
        field_from_jsonl('{"label": [1]}\n', cat)
    with pytest.raises(DataError):
        field_from_jsonl('{"label": [1], "matrix": "oops"}\n', cat)


def test_decay_csv_rows():
    cat = enumerate_dual(GroupSpec("torus", 1), 50.0)
    coeffs = synthesize_gevrey(cat, 1.0, 1.0)
    lines = decay_csv(coeffs).splitlines()
    assert lines[0] == "bracket,dim,hs_norm,log_hs_norm"
    nonzero = sum(1 for l in coeffs.labels()
                  if np.abs(coeffs.blocks[l]).max() > 0)
    assert len(lines) == 1 + nonzero
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert math.isclose(float(first[3]), math.log(float(first[2])), rel_tol=1e-12)


def test_sphere_csv_header_and_count():
    spec = GroupSpec("so3")
    grid = build_grid(spec, 4)
    vals = np.ones((len(grid.beta), len(grid.alpha)), dtype=complex)
    lines = sphere_csv(grid, vals).splitlines()
    assert lines[0] == "beta,alpha,re,im"
    assert len(lines) == 1 + len(grid.beta) * len(grid.alpha)


def test_verdict_json_shape():
    cat = enumerate_dual(GroupSpec("torus", 1), 2000.0)
    coeffs = synthesize_gevrey(cat, 1.0, 1.0, "random_phase", seed=4)
    v = fourier_side_test(coeffs, 2.0, "roumieu")
    data = json.loads(verdict_to_json(v))
    assert data["mode"] == "R"
    assert data["pass"] is True
    assert data["s"] == 2.0
    assert isinstance(data["margin"], float)
    assert data["flags"] == []


def test_verdict_json_infinite_margin():
    v = GevreyVerdict(mode="roumieu", s=1.0, passed=True, margin=math.inf,
                      flags=("zero_field",))
    data = json.loads(verdict_to_json(v))
    assert data["margin"] == "inf"
    assert data["flags"] == ["zero_field"]


def test_field_jsonl_rejects_non_finite():
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    good = '{"label": [0], "matrix": [[[1.0, 0.0]]]}\n'
    for bad in ("NaN", "Infinity", "-Infinity", "1e400"):
        with pytest.raises(DataError, match="line 2"):
            field_from_jsonl(good + '{"label": [1], "matrix": [[[%s, 0.0], [0.0, 0.0]], '
                             '[[0.0, 0.0], [0.0, 0.0]]]}\n' % bad, cat)


def test_samples_csv_rejects_non_finite():
    for bad in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(DataError):
            samples_from_csv("re,im\n1.0,0.0\n%s,0.0\n" % bad, (2,))


def test_field_jsonl_one_record_per_line():
    cat = enumerate_dual(GroupSpec("torus", 1), 3.0)
    rec = '{"label": [%d], "matrix": [[[%d.0, 0.5]]]}'
    with pytest.raises(DataError, match="line 1"):
        field_from_jsonl(rec % (0, 1) + ", " + rec % (1, 2) + "\n", cat)
    with pytest.raises(DataError, match="line 1"):
        field_from_jsonl('{"label": [0],\n"matrix": [[[1.0, 0.0]]]}\n', cat)
    # a repeated label keeps its last record, blank lines are skipped
    f = field_from_jsonl("\n".join([rec % (1, 1), "", rec % (1, 7)]) + "\n", cat)
    assert f.labels() == [(1,)]
    assert f[(1,)][0, 0] == 7.0 + 0.5j
    assert field_from_jsonl("", cat).labels() == []


def test_field_jsonl_rejects_non_integer_labels():
    cat = enumerate_dual(GroupSpec("torus", 1), 3.0)
    good = '{"label": [0], "matrix": [[[1.0, 0.0]]]}\n'
    for label in ("1.7", "1.0", '"2"', "true", "null"):
        with pytest.raises(DataError, match="line 2"):
            field_from_jsonl(good + '{"label": [%s], "matrix": [[[1.0, 0.0]]]}\n' % label, cat)


def test_field_jsonl_rejects_non_numeric_entries():
    cat = enumerate_dual(GroupSpec("torus", 1), 3.0)
    good = '{"label": [0], "matrix": [[[1.0, 0.0]]]}\n'
    for entry in ("[true, false]", "[1.0, false]", '["1", 0.0]', "[null, 0.0]",
                  "[1%s, 0.0]" % ("0" * 400)):
        with pytest.raises(DataError, match="line 2"):
            field_from_jsonl(good + '{"label": [1], "matrix": [[%s]]}\n' % entry, cat)
    # JSON integers are numbers
    assert field_from_jsonl('{"label": [1], "matrix": [[[2, -1]]]}\n', cat)[(1,)][0, 0] == 2 - 1j
