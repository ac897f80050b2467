import gc
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreykit import serialize
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
    sphere_from_csv,
    verdict_record,
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
    nonzero = sum(1 for l in coeffs.labels() if np.abs(coeffs[l]).max() > 0)
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


def test_sphere_csv_round_trip_exact():
    rng = np.random.default_rng(8)
    grid = build_grid(GroupSpec("so3"), 5)
    shape = (len(grid.beta), len(grid.alpha))
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) + 1j * (
        rng.standard_normal(shape))
    back = sphere_from_csv(sphere_csv(grid, vals), grid)
    assert back.shape == shape
    assert np.array_equal(back.view(float), vals.view(float))


def test_sphere_csv_refusals():
    grid = build_grid(GroupSpec("so3"), 3)
    text = sphere_csv(grid, np.ones((len(grid.beta), len(grid.alpha)), dtype=complex))
    lines = text.splitlines(keepends=True)
    with pytest.raises(DataError, match="header beta,alpha,re,im"):
        sphere_from_csv("re,im\n" + "".join(lines[1:]), grid)
    with pytest.raises(DataError, match="has %d rows, grid needs %d" % (len(lines) - 2,
                                                                        len(lines) - 1)):
        sphere_from_csv("".join(lines[:-1]), grid)
    for bad in ("nan", "inf", "1e400"):
        with pytest.raises(DataError, match="non-finite"):
            sphere_from_csv(text.replace(",1,0\r\n", ",%s,0\r\n" % bad, 1), grid)


def test_verdict_json_is_the_record():
    cat = enumerate_dual(GroupSpec("torus", 1), 200.0)
    v = fourier_side_test(synthesize_gevrey(cat, 1.0, 1.0), 2.0, "R")
    assert json.loads(verdict_to_json(v)) == verdict_record(v)


def test_field_jsonl_refusals_name_their_line():
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    good = '{"label": [0], "matrix": [[[1.0, 0.0]]]}\n'
    one = "[[[1.0, 0.0]]]"
    deep = "[" * 200000 + "0" + "]" * 200000
    for bad, reason in (
            ('{"label": [99], "matrix": %s}' % one, "not in catalog"),
            ('{"label": [1], "matrix": %s}' % one, "not d x d"),
            ("[" * 200000, "not one flat JSON object"),
            ('{"label": %s, "matrix": %s}' % (deep, one), "recursion"),
            ('{"label": [0], "matrix": %s, "note": "}{"}' % one, "not one flat JSON object"),
            ('{"label": [0], "matrix": %s, "seen": true}' % one, "true or false"),
            ('{"label": [0], "matrix": %s, "seen": [1, "untrue", false]}' % one,
             "true or false")):
        with pytest.raises(DataError, match="line 3: .*%s" % reason):
            field_from_jsonl(good + "\n" + bad + "\n" + good, cat)


def test_field_jsonl_names_a_bad_line_past_the_first_run():
    cat = enumerate_dual(GroupSpec("torus", 1), 3000.0)
    rec = '{"label": [%d], "matrix": [[[%d.0, 0.5]]]}'
    lines = [rec % (k, k) for k in range(-1500, 1500)]
    lines[2500] = rec % (5000, 1)
    with pytest.raises(DataError, match="line 2503: label \\(5000,\\) not in catalog"):
        field_from_jsonl("\n\n" + "\n".join(lines), cat)


def test_field_jsonl_repeated_labels_keep_their_last_record():
    # about 120 KB of records: repeats fall both within and across runs
    cat = enumerate_dual(GroupSpec("torus", 1), 3000.0)
    rec = '{"label": [%d], "matrix": [[[%d.0, 0.5]]]}'
    labels = np.random.default_rng(9).integers(-60, 61, 3000).tolist()
    f = field_from_jsonl("\n".join(rec % (l, k) for k, l in enumerate(labels)), cat)
    last = {l: k for k, l in enumerate(labels)}
    assert f.labels() == [c for c in cat.labels if c[0] in last]
    for l, k in last.items():
        assert f[(l,)][0, 0] == k + 0.5j


def test_field_jsonl_names_a_missing_key():
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    for text, key in (('{"label": [0]}', "matrix"), ('{"matrix": [[[1.0, 0.0]]]}', "label")):
        with pytest.raises(DataError, match="line 1: missing key '%s'$" % key):
            field_from_jsonl(text, cat)


def test_writers_refuse_non_finite_values():
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    for bad in (math.nan, math.inf, -math.inf):
        f = _random_field(cat, np.random.default_rng(3))
        f.data[7] = complex(1.0, bad)  # packed entry 7 is in class 2j = 2
        with pytest.raises(DataError, match=r"label \(2,\) is not finite"):
            field_to_jsonl(f)
        with pytest.raises(DataError, match="sample 4 is not finite"):
            samples_to_csv(np.where(np.arange(6) == 4, bad, 1.0))


# large enough that every field spans several writer and reader runs
ORACLE_CATALOGS = {
    "T1": enumerate_dual(GroupSpec("torus", 1), 300.5),
    "T2": enumerate_dual(GroupSpec("torus", 2), 12.5),
    "SU2": enumerate_dual(GroupSpec("su2"), 12.1),
    "SO3": enumerate_dual(GroupSpec("so3"), 12.1),
}
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 123456789.0,
                1.7976931348623157e308]


@st.composite
def finite_fields(draw):
    """Random finite bit patterns and edge doubles, with absent classes;
    the empty field is drawn too."""
    cat = ORACLE_CATALOGS[draw(st.sampled_from(sorted(ORACLE_CATALOGS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random(len(cat)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    n = 2 * int(cat.offsets[-1])
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(float)
    edge = rng.choice(EDGE_DOUBLES, n) * rng.choice([-1.0, 1.0], n)
    values = np.where(np.isfinite(bits) & (rng.random(n) < 0.5), bits, edge).view(complex)
    values[~np.repeat(present, np.diff(cat.offsets))] = 0.0
    return CoefficientField(cat, data=values, present=present)


@settings(max_examples=40, deadline=None)
@given(finite_fields())
def test_field_jsonl_lines_are_json_dumps_of_their_records(f):
    text = field_to_jsonl(f)
    want = []
    for label in f.labels():
        block = f[label]
        matrix = np.stack([block.real, block.imag], axis=-1).tolist()
        want.append(json.dumps({"label": list(label), "matrix": matrix}) + "\n")
    assert text == "".join(want)
    g = field_from_jsonl(text, f.catalog)
    assert np.array_equal(g.present, f.present)
    assert g.data.tobytes() == f.data.tobytes()


def test_field_jsonl_reads_every_layout_the_format_allows():
    rng = np.random.default_rng(12)
    for cat in (ORACLE_CATALOGS["T2"], ORACLE_CATALOGS["SU2"]):
        present = rng.random(len(cat)) < 0.7
        mask = np.repeat(present, 2 * np.diff(cat.offsets))
        ints = rng.integers(-9, 10, mask.size) * mask
        floats = np.where(mask, rng.standard_normal(mask.size), 0.0)
        floats = CoefficientField(cat, data=floats.view(complex), present=present)
        whole = CoefficientField(cat, data=ints.astype(float).view(complex), present=present)
        text = field_to_jsonl(floats)
        recs = [json.loads(t) for t in text.splitlines()]
        for f, variant in (
                (floats, "\n".join(json.dumps({"matrix": r["matrix"], "label": r["label"]})
                                   for r in recs)),
                (floats, "\n".join(json.dumps(r, separators=(",", ":")) for r in recs)),
                (floats, "\n".join(json.dumps(dict(r, note="x y", n=[1, 2.5])) for r in recs)),
                # true and false inside a string are text, not booleans
                (floats, "\n".join(json.dumps(dict(r, note="untrue", n=["falsetto"]))
                                   for r in recs)),
                (floats, text.replace("\n", "\r\n")),
                (floats, "\n \n" + text.replace("\n", "\n\n\t\n") + "\n   "),
                (whole, field_to_jsonl(whole).replace(".0", ""))):
            g = field_from_jsonl(variant, cat)
            assert np.array_equal(g.present, f.present)
            assert g.data.tobytes() == f.data.tobytes()


def test_field_jsonl_codec_makes_no_json_call_per_record(monkeypatch):
    calls = {"dumps": 0, "loads": 0}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(json, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(serialize, "json", SimpleNamespace(dumps=counted("dumps"),
                                                         loads=counted("loads")))
    for spec, cutoff in ((GroupSpec("su2"), 16.1), (GroupSpec("torus", 2), 30.5)):
        cat = enumerate_dual(spec, cutoff)
        f = synthesize_gevrey(cat, 1.0, 1.0, "random_phase", seed=4)
        calls.update(dumps=0, loads=0)
        text = field_to_jsonl(f)
        # the writer cuts runs of about 2048 size units, d^2 + 8 a record
        assert calls["dumps"] <= 2 * (int((cat.dims**2 + 8).sum()) // 2048 + 1)
        g = field_from_jsonl(text, cat)
        # the reader cuts runs of about 32 KB of text
        assert 1 <= calls["loads"] <= len(text) // (1 << 15) + 1
        assert g.data.tobytes() == f.data.tobytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_jsonl_codec_leaves_the_gc_as_it_found_it(enabled):
    cat = enumerate_dual(GroupSpec("su2"), 5.0)
    field = _random_field(cat, np.random.default_rng(2))
    text = field_to_jsonl(field)
    bad = CoefficientField(cat)
    bad[(1,)] = np.full((2, 2), np.nan)
    calls = ((field_to_jsonl, (field,), None),
             (field_from_jsonl, (text, cat), None),
             (field_from_jsonl, (text + '{"label": [1], "matrix": []}\n', cat), "line"),
             (field_to_jsonl, (bad,), "not finite"))
    was = gc.isenabled()
    try:
        for func, args, refusal in calls:
            (gc.enable if enabled else gc.disable)()
            if refusal is None:
                func(*args)
            else:
                with pytest.raises(DataError, match=refusal):
                    func(*args)
            assert gc.isenabled() is enabled, func.__name__
    finally:
        (gc.enable if was else gc.disable)()
