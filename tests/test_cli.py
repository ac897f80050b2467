import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gevreykit import cli
from gevreykit.duality import delta_sequence, growth_sequence
from gevreykit.fourier import inverse_on_grid
from gevreykit.gevrey import synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import band_for_catalog, build_grid
from gevreykit.serialize import field_to_jsonl, samples_to_csv, sphere_csv
from gevreykit.sphere import ClassIStructure, project_class_one, sphere_series


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, ["catalog", "--group", "so3", "--cutoff", "4"])
    assert code == 0
    data = json.loads(out)
    assert [d["label"] for d in data] == [[0], [1], [2], [3]]


def test_synthesize_then_classify(capsys, monkeypatch):
    code, field, _ = run_cli(
        capsys,
        ["synthesize", "--group", "t1", "--cutoff", "500", "--s", "2", "--B", "1"],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["classify", "--group", "t1", "--cutoff", "500", "--s", "2",
         "--mode", "R", "--expect", "pass"],
        stdin_text=field,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, err = run_cli(
        capsys,
        ["classify", "--group", "t1", "--cutoff", "500", "--s", "1",
         "--mode", "B", "--expect", "pass"],
        stdin_text=field,
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "expectation not met" in err


def test_transform_round_trip(capsys, monkeypatch, tmp_path):
    rng = np.random.default_rng(60)
    spec = GroupSpec("su2")
    cat = enumerate_dual(spec, 4.0)
    grid = build_grid(spec, band_for_catalog(cat))
    samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    code, field, _ = run_cli(
        capsys,
        ["transform", "--group", "su2", "--cutoff", "4"],
        stdin_text=samples_to_csv(samples),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, back_csv, _ = run_cli(
        capsys,
        ["transform", "--group", "su2", "--cutoff", "4", "--inverse"],
        stdin_text=field,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    # band-limited content is exactly not recoverable from white noise,
    # so round-trip the synthesized grid values instead
    code, field2, _ = run_cli(
        capsys,
        ["transform", "--group", "su2", "--cutoff", "4"],
        stdin_text=back_csv,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    from gevreykit.serialize import field_from_jsonl

    a = field_from_jsonl(field, cat)
    b = field_from_jsonl(field2, cat)
    for rep in cat:
        assert np.abs(a[rep.label] - b[rep.label]).max() < 1e-12


def test_synthesize_deterministic(capsys):
    argv = ["synthesize", "--group", "su2", "--cutoff", "20", "--s", "1",
            "--B", "1", "--profile", "random_phase", "--seed", "7"]
    _, a, _ = run_cli(capsys, argv)
    _, b, _ = run_cli(capsys, argv)
    assert a == b


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, ["catalog", "--group", "q5", "--cutoff", "3"])
    assert code == 2
    assert "unknown group" in err
    code, _, err = run_cli(capsys, ["catalog", "--cutoff", "3"])
    assert code == 2
    assert "--group" in err


def test_data_errors_exit_3(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["classify", "--group", "t1", "--cutoff", "10", "--s", "1"],
        stdin_text="this is not jsonl\n",
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert "data error" in err


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "so3", "cutoff": 5.0}))
    code, out, _ = run_cli(capsys, ["catalog", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)[1]["dim"] == 3
    code, out, _ = run_cli(
        capsys, ["catalog", "--config", str(cfg), "--group", "su2"]
    )
    assert code == 0
    assert json.loads(out)[1]["dim"] == 2


def test_pair_command(capsys, monkeypatch, tmp_path):
    cat = enumerate_dual(GroupSpec("torus", 1), 500.0)
    phi = synthesize_gevrey(cat, 1.0, 1.0)
    from gevreykit.duality import delta_sequence

    seq_path = tmp_path / "seq.jsonl"
    seq_path.write_text(field_to_jsonl(delta_sequence(cat)))
    code, out, _ = run_cli(
        capsys,
        ["pair", "--group", "t1", "--cutoff", "500", "--sequence", str(seq_path)],
        stdin_text=field_to_jsonl(phi),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    value = complex(*json.loads(out)["value"])
    from gevreykit.fourier import inverse_transform
    from gevreykit.quadrature import identity_element

    truth = inverse_transform(phi, [identity_element(cat.spec)])[0]
    assert abs(value - truth) < 1e-9


def test_probe_series_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["probe", "--lemma", "series", "--group", "su2", "--cutoff", "40",
         "--t", "1.5", "--t", "2.0"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bracket,partial_sum_t_1.5,partial_sum_t_2"
    cat = enumerate_dual(GroupSpec("su2"), 40.0)
    assert len(lines) == 1 + len(cat)
    last = [float(x) for x in lines[-1].split(",")]
    prev = [float(x) for x in lines[-2].split(",")]
    assert last[1] >= prev[1] and last[2] >= prev[2]


def test_sphere_pipeline(capsys, monkeypatch):
    spec = GroupSpec("so3")
    cat = enumerate_dual(spec, 8.0)
    f = synthesize_gevrey(cat, 2.0, 1.0, "dense")
    code, projected, _ = run_cli(
        capsys,
        ["sphere", "--group", "so3", "--cutoff", "8", "--action", "project"],
        stdin_text=field_to_jsonl(f),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, series_csv, _ = run_cli(
        capsys,
        ["sphere", "--group", "so3", "--cutoff", "8", "--action", "series"],
        stdin_text=projected,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert series_csv.splitlines()[0] == "beta,alpha,re,im"
    code, lifted_csv, _ = run_cli(
        capsys,
        ["sphere", "--group", "so3", "--cutoff", "8", "--action", "lift"],
        stdin_text=series_csv,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert lifted_csv.splitlines()[0] == "re,im"
    code, out, _ = run_cli(
        capsys,
        ["sphere", "--group", "so3", "--cutoff", "8", "--action", "test",
         "--s", "2", "--mode", "R", "--expect", "pass"],
        stdin_text=projected,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "cat.json"
    code, out, _ = run_cli(
        capsys,
        ["catalog", "--group", "su2", "--cutoff", "3", "-o", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["label"] == [0]


def test_non_finite_input_exits_3(capsys, monkeypatch):
    for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
        code, out, err = run_cli(
            capsys,
            ["classify", "--group", "t1", "--cutoff", "10", "--s", "1"],
            stdin_text='{"label": [0], "matrix": [[[%s, 0.0]]]}\n' % bad,
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert out == ""
        assert "line 1" in err
    grid = build_grid(GroupSpec("so3"), band_for_catalog(enumerate_dual(GroupSpec("so3"), 3.0)))
    # the writer refuses NaN, so the NaN goes into the (1, 2) row's text
    rows = sphere_csv(grid, np.ones((len(grid.beta), len(grid.alpha)))).splitlines(True)
    k = 1 + len(grid.alpha) + 2
    cells = rows[k].split(",")
    rows[k] = ",".join(cells[:2] + ["nan"] + cells[3:])
    code, out, err = run_cli(
        capsys,
        ["sphere", "--group", "so3", "--cutoff", "3", "--action", "lift"],
        stdin_text="".join(rows),
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert "non-finite" in err


def test_classify_survives_overflowing_decay_constant(capsys, monkeypatch):
    # s = 0.5 decay fitted at s = 3 has log K far beyond the double range
    group = ["--group", "t2", "--cutoff", "60"]
    code, field, _ = run_cli(capsys, ["synthesize", *group, "--s", "0.5", "--B", "1"])
    assert code == 0
    for mode in ("R", "B"):
        code, out, _ = run_cli(
            capsys,
            ["classify", *group, "--s", "3", "--mode", mode, "--expect", "pass"],
            stdin_text=field,
            monkeypatch=monkeypatch,
        )
        verdict = json.loads(out)
        assert code == 0
        assert verdict["pass"] is True
        assert verdict["K"] == "inf"


def test_pair_refuses_overflowing_terms(capsys, monkeypatch, tmp_path):
    huge = "".join('{"label": [%d], "matrix": [[[1e300, 0.0]]]}\n' % k for k in range(-2, 3))
    seq_path = tmp_path / "seq.jsonl"
    seq_path.write_text(huge)
    code, out, err = run_cli(
        capsys,
        ["pair", "--group", "t1", "--cutoff", "3", "--sequence", str(seq_path)],
        stdin_text=huge,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert "not finite" in err


def test_catalog_cutoff_admission(capsys):
    for group, cutoff, want in (("t1", "inf", 3), ("su2", "nan", 3), ("so3", "-inf", 3),
                                ("t1", "1e12", 4)):
        code, out, err = run_cli(capsys, ["catalog", "--group", group, "--cutoff=" + cutoff])
        assert code == want
        assert out == ""
        assert "Traceback" not in err


def test_orders_and_rates_that_are_not_finite_exit_3(capsys, monkeypatch):
    group = ["--group", "so3", "--cutoff", "7"]
    code, field, _ = run_cli(capsys, ["synthesize", *group, "--s", "2", "--B", "1"])
    assert code == 0
    for argv in (["classify", "--s", "nan"], ["classify", "--s", "inf"],
                 ["classify", "--s=-inf", "--side", "space"], ["classify", "--s", "1e-320"],
                 ["ultra-test", "--s", "inf"], ["ultra-test", "--s", "nan"],
                 ["sphere", "--action", "test", "--s", "nan"],
                 ["sphere", "--action", "ultra", "--s", "inf"],
                 ["synthesize", "--s", "nan", "--B", "1"], ["synthesize", "--s", "inf", "--B", "1"],
                 ["synthesize", "--s", "2", "--B", "nan"], ["synthesize", "--s", "2", "--B=-inf"]):
        code, out, err = run_cli(capsys, [argv[0], *group, *argv[1:]],
                                 stdin_text=field, monkeypatch=monkeypatch)
        assert code == 3, argv
        assert out == ""
        assert "data error" in err and "Traceback" not in err


def test_a_block_whose_hs_norm_leaves_the_double_range_exits_3(capsys, monkeypatch):
    # finite entries of 1e308 whose HS norm is 2e308 on SU(2), and sqrt(5) 1e308 in the
    # class-I row of an SO(3) block: the verdicts read that norm, so each command refuses
    su2 = enumerate_dual(GroupSpec("su2"), 7.0)
    f = synthesize_gevrey(su2, 2.0, 1.0, "dense")
    f[(1,)] = np.full((2, 2), 1e308)
    so3 = enumerate_dual(GroupSpec("so3"), 8.0)
    g = project_class_one(synthesize_gevrey(so3, 2.0, 1.0, "dense"), ClassIStructure(so3))
    block = np.zeros((5, 5))
    block[2] = 1e308
    g[(2,)] = block
    for field, group, argv in (
            (f, ["--group", "su2", "--cutoff", "7"], ["classify", "--side", "fourier"]),
            (f, ["--group", "su2", "--cutoff", "7"], ["classify", "--side", "space"]),
            (f, ["--group", "su2", "--cutoff", "7"], ["classify", "--side", "both"]),
            (f, ["--group", "su2", "--cutoff", "7"], ["ultra-test"]),
            (g, ["--group", "so3", "--cutoff", "8"], ["sphere", "--action", "test"]),
            (g, ["--group", "so3", "--cutoff", "8"], ["sphere", "--action", "ultra"])):
        code, out, err = run_cli(capsys, [argv[0], *group, *argv[1:], "--s", "2"],
                                 stdin_text=field_to_jsonl(field), monkeypatch=monkeypatch)
        assert code == 3, argv
        assert out == ""  # no verdict, so no NaN in one
        label = "(1,)" if field is f else "(2,)"
        assert "class %s's HS norm" % label in err and "Traceback" not in err


def test_synthesize_omits_classes_whose_norms_underflow(capsys):
    code, out, _ = run_cli(capsys, ["synthesize", "--group", "t1", "--cutoff", "50",
                                    "--s", "0.001", "--B", "1"])
    assert code == 0
    assert [json.loads(line)["label"] for line in out.splitlines()] == [[0]]
    assert "NaN" not in out and "Infinity" not in out


def test_field_entry_budget_exits_4(capsys):
    # 400,001 classes pass the candidate budget; their fields would hold ~1e16 entries
    code, out, err = run_cli(capsys, ["synthesize", "--group", "su2", "--cutoff", "2e5",
                                      "--s", "2", "--B", "1"])
    assert code == 4
    assert out == ""
    assert "resource error" in err and "entries" in err


def test_arithmetic_errors_exit_3(capsys, monkeypatch):
    def overflowing(args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "cmd_catalog", overflowing)
    code, out, err = run_cli(capsys, ["catalog", "--group", "t1", "--cutoff", "3"])
    assert code == 3
    assert out == ""
    assert err.startswith("data error")


def test_probe_refuses_fewer_than_one_trial(capsys):
    for argv in (["probe", "--lemma", "norms", "--trials", "0"],
                 ["probe", "--lemma", "hy", "--group", "su2", "--cutoff", "3", "--trials", "-2"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("usage error") and "--trials" in err


@pytest.mark.parametrize("argv", [
    ["synthesize", "--group", "t1", "--cutoff", "10", "--s", "2", "--B", "1",
     "--profile", "random_phase"],
    ["probe", "--lemma", "hy", "--group", "su2", "--cutoff", "3", "--trials", "1"],
    ["probe", "--lemma", "norms", "--trials", "1"],
])
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for extra in (["--seed", "-1"], ["--seed=-1"], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, argv + extra)
        assert (code, out) == (2, ""), extra
        assert err.startswith("usage error") and "--seed" in err and "Traceback" not in err
    assert run_cli(capsys, argv + ["--seed", "0"])[0] == 0


def test_probe_series_exponent_must_be_a_finite_number(capsys):
    argv = ["probe", "--lemma", "series", "--group", "su2", "--cutoff", "10", "--t"]
    code, out, err = run_cli(capsys, argv + ["abc"])
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--t" in err and "Traceback" not in err
    for bad in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, argv[:-1] + ["--t=" + bad])
        assert code == 3, bad
        assert out == ""
        assert "data error" in err and "finite" in err


def test_config_values_take_the_declared_types(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    field = tmp_path / "field.jsonl"
    field.write_text('{"label": [0], "matrix": [[[1.0, 0.0]]]}\n')
    for argv, body, name in (
            (["catalog"], {"group": "t1", "cutoff": "abc"}, "--cutoff"),
            (["probe"], {"lemma": "norms", "trials": [3]}, "--trials"),
            (["classify", "--group", "t1", "--cutoff", "3", "--s", "1", "-i", str(field)],
             {"side": "sideways"}, "--side"),
            (["probe", "--lemma", "series", "--group", "su2", "--cutoff", "10"], {"t": "12"},
             "--t")):
        cfg.write_text(json.dumps(body))
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage error") and name in err and "Traceback" not in err
    cfg.write_text(json.dumps({"lemma": "series", "group": "su2", "cutoff": 10, "t": [1.5, 2]}))
    code, out, _ = run_cli(capsys, ["probe", "--config", str(cfg)])
    assert code == 0
    assert out == run_cli(capsys, ["probe", "--lemma", "series", "--group", "su2",
                                   "--cutoff", "10", "--t", "1.5", "--t", "2"])[1]


@pytest.mark.parametrize("name,bad", [
    ("cutoff", True), ("cutoff", "3"), ("s", "1"), ("s", False), ("B", True), ("B", "1.0"),
    ("t", [1.5, "2"]), ("t", [True]), ("cutoff", 10 ** 400),
])
def test_float_config_values_must_be_json_numbers(capsys, tmp_path, name, bad):
    cfg = tmp_path / "cfg.json"
    body = {"group": "t1", "cutoff": 10, "s": 2, "B": 1, "t": [1.5]}
    argv = ["synthesize", "--profile", "diagonal"] if name != "t" else [
        "probe", "--lemma", "series"]
    cfg.write_text(json.dumps(dict(body, **{name: bad})))
    code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
    assert (code, out) == (2, ""), bad
    assert err.startswith("usage error") and "--" + name in err and "Traceback" not in err
    cfg.write_text(json.dumps(body))
    assert run_cli(capsys, argv + ["--config", str(cfg)])[0] == 0


@pytest.mark.parametrize("name,argv", [
    ("seed", ["synthesize", "--group", "t1", "--cutoff", "10", "--s", "2", "--B", "1",
              "--profile", "random_phase"]),
    ("trials", ["probe", "--lemma", "norms", "--seed", "0"]),
    ("band", ["transform", "--group", "so3", "--cutoff", "1", "--inverse"]),
])
def test_integer_config_values_must_be_integers(capsys, tmp_path, name, argv):
    cfg = tmp_path / "cfg.json"
    field = tmp_path / "field.jsonl"
    field.write_text('{"label": [0], "matrix": [[[1.0, 0.0]]]}\n')
    argv = argv + ["-i", str(field)] * (name == "band") + ["--config", str(cfg)]
    for bad in (1.5, True, "3", 2.0):
        cfg.write_text(json.dumps({name: bad}))
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), bad
        assert err.startswith("usage error") and "--" + name in err and "Traceback" not in err
    cfg.write_text(json.dumps({name: 3}))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == run_cli(capsys, argv[:-2] + ["--" + name, "3"])[1]


def test_config_keys_must_be_options(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "so3", "cutoff": 3, "sed": 5}))
    code, out, err = run_cli(capsys, ["catalog", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("usage error") and "'sed'" in err
    # an option of another subcommand is still accepted
    cfg.write_text(json.dumps({"group": "so3", "cutoff": 3, "trials": 4, "quick": True}))
    assert run_cli(capsys, ["catalog", "--config", str(cfg)])[:2] == run_cli(
        capsys, ["catalog", "--group", "so3", "--cutoff", "3"])[:2]


def test_switch_config_values_must_be_booleans(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    field = tmp_path / "field.jsonl"
    field.write_text('{"label": [0], "matrix": [[[1.0, 0.0]]]}\n')
    argv = ["transform", "--group", "so3", "--cutoff", "1", "-i", str(field), "--config", str(cfg)]
    for bad in ("no", 0, 1, [True]):
        cfg.write_text(json.dumps({"inverse": bad}))
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), bad
        assert err.startswith("usage error") and "--inverse" in err
    cfg.write_text(json.dumps({"inverse": True}))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == run_cli(capsys, argv[:-2] + ["--inverse"])[1]
    cfg.write_text(json.dumps({"quick": "yes"}))
    code, out, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert (code, out) == (2, "") and "--quick" in err


def test_grid_budget_exits_4(capsys):
    code, out, err = run_cli(capsys, ["transform", "--group", "so3", "--cutoff", "3",
                                      "--band", "100000", "--inverse", "-i", "-"])
    assert (code, out) == (4, "")
    assert err.startswith("resource error") and "Traceback" not in err


def test_deep_json_exits_3(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "\n")
    field = tmp_path / "field.jsonl"
    field.write_text('{"label": [0], "matrix": [[[1.0, 0.0]]]}\n')
    cat = ["--group", "t1", "--cutoff", "3"]
    for argv, where in ((["classify", "--s", "1", "-i", str(deep)] + cat, "line 1"),
                        (["pair", "--sequence", str(deep), "-i", str(field)] + cat, "line 1"),
                        (["catalog", "--config", str(deep)], "config file")):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("data error") and where in err


def test_dstack_budget_exits_4(capsys, monkeypatch):
    # the grid passes its budget; its d stack up to 2j = 254 on 128 betas does not
    code, out, err = run_cli(capsys, ["transform", "--group", "so3", "--cutoff", "3",
                                      "--band", "127", "--inverse", "-i", "-"],
                             stdin_text='{"label": [0], "matrix": [[[1.0, 0.0]]]}\n',
                             monkeypatch=monkeypatch)
    assert (code, out) == (4, "")
    assert err.startswith("resource error") and "little-d stack" in err


def test_writers_refuse_non_finite_values_exit_3(capsys, tmp_path):
    # the sums of both transforms overflow: five samples of 1.7e308 on the
    # forward one, coefficients of 1e308 on the inverse one
    samples = tmp_path / "s.csv"
    samples.write_text("re,im\n" + "1.7e308,0\n" * 5)
    coeffs = tmp_path / "c.jsonl"
    coeffs.write_text("".join('{"label": [%d], "matrix": [[[1e308, 0.0]]]}\n' % k
                              for k in (0, 1, -1)))
    cat = ["--group", "t1", "--cutoff", "2.5"]
    for argv, what in ((["transform", "-i", str(samples)], "label (0,)"),
                       (["transform", "--inverse", "-i", str(coeffs)], "sample 0")):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, argv + cat)
        assert (code, out) == (3, ""), argv
        assert err.startswith("data error") and "%s is not finite" % what in err


def test_sphere_series_refuses_non_finite_values_exit_3(capsys, tmp_path):
    # coefficients of 1e308 project cleanly, but their series overflows
    coeffs = tmp_path / "c.jsonl"
    coeffs.write_text("".join('{"label": [%d], "matrix": %s}\n' % (l, [[[1e308, 0.0]] * d] * d)
                              for l, d in ((0, 1), (1, 3), (2, 5))))
    sphere = ["sphere", "--group", "so3", "--cutoff", "3"]
    code, projected, _ = run_cli(capsys, sphere + ["--action", "project", "-i", str(coeffs)])
    assert code == 0
    target = tmp_path / "p.jsonl"
    target.write_text(projected)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, sphere + ["--action", "series", "-i", str(target)])
    assert (code, out) == (3, "")
    assert err.startswith("data error") and "(beta, alpha)" in err and "not finite" in err


README = Path(__file__).resolve().parent.parent / "README.md"
T1_FIELD = ["--group", "t1", "--cutoff", "6000", "--s", "2"]
SO3_12 = ["--group", "so3", "--cutoff", "12"]
# every README command but `verify`, as written there
README_PIPELINES = {
    "catalog": [["catalog", "--group", "su2", "--cutoff", "30"]],
    "synthesize|classify": [["synthesize", *T1_FIELD, "--B", "1"],
                            ["classify", *T1_FIELD, "--mode", "R", "--expect", "pass"]],
    "classify --side both": [["classify", *T1_FIELD, "--side", "both", "-i", "field.jsonl"]],
    "ultra-test": [["ultra-test", "--group", "t1", "--cutoff", "2000", "--s", "2", "--mode", "B",
                    "-i", "sequence.jsonl"]],
    "transform": [["transform", *SO3_12, "-i", "samples.csv"]],
    "transform --inverse": [["transform", *SO3_12, "--inverse", "-i", "field.jsonl"]],
    "pair": [["pair", "--group", "su2", "--cutoff", "70", "--sequence", "delta.jsonl",
              "-i", "field.jsonl"]],
    "sphere project": [["sphere", *SO3_12, "--action", "project", "-i", "field.jsonl"]],
    "sphere lift": [["sphere", *SO3_12, "--action", "lift", "-i", "sphere.csv"]],
    "sphere series": [["sphere", *SO3_12, "--action", "series", "-i", "projected.jsonl"]],
    "sphere test": [["sphere", *SO3_12, "--action", "test", "-i", "projected.jsonl",
                     "--s", "2", "--mode", "R"]],
    "sphere ultra": [["sphere", *SO3_12, "--action", "ultra", "-i", "sequence.jsonl",
                      "--s", "2", "--mode", "B"]],
    "probe series": [["probe", "--lemma", "series", "--group", "su2", "--cutoff", "500",
                      "--t", "1.5", "--t", "2.0"]],
    "probe hy": [["probe", "--lemma", "hy", "--group", "su2", "--cutoff", "6", "--trials", "10",
                  "--seed", "0"]],
    "probe norms": [["probe", "--lemma", "norms", "--trials", "100", "--seed", "0"]],
}


def _readme_inputs(name):
    """The files a README pipeline reads, on its own catalog: field.jsonl a
    Gevrey field, sequence.jsonl a growth sequence (class-I on the sphere),
    delta.jsonl the delta sequence, and on SO(3) the grid samples
    (samples.csv), the class-I projection (projected.jsonl) and its
    spherical series (sphere.csv) of the field."""
    if name == "classify --side both":
        return {"field.jsonl": synthesize_gevrey(enumerate_dual(GroupSpec("torus", 1), 6000.0),
                                                 2.0, 1.0)}
    if name == "ultra-test":
        return {"sequence.jsonl": growth_sequence(enumerate_dual(GroupSpec("torus", 1), 2000.0),
                                                  2.0, 0.5)}
    if name == "pair":
        # a field decaying like exp(-<xi>^2) leaves the pairing no tail past bracket 7
        cat = enumerate_dual(GroupSpec("su2"), 70.0)
        return {"delta.jsonl": delta_sequence(cat), "field.jsonl": synthesize_gevrey(cat, 0.5, 1.0)}
    return _so3_inputs() if name.startswith(("transform", "sphere")) else {}


@functools.lru_cache(maxsize=None)
def _so3_inputs():
    spec = GroupSpec("so3")
    cat = enumerate_dual(spec, 12.0)
    structure, grid = ClassIStructure(cat), build_grid(spec, band_for_catalog(cat))
    field = synthesize_gevrey(cat, 2.0, 1.0)
    projected = project_class_one(field, structure)
    values = sphere_series(projected, structure, [(b, a) for b in grid.beta for a in grid.alpha])
    return {"field.jsonl": field, "projected.jsonl": projected,
            "sequence.jsonl": project_class_one(growth_sequence(cat, 2.0, 0.5), structure),
            "samples.csv": samples_to_csv(inverse_on_grid(field, grid)),
            "sphere.csv": sphere_csv(grid, values.reshape(len(grid.beta), len(grid.alpha)))}


def _env_with_src():
    path = [str(Path(cli.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize("name", README_PIPELINES)
def test_readme_pipelines_exit_0_as_commands(name, tmp_path, pipeline_seconds):
    """Each README pipeline as fresh `python -m gevreykit.cli` processes, start-up
    included; its seconds go to the terminal summary and gate nothing."""
    env = _env_with_src()
    for file, value in _readme_inputs(name).items():
        (tmp_path / file).write_text(value if isinstance(value, str) else field_to_jsonl(value))
    start = time.perf_counter()
    procs, stdin = [], subprocess.DEVNULL
    for argv in README_PIPELINES[name]:
        procs.append(subprocess.Popen([sys.executable, "-m", "gevreykit.cli", *argv], cwd=tmp_path,
                                      env=env, stdin=stdin, stdout=subprocess.PIPE))
        stdin = procs[-1].stdout
    for proc in procs[:-1]:
        proc.stdout.close()  # the next command owns the pipe now
    procs[-1].communicate()
    codes = [proc.wait() for proc in procs]
    pipeline_seconds[name] = time.perf_counter() - start
    assert codes == [0] * len(procs), name


def test_readme_library_example_prints_true_then_false(capsys):
    block = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["True", "False"]


def test_importing_the_package_and_its_cli_loads_no_scipy_special():
    code = ("import sys, gevreykit, gevreykit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    run = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"
