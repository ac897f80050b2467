"""sha256 pins of the command line: stdout, files written and exit code
per command, and each subcommand's option strings, choices and defaults.

The pins were hashed from the CLI as it stood before its parser was
built from one option table, so a change to any byte a command prints
(or to its exit code) shows here.  `verify` is left out: its JSON
carries timings.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys

import numpy as np
import pytest

from gevreykit import cli
from gevreykit.duality import delta_sequence, growth_sequence
from gevreykit.gevrey import synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.quadrature import band_for_catalog, build_grid
from gevreykit.serialize import field_to_jsonl, samples_to_csv, sphere_csv
from gevreykit.sphere import ClassIStructure, project_class_one


def _inputs():
    t1 = enumerate_dual(GroupSpec("torus", 1), 500.0)
    su2 = enumerate_dual(GroupSpec("su2"), 4.0)
    so3 = enumerate_dual(GroupSpec("so3"), 8.0)
    rng = np.random.default_rng(11)
    su2_grid = build_grid(su2.spec, band_for_catalog(su2))
    so3_grid = build_grid(so3.spec, band_for_catalog(so3))
    so3_field = synthesize_gevrey(so3, 2.0, 1.0, "dense")
    sphere_shape = (len(so3_grid.beta), len(so3_grid.alpha))
    return {
        "t1_field": field_to_jsonl(synthesize_gevrey(t1, 2.0, 1.0)),
        "t1_phi": field_to_jsonl(synthesize_gevrey(t1, 1.0, 1.0)),
        "t1_growth": field_to_jsonl(growth_sequence(t1, 2.0, 1.0)),
        "t1_delta": field_to_jsonl(delta_sequence(t1)),
        "t1_huge": "".join('{"label": [%d], "matrix": [[[1e300, 0.0]]]}\n' % k
                           for k in range(-2, 3)),
        "su2_samples": samples_to_csv(rng.standard_normal(su2_grid.shape)
                                      + 1j * rng.standard_normal(su2_grid.shape)),
        "su2_field": field_to_jsonl(synthesize_gevrey(su2, 1.0, 1.0, "random_phase", seed=3)),
        "so3_field": field_to_jsonl(so3_field),
        "so3_class_one": field_to_jsonl(project_class_one(so3_field, ClassIStructure(so3))),
        "so3_sphere": sphere_csv(so3_grid, rng.standard_normal(sphere_shape)
                                 + 1j * rng.standard_normal(sphere_shape)),
        "so3_sphere_short": "beta,alpha,re,im\n0.1,0.2,1.0,0.0\n",
        "bad_samples": "x,y\n1,2\n",
        "not_jsonl": "this is not jsonl\n",
        "cfg_so3": json.dumps({"group": "so3", "cutoff": 5.0}),
        "cfg_classify": json.dumps({"group": "t1", "cutoff": 500, "s": 2, "mode": "B",
                                    "side": "space"}),
        "cfg_bad_expect": json.dumps({"expect": "maybe"}),
        "cfg_list": json.dumps([1, 2]),
    }


T1 = "--group t1 --cutoff 500 "
SO3 = "--group so3 --cutoff 8 "

# id: (argv with {in}/NAME for an input file and {out}/NAME for an
#      output file, the input fed on stdin or None)
CASES = {
    "catalog-su2": ("catalog --group su2 --cutoff 3", None),
    "catalog-so3": ("catalog --group so3 --cutoff 4", None),
    "catalog-t2": ("catalog --group t2 --cutoff 3.5", None),
    "catalog-config": ("catalog --config {in}/cfg_so3", None),
    "catalog-config-flag-wins": ("catalog --config {in}/cfg_so3 --group su2", None),
    "catalog-output-file": ("catalog --group su2 --cutoff 3 -o {out}/cat.json", None),
    "catalog-output-long": ("catalog --group t1 --cutoff 4 --output {out}/cat.json", None),
    "transform-forward": ("transform --group su2 --cutoff 4", "su2_samples"),
    "transform-input-file": ("transform --group su2 --cutoff 4 -i {in}/su2_samples", None),
    "transform-inverse": ("transform --group su2 --cutoff 4 --inverse", "su2_field"),
    "transform-inverse-band": ("transform --group su2 --cutoff 4 --inverse --band 8",
                               "su2_field"),
    "synthesize-t1": ("synthesize " + T1 + "--s 2 --B 1", None),
    "synthesize-su2-random-phase": ("synthesize --group su2 --cutoff 12 --s 1 --B 1 "
                                    "--profile random_phase --seed 7", None),
    "synthesize-so3-dense": ("synthesize " + SO3 + "--s 2 --B 1 --profile dense", None),
    "synthesize-decay-csv": ("synthesize --group t2 --cutoff 6 --s 1 --B 0.5 "
                             "--decay-csv {out}/decay.csv", None),
    "classify-fourier": ("classify " + T1 + "--s 2 --mode R --expect pass", "t1_field"),
    "classify-fourier-beurling": ("classify " + T1 + "--s 1 --mode beurling", "t1_field"),
    "classify-expectation-not-met": ("classify " + T1 + "--s 1 --mode B --expect pass",
                                     "t1_field"),
    "classify-expect-fail": ("classify " + T1 + "--s 1 --mode B --expect fail", "t1_field"),
    "classify-space": ("classify " + T1 + "--s 2 --side space", "t1_field"),
    "classify-both": ("classify " + T1 + "--s 2 --side both --mode R", "t1_field"),
    "classify-both-beurling": ("classify " + T1 + "--s 3 --side both --mode B "
                               "--expect fail", "t1_field"),
    "classify-decay-csv": ("classify " + T1 + "--s 2 --decay-csv {out}/decay.csv "
                           "-i {in}/t1_field", None),
    "classify-config": ("classify --config {in}/cfg_classify", "t1_field"),
    "classify-config-flag-wins": ("classify --config {in}/cfg_classify --side fourier "
                                  "--mode roumieu", "t1_field"),
    "ultra-test-roumieu": ("ultra-test " + T1 + "--s 2 --mode R", "t1_growth"),
    "ultra-test-beurling": ("ultra-test " + T1 + "--s 2 --mode B --expect pass",
                            "t1_growth"),
    "ultra-test-delta": ("ultra-test " + T1 + "--s 1", "t1_delta"),
    "pair": ("pair " + T1 + "--sequence {in}/t1_delta", "t1_phi"),
    "sphere-project": ("sphere " + SO3 + "--action project", "so3_field"),
    "sphere-lift": ("sphere " + SO3 + "--action lift", "so3_sphere"),
    "sphere-series": ("sphere " + SO3 + "--action series", "so3_class_one"),
    "sphere-test": ("sphere " + SO3 + "--action test --s 2 --mode R --expect pass",
                    "so3_class_one"),
    "sphere-test-leaky": ("sphere " + SO3 + "--action test --s 2 --mode R", "so3_field"),
    "sphere-ultra": ("sphere " + SO3 + "--action ultra --s 1 --mode B", "so3_class_one"),
    "probe-series": ("probe --lemma series --group su2 --cutoff 40 --t 1.5 --t 2.0", None),
    "probe-hy": ("probe --lemma hy --group su2 --cutoff 4 --trials 3 --seed 1", None),
    "probe-hy-torus-default": ("probe --lemma hy --group t2 --cutoff 3", None),
    "probe-norms": ("probe --lemma norms --trials 20 --seed 5", None),
    "probe-norms-default": ("probe --lemma norms", None),
    # exit 2
    "usage-unknown-group": ("catalog --group q5 --cutoff 3", None),
    "usage-missing-group": ("catalog --cutoff 3", None),
    "usage-missing-s": ("classify " + T1, "t1_field"),
    "usage-bad-choice": ("classify " + T1 + "--s 2 --mode X", "t1_field"),
    "usage-no-command": ("", None),
    "usage-sphere-not-so3": ("sphere --group su2 --cutoff 3 --action project", None),
    "usage-sphere-no-action": ("sphere " + SO3, "so3_field"),
    "usage-probe-no-t": ("probe --lemma series --group su2 --cutoff 4", None),
    "usage-config-expect": ("classify --config {in}/cfg_bad_expect " + T1 + "--s 2",
                            "t1_field"),
    # exit 3
    "data-not-jsonl": ("classify --group t1 --cutoff 10 --s 1", "not_jsonl"),
    "data-bad-sample-header": ("transform --group su2 --cutoff 4", "bad_samples"),
    "data-sphere-short": ("sphere " + SO3 + "--action lift", "so3_sphere_short"),
    "data-infinite-cutoff": ("catalog --group t1 --cutoff inf", None),
    "data-pair-overflow": ("pair --group t1 --cutoff 3 --sequence {in}/t1_huge", "t1_huge"),
    "data-band-too-small": ("transform --group su2 --cutoff 4 --inverse --band 5",
                            "su2_field"),
    "data-pair-tail": ("pair " + T1 + "--sequence {in}/t1_delta", "t1_field"),
    "data-non-finite-s": ("classify " + T1 + "--s nan", "t1_field"),
    "data-config-not-object": ("catalog --config {in}/cfg_list", None),
    "data-missing-input-file": ("classify " + T1 + "--s 2 -i {in}/absent", None),
    # exit 4
    "resource-catalog": ("catalog --group t1 --cutoff 1e12", None),
    "resource-field": ("synthesize --group su2 --cutoff 2e5 --s 2 --B 1", None),
}

GOLDEN = {
    "catalog-config": "1920bc6d981a88c9ccd3ffa5818a17d5d6cd75b70a78cf186ac900552462f7d0",
    "catalog-config-flag-wins": "c9d0a0ffa9ca44cefa242a0a5c147145ac75d618b8e83d4448accb8e2e941c29",
    "catalog-output-file": "140c65f35d04aa21834b0937bd2d3267cb4f9eca80270f1a385237ac37d40cb1",
    "catalog-output-long": "069f5579cbb27ad6f5ff793452c281ef54d4a3c21244f63342f2c084778780d9",
    "catalog-so3": "edc7410b8bd9f1519693f40e8c6a30e82ca21b98fbbade4b7c6d9ef17a21bf44",
    "catalog-su2": "25b16ec877b1d63c82d42cbea94c470857129fbd03aaa3afdb028c3d0fe5b5d8",
    "catalog-t2": "d03b7e82954e8e174f0f463afce1dd63bb7f22ed3087926e2aace1e121bb7ad7",
    "classify-both": "755358301108599c18e5ee168ed0a50f253469dc8bccacdba6f3e382c72e0f63",
    "classify-both-beurling": "7fb2c1049e0fd83299290acaf06f53f274649434a3d5b60363ac453d2bb5eea3",
    "classify-config": "03eb8561a3f80d79c32432f952821e1fb52ed4d6a2cc7d13122d71d77056c1bb",
    "classify-config-flag-wins": "ad74f07a23d3abcdf2c1e9e40c29f5e926c28c09dab814796d8331ec9bfcd84f",
    "classify-decay-csv": "9a6919dfd582d8a44a74f7abc1716142030d558a9cbf53b7918ec01fd2d8f37f",
    "classify-expect-fail": "ecb8676b20c0150a88b2a0f0728014cb0ff1d5ab1dae705d7aaf3ee685fdd0cc",
    "classify-expectation-not-met": "45b491e4c8740e3d3950192718da4fcdb7ae890f68759ad5e9ea1d6936fffba1",
    "classify-fourier": "ad74f07a23d3abcdf2c1e9e40c29f5e926c28c09dab814796d8331ec9bfcd84f",
    "classify-fourier-beurling": "ecb8676b20c0150a88b2a0f0728014cb0ff1d5ab1dae705d7aaf3ee685fdd0cc",
    "classify-space": "c9eff0b0b2739cef24372d5ed0c7e23bdb9a1fcdbdd2104abcc86137b4efff4b",
    "data-bad-sample-header": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-band-too-small": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-config-not-object": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-infinite-cutoff": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-missing-input-file": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-non-finite-s": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-not-jsonl": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-pair-overflow": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-pair-tail": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "data-sphere-short": "5da93d16ad6ff28e48e31947d9d61663b39fb5c662b1125ea98c9913f35cdd3f",
    "pair": "fd7f5d202d05814bb60260b601779831e6d5dc4330a18cd209b095f698e05cc6",
    "probe-hy": "f93eddf23bb4d7efe733f0facbb4dba631ae0074d3ece9da2fe1d7393f445eba",
    "probe-hy-torus-default": "e13f42678858afec9ff1a56c49732a4ee971370ec172e68da6cdfa389610189c",
    "probe-norms": "eb00d2d0f18475a3f677ca72b51aec3b7de05499ccc053ae3cdcb05bded73c9c",
    "probe-norms-default": "bf5a9e4e9d41d6f7209c19d1501f5e8eb27c67861878f2e4dc95bd3900dbd347",
    "probe-series": "5e5e91b94ffa0db2db63b534979a6d8c6169f761b93ca6199db3032433b4f3b2",
    "resource-catalog": "53d08ad693594185492cc1aa093ce94f6fc8a73b63f9fa40408938968da8aaaf",
    "resource-field": "53d08ad693594185492cc1aa093ce94f6fc8a73b63f9fa40408938968da8aaaf",
    "sphere-lift": "ce1bdfb1b263b64760d1da83920e68e4afe60c4d34cc7054a29a64f6360ab3d0",
    "sphere-project": "caff8ecb9b5ea01216faac1a9fa22635c72925ae0a4b2efe5130009db64b8c86",
    "sphere-series": "d627a512f89afd4bbd2a76e13f0008c12fbdfdb954d838e31d5bb3e8aea3442f",
    "sphere-test": "70502d4aecf93df1a68bdebeaa1bab31ae292668e7ab3a1b19a7a37f21145078",
    "sphere-test-leaky": "744c3ac725d391f3af6823ec9b1e2e55a1d7326305ee5c8f75aebeedea1fd9ef",
    "sphere-ultra": "725ed57e52dd2be8c07a382050574b09c5c95a42c17bcd2966317aa50b19513b",
    "synthesize-decay-csv": "0c59529892f25ca2463836755ca8567a5962f9c30a5ca013f41713539fbd8ea3",
    "synthesize-so3-dense": "bc1f45a60168679e781d63133aecffba13e3defabf25302a7e3fb8a330e097cd",
    "synthesize-su2-random-phase": "91410049d7666ebd142448d35fcbd5030d4351ceb40fc3168fcb20a88321cba9",
    "synthesize-t1": "073e3d570e336db9486492b78351f4b2abccfada838c854e47546d53870f9622",
    "transform-forward": "e7418f107bdcf0eef30e606e0bc5baa52282c99d22877d0de21db9972ee49cfd",
    "transform-input-file": "e7418f107bdcf0eef30e606e0bc5baa52282c99d22877d0de21db9972ee49cfd",
    "transform-inverse": "f17a791c542310836bf28dc9b09f0aeba1b7e95c83f5cbeb1e7cdcf6a5a053ec",
    "transform-inverse-band": "870791733fd67169c950c1a6d993d508477b691f5ff4e0d9dd64dd95389c9e56",
    "ultra-test-beurling": "9bacc5183251f89c8695f865349b69872af1427c50bff278f6d76c4d8d0d9b62",
    "ultra-test-delta": "316c3e9ad7fea12c2276c05d71339b9c041383a237dfde3276034123c2fd0184",
    "ultra-test-roumieu": "66053142fe8b77e7a9005ac983104d6bc4598ff2eb24dacdc9a7396004b698e6",
    "usage-bad-choice": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-config-expect": "087648f2ab7f7d2e5b96c34530a94e9b34a2d33b5c13cb5415f4ea79ed3333d8",
    "usage-missing-group": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-missing-s": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-no-command": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-probe-no-t": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-sphere-no-action": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-sphere-not-so3": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
    "usage-unknown-group": "b5e96b1b1e80b7275fcbdf4164495870a2d5989755f3cf5534510dbc5274f4f8",
}

# sha256 of each subcommand's sorted (option strings, dest, choices, default)
OPTION_PINS = {
    "catalog": "cc0c95eef45d5b4166e32231e0d95d5b40b39ad9a5b0f642513012f9dfffb15a",
    "classify": "e3873f2bc89e9dd144f4460838939c277cb8aa88c4e0322383cbb8b36fe116a9",
    "pair": "6ae6ddf7a51e9a5f41cb399c23871c33507f192ae5868e8d20a167296d1435fa",
    "probe": "42fedf4f40dd452d9cc9b5d61ba8041ae3f412c88a4aaca6ee7ff01f057df814",
    "sphere": "e75c45161b681add5b363b38c4c1e2cec0e08c02e48dd4818f6d73b9215987bb",
    "synthesize": "d7ea8f23821bb3a354a4a5a56f590a13c63dbe50e5438ebd8e1117f679cbc29a",
    "transform": "6507794f566a56dfd25059dfcf436c085e93a3891e9a8252dba32583301422a4",
    "ultra-test": "d889046280d9a72ffd983f197f451b65917aa4f8f61a712c79e0ef13aaccbc91",
    "verify": "6f60bb81a85b84af9e208c7a6b250c0b2c9f3a1acf14d6c5542c08399c2af01d",
}


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


def run_case(argv, stdin_name, inputs, tmp):
    """(exit code, stdout, {output file: text}) of one command."""
    indir, outdir = tmp / "in", tmp / "out"
    indir.mkdir()
    outdir.mkdir()
    for name, text in inputs.items():
        (indir / name).write_text(text)
    argv = argv.format(**{"in": indir, "out": outdir}).split()
    stdin, sys.stdin = sys.stdin, io.StringIO(inputs[stdin_name] if stdin_name else "")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
    return code, out.getvalue(), files


def case_digest(case_id, inputs, tmp):
    code, out, files = run_case(*CASES[case_id], inputs, tmp)
    return hashlib.sha256(json.dumps([code, out, files]).encode()).hexdigest()


def option_table(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            [sorted(a.option_strings), a.dest,
             None if a.choices is None else sorted(a.choices), a.default]
            for a in p._actions
        )
        for name, p in sub.choices.items()
    }


def options_digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_output_pinned(case_id, inputs, tmp_path):
    assert case_digest(case_id, inputs, tmp_path) == GOLDEN[case_id]


def test_subcommand_options_pinned():
    table = option_table(cli.build_parser())
    assert sorted(table) == sorted(OPTION_PINS)
    for name, rows in table.items():
        assert options_digest(rows) == OPTION_PINS[name], name
