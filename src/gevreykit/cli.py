"""Command-line front end.

Structured results go to stdout as JSON or CSV; diagnostics go to
stderr.  Exit codes: 0 success, 1 verdict mismatch against --expect (or
a failed verify run), 2 usage or configuration, 3 bad data, 4 resource
limits.  Options may also be supplied through a JSON config file; flags
win on conflict.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .duality import pair, ultra_membership_test
from .errors import ConfigurationError, DataError, GevreyKitError, ResourceError
from .fourier import (
    forward_transform,
    hausdorff_young_gap,
    inverse_on_grid,
    matrix_norm_slacks,
)
from .gevrey import cross_check, fourier_side_test, space_side_test, synthesize_gevrey
from .groups import GroupSpec, enumerate_dual, series_convergence_probe
from .quadrature import band_for_catalog, build_grid
from .serialize import (
    catalog_to_json,
    decay_csv,
    field_from_jsonl,
    field_to_jsonl,
    samples_from_csv,
    samples_to_csv,
    sphere_csv,
    verdict_to_json,
)
from .sphere import (
    ClassIStructure,
    lift,
    project_class_one,
    sphere_gevrey_test,
    sphere_series,
    sphere_ultra_test,
)
from .verification import run_suite

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4


def _parse_group(name):
    name = str(name).lower()
    if name in ("su2", "so3"):
        return GroupSpec(name)
    if name.startswith("t") and name[1:].isdigit():
        return GroupSpec("torus", torus_dim=int(name[1:]))
    raise ConfigurationError(
        "unknown group %r; use su2, so3, or t<n> for the n-torus" % name
    )


def _read_text(path):
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc))


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc))


def _load_config(path):
    if not path:
        return {}
    try:
        cfg = json.loads(_read_text(path))
    except ValueError as exc:
        raise DataError("config file %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise DataError("config file %s must hold a JSON object" % path)
    return cfg


def _opt(args, name, default=None, required=False, cast=None):
    """Flag value if given, else config value, else the default."""
    val = getattr(args, name, None)
    if val is None:
        val = args._config.get(name, default)
    if val is None and required:
        raise ConfigurationError("missing required option --%s" % name.replace("_", "-"))
    if val is not None and cast is not None:
        val = cast(val)
    return val


def _catalog(args):
    spec = _parse_group(_opt(args, "group", required=True))
    cutoff = _opt(args, "cutoff", required=True, cast=float)
    return spec, enumerate_dual(spec, cutoff)


def _load_field(args, catalog):
    return field_from_jsonl(_read_text(_opt(args, "input")), catalog)


def _report(args, verdict, out=None):
    """Write ``out`` (by default the verdict's JSON) as one line and
    return the exit code --expect asks for."""
    _write_text(_opt(args, "output"), (verdict_to_json(verdict) if out is None else out) + "\n")
    expect = _opt(args, "expect")
    if expect is None:
        return EXIT_OK
    if expect not in ("pass", "fail"):
        raise ConfigurationError("--expect takes pass or fail, got %r" % expect)
    if verdict.passed != (expect == "pass"):
        print(
            "expectation not met: wanted %s, got %s"
            % (expect, "pass" if verdict.passed else "fail"),
            file=sys.stderr,
        )
        return EXIT_VERDICT
    return EXIT_OK


def cmd_catalog(args):
    _, cat = _catalog(args)
    _write_text(_opt(args, "output"), catalog_to_json(cat) + "\n")
    return EXIT_OK


def cmd_transform(args):
    spec, cat = _catalog(args)
    band = _opt(args, "band", cast=int)
    grid = build_grid(spec, band if band is not None else band_for_catalog(cat))
    if _opt(args, "inverse", default=False):
        coeffs = _load_field(args, cat)
        values = inverse_on_grid(coeffs, grid)
        _write_text(_opt(args, "output"), samples_to_csv(values))
        return EXIT_OK
    samples = samples_from_csv(_read_text(_opt(args, "input")), grid.shape)
    coeffs = forward_transform(grid, samples, cat)
    _write_text(_opt(args, "output"), field_to_jsonl(coeffs))
    return EXIT_OK


def cmd_synthesize(args):
    _, cat = _catalog(args)
    coeffs = synthesize_gevrey(
        cat,
        _opt(args, "s", required=True, cast=float),
        _opt(args, "B", required=True, cast=float),
        profile=_opt(args, "profile", default="diagonal"),
        seed=_opt(args, "seed", default=0, cast=int),
    )
    dpath = _opt(args, "decay_csv")
    if dpath:
        _write_text(dpath, decay_csv(coeffs))
    _write_text(_opt(args, "output"), field_to_jsonl(coeffs))
    return EXIT_OK


def cmd_classify(args):
    _, cat = _catalog(args)
    coeffs = _load_field(args, cat)
    s = _opt(args, "s", required=True, cast=float)
    mode = _opt(args, "mode", default="R")
    side = _opt(args, "side", default="fourier")
    dpath = _opt(args, "decay_csv")
    if dpath:
        _write_text(dpath, decay_csv(coeffs))
    if side in ("fourier", "space"):
        test = fourier_side_test if side == "fourier" else space_side_test
        return _report(args, test(coeffs, s, mode=mode))
    if side == "both":
        both = cross_check(coeffs, s, mode)
        out = json.dumps(
            {
                "fourier": json.loads(verdict_to_json(both["fourier"])),
                "space": json.loads(verdict_to_json(both["space"])),
                "agree": both["agree"],
            }
        )
        return _report(args, both["fourier"], out)
    raise ConfigurationError("--side takes fourier, space, or both")


def cmd_ultra_test(args):
    _, cat = _catalog(args)
    seq = _load_field(args, cat)
    return _report(args, ultra_membership_test(
        seq, _opt(args, "s", required=True, cast=float), _opt(args, "mode", default="R")
    ))


def cmd_pair(args):
    _, cat = _catalog(args)
    seq_path = _opt(args, "sequence", required=True)
    seq = field_from_jsonl(_read_text(seq_path), cat)
    coeffs = _load_field(args, cat)
    value = pair(seq, coeffs)
    _write_text(
        _opt(args, "output"),
        json.dumps({"value": [value.real, value.imag]}) + "\n",
    )
    return EXIT_OK


def _sphere_grid_values(text, grid):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["beta", "alpha", "re", "im"]:
        raise DataError("sphere CSV must start with the header beta,alpha,re,im")
    body = [r for r in rows[1:] if r]
    want = len(grid.beta) * len(grid.alpha)
    if len(body) != want:
        raise DataError("sphere CSV has %d rows, grid needs %d" % (len(body), want))
    try:
        flat = np.array([complex(float(r[2]), float(r[3])) for r in body])
    except (ValueError, IndexError) as exc:
        raise DataError("bad sphere row: %s" % exc)
    if not np.isfinite(flat).all():
        raise DataError("sphere CSV holds a non-finite value")
    return flat.reshape(len(grid.beta), len(grid.alpha))


def cmd_sphere(args):
    spec, cat = _catalog(args)
    if spec.family != "so3":
        raise ConfigurationError("sphere commands run on the so3 catalog")
    structure = ClassIStructure(cat)
    grid = build_grid(spec, band_for_catalog(cat))
    action = _opt(args, "action", required=True)
    if action == "project":
        coeffs = project_class_one(_load_field(args, cat), structure)
        _write_text(_opt(args, "output"), field_to_jsonl(coeffs))
        return EXIT_OK
    if action == "lift":
        values = _sphere_grid_values(_read_text(_opt(args, "input")), grid)
        _write_text(_opt(args, "output"), samples_to_csv(lift(values, grid)))
        return EXIT_OK
    if action == "series":
        coeffs = _load_field(args, cat)
        points = [(b, a) for b in grid.beta for a in grid.alpha]
        values = np.array(sphere_series(coeffs, structure, points)).reshape(
            len(grid.beta), len(grid.alpha)
        )
        _write_text(_opt(args, "output"), sphere_csv(grid, values))
        return EXIT_OK
    if action in ("test", "ultra"):
        test = sphere_gevrey_test if action == "test" else sphere_ultra_test
        field = _load_field(args, cat)
        return _report(args, test(field, structure, _opt(args, "s", required=True, cast=float),
                                  _opt(args, "mode", default="R")))
    raise ConfigurationError(
        "--action takes project, lift, series, test, or ultra; got %r" % action
    )


def _probe_series(args):
    _, cat = _catalog(args)
    ts = _opt(args, "t")
    if not ts:
        raise ConfigurationError("probe --lemma series needs at least one --t")
    ts = [float(t) for t in ts]
    probes = [series_convergence_probe(cat, t) for t in ts]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["bracket"] + ["partial_sum_t_%g" % t for t in ts])
    for i, rep in enumerate(cat):
        w.writerow(
            ["%.17g" % rep.bracket] + ["%.17g" % p["partial_sums"][i] for p in probes]
        )
    _write_text(_opt(args, "output"), buf.getvalue())
    return EXIT_OK


def _probe_hy(args):
    spec, cat = _catalog(args)
    rng = np.random.default_rng(_opt(args, "seed", default=0, cast=int))
    grid = build_grid(spec, band_for_catalog(cat))
    worst = [np.inf, np.inf]
    trials = _opt(args, "trials", default=10, cast=int)
    for _ in range(trials):
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        coeffs = forward_transform(grid, samples, cat)
        gaps = hausdorff_young_gap(grid, samples, coeffs)
        worst = [min(w, g[1] - g[0]) for w, g in zip(worst, gaps)]
    out = {"trials": trials, "smallest_slack": worst}
    _write_text(_opt(args, "output"), json.dumps(out) + "\n")
    return EXIT_OK


def _probe_norms(args):
    rng = np.random.default_rng(_opt(args, "seed", default=0, cast=int))
    trials = _opt(args, "trials", default=100, cast=int)
    worst = np.inf
    for _ in range(trials):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for p, q in ((1, 2), (1, np.inf), (2, np.inf)):
            worst = min(worst, *matrix_norm_slacks(a, p, q))
    out = {"trials": trials, "smallest_slack": worst}
    _write_text(_opt(args, "output"), json.dumps(out) + "\n")
    return EXIT_OK


def cmd_probe(args):
    lemma = _opt(args, "lemma", required=True)
    if lemma == "series":
        return _probe_series(args)
    if lemma == "hy":
        return _probe_hy(args)
    if lemma == "norms":
        return _probe_norms(args)
    raise ConfigurationError("--lemma takes series, hy, or norms; got %r" % lemma)


def cmd_verify(args):
    results = run_suite(quick=_opt(args, "quick", default=False))
    for r in results:
        print(
            "%-24s %s %6.1fs  %s"
            % (r.name, "PASS" if r.passed else "FAIL", r.seconds, r.detail),
            file=sys.stderr,
        )
    payload = [
        {
            "name": r.name,
            "pass": bool(r.passed),
            "seconds": float(r.seconds),
            "detail": r.detail,
        }
        for r in results
    ]
    _write_text(_opt(args, "output"), json.dumps(payload) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERDICT


def _add_common(p):
    p.add_argument("--config", help="JSON file of option defaults; flags win")
    p.add_argument("--output", "-o", help="output path, - for stdout")


def _add_group(p, cutoff=True):
    p.add_argument("--group", help="su2, so3, or t<n>")
    if cutoff:
        p.add_argument("--cutoff", type=float, help="catalog bracket cutoff")


def build_parser():
    top = argparse.ArgumentParser(
        prog="gevreykit",
        description="Fourier analysis and Gevrey classification on compact groups",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="dump the dual catalog as JSON")
    _add_common(p)
    _add_group(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("transform", help="samples CSV to coefficient JSONL")
    _add_common(p)
    _add_group(p)
    p.add_argument("--band", type=int, help="grid band; default fits the catalog")
    p.add_argument("--input", "-i", help="input path, - for stdin")
    p.add_argument("--inverse", action="store_true", default=None,
                   help="coefficients JSONL to samples CSV instead")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("synthesize", help="build a Gevrey coefficient field")
    _add_common(p)
    _add_group(p)
    p.add_argument("--s", type=float, help="Gevrey order")
    p.add_argument("--B", type=float, help="decay rate")
    p.add_argument("--profile", choices=["diagonal", "dense", "random_phase"])
    p.add_argument("--seed", type=int)
    p.add_argument("--decay-csv", dest="decay_csv", help="also write decay CSV here")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("classify", help="Gevrey verdict for a coefficient field")
    _add_common(p)
    _add_group(p)
    p.add_argument("--input", "-i", help="field JSONL, - for stdin")
    p.add_argument("--s", type=float)
    p.add_argument("--mode", choices=["R", "B", "roumieu", "beurling"])
    p.add_argument("--side", choices=["fourier", "space", "both"])
    p.add_argument("--expect", choices=["pass", "fail"])
    p.add_argument("--decay-csv", dest="decay_csv", help="also write decay CSV here")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ultra-test", help="ultradistribution membership verdict")
    _add_common(p)
    _add_group(p)
    p.add_argument("--input", "-i", help="sequence JSONL, - for stdin")
    p.add_argument("--s", type=float)
    p.add_argument("--mode", choices=["R", "B", "roumieu", "beurling"])
    p.add_argument("--expect", choices=["pass", "fail"])
    p.set_defaults(fn=cmd_ultra_test)

    p = sub.add_parser("pair", help="pair a sequence with a coefficient field")
    _add_common(p)
    _add_group(p)
    p.add_argument("--sequence", help="sequence JSONL path")
    p.add_argument("--input", "-i", help="field JSONL, - for stdin")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("sphere", help="class-I projection, lift, series, verdicts")
    _add_common(p)
    _add_group(p)
    p.add_argument("--action", choices=["project", "lift", "series", "test", "ultra"])
    p.add_argument("--input", "-i", help="input path, - for stdin")
    p.add_argument("--s", type=float)
    p.add_argument("--mode", choices=["R", "B", "roumieu", "beurling"])
    p.add_argument("--expect", choices=["pass", "fail"])
    p.set_defaults(fn=cmd_sphere)

    p = sub.add_parser("probe", help="series, Hausdorff-Young, and norm probes")
    _add_common(p)
    _add_group(p)
    p.add_argument("--lemma", choices=["series", "hy", "norms"])
    p.add_argument("--t", action="append", help="exponent for the series probe")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify", help="run the reproducible property suite")
    _add_common(p)
    p.add_argument("--quick", action="store_true", default=None,
                   help="acceptance checks only")
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(getattr(args, "config", None))
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_OK
    except ConfigurationError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print("resource error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (GevreyKitError, ArithmeticError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
