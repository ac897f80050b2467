"""Command-line front end.

Structured results go to stdout as JSON or CSV; diagnostics go to
stderr.  Exit codes: 0 success, 1 verdict mismatch against --expect (or
a failed verify run), 2 usage or configuration, 3 bad data, 4 resource
limits.  Options may also be supplied through a JSON config file; flags
win on conflict.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .duality import pair, ultra_membership_test
from .errors import ConfigurationError, DataError, GevreyKitError, ResourceError
from .fourier import forward_transform, hausdorff_young_gap, inverse_on_grid
from .gevrey import PROFILES, cross_check, fourier_side_test, space_side_test, synthesize_gevrey
from .groups import GroupSpec, enumerate_dual, series_convergence_probe
from .quadrature import band_for_catalog, build_grid
from .serialize import (
    catalog_to_json,
    decay_csv,
    field_from_jsonl,
    field_to_jsonl,
    partial_sums_csv,
    samples_from_csv,
    samples_to_csv,
    sphere_csv,
    sphere_from_csv,
    verdict_record,
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
from .verification import matrix_norm_probe, run_suite

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4


def _parse_group(name):
    name = str(name).lower()
    if name in ("su2", "so3"):
        return GroupSpec(name)
    if name.startswith("t") and name[1:].isdigit() and int(name[1:]) >= 1:
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
    except (ValueError, RecursionError) as exc:
        raise DataError("config file %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise DataError("config file %s must hold a JSON object" % path)
    unknown = sorted(set(cfg) - set(OPTIONS))
    if unknown:
        raise ConfigurationError("config file %s has unknown option %s"
                                 % (path, ", ".join(map(repr, unknown))))
    return cfg


def _opt(args, name, default=None, required=False):
    """Flag value if given, else config value, else the default."""
    val = getattr(args, name, None)
    if val is None and args._config.get(name) is not None:
        val = _config_value(name, args._config[name])
    if val is None:
        val = default
    if val is None and required:
        raise ConfigurationError("missing required option --%s" % name.replace("_", "-"))
    return val


def _config_value(name, val):
    """A config-file value put through its option's declared type and
    choices; a numeric option takes a JSON number only, an integer
    option an integer only."""
    flags, kw = OPTIONS[name]
    cast = kw.get("type", lambda v: v)

    def typed(v):
        out = cast(v)
        if isinstance(out, (int, float)) and type(v) not in (int, type(out)):
            raise TypeError("a JSON %s is expected" % ("integer" if type(out) is int else "number"))
        return out

    try:
        if kw.get("action") == "append":
            if not isinstance(val, list):
                raise TypeError("a JSON list is expected")
            val = [typed(v) for v in val]
        elif kw.get("action") == "store_true" and not isinstance(val, bool):
            raise TypeError("true or false is expected")
        else:
            val = typed(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError("config value %r for %s: %s" % (val, flags[0], exc))
    choices = kw.get("choices")
    if choices is not None and val not in choices:
        raise ConfigurationError("%s takes %s; got %r" % (flags[0], ", ".join(choices), val))
    return val


def _catalog(args):
    spec = _parse_group(_opt(args, "group", required=True))
    return spec, enumerate_dual(spec, _opt(args, "cutoff", required=True))


def _load_field(args, catalog):
    return field_from_jsonl(_read_text(_opt(args, "input")), catalog)


def _emit(args, text):
    _write_text(_opt(args, "output"), text)
    return EXIT_OK


def _report(args, verdict, out=None):
    """Write ``out`` (by default the verdict's JSON) as one line and
    return the exit code --expect asks for."""
    _emit(args, (verdict_to_json(verdict) if out is None else out) + "\n")
    expect = _opt(args, "expect")
    if expect is None or verdict.passed == (expect == "pass"):
        return EXIT_OK
    print(
        "expectation not met: wanted %s, got %s"
        % (expect, "pass" if verdict.passed else "fail"),
        file=sys.stderr,
    )
    return EXIT_VERDICT


def cmd_catalog(args):
    _, cat = _catalog(args)
    return _emit(args, catalog_to_json(cat) + "\n")


def cmd_transform(args):
    spec, cat = _catalog(args)
    band = _opt(args, "band")
    grid = build_grid(spec, band if band is not None else band_for_catalog(cat))
    if _opt(args, "inverse", default=False):
        return _emit(args, samples_to_csv(inverse_on_grid(_load_field(args, cat), grid)))
    samples = samples_from_csv(_read_text(_opt(args, "input")), grid.shape)
    return _emit(args, field_to_jsonl(forward_transform(grid, samples, cat)))


def cmd_synthesize(args):
    _, cat = _catalog(args)
    coeffs = synthesize_gevrey(
        cat,
        _opt(args, "s", required=True),
        _opt(args, "B", required=True),
        profile=_opt(args, "profile", default="diagonal"),
        seed=_opt(args, "seed", default=0),
    )
    dpath = _opt(args, "decay_csv")
    if dpath:
        _write_text(dpath, decay_csv(coeffs))
    return _emit(args, field_to_jsonl(coeffs))


SIDES = {"fourier": fourier_side_test, "space": space_side_test, "both": cross_check}


def cmd_classify(args):
    _, cat = _catalog(args)
    coeffs = _load_field(args, cat)
    s = _opt(args, "s", required=True)
    mode = _opt(args, "mode", default="R")
    side = _opt(args, "side", default="fourier")
    dpath = _opt(args, "decay_csv")
    if dpath:
        _write_text(dpath, decay_csv(coeffs))
    result = SIDES[side](coeffs, s, mode=mode)
    if side != "both":
        return _report(args, result)
    out = json.dumps({"fourier": verdict_record(result["fourier"]),
                      "space": verdict_record(result["space"]),
                      "agree": result["agree"]})
    return _report(args, result["fourier"], out)


def cmd_ultra_test(args):
    _, cat = _catalog(args)
    seq = _load_field(args, cat)
    return _report(args, ultra_membership_test(
        seq, _opt(args, "s", required=True), _opt(args, "mode", default="R")
    ))


def cmd_pair(args):
    _, cat = _catalog(args)
    seq = field_from_jsonl(_read_text(_opt(args, "sequence", required=True)), cat)
    value = pair(seq, _load_field(args, cat))
    return _emit(args, json.dumps({"value": [value.real, value.imag]}) + "\n")


def cmd_sphere(args):
    spec, cat = _catalog(args)
    if spec.family != "so3":
        raise ConfigurationError("sphere commands run on the so3 catalog")
    structure = ClassIStructure(cat)
    grid = build_grid(spec, band_for_catalog(cat))
    action = _opt(args, "action", required=True)
    if action == "project":
        return _emit(args, field_to_jsonl(project_class_one(_load_field(args, cat), structure)))
    if action == "lift":
        values = sphere_from_csv(_read_text(_opt(args, "input")), grid)
        return _emit(args, samples_to_csv(lift(values, grid)))
    if action == "series":
        points = [(b, a) for b in grid.beta for a in grid.alpha]
        values = np.array(sphere_series(_load_field(args, cat), structure, points))
        return _emit(args, sphere_csv(grid, values.reshape(len(grid.beta), len(grid.alpha))))
    test = sphere_gevrey_test if action == "test" else sphere_ultra_test
    field = _load_field(args, cat)
    return _report(args, test(field, structure, _opt(args, "s", required=True),
                              _opt(args, "mode", default="R")))


def _probe_series(args):
    _, cat = _catalog(args)
    ts = _opt(args, "t")
    if not ts:
        raise ConfigurationError("probe --lemma series needs at least one --t")
    sums = [series_convergence_probe(cat, t)["partial_sums"] for t in ts]
    return _emit(args, partial_sums_csv(cat, ts, sums))


def _probe_hy(args):
    spec, cat = _catalog(args)
    rng = np.random.default_rng(_opt(args, "seed", default=0))
    grid = build_grid(spec, band_for_catalog(cat))
    worst = [np.inf, np.inf]
    trials = _opt(args, "trials", default=10)
    for _ in range(trials):
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        coeffs = forward_transform(grid, samples, cat)
        gaps = hausdorff_young_gap(grid, samples, coeffs, inverse_on_grid(coeffs, grid))
        worst = [min(w, g[1] - g[0]) for w, g in zip(worst, gaps)]
    return _emit(args, json.dumps({"trials": trials, "smallest_slack": worst}) + "\n")


def _probe_norms(args):
    rng = np.random.default_rng(_opt(args, "seed", default=0))
    trials = _opt(args, "trials", default=100)
    worst = matrix_norm_probe(rng, trials)
    return _emit(args, json.dumps({"trials": trials, "smallest_slack": worst}) + "\n")


PROBES = {"series": _probe_series, "hy": _probe_hy, "norms": _probe_norms}


def cmd_probe(args):
    return PROBES[_opt(args, "lemma", required=True)](args)


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
    _emit(args, json.dumps(payload) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERDICT


def _int_at_least(low, flag):
    """Option type: an int of at least ``low``; a smaller one is a usage error."""
    def integer(text):
        if int(text) < low:
            raise ConfigurationError("%s must be at least %d, got %s" % (flag, low, text))
        return int(text)
    return integer


# Every option once: its flags and argparse keywords.  The key is the
# option's dest and its config-file key; `type` casts config values too.
OPTIONS = {
    "config": (("--config",), dict(help="JSON file of option defaults; flags win")),
    "output": (("--output", "-o"), dict(help="output path, - for stdout")),
    "group": (("--group",), dict(help="su2, so3, or t<n>")),
    "cutoff": (("--cutoff",), dict(type=float, help="catalog bracket cutoff")),
    "band": (("--band",), dict(type=int, help="grid band; default fits the catalog")),
    "input": (("--input", "-i"), dict(help="input path, - for stdin")),
    "inverse": (("--inverse",), dict(action="store_true", default=None,
                                     help="coefficients JSONL to samples CSV instead")),
    "s": (("--s",), dict(type=float, help="Gevrey order")),
    "B": (("--B",), dict(type=float, help="decay rate")),
    "profile": (("--profile",), dict(choices=PROFILES)),
    "seed": (("--seed",), dict(type=_int_at_least(0, "--seed"))),
    "decay_csv": (("--decay-csv",), dict(help="also write decay CSV here")),
    "mode": (("--mode",), dict(choices=("R", "B", "roumieu", "beurling"))),
    "side": (("--side",), dict(choices=tuple(SIDES))),
    "expect": (("--expect",), dict(choices=("pass", "fail"))),
    "sequence": (("--sequence",), dict(help="sequence JSONL path")),
    "action": (("--action",), dict(choices=("project", "lift", "series", "test", "ultra"))),
    "lemma": (("--lemma",), dict(choices=tuple(PROBES))),
    "t": (("--t",), dict(type=float, action="append", help="exponent for the series probe")),
    "trials": (("--trials",), dict(type=_int_at_least(1, "--trials"))),
    "quick": (("--quick",), dict(action="store_true", default=None,
                                 help="acceptance checks only")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error, like a bad config value."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def build_parser():
    top = _Parser(
        prog="gevreykit",
        description="Fourier analysis and Gevrey classification on compact groups",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    # looked up here, not at import, so a replaced cmd_* is the one run
    grouped = ("group", "cutoff")
    for name, fn, text, options in (
        ("catalog", cmd_catalog, "dump the dual catalog as JSON", grouped),
        ("transform", cmd_transform, "samples CSV to coefficient JSONL",
         grouped + ("band", "input", "inverse")),
        ("synthesize", cmd_synthesize, "build a Gevrey coefficient field",
         grouped + ("s", "B", "profile", "seed", "decay_csv")),
        ("classify", cmd_classify, "Gevrey verdict for a coefficient field",
         grouped + ("input", "s", "mode", "side", "expect", "decay_csv")),
        ("ultra-test", cmd_ultra_test, "ultradistribution membership verdict",
         grouped + ("input", "s", "mode", "expect")),
        ("pair", cmd_pair, "pair a sequence with a coefficient field",
         grouped + ("sequence", "input")),
        ("sphere", cmd_sphere, "class-I projection, lift, series, verdicts",
         grouped + ("action", "input", "s", "mode", "expect")),
        ("probe", cmd_probe, "series, Hausdorff-Young, and norm probes",
         grouped + ("lemma", "t", "trials", "seed")),
        ("verify", cmd_verify, "run the reproducible property suite", ("quick",)),
    ):
        p = sub.add_parser(name, help=text)
        for opt in ("config", "output") + options:
            flags, kw = OPTIONS[opt]
            p.add_argument(*flags, dest=opt, **kw)
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args._config = _load_config(args.config)
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
