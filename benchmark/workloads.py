"""The three benchmark workloads.

Each workload builds its catalogs and grids once (set-up), then yields
passes of operations.  ``make_pass(rng)`` generates every input of a pass
from the workload's random generator before any operation of that pass
is timed; ``run(op)`` makes the program calls of one operation and checks
their output, returning None when the operation is correct and a short
failure kind otherwise.  Program calls always go through the module
attribute (``m.fourier.forward_transform``) so the traced run can wrap
them.
"""

import json
import math

import numpy as np
from scipy.special import sph_harm_y

ROUND_TRIP_TOL = 1e-10
PARSEVAL_TOL = 1e-10
SPHERE_TOL = 1e-9
PERFECTNESS_TOL = 1e-10
CALCULUS_REL_TOL = 1e-12

# (name, family, torus_dim, cutoff, classes, band).  Cutoffs sit midway
# between consecutive brackets: a cutoff written as an exact bracket, such
# as sqrt(1 + 6*7) for SU(2) 2j = 12, loses its top class to rounding in
# enumerate_dual's comparison.  Pinning the counts keeps the work constant
# if that comparison is ever fixed.
TRANSFORM_CATALOGS = (
    ("T1", "torus", 1, 12.5, 25, 12),
    ("T2", "torus", 2, 8.09, 197, 8),
    ("SU2", "su2", 1, 6.8, 13, 12),
    ("SO3", "so3", 1, 13.0, 13, 12),
)
POINTWISE_SPHERE = ("SO3", "so3", 1, 9.0, 9, 8)
POINTWISE_GROUP = ("SU2", "su2", 1, 6.8, 13, 12)
CLASSIFY_CATALOGS = (
    ("T1", "torus", 1, 1000.5, 2001, 1000),
    ("T2", "torus", 2, 30.5, 2933, 30),
    ("SU2", "su2", 1, 16.1, 32, 31),
    ("SO3", "so3", 1, 16.1, 16, 15),
)
PROFILES = ("diagonal", "random_phase")


def _pinned_catalog(m, entry):
    name, family, torus_dim, cutoff, classes, band = entry
    spec = m.groups.GroupSpec(family, torus_dim)
    cat = m.groups.enumerate_dual(spec, cutoff)
    if len(cat) != classes or m.quadrature.band_for_catalog(cat) != band:
        raise RuntimeError(
            "%s catalog at cutoff %r has %d classes and band %d, expected %d and %d"
            % (name, cutoff, len(cat), m.quadrature.band_for_catalog(cat), classes, band)
        )
    return spec, cat


def _random_blocks(catalog, rng):
    return {
        r.label: rng.standard_normal((r.dim, r.dim))
        + 1j * rng.standard_normal((r.dim, r.dim))
        for r in catalog
    }


def _sphere_point(rng):
    return (math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _su2_point(rng):
    beta, alpha = _sphere_point(rng)
    return (alpha, beta, rng.uniform(0.0, 4.0 * math.pi))


class TransformGrid:
    """Plancherel/inversion trials on the four verify families."""

    name = "transform_grid"

    def __init__(self, m, perturb=False):
        self.m = m
        self.perturb = perturb
        self.families = []
        for entry in TRANSFORM_CATALOGS:
            spec, cat = _pinned_catalog(m, entry)
            grid = m.quadrature.build_grid(spec, entry[5])
            self.families.append((entry[0], cat, grid, grid.weights()))

    def make_pass(self, rng):
        return [
            ("trial", [_random_blocks(cat, rng) for _, cat, _, _ in self.families])
        ]

    def run(self, op):
        fourier = self.m.fourier
        for (name, cat, grid, weights), blocks in zip(self.families, op[1]):
            field = fourier.CoefficientField(cat, blocks)
            samples = fourier.inverse_on_grid(field, grid)
            back = fourier.forward_transform(grid, samples, cat)
            if self.perturb:
                back = back.scaled(1.0 + 1e-6)
            round_trip = max(np.abs(back[label] - mat).max() for label, mat in blocks.items())
            if not round_trip <= ROUND_TRIP_TOL:
                return "round_trip:%s" % name
            grid_norm = math.sqrt(float(np.sum(np.abs(samples) ** 2 * weights)))
            dual_norm = fourier.plancherel_norm(field)
            if not abs(grid_norm - dual_norm) <= PARSEVAL_TOL * dual_norm:
                return "parseval:%s" % name
        return None

    def op_key(self, op):
        return op[0]


class PointwiseEval:
    """The three pointwise evaluators on fresh Haar-random points."""

    name = "pointwise_eval"

    def __init__(self, m, perturb=False):
        self.m = m
        self.perturb = perturb
        spec, self.so3 = _pinned_catalog(m, POINTWISE_SPHERE)
        self.grid = m.quadrature.build_grid(spec, POINTWISE_SPHERE[5])
        self.structure = m.sphere.ClassIStructure(self.so3)
        self.beta_mesh, self.alpha_mesh = np.meshgrid(
            self.grid.beta, self.grid.alpha, indexing="ij"
        )
        _, self.su2 = _pinned_catalog(m, POINTWISE_GROUP)
        self.lmax = POINTWISE_SPHERE[5]

    def make_pass(self, rng):
        l = int(rng.integers(0, self.lmax + 1))
        mm = int(rng.integers(-l, l + 1))
        points = [_sphere_point(rng) for _ in range(4)]
        return [
            (
                "Y%d,%d" % (l, mm),
                sph_harm_y(l, mm, self.beta_mesh, self.alpha_mesh),
                points,
                np.array([sph_harm_y(l, mm, b, a) for b, a in points]),
                _random_blocks(self.su2, rng),
                [_su2_point(rng) for _ in range(2)],
            )
        ]

    def run(self, op):
        _, samples, points, truth, blocks, group_points = op
        m = self.m
        lifted = m.sphere.lift(samples, self.grid)
        coeffs = m.fourier.forward_transform(self.grid, lifted, self.so3)
        proj = m.sphere.project_class_one(coeffs, self.structure)
        values = m.sphere.sphere_series(proj, self.structure, points)
        if self.perturb:
            values = values + 1e-6
        if not float(np.abs(values - truth).max()) <= SPHERE_TOL:
            return "sphere_series"
        field = m.fourier.CoefficientField(self.su2, blocks)
        report = m.duality.perfectness_roundtrip(field, 2.0, points=group_points)
        if not report["resynthesis_mismatch"] <= PERFECTNESS_TOL:
            return "perfectness"
        return None

    def op_key(self, op):
        return "eval"


class ClassifyPipeline:
    """The README pipeline synthesize | classify, run in-process.

    One pass is a seeded shuffle of a fixed factorial of 304 operations:
    256 Gevrey classifications and 48 dual-membership tests.
    """

    name = "classify_pipeline"

    def __init__(self, m, perturb=False):
        self.m = m
        self.perturb = perturb
        self.groups = {}
        for entry in CLASSIFY_CATALOGS:
            spec, _ = _pinned_catalog(m, entry)
            self.groups[entry[0]] = (spec, entry[3])
        self.factorial = []
        for group in self.groups:
            for i, s0 in enumerate((0.5, 1.0, 2.0, 3.0)):
                for s in (0.5, 1.0, 2.0, 3.0):
                    for mode in ("R", "B"):
                        for side in ("fourier", "space"):
                            self.factorial.append(
                                (side, group, s0, PROFILES[i % 2], s, mode)
                            )
            for i, s0 in enumerate((2.0, 3.0)):
                for s in (1.0, 2.0, 3.0):
                    for mode in ("R", "B"):
                        self.factorial.append(("dual", group, s0, PROFILES[i % 2], s, mode))

    def make_pass(self, rng):
        order = rng.permutation(len(self.factorial))
        seeds = rng.integers(0, 2**31, size=len(order))
        return [self.factorial[i] + (int(seed),) for i, seed in zip(order, seeds)]

    def run(self, op):
        kind, group, s0, profile, s, mode, seed = op
        m = self.m
        spec, cutoff = self.groups[group]
        # synthesize: catalog, field, JSONL on stdout
        catalog = m.groups.enumerate_dual(spec, cutoff)
        if kind == "dual":
            field = m.duality.growth_sequence(catalog, s0, 1.0, profile, seed=seed)
        else:
            field = m.gevrey.synthesize_gevrey(catalog, s0, 1.0, profile, seed=seed)
        text = m.serialize.field_to_jsonl(field)
        # classify: catalog, JSONL from stdin, verdict JSON
        catalog = m.groups.enumerate_dual(spec, cutoff)
        loaded = m.serialize.field_from_jsonl(text, catalog)
        if kind == "dual":
            verdict = m.duality.ultra_membership_test(loaded, s, mode)
            truth = s < s0 if mode == "R" else s <= s0
        else:
            if kind == "fourier":
                verdict = m.gevrey.fourier_side_test(loaded, s, mode)
            else:
                verdict = m.gevrey.space_side_test(loaded, s, mode=mode)
            truth = s >= s0 if mode == "R" else s > s0
        out = json.loads(m.serialize.verdict_to_json(verdict))
        if self.perturb:
            out["pass"] = not out["pass"]
        if kind == "space" and "u" in verdict.extras:
            power = m.calculus.laplacian_power_apply(loaded, 1)
            ref = math.log(m.calculus.linf_bound(power))
            if not abs(verdict.extras["u"][0] - ref) <= CALCULUS_REL_TOL * abs(ref):
                return "calculus_identity"
        if out["pass"] != truth:
            return "wrong_verdict:%s:%s" % (kind, ",".join(out["flags"]) or "-")
        return None

    def op_key(self, op):
        kind, group, s0, profile, s, mode, _ = op
        return "%s %s s0=%g %s s=%g %s" % (kind, group, s0, profile, s, mode)


WORKLOADS = {w.name: w for w in (TransformGrid, PointwiseEval, ClassifyPipeline)}

# Which ops feed each verdict layer's correct_frac.
VERDICT_LAYERS = {
    "gevrey.fourier_side_test": "fourier",
    "gevrey.space_side_test": "space",
    "duality.ultra_membership_test": "dual",
}
