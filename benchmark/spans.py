"""Bench-side spans around the calls into each layer's public functions.

``Tracer.install`` replaces each listed function, in its own module and
in every gevreykit module that imported it by name, with a wrapper that
records a span (name, start, end, parent, op) and, for some functions, a
work count.  ``uninstall`` restores the originals, so untraced runs call
the program unchanged.  Self time is a span's duration minus the time
its child spans cover.
"""

import sys
import time
from collections import Counter, defaultdict


def _dstack_bytes(args, kwargs, result):
    # computed from sizes: one float64 d x d matrix per 2j per beta
    return sum(v.nbytes for v in result.values())


def _series_terms(args, kwargs, result):
    coeffs, _, points = args[:3]
    return len(points) * len(coeffs.labels())


def _perfectness_terms(args, kwargs, result):
    # inverse_transform plus the re-synthesis: two sums per point
    coeffs = args[0]
    points = kwargs.get("points", args[3] if len(args) > 3 else None)
    return 2 * len(points) * len(coeffs.labels())


# (module, function, counter, count(args, kwargs, result))
LAYER_FUNCTIONS = (
    ("groups", "enumerate_dual", "groups.classes", lambda a, k, r: len(r)),
    ("quadrature", "build_grid", None, None),
    ("quadrature", "wigner_d_all", "quadrature.dstack_bytes", _dstack_bytes),
    ("fourier", "inverse_on_grid", "fourier.grid_points", lambda a, k, r: a[1].size),
    ("fourier", "forward_transform", "fourier.grid_points", lambda a, k, r: a[0].size),
    ("fourier", "CoefficientField", None, None),
    ("fourier", "plancherel_norm", None, None),
    ("calculus", "laplacian_power_apply", None, None),
    ("gevrey", "synthesize_gevrey", None, None),
    ("gevrey", "fourier_side_test", None, None),
    ("gevrey", "space_side_test", None, None),
    ("duality", "growth_sequence", None, None),
    ("duality", "ultra_membership_test", None, None),
    ("duality", "perfectness_roundtrip", "pointwise.terms", _perfectness_terms),
    ("sphere", "lift", None, None),
    ("sphere", "project_class_one", None, None),
    ("sphere", "sphere_series", "pointwise.terms", _series_terms),
    ("serialize", "field_to_jsonl", "serialize.jsonl_bytes", lambda a, k, r: len(r)),
    ("serialize", "field_from_jsonl", None, None),
    ("serialize", "verdict_to_json", None, None),
)
SPAN_NAMES = tuple("%s.%s" % (mod, fn) for mod, fn, _, _ in LAYER_FUNCTIONS)
COUNTERS = tuple(sorted({c for _, _, c, _ in LAYER_FUNCTIONS if c}))


class Tracer:
    """In-memory span recorder; spans of one op share its op id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, child_time]
        self.counts = defaultdict(Counter)  # op id -> counter -> total
        self.op = None
        self._stack = []
        self._patches = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def _wrap(self, name, fn, counter, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter:
                tracer.counts[tracer.op][counter] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package="gevreykit"):
        modules = [mod for key, mod in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for mod_name, fn_name, counter, count in LAYER_FUNCTIONS:
            name = "%s.%s" % (mod_name, fn_name)
            original = getattr(sys.modules["%s.%s" % (package, mod_name)], fn_name)
            if isinstance(original, type):
                # a class: wrap its constructor so isinstance keeps working
                self._patch(original, "__init__",
                            self._wrap(name, original.__init__, counter, count))
                continue
            wrapped = self._wrap(name, original, counter, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def self_times(self, ops):
        """(self seconds, calls) per span name over spans whose op is in ops."""
        self_s = Counter()
        calls = Counter()
        for name, start, end, _, op, child in self.spans:
            if op in ops:
                self_s[name] += (end - start) - child
                calls[name] += 1
        return self_s, calls

    def total_counts(self, ops):
        total = Counter()
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total

    def records(self):
        for i, (name, start, end, parent, op, _) in enumerate(self.spans):
            yield {"id": i, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
