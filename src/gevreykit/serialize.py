"""Persisted formats: catalog JSON, coefficient JSON-lines, sample CSV,
decay CSV, sphere CSV, partial-sum CSV, and verdict JSON.

JSON-lines floats are written by their shortest round-trip repr, as
json.dumps writes them, CSV floats with 17 significant digits: bit-exact.
"""

import csv
import io
import json
import math
from array import array
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DataError, DomainError
from .fourier import CoefficientField, ranges


def catalog_to_json(catalog):
    return json.dumps(
        [
            {
                "label": list(r.label),
                "dim": r.dim,
                "lambda_sq": r.lambda_sq,
                "bracket": r.bracket,
            }
            for r in catalog
        ]
    )


def _runs(sizes, budget):
    """(start, stop) pairs cutting items of the given sizes into runs of
    about ``budget``; bounds the Python objects alive at once."""
    group = (np.cumsum(sizes) - sizes) // budget
    cut = (np.flatnonzero(np.diff(group)) + 1).tolist()
    return zip([0] + cut, cut + [len(sizes)]) if len(sizes) else ()


def field_to_jsonl(coeffs):
    """One line per stored class: {"label": [...], "matrix": [[[re, im], ...]]}.

    Each stretch of records with one block size is one %-format of a
    template; floats go through the repr json.dumps uses, so every line
    reads byte for byte as json.dumps of its own record.  A non-finite
    value is refused before any text is built.
    """
    cat = coeffs.catalog
    idx = np.flatnonzero(coeffs.present)
    parts = []
    for a, b in _runs(cat.dims[idx] ** 2 + 8, 2048):
        run, d = idx[a:b], cat.dims[idx[a:b]]
        cells = coeffs.data[ranges(cat.offsets[run], d * d)].view(float)
        if not np.isfinite(cells).all():
            bad = np.searchsorted(np.cumsum(2 * d * d), np.argmin(np.isfinite(cells)), "right")
            raise DataError("a coefficient of label %r is not finite" % (cat.labels[run[bad]],))
        labels, nums = list(map(cat.labels.__getitem__, run.tolist())), iter(cells.tolist())
        cut = (np.flatnonzero(np.diff(d)) + 1).tolist()
        for s, e in zip([0] + cut, cut + [len(run)]):
            k, r = int(d[s]), len(labels[s])
            row = "[" + ", ".join(["[%r, %r]"] * k) + "]"
            line = '{"label": [%s], "matrix": [%s]}\n' % (", ".join(["%d"] * r), ", ".join([row] * k))
            # zip deals each record its r label integers, then its 2 k^2 floats
            args = zip(*[chain.from_iterable(labels[s:e])] * r, *[nums] * (2 * k * k))
            parts.append(line * (e - s) % tuple(chain.from_iterable(args)))
    return "".join(parts)


def _parse_run(catalog, lines):
    """Catalog positions and packed values of the records on ``lines``,
    read with one json.loads; a repeated label keeps its last record.
    Raises DataError with the reason for refusing the run."""
    try:
        body = ",\n".join(lines)
        # one "{" opening and one "}" closing each line: no record spans
        # lines and no string holds a brace
        if not (body.count("{") == body.count("}") == body.count("},\n{") + 1 == len(lines)
                and body[0] == "{" and body[-1] == "}"):
            raise ValueError("not one flat JSON object per line")
        # outside strings these only spell booleans, which would read as 1
        # and 0; neither "u" nor "s" occurs in a number or a key we write
        if ("u" in body and "true" in body) or ("s" in body and "false" in body):
            raise ValueError("true or false in a record")
        recs = json.loads("[%s]" % body)
        labels, mats = list(map(itemgetter("label"), recs)), list(map(itemgetter("matrix"), recs))
        if not set(map(type, chain.from_iterable(labels))) <= {int}:
            raise ValueError("label entries must be integers")
        pos = catalog.positions(labels)
        d = catalog.dims[pos]
        rows = list(chain.from_iterable(mats))
        if (list(map(len, mats)) != d.tolist()
                or list(map(len, rows)) != np.repeat(d, d).tolist()):
            raise ValueError("matrix is not d x d for its label")
        pairs = list(chain.from_iterable(rows))
        try:
            # array("d") takes ints (even past 64 bits) and floats, nothing else
            cells = np.frombuffer(array("d", chain.from_iterable(pairs)))
        except TypeError:
            cells = None
        if cells is None or set(map(len, pairs)) != {2} or not np.isfinite(cells).all():
            raise ValueError("matrix entries must be pairs [re, im] of finite numbers")
    except (KeyError, ValueError, TypeError, OverflowError, RecursionError, DomainError) as exc:
        raise DataError("missing key %s" % exc if type(exc) is KeyError else exc)
    values = cells.view(complex)
    if len(set(pos.tolist())) < len(pos):
        keep = np.isin(np.arange(len(pos)), len(pos) - 1 - np.unique(pos[::-1], return_index=True)[1])
        pos, values = pos[keep], values[np.repeat(keep, d * d)]
    return pos, values


def field_from_jsonl(text, catalog):
    """Inverse of field_to_jsonl.  Blank lines are skipped and a repeated
    label keeps its last record.  A run of lines that _parse_run refuses
    is read again one line at a time, so the DataError names the first
    bad line and gives its reason."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    out = CoefficientField(catalog)
    for a, b in _runs(np.fromiter(map(len, lines), int, len(lines)), 1 << 15):
        try:
            parts = [_parse_run(catalog, lines[a:b])]
        except DataError:
            numbers = [n for n, t in enumerate(text.splitlines(), start=1) if t.strip()]
            parts = []
            for k in range(a, b):
                try:
                    parts.append(_parse_run(catalog, lines[k : k + 1]))
                except DataError as exc:
                    raise DataError("bad coefficient record on line %d: %s" % (numbers[k], exc))
        for pos, values in parts:
            d = catalog.dims[pos]
            out.data[ranges(catalog.offsets[pos], d * d)] = values
            out.present[pos] = True
    return out


SAMPLE_HEADER = ["re", "im"]
SPHERE_HEADER = ["beta", "alpha", "re", "im"]


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _g17(*xs):
    """Each number with 17 significant digits, enough to read back exactly."""
    return ["%.17g" % x for x in xs]


def samples_to_csv(values):
    """Node-major (C-order) flattening, columns re, im.  A non-finite
    value is refused before any text is built."""
    flat = np.asarray(values, dtype=complex).ravel()
    if not np.isfinite(flat).all():
        raise DataError("sample %d is not finite" % np.argmin(np.isfinite(flat)))
    return _csv_text(SAMPLE_HEADER, (_g17(v.real, v.imag) for v in flat))


def _csv_values(text, kind, header):
    """Flat complex array from the last two columns (re, im) of the rows
    of a CSV that starts with ``header``; blank rows are skipped."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise DataError("%s CSV must start with the header %s" % (kind, ",".join(header)))
    re, im = len(header) - 2, len(header) - 1
    try:
        flat = np.array([complex(float(r[re]), float(r[im])) for r in rows[1:] if r])
    except (ValueError, IndexError) as exc:
        raise DataError("bad %s row: %s" % (kind, exc))
    if not np.isfinite(flat).all():
        raise DataError("%s CSV holds a non-finite value" % kind)
    return flat


def samples_from_csv(text, shape):
    """Inverse of samples_to_csv.  Non-finite values are refused."""
    flat = _csv_values(text, "sample", SAMPLE_HEADER)
    if flat.size != int(np.prod(shape)):
        raise DataError(
            "sample count %d does not fill grid shape %r" % (flat.size, tuple(shape))
        )
    return flat.reshape(shape)


def decay_csv(coeffs):
    """Columns bracket, dim, hs_norm, log_hs_norm over nonzero classes."""
    cat = coeffs.catalog
    hs = coeffs.hs_norms()
    return _csv_text(["bracket", "dim", "hs_norm", "log_hs_norm"], (
        _g17(cat.brackets[i]) + [cat.dims[i]] + _g17(hs[i], math.log(hs[i]))
        for i in np.flatnonzero(hs > 0.0).tolist()))


def sphere_csv(grid, sphere_values):
    """Rows (beta, alpha, re, im) over the (beta, alpha) projected grid.
    A non-finite value is refused before any text is built."""
    vals = np.asarray(sphere_values, dtype=complex)
    bad = np.argwhere(~np.isfinite(vals))
    if len(bad):
        bi, ai = bad[0].tolist()
        raise DataError("sphere value at (beta, alpha) = (%r, %r) is not finite"
                        % (float(grid.beta[bi]), float(grid.alpha[ai])))
    return _csv_text(SPHERE_HEADER, (
        _g17(beta, alpha, vals[bi, ai].real, vals[bi, ai].imag)
        for bi, beta in enumerate(grid.beta) for ai, alpha in enumerate(grid.alpha)))


def sphere_from_csv(text, grid):
    """Inverse of sphere_csv: the (beta, alpha) array of values, rows in
    the grid's order; the angle columns are not read back."""
    flat = _csv_values(text, "sphere", SPHERE_HEADER)
    want = len(grid.beta) * len(grid.alpha)
    if flat.size != want:
        raise DataError("sphere CSV has %d rows, grid needs %d" % (flat.size, want))
    return flat.reshape(len(grid.beta), len(grid.alpha))


def partial_sums_csv(catalog, ts, sums):
    """Columns bracket and partial_sum_t_<t> for each exponent t, one row
    per class; ``sums`` holds the partial sums for each t in catalog order."""
    return _csv_text(["bracket"] + ["partial_sum_t_%g" % t for t in ts],
                     (_g17(*col) for col in zip(catalog.brackets.tolist(), *sums)))


def verdict_record(verdict):
    """The verdict as a JSON-ready dict; infinities are written as strings."""
    model = verdict.model
    return {
        "s": verdict.s,
        "mode": "R" if verdict.mode == "roumieu" else "B",
        "pass": bool(verdict.passed),
        "margin": verdict.margin if math.isfinite(verdict.margin) else (
            "inf" if verdict.margin > 0 else "-inf"
        ),
        "B": model.B if model else None,
        "K": None if model is None else ("inf" if model.K == math.inf else model.K),
        "r2": model.r2 if model else None,
        "witness_label": list(verdict.witness_label)
        if verdict.witness_label is not None
        else None,
        "flags": list(verdict.flags),
    }


def verdict_to_json(verdict):
    return json.dumps(verdict_record(verdict))
