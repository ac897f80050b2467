"""Persisted formats: catalog JSON, coefficient JSON-lines, sample CSV,
decay CSV, sphere CSV, partial-sum CSV, and verdict JSON.

Float fields are written with 17 significant digits so a load/save
round-trip is bit-exact.
"""

import csv
import io
import json
import math

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


def _split(items, sizes):
    """Consecutive slices of the list ``items`` with the given lengths."""
    ends = np.cumsum(sizes).tolist()
    return [items[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _runs(sizes, budget):
    """(start, stop) pairs cutting items of the given sizes into runs of
    about ``budget``; bounds the Python objects alive at once."""
    group = (np.cumsum(sizes) - sizes) // budget
    cut = (np.flatnonzero(np.diff(group)) + 1).tolist()
    return zip([0] + cut, cut + [len(sizes)])


def field_to_jsonl(coeffs):
    """One line per stored class: {"label": [...], "matrix": [[[re, im], ...]]}.

    Runs of records go through one json.dumps each; every line reads
    byte for byte as json.dumps of its own record would.
    """
    cat = coeffs.catalog
    idx = np.flatnonzero(coeffs.present)
    parts = []
    for a, b in _runs(cat.dims[idx] ** 2 + 8, 2048):
        run, d = idx[a:b].tolist(), cat.dims[idx[a:b]]
        cells = coeffs.data[ranges(cat.offsets[run], d * d)].view(float).reshape(-1, 2).tolist()
        mats = _split(_split(cells, np.repeat(d, d)), d)
        text = json.dumps([{"label": list(cat.labels[i]), "matrix": m} for i, m in zip(run, mats)])
        # "{" and "}" only open and close records
        parts.append(text[1:-1].replace("}, {", "}\n{") + "\n")
    return "".join(parts) if len(idx) else ""


def _parse_run(catalog, lines):
    """Catalog positions and packed values of the records on ``lines``,
    read with one json.loads; a repeated label keeps its last record.
    Raises DataError with the reason for refusing the run."""
    try:
        body = ",".join(lines)
        # one "{" opening and one "}" closing each line: no record spans
        # lines and no string holds a brace
        if not (body.count("{") == body.count("}") == len(lines)
                and all(t[0] == "{" and t[-1] == "}" for t in lines)):
            raise ValueError("not one flat JSON object per line")
        # outside strings these only spell booleans, which numpy reads as 1 and 0
        if "true" in body or "false" in body:
            raise ValueError("true or false in a record")
        recs = json.loads("[%s]" % body)
        if not all(type(c) is int for r in recs for c in r["label"]):
            raise ValueError("label entries must be integers")
        pos = np.array([catalog.position(r["label"]) for r in recs], dtype=int)
        d = catalog.dims[pos]
        rows = [row for r in recs for row in r["matrix"]]
        if ([len(r["matrix"]) for r in recs] != d.tolist()
                or [len(row) for row in rows] != np.repeat(d, d).tolist()):
            raise ValueError("matrix is not d x d for its label")
        cells = np.array([c for row in rows for c in row])
        if cells.dtype == object and all(type(x) in (int, float) for x in cells.flat):
            cells = cells.astype(float)  # JSON integers past 64 bits
        if (cells.shape != (len(cells), 2) or cells.dtype.kind not in "biuf"
                or not np.isfinite(cells).all()):
            raise ValueError("matrix entries must be pairs [re, im] of finite numbers")
    except (KeyError, ValueError, TypeError, OverflowError, RecursionError, DomainError) as exc:
        raise DataError(exc)
    values = np.ascontiguousarray(cells, float).view(complex)[:, 0]
    if len(set(pos.tolist())) < len(pos):
        keep = np.isin(np.arange(len(pos)), len(pos) - 1 - np.unique(pos[::-1], return_index=True)[1])
        pos, values = pos[keep], values[np.repeat(keep, d * d)]
    return pos, values


def field_from_jsonl(text, catalog):
    """Inverse of field_to_jsonl.  Blank lines are skipped and a repeated
    label keeps its last record.  A run of lines that _parse_run refuses
    is read again one line at a time, so the DataError names the first
    bad line and gives its reason."""
    lines = [t for t in (t.strip() for t in text.splitlines()) if t]
    out = CoefficientField(catalog)
    for a, b in _runs([len(t) for t in lines], 1 << 15):
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
    """Node-major (C-order) flattening, columns re, im."""
    return _csv_text(SAMPLE_HEADER, (_g17(v.real, v.imag)
                                     for v in np.asarray(values, dtype=complex).ravel()))


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
    """Rows (beta, alpha, re, im) over the (beta, alpha) projected grid."""
    vals = np.asarray(sphere_values, dtype=complex)
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
