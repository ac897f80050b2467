"""Persisted formats: catalog JSON, coefficient JSON-lines, sample CSV,
decay CSV, sphere CSV, and verdict JSON.

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


def _parse_run(out, lines):
    """Parse record lines into ``out`` with one json.loads; raises
    ValueError, KeyError, TypeError or DomainError where a line needs a
    closer look."""
    body = ",".join(lines)
    # one "{" opening and one "}" closing each line: no record spans lines
    flat = body.count("{") == body.count("}") == len(lines)
    if not flat or not all(t[0] == "{" and t[-1] == "}" for t in lines):
        raise ValueError("not one flat record per line")
    # outside strings these only spell booleans, which numpy reads as 1 and 0
    if "true" in body or "false" in body:
        raise ValueError("boolean in a record")
    recs = json.loads("[%s]" % body)
    if not all(type(c) is int for r in recs for c in r["label"]):
        raise ValueError("non-integer label entry")
    cat = out.catalog
    pos = np.array([cat.position(r["label"]) for r in recs], dtype=int)
    d = cat.dims[pos]
    rows = [row for r in recs for row in r["matrix"]]
    cells = np.array([c for row in rows for c in row])
    if (len(set(pos.tolist())) < len(recs) or out.present[pos].any()
            or [len(r["matrix"]) for r in recs] != d.tolist()
            or [len(row) for row in rows] != np.repeat(d, d).tolist()
            or cells.shape != (len(cells), 2) or cells.dtype.kind not in "biuf"
            or not np.isfinite(cells).all()):
        raise ValueError("records need a closer look")
    out.data[ranges(cat.offsets[pos], d * d)] = np.ascontiguousarray(cells, float).view(complex)[:, 0]
    out.present[pos] = True


def field_from_jsonl(text, catalog):
    """Inverse of field_to_jsonl.  Non-finite entries are refused."""
    lines = [t for t in (t.strip() for t in text.splitlines()) if t]
    out = CoefficientField(catalog)
    try:
        for a, b in _runs([len(t) for t in lines], 1 << 15):
            _parse_run(out, lines[a:b])
        return out
    except (KeyError, ValueError, TypeError, DomainError):
        pass
    # line by line, to report the first bad record or keep a repeated
    # label's last block
    out = CoefficientField(catalog)
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            label = tuple(rec["label"])
            if not all(type(c) is int for c in label):
                raise ValueError("label entries must be integers, got %r" % (label,))
            if not all(type(x) in (int, float) for row in rec["matrix"] for c in row for x in c):
                raise ValueError("matrix entries must be numbers")
            mat = np.array([[complex(re, im) for re, im in row] for row in rec["matrix"]])
            if not np.isfinite(mat).all():
                raise ValueError("non-finite entry")
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise DataError("bad coefficient record on line %d: %s" % (ln, exc))
        out[label] = mat
    return out


def samples_to_csv(values):
    """Node-major (C-order) flattening, columns re, im."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["re", "im"])
    for v in np.asarray(values, dtype=complex).ravel():
        w.writerow(["%.17g" % v.real, "%.17g" % v.imag])
    return buf.getvalue()


def samples_from_csv(text, shape):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["re", "im"]:
        raise DataError("sample CSV must start with the header re,im")
    try:
        flat = np.array([complex(float(r[0]), float(r[1])) for r in rows[1:] if r])
    except (ValueError, IndexError) as exc:
        raise DataError("bad sample row: %s" % exc)
    if not np.isfinite(flat).all():
        raise DataError("sample CSV holds a non-finite value")
    if flat.size != int(np.prod(shape)):
        raise DataError(
            "sample count %d does not fill grid shape %r" % (flat.size, tuple(shape))
        )
    return flat.reshape(shape)


def decay_csv(coeffs):
    """Columns bracket, dim, hs_norm, log_hs_norm over nonzero classes."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["bracket", "dim", "hs_norm", "log_hs_norm"])
    cat = coeffs.catalog
    hs = coeffs.hs_norms()
    for i in np.flatnonzero(hs > 0.0).tolist():
        w.writerow(["%.17g" % cat.brackets[i], cat.dims[i], "%.17g" % hs[i],
                    "%.17g" % math.log(hs[i])])
    return buf.getvalue()


def sphere_csv(grid, sphere_values):
    """Rows (beta, alpha, re, im) over the (beta, alpha) projected grid."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["beta", "alpha", "re", "im"])
    vals = np.asarray(sphere_values, dtype=complex)
    for bi, beta in enumerate(grid.beta):
        for ai, alpha in enumerate(grid.alpha):
            v = vals[bi, ai]
            w.writerow(
                ["%.17g" % beta, "%.17g" % alpha, "%.17g" % v.real, "%.17g" % v.imag]
            )
    return buf.getvalue()


def verdict_to_json(verdict):
    model = verdict.model
    return json.dumps(
        {
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
    )
