"""Deterministic text rendering: reports and benchmark tables.

Report layout (golden-test stable): one ``key: value`` line per scalar
field in insertion order, floats as 12-digit scientific notation; each
matrix renders as a ``name:`` line followed by one space-separated row per
line.  Complex matrices emit ``name.re`` and ``name.im`` blocks.

Benchmark tables render the same rows as markdown (4 significant figures)
and CSV (full precision, round-trip exact); the integer counts (evals,
converged) are exact in both, and blank on a failed row.
"""

import csv
import io

import numpy as np


def _fmt_float(v):
    return f"{float(v):.12e}"


def _fmt_sig4(v):
    return f"{float(v):.4g}"


def _fmt_full(v):
    return repr(float(v))


def render_report(fields, matrices=()):
    """Render scalar fields then matrix blocks; returns the report text."""
    lines = []
    for key, value in fields:
        if isinstance(value, (float, np.floating)):
            lines.append(f"{key}: {_fmt_float(value)}")
        else:
            lines.append(f"{key}: {value}")
    for name, M in matrices:
        M = np.atleast_2d(np.asarray(M))
        if np.iscomplexobj(M):
            parts = [(f"{name}.re", M.real), (f"{name}.im", M.imag)]
        else:
            parts = [(name, M)]
        for part_name, part in parts:
            lines.append(f"{part_name}:")
            for row in part:
                lines.append(" ".join(_fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


TABLE_COLUMNS = (
    "example",
    "method",
    "kappa_fro",
    "gain_fro",
    "delta_fro",
    "residual",
    "runtime_s",
    "evals",
    "converged",
    "status",
    "base_kappa_fro",
    "base_gain_fro",
    "base_delta_fro",
    "base_source",
)


def _row_values(row):
    base = row.baseline or {}
    return (
        row.example,
        row.method,
        row.kappa_fro,
        row.gain_fro,
        row.delta_fro,
        row.residual,
        row.runtime_s,
        row.evals,
        row.converged,
        "ok" if row.ok else "failed",
        base.get("kappa_fro"),
        base.get("gain_fro"),
        base.get("delta_fro"),
        base.get("source", ""),
    )


def _cells(row, fmt):
    """The table cells of one row: finite floats through fmt, None and
    non-finite floats blank."""
    return [
        (fmt(value) if np.isfinite(value) else "")
        if isinstance(value, (float, np.floating))
        else "" if value is None else str(value)
        for value in _row_values(row)
    ]


def render_markdown(rows):
    lines = [
        "| " + " | ".join(TABLE_COLUMNS) + " |",
        "|" + "|".join("---" for _ in TABLE_COLUMNS) + "|",
    ]
    lines += ["| " + " | ".join(_cells(row, _fmt_sig4)) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    writer.writerows(_cells(row, _fmt_full) for row in rows)
    return buf.getvalue()
