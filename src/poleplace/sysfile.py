"""Reading system, structure, and parameter files.

A system file is JSON with the shape

    {
      "name": "distillation",
      "A": [[...], ...],            # n x n, row-major
      "B": [[...], ...],            # n x m
      "structure": [                 # optional target eigenstructure
        {"re": 0.0, "im": 0.0, "blocks": [3, 2]},
        ...
      ],
      "baseline": {                  # optional published reference values
        "kappa_fro": 16.73, "gain_fro": 3.102,
        "delta_fro": null, "source": "..."
      }
    }

Every eigenvalue record must hold "re" and "blocks"; "im" is optional and
defaults to 0, and a record with any other key is rejected.  Eigenvalue
records with im != 0 may omit the conjugate partner; it is added
automatically with the same block orders.  Every number read, a matrix entry or an
eigenvalue's re or im, must be a JSON number: true, false and quoted
numbers are rejected.  A structure-only file is either
the record list itself or {"structure": [...]}.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, StructureError
from .placement import ParameterMatrix
from .structure import EigStructure, System, normalize_ordering


@dataclass(frozen=True)
class SystemFile:
    name: str
    system: System
    structure: EigStructure | None
    baseline: dict | None
    path: str = ""


def _read_json(path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


# the types json reads a number as; true and false read as bool, "1" as str
_JSON_NUMBERS = {int, float}


def _as_matrix(raw, field, path):
    try:
        # an integer too large for a float raises OverflowError
        M = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: field '{field}' is not a numeric matrix: {exc}")
    if M.ndim != 2:
        raise ParseError(f"{path}: field '{field}' must be a list of rows")
    # numpy would read true as 1.0 and "2" as 2.0
    if not {type(v) for row in raw for v in row} <= _JSON_NUMBERS:
        raise ParseError(f"{path}: field '{field}' has entries that are not numbers")
    # json reads NaN and Infinity; no matrix of the package may hold them
    if not np.isfinite(M).all():
        raise ParseError(f"{path}: field '{field}' has non-finite entries")
    return M


# the keys of an eigenvalue record; "im" may be left out
_RECORD_KEYS = ("re", "im", "blocks")


def structure_from_records(records, n=None, path="<records>"):
    """Build a normalized eigenstructure from {re, im, blocks} records.

    Each record must hold "re" and "blocks" and may hold "im" (0 when
    left out); any other key, such as a misspelled "Re", is a ParseError.
    """
    if not isinstance(records, list) or not records:
        raise ParseError(f"{path}: 'structure' must be a non-empty list of records")
    eigs, blocks = [], []
    for idx, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: structure record {idx} must be an object")
        faults = [f"missing '{key}'" for key in ("re", "blocks") if key not in rec]
        faults += [f"unknown key '{key}'" for key in rec if key not in _RECORD_KEYS]
        if faults:
            raise ParseError(f"{path}: structure record {idx} malformed: "
                             + ", ".join(faults))
        re, im = rec["re"], rec.get("im", 0.0)
        if not {type(re), type(im)} <= _JSON_NUMBERS:
            raise ParseError(f"{path}: structure record {idx} malformed: "
                             "'re' and 'im' must be numbers")
        try:
            lam = complex(re, im)
            # EigStructure checks the orders themselves
            orders = tuple(rec["blocks"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: structure record {idx} malformed: {exc}")
        eigs.append(lam)
        blocks.append(orders)
    # auto-complete missing conjugates with identical block orders
    for lam, orders in list(zip(eigs, blocks)):
        if lam.imag != 0.0 and lam.conjugate() not in eigs:
            eigs.append(lam.conjugate())
            blocks.append(orders)
    try:
        spec = EigStructure(tuple(eigs), tuple(blocks))
    except StructureError as exc:
        raise ParseError(f"{path}: invalid structure: {exc}")
    if n is not None and spec.n != n:
        raise ParseError(
            f"{path}: multiplicities sum to {spec.n}, expected state dimension {n}"
        )
    ordered, _ = normalize_ordering(spec)
    return ordered


def load_system(path):
    """Load and validate a system file."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    for field in ("A", "B"):
        if field not in data:
            raise ParseError(f"{path}: missing required field '{field}'")
    A = _as_matrix(data["A"], "A", path)
    B = _as_matrix(data["B"], "B", path)
    try:
        system = System(A, B)
    except StructureError as exc:
        raise ParseError(f"{path}: {exc}")

    structure = None
    if data.get("structure") is not None:
        structure = structure_from_records(data["structure"], system.n, str(path))

    baseline = data.get("baseline")
    if baseline is not None and not isinstance(baseline, dict):
        raise ParseError(f"{path}: 'baseline' must be an object")

    return SystemFile(
        name=str(data.get("name", path.stem)),
        system=system,
        structure=structure,
        baseline=baseline,
        path=str(path),
    )


def load_structure(path, n=None):
    """Load a structure-only file (record list or {'structure': [...]})."""
    path = Path(path)
    data = _read_json(path)
    records = data.get("structure") if isinstance(data, dict) else data
    return structure_from_records(records, n, str(path))


def load_parameter(path, spec, m):
    """Load a parameter matrix: {"blocks": [{"re": [[..]], "im": [[..]]}]}.

    Blocks are listed for every eigenvalue in conformable order; "im" may be
    omitted for real blocks.  Conjugate-pair consistency is validated.
    """
    path = Path(path)
    data = _read_json(path)
    raw = data.get("blocks") if isinstance(data, dict) else None
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected object with a 'blocks' list")
    if len(raw) != spec.nu:
        raise ParseError(
            f"{path}: {len(raw)} blocks given, structure has {spec.nu} eigenvalues"
        )
    blocks = []
    for idx, rec in enumerate(raw):
        if not isinstance(rec, dict) or "re" not in rec:
            raise ParseError(f"{path}: block {idx} must be an object with 're'")
        re = _as_matrix(rec["re"], f"blocks[{idx}].re", path)
        if rec.get("im") is not None:
            im = _as_matrix(rec["im"], f"blocks[{idx}].im", path)
            blocks.append(re + 1j * im)
        else:
            blocks.append(re)
    mults = spec.multiplicities
    for idx, blk in enumerate(blocks):
        if blk.shape != (m, mults[idx]):
            raise ParseError(
                f"{path}: block {idx} has shape {blk.shape}, "
                f"expected ({m}, {mults[idx]})"
            )
    try:
        return ParameterMatrix(blocks, spec.sigma)
    except StructureError as exc:
        raise ParseError(f"{path}: {exc}")


def load_feedback(path, sys):
    """Load a feedback matrix file: {"F": [[..]]}."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict) or "F" not in data:
        raise ParseError(f"{path}: expected object with field 'F'")
    F = _as_matrix(data["F"], "F", path)
    if F.shape != (sys.m, sys.n):
        raise ParseError(
            f"{path}: F has shape {F.shape}, expected ({sys.m}, {sys.n})"
        )
    return F
