"""Matrix JSON interchange.

Schema used by every CLI command::

    {"rows": R, "cols": C, "field": "real" | "complex",
     "data": [[re, im], ...]}

``data`` is row-major with exactly ``R*C`` entries.  In real mode every
imaginary part must be exactly 0.  Projections add ``"kind": "projection"``
and ``"rank"``, both validated on load.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import MatrixFormatError
from .linalg import COMPLEX, FIELDS, REAL, as_complex, is_exactly_real
from .projections import Projection
from .tolerances import DEFAULT_TOL, ToleranceConfig


def detect_field(m: np.ndarray) -> str:
    return REAL if is_exactly_real(m) else COMPLEX


def matrix_to_obj(m, field: str | None = None) -> dict[str, Any]:
    """JSON-ready dict for a matrix.  ``field=None`` autodetects."""
    a = as_complex(m)
    if field is None:
        field = detect_field(a)
    if field not in FIELDS:
        raise MatrixFormatError(f"unknown field {field!r}")
    if field == REAL and not is_exactly_real(a):
        raise MatrixFormatError("matrix has nonzero imaginary parts but field is 'real'")
    flat = a.reshape(-1)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "field": field,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_obj(obj: Any) -> tuple[np.ndarray, str]:
    """Parse and validate the matrix schema.  Returns ``(matrix, field)``."""
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix JSON must be an object")
    try:
        rows, cols, field, data = obj["rows"], obj["cols"], obj["field"], obj["data"]
    except KeyError as exc:
        raise MatrixFormatError(f"matrix JSON missing key {exc}") from exc
    if (
        not (isinstance(rows, int) and isinstance(cols, int))
        or isinstance(rows, bool)
        or isinstance(cols, bool)
        or rows < 1
        or cols < 1
    ):
        raise MatrixFormatError(f"rows/cols must be positive integers, got {rows!r}, {cols!r}")
    if field not in FIELDS:
        raise MatrixFormatError(f"field must be one of {FIELDS}, got {field!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise MatrixFormatError(f"data must hold rows*cols = {rows * cols} entries, got {got}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise MatrixFormatError(f"data[{i}] must be a [re, im] pair of numbers")
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError:  # a JSON integer beyond the float range
            raise MatrixFormatError(f"data[{i}] is too large for a float") from None
        if not (np.isfinite(re) and np.isfinite(im)):
            raise MatrixFormatError(f"data[{i}] is not finite")
        if field == REAL and im != 0.0:
            raise MatrixFormatError(f"data[{i}] has nonzero imaginary part {im!r} in real mode")
        out[i] = complex(re, im)
    return out.reshape(rows, cols), field


def save_matrix(path, m, field: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(matrix_to_obj(m, field)) + "\n")  # json.dump never takes the C encoder; the same bytes


def read_json(path) -> Any:
    """The JSON value in a UTF-8 file; malformed JSON, bytes that are not
    UTF-8 or nesting deeper than the parser's recursion limit raise
    ``MatrixFormatError`` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise MatrixFormatError(f"{path}: not valid UTF-8 JSON ({exc})") from exc


def load_matrix(path) -> tuple[np.ndarray, str]:
    return matrix_from_obj(read_json(path))


def projection_to_obj(p, field: str | None = None) -> dict[str, Any]:
    """Matrix schema plus the projection annotation."""
    obj = matrix_to_obj(p.matrix, field)
    obj["kind"] = "projection"
    obj["rank"] = int(p.rank)
    return obj


def save_projection(path, p, field: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(projection_to_obj(p, field)) + "\n")


def projection_from_obj(obj: Any, tol: ToleranceConfig = DEFAULT_TOL):
    """Parse a ``kind: projection`` object, validating invariants and rank."""
    m, field = matrix_from_obj(obj)
    if obj.get("kind") != "projection":
        raise MatrixFormatError("expected \"kind\": \"projection\"")
    declared = obj.get("rank")
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < 0:
        raise MatrixFormatError(f"projection rank must be a nonnegative integer, got {declared!r}")
    p = Projection(m, tol=tol)
    if p.rank != declared:
        raise MatrixFormatError(f"declared rank {declared} but trace gives {p.rank}")
    return p, field


def load_projection(path, tol: ToleranceConfig = DEFAULT_TOL):
    return projection_from_obj(read_json(path), tol)


def canonical_keys(stack):
    """Canonical byte serialization of each matrix of a stack, made lazily
    from one rounding of the whole stack: the shape, then the entries
    rounded to 12 decimal digits.  The rounding (and the +0.0, which folds
    -0.0 into +0.0) makes a key robust to non-associative float noise
    introduced by callers, so a key (the noisy map's per-input seed)
    matches inputs equal for all purposes."""
    rounded = np.round(np.asarray(stack, dtype=np.complex128), 12)
    rounded += 0.0
    header = rounded.shape[-2].to_bytes(4, "little") + rounded.shape[-1].to_bytes(4, "little")
    return (header + m.tobytes() for m in rounded)

