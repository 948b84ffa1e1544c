"""JSON document layer for the CLI.

Matrix documents carry a ``kind`` tag, the dimension ``n``, and the data
as nested ``[re, im]`` pairs; report documents carry per-command results
plus the tolerances used.  Floats are written in Python's shortest
round-trip decimal form, so parsing an emitted document reproduces every
value bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from .core import (
    DensityMatrix,
    PureState,
    Unitary,
    check_density,
    make_pure_state,
    make_unitary,
)
from .errors import DocumentError

KINDS = ("density", "pure_state", "unitary")

# tolerances at which parsed documents are accepted; emitted documents
# satisfy these by construction, hand-written ones must as well
HERMITIAN_TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12
UNITARY_TOL = 1e-10


def _check_pairs(entries):
    for value in entries:
        if (
            not isinstance(value, list)
            or len(value) != 2
            or not all(
                isinstance(part, (int, float)) and not isinstance(part, bool)
                for part in value
            )
        ):
            raise DocumentError(f"entry {value!r} is not a [re, im] pair")


def _complex_entries(entries: list) -> np.ndarray:
    """Flat complex array from a non-empty list of [re, im] pairs."""
    # set scans over the types settle well-formed input in C; the per-entry
    # check runs only when they fail, to admit subclasses or name the culprit
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        _check_pairs(entries)
    leaves = list(chain.from_iterable(entries))
    if not set(map(type, leaves)) <= {int, float}:
        _check_pairs(entries)
    try:
        flat = np.array(leaves, dtype=float)
    except OverflowError as exc:
        raise DocumentError("an integer entry is too large for a double") from exc
    if not np.isfinite(flat).all():
        raise DocumentError("entries must be finite (no NaN or Inf)")
    return flat.view(complex)


def _parse_square(data, n: int) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n:
        raise DocumentError(f"expected {n} rows")
    if set(map(type, data)) != {list} or set(map(len, data)) != {n}:
        for i, row in enumerate(data):
            if not isinstance(row, list) or len(row) != n:
                raise DocumentError(f"row {i} does not have {n} entries")
    return _complex_entries(list(chain.from_iterable(data))).reshape(n, n)


def matrix_document(value) -> dict:
    """Serialize a DensityMatrix, PureState, or Unitary to a document dict."""
    if isinstance(value, DensityMatrix):
        kind, a = "density", value.matrix
    elif isinstance(value, Unitary):
        kind, a = "unitary", value.matrix
    elif isinstance(value, PureState):
        kind, a = "pure_state", value.amplitudes
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    data = np.stack([a.real, a.imag], axis=-1).tolist()
    return {"kind": kind, "n": value.n, "data": data}


def from_document(obj) -> "DensityMatrix | PureState | Unitary":
    """Build the typed value a document describes.

    Structural problems raise :class:`DocumentError`; a well-formed
    document whose numbers violate the type invariants raises the
    matching validation error instead.  Values are wrapped without
    transformation so round-trips are exact.
    """
    if not isinstance(obj, dict):
        raise DocumentError("document is not a JSON object")
    missing = {"kind", "n", "data"} - set(obj)
    if missing:
        raise DocumentError(f"missing fields: {sorted(missing)}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"n must be a positive integer, got {n!r}")

    if kind == "pure_state":
        data = obj["data"]
        if not isinstance(data, list) or len(data) != n * n:
            raise DocumentError(
                f"pure_state data must hold n^2 = {n * n} amplitudes"
            )
        return make_pure_state(_complex_entries(data), tol=NORM_TOL)

    m = _parse_square(obj["data"], n)
    if kind == "density":
        check_density(m, HERMITIAN_TRACE_TOL, psd_tol=PSD_TOL)
        return DensityMatrix(m)
    return make_unitary(m, tol=UNITARY_TOL)


def parse_matrix_document(text: str):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return from_document(obj)


def report_document(
    command: str, inputs: dict, results: dict, tolerances: dict, status: str = "ok"
) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tolerances": tolerances,
        "status": status,
    }


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps(doc: dict) -> str:
    """Render a document as one line of UTF-8 JSON, newline-terminated."""
    return json.dumps(doc) + "\n"
