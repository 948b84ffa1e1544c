"""JSON document layer for the CLI.

Matrix documents carry a ``kind`` tag, the dimension ``n``, and the data
as nested ``[re, im]`` pairs; report documents carry per-command results
plus the tolerances used.  Floats are written in Python's shortest
round-trip decimal form, so parsing an emitted document reproduces every
value bit for bit.

A matrix document of fewer than ``_KERNEL_MIN`` floats is its document
dict, built from the array by :func:`_document`, which ``json.dumps``
writes with its own encoder.  A larger one is one join of separators,
which carry the signs, and the texts of its distinct magnitudes:
:func:`_fixed_texts` writes those in [1e-4, 1) when there are
``_KERNEL_MIN`` or more, ``float.__repr__`` the rest.  :func:`dumps` is
``json.dumps`` with typed values written through its ``default`` hook,
which returns a small value's dict and stands a large one in as the one
reserved string ``"\\0"``.  Reading checks each level of a matrix
document's nesting with set scans, in :func:`_entries`.
"""

from __future__ import annotations

import json
import reprlib
from itertools import chain

import numpy as np

from .core import (
    VALIDATION_TOL,
    DensityMatrix,
    PureState,
    Unitary,
    _require_finite,
    check_density,
    check_hermitian_unit_trace,
    make_pure_state,
    make_unitary,
)
from .errors import DocumentError

KINDS = ("density", "pure_state", "unitary")

# Hermiticity and trace tolerance at which density documents are accepted;
# emitted documents satisfy it by construction, hand-written ones must as well
HERMITIAN_TRACE_TOL = 1e-12


def _entries(data, shape: tuple) -> np.ndarray:
    """Complex array of shape ``shape[:-1]`` from the nested lists ``data``,
    whose innermost lists, of ``shape[-1] == 2``, are the ``[re, im]`` pairs.

    Each level of nesting is checked in turn: set scans over ``type`` and
    ``len`` settle well-formed input in C, and a loop over the level runs
    only when they fail, to admit subclasses or to name the node at fault.
    """
    nodes = [data]
    for depth, size in enumerate(shape):
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {size}:
            _check_each(nodes, shape[:depth], f"a list of {size}",
                        lambda node: isinstance(node, list) and len(node) == size)
        nodes = list(chain.from_iterable(nodes))
    if not set(map(type, nodes)) <= {int, float}:
        _check_each(nodes, shape, "a number",
                    lambda leaf: isinstance(leaf, (int, float)) and not isinstance(leaf, bool))
    try:
        flat = np.array(nodes, dtype=float)
    except OverflowError as exc:
        raise DocumentError("an integer entry is too large for a double") from exc
    if not np.isfinite(flat).all():
        raise DocumentError("entries must be finite (no NaN or Inf)")
    return flat.view(complex).reshape(shape[:-1])


def _check_each(nodes: list, dims: tuple, what: str, ok):
    """Raise a DocumentError naming the first of ``nodes``, the row-major
    nodes at the index ranges ``dims`` below ``data``, that is not ``ok``."""
    for k, node in enumerate(nodes):
        if not ok(node):
            where = "".join(f"[{i}]" for i in np.unravel_index(k, dims))
            raise DocumentError(f"data{where} must be {what}, got {reprlib.repr(node)}")


#: sign bit of an IEEE double
_SIGN = np.uint64(1 << 63)
#: the text before a float, by code: 0 and 1 open a square document's and a pure
#: state's data, 2 a later row, 3 a real part, 4 an imaginary part; + 5 adds "-"
_SEPARATORS = ("[[[", "[[", "]], [[", "], [", ", ", "[[[-", "[[-", "]], [[-", "], [-", ", -")

# Tables of the shortest-repr kernel, indexed by E - _E_MIN for a double x
# in [2**-14, 1) with biased exponent E.  With x = 4 * m2 * 2**e2 (m2 the
# significand, e2 = E - 1077), Ryu works on x * 10**i = 4 * m2 * 5**i / 2**q
# for q = floor(-e2 log10 5) - 1 and i = -e2 - q.  Here i = 18..22, so 5**i
# has at most 52 bits: Ryu's 125-bit table entry is 5**i exactly and its
# shift is 2**q.
_E_MIN = 1009
_NEG_E2 = np.arange(1077 - _E_MIN, 1077 - 1023, -1, dtype=np.int64)
_Q = ((_NEG_E2 * 732923) >> 20) - 1
_I = _NEG_E2 - _Q
_POW5 = 5**_I
# m2 is a multiple of 2**(q - 2) exactly when 4 * m2 * 5**i / 2**q is an
# integer, Ryu's general case, which the kernel leaves to float.__repr__
_LOW_BITS = (1 << (_Q - 2)) - 1
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# _DIGITS[g] holds the four decimal digit values of 0 <= g < 10000 as bytes;
# _ROWS[w] is the 24-byte row "  ..  0.00..0" with w zero digits, so or-ing
# digit values into its tail writes "0." and w digits, right-aligned
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
_DIGITS = _DIGITS.view(np.uint32).reshape(-1)
_ROWS = np.frombuffer(b"".join((b" " * 24 + b"0." + b"0" * w)[-24:] for w in range(21)),
                      dtype=np.uint32).reshape(21, 6)
#: raw bits of 1e-4 and 1.0; repr writes the doubles below 1e-4 in exponent form
_FIXED_RANGE = np.array([1e-4, 1.0]).view(np.uint64)
#: below this many magnitudes in [1e-4, 1), one float.__repr__ each is
#: faster than the kernel's fixed cost of ~50 numpy calls; the two break even
#: near 128 (~150 us each with numpy 2.4 on 2 CPUs).  A document of fewer
#: floats can never reach the kernel, so json.dumps writes it from its dict
_KERNEL_MIN = 128


def _fixed_texts(bits: np.ndarray) -> tuple:
    """``repr`` text of each double in [1e-4, 1) whose raw bits are in
    ``bits``, and a mask of the ones it does not cover, whose text may
    differ from ``repr``.

    The common case of Ryu (U. Adams, PLDI 2018), vectorized: the shortest
    digits that round to x, nearest to x, which are the digits that
    Python's ``repr`` (dtoa mode 0) writes.  The arithmetic is int64 on 1-D
    arrays: the products of 4 * m2 < 2**55 and 5**i < 2**52 are formed in
    26- and 28-bit limbs as hi * 2**54 + lo.  The mask marks Ryu's general
    case, where a bound is exact (0.5 and 0.375, for example).
    """
    x = bits.view(np.int64)
    e = (x >> 52) - _E_MIN
    m2 = (x & ((1 << 52) - 1)) | (1 << 52)
    general = (m2 & _LOW_BITS[e]) == 0
    # outside the general case the mantissa bits are nonzero, so x's lower
    # bound is half an ulp away: vr, vp, vm are floor(m 5**i / 2**q) for
    # m = 4 m2, 4 m2 + 2 and 4 m2 - 2
    m = m2 << 2
    m_hi, m_lo = m >> 28, m & ((1 << 28) - 1)
    p = _POW5[e]
    p_hi, p_lo = p >> 26, p & ((1 << 26) - 1)
    low = m_lo * p_lo
    mid = m_lo * p_hi + ((m_hi * p_lo) << 2) + (low >> 26)
    q = _Q[e]
    shift = 54 - q
    hi = (m_hi * p_hi + (mid >> 28)) << shift
    lo = ((mid & ((1 << 28) - 1)) << 26) | (low & ((1 << 26) - 1))
    vr = hi + (lo >> q)
    vp = hi + ((lo + 2 * p) >> q)
    vm = hi - (1 << shift) + ((lo + (1 << 54) - 2 * p) >> q)
    # drop digits while the bounds differ above them; vp - vm >= 42, so the
    # first one always goes
    removed = np.ones(x.size, np.int64)
    up, down = vp // 10, vm // 10
    while True:
        up, down = up // 10, down // 10
        more = up > down
        if not more.any():
            break
        removed += more
    # round half up; vp - vr and vr - vm differ by at most 1, so when vr's
    # kept digits are vm's the dropped part is at least half, which also
    # covers Ryu's vr == vm round-up
    scale = _POW10[removed]
    digits = vr // scale
    digits += vr // (scale // 10) - 10 * digits >= 5
    # i - removed digits after the point: at most 3 zeros and 17 digits
    rows = np.take(_ROWS, _I[e] - removed, axis=0)
    for word in (5, 4, 3, 2):
        top = digits // 10000
        rows[:, word] |= _DIGITS[digits - 10000 * top]
        digits = top
    rows[:, 1] |= _DIGITS[digits]
    return rows.tobytes().decode("ascii").split(), general


def _reprs(magnitudes: np.ndarray) -> list:
    """``float.__repr__`` of each of the ascending non-negative doubles whose
    raw bits are ``magnitudes``: through :func:`_fixed_texts` for those in
    [1e-4, 1) when there are ``_KERNEL_MIN`` or more, one by one otherwise."""
    values = magnitudes.view(float)
    start, stop = np.searchsorted(magnitudes, _FIXED_RANGE).tolist()
    if stop - start < _KERNEL_MIN:
        return list(map(float.__repr__, values.tolist()))
    texts, general = _fixed_texts(magnitudes[start:stop])
    for k in np.flatnonzero(general).tolist():
        texts[k] = float.__repr__(values[start + k])
    return [*map(float.__repr__, values[:start].tolist()), *texts,
            *map(float.__repr__, values[stop:].tolist())]


def _typed_fields(value) -> tuple:
    """The kind, dimension and checked array of a DensityMatrix, PureState,
    or Unitary."""
    if isinstance(value, DensityMatrix):
        kind, a = "density", value.matrix
    elif isinstance(value, Unitary):
        kind, a = "unitary", value.matrix
    elif isinstance(value, PureState):
        kind, a = "pure_state", value.amplitudes
    else:
        # json.dumps' own error for a value its default hook cannot write
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    # repr would write nan where json.dumps writes NaN; no document holds either
    _require_finite(a)
    return kind, value.n, a


def _document(kind: str, n: int, a: np.ndarray) -> dict:
    """The matrix document of the ``kind`` value with dimension ``n`` and
    array ``a``, its ``[re, im]`` parts as Python floats, which
    ``json.dumps`` writes with ``float.__repr__``."""
    # an F-ordered array, such as connecting_unitary's, has no float view
    data = np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()
    return {"kind": kind, "n": n, "data": data}


def _matrix_text(kind: str, n: int, a: np.ndarray) -> str:
    """JSON text of the :func:`_document` of the same arguments.

    Each entry is written as ``json.dumps`` writes a float, ``repr``, but
    ``repr`` runs once per distinct magnitude and the sign goes on the
    separator before it: ``repr(-x) == "-" + repr(x)`` for every finite x,
    ``-0.0`` included.  About half of a Hermitian density's magnitudes repeat.
    """
    # the [re, im] parts in document (row-major) order, as raw bits
    bits = np.ascontiguousarray(a).view(np.uint64).reshape(-1)
    magnitudes, inverse = np.unique(bits & ~_SIGN, return_inverse=True)
    # each part's separator and magnitude text, as positions in the table
    slots = np.empty((bits.size, 2), np.int64)
    slots[:, 1] = inverse + len(_SEPARATORS)
    slots[:, 0] = 4
    slots[::2, 0] = 3
    if kind == "pure_state":
        slots[0, 0], close = 1, "]]}"
    else:
        slots[::2 * n, 0] = 2
        slots[0, 0], close = 0, "]]]}"
    slots[:, 0] += (bits >> 63).view(np.int64) * 5
    table = np.array([*_SEPARATORS, *_reprs(magnitudes)], dtype=object)
    parts = table[slots.reshape(-1)].tolist()
    # freed before the join allocates the text: with them alive, a process
    # dumping n=64 documents faulted ~90 fresh pages in per document
    del table, slots
    return '{"kind": "%s", "n": %d, "data": ' % (kind, n) + "".join(parts) + close


def matrix_document(value) -> dict:
    """The document of a DensityMatrix, PureState, or Unitary as a dict, for
    callers that edit documents; :func:`dumps` writes typed values as they
    are."""
    return _document(*_typed_fields(value))


def from_document(obj, kind=None) -> "DensityMatrix | PureState | Unitary":
    """Build the typed value a document describes.

    Structural problems, and a document whose kind is not ``kind`` when
    one is given, raise :class:`DocumentError`; a well-formed document
    whose numbers violate the type invariants raises the matching
    validation error instead.  Values are wrapped without transformation
    so round-trips are exact.  A density's positivity is read from its
    own :func:`~dmgeo.core.spectral_decompose`, which stays with the
    value, so the command that reads it reuses that ``eigh``.
    """
    if not isinstance(obj, dict):
        raise DocumentError("document is not a JSON object")
    missing = {"kind", "n", "data"} - set(obj)
    if missing:
        raise DocumentError(f"missing fields: {sorted(missing)}")
    if obj["kind"] not in KINDS:
        raise DocumentError(f"unknown kind {obj['kind']!r}")
    if kind not in (None, obj["kind"]):
        raise DocumentError(f"expected a {kind} document")
    kind = obj["kind"]
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"n must be a positive integer, got {n!r}")

    m = _entries(obj["data"], (n * n, 2) if kind == "pure_state" else (n, n, 2))
    if kind == "pure_state":
        return make_pure_state(m)
    if kind == "density":
        check_hermitian_unit_trace(m, HERMITIAN_TRACE_TOL)
        rho = DensityMatrix(m)
        check_density(rho, VALIDATION_TOL)
        return rho
    return make_unitary(m)


def parse_matrix_document(text: str, kind=None):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return from_document(obj, kind)


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
    # hashlib loads OpenSSL (~3.6 MB), so only a process that digests pays
    import hashlib

    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


#: the string that stands for a typed value in ``json.dumps``' text
_PLACEHOLDER = "\0"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)


def dumps(doc) -> str:
    """Render a document as one line of UTF-8 JSON, newline-terminated.

    This is ``json.dumps(doc)`` with each DensityMatrix, PureState, or
    Unitary in ``doc`` written as its matrix document.  The ``default``
    hook returns the document dict of a value with fewer than
    ``_KERNEL_MIN`` floats, which json writes in the same pass; for a larger
    one it returns the reserved string ``"\\0"``, and each ``"\\u0000"`` in
    json's text is then swapped for a matrix text.  A document whose own
    strings or keys json writes as ``"\\u0000"`` raises ``ValueError``.
    """
    texts = []

    def typed(value):
        kind, n, a = _typed_fields(value)
        if 2 * a.size < _KERNEL_MIN:
            return _document(kind, n, a)
        texts.append(_matrix_text(kind, n, a))
        return _PLACEHOLDER

    pieces = json.dumps(doc, default=typed).split(_PLACEHOLDER_JSON)
    if len(pieces) != len(texts) + 1:
        raise ValueError(f"a string of the document is written as {_PLACEHOLDER_JSON}")
    texts.append("\n")
    return "".join(chain.from_iterable(zip(pieces, texts)))
