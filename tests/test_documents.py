import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmgeo import core, documents as docs, sampling, strata
from dumps_sweep import structured
from repr_sweep import KERNEL_RANGE, kernel_mismatches, powers_of_two
from dmgeo.errors import (
    DocumentError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    NotUnitaryError,
    TraceNotOneError,
)


def test_density_roundtrip_bitwise():
    rho = sampling.random_density(3, 2, 42)
    text = docs.dumps(docs.matrix_document(rho))
    back = docs.parse_matrix_document(text)
    assert isinstance(back, core.DensityMatrix)
    np.testing.assert_array_equal(back.matrix, rho.matrix)


def test_pure_state_roundtrip_bitwise():
    psi = sampling.random_pure(9, 7)
    back = docs.parse_matrix_document(docs.dumps(docs.matrix_document(psi)))
    assert isinstance(back, core.PureState)
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)


def test_unitary_roundtrip_bitwise():
    u = sampling.random_unitary(4, 11)
    back = docs.parse_matrix_document(docs.dumps(docs.matrix_document(u)))
    assert isinstance(back, core.Unitary)
    np.testing.assert_array_equal(back.matrix, u.matrix)


def _signed_zeros(node, signs):
    # give every exact zero leaf the next drawn sign
    for i, item in enumerate(node):
        if isinstance(item, list):
            _signed_zeros(item, signs)
        elif item == 0.0:
            node[i] = -0.0 if next(signs) else 0.0


@st.composite
def emitted_documents(draw):
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    value = draw(st.sampled_from([
        sampling.random_density(n, draw(st.integers(1, n)), seed),
        sampling.random_pure(n * n, seed),
        sampling.random_unitary(n, seed),
        # exact zeros, which a document may carry with either sign
        core.DensityMatrix(np.diag(np.full(n, 1.0 / n))),
        core.PureState(np.eye(n * n)[0]),
        core.Unitary(np.diag([1.0, -1.0] * n)[:n, :n]),
    ]))
    doc = docs.matrix_document(value)
    _signed_zeros(doc["data"], iter(draw(st.lists(st.booleans(), min_size=2 * n * n))))
    return docs.dumps(doc)


@settings(max_examples=100, deadline=None)
@given(emitted_documents())
def test_codec_roundtrip_property(text):
    assert docs.dumps(docs.matrix_document(docs.parse_matrix_document(text))) == text


def test_awkward_floats_roundtrip():
    for x in (1 / 3, 0.1 + 0.2, 1e-300, -4.9e-324, 2**53 + 1.0, np.pi):
        assert json.loads(json.dumps(x)) == x


def test_parse_rejects_malformed():
    bad = [
        "not json",
        "[]",
        '{"kind": "density", "n": 2}',
        '{"kind": "spam", "n": 2, "data": []}',
        '{"kind": "density", "n": 0, "data": []}',
        '{"kind": "density", "n": true, "data": []}',
        '{"kind": "density", "n": "2", "data": []}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]]]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5]]]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, false]]]}',
        '{"kind": "pure_state", "n": 2, "data": [[1, 0], [0, 0], [0, 0]]}',
        '{"kind": "density", "n": 2, "data": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"kind": "density", "n": 2, "data": [[[Infinity, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0]]]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]], {}]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]], [[0, 0]]]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0]], [[0, 0]], [[0.5, 0]]]}',
        '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, null]]]}',
        '{"kind": "density", "n": 2, "data": [[[1' + "0" * 400 + ', 0], [0, 0]], [[0, 0], [0, 0]]]}',
        '{"kind": "pure_state", "n": 1, "data": [[1' + "0" * 400 + ", 0]]}",
        '{"kind": "pure_state", "n": 1, "data": [["1", 0]]}',
        '{"kind": "pure_state", "n": 1, "data": [[null, 0]]}',
        '{"kind": "pure_state", "n": 1, "data": [[true, 0]]}',
        '{"kind": "pure_state", "n": 1, "data": [{"re": 1, "im": 0}]}',
        '{"kind": "pure_state", "n": 1, "data": [[1, 0, 0]]}',
        '{"kind": "pure_state", "n": 1, "data": [[1, [0]]]}',
    ]
    for text in bad:
        with pytest.raises(DocumentError):
            docs.parse_matrix_document(text)


def test_parse_validation_failures():
    with pytest.raises(NotNormalizedError):
        docs.parse_matrix_document(
            '{"kind": "pure_state", "n": 2, "data": [[1, 0], [1, 0], [0, 0], [0, 0]]}'
        )
    with pytest.raises(NotHermitianError):
        docs.parse_matrix_document(
            '{"kind": "density", "n": 2, "data": [[[0.5, 0], [0.1, 0]], [[0, 0], [0.5, 0]]]}'
        )
    with pytest.raises(TraceNotOneError):
        docs.parse_matrix_document(
            '{"kind": "density", "n": 2, "data": [[[1.0, 0], [0, 0]], [[0, 0], [0.1, 0]]]}'
        )
    with pytest.raises(NotPositiveError):
        docs.parse_matrix_document(
            '{"kind": "density", "n": 2, "data": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}'
        )
    with pytest.raises(NotUnitaryError):
        docs.parse_matrix_document(
            '{"kind": "unitary", "n": 2, "data": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}'
        )
    # U^dag U overflows to nan, and a nan deviation must fail the check
    with pytest.raises(NotUnitaryError):
        docs.parse_matrix_document(
            '{"kind": "unitary", "n": 2, "data": '
            '[[[1e300, 0], [1e300, 1e300]], [[1e300, 0], [-1e300, -1e300]]]}'
        )
    # the trace sums to inf - inf = nan
    diagonal = [1.7e308, 1.7e308, -1.7e308, -1.7e308, 0, 0, 0, 0]
    data = [[[x if i == j else 0, 0] for j in range(8)] for i, x in enumerate(diagonal)]
    with pytest.raises(TraceNotOneError):
        docs.parse_matrix_document(json.dumps({"kind": "density", "n": 8, "data": data}))


def test_large_integer_entries_parse_like_float():
    # a 1x1 density fails the trace check carrying its one entry as parsed
    for big in (2**53 + 1, 2**64 + 1, 10**300, -(2**63) - 1):
        with pytest.raises(TraceNotOneError) as excinfo:
            docs.parse_matrix_document(f'{{"kind": "density", "n": 1, "data": [[[{big}, 0]]]}}')
        assert excinfo.value.trace == complex(float(big), 0.0)


class _Row(list):
    pass


def test_from_document_accepts_number_subclasses():
    value = docs.from_document(
        {"kind": "pure_state", "n": 1, "data": [[np.float64(0.6), np.float64(0.8)]]}
    )
    np.testing.assert_array_equal(value.amplitudes, [0.6 + 0.8j])
    # list subclasses at the row level and at the pair level
    data = [_Row([[0.5, 0], [0, 0]]), [[0, 0], _Row([0.5, np.float64(0)])]]
    value = docs.from_document({"kind": "density", "n": 2, "data": data})
    np.testing.assert_array_equal(value.matrix, np.eye(2) / 2)
    value = docs.from_document({"kind": "pure_state", "n": 1, "data": _Row([_Row([0.6, 0.8])])})
    np.testing.assert_array_equal(value.amplitudes, [0.6 + 0.8j])


@pytest.mark.parametrize("data, named", [
    ('[[[0.5, 0], [0, 0]], [[0, 0]]]', "data[1] must be a list of 2"),
    ('[[[0.5, 0], [0, 0, 1]], [[0, 0], [0.5, 0]]]', "data[0][1] must be a list of 2"),
    ('[[[0.5, 0], [0, 0]], [[0, 0], [0.5, true]]]', "data[1][1][1] must be a number, got True"),
    ('{}', "data must be a list of 2, got {}"),
])
def test_parse_error_names_the_bad_node(data, named):
    with pytest.raises(DocumentError, match=re.escape(named)):
        docs.parse_matrix_document('{"kind": "density", "n": 2, "data": %s}' % data)


def test_integer_entries_accepted():
    value = docs.parse_matrix_document(
        '{"kind": "unitary", "n": 2, "data": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]}'
    )
    np.testing.assert_array_equal(value.matrix, [[0, 1j], [1j, 0]])


def test_digest_known_value():
    assert docs.digest("abc") == (
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_cli_import_leaves_hashlib_unloaded():
    # OpenSSL's _hashlib costs ~3.6 MB of RSS; only digest() should load it
    code = (
        "import sys, dmgeo.cli\n"
        "print('_hashlib' in sys.modules)\n"
        "from dmgeo import documents\n"
        "print(documents.digest('abc'))\n"
        "print(documents.digest(''))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == [
        "False",
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ]


def test_report_document_shape():
    report = docs.report_document(
        command="classify",
        inputs={"density": docs.digest("x")},
        results={"mu": 2},
        tolerances={"tol": 1e-9},
    )
    assert report["status"] == "ok"
    assert set(report) == {"command", "inputs", "results", "tolerances", "status"}
    parsed = json.loads(docs.dumps(report))
    assert parsed == report


def reference_document(value) -> dict:
    # the document dict the CLI serialized with json.dumps before matrix
    # documents were emitted straight from the typed values
    if isinstance(value, core.DensityMatrix):
        kind, a = "density", value.matrix
    elif isinstance(value, core.Unitary):
        kind, a = "unitary", value.matrix
    else:
        kind, a = "pure_state", value.amplitudes
    return {"kind": kind, "n": value.n, "data": np.stack([a.real, a.imag], axis=-1).tolist()}


def reference_dumps(doc) -> str:
    def expand(node):
        if isinstance(node, (core.DensityMatrix, core.PureState, core.Unitary)):
            return reference_document(node)
        if isinstance(node, dict):
            return {key: expand(item) for key, item in node.items()}
        if isinstance(node, (list, tuple)):
            return [expand(item) for item in node]
        return node

    return json.dumps(expand(doc)) + "\n"


# signed zeros, the smallest subnormal, short and long reprs, a magnitude
# past 2**53, and each with both signs so equal magnitudes meet
_TRICKY = [s * x for x in (0.0, 5e-324, 1e-5, 1e16, 0.1, 1 / 3, 2.0**53 + 2, 0.5, 1.0)
           for s in (1.0, -1.0)]


@st.composite
def typed_values(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["density", "pure_state", "unitary"]))
    source = draw(st.sampled_from(["sampled", "tricky", "tricky_hermitian"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if source == "sampled":
        return {
            "density": lambda: sampling.random_density(n, draw(st.integers(1, n)), seed),
            "pure_state": lambda: sampling.random_pure(n * n, seed),
            "unitary": lambda: sampling.random_unitary(n, seed),
        }[kind]()
    entries = draw(st.lists(st.sampled_from(_TRICKY) | st.floats(allow_nan=False, allow_infinity=False),
                            min_size=2 * n * n, max_size=2 * n * n))
    a = np.array(entries).view(complex).reshape(n, n)
    if source == "tricky_hermitian":
        # mirrored entries: equal real parts, imaginary parts of opposite sign
        a = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T.conj())
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    if kind == "pure_state":
        return core.PureState(a.reshape(-1))
    # the types wrap any array, so a density need not be Hermitian here
    return core.DensityMatrix(a) if kind == "density" else core.Unitary(a)


@settings(max_examples=300, deadline=None)
@given(typed_values())
def test_dumps_matches_reference_bytes(value):
    assert docs.dumps(value) == reference_dumps(value)
    assert json.dumps(docs.matrix_document(value)) == json.dumps(reference_document(value))


@pytest.mark.parametrize("n", [32, 64])
def test_dumps_matches_reference_bytes_large(n):
    values = [
        sampling.random_density(n, n, n),
        sampling.random_density(n, 8, n + 1),
        sampling.random_pure(n * n, n),
        sampling.random_unitary(n, n),
        strata.convex_split(sampling.random_density(n, 3, n)).components[1],
    ]
    for value in values:
        assert docs.dumps(value) == reference_dumps(value)


@settings(max_examples=100, deadline=None)
@given(st.lists(typed_values(), min_size=1, max_size=3), st.floats(allow_nan=False))
def test_reports_with_typed_values_match_reference_bytes(values, x):
    reports = [
        docs.report_document("split", {"density": docs.digest("x")},
                             {"weights": [x, 0.5], "components": tuple(values)}, {"tol": 1e-9}),
        docs.report_document("connect", {"psi": "aé\"\\"}, {"unitary": values[0], "residual": x},
                             {"tol": 1e-8}, status="ResidualTooLarge"),
        {"nested": [values, {"deeper": (values[-1], None, True, 3)}], "empty": [[], {}, ()]},
        # json.dumps writes non-string keys as strings
        {7: values[0], 2.5: [values[-1]], True: {}, None: "null", "x": x},
    ]
    for report in reports:
        assert docs.dumps(report) == reference_dumps(report)


def test_dumps_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        for value in (
            core.DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]])),
            core.PureState(np.array([0.5, 0.5j, 0.5 * bad, 0.5])),
            core.Unitary(np.array([[1j * bad]])),
        ):
            with pytest.raises(NotFiniteError):
                docs.dumps(value)
            with pytest.raises(NotFiniteError):
                docs.dumps({"results": {"components": [value]}})
            with pytest.raises(NotFiniteError):
                docs.matrix_document(value)


def test_dumps_rejects_unserializable_leaves_as_json_does():
    rho = sampling.random_density(2, 2, 1)
    for doc in ({"a": rho, "b": {1, 2}}, [rho, object()]):
        with pytest.raises(TypeError):
            docs.dumps(doc)


def test_dumps_rejects_placeholder_strings():
    rho = sampling.random_density(2, 2, 1)
    for doc in ("\0", ["\0"], {"\0": 1}, {"a": rho, "b": "\0"}, {"\0": rho},
                [rho, '"\0']):
        with pytest.raises(ValueError):
            docs.dumps(doc)
    # the reserved character elsewhere in a string is written as json.dumps writes it
    doc = {"a\0": ["\0b", rho]}
    assert docs.dumps(doc) == reference_dumps(doc)


def test_dumps_rejects_set_and_numpy_integer_next_to_typed_values():
    rho = sampling.random_density(2, 2, 1)
    for doc in ({"a": rho, "b": {1, 2}}, [rho, np.int64(1)], {"a": [np.int64(1), rho]}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            docs.dumps(doc)


_POOL = [sampling.random_density(2, 1, 3), sampling.random_pure(4, 3),
         sampling.random_unitary(3, 3), sampling.random_density(3, 3, 3)]
# quotes, backslashes, control characters (the reserved one among them) and
# non-ASCII, next to any other character
_STRINGS = st.text(st.sampled_from('"\\/\0\x01\x1f\n\t\x7fé€\u2028😀a') | st.characters(),
                   max_size=6)
_KEYS = _STRINGS | st.integers() | st.floats() | st.booleans() | st.none()
# the placeholder itself joins the typed values, so that some skeletons hold it
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS
           | st.sampled_from([*_POOL, "\0"]))
json_skeletons = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_skeletons)
def test_dumps_matches_reference_on_random_skeletons(doc):
    expected = reference_dumps(doc)
    # matrix texts hold no string, so the placeholder's JSON in the
    # reference text comes from a string of the document
    if '"\\u0000"' in expected:
        with pytest.raises(ValueError):
            docs.dumps(doc)
    else:
        assert docs.dumps(doc) == expected


# --- small documents, which json.dumps writes from their dict ---


def _bits(doc):
    # a matrix document's fields, its floats as raw bytes, so -0.0 != 0.0
    return doc["kind"], doc["n"], np.array(doc["data"], dtype=float).tobytes()


@pytest.mark.parametrize("n, texts", [(7, 0), (8, 1)])
def test_documents_on_each_side_of_the_threshold_match_reference_bytes(monkeypatch, n, texts):
    # 2 n^2 floats: 98 are written by json.dumps from the dict, 128 as a
    # matrix text
    calls = []
    matrix_text = docs._matrix_text
    monkeypatch.setattr(docs, "_matrix_text", lambda *args: calls.append(args) or matrix_text(*args))
    for value in (sampling.random_density(n, n, n), sampling.random_pure(n * n, n)):
        calls.clear()
        text = docs.dumps(value)
        assert text == reference_dumps(value)
        assert len(calls) == texts
        assert _bits(docs.matrix_document(value)) == _bits(json.loads(text))


def test_small_documents_of_any_layout_match_reference_bytes():
    # signed zeros and subnormals, in C and Fortran order; a Fortran-ordered
    # array has no float view until it is made contiguous
    parts = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.0**-1022 - 5e-324, -1e-310, 0.25, -1 / 3])
    a = parts.view(complex).reshape(2, 2)
    for m in (a, np.asfortranarray(a), np.asfortranarray(a.T)):
        for value in (core.DensityMatrix(m), core.Unitary(m), core.PureState(m.reshape(-1))):
            text = docs.dumps(value)
            assert text == reference_dumps(value)
            assert _bits(docs.matrix_document(value)) == _bits(json.loads(text))
    assert not core.Unitary(np.asfortranarray(a)).matrix.flags.c_contiguous


def test_report_of_small_and_large_values_matches_reference_bytes():
    # dicts from the default hook and placeholders for matrix texts, mixed
    small, large = sampling.random_density(2, 2, 4), sampling.random_unitary(32, 4)
    report = docs.report_document("split", {"density": docs.digest("x")},
                                  {"components": [small, large, small], "unitary": large},
                                  {"tol": 1e-9})
    assert docs.dumps(report) == reference_dumps(report)


# --- the shortest-repr kernel of large documents ---

# exact bounds and a tie between two shortest texts, which repr breaks to
# the even digit: 0.5000076293945312, not ...313
_EXACT_TIES = [0.5 + 2.0**-17, 2.0**-10 + 2.0**-20]


def _adversarial_bits():
    # powers of two and 10**-k with their neighbours, the kernel range's
    # edges, 1 to 17 significant digits at every point position the kernel
    # writes, zero, subnormals and binary fractions with exact bounds
    rng = np.random.default_rng(19)
    tens = np.array([float(f"1e-{k}") for k in range(25)]).view(np.int64)
    digits = [float(f"0.{'0' * zeros}{d}") for length in range(1, 18) for zeros in range(5)
              for d in rng.integers(10 ** (length - 1), 10**length, 20).tolist()]
    edges = [2.0**-14, 1e-4, 1 - 2.0**-53, 0.0, 5e-324, 2.0**-1022 - 5e-324, 0.375, 0.5,
             *_EXACT_TIES]
    return np.concatenate([
        powers_of_two(2).view(np.int64),
        (tens[:, None] + np.arange(-2, 3)).reshape(-1),
        np.array(digits + edges).view(np.int64),
        rng.integers(1, 1 << 52, 100),
    ]).view(np.uint64)


def test_fixed_texts_match_repr_on_adversarial_values(monkeypatch):
    bits = _adversarial_bits()
    checked, written, bad = kernel_mismatches(bits)
    assert bad == [] and written > 0.9 * checked > 1000
    # the whole list, with the kernel on however few values are in its range
    magnitudes = np.unique(bits)
    monkeypatch.setattr(docs, "_KERNEL_MIN", 0)
    assert docs._reprs(magnitudes) == list(map(float.__repr__, magnitudes.view(float).tolist()))


def test_fixed_texts_match_repr_on_random_bits():
    rng = np.random.default_rng(1919)
    bits = np.concatenate([rng.integers(0, 1 << 63, 50_000, dtype=np.uint64),
                           rng.integers(*KERNEL_RANGE, 50_000, dtype=np.uint64)])
    checked, written, bad = kernel_mismatches(bits)
    assert bad == [] and written == checked > 50_000


@pytest.mark.parametrize("seed", range(3))
def test_dumps_interleaves_kernel_and_repr_texts(seed):
    # _TRICKY entries and magnitudes the kernel leaves to float.__repr__
    # (below 1e-4, exact bounds) among sampled ones, above the cutoff
    tricky = _TRICKY + [s * x for x in (2.0**-14, 9.999999999999999e-05, 1e-4, 0.375,
                                        1 - 2.0**-53, *_EXACT_TIES) for s in (1.0, -1.0)]
    rng = np.random.default_rng(seed)
    n = 24
    for value in (sampling.random_density(n, n, seed), sampling.random_pure(n * n, seed),
                  sampling.random_unitary(n, seed)):
        a = np.array(value.amplitudes if isinstance(value, core.PureState) else value.matrix,
                     order="C")
        parts = a.view(float).reshape(-1)
        pick = rng.choice(parts.size, parts.size // 4, replace=False)
        parts[pick] = rng.choice(tricky, pick.size)
        magnitudes = np.unique(np.abs(parts))
        assert ((magnitudes >= 1e-4) & (magnitudes < 1)).sum() >= docs._KERNEL_MIN
        mixed = type(value)(a)
        assert docs.dumps(mixed) == reference_dumps(mixed)


def test_kernel_writes_only_large_documents(monkeypatch):
    calls = []
    kernel = docs._fixed_texts
    monkeypatch.setattr(docs, "_fixed_texts", lambda bits: calls.append(bits.size) or kernel(bits))
    # the largest documents of the small CLI runs: n = 4, at most 32 magnitudes
    for value in (sampling.random_pure(16, 1), sampling.random_density(4, 4, 1),
                  sampling.random_unitary(4, 1)):
        docs.dumps(value)
    assert calls == []
    docs.dumps(sampling.random_density(32, 32, 1))
    assert len(calls) == 1 and calls[0] >= docs._KERNEL_MIN


@pytest.mark.parametrize("inside", [0, 1, 127, 128])
def test_reprs_match_repr_on_each_side_of_the_kernel_gate(monkeypatch, inside):
    # magnitudes outside [1e-4, 1) around ``inside`` ones in it: the kernel
    # writes them from _KERNEL_MIN on, float.__repr__ below
    calls = []
    kernel = docs._fixed_texts
    monkeypatch.setattr(docs, "_fixed_texts", lambda bits: calls.append(bits.size) or kernel(bits))
    rng = np.random.default_rng(inside)
    values = np.unique(np.concatenate([[0.0, 5e-324, 1e-5, 9.999999999999999e-05, 1.0, 2.5, 1e16],
                                       rng.uniform(1e-4, 1.0, inside)]))
    assert ((values >= 1e-4) & (values < 1)).sum() == inside
    assert docs._reprs(values.view(np.uint64)) == list(map(float.__repr__, values.tolist()))
    assert calls == ([inside] if inside >= docs._KERNEL_MIN else [])


@pytest.mark.parametrize("n", [8, 12, 16])
def test_matrix_texts_of_few_magnitudes_match_reference_bytes(n):
    # identity and permutation unitaries, a dyadic diagonal density and a
    # basis state's purification: matrix texts of two or three magnitudes
    for value in structured(n):
        a = value.amplitudes if isinstance(value, core.PureState) else value.matrix
        assert 2 <= np.unique(np.abs(a.view(float))).size <= 3
        text = docs.dumps(value)
        assert text == reference_dumps(value)
        assert _bits(docs.matrix_document(value)) == _bits(json.loads(text))


# --- the separators that carry the signs ---


def _negated(a):
    # every real and imaginary part negative, zeros as -0.0
    parts = np.array(a).view(float)
    return np.negative(np.abs(parts), out=parts).view(complex)


def test_all_negative_large_documents_match_reference_bytes():
    for value in (core.DensityMatrix(_negated(sampling.random_density(64, 64, 5).matrix)),
                  core.Unitary(_negated(sampling.random_unitary(64, 5).matrix))):
        text = docs.dumps(value)
        assert text == reference_dumps(value)
        assert text.count("-") == 2 * 64 * 64 + text.count("e-")


@pytest.mark.parametrize("n", [1, 2, 3, 24])
def test_negative_zero_on_each_separator_matches_reference_bytes(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.1, 0.9, (n, n)) + 1j * rng.uniform(0.1, 0.9, (n, n))
    cases = {
        "data start": [(0, 0, "re")],
        "row starts": [(r, 0, "re") for r in range(n)],
        "inner reals": [(r, c, "re") for r in range(n) for c in range(1, n)],
        "imaginary parts": [(r, c, "im") for r in range(n) for c in range(n)],
    }
    for name, where in cases.items():
        m = a.copy()
        for r, c, part in where:
            if part == "re":
                m[r, c] = complex(-0.0, m[r, c].imag)
            else:
                m[r, c] = complex(m[r, c].real, -0.0)
        for value in (core.DensityMatrix(m), core.Unitary(m), core.PureState(m.reshape(-1))):
            assert docs.dumps(value) == reference_dumps(value), (name, type(value).__name__)


def test_one_amplitude_pure_state_with_negative_parts():
    psi = core.PureState(np.array([complex(-0.0, -1.0)]))
    expected = '{"kind": "pure_state", "n": 1, "data": [[-0.0, -1.0]]}\n'
    assert docs.dumps(psi) == reference_dumps(psi) == expected
    u = core.Unitary(np.array([[complex(-0.0, -1.0)]]))
    assert docs.dumps(u) == '{"kind": "unitary", "n": 1, "data": [[[-0.0, -1.0]]]}\n'


def test_fortran_ordered_unitary_matches_reference_bytes():
    a = np.asfortranarray(sampling.random_unitary(64, 9).matrix.T)
    u = core.Unitary(a)
    assert u.matrix.flags.f_contiguous and not u.matrix.flags.c_contiguous
    assert docs.dumps(u) == reference_dumps(u)


def test_split_report_of_eight_large_components_matches_reference_bytes():
    split = strata.convex_split(sampling.random_density(64, 8, 3))
    report = docs.report_document("split", {"density": docs.digest("x")},
                                  {"weights": split.weights.tolist(),
                                   "components": split.components}, {"tol": 1e-9})
    assert len(split.components) == 8
    assert docs.dumps(report) == reference_dumps(report)
