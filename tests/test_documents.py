import json

import numpy as np
import pytest

from dmgeo import core, documents as docs, sampling
from dmgeo.errors import (
    DocumentError,
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


def test_large_integer_entries_parse_like_float():
    # a 1x1 density fails the trace check carrying its one entry as parsed
    for big in (2**53 + 1, 2**64 + 1, 10**300, -(2**63) - 1):
        with pytest.raises(TraceNotOneError) as excinfo:
            docs.parse_matrix_document(f'{{"kind": "density", "n": 1, "data": [[[{big}, 0]]]}}')
        assert excinfo.value.trace == complex(float(big), 0.0)


def test_from_document_accepts_number_subclasses():
    value = docs.from_document(
        {"kind": "pure_state", "n": 1, "data": [[np.float64(0.6), np.float64(0.8)]]}
    )
    np.testing.assert_array_equal(value.amplitudes, [0.6 + 0.8j])


def test_integer_entries_accepted():
    value = docs.parse_matrix_document(
        '{"kind": "unitary", "n": 2, "data": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]}'
    )
    np.testing.assert_array_equal(value.matrix, [[0, 1j], [1j, 0]])


def test_digest_known_value():
    assert docs.digest("abc") == (
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


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
