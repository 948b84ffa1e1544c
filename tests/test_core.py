import numpy as np
import pytest

from dmgeo import core, purification, sampling, strata
from dmgeo.errors import (
    DecompositionFailureError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    TraceNotOneError,
    ValidationError,
)


def diag_density(*values):
    return core.validate_density(np.diag(values).astype(complex))


def test_validate_accepts_maximally_mixed():
    rho = core.validate_density(np.eye(2, dtype=complex) / 2, tol=1e-10)
    assert rho.n == 2
    np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)


def test_validate_accepts_plus_projector():
    m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = core.validate_density(m, tol=1e-10)
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix), [0.0, 1.0], atol=1e-14)


def test_validate_trace_not_one():
    with pytest.raises(TraceNotOneError):
        core.validate_density(np.diag([1.0, 0.1]).astype(complex), tol=1e-10)


def test_validate_not_square():
    with pytest.raises(NotSquareError):
        core.validate_density(np.zeros((2, 3), dtype=complex))


def test_validate_not_hermitian():
    m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitianError) as info:
        core.validate_density(m)
    assert info.value.deviation == pytest.approx(0.1)


def test_validate_not_positive():
    with pytest.raises(NotPositiveError):
        core.validate_density(np.diag([1.5, -0.5]).astype(complex))


def test_validate_rejects_nan():
    m = np.eye(2, dtype=complex) / 2
    m = m.copy()
    m[0, 0] = np.nan
    with pytest.raises(ValidationError):
        core.validate_density(m)


def test_validate_repairs_small_noise():
    # inputs inside tolerance come back exactly Hermitian with unit trace
    rng = np.random.default_rng(5)
    m = np.diag([0.6, 0.4]).astype(complex)
    m += (rng.random((2, 2)) + 1j * rng.random((2, 2))) * 1e-12
    rho = core.validate_density(m, tol=1e-10)
    np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-15


def test_spectral_maximally_mixed():
    dec = core.spectral_decompose(core.validate_density(np.eye(2, dtype=complex) / 2))
    np.testing.assert_array_equal(dec.eigenvalues, [0.5, 0.5])
    np.testing.assert_array_equal(dec.eigenvectors, np.eye(2))


def test_spectral_diagonal():
    dec = core.spectral_decompose(diag_density(0.7, 0.3))
    np.testing.assert_array_equal(dec.eigenvalues, [0.7, 0.3])
    np.testing.assert_array_equal(dec.eigenvectors, np.eye(2))


def test_spectral_plus_projector():
    m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = core.validate_density(m)
    dec = core.spectral_decompose(rho)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.0], atol=1e-14)
    lead = dec.eigenvectors[:, 0]
    np.testing.assert_allclose(lead, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(dec.reconstruct(), rho.matrix, atol=1e-10)


def test_spectral_reconstruction_random():
    for seed in range(20):
        n = 2 + seed % 5
        mu = 1 + seed % n
        rho = sampling.random_density(n, mu, seed)
        dec = core.spectral_decompose(rho)
        np.testing.assert_allclose(dec.reconstruct(), rho.matrix, atol=1e-10)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)
        assert all(np.diff(dec.eigenvalues) <= 0)


def test_spectral_deterministic():
    rho = sampling.random_density(4, 3, 11)
    a = core.spectral_decompose(rho)
    b = core.spectral_decompose(rho)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


def test_spectral_phase_convention():
    for seed in range(10):
        rho = sampling.random_density(4, 4, 100 + seed)
        dec = core.spectral_decompose(rho)
        for k in range(4):
            col = dec.eigenvectors[:, k]
            lead = col[np.abs(col) > core.PHASE_EPS][0]
            assert lead.imag == 0.0
            assert lead.real > 0.0


def test_numerical_rank_examples():
    assert core.numerical_rank([0.7, 0.3], 1e-9) == 2
    assert core.numerical_rank([1.0, 3e-13], 1e-9) == 1
    assert core.numerical_rank([0.5, 0.5, 0.0, 0.0], 1e-9) == 2
    assert core.numerical_rank([0.0, 0.0], 1e-9) == 0
    assert core.numerical_rank([], 1e-9) == 0


def test_ray_distance_identity_and_phase():
    psi = sampling.random_pure(9, 3)
    assert core.ray_distance(psi, psi) == 0.0
    for theta in (0.1, 1.0, np.pi, 5.0):
        rotated = core.PureState(np.exp(1j * theta) * psi.amplitudes)
        assert core.ray_distance(psi, rotated) < 1e-15


def test_ray_distance_orthogonal():
    e0 = core.PureState(np.array([1, 0, 0, 0], dtype=complex))
    e1 = core.PureState(np.array([0, 1, 0, 0], dtype=complex))
    assert core.ray_distance(e0, e1) == 1.0


def test_ray_distance_matches_overlap_formula():
    for seed in range(10):
        a = sampling.random_pure(4, seed)
        b = sampling.random_pure(4, 1000 + seed)
        naive = np.sqrt(max(0.0, 1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))
        assert core.ray_distance(a, b) == pytest.approx(naive, abs=1e-12)


def test_ray_distance_pseudometric():
    for seed in range(15):
        a = sampling.random_pure(9, seed)
        b = sampling.random_pure(9, 500 + seed)
        c = sampling.random_pure(9, 900 + seed)
        dab = core.ray_distance(a, b)
        assert dab == pytest.approx(core.ray_distance(b, a), abs=1e-14)
        assert dab <= core.ray_distance(a, c) + core.ray_distance(c, b) + 1e-12


def test_ray_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        core.ray_distance(sampling.random_pure(4, 0), sampling.random_pure(9, 0))


def test_lapack_failure_raises_decomposition_failure(monkeypatch):
    rho = sampling.random_density(3, 2, 0)
    psi = purification.purify(rho)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    for routine, call in (
        ("svd", lambda: strata.tangent_space_rank(rho)),
        ("qr", lambda: sampling.random_unitary(2, 0)),
        ("eigvalsh", lambda: sampling.random_density(2, 2, 0)),
        ("det", lambda: purification.connecting_unitary(psi, psi)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, routine, fail)
            with pytest.raises(DecompositionFailureError, match="injected failure"):
                call()
