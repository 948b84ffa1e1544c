import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmgeo import core, purification as pf, sampling
from dmgeo.errors import DimensionMismatchError, PartialTraceMismatchError


def diag_density(*values):
    return core.validate_density(np.diag(values).astype(complex))


def conjugated_density(values, seed):
    u = sampling.random_unitary(len(values), seed).matrix
    return core.validate_density(u @ np.diag(values).astype(complex) @ u.conj().T)


def bell(n=2):
    return pf.purify(core.validate_density(np.eye(n, dtype=complex) / n))


def test_purify_maximally_mixed():
    psi = bell(2)
    expected = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)


def test_purify_pure_input_is_product():
    psi = pf.purify(diag_density(1.0, 0.0))
    np.testing.assert_array_equal(psi.amplitudes, [1, 0, 0, 0])


def test_purify_sqrt_of_eigenvalues():
    psi = pf.purify(diag_density(0.64, 0.36))
    np.testing.assert_allclose(psi.amplitudes, [0.8, 0.0, 0.0, 0.6], atol=1e-15)
    back = pf.partial_trace_b(psi)
    np.testing.assert_allclose(back.matrix, np.diag([0.64, 0.36]), atol=1e-11)


def test_partial_trace_bell():
    rho = pf.partial_trace_b(bell(2))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_state():
    psi = core.PureState(np.array([0, 1, 0, 0], dtype=complex))
    rho = pf.partial_trace_b(psi)
    np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]))


def test_partial_trace_by_hand():
    psi = core.PureState(np.array([0.8, 0.0, 0.0, 0.6], dtype=complex))
    rho = pf.partial_trace_b(psi)
    np.testing.assert_allclose(rho.matrix, [[0.64, 0.0], [0.0, 0.36]], atol=1e-15)


def test_roundtrip_random_all_ranks():
    for seed, (n, mu) in enumerate((n, mu) for n in range(2, 7) for mu in range(1, n + 1)):
        rho = sampling.random_density(n, mu, seed)
        back = pf.partial_trace_b(pf.purify(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-11


def test_schmidt_bell():
    dec = pf.schmidt(bell(2))
    assert dec.mu == 2
    np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-15)


def test_schmidt_product_state():
    dec = pf.schmidt(core.PureState(np.array([0, 1, 0, 0], dtype=complex)))
    assert dec.mu == 1
    np.testing.assert_allclose(dec.coefficients, [1.0], atol=1e-15)


def test_schmidt_diagonal_coefficients():
    psi = core.PureState(np.array([0.8, 0.0, 0.0, 0.6], dtype=complex))
    dec = pf.schmidt(psi)
    assert dec.mu == 2
    np.testing.assert_allclose(dec.coefficients, [0.8, 0.6], atol=1e-15)
    # independent check: squared coefficients are the reduced eigenvalues
    lam = np.linalg.eigvalsh(psi.coefficient_matrix() @ psi.coefficient_matrix().conj().T)
    np.testing.assert_allclose(sorted(dec.coefficients**2), lam[-2:], atol=1e-14)


_NEAR = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0])


@st.composite
def edge_spectra(draw, split, cut):
    # a density conjugated by a random unitary: repeated levels moved apart by
    # draws of split times CLUSTER_GAP, and a tail of eigenvalues at multiples
    # of the relative cut near 1
    n = draw(st.integers(2, 6))
    mu = draw(st.integers(1, n))
    levels = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=mu))
    head = np.array([draw(st.sampled_from(levels)) for _ in range(mu)])
    head /= head.sum()
    head += np.array([draw(split) for _ in range(mu)]) * core.CLUSTER_GAP
    tail = [draw(_NEAR) * cut * head.max() for _ in range(n - mu)]
    u = sampling.random_unitary(n, draw(st.integers(0, 2**32 - 1))).matrix
    m = (u * np.concatenate([head, tail])) @ u.conj().T
    return core.validate_density(m / np.trace(m).real)


# levels stay exactly repeated: a split below CLUSTER_GAP lets the cluster
# ordering pair a vector with its neighbour's value, an error up to the split
# that exceeds 1e-11 (e.g. [[0.5, -2e-11], [-2e-11, 0.5]] comes back 4e-11 off)
@settings(max_examples=100, deadline=None)
@given(edge_spectra(st.just(0.0), pf.PURIFY_CLAMP))
def test_roundtrip_property(rho):
    back = pf.partial_trace_b(pf.purify(rho))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-11


def test_schmidt_invariants_random():
    for seed in range(15):
        n = 2 + seed % 4
        psi = sampling.random_pure(n * n, seed)
        dec = pf.schmidt(psi)
        assert np.sum(dec.coefficients**2) == pytest.approx(1.0, abs=1e-10)
        assert all(np.diff(dec.coefficients) <= 0)
        assert all(dec.coefficients > 0)
        eye = np.eye(dec.mu)
        np.testing.assert_allclose(dec.basis_a.conj().T @ dec.basis_a, eye, atol=1e-10)
        np.testing.assert_allclose(dec.basis_b.conj().T @ dec.basis_b, eye, atol=1e-10)
        assert core.ray_distance(dec.reconstruct(), psi) <= 1e-10


def test_schmidt_squares_match_reduced_spectrum():
    for seed in range(20):
        n = 2 + seed % 5
        mu = 1 + seed % n
        psi = pf.purify(sampling.random_density(n, mu, seed))
        dec = pf.schmidt(psi)
        padded = np.zeros(n)
        padded[: dec.mu] = dec.coefficients**2
        lam = core.spectral_decompose(pf.partial_trace_b(psi)).eigenvalues
        np.testing.assert_allclose(padded, lam, atol=1e-10)


def test_schmidt_number_of_rank_two_purification():
    psi = pf.purify(sampling.random_density(3, 2, 21))
    assert pf.schmidt(psi).mu == 2


def test_apply_local_b_identity():
    psi = sampling.random_pure(9, 4)
    out = pf.apply_local_b(psi, core.Unitary(np.eye(3, dtype=complex)))
    np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)


def test_apply_local_b_bit_flip():
    flip = core.Unitary(np.array([[0, 1], [1, 0]], dtype=complex))
    psi = core.PureState(np.array([1, 0, 0, 0], dtype=complex))
    out = pf.apply_local_b(psi, flip)
    np.testing.assert_array_equal(out.amplitudes, [0, 1, 0, 0])


def test_apply_local_a_bit_flip():
    flip = core.Unitary(np.array([[0, 1], [1, 0]], dtype=complex))
    psi = core.PureState(np.array([1, 0, 0, 0], dtype=complex))
    out = pf.apply_local_a(psi, flip)
    np.testing.assert_array_equal(out.amplitudes, [0, 0, 1, 0])


def test_apply_local_b_preserves_partial_trace():
    for seed in range(10):
        psi = pf.purify(sampling.random_density(3, 3, seed))
        v = sampling.random_unitary(3, 700 + seed)
        moved = pf.apply_local_b(psi, v)
        assert abs(np.linalg.norm(moved.amplitudes) - 1.0) < 1e-12
        dev = np.abs(pf.partial_trace_b(moved).matrix - pf.partial_trace_b(psi).matrix)
        assert np.max(dev) <= 1e-12


def test_apply_dimension_mismatch():
    psi = sampling.random_pure(4, 0)
    with pytest.raises(DimensionMismatchError):
        pf.apply_local_b(psi, core.Unitary(np.eye(3, dtype=complex)))
    with pytest.raises(DimensionMismatchError):
        pf.apply_local_a(psi, core.Unitary(np.eye(3, dtype=complex)))


def test_transfer_identity_on_bell():
    # R (x) I and I (x) R^T act identically on the equal-coefficient state
    for n in range(2, 5):
        psi = bell(n)
        for seed in range(5):
            r = sampling.random_unitary(n, 40 * n + seed)
            rt = core.Unitary(r.matrix.T)
            d = core.ray_distance(pf.apply_local_a(psi, r), pf.apply_local_b(psi, rt))
            assert d <= 1e-12


def test_connecting_self_is_identity():
    psi = bell(3)
    v = pf.connecting_unitary(psi, psi)
    np.testing.assert_allclose(v.matrix, np.eye(3), atol=1e-12)
    assert core.ray_distance(pf.apply_local_b(psi, v), psi) <= 1e-12


def test_connecting_plant_and_recover():
    psi = bell(2)
    u = sampling.random_unitary(2, 77)
    phi = pf.apply_local_b(psi, u)
    v = pf.connecting_unitary(psi, phi)
    assert core.ray_distance(pf.apply_local_b(psi, v), phi) <= 1e-10
    assert abs(np.linalg.det(v.matrix) - 1.0) <= 1e-9


def test_connecting_recovers_transpose():
    # moving the Bell state with R on side A equals moving it with R^T on
    # side B, so the recovered unitary must be proportional to R^T
    psi = bell(2)
    r = sampling.random_unitary(2, 123)
    phi = pf.apply_local_a(psi, r)
    v = pf.connecting_unitary(psi, phi)
    assert core.ray_distance(pf.apply_local_b(psi, v), phi) <= 1e-10
    m = v.matrix @ r.matrix.conj()
    assert abs(abs(m[0, 0]) - 1.0) <= 1e-10
    np.testing.assert_allclose(m, m[0, 0] * np.eye(2), atol=1e-10)


def test_connecting_degenerate_and_deficient():
    cases = [
        conjugated_density([0.4, 0.4, 0.2], 1),
        core.validate_density(np.eye(4, dtype=complex) / 4),
        conjugated_density([0.5, 0.5, 0.0, 0.0], 2),
        conjugated_density([0.7, 0.3, 0.0], 3),
    ]
    for i, rho in enumerate(cases):
        base = pf.purify(rho)
        n = rho.n
        psi = pf.apply_local_b(base, sampling.random_unitary(n, 10 + i))
        phi = pf.apply_local_b(base, sampling.random_unitary(n, 20 + i))
        v = pf.connecting_unitary(psi, phi)
        assert core.ray_distance(pf.apply_local_b(psi, v), phi) <= 1e-9
        assert abs(np.linalg.det(v.matrix) - 1.0) <= 1e-9
        unit_dev = np.abs(v.matrix.conj().T @ v.matrix - np.eye(n))
        assert np.max(unit_dev) <= 1e-12


# tails this far below the top eigenvalue have Schmidt coefficients near 1e-7
# of the largest, which a support cut on the reduced spectrum would drop
_TAIL_CUT = 1e-14


@st.composite
def eigh_purifications(draw):
    # C = V diag(s) from numpy's eigh of a rank-deficient G G^dag, not
    # clamped: the kernel coefficients are drawn from 1e-9 to 1e-7, the size
    # of the square root of eigensolver noise
    n = draw(st.integers(2, 6))
    mu = draw(st.integers(1, n - 1))
    g = sampling.complex_normal(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (n, mu))
    lam, vec = np.linalg.eigh(g @ g.conj().T)
    s = np.sqrt(np.abs(lam))
    s[: n - mu] = [draw(st.floats(1e-9, 1e-7)) for _ in range(n - mu)]
    c = vec * s
    return core.PureState((c / np.linalg.norm(c)).reshape(-1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(edge_spectra(_NEAR, _TAIL_CUT).map(pf.purify),
                 edge_spectra(_NEAR, pf.PURIFY_CLAMP).map(pf.purify),
                 eigh_purifications()),
       st.integers(0, 2**32 - 1))
def test_connecting_property(base, seed):
    psi = pf.apply_local_b(base, sampling.random_unitary(base.n, seed))
    phi = pf.apply_local_b(base, sampling.random_unitary(base.n, seed + 1))
    v = pf.connecting_unitary(psi, phi)
    assert core.ray_distance(pf.apply_local_b(psi, v), phi) <= 1e-9
    assert abs(np.linalg.det(v.matrix) - 1.0) <= 1e-9


def test_connecting_product_states():
    # exact basis products leave exact zeros on the QR pivots of all but the
    # first column
    for n in range(1, 4):
        for i, j, k in itertools.product(range(n), repeat=3):
            c_psi = np.zeros((n, n), dtype=complex)
            c_phi = np.zeros((n, n), dtype=complex)
            c_psi[i, j] = 1.0
            c_phi[i, k] = 1j
            psi, phi = (core.PureState(c.reshape(-1)) for c in (c_psi, c_phi))
            v = pf.connecting_unitary(psi, phi)
            assert core.ray_distance(pf.apply_local_b(psi, v), phi) <= 1e-12
            assert abs(np.linalg.det(v.matrix) - 1.0) <= 1e-12


def test_connecting_lapack_calls(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "svd", "qr", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    base = pf.purify(conjugated_density([0.5, 0.3, 0.2, 0.0], 4))
    psi = pf.apply_local_b(base, sampling.random_unitary(4, 5))
    calls.clear()
    pf.connecting_unitary(psi, base)
    assert calls == {"svd": 1, "qr": 1, "det": 1}


def test_connecting_rejects_mismatched_traces():
    psi = pf.purify(diag_density(0.7, 0.3))
    phi = pf.purify(diag_density(0.6, 0.4))
    with pytest.raises(PartialTraceMismatchError):
        pf.connecting_unitary(psi, phi)


def test_connecting_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pf.connecting_unitary(bell(2), bell(3))
