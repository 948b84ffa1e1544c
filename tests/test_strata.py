import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmgeo import core, documents, sampling, strata
from dmgeo.errors import (
    AlreadyPureError,
    AmbiguousRankError,
    DegenerateTotalWeightError,
    DimensionNotTwoError,
    NonGenericSpectrumError,
    NotFiniteError,
    NotHermitianError,
    NotPositiveError,
    OutsideBallError,
    RankOutOfRangeError,
    TraceNotOneError,
)
from split_sweep import density as sweep_density, layout as sweep_layout, oracle as sweep_oracle
from split_sweep import reference_split as sweep_reference_split, refused as split_refused


def diag_density(*values):
    return core.validate_density(np.diag(values).astype(complex))


def test_stratum_dimension_anchor_values():
    assert strata.stratum_dimension(2, 1) == 2
    assert strata.stratum_dimension(2, 2) == 3
    for n in range(2, 17):
        assert strata.stratum_dimension(n, n) == n * n - 1
        assert strata.stratum_dimension(n, 1) == 2 * n - 2
        # full-rank stratum dim = dim CP^(n^2-1) minus dim SU(n)
        assert strata.stratum_dimension(n, n) == (2 * n * n - 2) - (n * n - 1)


def test_stratum_dimension_monotone_in_rank():
    for n in range(2, 9):
        dims = [strata.stratum_dimension(n, mu) for mu in range(1, n + 1)]
        assert all(np.diff(dims) > 0)


def test_stabilizer_dimension():
    for n in range(1, 9):
        assert strata.stabilizer_dimension(n, n) == 0
    assert strata.stabilizer_dimension(2, 1) == 1
    assert strata.stabilizer_dimension(4, 2) == 4


#: (N, mu) points at which both stabilizers are measured
STABILIZER_POINTS = [(3, 1), (3, 2), (4, 2), (5, 3), (5, 5)]


def _u_n_basis(n):
    """The n^2 Hermitian matrices E_jj, E_jk + E_kj and i(E_kj - E_jk), j < k."""
    basis = []
    for j in range(n):
        for k in range(j, n):
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = e[k, j] = 1.0
            basis.append(e)
            if j < k:
                e = np.zeros((n, n), dtype=complex)
                e[j, k], e[k, j] = -1.0j, 1.0j
                basis.append(e)
    return basis


def _generic_point(n, mu):
    """rho = V diag(lam) V^dag with mu distinct nonzero lam, and C = V sqrt(lam) W^T.

    C is the coefficient matrix of a purification of rho, C C^dag = rho,
    turned by a B-side unitary W so its kernel is not a coordinate block.
    """
    rng = np.random.default_rng(10 * n + mu)
    v, w = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            for _ in range(2))
    lam = np.zeros(n)
    lam[:mu] = np.arange(mu, 0, -1) / (mu * (mu + 1) / 2)
    rho = (v * lam) @ v.conj().T
    c = (v * np.sqrt(lam)) @ w.T
    np.testing.assert_allclose(c @ c.conj().T, rho, atol=1e-14)
    return rho, c


def _kernel_dim(n, images):
    # n^2 real directions in, each image flattened to its real parts
    rows = np.array([np.concatenate([x.real.ravel(), x.imag.ravel()]) for x in images])
    return n * n - np.linalg.matrix_rank(rows)


@pytest.mark.parametrize("n, mu", STABILIZER_POINTS)
def test_conjugation_stabilizer_is_mu_plus_fibre(n, mu):
    # X -> i[X, rho] over u(n) fixes rho's commutant: a U(1) per nonzero
    # eigenvalue and the U(N - mu) of its kernel, not (N - mu)^2 alone
    rho, _ = _generic_point(n, mu)
    images = [1j * (x @ rho - rho @ x) for x in _u_n_basis(n)]
    assert _kernel_dim(n, images) == mu + (n - mu) ** 2


@pytest.mark.parametrize("n, mu", STABILIZER_POINTS)
def test_stabilizer_dimension_is_b_side_stabilizer(n, mu):
    # the generator of C -> C v^T at v = exp(iH) is C -> C (iH)^T; its
    # kernel is the U(N - mu) that fixes the purification
    _, c = _generic_point(n, mu)
    images = [c @ (1j * h).T for h in _u_n_basis(n)]
    assert _kernel_dim(n, images) == strata.stabilizer_dimension(n, mu)


def test_rank_range_rejected():
    for bad in ((2, 0), (2, 3), (0, 1)):
        with pytest.raises(RankOutOfRangeError):
            strata.stratum_dimension(*bad)
        with pytest.raises(RankOutOfRangeError):
            strata.stabilizer_dimension(*bad)


def test_classify_examples():
    info = strata.classify(core.validate_density(np.eye(2, dtype=complex) / 2))
    assert (info.mu, info.stratum_dim, info.stabilizer_dim) == (2, 3, 0)
    assert info.is_full_rank and not info.is_pure

    info = strata.classify(diag_density(1.0, 0.0))
    assert (info.mu, info.stratum_dim) == (1, 2)
    assert info.is_pure

    info = strata.classify(diag_density(0.5, 0.5, 0.0, 0.0))
    assert (info.n, info.mu) == (4, 2)
    assert (info.stratum_dim, info.stabilizer_dim) == (11, 4)
    assert info.eigenvalues == (0.5, 0.5, 0.0, 0.0)
    assert all(type(x) is float for x in info.eigenvalues)


def test_classify_purity_relation():
    for seed in range(12):
        n = 2 + seed % 4
        mu = 1 + seed % n
        rho = sampling.random_density(n, mu, seed)
        info = strata.classify(rho)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert info.is_pure == (abs(purity - 1.0) < 1e-8)


def hand_rank_qubit(rho_matrix, extra_identity):
    # independent oracle for N=2: stack the Pauli commutator directions
    # (optionally plus the identity, whose commutator vanishes) and the
    # spectral direction, flatten by hand, and take matrix_rank
    paulis = [strata.SIGMA_X, strata.SIGMA_Y, strata.SIGMA_Z]
    if extra_identity:
        paulis = paulis + [np.eye(2, dtype=complex)]
    lam, vec = np.linalg.eigh(rho_matrix)
    directions = [1j * (p @ rho_matrix - rho_matrix @ p) for p in paulis]
    if lam[0] > 1e-9:
        directions.append(
            np.outer(vec[:, 1], vec[:, 1].conj()) - np.outer(vec[:, 0], vec[:, 0].conj())
        )
    rows = []
    for d in directions:
        rows.append(
            [d[0, 0].real, d[1, 1].real,
             np.sqrt(2) * d[0, 1].real, np.sqrt(2) * d[0, 1].imag]
        )
    return np.linalg.matrix_rank(np.array(rows), tol=1e-10)


def test_tangent_rank_qubit_mixed():
    rho = diag_density(0.7, 0.3)
    assert strata.tangent_space_rank(rho) == 3
    assert hand_rank_qubit(rho.matrix, extra_identity=False) == 3
    assert hand_rank_qubit(rho.matrix, extra_identity=True) == 3


def test_tangent_rank_qubit_pure():
    rho = diag_density(1.0, 0.0)
    assert strata.tangent_space_rank(rho) == 2
    assert hand_rank_qubit(rho.matrix, extra_identity=True) == 2


def test_tangent_rank_five_level():
    rho = diag_density(0.5, 0.3, 0.2, 0.0, 0.0)
    assert strata.tangent_space_rank(rho) == 20
    assert strata.stratum_dimension(5, 3) == 20


def test_tangent_rank_matches_formula_random():
    for n in range(2, 5):
        for mu in range(1, n + 1):
            for seed in range(3):
                rho = sampling.random_generic_density(n, mu, 1000 * n + 10 * mu + seed)
                assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, mu)


def test_tangent_rejects_degenerate_spectrum():
    with pytest.raises(NonGenericSpectrumError):
        strata.tangent_space_rank(core.validate_density(np.eye(2, dtype=complex) / 2))
    with pytest.raises(NonGenericSpectrumError):
        strata.tangent_space_rank(diag_density(0.4, 0.4, 0.2))


def test_tangent_rank_resolves_eigenvalue_1e8():
    # the 1e-8 eigenvalue puts the smallest kept singular value near 4e-9 of
    # the largest: above the default cut 1e-9, below a cut of 1e-8
    lam = np.array([1.0, 0.3, 0.1, 1e-3, 1e-6, 1e-8, 0.0])
    for seed in range(5):
        u = sampling.random_unitary(7, seed).matrix
        rho = core.validate_density((u * lam) @ u.conj().T / lam.sum())
        assert strata.tangent_space_rank(rho) == strata.stratum_dimension(7, 6)


@pytest.mark.parametrize("n", [3, 4])
def test_tangent_rank_near_cut_returns_own_stratum_or_raises(n):
    # lam_2 = 1e-9 sits on the eigenvalue cut; without the near-cut guard
    # some seeds kept it but cut its motions, a count of no stratum
    lam = np.array([1 - 1e-9, 1e-9] + [0.0] * (n - 2))
    for seed in range(12):
        u = sampling.random_unitary(n, seed).matrix
        rho = core.validate_density((u * lam) @ u.conj().T)
        mu = core.numerical_rank(core.spectral_decompose(rho).eigenvalues)
        try:
            rank = strata.tangent_space_rank(rho)
        except NonGenericSpectrumError:
            continue
        assert rank == strata.stratum_dimension(n, mu)


@pytest.mark.parametrize("tol, raises", [
    (1e-9, False), (1e-8, False), (3e-8, True), (1e-7, True), (1e-5, True), (1e-3, True),
])
def test_tangent_rank_close_kept_pair_scales_with_tol(tol, raises):
    # a 3e-8 gap passes the fixed GENERIC_EPS floor; at a tol above it the
    # pair's two motions fell under the cut with no ambiguous ratio, and
    # the count read 6, which matches no stratum of n = 3
    u = sampling.random_unitary(3, 0).matrix
    lam = np.linspace(1, 0.5, 3)
    lam /= lam.sum()
    lam[1] = lam[0] - 3e-8
    lam[-1] += 1 - lam.sum()
    rho = core.validate_density((u * lam) @ u.conj().T)
    assert strata.classify(rho).mu == 3
    if raises:
        with pytest.raises(NonGenericSpectrumError):
            strata.tangent_space_rank(rho, tol=tol)
    else:
        assert strata.tangent_space_rank(rho, tol=tol) == strata.stratum_dimension(3, 3) == 8


def test_tangent_rank_refuses_both_sides_of_the_cut():
    n = 4
    u = sampling.random_unitary(n, 7).matrix
    for lam, mu in (([0.6, 0.4 - 2e-9, 2e-9, 0.0], 3), ([0.6, 0.4 - 9e-10, 9e-10, 0.0], 2)):
        rho = core.validate_density((u * np.array(lam)) @ u.conj().T)
        assert core.numerical_rank(core.spectral_decompose(rho).eigenvalues) == mu
        with pytest.raises(NonGenericSpectrumError):
            strata.tangent_space_rank(rho)
    # clear of the cut: above 2.45e-9 = sqrt(n (n - 1) / 2) * 1e-9, and below
    # 0.6 * 1e-9 / 2.45 = 2.45e-10
    for lam, mu in (([0.6, 0.4 - 3e-9, 3e-9, 0.0], 3), ([0.6, 0.4 - 2e-10, 2e-10, 0.0], 2)):
        rho = core.validate_density((u * np.array(lam)) @ u.conj().T)
        assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, mu)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_tangent_rank_refuses_a_count_of_no_stratum(n):
    # every stratum dimension mu (2n - mu) - 1 lies strictly between 0 and
    # the stack's min(n^2 + mu - 2, n^2) singular values, so a cut that
    # keeps them all or none matches no stratum; at n = 3 and tol 1e-17 the
    # count read 9 for some seeds, and a nan tol read 0
    for seed in range(3):
        rho = sampling.random_generic_density(n, n, 40 * n + seed)
        for tol in (1e-300, 1e-20):
            with pytest.raises(AmbiguousRankError, match=f"^AmbiguousRank: {n * n} of {n * n} "):
                strata.tangent_space_rank(rho, tol=tol)
        with pytest.raises(AmbiguousRankError, match=f"^AmbiguousRank: 0 of {n * n} "):
            strata.tangent_space_rank(rho, tol=float("nan"))
        assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, n)
    # a pure qubit passes every spectral guard at tol = 1, which keeps no
    # singular value
    with pytest.raises(AmbiguousRankError, match="^AmbiguousRank: 0 of 3 "):
        strata.tangent_space_rank(diag_density(1.0, 0.0), tol=1.0)


def loop_basis(n):
    # reference: the traceless Hermitian basis built one matrix at a time
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1.0j
            m[j, i] = 1.0j
            basis.append(m)
    for k in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[:k, :k] = np.eye(k)
        m[k, k] = -float(k)
        basis.append(m)
    return basis


def traceless_hermitian_basis(n):
    # the loop_basis matrices in one stack
    i, j = np.triu_indices(n, k=1)
    sym = 2 * np.arange(i.size)
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    basis[sym, i, j] = basis[sym, j, i] = 1.0
    basis[sym + 1, i, j] = -1.0j
    basis[sym + 1, j, i] = 1.0j
    diag = np.tri(n - 1, n)
    diag[np.arange(n - 1), np.arange(1, n)] = -np.arange(1, n)
    basis[n * n - n :, np.arange(n), np.arange(n)] = diag
    return basis


def loop_flatten(h):
    iu = np.triu_indices(h.shape[0], k=1)
    upper = h[iu]
    return np.concatenate(
        [h.diagonal().real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag]
    )


def loop_stack(rho):
    # reference: one flattened row per basis commutator and per adjacent
    # projector difference
    dec = core.spectral_decompose(rho)
    mu = core.numerical_rank(dec.eigenvalues)
    m = rho.matrix
    rows = [loop_flatten(1.0j * (h @ m - m @ h)) for h in loop_basis(rho.n)]
    v = dec.eigenvectors
    projectors = [np.outer(v[:, k], v[:, k].conj()) for k in range(mu)]
    rows += [loop_flatten(projectors[k] - projectors[k + 1]) for k in range(mu - 1)]
    return np.array(rows)


def test_tangent_stack_bitwise_equals_loop_reference(monkeypatch):
    # equal in every value; "+ 0.0" maps -0.0 to +0.0 and changes no other
    # bit, since the loop's matmul zero-sums and the gather's exact
    # subtractions give zeros of different signs
    stacks = []
    svd = np.linalg.svd

    def capture(a, *args, **kwargs):
        stacks.append(a)
        return svd(a, *args, **kwargs)

    def check(rho):
        del stacks[:]
        strata.tangent_space_rank(rho)
        ref = loop_stack(rho)
        if not ref.size:
            assert stacks == []
            return
        (stack,) = stacks
        assert stack.shape == ref.shape
        assert (stack + 0.0).tobytes() == (ref + 0.0).tobytes()
        s = svd(stack, compute_uv=False)
        assert s.tobytes() == svd(ref, compute_uv=False).tobytes()

    monkeypatch.setattr(np.linalg, "svd", capture)
    for n in range(2, 9):
        for mu in range(1, n + 1):
            check(sampling.random_generic_density(n, mu, 7000 + 10 * n + mu))
    # above the cache bound the table is built per call
    n = strata.TABLE_CACHE_MAX_N + 1
    for mu in (2, n):
        check(sampling.random_generic_density(n, mu, 7000 + 10 * n + mu))
    # non-Hermitian input as parse_matrix_document accepts it: a table that
    # read rho_ba as conj(rho_ab) would pass the loop above
    rng = np.random.default_rng(7100)
    for n in range(1, 9):
        for mu in range(1, n + 1):
            m = sampling.random_generic_density(n, mu, 7100 + 10 * n + mu).matrix
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = m + 1e-13 * noise
            assert np.abs(m - m.conj().T).max() > 0.0
            core.check_hermitian_unit_trace(m, documents.HERMITIAN_TRACE_TOL)
            check(core.DensityMatrix(m))


def test_tangent_rank_allocates_one_real_stack():
    # after the per-n tables are built, a call allocates the real stack and
    # O(n^3) gather buffers, none of the complex n^4 commutator temporaries
    n, mu = 12, 6
    rho = sampling.random_generic_density(n, mu, 1206)
    assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, mu)
    tracemalloc.start()
    try:
        strata.tangent_space_rank(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * (n * n + mu - 2) * n * n


def test_traceless_hermitian_basis_is_orthogonal_basis():
    for n in range(1, 7):
        basis = traceless_hermitian_basis(n)
        assert basis.shape == (n * n - 1, n, n)
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        assert np.all(np.trace(basis, axis1=1, axis2=2) == 0)
        gram = np.einsum("aij,bij->ab", basis.conj(), basis).real
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert np.all(np.diag(gram) > 0)
        for got, ref in zip(basis, loop_basis(n)):
            assert got.tobytes() == ref.tobytes()


def test_triangle_tables_built_once_per_size(monkeypatch):
    calls = []
    triu_indices = np.triu_indices

    def counting(n, *args, **kwargs):
        calls.append(n)
        return triu_indices(n, *args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", counting)
    strata._tangent_table.cache_clear()
    sizes = (1, 2, 3, 5)
    for _ in range(3):
        for n in sizes:
            rho = sampling.random_generic_density(n, n, 100 + n)
            assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, n)
    assert sorted(calls) == list(sizes)


def test_triangle_tables_read_only():
    for n in (1, 2, 5):
        for table in strata._tangent_table(n):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0


def test_tables_above_cache_bound_are_built_per_call(monkeypatch):
    n = strata.TABLE_CACHE_MAX_N + 1
    rho = sampling.random_generic_density(n, 2, 1702)
    below = sampling.random_generic_density(n - 1, 2, 1602)
    assert strata.tangent_space_rank(below) == strata.stratum_dimension(n - 1, 2)
    size = strata._tangent_table.cache_info().currsize
    calls = []
    triu_indices = np.triu_indices

    def counting(m, *args, **kwargs):
        calls.append(m)
        return triu_indices(m, *args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", counting)
    assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, 2)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, 2)
        assert strata.tangent_space_rank(below) == strata.stratum_dimension(n - 1, 2)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the n = 17 tangent table alone holds 1.1 MiB
    assert retained < 64 * 1024
    assert strata._tangent_table.cache_info().currsize == size
    # each call at n builds its table; the one at n - 1 reads the kept one
    assert calls == [n, n]


def test_mutated_basis_leaves_later_calls_unchanged():
    n, mu = 4, 3
    rho = sampling.random_generic_density(n, mu, 4243)
    ref = traceless_hermitian_basis(n)
    basis = traceless_hermitian_basis(n)
    assert basis is not ref and basis.flags.writeable
    basis[...] = 7.0
    assert traceless_hermitian_basis(n).tobytes() == ref.tobytes()
    assert strata.tangent_space_rank(rho) == strata.stratum_dimension(n, mu)


def test_one_level_tangent_rank_and_flatten():
    # n = 1: the basis, the projector rows and the tangent stack are all empty
    assert strata.tangent_space_rank(diag_density(1.0)) == 0 == strata.stratum_dimension(1, 1)
    assert all(v.size == 0 for v in strata._tangent_table(1))


def test_convex_split_maximally_mixed():
    split = strata.convex_split(core.validate_density(np.eye(2, dtype=complex) / 2))
    np.testing.assert_allclose(split.weights, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(split.components[0].matrix, np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(split.components[1].matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_convex_split_qubit():
    rho = diag_density(0.7, 0.3)
    split = strata.convex_split(rho)
    np.testing.assert_allclose(split.weights, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(split.components[0].matrix, np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(split.components[1].matrix, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(split.reconstruct(), rho.matrix, atol=1e-11)


def test_convex_split_three_level():
    rho = diag_density(0.5, 0.3, 0.2)
    split = strata.convex_split(rho)
    np.testing.assert_allclose(split.weights, [0.25, 0.35, 0.4], atol=1e-15)
    for comp in split.components:
        lam = np.linalg.eigvalsh(comp.matrix)[::-1]
        assert core.numerical_rank(lam) == 2
    np.testing.assert_allclose(split.reconstruct(), rho.matrix, atol=1e-11)
    assert np.sum(split.weights) == pytest.approx(1.0, abs=1e-12)


def test_convex_split_random_and_recursion():
    def depth(rho):
        info = strata.classify(rho)
        if info.mu == 1:
            return 0
        split = strata.convex_split(rho)
        return 1 + max(depth(c) for c in split.components)

    for seed in range(8):
        n = 2 + seed % 4
        mu = 2 + seed % (n - 1) if n > 2 else 2
        rho = sampling.random_density(n, mu, 3000 + seed)
        split = strata.convex_split(rho)
        np.testing.assert_allclose(split.reconstruct(), rho.matrix, atol=1e-11)
        assert all(w > 0 for w in split.weights)
        assert depth(rho) == mu - 1


def test_convex_split_rejects_pure():
    with pytest.raises(AlreadyPureError):
        strata.convex_split(diag_density(1.0, 0.0))


def reference_split(rho, tol=core.RANK_TOL):
    # reference split: every component built as in convex_split, with the
    # tail below the cut shared out as mu equal parts, then passed through
    # the full validate_density at VALIDATION_TOL, the tolerance at which
    # the document reader checks positivity, one eigh per component
    dec = core.spectral_decompose(rho)
    mu = core.numerical_rank(dec.eigenvalues, tol)
    if mu < 2:
        raise AlreadyPureError(mu)
    share = np.zeros((rho.n, rho.n), dtype=complex)
    for j in range(mu, rho.n):
        v = dec.eigenvectors[:, j]
        share += dec.eigenvalues[j] / mu * np.outer(v, v.conj())
    t = sum(dec.eigenvalues[mu:])
    weights, components = [], []
    for k in range(mu):
        lam_k = dec.eigenvalues[k]
        p_k = np.outer(dec.eigenvectors[:, k], dec.eigenvectors[:, k].conj())
        tau = (rho.matrix - share - lam_k * p_k) / (1.0 - lam_k - t / mu)
        weights.append((1.0 - lam_k - t / mu) / (mu - 1))
        components.append(core.validate_density(tau).matrix)
    return np.array(weights), components


@st.composite
def split_spectra(draw):
    n = draw(st.integers(2, 6))
    mu = draw(st.integers(2, n))
    levels = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=mu))
    head = np.array([draw(st.sampled_from(levels)) for _ in range(mu)])
    head /= head.sum()
    if draw(st.booleans()):
        # near-pure: 1 - lam_max on both sides of 7.1e-5, where the rule
        # starts to refuse, and down past the rank cut
        rest = 10.0 ** -draw(st.floats(2.0, 9.5))
        head[1:] *= rest / head[1:].sum()
        head[0] = 1.0 - rest
    # repeated levels split by offsets on both sides of 1e-10
    offsets = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0])
    head += np.array([draw(offsets) for _ in range(mu)]) * 1e-10
    tail = [draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 1e-12])) for _ in range(n - mu)]
    return np.concatenate([head, tail]), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(split_spectra())
def test_convex_split_bitwise_equals_revalidated_reference(case):
    # a valid rho is refused only up front, by rank or by the rule on rho;
    # every split it returns equals, bit for bit, components that each pass
    # validate_density at VALIDATION_TOL
    lam, seed = case
    u = sampling.random_unitary(lam.size, seed).matrix
    m = (u * lam) @ u.conj().T
    rho = core.validate_density(m / np.trace(m).real)
    spectrum = core.spectral_decompose(rho).eigenvalues
    mu = core.numerical_rank(spectrum)
    try:
        split = strata.convex_split(rho)
    except (AlreadyPureError, DegenerateTotalWeightError) as exc:
        pure = mu < 2
        assert type(exc) is (AlreadyPureError if pure else DegenerateTotalWeightError)
        assert pure or split_refused(rho, spectrum, mu)
        return
    assert not split_refused(rho, spectrum, mu)
    weights, components = reference_split(rho)
    assert np.array_equal(split.weights, weights)
    assert len(split.components) == len(components)
    for comp, ref in zip(split.components, components):
        assert np.array_equal(comp.matrix, ref)


def separate_components(rho):
    # reference: each component in its own buffers, built as convex_split
    # built them before they shared one block: np.outer, times lam_k,
    # shared minus it, the real division, then _symmetrized_density
    dec = core.spectral_decompose(rho)
    lam = dec.eigenvalues
    mu = core.numerical_rank(lam)
    below = dec.eigenvectors[:, mu:]
    shared = rho.matrix - (below * (lam[mu:] / mu)) @ below.conj().T
    t = lam[mu:].sum()
    components = []
    for k in range(mu):
        tau = np.outer(dec.eigenvectors[:, k], dec.eigenvectors[:, k].conj())
        tau = shared - np.multiply(lam[k], tau)
        core._divide_real(tau, 1.0 - lam[k] - t / mu)
        components.append(core._symmetrized_density(tau).matrix)
    return components


def layout(a):
    return (a.dtype, a.shape, a.strides, a.flags.c_contiguous, a.flags.f_contiguous,
            a.flags.writeable, a.tobytes())


# 1 - lam_max = 1e-7 is refused up front; 2e-4 is built like any split
@pytest.mark.parametrize("lam, diagonal, returns", [
    ([0.5, 0.3, 0.15, 0.05], False, True),
    ([1 - 1e-7, 6e-8, 4e-8], False, False),
    ([0.5, 0.3, 0.2 - 2e-12, 1e-12, 1e-12, -1e-13], False, True),
    ([0.25, 0.25, 0.25, 0.25], False, True),
    ([0.4, 0.2, 0.2, 0.2, 0.0], False, True),
    ([0.5, 0.3, 0.2, 0.0, 0.0], True, True),
    ([0.2, 0.5, 0.0, 0.3], True, True),
    ([1 - 1e-7, 1e-7], True, False),
    ([1 - 2e-4, 1.2e-4, 8e-5], False, True),
    ([1 - 2e-4, 2e-4], True, True),
])
def test_convex_split_components_equal_separate_buffers(lam, diagonal, returns):
    lam = np.array(lam)
    if diagonal:
        m = np.diag(lam).astype(complex)
    else:
        u = sampling.random_unitary(lam.size, 1801).matrix
        m = (u * lam) @ u.conj().T
    rho = core.validate_density(m)
    if not returns:
        with pytest.raises(DegenerateTotalWeightError, match="1 - lam_max = "):
            strata.convex_split(rho)
        return
    refs = separate_components(rho)
    split = strata.convex_split(rho)
    assert len(split.components) == len(refs)
    for comp, ref in zip(split.components, refs):
        assert layout(comp.matrix) == layout(ref)
        if diagonal:
            zero = comp.matrix.view(float) == 0.0
            assert zero.any()
            assert np.array_equal(np.signbit(comp.matrix.view(float)[zero]),
                                  np.signbit(ref.view(float)[zero]))


@pytest.mark.parametrize("n, mu, kind", [
    (24, 12, "tail"), (48, 48, "tied"), (64, 8, "near-pure-kept"), (64, 64, "spread"),
])
def test_convex_split_bytes_equal_plain_reference_at_workload_sizes(n, mu, kind):
    # the sizes lib-large and cli-large split, beyond the n <= 6 above;
    # split_sweep.py runs the same comparison on every shape up to n = 8
    # and on these sizes, over more seeds
    rho = sweep_density(n, mu, kind, 0)
    lam = core.spectral_decompose(rho).eigenvalues
    assert core.numerical_rank(lam) == mu
    if kind == "tail":
        assert lam[mu:].sum() > 1e-13
    weights, components = sweep_reference_split(rho)
    split = strata.convex_split(rho)
    assert split.weights.dtype == weights.dtype
    assert split.weights.tobytes() == weights.tobytes()
    assert [sweep_layout(c.matrix) for c in split.components] == [
        sweep_layout(c) for c in components]
    assert sweep_oracle(split.components) is None


def test_convex_split_components_share_one_read_only_block():
    split = strata.convex_split(sampling.random_density(6, 4, 1802))
    block = split.components[0].matrix.base
    assert block.shape == (4, 6, 6) and not block.flags.writeable
    for k, comp in enumerate(split.components):
        assert comp.matrix.base is block
        assert np.shares_memory(comp.matrix, block[k])
        assert not comp.matrix.flags.writeable
        with pytest.raises(ValueError):
            comp.matrix[0, 0] = 1.0
        # a view of a read-only block cannot be made writable again
        with pytest.raises(ValueError):
            comp.matrix.flags.writeable = True


def test_convex_split_positivity_checked_on_spectrum():
    # valid at the parse tolerance, but component 0 = (rho - T / 2 - lam_0
    # P_0) / 1e-4 would carry the -5e-11 eigenvalue, shared out as
    # -2.5e-11, as -2.5e-7: the rule refuses rho before building it; a
    # -5e-15 tail, within VALIDATION_TOL * 1e-4, splits
    rho = diag_density(1 - 1e-4 + 5e-11, 1e-4, -5e-11)
    with pytest.raises(NotPositiveError):
        reference_split(rho)
    with pytest.raises(DegenerateTotalWeightError):
        strata.convex_split(rho)
    rho = diag_density(1 - 1e-4 + 5e-15, 1e-4, -5e-15)
    weights, components = reference_split(rho)
    split = strata.convex_split(rho)
    assert np.array_equal(split.weights, weights)
    for comp, ref in zip(split.components, components):
        assert np.array_equal(comp.matrix, ref)


def test_convex_split_hermitian_and_trace_checked_on_rho():
    # bare-constructor rho whose skew or trace its components would carry:
    # the revalidated reference blames each component, and the rule refuses
    # rho up front, naming the deviation
    skew = core.DensityMatrix(np.array([[0.5, 1e-6], [0.0, 0.5]]))
    heavy = core.DensityMatrix(np.diag([0.6, 0.6]))
    for rho, error, named in ((skew, NotHermitianError, "max |rho - rho^dag| = 1e-06,"),
                              (heavy, TraceNotOneError, "|tr rho - 1| = 0.19999999999999996)")):
        with pytest.raises(error):
            reference_split(rho)
        with pytest.raises(DegenerateTotalWeightError, match=re.escape(named)):
            strata.convex_split(rho)


def test_convex_split_runs_one_eigh_and_no_eigvalsh(monkeypatch):
    rho = core.DensityMatrix(sampling.random_density(5, 4, 21).matrix)
    near_pure = core.DensityMatrix(diag_density(1 - 2e-4, 2e-4).matrix)
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    strata.convex_split(rho)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    # near-pure input is split, or refused, on rho's eigh alone
    calls.update(eigh=0, eigvalsh=0)
    strata.convex_split(near_pure)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    calls.update(eigh=0, eigvalsh=0)
    with pytest.raises(DegenerateTotalWeightError):
        strata.convex_split(core.DensityMatrix(np.diag([1 - 1e-7, 1e-7])))
    assert calls == {"eigh": 1, "eigvalsh": 0}


def test_bloch_vector_examples():
    r = strata.bloch_vector(core.validate_density(np.eye(2, dtype=complex) / 2))
    assert (r.x, r.y, r.z) == (0.0, 0.0, 0.0)
    r = strata.bloch_vector(diag_density(1.0, 0.0))
    assert (r.x, r.y, r.z) == (0.0, 0.0, 1.0)
    plus = core.validate_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    r = strata.bloch_vector(plus)
    assert (r.x, r.y, r.z) == (1.0, 0.0, 0.0)


def test_bloch_vector_equals_three_traces_bitwise():
    # the stacked traces against one np.trace(m @ sigma) per coordinate, on
    # entries with signed zeros, tiny and huge magnitudes
    parts = [0.0, -0.0, 1e-300, -1e-300, 0.25, -0.75, 1e300]
    rng = np.random.default_rng(9)
    for _ in range(300):
        m = np.empty((2, 2), dtype=complex)
        m.real, m.imag = rng.choice(parts, size=(2, 2)), rng.choice(parts, size=(2, 2))
        if rng.random() < 0.5:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = core.DensityMatrix(m)
        r = strata.bloch_vector(rho)
        want = [float(np.trace(rho.matrix @ s).real)
                for s in (strata.SIGMA_X, strata.SIGMA_Y, strata.SIGMA_Z)]
        assert np.array([r.x, r.y, r.z]).tobytes() == np.array(want).tobytes()


def test_bloch_vector_needs_qubit():
    with pytest.raises(DimensionNotTwoError):
        strata.bloch_vector(diag_density(0.5, 0.3, 0.2))


def test_density_from_bloch_examples():
    rho = strata.density_from_bloch(strata.BlochVector(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)
    rho = strata.density_from_bloch(strata.BlochVector(0.0, 0.0, 1.0))
    np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]))
    rho = strata.density_from_bloch(strata.BlochVector(0.3, -0.4, 0.5))
    lam = np.linalg.eigvalsh(rho.matrix)
    r = np.sqrt(0.5)
    np.testing.assert_allclose(lam, [(1 - r) / 2, (1 + r) / 2], atol=1e-14)


def test_density_from_bloch_outside_ball():
    for coords in ((1.0, 0.1, 0.0), (1e308, 1e308, 0.0), (0.0, -1e200, 0.0)):
        with pytest.raises(OutsideBallError):
            strata.density_from_bloch(strata.BlochVector(*coords))


def test_density_from_bloch_rejects_non_finite():
    for coords in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)):
        with pytest.raises(NotFiniteError):
            strata.density_from_bloch(strata.BlochVector(*coords))


def test_bloch_roundtrip_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        r = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(r) > 1.0:
            continue
        vec = strata.BlochVector(*r)
        back = strata.bloch_vector(strata.density_from_bloch(vec))
        assert max(abs(back.x - vec.x), abs(back.y - vec.y), abs(back.z - vec.z)) <= 1e-12


def test_bloch_norm_detects_purity():
    for seed in range(10):
        pure = sampling.random_density(2, 1, seed)
        assert abs(strata.bloch_vector(pure).norm() - 1.0) <= 1e-8
        mixed = sampling.random_density(2, 2, 100 + seed)
        assert strata.bloch_vector(mixed).norm() < 1.0 + 1e-10


def test_bloch_rotation_identity_and_center():
    np.testing.assert_allclose(
        strata.bloch_rotation(core.Unitary(np.eye(2, dtype=complex))), np.eye(3), atol=1e-15
    )
    minus = core.Unitary(-np.eye(2, dtype=complex))
    np.testing.assert_array_equal(strata.bloch_rotation(minus), np.eye(3))


def test_bloch_rotation_quarter_turn_about_z():
    u = core.make_unitary(np.diag([1.0, 1.0j]))
    rot = strata.bloch_rotation(u)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(rot, expected, atol=1e-15)


def test_bloch_rotation_intertwines_conjugation():
    for seed in range(10):
        u = sampling.random_unitary(2, 4000 + seed)
        rot = strata.bloch_rotation(u)
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-10
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)
        rho = sampling.random_density(2, 2, 4100 + seed)
        moved = core.validate_density(u.matrix @ rho.matrix @ u.matrix.conj().T)
        lhs = strata.bloch_vector(moved)
        r = strata.bloch_vector(rho)
        rhs = rot @ np.array([r.x, r.y, r.z])
        np.testing.assert_allclose([lhs.x, lhs.y, lhs.z], rhs, atol=1e-12)


def test_bloch_rotation_is_homomorphism():
    for seed in range(10):
        a = sampling.random_unitary(2, 5000 + seed)
        b = sampling.random_unitary(2, 5100 + seed)
        ab = core.Unitary(a.matrix @ b.matrix)
        lhs = strata.bloch_rotation(ab)
        rhs = strata.bloch_rotation(a) @ strata.bloch_rotation(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_bloch_rotation_kernel_is_sign():
    for seed in range(5):
        u = sampling.random_unitary(2, 6000 + seed)
        flipped = core.Unitary(-u.matrix)
        np.testing.assert_array_equal(
            strata.bloch_rotation(u), strata.bloch_rotation(flipped)
        )
