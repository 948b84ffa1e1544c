import copy
import dataclasses
import json
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmgeo import core, documents, purification, sampling, strata
from dmgeo.errors import (
    DecompositionFailureError,
    DimensionMismatchError,
    NotFiniteError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    PreconditionError,
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


def test_symmetrization_overflow_is_a_validation_error_without_warning():
    # finite, Hermitian, unit trace, but (M + M^dag) / 2 overflows; parsing
    # decomposes the entries as they are and reports their finite eigenvalue
    big = 1e308
    m = np.array([[0.5, big], [big, 0.5]], dtype=complex)
    text = json.dumps({"kind": "density", "n": 2,
                       "data": [[[0.5, 0], [big, 0]], [[big, 0], [0.5, 0]]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            core.validate_density(m)
        with pytest.raises(NotPositiveError) as info:
            documents.parse_matrix_document(text)
    assert info.value.min_eigenvalue == -big


def test_validated_density_keeps_its_positivity_decomposition(lapack_calls):
    # the eigh that checks positivity is the one purify reads
    m = sampling.random_density(4, 3, 8).matrix * (1.0 + 1e-12)
    lapack_calls.clear()
    purification.purify(core.validate_density(m))
    assert lapack_calls == {"eigh": 1}


def test_validate_density_leaves_a_writable_input_unchanged():
    # a writable complex128 input reaches the symmetrization as it is, not as
    # a copy; the repaired result must be built in a buffer of its own
    rng = np.random.default_rng(5)
    m = sampling.random_density(4, 3, 2).matrix * (1.0 + 1e-12)
    m += (rng.random((4, 4)) + 1j * rng.random((4, 4))) * 1e-13
    for a in (m, np.asfortranarray(m)):
        before = a.tobytes()
        rho = core.validate_density(a)
        assert a.tobytes() == before
        assert rho.matrix.flags.c_contiguous and rho.matrix.strides == (64, 16)


def test_validate_repairs_small_noise():
    # inputs inside tolerance come back exactly Hermitian with unit trace
    rng = np.random.default_rng(5)
    m = np.diag([0.6, 0.4]).astype(complex)
    m += (rng.random((2, 2)) + 1j * rng.random((2, 2))) * 1e-12
    rho = core.validate_density(m, tol=1e-10)
    np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-15


#: divisors on both sides of the multiply's 0 < d < 2 range, nan included
DIVISORS = (1e-300, 1e-12, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, np.nextafter(2.0, 0.0),
            2.0, 3.0, 25.0, 1e300, np.nan)


def test_divide_real_equals_true_divide_bit_for_bit():
    # every pairing of these parts as (re, im): the four signed-zero
    # combinations, subnormals, and magnitudes that overflow or underflow
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 0.3]
    re, im = np.meshgrid(parts, parts)
    grid = np.empty(re.shape, dtype=complex)
    grid.real, grid.imag = re, im
    with np.errstate(all="ignore"):
        for a in (grid, np.asfortranarray(grid)):
            for d in DIVISORS:
                out = a.copy(order="K")
                core._divide_real(out, d)
                assert out.strides == a.strides
                assert out.tobytes() == np.true_divide(a, d).tobytes(), d
        # past d = 2 a subnormal part times 1/d underflows to a zero that the
        # multiply's zero term can flip, where the division keeps its sign
        bare = np.multiply(grid, complex(1.0 / 25.0, -0.0))
        assert bare.tobytes() != np.true_divide(grid, 25.0).tobytes()


def test_public_constructors_copy_and_package_results_are_frozen():
    # a caller may keep writing to what it handed in, so the public
    # constructors copy; results the package builds itself are frozen in
    # place and keep their layout
    a = np.diag([0.75, 0.25]).astype(complex)
    amplitudes = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    rho, psi = core.DensityMatrix(a), core.PureState(amplitudes)
    a[0, 0] = amplitudes[0] = 0.5
    assert rho.matrix[0, 0] == 0.75 and psi.amplitudes[0] == 1.0

    rho = core.validate_density(sampling.random_density(4, 4, 2).matrix)
    dec = core.spectral_decompose(rho)
    split = strata.convex_split(rho)
    for m in (rho.matrix, *(c.matrix for c in split.components)):
        assert not m.flags.writeable
        assert (m.flags.c_contiguous, m.strides) == (True, (64, 16))
    assert not dec.eigenvalues.flags.writeable
    v = dec.eigenvectors
    assert not v.flags.writeable
    assert (v.flags.f_contiguous, v.strides) == (True, (16, 64))


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 1.0])
def test_rank_cut_refuses_tol_outside_the_unit_interval(tol):
    # a cut at or below 0 keeps noise-level eigenvalues, one at or above 1
    # or a NaN keeps none; each routine that cuts a spectrum refuses it
    rho = sampling.random_density(3, 1, 5)
    psi = purification.purify(rho)
    calls = [
        lambda: core.numerical_rank([0.7, 0.3], tol),
        lambda: core.numerical_rank([], tol),
        lambda: strata.classify(rho, tol=tol),
        lambda: strata.convex_split(rho, tol=tol),
        lambda: purification.schmidt(psi, tol=tol),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=f"got {tol!r}"):
            call()
    assert core.numerical_rank([0.7, 0.3], 0.5) == 1
    assert core.numerical_rank([0.7, 0.3], 5e-324) == 2


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
        ("eigh", lambda: sampling.random_density(2, 2, 0)),
        ("det", lambda: purification.connecting_unitary(psi, psi)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, routine, fail)
            with pytest.raises(DecompositionFailureError, match="injected failure"):
                call()


def density_outputs(rho):
    # every array the operations on rho return, with their layouts
    dec = core.spectral_decompose(rho)
    psi = purification.purify(rho)
    info = strata.classify(rho)
    split = strata.convex_split(rho)
    arrays = [dec.eigenvalues, dec.eigenvectors, psi.amplitudes, np.array(info.eigenvalues),
              split.weights, *(c.matrix for c in split.components)]
    return [(a.dtype, a.shape, a.strides, a.tobytes()) for a in arrays] + [
        strata.tangent_space_rank(rho)]


def test_density_value_decomposes_once(lapack_calls):
    lapack_calls.clear()
    rho = sampling.random_generic_density(5, 3, 7)
    purification.purify(rho)
    strata.classify(rho)
    strata.convex_split(rho)
    strata.tangent_space_rank(rho)
    # the svd is the tangent stack's, which is not rho's factorization
    assert lapack_calls == {"eigh": 1, "svd": 1}
    assert core.spectral_decompose(rho) is core.spectral_decompose(rho)


def test_memo_hit_outputs_match_a_fresh_value():
    for n, mu, seed in ((4, 4, 1), (6, 3, 2), (9, 5, 3)):
        rho = sampling.random_generic_density(n, mu, seed)
        density_outputs(rho)
        fresh = core.DensityMatrix(rho.matrix.copy())
        assert density_outputs(rho) == density_outputs(fresh)


def test_failed_decomposition_is_not_kept(monkeypatch):
    rho = core.DensityMatrix(sampling.random_density(4, 3, 5).matrix)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(DecompositionFailureError, match="injected failure"):
            purification.purify(rho)
    dec = core.spectral_decompose(rho)
    fresh = core.spectral_decompose(core.DensityMatrix(rho.matrix))
    assert dec.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
    assert dec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("op", [strata.classify, purification.purify, strata.convex_split,
                                strata.tangent_space_rank])
def test_non_finite_density_raises_not_finite_without_warning(op, bad):
    # the constructor admits any array; a NaN or infinite entry once warned
    # in the phase fix and then failed as a rank error, or purified to NaN
    for m in ([[0.5, bad], [bad, 0.5]], [[bad, 0.0], [0.0, 0.5]]):
        rho = core.DensityMatrix(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFiniteError):
                op(rho)
        assert "spectral_decompose" not in rho.__dict__


def test_memo_is_not_a_field():
    def compare(a, b):
        try:
            return a == b
        except ValueError as exc:
            return type(exc)

    for m in ([[1.0]], np.diag([0.75, 0.25])):
        rho = core.DensityMatrix(m)
        before = compare(rho, core.DensityMatrix(rho.matrix)), repr(rho)
        core.spectral_decompose(rho)
        assert (compare(rho, core.DensityMatrix(rho.matrix)), repr(rho)) == before
        assert [f.name for f in dataclasses.fields(rho)] == ["matrix"]
    # a replaced value decomposes its own matrix, not the memo it was made from
    other = dataclasses.replace(rho, matrix=np.diag([0.25, 0.75]))
    np.testing.assert_array_equal(core.spectral_decompose(other).eigenvectors,
                                  [[0, 1], [1, 0]])


def typed_values():
    # one of each typed value, with every factorization it keeps filled
    rho = sampling.random_generic_density(4, 3, 11)
    psi = purification.purify(rho)
    purification.schmidt(psi)
    density_outputs(rho)
    return rho, psi, core.spectral_decompose(rho), sampling.random_unitary(2, 11)


def value_outputs(value):
    # the bytes of what the operations on a typed value return
    if isinstance(value, core.DensityMatrix):
        return density_outputs(value)
    if isinstance(value, core.PureState):
        sd = purification.schmidt(value)
        arrays = (sd.coefficients, sd.basis_a, sd.basis_b,
                  purification.partial_trace_b(value).matrix,
                  purification.connecting_unitary(value, value).matrix)
    elif isinstance(value, core.SpectralDecomposition):
        arrays = (value.reconstruct(),)
    else:
        arrays = (strata.bloch_rotation(value),)
    return [a.tobytes() for a in arrays]


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copied_values_stay_frozen(how):
    for value in typed_values():
        dup = COPIES[how](value)
        assert type(dup) is type(value)
        names = [f.name for f in dataclasses.fields(value)]
        # the fields are equal, bit for bit and layout for layout, and no memo
        # comes along
        assert list(vars(dup)) == names
        for name in names:
            a, b = getattr(value, name), getattr(dup, name)
            assert (b.dtype, b.shape, b.strides, b.tobytes()) == (
                a.dtype, a.shape, a.strides, a.tobytes())
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[(0,) * b.ndim] = 0
        fresh = type(value)(*(getattr(value, name).copy() for name in names))
        assert value_outputs(dup) == value_outputs(fresh) == value_outputs(value)


def loop_fix_phases(vectors):
    # reference: one column at a time, pivot on the first component above
    # PHASE_EPS, scalar modulus
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        significant = np.flatnonzero(np.abs(col) > core.PHASE_EPS)
        pivot = col[significant[0]]
        out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


def loop_order_clusters(values, vectors):
    # reference: scan runs of bit-equal values, sort each by tuple keys
    n = values.size
    order = list(range(n))
    start = 0
    for stop in range(1, n + 1):
        if stop == n or values[stop - 1] != values[stop]:
            order[start:stop] = sorted(
                order[start:stop], key=lambda k: tuple(vectors[:, k].real), reverse=True
            )
            start = stop
    return vectors[:, order]


@st.composite
def clustered_densities(draw):
    n = draw(st.integers(1, 10))
    levels = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=n))
    lam = np.array([draw(st.sampled_from(levels)) for _ in range(n)])
    # repeated levels, kept exact or split by up to 2e-10
    splits = st.sampled_from([0.0, 0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
    lam += np.array([draw(splits) for _ in range(n)]) * 1e-10
    if draw(st.booleans()):
        u = np.eye(n, dtype=complex)
    else:
        u = sampling.random_unitary(n, draw(st.integers(0, 2**32 - 1))).matrix
    m = (u * lam) @ u.conj().T
    return core.validate_density(m / np.trace(m).real)


@settings(max_examples=300, deadline=None)
@given(clustered_densities())
def test_spectral_decompose_bitwise_equals_loop_reference(rho):
    values, vectors = np.linalg.eigh(rho.matrix)
    values = values[::-1].copy()
    vectors = loop_order_clusters(values, loop_fix_phases(vectors[:, ::-1]))
    dec = core.spectral_decompose(rho)
    assert dec.eigenvalues.tobytes() == values.tobytes()
    assert dec.eigenvectors.tobytes() == vectors.tobytes()


# one exactly repeated level among distinct ones, on the diagonal so that eigh
# keeps the tie bit-equal; eigh returns the tied columns against the
# lexicographic order, so the sort has work to do
PARTIAL_TIE = (0.25, 0.4, 0.1, 0.25)


def test_spectral_decompose_partial_tie_equals_loop_reference():
    rho = diag_density(*PARTIAL_TIE)
    values, vectors = np.linalg.eigh(rho.matrix)
    values = values[::-1].copy()
    phased = loop_fix_phases(vectors[:, ::-1])
    expected = loop_order_clusters(values, phased)
    assert values[1] == values[2] and not np.array_equal(expected, phased)
    dec = core.spectral_decompose(rho)
    assert dec.eigenvalues.tobytes() == values.tobytes()
    assert dec.eigenvectors.tobytes() == expected.tobytes()


def test_spectral_decompose_layout_does_not_depend_on_ties():
    # the layout decides how later reductions over the vectors round, such as
    # the norm inside purify, so the untied path must keep the tied one's:
    # column-major, as the column gather leaves it
    untied = core.spectral_decompose(sampling.random_density(4, 4, 0))
    tied = core.spectral_decompose(diag_density(*PARTIAL_TIE))
    assert np.all(np.diff(untied.eigenvalues) < 0)
    for dec in (untied, tied):
        v = dec.eigenvectors
        assert (v.flags.c_contiguous, v.flags.f_contiguous, v.strides) == (False, True, (16, 64))
