"""README facts as properties over spectra with tails at the package's cuts.

Cluster levels are drawn exactly repeated, split by about 1e-10 or split by
far more, and every tail multiple lies on, just either side of or well
clear of its cut.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmgeo import core, documents, purification as pf, sampling, strata
from dmgeo.errors import (
    AlreadyPureError,
    DegenerateTotalWeightError,
    NumericalError,
    PreconditionError,
)
from split_sweep import adversarial, oracle, skewed

# multiples of a cut: on it, just either side of it, and well clear of it
_NEAR = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0])

# level offsets in units of 1e-10
_APART = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 10.0, 30.0, 100.0])


@st.composite
def tailed_spectra(draw, cut, min_rank=1):
    """Density conjugated by a random unitary: a head of mu levels, each an
    integer multiple of a common unit plus an _APART offset, and a tail of
    n - mu eigenvalues at _NEAR multiples of ``cut`` times the largest
    level."""
    n = draw(st.integers(max(2, min_rank), 6))
    mu = draw(st.integers(min_rank, n))
    head = np.array([draw(st.integers(1, 20)) for _ in range(mu)], dtype=float)
    head /= head.sum()
    head += np.array([draw(_APART) for _ in range(mu)]) * 1e-10
    tail = [draw(_NEAR) * cut * head.max() for _ in range(n - mu)]
    u = sampling.random_unitary(n, draw(st.integers(0, 2**32 - 1))).matrix
    m = (u * np.concatenate([head, tail])) @ u.conj().T
    return core.validate_density(m / np.trace(m).real)


# the last cut puts tail coefficients near 1e-7 of the largest
_CUTS = (core.RANK_TOL, pf.PURIFY_CLAMP, 1e-14)


@settings(max_examples=150, deadline=None)
@given(st.one_of(*(tailed_spectra(cut) for cut in _CUTS)))
def test_schmidt_squares_of_purification_equal_spectrum(rho):
    dec = pf.schmidt(pf.purify(rho))
    squares = np.zeros(rho.n)
    squares[: dec.mu] = dec.coefficients**2
    lam = np.linalg.eigvalsh(rho.matrix)[::-1]
    assert np.max(np.abs(squares - lam)) <= 1e-10


def _check_split(rho):
    try:
        split = strata.convex_split(rho)
    except (AlreadyPureError, DegenerateTotalWeightError):
        return
    assert np.all(split.weights > 0.0)
    assert abs(split.weights.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(split.reconstruct() - rho.matrix)) <= 1e-11


@settings(max_examples=150, deadline=None)
@given(st.one_of(*(tailed_spectra(cut, min_rank=2) for cut in _CUTS)))
def test_convex_split_weights_and_reconstruction(rho):
    _check_split(rho)


# a tail eigenvalue t below the rank cut must be shared out: kept in every
# component, it makes the weights sum to 1 + t / (mu - 1), here 1 + 2.5e-10
def test_convex_split_weights_and_reconstruction_rank_tol_tail():
    lam = np.array([0.5, 0.3, 0.2 - 0.5 * core.RANK_TOL, 0.5 * core.RANK_TOL])
    u = sampling.random_unitary(4, 3).matrix
    _check_split(core.validate_density((u * lam) @ u.conj().T))


# two levels 5e-11 apart are no tie: a rule that merged them would pair each
# vector with its neighbour's value and miss rho by more than 1e-11
def test_convex_split_weights_and_reconstruction_near_tie():
    lam = np.array([0.4 + 0.25e-10, 0.4 - 0.25e-10, 0.2])
    u = sampling.random_unitary(3, 1).matrix
    _check_split(core.validate_density((u * lam) @ u.conj().T))


@st.composite
def near_pure_spectra(draw):
    """Density conjugated by a random unitary: 1 - lam_max from 1e-2 down
    past the rank cut, shared by up to n - 1 levels, and a tail that is
    zero, +-1e-13, 1e-12 or -5e-11, half the parse tolerance."""
    n = draw(st.integers(2, 6))
    mu = draw(st.integers(2, n))
    rest = 10.0 ** -draw(st.floats(2.0, 9.5))
    shares = np.array([draw(st.integers(1, 4)) for _ in range(mu - 1)], dtype=float)
    tail = [draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -5e-11])) for _ in range(n - mu)]
    lam = np.concatenate([[1.0 - rest], rest * shares / shares.sum(), tail])
    u = sampling.random_unitary(n, draw(st.integers(0, 2**32 - 1))).matrix
    m = (u * lam) @ u.conj().T
    return core.validate_density(m / np.trace(m).real)


@st.composite
def parsed(draw, densities):
    """A drawn density plus a strict upper triangle of deviations up to
    ``HERMITIAN_TRACE_TOL``, read back as a document: validate_density
    makes every drawn rho exactly Hermitian, and the reader does not."""
    size = draw(st.sampled_from([0.0, 0.5, 0.99])) * documents.HERMITIAN_TRACE_TOL
    return skewed(draw(densities), size, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def adversarial_documents(draw, densities):
    """A drawn density skewed by ``adversarial`` with d from 0.99e-14 to
    0.99e-12."""
    return adversarial(draw(densities), 0.99e-12 * 10.0 ** -draw(st.floats(0.0, 2.0)))


def _check_no_validation_error(rho):
    # every operation on a density that the reader accepted returns
    # or refuses it by precondition or numerics; a ValidationError, or any
    # other exception, escapes and fails the test
    operations = [
        strata.classify,
        pf.purify,
        lambda rho: pf.schmidt(pf.purify(rho)),
        strata.convex_split,
        strata.tangent_space_rank,
        lambda rho: pf.partial_trace_b(pf.purify(rho)),
    ]
    if rho.n == 2:
        operations.append(strata.bloch_vector)
    for operation in operations:
        try:
            operation(rho)
        except (PreconditionError, NumericalError):
            pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parsed(st.one_of(near_pure_spectra(), *(tailed_spectra(cut) for cut in _CUTS))))
def test_no_operation_blames_a_valid_density(rho):
    _check_no_validation_error(rho)


def _flat_density(lam):
    """diag(lam) conjugated by the unitary DFT, whose columns, the
    eigenvectors, have entries of equal modulus."""
    n = len(lam)
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    return core.validate_density((f * np.asarray(lam)) @ f.conj().T)


# n = 8 with 1 - lam_max = 2e-2 and d = 0.99e-12 against a flat top
# eigenvector: E moves component 0's zero eigenvalue by -7 d / 2 / 2e-2,
# -1.73e-10, so a rule without the n / 2 on max |rho - rho^dag| = d would
# return a component the reader refuses
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(near_pure_spectra(), *(tailed_spectra(cut, min_rank=2) for cut in _CUTS),
                 parsed(near_pure_spectra()), adversarial_documents(near_pure_spectra())))
@example(adversarial(_flat_density([0.98] + [0.02 / 7] * 7), 0.99e-12))
def test_convex_split_components_reparse_as_densities(rho):
    # every component a split returns is a density document the reader
    # accepts, so an emitted component re-parses in the next command
    try:
        split = strata.convex_split(rho)
    except (AlreadyPureError, DegenerateTotalWeightError):
        return
    assert oracle(split.components) is None


# the tail term weighs -lam_min by 1 - 1/mu, as the split shares it out:
# here 1e-13 / 2 <= VALIDATION_TOL * 7e-4, where the unweighted 1e-13 is not
def test_convex_split_weighs_the_shared_out_tail():
    u = sampling.random_unitary(3, 5).matrix
    lam = np.array([1 - 7e-4 + 1e-13, 7e-4, -1e-13])
    rho = core.validate_density((u * lam) @ u.conj().T)
    assert core.spectral_decompose(rho).eigenvalues[-1] < -1e-10 * 7e-4
    assert oracle(strata.convex_split(rho).components) is None


# a valid near-pure qubit that convex_split used to build and then fail
# with TraceNotOne; it is refused up front as too near pure
def test_no_operation_blames_the_near_pure_qubit():
    u = sampling.random_unitary(2, 14800).matrix
    rho = core.validate_density((u * np.array([1 - 1e-8, 1e-8])) @ u.conj().T)
    _check_no_validation_error(rho)
    assert strata.classify(rho).mu == 2
    with pytest.raises(DegenerateTotalWeightError, match="1 - lam_max = "):
        strata.convex_split(rho)


@st.composite
def ball_points(draw):
    """Points of the closed unit ball: the centre, the sphere and radii
    just inside it, along axes and along generic directions."""
    direction = np.array([draw(st.integers(-10, 10)) for _ in range(3)], dtype=float)
    if not np.any(direction):
        direction[draw(st.integers(0, 2))] = 1.0
    radius = draw(st.sampled_from([0.0, 1e-300, 1e-8, 0.5, 1.0 - 1e-12, 1.0]) | st.floats(0.0, 1.0))
    return direction / np.linalg.norm(direction) * radius


@settings(max_examples=300, deadline=None)
@given(ball_points())
def test_bloch_chart_is_a_bijection_on_the_ball(r):
    rho = strata.density_from_bloch(strata.BlochVector(*r))
    back = strata.bloch_vector(rho)
    assert np.max(np.abs(np.array([back.x, back.y, back.z]) - r)) <= 1e-12
    again = strata.density_from_bloch(back)
    assert np.max(np.abs(again.matrix - rho.matrix)) <= 1e-12
