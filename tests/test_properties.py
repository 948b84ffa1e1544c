"""README facts as properties over spectra with tails at the package's cuts.

Cluster levels are drawn exactly repeated, split by about 1e-10 or split by
far more, and every tail multiple lies on, just either side of or well
clear of its cut.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from dmgeo import core, purification as pf, sampling, strata
from dmgeo.errors import AlreadyPureError, DegenerateTotalWeightError

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
