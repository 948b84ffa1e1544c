"""Rank strata of the density-matrix manifold and the qubit Bloch chart.

Rank-mu density matrices of size N form a stratum of real dimension
mu(2N - mu) - 1 with stabilizer U(N - mu); both formulas are exposed
directly and verified numerically through the tangent-space rank at
generic points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    RANK_TOL,
    DensityMatrix,
    Unitary,
    _lapack,
    _symmetrized_density,
    check_hermitian_unit_trace,
    check_rank_range,
    numerical_rank,
    spectral_decompose,
    validate_density,
)
from .errors import (
    AlreadyPureError,
    AmbiguousRankError,
    DegenerateTotalWeightError,
    DimensionNotTwoError,
    NonGenericSpectrumError,
    NotFiniteError,
    NotPositiveError,
    OutsideBallError,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: default relative cutoff on stacked-direction singular values
TANGENT_TOL = 1e-8

#: nonzero eigenvalues closer than this make the tangent check ill-posed
GENERIC_EPS = 1e-8

#: required ratio between the last kept and first dropped singular value
GAP_RATIO = 1e6

#: validation tolerance that every convex-split component must meet
SPLIT_TOL = 1e-8

#: factor by which n * eps / (1 - lam_max) must stay below SPLIT_TOL for
#: convex_split to trust the spectrum instead of validating each component
SPLIT_ERROR_MARGIN = 1e3


@dataclass(frozen=True)
class StratumInfo:
    n: int
    mu: int
    stabilizer_dim: int
    stratum_dim: int
    is_pure: bool
    is_full_rank: bool
    #: the full spectrum, descending, as computed for the rank decision
    eigenvalues: tuple


@dataclass(frozen=True)
class ConvexSplit:
    """Convex combination sum_k weights[k] * components[k] of rank mu-1 parts."""

    weights: np.ndarray
    components: tuple

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.components[0].matrix)
        for w, comp in zip(self.weights, self.components):
            out = out + w * comp.matrix
        return out


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


def stratum_dimension(n: int, mu: int) -> int:
    """Real dimension mu(2n - mu) - 1 of the rank-mu stratum."""
    check_rank_range(n, mu)
    return mu * (2 * n - mu) - 1


def stabilizer_dimension(n: int, mu: int) -> int:
    """Real dimension (n - mu)^2 of the stabilizer group U(n - mu)."""
    check_rank_range(n, mu)
    return (n - mu) ** 2


def classify(rho: DensityMatrix, tol: float = RANK_TOL) -> StratumInfo:
    """Rank and stratum data of a density matrix."""
    dec = spectral_decompose(rho)
    mu = numerical_rank(dec.eigenvalues, tol)
    n = rho.n
    return StratumInfo(
        n=n,
        mu=mu,
        stabilizer_dim=stabilizer_dimension(n, mu),
        stratum_dim=stratum_dimension(n, mu),
        is_pure=mu == 1,
        is_full_rank=mu == n,
        eigenvalues=tuple(dec.eigenvalues.tolist()),
    )


def traceless_hermitian_basis(n: int):
    """The n^2 - 1 standard traceless Hermitian basis matrices."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = 1.0
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


def flatten_hermitian(h: np.ndarray) -> np.ndarray:
    """Independent real parameters of a Hermitian matrix as a length-n^2 vector.

    Layout: diagonal reals, then sqrt(2) * real and sqrt(2) * imaginary parts
    of the upper triangle, making the Euclidean inner product match the
    Hilbert-Schmidt one.
    """
    n = h.shape[0]
    iu = np.triu_indices(n, k=1)
    upper = h[iu]
    return np.concatenate(
        [h.diagonal().real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag]
    )


def tangent_space_rank(rho: DensityMatrix, tol: float = TANGENT_TOL) -> int:
    """Numerical dimension of the rank-preserving motions at a generic point.

    Stacks the flattened directions i[H_k, rho] over the traceless
    Hermitian basis plus the mu - 1 trace-free spectral directions
    P_k - P_{k+1}, and counts stacked singular values above
    ``tol * largest``.  Expected to equal ``stratum_dimension(n, mu)``.

    The input must have distinct nonzero eigenvalues; at non-generic
    points the direction count is ill-posed and the call is rejected.
    A singular-value spectrum without a clear cut (ratio below
    ``GAP_RATIO`` at the threshold) raises rather than guessing.
    """
    dec = spectral_decompose(rho)
    mu = numerical_rank(dec.eigenvalues, RANK_TOL)
    lam = dec.eigenvalues[:mu]
    gaps = lam[:-1] - lam[1:]
    if mu > 1 and float(gaps.min()) < GENERIC_EPS:
        raise NonGenericSpectrumError(
            f"nonzero eigenvalues closer than {GENERIC_EPS:g}"
        )

    m = rho.matrix
    rows = []
    for h in traceless_hermitian_basis(rho.n):
        rows.append(flatten_hermitian(1.0j * (h @ m - m @ h)))
    vecs = dec.eigenvectors
    projectors = [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(mu)]
    for k in range(mu - 1):
        rows.append(flatten_hermitian(projectors[k] - projectors[k + 1]))
    if not rows:
        return 0
    stack = np.array(rows)

    s = _lapack(np.linalg.svd, stack, compute_uv=False)
    rank = int(np.count_nonzero(s > tol * s[0]))
    if 0 < rank < s.size and s[rank] > 0.0 and s[rank - 1] / s[rank] < GAP_RATIO:
        raise AmbiguousRankError(
            f"singular-value ratio at the cut is {s[rank - 1] / s[rank]:.2e}"
        )
    return rank


def convex_split(rho: DensityMatrix, tol: float = RANK_TOL) -> ConvexSplit:
    """Split a rank-mu state into rank mu-1 states, mu >= 2.

    Closed form: with rho = sum_k lam_k P_k over the mu nonzero
    eigenvalues, component k is (rho - lam_k P_k) / (1 - lam_k) with
    weight (1 - lam_k) / (mu - 1).  Each component drops exactly the
    k-th eigendirection, weights are positive and sum to one.

    Components are built from the spectrum and are not re-validated: rho
    is checked once, at ``SPLIT_TOL`` relative to the components, for
    Hermiticity and trace, and for positivity through its eigenvalues.
    Near-pure rho, whose rounding error the division by 1 - lam_max blows
    up towards ``SPLIT_TOL``, instead gets every component validated.
    """
    dec = spectral_decompose(rho)
    lam = dec.eigenvalues
    mu = numerical_rank(lam, tol)
    if mu < 2:
        raise AlreadyPureError("rank 1 cannot be lowered")
    # component k has eigenvalues lam_j / (1 - lam_k), j != k, plus a zero,
    # and inherits rho's Hermitian and trace deviations divided by 1 - lam_k;
    # the descending order makes k = 0 the worst case for every check
    scale = 1.0 - lam[0]
    if scale <= tol:
        raise DegenerateTotalWeightError(f"eigenvalue {lam[0]!r} is within tol of 1")
    # forming rho - lam_k P_k rounds at about n * eps, and component k
    # carries that divided by 1 - lam_k; only while it stays far below
    # SPLIT_TOL do the checks on rho decide the checks on the components
    trusted = rho.n * np.finfo(float).eps * SPLIT_ERROR_MARGIN <= SPLIT_TOL * scale
    if trusted:
        check_hermitian_unit_trace(rho.matrix, SPLIT_TOL * scale)
        smallest = float(lam[-1]) / scale
        if smallest < -SPLIT_TOL:
            raise NotPositiveError(smallest)
    weights = []
    components = []
    for k in range(mu):
        lam_k = lam[k]
        p_k = np.outer(dec.eigenvectors[:, k], dec.eigenvectors[:, k].conj())
        tau = (rho.matrix - lam_k * p_k) / (1.0 - lam_k)
        weights.append((1.0 - lam_k) / (mu - 1))
        if trusted:
            components.append(_symmetrized_density(tau))
        else:
            components.append(validate_density(tau, tol=SPLIT_TOL))
    return ConvexSplit(np.array(weights), tuple(components))


def bloch_vector(rho: DensityMatrix) -> BlochVector:
    """Bloch coordinates (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    if rho.n != 2:
        raise DimensionNotTwoError(f"n = {rho.n}")
    m = rho.matrix
    return BlochVector(
        x=float(np.trace(m @ SIGMA_X).real),
        y=float(np.trace(m @ SIGMA_Y).real),
        z=float(np.trace(m @ SIGMA_Z).real),
    )


def density_from_bloch(r: BlochVector) -> DensityMatrix:
    """Inverse chart rho = (I + x sigma_x + y sigma_y + z sigma_z) / 2."""
    coords = (r.x, r.y, r.z)
    if not all(map(math.isfinite, coords)):
        raise NotFiniteError(f"Bloch coordinates {coords}")
    # a coordinate above 2 is outside the ball; testing it first keeps the
    # squared norm from overflowing for huge coordinates
    if max(map(abs, coords)) > 2.0 or r.x**2 + r.y**2 + r.z**2 > 1.0 + 1e-10:
        raise OutsideBallError(f"|r| = {math.hypot(*coords)!r}")
    m = 0.5 * (np.eye(2, dtype=complex) + r.x * SIGMA_X + r.y * SIGMA_Y + r.z * SIGMA_Z)
    return DensityMatrix(m)


def bloch_rotation(u: Unitary) -> np.ndarray:
    """SO(3) matrix of conjugation by a qubit unitary.

    Satisfies R . bloch_vector(rho) = bloch_vector(u rho u^dag); both u
    and -u give the same rotation.
    """
    if u.n != 2:
        raise DimensionNotTwoError(f"n = {u.n}")
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    m = u.matrix
    out = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            out[a, b] = 0.5 * np.trace(paulis[a] @ m @ paulis[b] @ m.conj().T).real
    return out
