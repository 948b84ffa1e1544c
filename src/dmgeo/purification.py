"""Purification, partial trace, Schmidt decomposition, and the unitary
connecting two purifications of the same density matrix.

Everything here works through the coefficient matrix C of a bipartite
state (see :class:`~dmgeo.core.PureState`): the partial trace over B is
C C^dag, a local unitary on A maps C to R C, and a local unitary on B
maps C to C v^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    Unitary,
    _lapack,
    _phase_fixed_qr,
    _phases,
    _symmetrized_density,
    numerical_rank,
    spectral_decompose,
)
from .errors import DimensionMismatchError, PartialTraceMismatchError

#: eigenvalues below this (relative to the largest) are treated as exact
#: zeros when purifying; sqrt of eigensolver noise would otherwise inject
#: amplitudes of order 1e-8 into the state
PURIFY_CLAMP = 1e-13

#: default entrywise tolerance for the equal-partial-trace precondition
CONNECT_TOL = 1e-8


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite pure state.

    ``coefficients`` are the mu strictly positive Schmidt coefficients in
    descending order; ``basis_a`` and ``basis_b`` hold mu orthonormal
    columns each, with the state equal to
    ``sum_k coefficients[k] |basis_a[:,k]> (x) |basis_b[:,k]>``.
    """

    mu: int
    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def reconstruct(self) -> PureState:
        c = (self.basis_a * self.coefficients) @ self.basis_b.T
        return PureState(c.reshape(-1))


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_i sqrt(lam_i) |i_A>|i_B>.

    The A-side vectors are the eigenvectors of ``rho`` under the package
    phase/ordering conventions and the ancilla side uses the computational
    basis, so the coefficient matrix is ``V diag(sqrt(lam))``.
    """
    dec = spectral_decompose(rho)
    lam = dec.eigenvalues.copy()
    lam[lam < PURIFY_CLAMP * lam[0]] = 0.0
    c = dec.eigenvectors * np.sqrt(lam)
    c = c / np.linalg.norm(c)
    return PureState(c.reshape(-1))


def partial_trace_b(psi: PureState) -> DensityMatrix:
    """Trace out the ancilla: returns C C^dag, symmetrized and renormalized."""
    c = psi.coefficient_matrix()
    return _symmetrized_density(c @ c.conj().T)


def schmidt(psi: PureState, tol: float = RANK_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the coefficient matrix.

    With ``C = U diag(s) Vh`` the A-side basis is the left singular
    vectors and the B-side basis is the rows of ``Vh`` (the conjugated
    right singular vectors), which makes the tensor reconstruction hold
    without further conjugation.  The A-side columns get the same phase
    convention as :func:`~dmgeo.core.spectral_decompose`; the compensating
    phase moves to the B side so the state is unchanged.
    """
    c = psi.coefficient_matrix()
    u, s, vh = _lapack(np.linalg.svd, c)
    mu = numerical_rank(s, tol)
    phases = _phases(u[:, :mu])[:, None]
    basis_a = (u[:, :mu].T * phases).T
    basis_b = (vh[:mu, :] * phases.conj()).T
    return SchmidtDecomposition(mu, s[:mu].copy(), basis_a, basis_b)


def apply_local_b(psi: PureState, v: Unitary) -> PureState:
    """Apply I (x) v, i.e. map the coefficient matrix C to C v^T."""
    if v.n != psi.n:
        raise DimensionMismatchError(f"state side {psi.n}, unitary side {v.n}")
    c = psi.coefficient_matrix() @ v.matrix.T
    return PureState(c.reshape(-1))


def apply_local_a(psi: PureState, r: Unitary) -> PureState:
    """Apply r (x) I, i.e. map the coefficient matrix C to r C."""
    if r.n != psi.n:
        raise DimensionMismatchError(f"state side {psi.n}, unitary side {r.n}")
    c = r.matrix @ psi.coefficient_matrix()
    return PureState(c.reshape(-1))


def connecting_unitary(
    psi: PureState, phi: PureState, tol: float = CONNECT_TOL
) -> Unitary:
    """The special unitary v with (I (x) v) psi = phi as rays.

    Both states must have the same partial trace over B within ``tol``
    entrywise.  The construction takes one SVD of psi's coefficient matrix
    and one phase-fixed QR, with no support cut, so one code path covers
    degenerate spectra, rank deficiency, and complex phases alike.  The
    result is normalized into SU(N) with the principal determinant root.
    """
    if psi.amplitudes.size != phi.amplitudes.size:
        raise DimensionMismatchError(
            f"state dimensions {psi.amplitudes.size} and {phi.amplitudes.size}"
        )
    n = psi.n
    c_psi = psi.coefficient_matrix()
    c_phi = phi.coefficient_matrix()
    rho_psi = c_psi @ c_psi.conj().T
    rho_phi = c_phi @ c_phi.conj().T
    deviation = float(np.max(np.abs(rho_psi - rho_phi)))
    if deviation > tol:
        raise PartialTraceMismatchError(deviation, tol)

    # C_psi = U S W^dag and C_phi = C_psi v^T give (U^dag C_phi)^T =
    # v conj(W) S, whose phase-fixed QR factor is v conj(W) up to an
    # orthonormal completion under zero coefficients; each column's error
    # scales with its own coefficient, so nothing needs to be cut
    u, _, wh = _lapack(np.linalg.svd, c_psi)
    v = _phase_fixed_qr((u.conj().T @ c_phi).T) @ wh.conj()
    det = complex(_lapack(np.linalg.det, v))
    v = v * det ** (-1.0 / n)
    return Unitary(v)
