"""Core matrix types, validation, and spectral utilities.

Conventions shared by the whole package:

* matrices are dense ``complex128`` numpy arrays,
* a density matrix is Hermitian, positive semidefinite, with unit trace,
* eigenvalues are reported in descending order,
* every eigenvector carries a fixed phase (its first component of
  modulus above ``PHASE_EPS`` is made real and positive), and vectors
  inside a run of bit-equal eigenvalues are ordered by descending
  lexicographic comparison of their real parts,
* typed values are immutable: their arrays are read-only, and ``copy``,
  ``deepcopy`` and ``pickle`` rebuild a value through its constructor, so
  a copy is read-only too and starts without the original's memo.

The phase and ordering rules make repeated decompositions of identical
input bit-identical, which the golden fixtures rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import isqrt

import numpy as np

from .errors import (
    DecompositionFailureError,
    DimensionMismatchError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    NotSquareError,
    NotUnitaryError,
    PreconditionError,
    RankOutOfRangeError,
    TraceNotOneError,
)

#: default relative tolerance for rank decisions
RANK_TOL = 1e-9

#: vector components at or below this modulus are skipped by the phase rule
PHASE_EPS = 1e-8

#: default tolerance for the validation entry points
VALIDATION_TOL = 1e-10

#: bound on |norm - 1| accepted by make_pure_state
NORM_TOL = 1e-12


def _frozen(a, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _fresh(cls, *arrays):
    """Wrap arrays the package has just built in ``cls``, frozen in place.

    The public constructors copy their input, since the caller may keep
    writing to it; a kernel's fresh buffer has no other owner, so here
    each array is marked read-only without a copy.  The arrays must
    already have the field's dtype, and the caller keeps no writable
    reference to them.
    """
    obj = object.__new__(cls)
    for name, a in zip(cls.__dataclass_fields__, arrays):
        a.flags.writeable = False
        object.__setattr__(obj, name, a)
    return obj


def _memoized(build):
    """Decorate ``build(value)`` so each value computes its result once,
    on first use, and keeps it in its own ``__dict__``.

    The memo is not a dataclass field, so ``==``, ``repr`` and
    ``dataclasses.replace`` ignore it, and later calls return the very
    arrays the first one built.  That is sound only because the value's
    arrays are frozen and never written again.  An exception from
    ``build`` stores nothing, so the next call retries; of two threads that
    miss at once, both get the result stored first.
    """
    key = build.__name__

    @wraps(build)
    def memo(value):
        try:
            return value.__dict__[key]
        except KeyError:
            return value.__dict__.setdefault(key, build(value))

    return memo


def _divide_real(a: np.ndarray, d: float):
    """Divide the complex array ``a`` in place by the real ``d``, with the
    bits ``np.true_divide(a, d)`` gives.

    numpy divides by ``d + 0j`` with Smith's rule, ``re' = (re + im*0) * s``
    and ``im' = (im - re*0) * s`` with ``s = 1/d``; one complex multiply by
    ``s - 0j`` forms the same two expressions, the ``-0.0`` giving each
    zero term its sign.  The two differ only where a nonzero part times
    ``s`` underflows to zero, which ``s > 0.5``, i.e. ``0 < d < 2``, rules
    out; any other ``d``, nan included, takes numpy's division and its
    warnings.
    """
    if 0.0 < d < 2.0:
        np.multiply(a, complex(1.0 / d, -0.0), out=a)
    else:
        np.true_divide(a, d, out=a)


def _reduce(value):
    """Reduce a typed value to its class and fields, so that ``copy``,
    ``deepcopy`` and ``pickle`` rebuild it through the constructor: the copy
    gets read-only arrays of its own and no memo."""
    return type(value), tuple(getattr(value, name) for name in value.__dataclass_fields__)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite matrix of unit trace.

    Instances are meant to be produced by :func:`validate_density` or by
    the operations in this package, all of which establish the
    invariants; the constructor itself only copies and freezes the array.

    The first :func:`spectral_decompose` of an instance is kept with it,
    so every operation on the same value shares one ``eigh``; a factored
    value holds another n^2 complex entries.  The memo relies on
    ``matrix`` never being written again.
    """

    matrix: np.ndarray

    __reduce__ = _reduce

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureState:
    """State vector on a bipartite system A (x) B with dim A = dim B = N.

    The amplitude of ``|i_A>|j_B>`` sits at flat index ``i*N + j``, so the
    amplitudes reshape row-major into the N x N coefficient matrix C with
    ``C[i, j]`` equal to that amplitude.

    The first SVD of C, taken by :func:`~dmgeo.purification.schmidt` or
    :func:`~dmgeo.purification.connecting_unitary`, is kept with the
    instance and shared by both; it holds 2 N^2 complex and N real
    entries.  The memo relies on ``amplitudes`` never being written again.
    """

    amplitudes: np.ndarray

    __reduce__ = _reduce

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes))
        n = isqrt(self.amplitudes.size)
        if n * n != self.amplitudes.size:
            raise NotSquareError(
                f"amplitude count {self.amplitudes.size} is not a perfect square"
            )

    @property
    def n(self) -> int:
        return isqrt(self.amplitudes.size)

    def coefficient_matrix(self) -> np.ndarray:
        """Return the N x N matrix C with C[i, j] = amplitude of |i_A>|j_B>."""
        n = self.n
        return self.amplitudes.reshape(n, n)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) with paired orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    __reduce__ = _reduce

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", _frozen(self.eigenvectors))

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        """Return sum_i lambda_i v_i v_i^dag as a plain array."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class Unitary:
    """Square matrix with U^dag U = I within validation tolerance."""

    matrix: np.ndarray

    __reduce__ = _reduce

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _require_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise NotFiniteError("entries must be finite (no NaN or Inf)")


def check_rank_range(n: int, mu: int):
    """Raise :class:`RankOutOfRangeError` unless ``1 <= mu <= n``."""
    if not 1 <= mu <= n:
        raise RankOutOfRangeError(f"need 1 <= mu <= n, got n={n}, mu={mu}")


def _lapack(fn, *args, **kwargs):
    """Call the ``np.linalg`` routine ``fn``; a LinAlgError becomes
    :class:`DecompositionFailureError`."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailureError(str(exc)) from exc


def check_hermitian_unit_trace(m: np.ndarray, tol: float):
    """Run the density-matrix checks that need no eigenvalues.

    Raises
    ------
    NotSquareError, NotFiniteError, NotHermitianError, TraceNotOneError
        On the first failed check, in that order.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"shape {m.shape}")
    _require_finite(m)
    # finite entries can still overflow to inf or nan here; every comparison
    # below is written so that a nan fails it
    with np.errstate(over="ignore", invalid="ignore"):
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        trace = complex(np.trace(m))
    if not herm_dev <= tol:
        raise NotHermitianError(herm_dev)
    if not abs(trace - 1.0) <= tol:
        raise TraceNotOneError(trace)


def check_density(rho: DensityMatrix, tol: float):
    """Raise :class:`NotPositiveError` unless rho's smallest eigenvalue is
    at least ``-tol``.

    The eigenvalues are those of rho's own :func:`spectral_decompose`, which
    stays with the value, so an operation on rho afterwards reuses the
    decomposition this check made.  Hermiticity and trace are checked on the
    raw array, by :func:`check_hermitian_unit_trace`, before rho is built.
    """
    smallest = float(spectral_decompose(rho).eigenvalues[-1])
    if not smallest >= -tol:
        raise NotPositiveError(smallest)


def validate_density(m, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Check and normalize a raw matrix into a :class:`DensityMatrix`.

    The input must be square, Hermitian within ``tol`` and have trace within
    ``tol`` of one.  The returned matrix is symmetrized as ``(M + M^dag)/2``
    and trace-renormalized, so values that pass the checks only
    approximately are repaired rather than rejected; it must then have no
    eigenvalue below ``-tol``.  That decomposition is kept with the result,
    so the first operation on it takes no ``eigh`` of its own.

    Parameters
    ----------
    m : array_like
        Square complex matrix.
    tol : float
        Validation tolerance.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    NotSquareError, NotFiniteError, NotHermitianError, TraceNotOneError,
    NotPositiveError
        On the first failed check, in that order; finite entries whose
        symmetrization overflows raise :class:`NotFiniteError`.
    """
    a = np.asarray(m, dtype=complex)
    check_hermitian_unit_trace(a, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = _symmetrized_density(a)
    if not np.isfinite(rho.matrix).all():
        raise NotFiniteError("(M + M^dag) / 2 overflows")
    check_density(rho, tol)
    return rho


def _symmetrized_density(a: np.ndarray, out: np.ndarray | None = None) -> DensityMatrix:
    """Wrap ``(a + a^dag)/2``, renormalized to unit trace, unchecked, in a
    fresh buffer frozen in place.

    ``out``, when given, is the fresh ``complex`` buffer to build it in,
    with a's shape; it must not overlap ``a``, since conj(a^T) is written
    into it before ``a`` is added.
    """
    h = np.add(a, a.conj().T if out is None else np.conjugate(a.T, out=out), out=out)
    np.multiply(0.5, h, out=h)
    tr = float(h.trace().real)
    # numpy's complex division by 1.0 turns -0.0 into +0.0, so dividing by an
    # exact unit trace would change the signed zeros of emitted documents
    if tr != 1.0:
        _divide_real(h, tr)
    return _fresh(DensityMatrix, h)


def make_pure_state(amplitudes) -> PureState:
    """Wrap a complex vector as a :class:`PureState` after checking that its
    norm is within ``NORM_TOL`` of one.

    The vector is not renormalized; callers that construct states
    analytically should normalize first.
    """
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    _require_finite(a)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(a))
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NotNormalizedError(f"norm = {nrm!r}")
    return PureState(a)


def make_unitary(matrix) -> Unitary:
    """Wrap a square matrix as a :class:`Unitary` after checking U^dag U = I
    within ``VALIDATION_TOL``."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"shape {a.shape}")
    _require_finite(a)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    if not dev <= VALIDATION_TOL:
        raise NotUnitaryError(f"max |U^dag U - I| = {dev:.3e}")
    return Unitary(a)


def _phases(vectors: np.ndarray) -> np.ndarray:
    """Unit phase per column that makes its first component of modulus above
    ``PHASE_EPS`` real and positive.

    A unit column always has such a component.  The modulus is taken with
    ``np.hypot``, which rounds like the scalar ``abs`` of a complex number.
    Callers scale column k as ``(v.T * phases[:, None]).T``: each column
    times its phase as a scalar, which rounds the same for every column
    length, while ``v * phases`` rounds differently for a 1 x 1 ``v``.
    """
    rows = np.argmax(np.abs(vectors) > PHASE_EPS, axis=0)
    pivots = vectors[rows, np.arange(vectors.shape[1])]
    return pivots.conj() / np.hypot(pivots.real, pivots.imag)


def _phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """Unitary QR factor of ``a`` with R's diagonal made real and
    nonnegative (Mezzadri, math-ph/0609050).

    An exactly zero pivot keeps its column as LAPACK returns it, since
    ``d/|d|`` would be 0/0 there.
    """
    q, r = _lapack(np.linalg.qr, a)
    d = np.diagonal(r)
    d = np.where(d == 0, 1, d)
    return q * (d / np.abs(d))


def _order_degenerate_clusters(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # clusters are maximal runs of bit-equal eigenvalues; inside a cluster
    # any basis is as good as any other, so pick the one with descending
    # lexicographic real parts, and every vector keeps its own value
    distinct = values[:-1] != values[1:]
    # without a tie the sort is the identity; the gather stays, because its
    # column-major output decides how later reductions over the vectors round
    order = np.arange(values.size)
    if not distinct.all():
        cluster = np.concatenate(([0], np.cumsum(distinct)))
        # lexsort's last key is the primary one; negated keys sort descending
        # and the stable sort keeps equal columns in their eigh order
        order = np.lexsort((*-vectors.real[::-1], cluster))
    return vectors[:, order]


@_memoized
def spectral_decompose(rho: DensityMatrix) -> SpectralDecomposition:
    """Eigendecompose a density matrix under the package conventions.

    Eigenvalues come out descending; eigenvectors get the deterministic
    phase fix, and degenerate clusters are reordered as described in the
    module docstring.  Calling this twice on equal inputs yields
    bit-identical results; on the same instance the second call returns
    the decomposition the first one built.

    Parameters
    ----------
    rho : DensityMatrix

    Returns
    -------
    SpectralDecomposition

    Raises
    ------
    NotFiniteError
        If rho has a NaN or infinite entry, which the constructor admits;
        nothing is kept with rho then.
    """
    _require_finite(rho.matrix)
    values, vectors = _lapack(np.linalg.eigh, rho.matrix)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    vectors = _order_degenerate_clusters(values, (vectors.T * _phases(vectors)[:, None]).T)
    return _fresh(SpectralDecomposition, values, vectors)


def numerical_rank(values, tol: float = RANK_TOL) -> int:
    """Count entries above the relative threshold ``tol * max(largest, 1)``.

    Works for eigenvalue and singular-value vectors alike.  The floor of
    one in the threshold keeps the cutoff meaningful for spectra that sum
    to unity; an all-zero vector has rank 0.  ``tol`` must lie strictly
    between 0 and 1: a NaN or one outside that range is refused with
    :class:`PreconditionError`, since it would keep every entry, or none.
    """
    if not 0.0 < tol < 1.0:
        raise PreconditionError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0
    threshold = tol * max(float(v.max()), 1.0)
    return int(np.count_nonzero(v > threshold))


def ray_distance(psi: PureState, phi: PureState) -> float:
    """Distance between the rays of two unit vectors, in [0, 1].

    Equals ``sqrt(1 - |<psi|phi>|^2)``, evaluated as the norm of
    ``phi - <psi|phi> psi``.  The two expressions agree exactly in
    arithmetic; the residual form avoids the cancellation that caps the
    naive one near ``sqrt(eps)`` for nearly identical rays, and it is
    zero precisely when the states agree up to a global phase.
    """
    if psi.amplitudes.size != phi.amplitudes.size:
        raise DimensionMismatchError(
            f"state dimensions {psi.amplitudes.size} and {phi.amplitudes.size}"
        )
    overlap = np.vdot(psi.amplitudes, phi.amplitudes)
    residual = float(np.linalg.norm(phi.amplitudes - overlap * psi.amplitudes))
    return min(max(residual, 0.0), 1.0)
