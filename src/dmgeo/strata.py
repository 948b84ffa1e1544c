"""Rank strata of the density-matrix manifold and the qubit Bloch chart.

Rank-mu density matrices of size N form a stratum of real dimension
mu(2N - mu) - 1, exposed directly and verified numerically through the
tangent-space rank at generic points.  The stabilizer dimension (N - mu)^2
is that of the fibre's U(N - mu), the unitaries on B that fix a
purification; conjugation of rho itself has a stabilizer of dimension
mu + (N - mu)^2 at a generic point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .core import (
    RANK_TOL,
    DensityMatrix,
    Unitary,
    _divide_real,
    _lapack,
    _symmetrized_density,
    check_density,
    check_hermitian_unit_trace,
    check_rank_range,
    numerical_rank,
    spectral_decompose,
)
from .errors import (
    AlreadyPureError,
    AmbiguousRankError,
    DegenerateTotalWeightError,
    DimensionNotTwoError,
    NonGenericSpectrumError,
    NotFiniteError,
    OutsideBallError,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: nonzero eigenvalues closer than this make the tangent check ill-posed
GENERIC_EPS = 1e-8

#: required ratio between the last kept and first dropped singular value
GAP_RATIO = 1e6

#: the 0.0 that a missing side of a commutator term reads in the gather
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False

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
    """Real dimension (n - mu)^2 of U(n - mu), the B-side unitaries that fix
    a purification of a rank-mu state (not the stabilizer of rho under
    conjugation, which has dimension mu + (n - mu)^2 at a generic point)."""
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


#: per-n layout tables are kept between calls up to this n; larger sizes,
#: whose tangent table grows as n^3 (50.7 MiB at n = 64), build them per call
TABLE_CACHE_MAX_N = 16


def _small_n_cache(build):
    """Cache ``build(n)`` for n up to ``TABLE_CACHE_MAX_N`` and call it
    afresh above; the tables of every size up to 16 take 3.2 MiB."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def tables(n: int) -> tuple:
        return cached(n) if n <= TABLE_CACHE_MAX_N else build(n)

    tables.cache_clear = cached.cache_clear
    tables.cache_info = cached.cache_info
    return tables


@_small_n_cache
def _triangle(n: int) -> tuple:
    """Read-only indices ``(i, j)`` of the strict upper triangle of an
    n x n matrix, i < j in row-major order, built once per n."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@_small_n_cache
def _tangent_table(n: int) -> tuple:
    """Read-only gather table of the size-n tangent stack, built once per n.

    Entry e of ``(dest, p, q, alpha, beta, c)`` says that the flattened
    stack holds ``c * (alpha * x[p] - beta * x[q])`` at flat index
    ``dest``, where x is rho's real view ``[Re rho_00, Im rho_00, Re
    rho_01, ..., 0.0]``.  Over all entries that is flatten(i[H_k, rho])
    for the traceless Hermitian basis H_k (for each pair i < j in row-major
    order the symmetric and then the antisymmetric off-diagonal matrix,
    then diag(1, .., 1, -k, 0, ..) for k = 1 .. n - 1), rounded as the
    matrix products round it: the entry D_ab = (H rho)_ab - (rho H)_ab,
    whose terms are exact but for one rounding of a diagonal weight times
    rho_ab, then the factor i (Re C = -Im D, Im C = Re D), then the
    sqrt(2) of the flatten.  Entries that are zero for every rho are left
    out, so the table holds O(n^3) entries.
    """
    i, j = _triangle(n)
    # row k - 1 holds the diagonal of the k-th diagonal basis matrix
    diag = np.tri(n - 1, n)
    diag[np.arange(n - 1), np.arange(1, n)] = -np.arange(1, n)
    nn, pairs, zero = n * n, i.size, 2 * n * n
    # pair t = (i, j) makes rows i, j and columns i, j of its commutators
    # nonzero: the upper positions (i, k >= i), (j, k >= j), (k < j, j)
    # with k != i, and (k < i, i) list each of them once
    k, ti, tj = np.arange(n), i[:, None], j[:, None]
    keep = np.stack([k >= ti, k >= tj, (k < tj) & (k != ti), k < ti])
    t = np.broadcast_to(np.arange(pairs)[:, None], keep.shape)[keep]
    a = np.stack(np.broadcast_arrays(ti, tj, k, k))[keep]
    b = np.stack(np.broadcast_arrays(k, k, tj, ti))[keep]
    ii, jj = i[t], j[t]
    # with sigma swapping i and j, (H rho)_ab reads rho[sigma a, b] when a
    # is i or j, and (rho H)_ab reads rho[a, sigma b] when b is i or j; a
    # missing side reads the 0.0 at x[zero]
    has_x, has_y = (a == ii) | (a == jj), (b == ii) | (b == jj)
    x_re = np.where(has_x, 2 * ((ii + jj - a) * n + b), zero)
    y_re = np.where(has_y, 2 * (a * n + ii + jj - b), zero)
    x_im = np.where(has_x, x_re + 1, zero)
    y_im = np.where(has_y, y_re + 1, zero)
    # the antisymmetric H has -i at (i, j) and i at (j, i), so its D is
    # i * (s_x rho[sigma a, b] - s_y rho[a, sigma b])
    s_x = np.where(a == ii, -1.0, 1.0)
    s_y = np.where(b == jj, -1.0, 1.0)
    # diagonal basis row r: D_ab = d_a rho_ab - d_b rho_ab, zero unless d_a != d_b
    r, u = np.nonzero(diag[:, i] != diag[:, j])
    da, db = diag[r, i[u]], diag[r, j[u]]
    d_re = 2 * (i[u] * n + j[u])
    diag_row = (nn - n + r) * nn

    # -Im D goes to the Re C column, scaled by -1 on the diagonal and by
    # -sqrt(2) above it; Re D goes to the Im C column, scaled by sqrt(2)
    sym_row, anti_row = 2 * t * nn, (2 * t + 1) * nn
    on_diag, above = a == b, a < b
    col = n + a * n - a * (a + 1) // 2 + b - a - 1
    sqrt2 = np.sqrt(2.0)
    re_c_col, im_c_col = np.where(on_diag, a, col), col + pairs
    re_c_scale = np.where(on_diag, -1.0, -sqrt2)
    ones, im_c_scale, d_scale = np.ones(t.size), np.full(t.size, sqrt2), np.full(u.size, sqrt2)
    parts = [
        ((sym_row + re_c_col, x_im, y_im, ones, ones, re_c_scale), ...),
        ((anti_row + re_c_col, x_re, y_re, s_x, s_y, re_c_scale), ...),
        ((sym_row + im_c_col, x_re, y_re, ones, ones, im_c_scale), above),
        ((anti_row + im_c_col, x_im, y_im, -s_x, -s_y, im_c_scale), above),
        ((diag_row + n + u, d_re + 1, d_re + 1, da, db, -d_scale), ...),
        ((diag_row + n + pairs + u, d_re, d_re, da, db, d_scale), ...),
    ]
    table = tuple(np.concatenate([part[f][sel] for part, sel in parts]) for f in range(6))
    for v in table:
        v.flags.writeable = False
    return table


def flatten_hermitian(h: np.ndarray) -> np.ndarray:
    """Independent real parameters of a Hermitian matrix as a length-n^2 vector.

    Layout: diagonal reals, then sqrt(2) * real and sqrt(2) * imaginary parts
    of the upper triangle, making the Euclidean inner product match the
    Hilbert-Schmidt one.  A ``(..., n, n)`` stack flattens matrix by matrix.
    """
    i, j = _triangle(h.shape[-1])
    upper = h[..., i, j]
    off = np.sqrt(2.0) * np.concatenate([upper.real, upper.imag], axis=-1)
    return np.concatenate([h.diagonal(axis1=-2, axis2=-1).real, off], axis=-1)


def tangent_space_rank(rho: DensityMatrix, tol: float = RANK_TOL) -> int:
    """Numerical dimension of the rank-preserving motions at a generic point.

    Stacks the flattened directions i[H_k, rho] over the traceless
    Hermitian basis plus the mu - 1 trace-free spectral directions
    P_k - P_{k+1}, and counts stacked singular values above
    ``tol * largest``.  Expected to equal ``stratum_dimension(n, mu)``.

    The input must have distinct nonzero eigenvalues; at non-generic
    points the direction count is ill-posed and the call is rejected.
    With k = sqrt(n (n - 1) / 2), consecutive kept eigenvalues must differ
    by at least ``max(GENERIC_EPS, k * tol * max(lam_1, 1))``: a closer pair
    gives motions near the singular-value cut.  Below full rank the
    eigenvalues must also keep clear of the rank cut by the factor k: the
    smallest kept one at least ``k * tol * max(lam_1, 1)``, and the
    dropped ones spread by at most ``tol * (lam_1 - lam_n) / k``.  Closer
    to either cut the singular-value cut can disagree with the eigenvalue
    cut, and the count would match no stratum.
    A singular-value spectrum without a clear cut (ratio below
    ``GAP_RATIO`` at the threshold) raises rather than guessing, and so
    does a cut above none or below all of them (a ``tol`` of nan or at
    least 1, or a tiny one): no stratum has dimension 0 or the stack's
    full size.

    The commutator rows are gathered from rho's entries through a table
    built once per n (O(n^3) entries), so a call builds no basis matrix
    and allocates one real ``(n^2 + mu - 2, n^2)`` stack plus O(n^3)
    gather buffers.
    """
    dec = spectral_decompose(rho)
    mu = numerical_rank(dec.eigenvalues, RANK_TOL)
    spectrum = dec.eigenvalues.tolist()
    lam, dropped = spectrum[:mu], spectrum[mu:]
    # the basis norms run from sqrt(2) to sqrt(n (n - 1)), so an eigenvalue
    # difference g gives singular values between sqrt(2) g and sqrt(n (n - 1)) g
    n = rho.n
    k = math.sqrt(n * (n - 1) / 2)
    if mu > 1:
        floor = max(GENERIC_EPS, k * tol * max(lam[0], 1.0))
        if min(a - b for a, b in zip(lam, lam[1:])) < floor:
            raise NonGenericSpectrumError(f"nonzero eigenvalues closer than {floor:g}")
    if 0 < mu < n and (
        lam[-1] < k * tol * max(lam[0], 1.0)
        or k * (dropped[0] - dropped[-1]) > tol * (lam[0] - dropped[-1])
    ):
        raise NonGenericSpectrumError(
            f"an eigenvalue lies within a factor {k:.3g} of the rank cut"
        )

    nn = n * n
    dest, p, q, alpha, beta, c = _tangent_table(n)
    x = np.concatenate((rho.matrix.ravel().view(np.float64), _ZERO))
    values = c * (alpha * x[p] - beta * x[q])
    stack = np.zeros((nn + mu - 2, nn))
    stack.ravel()[dest] = values
    vecs = dec.eigenvectors[:, :mu].T
    projectors = vecs[:, :, None] * vecs.conj()[:, None, :]
    stack[nn - 1 :] = flatten_hermitian(projectors[:-1] - projectors[1:])
    if not stack.size:
        return 0

    s = _lapack(np.linalg.svd, stack, compute_uv=False)
    rank = int(np.count_nonzero(s > tol * s[0]))
    if not 0 < rank < s.size:
        # every stratum's dimension lies strictly between 0 and the
        # stack's smaller side
        raise AmbiguousRankError(
            f"{rank} of {s.size} singular values lie above the cut {tol:g} * largest"
        )
    if s[rank] > 0.0 and s[rank - 1] / s[rank] < GAP_RATIO:
        raise AmbiguousRankError(
            f"singular-value ratio at the cut is {s[rank - 1] / s[rank]:.2e}"
        )
    return rank


def convex_split(rho: DensityMatrix, tol: float = RANK_TOL) -> ConvexSplit:
    """Split a rank-mu state into rank mu-1 states, mu >= 2.

    Closed form: with rho = sum_k lam_k P_k + T over the mu eigenvalues
    above the rank cut and the tail T of trace t below it, component k is
    (rho - T / mu - lam_k P_k) / (1 - lam_k - t / mu) with weight
    (1 - lam_k - t / mu) / (mu - 1).  Each component drops exactly the
    k-th eigendirection, weights are positive and sum to one.

    Components are built from the spectrum and are not re-validated: rho
    is checked once, at ``SPLIT_TOL`` relative to the components, for
    Hermiticity and trace, and for positivity through the eigenvalues it
    was split by.  Near-pure rho, whose rounding error the division by
    1 - lam_max blows up towards ``SPLIT_TOL``, instead gets every
    component validated, its positivity through an ``eigh`` that is kept
    with the component.

    The components are read-only slices of one ``(mu, n, n)`` block, so
    keeping one keeps the block (mu * n^2 * 16 bytes).  That changes no
    bit; it lets malloc reuse the block from one large split to the next
    instead of faulting it in again, which costs the same as mu arrays
    once malloc's mmap and trim thresholds are pinned high.
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
    # forming shared - lam_k P_k rounds at about n * eps, and component k
    # carries that divided by 1 - lam_k; only while it stays far below
    # SPLIT_TOL do the checks on rho decide the checks on the components
    trusted = rho.n * np.finfo(float).eps * SPLIT_ERROR_MARGIN <= SPLIT_TOL * scale
    if trusted:
        check_hermitian_unit_trace(rho.matrix, SPLIT_TOL * scale)
        check_density(rho, SPLIT_TOL * scale)
    # at full rank T is an exact +0.0, and subtracting it keeps every bit
    vectors = dec.eigenvectors
    below = vectors[:, mu:]
    shared = rho.matrix - (below * (lam[mu:] / mu)) @ below.conj().T
    t = lam[mu:].sum()
    totals = 1.0 - lam[:mu] - t / mu
    rows = vectors[:, :mu].T
    n = rho.n
    block = np.empty((mu, n, n), dtype=complex)
    tau = np.empty((n, n), dtype=complex)
    components = []
    for row, conj_row, lam_k, total, out in zip(
        rows, rows.conj(), lam[:mu].tolist(), totals.tolist(), block
    ):
        # tau = (shared - lam_k P_k) / total in one scratch for every k,
        # symmetrized into the block's slice k
        np.multiply(row[:, None], conj_row, out=tau)
        np.multiply(lam_k, tau, out=tau)
        np.subtract(shared, tau, out=tau)
        _divide_real(tau, total)
        components.append(_symmetrized_density(tau, out=out))
        if not trusted:
            check_hermitian_unit_trace(tau, SPLIT_TOL)
            check_density(components[-1], SPLIT_TOL)
    block.flags.writeable = False
    return ConvexSplit(totals / (mu - 1), tuple(components))


def bloch_vector(rho: DensityMatrix) -> BlochVector:
    """Bloch coordinates (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    if rho.n != 2:
        raise DimensionNotTwoError(f"n = {rho.n}")
    x, y, z = np.trace(rho.matrix @ _PAULIS, axis1=1, axis2=2).real.tolist()
    return BlochVector(x=x, y=y, z=z)


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
    m = u.matrix
    # out[a, b] = Tr(sigma_a u sigma_b u^dag) / 2, multiplied left to right
    products = (_PAULIS @ m)[:, None] @ _PAULIS @ m.conj().T
    return 0.5 * np.trace(products, axis1=-2, axis2=-1).real
