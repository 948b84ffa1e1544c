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
from functools import lru_cache

import numpy as np

from .core import (
    RANK_TOL,
    VALIDATION_TOL,
    DensityMatrix,
    Unitary,
    _divide_real,
    _lapack,
    _symmetrized_density,
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

#: factor on eps that bounds a convex-split component's rounding times
#: 1 - lam_max (9.3 at worst, measured over n = 2..64); convex_split refuses
#: rho whose VALIDATION_TOL * (1 - lam_max) falls below eps times this
#: factor, that is every 1 - lam_max below 7.1e-5
SPLIT_ERROR_MARGIN = 32


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


#: the tangent table is kept between calls up to this n; larger sizes,
#: whose table grows as n^3 (62.5 MiB at n = 64), build it per call
TABLE_CACHE_MAX_N = 16


@lru_cache(maxsize=None)
def _tangent_table(n: int) -> tuple:
    """Read-only gather table of the size-n tangent stack.

    Entry e of ``(dest, p, q, alpha, beta, c)`` says that the flattened
    stack holds ``c * (alpha * x[p] - beta * x[q])`` at flat index
    ``dest``, where x is rho's real view ``[Re rho_00, Im rho_00, Re
    rho_01, ..., 0.0]`` followed by the real views of the projectors P_0,
    P_1, ... onto rho's eigenvectors.  A Hermitian matrix flattens to its
    diagonal reals, then sqrt(2) times the real and then the imaginary
    parts of its upper triangle, so that the Euclidean inner product is
    the Hilbert-Schmidt one.

    The first entries give flatten(i[H_k, rho]) for the traceless
    Hermitian basis H_k (for each pair i < j in row-major order the
    symmetric and then the antisymmetric off-diagonal matrix, then
    diag(1, .., 1, -k, 0, ..) for k = 1 .. n - 1), rounded as the matrix
    products round it: the entry D_ab = (H rho)_ab - (rho H)_ab, whose
    terms are exact but for one rounding of a diagonal weight times
    rho_ab, then the factor i (Re C = -Im D, Im C = Re D), then the
    sqrt(2) of the flatten.  Entries that are zero for every rho are left
    out, so these number O(n^3).  The last (n - 1) n^2 entries give the
    projector rows flatten(P_m - P_{m+1}), m = 0 .. n - 2, row after row,
    as ``c * (x[p] - x[q])``; a rank-mu stack reads all but the last
    (n - mu) n^2 entries.
    """
    i, j = np.triu_indices(n, k=1)
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
    # projector row m takes column e of its flatten from the same real or
    # imaginary part of P_m at p and of P_{m+1} at q, scaled by 1 on the
    # diagonal and sqrt(2) above it; the projectors' views follow the zero
    reads = np.concatenate([2 * k * (n + 1), 2 * (i * n + j), 2 * (i * n + j) + 1])
    proj_p = (zero + 1 + 2 * nn * np.arange(n - 1)[:, None] + reads).ravel()
    proj_ones = np.ones(proj_p.size)
    proj_scale = np.tile(np.repeat([1.0, sqrt2], [n, nn - n]), n - 1)
    parts = [
        ((sym_row + re_c_col, x_im, y_im, ones, ones, re_c_scale), ...),
        ((anti_row + re_c_col, x_re, y_re, s_x, s_y, re_c_scale), ...),
        ((sym_row + im_c_col, x_re, y_re, ones, ones, im_c_scale), above),
        ((anti_row + im_c_col, x_im, y_im, -s_x, -s_y, im_c_scale), above),
        ((diag_row + n + u, d_re + 1, d_re + 1, da, db, -d_scale), ...),
        ((diag_row + n + pairs + u, d_re, d_re, da, db, d_scale), ...),
        (((nn - 1) * nn + np.arange(proj_p.size), proj_p, proj_p + 2 * nn,
          proj_ones, proj_ones, proj_scale), ...),
    ]
    table = tuple(np.concatenate([part[f][sel] for part, sel in parts]) for f in range(6))
    for v in table:
        v.flags.writeable = False
    return table


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

    Every row is gathered through one table per n (O(n^3) entries): the
    commutator rows from rho's entries, the projector rows from the
    projectors' entries.  So a call builds no basis matrix and allocates
    one real ``(n^2 + mu - 2, n^2)`` stack plus O(n^3) gather buffers, in
    one gather and one scatter.
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
    table = _tangent_table(n) if n <= TABLE_CACHE_MAX_N else _tangent_table.__wrapped__(n)
    dest, p, q, alpha, beta, c = (v[: v.size - (n - mu) * nn] for v in table)
    vecs = dec.eigenvectors[:, :mu].T
    projectors = vecs[:, :, None] * vecs.conj()[:, None, :]
    x = np.concatenate((rho.matrix.ravel().view(np.float64), _ZERO,
                        projectors.ravel().view(np.float64)))
    stack = np.zeros((nn + mu - 2, nn))
    stack.ravel()[dest] = c * (alpha * x[p] - beta * x[q])
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

    Components are built from the spectrum and are not re-validated.  The
    division by 1 - lam_k scales the rounding of the build, rho's negative
    tail and its Hermitian and trace deviations, so the split is decided
    up front by one rule: unless ``VALIDATION_TOL * (1 - lam_max) >=
    max(eps * SPLIT_ERROR_MARGIN, (1 - 1/mu) * -lam_min, n/2 * max|rho -
    rho^dag|, |tr rho - 1|)`` it raises :class:`DegenerateTotalWeightError`,
    which refuses every 1 - lam_max below 7.1e-5.  Every component it
    returns is a density document that the reader accepts.

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
    # component k has eigenvalues lam_j / (1 - lam_k), j != k, plus a zero;
    # it inherits its own rounding, the tail shared out as (1 - 1/mu) lam_j,
    # the triangle eigh did not read (whose symmetrized part has norm at
    # most n/2 times the largest skew entry) and the trace deviation, each
    # divided by 1 - lam_k; the descending order makes k = 0 the worst case
    n, m = rho.n, rho.matrix
    scale, lam_min = 1.0 - float(lam[0]), float(lam[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        skew, drift = float(np.max(np.abs(m - m.conj().T))), abs(complex(np.trace(m)) - 1.0)
    bound = max(np.finfo(float).eps * SPLIT_ERROR_MARGIN, (1 - 1 / mu) * -lam_min,
                n / 2 * skew, drift)
    if not VALIDATION_TOL * scale >= bound:
        raise DegenerateTotalWeightError(
            f"1 - lam_max = {scale!r} is too near 0 to split within VALIDATION_TOL "
            f"(lam_min = {lam_min!r}, max |rho - rho^dag| = {skew!r}, |tr rho - 1| = {drift!r})"
        )
    # at full rank T is an exact +0.0, and subtracting it keeps every bit
    vectors = dec.eigenvectors
    below = vectors[:, mu:]
    shared = m - (below * (lam[mu:] / mu)) @ below.conj().T
    t = lam[mu:].sum()
    totals = 1.0 - lam[:mu] - t / mu
    rows = vectors[:, :mu].T
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
    if max(map(abs, coords)) > 2.0 or r.x**2 + r.y**2 + r.z**2 > 1.0 + VALIDATION_TOL:
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
