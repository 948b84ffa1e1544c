"""Seeded generators for pure states, Haar unitaries, and fixed-rank
density matrices.

The stream is pinned: PCG64 (numpy's default bit generator) drives an
explicit Box-Muller transform, so outputs depend only on the seed and
never on the platform's normal sampler.  A block of ``count`` complex
normals reads one run of 4 * ceil(count / 2) uniforms: the real parts'
u1 then u2, then the imaginary parts' u1 then u2, each ceil(count / 2)
long.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DensityMatrix,
    PureState,
    Unitary,
    _fresh,
    _phase_fixed_qr,
    _symmetrized_density,
    check_rank_range,
    numerical_rank,
    spectral_decompose,
)
from .errors import PreconditionError, RankOutOfRangeError, SamplingExhaustedError

MAX_TRIES = 1000


#: complex normals a block may hold; numpy would raise ValueError, not
#: MemoryError, for a larger array
_MAX_COUNT = np.iinfo(np.intp).max // 16


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array, unit variance per entry.

    ``shape`` is an int or a tuple of ints.  One ``rng.random`` call draws
    the block's uniforms, and one Box-Muller transform maps the real and
    the imaginary parts together.
    """
    # Python ints never wrap around
    count = math.prod(map(int, shape)) if isinstance(shape, tuple) else int(shape)
    if count > _MAX_COUNT:
        raise MemoryError(f"cannot allocate {count} complex normals")
    half = (count + 1) // 2
    u = rng.random(4 * half).reshape(2, 2, half)
    # 1 - u keeps the log argument strictly positive
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    re, im = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :count]
    return ((re + 1.0j * im) / np.sqrt(2.0)).reshape(shape)


def random_pure(dim: int, seed) -> PureState:
    """Ray-uniform pure state on a bipartite space of total dimension ``dim``.

    ``dim`` must be a perfect square (the state lives on A (x) B with
    equal sides).
    """
    if dim < 1:
        raise RankOutOfRangeError(f"dim = {dim}")
    rng = np.random.default_rng(seed)
    g = complex_normal(rng, dim)
    return PureState(g / np.linalg.norm(g))


def random_unitary(n: int, seed) -> Unitary:
    """Haar unitary via QR of a complex Gaussian with phase-fixed diagonal."""
    if n < 1:
        raise RankOutOfRangeError(f"n = {n}")
    rng = np.random.default_rng(seed)
    g = complex_normal(rng, (n, n))
    return _fresh(Unitary, _phase_fixed_qr(g))


def _draw_until(n, mu, seed, accept, what) -> DensityMatrix:
    """Draw rank-mu densities G G^dag / tr until ``accept`` holds for the
    descending spectrum of one.

    The spectrum is the draw's own :func:`~dmgeo.core.spectral_decompose`,
    so the density returned keeps it and its first operation takes no
    ``eigh`` of its own.
    """
    check_rank_range(n, mu)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        g = complex_normal(rng, (n, mu))
        rho = _symmetrized_density(g @ g.conj().T)
        if accept(spectral_decompose(rho).eigenvalues):
            return rho
    raise SamplingExhaustedError(f"no {what} in {MAX_TRIES} tries")


def random_density(n: int, mu: int, seed) -> DensityMatrix:
    """Rank-mu density matrix, rho = G G^dag / tr for Gaussian G (n x mu)."""
    return _draw_until(n, mu, seed, lambda lam: numerical_rank(lam) == mu, f"rank-{mu} draw")


def random_generic_density(n: int, mu: int, seed, gap: float = 1e-3) -> DensityMatrix:
    """Rank-mu density matrix whose nonzero eigenvalues are pairwise at
    least ``gap`` apart (and at least ``gap`` above the zero block when
    mu < n), suitable for tangent-space checks.  A ``gap`` of 0.0 requires
    no separation; a negative, infinite or NaN one is refused before any
    draw."""
    if not 0.0 <= gap < math.inf:
        raise PreconditionError(f"gap must be finite and non-negative, got {gap!r}")

    def generic(lam) -> bool:
        top = lam[:mu].tolist()
        if mu > 1 and min(a - b for a, b in zip(top, top[1:])) < gap:
            return False
        return not (mu < n and top[-1] < gap)

    return _draw_until(n, mu, seed, generic, f"generic rank-{mu} spectrum with gap {gap:g}")
