"""Seeded generators for pure states, Haar unitaries, and fixed-rank
density matrices.

The stream is pinned: PCG64 (numpy's default bit generator) drives an
explicit Box-Muller transform, so outputs depend only on the seed and
never on the platform's normal sampler.
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
from .errors import RankOutOfRangeError, SamplingExhaustedError

MAX_TRIES = 1000


def standard_normal(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller normals over the uniform stream of ``rng``."""
    half = (count + 1) // 2
    # 1 - u keeps the log argument strictly positive
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:count]


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array, unit variance per entry."""
    count = math.prod(map(int, np.atleast_1d(shape)))  # Python ints never wrap around
    if count > np.iinfo(np.intp).max // 16:
        # numpy would raise ValueError, not MemoryError, for so large an array
        raise MemoryError(f"cannot allocate {count} complex normals")
    re = standard_normal(rng, count)
    im = standard_normal(rng, count)
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
    mu < n), suitable for tangent-space checks."""

    def generic(lam) -> bool:
        top = lam[:mu]
        if mu > 1 and float(np.min(top[:-1] - top[1:])) < gap:
            return False
        return not (mu < n and top[-1] < gap)

    return _draw_until(n, mu, seed, generic, f"generic rank-{mu} spectrum with gap {gap:g}")
