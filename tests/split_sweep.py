"""Sweep of ``strata.convex_split`` against a plain-numpy reference, byte
for byte, and of every returned component against the density checks.

Run from the repository root:

    PYTHONPATH=src python tests/split_sweep.py [--seeds 20]

For each seed, each shape (n, mu) in ``SHAPES`` and each spectrum kind in
``KINDS`` it builds a density with mu eigenvalues above the rank cut and
splits it twice: with ``convex_split`` and with ``reference_split``, which
spells the component build out in plain numpy so that it does not move
with the package's kernels.  It compares the weights' bytes and each
component's bytes, strides and contiguity, or the error class when either
side raises.  ``convex_split`` checks no component, so ``oracle`` does: each
returned component's unsymmetrized ``tau`` must be Hermitian and of unit
trace within ``SPLIT_TOL``, and the component's smallest eigenvalue at
least ``-SPLIT_TOL``.  It prints the counts, the refusals per kind, and
exits 1 on any mismatch or oracle failure.  The tier-1 tests run the same
comparison at the benchmark's sizes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dmgeo import sampling, strata
from dmgeo.core import (
    RANK_TOL,
    check_hermitian_unit_trace,
    numerical_rank,
    spectral_decompose,
    validate_density,
)
from dmgeo.errors import AlreadyPureError, DegenerateTotalWeightError, DmgeoError

#: every 2 <= mu <= n <= 8, the lib-large grid (n = 24, 48, 64 with mu = 2,
#: n / 2 and n), and the cli-large splits at n = 32 and 64 with mu = 8
SHAPES = (
    tuple((n, mu) for n in range(2, 9) for mu in range(2, n + 1))
    + tuple((n, mu) for n in (24, 48, 64) for mu in (2, n // 2, n))
    + ((32, 8), (64, 8))
)

#: spread: distinct levels, rotated by a random unitary; tied: two levels
#: on the diagonal, so eigh returns bit-equal values and unit eigenvectors
#: full of signed zeros; near-pure: 1 - lam_max from 3e-6 to 3e-5, where the
#: division by it amplifies the build's rounding 1e5-fold; tail: spread
#: levels plus n - mu eigenvalues below the rank cut, so t != 0 (only below
#: full rank); boundary: 1 - lam_max within a factor 10**0.5 either side of
#: ``BOUNDARY``, where the rule starts to refuse, with +-1e-13 tails below
#: full rank, so a negative one is refused
KINDS = ("spread", "tied", "near-pure", "tail", "boundary")

#: the 1 - lam_max below which convex_split refuses every split
BOUNDARY = np.finfo(float).eps * strata.SPLIT_ERROR_MARGIN / strata.SPLIT_TOL


def density(n: int, mu: int, kind: str, seed: int):
    """A validated n x n density of the given spectrum kind."""
    rng = np.random.default_rng([seed, n, mu, KINDS.index(kind)])
    head = rng.uniform(0.05, 1.0, mu)
    tail = np.zeros(n - mu)
    if kind == "tied":
        head = rng.uniform(0.05, 1.0, 2)[rng.integers(0, 2, mu)]
    elif kind in ("near-pure", "boundary"):
        if kind == "near-pure":
            rest = 10.0 ** -rng.uniform(4.5, 5.5)
        else:
            rest = BOUNDARY * 10.0 ** rng.uniform(-0.5, 0.5)
            tail = rng.choice([1e-13, -1e-13], n - mu)
        head = rng.uniform(0.5, 1.0, mu)
        head[1:] *= rest / head[1:].sum()
        head[0] = 1.0 - rest
    elif kind == "tail":
        tail = rng.choice([1e-12, 3e-12, 1e-13, -1e-13], n - mu)
    head *= (1.0 - tail.sum()) / head.sum()
    lam = np.concatenate([head, tail])
    if kind == "tied":
        return validate_density(np.diag(rng.permutation(lam)).astype(complex))
    u = sampling.random_unitary(n, int(rng.integers(2**32))).matrix
    return validate_density((u * lam) @ u.conj().T)


def _divide(a: np.ndarray, d: float) -> np.ndarray:
    # one multiply by 1/d - 0j for 0 < d < 2, numpy's division elsewhere
    return a * complex(1.0 / d, -0.0) if 0.0 < d < 2.0 else a / d


def reference_split(rho, tol: float = RANK_TOL):
    """Weights, components and unsymmetrized taus of ``convex_split(rho,
    tol)``, each component in its own buffers: ``np.outer``, times lam_k,
    ``shared -`` it, divided by its total (tau), then ``(tau + tau^dag) *
    0.5`` renormalized unless its trace is exactly 1.0."""
    dec = spectral_decompose(rho)
    lam, vectors = dec.eigenvalues, dec.eigenvectors
    mu = numerical_rank(lam, tol)
    if mu < 2:
        raise AlreadyPureError(mu)
    scale = 1.0 - lam[0]
    if not strata.SPLIT_TOL * scale >= max(np.finfo(float).eps * strata.SPLIT_ERROR_MARGIN,
                                           -lam[-1]):
        raise DegenerateTotalWeightError(lam[0])
    check_hermitian_unit_trace(rho.matrix, strata.SPLIT_TOL * scale)
    below = vectors[:, mu:]
    shared = rho.matrix - (below * (lam[mu:] / mu)) @ below.conj().T
    t = lam[mu:].sum()
    weights, components, taus = [], [], []
    for k in range(mu):
        total = 1.0 - lam[k] - t / mu
        tau = _divide(shared - lam[k] * np.outer(vectors[:, k], vectors[:, k].conj()), total)
        h = np.add(tau, tau.conj().T) * 0.5
        tr = float(np.trace(h).real)
        if tr != 1.0:
            h = _divide(h, tr)
        weights.append(total / (mu - 1))
        components.append(h)
        taus.append(tau)
    return np.array(weights), components, taus


def oracle(taus, components):
    """Why a returned component is no density within ``SPLIT_TOL``, or None:
    its tau must be Hermitian and of unit trace, and the component's
    smallest eigenvalue at least ``-SPLIT_TOL``."""
    tol = strata.SPLIT_TOL
    for k, (tau, h) in enumerate(zip(taus, components)):
        if not np.max(np.abs(tau - tau.conj().T)) <= tol:
            return f"component {k} not Hermitian"
        if not abs(np.trace(tau) - 1.0) <= tol:
            return f"component {k} trace"
        if not np.linalg.eigvalsh(h)[0] >= -tol:
            return f"component {k} not positive"
    return None


def layout(a: np.ndarray) -> tuple:
    return (a.dtype, a.shape, a.strides, a.flags.c_contiguous, a.flags.f_contiguous, a.tobytes())


def _split(fn, rho):
    try:
        return fn(rho)
    except DmgeoError as exc:
        return type(exc)


def _name(outcome) -> str:
    return outcome.__name__ if isinstance(outcome, type) else "a split"


def compare(rho) -> tuple:
    """Whether the reference raised on rho, and why ``convex_split(rho)``
    differs from it or fails the oracle, or None."""
    want = _split(reference_split, rho)
    got = _split(strata.convex_split, rho)
    if isinstance(want, type) or isinstance(got, type):
        if got is want:
            return isinstance(want, type), None
        return isinstance(want, type), f"{_name(got)} against {_name(want)}"
    weights, components, taus = want
    if got.weights.dtype != weights.dtype or got.weights.tobytes() != weights.tobytes():
        return False, "weights"
    if len(got.components) != len(components):
        return False, f"{len(got.components)} components against {len(components)}"
    for k, (comp, ref) in enumerate(zip(got.components, components)):
        if layout(comp.matrix) != layout(ref):
            return False, f"component {k}"
    return False, oracle(taus, components)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)
    failed, raised = [], dict.fromkeys(KINDS, 0)
    todo = [(seed, n, mu, kind) for seed in range(args.seeds) for n, mu in SHAPES
            for kind in KINDS if kind != "tail" or mu < n]
    for seed, n, mu, kind in todo:
        was_raised, reason = compare(density(n, mu, kind, seed))
        raised[kind] += was_raised
        if reason is not None:
            failed.append((seed, n, mu, kind, reason))
    for case in failed[:20]:
        print("mismatch: seed={} n={} mu={} kind={}: {}".format(*case))
    print(f"{len(todo)} splits, {args.seeds} seeds x {len(SHAPES)} shapes x {len(KINDS)} "
          f"spectrum kinds (tail below full rank only), raised on both sides: "
          + ", ".join(f"{kind} {count}" for kind, count in raised.items())
          + f"; {len(failed)} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
