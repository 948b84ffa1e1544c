"""Sweep of ``strata.convex_split`` against a plain-numpy reference, byte
for byte, and of every returned component against the document reader.

Run from the repository root:

    PYTHONPATH=src python tests/split_sweep.py [--seeds 20]

For each seed, each shape (n, mu) in ``SHAPES`` and each spectrum kind in
``KINDS`` it builds a density with mu eigenvalues above the rank cut and
splits it twice: with ``convex_split`` and with ``reference_split``, which
spells the up-front rule and the component build out in plain numpy so
that they do not move with the package's kernels.  It compares the
weights' bytes and each component's bytes, strides and contiguity, or the
error class when either side raises.  ``convex_split`` checks no
component, so ``oracle`` does: each returned component, written with
``dumps``, must read back through ``parse_matrix_document`` as a density.
It prints the counts, the refusals per kind, and exits 1 on any mismatch
or oracle failure.  The tier-1 tests run the same comparison at the
benchmark's sizes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dmgeo import sampling, strata
from dmgeo.core import (
    RANK_TOL,
    VALIDATION_TOL,
    DensityMatrix,
    numerical_rank,
    spectral_decompose,
    validate_density,
)
from dmgeo.documents import dumps, parse_matrix_document
from dmgeo.errors import (
    AlreadyPureError,
    DegenerateTotalWeightError,
    DmgeoError,
    ValidationError,
)

#: every 2 <= mu <= n <= 8, the lib-large grid (n = 24, 48, 64 with mu = 2,
#: n / 2 and n), and the cli-large splits at n = 32 and 64 with mu = 8
SHAPES = (
    tuple((n, mu) for n in range(2, 9) for mu in range(2, n + 1))
    + tuple((n, mu) for n in (24, 48, 64) for mu in (2, n // 2, n))
    + ((32, 8), (64, 8))
)

#: spread: distinct levels, rotated by a random unitary; tied: two levels
#: on the diagonal, so eigh returns bit-equal values and unit eigenvectors
#: full of signed zeros; near-pure: 1 - lam_max from 3e-6 to 3e-5, below
#: ``BOUNDARY``, so every split is refused; tail: spread levels plus n - mu
#: eigenvalues below the rank cut, so t != 0 (only below full rank);
#: boundary: 1 - lam_max within a factor 10**0.5 either side of
#: ``BOUNDARY``, with +-1e-13 tails below full rank, so a negative one is
#: refused; near-pure-kept: 1 - lam_max from 1e-4 to 1e-3, where the
#: division by it amplifies the build's rounding 1e3-fold and the split is
#: still built; skew: 1 - lam_max from 1e-4 to 0.32, ``skewed`` by up to
#: 1e-12; adversarial: the same spectra, ``adversarial`` with d from 1e-13
#: to 1e-12
KINDS = ("spread", "tied", "near-pure", "tail", "boundary", "near-pure-kept", "skew",
         "adversarial")

#: the 1 - lam_max below which convex_split refuses every split
BOUNDARY = np.finfo(float).eps * strata.SPLIT_ERROR_MARGIN / VALIDATION_TOL


def read_back(m: np.ndarray) -> DensityMatrix:
    """``m`` written as a density document and read back by the reader."""
    return parse_matrix_document(dumps(DensityMatrix(m)), "density")


def skewed(rho, d: float, rng) -> DensityMatrix:
    """rho plus a random strict upper triangle of entries of modulus up to
    d, read back: eigh reads rho's lower triangle, and the split inherits
    the rest."""
    n = rho.n
    e = d * rng.uniform(0.0, 1.0, (n, n)) * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    return read_back(rho.matrix + np.triu(e, 1))


def adversarial(rho, d: float) -> DensityMatrix:
    """rho + E below the diagonal and rho - E above it, read back, with
    E = (d / 2)(s s^dag - I) and s the unit phases of rho's top
    eigenvector: eigh reads rho + E, whose shift along that vector reaches
    component 0 of a split as -E / (1 - lam_max), up to (n - 1) d / 2 /
    (1 - lam_max)."""
    s = np.exp(1j * np.angle(spectral_decompose(rho).eigenvectors[:, 0]))
    e = d / 2 * (np.outer(s, s.conj()) - np.eye(rho.n))
    return read_back(np.tril(rho.matrix + e) + np.triu(rho.matrix - e, 1))


def density(n: int, mu: int, kind: str, seed: int):
    """An n x n density of the given spectrum kind that the reader
    accepts: validated, or parsed for the skew and adversarial kinds."""
    rng = np.random.default_rng([seed, n, mu, KINDS.index(kind)])
    head = rng.uniform(0.05, 1.0, mu)
    tail = np.zeros(n - mu)
    if kind == "tied":
        head = rng.uniform(0.05, 1.0, 2)[rng.integers(0, 2, mu)]
    elif kind == "tail":
        tail = rng.choice([1e-12, 3e-12, 1e-13, -1e-13], n - mu)
    elif kind != "spread":
        if kind == "near-pure":
            rest = 10.0 ** -rng.uniform(4.5, 5.5)
        elif kind == "near-pure-kept":
            rest = 10.0 ** -rng.uniform(3.0, 4.0)
        elif kind == "boundary":
            rest = BOUNDARY * 10.0 ** rng.uniform(-0.5, 0.5)
            tail = rng.choice([1e-13, -1e-13], n - mu)
        else:
            rest = 10.0 ** -rng.uniform(0.5, 4.0)
        head = rng.uniform(0.5, 1.0, mu)
        head[1:] *= rest / head[1:].sum()
        head[0] = 1.0 - rest
    head *= (1.0 - tail.sum()) / head.sum()
    lam = np.concatenate([head, tail])
    if kind == "tied":
        return validate_density(np.diag(rng.permutation(lam)).astype(complex))
    u = sampling.random_unitary(n, int(rng.integers(2**32))).matrix
    rho = validate_density((u * lam) @ u.conj().T)
    if kind == "skew":
        return skewed(rho, 0.99e-12, rng)
    if kind == "adversarial":
        return adversarial(rho, 0.99e-12 * 10.0 ** -rng.uniform(0.0, 1.0))
    return rho


def _divide(a: np.ndarray, d: float) -> np.ndarray:
    # one multiply by 1/d - 0j for 0 < d < 2, numpy's division elsewhere
    return a * complex(1.0 / d, -0.0) if 0.0 < d < 2.0 else a / d


def refused(rho, lam, mu: int) -> bool:
    """convex_split's up-front rule on rho, its descending spectrum lam
    and its rank mu."""
    m = rho.matrix
    bound = max(np.finfo(float).eps * strata.SPLIT_ERROR_MARGIN, (1 - 1 / mu) * -lam[-1],
                rho.n / 2 * np.max(np.abs(m - m.conj().T)), abs(np.trace(m) - 1.0))
    return not VALIDATION_TOL * (1.0 - lam[0]) >= bound


def reference_split(rho, tol: float = RANK_TOL):
    """Weights and components of ``convex_split(rho, tol)``, each component
    in its own buffers: the up-front rule on rho, then ``np.outer``, times
    lam_k, ``shared -`` it, divided by its total, then ``(tau + tau^dag) *
    0.5`` renormalized unless its trace is exactly 1.0."""
    dec = spectral_decompose(rho)
    lam, vectors = dec.eigenvalues, dec.eigenvectors
    mu = numerical_rank(lam, tol)
    if mu < 2:
        raise AlreadyPureError(mu)
    if refused(rho, lam, mu):
        raise DegenerateTotalWeightError(lam[0])
    below = vectors[:, mu:]
    shared = rho.matrix - (below * (lam[mu:] / mu)) @ below.conj().T
    t = lam[mu:].sum()
    weights, components = [], []
    for k in range(mu):
        total = 1.0 - lam[k] - t / mu
        tau = _divide(shared - lam[k] * np.outer(vectors[:, k], vectors[:, k].conj()), total)
        h = np.add(tau, tau.conj().T) * 0.5
        tr = float(np.trace(h).real)
        if tr != 1.0:
            h = _divide(h, tr)
        weights.append(total / (mu - 1))
        components.append(h)
    return np.array(weights), components


def oracle(components):
    """Why a returned component is no density the reader accepts, or None:
    each, written with ``dumps``, must read back through
    ``parse_matrix_document`` as a density."""
    for k, comp in enumerate(components):
        try:
            parse_matrix_document(dumps(comp), "density")
        except ValidationError as exc:
            return f"component {k}: {exc}"
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
    weights, components = want
    if got.weights.dtype != weights.dtype or got.weights.tobytes() != weights.tobytes():
        return False, "weights"
    if len(got.components) != len(components):
        return False, f"{len(got.components)} components against {len(components)}"
    for k, (comp, ref) in enumerate(zip(got.components, components)):
        if layout(comp.matrix) != layout(ref):
            return False, f"component {k}"
    return False, oracle(got.components)


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
