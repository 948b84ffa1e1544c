"""Sweep of ``strata.tangent_space_rank``'s stack against the loop
reference, byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/tangent_sweep.py [--seeds 2]

For each seed, each n = 1..``N_MAX`` and each rank mu = 1..n it draws
``random_generic_density(n, mu, seed)``, and the same matrix plus a 1e-13
non-Hermitian perturbation that parsing still accepts.  It captures the
stack that ``tangent_space_rank`` hands to the SVD and compares it, after
``+ 0.0`` (which maps -0.0 to +0.0 and changes no other bit), with
``loop_stack`` from ``tests/test_strata.py``, which multiplies out every
commutator and projector difference.  The singular values must agree
byte for byte, and the rank must be the stratum dimension.  ``N_MAX``
lies above ``strata.TABLE_CACHE_MAX_N``, so the sweep covers both the
kept tables and the ones built per call.  It prints the counts and exits
1 on any mismatch.  The tier-1 stack test runs the same comparison on
n <= 8 and at TABLE_CACHE_MAX_N + 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dmgeo import core, documents, sampling, strata
from dmgeo.errors import DmgeoError
from test_strata import loop_stack

#: largest size swept, four above the table cache bound
N_MAX = 20


def mismatch(rho: core.DensityMatrix) -> str | None:
    """What differs between the captured stack and ``loop_stack(rho)``,
    or a refusal or a rank other than the stratum's; None if nothing."""
    stacks, values = [], []
    svd = np.linalg.svd

    def capture(a, *args, **kwargs):
        stacks.append(a)
        values.append(svd(a, *args, **kwargs))
        return values[-1]

    np.linalg.svd = capture
    try:
        rank = strata.tangent_space_rank(rho)
    except DmgeoError as exc:
        return f"raised {exc}"
    finally:
        np.linalg.svd = svd
    mu = core.numerical_rank(core.spectral_decompose(rho).eigenvalues)
    if rank != strata.stratum_dimension(rho.n, mu):
        return f"rank {rank} != stratum dimension {strata.stratum_dimension(rho.n, mu)}"
    ref = loop_stack(rho)
    if not ref.size:
        return None if stacks == [] else "stack built for an empty reference"
    if len(stacks) != 1:
        return f"{len(stacks)} SVDs"
    (stack,), (s,) = stacks, values
    if stack.shape != ref.shape:
        return f"shape {stack.shape} != {ref.shape}"
    if (stack + 0.0).tobytes() != (ref + 0.0).tobytes():
        return "stack bytes"
    if s.tobytes() != svd(ref, compute_uv=False).tobytes():
        return "singular-value bytes"
    return None


def perturbed(rho: core.DensityMatrix, seed: int) -> core.DensityMatrix:
    """rho plus 1e-13 complex noise, non-Hermitian but within parsing's
    Hermiticity and trace tolerance; the noise is made traceless, since at
    n = 20 its trace alone can reach that tolerance."""
    n = rho.n
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    np.fill_diagonal(noise, noise.diagonal() - noise.trace() / n)
    m = rho.matrix + 1e-13 * noise
    core.check_hermitian_unit_trace(m, documents.HERMITIAN_TRACE_TOL)
    return core.DensityMatrix(m)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2)
    args = parser.parse_args(argv)
    failed, count = [], 0
    for s in range(args.seeds):
        for n in range(1, N_MAX + 1):
            for mu in range(1, n + 1):
                seed = 10000 * (s + 1) + 100 * n + mu
                rho = sampling.random_generic_density(n, mu, seed)
                for kind, value in (("plain", rho), ("perturbed", perturbed(rho, seed))):
                    count += 1
                    what = mismatch(value)
                    if what is not None:
                        failed.append((seed, n, mu, kind, what))
    for seed, n, mu, kind, what in failed[:20]:
        print(f"mismatch: seed={seed} n={n} mu={mu} {kind}: {what}")
    cached = sum(1 for _, n, *_ in failed if n <= strata.TABLE_CACHE_MAX_N)
    print(f"{count} stacks, {args.seeds} seeds x every mu at n = 1..{N_MAX} x plain and "
          f"perturbed; {len(failed)} mismatches ({cached} at n <= "
          f"{strata.TABLE_CACHE_MAX_N}, {len(failed) - cached} above)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
