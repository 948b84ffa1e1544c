"""Sweep of ``documents.dumps`` against ``json.dumps`` of the ``tolist()``
document, byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/dumps_sweep.py [--sizes 2 69] [--seed 0]

For each n in the range it writes a full-rank and a low-rank density, the
canonical purification, a sampled and a connecting unitary, every
component of a convex split, and three documents of arbitrary magnitudes
from 1e-9 to 1 with both signs and signed zeros, one of them in Fortran
order; four structured values of two or three magnitudes, which the
matrix text writes with ``float.__repr__`` alone; then a report holding
several of those values.  Up to n = 7 every value has fewer than
``documents._KERNEL_MIN`` floats and json.dumps writes it from its dict;
from n = 8 on every one is a matrix text.  n
starts at 2, the least n with a rank-2 density.  It prints the counts
and exits 1 on any mismatch.  The tier-1 tests run the same comparison
on fewer documents.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from dmgeo import core, documents as docs, purification, sampling, strata

TYPED = (core.DensityMatrix, core.PureState, core.Unitary)


def reference_dumps(doc) -> str:
    """``json.dumps`` of ``doc`` with each typed value replaced by its
    document dict, data from ``tolist()``."""
    def expand(node):
        if isinstance(node, TYPED):
            a = node.amplitudes if isinstance(node, core.PureState) else node.matrix
            kind = {core.DensityMatrix: "density", core.PureState: "pure_state",
                    core.Unitary: "unitary"}[type(node)]
            return {"kind": kind, "n": node.n,
                    "data": np.stack([a.real, a.imag], axis=-1).tolist()}
        if isinstance(node, dict):
            return {key: expand(item) for key, item in node.items()}
        if isinstance(node, (list, tuple)):
            return [expand(item) for item in node]
        return node

    return json.dumps(expand(doc)) + "\n"


def arbitrary(rng, n, fortran) -> np.ndarray:
    """n x n complex parts with magnitudes 10**U(-9, 0), random signs and a
    few signed zeros."""
    parts = 10 ** rng.uniform(-9, 0, 2 * n * n) * rng.choice([-1.0, 1.0], 2 * n * n)
    parts[rng.choice(parts.size, n, replace=False)] = rng.choice([-0.0, 0.0], n)
    a = parts.view(complex).reshape(n, n)
    return np.asfortranarray(a) if fortran else a


def structured(n: int) -> list:
    """An identity and a cyclic permutation unitary, a diagonal density of
    dyadic weights 1 - (n - 1) w and w, and the purification of a basis
    state: parts 0.0 and at most two other magnitudes."""
    w = 1.0 / (1 << (n - 1).bit_length())
    basis = np.zeros((n, n), complex)
    basis[0, 0] = 1.0
    return [core.Unitary(np.eye(n, dtype=complex)),
            core.Unitary(np.roll(np.eye(n, dtype=complex), 1, axis=0)),
            core.DensityMatrix(np.diag([1.0 - (n - 1) * w] + [w] * (n - 1)).astype(complex)),
            purification.purify(core.DensityMatrix(basis))]


def documents_for(n: int, seed: int) -> list:
    """The typed values and the report swept at size n."""
    rng = np.random.default_rng([seed, n])
    rho = sampling.random_density(n, n, [seed, n, 0])
    low = sampling.random_density(n, max(2, n // 8), [seed, n, 1])
    psi = purification.purify(rho)
    turned = purification.apply_local_b(psi, sampling.random_unitary(n, [seed, n, 2]))
    values = [rho, low, psi, sampling.random_unitary(n, [seed, n, 3]),
              purification.connecting_unitary(psi, turned),
              *strata.convex_split(low).components,
              core.DensityMatrix(arbitrary(rng, n, False)),
              core.Unitary(arbitrary(rng, n, True)),
              core.PureState(arbitrary(rng, n, False).reshape(-1)),
              *structured(n)]
    report = docs.report_document("split", {"density": docs.digest(str(n))},
                                  {"weights": [0.25, -0.0, 1e-9], "components": values[:3],
                                   "unitary": values[4]}, {"tol": 1e-9})
    return values + [report]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs=2, default=[2, 69], metavar=("FIRST", "LAST"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    count, failed = 0, []
    for n in range(args.sizes[0], args.sizes[1] + 1):
        for k, doc in enumerate(documents_for(n, args.seed)):
            count += 1
            if docs.dumps(doc) != reference_dumps(doc):
                failed.append((n, k, type(doc).__name__))
    for n, k, name in failed[:20]:
        print(f"mismatch: n={n} document {k} ({name})")
    print(f"{count} documents, n = {args.sizes[0]}..{args.sizes[1]}; {len(failed)} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
