"""Sweep of ``sampling.complex_normal`` against the four-call Box-Muller
reference, byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/sampler_sweep.py [--seeds 2000]

For each seed and each shape in ``SHAPES`` it draws one block with each
implementation from generators seeded alike, and compares the arrays'
bytes, shapes and the generators' states after the draw.  The reference
takes each of a block's four runs of ceil(count / 2) uniforms from its
own ``rng.random`` call and transforms the real and imaginary parts one
after the other.  It prints the counts and exits 1 on any mismatch.  The
tier-1 tests run the same comparison on fewer seeds.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from dmgeo import sampling

#: int and tuple shapes: counts 0 and 1, odd counts, (n, 1) columns and a
#: 64 x 64 block
SHAPES = (0, 1, 5, 16, (0, 3), (1, 1), (3, 3), (4, 1), (7, 1), (5, 2), (10, 7), (64, 64))


def reference_standard_normal(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller normals from two ``rng.random`` calls."""
    half = (count + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:count]


def reference_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex normals whose real and imaginary parts are drawn one after
    the other."""
    count = math.prod(np.atleast_1d(shape).tolist())
    re = reference_standard_normal(rng, count)
    im = reference_standard_normal(rng, count)
    return ((re + 1.0j * im) / np.sqrt(2.0)).reshape(shape)


def mismatches(seeds, shapes=SHAPES) -> list:
    """The ``(seed, shape)`` pairs whose draws differ in any byte, in shape,
    or in the generator state they leave."""
    failed = []
    for seed in seeds:
        for shape in shapes:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling.complex_normal(rng, shape)
            want = reference_complex_normal(ref_rng, shape)
            if (got.dtype != want.dtype or got.shape != want.shape
                    or got.tobytes() != want.tobytes()
                    or rng.bit_generator.state != ref_rng.bit_generator.state):
                failed.append((seed, shape))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2000)
    args = parser.parse_args(argv)
    failed = mismatches(range(args.seeds))
    for seed, shape in failed[:20]:
        print(f"mismatch: seed={seed} shape={shape}")
    print(f"{args.seeds * len(SHAPES)} draws, {args.seeds} seeds x {len(SHAPES)} shapes; "
          f"{len(failed)} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
