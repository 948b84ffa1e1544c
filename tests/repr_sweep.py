"""Wide sweep of the documents layer's shortest-repr kernel against
``float.__repr__``.

Run from the repository root:

    PYTHONPATH=src python tests/repr_sweep.py [--count 4000000] [--seed 0]

It checks every power of two from 2**-1074 to 2**1023 with its 16
neighbours on each side, then ``--count`` random bit patterns: half of
them inside the kernel's range [1e-4, 1), a quarter over every exponent
and a quarter drawn uniformly from [0, 1).  It prints the counts and
exits 1 on any mismatch.  The tier-1 tests run the same comparison on a
smaller set.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dmgeo import documents

#: raw bits of 1e-4 and 1.0
KERNEL_RANGE = [int(b) for b in documents._FIXED_RANGE]


def kernel_mismatches(bits: np.ndarray) -> tuple:
    """(values in the kernel's range, texts the kernel wrote, mismatches) for
    the magnitudes of the raw doubles ``bits``; a mismatch is a
    ``(value, kernel text)`` pair whose text is not ``float.__repr__``."""
    magnitudes = np.unique(bits & ~documents._SIGN)
    start, stop = np.searchsorted(magnitudes, documents._FIXED_RANGE)
    inside = magnitudes[start:stop]
    texts, general = documents._fixed_texts(inside)
    written = [(x, text) for x, text, skip in
               zip(inside.view(float).tolist(), texts, general.tolist()) if not skip]
    return inside.size, len(written), [(x, t) for x, t in written if t != float.__repr__(x)]


def powers_of_two(ulps: int) -> np.ndarray:
    """Raw bits of 2**k for k = -1074 .. 1023, each with ``ulps`` neighbours
    on each side that are finite and not negative."""
    powers = np.array([2.0**k for k in range(-1074, 1024)]).view(np.int64)
    near = (powers[:, None] + np.arange(-ulps, ulps + 1)).reshape(-1)
    return near[(near >= 0) & (near < 0x7FF0000000000000)].view(np.uint64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=4_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    chunk = 1 << 18
    batches = [("powers of two +-16 ulps", powers_of_two(16))]
    for done in range(0, args.count, chunk):
        size = min(chunk, args.count - done)
        inside = rng.integers(*KERNEL_RANGE, size - size // 2, dtype=np.uint64)
        anywhere = rng.integers(0, 1 << 63, size // 4, dtype=np.uint64)
        uniform = rng.random(size // 4).view(np.uint64)
        batches.append(("random bits", np.concatenate([inside, anywhere, uniform])))
    totals, failed = {}, []
    for label, bits in batches:
        checked, written, bad = kernel_mismatches(bits)
        total = totals.setdefault(label, [0, 0, 0])
        total[0] += bits.size
        total[1] += checked
        total[2] += written
        failed += bad
    for label, (drawn, checked, written) in totals.items():
        print(f"{label}: {drawn} patterns, {checked} distinct in [1e-4, 1), "
              f"{written} written by the kernel")
    for x, text in failed[:20]:
        print(f"mismatch: {x!r} written as {text!r}")
    print(f"{len(failed)} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
