"""Exact values over Q(i) for the tests: no tolerance anywhere.

Complex rationals are ``(re, im)`` pairs of ``fractions.Fraction`` and
matrices are lists of rows of them.  The Cayley transform
U = (I - iH)(I + iH)^-1 of a Hermitian H with small rational entries is
unitary over Q(i), so rho = U diag(lam) U^H with rational lam is an exact
density matrix whose eigenvectors are U's columns.  ``rank`` finds the
rank over Q by elimination, and ``to_float`` rounds an exact density to
a :class:`dmgeo.core.DensityMatrix`.  Tests import this module; pytest
does not collect it.
"""

import math
import random
from fractions import Fraction

import numpy as np

from dmgeo import core

# complex rationals are (re, im) pairs of Fractions
ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def conj(x):
    return (x[0], -x[1])


def matmul(a, b):
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] == ZERO:
                continue
            for j in range(n):
                out[i][j] = add(out[i][j], mul(a[i][k], b[k][j]))
    return out


def adjoint(a):
    return [[conj(a[j][i]) for j in range(len(a))] for i in range(len(a))]


def inverse(a):
    """Gauss-Jordan inverse over Q(i)."""
    n = len(a)
    rows = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != ZERO)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        re, im = rows[c][c]
        norm = re * re + im * im
        scale = (re / norm, -im / norm)
        rows[c] = [mul(scale, x) for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != ZERO:
                f = rows[r][c]
                rows[r] = [sub(x, mul(f, y)) for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def cayley_unitary(n, seed):
    """U = (I - iH)(I + iH)^-1 for a seeded Hermitian H with entries in
    {-2, .., 2} / 3 and {-2, .., 2} i / 3."""
    rng = random.Random(seed)
    h = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = (Fraction(rng.randint(-2, 2), 3), Fraction(0))
        for j in range(i + 1, n):
            h[i][j] = (Fraction(rng.randint(-2, 2), 3), Fraction(rng.randint(-2, 2), 3))
            h[j][i] = conj(h[i][j])
    ih = [[mul((Fraction(0), Fraction(1)), x) for x in row] for row in h]
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    minus = [[sub(e, x) for e, x in zip(er, xr)] for er, xr in zip(eye, ih)]
    plus = [[add(e, x) for e, x in zip(er, xr)] for er, xr in zip(eye, ih)]
    u = matmul(minus, inverse(plus))
    assert matmul(u, adjoint(u)) == eye
    return u


def spectrum(mu, eps=None):
    """mu distinct positive rationals summing to one, descending; with
    ``eps`` the last of them is ``eps``."""
    lam = [Fraction(mu - k, mu * (mu + 1) // 2) for k in range(mu)]
    if eps is not None and mu > 1:
        head = sum(lam[:-1])
        lam = [x * (1 - eps) / head for x in lam[:-1]] + [eps]
    return lam


def density(u, lam):
    n = len(u)
    scaled = [[mul(u[i][k], (lam[k], Fraction(0))) if k < len(lam) else ZERO
               for k in range(n)] for i in range(n)]
    return matmul(scaled, adjoint(u))


def rank(rows):
    """Rank over Q of rows of Fractions: each row is scaled to coprime
    integers, then eliminated with integer row operations."""
    def reduced(row):
        g = math.gcd(*row) or 1
        return [x // g for x in row]

    rows = [reduced([int(x * math.lcm(*(y.denominator for y in row))) for x in row])
            for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                a, b = top[c], rows[i][c]
                rows[i] = reduced([a * x - b * y for x, y in zip(rows[i], top)])
        r += 1
    return r


def to_float(rho):
    return core.DensityMatrix(np.array([[complex(float(x[0]), float(x[1])) for x in row]
                                        for row in rho]))
