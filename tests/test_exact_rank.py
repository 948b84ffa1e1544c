"""Exact ranks over Q(i): an oracle for the stratum formula with no tolerance.

For a Hermitian H with small rational entries, the Cayley transform
U = (I - iH)(I + iH)^-1 is unitary over Q(i), so rho = U diag(lam) U^H
with rational lam is an exact density matrix whose eigenvectors are U's
columns.  The tangent stack (i[H_k, rho] over the traceless Hermitian
basis, then P_k - P_{k+1}) is built with ``fractions.Fraction`` and its
rank found by elimination.  The flatten's sqrt(2) scales columns only,
which leaves the rank unchanged, so it is left out.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dmgeo import core, strata
from dmgeo.errors import AmbiguousRankError, NonGenericSpectrumError

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


def traceless_basis(n):
    """The basis of strata._tangent_table as sparse ``(p, q, h_pq)`` lists:
    for each pair i < j the symmetric and the antisymmetric matrix, then
    diag(1, .., 1, -k, 0, ..)."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            basis.append([(i, j, ONE), (j, i, ONE)])
            basis.append([(i, j, (Fraction(0), Fraction(-1))), (j, i, (Fraction(0), Fraction(1)))])
    for k in range(1, n):
        basis.append([(d, d, ONE) for d in range(k)] + [(k, k, (Fraction(-k), Fraction(0)))])
    return basis


def flatten(h):
    """Diagonal reals, then real and imaginary parts of the upper triangle,
    without the sqrt(2)."""
    n = len(h)
    upper = [h[i][j] for i in range(n) for j in range(i + 1, n)]
    return [h[i][i][0] for i in range(n)] + [x[0] for x in upper] + [x[1] for x in upper]


def exact_tangent_rank(u, lam):
    """Rank of the tangent stack at rho = U diag(lam) U^H, over Q."""
    n, mu = len(u), len(lam)
    rho = density(u, lam)
    rows = []
    for h in traceless_basis(n):
        # D = H rho - rho H, then i D = (-Im D, Re D)
        d = [[ZERO] * n for _ in range(n)]
        for p, q, v in h:
            for b in range(n):
                d[p][b] = add(d[p][b], mul(v, rho[q][b]))
                d[b][q] = sub(d[b][q], mul(rho[b][p], v))
        rows.append(flatten([[(-x[1], x[0]) for x in row] for row in d]))
    projectors = [[[mul(u[i][k], conj(u[j][k])) for j in range(n)] for i in range(n)]
                  for k in range(mu)]
    for p, q in zip(projectors, projectors[1:]):
        rows.append(flatten([[sub(x, y) for x, y in zip(pr, qr)] for pr, qr in zip(p, q)]))
    return rank(rows)


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


@pytest.mark.parametrize("n", range(1, 6))
def test_exact_rank_is_stratum_dimension_and_floats_agree(n):
    u = cayley_unitary(n, seed=n)
    for mu in range(1, n + 1):
        lam = spectrum(mu)
        expected = strata.stratum_dimension(n, mu)
        exact = exact_tangent_rank(u, lam)
        assert exact == expected, f"n={n} mu={mu} lam={lam}: exact {exact}, formula {expected}"
        rho = to_float(density(u, lam))
        found = strata.tangent_space_rank(rho)
        assert found == exact, f"n={n} mu={mu} lam={lam}: tangent_space_rank {found}, exact {exact}"
        info = strata.classify(rho)
        assert (info.mu, info.stratum_dim) == (mu, exact), \
            f"n={n} mu={mu} lam={lam}: classify {(info.mu, info.stratum_dim)}, exact {(mu, exact)}"


@pytest.mark.parametrize("n", range(2, 6))
def test_floats_near_the_cut_return_exact_answer_or_raise(n):
    # lam_mu = eps with eps = 1e-6 .. 1e-12 around the cut RANK_TOL = 1e-9
    # (trace one, so the cut is RANK_TOL itself).  Each routine's exact
    # answer is the exact rank at the point with the eigenvalues at or
    # below the cut set to zero.  At eps = 1e-9 the input's rounding, about
    # 1e-16, decides which side classify lands on, so either is exact there
    u = cayley_unitary(n, seed=10 + n)
    cut = Fraction(core.RANK_TOL)
    for mu in range(2, n + 1):
        for k in range(6, 13):
            eps = Fraction(1, 10**k)
            lam = spectrum(mu, eps)
            sides = {mu - 1, mu} if k == 9 else {mu - (eps <= cut)}
            exact = {m: exact_tangent_rank(u, lam[:m]) for m in sides}
            rho = to_float(density(u, lam))
            info = strata.classify(rho)
            point = f"n={n} mu={mu} eps=1e-{k}"
            assert info.mu in sides and info.stratum_dim == exact[info.mu], \
                f"{point}: classify {(info.mu, info.stratum_dim)}, exact {exact}"
            try:
                found = strata.tangent_space_rank(rho)
            except (NonGenericSpectrumError, AmbiguousRankError):
                continue
            assert found in exact.values(), f"{point}: tangent_space_rank {found}, exact {exact}"
