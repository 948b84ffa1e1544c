"""Exact ranks over Q(i): an oracle for the stratum formula with no tolerance.

For a Hermitian H with small rational entries, the Cayley transform
U = (I - iH)(I + iH)^-1 is unitary over Q(i), so rho = U diag(lam) U^H
with rational lam is an exact density matrix whose eigenvectors are U's
columns.  The tangent stack (i[H_k, rho] over the traceless Hermitian
basis, then P_k - P_{k+1}) is built with ``fractions.Fraction`` and its
rank found by elimination.  The flatten's sqrt(2) scales columns only,
which leaves the rank unchanged, so it is left out.
"""

from fractions import Fraction

import pytest

from dmgeo import core, strata
from dmgeo.errors import AmbiguousRankError, NonGenericSpectrumError
from exact import ONE, ZERO, add, cayley_unitary, conj, density, mul, rank, spectrum, sub, to_float


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
