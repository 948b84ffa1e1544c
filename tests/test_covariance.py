"""The SU(N) action as an oracle: every operation commutes with rho -> U rho U^dag.

The density matrices come from CP^{N^2 - 1} by the action of SU(N), so
each operation on rho' = U rho U^dag must give the same integers as on
rho, the same spectrum and weights, and the components, purifications and
connecting unitaries carried along by U.  This needs no reference
implementation: the same routine runs on both inputs.  The bounds are
c * n * eps (times the condition factor 1 / (1 - lam_1) for the split's
components, and c * eps / sqrt(lam_min) for the connecting residual),
with each c four to five times the worst measured over 400 seeds at each
(n, mu) below: 2.0, 2.0, 3.7, 1.0 and 6.3.
"""

import numpy as np
import pytest

from dmgeo import core, purification as pf, sampling, strata

EPS = np.finfo(float).eps

#: c for eigenvalues, weights, components, the purification round trip
#: and the connecting residual
C_EIGENVALUES, C_WEIGHTS, C_COMPONENTS, C_ROUND_TRIP, C_CONNECT = 8, 8, 16, 4, 32


def rotated(n, mu, seed):
    rho = sampling.random_generic_density(n, mu, seed)
    u = sampling.random_unitary(n, seed + 50000)
    return rho, u, core.validate_density(u.matrix @ rho.matrix @ u.matrix.conj().T)


@pytest.mark.parametrize("n", range(2, 9))
def test_operations_commute_with_the_su_n_action(n):
    for mu in range(1, n + 1):
        for seed in range(7000 + 100 * n + 10 * mu, 7000 + 100 * n + 10 * mu + 5):
            rho, u, rho2 = rotated(n, mu, seed)
            m = u.matrix
            point = f"n={n} mu={mu} seed={seed}"
            assert strata.classify(rho).mu == strata.classify(rho2).mu == mu, point
            assert strata.tangent_space_rank(rho) == strata.tangent_space_rank(rho2), point

            lam = core.spectral_decompose(rho).eigenvalues
            lam2 = core.spectral_decompose(rho2).eigenvalues
            assert np.abs(lam - lam2).max() <= C_EIGENVALUES * n * EPS, point

            if mu > 1:
                split, split2 = strata.convex_split(rho), strata.convex_split(rho2)
                assert np.abs(split.weights - split2.weights).max() <= C_WEIGHTS * n * EPS, point
                bound = C_COMPONENTS * n * EPS / (1.0 - lam[0])
                for c, c2 in zip(split.components, split2.components):
                    carried = m @ c.matrix @ m.conj().T
                    assert np.abs(carried - c2.matrix).max() <= bound, point

            psi2 = pf.purify(rho2)
            round_trip = pf.partial_trace_b(psi2).matrix - rho2.matrix
            assert np.abs(round_trip).max() <= C_ROUND_TRIP * n * EPS, point

            psi = pf.apply_local_a(pf.purify(rho), u)
            v = pf.connecting_unitary(psi, psi2)
            residual = core.ray_distance(pf.apply_local_b(psi, v), psi2)
            assert residual <= C_CONNECT * EPS / np.sqrt(lam[mu - 1]), point
