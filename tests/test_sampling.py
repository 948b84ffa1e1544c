import contextlib
import io

import numpy as np
import pytest

from dmgeo import cli, core, sampling, strata
from dmgeo.errors import (
    NotSquareError,
    PreconditionError,
    RankOutOfRangeError,
    SamplingExhaustedError,
)
from sampler_sweep import SHAPES, mismatches


def test_pure_deterministic():
    a = sampling.random_pure(4, 12345)
    b = sampling.random_pure(4, 12345)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_pure_unit_norm_and_dim_one():
    psi = sampling.random_pure(1, 9)
    assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-14
    for seed in range(5):
        psi = sampling.random_pure(16, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-14


def test_pure_needs_square_dimension():
    with pytest.raises(NotSquareError):
        sampling.random_pure(6, 0)


def test_pure_first_component_moment():
    # E |<e0|psi>|^2 = 1/dim for ray-uniform states; var = (dim-1)/(dim^2 (dim+1))
    samples = 10_000
    dim = 4
    values = np.array(
        [abs(sampling.random_pure(dim, seed).amplitudes[0]) ** 2 for seed in range(samples)]
    )
    se = np.sqrt((dim - 1) / (dim**2 * (dim + 1)) / samples)
    assert abs(values.mean() - 1 / dim) < 3 * se


def test_unitary_deterministic_and_unitary():
    a = sampling.random_unitary(3, 8)
    b = sampling.random_unitary(3, 8)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    for seed in range(5):
        u = sampling.random_unitary(4, seed).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_unitary_dim_one():
    u = sampling.random_unitary(1, 3)
    assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-14


def test_unitary_entry_moment():
    # Haar: E |u_00|^2 = 1/n; for n=2 the modulus squared is uniform on [0,1]
    samples = 10_000
    values = np.array(
        [abs(sampling.random_unitary(2, seed).matrix[0, 0]) ** 2 for seed in range(samples)]
    )
    se = np.sqrt(1.0 / 12.0 / samples)
    assert abs(values.mean() - 0.5) < 3 * se


def _ks_statistic(a, b):
    both = np.concatenate([a, b])
    both.sort()
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    return np.max(np.abs(cdf_a - cdf_b))


def test_pure_distribution_unitary_invariant():
    # |<e0|psi>| and |<e0|v psi>| must be equal in distribution for fixed v
    samples = 10_000
    v = sampling.random_unitary(3, 999).matrix
    plain = np.array(
        [abs(sampling.random_pure(9, s).amplitudes[0]) for s in range(samples)]
    )
    rotated = np.empty(samples)
    for s in range(samples):
        psi = sampling.random_pure(9, samples + s).amplitudes.reshape(3, 3)
        rotated[s] = abs((v @ psi).reshape(-1)[0])
    d = _ks_statistic(plain, rotated)
    critical = 1.628 * np.sqrt(2.0 / samples)  # two-sample KS at the 1% level
    assert d < critical


def test_density_rank_trace_and_determinism():
    for n in range(1, 6):
        for mu in range(1, n + 1):
            rho = sampling.random_density(n, mu, 31 * n + mu)
            again = sampling.random_density(n, mu, 31 * n + mu)
            np.testing.assert_array_equal(rho.matrix, again.matrix)
            lam = np.linalg.eigvalsh(rho.matrix)[::-1]
            assert core.numerical_rank(lam) == mu
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
            assert lam[-1] > -1e-14


def test_density_rank_one_is_pure():
    for seed in range(5):
        rho = sampling.random_density(4, 1, seed)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) <= 1e-10


def test_density_stratum_matches():
    info = strata.classify(sampling.random_density(2, 2, 0))
    assert info.stratum_dim == 3


def test_density_rank_out_of_range():
    with pytest.raises(RankOutOfRangeError):
        sampling.random_density(2, 3, 0)
    with pytest.raises(RankOutOfRangeError):
        sampling.random_density(2, 0, 0)
    for argv in (["--n", "-3"], ["--n", "2", "--mu", "5"]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["sample", "--kind", "pure", *argv]) == 4
        assert "RankOutOfRange" in err.getvalue()


def test_full_rank_spectra_strictly_positive():
    for seed in range(1000):
        rho = sampling.random_density(3, 3, seed)
        lam = np.linalg.eigvalsh(rho.matrix)[::-1]
        assert core.numerical_rank(lam, 1e-12) == 3


def test_generic_density_gap():
    rho = sampling.random_generic_density(2, 2, 4, gap=0.1)
    lam = np.linalg.eigvalsh(rho.matrix)[::-1]
    assert lam[0] - lam[1] >= 0.1

    rho = sampling.random_generic_density(3, 2, 5, gap=0.05)
    lam = np.linalg.eigvalsh(rho.matrix)[::-1]
    assert lam[0] - lam[1] >= 0.05
    assert lam[1] >= 0.05  # separated from the zero block as well

    pure = sampling.random_generic_density(3, 1, 6, gap=0.5)
    assert abs(np.trace(pure.matrix @ pure.matrix).real - 1.0) <= 1e-10


def test_generic_density_exhaustion():
    # four eigenvalues summing to one cannot be pairwise 0.5 apart
    with pytest.raises(SamplingExhaustedError):
        sampling.random_generic_density(4, 4, 7, gap=0.5)


def test_complex_normal_bitwise_equals_four_call_reference():
    # one block of uniforms, viewed as (re, im) x (u1, u2), is the stream
    # of the four calls; also pins the generator state after each draw
    assert mismatches(range(40)) == []


class CountingGenerator:
    """A generator that counts its ``random`` calls."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def random(self, *args, **kwargs):
        self._calls.append(args)
        return self._rng.random(*args, **kwargs)


@pytest.fixture
def random_calls(monkeypatch):
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: CountingGenerator(default_rng(seed), calls))
    return calls


@pytest.mark.parametrize("shape", SHAPES)
def test_complex_normal_draws_once(random_calls, shape):
    sampling.complex_normal(np.random.default_rng(3), shape)
    assert len(random_calls) == 1


def test_generic_density_draws_once_per_try(random_calls, monkeypatch):
    tries = []
    decompose = sampling.spectral_decompose
    monkeypatch.setattr(sampling, "spectral_decompose",
                        lambda rho: tries.append(rho) or decompose(rho))
    counts = []
    for seed in range(5):
        del random_calls[:], tries[:]
        sampling.random_generic_density(4, 4, seed, gap=0.1)
        assert len(random_calls) == len(tries)
        counts.append(len(tries))
    assert max(counts) > 1
    del random_calls[:], tries[:]
    with pytest.raises(SamplingExhaustedError):
        sampling.random_generic_density(4, 4, 7, gap=0.5)
    assert len(random_calls) == len(tries) == sampling.MAX_TRIES


@pytest.mark.parametrize("gap", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_generic_density_refuses_bad_gap_before_drawing(random_calls, gap):
    with pytest.raises(PreconditionError, match=f"got {gap!r}"):
        sampling.random_generic_density(3, 3, 0, gap=gap)
    assert random_calls == []


def test_generic_density_zero_gap_requires_no_separation(random_calls):
    rho = sampling.random_generic_density(3, 3, 0, gap=0.0)
    assert len(random_calls) == 1
    assert core.numerical_rank(np.linalg.eigvalsh(rho.matrix)[::-1]) == 3
