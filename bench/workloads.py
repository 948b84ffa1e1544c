"""Inputs, timed items and output checks for the benchmark workloads.

Inputs are drawn from the workload seed by this file's own numpy code,
never by ``dmgeo.sampling`` except in ``verify-dimension``, where sampling
is the work being measured.  A workload is a pool of rounds and a round
holds one item of each kind in the workload's mix, drawn afresh for every
round.  The loop stops only at round boundaries, so every run has the
exact mix.  Each mix has an odd number of kinds, which puts the median
inside one kind rather than on the edge between two.  dmgeo keeps no
cache, so meeting a round again on the next pass over the pool costs what
a fresh round would.

An item's ``run`` is the timed part; ``check`` runs after the clock stops
and raises :class:`Mismatch` on a wrong output.
"""

from __future__ import annotations

import io
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from dmgeo import cli, purification, sampling, strata
from dmgeo.core import DensityMatrix, PureState

# bounds a correct output must meet; each is the bound the acceptance gate
# in tests/test_acceptance.py pins for the same property
ROUNDTRIP_BOUND = 1e-11  # purify/trace round trip (criterion 1)
RESIDUAL_BOUND = 1e-9  # connect residual and |det - 1| (criterion 2)
SPLIT_BOUND = 1e-11  # split reconstruction (criterion 5)
WEIGHT_BOUND = 1e-12  # split weight sum (criterion 5)
CHART_BOUND = 1e-12  # Bloch chart (criterion 6)
SPECTRUM_BOUND = 1e-10  # eigenvalues and squared Schmidt coefficients (criterion 7)
NORM_BOUND = 1e-12  # pure-state norm, as the document parser demands

#: eigenvalue gap requested from random_generic_density, as in the CLI
VERIFY_GAP = 1e-3

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class Mismatch(Exception):
    """An output failed its check."""


class Item(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Workload(NamedTuple):
    rounds: list  # list of rounds, each a list of Items
    # fixed per workload so runs compare; it sits inside the slowest kind,
    # or for cli-small, whose kinds overlap, below the band of host stalls
    tail_percentile: float


def _require(ok, what):
    if not ok:
        raise Mismatch(what)


def _maxdev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---- random inputs (the benchmark's own draws) ---------------------------

def _gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar(rng, n):
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _density(rng, n, mu):
    """Rank-mu density matrix with its descending spectrum and eigenbasis.

    Nonzero eigenvalues lie within a factor two of each other, so every
    rank decision is far from its threshold.
    """
    lam = np.zeros(n)
    lam[:mu] = np.sort(1.0 + rng.random(mu))[::-1]
    lam /= lam.sum()
    u = _haar(rng, n)
    m = (u * lam) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / float(np.trace(m).real), lam, u


def _purification(lam, u):
    c = u * np.sqrt(lam)
    return c / np.linalg.norm(c)


def _pure(rng, n):
    c = _gaussian(rng, (n, n))
    return c / np.linalg.norm(c)


# ---- documents (the benchmark's own codec) -------------------------------

def _doc(kind, n, data) -> str:
    pairs = np.stack([data.real, data.imag], axis=-1).tolist()
    return json.dumps({"kind": kind, "n": n, "data": pairs}) + "\n"


def _density_doc(m):
    return _doc("density", m.shape[0], m)


def _pure_doc(c):
    return _doc("pure_state", c.shape[0], c.reshape(-1))


def _decode(doc, kind, n):
    _require(isinstance(doc, dict) and doc.get("kind") == kind and doc.get("n") == n,
             f"expected a {kind} document with n={n}")
    a = np.asarray(doc["data"], dtype=float)
    z = a[..., 0] + 1j * a[..., 1]
    return z.reshape(n, n)


def _report(stdout, command):
    doc = json.loads(stdout)
    _require(doc.get("command") == command and doc.get("status") == "ok",
             f"{command} report status {doc.get('status')!r}")
    return doc["results"]


# ---- shared checks --------------------------------------------------------

def _check_roundtrip(back, rho):
    _require(_maxdev(back, rho) <= ROUNDTRIP_BOUND, "round trip exceeds bound")


def _check_purification(c, rho):
    _require(abs(np.linalg.norm(c) - 1.0) <= NORM_BOUND, "purification not normalized")
    _check_roundtrip(c @ c.conj().T, rho)


def _check_connect(v, c_psi, c_phi):
    moved = (c_psi @ v.T).reshape(-1)
    target = c_phi.reshape(-1)
    residual = np.linalg.norm(target - np.vdot(moved, target) * moved)
    _require(residual <= RESIDUAL_BOUND, f"connect residual {residual:.2e}")
    det = complex(np.linalg.det(v))
    _require(abs(det - 1.0) <= RESIDUAL_BOUND, f"connect |det - 1| {abs(det - 1):.2e}")


def _check_split(weights, components, rho, mu):
    weights = np.asarray(weights, dtype=float)
    _require(len(weights) == mu == len(components), "split has the wrong size")
    _require(np.all(weights > 0.0), "split weight not positive")
    _require(abs(weights.sum() - 1.0) <= WEIGHT_BOUND, "split weights do not sum to 1")
    recon = sum(w * c for w, c in zip(weights, components))
    _require(_maxdev(recon, rho) <= SPLIT_BOUND, "split does not reconstruct rho")


def _check_classify(mu_got, n_got, stratum_dim, n, mu):
    _require(n_got == n and mu_got == mu, f"classify rank {mu_got}, expected {mu}")
    _require(stratum_dim == mu * (2 * n - mu) - 1, "classify stratum dimension")


# ---- in-process CLI -------------------------------------------------------

def call_cli(argv, stdin_text):
    """Run ``dmgeo.cli.main(argv)`` with in-memory stdin, stdout and stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    out = sys.stdout
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def _cli_item(kind, argv, stdin_text, check_doc):
    def check(result):
        code, stdout = result
        _require(code == 0, f"exit code {code}")
        _require(stdout.endswith("\n") and stdout.count("\n") == 1,
                 "output is not one line")
        check_doc(stdout)

    return Item(kind, lambda: call_cli(argv, stdin_text), check)


def _cli_purify(rng, n, mu, workdir):
    rho, _, _ = _density(rng, n, mu)

    def check(stdout):
        _check_purification(_decode(json.loads(stdout), "pure_state", n), rho)

    return _cli_item(f"purify/n{n}/mu{mu}", ["purify"], _density_doc(rho), check)


def _cli_trace(rng, n, mu, workdir):
    c = _pure(rng, n)

    def check(stdout):
        _check_roundtrip(_decode(json.loads(stdout), "density", n), c @ c.conj().T)

    return _cli_item(f"trace/n{n}", ["trace"], _pure_doc(c), check)


def _cli_connect(rng, n, mu, workdir):
    _, lam, u = _density(rng, n, mu)
    c_psi = _purification(lam, u)
    c_phi = c_psi @ _haar(rng, n).T
    path = os.path.join(workdir, f"phi-{rng.integers(2**62):x}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_pure_doc(c_phi))

    def check(stdout):
        results = _report(stdout, "connect")
        _require(results["residual"] <= RESIDUAL_BOUND, "reported residual exceeds bound")
        _check_connect(_decode(results["unitary"], "unitary", n), c_psi, c_phi)

    argv = ["connect", "--psi", "-", "--phi", path]
    return _cli_item(f"connect/n{n}/mu{mu}", argv, _pure_doc(c_psi), check)


def _cli_classify(rng, n, mu, workdir):
    rho, lam, _ = _density(rng, n, mu)

    def check(stdout):
        r = _report(stdout, "classify")
        _check_classify(r["mu"], r["n"], r["stratum_dim"], n, mu)
        _require(_maxdev(r["eigenvalues"], lam) <= SPECTRUM_BOUND, "classify eigenvalues")

    return _cli_item(f"classify/n{n}/mu{mu}", ["classify"], _density_doc(rho), check)


def _cli_split(rng, n, mu, workdir):
    rho, _, _ = _density(rng, n, mu)

    def check(stdout):
        r = _report(stdout, "split")
        comps = [_decode(d, "density", n) for d in r["components"]]
        _check_split(r["weights"], comps, rho, mu)

    return _cli_item(f"split/n{n}/mu{mu}", ["split"], _density_doc(rho), check)


def _cli_bloch(rng, n, mu, workdir):
    rho, _, _ = _density(rng, 2, mu)
    expected = [float(np.trace(rho @ p).real) for p in PAULI]

    def check(stdout):
        v = _report(stdout, "bloch")["vector"]
        _require(_maxdev([v["x"], v["y"], v["z"]], expected) <= CHART_BOUND, "Bloch vector")

    return _cli_item(f"bloch/mu{mu}", ["bloch"], _density_doc(rho), check)


def _cli_bloch_from(rng, n, mu, workdir):
    direction = rng.standard_normal(3)
    r = direction / np.linalg.norm(direction) * 0.99 * rng.random()
    expected = 0.5 * (np.eye(2) + sum(x * p for x, p in zip(r, PAULI)))

    def check(stdout):
        rho = _decode(_report(stdout, "bloch")["density"], "density", 2)
        _require(_maxdev(rho, expected) <= CHART_BOUND, "Bloch inverse chart")

    argv = ["bloch", "--from", *(repr(float(x)) for x in r)]
    return _cli_item("bloch-from", argv, "", check)


_CLI_OPS = {
    "purify": _cli_purify,
    "trace": _cli_trace,
    "connect": _cli_connect,
    "classify": _cli_classify,
    "split": _cli_split,
    "bloch": _cli_bloch,
    "bloch-from": _cli_bloch_from,
}

# (op, n, mu): full-rank and rank-deficient states at the sizes most calls use
CLI_SMALL_MIX = [
    spec
    for n in (2, 3, 4)
    for spec in [
        ("purify", n, n), ("purify", n, n - 1), ("trace", n, n), ("connect", n, n),
        ("classify", n, n), ("classify", n, n - 1), ("split", n, n),
    ] + ([("split", n, n - 1)] if n > 2 else [])
] + [("bloch", 2, 2), ("bloch-from", 2, 2)]

# split keeps rank <= 8: at full rank it mostly measures writing n documents
CLI_LARGE_MIX = [
    spec
    for n in (32, 64)
    for spec in [
        ("purify", n, n), ("trace", n, n), ("connect", n, n),
        ("classify", n, n), ("split", n, 8),
    ]
] + [("classify", 64, 8)]


# ---- library calls on typed objects ---------------------------------------

def _lib_item(rng, n, mu):
    m, lam, u = _density(rng, n, mu)
    rho = DensityMatrix(m)
    c_psi = _purification(lam, u)
    c_phi = c_psi @ _haar(rng, n).T
    phi = PureState(c_phi.reshape(-1))

    def run():
        psi = purification.purify(rho)
        back = purification.partial_trace_b(psi)
        sd = purification.schmidt(psi)
        v = purification.connecting_unitary(psi, phi)
        info = strata.classify(rho)
        split = strata.convex_split(rho)
        return psi, back, sd, v, info, split

    def check(result):
        psi, back, sd, v, info, split = result
        c = psi.coefficient_matrix()
        _check_purification(c, m)
        _check_roundtrip(back.matrix, m)
        _require(sd.mu == mu, f"Schmidt rank {sd.mu}, expected {mu}")
        _require(_maxdev(np.asarray(sd.coefficients) ** 2, lam[:mu]) <= SPECTRUM_BOUND,
                 "squared Schmidt coefficients differ from the spectrum")
        _check_connect(v.matrix, c, c_phi)
        _check_classify(info.mu, info.n, info.stratum_dim, n, mu)
        _check_split(split.weights, [t.matrix for t in split.components], m, mu)

    return Item(f"lib/n{n}/mu{mu}", run, check)


LIB_LARGE_GRID = [(n, mu) for n in (24, 48, 64) for mu in (2, n // 2, n)]


# ---- stratum dimension by sampling and tangent rank ------------------------

def _verify_item(rng, n, mu):
    seed = int(rng.integers(2**63))

    def run():
        rho = sampling.random_generic_density(n, mu, seed, gap=VERIFY_GAP)
        return strata.tangent_space_rank(rho)

    def check(rank):
        expected = mu * (2 * n - mu) - 1
        _require(rank == expected, f"tangent rank {rank}, stratum dimension {expected}")

    return Item(f"verify/n{n}/mu{mu}", run, check)


VERIFY_GRID = [(2, 2), (3, 2), (4, 3), (5, 2), (5, 5), (6, 3), (7, 4), (8, 8), (10, 5)]


# ---- workload table --------------------------------------------------------

def build(name, seed, workdir) -> Workload:
    """Draw the workload's pool of rounds from ``seed``."""

    def cli_op(rng, spec):
        op, n, mu = spec
        return _CLI_OPS[op](rng, n, mu, workdir)

    def lib(rng, spec):
        return _lib_item(rng, *spec)

    def verify(rng, spec):
        return _verify_item(rng, *spec)

    # rounds in the pool, kinds in a round, item maker, tail percentile
    count, specs, make, tail = {
        "cli-small": (16, CLI_SMALL_MIX, cli_op, 90.0),
        "cli-large": (3, CLI_LARGE_MIX, cli_op, 95.0),
        "lib-large": (3, LIB_LARGE_GRID, lib, 95.0),
        "verify-dimension": (16, VERIFY_GRID, verify, 95.0),
    }[name]
    rounds = [
        [make(np.random.default_rng([seed, r, k]), spec) for k, spec in enumerate(specs)]
        for r in range(count)
    ]
    return Workload(rounds, tail)
