"""Command-line front end.

One subcommand per analysis; matrix documents in, matrix documents or
report documents out.  Exit codes: 0 ok, 1 verification mismatch,
2 parse/usage error, 3 validation error, 4 precondition error or
input too large to allocate, 5 numerical failure.

One driver, ``_run``, runs every subcommand from the row in its
``set_defaults``.  It reads the ``inputs``, (report key, option dest,
kind) triples of which at most one may read stdin, and calls
``op(args, *documents)``.  The op returns a typed value, written as its
matrix document, or ``(results, status)``, written as a report with the
inputs' digests, ``--tol`` and the row's fixed ``bounds``; the status
sets the exit code.

``main`` may be called many times in one process; the argparse parser is
built once per process and reused, since parsing never changes it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import documents as docs
from .core import RANK_TOL, check_rank_range, ray_distance
from .errors import (
    DmgeoError,
    DocumentError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from .purification import CONNECT_TOL, apply_local_b, connecting_unitary, partial_trace_b, purify
from .sampling import random_density, random_generic_density, random_pure, random_unitary
from .strata import (
    BlochVector,
    bloch_vector,
    classify,
    convex_split,
    density_from_bloch,
    stratum_dimension,
    tangent_space_rank,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_NUMERICAL = 5

#: exit code of each error family, checked in order
_EXIT_CODES = (
    (DocumentError, EXIT_PARSE),
    (ValidationError, EXIT_VALIDATION),
    (PreconditionError, EXIT_PRECONDITION),
    (NumericalError, EXIT_NUMERICAL),
    (MemoryError, EXIT_PRECONDITION),
)

#: exit code of each report status
_STATUS_CODES = {"ok": EXIT_OK, "RankMismatch": EXIT_FAIL, "ResidualTooLarge": EXIT_NUMERICAL}

#: residual bound for the connect subcommand
RESIDUAL_BOUND = 1e-9

#: eigenvalue separation requested when sampling for verify-dimension
VERIFY_GAP = 1e-3


def _seed(text: str) -> int:
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _count(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return value


def _tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}")
    # written so that nan fails it
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("tolerance must lie strictly between 0 and 1")
    return value


def _read(path) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path or 'stdin'}: {exc}") from exc


def _stdout(text):
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # e.g. the reader closed the pipe: send what is still buffered to
        # devnull, so that the flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise DocumentError(f"cannot write stdout: {exc}") from exc


def _write(args, doc):
    text = docs.dumps(doc)
    if args.out is None or args.out == "-":
        _stdout(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {args.out}: {exc}") from exc


def _run(args) -> int:
    # the one driver behind every subcommand (contract in the module docstring)
    dests = [dest for _, dest, _ in args.inputs]
    if sum(getattr(args, dest) in (None, "-") for dest in dests) > 1:
        # refused before any read; connect's two options are named after their dests
        raise DocumentError(f"only one of {'/'.join('--' + d for d in dests)} may read stdin")
    texts = [_read(getattr(args, dest)) for dest in dests]
    documents = [docs.parse_matrix_document(text, kind)
                 for text, (_, _, kind) in zip(texts, args.inputs)]
    out, status = args.op(args, *documents), "ok"
    if isinstance(out, tuple):
        results, status = out
        tolerances = {"tol": args.tol} if "tol" in args else {}
        tolerances.update(args.bounds)
        out = docs.report_document(
            command=args.command,
            inputs={key: docs.digest(text) for (key, _, _), text in zip(args.inputs, texts)},
            results=results,
            tolerances=tolerances,
            status=status,
        )
    _write(args, out)
    return _STATUS_CODES[status]


def _connect(args, psi, phi):
    v = connecting_unitary(psi, phi, tol=args.tol)
    residual = ray_distance(apply_local_b(psi, v), phi)
    return ({"unitary": v, "residual": residual},
            "ok" if residual <= RESIDUAL_BOUND else "ResidualTooLarge")


def _classify(args, rho):
    info = classify(rho, tol=args.tol)
    return {
        "n": info.n,
        "mu": info.mu,
        "stratum_dim": info.stratum_dim,
        "stabilizer_dim": info.stabilizer_dim,
        "is_pure": info.is_pure,
        "is_full_rank": info.is_full_rank,
        "purity": float((rho.matrix @ rho.matrix).trace().real),
        "eigenvalues": list(info.eigenvalues),
    }, "ok"


def _split(args, rho):
    split = convex_split(rho, tol=args.tol)
    return {
        "weights": [float(w) for w in split.weights],
        "components": split.components,
    }, "ok"


def _bloch(args, rho):
    r = bloch_vector(rho)
    return {"vector": {"x": r.x, "y": r.y, "z": r.z}}, "ok"


def _density_from_bloch(args):
    if args.infile is not None:
        raise DocumentError("--from builds the density, so it takes no --in")
    return {"density": density_from_bloch(BlochVector(*args.coords))}, "ok"


class _FromCoords(argparse.Action):
    # bloch --from builds its density instead of reading one, so it
    # declares no input and its own op
    def __call__(self, parser, namespace, values, option_string=None):
        namespace.coords, namespace.inputs, namespace.op = values, (), _density_from_bloch


def _verify_dimension(args):
    formula = stratum_dimension(args.n, args.mu)
    rhos = (random_generic_density(args.n, args.mu, args.seed + index, gap=VERIFY_GAP)
            for index in range(args.samples))
    ranks = [tangent_space_rank(rho, tol=args.tol) for rho in rhos]
    all_match = all(r == formula for r in ranks)
    return {
        "n": args.n,
        "mu": args.mu,
        "formula": formula,
        "ranks": ranks,
        "all_match": all_match,
    }, "ok" if all_match else "RankMismatch"


def _sample(args):
    mu = args.n if args.mu is None else args.mu
    check_rank_range(args.n, mu)
    if args.kind == "pure":
        return random_pure(args.n * args.n, args.seed)
    if args.kind == "unitary":
        return random_unitary(args.n, args.seed)
    return random_density(args.n, mu, args.seed)


def _add_io(sub, kind=None):
    # a document kind adds --in, the subcommand's one input document
    if kind:
        sub.add_argument("--in", dest="infile", default=None, metavar="FILE",
                         help="input document (default: stdin)")
        sub.set_defaults(inputs=((kind, "infile", kind),))
    sub.add_argument("--out", dest="out", default=None, metavar="FILE",
                     help="output file (default: stdout)")


class _NegativeNumber:
    """argparse's test of whether an argument that starts with "-" is a
    negative number rather than an option: ``float`` decides, so the
    arguments read as numbers are exactly those ``type=float`` reads, with
    their exponents, digit underscores, inf and nan.  argparse only tests
    the truth of ``match``."""

    @staticmethod
    def match(s: str) -> bool:
        if not s.startswith("-"):
            return False
        try:
            float(s)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    # -h prints through _stdout, so that a closed stdout fails the same way
    # as for a document; add_subparsers makes its subparsers of this class
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, no digit underscores and
        # no inf or nan, so it would read a value such as "--from 0.1 -2e-05
        # 0.3", "-1_0" or "-inf" as an option
        self._negative_number_matcher = _NegativeNumber

    def print_help(self, file=None):
        if file is None:
            _stdout(self.format_help())
        else:
            super().print_help(file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dmgeo`` parser with every subcommand, built once per process.

    Every ``main`` call reuses it, which is safe because nothing mutates
    the parser after this build: ``parse_args`` makes a fresh namespace per
    call, ``prog`` is fixed, and the terminal width, ``sys.stdout`` and
    ``sys.stderr`` are read when help or an error is formatted and written,
    not here.  The subcommand ops are bound at this build, so code that
    rebinds one afterwards calls ``build_parser.cache_clear()``;
    ``build_parser.__wrapped__()`` makes a fresh parser.
    """
    parser = _Parser(prog="dmgeo", description="density-matrix geometry toolkit")
    parser.set_defaults(inputs=(), bounds={})
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("purify", help="density document -> canonical purification")
    _add_io(p, "density")
    p.set_defaults(op=lambda args, rho: purify(rho))

    p = subs.add_parser("trace", help="pure-state document -> partial trace over B")
    _add_io(p, "pure_state")
    p.set_defaults(op=lambda args, psi: partial_trace_b(psi))

    p = subs.add_parser("connect", help="unitary linking two purifications")
    p.add_argument("--psi", required=True, metavar="FILE", help="first state ('-' for stdin)")
    p.add_argument("--phi", required=True, metavar="FILE", help="second state ('-' for stdin)")
    p.add_argument("--tol", type=_tol, default=CONNECT_TOL,
                   help="entrywise bound on the partial-trace mismatch")
    _add_io(p)
    p.set_defaults(inputs=(("psi", "psi", "pure_state"), ("phi", "phi", "pure_state")),
                   op=_connect, bounds={"residual_bound": RESIDUAL_BOUND})

    p = subs.add_parser("classify", help="rank and stratum data of a density matrix")
    _add_io(p, "density")
    p.add_argument("--tol", type=_tol, default=RANK_TOL)
    p.set_defaults(op=_classify)

    p = subs.add_parser("split", help="convex split into rank mu-1 components")
    _add_io(p, "density")
    p.add_argument("--tol", type=_tol, default=RANK_TOL)
    p.set_defaults(op=_split)

    p = subs.add_parser("bloch", help="Bloch vector of a qubit state, or the inverse")
    _add_io(p, "density")
    p.add_argument("--from", dest="coords", nargs=3, type=float, default=None,
                   action=_FromCoords, metavar=("X", "Y", "Z"),
                   help="build the density matrix instead")
    p.set_defaults(op=_bloch)

    p = subs.add_parser("verify-dimension",
                        help="check the stratum dimension formula on random samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tol, default=RANK_TOL)
    _add_io(p)
    p.set_defaults(op=_verify_dimension, bounds={"spectral_gap": VERIFY_GAP})

    p = subs.add_parser("sample", help="seeded random state, unitary, or density matrix")
    p.add_argument("--kind", choices=("pure", "unitary", "density"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    _add_io(p)
    p.set_defaults(op=_sample)

    return parser


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (DmgeoError, MemoryError) as exc:
        text = str(exc)
        if isinstance(exc, MemoryError):
            # numpy's allocation failure carries no code of its own
            text = f"OutOfMemory: {text}" if text else "OutOfMemory"
        print(f"error: {text}", file=sys.stderr)
        return next(code for family, code in _EXIT_CODES if isinstance(exc, family))


if __name__ == "__main__":
    sys.exit(main())
