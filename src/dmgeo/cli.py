"""Command-line front end.

One subcommand per analysis; matrix documents in, matrix documents or
report documents out.  Exit codes: 0 ok, 1 verification mismatch,
2 parse/usage error, 3 validation error, 4 precondition error or
input too large to allocate, 5 numerical failure.
"""

from __future__ import annotations

import argparse
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


def _write(args, doc):
    text = docs.dumps(doc)
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {args.out}: {exc}") from exc


def _cmd_document(args) -> int:
    # read one document of args.kind; args.op returns a typed value, written
    # as a matrix document, or a results dict, written as a report
    text = _read(args.infile)
    out = args.op(docs.parse_matrix_document(text, args.kind), args)
    if isinstance(out, dict):
        out = docs.report_document(
            command=args.command,
            inputs={args.kind: docs.digest(text)},
            results=out,
            tolerances={"tol": args.tol} if "tol" in args else {},
        )
    _write(args, out)
    return EXIT_OK


def _cmd_connect(args) -> int:
    if args.psi in (None, "-") and args.phi in (None, "-"):
        raise DocumentError("only one of --psi/--phi may read stdin")
    psi_text = _read(args.psi)
    phi_text = _read(args.phi)
    psi = docs.parse_matrix_document(psi_text, "pure_state")
    phi = docs.parse_matrix_document(phi_text, "pure_state")
    v = connecting_unitary(psi, phi, tol=args.tol)
    residual = ray_distance(apply_local_b(psi, v), phi)
    ok = residual <= RESIDUAL_BOUND
    report = docs.report_document(
        command="connect",
        inputs={"psi": docs.digest(psi_text), "phi": docs.digest(phi_text)},
        results={"unitary": v, "residual": residual},
        tolerances={"tol": args.tol, "residual_bound": RESIDUAL_BOUND},
        status="ok" if ok else "ResidualTooLarge",
    )
    _write(args, report)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _classify(rho, args) -> dict:
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
    }


def _split(rho, args) -> dict:
    split = convex_split(rho, tol=args.tol)
    return {
        "weights": [float(w) for w in split.weights],
        "components": split.components,
    }


def _bloch(rho, args) -> dict:
    r = bloch_vector(rho)
    return {"vector": {"x": r.x, "y": r.y, "z": r.z}}


def _cmd_bloch(args) -> int:
    if args.coords is None:
        return _cmd_document(args)
    if args.infile is not None:
        raise DocumentError("--from builds the density, so it takes no --in")
    rho = density_from_bloch(BlochVector(*args.coords))
    report = docs.report_document(
        command="bloch",
        inputs={},
        results={"density": rho},
        tolerances={},
    )
    _write(args, report)
    return EXIT_OK


def _cmd_verify_dimension(args) -> int:
    formula = stratum_dimension(args.n, args.mu)
    ranks = []
    for index in range(args.samples):
        rho = random_generic_density(args.n, args.mu, args.seed + index, gap=VERIFY_GAP)
        ranks.append(tangent_space_rank(rho, tol=args.tol))
    all_match = all(r == formula for r in ranks)
    report = docs.report_document(
        command="verify-dimension",
        inputs={},
        results={
            "n": args.n,
            "mu": args.mu,
            "formula": formula,
            "ranks": ranks,
            "all_match": all_match,
        },
        tolerances={"tol": args.tol, "spectral_gap": VERIFY_GAP},
        status="ok" if all_match else "RankMismatch",
    )
    _write(args, report)
    return EXIT_OK if all_match else EXIT_FAIL


def _cmd_sample(args) -> int:
    mu = args.n if args.mu is None else args.mu
    check_rank_range(args.n, mu)
    if args.kind == "pure":
        value = random_pure(args.n * args.n, args.seed)
    elif args.kind == "unitary":
        value = random_unitary(args.n, args.seed)
    else:
        value = random_density(args.n, mu, args.seed)
    _write(args, value)
    return EXIT_OK


def _add_io(sub, infile=True):
    if infile:
        sub.add_argument("--in", dest="infile", default=None, metavar="FILE",
                         help="input document (default: stdin)")
    sub.add_argument("--out", dest="out", default=None, metavar="FILE",
                     help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmgeo", description="density-matrix geometry toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("purify", help="density document -> canonical purification")
    _add_io(p)
    p.set_defaults(func=_cmd_document, kind="density", op=lambda rho, args: purify(rho))

    p = subs.add_parser("trace", help="pure-state document -> partial trace over B")
    _add_io(p)
    p.set_defaults(func=_cmd_document, kind="pure_state",
                   op=lambda psi, args: partial_trace_b(psi))

    p = subs.add_parser("connect", help="unitary linking two purifications")
    p.add_argument("--psi", required=True, metavar="FILE", help="first state ('-' for stdin)")
    p.add_argument("--phi", required=True, metavar="FILE", help="second state ('-' for stdin)")
    p.add_argument("--tol", type=_tol, default=CONNECT_TOL,
                   help="entrywise bound on the partial-trace mismatch")
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_connect)

    p = subs.add_parser("classify", help="rank and stratum data of a density matrix")
    _add_io(p)
    p.add_argument("--tol", type=_tol, default=RANK_TOL)
    p.set_defaults(func=_cmd_document, kind="density", op=_classify)

    p = subs.add_parser("split", help="convex split into rank mu-1 components")
    _add_io(p)
    p.add_argument("--tol", type=_tol, default=RANK_TOL)
    p.set_defaults(func=_cmd_document, kind="density", op=_split)

    p = subs.add_parser("bloch", help="Bloch vector of a qubit state, or the inverse")
    _add_io(p)
    p.add_argument("--from", dest="coords", nargs=3, type=float, default=None,
                   metavar=("X", "Y", "Z"), help="build the density matrix instead")
    p.set_defaults(func=_cmd_bloch, kind="density", op=_bloch)

    p = subs.add_parser("verify-dimension",
                        help="check the stratum dimension formula on random samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tol, default=RANK_TOL)
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_verify_dimension)

    p = subs.add_parser("sample", help="seeded random state, unitary, or density matrix")
    p.add_argument("--kind", choices=("pure", "unitary", "density"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DmgeoError, MemoryError) as exc:
        text = str(exc)
        if isinstance(exc, MemoryError):
            # numpy's allocation failure carries no code of its own
            text = f"OutOfMemory: {text}" if text else "OutOfMemory"
        print(f"error: {text}", file=sys.stderr)
        return next(code for family, code in _EXIT_CODES if isinstance(exc, family))


if __name__ == "__main__":
    sys.exit(main())
