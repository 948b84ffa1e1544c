"""Command-line front end.

One subcommand per analysis; matrix documents in, matrix documents or
report documents out.  Exit codes: 0 ok, 1 verification mismatch,
2 parse/usage error, 3 validation error, 4 precondition error,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import documents as docs
from .core import DensityMatrix, PureState, Unitary, ray_distance
from .errors import (
    DocumentError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from .purification import apply_local_b, connecting_unitary, partial_trace_b, purify
from .sampling import (
    SamplerConfig,
    random_density,
    random_generic_density,
    random_pure,
    random_unitary,
)
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


def _read(path) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path or 'stdin'}: {exc}") from exc


def _write(args, doc: dict):
    text = docs.dumps(doc)
    out = getattr(args, "out", None)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


_KIND_TYPES = {"density": DensityMatrix, "pure_state": PureState, "unitary": Unitary}


def _load(text: str, kind: str):
    value = docs.parse_matrix_document(text)
    if not isinstance(value, _KIND_TYPES[kind]):
        raise DocumentError(f"expected a {kind} document")
    return value


def _cmd_purify(args) -> int:
    rho = _load(_read(args.infile), "density")
    _write(args, docs.matrix_document(purify(rho)))
    return EXIT_OK


def _cmd_trace(args) -> int:
    psi = _load(_read(args.infile), "pure_state")
    _write(args, docs.matrix_document(partial_trace_b(psi)))
    return EXIT_OK


def _cmd_connect(args) -> int:
    if args.psi in (None, "-") and args.phi in (None, "-"):
        raise DocumentError("only one of --psi/--phi may read stdin")
    psi_text = _read(args.psi)
    phi_text = _read(args.phi)
    psi = _load(psi_text, "pure_state")
    phi = _load(phi_text, "pure_state")
    v = connecting_unitary(psi, phi, tol=args.tol)
    residual = ray_distance(apply_local_b(psi, v), phi)
    ok = residual <= RESIDUAL_BOUND
    report = docs.report_document(
        command="connect",
        inputs={"psi": docs.digest(psi_text), "phi": docs.digest(phi_text)},
        results={"unitary": docs.matrix_document(v), "residual": residual},
        tolerances={"tol": args.tol, "residual_bound": RESIDUAL_BOUND},
        status="ok" if ok else "ResidualTooLarge",
    )
    _write(args, report)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_classify(args) -> int:
    text = _read(args.infile)
    rho = _load(text, "density")
    info = classify(rho, tol=args.tol)
    purity = float((rho.matrix @ rho.matrix).trace().real)
    report = docs.report_document(
        command="classify",
        inputs={"density": docs.digest(text)},
        results={
            "n": info.n,
            "mu": info.mu,
            "stratum_dim": info.stratum_dim,
            "stabilizer_dim": info.stabilizer_dim,
            "is_pure": info.is_pure,
            "is_full_rank": info.is_full_rank,
            "purity": purity,
            "eigenvalues": list(info.eigenvalues),
        },
        tolerances={"tol": args.tol},
    )
    _write(args, report)
    return EXIT_OK


def _cmd_split(args) -> int:
    text = _read(args.infile)
    rho = _load(text, "density")
    split = convex_split(rho, tol=args.tol)
    report = docs.report_document(
        command="split",
        inputs={"density": docs.digest(text)},
        results={
            "weights": [float(w) for w in split.weights],
            "components": [docs.matrix_document(c) for c in split.components],
        },
        tolerances={"tol": args.tol},
    )
    _write(args, report)
    return EXIT_OK


def _cmd_bloch(args) -> int:
    if args.coords is not None:
        x, y, z = args.coords
        rho = density_from_bloch(BlochVector(x, y, z))
        report = docs.report_document(
            command="bloch",
            inputs={},
            results={"density": docs.matrix_document(rho)},
            tolerances={},
        )
    else:
        text = _read(args.infile)
        rho = _load(text, "density")
        r = bloch_vector(rho)
        report = docs.report_document(
            command="bloch",
            inputs={"density": docs.digest(text)},
            results={"vector": {"x": r.x, "y": r.y, "z": r.z}},
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
    config = SamplerConfig(seed=args.seed, n=args.n, mu=args.mu)
    if args.kind == "pure":
        value = random_pure(config.n * config.n, config.seed)
    elif args.kind == "unitary":
        value = random_unitary(config.n, config.seed)
    else:
        mu = config.mu if config.mu is not None else config.n
        value = random_density(config.n, mu, config.seed)
    _write(args, docs.matrix_document(value))
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
    p.set_defaults(func=_cmd_purify)

    p = subs.add_parser("trace", help="pure-state document -> partial trace over B")
    _add_io(p)
    p.set_defaults(func=_cmd_trace)

    p = subs.add_parser("connect", help="unitary linking two purifications")
    p.add_argument("--psi", required=True, metavar="FILE", help="first state ('-' for stdin)")
    p.add_argument("--phi", required=True, metavar="FILE", help="second state ('-' for stdin)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="entrywise bound on the partial-trace mismatch")
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_connect)

    p = subs.add_parser("classify", help="rank and stratum data of a density matrix")
    _add_io(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("split", help="convex split into rank mu-1 components")
    _add_io(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_split)

    p = subs.add_parser("bloch", help="Bloch vector of a qubit state, or the inverse")
    _add_io(p)
    p.add_argument("--from", dest="coords", nargs=3, type=float, default=None,
                   metavar=("X", "Y", "Z"), help="build the density matrix instead")
    p.set_defaults(func=_cmd_bloch)

    p = subs.add_parser("verify-dimension",
                        help="check the stratum dimension formula on random samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
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
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
