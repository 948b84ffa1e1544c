import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmgeo import cli, core, documents as docs, sampling
from dmgeo.cli import main as cli_main
from dmgeo.purification import apply_local_b, purify

GOLDEN_DIR = Path(__file__).parent / "golden"


def density_doc_text(values) -> str:
    rho = core.validate_density(np.diag(values).astype(complex))
    return docs.dumps(docs.matrix_document(rho))


def bell_doc_text() -> str:
    psi = purify(core.validate_density(np.eye(2, dtype=complex) / 2))
    return docs.dumps(docs.matrix_document(psi))


HALF_MIX = density_doc_text([0.5, 0.5])
BELL = bell_doc_text()

# one golden per subcommand, all on fixed inputs and seeds
CASES = [
    {"name": "purify_halfmix", "args": ["purify"], "stdin": HALF_MIX, "files": {}},
    {"name": "trace_bell", "args": ["trace"], "stdin": BELL, "files": {}},
    {
        "name": "connect_bell_bell",
        "args": ["connect", "--psi", "{dir}/psi.json", "--phi", "{dir}/phi.json"],
        "stdin": None,
        "files": {"psi.json": BELL, "phi.json": BELL},
    },
    {
        "name": "classify_rank3_of5",
        "args": ["classify"],
        "stdin": density_doc_text([0.5, 0.3, 0.2, 0.0, 0.0]),
        "files": {},
    },
    {
        "name": "split_qubit",
        "args": ["split"],
        "stdin": density_doc_text([0.7, 0.3]),
        "files": {},
    },
    {
        "name": "bloch_from_vector",
        "args": ["bloch", "--from", "0.3", "-0.4", "0.5"],
        "stdin": None,
        "files": {},
    },
    {
        "name": "verify_dimension_2_2",
        "args": ["verify-dimension", "--n", "2", "--mu", "2", "--samples", "3", "--seed", "1"],
        "stdin": None,
        "files": {},
    },
    {
        "name": "sample_density_2_2",
        "args": ["sample", "--kind", "density", "--n", "2", "--mu", "2", "--seed", "42"],
        "stdin": None,
        "files": {},
    },
    {
        "name": "sample_pure_3",
        "args": ["sample", "--kind", "pure", "--n", "3", "--seed", "7"],
        "stdin": None,
        "files": {},
    },
    {
        "name": "sample_unitary_3",
        "args": ["sample", "--kind", "unitary", "--n", "3", "--seed", "7"],
        "stdin": None,
        "files": {},
    },
]


def run_case(case, run_cli, tmp_dir: Path):
    for name, text in case["files"].items():
        (tmp_dir / name).write_text(text)
    args = [a.replace("{dir}", str(tmp_dir)) for a in case["args"]]
    return run_cli(args, stdin_text=case["stdin"])


def call_main(args, stdin_text=""):
    # in-process variant of the CLI for cheap corpus sweeps
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    captured = io.StringIO()
    sys.stdout = captured
    try:
        rc = cli_main(args)
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return rc, captured.getvalue()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_golden(case, run_cli, tmp_path, regen_goldens):
    rc, out, err = run_case(case, run_cli, tmp_path)
    assert rc == 0, err
    golden = GOLDEN_DIR / f"{case['name']}.json"
    if regen_goldens:
        golden.write_text(out)
    assert golden.read_text() == out


def test_purify_trace_pipeline(run_cli):
    for seed in range(6):
        n = 2 + seed % 3
        rho = sampling.random_density(n, 1 + seed % n, seed)
        text = docs.dumps(docs.matrix_document(rho))
        rc, purified, err = run_cli(["purify"], stdin_text=text)
        assert rc == 0, err
        rc, traced, err = run_cli(["trace"], stdin_text=purified)
        assert rc == 0, err
        back = docs.parse_matrix_document(traced)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-11


def test_emitted_documents_reparse_bitwise(run_cli):
    rc, out, _ = run_cli(["sample", "--kind", "pure", "--n", "2", "--seed", "3"])
    assert rc == 0
    first = docs.parse_matrix_document(out)
    again = docs.dumps(docs.matrix_document(first))
    assert again == out


def test_exit_code_parse_error(run_cli):
    # nesting deeper than the recursion limit is a parse error, not a crash
    for text in ("not json", "[" * 200000):
        rc, out, err = run_cli(["purify"], stdin_text=text)
        assert rc == 2
        assert out == ""
        assert "DocumentError" in err and "Traceback" not in err


def _diagonal_density_text(diagonal) -> str:
    n = len(diagonal)
    data = [[[x if i == j else 0, 0] for j in range(n)] for i, x in enumerate(diagonal)]
    return json.dumps({"kind": "density", "n": n, "data": data})


def test_exit_code_validation_error(run_cli):
    # finite entries whose sums overflow must fail validation (a nan compares
    # false) and print no numpy warning ahead of the one error line
    for command, doc, code in (
        ("purify", '{"kind": "density", "n": 2, "data": [[[1.0, 0], [0, 0]], [[0, 0], [0.1, 0]]]}',
         "TraceNotOne"),
        ("purify", _diagonal_density_text([1.7e308, 1.7e308, -1.7e308, -1.7e308, 0, 0, 0, 0]),
         "TraceNotOne"),
        ("trace", '{"kind": "pure_state", "n": 1, "data": [[1e300, 0]]}', "NotNormalized"),
    ):
        rc, out, err = run_cli([command], stdin_text=doc)
        assert rc == 3
        assert out == ""
        assert err.startswith(f"error: {code}:") and err.count("\n") == 1


def test_exit_code_wrong_amplitude_count(run_cli):
    doc = '{"kind": "pure_state", "n": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}'
    rc, out, err = run_cli(["trace"], stdin_text=doc)
    assert rc == 2
    assert out == ""


def test_exit_code_wrong_kind(run_cli):
    # the kind is checked before the numbers, so an invalid density is still
    # the wrong kind for trace
    for command, doc, expected in (
        ("purify", BELL, "density"),
        ("trace", density_doc_text([0.5, 0.5]).replace("0.5", "0.7"), "pure_state"),
    ):
        rc, out, err = run_cli([command], stdin_text=doc)
        assert (rc, out) == (2, "")
        assert f"expected a {expected}" in err


def test_exit_code_connect_mismatch(run_cli, tmp_path):
    psi = tmp_path / "psi.json"
    phi = tmp_path / "phi.json"
    psi.write_text(docs.dumps(docs.matrix_document(purify(
        core.validate_density(np.diag([0.7, 0.3]).astype(complex))))))
    phi.write_text(docs.dumps(docs.matrix_document(purify(
        core.validate_density(np.diag([0.6, 0.4]).astype(complex))))))
    rc, out, err = run_cli(["connect", "--psi", str(psi), "--phi", str(phi)])
    assert rc == 4
    assert out == ""
    assert "PartialTraceMismatch" in err


def test_exit_code_split_pure(run_cli):
    rc, out, err = run_cli(["split"], stdin_text=density_doc_text([1.0, 0.0]))
    assert rc == 4
    assert "AlreadyPure" in err


def test_exit_code_split_near_pure(capsys):
    # a valid qubit with 1 - lam_max = 1e-8: classify reads rank 2, and split
    # refuses it up front as too near pure instead of blaming the input
    u = sampling.random_unitary(2, 14800).matrix
    text = docs.dumps(docs.matrix_document(
        core.validate_density((u * np.array([1 - 1e-8, 1e-8])) @ u.conj().T)))
    rc, out = call_main(["split"], text)
    assert (rc, out) == (4, "")
    assert capsys.readouterr().err.startswith("error: DegenerateTotalWeight: 1 - lam_max = ")
    rc, out = call_main(["classify"], text)
    assert rc == 0
    assert json.loads(out)["results"]["mu"] == 2


def test_exit_code_split_skewed_near_pure(capsys):
    # a document the reader accepts: lam = (1 - 1e-5, 6e-6, 3e-6, 1e-6)
    # rotated, plus 5e-13 on the strict upper triangle; classify reads rank
    # 4, and split refuses it up front as too near pure (exit 4) instead of
    # blaming the input with NotHermitian (exit 3)
    u = sampling.random_unitary(4, 7).matrix
    m = (u * np.array([1 - 1e-5, 6e-6, 3e-6, 1e-6])) @ u.conj().T
    text = docs.dumps(core.DensityMatrix(m + np.triu(np.full((4, 4), 5e-13), 1)))
    docs.parse_matrix_document(text, "density")
    rc, out = call_main(["split"], text)
    assert (rc, out) == (4, "")
    assert capsys.readouterr().err.startswith("error: DegenerateTotalWeight: 1 - lam_max = ")
    rc, out = call_main(["classify"], text)
    assert rc == 0
    assert json.loads(out)["results"]["mu"] == 4


def test_exit_code_bloch_outside_ball(run_cli):
    # huge coordinates must not overflow the norm into a traceback
    for coords in (["1.0", "0.1", "0.0"], ["1e308", "1e308", "0"]):
        rc, out, err = run_cli(["bloch", "--from", *coords])
        assert rc == 4
        assert "OutsideBall" in err and "Traceback" not in err


@pytest.mark.parametrize("text, plain", [("-2e-05", "-0.00002"), ("-1E+00", "-1"),
                                         ("-.5e-3", "-0.0005")])
def test_bloch_from_reads_negative_exponent_forms(text, plain):
    # argparse's own negative-number pattern has no exponent, so these were
    # read as options and --from came up short
    for place in range(3):
        coords = ["0", "0", "0"]
        rc, out = call_main(["bloch", "--from", *coords[:place], text, *coords[place + 1:]])
        coords[place] = plain
        assert (rc, out) == call_main(["bloch", "--from", *coords])
        assert rc == 0 and '"status": "ok"' in out
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        call_main(["bloch", "--from", "0.1", "0.2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text, plain", [("-1_0", "-10"), ("-0.1_0", "-0.10"),
                                         ("-.2_5e-0_1", "-0.025"), ("-1_0E-1", "-1.0")])
def test_bloch_from_reads_negative_digit_underscores(text, plain):
    # float() reads one "_" between digits, but argparse's pattern did not,
    # so these were read as options and --from came up short
    for place in range(3):
        coords = ["0", "0", "0"]
        coords[place] = text
        with contextlib.redirect_stderr(io.StringIO()) as err:
            got = call_main(["bloch", "--from", *coords])
        coords[place] = plain
        with contextlib.redirect_stderr(io.StringIO()) as plain_err:
            assert got == call_main(["bloch", "--from", *coords])
        assert err.getvalue() == plain_err.getvalue()
    for text in ("-1__0", "-1_", "-1_.5"):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            call_main(["bloch", "--from", "0", text, "0"])
        assert exc.value.code == 2


@pytest.mark.parametrize("text, number", [("0.5 ", True), ("1e5", True), ("inf", True),
                                          ("1_0", True), ("0x1", False)])
def test_bloch_from_reads_negative_numbers_as_float_does(text, number):
    # --from reads "-x" as a number exactly when it reads "x" as one; a
    # coordinate that is not a number ends in a usage error, exit 2
    def exit_code(coord, place):
        coords = ["0", "0", "0"]
        coords[place] = coord
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return call_main(["bloch", "--from", *coords])[0]
            except SystemExit as exc:
                return exc.code

    for place in range(3):
        assert (exit_code(text, place) != 2) == (exit_code("-" + text, place) != 2) == number


def test_exit_code_sample_rank_range(run_cli):
    for argv in (
        ["--kind", "density", "--n", "2", "--mu", "3", "--seed", "1"],
        ["--kind", "pure", "--n", "-3"],
        ["--kind", "pure", "--n", "2", "--mu", "5"],
    ):
        rc, out, err = run_cli(["sample", *argv])
        assert (rc, out) == (4, "")
        assert "RankOutOfRange" in err


def test_exit_code_bad_seed(run_cli):
    rc, out, err = run_cli(["sample", "--kind", "pure", "--n", "2", "--seed", "zz"])
    assert rc == 2


def test_exit_code_unknown_command(run_cli):
    rc, out, err = run_cli(["frobnicate"])
    assert rc == 2


def test_hex_and_decimal_seeds_agree(run_cli):
    rc_a, out_a, _ = run_cli(["sample", "--kind", "unitary", "--n", "2", "--seed", "0x2A"])
    rc_b, out_b, _ = run_cli(["sample", "--kind", "unitary", "--n", "2", "--seed", "42"])
    assert rc_a == rc_b == 0
    assert out_a == out_b


def test_connect_reads_stdin(run_cli, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(BELL)
    rc, out, err = run_cli(["connect", "--psi", "-", "--phi", str(phi)], stdin_text=BELL)
    assert rc == 0, err
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["results"]["residual"] <= 1e-9
    assert set(report["inputs"]) == {"psi", "phi"}


def test_connect_refuses_two_stdin_readers(monkeypatch):
    stdin = io.StringIO(BELL)
    monkeypatch.setattr(sys, "stdin", stdin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(["connect", "--psi", "-", "--phi", "-"])
    assert (rc, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: DocumentError: only one of --psi/--phi may read stdin\n"
    # refused before either input is read
    assert stdin.tell() == 0


def test_connect_residual_too_large(fuzz_paths, monkeypatch):
    monkeypatch.setattr(cli, "ray_distance", lambda psi, phi: 1e-6)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = call_main(["connect", "--psi", fuzz_paths["bell"], "--phi", fuzz_paths["bell"]])
    assert (rc, err.getvalue()) == (5, "")
    report = json.loads(out)
    assert report["status"] == "ResidualTooLarge"
    assert report["results"]["residual"] == 1e-6
    assert docs.parse_matrix_document(json.dumps(report["results"]["unitary"]), "unitary").n == 2
    assert report["tolerances"]["residual_bound"] == cli.RESIDUAL_BOUND


def test_connect_rank_deficient_pair(tmp_path):
    # a rank-2 purification from numpy's eigh with its kernel coefficients at
    # 1e-8, moved on B by two unitaries: the pair is related exactly, and a
    # support cut on the reduced spectrum would leave a residual near 1e-8
    g = sampling.complex_normal(np.random.default_rng(5), (4, 2))
    lam, vec = np.linalg.eigh(g @ g.conj().T)
    s = np.sqrt(np.abs(lam))
    s[:2] = 1e-8
    c = vec * s
    base = core.PureState((c / np.linalg.norm(c)).reshape(-1))
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"state{seed}.json"
        moved = apply_local_b(base, sampling.random_unitary(4, seed))
        path.write_text(docs.dumps(docs.matrix_document(moved)))
        paths.append(str(path))
    rc, out = call_main(["connect", "--psi", paths[0], "--phi", paths[1]])
    report = json.loads(out)
    assert (rc, report["status"]) == (0, "ok")
    assert report["results"]["residual"] <= 1e-12


def test_out_flag_writes_file(run_cli, tmp_path):
    target = tmp_path / "out.json"
    rc, out, err = run_cli(["purify", "--out", str(target)], stdin_text=HALF_MIX)
    assert rc == 0
    assert out == ""
    assert docs.parse_matrix_document(target.read_text()).n == 2


@pytest.mark.parametrize("command", [
    (["classify"], HALF_MIX),
    (["connect", "--psi", "-", "--phi", "{bell}"], BELL),
    (["bloch", "--from", "0.3", "-0.4", "0.5"], ""),
], ids=lambda c: c[0][0])
def test_out_flag_writes_report_file(fuzz_paths, tmp_path, command):
    argv, stdin_text = command
    argv = [a.format(**fuzz_paths) for a in argv]
    target = tmp_path / "report.json"
    rc, expected = call_main(argv, stdin_text)
    assert rc == 0 and '"status": "ok"' in expected
    assert call_main([*argv, "--out", str(target)], stdin_text) == (0, "")
    assert target.read_text() == expected


def test_verify_dimension_report(run_cli):
    rc, out, err = run_cli(
        ["verify-dimension", "--n", "3", "--mu", "2", "--samples", "4", "--seed", "9"]
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["results"]["formula"] == 7
    assert report["results"]["ranks"] == [7, 7, 7, 7]
    assert report["results"]["all_match"] is True
    assert report["status"] == "ok"


def test_verify_dimension_one_level(run_cli):
    rc, out, err = run_cli(["verify-dimension", "--n", "1", "--mu", "1", "--samples", "2"])
    assert rc == 0, err
    report = json.loads(out)
    assert report["results"]["formula"] == 0
    assert report["results"]["ranks"] == [0, 0]
    assert report["results"]["all_match"] is True


def test_verify_dimension_rank_mismatch(monkeypatch):
    formula = cli.stratum_dimension(3, 2)
    monkeypatch.setattr(cli, "tangent_space_rank", lambda rho, tol: formula + 1)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = call_main(["verify-dimension", "--n", "3", "--mu", "2", "--samples", "2"])
    assert (rc, err.getvalue()) == (1, "")
    report = json.loads(out)
    assert report["status"] == "RankMismatch"
    assert report["results"]["ranks"] == [formula + 1] * 2
    assert report["results"]["all_match"] is False


def test_in_process_main_matches_subprocess(run_cli):
    rc_a, out_a = call_main(["classify"], stdin_text=HALF_MIX)
    rc_b, out_b, _ = run_cli(["classify"], stdin_text=HALF_MIX)
    assert (rc_a, out_a) == (rc_b, out_b)


def test_exit_code_bloch_from_non_finite(run_cli):
    rc, out, err = run_cli(["bloch", "--from", "nan", "0", "0"])
    assert (rc, out) == (3, "")
    assert "NotFinite" in err and "Traceback" not in err


@pytest.mark.parametrize("sign", ["", "+", "-"])
@pytest.mark.parametrize("spelling", ["inf", "Inf", "INFINITY", "Infinity", "nan", "NaN"])
def test_bloch_from_non_finite_exits_3_for_each_spelling(sign, spelling):
    # argparse's negative-number pattern read "-inf" and "-nan" as options,
    # so --from came up short and exited 2 with a usage message
    for place in range(3):
        coords = ["0", "0", "0"]
        coords[place] = sign + spelling
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = call_main(["bloch", "--from", *coords])
        assert (rc, out) == (3, "")
        assert err.getvalue().startswith("error: NotFinite:") and err.getvalue().count("\n") == 1


def test_exit_code_verify_dimension_no_samples(run_cli):
    for count in ("0", "-3"):
        rc, out, err = run_cli(["verify-dimension", "--n", "2", "--mu", "2", "--samples", count])
        assert (rc, out) == (2, "")
        assert "Traceback" not in err


def test_exit_code_unreadable_input(run_cli, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (
        ["--in", str(tmp_path / "missing.json")],
        ["--in", str(binary)],
        ["--in", str(tmp_path)],
        ["--out", str(tmp_path / "missing" / "out.json")],
    ):
        rc, out, err = run_cli(["purify", *argv], stdin_text=HALF_MIX)
        assert (rc, out) == (2, "")
        assert "DocumentError" in err and "Traceback" not in err
    # bloch --from builds its density, so any --in next to it is a usage error
    for infile in (str(tmp_path / "missing.json"), "-"):
        rc, out, err = run_cli(["bloch", "--from", "0", "0", "0", "--in", infile],
                               stdin_text=HALF_MIX)
        assert (rc, out) == (2, "")
        assert "DocumentError" in err and "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_exit_code_closed_stdout(unbuffered):
    # purify writes only after reading all of stdin, so closing the only read
    # end of its stdout first makes the write fail on every run
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "dmgeo.cli", "purify"], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    proc.stdin.write(HALF_MIX)
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: DocumentError: cannot write stdout: ") and err.count("\n") == 1
    # -h reads no stdin, so the read end is closed before the child starts
    for argv in (["purify", "-h"], ["-h"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "dmgeo.cli", *argv], env=env, text=True,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: DocumentError: cannot write stdout: "), argv
        assert proc.stderr.count("\n") == 1, argv


# --- the parser: built once per process, the same text as a fresh build ---
# The two "partial_parser" tests keep the names they had when main built a
# parser with the invoked subcommand alone; main now parses with the one
# cached full parser, and they check it against a fresh full build.

def _parse_outcome(parse, argv):
    # (exit code, stdout, stderr, namespace) of one parse; help and usage
    # errors end in SystemExit
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = parse(argv), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _fresh_parse(argv):
    return cli.build_parser.__wrapped__().parse_args(argv)


# the subcommand names, in help order
_COMMANDS = tuple(next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)))

# help and usage errors, each run through main right after the one before it
_TEXT_ARGV = [
    *([name, "-h"] for name in _COMMANDS),
    ["purify", "--bogus"],
    ["sample", "--n", "2"],
    ["classify", "--tol", "2"],
    ["bloch", "--from", "1", "2"],
]


@pytest.mark.parametrize("argv", _TEXT_ARGV, ids="_".join)
def test_partial_parser_text_matches_full(argv, monkeypatch):
    before = _TEXT_ARGV[_TEXT_ARGV.index(argv) - 1]
    outcomes = []
    # the width is read when the text is formatted, not when the parser is built
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        _parse_outcome(cli_main, before)
        cached = _parse_outcome(cli_main, argv)
        assert cached[0] is not None and cached == _parse_outcome(_fresh_parse, argv)
        outcomes.append(cached)
    if argv[-1] == "-h":
        assert outcomes[0][1] != outcomes[1][1]


# one argv that parses, for each subcommand
_VALID_ARGV = {
    "purify": ["purify", "--in", "rho.json"],
    "trace": ["trace", "--out", "-"],
    "connect": ["connect", "--psi", "-", "--phi", "phi.json", "--tol", "1e-6"],
    "classify": ["classify", "--tol", "0.001", "--in", "-"],
    "split": ["split"],
    "bloch": ["bloch", "--from", "0.1", "0", "-0.2"],
    "verify-dimension": ["verify-dimension", "--n", "3", "--mu", "2", "--seed", "0x10"],
    "sample": ["sample", "--kind", "density", "--n", "3", "--mu", "2", "--out", "x.json"],
}


def _comparable(namespace):
    # each build makes its own op lambdas; compare them by their code
    values = vars(namespace)
    if "op" in values:
        values["op"] = values["op"].__code__
    return values


def test_partial_parser_parses_same_namespace():
    assert tuple(_VALID_ARGV) == _COMMANDS
    for argv in _VALID_ARGV.values():
        assert _parse_outcome(cli.build_parser().parse_args, [argv[0], "--bogus"])[0] == 2
        cached = cli.build_parser().parse_args(argv)
        assert _comparable(cached) == _comparable(_fresh_parse(argv)), argv


def test_main_builds_the_parser_once(monkeypatch):
    built = []

    class Recording(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Recording)
    cli.build_parser.cache_clear()
    try:
        for argv, stdin in ((["purify"], HALF_MIX), (["trace"], BELL),
                            (["sample", "--kind", "pure", "--n", "2"], "")):
            assert call_main(argv, stdin)[0] == 0, argv
        for argv, code in ((["nope"], 2), (["classify", "-h"], 0)):
            assert _parse_outcome(cli_main, argv)[0] == code, argv
    finally:
        # leave no parser of the recording class cached for later tests
        cli.build_parser.cache_clear()
    assert built == ["dmgeo", *(f"dmgeo {name}" for name in _COMMANDS)]


@pytest.mark.parametrize("argv, stderr_part", [
    ([], "error: the following arguments are required: command\n"),
    (["nope"], "error: argument command: invalid choice: 'nope'"),
    (["-h"], ""),
], ids=["empty", "unknown", "help"])
def test_main_full_parser_without_a_command(argv, stderr_part):
    outcome = _parse_outcome(cli_main, argv)
    assert outcome == _parse_outcome(_fresh_parse, argv)
    # the parser names the argument "command", not its list of choices
    assert stderr_part in outcome[2]


# every subcommand that reaches each LAPACK routine, with the input it needs
_LAPACK_REACH = {
    "eigh": ("purify", "classify", "split", "bloch", "sample-density", "verify-dimension"),
    "eigvalsh": (),
    "svd": ("connect", "verify-dimension"),
    "qr": ("connect", "sample-unitary"),
    "det": ("connect",),
}


def _lapack_runs(bell_path):
    return {
        **{name: ([name], HALF_MIX) for name in ("purify", "classify", "split", "bloch")},
        "trace": (["trace"], BELL),
        "connect": (["connect", "--psi", "-", "--phi", bell_path], BELL),
        "verify-dimension": (["verify-dimension", "--n", "3", "--mu", "2", "--samples", "1"], ""),
        "sample-density": (["sample", "--kind", "density", "--n", "2"], ""),
        "sample-unitary": (["sample", "--kind", "unitary", "--n", "2"], ""),
        "sample-pure": (["sample", "--kind", "pure", "--n", "2"], ""),
    }


@pytest.mark.parametrize("routine", sorted(_LAPACK_REACH))
def test_exit_code_lapack_failure(routine, monkeypatch, tmp_path):
    bell_path = tmp_path / "bell.json"
    bell_path.write_text(BELL)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    monkeypatch.setattr(np.linalg, routine, fail)
    for name, (argv, stdin_text) in _lapack_runs(str(bell_path)).items():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc, out = call_main(argv, stdin_text)
        if name in _LAPACK_REACH[routine]:
            assert (rc, out) == (5, ""), name
            assert err.getvalue() == "error: DecompositionFailure: injected failure\n", name
        else:
            assert rc == 0, name


@pytest.mark.parametrize("command", ["purify", "classify", "split"])
def test_density_document_is_decomposed_once(command, lapack_calls):
    # the parse's positivity check takes the eigh that the op then reads
    text = density_doc_text([0.5, 0.3, 0.2, 0.0])
    lapack_calls.clear()
    assert call_main([command], text)[0] == 0
    assert lapack_calls == {"eigh": 1}


def test_verify_dimension_sample_is_decomposed_once(lapack_calls):
    # the sampler's spectrum test takes the eigh that tangent_space_rank
    # reads; the svd is the tangent stack's
    rc, out = call_main(["verify-dimension", "--n", "4", "--mu", "3", "--samples", "1"])
    assert rc == 0 and json.loads(out)["status"] == "ok"
    assert lapack_calls == {"eigh": 1, "svd": 1}


def test_exit_code_out_of_memory(monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(np.linalg, "qr", fail)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = call_main(["sample", "--kind", "unitary", "--n", "2"])
    assert (rc, out) == (4, "")
    assert err.getvalue() == "error: OutOfMemory: Unable to allocate 596. GiB for an array\n"


# each element count is past what numpy can ever allocate, so none is tried;
# 2^32 squared is 2^64, which an int64 product wraps to 0
@pytest.mark.parametrize("argv", [
    ["sample", "--kind", "pure", "--n", "10000000000"],
    ["sample", "--kind", "unitary", "--n", "100000000000000000000"],
    ["sample", "--kind", "unitary", "--n", str(2**32)],
    ["sample", "--kind", "density", "--n", "100000000000000000000", "--mu", "1"],
    ["verify-dimension", "--n", "100000000000000000000", "--mu", "1"],
], ids=["pure", "unitary", "unitary-2^32", "density", "verify-dimension"])
def test_exit_code_oversize_n(argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = call_main(argv)
    assert (rc, out) == (4, "")
    assert err.getvalue().startswith("error: OutOfMemory: cannot allocate ")
    assert err.getvalue().count("\n") == 1


def test_verify_dimension_refuses_a_cut_below_every_singular_value():
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = call_main(["verify-dimension", "--n", "3", "--mu", "3", "--tol", "1e-300"])
    assert (rc, out) == (5, "")
    assert err.getvalue().startswith("error: AmbiguousRank: 9 of 9 singular values ")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_exit_code_integer_too_large_for_double(run_cli):
    doc = '{"kind": "pure_state", "n": 1, "data": [[1' + "0" * 400 + ', 0]]}'
    rc, out, err = run_cli(["trace"], stdin_text=doc)
    assert (rc, out) == (2, "")
    assert "DocumentError" in err and "Traceback" not in err


# --- fuzz: every input maps to one documented exit code ---------------------

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
# leaves on the edges of the codec and of the validation tolerances
_LEAVES = (
    st.floats()
    | st.sampled_from([0, 1, -1, 0.5, 1e-9, -1e-9, 1e-13, 1e-300, 10**400, True, None, "1"])
    | st.lists(st.just(0), max_size=2)
)
_SPECTRA = (
    [1.0], [0.5, 0.5], [1.0, 0.0], [1 - 1e-9, 1e-9], [0.7, 0.3 - 1e-13, 1e-13],
    [0.25] * 4, [0.5, 0.5 - 1e-11, 1e-11, 0.0],
)


def _leaf_slots(node):
    for i, item in enumerate(node):
        if isinstance(item, list):
            yield from _leaf_slots(item)
        else:
            yield node, i


@st.composite
def _matrix_documents(draw):
    if draw(st.booleans()):
        # an emitted document, so that the operations themselves run
        n = draw(st.integers(1, 4))
        rho = sampling.random_density(n, draw(st.integers(1, n)), draw(st.integers(0, 99)))
        doc = docs.matrix_document(draw(st.sampled_from([
            rho,
            purify(rho),
            sampling.random_unitary(n, draw(st.integers(0, 99))),
            core.validate_density(np.diag(draw(st.sampled_from(_SPECTRA))).astype(complex)),
        ])))
    else:
        n = draw(st.integers(-1, 4))
        side = max(n, 0)
        pair = st.lists(_LEAVES, min_size=2, max_size=2)
        row = st.lists(pair, min_size=side, max_size=side)
        data = draw(st.lists(row, min_size=side, max_size=side)
                    | st.lists(pair, min_size=side * side, max_size=side * side))
        doc = {"kind": draw(st.sampled_from(docs.KINDS)), "n": n, "data": data}
    if draw(st.booleans()):
        doc["kind"] = draw(st.sampled_from(docs.KINDS + ("bogus",)))
    if draw(st.booleans()):
        doc["n"] = draw(st.integers(-1, 5) | _LEAVES)
    slots = list(_leaf_slots(doc["data"]))
    if slots and draw(st.booleans()):
        node, i = slots[draw(st.integers(0, len(slots) - 1))]
        node[i] = draw(_LEAVES)
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(["kind", "n", "data"]))]
    return json.dumps(doc)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _check_exit_contract(argv, stdin_text):
    # no exception leaves main; success prints exactly one strict JSON line
    with contextlib.redirect_stderr(io.StringIO()):
        rc, out = call_main(argv, stdin_text)
    assert rc in {0, 2, 3, 4, 5}
    if rc == 0:
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "bell.json").write_text(BELL)
    return {"bell": str(base / "bell.json"), "missing": str(base / "missing" / "out.json")}


_DOCUMENT_COMMANDS = (
    ["purify"], ["trace"], ["classify"], ["split"], ["bloch"],
    ["connect", "--psi", "-", "--phi", "{bell}"],
    ["connect", "--psi", "{bell}", "--phi", "-"],
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(_DOCUMENT_COMMANDS),
    text=st.text() | _JSON.map(json.dumps) | _matrix_documents(),
    missing_out=st.integers(0, 9).map(lambda k: k == 0),
)
@example(command=["purify"], text="[" * 200000, missing_out=False)
@example(command=["purify"], text=HALF_MIX, missing_out=True)
def test_fuzz_document_commands(fuzz_paths, command, text, missing_out):
    argv = [a.format(**fuzz_paths) for a in command]
    if missing_out:
        argv += ["--out", fuzz_paths["missing"]]
    _check_exit_contract(argv, text)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["pure", "unitary", "density"]),
    n=st.integers(-3, 4),
    mu=st.none() | st.integers(-3, 5),
    seed=st.integers(0, 2**64 - 1),
)
@example(kind="pure", n=-3, mu=None, seed=0)
@example(kind="pure", n=10**10, mu=None, seed=0)
def test_fuzz_sample(kind, n, mu, seed):
    argv = ["sample", "--kind", kind, "--n", str(n), "--seed", str(seed)]
    if mu is not None:
        argv += ["--mu", str(mu)]
    _check_exit_contract(argv, "")


# each with an input it accepts, so a tolerance let through would succeed
_TOL_COMMANDS = (
    (["classify"], HALF_MIX),
    (["split"], HALF_MIX),
    (["connect", "--psi", "-", "--phi", "{bell}"], BELL),
    (["verify-dimension", "--n", "2", "--mu", "2", "--samples", "1"], ""),
)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1", "2"])
@pytest.mark.parametrize("command", _TOL_COMMANDS, ids=lambda c: c[0][0])
def test_exit_code_tolerance_out_of_range(fuzz_paths, monkeypatch, command, tol):
    argv, stdin_text = command
    argv = [a.format(**fuzz_paths) for a in argv] + [f"--tol={tol}"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
    assert (exit_info.value.code, out.getvalue()) == (2, "")
    assert "--tol" in err.getvalue()
