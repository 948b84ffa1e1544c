import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmgeo import core, documents as docs, sampling
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


def test_exit_code_bloch_outside_ball(run_cli):
    # huge coordinates must not overflow the norm into a traceback
    for coords in (["1.0", "0.1", "0.0"], ["1e308", "1e308", "0"]):
        rc, out, err = run_cli(["bloch", "--from", *coords])
        assert rc == 4
        assert "OutsideBall" in err and "Traceback" not in err


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


def test_in_process_main_matches_subprocess(run_cli):
    rc_a, out_a = call_main(["classify"], stdin_text=HALF_MIX)
    rc_b, out_b, _ = run_cli(["classify"], stdin_text=HALF_MIX)
    assert (rc_a, out_a) == (rc_b, out_b)


def test_exit_code_bloch_from_non_finite(run_cli):
    rc, out, err = run_cli(["bloch", "--from", "nan", "0", "0"])
    assert (rc, out) == (3, "")
    assert "NotFinite" in err and "Traceback" not in err


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


# every subcommand that reaches each LAPACK routine, with the input it needs
_LAPACK_REACH = {
    "eigh": ("purify", "classify", "split", "verify-dimension"),
    "eigvalsh": ("purify", "classify", "split", "bloch", "sample-density", "verify-dimension"),
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


def test_exit_code_out_of_memory(monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(np.linalg, "qr", fail)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = call_main(["sample", "--kind", "unitary", "--n", "2"])
    assert (rc, out) == (4, "")
    assert err.getvalue() == "error: OutOfMemory: Unable to allocate 596. GiB for an array\n"


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
