import collections
import subprocess
import sys

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden CLI outputs instead of comparing against them",
    )


@pytest.fixture(scope="session")
def regen_goldens(request):
    return request.config.getoption("--regen-goldens")


@pytest.fixture(scope="session")
def run_cli():
    def run(args, stdin_text=None):
        proc = subprocess.run(
            [sys.executable, "-m", "dmgeo.cli", *args],
            input=stdin_text,
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return run


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counter of the np.linalg factorizations called during the test."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "svd", "qr", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
