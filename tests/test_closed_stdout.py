"""A closed stdout is an output error (exit 2), never a counterexample (exit 1).

Each command runs as a subprocess whose stdout is a pipe with its read end
already closed, so writing the report fails with ``EPIPE``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ortholab

SRC = str(Path(ortholab.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "demo", "spin"],
        ["check", "x & y = y & x", "--structure", "boolean"],
        ["check", "x & (y | z) = (x & y) | (x & z)", "--structure", "subspace"],
    ],
    ids=["demo", "law-holds", "counterexample"],
)
def test_closed_stdout_exits_two_with_one_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ortholab.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"ortholab: error: stdout closed before the report was written\n"
