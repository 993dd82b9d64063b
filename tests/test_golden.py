"""Golden stdout: calls beyond the bench grid must print what they printed
before the series printer, and later the algebraic route, read
`MonomialCode`s.

Each digest in data/golden_stdout.json is the SHA-256 of a call's stdout
bytes, then a NUL byte, "exit=" and the exit code, as the bench digests
are made.  The calls cover both routes, --route both, --format json, the
schur/pschur lift, x-caps below |mu| + t_cap, an empty and a vanishing
family, the basis-expansion text and JSON, and algebraic rows at n = 5-7.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

import grothlab.cli as cli

with open(os.path.join(os.path.dirname(__file__), "data", "golden_stdout.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)["digests"]


@pytest.mark.parametrize("call", sorted(GOLDEN))
def test_stdout_and_exit_code_match_the_golden_digest(call):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(call.split())
    digest = hashlib.sha256(out.getvalue().encode() + b"\0exit=" + str(code).encode()).hexdigest()
    assert digest == GOLDEN[call]
