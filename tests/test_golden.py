"""Golden stdout: calls beyond the bench grid must print what they printed
before the series printer, and later the algebraic route, read
`MonomialCode`s, before the routes read schur and pschur off
`FamilySpec` instead of lifting J and P at t = 0 in the CLI, and before
the text printer wrote each part from the texts of its halves,
before the tableau counter wrote its frontier as the values later cells
read, and before it kept each state's completions by t-degree.

Each digest in data/golden_stdout.json is the SHA-256 of a call's stdout
bytes, then a NUL byte, "exit=" and the exit code, as the bench digests
are made.  The calls cover both routes, --route both, --format json, schur and
pschur (among them an x-cap below |mu|, JSON, a vanishing family and the
empty shape), x-caps below |mu| + t_cap, an empty and a vanishing
family, the basis-expansion text and JSON, algebraic rows at n = 5-7, and
`trace` out and in on the straight and shifted chains of tests/data, in
text and JSON, plus one exit-1 bump of a multi-entry box, `enumerate` of
the maximal and restricted families, and `expand` at J (5,4,3,2,1) t6 and
P (7,5,3,1) t5, the largest maximal-tableau checks of the expand ladder,
text and JSON rows at n = 9 and 10, past the 8 digits beyond which a
part is read in halves, and shifted combinatorial rows past the bench grid:
P (4,3,2,1) at n = 6 and P (3,2,1) at t_cap = 3 in JSON, and
combinatorial rows at t_cap = 4: J (3,2,1) and P (4,2,1) at n = 5,
and `verify psi` and `verify phi` in text and JSON, made before psi/phi
stopped validating stages that made no move.  The test removes
GROTHLAB_CENSUS_SCALE, so those four always read the small census.  Two
more calls start with `GROTHLAB_CENSUS_SCALE=full`, which sets the variable
for that call as a shell would: `verify psi` and `verify phi` in text at
the full census, made before the out and in steps took each stage's
entries in one order and read columns in place.  Two P calls past the bench
grid, `compute P 2,1 --n 9 --tcap 2 --route both` (9,932 lines, AGREE) and
`expand P 3,1 --n 9 --tcap 2`, were made before the Kostka columns walked
only the bound's nonzero rows; they pin the bytes of the P stair, which
multiplies out every head-tail pair factor, before a dual-Cauchy stair
replaces it.  Three `enumerate` calls of the filled families,
`enumerate MT 3,2,1 --max-value 3 --extra 2`,
`enumerate SMT+- 3,1 --max-value 3 --extra 2` and
`enumerate SMT 2,1 --max-value 3 --extra 1 --format json`, were made
before the tableau walks became loops; they pin the order in which the
fill visits its tableaux.
A call names its data file from the repository root, so the test runs
from any directory.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

import grothlab.cli as cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "data", "golden_stdout.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)["digests"]


@pytest.mark.parametrize("call", sorted(GOLDEN))
def test_stdout_and_exit_code_match_the_golden_digest(call, monkeypatch):
    monkeypatch.delenv("GROTHLAB_CENSUS_SCALE", raising=False)
    argv = call.split()
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([os.path.join(ROOT, a) if a.startswith("tests/data/") else a for a in argv])
    digest = hashlib.sha256(out.getvalue().encode() + b"\0exit=" + str(code).encode()).hexdigest()
    assert digest == GOLDEN[call]
