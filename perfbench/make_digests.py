"""Write the reference digests of every compute case to digests.json.

Each digest covers one `grothlab compute` call's stdout bytes and exit code.
The committed file was made from the library at the commit that added the
benchmark; run this only to record a deliberate change of the CLI output:

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
from grothlab import cli  # noqa: E402
from worker import run_cli, stdout_digest  # noqa: E402


def main() -> None:
    digests = {}
    for workload in ("algebraic", "combinatorial"):
        for argv in cases.compute_grid(workload):
            stdout, code = run_cli(cli.main, argv)
            digests[" ".join(argv)] = stdout_digest(stdout, code)
            print(code, " ".join(argv), flush=True)
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
