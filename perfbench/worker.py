"""Runs the timed cases of one benchmark run in a fresh interpreter.

Reads a job as JSON on stdin and writes one JSON result on stdout.  A fresh
interpreter per run keeps the library's `lru_cache`s and heap growth from
carrying over between runs, as they do not for a user of the CLI.

Every case is timed with `time.perf_counter` around the library call only;
its output is checked afterwards, outside the timed region and with tracing
off.  Before a case, once `KERNEL_EVERY_S` have passed since it last did,
the worker times the reference kernel of speed.py, so that each case time
can be scaled to the reference host.  Passes over the whole case list repeat until the job's time is spent
and at least `min_passes` passes have run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

# Seconds after which the next case is preceded by the reference kernel.
KERNEL_EVERY_S = 0.1
# Passes after which the worker's peak resident memory is read.
RSS_PASSES = 3


def _load_library(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from grothlab import algebra, cli, insertion, partitions, polynomials, tableaux

    return {
        "cli": cli,
        "polynomials": polynomials,
        "algebra": algebra,
        "tableaux": tableaux,
        "insertion": insertion,
        "partitions": partitions,
    }


def stdout_digest(stdout: str, code) -> str:
    """Digest of one CLI call: its stdout bytes and its exit code."""
    return hashlib.sha256(stdout.encode() + b"\0exit=" + str(code).encode()).hexdigest()


def run_cli(main, argv):
    """Call the CLI entry point in-process; returns (stdout, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as ex:
            code = ex.code
    return out.getvalue(), code


class ComputeCases:
    """`grothlab compute` argvs, checked against reference digests."""

    def __init__(self, lib, tracer, grid, digests):
        self.items = grid
        self.digests = digests
        self.main = lib["cli"].main if tracer is None else tracer.wrap(lib["cli"].main, "cli.main")

    def run(self, argv):
        return run_cli(self.main, argv)

    def check(self, argv, output):
        expected = self.digests.get(" ".join(argv))
        if expected is None:
            return "no reference digest"
        stdout, code = output
        if stdout_digest(stdout, code) != expected:
            return f"stdout or exit code differs from the reference (exit {code})"
        return None


class BijectionCases:
    """`psi`/`phi` round trips on sampled tableaux, each checked on its own."""

    def __init__(self, lib, tracer, items):
        self.items = items
        self.tab = lib["tableaux"]
        ins = lib["insertion"]
        names = ("psi", "psi_inverse", "phi", "phi_inverse")
        fns = {n: getattr(ins, n) for n in names}
        if tracer is not None:
            fns = {n: tracer.wrap(f, f"insertion.{n}") for n, f in fns.items()}
        self.straight = (fns["psi"], fns["psi_inverse"])
        self.shifted = (fns["phi"], fns["phi_inverse"])

    def run(self, item):
        family, p = item
        forward, backward = self.straight if family == "MT" else self.shifted
        q, r = forward(p)
        return q, r, backward(q, r)

    def check(self, item, output):
        family, p = item
        q, r, back = output
        tab = self.tab
        if back != p:
            return "round trip does not return the input"
        if q.weight() != p.weight():
            return "wt not preserved"
        if family == "MT":
            if r.weight(p.ell) != p.column_weight():
                return "cw not preserved"
            if not (tab.is_valid_ssyt(q) and tab.is_valid_rt(r)):
                return "Q or R is not valid"
            return None
        if r.weight(p.ell) != p.diagonal_weight():
            return "dw not preserved"
        q_signed = tab.ShiftedMultisetTableau(q.rows, signed=True)
        if not (tab.is_valid_sst(q_signed) and tab.is_valid_srt(r, p.shape)):
            return "Q or R is not valid"
        if family == "SMT" and (q.signed or not tab.is_valid_sst(q)):
            return "an unsigned input gave a signed Q"
        return None


def _describe(item) -> str:
    if isinstance(item, list):
        return " ".join(item)
    family, t = item
    return f"{family} {t.to_text()!r}"


def run_job(job: dict) -> dict:
    root = Path(job["root"])
    sys.path.insert(0, str(root / "perfbench"))
    import cases
    import spans
    import speed

    lib = _load_library(root)
    workload, seed = job["workload"], job["seed"]
    tracer = spans.Tracer() if job["traced"] else None
    if workload == "bijections":
        runner = BijectionCases(lib, tracer, cases.bijection_cases(seed, lib["tableaux"]))
    else:
        runner = ComputeCases(lib, tracer, cases.compute_grid(workload), job["digests"])
    if tracer is not None:
        tracer.install(lib)

    rng = random.Random(f"order:{workload}:{seed}")
    clock = time.perf_counter
    case_s, case_ids, case_t, pass_s = [], [], [], []
    kernel_s = [speed.time_kernel(clock) for _ in range(3)]
    failures, failed = [], 0
    start = clock()
    while True:
        order = list(range(len(runner.items)))
        rng.shuffle(order)
        elapsed = 0.0
        for case_id in order:
            item = runner.items[case_id]
            if clock() - kernel_s[-1][0] >= KERNEL_EVERY_S:
                kernel_s.append(speed.time_kernel(clock))
            if tracer is not None:
                tracer.case = len(case_s)
                tracer.enabled = True
            output = error = None
            t0 = clock()
            try:
                output = runner.run(item)
            except Exception:  # a case that raises counts as failed
                error = traceback.format_exc(limit=3)
            t1 = clock()
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    error = runner.check(item, output)
                except Exception:  # the library's own tests can raise too
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{_describe(item)}: {error}")
            case_s.append(t1 - t0)
            case_ids.append(case_id)
            case_t.append(t0)
            elapsed += t1 - t0
        pass_s.append(elapsed)
        if len(pass_s) <= RSS_PASSES:
            # The peak depends on the order the cases ran in, so it is taken
            # over a few orders; later passes would only add the growth of
            # this loop's own sample lists.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if clock() - start >= job["seconds"] and len(pass_s) >= job["min_passes"]:
            break
        if tracer is not None and len(tracer.span_op) >= spans.MAX_SPANS:
            break

    result = {
        "case_s": case_s,
        "case_ids": case_ids,
        "case_t": case_t,
        "kernel_s": kernel_s[2:],  # the first two warm the kernel up
        "pass_s": pass_s,
        "attempted": len(case_s),
        "failed": failed,
        "failures": failures,
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(case_s)
        tracer.write(job["spans_out"])
    return result


if __name__ == "__main__":
    json.dump(run_job(json.load(sys.stdin)), sys.stdout)
