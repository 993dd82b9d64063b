"""The grothlab benchmark: one seeded workload, end to end or traced by layer.

    python3 perfbench/run.py --workload algebraic --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* algebraic      `grothlab compute {J|P} mu --route algebraic` over a grid
* combinatorial  the same CLI with `--route combinatorial` over a grid
* bijections     `psi`->`psi_inverse` and `phi`->`phi_inverse` round trips
                 on seeded random tableaux

The load is a closed loop: one caller in one worker process, with no
threads, sends the next case when the last one returns.  A run repeats
complete passes over its case list.  Every output is checked: compute
cases against the reference digests in digests.json, bijection cases by
round trip, weights and validity.  A failed check makes the run exit 1.

With `--trace 0` the run reports the end-to-end metrics.  Every case time
is scaled to the reference host of speed.py, by a kernel timed next to it,
so that the shared host's changes of speed cancel.  The case-time metrics are
read from each case's median time over the run's passes (see `case_times`),
their percentiles by the Harrell-Davis estimator (see `hd_quantile`).
`setup_s` is the median over several fresh interpreters of the time from
spawn until `grothlab.cli` is imported.  The timed cases run
in another fresh interpreter, whose `ru_maxrss` gives `peak_rss_mb`.

With `--trace 1` one fresh worker runs the cases untraced and another runs
them with spans around every cross-module call (see spans.py), each for
half the time and at least one pass; the traced worker also stops after
the pass that reaches `spans.MAX_SPANS` spans.  Per-layer metrics are given per pass
over the case list; `trace.overhead_ratio` compares the two workers' mean
pass times.

The last line of stdout is the JSON result; the line before it records the
machine, the Python version and the source the numbers belong to.  The
spans of a traced run are written to .perfbench/ under the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("algebraic", "combinatorial", "bijections")
SETUP_IMPORTS = 11
MIN_PASSES = 3
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn_ready_s(src: Path) -> float:
    """Seconds from spawning an interpreter until grothlab.cli is imported."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import grothlab.cli; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-E", "-s", "-c", code, str(src)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line != "ready\n":
            raise BenchError("a fresh interpreter could not import grothlab.cli")
    return t1 - t0


def measure_setup(src: Path) -> float:
    _spawn_ready_s(src)  # writes the bytecode caches a user's install already has
    return statistics.median(_spawn_ready_s(src) for _ in range(SETUP_IMPORTS))


def run_worker(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(
            [sys.executable, "-E", "-s", str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("the worker did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"the worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def case_times(res: dict, scaled: bool = True) -> list[float]:
    """Each case's median time, in seconds, over its executions in the run.

    Scaled, each execution is first scaled to the reference host by the
    reference kernel timed next to it (see speed.py).
    """
    seconds = res["case_s"]
    if scaled:
        seconds = speed.scale([tuple(k) for k in res["kernel_s"]], res["case_t"], seconds)
    runs: dict[int, list[float]] = {}
    for case_id, s in zip(res["case_ids"], seconds):
        runs.setdefault(case_id, []).append(s)
    return [statistics.median(v) for v in runs.values()]


def _beta_cdf(a: float, b: float, xs: list[float], steps: int = 20000) -> list[float]:
    """The Beta(a, b) distribution function at each of the ascending `xs`,
    by the midpoint rule; a, b > 1 here, so the density is smooth."""
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / steps
    out, acc, i = [], 0.0, 0
    for x in xs:
        while (i + 0.5) * h < x:
            u = (i + 0.5) * h
            acc += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm) * h
            i += 1
        out.append(min(acc, 1.0))
    return out


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the weights falling off away
    from rank p.  A run's cases cluster unevenly, with gaps of up to 15%
    between neighbours near the median, so the plain sample quantile jumps
    a gap when two cases swap ranks; this one moves a little.
    """
    v = sorted(values)
    n = len(v)
    cdf = _beta_cdf((n + 1) * p, (n + 1) * (1 - p), [i / n for i in range(n + 1)])
    return math.fsum((cdf[i + 1] - cdf[i]) * v[i] for i in range(n)) / cdf[-1]


def case_metrics(times: list[float]) -> dict:
    times_ms = [seconds * 1e3 for seconds in times]
    return {
        "cases_per_s": _metric(len(times) / math.fsum(times), "1/s"),
        "case_p50_ms": _metric(hd_quantile(times_ms, 0.5), "ms"),
        "case_p90_ms": _metric(hd_quantile(times_ms, 0.9), "ms"),
    }


def end_to_end(res: dict, setup_s: float) -> dict:
    return {
        **case_metrics(case_times(res)),
        "pass_ratio": _metric((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        "peak_rss_mb": _metric(res["maxrss_kb"] / 1024, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def unscaled(res: dict) -> dict:
    """The case-time metrics before scaling, and the kernel's median time."""
    out = {name: m["value"] for name, m in case_metrics(case_times(res, scaled=False)).items()}
    out["kernel_ms"] = statistics.median(k for _, k in res["kernel_s"]) * 1e3
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _per_pass(res: dict) -> float:
    return sum(res["pass_s"]) / len(res["pass_s"])


def per_layer(untraced: dict, traced: dict) -> dict:
    tr = traced["trace"]
    passes = len(traced["pass_s"])
    counts = tr["counts"]
    self_s, calls = tr["layer_self_s"], tr["layer_calls"]
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = _metric(self_s[layer] / passes, "s")
        out[f"{layer}.calls"] = _metric(calls.get(layer, 0) / passes, "count")
    extra = {
        "algebra.mul_s": (tr["mul_s"] / passes, "s"),
        "algebra.antisym_s": (tr["antisym_s"] / passes, "s"),
        "algebra.divide_s": (tr["divide_s"] / passes, "s"),
        "algebra.mul_kept_ratio": (
            _ratio(counts.get("algebra.mul_terms", 0), counts.get("algebra.mul_pairs", 0)),
            "ratio",
        ),
        "algebra.antisym_kept_ratio": (
            _ratio(counts.get("algebra.antisym_terms", 0), counts.get("algebra.antisym_inputs", 0)),
            "ratio",
        ),
        "algebra.add_s": (tr["add_s"] / passes, "s"),
        "algebra.add_calls": (tr["add_calls"] / passes, "count"),
        "tableaux.enumerated": (counts.get("tableaux.enumerated", 0) / passes, "count"),
        "tableaux.validate_s": (tr["validate_s"] / passes, "s"),
        "polynomials.terms_out": (counts.get("polynomials.terms_out", 0) / passes, "count"),
        "insertion.steps": (counts.get("insertion.steps", 0) / passes, "count"),
        "trace.overhead_ratio": (_ratio(_per_pass(traced), _per_pass(untraced)), "ratio"),
    }
    out.update({name: _metric(v, unit) for name, (v, unit) in extra.items()})
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _environment(src: Path) -> dict:
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        tree.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": tree.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "grothlab" / "cli.py").is_file():
        print(f"error: no grothlab source under {src}", file=sys.stderr)
        return 2
    job = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "traced": False,
        "min_passes": MIN_PASSES,
        "digests": {},
    }
    if args.workload != "bijections":
        job["digests"] = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

    try:
        if not args.trace:
            setup_s = measure_setup(src)
            res = run_worker({**job, "seconds": args.seconds}, deadline)
            metrics = end_to_end(res, setup_s)
            results = [res]
        else:
            half = {**job, "seconds": args.seconds / 2, "min_passes": 1}
            plain = run_worker(half, deadline)
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
            traced = run_worker({**half, "traced": True, "spans_out": str(spans_out)}, deadline)
            metrics = per_layer(plain, traced)
            results = [plain, traced]
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for line in r["failures"]:
            print(f"FAIL {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cases": len(set(results[0]["case_ids"])),
        "executions": len(results[0]["case_s"]),
        "passes": [len(r["pass_s"]) for r in results],
        **{f"trace_{k}": results[-1]["trace"][k] for k in ("wall_s", "unattributed_s", "spans")
           if args.trace},
        **({} if args.trace else {"unscaled": unscaled(results[0])}),
        **_environment(src),
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
