"""Command-line front end: compute, expand, enumerate, verify, trace.

Output is byte-deterministic for identical inputs.  Exit codes: 0 on
success, 1 on usage errors, 2 on verification failure (including route
disagreement), 3 on an internal invariant breach such as a failed basis
expansion, 141 when the reader closes stdout (as `| head` does).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .algebra import ExactDivisionError, TruncatedSeries
from .insertion import in_step, out_step
from .partitions import is_partition, is_strict_partition
from .polynomials import (
    BasisExpansion,
    ExpansionError,
    FamilySpec,
    algebraic_series,
    basis_expansion,
    combinatorial_series,
    expansion_via_maximal,
)
from .tableaux import (
    MultisetTableau,
    ShiftedMultisetTableau,
    enumerate_maximal_mt,
    enumerate_maximal_smt,
    enumerate_mt,
    enumerate_rt,
    enumerate_smt,
    enumerate_srt,
    enumerate_ssyt,
    enumerate_sst,
    lt_u,
)
from .verify import SUITES, run_suite

__all__ = ["main"]

USAGE_ERROR, VERIFY_ERROR, INTERNAL_ERROR, CLOSED_STDOUT = 1, 2, 3, 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_mu(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}")
    return parts


def _nonnegative_int(name: str):
    """argparse type for a cap that must be an int >= 0; `name` is the
    library's name for it, so the message matches the library's own check."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be nonnegative, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _format_mu(mu) -> str:
    return ",".join(map(str, mu)) if mu else "0"


def _series_text(series: TruncatedSeries) -> str:
    """The series' lines, each ending in a newline, as one string.

    Lines run in the order of the terms' `MonomialCode`s, largest first, so
    they sort as plain ints.  Each distinct x part and t part is written to
    text once, from the texts of its halves (`MonomialCode.digit_texts`), so
    a line is its coefficient and two looked-up texts; an empty t part
    leaves the line ending in "|".  Each code is split into its two parts
    once, and both the distinct parts and the lines are read from them.
    """
    code, coded = series.coded()
    split = code.split
    keys = sorted(coded, reverse=True)
    x_parts = [k // split for k in keys]
    t_parts = [k % split for k in keys]
    x_text = code.digit_texts(set(x_parts), code.nx)
    t_texts = code.digit_texts(set(t_parts), code.nt)
    t_text = {p: f" | {text}".rstrip() + "\n" for p, text in t_texts.items()}
    return "".join([f"{coded[k]}  {x_text[x]}{t_text[t]}" for k, x, t in zip(keys, x_parts, t_parts)])


def _write_whole(text: str) -> None:
    """Write `text` to stdout, all of it or an error.

    A binary write past a closed reader or a full disk can return short
    and raise nothing, and a text stream drops that count.  So when stdout
    has a buffer, the text goes to it in a loop on the count, and the write
    after a short one raises the stream's error (`BrokenPipeError`, or the
    `OSError` of a full file).  The bytes are those the stream writes on
    POSIX, which translates no newline.  A stream without a buffer, as
    `io.StringIO`, takes the text in one write.
    """
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data):]


def _print_json(payload) -> None:
    # json is imported here, so that the text formats never load it
    import json

    print(json.dumps(payload, sort_keys=True))


def _series_json(series: TruncatedSeries) -> list:
    """[c, x_exps, t_exps] per term, in the order of `_series_text`; the
    exponent lists come from each distinct part decoded once
    (`MonomialCode.parts`)."""
    code, coded = series.coded()
    split = code.split
    xs, ts = code.parts(coded)
    x_list = {p: list(xe) for p, xe in xs.items()}
    t_list = {p: list(te) for p, te in ts.items()}
    return [[coded[k], x_list[k // split], t_list[k % split]] for k in sorted(coded, reverse=True)]


def _expansion_json(exp: BasisExpansion) -> dict:
    return {
        _format_mu(lam): [[c, list(te)] for _, te, c in poly.sorted_terms()]
        for lam, poly in exp.coefficients
    }


def _head(spec: FamilySpec, as_json: bool) -> dict:
    """The fields that open the output of compute and expand."""
    mu = list(spec.mu) if as_json else _format_mu(spec.mu)
    return {"family": spec.family, "mu": mu, "n": spec.n, "tcap": spec.t_cap}


def _cmd_compute(args) -> int:
    spec = FamilySpec(args.family, _parse_mu(args.mu), args.n, t_cap=args.tcap, x_cap=args.xcap)
    routes = {"algebraic": algebraic_series, "combinatorial": combinatorial_series}
    wanted = list(routes) if args.route == "both" else [args.route]
    computed = {name: routes[name](spec) for name in wanted}
    verdict = None
    if len(computed) == 2:
        a, b = computed["algebraic"], computed["combinatorial"]
        verdict = "AGREE" if a == b else "DISAGREE"
    if args.format == "json":
        payload = {
            **_head(spec, True),
            "xcap": spec.effective_x_cap(),
            "routes": {name: _series_json(s) for name, s in computed.items()},
        }
        if verdict:
            payload["verdict"] = verdict
        _print_json(payload)
    else:
        print("\n".join(f"{key}: {value}" for key, value in _head(spec, False).items()))
        print(f"xcap: {spec.effective_x_cap()}")
        for name, s in computed.items():
            print(f"route {name}: {len(s)} terms")
            # a series runs to 10^5 lines, so they go out in one write
            _write_whole(_series_text(s))
        if verdict:
            print(f"verdict: {verdict}")
    return 0 if verdict in (None, "AGREE") else VERIFY_ERROR


def _cmd_expand(args) -> int:
    spec = FamilySpec(args.family, _parse_mu(args.mu), args.n, t_cap=args.tcap, x_cap=args.xcap)
    expansion = basis_expansion(spec)
    via_maximal = expansion_via_maximal(spec)
    verdict = "AGREE" if expansion == via_maximal else "DISAGREE"
    if args.format == "json":
        payload = {
            **_head(spec, True),
            "basis": expansion.basis,
            "coefficients": _expansion_json(expansion),
            "via_maximal": _expansion_json(via_maximal),
            "verdict": verdict,
        }
        _print_json(payload)
    else:
        print("\n".join(f"{key}: {value}" for key, value in _head(spec, False).items()))
        print(f"basis: {expansion.basis}")
        for lam, poly in expansion.coefficients:
            print(f"{_format_mu(lam)} : {poly!r}")
        print(f"verdict: {verdict}")
    return 0 if verdict == "AGREE" else VERIFY_ERROR


# family name -> enumerator call on (mu, outer shape, parsed arguments)
_ENUMERATORS = {
    "MT": lambda mu, outer, a: enumerate_mt(mu, a.max_value, a.extra),
    "SMT": lambda mu, outer, a: enumerate_smt(mu, a.max_value, a.extra, signed=False),
    "SMT+-": lambda mu, outer, a: enumerate_smt(mu, a.max_value, a.extra, signed=True),
    "SSYT": lambda mu, outer, a: enumerate_ssyt(mu, a.max_value),
    "SST": lambda mu, outer, a: enumerate_sst(mu, a.max_value, signed=False),
    "SST+-": lambda mu, outer, a: enumerate_sst(mu, a.max_value, signed=True),
    "RT": lambda mu, outer, a: enumerate_rt(outer, mu),
    "SRT": lambda mu, outer, a: enumerate_srt(outer, mu),
    "maxMT": lambda mu, outer, a: enumerate_maximal_mt(mu, a.extra),
    "maxSMT": lambda mu, outer, a: enumerate_maximal_smt(mu, a.extra),
}


def _cmd_enumerate(args) -> int:
    mu = _parse_mu(args.mu)
    fam = args.family
    try:
        outer = None if args.outer is None else _parse_mu(args.outer)
    except ValueError as ex:
        raise ValueError(f"--outer: {ex}") from None
    if fam in ("RT", "SRT") and outer is None:
        raise ValueError(f"family {fam} needs --outer")
    items = _ENUMERATORS[fam](mu, outer, args)
    if args.format == "json":
        payload = {
            "family": fam,
            "mu": list(mu),
            "count": len(items),
            "tableaux": [t.to_json_dict() for t in items],
        }
        _print_json(payload)
    else:
        print(f"family: {fam}")
        print(f"mu: {_format_mu(mu)}")
        print(f"count: {len(items)}")
        for t in items:
            print()
            print(t.to_text())
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "cases": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "failures": len(failures),
        }
        _print_json(payload)
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            suffix = f" -- {r.detail}" if r.detail else ""
            print(f"{mark} {r.name}{suffix}")
        print(f"suite {args.suite}: {len(results)} cases, {len(failures)} failures")
    return 0 if not failures else VERIFY_ERROR


def _render_cell(cell) -> list[int]:
    return [cell[0] + 1, cell[1] + 1]


def _check_trace_input(tableau, shifted: bool) -> None:
    """Raise ValueError unless the shape and rows meet what the steps need:
    a (strict, when shifted) partition shape, nonempty boxes of positive
    entries, and rows increasing left to right.  Columns are not checked,
    since the paper's displayed out-chains do not always meet them."""
    shape = tableau.shape
    if not (is_strict_partition(shape) if shifted else is_partition(shape)):
        kind = "strict partition" if shifted else "partition"
        raise ValueError(f"trace input shape {_format_mu(shape)} is not a {kind}")
    value = (lambda e: e.value) if shifted else (lambda v: v)
    precedes = lt_u if shifted else (lambda a, z: a <= z)
    for r, row in enumerate(tableau.rows, start=1):
        for c, box in enumerate(row, start=1):
            if not box or any(value(e) < 1 for e in box):
                raise ValueError(f"trace input row {r} box {c} must hold positive entries")
            if c > 1 and not precedes(row[c - 2][-1], box[0]):
                raise ValueError(f"trace input row {r} does not increase at box {c}")


def _cmd_trace(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    shifted = args.flavor == "shifted"
    tableau = (ShiftedMultisetTableau if shifted else MultisetTableau).from_text(text)
    _check_trace_input(tableau, shifted)
    ell = tableau.ell
    if args.ell is not None:
        # stages only append boxes, so the base shape is never wider than the tableau
        if not 1 <= args.ell <= ell:
            raise ValueError(f"--ell must be in 1..{ell}, got {args.ell}")
        ell = args.ell
    if not 1 <= args.k <= ell:
        raise ValueError(f"--k must be a stage label in 1..{ell}, got {args.k}")
    states = [tableau]
    traces = []
    if args.direction == "out":
        # one move per noncircled entry of the active line
        idx = ell - args.k
        for _ in range(sum(len(row[idx]) - 1 for row in tableau.rows if idx < len(row))):
            t, trace = out_step(states[-1], args.k, ell)
            states.append(t)
            traces.append(trace)
    else:
        if args.inner is None:
            raise ValueError("direction 'in' needs --inner, the target shape")
        inner = _parse_mu(args.inner)
        while states[-1].shape != inner:
            t = states[-1]
            shape = t.shape
            if len(shape) != len(inner) or any(a < b for a, b in zip(shape, inner)):
                raise ValueError(f"{inner} is not reachable from shape {shape}")
            # the rightmost last box among the rows still longer than inner
            strip = [(r, r * shifted + shape[r] - 1) for r in range(len(shape)) if shape[r] > inner[r]]
            cell = max(strip, key=lambda rc: rc[1])
            t, trace = in_step(t, args.k, ell, cell)
            states.append(t)
            traces.append(trace)

    final = states[-1]
    # the trace fields that differ by direction; JSON keys are the field names
    start, moved, verb = (
        ("removed_cell", "appended", "appended") if args.direction == "out"
        else ("corner_cell", "deposit", "deposited")
    )

    def step_json(tr, state):
        return {
            "removed": str(tr.removed),
            "path": [[r + 1, c + 1, str(old), str(new)] for r, c, old, new in tr.path],
            "tableau": state.to_json_dict(),
            start: _render_cell(getattr(tr, start)),
            moved: str(getattr(tr, moved)),
            f"{moved}_cell": _render_cell(getattr(tr, f"{moved}_cell")),
        }

    def step_text(i, tr):
        moves = "; ".join(
            f"({r + 1},{c + 1}) {old}->{new}" for r, c, old, new in tr.path
        )
        sr, sc = _render_cell(getattr(tr, start))
        mr, mc = _render_cell(getattr(tr, f"{moved}_cell"))
        return (
            f"step {i}: removed {tr.removed} at ({sr},{sc})"
            + (f"; path: {moves}" if moves else "")
            + f"; {verb} {getattr(tr, moved)} at ({mr},{mc})"
        )

    if args.format == "json":
        payload = {
            "flavor": args.flavor,
            "direction": args.direction,
            "k": args.k,
            "ell": ell,
            "steps": [step_json(tr, state) for tr, state in zip(traces, states[1:])],
            "final": final.to_json_dict(),
        }
        _print_json(payload)
    else:
        print(f"flavor: {args.flavor}")
        print(f"direction: {args.direction}")
        print(f"k: {args.k}")
        print(f"ell: {ell}")
        for i, (tr, state) in enumerate(zip(traces, states[1:]), start=1):
            print(step_text(i, tr))
            print(state.to_text())
        print(f"steps: {len(traces)}")
    return 0


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="grothlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a family by both routes")
    p.add_argument("family", choices=("J", "P", "schur", "pschur"))
    p.add_argument("mu", help="comma-separated partition, e.g. 2,1 (0 for empty)")
    p.add_argument("--n", type=int, required=True, help="number of x-variables")
    p.add_argument("--tcap", type=int, default=1, help="max total t-degree")
    p.add_argument("--xcap", type=int, default=None, help="max total x-degree")
    p.add_argument("--route", choices=("both", "algebraic", "combinatorial"), default="both")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("expand", help="basis expansion with the maximal-tableau cross-check")
    p.add_argument("family", choices=("J", "P"))
    p.add_argument("mu")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tcap", type=int, default=1)
    p.add_argument("--xcap", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("enumerate", help="list a tableau family under caps")
    p.add_argument("family", choices=tuple(_ENUMERATORS))
    p.add_argument("mu")
    p.add_argument("--outer", default=None, help="outer shape for RT/SRT")
    p.add_argument("--max-value", type=_nonnegative_int("max_value"), default=3, dest="max_value")
    p.add_argument("--extra", type=_nonnegative_int("extra_cap"), default=1,
                   help="cap on extra entries")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(sorted(SUITES)) + ("all",))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("trace", help="step-by-step out or in moves at one stage")
    p.add_argument("file", help="tableau file in the text format")
    p.add_argument("--k", type=int, required=True, help="stage (column/diagonal label)")
    p.add_argument("--flavor", choices=("multiset", "shifted"), required=True)
    p.add_argument("--direction", choices=("out", "in"), default="out")
    p.add_argument("--inner", default=None, help="target shape for direction 'in'")
    p.add_argument("--ell", type=int, default=None, help="ambient base width (default: tableau width)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_trace)

    parser.commands = sub.choices  # command name -> its parser, for _parse_args
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, less the `command` attribute.

    When argv starts with a command, that command's parser reads the rest
    alone: the top-level parser would classify every token and then hand
    the same tokens to it to read again.  Tokens it leaves get the
    top-level parser's error, as they would there.  Any other argv (empty,
    `-h`, an unknown command, a leading `--`) goes to the top-level parser.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, rest = command.parse_known_args(argv[1:])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except (ExactDivisionError, ExpansionError) as ex:
        print(f"internal invariant breach: {ex}", file=sys.stderr)
        return INTERNAL_ERROR
    except BrokenPipeError:
        # the reader has gone: exit with the status of a SIGPIPE death, and
        # point stdout at devnull so that the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except (ValueError, OverflowError, OSError) as ex:
        # OverflowError: a size past what the interpreter indexes, as of --max-value 10^20
        print(f"error: {ex}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        # a case too large for the memory at hand, as of --tcap 10^20
        print("error: out of memory", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
