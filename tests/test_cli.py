import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import grothlab.cli as cli
import grothlab.tableaux as tableaux
from grothlab.algebra import ExactDivisionError, MonomialCode, Polynomial, TruncatedSeries
from grothlab.polynomials import BasisExpansion, ExpansionError
from grothlab.tableaux import MultisetTableau, ShiftedMultisetTableau, is_valid_mt
from grothlab.verify import CaseResult
from examples import out_chain_shifted, out_chain_straight
from tuple_series import series_text

DATA = os.path.join(os.path.dirname(__file__), "data")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run(capsys, *argv):
    """Run the CLI in-process; a parse-time rejection gives its exit code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as ex:
        code = ex.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_paper_example(capsys):
    code, out, _ = run(capsys, "compute", "P", "2,1", "--n", "2", "--tcap", "1")
    assert code == 0
    assert "verdict: AGREE" in out
    assert "1  3 1 | 1 0" in out
    assert "2  2 2 | 0 1" in out


def test_compute_is_byte_deterministic(capsys):
    args = ("compute", "J", "2,1", "--n", "3", "--tcap", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_compute_single_route(capsys):
    code, out, _ = run(
        capsys, "compute", "J", "1", "--n", "2", "--tcap", "0", "--route", "combinatorial"
    )
    assert code == 0
    assert "verdict" not in out
    assert "1  1 0 |" in out and "1  0 1 |" in out


def test_compute_rejects_nonstrict_mu(capsys):
    code, _, err = run(capsys, "compute", "P", "2,2", "--n", "2")
    assert code == 1
    assert "strict" in err


def test_compute_schur_and_pschur_routes(capsys):
    code, out, _ = run(capsys, "compute", "schur", "2,1", "--n", "3", "--tcap", "0")
    assert code == 0 and "verdict: AGREE" in out
    code, out, _ = run(capsys, "compute", "pschur", "2,1", "--n", "2", "--tcap", "0")
    assert code == 0 and "verdict: AGREE" in out


def test_compute_schur_and_pschur_print_their_own_terms(capsys):
    # s_31 and P_31 differ at x^(2,2): 1 against 2
    for family, middle in (("schur", "1  2 2 | 0 0 0"), ("pschur", "2  2 2 | 0 0 0")):
        code, out, _ = run(capsys, "compute", family, "3,1", "--n", "2", "--tcap", "0")
        assert code == 0
        lines = out.splitlines()
        for route in ("algebraic", "combinatorial"):
            start = lines.index(f"route {route}: 3 terms") + 1
            assert lines[start : start + 3] == ["1  3 1 | 0 0 0", middle, "1  1 3 | 0 0 0"]


def test_compute_json_matches_text(capsys):
    # both formats must carry the same terms, in the same order
    base = ("compute", "P", "2,1", "--n", "2", "--tcap", "1")
    _, text, _ = run(capsys, *base)
    _, raw, _ = run(capsys, *base, "--format", "json")
    payload = json.loads(raw)
    assert payload["verdict"] == "AGREE"
    text_lines = text.splitlines()
    for route in ("algebraic", "combinatorial"):
        wanted = [
            f"{c}  {' '.join(map(str, xe))} | {' '.join(map(str, te))}".rstrip()
            for c, xe, te in payload["routes"][route]
        ]
        start = text_lines.index(f"route {route}: {len(wanted)} terms") + 1
        assert text_lines[start : start + len(wanted)] == wanted


def _series(nx, nt, terms, slack=0):
    """The series of [(x_exps, t_exps, c)] in a code whose degrees exceed the
    terms' by `slack`, so that the base, and with it every digit, varies."""
    code = MonomialCode(nx, nt, max(sum(xe) for xe, _, _ in terms) + slack, max(sum(te) for _, te, _ in terms))
    coded = {code.part(xe) * code.split + code.part(te): c for xe, te, c in terms}
    return TruncatedSeries(code, coded, code.x_degree, code.t_degree)


@st.composite
def _random_series(draw):
    # nx up to 12 crosses both odd and even halvings and the 8-digit split of
    # `digits`; coefficients reach past 2^64 and below zero
    nx, nt = draw(st.integers(1, 12)), draw(st.integers(0, 5))
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80)).filter(bool)
    term = st.tuples(
        st.lists(st.integers(0, 4), min_size=nx, max_size=nx).map(tuple),
        st.lists(st.integers(0, 3), min_size=nt, max_size=nt).map(tuple),
        coefficient,
    )
    return _series(nx, nt, draw(st.lists(term, min_size=1, max_size=30)), draw(st.integers(0, 12)))


# the printer writes each part from the texts of its halves; it must print
# the bytes of the decode-and-join printer it replaced
@settings(max_examples=150, deadline=None)
@given(_random_series())
@example(_series(3, 0, [((2, 1, 0), (), 5), ((0, 0, 1), (), -(2 ** 65)), ((0, 0, 0), (), 1)]))
@example(_series(1, 2, [((3,), (1, 0), 1), ((0,), (0, 2), -7), ((1,), (0, 0), 2 ** 70)]))
def test_series_text_prints_the_bytes_of_the_tuple_printer(series):
    text = cli._series_text(series)
    assert text == series_text(series)
    if series.coded()[0].nt == 0:
        assert all(line.endswith(" |") for line in text.splitlines())


def test_expand_paper_example(capsys):
    code, out, _ = run(capsys, "expand", "P", "2,1", "--n", "2", "--tcap", "1")
    assert code == 0
    assert "3,1 : t1 + t2" in out
    assert "2,1 : 1" in out
    assert "verdict: AGREE" in out


def test_expand_json(capsys):
    code, raw, _ = run(
        capsys, "expand", "P", "2,1", "--n", "2", "--tcap", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(raw)
    assert payload["coefficients"]["3,1"] == [[1, [1, 0]], [1, [0, 1]]]
    assert payload["verdict"] == "AGREE"


def test_enumerate_counts(capsys):
    code, out, _ = run(
        capsys, "enumerate", "MT", "1", "--max-value", "2", "--extra", "1"
    )
    assert code == 0
    assert "count: 5" in out
    code, raw, _ = run(
        capsys, "enumerate", "SMT", "2,1", "--max-value", "2", "--extra", "1",
        "--format", "json",
    )
    payload = json.loads(raw)
    assert payload["count"] == 10
    assert all(t["signed"] is False for t in payload["tableaux"])


@pytest.mark.parametrize("family, items", [
    ("MT", lambda: tableaux.enumerate_mt((2, 1), 2, 1)),
    ("SMT", lambda: tableaux.enumerate_smt((2, 1), 2, 1, signed=False)),
    ("SMT+-", lambda: tableaux.enumerate_smt((2, 1), 2, 1, signed=True)),
    ("SSYT", lambda: tableaux.enumerate_ssyt((2, 1), 2)),
    ("SST", lambda: tableaux.enumerate_sst((2, 1), 2, signed=False)),
    ("SST+-", lambda: tableaux.enumerate_sst((2, 1), 2, signed=True)),
    ("RT", lambda: tableaux.enumerate_rt((4, 2), (2, 1))),
    ("SRT", lambda: tableaux.enumerate_srt((4, 2), (2, 1))),
    ("maxMT", lambda: tableaux.enumerate_maximal_mt((2, 1), 1)),
    ("maxSMT", lambda: tableaux.enumerate_maximal_smt((2, 1), 1)),
])
def test_enumerate_prints_each_family_from_its_enumerator(capsys, family, items):
    code, raw, _ = run(
        capsys, "enumerate", family, "2,1", "--max-value", "2", "--extra", "1", "--outer", "4,2",
        "--format", "json",
    )
    expected = [t.to_json_dict() for t in items()]
    assert code == 0 and expected
    assert json.loads(raw) == {"family": family, "mu": [2, 1], "count": len(expected), "tableaux": expected}


@pytest.mark.parametrize("family", ["MT", "SMT", "SMT+-", "maxMT", "maxSMT"])
@pytest.mark.parametrize("shape", ["3,2", "0"])
def test_enumerate_rejects_negative_caps(capsys, family, shape):
    # a negative cap used to print an empty (or one-tableau) census and exit 0
    code, out, err = run(capsys, "enumerate", family, shape, "--extra", "-1")
    assert code == 1 and out == "" and "extra_cap must be nonnegative" in err
    if not family.startswith("max"):
        code, out, err = run(capsys, "enumerate", family, shape, "--max-value", "-1")
        assert code == 1 and out == "" and "max_value must be nonnegative" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "maxMT", "3,2", "--max-value", "-1"),
    ("enumerate", "RT", "2,1", "--outer", "3,1", "--extra", "-1", "--max-value", "-5"),
])
def test_enumerate_rejects_negative_caps_the_family_ignores(capsys, argv):
    # maxMT reads no value cap and RT neither cap; both used to print a count and exit 0
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "must be nonnegative" in err and "Traceback" not in err


def test_enumerate_accepts_max_value_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "MT", "3,2", "--max-value", "0")
    assert code == 0 and "count: 0" in out
    code, out, _ = run(capsys, "enumerate", "SMT", "0", "--max-value", "0")
    assert code == 0 and "count: 1" in out


def test_enumerate_rt_requires_outer(capsys):
    code, _, err = run(capsys, "enumerate", "RT", "2,1")
    assert code == 1 and "outer" in err
    code, out, _ = run(capsys, "enumerate", "RT", "2,1", "--outer", "3,1")
    assert code == 0 and "count: 2" in out


@pytest.mark.parametrize("family", ["MT", "SMT+-", "maxSMT", "RT"])
def test_enumerate_rejects_malformed_outer(capsys, family):
    # --outer used to be parsed only for RT/SRT, so other families accepted any value
    code, out, err = run(capsys, "enumerate", family, "2,1", "--outer", "abc")
    assert code == 1 and out == ""
    assert "--outer" in err and "Traceback" not in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "maximal")
    assert code == 0
    assert "suite maximal: 4 cases, 0 failures" in out
    assert all(line.startswith(("PASS", "suite")) for line in out.strip().splitlines())


def test_verify_json(capsys):
    code, raw, _ = run(capsys, "verify", "maximal", "--format", "json")
    assert code == 0
    payload = json.loads(raw)
    assert payload["failures"] == 0
    assert len(payload["cases"]) == 4


def test_verify_reports_failures_with_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_suite", lambda name: [CaseResult("stub", False, "boom")]
    )
    code, out, _ = run(capsys, "verify", "routes")
    assert code == 2
    assert "FAIL stub -- boom" in out


def test_internal_invariant_breach_exits_three(capsys, monkeypatch):
    def explode(spec):
        raise ExactDivisionError("no exact quotient exists")

    monkeypatch.setattr(cli, "algebraic_series", explode)
    code, _, err = run(capsys, "compute", "J", "1", "--n", "2")
    assert code == 3
    assert "internal invariant breach" in err


def test_expansion_error_in_expand_exits_three(capsys, monkeypatch):
    # FamilySpec has validated the input, so a failed expansion is a breach
    def explode(spec):
        raise ExpansionError("leading shape (2, 2) is not strict")

    monkeypatch.setattr(cli, "basis_expansion", explode)
    code, _, err = run(capsys, "expand", "J", "2,1", "--n", "2")
    assert code == 3
    assert "internal invariant breach" in err


def _one_coefficient_off(series):
    """The series with its first term's coefficient raised by one."""
    code, coded = series.coded()
    first = max(coded)
    return TruncatedSeries(code, {**coded, first: coded[first] + 1}, series.x_cap, series.t_cap)


@pytest.mark.parametrize("family, mu", [("J", "2,1"), ("P", "2,1")])
def test_compute_says_disagree_when_the_routes_differ_in_one_coefficient(capsys, monkeypatch, family, mu):
    true_route = cli.combinatorial_series
    monkeypatch.setattr(cli, "combinatorial_series", lambda spec: _one_coefficient_off(true_route(spec)))
    argv = ("compute", family, mu, "--n", "2", "--tcap", "1", "--route", "both")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines()[-1] == "verdict: DISAGREE"
    code, raw, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(raw)["verdict"] == "DISAGREE"


@pytest.mark.parametrize("family, mu", [("J", "2,1"), ("P", "2,1")])
def test_expand_says_disagree_when_the_maximal_side_differs_in_one_coefficient(capsys, monkeypatch, family, mu):
    true_expansion = cli.expansion_via_maximal

    def one_coefficient_off(spec):
        exp = true_expansion(spec)
        (lam, coeff), *rest = exp.coefficients
        bumped = ((lam, coeff + Polynomial.constant(1, 0, spec.ell)), *rest)
        return BasisExpansion(exp.basis, exp.n, exp.nt, bumped)

    monkeypatch.setattr(cli, "expansion_via_maximal", one_coefficient_off)
    argv = ("expand", family, mu, "--n", "2", "--tcap", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines()[-1] == "verdict: DISAGREE"
    code, raw, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(raw)["verdict"] == "DISAGREE"


def test_one_parser_serves_successive_calls(capsys):
    # main builds its parser once; each call must see only its own arguments
    assert cli._build_parser() is cli._build_parser()
    code, raw, _ = run(
        capsys, "compute", "J", "2,1", "--n", "3", "--tcap", "2", "--xcap", "4",
        "--route", "algebraic", "--format", "json",
    )
    assert code == 0
    payload = json.loads(raw)
    assert list(payload["routes"]) == ["algebraic"]
    assert (payload["tcap"], payload["xcap"]) == (2, 4)
    code, out, _ = run(capsys, "compute", "J", "1", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == ["family: J", "mu: 1", "n: 2", "tcap: 1", "xcap: 3"]
    assert "route algebraic: 5 terms" in lines and "route combinatorial: 5 terms" in lines
    assert lines[-1] == "verdict: AGREE"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["compute", "J", "1"])
    assert exit_info.value.code == 1
    assert "the following arguments are required: --n" in capsys.readouterr().err


def test_expand_with_low_xcap_agrees(capsys):
    code, out, _ = run(capsys, "expand", "J", "2,1", "--n", "2", "--tcap", "1", "--xcap", "3")
    assert code == 0
    assert "verdict: AGREE" in out


@pytest.mark.parametrize("k", ["0", "-1", "5"])
def test_trace_rejects_stage_outside_one_to_ell(capsys, k):
    # the tableau is 4 columns wide, so ell = 4
    path = os.path.join(DATA, "outchain_straight_start.txt")
    code, out, err = run(capsys, "trace", path, "--k", k, "--flavor", "multiset")
    assert code == 1
    assert f"--k must be a stage label in 1..4, got {k}" in err
    assert out == ""


@pytest.mark.parametrize("ell", ["-2", "0", "9"])
def test_trace_rejects_ell_outside_one_to_width(capsys, ell):
    # the tableau is 4 columns wide; ell = 9 used to print "steps: 0" and exit 0
    path = os.path.join(DATA, "outchain_straight_start.txt")
    code, out, err = run(
        capsys, "trace", path, "--k", "2", "--flavor", "multiset", "--ell", ell
    )
    assert code == 1 and out == ""
    assert f"--ell must be in 1..4, got {ell}" in err


def test_trace_straight_chain(capsys):
    path = os.path.join(DATA, "outchain_straight_start.txt")
    code, out, _ = run(
        capsys, "trace", path, "--k", "2", "--flavor", "multiset", "--ell", "3"
    )
    assert code == 0
    steps = [line for line in out.splitlines() if line.startswith("step ")]
    assert steps == [
        "step 1: removed 3 at (2,2); path: (2,3) 4->3; appended 4 at (2,4)",
        "step 2: removed 3 at (2,2); path: (2,3) 3->3; (2,4) 4->3; appended 4 at (1,5)",
        "step 3: removed 2 at (1,2); path: (1,3) 2->2; (1,4) 2->2; (1,5) 4->2; appended 4 at (1,6)",
    ]
    assert "steps: 3" in out
    # every intermediate tableau of the worked chain is printed
    for state in out_chain_straight()[1:]:
        assert state.to_text() in out


def test_trace_shifted_chain(capsys):
    path = os.path.join(DATA, "outchain_shifted_start.txt")
    code, out, _ = run(
        capsys, "trace", path, "--k", "2", "--flavor", "shifted", "--ell", "3"
    )
    assert code == 0
    assert "steps: 4" in out
    assert "step 1: removed 5 at (3,4); appended 5 at (3,5)" in out
    for state in out_chain_shifted()[1:]:
        assert state.to_text() in out


def test_trace_in_direction_inverts_shifted_chain(capsys):
    path = os.path.join(DATA, "outchain_shifted_end.txt")
    code, out, _ = run(
        capsys, "trace", path, "--k", "2", "--flavor", "shifted", "--ell", "3",
        "--direction", "in", "--inner", "6,4,2",
    )
    assert code == 0
    assert "steps: 4" in out
    assert "deposited 2 at (1,2)" in out
    for state in reversed(out_chain_shifted()[:-1]):
        assert state.to_text() in out


def test_trace_in_direction_needs_inner(capsys):
    path = os.path.join(DATA, "outchain_shifted_end.txt")
    code, _, err = run(
        capsys, "trace", path, "--k", "2", "--flavor", "shifted", "--direction", "in"
    )
    assert code == 1 and "--inner" in err


def test_trace_singleton_is_empty(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("1 | 1\n2\n")
    code, out, _ = run(capsys, "trace", str(f), "--k", "1", "--flavor", "multiset")
    assert code == 0
    assert "steps: 0" in out


def test_trace_json_round_trip(capsys):
    path = os.path.join(DATA, "outchain_shifted_start.txt")
    code, raw, _ = run(
        capsys, "trace", path, "--k", "2", "--flavor", "shifted", "--ell", "3",
        "--format", "json",
    )
    payload = json.loads(raw)
    assert len(payload["steps"]) == 4
    assert payload["final"]["shape"] == [8, 5, 3]


def test_trace_rejects_bad_file(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 | 1\n2 | 2\n")  # second row lacks its placeholder
    code, _, err = run(capsys, "trace", str(f), "--k", "1", "--flavor", "shifted")
    assert code == 1 and "placeholder" in err


@pytest.mark.parametrize("flavor, text, message", [
    ("multiset", "2 | 1\n1\n", "row 1 does not increase at box 2"),
    ("multiset", "1 | 2\n1 | 1 | 1\n", "shape 2,3 is not a partition"),
    ("multiset", "1 |  | 2\n", "row 1 box 2 must hold positive entries"),
    ("multiset", "1 | 0\n", "row 1 box 2 must hold positive entries"),
    ("shifted", "2 | 1'\n. | 3\n", "row 1 does not increase at box 2"),
    ("shifted", "1 | 2\n. | 3 | 4\n", "shape 2,2 is not a strict partition"),
])
def test_trace_rejects_broken_shape_or_rows(capsys, tmp_path, flavor, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    code, out, err = run(capsys, "trace", str(f), "--k", "1", "--flavor", flavor)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("flavor", ["multiset", "shifted"])
def test_trace_refuses_an_empty_first_box_in_both_flavors(capsys, tmp_path, flavor):
    # the shifted parser reads each row's first box for the sign flag, which
    # must leave an empty box to the input check
    f = tmp_path / "empty.txt"
    f.write_text(" | 2\n")
    code, out, err = run(capsys, "trace", str(f), "--k", "1", "--flavor", flavor)
    assert (code, out, err) == (1, "", "error: trace input row 1 box 1 must hold positive entries\n")


@pytest.mark.parametrize("name, shifted", [
    ("outchain_straight_start.txt", False),
    ("outchain_shifted_start.txt", True),
    ("outchain_shifted_end.txt", True),
])
def test_trace_accepts_the_displayed_chains(name, shifted):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        text = fh.read()
    cls = ShiftedMultisetTableau if shifted else MultisetTableau
    tableau = cls.from_text(text)
    cli._check_trace_input(tableau, shifted)
    if not shifted:
        # the straight display breaks a column condition, which trace leaves alone
        assert not is_valid_mt(tableau)


def _readme_trace_examples():
    """README's example tableau and its `grothlab trace` command lines."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Tableau text format", 1)[1]
    tableau = section.split("```", 2)[1].strip("\n")
    commands = [
        line.split()[1:] for line in text.splitlines() if line.startswith("grothlab trace ")
    ]
    return tableau, commands


def _final_text(out):
    """The last tableau a text trace prints, between its last step and `steps:`."""
    lines = out.splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("step "))
    return "\n".join(lines[last + 1:-1])


def test_readme_trace_examples_run_and_invert(capsys, tmp_path):
    tableau, commands = _readme_trace_examples()
    assert [argv[1] for argv in commands] == ["tableau.txt", "grown.txt"]
    start = ShiftedMultisetTableau.from_text(tableau)
    (tmp_path / "tableau.txt").write_text(tableau + "\n")
    out_argv, in_argv = ([str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
                         for argv in commands)
    code, out, _ = run(capsys, *out_argv)
    assert code == 0
    (tmp_path / "grown.txt").write_text(_final_text(out) + "\n")
    code, out, _ = run(capsys, *in_argv)
    assert code == 0
    assert ShiftedMultisetTableau.from_text(_final_text(out)) == start


def test_readme_trace_names_the_bumped_box_as_its_steps_do(capsys, tmp_path):
    tableau, _ = _readme_trace_examples()
    (tmp_path / "tableau.txt").write_text(tableau + "\n")
    code, out, err = run(
        capsys, "trace", str(tmp_path / "tableau.txt"), "--k", "2", "--flavor", "shifted", "--ell", "3"
    )
    assert code == 1 and out == ""
    assert err == "error: bumped box at (1, 5) holds more than one entry\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "Q", "1", "--n", "1"])
    assert exc.value.code == 1


def test_compute_below_the_x_cap_prints_the_truncated_series(capsys):
    # --xcap 4 is below |mu| + tcap = 5, so the terms of x-degree 5 are cut
    code, out, _ = run(capsys, "compute", "J", "2,1", "--n", "2", "--tcap", "2", "--xcap", "4")
    assert code == 0
    terms = [
        "1  3 1 | 1 0", "1  3 1 | 0 1", "1  2 2 | 1 0", "2  2 2 | 0 1",
        "1  1 3 | 1 0", "1  1 3 | 0 1", "1  2 1 | 0 0", "1  1 2 | 0 0",
    ]
    assert out.splitlines() == [
        "family: J", "mu: 2,1", "n: 2", "tcap: 2", "xcap: 4",
        "route algebraic: 8 terms", *terms,
        "route combinatorial: 8 terms", *terms,
        "verdict: AGREE",
    ]


# Malformed input to every subcommand must end as a usage error: exit 1, a
# message on stderr and no traceback.
MALFORMED_MU = ["1,,2", "abc", ",", "-1", "2,-1", "1,2", "2,1,0"]
OVERSIZED_PART = "99999999999999999999"  # 10^20 t-variables, past what a monomial code holds
STRAIGHT_START = os.path.join(DATA, "outchain_straight_start.txt")
SHIFTED_FAMILIES = ("SMT", "SMT+-", "SST", "SST+-", "maxSMT")

MALFORMED_ARGV = (
    [["compute", "J", mu, "--n", "2"] for mu in MALFORMED_MU]
    + [["expand", "J", mu, "--n", "2"] for mu in MALFORMED_MU]
    + [["enumerate", fam, mu] for fam in cli._ENUMERATORS if fam not in ("RT", "SRT") for mu in MALFORMED_MU]
    + [["enumerate", fam, mu, "--outer", "3,2"] for fam in ("RT", "SRT") for mu in MALFORMED_MU]
    + [["enumerate", fam, "2", "--outer", outer] for fam in ("RT", "SRT") for outer in ("1,,2", "-3", "1,3", "3,0,1")]
    + [["enumerate", fam, "2,2"] for fam in SHIFTED_FAMILIES]
    + [
        ["compute", "P", "2,2", "--n", "2"],
        ["expand", "P", "2,2", "--n", "2"],
        ["enumerate", "SRT", "2,2", "--outer", "3,2"],
        ["enumerate", "RT", "2,1", "--outer", "3"],
        ["enumerate", "SRT", "2", "--outer", "3,1"],
        ["compute", "J", OVERSIZED_PART, "--n", "1", "--tcap", "0"],
        ["compute", "P", OVERSIZED_PART, "--n", "2", "--tcap", "1", "--format", "json"],
        ["expand", "J", OVERSIZED_PART, "--n", "1", "--tcap", "0"],
        ["compute", "J", "2,1", "--n", "abc"],
        ["compute", "J", "2,1", "--n", "0"],
        ["compute", "J", "2,1", "--n", "-2"],
        ["compute", "J", "2,1", "--n", "2", "--tcap", "-1"],
        ["compute", "J", "2,1", "--n", "2", "--tcap", "1.5"],
        ["compute", "J", "2,1", "--n", "2", "--xcap", "-1"],
        ["compute", "J", "2,1", "--n", "2", "--route", "nope"],
        ["compute", "J", "2,1", "--n", "2", "--format", "xml"],
        ["compute", "Q", "2,1", "--n", "2"],
        ["compute", "J", "2,1"],
        ["expand", "J", "2,1", "--n", "2", "--tcap", "x"],
        ["expand", "J", "2,1", "--n", "2", "--xcap", "-1"],
        ["expand", "schur", "2,1", "--n", "2"],
        ["enumerate", "MT", "2,1", "--max-value", "x"],
        ["enumerate", "MT", "2,1", "--max-value", "-1"],
        ["enumerate", "MT", "2,1", "--extra", "-1"],
        ["enumerate", "XX", "2,1"],
        ["verify", "nope"],
        ["verify", "all", "--format", "xml"],
        ["verify"],
        ["trace", STRAIGHT_START, "--k", "abc", "--flavor", "multiset"],
        ["trace", STRAIGHT_START, "--k", "1", "--flavor", "odd"],
        ["trace", STRAIGHT_START, "--k", "1", "--flavor", "multiset", "--ell", "x"],
        ["trace", STRAIGHT_START, "--k", "1", "--flavor", "multiset", "--direction", "sideways"],
        ["trace", STRAIGHT_START, "--k", "1", "--flavor", "multiset", "--direction", "in", "--inner", "1,,2"],
        ["trace", STRAIGHT_START, "--k", "1", "--flavor", "multiset", "--direction", "in", "--inner", "9,9"],
        ["trace", STRAIGHT_START, "--flavor", "multiset"],
        ["nope"],
        [],
    ]
)


@pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=" ".join)
def test_malformed_argv_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.strip() and "Traceback" not in err


def _parsed(parse, argv):
    """What `parse(argv)` leaves: (its namespace less `command`, or None,
    the exit code it raised, or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            found, code = vars(parse(argv)), None
            found.pop("command", None)
        except SystemExit as ex:
            found, code = None, ex.code
    return found, code, out.getvalue(), err.getvalue()


def _parses_as_the_top_level_parser(argv):
    assert _parsed(cli._parse_args, argv) == _parsed(cli._build_parser().parse_args, argv)


# main hands the tokens after a command to that command's parser alone; the
# bytes it prints, the exit code and the namespace must be those of the
# top-level parser, compared in one interpreter so that argparse's wording
# in any Python version is the reference
@pytest.mark.parametrize("argv", MALFORMED_ARGV + [
    ["-h"],
    *([command, "-h"] for command in cli._build_parser().commands),
    ["compute", "J", "1", "--n", "2"],
    ["compute", "J", "1", "--n", "2", "--bogus"],
    ["compute", "J", "1", "--n", "2", "extra", "more"],
    ["--", "compute", "J", "1", "--n", "2"],
], ids=" ".join)
def test_the_command_parser_answers_as_the_top_level_parser(argv):
    _parses_as_the_top_level_parser(argv)


COMMANDS = tuple(cli._build_parser().commands)
ARGV_TOKENS = COMMANDS + (
    "--n", "--tcap", "--tc", "--xcap", "--route", "--format", "--fo", "--outer", "--max-value", "--max",
    "--extra", "--k", "--flavor", "--direction", "--inner", "--ell", "-h", "--help", "--he", "--n=2",
    "J", "P", "schur", "MT", "RT", "routes", "all", "1", "2,1", "0", "-1", "both", "algebraic", "json",
    "multiset", "shifted", "in", STRAIGHT_START, "--", "-", "x", "--bogus", "-z", "a b",
)


@st.composite
def _argvs(draw):
    """At most 8 tokens of the commands' own vocabulary and some junk, the
    first a command half the time."""
    tokens = draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
    if draw(st.booleans()):
        tokens = [draw(st.sampled_from(COMMANDS)), *tokens[:7]]
    return tokens


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["compute", "J", "1", "--n", "2", "--he"])
@example(["compute", "J", "1", "--n=2", "--tc", "0", "x"])
@example(["verify", "routes", "x"])
def test_any_argv_parses_as_the_top_level_parser_parses_it(argv):
    _parses_as_the_top_level_parser(argv)


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["compute", "J", OVERSIZED_PART, "--n", "1", "--tcap", "0", "--route", "combinatorial"],
    ["compute", "P", OVERSIZED_PART, "--n", "1", "--tcap", "0", "--route", "combinatorial"],
    ["enumerate", "MT", OVERSIZED_PART],
    ["enumerate", "SMT", OVERSIZED_PART],
], ids=" ".join)
def test_shape_with_more_cells_than_a_list_holds_is_a_usage_error(argv):
    # in a child under a 1 GiB address-space limit and a timeout, so that a
    # shape whose cells are built one by one fails here, not on the host
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "grothlab.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_limit_memory, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "more cells than a list can hold" in done.stderr


@pytest.mark.parametrize("argv", [
    ["compute", "J", "100000", "--n", "1", "--tcap", "0", "--route", "algebraic"],
    ["compute", "P", "100000", "--n", "1", "--tcap", "0", "--route", "algebraic"],
    ["expand", "J", "100000", "--n", "1", "--tcap", "0"],
], ids=" ".join)
def test_long_row_on_the_algebraic_route_ends_in_its_terms_or_one_error_line(argv):
    # a code holds one digit per t-variable, one per column of mu; the
    # product once held a unit code per column, memory growing as the square
    # of the row, and a code of 10^20 digits never finished being built
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "grothlab.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_limit_memory, timeout=60,
    )
    assert "Traceback" not in done.stderr and "MemoryError" not in done.stderr
    if done.returncode == 1:
        assert done.stdout == "" and done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    else:
        assert done.returncode == 0 and done.stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # every CLI call pays for `import grothlab.cli`; dataclasses (with the
    # inspect it pulls in) and json once took most of it.  A fresh
    # interpreter, started as the benchmark's set-up timing starts one,
    # shows what the import loads, where a timing could not tell 10%.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import grothlab.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code, SRC], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


# a 2 MB series; a short write of it once went unseen on the single-route
# text path, which writes and flushes nothing after the series
SERIES_ARGV = ["compute", "J", "4,2,1", "--n", "6", "--tcap", "3"]


def _close_stdout_after(argv, size):
    """Run the CLI in a child (capsys has no file descriptor), read `size`
    bytes of its stdout and close the pipe, as `| head -c` does; returns
    (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    with subprocess.Popen(
        [sys.executable, "-m", "grothlab.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        left = size
        while left:
            chunk = child.stdout.read(left)
            assert chunk, f"stdout ended before {size} bytes"
            left -= len(chunk)
        child.stdout.close()
        err = child.stderr.read()
        return child.wait(timeout=60), err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_ends_quietly_with_the_sigpipe_status(fmt):
    # the reader takes a few bytes of 2 MB and closes the pipe, as `| head` does
    assert _close_stdout_after([*SERIES_ARGV, "--route", "algebraic", "--format", fmt], 20) == (141, b"")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("route", ["algebraic", "combinatorial"])
def test_stdout_closed_mid_series_ends_quietly_with_the_sigpipe_status(route, fmt):
    assert _close_stdout_after([*SERIES_ARGV, "--route", route, "--format", fmt], 100_000) == (141, b"")


def _limit_file_size():
    # a file that cannot grow past 1 MiB stands in for a full disk
    limit = 1 << 20
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("route", ["algebraic", "combinatorial"])
def test_stdout_full_mid_series_is_one_error_line(tmp_path, route, fmt):
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [*SERIES_ARGV, "--route", route, "--format", fmt]
    with open(tmp_path / "out", "wb") as out:
        done = subprocess.run(
            [sys.executable, "-m", "grothlab.cli", *argv], stdout=out, stderr=subprocess.PIPE,
            env=env, preexec_fn=_limit_file_size, timeout=60,
        )
    err = done.stderr.decode()
    assert done.returncode == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("route", ["algebraic", "combinatorial"])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, route):
    # a huge --tcap runs out of memory on either route; the stand-in raises
    # at once, so that no memory is spent to see it
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, f"{route}_series", exhausted)
    code, out, err = run(capsys, "compute", "J", "2", "--n", "2", "--tcap", "99999999999999999999", "--route", route)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "MemoryError" not in err


# every tableau walk but the counter recurses once per cell or row, so a
# shape past the cell bound is refused before any cell is built, instead of
# overflowing the stack
LONG_ROW = "1000"
# past the cell bound, and vanishing at n = 1: the bound is checked before
# expand returns the empty expansion of a family that vanishes
LONG_COLUMN = ",".join(["1"] * 501)
LONG_STAIRCASE = ",".join(map(str, range(32, 0, -1)))  # 528 cells


@pytest.mark.parametrize("argv", [
    ["compute", "J", LONG_ROW, "--n", "1", "--tcap", "0", "--route", "combinatorial"],
    ["compute", "P", LONG_ROW, "--n", "1", "--tcap", "0", "--route", "combinatorial"],
    ["enumerate", "MT", LONG_ROW, "--max-value", "1"],
    ["enumerate", "SMT", LONG_ROW, "--max-value", "1"],
    ["enumerate", "maxMT", LONG_ROW, "--extra", "0"],
    ["enumerate", "RT", "1", "--outer", LONG_ROW],
    ["expand", "J", LONG_ROW, "--n", "1", "--tcap", "0"],
    pytest.param(["expand", "J", LONG_COLUMN, "--n", "1", "--tcap", "0"], id="expand J 1^501 --n 1 --tcap 0"),
    pytest.param(["expand", "P", LONG_STAIRCASE, "--n", "1", "--tcap", "0"], id="expand P 32,31,...,1 --n 1 --tcap 0"),
    ["enumerate", "maxSMT", LONG_ROW, "--extra", "0"],
], ids=" ".join)
def test_shape_past_the_cell_bound_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "a tableau walk takes at most 500" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "MT", "1000000000000"],
    ["compute", "J", "1000000000000", "--n", "1", "--tcap", "0", "--route", "combinatorial"],
], ids=" ".join)
def test_shape_below_sys_maxsize_cells_is_refused_before_its_cells_are_built(argv):
    # 10^12 cells fit a list's length but not a 1 GiB address space: the
    # bound must be checked before the first cell is built
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "grothlab.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_limit_memory, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "a tableau walk takes at most" in done.stderr


@pytest.mark.parametrize("content", [
    b"", b"abc | def\n", b"1 | 2''\n", b"1 | 1 1 | 0\n", b"2 | 1\n1\n",
    b"1 |  | 2\n", b". | 1\n", b"1 | 2\n3 | 4 | 5\n", b"\x00\xff\xfe\n",
])
@pytest.mark.parametrize("flavor", ["multiset", "shifted"])
def test_malformed_tableau_file_is_a_usage_error(capsys, tmp_path, flavor, content):
    f = tmp_path / "tableau.txt"
    f.write_bytes(content)
    code, out, err = run(capsys, "trace", str(f), "--k", "1", "--flavor", flavor)
    assert code == 1 and out == ""
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("name", ["missing.txt", "."])
def test_unreadable_tableau_file_is_a_usage_error(capsys, tmp_path, name):
    code, out, err = run(capsys, "trace", str(tmp_path / name), "--k", "1", "--flavor", "multiset")
    assert code == 1 and out == ""
    assert err.strip() and "Traceback" not in err
