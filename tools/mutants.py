#!/usr/bin/env python3
"""A committed list of one-edit mutants, each of which some test must kill.

Each entry of MUTANTS is (name, file, old text, new text, tests).  For each
entry the script copies src/, tests/ and pyproject.toml into a fresh
temporary directory, replaces the old text, which must occur in the file
exactly once, by the new text, and runs pytest there on the named test
files or node ids only.  The mutant is killed when those tests fail
(pytest exit 1) and survives when they pass.  Any other outcome (the old
text not found exactly once, a collection or usage error, a timeout) is an
error.  Before the mutants, every named test runs once on an unmutated copy
and must pass, so that a kill means the edit itself was caught.  Then the
mutants run two at a time, each in its own copy.

    python tools/mutants.py              # the baseline, then every mutant
    python tools/mutants.py NAME ...     # the baseline, then the named mutants
    python tools/mutants.py --list       # the names, one a line

It prints one line per mutant, in the order of the list, and the run's wall
time, and exits 0 when every mutant it ran was killed, 1 otherwise.  It
needs only the standard library and pytest with hypothesis, as the test
suite does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300
WORKERS = 2  # mutants run at once, each pytest in its own process

INSERTION = "src/grothlab/insertion.py"
TABLEAUX = "src/grothlab/tableaux.py"
ALGEBRA = "src/grothlab/algebra.py"
POLYNOMIALS = "src/grothlab/polynomials.py"
VERIFY = "src/grothlab/verify.py"
CLI = "src/grothlab/cli.py"
FROZEN = "src/grothlab/frozen.py"
T_INSERTION = "tests/test_insertion.py"
T_ORACLES = "tests/test_stage_oracles.py"
T_TABLEAUX = "tests/test_tableaux.py"
T_ALGEBRA = "tests/test_algebra.py"
T_KOSTKA = "tests/test_kostka_oracles.py"
T_POLYNOMIALS = "tests/test_polynomials.py"
T_VERIFY = "tests/test_verify.py"
T_CLI = "tests/test_cli.py"
T_VALUES = "tests/test_value_classes.py"
T_FROZEN = "tests/test_frozen.py"

MUTANTS = [
    # the constructors compiled from __slots__: every default read as None,
    # and the last slot left unwritten.  test_value_classes.py builds values
    # at import, so under the second edit it does not collect (an error, not
    # a kill), and test_frozen.py's slot walk names that edit's killers
    ("frozen-defaults-dropped", FROZEN,
     'namespace = {f"_default_{n}": value for n, value in defaults.items()}',
     'namespace = dict.fromkeys(f"_default_{n}" for n in defaults)',
     [f"{T_VALUES}::test_the_constructor_defaults",
      f"{T_FROZEN}::test_a_default_is_bound_as_the_object_itself"]),
    ("frozen-last-slot-unwritten", FROZEN,
     'for n in names) or "\\n    pass"', 'for n in names[:-1]) or "\\n    pass"',
     [f"{T_FROZEN}::test_every_compiled_constructor_writes_each_slot"]),
    # the drivers of psi and phi
    ("stage-order-unchecked", INSERTION,
     "if col <= last:", "if False:",
     [f"{T_INSERTION}::test_stages_refuse_appended_boxes_out_of_order"]),
    ("moved-stage-unvalidated", INSERTION,
     "        t = _with_rows(p, rows)\n        if not valid(t):",
     "        t = _with_rows(p, rows)\n        if False:",
     [f"{T_ORACLES}::test_every_stage_of_the_examples_is_validated"]),
    # every line is visited, so a stage without moves validates its tableau
    # again, as every stage once did
    ("every-stage-validated", INSERTION,
     "    orders = _line_orders(p.rows)\n",
     "    orders = dict.fromkeys(range(ell), ()) | _line_orders(p.rows)\n",
     [f"{T_ORACLES}::test_every_stage_of_the_examples_is_validated"]),
    ("lines-ascending", INSERTION,
     "for idx in sorted(orders, reverse=True):", "for idx in sorted(orders):",
     [f"{T_ORACLES}::test_the_paper_examples_match_the_oracle"]),
    ("line-miscounted", INSERTION,
     "for v in box[1:]:", "for v in box[2:]:",
     [f"{T_ORACLES}::test_the_paper_examples_match_the_oracle"]),
    ("stage-order-ascending", INSERTION,
     "        order.sort(reverse=True)", "        order.sort()",
     [f"{T_ORACLES}::test_the_paper_examples_match_the_oracle"]),
    ("stage-tie-topmost", INSERTION,
     "        order.sort(reverse=True)", "        order.sort(key=lambda vr: (vr[0], -vr[1]), reverse=True)",
     [f"{T_INSERTION}::test_stage_takes_the_bottommost_box_on_ties"]),
    ("shifted-column-split-off-by-one", INSERTION,
     "return min(h, max(0, col - idx)), h", "return min(h, max(0, col - idx - 1)), h",
     [f"{T_INSERTION}::test_shifted_out_chain_reproduces_display"]),
    ("psi-k-label-unchecked", INSERTION,
     "    _check_label(k, ell)\n    idx = ell - k\n    return", "    idx = ell - k\n    return",
     [f"{T_INSERTION}::test_psi_k_refuses_a_stage_outside_its_labels"]),
    ("out-step-label-unchecked", INSERTION,
     "    _check_label(k, ell)\n    word = _family(t)[3]", "    word = _family(t)[3]",
     [f"{T_INSERTION}::test_out_step_refuses_a_stage_outside_its_labels"]),
    ("in-step-label-unchecked", INSERTION,
     "    _check_label(k, ell)\n    family = _family(t)", "    family = _family(t)",
     [f"{T_INSERTION}::test_in_step_refuses_a_stage_outside_its_labels"]),
    ("psi-k-inverse-label-unchecked", INSERTION,
     "    _check_label(k, ell)\n    return _on_copy(t, _unstage", "    return _on_copy(t, _unstage",
     [f"{T_INSERTION}::test_psi_k_inverse_refuses_a_stage_outside_its_labels"]),
    ("label-in-wrong-row", INSERTION,
     "labels[h].append(k)", "labels[0].append(k)",
     [f"{T_ORACLES}::test_the_paper_examples_match_the_oracle"]),
    ("strip-unsorted", INSERTION,
     "    if len(cells) > 1:\n        cells = sorted(", "    if False:\n        cells = sorted(",
     [f"{T_ORACLES}::test_the_paper_examples_match_the_oracle"]),
    ("psi-entry-unchecked", INSERTION,
     "if not is_valid_mt(p):", "if False:",
     [f"{T_INSERTION}::test_psi_and_phi_refuse_an_input_outside_their_family"]),
    ("phi-entry-unchecked", INSERTION,
     "if not is_valid_smt(p):", "if False:",
     [f"{T_INSERTION}::test_psi_and_phi_refuse_an_input_outside_their_family"]),
    ("stage-misnamed", INSERTION,
     'f"stage {k} left an invalid tableau"', 'f"stage {k + 1} left an invalid tableau"',
     [f"{T_ORACLES}::test_every_stage_of_the_examples_is_validated"]),
    ("psi-strip-unchecked", INSERTION,
     "if not is_valid_rt(rt):", "if False:",
     [f"{T_INSERTION}::test_psi_refuses_strip_entries_that_are_not_restricted"]),
    ("phi-strip-unchecked", INSERTION,
     "if not is_valid_srt(srt, mu):", "if False:",
     [f"{T_INSERTION}::test_phi_refuses_strip_entries_that_are_not_shifted_restricted"]),
    ("inverse-shape-unchecked", INSERTION,
     "if t.shape != mu:", "if False:",
     [f"{T_INSERTION}::test_inverses_refuse_to_end_off_the_inner_shape"]),
    ("deposit-by-largest-entry", INSERTION,
     "admits(rows[rr][idx][0], z)", "admits(rows[rr][idx][-1], z)",
     [f"{T_INSERTION}::test_in_deposits_by_the_box_minimum"]),
    # the out and in steps' own checks, each reached from a crafted tableau
    ("out-empty-line-unchecked", INSERTION,
     "if not any(idx < len(row) for row in t.rows):", "if False:",
     [f"{T_INSERTION}::test_out_refuses_an_empty_line"]),
    ("out-noncircled-unchecked", INSERTION,
     "    if not order:\n", "    if False:\n",
     [f"{T_INSERTION}::test_out_requires_a_noncircled_entry"]),
    ("append-blocked-unchecked", INSERTION,
     "    if s < h:\n        raise", "    if False:\n        raise",
     [f"{T_INSERTION}::test_out_refuses_appends_off_the_shape"]),
    ("append-extension-unchecked", INSERTION,
     "if h * shift + len(rows[h]) != col:", "if False:",
     [f"{T_INSERTION}::test_out_refuses_appends_off_the_shape"]),
    ("new-row-unchecked", INSERTION,
     "if col != h * shift:", "if False:",
     [f"{T_INSERTION}::test_out_refuses_appends_off_the_shape"]),
    ("in-admissible-box-unchecked", INSERTION,
     '        else:\n            raise InsertionError(f"no admissible box',
     '        else:\n            if False:\n                raise InsertionError(f"no admissible box',
     [f"{T_INSERTION}::test_in_refuses_an_entry_no_box_admits"]),
    # the tableau counter's two passes (cutting the root to stratum 0 cuts
    # every cap alike, so only the census tallies see it)
    ("count-depth-of-first-caller", TABLEAUX,
     "if reached_next.get(state, -1) < top - extra:", "if state not in reached_next:",
     [f"{T_TABLEAUX}::test_count_by_weight_tallies_the_census",
      f"{T_TABLEAUX}::test_count_mt_by_weight_is_the_census_tally",
      f"{T_TABLEAUX}::test_count_smt_by_weight_is_the_census_tally",
      f"{T_TABLEAUX}::test_the_count_at_a_cap_is_the_next_cap_cut_to_it"]),
    ("count-fold-reads-own-degree", TABLEAUX,
     "layer = below[kept | bits << place][d - extra]", "layer = below[kept | bits << place][d]",
     [f"{T_TABLEAUX}::test_count_by_weight_tallies_the_census",
      f"{T_TABLEAUX}::test_the_count_at_a_cap_is_the_next_cap_cut_to_it"]),
    ("count-root-joins-stratum-0", TABLEAUX,
     "for layer in below[0]:", "for layer in below[0][:1]:",
     [f"{T_TABLEAUX}::test_count_by_weight_tallies_the_census",
      f"{T_TABLEAUX}::test_count_mt_by_weight_is_the_census_tally"]),
    # the Kostka columns on the bound's live rows: one row too few loses
    # every lam that fills them
    ("kostka-live-row-dropped", ALGEBRA,
     "bound = bound[:r]", "bound = bound[:r - 1]",
     [f"{T_KOSTKA}::test_schur_to_monomials_is_the_n_row_expansion"]),
    ("kostka-starts-on-n-rows", ALGEBRA,
     "{(0,) * len(bound): 1}", "{(0,) * n: 1}",
     [f"{T_KOSTKA}::test_kostka_columns_on_the_live_rows_are_the_n_row_columns_cut_to_them"]),
    # the reach test made strict: a prefix whose remaining parts all equal
    # `part` exactly, and every last part, no longer grows
    ("kostka-reach-strict", ALGEBRA,
     "reach[bisect_left(reach, size + part)] > size + part * rows",
     "reach[bisect_left(reach, size + part)] >= size + part * rows",
     [f"{T_KOSTKA}::test_kostka_columns_and_their_order_are_those_of_the_any_reach_test"]),
    # series equality on codes
    ("series-length-unchecked", ALGEBRA,
     "self.x_cap, self.t_cap, code.nx, code.nt, len(coded)) != (\n"
     "            other.x_cap, other.t_cap, other_code.nx, other_code.nt, len(other_coded)",
     "self.x_cap, self.t_cap, code.nx, code.nt) != (\n"
     "            other.x_cap, other.t_cap, other_code.nx, other_code.nt",
     [f"{T_ALGEBRA}::test_series_differing_in_one_coefficient_or_term_are_unequal"]),
    ("series-degrees-unchecked", ALGEBRA,
     "if any(sum(e) > code.x_degree for e in xs.values()) or any(sum(e) > code.t_degree for e in ts.values()):",
     "if False:",
     [f"{T_ALGEBRA}::test_a_term_past_the_code_degrees_is_no_term_of_the_series"]),
    # the P product: the head-sorted rows and the box-sum stair; a repeated
    # head exponent has A = 0, so only the head sort's own test sees it kept
    ("head-sort-keeps-repeats", POLYNOMIALS,
     "        if len(set(xe)) < head:\n            continue\n", "        if False:\n            continue\n",
     [f"{T_POLYNOMIALS}::test_head_sort_drops_repeated_heads_and_signs_the_rest"]),
    ("head-sort-unsigned", POLYNOMIALS,
     "sign = perm_sign([-e for e in xe])", "sign = 1",
     [f"{T_POLYNOMIALS}::test_head_sort_drops_repeated_heads_and_signs_the_rest",
      f"{T_POLYNOMIALS}::test_shifted_product_is_the_paper_product_under_antisymmetrization"]),
    # each row of lam~ laid in one tail variable, as a row, not as a column
    ("box-complement-unconjugated", POLYNOMIALS,
     "sum([columns[k - p] for p in lam])", "sum([(k - p) * columns[1] for p in lam])",
     [f"{T_POLYNOMIALS}::test_shifted_product_is_the_paper_product_under_antisymmetrization",
      f"{T_POLYNOMIALS}::test_packed_product_matches_tuple_series_product"]),
    ("delta-tail-off-by-one", POLYNOMIALS,
     "delta_tail = range(k - 1, -1, -1)", "delta_tail = range(k, 0, -1)",
     [f"{T_POLYNOMIALS}::test_packed_product_matches_tuple_series_product"]),
    # the expansion and the h-product routes
    ("maximal-weight-unchecked", POLYNOMIALS,
     "if not is_partition(wt):", "if False:",
     [f"{T_POLYNOMIALS}::test_expansion_via_maximal_refuses_a_weight_that_is_not_a_partition"]),
    ("hmult-count-unchecked", POLYNOMIALS,
     "if len(t_exps) != spec.ell:", "if False:",
     [f"{T_POLYNOMIALS}::test_both_hmult_routes_refuse_a_wrong_number_of_t_exponents"]),
    ("good-extension-count-unchecked", POLYNOMIALS,
     "        raise ValueError(\"the good-extension route applies to family J\")\n"
     "    t_exps = _hmult_exponents(spec, t_exps)\n",
     "        raise ValueError(\"the good-extension route applies to family J\")\n"
     "    t_exps = tuple(t_exps)\n",
     [f"{T_POLYNOMIALS}::test_both_hmult_routes_refuse_a_wrong_number_of_t_exponents"]),
    # the verdicts of compute and expand
    ("compute-always-agrees", CLI,
     'verdict = "AGREE" if a == b else "DISAGREE"', 'verdict = "AGREE"',
     [f"{T_CLI}::test_compute_says_disagree_when_the_routes_differ_in_one_coefficient"]),
    ("expand-always-agrees", CLI,
     'verdict = "AGREE" if expansion == via_maximal else "DISAGREE"', 'verdict = "AGREE"',
     [f"{T_CLI}::test_expand_says_disagree_when_the_maximal_side_differs_in_one_coefficient"]),
    # the checks of the verify suites
    ("psi-image-unchecked", VERIFY,
     "if not (is_valid_ssyt(q) and is_valid_rt(r)):", "if False:",
     [f"{T_VERIFY}::test_psi_case_reports_an_invalid_image_and_unpreserved_weights"]),
    ("psi-weights-unchecked", VERIFY,
     "if q.weight() != p.weight() or r.weight(p.ell) != p.column_weight():", "if False:",
     [f"{T_VERIFY}::test_psi_case_reports_an_invalid_image_and_unpreserved_weights"]),
    ("psi-round-trip-unchecked", VERIFY,
     "if psi_inverse(q, r) != p:", "if False:",
     [f"{T_VERIFY}::test_psi_case_reports_a_failed_round_trip_and_a_maximality_mismatch"]),
    ("psi-maximality-unchecked", VERIFY,
     "if highest != is_maximal_mt(p):", "if False:",
     [f"{T_VERIFY}::test_psi_case_reports_a_failed_round_trip_and_a_maximality_mismatch"]),
    ("psi-pair-census-unchecked", VERIFY,
     'return "" if rhs == classes else', 'return "" if True else',
     [f"{T_VERIFY}::test_psi_case_reports_a_pair_census_that_differs"]),
    ("phi-image-unchecked", VERIFY,
     "if not (is_valid_sst(ShiftedMultisetTableau(q.rows, signed=True))\n"
     "                and is_valid_srt(r, mu)):",
     "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_an_invalid_image_and_unpreserved_weights"]),
    ("phi-weights-unchecked", VERIFY,
     "if q.weight() != p.weight() or r.weight(p.ell) != p.diagonal_weight():", "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_an_invalid_image_and_unpreserved_weights"]),
    ("phi-round-trip-unchecked", VERIFY,
     "if phi_inverse(q, r) != p:", "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_a_failed_round_trip"]),
    ("phi-unsigned-family-unchecked", VERIFY,
     "if q.signed or not is_valid_sst(q):", "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_an_unsigned_input_that_leaves_its_family"]),
    ("phi-maximality-unchecked", VERIFY,
     "if highest != is_maximal_smt(p):", "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_a_maximality_mismatch"]),
    ("phi-fibers-unchecked", VERIFY,
     "if set(fibers) != set(unsigned) or any(v != (1 << m) for v in fibers.values()):", "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_strip_signs_fibers_that_are_not_uniform"]),
    ("phi-signed-sum-unchecked", VERIFY,
     "if signed_smt_sum(spec).poly != combinatorial_series(spec).poly * (1 << m):", "if False:",
     [f"{T_VERIFY}::test_phi_case_reports_a_signed_sum_off_its_factor"]),
    ("phi-pair-census-unchecked", VERIFY,
     'return "" if rhs == lhs else', 'return "" if True else',
     [f"{T_VERIFY}::test_phi_case_reports_a_pair_census_that_differs"]),
    ("lemma-routes-unchecked", VERIFY,
     "    if split is None:\n", "    if False:\n",
     [f"{T_VERIFY}::test_lemma_case_reports_routes_that_disagree"]),
    ("lemma-partitions-unchecked", VERIFY,
     "if any(e.level(h) != tuple(sorted(e.level(h), reverse=True)) for h in range(e.ell + 1)):", "if False:",
     [f"{T_VERIFY}::test_lemma_case_reports_a_good_extension_off_the_partitions"]),
    ("iota-good-image-unchecked", VERIFY,
     "if is_good_extension(img.extension):", "if False:",
     [f"{T_VERIFY}::test_lemma_case_reports_iota_reaching_a_good_extension"]),
    ("iota-sign-unchecked", VERIFY,
     "if img.sign != -pair.sign:", "if False:",
     [f"{T_VERIFY}::test_lemma_case_reports_iota_keeping_the_sign"]),
    ("iota-involution-unchecked", VERIFY,
     "if iota(img) != pair:", "if False:",
     [f"{T_VERIFY}::test_lemma_case_reports_iota_that_is_not_an_involution"]),
    ("iota-monomial-unchecked", VERIFY,
     "if img.monomial() != pair.monomial():", "if False:",
     [f"{T_VERIFY}::test_lemma_case_reports_iota_moving_the_monomial"]),
    ("maximal-straight-round-trip-unchecked", VERIFY,
     "if not is_valid_rt(f) or rt_to_maximal_mt(f) != t:", "if False:",
     [f"{T_VERIFY}::test_maximal_case_reports_failed_round_trips"]),
    ("maximal-column-weight-unchecked", VERIFY,
     "if f.weight(t.ell) != t.column_weight():", "if False:",
     [f"{T_VERIFY}::test_maximal_case_reports_unpreserved_label_weights"]),
    ("maximal-shifted-round-trip-unchecked", VERIFY,
     "if not is_valid_srt(f, mu) or srt_to_maximal_smt(f) != t:", "if False:",
     [f"{T_VERIFY}::test_maximal_case_reports_failed_round_trips"]),
    ("maximal-diagonal-weight-unchecked", VERIFY,
     "if f.weight(t.ell) != t.diagonal_weight():", "if False:",
     [f"{T_VERIFY}::test_maximal_case_reports_unpreserved_label_weights"]),
    ("routes-agreement-unchecked", VERIFY,
     "if alg != comb:", "if False:",
     [f"{T_VERIFY}::test_routes_case_reports_routes_that_disagree"]),
    ("routes-t0-unchecked", VERIFY,
     "if specialize_t(alg, (0,) * spec.ell) != (pschur if spec.shifted else schur)(mu, n):", "if False:",
     [f"{T_VERIFY}::test_routes_case_reports_a_wrong_t0_specialization"]),
    ("routes-hmult-unchecked", VERIFY,
     "if got != alg.coefficient_of_t(t_exps):", "if False:",
     [f"{T_VERIFY}::test_routes_case_reports_a_wrong_h_product_coefficient"]),
    ("routes-good-extension-unchecked", VERIFY,
     "if not spec.shifted and hmult_good_extension_route(spec, t_exps) != got:", "if False:",
     [f"{T_VERIFY}::test_routes_case_reports_a_wrong_good_extension_route"]),
    ("routes-symmetry-unchecked", VERIFY,
     "if not alg.poly.is_symmetric_x():", "if False:",
     [f"{T_VERIFY}::test_routes_case_reports_a_series_not_symmetric_in_x"]),
    ("positivity-sign-unchecked", VERIFY,
     "if not expansion.is_nonnegative():", "if False:",
     [f"{T_VERIFY}::test_positivity_case_reports_a_negative_coefficient"]),
]


def _copy_tree(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(cwd: str, tests) -> tuple[int | None, str]:
    """(pytest's exit code, or None on a timeout; the tail of its output)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    env.pop("GROTHLAB_CENSUS_SCALE", None)
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    return done.returncode, "\n".join((done.stdout + done.stderr).strip().splitlines()[-5:])


def _run(entry) -> tuple[str, str]:
    """(verdict, detail) for one mutant: killed, survived or error."""
    _, path, old, new, tests = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        target = os.path.join(tmp, path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        found = text.count(old)
        if found != 1:
            return "error", f"old text found {found} times in {path}"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        code, tail = _pytest(tmp, tests)
    if code == 1:
        return "killed", ""
    if code == 0:
        return "survived", ""
    return "error", f"pytest exit {code}:\n{tail}"


def _timed_run(entry) -> tuple[str, str, float]:
    """`_run` with its wall time in seconds."""
    start = time.perf_counter()
    verdict, detail = _run(entry)
    return verdict, detail, time.perf_counter() - start


def main(argv: list[str]) -> int:
    names = [entry[0] for entry in MUTANTS]
    if argv == ["--list"]:
        print("\n".join(names))
        return 0
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 1
    chosen = [entry for entry in MUTANTS if not argv or entry[0] in argv]
    start = time.perf_counter()
    tests = list(dict.fromkeys(test for entry in chosen for test in entry[4]))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        code, tail = _pytest(tmp, tests)
    if code != 0:
        print(f"baseline: the named tests do not pass on the unmutated tree (pytest exit {code})\n{tail}")
        return 1
    print(f"baseline: {len(tests)} test targets pass unmutated", flush=True)
    bad = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for entry, (verdict, detail, seconds) in zip(chosen, pool.map(_timed_run, chosen)):
            bad += verdict != "killed"
            print(f"{verdict:8} {entry[0]} ({entry[1]}, {seconds:.1f} s)", flush=True)
            if detail:
                print(detail)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    print(f"wall time {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
