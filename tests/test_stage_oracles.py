"""The in-place stage runners against the step-by-step bodies they replaced.

The reference oracles below are the earlier bodies of `_stage_done`,
`psi_k`, `psi_k_inverse`, `_run_stages` and `_undo_stages`.  They run on the
public `out_step`/`in_step`, so every move rebuilds the tableau, and stage k
runs until the active line holds single entries.  `psi`, `phi` and both
inverses are compared with the same calls made while the oracles stand in
for the current runners; an exception counts as its type and text.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import grothlab.insertion as insertion
from grothlab.fixtures import example_mt, example_smt
from grothlab.insertion import (
    InsertionError,
    _run_stages,
    in_step,
    out_step,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    psi_k,
    psi_k_inverse,
)
from grothlab.tableaux import MultisetTableau, SkewFilling
from test_insertion import random_mt, random_smt

# ---------------------------------------------------------------------------
# reference oracles


def ref_stage_done(t, idx):
    return all(len(row[idx]) == 1 for row in t.rows if idx < len(row))


def ref_psi_k(t, k, ell):
    idx = ell - k
    traces = []
    while not ref_stage_done(t, idx):
        t, trace = out_step(t, k, ell)
        traces.append(trace)
    return t, traces


def ref_psi_k_inverse(t, k, ell, cells):
    for cell in sorted(cells, key=lambda rc: -rc[1]):
        t, _ = in_step(t, k, ell, cell)
    return t


def ref_run_stages(p, valid):
    ell = p.ell
    t = p
    marks = {}
    for k in range(1, ell + 1):
        t, traces = ref_psi_k(t, k, ell)
        cols = [tr.appended_cell[1] for tr in traces]
        if any(c2 <= c1 for c1, c2 in zip(cols, cols[1:])):
            raise InsertionError("appended boxes must move strictly right")
        for tr in traces:
            marks[tr.appended_cell] = k
        if not valid(t):
            raise InsertionError(f"stage {k} left an invalid tableau")
    return t, marks


def ref_undo_stages(q, r, mu, offset):
    ell = mu[0] if mu else 0
    t = q
    for k in range(ell, 0, -1):
        cells = [
            (rr, r.inner[rr] + i + offset)
            for rr, row in enumerate(r.rows)
            for i, v in enumerate(row)
            if v == k
        ]
        t = ref_psi_k_inverse(t, k, ell, cells)
    if t.shape != mu:
        raise InsertionError("inverse did not return to the inner shape")
    return t


def outcome(fn, *args):
    """fn(*args), or (type name, text) of the exception it raised."""
    try:
        return fn(*args)
    except Exception as ex:
        return type(ex).__name__, str(ex)


def oracle(fn, *args):
    """outcome(fn, *args) with the reference stage runners in place."""
    with mock.patch.object(insertion, "_run_stages", ref_run_stages), \
            mock.patch.object(insertion, "_undo_stages", ref_undo_stages):
        return outcome(fn, *args)


def noncircled(t, k, ell):
    idx = ell - k
    return sum(len(row[idx]) - 1 for row in t.rows if idx < len(row))


# ---------------------------------------------------------------------------
# the stage runners against the oracles


def check_stages(p):
    """psi_k and psi_k_inverse stage by stage, then the full bijection."""
    ell = p.ell
    t = p
    for k in range(1, ell + 1):
        expected = outcome(ref_psi_k, t, k, ell)
        assert outcome(psi_k, t, k, ell) == expected
        if not isinstance(expected[1], list):
            break
        stepped, traces = expected
        cells = [tr.appended_cell for tr in traces]
        assert outcome(psi_k_inverse, stepped, k, ell, cells) == outcome(
            ref_psi_k_inverse, stepped, k, ell, cells
        )
        t = stepped


def check_inverse_on_perturbed_r(inverse, q, r, ell, data):
    """Change one label of R to any of 0..ell+1; both stage runners agree."""
    cells = [(rr, i) for rr, row in enumerate(r.rows) for i in range(len(row))]
    assert inverse(q, r) == oracle(inverse, q, r)
    if not cells:
        return
    rr, i = data.draw(st.sampled_from(cells))
    label = data.draw(st.integers(0, ell + 1))
    rows = list(r.rows)
    rows[rr] = rows[rr][:i] + (label,) + rows[rr][i + 1 :]
    bent = SkewFilling(r.outer, r.inner, tuple(rows))
    assert outcome(inverse, q, bent) == oracle(inverse, q, bent)


@settings(max_examples=150, deadline=None)
@given(random_mt(), st.data())
def test_psi_matches_the_stepwise_oracle(p, data):
    check_stages(p)
    got = outcome(psi, p)
    assert got == oracle(psi, p)
    if isinstance(got[1], SkewFilling):
        check_inverse_on_perturbed_r(psi_inverse, *got, p.ell, data)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(random_smt), st.data())
def test_phi_matches_the_stepwise_oracle(p, data):
    check_stages(p)
    got = outcome(phi, p)
    assert got == oracle(phi, p)
    if isinstance(got[1], SkewFilling):
        check_inverse_on_perturbed_r(phi_inverse, *got, p.ell, data)


def test_the_paper_examples_match_the_oracle():
    for p, bijection, inverse in ((example_mt(), psi, psi_inverse), (example_smt(), phi, phi_inverse)):
        check_stages(p)
        q, r = bijection(p)
        assert (q, r) == oracle(bijection, p)
        assert inverse(q, r) == oracle(inverse, q, r) == p


# ---------------------------------------------------------------------------
# every stage is validated, once, on its own tableau


def stage_tableaux(p):
    """The tableau after each stage k = 1..ell, and the moves of each stage."""
    ell = p.ell
    t, states, moves = p, [], []
    for k in range(1, ell + 1):
        moves.append(noncircled(t, k, ell))
        t, _ = ref_psi_k(t, k, ell)
        states.append(t)
    return states, moves


def check_validated_once_per_stage(p):
    try:
        states, moves = stage_tableaux(p)
    except InsertionError:
        return
    seen = []
    q, marks = _run_stages(p, lambda t: seen.append(t) or True)
    assert seen == states and q == states[-1]
    assert [list(marks.values()).count(k) for k in range(1, p.ell + 1)] == moves
    # a validator refusing stage j stops the run there, naming j
    for j in range(1, p.ell + 1):
        calls = []

        def refuse_at_j(t):
            calls.append(t)
            return len(calls) != j

        assert outcome(_run_stages, p, refuse_at_j) == (
            "InsertionError", f"stage {j} left an invalid tableau"
        )
        assert calls == states[:j]


def test_every_stage_of_the_examples_is_validated():
    # the last has a stage without moves, whose tableau is validated again
    examples = (example_mt(), example_smt(), MultisetTableau((((1,), (1, 2)), ((2,),))))
    assert [stage_tableaux(p)[1] for p in examples] == [[4, 1, 2], [1, 2, 1, 5, 2], [1, 0]]
    for p in examples:
        check_validated_once_per_stage(p)


@settings(max_examples=100, deadline=None)
@given(random_mt())
def test_every_straight_stage_is_validated(p):
    check_validated_once_per_stage(p)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(random_smt))
def test_every_shifted_stage_is_validated(p):
    check_validated_once_per_stage(p)
