"""The in-place stage runners and steps against the bodies they replaced.

The reference oracles below are the earlier bodies of `_stage_done`,
`psi_k`, `psi_k_inverse`, `_run_stages` and `_undo_stages`, of
`_line_order`, which read one line's order off the rows at the start of
its stage, and of the out and in steps `_largest_noncircled`, `_out` and
`_in`, which scanned
each box for its minimum and its largest noncircled entry where the
current steps read the ends of the sorted box.  The runners move one step
at a time through `_on_copy`, so every move rebuilds the tableau, and
stage k runs until the active line holds single entries; every stage is
validated, moved or not.  `ref_run_stages` keeps the earlier map from
each appended cell to its stage and reads R's rows off it, which is the
contract of `_run_stages` now.  `psi`, `phi`
and both inverses are compared with the same calls made while the oracles
stand in for the current runners; an exception counts as its type and
text.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import grothlab.insertion as insertion
from grothlab.insertion import (
    InsertionError,
    InTrace,
    OutTrace,
    PrimedDuplicationError,
    _cell_text,
    _column,
    _first_bump,
    _last_bump,
    _line_orders,
    _on_copy,
    _run_stages,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    psi_k,
    psi_k_inverse,
)
from grothlab.tableaux import MultisetTableau, SkewFilling, _smt_structure_ok, is_valid_mt
from examples import example_mt, example_smt
from test_insertion import random_mt, random_smt

# ---------------------------------------------------------------------------
# reference oracles


def ref_largest_noncircled(boxes):
    """(value, row) of the largest noncircled entry, bottommost box on ties."""
    best = None
    for r, box in boxes:
        extras = list(box)
        extras.remove(min(box))
        for v in extras:
            if best is None or v > best[0] or (v == best[0] and r >= best[1]):
                best = (v, r)
    return best


def ref_line_order(rows, idx):
    """(value, row) of every noncircled entry on line idx, largest first and
    bottommost box first on ties."""
    order = [(v, r) for r, row in enumerate(rows) if idx < len(row) for v in row[idx][1:]]
    order.sort(reverse=True)
    return order


def ref_out(rows, k: int, ell: int, family) -> OutTrace:
    """One out move at stage k on a list of row lists, in place."""
    shift, order, _, word = family
    idx = ell - k
    boxes = [(r, row[idx]) for r, row in enumerate(rows) if idx < len(row)]
    if not boxes:
        raise InsertionError(f"{word} {k} is empty")
    pick = ref_largest_noncircled(boxes)
    if pick is None:
        raise InsertionError(f"no noncircled entry remains in {word} {k}")
    v, r0 = pick
    box = list(rows[r0][idx])
    box.remove(v)
    rows[r0][idx] = tuple(box)

    a, col = v, r0 * shift + idx + 1
    path = []
    while True:
        s, h = _column(rows, col, shift, idx)
        cells = [rows[r][col - r * shift][0] for r in range(s)]
        i = _first_bump(a, cells, order)
        if i is None:
            break
        if len(rows[i][col - i * shift]) != 1:
            raise InsertionError(f"bumped box at {_cell_text(i, col)} holds more than one entry")
        path.append((i, col, cells[i], a))
        rows[i][col - i * shift] = (a,)
        a, col = cells[i], col + 1
    # a lands at the foot of column col, in row h
    if s < h:
        raise InsertionError("append blocked by the circled cell")
    if h < len(rows):
        if h * shift + len(rows[h]) != col:
            raise InsertionError("append does not extend a row")
        rows[h].append((a,))
    else:
        if col != h * shift:
            raise InsertionError("append cannot start a new row here")
        rows.append([(a,)])
    return OutTrace(v, (r0, r0 * shift + idx), tuple(path), (h, col), a)


def ref_in(rows, k: int, ell: int, cell, family) -> InTrace:
    """One in move at stage k on a list of row lists, in place."""
    shift, order, admits, word = family
    idx = ell - k
    r, col = cell
    c = col - r * shift
    if c <= idx:
        raise InsertionError(f"{_cell_text(r, col)} is not strictly right of {word} {k}")
    if not 0 <= r < len(rows) or c != len(rows[r]) - 1:
        raise InsertionError(f"{_cell_text(r, col)} is not the last box of its row")
    if r + 1 < len(rows) and col - (r + 1) * shift < len(rows[r + 1]):
        raise InsertionError(f"{_cell_text(r, col)} is not a removable corner")
    if len(rows[r][c]) != 1:
        raise InsertionError(f"corner box at {_cell_text(r, col)} must hold a single entry")
    removed = z = rows[r][c][0]
    rows[r].pop()
    if not rows[r]:
        rows.pop()

    path = []
    while True:
        col -= 1
        s, h = _column(rows, col, shift, idx)
        # deposit into the lowest circled box whose minimum admits z; only
        # straight column idx holds more than one, and as its minima increase
        # strictly downward this is the box with m <= z < (min of the next)
        target = None
        for rr in range(s, h):
            if col - rr * shift == idx and admits(min(rows[rr][idx]), z):
                target = rr
        if target is not None:
            break
        cells = [rows[rr][col - rr * shift][0] for rr in range(s)]
        i = _last_bump(cells, z, order)
        if i is None:
            raise InsertionError(f"no admissible box in {word} {k} for {z}")
        if len(rows[i][col - i * shift]) != 1:
            raise InsertionError(f"bumped box at {_cell_text(i, col)} holds more than one entry")
        path.append((i, col, cells[i], z))
        rows[i][col - i * shift] = (z,)
        z = cells[i]

    box = rows[target][idx]
    # only shifted entries carry primes, and a box holds each primed value once
    if shift and z.primed and z in box:
        raise PrimedDuplicationError(
            f"deposit of {z} duplicates a primed entry at {_cell_text(target, col)}"
        )
    rows[target][idx] = tuple(sorted(box + (z,)))
    return InTrace(cell, removed, tuple(path), (target, col), z)


def ref_stage_done(t, idx):
    return all(len(row[idx]) == 1 for row in t.rows if idx < len(row))


def ref_psi_k(t, k, ell):
    idx = ell - k
    traces = []
    while not ref_stage_done(t, idx):
        t, trace = _on_copy(t, ref_out, k, ell)
        traces.append(trace)
    return t, traces


def ref_psi_k_inverse(t, k, ell, cells):
    for cell in sorted(cells, key=lambda rc: -rc[1]):
        t, _ = _on_copy(t, ref_in, k, ell, cell)
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
    return t, labels_by_row(marks, len(t.rows))


def labels_by_row(marks, nrows):
    """R's rows from the marks: row r lists the labels of the cells that
    were appended to row r of Q, by column."""
    return tuple(
        tuple(marks[cell] for cell in sorted(cell for cell in marks if cell[0] == r))
        for r in range(nrows)
    )


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
# every stage's order is read from the input


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_mt(), st.booleans().flatmap(random_smt)))
def test_line_orders_of_the_input_are_those_at_the_start_of_each_stage(p):
    # MT, SMT and SMT+- inputs; stages run by the stepwise oracle up to the
    # first that refuses, and a line without an order has none in the input
    ell = p.ell
    orders = _line_orders(p.rows)
    assert set(orders) <= set(range(ell)) and all(orders.values())
    t = p
    for k in range(1, ell + 1):
        idx = ell - k
        assert orders.get(idx, []) == ref_line_order(t.rows, idx)
        try:
            t, _ = ref_psi_k(t, k, ell)
        except InsertionError:
            return


# ---------------------------------------------------------------------------
# every stage's tableau is validated once: when its stage moved


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
    """_run_stages validates the tableau of each stage that moved, once and
    in stage order, and nothing else: a stage without a move hands on the
    tableau validated before it.  A validator refusing its j-th call stops
    the run at the stage of that call, naming it."""
    try:
        states, moves = stage_tableaux(p)
    except InsertionError:
        return
    moved = [k for k, n in enumerate(moves, 1) if n]
    validated = [states[k - 1] for k in moved]
    seen = []
    q, labels = _run_stages(p, lambda t: seen.append(t) or True)
    assert seen == validated and q == states[-1]
    assert [sum(row.count(k) for row in labels) for k in range(1, p.ell + 1)] == moves
    for j, k in enumerate(moved, 1):
        calls = []

        def refuse_at_j(t):
            calls.append(t)
            return len(calls) != j

        assert outcome(_run_stages, p, refuse_at_j) == (
            "InsertionError", f"stage {k} left an invalid tableau"
        )
        assert calls == validated[:j]


def check_as_validating_every_stage(p, refused_stages):
    """The outcome of _run_stages is that of the reference driver, which
    validates every stage, for the validator psi or phi passes and for a
    pure validator refusing the tableaux of refused_stages.  Both accept p,
    as psi's and phi's entry tests make sure of the real one."""
    real = is_valid_mt if isinstance(p, MultisetTableau) else _smt_structure_ok
    assert outcome(_run_stages, p, real) == outcome(ref_run_stages, p, real)
    try:
        states, _ = stage_tableaux(p)
    except InsertionError:
        return
    bad = [states[k - 1] for k in refused_stages]

    def refuse(t):
        return t == p or t not in bad

    assert outcome(_run_stages, p, refuse) == outcome(ref_run_stages, p, refuse)


def test_every_stage_of_the_examples_is_validated():
    # the third has a last stage without moves, the fourth a first one; in
    # both, the tableau of that stage was validated before it
    examples = (
        example_mt(),
        example_smt(),
        MultisetTableau((((1,), (1, 2)), ((2,),))),
        MultisetTableau((((1, 1), (2,)),)),
    )
    assert [stage_tableaux(p)[1] for p in examples] == [[4, 1, 2], [1, 2, 1, 5, 2], [1, 0], [0, 1]]
    for p in examples:
        check_validated_once_per_stage(p)
        for refused in range(2 ** p.ell):
            check_as_validating_every_stage(
                p, [k for k in range(1, p.ell + 1) if refused >> (k - 1) & 1]
            )


@settings(max_examples=100, deadline=None)
@given(random_mt(), st.data())
def test_every_straight_stage_is_validated(p, data):
    check_validated_once_per_stage(p)
    check_as_validating_every_stage(p, data.draw(st.sets(st.integers(1, p.ell))))


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(random_smt), st.data())
def test_every_shifted_stage_is_validated(p, data):
    check_validated_once_per_stage(p)
    check_as_validating_every_stage(p, data.draw(st.sets(st.integers(1, p.ell))))
