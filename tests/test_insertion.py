from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

import grothlab.insertion as insertion
from grothlab.insertion import (
    InsertionError,
    PrimedDuplicationError,
    column_insert,
    column_reverse_insert,
    in_step,
    out_step,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    psi_k,
    psi_k_inverse,
    shifted_column_insert,
    shifted_column_reverse_insert,
)
from grothlab.tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    enumerate_mt,
    enumerate_smt,
    is_maximal_mt,
    is_maximal_smt,
    is_valid_mt,
    is_valid_rt,
    is_valid_smt,
    is_valid_srt,
    is_valid_ssyt,
    is_valid_sst,
    lt_p,
    lt_u,
)

from examples import example_mt, example_smt, out_chain_shifted, out_chain_straight


def box(*tokens):
    return tuple(sorted((Entry.parse(t) for t in tokens), key=Entry.sort_key))


def straight_columns(max_height, max_value):
    """All strictly increasing integer columns up to the given bounds."""
    out = [()]
    for h in range(1, max_height + 1):
        for combo in combinations_with_replacement(range(1, max_value + 1), h):
            if all(combo[i] < combo[i + 1] for i in range(h - 1)):
                out.append(combo)
    return out


def shifted_columns(max_height, max_value):
    """All shifted-valid entry columns (consecutive cells a above z: a <_p z)."""
    alphabet = [Entry(v, p) for v in range(1, max_value + 1) for p in (True, False)]
    alphabet.sort()
    out = [()]
    for h in range(1, max_height + 1):
        for combo in combinations_with_replacement(alphabet, h):
            if all(lt_p(combo[i], combo[i + 1]) for i in range(h - 1)):
                out.append(combo)
    return out


def test_column_insert_examples():
    assert column_insert(5, (1, 2, 3)) == ((1, 2, 3, 5), None)
    assert column_insert(2, (2, 4)) == ((2, 4), 2)
    assert column_insert(3, (2, 4)) == ((2, 3), 4)


def test_column_reverse_insert_examples():
    assert column_reverse_insert((1, 2, 3), 5) == (3, (1, 2, 5))
    assert column_reverse_insert((2, 4), 3) == (2, (3, 4))
    with pytest.raises(InsertionError):
        column_reverse_insert((4, 5), 3)


def test_column_steps_are_mutually_inverse():
    for cells in straight_columns(3, 4):
        for a in range(1, 5):
            new, bumped = column_insert(a, cells)
            assert all(new[i] < new[i + 1] for i in range(len(new) - 1))
            if bumped is None:
                assert new == cells + (a,)
            else:
                back_bumped, back = column_reverse_insert(new, bumped)
                assert back == cells and back_bumped == a


def test_reverse_insert_ordering_property():
    # reverse-inserting a <= z in that order bumps values in weak order
    for cells in straight_columns(3, 4):
        for a in range(1, 5):
            for z in range(a, 5):
                if not any(v <= a for v in cells):
                    continue
                bumped_a, after_a = column_reverse_insert(cells, a)
                if not any(v <= z for v in after_a):
                    continue
                bumped_z, _ = column_reverse_insert(after_a, z)
                assert bumped_a <= bumped_z


def test_insert_ordering_property():
    # inserting z then a <= z: the second insertion always bumps
    for cells in straight_columns(3, 4):
        for z in range(1, 5):
            for a in range(1, z + 1):
                after_z, bumped_z = column_insert(z, cells)
                after_a, bumped_a = column_insert(a, after_z)
                assert bumped_a is not None
                if bumped_z is not None:
                    assert bumped_a <= bumped_z


def test_shifted_column_insert_examples():
    cells = (Entry(3), Entry(4, True))
    new, bumped = shifted_column_insert(Entry(5, True), cells)
    assert bumped is None
    assert new == (Entry(3), Entry(4, True), Entry(5, True))
    assert all(lt_p(new[i], new[i + 1]) for i in range(len(new) - 1))
    # equal unprimed entries bump each other
    new, bumped = shifted_column_insert(Entry(2), (Entry(2), Entry(3)))
    assert bumped == Entry(2) and new == (Entry(2), Entry(3))
    # equal primed entries do not
    new, bumped = shifted_column_insert(Entry(2, True), (Entry(2, True),))
    assert bumped is None and new == (Entry(2, True), Entry(2, True))


def test_shifted_column_steps_are_mutually_inverse():
    for cells in shifted_columns(3, 3):
        for a in shifted_columns(1, 3):
            if len(a) != 1:
                continue
            entry = a[0]
            new, bumped = shifted_column_insert(entry, cells)
            assert all(lt_p(new[i], new[i + 1]) for i in range(len(new) - 1))
            if bumped is None:
                assert new == cells + (entry,)
            else:
                back_bumped, back = shifted_column_reverse_insert(new, bumped)
                assert back == cells and back_bumped == entry


def test_shifted_insert_ordering_property():
    for cells in shifted_columns(3, 3):
        for z in [Entry(v, p) for v in (1, 2, 3) for p in (True, False)]:
            for a in [Entry(v, p) for v in (1, 2, 3) for p in (True, False)]:
                if not lt_u(a, z):
                    continue
                after_z, bumped_z = shifted_column_insert(z, cells)
                after_a, bumped_a = shifted_column_insert(a, after_z)
                assert bumped_a is not None
                if bumped_z is not None:
                    assert lt_u(bumped_a, bumped_z)


# ---------------------------------------------------------------------------
# worked chains


def test_straight_out_chain_reproduces_display():
    chain = out_chain_straight()
    t = chain[0]
    removed = []
    appended = []
    for expected in chain[1:]:
        t, trace = out_step(t, 2, 3)
        assert t == expected
        removed.append((trace.removed, trace.removed_cell))
        appended.append(trace.appended_cell)
    assert removed == [(3, (1, 1)), (3, (1, 1)), (2, (0, 1))]
    assert appended == [(1, 3), (0, 4), (0, 5)]
    final, traces = psi_k(chain[0], 2, 3)
    assert final == chain[-1] and len(traces) == 3


def test_straight_out_path_is_monotone():
    # display rows never increase along an out path (left to right)
    chain = out_chain_straight()
    t = chain[0]
    for _ in range(3):
        t, trace = out_step(t, 2, 3)
        rows = [trace.removed_cell[0]] + [r for r, _, _, _ in trace.path]
        rows.append(trace.appended_cell[0])
        assert all(r1 >= r2 for r1, r2 in zip(rows, rows[1:]))


def test_straight_in_chain_recovers_a_valid_preimage():
    # the displayed start violates the column rule of multiset tableaux; the
    # in-chain therefore lands on the unique valid preimage of the same drain
    chain = out_chain_straight()
    t = chain[-1]
    for cell in [(0, 5), (0, 4), (1, 3)]:
        t, trace = in_step(t, 2, 3, cell)
        # display rows never decrease along an in path (right to left)
        rows = [cell[0]] + [r for r, _, _, _ in trace.path] + [trace.deposit_cell[0]]
        assert all(r1 <= r2 for r1, r2 in zip(rows, rows[1:]))
    assert is_valid_mt(t)
    replay, _ = psi_k(t, 2, 3)
    assert replay == chain[-1]
    expected = MultisetTableau(
        (((1,), (1,), (2,), (2,)), ((2,), (2, 2, 3, 3), (4,)), ((3, 4), (4,)))
    )
    assert t == expected


def test_shifted_out_chain_reproduces_display():
    chain = out_chain_shifted()
    t = chain[0]
    removed = []
    appended = []
    for expected in chain[1:]:
        t, trace = out_step(t, 2, 3)
        assert t == expected
        removed.append(trace.removed)
        appended.append(trace.appended_cell)
    assert removed == [Entry(5), Entry(5, True), Entry(3), Entry(2)]
    assert appended == [(2, 4), (1, 5), (0, 6), (0, 7)]
    final, traces = psi_k(chain[0], 2, 3)
    assert final == chain[-1] and len(traces) == 4


def test_shifted_in_chain_inverts_display():
    chain = out_chain_shifted()
    t = chain[-1]
    for cell, expected in zip(
        [(0, 7), (0, 6), (1, 5), (2, 4)], reversed(chain[:-1])
    ):
        t, _ = in_step(t, 2, 3, cell)
        assert t == expected


def test_out_requires_a_noncircled_entry():
    t = MultisetTableau((((1,), (1,)), ((2,),)))
    with pytest.raises(InsertionError, match=r"^no noncircled entry remains in column 1$"):
        out_step(t, 1, 2)
    t = ShiftedMultisetTableau(((box("1"), box("2")), (box("3"),)))
    with pytest.raises(InsertionError, match=r"^no noncircled entry remains in diagonal 1$"):
        out_step(t, 1, 2)


def test_out_refuses_an_empty_line():
    # ell = 3 names a line that no row of these one-box tableaux reaches
    with pytest.raises(InsertionError, match=r"^column 1 is empty$"):
        out_step(MultisetTableau((((1,),),)), 1, 3)
    with pytest.raises(InsertionError, match=r"^diagonal 1 is empty$"):
        out_step(ShiftedMultisetTableau(((box("1"),),)), 1, 3)


def test_out_refuses_appends_off_the_shape():
    # the tableaux are not valid, so the moved entry ends where no box can
    # be appended; a straight column has no circled cell below single ones,
    # so the blocked append needs a shifted tableau
    t = ShiftedMultisetTableau(((box("1", "5"), box("2")), (box("3"),)))
    with pytest.raises(InsertionError, match=r"^append blocked by the circled cell$"):
        out_step(t, 2, 2)
    t = MultisetTableau((((1,), (1, 3), (2,)), ((2,),)))
    with pytest.raises(InsertionError, match=r"^append does not extend a row$"):
        out_step(t, 2, 3)
    with pytest.raises(InsertionError, match=r"^append cannot start a new row here$"):
        out_step(MultisetTableau((((1, 3), (2,)),)), 2, 2)


def test_in_refuses_an_entry_no_box_admits():
    # the corner's 1 neither bumps nor fits the box 2 of the active line
    with pytest.raises(InsertionError, match=r"^no admissible box in column 2 for 1$"):
        in_step(MultisetTableau((((2,), (1,)),)), 2, 2, (0, 1))
    with pytest.raises(InsertionError, match=r"^no admissible box in diagonal 2 for 1$"):
        in_step(ShiftedMultisetTableau(((box("2"), box("1")),)), 2, 2, (0, 1))


def test_stage_takes_the_bottommost_box_on_ties():
    # equal entries on one column take an invalid tableau; the lower box
    # gives up its 3 first, then the upper one
    t = MultisetTableau((((1, 3),), ((2, 3),)))
    _, trace = out_step(t, 1, 1)
    assert (trace.removed, trace.removed_cell) == (3, (1, 0))
    _, traces = psi_k(t, 1, 1)
    assert [(tr.removed, tr.removed_cell) for tr in traces] == [(3, (1, 0)), (3, (0, 0))]


def test_psi_k_refuses_a_stage_outside_its_labels():
    t = MultisetTableau((((1, 2), (3,)),))
    for k in (0, 3):
        with pytest.raises(InsertionError, match=rf"^stage {k} is not a label in 1\.\.2$"):
            psi_k(t, k, 2)


def test_out_step_refuses_a_stage_outside_its_labels():
    # stage 3 of ell = 2 names line -1, which used to move the 2 off the
    # last box of the row
    t = MultisetTableau((((1,), (1, 2)),))
    for k in (0, 3):
        with pytest.raises(InsertionError, match=rf"^stage {k} is not a label in 1\.\.2$"):
            out_step(t, k, 2)


def test_in_step_refuses_a_stage_outside_its_labels():
    t = MultisetTableau((((1,), (2,)),))
    for k in (0, 3):
        with pytest.raises(InsertionError, match=rf"^stage {k} is not a label in 1\.\.2$"):
            in_step(t, k, 2, (0, 1))


def test_psi_k_inverse_refuses_a_stage_outside_its_labels():
    t = MultisetTableau((((1,), (2,)),))
    for k in (0, 3):
        with pytest.raises(InsertionError, match=rf"^stage {k} is not a label in 1\.\.2$"):
            psi_k_inverse(t, k, 2, [(0, 1)])


def test_in_rejects_non_corners():
    t = MultisetTableau((((1,), (1,)), ((2,),)))
    with pytest.raises(InsertionError, match=r"^\(1, 1\) is not strictly right of column 1$"):
        in_step(t, 1, 2, (0, 0))
    # the corner sits on diagonal 2 itself; this used to return 1' 2' | 1
    t = ShiftedMultisetTableau(((box("1'"), box("1")), (box("2'"),)), signed=True)
    with pytest.raises(InsertionError, match=r"^\(2, 2\) is not strictly right of diagonal 2$"):
        in_step(t, 2, 2, (1, 1))


def test_steps_refuse_to_bump_a_multi_entry_box():
    # out at column 2 moves a 1 into column 1, whose box 2 3 it would bump
    t = MultisetTableau((((1, 1), (2, 3)),))
    assert is_valid_mt(t)
    # cells are named 1-based as (row, absolute column), as trace prints them
    with pytest.raises(InsertionError, match=r"^bumped box at \(1, 2\) holds more than one entry$"):
        out_step(t, 2, 2)
    # in from the corner 3 would reverse-bump the box 1 2 of column 2
    t = MultisetTableau((((1,), (1, 2), (3,)),))
    assert is_valid_mt(t)
    with pytest.raises(InsertionError, match=r"^bumped box at \(1, 2\) holds more than one entry$"):
        in_step(t, 3, 3, (0, 2))
    # stage 2 of the shifted example bumps its box 7' 7 at diagonal 1; it
    # used to overwrite the box with one entry and drop the other
    with pytest.raises(InsertionError, match=r"^bumped box at \(1, 5\) holds more than one entry$"):
        out_step(example_smt(), 2, 3)


def test_in_deposits_by_the_box_minimum():
    # the deposit goes to a circled box whose minimum admits it, even when
    # the box's largest entry does not: 3 lands between the 2 and the 5
    t = MultisetTableau((((1,), (3,)), ((2, 5),)))
    assert is_valid_mt(t)
    q, trace = in_step(t, 1, 1, (0, 1))
    assert q.rows == (((1,),), ((2, 3, 5),)) and is_valid_mt(q)
    assert trace.deposit_cell == (1, 0)
    # shifted: the circled box 2 3 on diagonal 3 takes the 2 from the corner
    t = ShiftedMultisetTableau(((box("1"), box("1"), box("2")), (box("2", "3"),)), signed=False)
    assert is_valid_smt(t)
    q, trace = in_step(t, 3, 3, (0, 2))
    assert q.rows == ((box("1"), box("1")), (box("2", "2", "3"),)) and is_valid_smt(q)
    assert trace.deposit_cell == (1, 1)


def test_in_primed_duplication_is_reported():
    t = ShiftedMultisetTableau(
        ((box("1'"), box("1"), box("3'")), (box("2", "3'"),)), signed=True
    )
    assert is_valid_smt(t)
    with pytest.raises(PrimedDuplicationError, match=r"^deposit of 3' duplicates a primed entry at \(2, 2\)$"):
        in_step(t, 3, 3, (0, 2))


# ---------------------------------------------------------------------------
# the drivers' own checks, each reached by breaking what it checks


def test_stages_refuse_appended_boxes_out_of_order(monkeypatch):
    # each stage takes its line's entries smallest first, so a later move
    # appends left of an earlier one (stage 1 of the straight example makes
    # four moves)
    stage = insertion._stage

    def smallest_first(rows, idx, order, *args):
        return stage(rows, idx, order[::-1], *args)

    monkeypatch.setattr(insertion, "_stage", smallest_first)
    with pytest.raises(InsertionError, match=r"^appended boxes must move strictly right$"):
        psi(example_mt())
    with pytest.raises(InsertionError, match=r"^appended boxes must move strictly right$"):
        phi(example_smt())


def test_psi_refuses_strip_entries_that_are_not_restricted(monkeypatch):
    monkeypatch.setattr(insertion, "is_valid_rt", lambda r: False)
    with pytest.raises(
        InsertionError, match=r"^recorded strip entries do not form a restricted tableau$"
    ):
        psi(example_mt())


def test_phi_refuses_strip_entries_that_are_not_shifted_restricted(monkeypatch):
    monkeypatch.setattr(insertion, "is_valid_srt", lambda r, mu: False)
    with pytest.raises(
        InsertionError, match=r"^recorded strip entries do not form a shifted restricted tableau$"
    ):
        phi(example_smt())


def test_inverses_refuse_to_end_off_the_inner_shape(monkeypatch):
    # with stage 1 left undone, its strip stays on the tableau
    pairs = [(psi_inverse, psi(example_mt())), (phi_inverse, phi(example_smt()))]
    unstage = insertion._unstage

    def skip_stage_1(rows, k, *args):
        if k != 1:
            unstage(rows, k, *args)

    monkeypatch.setattr(insertion, "_unstage", skip_stage_1)
    for inverse, (q, r) in pairs:
        with pytest.raises(InsertionError, match=r"^inverse did not return to the inner shape$"):
            inverse(q, r)


def test_psi_and_phi_refuse_an_input_outside_their_family():
    # neither input has a noncircled entry, so no stage moves and no stage
    # test runs: the entry test alone refuses them
    with pytest.raises(InsertionError, match=r"^psi needs a valid multiset tableau$"):
        psi(MultisetTableau((((2,), (1,)),)))
    with pytest.raises(InsertionError, match=r"^phi needs a valid shifted multiset tableau$"):
        phi(ShiftedMultisetTableau(((box("1'"), box("2")),), signed=False))


def test_single_out_steps_invert_on_valid_census():
    census = (
        enumerate_mt((2, 1), 3, 1)
        + enumerate_mt((3, 2), 3, 1)
        + enumerate_smt((3, 1), 3, 1, signed=True)
        + enumerate_smt((3, 2), 3, 1)
    )
    for p in census:
        for k in range(1, p.ell + 1):
            idx = p.ell - k
            if all(len(row[idx]) == 1 for row in p.rows if idx < len(row)):
                continue
            stepped, trace = out_step(p, k, p.ell)
            back, _ = in_step(stepped, k, p.ell, trace.appended_cell)
            assert back == p


def test_psi_roundtrip_and_weights():
    census = enumerate_mt((2, 1), 3, 2)
    images = set()
    for p in census:
        q, r = psi(p)
        assert is_valid_ssyt(q) and is_valid_rt(r)
        assert q.weight() == p.weight()
        assert r.weight(p.ell) == p.column_weight()
        assert psi_inverse(q, r) == p
        images.add((q.rows, r.outer, r.rows))
        highest = all(all(b[0] == i + 1 for b in row) for i, row in enumerate(q.rows))
        assert highest == is_maximal_mt(p)
    assert len(images) == len(census)


def test_psi_trivial_on_single_entries():
    p = MultisetTableau((((1,), (1,)), ((2,),)))
    q, r = psi(p)
    assert q == p and not any(r.rows)


def test_phi_roundtrip_and_weights():
    census = enumerate_smt((2, 1), 3, 2, signed=True)
    for p in census:
        q, r = phi(p)
        assert is_valid_sst(ShiftedMultisetTableau(q.rows, signed=True))
        assert is_valid_srt(r, (2, 1))
        assert q.weight() == p.weight()
        assert r.weight(p.ell) == p.diagonal_weight()
        assert phi_inverse(q, r) == p


def test_phi_unsigned_restriction():
    for p in enumerate_smt((2, 1), 3, 2, signed=False):
        q, r = phi(p)
        assert not q.signed and is_valid_sst(q)
        highest = all(
            all(e == Entry(i + 1) for b in row for e in b)
            for i, row in enumerate(q.rows)
        )
        assert highest == is_maximal_smt(p)


def test_phi_trivial_on_single_entries():
    p = ShiftedMultisetTableau(((box("1"), box("2")), (box("3"),)))
    q, r = phi(p)
    assert q == p and not any(r.rows)


def test_psi_inverse_rejects_shape_mismatch():
    q = MultisetTableau((((1,), (1,)),))
    r = SkewFilling((3,), (2,), ((1,),))
    with pytest.raises(InsertionError):
        psi_inverse(q, r)


# ---------------------------------------------------------------------------
# random tableaux beyond the census

MAX_VALUE = 6
EXTRA_CAP = 3  # entries beyond one per box, so about 8 entries in all
STRAIGHT_SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1)]
STRICT_SHAPES = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (3, 2, 1)]
ALPHABET = sorted(Entry(v, p) for v in range(1, MAX_VALUE + 1) for p in (True, False))


@st.composite
def random_mt(draw):
    """Rows built box by box above the left and upper neighbours."""
    shape = draw(st.sampled_from(STRAIGHT_SHAPES))
    budget = EXTRA_CAP
    rows = []
    for r, width in enumerate(shape):
        row = []
        for c in range(width):
            lo = max(row[c - 1][-1] if c else 1, rows[r - 1][c][-1] + 1 if r else 1)
            assume(lo <= MAX_VALUE)
            values = draw(
                st.lists(st.integers(lo, MAX_VALUE), min_size=1, max_size=1 + min(budget, 2))
            )
            budget -= len(values) - 1
            row.append(tuple(sorted(values)))
        rows.append(tuple(row))
    t = MultisetTableau(tuple(rows))
    assume(is_valid_mt(t))
    return t


@st.composite
def random_smt(draw, signed):
    """Shifted rows built box by box: the box minimum is admissible against
    the left and upper neighbours, and no primed value repeats in a box."""
    shape = draw(st.sampled_from(STRICT_SHAPES))
    budget = EXTRA_CAP
    rows = []
    for r, width in enumerate(shape):
        row = []
        for c in range(width):
            left = row[c - 1][-1] if c else None
            above = rows[r - 1][c + 1][0] if r else None
            firsts = [
                e
                for e in ALPHABET
                if (left is None or lt_u(left, e))
                and (above is None or lt_p(above, e))
                and (signed or c or not e.primed)
            ]
            assume(firsts)
            first = draw(st.sampled_from(firsts))
            extras = draw(
                st.lists(st.sampled_from([e for e in ALPHABET if first <= e]), max_size=min(budget, 2))
            )
            entries = [first]
            for e in sorted(extras):
                if not (e.primed and e in entries):
                    entries.append(e)
            budget -= len(entries) - 1
            row.append(tuple(sorted(entries)))
        rows.append(tuple(row))
    t = ShiftedMultisetTableau(tuple(rows), signed=signed)
    assume(is_valid_smt(t))
    return t


@settings(max_examples=150, deadline=None)
@given(random_mt())
def test_psi_roundtrip_on_random_tableaux(p):
    q, r = psi(p)
    assert psi_inverse(q, r) == p
    assert q.weight() == p.weight()
    assert r.weight(p.ell) == p.column_weight()
    assert is_valid_ssyt(q) and is_valid_rt(r)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(random_smt))
def test_phi_roundtrip_on_random_tableaux(p):
    q, r = phi(p)
    assert phi_inverse(q, r) == p
    assert q.weight() == p.weight()
    assert r.weight(p.ell) == p.diagonal_weight()
    assert is_valid_sst(ShiftedMultisetTableau(q.rows, signed=True))
    assert is_valid_srt(r, p.shape)
    if not p.signed:
        assert not q.signed and is_valid_sst(q)


# ---------------------------------------------------------------------------
# serialization of the same random tableaux


@settings(max_examples=100, deadline=None)
@given(random_mt())
def test_mt_serialization_roundtrip(p):
    assert MultisetTableau.from_text(p.to_text()) == p
    assert MultisetTableau.from_json_dict(p.to_json_dict()) == p


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(random_smt))
def test_smt_serialization_roundtrip(p):
    assert ShiftedMultisetTableau.from_json_dict(p.to_json_dict()) == p
    # the text form carries no flag: signed is read back as "some row
    # minimum is primed", so a signed tableau with unprimed minima reads
    # back unsigned
    read = ShiftedMultisetTableau.from_text(p.to_text())
    assert read.rows == p.rows
    assert read.signed == any(min(row[0]).primed for row in p.rows)
