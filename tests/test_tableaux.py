import json
import sys
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings, strategies as st

from grothlab import tableaux
from grothlab.fixtures import (
    paper_maximal_mt,
    paper_maximal_smt,
    paper_rt,
    paper_srt,
)
from grothlab.partitions import pad, subpartitions
from grothlab.tableaux import (
    MAX_CELLS,
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    count_mt_by_code,
    enumerate_maximal_mt,
    enumerate_maximal_smt,
    enumerate_mt,
    enumerate_rt,
    enumerate_smt,
    enumerate_srt,
    enumerate_ssyt,
    enumerate_sst,
    is_maximal_mt,
    is_maximal_smt,
    is_valid_mt,
    is_valid_rt,
    is_valid_smt,
    is_valid_srt,
    is_valid_sst,
    lt_p,
    lt_u,
    maximal_mt_to_rt,
    maximal_smt_to_srt,
    rt_to_maximal_mt,
    srt_to_maximal_smt,
    strip_signs,
)
from grothlab.tableaux import _smt_least, _smt_read_first, _smt_read_last

from examples import example_mt, example_smt
from tuple_series import count_mt_by_weight, count_smt_by_weight


def box(*tokens):
    return tuple(sorted((Entry.parse(t) for t in tokens), key=Entry.sort_key))


def test_entry_order_and_predicates():
    order = [Entry(1, True), Entry(1), Entry(2, True), Entry(2)]
    assert sorted(order[::-1]) == order
    a, b = Entry(3), Entry(3)
    assert lt_u(a, b) and not lt_p(a, b)
    ap, bp = Entry(3, True), Entry(3, True)
    assert lt_p(ap, bp) and not lt_u(ap, bp)
    assert lt_u(Entry(2), Entry(3, True))
    assert str(Entry(4, True)) == "4'" and Entry.parse("4'") == Entry(4, True)


def test_weights_on_reference_tableaux():
    mt = example_mt()
    assert is_valid_mt(mt)
    assert mt.weight() == (3, 2, 5, 4, 1)
    assert mt.column_weight() == (4, 1, 2)

    smt = example_smt()
    assert is_valid_smt(smt)
    assert smt.weight() == (4, 2, 2, 5, 5, 1, 3)
    assert smt.diagonal_weight() == (1, 2, 1, 5, 2)


def test_weight_of_singleton_diagonal_tableau_is_shape():
    t = MultisetTableau((((1,), (1,)), ((2,),)))
    assert t.weight() == t.shape
    assert t.column_weight() == (0, 0)


def test_mt_validator_rejects_single_clause_mutations():
    assert not is_valid_mt(MultisetTableau((((),),)))  # empty box
    assert not is_valid_mt(MultisetTableau((((2,), (1,)),)))  # row decrease
    assert not is_valid_mt(MultisetTableau((((1, 2),), ((2,),))))  # column tie
    assert not is_valid_mt(MultisetTableau((((1,), (1,)), ((2,), (2,), (2,)))))


def test_validators_reject_an_empty_box_beside_or_below_a_nonempty_one():
    # these raised IndexError instead of returning False
    assert not is_valid_mt(MultisetTableau((((1,), ()),)))
    assert not is_valid_mt(MultisetTableau((((1,), (2,)), ((),))))
    assert not is_valid_smt(ShiftedMultisetTableau(((box("1"), ()),)))
    assert not is_valid_smt(
        ShiftedMultisetTableau(((box("1"), box("2")), ((),)), signed=True)
    )


def test_smt_validator_rejects_single_clause_mutations():
    base = ShiftedMultisetTableau(((box("1"), box("2")), (box("3"),)))
    assert is_valid_smt(base)
    # primed entry repeated in one box
    bad = ShiftedMultisetTableau(((box("1"), box("2'", "2'")), (box("3"),)))
    assert not is_valid_smt(bad)
    # right neighbor must dominate every entry
    bad = ShiftedMultisetTableau(((box("1", "3"), box("2")), (box("3"),)))
    assert not is_valid_smt(bad)
    # the box below needs a strictly smaller or primed-equal witness above
    bad = ShiftedMultisetTableau(((box("1"), box("3")), (box("3"),)))
    assert not is_valid_smt(bad)
    # unsigned family: row minimum must be unprimed
    bad = ShiftedMultisetTableau(((box("1'"), box("2")), (box("3"),)))
    assert not is_valid_smt(bad)
    assert is_valid_smt(ShiftedMultisetTableau(bad.rows, signed=True))


def test_overlapping_values_down_a_shifted_column_are_allowed():
    # the box above may exceed the box below it as long as its minimum is smaller
    t = ShiftedMultisetTableau(
        ((box("1"), box("1", "1", "1", "3")), (box("2", "2"),))
    )
    assert is_valid_smt(t)
    assert max(t.rows[0][1]).value > max(t.rows[1][0]).value


def test_maximal_examples():
    assert is_maximal_mt(paper_maximal_mt())
    assert paper_maximal_mt().weight() == (7, 6, 5, 4)
    assert paper_maximal_mt().column_weight() == (1, 3, 4, 2)
    assert is_maximal_smt(paper_maximal_smt())
    assert paper_maximal_smt().weight() == (10, 8, 6, 4)
    assert paper_maximal_smt().diagonal_weight() == (0, 1, 3, 1, 1, 2, 2)
    assert not is_maximal_mt(MultisetTableau((((1, 2),),)))
    assert not is_maximal_smt(ShiftedMultisetTableau(((box("1"), box("2")),)))


def test_restricted_examples():
    rt = paper_rt()
    assert is_valid_rt(rt)
    assert rt.weight(4) == (1, 3, 4, 2)
    srt = paper_srt()
    assert is_valid_srt(srt, (7, 5, 4, 2))
    assert srt.weight(7) == (0, 1, 3, 1, 1, 2, 2)
    # entry 1 may not sit below row c_1 = 1
    bad = SkewFilling((2, 2), (2, 1), ((), (1,)))
    assert not is_valid_rt(bad)


def test_maximal_restricted_bijection_on_paper_pair():
    assert maximal_mt_to_rt(paper_maximal_mt()) == paper_rt()
    assert rt_to_maximal_mt(paper_rt()) == paper_maximal_mt()
    assert maximal_smt_to_srt(paper_maximal_smt()) == paper_srt()
    assert srt_to_maximal_smt(paper_srt()) == paper_maximal_smt()


def test_maximal_bijection_trivial_and_roundtrip():
    singleton = MultisetTableau((((1,), (1,)), ((2,),)))
    image = maximal_mt_to_rt(singleton)
    assert not any(image.rows)
    for t in enumerate_maximal_mt((2, 1), 2):
        f = maximal_mt_to_rt(t)
        assert is_valid_rt(f)
        assert f.weight(t.ell) == t.column_weight()
        assert rt_to_maximal_mt(f) == t
    for t in enumerate_maximal_smt((2, 1), 2):
        f = maximal_smt_to_srt(t)
        assert is_valid_srt(f, (2, 1))
        assert f.weight(t.ell) == t.diagonal_weight()
        assert srt_to_maximal_smt(f) == t


def test_maximal_weight_is_partition():
    for shape in ((2, 1), (3, 1)):
        for t in enumerate_maximal_mt(shape, 2):
            wt = t.weight()
            assert wt == tuple(sorted(wt, reverse=True))


def test_enumerate_ssyt_and_mt_counts():
    assert len(enumerate_ssyt((1,), 2)) == 2
    members = enumerate_mt((1,), 2, 1)
    assert sorted(t.rows[0][0] for t in members) == [
        (1,),
        (1, 1),
        (1, 2),
        (2,),
        (2, 2),
    ]


def test_enumerate_matches_validator():
    for t in enumerate_mt((2, 1), 3, 2):
        assert is_valid_mt(t)
    for t in enumerate_smt((2, 1), 2, 2, signed=True):
        assert is_valid_smt(t)
    census = enumerate_mt((2, 1), 3, 1)
    assert len(set(census)) == len(census)


def test_smt_degree_four_members_match_displayed_list():
    census = enumerate_smt((2, 1), 2, 1, signed=False)
    four = {t.rows for t in census if sum(t.weight()) == 4}
    expected = {
        ((box("1", "1"), box("1")), (box("2"),)),
        ((box("1"), box("1", "1")), (box("2"),)),
        ((box("1", "1"), box("2'")), (box("2"),)),
        ((box("1"), box("1")), (box("2", "2"),)),
        ((box("1"), box("1", "2'")), (box("2"),)),
        ((box("1"), box("1", "2")), (box("2"),)),
        ((box("1"), box("2'")), (box("2", "2"),)),
        ((box("1"), box("2'", "2")), (box("2"),)),
    }
    assert four == expected


def test_sst_families():
    sst = enumerate_sst((2, 1), 2, signed=False)
    assert all(is_valid_sst(t) for t in sst)
    assert len(sst) == 2  # generating count of the two degree-3 monomials
    sst_pm = enumerate_sst((2, 1), 2, signed=True)
    assert len(sst_pm) == 8


def test_strip_signs_fibers():
    signed = enumerate_smt((2, 1), 2, 1, signed=True)
    unsigned = enumerate_smt((2, 1), 2, 1, signed=False)
    fibers = Counter(strip_signs(t) for t in signed)
    assert set(fibers) == set(unsigned)
    assert all(count == 4 for count in fibers.values())
    for t in signed:
        s = strip_signs(t)
        assert s.weight() == t.weight()
        assert s.diagonal_weight() == t.diagonal_weight()
    plain = unsigned[0]
    assert strip_signs(ShiftedMultisetTableau(plain.rows, signed=True)) == plain


def test_enumerate_rt_and_srt():
    rts = enumerate_rt((3, 1), (2, 1))
    assert all(is_valid_rt(f) for f in rts)
    # single addable cell in row 1; both letters fit above their row bounds
    assert len(rts) == 2
    srts = enumerate_srt((3, 1), (2, 1))
    assert all(is_valid_srt(f, (2, 1)) for f in srts)
    assert len(srts) == 2


def test_every_enumerated_rt_and_srt_is_valid():
    # an outer shape with fewer rows than mu used to be filled as if mu's
    # extra rows were not there, giving fillings is_valid_rt rejects
    for outer in subpartitions((4, 3, 2)):
        for padded in (outer, outer + (0,)):
            for mu in subpartitions((3, 2, 1)):
                if len(mu) > len(padded):
                    with pytest.raises(ValueError, match="fit inside"):
                        enumerate_rt(padded, mu)
                for enumerate_fn, valid in ((enumerate_rt, is_valid_rt), (enumerate_srt, lambda f: is_valid_srt(f, mu))):
                    try:
                        fillings = enumerate_fn(padded, mu)
                    except ValueError:
                        continue
                    assert all(map(valid, fillings))


def test_text_round_trips():
    mt = example_mt()
    assert MultisetTableau.from_text(mt.to_text()) == mt
    smt = example_smt()
    text = smt.to_text()
    assert ShiftedMultisetTableau.from_text(text).to_text() == text
    assert ShiftedMultisetTableau.from_text(text) == smt
    with pytest.raises(ValueError):
        ShiftedMultisetTableau.from_text("1 | 1\n2")  # missing placeholder


def test_text_infers_signed_flag():
    signed = ShiftedMultisetTableau(((box("1'"), box("2")),), signed=True)
    parsed = ShiftedMultisetTableau.from_text(signed.to_text())
    assert parsed.signed and parsed == signed


def test_text_infers_the_signed_flag_past_an_empty_first_box():
    parsed = ShiftedMultisetTableau.from_text(" | 2\n. | 1'")
    assert parsed.rows == (((), (Entry(2),)), ((Entry(1, True),),))
    assert parsed.signed
    assert not ShiftedMultisetTableau.from_text(" | 2").signed
    assert ShiftedMultisetTableau.from_text(" | 2", signed=True).signed


def test_json_round_trips():
    smt = example_smt()
    data = json.loads(json.dumps(smt.to_json_dict()))
    assert ShiftedMultisetTableau.from_json_dict(data) == smt
    assert data["signed"] is False and data["shape"] == [5, 4, 2]
    mt = example_mt()
    assert MultisetTableau.from_json_dict(json.loads(json.dumps(mt.to_json_dict()))) == mt


@pytest.mark.parametrize("shape", [(2, 1), (3, 1), (3, 2), (3, 2, 1)])
def test_enumerate_maximal_is_the_maximal_part_of_the_census(shape):
    # the maximal enumerators walk the size rows under the partial-sum bound
    # alone, so their output must be exactly the members of the full census
    # that is_maximal_* (validity included) accepts
    for cap in range(3):
        mts = enumerate_maximal_mt(shape, cap)
        assert len(set(mts)) == len(mts)
        assert set(mts) == {
            t for t in enumerate_mt(shape, len(shape), cap) if is_maximal_mt(t)
        }
        smts = enumerate_maximal_smt(shape, cap)
        assert len(set(smts)) == len(smts)
        assert set(smts) == {
            t for t in enumerate_smt(shape, len(shape), cap) if is_maximal_smt(t)
        }


# the shapes and caps of verify's psi/phi census (values <= 3, extras <= 2)
@pytest.mark.parametrize("shape", [(2, 1), (3, 1), (3, 2)])
def test_count_by_weight_tallies_the_census(shape):
    for cap in range(3):
        assert count_mt_by_weight(shape, 3, cap) == Counter(
            (pad(t.weight(), 3), t.column_weight()) for t in enumerate_mt(shape, 3, cap)
        )
        for signed in (False, True):
            assert count_smt_by_weight(shape, 3, cap, signed=signed) == Counter(
                (pad(t.weight(), 3), t.diagonal_weight())
                for t in enumerate_smt(shape, 3, cap, signed=signed)
            )


@st.composite
def _shapes(draw, max_cells: int, strict: bool):
    """A partition (strict when asked) of at most 3 rows and max_cells cells."""
    shape: list[int] = []
    while len(shape) < 3:
        room = max_cells - sum(shape)
        if shape:
            room = min(room, shape[-1] - strict)
        part = draw(st.integers(0, max(room, 0)))
        if not part:
            break
        shape.append(part)
    return tuple(shape)


@st.composite
def _census_args(draw, strict: bool):
    max_value = draw(st.integers(0, 4))
    extra_cap = draw(st.integers(0, 2))
    # the shifted census grows fastest (it reaches 350k tableaux at 7 cells,
    # max_value 4 and cap 2), so its cells shrink as the caps grow
    max_cells = min(7, 9 - max_value - extra_cap) if strict else 7
    return draw(_shapes(max_cells, strict)), max_value, extra_cap


# The counter works on the fill frontier and never builds a tableau; these
# properties hold it to the tableaux that enumerate_* builds one by one.
@settings(max_examples=100, deadline=None)
@given(_census_args(strict=False))
@example(((2, 2, 1), 4, 2))
@example(((3, 3), 4, 2))
@example(((3, 2, 1), 4, 1))
@example(((), 3, 2))
@example(((2, 2, 1), 2, 2))  # max_value below the row count: no tableau
@example(((2, 1), 0, 1))
@example(((7,), 1, 2))  # an x digit reaches |shape| + extra_cap = 9; ell = 7, the widest frontier
@example(((1,), 2, 2))  # a T digit reaches extra_cap
def test_count_mt_by_weight_is_the_census_tally(args):
    shape, max_value, extra_cap = args
    census = enumerate_mt(shape, max_value, extra_cap)
    assert all(is_valid_mt(t) for t in census)
    assert count_mt_by_weight(shape, max_value, extra_cap) == Counter(
        (pad(t.weight(), max_value), t.column_weight()) for t in census
    )


@settings(max_examples=100, deadline=None)
@given(_census_args(strict=True), st.booleans())
@example(((), 2, 1), True)
@example(((3, 2, 1), 2, 1), False)  # max_value below the row count
@example(((3, 2, 1), 2, 1), True)
@example(((2, 1), 0, 0), True)
@example(((7,), 1, 2), False)  # an x digit reaches |shape| + extra_cap = 9; ell = 7, the widest frontier
@example(((7,), 1, 2), True)
@example(((1,), 2, 2), False)  # a T digit reaches extra_cap
@example(((1,), 2, 2), True)
# the counter merges frontier states that differ only in a prime that
# neither the cell below nor the cell to the right reads
@example(((3, 2, 1), 3, 1), False)
@example(((3, 2, 1), 3, 1), True)
@example(((3, 1), 4, 2), True)
@example(((4, 3, 2, 1), 4, 0), False)  # four rows, which _census_args never draws
@example(((4, 3, 2, 1), 4, 0), True)
def test_count_smt_by_weight_is_the_census_tally(args, signed):
    shape, max_value, extra_cap = args
    census = enumerate_smt(shape, max_value, extra_cap, signed=signed)
    assert all(is_valid_smt(t) for t in census)
    assert count_smt_by_weight(shape, max_value, extra_cap, signed=signed) == Counter(
        (pad(t.weight(), max_value), t.diagonal_weight()) for t in census
    )


@st.composite
def _truncation_args(draw):
    """(kind, shape, max_value, T) for straight, shifted unsigned and shifted
    signed shapes of at most 6 cells."""
    kind = draw(st.sampled_from(("straight", "shifted", "signed")))
    shape = draw(_shapes(6, strict=kind != "straight"))
    return kind, shape, draw(st.integers(1, 4)), draw(st.integers(0, 3))


def _count_by_weight(kind, shape, max_value, extra_cap):
    if kind == "straight":
        return count_mt_by_weight(shape, max_value, extra_cap)
    return count_smt_by_weight(shape, max_value, extra_cap, signed=kind == "signed")


# The counter keeps each state's completions by t-degree, through the
# deepest degree any caller reads there, which its forward loop computes
# (the `_count` docstring): whatever the cap, a term of t-degree d must come
# out the same.
@settings(max_examples=100, deadline=None)
@given(_truncation_args())
# rows where callers with different remaining caps read one state's strata
@example(("straight", (2, 1), 2, 2))
@example(("shifted", (3, 1), 3, 2))
@example(("signed", (3, 1), 3, 2))
@example(("straight", (3, 2, 1), 4, 3))
@example(("signed", (3, 2, 1), 4, 3))
@example(("shifted", (), 2, 3))
def test_the_count_at_a_cap_is_the_next_cap_cut_to_it(args):
    kind, shape, max_value, cap = args
    wider = _count_by_weight(kind, shape, max_value, cap + 1)
    assert _count_by_weight(kind, shape, max_value, cap) == {
        (x, t): c for (x, t), c in wider.items() if sum(t) <= cap
    }


@pytest.mark.parametrize("max_value", range(1, 9))
def test_a_shifted_cell_reads_the_frontier_through_two_idempotent_reads(max_value):
    # the counter writes each kept index as the value its one reader uses, so
    # a cell must admit the same boxes whether its neighbours hold raw or read
    # indices; -1 is a missing neighbour
    indices = range(-1, 2 * max_value)
    for left in indices:
        for above in indices:
            least = _smt_least(left, above)
            assert least == max(_smt_read_last(left), _smt_read_first(above))
            assert least == _smt_least(_smt_read_last(left), _smt_read_first(above))
    # a field holds a read index + 1, at most read_first(2 * max_value - 1) + 1,
    # in as many bits as the alphabet's size has
    largest = max(max(_smt_read_first(i), _smt_read_last(i)) + 1 for i in indices)
    assert largest == 2 * max_value + 1
    assert largest.bit_length() <= (2 * max_value).bit_length()


@pytest.mark.parametrize("caps", [(-1, 0), (2, -1)])
def test_counting_rejects_negative_caps(caps):
    # the counter's packing base needs extra_cap >= 0; a negative cap used to
    # count nothing (or one empty tableau) without complaint
    with pytest.raises(ValueError):
        count_mt_by_weight((), *caps)
    with pytest.raises(ValueError):
        count_smt_by_weight((2, 1), *caps, signed=True)


def _brute_force_smt(shape, max_value, extra_cap, signed):
    """Every filling with boxes drawn from the whole primed alphabet, kept
    when is_valid_smt accepts it."""
    alphabet = [Entry(v, primed) for v in range(1, max_value + 1) for primed in (True, False)]
    boxes = {
        size: list(combinations_with_replacement(alphabet, size))
        for size in range(1, extra_cap + 2)
    }
    out = set()
    for sizes in product(boxes, repeat=sum(shape)):
        if sum(sizes) - len(sizes) > extra_cap:
            continue
        for filling in product(*(boxes[size] for size in sizes)):
            rows, start = [], 0
            for width in shape:
                rows.append(filling[start:start + width])
                start += width
            t = ShiftedMultisetTableau(tuple(rows), signed=signed)
            if is_valid_smt(t):
                out.add(t)
    return out


@pytest.mark.parametrize("shape", [(1,), (2,), (2, 1), (3, 1), (3, 2)])
def test_enumerate_smt_matches_brute_force_over_the_alphabet(shape):
    # boxes come from the alphabet suffix above each cell's least admissible
    # entry; drawing them from the whole alphabet must find nothing more
    for max_value in range(1, 4):
        for cap in range(2):
            for signed in (False, True):
                found = enumerate_smt(shape, max_value, cap, signed=signed)
                assert len(set(found)) == len(found)
                assert set(found) == _brute_force_smt(shape, max_value, cap, signed)


def test_walks_run_at_the_cell_bound():
    # one row of MAX_CELLS cells: every walk but the counter recurses once
    # per cell, here on top of the test runner's own frames
    row = (MAX_CELLS,)
    assert count_mt_by_weight(row, 1, 0) == {((MAX_CELLS,), (0,) * MAX_CELLS): 1}
    assert count_smt_by_weight(row, 1, 0) == {((MAX_CELLS,), (0,) * MAX_CELLS): 1}
    assert len(enumerate_mt(row, 1, 0)) == 1
    assert len(enumerate_smt(row, 1, 0)) == 1
    assert len(enumerate_maximal_mt(row, 0)) == 1
    assert len(enumerate_rt((MAX_CELLS + 1,), (1,))) == 1
    with pytest.raises(ValueError, match="a tableau walk takes at most"):
        count_mt_by_weight((MAX_CELLS + 1,), 1, 0)


def test_the_count_runs_past_the_recursion_limit(monkeypatch):
    # the counter loops over its cells, so with the cell bound lifted it
    # counts a row longer than the interpreter's recursion limit; the key is
    # compared by value, since its more than 4,300 digits have no repr
    monkeypatch.setattr(tableaux, "MAX_CELLS", 2000)
    assert 1500 > sys.getrecursionlimit()
    code, counts = count_mt_by_code((1500,), 1, 0)
    assert list(counts.values()) == [1]
    assert code.decode(counts) == {((1500,), (0,) * 1500): 1}


def test_a_filling_with_more_rows_than_mu_is_no_srt():
    # the carrier of mu = (2, 1) has two rows; a third, empty row used to go
    # unread, so is_valid_srt accepted what srt_to_maximal_smt refuses
    f = SkewFilling((2, 1, 0), (1, 1, 0), ((1,), (), ()))
    assert not is_valid_srt(f, (2, 1))
    with pytest.raises(ValueError, match="does not encode a maximal shifted tableau"):
        srt_to_maximal_smt(f)
    two_rows = SkewFilling((2, 1), (1, 1), ((1,), ()))
    assert is_valid_srt(two_rows, (2, 1))
    assert maximal_smt_to_srt(srt_to_maximal_smt(two_rows)) == two_rows
