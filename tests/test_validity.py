"""The one-pass validity tests against the multi-pass bodies they replaced.

The reference oracles below are the earlier bodies of `is_valid_mt`,
`is_valid_smt` (with its box and structure helpers) and
`_skew_semistandard_ok`, with the entry order read off `Entry.sort_key`.
They raised `IndexError` on an empty box right of or below a nonempty one;
that counts as a False verdict here.
"""

from itertools import product

from hypothesis import example, given, settings, strategies as st

from grothlab.partitions import is_partition, is_strict_partition
from grothlab.tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    _skew_semistandard_ok,
    enumerate_mt,
    enumerate_rt,
    enumerate_smt,
    enumerate_srt,
    is_valid_mt,
    is_valid_smt,
    lt_p,
    lt_u,
)

# ---------------------------------------------------------------------------
# reference oracles


def ref_lt(a, z):
    return a.sort_key() < z.sort_key()


def ref_lt_u(a, z):
    return ref_lt(a, z) or (a == z and not a.primed)


def ref_lt_p(a, z):
    return ref_lt(a, z) or (a == z and a.primed)


def ref_is_valid_mt(t):
    if not is_partition(t.shape):
        return False
    for r, row in enumerate(t.rows):
        for c, box in enumerate(row):
            if not box or any(v < 1 for v in box) or tuple(sorted(box)) != box:
                return False
            if c + 1 < len(row) and box[-1] > row[c + 1][0]:
                return False
            if r + 1 < len(t.rows) and c < len(t.rows[r + 1]):
                if box[-1] >= t.rows[r + 1][c][0]:
                    return False
    return True


def ref_smt_box_ok(box):
    if not box or any(e.value < 1 for e in box):
        return False
    if tuple(sorted(box, key=Entry.sort_key)) != box:
        return False
    primed_counts = {}
    for e in box:
        if e.primed:
            primed_counts[e.value] = primed_counts.get(e.value, 0) + 1
            if primed_counts[e.value] > 1:
                return False
    return True


def ref_smt_structure_ok(t):
    if not is_strict_partition(t.shape) and t.shape != ():
        return False
    for r, row in enumerate(t.rows):
        for c, box in enumerate(row):
            if not ref_smt_box_ok(box):
                return False
            if c + 1 < len(row):
                if not ref_lt_u(box[-1], row[c + 1][0]):
                    return False
            if r + 1 < len(t.rows) and 0 <= c - 1 < len(t.rows[r + 1]):
                if not ref_lt_p(box[0], t.rows[r + 1][c - 1][0]):
                    return False
    return True


def ref_is_valid_smt(t):
    if not ref_smt_structure_ok(t):
        return False
    if not t.signed:
        return all(not t.row_minimum(r).primed for r in range(len(t.rows)))
    return True


def _entry(f, r, col):
    """Entry at absolute column col of row r, or None outside the skew."""
    if 0 <= r < len(f.rows) and f.inner[r] <= col < f.outer[r]:
        return f.rows[r][col - f.inner[r]]
    return None


def ref_skew_semistandard_ok(f):
    if len(f.outer) != len(f.inner) or len(f.rows) != len(f.outer):
        return False
    if any(i > o for i, o in zip(f.inner, f.outer)):
        return False
    outer_ok = all(f.outer[r] >= f.outer[r + 1] for r in range(len(f.outer) - 1))
    inner_ok = all(f.inner[r] >= f.inner[r + 1] for r in range(len(f.inner) - 1))
    if not (outer_ok and inner_ok):
        return False
    for r, row in enumerate(f.rows):
        if len(row) != f.outer[r] - f.inner[r]:
            return False
        for i in range(len(row) - 1):
            if row[i] > row[i + 1]:
                return False
        if r + 1 < len(f.rows):
            for col in range(f.inner[r + 1], f.outer[r + 1]):
                above = _entry(f, r, col)
                below = _entry(f, r + 1, col)
                if above is not None and below is not None and above >= below:
                    return False
    return True


def verdict(oracle, x) -> bool:
    try:
        return oracle(x)
    except IndexError:
        return False


# ---------------------------------------------------------------------------
# the entry order


ENTRIES = [Entry(v, primed) for v in range(4) for primed in (False, True)]


def test_entry_order_matches_its_sort_key_definitions():
    for a, z in product(ENTRIES, repeat=2):
        assert (a < z) == ref_lt(a, z), (a, z)
        # total_ordering derives the other three from __lt__ and __eq__
        ka, kz = a.sort_key(), z.sort_key()
        assert (a <= z, a > z, a >= z, a == z) == (ka <= kz, ka > kz, ka >= kz, ka == kz), (a, z)
        assert lt_u(a, z) == ref_lt_u(a, z), (a, z)
        assert lt_p(a, z) == ref_lt_p(a, z), (a, z)
    assert sorted(reversed(ENTRIES)) == sorted(ENTRIES, key=Entry.sort_key)


# ---------------------------------------------------------------------------
# random rows, valid and invalid


def mutated(census, boxes):
    """A census member, kept as it is or with one box replaced."""

    @st.composite
    def build(draw):
        t = draw(st.sampled_from(census))
        rows = [list(row) for row in t.rows]
        if draw(st.booleans()):
            r = draw(st.integers(0, len(rows) - 1))
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(boxes)
        return tuple(tuple(row) for row in rows)

    return build()


def free_rows(boxes):
    """Up to 4 rows of up to 4 boxes each, rows possibly empty or too long."""
    return st.lists(st.lists(boxes, max_size=4).map(tuple), max_size=4).map(tuple)


def boxes_of(values, sort_key=None):
    """Boxes of up to 3 entries, sorted or as drawn, empty ones included."""
    drawn = st.lists(values, max_size=3)
    return st.one_of(
        drawn.map(tuple),
        drawn.map(lambda b: tuple(sorted(b, key=sort_key))),
    )


MT_BOXES = boxes_of(st.integers(-1, 5))
MT_CENSUS = enumerate_mt((3, 2, 1), 4, 1) + enumerate_mt((4, 2), 4, 1)


@settings(max_examples=600, deadline=None)
@given(st.one_of(free_rows(MT_BOXES), mutated(MT_CENSUS, MT_BOXES)))
@example(((),))  # an empty row
@example((((1,), ()),))  # an empty box right of a nonempty one
@example((((1,),), ((),)))  # an empty box below a nonempty one
@example((((0,),),))  # a value below 1
@example((((2, 1),),))  # an unsorted box
@example((((1,),), ((2,), (3,))))  # a row longer than the row above
@example((((1,), (2,)), ((2,),)))  # a valid tableau
def test_is_valid_mt_matches_the_reference(rows):
    t = MultisetTableau(rows)
    assert is_valid_mt(t) == verdict(ref_is_valid_mt, t)


SMT_BOXES = boxes_of(st.builds(Entry, st.integers(-1, 4), st.booleans()), Entry.sort_key)
SMT_CENSUS = (
    enumerate_smt((3, 2), 3, 1)
    + enumerate_smt((3, 1), 3, 1, signed=True)
    + enumerate_smt((3, 2, 1), 4, 0, signed=True)
)


def e(token):
    return Entry.parse(token)


@settings(max_examples=600, deadline=None)
@given(st.one_of(free_rows(SMT_BOXES), mutated(SMT_CENSUS, SMT_BOXES)), st.booleans())
@example(((),), True)  # an empty row
@example((((e("1"),), ()),), True)  # an empty box right of a nonempty one
@example((((e("1"),), (e("2"),)), ((),)), False)  # an empty box below-left
@example((((Entry(0),),),), True)  # a value below 1
@example((((e("2"), e("1")),),), True)  # an unsorted box
@example((((e("2'"), e("2'")),),), True)  # a repeated primed entry
@example((((e("1"),),), ((e("2"),),)), True)  # a row as long as the row above
@example((((e("1'"),), (e("2"),)),), False)  # a primed minimum, unsigned
@example((((e("1'"),), (e("2"),)),), True)  # the same, signed
def test_is_valid_smt_matches_the_reference(rows, signed):
    t = ShiftedMultisetTableau(rows, signed=signed)
    assert is_valid_smt(t) == verdict(ref_is_valid_smt, t)


def _skew_census():
    out = []
    for outer, mu in [((3, 2, 1), (2, 1)), ((4, 2, 1), (2, 1)), ((3, 3), (1,))]:
        out += enumerate_rt(outer, mu)
    for lam, mu in [((4, 2), (3, 1)), ((5, 3), (3, 1)), ((5, 3, 1), (3, 2, 1))]:
        out += enumerate_srt(lam, mu)
    return out


SKEW_CENSUS = _skew_census()
small = st.integers(0, 4)


@st.composite
def free_skew(draw):
    n = draw(st.integers(0, 3))
    outer = tuple(draw(st.lists(small, min_size=n, max_size=n + 1)))
    inner = tuple(draw(st.lists(small, min_size=n, max_size=n + 1)))
    rows = tuple(
        tuple(draw(st.lists(st.integers(-1, 4), max_size=4)))
        for _ in range(draw(st.integers(n, n + 1)))
    )
    return SkewFilling(outer, inner, rows)


@st.composite
def mutated_skew(draw):
    f = draw(st.sampled_from(SKEW_CENSUS))
    rows = [list(row) for row in f.rows]
    kind = draw(st.integers(0, 3))
    if kind == 1 and any(rows):
        r = draw(st.sampled_from([r for r, row in enumerate(rows) if row]))
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.integers(0, 5))
    elif kind == 2:
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = draw(st.lists(st.integers(1, 4), max_size=4))
    outer, inner = list(f.outer), list(f.inner)
    if kind == 3:
        shapes = outer if draw(st.booleans()) else inner
        shapes[draw(st.integers(0, len(shapes) - 1))] = draw(small)
    return SkewFilling(tuple(outer), tuple(inner), tuple(tuple(row) for row in rows))


@settings(max_examples=600, deadline=None)
@given(st.one_of(free_skew(), mutated_skew()))
@example(SkewFilling((2, 2), (0, 0), ((1, 2), (2,))))  # a short lower row
@example(SkewFilling((2, 2), (0, 0), ((1, 2), (2, 3))))  # a column tie
@example(SkewFilling((2, 1), (1, 0), ((1,), (1,))))  # no cell above the lower one
@example(SkewFilling((1, 2), (0, 0), ((1,), (2, 3))))  # outer increases
def test_skew_semistandard_ok_matches_the_reference(f):
    assert _skew_semistandard_ok(f) == verdict(ref_skew_semistandard_ok, f)
