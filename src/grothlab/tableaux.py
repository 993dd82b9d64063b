"""Tableau families: multiset, shifted multiset, semistandard, restricted.

Rows are stored top to bottom and boxes left to right; box contents are
kept sorted.  Unshifted boxes hold positive integers, shifted boxes hold
possibly-primed entries ordered 1' < 1 < 2' < 2 < ...  Columns of an
unshifted tableau are labeled ell..1 from left to right (ell = first part
of the shape); diagonals of a shifted tableau are labeled the same way.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, total_ordering

from .algebra import MonomialCode
from .partitions import is_partition, is_strict_partition, staircase

__all__ = [
    "Entry",
    "lt_u",
    "lt_p",
    "MultisetTableau",
    "ShiftedMultisetTableau",
    "SkewFilling",
    "is_valid_mt",
    "is_valid_ssyt",
    "is_valid_smt",
    "is_valid_sst",
    "is_valid_rt",
    "is_valid_srt",
    "is_maximal_mt",
    "is_maximal_smt",
    "maximal_mt_to_rt",
    "rt_to_maximal_mt",
    "maximal_smt_to_srt",
    "srt_to_maximal_smt",
    "strip_signs",
    "enumerate_mt",
    "enumerate_ssyt",
    "enumerate_smt",
    "count_mt_by_code",
    "count_smt_by_code",
    "enumerate_sst",
    "enumerate_rt",
    "enumerate_srt",
    "enumerate_maximal_mt",
    "enumerate_maximal_smt",
    "maximal_box_sizes",
]


@total_ordering
@dataclass(frozen=True)
class Entry:
    """A tableau entry: a positive integer, optionally primed."""

    value: int
    primed: bool = False

    def sort_key(self):
        return (self.value, 0 if self.primed else 1)

    def __lt__(self, other: "Entry") -> bool:
        # the order of sort_key, read off the fields
        return self.value < other.value or (
            self.value == other.value and self.primed and not other.primed
        )

    def __str__(self) -> str:
        return f"{self.value}'" if self.primed else str(self.value)

    def __repr__(self) -> str:
        return f"Entry({self})"

    @classmethod
    def parse(cls, token: str) -> "Entry":
        token = token.strip()
        if token.endswith("'"):
            return cls(int(token[:-1]), True)
        return cls(int(token))


def lt_u(a: Entry, z: Entry) -> bool:
    """a < z, or a = z and both are unprimed: on equal values z is unprimed."""
    return a.value < z.value or (a.value == z.value and not z.primed)


def lt_p(a: Entry, z: Entry) -> bool:
    """a < z, or a = z and both are primed: on equal values a is primed."""
    return a.value < z.value or (a.value == z.value and a.primed)


def _weight_vector(counts: dict[int, int], top: int | None = None) -> tuple[int, ...]:
    """(count of 1, ..., count of top); top defaults to the largest value counted."""
    if top is None:
        top = max(counts, default=0)
    return tuple(counts.get(v, 0) for v in range(1, top + 1))


class _BoxRows:
    """Shared body of the straight and shifted multiset tableaux.

    Box c of every row sits on the column (straight) or diagonal (shifted)
    labeled ell - c, so both families read shape, ell and the per-label
    weight off `rows` the same way.
    """

    signed = False  # a field of the shifted family; straight tableaux have no signs

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def ell(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def _label_weight(self) -> tuple[int, ...]:
        """(T_1..T_ell): entries at label j minus the number of boxes there."""
        ell = self.ell
        return tuple(
            sum(len(row[ell - j]) - 1 for row in self.rows if ell - j < len(row))
            for j in range(1, ell + 1)
        )

    def to_json_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "boxes": [[[str(e) for e in box] for box in row] for row in self.rows],
            "signed": self.signed,
        }


# ---------------------------------------------------------------------------
# straight-shape multiset tableaux


@dataclass(frozen=True)
class MultisetTableau(_BoxRows):
    """Left-justified rows of boxes, each box a sorted tuple of integers."""

    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def weight(self) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for row in self.rows:
            for box in row:
                for v in box:
                    counts[v] = counts.get(v, 0) + 1
        return _weight_vector(counts)

    column_weight = _BoxRows._label_weight

    def to_text(self) -> str:
        return "\n".join(
            " | ".join(" ".join(str(v) for v in box) for box in row)
            for row in self.rows
        )

    @classmethod
    def from_text(cls, text: str) -> "MultisetTableau":
        rows = []
        for line in text.strip().splitlines():
            boxes = []
            for chunk in line.split("|"):
                vals = tuple(sorted(int(tok) for tok in chunk.split()))
                boxes.append(vals)
            rows.append(tuple(boxes))
        return cls(tuple(rows))

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultisetTableau":
        rows = tuple(
            tuple(tuple(sorted(int(tok) for tok in box)) for box in row)
            for row in data["boxes"]
        )
        return cls(rows)


def is_valid_mt(t: MultisetTableau) -> bool:
    """Membership test for straight-shape multiset tableaux, in one pass over
    the rows: nonempty rows no longer than the row above, each row one
    nondecreasing chain of entries >= 1 read left to right through nonempty
    boxes, and the last entry of each box below the first of the box under it."""
    above = None
    for row in t.rows:
        if not row:
            return False
        last = 1
        for box in row:
            if not box:
                return False
            for v in box:
                if v < last:
                    return False
                last = v
        if above is not None:
            if len(row) > len(above):
                return False
            for up, box in zip(above, row):
                if up[-1] >= box[0]:
                    return False
        above = row
    return True


def is_valid_ssyt(t: MultisetTableau) -> bool:
    return is_valid_mt(t) and all(len(b) == 1 for row in t.rows for b in row)


# ---------------------------------------------------------------------------
# shifted multiset tableaux


@dataclass(frozen=True)
class ShiftedMultisetTableau(_BoxRows):
    """Shifted rows of boxes over the primed alphabet.

    Row i starts one column right of row i-1, so the box at within-row
    index c of row r sits on the diagonal labeled ell - c.  The `signed`
    flag records membership in the signed family (no condition on row
    minima); unsigned tableaux must have an unprimed minimum in each row.
    """

    rows: tuple[tuple[tuple[Entry, ...], ...], ...]
    signed: bool = False

    def weight(self) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for row in self.rows:
            for box in row:
                for e in box:
                    counts[e.value] = counts.get(e.value, 0) + 1
        return _weight_vector(counts)

    diagonal_weight = _BoxRows._label_weight

    def row_minimum(self, r: int) -> Entry:
        return min(self.rows[r][0])

    def to_text(self) -> str:
        lines = []
        for r, row in enumerate(self.rows):
            cells = ["."] * r + [" ".join(str(e) for e in box) for box in row]
            lines.append(" | ".join(cells))
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str, signed: bool | None = None) -> "ShiftedMultisetTableau":
        rows = []
        for r, line in enumerate(text.strip().splitlines()):
            chunks = [c.strip() for c in line.split("|")]
            pads = 0
            while pads < len(chunks) and chunks[pads] == ".":
                pads += 1
            if pads != r:
                raise ValueError(f"row {r + 1} must start with {r} placeholders")
            boxes = tuple(
                tuple(sorted((Entry.parse(tok) for tok in chunk.split()), key=Entry.sort_key))
                for chunk in chunks[pads:]
            )
            rows.append(boxes)
        t = cls(tuple(rows), signed=bool(signed))
        if signed is None:
            inferred = any(t.row_minimum(r).primed for r in range(len(rows)))
            t = cls(tuple(rows), signed=inferred)
        return t

    @classmethod
    def from_json_dict(cls, data: dict) -> "ShiftedMultisetTableau":
        rows = tuple(
            tuple(
                tuple(sorted((Entry.parse(tok) for tok in box), key=Entry.sort_key))
                for box in row
            )
            for row in data["boxes"]
        )
        return cls(rows, signed=bool(data.get("signed", False)))


def _smt_structure_ok(t: ShiftedMultisetTableau) -> bool:
    """Membership in the signed family, in one pass over the rows: nonempty
    rows strictly shorter than the row above, each row one lt_u chain of
    entries >= 1 read left to right through nonempty boxes (so a box never
    repeats a primed entry), and the first entry of each box lt_p the first
    entry of the box under it, one within-row index to the left."""
    above = None
    for row in t.rows:
        if not row or not row[0] or row[0][0].value < 1:
            return False
        # lt_u(a, z) reads only a's value: a.value < z.value, or equal and z unprimed
        last = 0
        for box in row:
            if not box:
                return False
            for e in box:
                v = e.value
                if v < last or (v == last and e.primed):
                    return False
                last = v
        if above is not None:
            if len(row) >= len(above):
                return False
            for c, box in enumerate(row):
                if not lt_p(above[c + 1][0], box[0]):
                    return False
        above = row
    return True


def is_valid_smt(t: ShiftedMultisetTableau) -> bool:
    """Membership in the signed family, plus row minima unprimed when unsigned."""
    if not _smt_structure_ok(t):
        return False
    if not t.signed:
        for row in t.rows:
            # boxes are sorted, so a row's minimum leads its first box
            if row[0][0].primed:
                return False
    return True


def is_valid_sst(t: ShiftedMultisetTableau) -> bool:
    return is_valid_smt(t) and all(len(b) == 1 for row in t.rows for b in row)


def strip_signs(t: ShiftedMultisetTableau) -> ShiftedMultisetTableau:
    """Canonical unsigned representative: unprime each primed row minimum."""
    rows = []
    for row in t.rows:
        first = row[0]
        m = min(first)
        if m.primed:
            rest = list(first)
            rest.remove(m)
            first = tuple(sorted(rest + [Entry(m.value)], key=Entry.sort_key))
        rows.append((first,) + row[1:])
    return ShiftedMultisetTableau(tuple(rows), signed=False)


# ---------------------------------------------------------------------------
# skew fillings (restricted tableaux)


@dataclass(frozen=True)
class SkewFilling:
    """Entries on the skew diagram outer/inner, one integer per cell.

    Row r holds the entries of absolute columns inner[r]..outer[r]-1,
    left to right.
    """

    outer: tuple[int, ...]
    inner: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def weight(self, alphabet: int | None = None) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for row in self.rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
        return _weight_vector(counts, alphabet)

    def to_json_dict(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner), "rows": [list(r) for r in self.rows]}

    def to_text(self) -> str:
        lines = []
        for r, row in enumerate(self.rows):
            cells = ["."] * self.inner[r] + [str(v) for v in row]
            lines.append(" ".join(cells) if cells else "")
        return "\n".join(lines)


def _skew_semistandard_ok(f: SkewFilling) -> bool:
    """Rows of the skew outer/inner (both weakly decreasing, inner inside
    outer), weakly increasing along rows and strictly down columns; one pass
    over the rows, each compared with the row above by direct indexing."""
    outer, inner, rows = f.outer, f.inner, f.rows
    if len(inner) != len(outer) or len(rows) != len(outer):
        return False
    for r, row in enumerate(rows):
        lo, hi = inner[r], outer[r]
        if lo > hi or len(row) != hi - lo:
            return False
        for i in range(len(row) - 1):
            if row[i] > row[i + 1]:
                return False
        if r:
            up_lo = inner[r - 1]
            if up_lo < lo or outer[r - 1] < hi:
                return False
            up = rows[r - 1]
            # absolute columns up_lo..hi-1 hold a cell here and one above
            for col in range(up_lo, hi):
                if up[col - up_lo] >= row[col - lo]:
                    return False
    return True


def _floors(mu, nrows: int) -> list[int]:
    """Least entry of each row over mu: v lies on rows 1..c_v, so row r
    (0-based) admits v exactly when ell + 1 - mu[r] <= v <= ell, and a row
    past the end of mu admits nothing."""
    ell = mu[0] if mu else 0
    return [ell + 1 - (mu[r] if r < len(mu) else 0) for r in range(nrows)]


def _restricted_ok(f: SkewFilling, mu: tuple[int, ...]) -> bool:
    """Alphabet {1..ell} with entry i no lower than row c_i (rows 1-based)."""
    ell = mu[0] if mu else 0
    for floor, row in zip(_floors(mu, len(f.rows)), f.rows):
        for v in row:
            if not floor <= v <= ell:
                return False
    return True


def is_valid_rt(f: SkewFilling) -> bool:
    """Restricted tableau on outer/mu where mu is the inner shape."""
    mu = tuple(p for p in f.inner if p)
    if not is_partition(mu):
        return False
    return _skew_semistandard_ok(f) and _restricted_ok(f, mu)


def srt_shapes(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Carrier shapes (lam - delta, mu - delta) of a shifted restricted tableau."""
    m = len(mu)
    if len(lam) != m:
        raise ValueError("outer and inner shifted shapes must have equal length")
    delta = staircase(m)
    return (
        tuple(l - d for l, d in zip(lam, delta)),
        tuple(p - d for p, d in zip(mu, delta)),
    )


def is_valid_srt(f: SkewFilling, mu: tuple[int, ...]) -> bool:
    """Shifted restricted tableau; f lives on (lam-delta)/(mu-delta) for strict mu."""
    mu = tuple(mu)
    if not is_strict_partition(mu):
        return False
    m = len(mu)
    delta = staircase(m)
    if tuple(i + d for i, d in zip(f.inner, delta)) != mu:
        return False
    lam = tuple(o + d for o, d in zip(f.outer, delta))
    if not is_strict_partition(tuple(p for p in lam if p)):
        return False
    return _skew_semistandard_ok(f) and _restricted_ok(f, mu)


# ---------------------------------------------------------------------------
# maximal tableaux and the restricted correspondences


def _fits_below(upper, lower, bound: int) -> bool:
    """sum_{j<=k} |b_(i+1)j| - |b_i(j-1)| <= bound for every k, for rows i
    and i + 1 given as box sizes left to right (box c sits at label ell - c,
    b_i0 is empty): 1 for straight tableaux, 0 for shifted ones.  Labels past
    the lower row only subtract, so the sum starts at minus those sizes."""
    running = -sum(upper[len(lower) + 1:])
    for c in range(len(lower) - 1, -1, -1):
        running += lower[c] - (upper[c + 1] if c + 1 < len(upper) else 0)
        if running > bound:
            return False
    return True


def _is_maximal(t, valid, entry, bound: int) -> bool:
    """Valid tableau whose row-i boxes hold only entry(i), with every pair of
    consecutive rows meeting the partial-sum bound."""
    if not valid(t) or any(v != entry(r) for r, row in enumerate(t.rows, 1) for box in row for v in box):
        return False
    sizes = [[len(box) for box in row] for row in t.rows]
    return all(_fits_below(up, low, bound) for up, low in zip(sizes, sizes[1:]))


def is_maximal_mt(t: MultisetTableau) -> bool:
    """Valid multiset tableau whose row-i boxes hold only i's, partial sums <= 1."""
    return _is_maximal(t, is_valid_mt, int, 1)


def is_maximal_smt(t: ShiftedMultisetTableau) -> bool:
    """Valid unsigned shifted tableau, row-i boxes only i's, partial sums <= 0."""
    return not t.signed and _is_maximal(t, is_valid_smt, Entry, 0)


def _restricted_rows(t) -> tuple[tuple[int, ...], ...]:
    """Row i holds |box| - 1 copies of the label of each box in row i."""
    ell = t.ell
    return tuple(
        tuple(sorted(ell - c for c, box in enumerate(row) for _ in range(len(box) - 1)))
        for row in t.rows
    )


def _maximal_rows(f: SkewFilling, mu, entry):
    """Inverse of _restricted_rows on shape mu: row i holds boxes of entry(i)."""
    ell = mu[0] if mu else 0
    rows = []
    for r, width in enumerate(mu):
        counts = Counter(f.rows[r] if r < len(f.rows) else ())
        rows.append(tuple((entry(r + 1),) * (1 + counts[ell - c]) for c in range(width)))
    return tuple(rows)


def maximal_mt_to_rt(t: MultisetTableau) -> SkewFilling:
    """Row i of the image holds |b_ij| - 1 copies of each column label j."""
    if not is_maximal_mt(t):
        raise ValueError("input is not a maximal multiset tableau")
    lam = t.weight()
    if not is_partition(lam):
        raise ValueError("weight of a maximal tableau must be a partition")
    return SkewFilling(lam, t.shape, _restricted_rows(t))


def rt_to_maximal_mt(f: SkewFilling) -> MultisetTableau:
    """Inverse of maximal_mt_to_rt."""
    t = MultisetTableau(_maximal_rows(f, tuple(p for p in f.inner if p), int))
    if not is_maximal_mt(t):
        raise ValueError("filling does not encode a maximal multiset tableau")
    return t


def maximal_smt_to_srt(t: ShiftedMultisetTableau) -> SkewFilling:
    """Row i of the image holds |d_ij| - 1 copies of each diagonal label j."""
    if not is_maximal_smt(t):
        raise ValueError("input is not a maximal shifted multiset tableau")
    outer, inner = srt_shapes(t.weight(), t.shape)
    return SkewFilling(outer, inner, _restricted_rows(t))


def srt_to_maximal_smt(f: SkewFilling) -> ShiftedMultisetTableau:
    """Inverse of maximal_smt_to_srt; inner shape determines mu."""
    mu = tuple(i + d for i, d in zip(f.inner, staircase(len(f.inner))))
    t = ShiftedMultisetTableau(_maximal_rows(f, mu, Entry), signed=False)
    if not is_maximal_smt(t):
        raise ValueError("filling does not encode a maximal shifted tableau")
    return t


# ---------------------------------------------------------------------------
# bounded exhaustive enumeration and counting


# Both families fill the cells of the shape in row order.  A box is a
# nondecreasing run of indices into an alphabet: 1 < 2 < ... for multiset
# tableaux, where index i is the value i + 1, and 1' < 1 < 2' < 2 < ... for
# shifted ones, where index i is the value i // 2 + 1, primed when i is even.
# A cell admits the boxes whose first index is at least the least index that
# its left and upper boxes allow (`_mt_least`, `_smt_least`, with -1 for a
# missing neighbour); nothing else of the filling matters to it.  Inside a
# box the indices run on as they do along a row with nothing above, so a box
# is its first index i followed by a box that i admits next, one whose first
# index is at least least(i, -1) (`_Grid.after`).  What later cells read is
# a frontier of two slots per column (straight) or absolute column
# (shifted): the first and last index of the box filled there last.  `_fill`
# walks every tableau for enumerate_*, and `_count` counts them by the code
# of x^x t^t on the frontier for count_*_by_code.


# `_fill`, `_count` and the restricted backtrack recurse once per cell, and
# the maximal row walk once per row.  Half the interpreter's default
# recursion limit leaves room for any caller's own frames.
MAX_CELLS = 500


def _check_cells(shape, cells: int) -> None:
    """Refuse a walk over more than MAX_CELLS cells before any cell is built."""
    if cells > sys.maxsize:
        raise ValueError(f"shape {shape} has more cells than a list can hold")
    if cells > MAX_CELLS:
        raise ValueError(f"shape {shape} has {cells} cells; a tableau walk takes at most {MAX_CELLS}")


def _mt_least(left: int, above: int) -> int:
    """Least index a multiset tableau cell admits, given the last index of
    the box to its left and of the box above: rows weakly increase and
    columns strictly."""
    return max(left, above + 1)


def _smt_least(left: int, above: int) -> int:
    """Least index a shifted cell admits, given the last index of the box to
    its left and the first index of the box above.  Along a row (lt_u) the
    left index i admits i onwards when unprimed (odd) and i + 1 when primed;
    down a column (lt_p) the upper index i admits i onwards when primed
    (even) and i + 1 when unprimed."""
    return max(left | 1, above + above % 2)


class _Grid:
    """The cells, frontier layout and box rule of one enumeration or count.

    Each cell is (r, c, left, above, slot, unprimed_min): the frontier slots
    its neighbours' indices are read from, the slot pair (first, last) its
    own box is written to, and whether its box must start unprimed.  A
    missing neighbour reads the extra last slot, which always holds -1.
    `after[i]` is the least index that may follow index i in a box.
    """

    def __init__(self, shape, max_value: int, extra_cap: int, shifted: bool, signed: bool = False):
        shape = tuple(shape)
        if shifted and shape and not is_strict_partition(shape):
            raise ValueError(f"not a strict partition: {shape}")
        if not shifted and not is_partition(shape):
            raise ValueError(f"not a partition: {shape}")
        if max_value < 0:
            raise ValueError(f"max_value must be nonnegative, got {max_value}")
        if extra_cap < 0:
            raise ValueError(f"extra_cap must be nonnegative, got {extra_cap}")
        _check_cells(shape, sum(shape))
        self.shape, self.max_value, self.extra_cap = shape, max_value, extra_cap
        self.ell = shape[0] if shape else 0
        self.shifted = shifted
        self.least = _smt_least if shifted else _mt_least
        if shifted:
            self.alphabet = [Entry(i // 2 + 1, i % 2 == 0) for i in range(2 * max_value)]
        else:
            self.alphabet = list(range(1, max_value + 1))
        self.after = [self.least(i, -1) for i in range(len(self.alphabet))]
        self.nslots = 2 * self.ell
        self.cells = []
        for r, width in enumerate(shape):
            for c in range(width):
                pos = r + c if shifted else c
                left = 2 * pos - 1 if c else self.nslots
                above = (2 * pos if shifted else 2 * pos + 1) if r else self.nslots
                unprimed_min = shifted and not signed and c == 0
                self.cells.append((r, c, left, above, 2 * pos, unprimed_min))
        self._boxes: dict[tuple[int, int, bool], list] = {}

    def frontier(self) -> tuple[int, ...]:
        return (0,) * self.nslots + (-1,)

    def firsts(self, lo: int, unprimed_min: bool) -> range:
        """The first indices a box may take at least lo: only unprimed (odd)
        ones when unprimed_min is on."""
        return range(lo | 1 if unprimed_min else lo, len(self.alphabet), 2 if unprimed_min else 1)

    def boxes(self, lo: int, size: int, unprimed_min: bool = False) -> list:
        """The admissible boxes of the given size with first index >= lo, as
        index tuples in lexicographic order: each first index, followed by
        every box of one size less that it admits next."""
        key = (lo, size, unprimed_min)
        found = self._boxes.get(key)
        if found is None:
            if size == 1:
                found = [(i,) for i in self.firsts(lo, unprimed_min)]
            else:
                found = [
                    (i,) + rest
                    for i in self.firsts(lo, unprimed_min)
                    for rest in self.boxes(self.after[i], size - 1)
                ]
            self._boxes[key] = found
        return found


def _fill(grid: _Grid, leaf) -> None:
    """Call leaf(rows) on every tableau of the grid, in deterministic order:
    cells in row order, each box by size, then lexicographically."""
    rows = [[None] * width for width in grid.shape]
    frontier = list(grid.frontier())
    cells, entry = grid.cells, grid.alphabet.__getitem__

    def backtrack(idx: int, budget: int):
        if idx == len(cells):
            leaf(rows)
            return
        r, c, left, above, slot, unprimed_min = cells[idx]
        lo = grid.least(frontier[left], frontier[above])
        saved = frontier[slot:slot + 2]
        for size in range(1, budget + 2):
            for box in grid.boxes(lo, size, unprimed_min):
                rows[r][c] = tuple(map(entry, box))
                frontier[slot:slot + 2] = box[0], box[-1]
                backtrack(idx + 1, budget - (size - 1))
        frontier[slot:slot + 2] = saved
        rows[r][c] = None

    backtrack(0, grid.extra_cap)


def _count(grid: _Grid) -> tuple[MonomialCode, dict]:
    """(code, {code of x^x t^t: count}) over the tableaux of the grid, with
    x the weight over max_value variables and t the per-label weight
    (T_1..T_ell), in a `MonomialCode`.

    The transfer-matrix method (Stanley, Enumerative Combinatorics I, 4.7):
    the completions of a partial filling depend only on the next cell, the
    frontier and the remaining extra budget, so they are counted once per
    such state, as a dict {code of the remaining cells' weight: count}.

    The frontier is one int: slot s is a field of `fw` bits at bit s * fw
    holding its index + 1, and a missing neighbour reads the all-zero field
    past the last slot, so it reads index -1.  Each cell's mask clears its
    own slot pair and the slots no later cell reads before writing them, so
    that more states coincide.  Each cell has its own memo, keyed by
    frontier << budget_bits | budget, and the memo lives for this call only.

    A weight is the code of its monomial, whose degrees are at most
    |shape| + extra_cap and extra_cap, so a box choice adds one int to each
    key of its child's dict and the root tally is the result as it stands.
    Column c holds label ell - c, which is t index ell - 1 - c.  The x-weight
    sums of the boxes come from a span table keyed by (size, first index,
    last index), grown by the box rule; a cell's choices for one least
    index are built once from it, as (extra entries, frontier bits,
    weights), and cells that agree on the least index, slot, kept slots,
    label and unprimed rule share them.
    """
    cells, mv, ell, least = grid.cells, grid.max_value, grid.ell, grid.least
    extra_cap, nslots, letters = grid.extra_cap, grid.nslots, len(grid.alphabet)
    code = MonomialCode(mv, ell, sum(grid.shape) + extra_cap, extra_cap)
    x_unit = [code.x_var(i // 2 if grid.shifted else i) for i in range(letters)]
    t_unit = [code.t_var(ell - 1 - c) for c in range(ell)]
    fw, budget_bits = letters.bit_length(), extra_cap.bit_length()
    fm = (1 << fw) - 1

    # spans[k][first]: {last: x-weight sums of the boxes of size k + 1 that
    # run from first to last}; a box is its first index and a box it admits next
    spans = [[{i: [u]} for i, u in enumerate(x_unit)]]
    for _ in range(extra_cap):
        shorter, row = spans[-1], []
        for i, u in enumerate(x_unit):
            by_last: dict[int, list] = {}
            for j in range(grid.after[i], letters):
                for last, ws in shorter[j].items():
                    by_last.setdefault(last, []).extend([u + w for w in ws])
            row.append(by_last)
        spans.append(row)

    shared: dict[tuple, list] = {}

    def choice_list(lo, slot, keep_first, keep_last, c, unprimed_min) -> list:
        """[(extra, frontier bits, weights)] by extra entries, grouped by
        the slot pair the box leaves."""
        key = (lo, slot, keep_first, keep_last, c, unprimed_min)
        found = shared.get(key)
        if found is None:
            found = []
            for extra, by_first in enumerate(spans):
                t_shift = extra * t_unit[c]
                groups: dict[int, list] = {}
                for first in grid.firsts(lo, unprimed_min):
                    head = first + 1 << slot * fw if keep_first else 0
                    for last, ws in by_first[first].items():
                        bits = head | (last + 1 << (slot + 1) * fw if keep_last else 0)
                        groups.setdefault(bits, []).extend([t_shift + w for w in ws])
                found.extend((extra, bits, ws) for bits, ws in groups.items())
            shared[key] = found
        return found

    # plans[idx]: the neighbour shifts, the mask of the kept slots, the
    # choice lists by least index, and what selects a shared choice list.
    # live: the slots some cell after idx reads before writing them, built
    # from the last cell back (a cell reads its neighbours, then writes)
    plans = [None] * len(cells)
    live: set[int] = set()
    for idx in range(len(cells) - 1, -1, -1):
        _, c, left, above, slot, unprimed_min = cells[idx]
        keep = sum(fm << s * fw for s in live if s not in (slot, slot + 1))
        spec = (slot, slot in live, slot + 1 in live, c, unprimed_min)
        plans[idx] = (left * fw, above * fw, keep, {}, spec)
        live -= {slot, slot + 1}
        live |= {left, above} - {nslots}

    memos = [{} for _ in cells]
    ncells = len(cells)
    done = {0: 1}

    def completions(idx: int, frontier: int, budget: int) -> dict:
        if idx == ncells:
            return done
        memo = memos[idx]
        key = frontier << budget_bits | budget
        found = memo.get(key)
        if found is not None:
            return found
        left, above, keep, by_lo, spec = plans[idx]
        lo = least((frontier >> left & fm) - 1, (frontier >> above & fm) - 1)
        choices = by_lo.get(lo)
        if choices is None:
            choices = by_lo[lo] = choice_list(lo, *spec)
        frontier &= keep
        idx += 1
        out: dict[int, int] = {}
        for extra, bits, weights in choices:
            if extra > budget:
                break
            child = completions(idx, frontier | bits, budget - extra)
            for w in weights:
                for k, v in child.items():
                    k += w
                    out[k] = out.get(k, 0) + v
        memo[key] = out
        return out

    return code, completions(0, 0, extra_cap)


def enumerate_mt(shape, max_value: int, extra_cap: int):
    """All multiset tableaux of the given shape, entries <= max_value and
    at most extra_cap entries beyond one per box, in deterministic order."""
    out = []
    _fill(
        _Grid(shape, max_value, extra_cap, shifted=False),
        lambda rows: out.append(MultisetTableau(tuple(tuple(row) for row in rows))),
    )
    return out


def count_mt_by_code(shape, max_value: int, extra_cap: int) -> tuple[MonomialCode, dict]:
    """(code, {code: count}) over the tableaux of enumerate_mt, keyed by the
    `MonomialCode` of x^weight t^(column weight) in max_value x-variables."""
    return _count(_Grid(shape, max_value, extra_cap, shifted=False))


def enumerate_ssyt(shape, max_value: int):
    return enumerate_mt(shape, max_value, 0)


def enumerate_smt(shape, max_value: int, extra_cap: int, signed: bool = False):
    """All (signed) shifted multiset tableaux with the given caps."""
    out = []
    _fill(
        _Grid(shape, max_value, extra_cap, shifted=True, signed=signed),
        lambda rows: out.append(
            ShiftedMultisetTableau(tuple(tuple(row) for row in rows), signed=signed)
        ),
    )
    return out


def count_smt_by_code(shape, max_value: int, extra_cap: int, signed: bool = False) -> tuple[MonomialCode, dict]:
    """(code, {code: count}) over the tableaux of enumerate_smt, keyed by the
    `MonomialCode` of x^weight t^(diagonal weight) in max_value x-variables."""
    return _count(_Grid(shape, max_value, extra_cap, shifted=True, signed=signed))


def enumerate_sst(shape, max_value: int, signed: bool = False):
    return enumerate_smt(shape, max_value, 0, signed=signed)


def _enumerate_restricted(outer, inner, mu):
    """Skew semistandard fillings in alphabet {1..ell}, entry v on rows <= c_v."""
    _check_cells(outer, sum(outer) - sum(inner))
    ell = mu[0] if mu else 0
    floors = _floors(mu, len(outer))
    cells = [
        (r, col)
        for r in range(len(outer))
        for col in range(inner[r], outer[r])
    ]
    rows = [[None] * (outer[r] - inner[r]) for r in range(len(outer))]
    out = []

    def entry_at(r: int, col: int):
        if r < 0 or not inner[r] <= col < outer[r]:
            return None
        return rows[r][col - inner[r]]

    def backtrack(idx: int):
        if idx == len(cells):
            out.append(
                SkewFilling(tuple(outer), tuple(inner), tuple(tuple(row) for row in rows))
            )
            return
        r, col = cells[idx]
        left = entry_at(r, col - 1)
        above = entry_at(r - 1, col)
        lo = max(floors[r], left if left is not None else 1, (above + 1) if above is not None else 1)
        for v in range(lo, ell + 1):
            rows[r][col - inner[r]] = v
            backtrack(idx + 1)
        rows[r][col - inner[r]] = None

    backtrack(0)
    return out


def enumerate_rt(outer, mu):
    """All restricted tableaux of shape outer/mu."""
    outer = tuple(outer)
    mu = tuple(mu)
    # outer may end in zero rows: the expansion oracles pad it to len(mu)
    rows = tuple(p for p in outer if p)
    if not (is_partition(mu) and is_partition(rows) and outer == rows + (0,) * (len(outer) - len(rows))):
        raise ValueError(f"not a partition pair: {outer}/{mu}")
    inner = mu + (0,) * (len(outer) - len(mu))
    if len(mu) > len(outer) or any(i > o for i, o in zip(inner, outer)):
        raise ValueError("inner shape must fit inside outer shape")
    return _enumerate_restricted(outer, inner, tuple(p for p in mu if p))


def enumerate_srt(lam, mu):
    """All shifted restricted tableaux of shape lam/mu (strict shapes)."""
    lam, mu = tuple(lam), tuple(mu)
    if not (is_strict_partition(lam) and is_strict_partition(mu)):
        raise ValueError(f"not a strict partition pair: {lam}/{mu}")
    outer, inner = srt_shapes(lam, mu)
    if any(i > o for i, o in zip(inner, outer)):
        raise ValueError("inner shape must fit inside outer shape")
    return _enumerate_restricted(outer, inner, mu)


def maximal_box_sizes(shape, extra_cap: int, shifted: bool = False):
    """Box-size matrices (tuples of rows of sizes) of the maximal, or maximal
    shifted, tableaux of the shape with at most extra_cap extra entries, in
    lexicographic order read row by row; the arguments are checked on the
    call, and the walk runs as the returned iterator is read.

    Row i holds only the unprimed value i, so rows weakly increase, columns
    strictly increase and row minima are unprimed whatever the sizes are:
    only `_fits_below` can fail, and a row of ones always fits."""
    shape = tuple(shape)
    if not (is_strict_partition if shifted else is_partition)(shape):
        raise ValueError(f"not a {'strict ' if shifted else ''}partition: {shape}")
    if extra_cap < 0:
        raise ValueError(f"extra_cap must be nonnegative, got {extra_cap}")
    _check_cells(shape, sum(shape))
    bound = 0 if shifted else 1

    @cache
    def size_rows(width: int, budget: int) -> list:
        """(sizes, extra) of the rows of `width` sizes >= 1 with at most `budget`
        extra entries in lexicographic order: all ones, then by the index of
        the first size above 1, from the last index down."""
        rows = [((1,) * width, 0)]
        for p in range(width - 1, -1, -1):
            for a in range(1, budget + 1):
                head = (1,) * p + (1 + a,)
                rows.extend((head + tail, a + extra) for tail, extra in size_rows(width - p - 1, budget - a))
        return rows

    @cache
    def fitting(upper, width: int, budget: int) -> list:
        return [
            (row, extra) for row, extra in size_rows(width, budget)
            if upper is None or _fits_below(upper, row, bound)
        ]

    def walk(r: int, upper, budget: int):
        if r == len(shape):
            yield ()
            return
        for row, extra in fitting(upper, shape[r], budget):
            for rest in walk(r + 1, row, budget - extra):
                yield (row,) + rest

    return walk(0, None, extra_cap)


def enumerate_maximal_mt(shape, extra_cap: int):
    return [
        MultisetTableau(tuple(tuple((r,) * s for s in row) for r, row in enumerate(sizes, 1)))
        for sizes in maximal_box_sizes(shape, extra_cap)
    ]


def enumerate_maximal_smt(shape, extra_cap: int):
    return [
        ShiftedMultisetTableau(tuple(tuple((Entry(r),) * s for s in row) for r, row in enumerate(sizes, 1)))
        for sizes in maximal_box_sizes(shape, extra_cap, shifted=True)
    ]
