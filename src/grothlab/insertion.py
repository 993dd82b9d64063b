"""Column insertion and the stagewise bijections between tableau families.

Columns are handled in display order: row 0 on top, single-entry cells
strictly increasing downward (shifted: consecutive cells a above z satisfy
a <_p z).  Insertion replaces the topmost cell that can receive the incoming
entry and bumps its old value; reverse insertion replaces the bottommost
eligible cell.  The `out`/`in` steps move entries between a designated
column (or diagonal) of multiset boxes and a growing horizontal strip of
single-entry boxes to its right.

Labels follow the tableau convention: column/diagonal k of the ambient base
shape sits ell - k columns from the left, where ell is the first part of
the base shape.  The ambient ell must be passed explicitly because the
tableau widens while the base shape stays fixed.

Both families share one out step and one in step.  Row r starts at
absolute column r * shift, with shift 0 for straight and 1 for shifted
tableaux, so the cell of row r in absolute column col has within-row index
col - r * shift.  At stage k let idx = ell - k: a cell whose index exceeds
idx holds a single entry and takes part in bumping, and a cell whose index
equals idx is a circled box of the active column/diagonal.  A straight
column is therefore all single cells (col > idx) or all circled boxes
(col = idx), while a shifted column has its single cells on top of at most
one circled box.  The families differ only in the data `_family` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import le

from .partitions import pad, staircase
from .tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    _smt_structure_ok,
    is_valid_mt,
    is_valid_rt,
    is_valid_smt,
    is_valid_srt,
    lt_p,
    lt_u,
)

__all__ = [
    "InsertionError",
    "PrimedDuplicationError",
    "OutTrace",
    "InTrace",
    "column_insert",
    "column_reverse_insert",
    "shifted_column_insert",
    "shifted_column_reverse_insert",
    "out_step",
    "in_step",
    "psi_k",
    "psi_k_inverse",
    "psi",
    "psi_inverse",
    "phi",
    "phi_inverse",
]


class InsertionError(ValueError):
    """An insertion step was applied outside its domain."""


class PrimedDuplicationError(InsertionError):
    """An in-step deposited a primed entry into a box already holding it."""


def _cell_text(r: int, col: int) -> str:
    """A 0-based (row, absolute column) cell, written 1-based as trace shows it."""
    return f"({r + 1}, {col + 1})"


# ---------------------------------------------------------------------------
# single-column steps


def _first_bump(a, cells, order) -> int | None:
    """Index of the topmost cell b with order(a, b), the cell a bumps."""
    for i, b in enumerate(cells):
        if order(a, b):
            return i
    return None


def _last_bump(cells, z, order) -> int | None:
    """Index of the bottommost cell b with order(b, z), the cell z reverse-bumps."""
    for i in range(len(cells) - 1, -1, -1):
        if order(cells[i], z):
            return i
    return None


def column_insert(a: int, cells: tuple[int, ...]):
    """Replace the topmost entry >= a by a and bump it; else append at bottom.

    Returns (new_cells, bumped) with bumped None when a was appended.
    """
    i = _first_bump(a, cells, le)
    if i is None:
        return cells + (a,), None
    return cells[:i] + (a,) + cells[i + 1 :], cells[i]


def column_reverse_insert(cells: tuple[int, ...], z: int):
    """Replace the bottommost entry <= z by z and bump it.

    Requires some entry of the column to be <= z.
    """
    i = _last_bump(cells, z, le)
    if i is None:
        raise InsertionError(f"reverse insertion of {z} undefined: no entry <= {z}")
    return cells[i], cells[:i] + (z,) + cells[i + 1 :]


def shifted_column_insert(a: Entry, cells: tuple[Entry, ...]):
    """Replace the topmost entry with a <_u entry and bump it; else append."""
    i = _first_bump(a, cells, lt_u)
    if i is None:
        return cells + (a,), None
    return cells[:i] + (a,) + cells[i + 1 :], cells[i]


def shifted_column_reverse_insert(cells: tuple[Entry, ...], z: Entry):
    """Replace the bottommost entry with z >_u entry by z and bump it."""
    i = _last_bump(cells, z, lt_u)
    if i is None:
        raise InsertionError(f"reverse insertion of {z} undefined in {cells}")
    return cells[i], cells[:i] + (z,) + cells[i + 1 :]


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class OutTrace:
    removed: object
    removed_cell: tuple[int, int]
    path: tuple[tuple[int, int, object, object], ...]
    appended_cell: tuple[int, int]
    appended: object


@dataclass(frozen=True)
class InTrace:
    corner_cell: tuple[int, int]
    removed: object
    path: tuple[tuple[int, int, object, object], ...]
    deposit_cell: tuple[int, int]
    deposit: object


# ---------------------------------------------------------------------------
# out / in, one body for both families


def _admits_shifted(m, z) -> bool:
    return not lt_p(z, m)


# (shift, order, admits, word): row r starts at absolute column r * shift;
# order(a, b) says a bumps b in column insertion; admits(m, z) says a
# circled box with minimum m takes the deposit z; word names the active line
_STRAIGHT = (0, le, le, "column")
_SHIFTED = (1, lt_u, _admits_shifted, "diagonal")


def _family(t):
    return _SHIFTED if isinstance(t, ShiftedMultisetTableau) else _STRAIGHT


def _column(rows, col: int, shift: int, idx: int) -> tuple[int, int]:
    """(s, h): rows 0..h-1 hold a cell in absolute column col, and the top s
    of those cells sit right of within-row index idx (single entries)."""
    h = 0
    while h < len(rows) and 0 <= col - h * shift < len(rows[h]):
        h += 1
    s = 0
    while s < h and col - s * shift > idx:
        s += 1
    return s, h


def _largest_noncircled(boxes):
    """(value, row) of the largest noncircled entry, bottommost box on ties.
    A box is sorted, so its last entry is its largest and, when the box
    holds more than one, noncircled."""
    return max(((box[-1], r) for r, box in boxes if len(box) > 1), default=None)


def _on_copy(t, body, *args):
    """Run body on a list copy of t's rows; returns (new tableau, result)."""
    rows = [list(row) for row in t.rows]
    result = body(rows, *args, _family(t))
    return replace(t, rows=tuple(map(tuple, rows))), result


def out_step(t, k: int, ell: int):
    """One out move at stage k; returns (tableau, OutTrace)."""
    return _on_copy(t, _out, k, ell)


def in_step(t, k: int, ell: int, cell):
    """One in move at stage k undoing an out; cell is the corner consumed."""
    return _on_copy(t, _in, k, ell, cell)


def _out(rows, k: int, ell: int, family) -> OutTrace:
    """One out move at stage k on a list of row lists, in place."""
    shift, order, _, word = family
    idx = ell - k
    boxes = [(r, row[idx]) for r, row in enumerate(rows) if idx < len(row)]
    if not boxes:
        raise InsertionError(f"{word} {k} is empty")
    pick = _largest_noncircled(boxes)
    if pick is None:
        raise InsertionError(f"no noncircled entry remains in {word} {k}")
    v, r0 = pick
    rows[r0][idx] = rows[r0][idx][:-1]

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


def _in(rows, k: int, ell: int, cell, family) -> InTrace:
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
            if col - rr * shift == idx and admits(rows[rr][idx][0], z):
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


# ---------------------------------------------------------------------------
# stage maps and the full bijections


def _stage(rows, k: int, ell: int, family) -> list[OutTrace]:
    """Run stage k on a list of row lists, in place; returns its traces.

    Each out move takes one noncircled entry off line k and appends a
    single entry right of it, so the stage makes exactly as many moves as
    line k holds noncircled entries."""
    idx = ell - k
    moves = sum([len(row[idx]) - 1 for row in rows if idx < len(row)])
    return [_out(rows, k, ell, family) for _ in range(moves)]


def _unstage(rows, k: int, ell: int, cells, family) -> None:
    """Undo stage k in place by consuming the strip cells, rightmost first."""
    for cell in sorted(cells, key=lambda rc: -rc[1]):
        _in(rows, k, ell, cell, family)


def psi_k(t, k: int, ell: int):
    """Apply out at stage k until the active column/diagonal holds single
    entries; returns (tableau, traces)."""
    return _on_copy(t, _stage, k, ell)


def psi_k_inverse(t, k: int, ell: int, cells):
    """Undo stage k by consuming the given strip cells, rightmost first."""
    return _on_copy(t, _unstage, k, ell, cells)[0]


def _run_stages(p, valid):
    """Run psi_k for k = 1..ell on p; returns (Q, marks), where marks maps
    each appended cell to the stage k that appended it.  A stage that moves
    freezes the rows once; every stage's tableau must pass valid."""
    ell = p.ell
    family = _family(p)
    rows = [list(row) for row in p.rows]
    t = p
    marks: dict[tuple[int, int], int] = {}
    for k in range(1, ell + 1):
        traces = _stage(rows, k, ell, family)
        if traces:
            cols = [tr.appended_cell[1] for tr in traces]
            if any(c2 <= c1 for c1, c2 in zip(cols, cols[1:])):
                raise InsertionError("appended boxes must move strictly right")
            for tr in traces:
                marks[tr.appended_cell] = k
            t = replace(p, rows=tuple(map(tuple, rows)))
        if not valid(t):
            raise InsertionError(f"stage {k} left an invalid tableau")
    return t, marks


def _undo_stages(q, r: SkewFilling, mu, offset: int):
    """Undo stages ell..1 of q; the cells of R labeled k, shifted right by
    offset columns, are the strip that stage k appended."""
    ell = mu[0] if mu else 0
    strips: dict[int, list[tuple[int, int]]] = {}
    for rr, row in enumerate(r.rows):
        for i, v in enumerate(row):
            strips.setdefault(v, []).append((rr, r.inner[rr] + i + offset))
    family = _family(q)
    rows = [list(row) for row in q.rows]
    for k in range(ell, 0, -1):
        _unstage(rows, k, ell, strips.get(k, ()), family)
    t = replace(q, rows=tuple(map(tuple, rows)))
    if t.shape != mu:
        raise InsertionError("inverse did not return to the inner shape")
    return t


def psi(p: MultisetTableau):
    """Decompose a multiset tableau into (Q, R): a single-entry tableau of a
    larger shape and a restricted filling recording each stage's strip."""
    if not is_valid_mt(p):
        raise InsertionError("psi needs a valid multiset tableau")
    mu = p.shape
    t, marks = _run_stages(p, is_valid_mt)
    lam = t.shape
    inner = pad(mu, len(lam))
    rows = tuple(
        tuple(marks[(r, c)] for c in range(inner[r], lam[r])) for r in range(len(lam))
    )
    rt = SkewFilling(lam, inner, rows)
    if not is_valid_rt(rt):
        raise InsertionError("recorded strip entries do not form a restricted tableau")
    return t, rt


def psi_inverse(q: MultisetTableau, r: SkewFilling) -> MultisetTableau:
    """Rebuild the multiset tableau from (Q, R)."""
    if q.shape != r.outer:
        raise InsertionError("shapes of Q and R disagree")
    return _undo_stages(q, r, tuple(p for p in r.inner if p), 0)


def phi(p: ShiftedMultisetTableau):
    """Shifted analog of psi; the filling lives on the staircase-reduced skew."""
    if not is_valid_smt(p):
        raise InsertionError("phi needs a valid shifted multiset tableau")
    mu = p.shape
    m = len(mu)
    # every stage must stay in the signed family, whatever p's own flag
    t, marks = _run_stages(p, _smt_structure_ok)
    lam = t.shape
    if len(lam) != m:
        raise InsertionError("the row count changed during phi")
    delta = staircase(m)
    outer = tuple(l - d for l, d in zip(lam, delta))
    inner = tuple(p_ - d for p_, d in zip(mu, delta))
    rows = tuple(tuple(marks[(r, r + c)] for c in range(mu[r], lam[r])) for r in range(m))
    srt = SkewFilling(outer, inner, rows)
    if not is_valid_srt(srt, mu):
        raise InsertionError("recorded strip entries do not form a shifted restricted tableau")
    return t, srt


def phi_inverse(q: ShiftedMultisetTableau, r: SkewFilling) -> ShiftedMultisetTableau:
    """Rebuild the shifted multiset tableau from (Q, R)."""
    m = len(r.inner)
    delta = staircase(m)
    lam = tuple(o + d for o, d in zip(r.outer, delta))
    mu = tuple(i + d for i, d in zip(r.inner, delta))
    if q.shape != lam:
        raise InsertionError("shapes of Q and R disagree")
    return _undo_stages(q, r, mu, m - 1)
