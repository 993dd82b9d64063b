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

Boxes are kept sorted (validity implies it; parsing, enumeration and the in
step's deposit keep it), so the steps read only a box's ends.  The bodies
`_out` and `_in` change a list of row lists in place and record their bumps
only when handed a path list, which `out_step`, `in_step` and `psi_k` do
for `trace`; `psi`, `phi` and their inverses run all their moves on one row
list and never build a trace.
"""

from __future__ import annotations

from operator import itemgetter, le

from .frozen import Frozen
from .partitions import pad
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
    srt_lift,
    srt_shapes,
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


class OutTrace(Frozen):
    __slots__ = ("removed", "removed_cell", "path", "appended_cell", "appended")


class InTrace(Frozen):
    __slots__ = ("corner_cell", "removed", "path", "deposit_cell", "deposit")


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
    of those cells sit right of within-row index idx (single entries).

    Only h walks the rows.  The cell of row r has index col - r * shift, so
    a straight column is all single cells or all circled boxes, and a
    shifted one has its single cells in the rows r < col - idx."""
    h, n = 0, len(rows)
    if shift:
        while h < n and 0 <= col - h < len(rows[h]):
            h += 1
        return min(h, max(0, col - idx)), h
    if col >= 0:
        while h < n and col < len(rows[h]):
            h += 1
    return (h if col > idx else 0), h


def _line_orders(rows) -> dict[int, list[tuple]]:
    """{idx: order} for every line idx holding a noncircled entry (an entry
    of a box after its first), read in one pass over the boxes: the order
    lists the (value, row) of each such entry, largest first and bottommost
    box first on ties, which is the order in which the out moves of the
    line's stage take them."""
    orders = {}
    for r, row in enumerate(rows):
        for idx, box in enumerate(row):
            if len(box) > 1:
                for v in box[1:]:
                    orders.setdefault(idx, []).append((v, r))
    for order in orders.values():
        order.sort(reverse=True)
    return orders


def _check_label(k: int, ell: int) -> None:
    """Refuse a stage k outside 1..ell: its line index ell - k would miss
    every line, or, negative, index each row from its end."""
    if not 1 <= k <= ell:
        raise InsertionError(f"stage {k} is not a label in 1..{ell}")


def _with_rows(t, rows):
    """A tableau of t's class, and of t's sign flag when shifted, holding rows."""
    rows = tuple(map(tuple, rows))
    if isinstance(t, ShiftedMultisetTableau):
        return ShiftedMultisetTableau(rows, t.signed)
    return MultisetTableau(rows)


def _on_copy(t, body, *args):
    """Run body on a list copy of t's rows; returns (new tableau, result)."""
    rows = [list(row) for row in t.rows]
    result = body(rows, *args, _family(t))
    return _with_rows(t, rows), result


def out_step(t, k: int, ell: int):
    """One out move at stage k, the first of its stage (the head of its
    line's order in _line_orders); returns (tableau, OutTrace)."""
    _check_label(k, ell)
    word = _family(t)[3]
    idx = ell - k
    if not any(idx < len(row) for row in t.rows):
        raise InsertionError(f"{word} {k} is empty")
    order = _line_orders(t.rows).get(idx)
    if not order:
        raise InsertionError(f"no noncircled entry remains in {word} {k}")
    return _on_copy(t, _traced_out, order[0][1], idx)


def in_step(t, k: int, ell: int, cell):
    """One in move at stage k undoing an out; cell is the corner consumed."""
    _check_label(k, ell)
    family = _family(t)
    rows = [list(row) for row in t.rows]
    path = []
    target, z = _in(rows, k, ell, cell, family, path)
    # the corner passed _in's checks, so t holds it
    r, col = cell
    shift = family[0]
    removed = t.rows[r][col - r * shift][0]
    return _with_rows(t, rows), InTrace(cell, removed, tuple(path), (target, target * shift + ell - k), z)


def _traced_out(rows, r0: int, idx: int, family) -> OutTrace:
    """_out with its OutTrace, read off the rows before and after the move."""
    v = rows[r0][idx][-1]
    path = []
    h, col = _out(rows, r0, idx, family, path)
    return OutTrace(v, (r0, r0 * family[0] + idx), tuple(path), (h, col), rows[h][-1][0])


def _out(rows, r0: int, idx: int, family, path=None) -> tuple[int, int]:
    """One out move on a list of row lists, in place: take the last entry
    off the box of row r0 on line idx and column-insert it from the next
    column on.  Returns the appended cell (row, absolute column); each bump
    (row, column, old, new) goes to path when it is a list."""
    shift, order, _, _ = family
    box = rows[r0][idx]
    rows[r0][idx] = box[:-1]
    a, col = box[-1], r0 * shift + idx + 1
    while True:
        s, h = _column(rows, col, shift, idx)
        for i in range(s):
            c = col - i * shift
            b = rows[i][c]
            if order(a, b[0]):
                break
        else:
            break
        if len(b) != 1:
            raise InsertionError(f"bumped box at {_cell_text(i, col)} holds more than one entry")
        if path is not None:
            path.append((i, col, b[0], a))
        rows[i][c] = (a,)
        a, col = b[0], col + 1
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
    return h, col


def _in(rows, k: int, ell: int, cell, family, path=None) -> tuple:
    """One in move at stage k on a list of row lists, in place; returns
    (row, entry) of the deposit, which lands on line ell - k.  Each reverse
    bump (row, column, old, new) goes to path when it is a list."""
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
    z = rows[r][c][0]
    rows[r].pop()
    if not rows[r]:
        rows.pop()

    while True:
        col -= 1
        s, h = _column(rows, col, shift, idx)
        # deposit into the lowest circled box whose minimum admits z.  The
        # walk never passes left of line idx, so circled boxes exist when
        # s < h: a straight column is then line idx itself, all circled,
        # and a shifted one holds a single circled box, in row s
        target = None
        if s < h:
            for rr in range(s if shift else h - 1, s - 1, -1):
                if admits(rows[rr][idx][0], z):
                    target = rr
                    break
        if target is not None:
            break
        for i in range(s - 1, -1, -1):
            c = col - i * shift
            b = rows[i][c]
            if order(b[0], z):
                break
        else:
            raise InsertionError(f"no admissible box in {word} {k} for {z}")
        if len(b) != 1:
            raise InsertionError(f"bumped box at {_cell_text(i, col)} holds more than one entry")
        if path is not None:
            path.append((i, col, b[0], z))
        rows[i][c] = (z,)
        z = b[0]

    box = rows[target][idx]
    # only shifted entries carry primes, and a box holds each primed value once
    if shift and z.primed and z in box:
        raise PrimedDuplicationError(
            f"deposit of {z} duplicates a primed entry at {_cell_text(target, col)}"
        )
    rows[target][idx] = tuple(sorted(box + (z,)))
    return target, z


# ---------------------------------------------------------------------------
# stage maps and the full bijections


def _stage(rows, idx: int, order, move, family) -> list:
    """Make the moves of the stage of line idx on a list of row lists, in
    place, taking the line's noncircled entries in order (its entry of
    `_line_orders`); returns what move returns for each: the appended cell
    (`_out`) or the OutTrace (`_traced_out`).

    An out move shortens one box of line idx by its last entry, and every
    cell it writes, bumped or appended, holds a single entry and lies right
    of the line or is a new circled box on it.  So after each move the
    entries still to move are the rest of the order, and no move adds one.
    Within a row the picks come largest first, and a box is sorted, so each
    pick is its box's last entry, the one the move takes off."""
    return [move(rows, r, idx, family) for _, r in order]


def _unstage(rows, k: int, ell: int, cells, family) -> None:
    """Undo stage k in place by consuming the strip cells, rightmost first."""
    if len(cells) > 1:
        cells = sorted(cells, key=itemgetter(1), reverse=True)
    for cell in cells:
        _in(rows, k, ell, cell, family)


def psi_k(t, k: int, ell: int):
    """Apply out at stage k until the active column/diagonal holds single
    entries; returns (tableau, traces)."""
    _check_label(k, ell)
    idx = ell - k
    return _on_copy(t, _stage, idx, _line_orders(t.rows).get(idx, ()), _traced_out)


def psi_k_inverse(t, k: int, ell: int, cells):
    """Undo stage k by consuming the given strip cells, rightmost first."""
    _check_label(k, ell)
    return _on_copy(t, _unstage, k, ell, cells)[0]


def _run_stages(p, valid):
    """Run psi_k for k = 1..ell on p; returns (Q, labels), where labels[r]
    holds, left to right, the stage that appended each box of row r of Q
    that p lacks: the rows of R.  An append always extends its row at the
    end, so each row's labels arrive in column order as the stages append
    them.

    Every stage's order is read from p, in one `_line_orders` pass.  A
    stage removes entries only from its own line, and every cell an out
    move writes (bumped, appended, or a new row's first box) holds a single
    entry, so no move adds a noncircled entry to any line.  So when the
    stage of line idx starts, the line's order is the one p gives it, and a
    line without an order has a stage without a move.  Only the lines with
    an order are visited, largest idx first: stage k = ell - idx ascending.

    A stage that moves freezes the rows once, and its tableau must pass
    valid.  A stage without a move leaves the tableau as it was, which has
    passed valid already: at the last stage that moved, or, at the start,
    in the caller's entry test (`psi` tests is_valid_mt, the valid it
    passes here; `phi` tests is_valid_smt, which runs _smt_structure_ok
    first).  valid is a pure function, so calling it again on that
    tableau could not change the outcome, and it is not called."""
    ell = p.ell
    family = _family(p)
    rows = [list(row) for row in p.rows]
    labels = [[] for _ in rows]
    t = p
    orders = _line_orders(p.rows)
    for idx in sorted(orders, reverse=True):
        k = ell - idx
        last = -1
        for h, col in _stage(rows, idx, orders[idx], _out, family):
            if col <= last:
                raise InsertionError("appended boxes must move strictly right")
            last = col
            if h == len(labels):
                labels.append([])
            labels[h].append(k)
        t = _with_rows(p, rows)
        if not valid(t):
            raise InsertionError(f"stage {k} left an invalid tableau")
    return t, tuple(map(tuple, labels))


def _undo_stages(q, r: SkewFilling, mu, offset: int):
    """Undo stages ell..1 of q; the cells of R labeled k, shifted right by
    offset columns, are the strip that stage k appended.  Only the labels
    R holds are visited; a label outside 1..ell undoes nothing."""
    ell = mu[0] if mu else 0
    strips: dict[int, list[tuple[int, int]]] = {}
    for rr, row in enumerate(r.rows):
        col = r.inner[rr] + offset
        for i, v in enumerate(row):
            strips.setdefault(v, []).append((rr, col + i))
    family = _family(q)
    rows = [list(row) for row in q.rows]
    for k in sorted(strips, reverse=True):
        if 0 < k <= ell:
            _unstage(rows, k, ell, strips[k], family)
    t = _with_rows(q, rows)
    if t.shape != mu:
        raise InsertionError("inverse did not return to the inner shape")
    return t


def psi(p: MultisetTableau):
    """Decompose a multiset tableau into (Q, R): a single-entry tableau of a
    larger shape and a restricted filling recording each stage's strip."""
    if not is_valid_mt(p):
        raise InsertionError("psi needs a valid multiset tableau")
    mu = p.shape
    t, labels = _run_stages(p, is_valid_mt)
    lam = t.shape
    rt = SkewFilling(lam, pad(mu, len(lam)), labels)
    if not is_valid_rt(rt):
        raise InsertionError("recorded strip entries do not form a restricted tableau")
    return t, rt


def psi_inverse(q: MultisetTableau, r: SkewFilling) -> MultisetTableau:
    """Rebuild the multiset tableau from (Q, R)."""
    if q.shape != r.outer:
        raise InsertionError("shapes of Q and R disagree")
    return _undo_stages(q, r, tuple(p for p in r.inner if p), 0)


def phi(p: ShiftedMultisetTableau):
    """Shifted analog of psi; the filling lives on the carrier `srt_shapes(lam, mu)`."""
    if not is_valid_smt(p):
        raise InsertionError("phi needs a valid shifted multiset tableau")
    mu = p.shape
    m = len(mu)
    # every stage must stay in the signed family, whatever p's own flag
    t, labels = _run_stages(p, _smt_structure_ok)
    lam = t.shape
    if len(lam) != m:
        raise InsertionError("the row count changed during phi")
    srt = SkewFilling(*srt_shapes(lam, mu), labels)
    if not is_valid_srt(srt, mu):
        raise InsertionError("recorded strip entries do not form a shifted restricted tableau")
    return t, srt


def phi_inverse(q: ShiftedMultisetTableau, r: SkewFilling) -> ShiftedMultisetTableau:
    """Rebuild the shifted multiset tableau from (Q, R)."""
    lam, mu = srt_lift(r)
    if q.shape != lam:
        raise InsertionError("shapes of Q and R disagree")
    return _undo_stages(q, r, mu, len(mu) - 1)
