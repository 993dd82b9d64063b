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
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import pad, staircase
from .tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    is_valid_mt,
    is_valid_rt,
    is_valid_smt,
    is_valid_srt,
    lt_p,
    lt_u,
    gt_u,
)

__all__ = [
    "InsertionError",
    "PrimedDuplicationError",
    "OutTrace",
    "InTrace",
    "CircledState",
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


# ---------------------------------------------------------------------------
# single-column steps


def column_insert(a: int, cells: tuple[int, ...]):
    """Replace the topmost entry >= a by a and bump it; else append at bottom.

    Returns (new_cells, bumped) with bumped None when a was appended.
    """
    for i, entry in enumerate(cells):
        if a <= entry:
            return cells[:i] + (a,) + cells[i + 1 :], entry
    return cells + (a,), None


def column_reverse_insert(cells: tuple[int, ...], z: int):
    """Replace the bottommost entry <= z by z and bump it.

    Requires some entry of the column to be <= z.
    """
    for i in range(len(cells) - 1, -1, -1):
        if z >= cells[i]:
            return cells[i], cells[:i] + (z,) + cells[i + 1 :]
    raise InsertionError(f"reverse insertion of {z} undefined: no entry <= {z}")


def shifted_column_insert(a: Entry, cells: tuple[Entry, ...]):
    """Replace the topmost entry with a <_u entry and bump it; else append."""
    for i, entry in enumerate(cells):
        if lt_u(a, entry):
            return cells[:i] + (a,) + cells[i + 1 :], entry
    return cells + (a,), None


def shifted_column_reverse_insert(cells: tuple[Entry, ...], z: Entry):
    """Replace the bottommost entry with z >_u entry by z and bump it."""
    for i in range(len(cells) - 1, -1, -1):
        if gt_u(z, cells[i]):
            return cells[i], cells[:i] + (z,) + cells[i + 1 :]
    raise InsertionError(f"reverse insertion of {z} undefined in {cells}")


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


@dataclass(frozen=True)
class CircledState:
    """A tableau mid-stage: the active column/diagonal k and its circled minima."""

    tableau: object
    stage: int
    ell: int

    def circled(self) -> dict[tuple[int, int], object]:
        t = self.tableau
        shifted = isinstance(t, ShiftedMultisetTableau)
        idx = self.ell - self.stage
        out = {}
        for r, row in enumerate(t.rows):
            if idx < len(row):
                col = r + idx if shifted else idx
                out[(r, col)] = min(row[idx])
        return out

    def out_step(self):
        t, trace = out_step(self.tableau, self.stage, self.ell)
        return CircledState(t, self.stage, self.ell), trace

    def in_step(self, cell):
        t, trace = in_step(self.tableau, self.stage, self.ell, cell)
        return CircledState(t, self.stage, self.ell), trace


# ---------------------------------------------------------------------------
# unshifted out / in


def _rows_as_lists(t) -> list[list[tuple]]:
    return [list(row) for row in t.rows]


def _largest_noncircled(boxes):
    """(value, row) of the largest noncircled entry, bottommost box on ties."""
    best = None
    for r, box in boxes:
        extras = list(box)
        extras.remove(min(box))
        for v in extras:
            if best is None or v > best[0] or (v == best[0] and r >= best[1]):
                best = (v, r)
    return best


def out_step(t, k: int, ell: int):
    """One out move at stage k; returns (tableau, OutTrace)."""
    if isinstance(t, ShiftedMultisetTableau):
        return _out_step_shifted(t, k, ell)
    return _out_step_mt(t, k, ell)


def in_step(t, k: int, ell: int, cell):
    """One in move at stage k undoing an out; cell is the corner consumed."""
    if isinstance(t, ShiftedMultisetTableau):
        return _in_step_shifted(t, k, ell, cell)
    return _in_step_mt(t, k, ell, cell)


def _out_step_mt(t: MultisetTableau, k: int, ell: int):
    rows = _rows_as_lists(t)
    col_k = ell - k
    boxes = [(r, rows[r][col_k]) for r in range(len(rows)) if col_k < len(rows[r])]
    if not boxes:
        raise InsertionError(f"column {k} is empty")
    pick = _largest_noncircled(boxes)
    if pick is None:
        raise InsertionError(f"no noncircled entry remains in column {k}")
    v, r0 = pick
    box = list(rows[r0][col_k])
    box.remove(v)
    rows[r0][col_k] = tuple(box)

    a, c = v, col_k + 1
    path = []
    while True:
        height = sum(1 for row in rows if c < len(row))
        cells = tuple(rows[r][c][0] for r in range(height))
        new_cells, bumped = column_insert(a, cells)
        if bumped is None:
            if height < len(rows):
                if len(rows[height]) != c:
                    raise InsertionError("append does not extend a row")
                rows[height].append((a,))
            else:
                if c != 0:
                    raise InsertionError("append cannot start a new row here")
                rows.append([(a,)])
            appended_cell, appended = (height, c), a
            break
        rset = next(i for i in range(height) if a <= cells[i])
        path.append((rset, c, cells[rset], a))
        rows[rset][c] = (a,)
        a, c = bumped, c + 1
    new_t = MultisetTableau(tuple(tuple(row) for row in rows))
    return new_t, OutTrace(v, (r0, col_k), tuple(path), appended_cell, appended)


def _in_step_mt(t: MultisetTableau, k: int, ell: int, cell):
    rows = _rows_as_lists(t)
    col_k = ell - k
    r, c = cell
    if c <= col_k:
        raise InsertionError(f"{cell} is not strictly right of column {k}")
    if r >= len(rows) or c != len(rows[r]) - 1:
        raise InsertionError(f"{cell} is not the last box of its row")
    if r + 1 < len(rows) and len(rows[r + 1]) > c:
        raise InsertionError(f"{cell} is not a removable corner")
    if len(rows[r][c]) != 1:
        raise InsertionError(f"corner box at {cell} must hold a single entry")
    removed = rows[r][c][0]
    rows[r].pop()
    if not rows[r]:
        rows.pop()

    z = removed
    path = []
    for col in range(c - 1, col_k, -1):
        height = sum(1 for row in rows if col < len(row))
        cells = tuple(rows[rr][col][0] for rr in range(height))
        bumped, _ = column_reverse_insert(cells, z)
        rset = max(i for i in range(height) if z >= cells[i])
        path.append((rset, col, cells[rset], z))
        rows[rset][col] = (z,)
        z = bumped

    # deposit into the lowest box whose circled minimum admits z: the box
    # minima increase strictly down the column, so this is the unique box
    # whose min m satisfies m <= z < (min of the box below)
    boxes = [(rr, rows[rr][col_k]) for rr in range(len(rows)) if col_k < len(rows[rr])]
    target = None
    for rr, box in boxes:
        if min(box) <= z:
            target = rr
    if target is None:
        raise InsertionError(f"no admissible box in column {k} for {z}")
    rows[target][col_k] = tuple(sorted(rows[target][col_k] + (z,)))
    new_t = MultisetTableau(tuple(tuple(row) for row in rows))
    return new_t, InTrace((r, c), removed, tuple(path), (target, col_k), z)


# ---------------------------------------------------------------------------
# shifted out / in


def _diag_cells(rows, idx: int):
    """Rows whose within-row index idx exists (the diagonal labeled ell-idx)."""
    return [r for r in range(len(rows)) if idx < len(rows[r])]


def _column_cells(rows, col: int):
    """Rows holding a cell in absolute column col (top to bottom)."""
    return [r for r in range(len(rows)) if 0 <= col - r < len(rows[r])]


def _out_step_shifted(t: ShiftedMultisetTableau, k: int, ell: int):
    rows = _rows_as_lists(t)
    idx = ell - k
    boxes = [(r, rows[r][idx]) for r in _diag_cells(rows, idx)]
    if not boxes:
        raise InsertionError(f"diagonal {k} is empty")
    pick = _largest_noncircled(boxes)
    if pick is None:
        raise InsertionError(f"no noncircled entry remains on diagonal {k}")
    v, r0 = pick
    box = list(rows[r0][idx])
    box.remove(v)
    rows[r0][idx] = tuple(box)

    a, col = v, r0 + idx + 1
    path = []
    while True:
        cell_rows = _column_cells(rows, col)
        rstar = col - idx
        has_circle = rstar in cell_rows
        scope = [r for r in cell_rows if r < rstar] if has_circle else cell_rows
        cells = tuple(rows[r][col - r][0] for r in scope)
        new_cells, bumped = shifted_column_insert(a, cells)
        if bumped is None:
            if has_circle:
                raise InsertionError("append blocked by the circled cell")
            if cell_rows:
                rnew = cell_rows[-1] + 1
            else:
                candidates = [r for r in range(len(rows)) if r + len(rows[r]) == col]
                if not candidates:
                    raise InsertionError("append does not extend a row")
                rnew = candidates[0]
            if rnew < len(rows):
                if rnew + len(rows[rnew]) != col:
                    raise InsertionError("append does not extend a row")
                rows[rnew].append((a,))
            else:
                if col != rnew:
                    raise InsertionError("append cannot start a new row here")
                rows.append([(a,)])
            appended_cell, appended = (rnew, col), a
            break
        i = next(i for i, r in enumerate(scope) if lt_u(a, cells[i]))
        rset = scope[i]
        path.append((rset, col, cells[i], a))
        rows[rset][col - rset] = (a,)
        a, col = bumped, col + 1
    new_t = ShiftedMultisetTableau(tuple(tuple(row) for row in rows), signed=t.signed)
    return new_t, OutTrace(v, (r0, r0 + idx), tuple(path), appended_cell, appended)


def _in_step_shifted(t: ShiftedMultisetTableau, k: int, ell: int, cell):
    rows = _rows_as_lists(t)
    idx = ell - k
    r, col = cell
    c = col - r
    if r >= len(rows) or c != len(rows[r]) - 1:
        raise InsertionError(f"{cell} is not the last box of its row")
    if r + 1 < len(rows) and col - (r + 1) < len(rows[r + 1]):
        raise InsertionError(f"{cell} is not a removable corner")
    if len(rows[r][c]) != 1:
        raise InsertionError(f"corner box at {cell} must hold a single entry")
    removed = rows[r][c][0]
    rows[r].pop()
    if not rows[r]:
        rows.pop()

    z = removed
    path = []
    col -= 1
    while True:
        cell_rows = _column_cells(rows, col)
        rstar = col - idx
        has_circle = rstar in cell_rows
        if has_circle:
            circled = min(rows[rstar][idx])
            if not lt_p(z, circled):
                box = rows[rstar][idx]
                if z.primed and z in box:
                    raise PrimedDuplicationError(
                        f"deposit of {z} duplicates a primed entry at {(rstar, col)}"
                    )
                rows[rstar][idx] = tuple(sorted(box + (z,), key=Entry.sort_key))
                deposit_cell = (rstar, col)
                break
            scope = [rr for rr in cell_rows if rr < rstar]
        else:
            scope = cell_rows
        cells = tuple(rows[rr][col - rr][0] for rr in scope)
        bumped, _ = shifted_column_reverse_insert(cells, z)
        i = max(i for i in range(len(scope)) if gt_u(z, cells[i]))
        rset = scope[i]
        path.append((rset, col, cells[i], z))
        rows[rset][col - rset] = (z,)
        z = bumped
        col -= 1
    new_t = ShiftedMultisetTableau(tuple(tuple(row) for row in rows), signed=t.signed)
    return new_t, InTrace(cell, removed, tuple(path), deposit_cell, z)


# ---------------------------------------------------------------------------
# stage maps and the full bijections


def _stage_done(t, idx: int) -> bool:
    return all(len(row[idx]) == 1 for row in t.rows if idx < len(row))


def psi_k(t, k: int, ell: int):
    """Apply out at stage k until the active column/diagonal holds single
    entries; returns (tableau, traces)."""
    idx = ell - k
    traces = []
    while not _stage_done(t, idx):
        t, trace = out_step(t, k, ell)
        traces.append(trace)
    return t, traces


def psi_k_inverse(t, k: int, ell: int, cells):
    """Undo stage k by consuming the given strip cells, rightmost first."""
    for cell in sorted(cells, key=lambda rc: -rc[1]):
        t, _ = in_step(t, k, ell, cell)
    return t


def _run_stages(p, valid):
    """Run psi_k for k = 1..ell on p; returns (Q, marks), where marks maps
    each appended cell to the stage k that appended it."""
    ell = p.ell
    t = p
    marks: dict[tuple[int, int], int] = {}
    for k in range(1, ell + 1):
        t, traces = psi_k(t, k, ell)
        cols = [tr.appended_cell[1] for tr in traces]
        if any(c2 <= c1 for c1, c2 in zip(cols, cols[1:])):
            raise InsertionError("appended boxes must move strictly right")
        for tr in traces:
            marks[tr.appended_cell] = k
        if not valid(t):
            raise InsertionError(f"stage {k} left an invalid tableau")
    return t, marks


def _undo_stages(q, r: SkewFilling, mu, offset: int):
    """Undo stages ell..1 of q; the cells of R labeled k, shifted right by
    offset columns, are the strip that stage k appended."""
    ell = mu[0] if mu else 0
    t = q
    for k in range(ell, 0, -1):
        cells = [
            (rr, r.inner[rr] + i + offset)
            for rr, row in enumerate(r.rows)
            for i, v in enumerate(row)
            if v == k
        ]
        t = psi_k_inverse(t, k, ell, cells)
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
    t, marks = _run_stages(
        p, lambda t: is_valid_smt(ShiftedMultisetTableau(t.rows, signed=True))
    )
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
