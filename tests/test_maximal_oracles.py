"""The maximal row walk against the generate-and-filter path it replaced.

The reference oracles below are the earlier bodies of
`_enumerate_size_matrices`, `_partial_sums_ok`, `_box_size`, the
`is_maximal_*` tests built on them, the `_enumerate_maximal` filter and
`expansion_via_maximal`: every box-size matrix of the shape is built into a
tableau, and the tableaux that pass the full validity test and the
partial-sum bound are kept and read through `weight()` and
`column_weight()`/`diagonal_weight()`.  The restricted-tableau floor is held
to the `column_heights` form it replaced.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from grothlab.algebra import Polynomial
from grothlab.partitions import column_heights, is_partition, subpartitions
from grothlab.polynomials import BasisExpansion, ExpansionError, FamilySpec, expansion_via_maximal
from grothlab.tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    _restricted_ok,
    enumerate_maximal_mt,
    enumerate_maximal_smt,
    is_maximal_mt,
    is_maximal_smt,
    is_valid_mt,
    is_valid_smt,
)

# ---------------------------------------------------------------------------
# reference oracles


def ref_size_matrices(shape, extra_cap):
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    sizes = [[1] * width for width in shape]
    out = []

    def backtrack(idx, budget):
        if idx == len(cells):
            out.append([list(row) for row in sizes])
            return
        r, c = cells[idx]
        for s in range(1, budget + 2):
            sizes[r][c] = s
            backtrack(idx + 1, budget - (s - 1))
        sizes[r][c] = 1

    backtrack(0, extra_cap)
    return out


def ref_partial_sums_ok(size, nrows, ell, bound):
    for i in range(1, nrows):
        running = 0
        for k in range(1, ell + 1):
            running += size(i + 1, k) - size(i, k - 1)
            if running > bound:
                return False
    return True


def ref_box_size(t):
    ell = t.ell

    def size(i, j):
        r, c = i - 1, ell - j
        if j < 1 or r < 0 or r >= len(t.rows) or c >= len(t.rows[r]):
            return 0
        return len(t.rows[r][c])

    return size


def ref_is_maximal_mt(t):
    if not is_valid_mt(t):
        return False
    for r, row in enumerate(t.rows):
        for box in row:
            if any(v != r + 1 for v in box):
                return False
    return ref_partial_sums_ok(ref_box_size(t), len(t.rows), t.ell, 1)


def ref_is_maximal_smt(t):
    if t.signed or not is_valid_smt(t):
        return False
    for r, row in enumerate(t.rows):
        for box in row:
            if any(e.value != r + 1 or e.primed for e in box):
                return False
    return ref_partial_sums_ok(ref_box_size(t), len(t.rows), t.ell, 0)


def ref_candidates(shape, extra_cap, entry, make):
    """The tableau of every size matrix: row-i boxes hold only entry(i)."""
    return [
        make(tuple(tuple((entry(r + 1),) * s for s in row) for r, row in enumerate(sizes)))
        for sizes in ref_size_matrices(shape, extra_cap)
    ]


def ref_maximal_mt(shape, extra_cap):
    return [t for t in ref_candidates(shape, extra_cap, int, MultisetTableau) if ref_is_maximal_mt(t)]


def ref_maximal_smt(shape, extra_cap):
    return [
        t for t in ref_candidates(shape, extra_cap, Entry, ShiftedMultisetTableau)
        if ref_is_maximal_smt(t)
    ]


def ref_expansion_via_maximal(spec):
    n, ell = spec.n, spec.ell
    if spec.family == "J":
        stats = [(t.weight(), t.column_weight()) for t in ref_maximal_mt(spec.mu, spec.t_cap)]
        basis = "schur"
    else:
        stats = [(t.weight(), t.diagonal_weight()) for t in ref_maximal_smt(spec.mu, spec.t_cap)]
        basis = "pschur"
    if spec.vanishes():
        return BasisExpansion.from_dict(basis, n, ell, {})
    x_cap = spec.effective_x_cap()
    grouped = {}
    for wt, cw in stats:
        if sum(wt) > x_cap:
            continue
        if not is_partition(wt):
            raise ExpansionError(f"maximal tableau weight {wt} is not a partition")
        grouped.setdefault(wt, []).append((((), cw), 1))
    return BasisExpansion.from_dict(basis, n, ell, {
        lam: Polynomial.from_terms(0, ell, pairs) for lam, pairs in grouped.items()
    })


# ---------------------------------------------------------------------------
# the walk against the oracles


@st.composite
def _shapes(draw, strict: bool, max_cells: int = 10):
    """A partition (strict when asked) of at most max_cells cells."""
    shape: list[int] = []
    while True:
        room = max_cells - sum(shape)
        if shape:
            room = min(room, shape[-1] - strict)
        part = draw(st.integers(0, max(room, 0)))
        if not part:
            return tuple(shape)
        shape.append(part)


@st.composite
def _specs(draw, family: str):
    mu = draw(_shapes(strict=family == "P"))
    n = draw(st.integers(1, len(mu) + 2))  # below len(mu) the family vanishes
    x_cap = draw(st.none() | st.integers(0, sum(mu) + 4))
    return FamilySpec(family, mu, n, t_cap=draw(st.integers(0, 4)), x_cap=x_cap)


@settings(max_examples=150, deadline=None)
@given(_shapes(strict=False), st.integers(0, 4))
@example((4, 3, 2, 1), 4)
@example((1,) * 10, 4)
@example((10,), 4)
@example((), 3)
def test_enumerate_maximal_mt_is_the_filtered_census_in_order(shape, extra_cap):
    assert enumerate_maximal_mt(shape, extra_cap) == ref_maximal_mt(shape, extra_cap)


@settings(max_examples=150, deadline=None)
@given(_shapes(strict=True), st.integers(0, 4))
@example((4, 3, 2, 1), 4)
@example((10,), 4)
@example((), 3)
def test_enumerate_maximal_smt_is_the_filtered_census_in_order(shape, extra_cap):
    assert enumerate_maximal_smt(shape, extra_cap) == ref_maximal_smt(shape, extra_cap)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from("JP").flatmap(_specs))
@example(FamilySpec("J", (4, 3, 2, 1), 4, t_cap=4))
@example(FamilySpec("P", (4, 3, 2, 1), 4, t_cap=4))
@example(FamilySpec("J", (3, 2, 1), 2, t_cap=2))  # vanishes
@example(FamilySpec("P", (4, 2, 1), 3, t_cap=3, x_cap=8))
def test_expansion_via_maximal_is_the_oracle_read_of_the_tableaux(spec):
    assert expansion_via_maximal(spec) == ref_expansion_via_maximal(spec)


@pytest.mark.parametrize("shifted", [False, True], ids=["straight", "shifted"])
def test_validity_is_implied_for_every_size_matrix(shifted):
    # row i of a candidate holds only the unprimed value i, so every size
    # matrix is a valid tableau and only the partial-sum bound decides
    # maximality; the merged is_maximal body agrees with the oracle on each
    shapes = [mu for mu in subpartitions((4, 3, 2, 1)) if not shifted or len(set(mu)) == len(mu)]
    entry, make = (Entry, ShiftedMultisetTableau) if shifted else (int, MultisetTableau)
    valid, is_maximal = (is_valid_smt, is_maximal_smt) if shifted else (is_valid_mt, is_maximal_mt)
    ref_is_maximal = ref_is_maximal_smt if shifted else ref_is_maximal_mt
    seen = kept = 0
    for mu in shapes:
        for cap in range(4):
            for t in ref_candidates(mu, cap, entry, make):
                assert valid(t), t
                kept += is_maximal(t)
                assert is_maximal(t) == ref_is_maximal(t), t
                seen += 1
    assert seen > kept > 0


def test_restricted_floor_is_the_column_height_test():
    # row r (0-based) admits v exactly when ell + 1 - mu[r] <= v <= ell, with
    # mu[r] = 0 past the end of mu; the earlier test read column_heights
    triples = 0
    for mu in subpartitions((6, 5, 4, 3, 2, 1)):
        ell = mu[0] if mu else 0
        heights = column_heights(mu)
        for r in range(len(mu) + 2):
            for v in range(ell + 3):
                old = 1 <= v <= ell and r + 1 <= heights[v]
                f = SkewFilling((), (), ((),) * r + ((v,),))
                assert _restricted_ok(f, mu) == old, (mu, r, v)
                triples += 1
    assert triples > 20000
