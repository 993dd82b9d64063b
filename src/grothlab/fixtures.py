"""The paper's worked tableaux, which `verify` checks.

Each maximal tableau corresponds to its restricted tableau under the
maximal-to-restricted bijection: `paper_maximal_mt` to `paper_rt`, and
`paper_maximal_smt` to `paper_srt`.
"""

from __future__ import annotations

from .tableaux import Entry, MultisetTableau, ShiftedMultisetTableau, SkewFilling


def _box(*tokens: str) -> tuple[Entry, ...]:
    return tuple(sorted((Entry.parse(t) for t in tokens), key=Entry.sort_key))


def paper_maximal_mt() -> MultisetTableau:
    """Maximal multiset tableau of shape (4,3,3,2), weight (7,6,5,4)."""
    return MultisetTableau((
        ((1,), (1, 1), (1, 1), (1, 1)),
        ((2, 2), (2,), (2, 2, 2)),
        ((3,), (3, 3, 3), (3,)),
        ((4, 4), (4, 4)),
    ))


def paper_rt() -> SkewFilling:
    """Restricted tableau of shape (7,6,5,4)/(4,3,3,2), weight (1,3,4,2)."""
    return SkewFilling(
        (7, 6, 5, 4),
        (4, 3, 3, 2),
        ((1, 2, 3), (2, 2, 4), (3, 3), (3, 4)),
    )


def paper_maximal_smt() -> ShiftedMultisetTableau:
    """Maximal shifted multiset tableau of shape (7,5,4,2), weight (10,8,6,4)."""
    return ShiftedMultisetTableau((
        (_box("1"), _box("1"), _box("1", "1"), _box("1"), _box("1", "1"), _box("1", "1"), _box("1")),
        (_box("2"), _box("2", "2"), _box("2"), _box("2"), _box("2", "2", "2")),
        (_box("3", "3"), _box("3"), _box("3"), _box("3", "3")),
        (_box("4", "4"), _box("4", "4")),
    ), signed=False)


def paper_srt() -> SkewFilling:
    """Shifted restricted tableau on the carrier (7,6,5,4)/(4,3,3,2)."""
    return SkewFilling(
        (7, 6, 5, 4),
        (4, 3, 3, 2),
        ((2, 3, 5), (3, 3, 6), (4, 7), (6, 7)),
    )
