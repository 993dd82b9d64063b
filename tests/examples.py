"""Worked tableaux the tests share.

`example_mt` and `example_smt` are a straight and a shifted multiset
tableau; the two insertion chains are full worked runs of the out map at
stage k=2 with ambient width ell=3.
"""

from grothlab.tableaux import Entry, MultisetTableau, ShiftedMultisetTableau


def _box(*tokens: str) -> tuple[Entry, ...]:
    return tuple(sorted((Entry.parse(t) for t in tokens), key=Entry.sort_key))


def example_mt() -> MultisetTableau:
    """Straight multiset tableau of shape (3,3,2), weight (3,2,5,4,1)."""
    return MultisetTableau((
        ((1, 1), (1, 2), (3, 3, 3)),
        ((2,), (3,), (4, 4, 5)),
        ((3, 4), (4,)),
    ))


def example_smt() -> ShiftedMultisetTableau:
    """Shifted multiset tableau of shape (5,4,2), weight (4,2,2,5,5,1,3)."""
    return ShiftedMultisetTableau((
        (_box("1"), _box("1", "1", "1", "3"), _box("3"), _box("4'", "4", "5"), _box("7'", "7")),
        (_box("2", "2"), _box("4'", "4"), _box("5'", "6'"), _box("7'")),
        (_box("4", "5'"), _box("5", "5")),
    ), signed=False)


def out_chain_straight() -> list[MultisetTableau]:
    """Worked out-chain at stage k=2, ambient ell=3 (three steps)."""
    return [
        MultisetTableau((((1,), (1, 2), (2,), (2,)), ((2,), (2, 3, 3), (4,)), ((3, 4), (4,)))),
        MultisetTableau((((1,), (1, 2), (2,), (2,)), ((2,), (2, 3), (3,), (4,)), ((3, 4), (4,)))),
        MultisetTableau((((1,), (1, 2), (2,), (2,), (4,)), ((2,), (2,), (3,), (3,)), ((3, 4), (4,)))),
        MultisetTableau((((1,), (1,), (2,), (2,), (2,), (4,)), ((2,), (2,), (3,), (3,)), ((3, 4), (4,)))),
    ]


def out_chain_shifted() -> list[ShiftedMultisetTableau]:
    """Worked shifted out-chain at stage k=2, ambient ell=3 (four steps)."""
    return [
        ShiftedMultisetTableau((
            (_box("1", "1"), _box("2'", "2"), _box("2"), _box("2"), _box("4"), _box("5'")),
            (_box("2"), _box("3'", "3"), _box("4'"), _box("5'")),
            (_box("3", "4'"), _box("4", "5'", "5")),
        ), signed=False),
        ShiftedMultisetTableau((
            (_box("1", "1"), _box("2'", "2"), _box("2"), _box("2"), _box("4"), _box("5'")),
            (_box("2"), _box("3'", "3"), _box("4'"), _box("5'")),
            (_box("3", "4'"), _box("4", "5'"), _box("5")),
        ), signed=False),
        ShiftedMultisetTableau((
            (_box("1", "1"), _box("2'", "2"), _box("2"), _box("2"), _box("4"), _box("5'")),
            (_box("2"), _box("3'", "3"), _box("4'"), _box("5'"), _box("5")),
            (_box("3", "4'"), _box("4"), _box("5'")),
        ), signed=False),
        ShiftedMultisetTableau((
            (_box("1", "1"), _box("2'", "2"), _box("2"), _box("2"), _box("4'"), _box("4"), _box("5'")),
            (_box("2"), _box("3'"), _box("3"), _box("5'"), _box("5")),
            (_box("3", "4'"), _box("4"), _box("5'")),
        ), signed=False),
        ShiftedMultisetTableau((
            (_box("1", "1"), _box("2'"), _box("2"), _box("2"), _box("2"), _box("4'"), _box("4"), _box("5'")),
            (_box("2"), _box("3'"), _box("3"), _box("5'"), _box("5")),
            (_box("3", "4'"), _box("4"), _box("5'")),
        ), signed=False),
    ]
