"""Case lists of the three workloads, built from the seed.

A compute case is the argv of one `grothlab compute` call.  A compute pass
holds every case of its workload's grid once, so the work in a pass does not
depend on the seed; the seed sets the order of each pass.

A bijection case is one tableau, built directly from random box sizes and
entries and kept only when the library's validity test accepts it.  The
tableaux are never taken from the `enumerate_*` functions, so a change to
enumeration order cannot change the inputs.  The sample is stratified:
every (family, shape, number of extra entries) stratum gets the same number
of tableaux, so the seed changes entries but not the mix of sizes.
"""

from __future__ import annotations

import random

# mu ranges over the nonempty subpartitions of (3,2,1).
SUBPARTITIONS = (
    (1,), (2,), (3,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
    (1, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1),
)
STRICT = tuple(mu for mu in SUBPARTITIONS if all(a > b for a, b in zip(mu, mu[1:])))

# (n, tcap, largest |mu|) of each compute workload.  The n=5 and tcap=3
# rows stop at a size of mu: beyond it one case costs up to seconds and would
# dominate a pass.
COMPUTE_GRIDS = {
    "algebraic": ((4, 1, 6), (4, 2, 6), (5, 1, 3), (5, 2, 2)),
    "combinatorial": ((4, 2, 6), (3, 3, 6), (5, 1, 6), (4, 3, 3), (5, 2, 2)),
}

# (family, shape, max value, max extra entries) of the bijection strata.
BIJECTION_SHAPES = (
    ("MT", (3, 2, 1), 5, 3),
    ("MT", (4, 2, 1), 5, 3),
    ("MT", (4, 3, 1), 5, 3),
    ("SMT", (3, 2, 1), 4, 2),
    ("SMT", (4, 2, 1), 4, 2),
    ("SMT+-", (3, 2, 1), 4, 2),
    ("SMT+-", (4, 2, 1), 4, 2),
)
PER_STRATUM = 12


def compute_grid(workload: str) -> list[list[str]]:
    """Every argv of a compute workload, in a fixed order."""
    out = []
    for family, mus in (("J", SUBPARTITIONS), ("P", STRICT)):
        for mu in mus:
            for n, tcap, largest in COMPUTE_GRIDS[workload]:
                if sum(mu) <= largest:
                    out.append([
                        "compute", family, ",".join(map(str, mu)), "--n", str(n),
                        "--tcap", str(tcap), "--route", workload,
                    ])
    return out


def _random_rows(sizes, draw, first=None):
    """Rows of boxes: each row's entries drawn, sorted, and cut into boxes.

    `first`, when given, replaces the smallest entry of each row.
    """
    rows = []
    for row_sizes in sizes:
        entries = sorted(draw() for _ in range(sum(row_sizes)))
        if first is not None:
            entries = sorted([first(entries[0])] + entries[1:])
        boxes, start = [], 0
        for size in row_sizes:
            boxes.append(tuple(entries[start:start + size]))
            start += size
        rows.append(tuple(boxes))
    return tuple(rows)


def _random_sizes(rng, shape, extras):
    sizes = [[1] * width for width in shape]
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    for _ in range(extras):
        r, c = rng.choice(cells)
        sizes[r][c] += 1
    return sizes


def bijection_cases(seed: int, tableaux) -> list:
    """Seeded, stratified sample of valid tableaux as (family, tableau) pairs.

    `tableaux` is the library's `grothlab.tableaux` module; only its
    tableau classes and validity tests are used.
    """
    rng = random.Random(f"bijections:{seed}")
    # An unsigned shifted row starts with an unprimed entry; drawing it so
    # keeps rejection cheap.
    unprime = lambda e: tableaux.Entry(e.value)  # noqa: E731
    out = []
    for family, shape, max_value, max_extra in BIJECTION_SHAPES:
        shifted = family != "MT"
        if shifted:
            alphabet = [
                tableaux.Entry(v, primed)
                for v in range(1, max_value + 1)
                for primed in (True, False)
            ]
            draw = lambda: rng.choice(alphabet)  # noqa: E731
        else:
            draw = lambda: rng.randint(1, max_value)  # noqa: E731
        for extras in range(max_extra + 1):
            kept = 0
            while kept < PER_STRATUM:
                sizes = _random_sizes(rng, shape, extras)
                rows = _random_rows(sizes, draw, unprime if family == "SMT" else None)
                if shifted:
                    t = tableaux.ShiftedMultisetTableau(rows, signed=family == "SMT+-")
                    ok = tableaux.is_valid_smt(t)
                else:
                    t = tableaux.MultisetTableau(rows)
                    ok = tableaux.is_valid_mt(t)
                if ok:
                    out.append((family, t))
                    kept += 1
    return out
