from itertools import permutations, product

import pytest
from hypothesis import example, given, strategies as st

import grothlab.partitions as partitions
from grothlab.algebra import Polynomial
from grothlab.partitions import (
    SignedPair,
    TExtension,
    antisymmetrized_tops,
    conjugate,
    enumerate_extensions,
    hmult_lemma_split,
    hmult_lhs,
    hmult_rhs_good,
    is_good_extension,
    iota,
    is_partition,
    is_strict_partition,
    pad,
    staircase,
    subpartitions,
    verify_hmult_lemma,
)

partitions_st = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def ref_is_partition(parts) -> bool:
    """The earlier body: no negative part, weakly decreasing, no trailing zero."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return False
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return False
    return not parts or parts[-1] > 0


def ref_is_strict_partition(parts) -> bool:
    """The earlier body: every part positive, strictly decreasing."""
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    )


@given(
    st.lists(st.integers(-2, 6), max_size=6),
    st.sampled_from([tuple, list, lambda xs: (x for x in xs)]),
)
@example([], tuple)
@example([0], tuple)
@example([2, 1, 0], list)
@example([2, 2, 1], tuple)
@example([3, -1], tuple)
def test_partition_predicates_match_the_earlier_bodies(parts, container):
    # the one-pass predicates take any iterable of ints, one-shot generators too
    assert is_partition(container(parts)) == ref_is_partition(parts)
    assert is_strict_partition(container(parts)) == ref_is_strict_partition(parts)


def test_conjugate_examples():
    assert conjugate((4, 3, 3, 2)) == (4, 4, 3, 1)
    assert conjugate(()) == ()
    assert conjugate((7, 5, 4, 2)) == (4, 4, 3, 3, 2, 1, 1)


@given(partitions_st)
def test_conjugate_involution(mu):
    assert conjugate(conjugate(mu)) == mu


def test_staircase():
    assert staircase(4) == (3, 2, 1, 0)
    assert staircase(1) == (0,)
    assert staircase(0) == ()


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


def test_subpartitions():
    assert subpartitions((2, 1)) == sorted({(), (1,), (2,), (1, 1), (2, 1)})
    assert len(subpartitions((3, 2, 1))) == 14


def brute_force_extensions(mu, increments, columns):
    """Oracle: filter all bounded composition chains by the chain axioms."""
    mu = tuple(mu)
    n = len(mu)
    ell = len(increments)
    total = sum(increments)
    levels = [
        comp
        for comp in product(*(range(mu[k], mu[k] + total + 1) for k in range(n)))
    ]
    chains = [()]
    for _ in range(ell):
        chains = [c + (lvl,) for c in chains for lvl in levels]
    good = []
    for chain in chains:
        prev = mu
        ok = True
        for h in range(1, ell + 1):
            cur = chain[h - 1]
            t_h = increments[ell - h]
            c_h = columns[ell - h]
            if any(c < p for c, p in zip(cur, prev)):
                ok = False
                break
            if sum(cur) - sum(prev) != t_h:
                ok = False
                break
            if any(cur[k] != prev[k] for k in range(c_h, n)):
                ok = False
                break
            prev = cur
        if ok:
            good.append(chain)
    return sorted(good)


@pytest.mark.parametrize(
    "mu,increments,columns",
    [
        ((2, 1), (2,), (2,)),
        ((2, 1), (1, 1), (2, 1)),
        ((2, 1), (1, 1), (2, 2)),
        ((3, 1, 0), (2, 1), (3, 2)),
    ],
)
def test_enumerate_extensions_against_bruteforce(mu, increments, columns):
    got = [e.chain for e in enumerate_extensions(mu, increments, columns)]
    assert got == brute_force_extensions(mu, increments, columns)
    assert len(set(got)) == len(got)


def test_enumerate_extensions_trivial():
    exts = enumerate_extensions((2, 1), (0, 0), (2, 1))
    assert len(exts) == 1 and exts[0].chain == ((2, 1), (2, 1))
    exts = enumerate_extensions((1, 0), (1,), (1,))
    assert len(exts) == 1 and exts[0].top == (2, 0)


def test_enumerate_extensions_rejects_bad_columns():
    # the first two inputs also fail every later check, so the message names
    # the first check failed; TExtension.check gives the same messages
    cases = [
        ((1,), (3, 0, 5), "increment and column lists differ in length"),
        ((1, 1, 1), (3, 0, 5), r"columns must be weakly decreasing as \(c_ell\.\.c_1\)"),
        ((1, 1), (3, 3), "columns out of range"),
        ((1, 1), (1, 0), "columns out of range"),
    ]
    for increments, columns, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_extensions((2, 1), increments, columns)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TExtension((2, 1), (), increments, columns).check()


def test_good_extension_classification():
    trivial = enumerate_extensions((3, 1), (0,), (2,))[0]
    assert is_good_extension(trivial)
    # growth hitting the neighbor above is bad
    bad = TExtension((2, 1), ((2, 2),), (1,), (2,))
    bad.check()
    assert not is_good_extension(bad)
    for ext in enumerate_extensions((2, 1), (1, 1), (2, 1)):
        assert is_good_extension(ext)


def test_good_extensions_consist_of_partitions():
    for ext in enumerate_extensions((3, 1, 0), (2, 1), (3, 2)):
        if is_good_extension(ext):
            for h in range(ext.ell + 1):
                level = ext.level(h)
                assert level == tuple(sorted(level, reverse=True))


def _bad_pairs(mu, increments, columns, n):
    """All (sigma, extension) pairs with a bad extension, mu padded to n."""
    exts = enumerate_extensions(pad(mu, n), increments, columns)
    return [SignedPair(sigma, e) for e in exts if not is_good_extension(e) for sigma in permutations(range(n))]


IOTA_CENSUSES = [
    ((2, 1), (1, 1), (2, 1), 3),
    ((2, 1), (1, 1), (2, 2), 2),
    ((2, 1), (1, 1), (2, 2), 3),
    ((3, 1, 0), (2, 1), (3, 2), 3),
    ((2, 1, 0), (2,), (3,), 3),
]


@pytest.mark.parametrize("mu,increments,columns,n", IOTA_CENSUSES)
def test_iota_is_a_sign_reversing_involution(mu, increments, columns, n):
    pairs = _bad_pairs(mu, increments, columns, n)
    for pair in pairs:
        image = iota(pair)
        assert not is_good_extension(image.extension)
        assert image.sign == -pair.sign
        assert iota(image) == pair
        assert image.monomial() == pair.monomial()


def test_iota_rejects_good_extensions():
    good = enumerate_extensions((2, 1), (1,), (1,))[0]
    with pytest.raises(ValueError):
        iota(SignedPair((0, 1), good))


def test_iota_census_is_nonvacuous():
    assert _bad_pairs((2, 1), (1, 1), (2, 2), 2)


@pytest.mark.parametrize(
    "mu,increments,columns,n",
    [
        ((1, 0), (1,), (1,), 2),
        ((2, 1), (0, 0), (2, 1), 2),
        ((3, 1, 0), (2, 1), (3, 2), 3),
        ((2, 1), (1, 1), (2, 2), 2),
        ((2, 1, 0), (3,), (3,), 3),
        # two tops repeat among the good extensions, so the one
        # antisymmetrization of their sum must count each with multiplicity
        ((3, 1, 0), (2, 2), (3, 2), 3),
    ],
)
def test_hmult_lemma(mu, increments, columns, n):
    assert verify_hmult_lemma(mu, increments, columns, n)
    # the split holds every extension once, each on its side
    good, bad = hmult_lemma_split(mu, increments, columns, n)
    assert sorted(good + bad, key=lambda e: e.chain) == enumerate_extensions(pad(mu, n), increments, columns)
    assert all(map(is_good_extension, good)) and not any(map(is_good_extension, bad))


def test_hmult_lemma_split_is_none_when_the_routes_disagree(monkeypatch):
    monkeypatch.setattr(partitions, "hmult_lhs", lambda mu, increments, columns, n: Polynomial.zero(n))
    assert hmult_lemma_split((2, 1), (1, 1), (2, 2), 2) is None
    assert not verify_hmult_lemma((2, 1), (1, 1), (2, 2), 2)


def test_hmult_zero_increments_give_antisymmetrized_monomial():
    lhs = hmult_lhs((2, 1), (0, 0), (2, 1), 2)
    rhs = hmult_rhs_good((2, 1), (0, 0), (2, 1), 2)
    assert lhs == rhs
    exts = enumerate_extensions((2, 1), (0, 0), (2, 1))
    assert not antisymmetrized_tops([e for e in exts if not is_good_extension(e)], 2)


def test_hmult_requires_distinct_parts():
    with pytest.raises(ValueError):
        verify_hmult_lemma((1, 1), (1,), (1,), 2)


def test_bad_pair_monomial_matches_permutation_action():
    # x_{sigma(i)} carries the i-th top exponent
    ext = TExtension((2, 1), ((2, 2),), (1,), (2,))
    pair = SignedPair((1, 0), ext)
    assert pair.monomial().coefficient((2, 2)) == 1
    skew = TExtension((2, 1), ((3, 1),), (1,), (2,))
    pair = SignedPair((1, 0), skew)
    assert pair.monomial().coefficient((1, 3)) == 1
