from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from grothlab.partitions import (
    SignedPair,
    TExtension,
    antisymmetrized_tops,
    conjugate,
    enumerate_extensions,
    hmult_lhs,
    hmult_rhs_good,
    is_good_extension,
    iota,
    pad,
    staircase,
    subpartitions,
    verify_hmult_lemma,
)

partitions_st = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


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
    with pytest.raises(ValueError):
        enumerate_extensions((2, 1), (1, 1), (1, 2))


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
