from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from grothlab.algebra import (
    MAX_VARIABLES,
    ExactDivisionError,
    MonomialCode,
    Polynomial,
    TruncatedSeries,
    _order_key,
    antisymmetrize,
    apply_permutation,
    coset_permutations,
    coset_sum,
    divide_exact,
    h_polynomial,
    kostka_columns,
    perm_sign,
    vandermonde,
    x_var,
)
from grothlab.partitions import pad, staircase, subpartitions
from grothlab.tableaux import enumerate_ssyt
from tuple_series import bialternant_quotient, cut, encoded_series, geometric_factor, straightened, times


def mono_st(nx=2, nt=1, max_exp=3):
    return st.tuples(
        st.tuples(*([st.integers(0, max_exp)] * nx)),
        st.tuples(*([st.integers(0, 1)] * nt)),
    )


def poly_st(nx=2, nt=1, max_exp=3, max_terms=4):
    term = st.tuples(mono_st(nx, nt, max_exp), st.integers(-3, 3))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial(nx, nt, {m: c for m, c in ts})
    )


def test_add_neg_cancel():
    x1, x2 = x_var(0, 2), x_var(1, 2)
    p = x1 * x1 + 2 * x2
    assert not (p + (-p))
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_block_mismatch_raises():
    with pytest.raises(ValueError):
        x_var(0, 2) + x_var(0, 3)


@settings(max_examples=60)
@given(poly_st(), poly_st(), poly_st())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(st.lists(st.tuples(mono_st(max_exp=2), st.integers(-3, 3)), max_size=8), st.integers(0, 8))
def test_from_terms_matches_fold_of_monomials(pairs, k):
    # the negated copies of the first k pairs cancel them to zero
    pairs = pairs + [(mono, -c) for mono, c in pairs[:k]]
    fold = sum((Polynomial.monomial(*mono) * c for mono, c in pairs), Polynomial.zero(2, 1))
    got = Polynomial.from_terms(2, 1, pairs)
    assert got == fold
    assert 0 not in got.terms.values()


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def ref_perm_sign(sigma) -> int:
    """The parity of the pairs i < j with sigma[i] > sigma[j], counted by a
    double loop."""
    inv = 0
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                inv += 1
    return -1 if inv % 2 else 1


def test_perm_sign_is_the_inversion_parity_of_every_permutation_up_to_6():
    for n in range(7):
        for sigma in permutations(range(n)):
            assert perm_sign(sigma) == ref_perm_sign(sigma), sigma


@given(st.lists(st.integers(-3, 3), max_size=9))
def test_perm_sign_reads_ties_and_negative_entries_as_the_double_loop(seq):
    # straighten passes negated exponents, which may repeat
    assert perm_sign(seq) == perm_sign(tuple(seq)) == ref_perm_sign(seq)


def test_apply_permutation():
    p = Polynomial.monomial((2, 1), ())
    assert apply_permutation(p, (0, 1)) == p
    assert apply_permutation(p, (1, 0)) == Polynomial.monomial((1, 2), ())


@settings(max_examples=40)
@given(poly_st(nx=3, nt=0))
def test_apply_permutation_composes(p):
    sigma, tau = (1, 2, 0), (0, 2, 1)
    composed = tuple(sigma[tau[i]] for i in range(3))
    assert apply_permutation(apply_permutation(p, tau), sigma) == apply_permutation(
        p, composed
    )


def test_is_symmetric_x():
    x1, x2, x3 = (x_var(i, 3, 1) for i in range(3))
    t = Polynomial.monomial((0, 0, 0), (1,))
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    assert (e2 * t + x1 + x2 + x3).is_symmetric_x()
    # x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x3^2 lacks x2^2*x3 and x2*x3^2
    missing = x1 * x1 * x2 + x1 * x2 * x2 + x1 * x1 * x3 + x1 * x3 * x3
    assert not missing.is_symmetric_x()
    assert not (x1 * t + x2 * t + x3 * t + x3).is_symmetric_x()
    assert Polynomial.monomial((3,), (1,)).is_symmetric_x()
    assert Polynomial.constant(5, 0, 1).is_symmetric_x()


@settings(max_examples=40)
@given(poly_st(nx=3, nt=1))
def test_is_symmetric_x_matches_adjacent_relabellings(p):
    swaps = ((1, 0, 2), (0, 2, 1))
    assert p.is_symmetric_x() == all(apply_permutation(p, s) == p for s in swaps)
    orbit_sum = Polynomial.from_terms(3, 1, (
        term for sigma in permutations(range(3))
        for term in apply_permutation(p, sigma).terms.items()
    ))
    assert orbit_sum.is_symmetric_x()


def test_vandermonde():
    assert vandermonde(1) == Polynomial.constant(1, 1, 0)
    x1, x2 = x_var(0, 2), x_var(1, 2)
    assert vandermonde(2) == x1 - x2
    v3 = vandermonde(3)
    assert len(v3.terms) == 6
    assert all(abs(c) == 1 for c in v3.terms.values())
    assert max(sum(xe) for xe, _ in v3.terms) == 3


def test_antisymmetrize():
    sym = x_var(0, 2) * x_var(1, 2)
    assert not antisymmetrize(sym)
    stair = Polynomial.monomial((2, 1, 0), ())
    assert antisymmetrize(stair) == vandermonde(3)


@settings(max_examples=40)
@given(poly_st(nx=3, nt=0))
def test_antisymmetrize_is_alternating(p):
    a = antisymmetrize(p)
    for swap in ((1, 0, 2), (0, 2, 1)):
        assert apply_permutation(a, swap) == -a


def test_divide_exact_linear():
    x1, x2 = x_var(0, 2), x_var(1, 2)
    assert divide_exact(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2
    v3 = vandermonde(3)
    assert divide_exact(v3, v3) == Polynomial.constant(1, 3, 0)


def test_divide_exact_bialternant_matches_tableau_count():
    num = antisymmetrize(Polynomial.monomial((4, 2, 0), ()))
    s = divide_exact(num, vandermonde(3))
    # eight semistandard tableaux of shape (2,1) on three letters
    assert sum(s.terms.values()) == 8
    assert s.coefficient((1, 1, 1)) == 2


def test_divide_exact_signals_failure():
    x1, x2 = x_var(0, 2), x_var(1, 2)
    with pytest.raises(ExactDivisionError):
        divide_exact(x1 * x1 + x2, x1 - x2)


@settings(max_examples=40)
@given(poly_st(nx=3, nt=0))
def test_divide_exact_inverts_multiplication(f):
    for g in (x_var(0, 3) - x_var(1, 3), vandermonde(3)):
        assert divide_exact(f * g, g) == f


def test_coset_permutations():
    assert coset_permutations(3, 3) == sorted(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )
    assert coset_permutations(3, 0) == [(0, 1, 2)]
    reps = coset_permutations(3, 1)
    assert reps == [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    assert [perm_sign(s) for s in reps] == [1, -1, 1]


def test_coset_sum_extremes():
    p = Polynomial.monomial((2, 0, 0), ())
    assert coset_sum(p, 3, 3) == antisymmetrize(p)
    assert coset_sum(p, 3, 0) == p


def test_geometric_factor():
    g = geometric_factor(0, 0, 2, 1, x_cap=1, t_cap=5)
    assert g == Polynomial.monomial((1, 0), (0,))
    g = geometric_factor(0, 0, 2, 1, x_cap=2, t_cap=0)
    assert g == Polynomial.monomial((1, 0), (0,))
    g = geometric_factor(0, 0, 1, 1, x_cap=4, t_cap=2)
    expected = {
        ((1,), (0,)): 1,
        ((2,), (1,)): 1,
        ((3,), (2,)): 1,
    }
    assert g.terms == expected


def test_h_polynomial():
    assert h_polynomial(0, 2, 3) == Polynomial.constant(1, 3, 0)
    assert h_polynomial(2, 0, 3) == Polynomial.zero(3, 0)
    h2 = h_polynomial(2, 2, 2)
    assert h2.terms == {
        ((2, 0), ()): 1,
        ((1, 1), ()): 1,
        ((0, 2), ()): 1,
    }


def test_series_caps():
    x = Polynomial.monomial((1,), (0,))
    geo = geometric_factor(0, 0, 1, 1, 3, 1)
    prod = times(geo, geo, 3, 1)
    assert prod.terms == {((2,), (0,)): 1, ((3,), (1,)): 2}
    # the same terms under other caps are another series
    assert encoded_series(x, 3, 1) != encoded_series(x, 2, 1)


def test_series_below_the_x_cap_drops_terms_and_keeps_its_input():
    p = (
        Polynomial.monomial((3, 1), (1,), 2)
        + Polynomial.monomial((2, 1), (0,))
        + Polynomial.monomial((1, 1), (2,), 5)
    )
    code, coded, _ = MonomialCode.encoded(p)
    before = dict(coded)
    s = TruncatedSeries(code, coded, 3, 2)
    assert s.poly.terms == {((2, 1), (0,)): 1, ((1, 1), (2,)): 5}
    assert coded == before
    assert TruncatedSeries(code, coded, 4, 1).poly.terms == {((3, 1), (1,)): 2, ((2, 1), (0,)): 1}
    assert TruncatedSeries(code, coded, 4, 2).poly == p


def _series_in(code: MonomialCode, terms: dict, x_cap: int, t_cap: int) -> TruncatedSeries:
    """The series of {(x_exps, t_exps): c}, encoded in the given code."""
    coded = {code.part(xe) * code.split + code.part(te): c for (xe, te), c in terms.items()}
    return TruncatedSeries(code, coded, x_cap, t_cap)


SERIES_TERMS = {((2, 1), (0, 1)): 3, ((1, 0), (1, 0)): -1, ((0, 0), (0, 0)): 2, ((0, 3), (0, 0)): 1}
TIGHT = MonomialCode(2, 2, 3, 1)  # base 5
WIDE = MonomialCode(2, 2, 9, 4)  # base 11


def test_series_in_different_codes_compare_by_their_terms():
    a, b = _series_in(TIGHT, SERIES_TERMS, 9, 4), _series_in(WIDE, SERIES_TERMS, 9, 4)
    assert a.coded()[1] != b.coded()[1]
    assert a == b and b == a
    assert a.poly == b.poly


def test_series_differing_in_one_coefficient_or_term_are_unequal():
    a = _series_in(TIGHT, SERIES_TERMS, 9, 4)
    changed = _series_in(WIDE, {**SERIES_TERMS, ((0, 3), (0, 0)): 2}, 9, 4)
    assert a != changed and changed != a
    # one extra term: every term of the shorter series is in the longer one,
    # so only the term count tells them apart in one direction
    longer = _series_in(WIDE, {**SERIES_TERMS, ((1, 1), (0, 0)): 1}, 9, 4)
    assert a != longer and longer != a
    assert _series_in(TIGHT, SERIES_TERMS, 9, 3) != _series_in(WIDE, SERIES_TERMS, 9, 4)
    assert _series_in(TIGHT, SERIES_TERMS, 8, 4) != _series_in(WIDE, SERIES_TERMS, 9, 4)


def test_a_term_past_the_code_degrees_is_no_term_of_the_series():
    # in base 3 the code of x^1 is its x part, 1 * 3 + 1, times the split 9,
    # and t^9's part is 9 * 3 + 9: both are 36, so re-encoded unchecked the
    # digits of t^9 carry into the x part and the series compare equal
    low, high = MonomialCode(1, 1, 2, 0), MonomialCode(1, 1, 9, 9)
    assert low.base == 3
    a = _series_in(low, {((1,), (0,)): 1}, 9, 9)
    b = _series_in(high, {((0,), (9,)): 1}, 9, 9)
    assert a.coded()[1] == {36: 1} and low.part((0,)) * low.split + low.part((9,)) == 36
    assert a != b and b != a


def test_sorted_terms_order_is_graded_lex():
    p = (
        Polynomial.monomial((0, 2), (0,))
        + Polynomial.monomial((1, 1), (0,))
        + Polynomial.monomial((1, 0), (1,))
    )
    order = [xe for xe, te, c in p.sorted_terms()]
    assert order == [(1, 1), (0, 2), (1, 0)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
    st.data(),
)
def test_sorted_terms_is_the_order_key_sort(xs, ts, data):
    # every x part is drawn under several t parts, so the ranks of both
    # blocks decide the order
    pairs = [(xe, te) for xe in xs for te in ts]
    coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(pairs), max_size=len(pairs)))
    p = Polynomial(3, 2, dict(zip(pairs, coeffs)))
    expected = sorted(p.terms, key=_order_key, reverse=True)
    assert p.sorted_terms() == [(xe, te, p.terms[(xe, te)]) for xe, te in expected]


@st.composite
def _coded_monomials(draw):
    """A layout (nx, nt, degree bounds) and monomials within its degrees."""
    nx, nt = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    x_degree, t_degree = draw(st.integers(0, 9)), draw(st.integers(0, 9))

    def exps(count, degree):
        # a weak composition of at most `degree` into `count` parts
        out = [0] * count
        for _ in range(draw(st.integers(0, degree)) if count else 0):
            out[draw(st.integers(0, count - 1))] += 1
        return tuple(out)

    monos = [(exps(nx, x_degree), exps(nt, t_degree)) for _ in range(draw(st.integers(1, 8)))]
    return MonomialCode(nx, nt, x_degree, t_degree), monos


@settings(max_examples=150, deadline=None)
@given(_coded_monomials())
def test_monomial_code_order_is_the_order_key_and_decodes_back(args):
    code, monos = args
    encode = {(xe, te): code.part(xe) * code.split + code.part(te) for xe, te in monos}
    assert code.base % 2 == 1 and code.base > max(code.x_degree, code.t_degree)
    # integer order on codes is _order_key order, both ways
    for a in monos:
        for b in monos:
            assert (encode[a] < encode[b]) == (_order_key(a) < _order_key(b))
    coded = {k: i + 1 for i, k in enumerate(set(encode.values()))}
    by_mono = {mono: coded[k] for mono, k in encode.items()}
    assert code.decode(coded) == by_mono
    # the cap filter reads the degree digits alone
    for x_cap in range(code.x_degree + 1):
        for t_cap in range(code.t_degree + 1):
            kept = TruncatedSeries(code, coded, x_cap, t_cap).poly.terms
            assert kept == {(xe, te): c for (xe, te), c in by_mono.items() if sum(xe) <= x_cap and sum(te) <= t_cap}


@settings(max_examples=80, deadline=None)
@given(_coded_monomials())
def test_monomial_code_of_a_product_is_the_sum_of_codes(args):
    code, monos = args
    # halve every exponent, so that any two monomials multiply within the degrees
    halves = [(tuple(e // 2 for e in xe), tuple(e // 2 for e in te)) for xe, te in monos]

    def encode(mono):
        return code.part(mono[0]) * code.split + code.part(mono[1])

    for a in halves:
        for b in halves:
            product = (tuple(map(sum, zip(a[0], b[0]))), tuple(map(sum, zip(a[1], b[1]))))
            assert encode(a) + encode(b) == encode(product)
    for i in range(code.nx):
        unit = tuple(int(k == i) for k in range(code.nx))
        assert code.x_var(i) == encode((unit, (0,) * code.nt))
    for j in range(code.nt):
        unit = tuple(int(k == j) for k in range(code.nt))
        assert code.t_var(j) == encode(((0,) * code.nx, unit))


@settings(max_examples=60, deadline=None)
@given(poly_st(nx=3, nt=2, max_exp=4, max_terms=6), st.integers(0, 12), st.integers(0, 2))
def test_series_from_codes_is_the_series_of_its_polynomial(p, x_cap, t_cap):
    code, coded, parts = MonomialCode.encoded(p)
    assert code.decode(coded) == p.terms
    assert parts == code.parts(coded)
    from_codes = TruncatedSeries(code, coded, x_cap, t_cap)
    expected = cut(p, x_cap, t_cap)
    assert len(from_codes) == len(expected.terms)
    assert from_codes.coded()[0] is code
    assert from_codes == encoded_series(p, x_cap, t_cap)
    assert TruncatedSeries(code, from_codes.coded()[1], x_cap + 1, t_cap + 1).poly == expected
    lower = max(x_cap - 1, 0)
    assert TruncatedSeries(code, from_codes.coded()[1], lower, t_cap) == encoded_series(expected, lower, t_cap) == encoded_series(p, lower, t_cap)
    # within the caps the series holds the caller's dict, and caps below
    # the code's degrees filter a copy of it
    before = dict(coded)
    within = TruncatedSeries(code, coded, code.x_degree, code.t_degree)
    assert within.coded()[1] is coded
    below = max(code.x_degree - 1, 0), max(code.t_degree - 1, 0)
    assert TruncatedSeries(code, within.coded()[1], *below).poly == cut(p, *below)
    assert coded == before


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40).flatmap(lambda count: st.tuples(
    st.integers(1, 40), st.lists(st.integers(0, 3), min_size=count, max_size=count), st.floats(0, 1),
)))
def test_digits_read_back_the_exponents_of_a_part(args):
    degree, exps, density = args
    # runs past 8 digits are halved, and their zero halves skipped
    exps = [e if i < density * len(exps) else 0 for i, e in enumerate(exps)]
    code = MonomialCode(len(exps), 0, max(degree, sum(exps)), 0)
    assert code.digits({code.part(exps), 0}, len(exps)) == {code.part(exps): tuple(exps), 0: (0,) * len(exps)}
    assert code.digit_texts({code.part(exps), 0}, len(exps)) == {
        code.part(exps): " ".join(map(str, exps)), 0: " ".join(["0"] * len(exps))
    }
    assert code.parts({code.part(exps) * code.split: 1}) == ({code.part(exps): tuple(exps)}, {0: ()})


def test_monomial_code_refuses_more_variables_than_it_holds():
    MonomialCode(1, MAX_VARIABLES - 1, 3, 1)
    for nx, nt in ((1, MAX_VARIABLES), (MAX_VARIABLES + 1, 0), (1, 10 ** 20)):
        with pytest.raises(ValueError, match="at most"):
            MonomialCode(nx, nt, 3, 1)


def test_straighten_reads_bialternant_rule():
    # x^(3,0,2): sorting to (3,2,0) is one transposition, and (3,2,0) - delta = (1,1,0)
    f = Polynomial.monomial((3, 0, 2), (1,), 5) + Polynomial.monomial((1, 1, 0), (0,), 7)
    assert straightened(f) == {((1, 1, 0), (1,)): -5}
    assert straightened(Polynomial.zero(2, 0)) == {}


def test_straighten_reads_one_x_part_under_opposite_signs():
    # x^(3,0,2) sits under t1 and t2 with opposite signs; under t1 it cancels
    # against x^(2,0,3), whose sort into (3,2,0) is even
    f = (
        Polynomial.monomial((3, 0, 2), (1, 0), 5)
        + Polynomial.monomial((3, 0, 2), (0, 1), -5)
        + Polynomial.monomial((2, 0, 3), (1, 0), 5)
    )
    assert straightened(f) == {((1, 1, 0), (0, 1)): 5}
    assert bialternant_quotient(f) == divide_exact(antisymmetrize(f), vandermonde(3, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: poly_st(nx=n, nt=2, max_exp=n + 2, max_terms=6)))
def test_straighten_matches_antisymmetrize_and_divide(f):
    # antisymmetrize followed by exact division by V is the oracle
    expected = divide_exact(antisymmetrize(f), vandermonde(f.nx, f.nt))
    assert bialternant_quotient(f) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kostka_columns_count_ssyt_by_weight(n):
    shapes = [lam for lam in subpartitions((6,) * n) if sum(lam) <= 6]
    columns = kostka_columns(range(7), n, (6,) * n)
    assert sorted(columns) == sorted(pad(lam, n) for lam in shapes)
    for lam in shapes:
        counts = Counter(pad(t.weight(), n) for t in enumerate_ssyt(lam, n))
        for nu, column in columns.items():
            assert column.get(pad(lam, n), 0) == counts[nu], (lam, nu)


@pytest.mark.parametrize("n", range(1, 7))
def test_kostka_columns_match_straightened_h_products(n):
    # the rule the Pieri columns replace: the column of nu is
    # straighten(h_k * numerator of h_nu'), nu' being nu less its last part k
    delta = staircase(n)
    memo = {(): {(0,) * n: 1}}

    def column_of(nu):
        if nu not in memo:
            numerator = Polynomial(n, 0, {
                (tuple(p + q for p, q in zip(lam, delta)), ()): c
                for lam, c in column_of(nu[:-1]).items()
            })
            g = numerator * h_polynomial(nu[-1], n, n)
            memo[nu] = {lam: c for (lam, _), c in straightened(g).items()}
        return memo[nu]

    columns = kostka_columns(range(8), n, (7,) * n)
    assert len(columns) == sum(1 for lam in subpartitions((7,) * n) if sum(lam) <= 7)
    for nu, column in columns.items():
        assert column == column_of(tuple(p for p in nu if p)), nu


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 5), min_size=n, max_size=n).map(lambda b: tuple(sorted(b, reverse=True))),
)))
def test_kostka_columns_inside_a_bound_are_the_full_columns_cut_to_it(args):
    n, bound = args
    full = kostka_columns(range(7), n, (6,) * n)
    cut = {
        nu: kept
        for nu, column in full.items()
        if (kept := {lam: k for lam, k in column.items() if all(a <= b for a, b in zip(lam, bound))})
    }
    assert kostka_columns(range(7), n, bound) == cut


STRAIGHTEN_ORACLE_CASES = [
    Polynomial.monomial((2,), (1,), 3) + Polynomial.monomial((0,), (0,), -2),
    Polynomial.monomial((3, 0), (1,), 5) + Polynomial.monomial((1, 2), (0,), 2) + Polynomial.monomial((2, 2), (1,)),
    Polynomial.monomial((3, 0, 2), (1, 0), 5) + Polynomial.monomial((4, 2, 1), (0, 2), -7)
    + Polynomial.monomial((0, 1, 1), (0, 0), 4),
    (x_var(0, 3, 1) + x_var(1, 3, 1)) * (x_var(0, 3, 1) + x_var(2, 3, 1)) * x_var(1, 3, 1)
    * (Polynomial.constant(1, 3, 1) + Polynomial.monomial((1, 0, 0), (1,))),
]


@pytest.mark.parametrize("f", STRAIGHTEN_ORACLE_CASES)
def test_straighten_matches_sympy_quotient(f):
    # a third oracle, independent of this library's antisymmetrize and division
    sympy = pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation

    n, nt = f.nx, f.nt
    xs, ts = sympy.symbols(f"x1:{n + 1}"), sympy.symbols(f"t1:{nt + 1}")

    def expr(p):
        return sympy.Add(*(
            c * sympy.Mul(*(v ** e for v, e in zip(xs + ts, xe + te)))
            for (xe, te), c in p.terms.items()
        ))

    g = expr(f)
    alternant = sympy.Add(*(
        Permutation(list(sigma)).signature() * g.subs(dict(zip(xs, [xs[i] for i in sigma])), simultaneous=True)
        for sigma in permutations(range(n))
    ))
    vandermonde_expr = sympy.Mul(*(xs[i] - xs[j] for i in range(n) for j in range(i + 1, n)))
    quotient = sympy.cancel(alternant / vandermonde_expr)
    assert sympy.expand(expr(bialternant_quotient(f)) - quotient) == 0
