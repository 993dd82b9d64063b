from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import grothlab.algebra as algebra
from grothlab.algebra import (
    MonomialCode,
    Polynomial,
    antisymmetrize,
    coset_sum,
    divide_exact,
    vandermonde,
    x_var,
)
from grothlab.partitions import is_strict_partition, pad, subpartitions
import grothlab.polynomials as polynomials
import grothlab.verify as verify
from grothlab.polynomials import (
    _head_schur,
    _head_sorted,
    _product,
    _stair,
    BasisExpansion,
    ExpansionError,
    FamilySpec,
    algebraic_series,
    basis_expansion,
    coefficient_via_hmult,
    combinatorial_series,
    expand_in_pschur,
    expand_in_schur,
    expansion_via_maximal,
    hmult_good_extension_route,
    pschur,
    schur,
    signed_smt_sum,
    specialize_t,
)
from grothlab.tableaux import enumerate_rt, enumerate_srt
from tuple_series import (
    count_mt_by_weight,
    count_smt_by_weight,
    decoded,
    encoded_series,
    geometric_factor,
    one,
    straightened,
    times,
    x_slice,
)


def t_poly(nt, *terms):
    out = Polynomial.zero(0, nt)
    for te, c in terms:
        out = out + Polynomial.monomial((), te, c)
    return out


def test_schur_basics():
    assert schur((1,), 2) == Polynomial.monomial((1, 0), ()) + Polynomial.monomial((0, 1), ())
    s = schur((2, 1), 3)
    assert sum(s.terms.values()) == 8
    assert s == algebraic_series(FamilySpec("J", (2, 1), 3, t_cap=0)).poly.coefficient_of_t((0, 0))
    assert schur((1, 1, 1), 2) == Polynomial.zero(2, 0)


@pytest.mark.parametrize("lam,n", [((2,), 2), ((2, 2), 3), ((3, 1), 3), ((3, 2, 1), 3)])
def test_schur_routes_agree(lam, n):
    bialternant = algebraic_series(FamilySpec("J", lam, n, t_cap=0))
    assert schur(lam, n) == bialternant.poly.coefficient_of_t((0,) * lam[0])


def test_pschur_values():
    assert pschur((1,), 2) == schur((1,), 2)
    p = pschur((2, 1), 2)
    assert p.terms == {((2, 1), ()): 1, ((1, 2), ()): 1}
    p = pschur((3, 1), 2)
    assert p.terms == {((3, 1), ()): 1, ((2, 2), ()): 2, ((1, 3), ()): 1}
    with pytest.raises(ValueError):
        pschur((2, 2), 3)


def test_J_single_variable_geometric_series():
    spec = FamilySpec("J", (1,), 1, t_cap=3)
    series = algebraic_series(spec)
    assert series == combinatorial_series(spec)
    assert series.poly.terms == {
        ((k + 1,), (k,)): 1 for k in range(4)
    }


@pytest.mark.parametrize(
    "mu,n",
    [((), 2), ((1,), 2), ((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((3, 1), 3)],
)
def test_J_routes_agree(mu, n):
    spec = FamilySpec("J", mu, n, t_cap=2)
    assert algebraic_series(spec) == combinatorial_series(spec)


def test_J_t_zero_is_schur():
    spec = FamilySpec("J", (2, 1), 3, t_cap=2)
    series = algebraic_series(spec)
    assert specialize_t(series, (0, 0)) == schur((2, 1), 3)
    spec0 = FamilySpec("J", (2, 1), 3, t_cap=0)
    assert combinatorial_series(spec0).poly.coefficient_of_t((0, 0)) == schur((2, 1), 3)


def test_J_vanishes_beyond_variable_count():
    spec = FamilySpec("J", (1, 1, 1), 2, t_cap=1)
    assert not algebraic_series(spec)
    assert not combinatorial_series(spec)


def test_P_paper_slice():
    spec = FamilySpec("P", (2, 1), 2, t_cap=1)
    alg = algebraic_series(spec)
    comb = combinatorial_series(spec)
    assert alg == comb
    assert x_slice(alg, 4).terms == {
        ((3, 1), (1, 0)): 1,
        ((3, 1), (0, 1)): 1,
        ((2, 2), (1, 0)): 2,
        ((2, 2), (0, 1)): 2,
        ((1, 3), (1, 0)): 1,
        ((1, 3), (0, 1)): 1,
    }
    assert x_slice(alg, 3).coefficient_of_t((0, 0)) == pschur((2, 1), 2)


@pytest.mark.parametrize("mu,n", [((1,), 2), ((2, 1), 3), ((3, 1), 2), ((3, 2), 2)])
def test_P_routes_agree(mu, n):
    spec = FamilySpec("P", mu, n, t_cap=2)
    assert algebraic_series(spec) == combinatorial_series(spec)


def test_P_t_zero_is_pschur():
    spec = FamilySpec("P", (2, 1), 2, t_cap=1)
    assert specialize_t(algebraic_series(spec), (0, 0)) == pschur((2, 1), 2)


def test_P_signed_route():
    spec = FamilySpec("P", (2, 1), 2, t_cap=1)
    comb = combinatorial_series(spec)
    assert signed_smt_sum(spec).poly == comb.poly * 4
    with pytest.raises(ValueError, match="shifted"):
        signed_smt_sum(FamilySpec("J", (2, 1), 2, t_cap=1))


def test_P_requires_strict_mu():
    with pytest.raises(ValueError):
        FamilySpec("P", (2, 2), 3)


def test_P_vanishes_when_fewer_variables_than_rows():
    spec = FamilySpec("P", (3, 2, 1), 2, t_cap=1)
    assert not algebraic_series(spec)
    assert not combinatorial_series(spec)


FAMILY_SHAPES = [
    (family, mu)
    for family in ("J", "P", "schur", "pschur")
    for mu in ((), (1,), (2,), (2, 1), (2, 2), (3, 1), (2, 1, 1))
    if family in ("J", "schur") or is_strict_partition(mu)
]


# schur and pschur are J and P at t = 0 whatever t-cap the spec prints; the
# route functions once read no family and gave the J series for all four
@pytest.mark.parametrize("family, mu", FAMILY_SHAPES)
def test_both_routes_compute_every_family(family, mu):
    t_free = (0,) * (mu[0] if mu else 0)
    for n, t_cap in product((1, 2, 3), (0, 1, 2)):
        spec = FamilySpec(family, mu, n, t_cap=t_cap)
        series = algebraic_series(spec)
        assert series == combinatorial_series(spec)
        if family in ("J", "P"):
            continue
        base = (pschur if spec.shifted else schur)(mu, n)
        assert series.poly == Polynomial(n, spec.ell, {(x, t_free): c for (x, _), c in base.terms.items()})
        unit = {} if spec.vanishes() else {mu: Polynomial.monomial((), t_free)}
        assert basis_expansion(spec).as_dict() == unit
        assert expansion_via_maximal(spec).as_dict() == unit


def _refuse(monkeypatch, module, *names):
    """Patch each named function of `module`, as the routes look it up
    there, to raise when it is called."""
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} was called")
        monkeypatch.setattr(module, name, refuse)


# the two routes stay independent: the algebraic one counts no tableau, and
# the tableau counter and the maximal-tableau expansion use neither
# `straighten` nor the Pieri rule
@pytest.mark.parametrize("family, mu", FAMILY_SHAPES)
def test_the_algebraic_route_counts_no_tableau(monkeypatch, family, mu):
    specs = [FamilySpec(family, mu, n, t_cap=2) for n in (1, 2, 3)]
    counted = [combinatorial_series(spec) for spec in specs]
    _refuse(monkeypatch, polynomials, "count_mt_by_code", "count_smt_by_code", "schur", "pschur")
    assert [algebraic_series(spec) for spec in specs] == counted


@pytest.mark.parametrize("family, mu", FAMILY_SHAPES)
def test_the_tableau_side_straightens_nothing(monkeypatch, family, mu):
    specs = [FamilySpec(family, mu, n, t_cap=2) for n in (1, 2, 3)]
    straightened_series = [algebraic_series(spec) for spec in specs]
    expansions = [basis_expansion(spec) for spec in specs]
    _refuse(monkeypatch, algebra, "straighten", "kostka_columns", "schur_to_monomials", "_horizontal_strips")
    _refuse(monkeypatch, polynomials, "straighten", "schur_to_monomials", "_horizontal_strips")
    assert [combinatorial_series(spec) for spec in specs] == straightened_series
    assert [expansion_via_maximal(spec) for spec in specs] == expansions


def test_the_positivity_suite_straightens_nothing(monkeypatch):
    # `_case` turns an exception into a FAIL, so a straightening call in a
    # positivity case shows up as a failed case
    _refuse(monkeypatch, algebra, "straighten", "kostka_columns", "schur_to_monomials", "_horizontal_strips")
    _refuse(monkeypatch, polynomials, "straighten", "schur_to_monomials", "_horizontal_strips")
    results = verify.positivity_suite("small")
    assert results and [r for r in results if not r.passed] == []


def test_coefficient_via_hmult_matches_series():
    spec = FamilySpec("J", (2, 1), 2, t_cap=1)
    series = algebraic_series(spec)
    assert coefficient_via_hmult(spec, (0, 0)) == schur((2, 1), 2)
    for t_exps in ((1, 0), (0, 1)):
        extracted = series.coefficient_of_t(t_exps)
        assert coefficient_via_hmult(spec, t_exps) == extracted
        assert hmult_good_extension_route(spec, t_exps) == extracted
    sp = FamilySpec("P", (2, 1), 2, t_cap=1)
    sp_series = algebraic_series(sp)
    assert coefficient_via_hmult(sp, (0, 0)) == pschur((2, 1), 2)
    for t_exps in ((1, 0), (0, 1)):
        assert coefficient_via_hmult(sp, t_exps) == sp_series.coefficient_of_t(t_exps)


def test_both_hmult_routes_refuse_a_wrong_number_of_t_exponents():
    # checked before the shortcut for a vanishing family, too
    for spec in (FamilySpec("J", (2, 1), 2), FamilySpec("J", (2, 1, 1), 2)):
        for route in (coefficient_via_hmult, hmult_good_extension_route):
            for t_exps in ((1, 0, 5), (1,)):
                with pytest.raises(ValueError) as err:
                    route(spec, t_exps)
                assert str(err.value) == "need exactly 2 t-exponents"


ROUTE_SHAPES = [mu for mu in subpartitions((7,) * 7) if 0 < sum(mu) <= 7]


@st.composite
def _route_specs(draw):
    """A J or P spec past the census and the bench grid: |mu| <= 7, n <= 5,
    t_cap <= 2, with one t-exponent vector within the cap."""
    family = draw(st.sampled_from(["J", "P"]))
    shapes = [mu for mu in ROUTE_SHAPES if family == "J" or is_strict_partition(mu)]
    mu = draw(st.sampled_from(shapes))
    spec = FamilySpec(family, mu, draw(st.integers(1, 5)), t_cap=draw(st.integers(0, 2)))
    t_exps = [0] * spec.ell
    for _ in range(draw(st.integers(0, spec.t_cap))):
        t_exps[draw(st.integers(0, spec.ell - 1))] += 1
    return spec, tuple(t_exps)


# the combinatorial counter against the algebraic route on shapes the census
# and the bench grid never reach, and one t-coefficient against the h-product
@settings(max_examples=25, deadline=None)
@given(_route_specs())
def test_routes_agree_past_the_census(args):
    spec, t_exps = args
    algebraic, combinatorial = algebraic_series(spec), combinatorial_series(spec)
    assert combinatorial == algebraic
    assert coefficient_via_hmult(spec, t_exps) == algebraic.poly.coefficient_of_t(t_exps)


CODED_SHAPES = [mu for mu in subpartitions((6,) * 6) if 0 < sum(mu) <= 6]


@st.composite
def _coded_specs(draw):
    """A family (J, P or signed P), a spec with n <= 5, t_cap <= 3 and
    |mu| + t_cap <= 7, and an x-cap that is sometimes below |mu| + t_cap."""
    family = draw(st.sampled_from(["J", "P", "P+-"]))
    shapes = [mu for mu in CODED_SHAPES if family == "J" or is_strict_partition(mu)]
    mu = draw(st.sampled_from(shapes))
    t_cap = draw(st.integers(0, min(3, 7 - sum(mu))))
    x_cap = draw(st.one_of(st.none(), st.integers(0, sum(mu) + t_cap + 1)))
    spec = FamilySpec(family[0], mu, draw(st.integers(1, 5)), t_cap=t_cap, x_cap=x_cap)
    return family, spec


# the combinatorial routes hold the counter's codes and decode them only when
# read; they must read, print and compare as the series of its tuple tally
@settings(max_examples=40, deadline=None)
@given(_coded_specs())
def test_coded_series_is_the_series_of_the_tuple_tally(args):
    from grothlab.cli import _series_json, _series_text

    family, spec = args
    if family == "J":
        coded = combinatorial_series(spec)
        counts = count_mt_by_weight(spec.mu, spec.n, spec.t_cap)
    else:
        signed = family == "P+-"
        coded = signed_smt_sum(spec) if signed else combinatorial_series(spec)
        counts = count_smt_by_weight(spec.mu, spec.n, spec.t_cap, signed=signed)
    expected = encoded_series(Polynomial(spec.n, spec.ell, counts), spec.effective_x_cap(), spec.t_cap)
    assert _series_text(coded) == _series_text(expected)
    assert _series_json(coded) == _series_json(expected)
    assert len(coded) == len(expected.poly.terms)
    assert coded.poly == expected.poly
    assert coded == expected


def test_expand_in_schur_trivial():
    exp = expand_in_schur(schur((2, 1), 3), 3)
    assert exp.as_dict() == {(2, 1): Polynomial.constant(1, 0, 0)}


def test_expand_in_schur_counts_restricted_tableaux():
    # independent oracle: each Schur coefficient is the weighted count of
    # restricted fillings of the corresponding skew shape
    mu, n, t_cap = (2, 1), 3, 2
    spec = FamilySpec("J", mu, n, t_cap=t_cap)
    for exp in (expand_in_schur(algebraic_series(spec), n), basis_expansion(spec)):
        assert exp.coefficients
        for lam, coeff in exp.coefficients:
            expected = Polynomial.zero(0, spec.ell)
            outer = lam + (0,) * (len(mu) - len(lam))
            for filling in enumerate_rt(outer, mu):
                expected = expected + Polynomial.monomial((), filling.weight(spec.ell))
            assert coeff == expected, lam


def test_expand_in_pschur_counts_shifted_restricted_tableaux():
    mu, n, t_cap = (2, 1), 3, 2
    spec = FamilySpec("P", mu, n, t_cap=t_cap)
    for exp in (expand_in_pschur(algebraic_series(spec), n), basis_expansion(spec)):
        assert exp.coefficients
        for lam, coeff in exp.coefficients:
            expected = Polynomial.zero(0, spec.ell)
            for filling in enumerate_srt(lam, mu):
                expected = expected + Polynomial.monomial((), filling.weight(spec.ell))
            assert coeff == expected, lam


SMALL_SHAPES = [lam for lam in subpartitions((6, 6, 6, 6)) if sum(lam) <= 6]


@pytest.mark.parametrize("basis, expand, strict", [
    (schur, expand_in_schur, False),
    (pschur, expand_in_pschur, True),
])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_expand_recovers_integer_combinations_of_the_basis(basis, expand, strict, data, n):
    # the basis elements come from tableau counts, independent of straighten
    shapes = [lam for lam in SMALL_SHAPES if len(lam) <= n and (is_strict_partition(lam) or not strict)]
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(shapes), st.integers(-4, 4).filter(bool), max_size=4
    ))
    f = Polynomial.zero(n, 0)
    for lam, c in coeffs.items():
        f = f + basis(lam, n) * c
    exp = expand(f, n)
    assert exp.as_dict() == {lam: Polynomial.constant(c, 0, 0) for lam, c in coeffs.items()}


@pytest.mark.parametrize("family, mu", [
    ("J", (2, 1)), ("J", (3, 2, 1)), ("J", (4, 2, 1)),
    ("P", (2, 1)), ("P", (3, 1)), ("P", (4, 2, 1)),
])
def test_basis_expansion_does_not_depend_on_n(family, mu):
    m = len(mu)
    for t_cap in range(4):
        at_m = basis_expansion(FamilySpec(family, mu, m, t_cap=t_cap)).coefficients
        assert at_m
        for n in (m + 1, m + 2):
            assert basis_expansion(FamilySpec(family, mu, n, t_cap=t_cap)).coefficients == at_m


def test_expand_in_pschur_paper_line():
    spec = FamilySpec("P", (2, 1), 2, t_cap=1)
    exp = expand_in_pschur(algebraic_series(spec), 2)
    assert exp.coefficient((3, 1)) == t_poly(2, ((1, 0), 1), ((0, 1), 1))
    assert exp.coefficient((2, 1)) == Polynomial.constant(1, 0, 2)


def test_expand_rejects_nonsymmetric_input():
    with pytest.raises(ExpansionError):
        expand_in_schur(Polynomial.monomial((2, 0), ()), 2)


def test_expand_in_pschur_rejects_nonstrict_leading_shape():
    with pytest.raises(ExpansionError):
        expand_in_pschur(schur((2, 2), 2), 2)


def test_expansion_via_maximal_refuses_a_weight_that_is_not_a_partition(monkeypatch):
    # one maximal tableau whose second row holds more than its first
    monkeypatch.setattr(polynomials, "maximal_box_sizes", lambda *args, **kw: [((1,), (1, 1))])
    with pytest.raises(ExpansionError, match=r"^maximal tableau weight \(1, 2\) is not a partition$"):
        expansion_via_maximal(FamilySpec("J", (2, 1), 2, t_cap=1))


def test_expansion_via_maximal_matches_expand():
    for family, mu, n in [("J", (2, 1), 2), ("J", (3, 1), 3), ("P", (2, 1), 2), ("P", (3, 1), 3)]:
        spec = FamilySpec(family, mu, n, t_cap=2)
        exp = (expand_in_pschur if spec.shifted else expand_in_schur)(combinatorial_series(spec), n)
        assert exp == expansion_via_maximal(spec)
        assert exp.is_nonnegative()


def test_expansion_via_maximal_tcap_zero():
    spec = FamilySpec("J", (2, 1), 2, t_cap=0)
    exp = expansion_via_maximal(spec)
    assert exp.as_dict() == {(2, 1): Polynomial.constant(1, 0, 2)}


def test_specialize_all_ones_matches_single_parameter_series():
    # one-parameter series built directly with a single shared t-variable
    mu, n, t_cap = (2, 1), 2, 2
    spec = FamilySpec("J", mu, n, t_cap=t_cap)
    multi = algebraic_series(spec)
    window = sum(mu) + t_cap
    x_work = window + n * (n - 1) // 2
    prod = one(n, 1)
    for i in range(n):
        stair = [0] * n
        stair[i] = n - 1 - i
        prod = times(prod, Polynomial.monomial(stair, (0,)), x_work, t_cap)
        for _ in range(mu[i] if i < len(mu) else 0):
            prod = times(prod, geometric_factor(i, 0, n, 1, x_work, t_cap), x_work, t_cap)
    single = divide_exact(antisymmetrize(prod, n), vandermonde(n, 1))
    collapsed = specialize_t(multi, (1, 1))
    direct = specialize_t(single, (1,))
    for degree in range(0, window + 1):
        lhs = {m: c for m, c in collapsed.terms.items() if sum(m[0]) == degree}
        rhs = {m: c for m, c in direct.terms.items() if sum(m[0]) == degree}
        assert lhs == rhs, degree


def test_specialize_validates_values():
    spec = FamilySpec("J", (1,), 1, t_cap=1)
    series = algebraic_series(spec)
    with pytest.raises(ValueError):
        specialize_t(series, (2,))
    with pytest.raises(ValueError):
        specialize_t(series, (0, 0))


def test_basis_expansion_helpers():
    exp = BasisExpansion.from_dict(
        "schur", 2, 1, {(1,): t_poly(1, ((0,), 1)), (2,): Polynomial.zero(0, 1)}
    )
    assert [lam for lam, _ in exp.coefficients] == [(1,)]
    assert exp.coefficient((3,)) == Polynomial.zero(0, 1)
    assert exp.is_nonnegative()


# The algebraic routes read A(f)/V off the product f; the explicit
# antisymmetrize / coset_sum followed by divide_exact is the reference.
SMALL_J = [
    (mu, n, t_cap)
    for mu in subpartitions((3, 2, 1)) if mu
    for n, t_cap in ((1, 2), (2, 2), (3, 1), (3, 2), (4, 1))
    if len(mu) <= n
]
SMALL_P = [(mu, n, t_cap) for mu, n, t_cap in SMALL_J if len(set(mu)) == len(mu)]
# tails of 4 and 5 variables, where (n - m)! is 24 or 120
LARGER_TAILS = [((1,), 5, 2), ((1,), 6, 1), ((2, 1), 5, 1), ((2,), 5, 2)]


@pytest.mark.parametrize("mu,n,t_cap", SMALL_J)
def test_J_kernel_matches_antisymmetrize_and_divide(mu, n, t_cap):
    spec = FamilySpec("J", mu, n, t_cap=t_cap)
    expected = divide_exact(antisymmetrize(decoded(*_product(spec)), n), vandermonde(n, spec.ell))
    assert algebraic_series(spec) == encoded_series(expected, spec.effective_x_cap(), t_cap)


def _x_work(spec):
    """The x-cap of `_product`: the window of the result plus deg x^delta."""
    n = spec.n
    return min(spec.effective_x_cap(), spec.weight_size + spec.work_t_cap) + n * (n - 1) // 2


def _geometric_rows(spec, x_work):
    """The product of the truncated geometric factors of every row of mu,
    tuple-keyed and cut to x_work and the t-cap."""
    n, ell, t_cap = spec.n, spec.ell, spec.work_t_cap
    prod = one(n, ell)
    for i, part in enumerate(spec.mu):
        for j in range(ell - part, ell):
            prod = times(prod, geometric_factor(i, j, n, ell, x_work, t_cap), x_work, t_cap)
    return prod


def _paper_p_product(spec):
    """The paper's P product: geometric rows of mu, the plus factors of the
    rows i < m, and the tail Vandermonde prod_{m<=i<j} (x_i - x_j)."""
    n, ell, m = spec.n, spec.ell, len(spec.mu)
    x_work = _x_work(spec)
    prod = _geometric_rows(spec, x_work)
    for i in range(n):
        for j in range(i + 1, n):
            sign = 1 if i < m else -1
            prod = times(prod, x_var(i, n, ell) + x_var(j, n, ell) * sign, x_work, spec.t_cap)
    return prod


@pytest.mark.parametrize("mu,n,t_cap", SMALL_P + LARGER_TAILS)
def test_P_kernel_matches_coset_sum_and_divide(mu, n, t_cap):
    spec = FamilySpec("P", mu, n, t_cap=t_cap)
    m = len(mu)
    f_paper = _paper_p_product(spec)
    expected = divide_exact(coset_sum(f_paper, n, m), vandermonde(n, spec.ell))
    assert algebraic_series(spec) == encoded_series(expected, spec.effective_x_cap(), t_cap)
    # the coset sum is A(f)/(n-m)!, and the tail staircase of _product
    # carries exactly that A(f)/(n-m)!
    a_paper = antisymmetrize(f_paper, n)
    assert a_paper == coset_sum(f_paper, n, m) * factorial(n - m)
    assert a_paper == antisymmetrize(decoded(*_product(spec)), n) * factorial(n - m)


PRODUCT_SPECS = (
    [("J", mu, n, t_cap, None) for mu, n, t_cap in SMALL_J]
    + [("P", mu, n, t_cap, None) for mu, n, t_cap in SMALL_P + LARGER_TAILS]
    # seven variables, with a t-cap as large as |mu| + deg x^delta allows
    + [("J", (3,), 7, 7, None), ("P", (3,), 7, 7, None)]
    # x-caps below |mu| + t_cap
    + [("J", (2, 1), 3, 2, 3), ("P", (2, 1), 4, 3, 4), ("J", (2,), 1, 7, 4)]
)


def _tuple_product(spec):
    """The paper's product as `_product` once multiplied it out, by the
    tuple-keyed series product: the geometric rows, then x^delta with each
    pair factor (x_i + x_j) of the shifted head rows i < m multiplied in
    one at a time."""
    n, ell = spec.n, spec.ell
    head = len(spec.mu) if spec.shifted else 0
    x_work = _x_work(spec)
    expected = _geometric_rows(spec, x_work)
    for i in range(n):
        for j in range(i + 1, n):
            factor = x_var(i, n, ell) + x_var(j, n, ell) if i < head else x_var(i, n, ell)
            expected = times(expected, factor, x_work, spec.work_t_cap)
    return expected


def _check_product(spec):
    """`_product` against the tuple product.  J's product is the tuple
    product term for term.  A shifted product has head-sorted rows and the
    box-sum stair, so it equals the tuple product under the antisymmetrizer
    A only: the two are compared as the Schur coefficients `straighten`
    reads off them, and its codes must decode and re-encode to themselves,
    as no code with a carried digit does.  A vanishing spec has no terms."""
    code, coded = _product(spec)
    if spec.vanishes():
        assert coded == {}
        return
    product = decoded(code, coded)
    expected = _tuple_product(spec)
    if not spec.shifted:
        assert product == expected
        return
    split = code.split
    assert {code.part(xe) * split + code.part(te) for xe, te in product.terms} == set(coded)
    assert straightened(product) == straightened(expected)


@pytest.mark.parametrize("family,mu,n,t_cap,x_cap", PRODUCT_SPECS)
def test_packed_product_matches_tuple_series_product(family, mu, n, t_cap, x_cap):
    _check_product(FamilySpec(family, mu, n, t_cap=t_cap, x_cap=x_cap))


@st.composite
def _product_specs(draw):
    family = draw(st.sampled_from(["J", "P"]))
    mu = draw(st.sampled_from([mu for mu in subpartitions((3, 2, 1)) if family == "J" or is_strict_partition(mu)]))
    t_cap = draw(st.integers(0, 4))
    # an x-cap below |mu| + t_cap cuts the window, above it changes nothing
    x_cap = draw(st.one_of(st.none(), st.integers(0, sum(mu) + t_cap + 1)))
    return FamilySpec(family, mu, draw(st.integers(max(len(mu), 1), 5)), t_cap=t_cap, x_cap=x_cap)


# x_work = 3 + 2 + 3 = 8 and 4 + 6 = 10: the base is x_work + 1
X_WORK_IS_BASE_LESS_ONE = [FamilySpec("J", (2, 1), 3, t_cap=2), FamilySpec("P", (2, 1), 4, t_cap=3, x_cap=4)]
# base 7: the two row factors pair t_1^4 x^5 with t_2^4 x^5, |t| = 8
PAIR_T_REACHES_BASE = [FamilySpec("J", (2,), 1, t_cap=4)]


def test_product_examples_reach_the_digit_limits():
    for spec in X_WORK_IS_BASE_LESS_ONE:
        code, _ = _product(spec)
        assert code.x_degree == code.base - 1
    for spec in PAIR_T_REACHES_BASE:
        code, _ = _product(spec)
        # a row factor runs to t_j^t_cap, so two of them pair to |t| = 2 t_cap
        factor = geometric_factor(0, 0, spec.n, spec.ell, _x_work(spec), spec.t_cap)
        assert max(sum(te) for _, te in factor.terms) == spec.t_cap
        assert 2 * spec.t_cap >= code.base


@settings(max_examples=40, deadline=None)
@given(_product_specs())
@example(X_WORK_IS_BASE_LESS_ONE[0])
@example(X_WORK_IS_BASE_LESS_ONE[1])
@example(PAIR_T_REACHES_BASE[0])
def test_coded_product_decodes_to_the_tuple_series_product(spec):
    # the base exceeds x_work by as little as one, so sums of codes carry;
    # the caps must still drop exactly the terms past them
    _check_product(spec)


@st.composite
def _shifted_specs(draw):
    """A P or pschur spec with n <= 6, which vanishes when n < len(mu), and
    an x-cap that is sometimes below |mu| + t_cap."""
    family = draw(st.sampled_from(["P", "pschur"]))
    mu = draw(st.sampled_from([mu for mu in subpartitions((4, 2, 1)) if is_strict_partition(mu)]))
    t_cap = draw(st.integers(0, 3))
    x_cap = draw(st.one_of(st.none(), st.integers(0, sum(mu) + t_cap + 1)))
    return FamilySpec(family, mu, draw(st.integers(1, 6)), t_cap=t_cap, x_cap=x_cap)


# the shifted product is the head-sorted rows times the box-sum stair; under
# A it must be the paper's product, with or without a tail
@settings(max_examples=40, deadline=None)
@given(_shifted_specs())
@example(FamilySpec("P", (3, 2, 1), 3, t_cap=2))  # m = n: no tail, the head pairs alone
@example(FamilySpec("P", (4, 1), 3, t_cap=2))  # m = n - 1: a tail of one
@example(FamilySpec("P", (2, 1), 5, t_cap=2, x_cap=4))  # a tail of three, x-cap below |mu| + t_cap
@example(FamilySpec("pschur", (4, 2, 1), 5, t_cap=1))  # a tail of two, t = 0 at any t-cap
@example(FamilySpec("P", (2, 1), 1, t_cap=1))  # vanishes
def test_shifted_product_is_the_paper_product_under_antisymmetrization(spec):
    _check_product(spec)


@st.composite
def _head_terms(draw):
    """A head of 1-4 variables in a code with up to two more, and head-only
    terms {(x_exps, t_exps): c}, some of which repeat a head exponent."""
    head = draw(st.integers(1, 4))
    n = head + draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(0, 3)] * head).map(lambda h: h + (0,) * (n - head))
    terms = draw(st.dictionaries(st.tuples(exps, st.tuples(st.integers(0, 2))), st.integers(-3, 3), max_size=12))
    return head, Polynomial(n, 1, terms)


# sorting the head of a term keeps A(term * S) for S symmetric in the head
@settings(max_examples=60, deadline=None)
@given(_head_terms())
@example((2, Polynomial(3, 1, {((1, 1, 0), (0,)): 1, ((1, 2, 0), (1,)): 4, ((2, 1, 0), (1,)): 1})))
@example((3, Polynomial(3, 1, {((0, 2, 1), (0,)): 2, ((2, 2, 0), (0,)): 5})))
def test_head_sort_drops_repeated_heads_and_signs_the_rest(args):
    head, poly = args
    expected = {}
    for (xe, te), c in poly.terms.items():
        h = xe[:head]
        if len(set(h)) == head:
            # the sign of the sort: the parity of the pairs i < j with h_i < h_j
            sign = (-1) ** sum(a < b for i, a in enumerate(h) for b in h[i + 1:])
            mono = (tuple(sorted(h, reverse=True)) + xe[head:], te)
            expected[mono] = expected.get(mono, 0) + sign * c
    code, coded, _ = MonomialCode.encoded(poly)
    assert decoded(code, _head_sorted(code, coded, head)) == Polynomial(poly.nx, 1, expected)


@pytest.mark.parametrize("head,k", [(1, 0), (1, 3), (2, 2), (3, 2), (4, 1), (3, 0), (2, 4)])
def test_head_schur_is_the_schur_polynomial_of_every_shape_in_the_box(head, k):
    n = head + k
    code = MonomialCode(n, 0, head * k, 0)
    got = _head_schur(code, head, k)
    assert set(got) == {pad(lam, head) for lam in subpartitions((k,) * head)}
    for lam, s_lam in got.items():
        # the tableau counter's s_lam in the head, padded with the tail
        s_head = schur(tuple(p for p in lam if p), head)
        assert decoded(code, s_lam) == Polynomial(n, 0, {(xe + (0,) * k, ()): c for (xe, _), c in s_head.terms.items()})


def test_stair_is_one_term_without_a_head_and_the_head_pairs_without_a_tail():
    n = 4
    code = MonomialCode(n, 0, 6, 0)
    assert decoded(code, _stair(code, 0)) == Polynomial.monomial((3, 2, 1, 0), ())
    pairs = one(n, 0)
    for i in range(n):
        for j in range(i + 1, n):
            pairs = pairs * (x_var(i, n) + x_var(j, n))
    assert decoded(code, _stair(code, n)) == pairs
