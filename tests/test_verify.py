from collections import Counter

import pytest

import grothlab.verify as verify
from grothlab.algebra import MonomialCode, Polynomial, TruncatedSeries
from grothlab.partitions import SignedPair, TExtension, pad
from grothlab.polynomials import BasisExpansion
from grothlab.tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    enumerate_rt,
    enumerate_srt,
    enumerate_ssyt,
    enumerate_sst,
)
from grothlab.verify import (
    SUITES,
    _bijection_shapes,
    _route_instances,
    census_scale,
    maximal_suite,
    psi_suite,
    run_suite,
)


def test_census_scale_env(monkeypatch):
    monkeypatch.delenv("GROTHLAB_CENSUS_SCALE", raising=False)
    assert census_scale() == "small"
    monkeypatch.setenv("GROTHLAB_CENSUS_SCALE", "full")
    assert census_scale() == "full"
    monkeypatch.setenv("GROTHLAB_CENSUS_SCALE", "huge")
    with pytest.raises(ValueError):
        census_scale()


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_run_suite_all_covers_every_suite():
    counts = {name: len(suite("small")) for name, suite in SUITES.items()}
    assert len(run_suite("all", "small")) == sum(counts.values())


def test_maximal_suite_names_are_unique():
    results = maximal_suite("small")
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    assert all(r.passed for r in results)


def test_full_route_instances_strictly_contain_small():
    small = set(_route_instances("small"))
    full = set(_route_instances("full"))
    assert small < full
    assert {(n, t_cap) for _, _, n, t_cap in full - small} == {(4, 2), (3, 3)}


def test_a_raising_case_body_fails_that_case_only(monkeypatch):
    passing = [r.name for r in psi_suite("small")]

    def boom(p):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "psi", boom)
    results = psi_suite("small")
    assert [r.name for r in results] == passing
    assert len(results) == len(_bijection_shapes("small"))
    assert all(not r.passed and r.detail == "RuntimeError: boom" for r in results)
    assert all(r.passed for r in maximal_suite("small"))


def test_positivity_case_fails_on_a_wrong_expansion(monkeypatch):
    true_expansion = verify.expansion_via_maximal

    def drop_one_term(spec):
        exp = true_expansion(spec)
        return BasisExpansion(exp.basis, exp.n, exp.nt, exp.coefficients[:-1])

    def add_one_to_a_coefficient(spec):
        exp = true_expansion(spec)
        (lam, coeff), *rest = exp.coefficients
        bumped = ((lam, coeff + Polynomial.constant(1, 0, spec.ell)), *rest)
        return BasisExpansion(exp.basis, exp.n, exp.nt, bumped)

    for family in ("J", "P"):
        assert verify._positivity_case(family, (2, 1), 3, 2) == ""
        for wrong in (drop_one_term, add_one_to_a_coefficient):
            monkeypatch.setattr(verify, "expansion_via_maximal", wrong)
            detail = verify._positivity_case(family, (2, 1), 3, 2)
            assert detail == "maximal-tableau expansion disagrees", wrong.__name__
            monkeypatch.setattr(verify, "expansion_via_maximal", true_expansion)


@pytest.mark.parametrize("mu", [(2, 1), (3, 1), (3, 2)])
def test_pair_census_counts_every_pair(mu):
    # the census multiplies the per-shape Q and R weight counts; walking
    # every pair Q x R, as the census once did, gives the same Counter
    cap_n, cap_d = verify._CAP_N, verify._CAP_D
    shapes = verify._grown_shapes(mu, cap_d)
    strict = [lam for lam in shapes if all(a > b for a, b in zip(lam, lam[1:]))]
    for lams, enum_q, enum_r in (
        (shapes, lambda lam: enumerate_ssyt(lam, cap_n), lambda lam: enumerate_rt(lam, mu)),
        (strict, lambda lam: enumerate_sst(lam, cap_n, signed=True), lambda lam: enumerate_srt(lam, mu)),
    ):
        walked = Counter(
            (pad(q.weight(), cap_n), r.weight(mu[0]))
            for lam in lams
            for r in enum_r(lam)
            for q in enum_q(lam)
        )
        census = verify._pair_census(cap_n, mu[0], ((enum_q(lam), enum_r(lam)) for lam in lams))
        assert census == walked and sum(census.values()) > 0


def test_psi_case_reports_a_failed_round_trip_and_a_maximality_mismatch(monkeypatch):
    assert verify._psi_case((2, 1), 3, 2) == ""
    monkeypatch.setattr(verify, "psi_inverse", lambda q, r: MultisetTableau(()))
    assert verify._psi_case((2, 1), 3, 2) == "round trip failed for (((1,), (1,)), ((2,),))"
    monkeypatch.undo()
    true_test = verify.is_maximal_mt
    monkeypatch.setattr(verify, "is_maximal_mt", lambda t: not true_test(t))
    assert verify._psi_case((2, 1), 3, 2) == "maximality mismatch for (((1,), (1,)), ((2,),))"


def test_phi_case_reports_a_failed_round_trip(monkeypatch):
    monkeypatch.setattr(verify, "phi_inverse", lambda q, r: ShiftedMultisetTableau(()))
    detail = verify._phi_case((2, 1), 3, 2)
    assert detail == "round trip failed for (((Entry(1'),), (Entry(1),)), ((Entry(2'),),))"


def test_routes_case_reports_a_series_not_symmetric_in_x(monkeypatch):
    # both routes return the one series x1, so they agree, but on x1 alone
    code = MonomialCode(2, 2, 1, 0)
    lopsided = TruncatedSeries(code, {code.x_var(0): 1}, 1, 0)
    for route in ("algebraic_series", "combinatorial_series"):
        monkeypatch.setattr(verify, route, lambda spec: lopsided)
    assert verify._routes_case("J", (2, 1), 2, 1) == "series is not symmetric in x"


def test_positivity_case_reports_a_negative_coefficient(monkeypatch):
    true_expansion = verify.expansion_via_maximal

    def negate_one_coefficient(spec):
        exp = true_expansion(spec)
        (lam, coeff), *rest = exp.coefficients
        return BasisExpansion(exp.basis, exp.n, exp.nt, ((lam, -coeff), *rest))

    monkeypatch.setattr(verify, "expansion_via_maximal", negate_one_coefficient)
    for family in ("J", "P"):
        assert verify._positivity_case(family, (2, 1), 3, 2) == "a basis coefficient has a negative term"


# ---------------------------------------------------------------------------
# every other failure text of the psi and phi cases, each reached by
# monkeypatching a map the case calls


def doubled_first_box(q):
    """q with its first entry repeated in its box: no longer single-entry."""
    (first, *row), *rows = q.rows
    return (((first[0],) + first, *row), *rows)


def test_psi_case_reports_an_invalid_image_and_unpreserved_weights(monkeypatch):
    true_psi = verify.psi

    def doubled(p):
        q, r = true_psi(p)
        return MultisetTableau(doubled_first_box(q)), r

    def raised(p):
        q, r = true_psi(p)
        return MultisetTableau(tuple(tuple((v + 1,) for (v,) in row) for row in q.rows)), r

    first = "(((1,), (1,)), ((2,),))"
    monkeypatch.setattr(verify, "psi", doubled)
    assert verify._psi_case((2, 1), 3, 2) == f"invalid image for {first}"
    monkeypatch.setattr(verify, "psi", raised)
    assert verify._psi_case((2, 1), 3, 2) == f"weights not preserved for {first}"


def test_psi_case_reports_a_pair_census_that_differs(monkeypatch):
    true_enumerate = verify.enumerate_ssyt
    monkeypatch.setattr(verify, "enumerate_ssyt", lambda lam, n: true_enumerate(lam, n)[1:])
    assert verify._psi_case((2, 1), 3, 2) == "pair census cardinalities differ per class"


def test_phi_case_reports_an_invalid_image_and_unpreserved_weights(monkeypatch):
    true_phi = verify.phi

    def doubled(p):
        q, r = true_phi(p)
        return ShiftedMultisetTableau(doubled_first_box(q), q.signed), r

    def raised(p):
        q, r = true_phi(p)
        rows = tuple(tuple((Entry(e.value + 1, e.primed),) for (e,) in row) for row in q.rows)
        return ShiftedMultisetTableau(rows, q.signed), r

    first = "(((Entry(1'),), (Entry(1),)), ((Entry(2'),),))"
    monkeypatch.setattr(verify, "phi", doubled)
    assert verify._phi_case((2, 1), 3, 2) == f"invalid image for {first}"
    monkeypatch.setattr(verify, "phi", raised)
    assert verify._phi_case((2, 1), 3, 2) == f"weights not preserved for {first}"


def test_phi_case_reports_an_unsigned_input_that_leaves_its_family(monkeypatch):
    true_phi = verify.phi

    def signed_image(p):
        q, r = true_phi(p)
        return ShiftedMultisetTableau(q.rows, signed=True), r

    monkeypatch.setattr(verify, "phi", signed_image)
    assert verify._phi_case((2, 1), 3, 2) == "unsigned input left the unsigned family"


def test_phi_case_reports_a_maximality_mismatch(monkeypatch):
    true_test = verify.is_maximal_smt
    monkeypatch.setattr(verify, "is_maximal_smt", lambda t: not true_test(t))
    detail = verify._phi_case((2, 1), 3, 2)
    assert detail == "maximality mismatch for (((Entry(1),), (Entry(1),)), ((Entry(2),),))"


def test_phi_case_reports_strip_signs_fibers_that_are_not_uniform(monkeypatch):
    monkeypatch.setattr(verify, "strip_signs", lambda t: t)
    assert verify._phi_case((2, 1), 3, 2) == "strip_signs fibers are not uniform of size 2^m"


def test_phi_case_reports_a_signed_sum_off_its_factor(monkeypatch):
    monkeypatch.setattr(verify, "signed_smt_sum", verify.combinatorial_series)
    assert verify._phi_case((2, 1), 3, 2) == "signed sum is not 2^m times the unsigned sum"


def test_phi_case_reports_a_pair_census_that_differs(monkeypatch):
    true_enumerate = verify.enumerate_sst
    monkeypatch.setattr(
        verify, "enumerate_sst", lambda lam, n, signed: true_enumerate(lam, n, signed=signed)[1:]
    )
    assert verify._phi_case((2, 1), 3, 2) == "pair census cardinalities differ per class"


# ---------------------------------------------------------------------------
# every failure text of the maximal and routes cases, each reached by
# monkeypatching a map the case calls


def test_maximal_case_reports_failed_round_trips(monkeypatch):
    assert verify._maximal_case((2, 1)) == ""
    monkeypatch.setattr(verify, "rt_to_maximal_mt", lambda f: MultisetTableau(()))
    assert verify._maximal_case((2, 1)) == "straight round trip failed for (((1,), (1,)), ((2,),))"
    monkeypatch.undo()
    monkeypatch.setattr(verify, "srt_to_maximal_smt", lambda f: ShiftedMultisetTableau(()))
    detail = verify._maximal_case((2, 1))
    assert detail == "shifted round trip failed for (((Entry(1),), (Entry(1),)), ((Entry(2),),))"


def test_maximal_case_reports_unpreserved_label_weights(monkeypatch):
    # the maps under test never read these weights, so only the case's
    # own comparison sees them change
    monkeypatch.setattr(MultisetTableau, "column_weight", lambda t: ())
    assert verify._maximal_case((2, 1)) == "column weight not preserved"
    monkeypatch.undo()
    monkeypatch.setattr(ShiftedMultisetTableau, "diagonal_weight", lambda t: ())
    assert verify._maximal_case((2, 1)) == "diagonal weight not preserved"


def test_routes_case_reports_routes_that_disagree(monkeypatch):
    code = MonomialCode(2, 2, 1, 0)
    monkeypatch.setattr(verify, "combinatorial_series", lambda spec: TruncatedSeries(code, {}, 1, 0))
    for family in ("J", "P"):
        assert verify._routes_case(family, (2, 1), 2, 1) == "algebraic and combinatorial routes disagree"


def test_routes_case_reports_a_wrong_t0_specialization(monkeypatch):
    for basis in ("schur", "pschur"):
        true_basis = getattr(verify, basis)
        monkeypatch.setattr(verify, basis, lambda mu, n, true_basis=true_basis: true_basis(mu, n) * 2)
    for family in ("J", "P"):
        detail = verify._routes_case(family, (2, 1), 2, 1)
        assert detail == "t=0 specialization is not the undeformed basis"


def test_routes_case_reports_a_wrong_h_product_coefficient(monkeypatch):
    true_route = verify.coefficient_via_hmult
    monkeypatch.setattr(verify, "coefficient_via_hmult", lambda spec, t: true_route(spec, t) * 2)
    for family in ("J", "P"):
        assert verify._routes_case(family, (2, 1), 2, 1) == "h-product coefficient differs at t^(1, 0)"


def test_routes_case_reports_a_wrong_good_extension_route(monkeypatch):
    true_route = verify.hmult_good_extension_route
    monkeypatch.setattr(verify, "hmult_good_extension_route", lambda spec, t: true_route(spec, t) * 2)
    assert verify._routes_case("J", (2, 1), 2, 1) == "good-extension route differs at t^(1, 0)"
    # the route applies to J alone, so P never calls it
    assert verify._routes_case("P", (2, 1), 2, 1) == ""


# ---------------------------------------------------------------------------
# every failure text of the lemma case, each reached by monkeypatching a map
# the case calls; the case (2, 1, 0), T = (2,), c = (2,), n = 3 has bad
# extensions, the first with top (2, 3, 0)

LEMMA = ((2, 1, 0), (2,), (2,), 3)


def test_lemma_case_reports_routes_that_disagree(monkeypatch):
    assert verify._lemma_case(*LEMMA) == ""
    monkeypatch.setattr(verify, "hmult_lemma_split", lambda mu, ts, cs, n: None)
    assert verify._lemma_case(*LEMMA) == "h-product route disagrees with good extensions"


def test_lemma_case_reports_a_good_extension_off_the_partitions(monkeypatch):
    true_split = verify.hmult_lemma_split

    def with_a_non_partition(*args):
        good, bad = true_split(*args)
        return good + [TExtension((2, 1, 0), ((2, 3, 0),), (2,), (2,))], bad

    monkeypatch.setattr(verify, "hmult_lemma_split", with_a_non_partition)
    assert verify._lemma_case(*LEMMA) == "good extension ((2, 3, 0),) contains a non-partition"


def test_lemma_case_reports_iota_reaching_a_good_extension(monkeypatch):
    monkeypatch.setattr(verify, "is_good_extension", lambda ext: True)
    assert verify._lemma_case(*LEMMA) == "iota produced a good extension"


def swapped(pair, a, b):
    """pair with positions a and b of its permutation swapped, the
    extension kept: a sign flip that leaves the extension bad."""
    sigma = list(pair.sigma)
    sigma[a], sigma[b] = sigma[b], sigma[a]
    return SignedPair(tuple(sigma), pair.extension)


def test_lemma_case_reports_iota_keeping_the_sign(monkeypatch):
    monkeypatch.setattr(verify, "iota", lambda pair: pair)
    assert verify._lemma_case(*LEMMA) == "iota did not flip the sign"


def test_lemma_case_reports_iota_that_is_not_an_involution(monkeypatch):
    # swap the first two positions where they ascend, else the last two:
    # from the identity, two steps reach (1, 2, 0)
    def not_an_involution(pair):
        return swapped(pair, *((0, 1) if pair.sigma[0] < pair.sigma[1] else (1, 2)))

    monkeypatch.setattr(verify, "iota", not_an_involution)
    assert verify._lemma_case(*LEMMA) == "iota is not an involution"


def test_lemma_case_reports_iota_moving_the_monomial(monkeypatch):
    # the swap moves the exponents 2 and 3 of the top (2, 3, 0)
    monkeypatch.setattr(verify, "iota", lambda pair: swapped(pair, 0, 1))
    assert verify._lemma_case(*LEMMA) == "iota moved the signed monomial"
