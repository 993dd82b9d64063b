"""Tuple-keyed series arithmetic and tuple views of coded results, for tests.

The library multiplies, straightens and expands `MonomialCode` ints.  The
product here multiplies tuple-keyed Polynomials and cuts the result to the
caps by summing exponents, so a test that compares the two checks the codes
against arithmetic that never saw them.  Only `encoded_series` encodes, to
put a result beside the library's.  The views encode a Polynomial, run the
coded step and decode its result.
"""

from grothlab.algebra import MonomialCode, Polynomial, TruncatedSeries, schur_to_monomials, straighten
from grothlab.tableaux import count_mt_by_code, count_smt_by_code


def cut(p: Polynomial, x_cap: int, t_cap: int) -> Polynomial:
    """The terms of p within both degree caps."""
    return Polynomial(p.nx, p.nt, {m: c for m, c in p.terms.items() if sum(m[0]) <= x_cap and sum(m[1]) <= t_cap})


def encoded_series(p: Polynomial, x_cap: int, t_cap: int) -> TruncatedSeries:
    """The series of p cut to the caps, encoded to compare with a library series."""
    code, coded, _ = MonomialCode.encoded(cut(p, x_cap, t_cap))
    return TruncatedSeries(code, coded, x_cap, t_cap)


def one(nx: int, nt: int) -> Polynomial:
    return Polynomial.constant(1, nx, nt)


def times(a: Polynomial, b: Polynomial, x_cap: int, t_cap: int) -> Polynomial:
    """The product of a and b, cut to the caps."""
    return cut(a * b, x_cap, t_cap)


def geometric_factor(i: int, j: int, nx: int, nt: int, x_cap: int, t_cap: int) -> Polynomial:
    """The truncated series x_i * sum_k (t_j x_i)^k = sum_k t_j^k x_i^{k+1}."""
    terms = {}
    for k in range(0, min(t_cap, x_cap - 1) + 1):
        xe = [0] * nx
        te = [0] * nt
        xe[i] = k + 1
        te[j] = k
        terms[(tuple(xe), tuple(te))] = 1
    return Polynomial(nx, nt, terms)


def x_slice(series: TruncatedSeries, degree: int) -> Polynomial:
    """The terms of total x-degree exactly `degree`."""
    poly = series.poly
    return Polynomial(poly.nx, poly.nt, {m: c for m, c in poly.terms.items() if sum(m[0]) == degree})


def decoded(code: MonomialCode, coded: dict) -> Polynomial:
    return Polynomial(code.nx, code.nt, code.decode(coded))


def straightened(f: Polynomial) -> dict:
    """`straighten` of f, keyed by (lam, t_exps)."""
    code, coded, _ = MonomialCode.encoded(f)
    out = straighten(code, coded)
    _, t_exps = code.parts({t_part for _, t_part in out})
    return {(lam, t_exps[t_part]): c for (lam, t_part), c in out.items()}


def bialternant_quotient(f: Polynomial) -> Polynomial:
    """A(f)/V as `straighten` and `schur_to_monomials` give it."""
    code, coded, _ = MonomialCode.encoded(f)
    return decoded(code, schur_to_monomials(straighten(code, coded), code))


def count_mt_by_weight(shape, max_value: int, extra_cap: int) -> dict:
    """{(x, t): count} of `count_mt_by_code`: x is the weight padded to
    max_value entries and t the column weight."""
    code, counts = count_mt_by_code(shape, max_value, extra_cap)
    return code.decode(counts)


def count_smt_by_weight(shape, max_value: int, extra_cap: int, signed: bool = False) -> dict:
    """{(x, t): count} of `count_smt_by_code`: x is the weight padded to
    max_value entries and t the diagonal weight."""
    code, counts = count_smt_by_code(shape, max_value, extra_cap, signed=signed)
    return code.decode(counts)
