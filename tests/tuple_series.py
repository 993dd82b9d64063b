"""Tuple-keyed series arithmetic and tuple views of coded results, for tests.

The library multiplies, straightens and expands `MonomialCode` ints.  The
product here multiplies tuple-keyed Polynomials and cuts the result to the
caps, so a test that compares the two checks the codes against arithmetic
that never saw them.  The views encode a Polynomial, run the coded step
and decode its result.
"""

from grothlab.algebra import MonomialCode, Polynomial, TruncatedSeries, schur_to_monomials, straighten


def one(nx: int, nt: int, x_cap: int, t_cap: int) -> TruncatedSeries:
    return TruncatedSeries(Polynomial.constant(1, nx, nt), x_cap, t_cap)


def times(a: TruncatedSeries, b) -> TruncatedSeries:
    """The product of a series and a series or Polynomial, cut to a's caps."""
    poly = b.poly if isinstance(b, TruncatedSeries) else b
    return TruncatedSeries(a.poly * poly, a.x_cap, a.t_cap)


def geometric_factor(i: int, j: int, nx: int, nt: int, x_cap: int, t_cap: int) -> TruncatedSeries:
    """The truncated series x_i * sum_k (t_j x_i)^k = sum_k t_j^k x_i^{k+1}."""
    terms = {}
    for k in range(0, min(t_cap, x_cap - 1) + 1):
        xe = [0] * nx
        te = [0] * nt
        xe[i] = k + 1
        te[j] = k
        terms[(tuple(xe), tuple(te))] = 1
    return TruncatedSeries(Polynomial(nx, nt, terms), x_cap, t_cap)


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
