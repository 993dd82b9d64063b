"""Exhaustive desk-scale verification suites.

Each suite runs a fixed census of cases and reports one (name, passed,
detail) triple per case.  A case body returns "" when the case passes and
its failure text otherwise; one runner, `_case`, records it, and records an
exception raised by the body as the failure.  The censuses come in two sizes selected by the
environment variable GROTHLAB_CENSUS_SCALE: "small" (the default, the
acceptance scale) and "full" (adds larger instances, among them the
(n=4, tcap=2) and (n=3, tcap=3) rows of the routes and positivity suites).
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import combinations, permutations, product

from .algebra import Polynomial
from .fixtures import paper_maximal_mt, paper_maximal_smt, paper_rt, paper_srt
from .frozen import Frozen
from .insertion import phi, phi_inverse, psi, psi_inverse
from .partitions import (
    SignedPair,
    hmult_lemma_split,
    is_good_extension,
    iota,
    is_strict_partition,
    pad,
    subpartitions,
)
from .polynomials import (
    FamilySpec,
    algebraic_series,
    coefficient_via_hmult,
    combinatorial_series,
    expansion_via_maximal,
    hmult_good_extension_route,
    pschur,
    schur,
    signed_smt_sum,
    specialize_t,
)
from .tableaux import (
    Entry,
    ShiftedMultisetTableau,
    enumerate_maximal_mt,
    enumerate_maximal_smt,
    enumerate_mt,
    enumerate_rt,
    enumerate_smt,
    enumerate_srt,
    enumerate_ssyt,
    enumerate_sst,
    is_maximal_mt,
    is_maximal_smt,
    is_valid_rt,
    is_valid_srt,
    is_valid_ssyt,
    is_valid_sst,
    maximal_mt_to_rt,
    maximal_smt_to_srt,
    rt_to_maximal_mt,
    srt_to_maximal_smt,
    strip_signs,
)

__all__ = ["CaseResult", "census_scale", "run_suite", "SUITES"]


class CaseResult(Frozen, detail=""):
    __slots__ = ("name", "passed", "detail")


def census_scale() -> str:
    scale = os.environ.get("GROTHLAB_CENSUS_SCALE", "small")
    if scale not in ("small", "full"):
        raise ValueError(f"GROTHLAB_CENSUS_SCALE must be small or full, got {scale!r}")
    return scale


def _case(name: str, body, *args) -> CaseResult:
    """Run body(*args), which returns "" on a pass or the failure text."""
    try:
        detail = body(*args)
    except Exception as ex:
        detail = f"{type(ex).__name__}: {ex}"
    return CaseResult(name, not detail, detail)


# ---------------------------------------------------------------------------
# lemma suite


def _distinct_padded_mus(n: int, part_bound: int):
    """Weakly decreasing tuples of length n with distinct entries <= bound."""
    return sorted(tuple(reversed(c)) for c in combinations(range(part_bound + 1), n))


def _lemma_cases(scale: str):
    ell_max = 2 if scale == "small" else 3
    for n in (1, 2, 3):
        for mu in _distinct_padded_mus(n, 3):
            for ell in range(1, ell_max + 1):
                t_lists = [
                    ts
                    for ts in product(range(4), repeat=ell)
                    if sum(ts) <= 3
                ]
                c_lists = [
                    cs
                    for cs in product(range(1, n + 1), repeat=ell)
                    if all(cs[i] >= cs[i + 1] for i in range(ell - 1))
                ]
                for ts in t_lists:
                    for cs in c_lists:
                        yield mu, ts, cs, n


def _lemma_case(mu, ts, cs, n) -> str:
    split = hmult_lemma_split(mu, ts, cs, n)
    if split is None:
        return "h-product route disagrees with good extensions"
    good, bad = split
    for e in good:
        if any(e.level(h) != tuple(sorted(e.level(h), reverse=True)) for h in range(e.ell + 1)):
            return f"good extension {e.chain} contains a non-partition"
    for ext in bad:
        for sigma in permutations(range(n)):
            pair = SignedPair(sigma, ext)
            img = iota(pair)
            if is_good_extension(img.extension):
                return "iota produced a good extension"
            if img.sign != -pair.sign:
                return "iota did not flip the sign"
            if iota(img) != pair:
                return "iota is not an involution"
            if img.monomial() != pair.monomial():
                return "iota moved the signed monomial"
    return ""


def lemma_suite(scale: str | None = None) -> list[CaseResult]:
    return [
        _case(f"lemma mu={mu} T={ts} c={cs} n={n}", _lemma_case, mu, ts, cs, n)
        for mu, ts, cs, n in _lemma_cases(scale or census_scale())
    ]


# ---------------------------------------------------------------------------
# bijection suites

_CAP_N, _CAP_D = 3, 2  # value and extra-entry caps of the psi/phi censuses


def _bijection_shapes(scale: str):
    shapes = [(2, 1), (3, 1)]
    if scale == "full":
        shapes.append((3, 2))
    return shapes


def _grown_shapes(mu, extra: int):
    """Partitions lam >= mu entrywise with at most `extra` added boxes and
    the same number of rows."""
    mu = tuple(mu)
    size = sum(mu) + extra
    return [
        lam for lam in subpartitions(tuple(p + extra for p in mu))
        if len(lam) == len(mu) and sum(lam) <= size and all(l >= m for l, m in zip(lam, mu))
    ]


def _pair_census(cap_n: int, ell: int, pairs) -> Counter:
    """Counter of (padded Q weight, R weight) over Q x R for each (Qs, Rs)
    in pairs, as the product of the two weight counts: no pair is walked."""
    census = Counter()
    for qs, rs in pairs:
        q_weights = Counter(pad(q.weight(), cap_n) for q in qs)
        for rw, b in Counter(r.weight(ell) for r in rs).items():
            census.update({(qw, rw): a * b for qw, a in q_weights.items()})
    return census


def _psi_case(mu, cap_n: int, cap_d: int) -> str:
    classes = Counter()
    for p in enumerate_mt(mu, cap_n, cap_d):
        q, r = psi(p)
        # psi checks R itself; the image is checked here again, so that the
        # census does not rest on the bijection's internals
        if not (is_valid_ssyt(q) and is_valid_rt(r)):
            return f"invalid image for {p.rows}"
        if q.weight() != p.weight() or r.weight(p.ell) != p.column_weight():
            return f"weights not preserved for {p.rows}"
        # no injectivity check: r.inner is mu padded to len(r.outer), so two
        # tableaux with one (q.rows, r.outer, r.rows) would both equal
        # psi_inverse(q, r), and the round trip fails for one of them
        if psi_inverse(q, r) != p:
            return f"round trip failed for {p.rows}"
        classes[(pad(p.weight(), cap_n), p.column_weight())] += 1
        highest = all(all(b[0] == i + 1 for b in row) for i, row in enumerate(q.rows))
        if highest != is_maximal_mt(p):
            return f"maximality mismatch for {p.rows}"
    rhs = _pair_census(cap_n, mu[0], ((enumerate_ssyt(lam, cap_n), enumerate_rt(lam, mu))
                                      for lam in _grown_shapes(mu, cap_d)))
    return "" if rhs == classes else "pair census cardinalities differ per class"


def _phi_case(mu, cap_n: int, cap_d: int) -> str:
    signed = enumerate_smt(mu, cap_n, cap_d, signed=True)
    unsigned = enumerate_smt(mu, cap_n, cap_d, signed=False)
    m = len(mu)
    for p in signed:
        q, r = phi(p)
        if not (is_valid_sst(ShiftedMultisetTableau(q.rows, signed=True))
                and is_valid_srt(r, mu)):
            return f"invalid image for {p.rows}"
        if q.weight() != p.weight() or r.weight(p.ell) != p.diagonal_weight():
            return f"weights not preserved for {p.rows}"
        if phi_inverse(q, r) != p:
            return f"round trip failed for {p.rows}"
    for p in unsigned:
        q, r = phi(p)
        if q.signed or not is_valid_sst(q):
            return "unsigned input left the unsigned family"
        highest = all(
            all(e == Entry(i + 1) for b in row for e in b)
            for i, row in enumerate(q.rows)
        )
        if highest != is_maximal_smt(p):
            return f"maximality mismatch for {p.rows}"
    fibers = Counter(strip_signs(t) for t in signed)
    if set(fibers) != set(unsigned) or any(v != (1 << m) for v in fibers.values()):
        return "strip_signs fibers are not uniform of size 2^m"
    spec = FamilySpec("P", mu, cap_n, t_cap=cap_d)
    if signed_smt_sum(spec).poly != combinatorial_series(spec).poly * (1 << m):
        return "signed sum is not 2^m times the unsigned sum"
    lhs = Counter((pad(p.weight(), cap_n), p.diagonal_weight()) for p in signed)
    strict = (lam for lam in _grown_shapes(mu, cap_d) if is_strict_partition(lam))
    rhs = _pair_census(cap_n, mu[0], ((enumerate_sst(lam, cap_n, signed=True), enumerate_srt(lam, mu))
                                      for lam in strict))
    return "" if rhs == lhs else "pair census cardinalities differ per class"


def psi_suite(scale: str | None = None) -> list[CaseResult]:
    return [
        _case(f"psi census MT({mu}) values<={_CAP_N} extras<={_CAP_D}",
              _psi_case, mu, _CAP_N, _CAP_D)
        for mu in _bijection_shapes(scale or census_scale())
    ]


def phi_suite(scale: str | None = None) -> list[CaseResult]:
    return [
        _case(f"phi census SMT+-({mu}) values<={_CAP_N} extras<={_CAP_D}",
              _phi_case, mu, _CAP_N, _CAP_D)
        for mu in _bijection_shapes(scale or census_scale())
    ]


def _paper_pair_case(make_tableau, make_filling, to_filling, to_tableau) -> str:
    tableau, filling = make_tableau(), make_filling()
    ok = to_filling(tableau) == filling and to_tableau(filling) == tableau
    return "" if ok else "pair mismatch"


def _maximal_case(mu) -> str:
    for t in enumerate_maximal_mt(mu, 2):
        f = maximal_mt_to_rt(t)
        if not is_valid_rt(f) or rt_to_maximal_mt(f) != t:
            return f"straight round trip failed for {t.rows}"
        if f.weight(t.ell) != t.column_weight():
            return "column weight not preserved"
    for t in enumerate_maximal_smt(mu, 2):
        f = maximal_smt_to_srt(t)
        if not is_valid_srt(f, mu) or srt_to_maximal_smt(f) != t:
            return f"shifted round trip failed for {t.rows}"
        if f.weight(t.ell) != t.diagonal_weight():
            return "diagonal weight not preserved"
    return ""


def maximal_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    return [
        _case("maximal straight paper pair", _paper_pair_case,
              paper_maximal_mt, paper_rt, maximal_mt_to_rt, rt_to_maximal_mt),
        _case("maximal shifted paper pair", _paper_pair_case,
              paper_maximal_smt, paper_srt, maximal_smt_to_srt, srt_to_maximal_smt),
    ] + [_case(f"maximal round trips ({mu})", _maximal_case, mu) for mu in _bijection_shapes(scale)]


# ---------------------------------------------------------------------------
# route and positivity suites


def _route_instances(scale: str):
    bound = (3, 2, 1)
    rows = [(1, 2), (2, 2), (3, 2)]
    if scale == "full":
        rows += [(4, 2), (3, 3)]
    for family in ("J", "P"):
        for mu in subpartitions(bound):
            if family == "P" and not is_strict_partition(mu):
                continue
            for n, t_cap in rows:
                yield family, mu, n, t_cap


def _instance_name(suite: str, family: str, mu, n: int, t_cap: int) -> str:
    return f"{suite} {family} mu={','.join(map(str, mu)) or '0'} n={n} tcap={t_cap}"


def _routes_case(family: str, mu, n: int, t_cap: int) -> str:
    spec = FamilySpec(family, mu, n, t_cap=t_cap)
    alg, comb = algebraic_series(spec), combinatorial_series(spec)
    if alg != comb:
        return "algebraic and combinatorial routes disagree"
    if not alg.poly.is_symmetric_x():
        return "series is not symmetric in x"
    if specialize_t(alg, (0,) * spec.ell) != (pschur if spec.shifted else schur)(mu, n):
        return "t=0 specialization is not the undeformed basis"
    if not spec.ell:
        return ""
    for t_exps in ((1,) + (0,) * (spec.ell - 1), (0,) * (spec.ell - 1) + (1,)):
        got = coefficient_via_hmult(spec, t_exps)
        if got != alg.coefficient_of_t(t_exps):
            return f"h-product coefficient differs at t^{t_exps}"
        if not spec.shifted and hmult_good_extension_route(spec, t_exps) != got:
            return f"good-extension route differs at t^{t_exps}"
    return ""


def _positivity_case(family: str, mu, n: int, t_cap: int) -> str:
    spec = FamilySpec(family, mu, n, t_cap=t_cap)
    series, basis = combinatorial_series(spec), pschur if spec.shifted else schur
    expansion = expansion_via_maximal(spec)
    if not expansion.is_nonnegative():
        return "a basis coefficient has a negative term"
    # basis elements with at most n parts are linearly independent
    if series.poly != Polynomial.from_terms(n, spec.ell, (
        ((xe, te), c * k)
        for lam, coeff in expansion.coefficients
        for (_, te), c in coeff.terms.items()
        for (xe, _), k in basis(lam, n).terms.items()
    )):
        return "maximal-tableau expansion disagrees"
    return ""


def routes_suite(scale: str | None = None) -> list[CaseResult]:
    return [
        _case(_instance_name("routes", *inst), _routes_case, *inst)
        for inst in _route_instances(scale or census_scale())
    ]


def positivity_suite(scale: str | None = None) -> list[CaseResult]:
    return [
        _case(_instance_name("positivity", *inst), _positivity_case, *inst)
        for inst in _route_instances(scale or census_scale())
    ]


SUITES = {
    "lemma": lemma_suite,
    "psi": psi_suite,
    "phi": phi_suite,
    "maximal": maximal_suite,
    "routes": routes_suite,
    "positivity": positivity_suite,
}


def run_suite(name: str, scale: str | None = None) -> list[CaseResult]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(scale))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](scale)
