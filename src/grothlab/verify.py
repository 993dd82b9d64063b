"""Exhaustive desk-scale verification suites.

Each suite runs a fixed census of cases and reports one (name, passed,
detail) triple per case.  The censuses come in two sizes selected by the
environment variable GROTHLAB_CENSUS_SCALE: "small" (the default, the
acceptance scale) and "full" (adds larger instances, among them the
(n=4, tcap=2) and (n=3, tcap=3) rows of the routes and positivity suites).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .algebra import Polynomial
from .insertion import phi, phi_inverse, psi, psi_inverse
from .partitions import (
    SignedPair,
    antisymmetrized_tops,
    enumerate_extensions,
    hmult_lhs,
    is_good_extension,
    iota,
    pad,
    subpartitions,
)
from .polynomials import (
    FamilySpec,
    coefficient_via_hmult,
    expand_in_pschur,
    expand_in_schur,
    expansion_via_maximal,
    grothendieck_J_algebraic,
    grothendieck_J_combinatorial,
    grothendieck_P_algebraic,
    grothendieck_P_combinatorial,
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


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    detail: str = ""


def census_scale() -> str:
    scale = os.environ.get("GROTHLAB_CENSUS_SCALE", "small")
    if scale not in ("small", "full"):
        raise ValueError(f"GROTHLAB_CENSUS_SCALE must be small or full, got {scale!r}")
    return scale


def _check(name: str, ok: bool, detail: str = "") -> CaseResult:
    return CaseResult(name, bool(ok), "" if ok else detail)


# ---------------------------------------------------------------------------
# lemma suite


def _distinct_padded_mus(n: int, part_bound: int):
    """Weakly decreasing tuples of length n with distinct entries <= bound."""
    out = []
    for combo in combinations_with_replacement(range(part_bound + 1), n):
        parts = tuple(sorted(combo, reverse=True))
        if len(set(parts)) == n:
            out.append(parts)
    return sorted(set(out))


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


def lemma_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    results = []
    for mu, ts, cs, n in _lemma_cases(scale):
        name = f"lemma mu={mu} T={ts} c={cs} n={n}"
        try:
            exts = enumerate_extensions(mu, ts, cs)
            good = [e for e in exts if is_good_extension(e)]
            bad = [e for e in exts if not is_good_extension(e)]
            lhs = hmult_lhs(mu, ts, cs, n)
            ok = lhs == antisymmetrized_tops(good, n) and not antisymmetrized_tops(bad, n)
            detail = "" if ok else "h-product route disagrees with good extensions"
            if ok:
                for e in good:
                    if any(e.level(h) != tuple(sorted(e.level(h), reverse=True)) for h in range(e.ell + 1)):
                        ok, detail = False, f"good extension {e.chain} contains a non-partition"
                        break
            if ok:
                for ext in bad:
                    for sigma in permutations(range(n)):
                        pair = SignedPair(sigma, ext)
                        img = iota(pair)
                        if is_good_extension(img.extension):
                            ok, detail = False, "iota produced a good extension"
                            break
                        if img.sign != -pair.sign:
                            ok, detail = False, "iota did not flip the sign"
                            break
                        if iota(img) != pair:
                            ok, detail = False, "iota is not an involution"
                            break
                        if img.monomial() != pair.monomial():
                            ok, detail = False, "iota moved the signed monomial"
                            break
                    if not ok:
                        break
            results.append(_check(name, ok, detail))
        except Exception as ex:  # pragma: no cover - defensive reporting
            results.append(CaseResult(name, False, f"{type(ex).__name__}: {ex}"))
    return results


# ---------------------------------------------------------------------------
# bijection suites


def _bijection_shapes(scale: str):
    shapes = [(2, 1), (3, 1)]
    if scale == "full":
        shapes.append((3, 2))
    return shapes


def _grown_shapes(mu, extra: int):
    """Partitions lam >= mu entrywise with at most `extra` added boxes and
    the same number of rows."""
    mu = tuple(mu)
    out = []

    def grow(prefix, r, left):
        if r == len(mu):
            out.append(tuple(prefix))
            return
        hi = mu[r] + left
        if r > 0:
            hi = min(hi, prefix[-1])
        for v in range(mu[r], hi + 1):
            grow(prefix + [v], r + 1, left - (v - mu[r]))

    grow([], 0, extra)
    return out


def psi_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    results = []
    cap_n, cap_d = 3, 2
    for mu in _bijection_shapes(scale):
        name = f"psi census MT({mu}) values<={cap_n} extras<={cap_d}"
        try:
            census = enumerate_mt(mu, cap_n, cap_d)
            seen = set()
            ok, detail = True, ""
            classes = Counter()
            for p in census:
                q, r = psi(p)
                if not (is_valid_ssyt(q) and is_valid_rt(r)):
                    ok, detail = False, f"invalid image for {p.rows}"
                    break
                if q.weight() != p.weight() or r.weight(p.ell) != p.column_weight():
                    ok, detail = False, f"weights not preserved for {p.rows}"
                    break
                if psi_inverse(q, r) != p:
                    ok, detail = False, f"round trip failed for {p.rows}"
                    break
                key = (q.rows, r.outer, r.rows)
                if key in seen:
                    ok, detail = False, "psi is not injective"
                    break
                seen.add(key)
                classes[(pad(p.weight(), cap_n), p.column_weight())] += 1
                highest = all(
                    all(b[0] == i + 1 for b in row) for i, row in enumerate(q.rows)
                )
                if highest != is_maximal_mt(p):
                    ok, detail = False, f"maximality mismatch for {p.rows}"
                    break
            if ok:
                rhs = Counter()
                for lam in _grown_shapes(mu, cap_d):
                    for r in enumerate_rt(lam, mu):
                        for q in enumerate_ssyt(lam, cap_n):
                            rhs[(pad(q.weight(), cap_n), r.weight(mu[0]))] += 1
                if rhs != classes:
                    ok, detail = False, "pair census cardinalities differ per class"
            results.append(_check(name, ok, detail))
        except Exception as ex:  # pragma: no cover
            results.append(CaseResult(name, False, f"{type(ex).__name__}: {ex}"))
    return results


def phi_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    results = []
    cap_n, cap_d = 3, 2
    for mu in _bijection_shapes(scale):
        name = f"phi census SMT+-({mu}) values<={cap_n} extras<={cap_d}"
        try:
            signed = enumerate_smt(mu, cap_n, cap_d, signed=True)
            unsigned = enumerate_smt(mu, cap_n, cap_d, signed=False)
            m = len(mu)
            ok, detail = True, ""
            for p in signed:
                q, r = phi(p)
                if not (is_valid_sst(ShiftedMultisetTableau(q.rows, signed=True))
                        and is_valid_srt(r, mu)):
                    ok, detail = False, f"invalid image for {p.rows}"
                    break
                if q.weight() != p.weight() or r.weight(p.ell) != p.diagonal_weight():
                    ok, detail = False, f"weights not preserved for {p.rows}"
                    break
                if phi_inverse(q, r) != p:
                    ok, detail = False, f"round trip failed for {p.rows}"
                    break
            if ok:
                for p in unsigned:
                    q, r = phi(p)
                    if q.signed or not is_valid_sst(q):
                        ok, detail = False, "unsigned input left the unsigned family"
                        break
                    highest = all(
                        all(e == Entry(i + 1) for b in row for e in b)
                        for i, row in enumerate(q.rows)
                    )
                    if highest != is_maximal_smt(p):
                        ok, detail = False, f"maximality mismatch for {p.rows}"
                        break
            if ok:
                fibers = Counter(strip_signs(t) for t in signed)
                if set(fibers) != set(unsigned) or any(
                    v != (1 << m) for v in fibers.values()
                ):
                    ok, detail = False, "strip_signs fibers are not uniform of size 2^m"
            if ok:
                spec = FamilySpec("P", mu, cap_n, t_cap=cap_d)
                if signed_smt_sum(spec).poly != grothendieck_P_combinatorial(spec).poly * (1 << m):
                    ok, detail = False, "signed sum is not 2^m times the unsigned sum"
            if ok:
                lhs = Counter(
                    (pad(p.weight(), cap_n), p.diagonal_weight()) for p in signed
                )
                rhs = Counter()
                strict_shapes = [
                    lam
                    for lam in _grown_shapes(mu, cap_d)
                    if all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))
                ]
                for lam in strict_shapes:
                    for r in enumerate_srt(lam, mu):
                        for q in enumerate_sst(lam, cap_n, signed=True):
                            rhs[(pad(q.weight(), cap_n), r.weight(mu[0]))] += 1
                if rhs != lhs:
                    ok, detail = False, "pair census cardinalities differ per class"
            results.append(_check(name, ok, detail))
        except Exception as ex:  # pragma: no cover
            results.append(CaseResult(name, False, f"{type(ex).__name__}: {ex}"))
    return results


def maximal_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    results = []

    maxmt = rt_ex = None
    try:
        from .fixtures import paper_maximal_mt, paper_rt, paper_maximal_smt, paper_srt

        maxmt, rt_ex = paper_maximal_mt(), paper_rt()
        ok = maximal_mt_to_rt(maxmt) == rt_ex and rt_to_maximal_mt(rt_ex) == maxmt
        results.append(_check("maximal straight paper pair", ok, "pair mismatch"))
        maxsmt, srt_ex = paper_maximal_smt(), paper_srt()
        ok = maximal_smt_to_srt(maxsmt) == srt_ex and srt_to_maximal_smt(srt_ex) == maxsmt
        results.append(_check("maximal shifted paper pair", ok, "pair mismatch"))
    except Exception as ex:  # pragma: no cover
        results.append(CaseResult("maximal paper pairs", False, f"{type(ex).__name__}: {ex}"))

    for mu in _bijection_shapes(scale):
        name = f"maximal round trips ({mu})"
        try:
            ok, detail = True, ""
            for t in enumerate_maximal_mt(mu, 2):
                f = maximal_mt_to_rt(t)
                if not is_valid_rt(f) or rt_to_maximal_mt(f) != t:
                    ok, detail = False, f"straight round trip failed for {t.rows}"
                    break
                if f.weight(t.ell) != t.column_weight():
                    ok, detail = False, "column weight not preserved"
                    break
            if ok:
                for t in enumerate_maximal_smt(mu, 2):
                    f = maximal_smt_to_srt(t)
                    if not is_valid_srt(f, mu) or srt_to_maximal_smt(f) != t:
                        ok, detail = False, f"shifted round trip failed for {t.rows}"
                        break
                    if f.weight(t.ell) != t.diagonal_weight():
                        ok, detail = False, "diagonal weight not preserved"
                        break
            results.append(_check(name, ok, detail))
        except Exception as ex:  # pragma: no cover
            results.append(CaseResult(name, False, f"{type(ex).__name__}: {ex}"))
    return results


# ---------------------------------------------------------------------------
# route and positivity suites


def _route_instances(scale: str):
    bound = (3, 2, 1)
    rows = [(1, 2), (2, 2), (3, 2)]
    if scale == "full":
        rows += [(4, 2), (3, 3)]
    for family in ("J", "P"):
        for mu in subpartitions(bound):
            if family == "P" and mu and not all(
                mu[i] > mu[i + 1] for i in range(len(mu) - 1)
            ):
                continue
            for n, t_cap in rows:
                yield family, mu, n, t_cap


def routes_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    results = []
    for family, mu, n, t_cap in _route_instances(scale):
        name = f"routes {family} mu={','.join(map(str, mu)) or '0'} n={n} tcap={t_cap}"
        try:
            spec = FamilySpec(family, mu, n, t_cap=t_cap)
            if family == "J":
                alg = grothendieck_J_algebraic(spec)
                comb = grothendieck_J_combinatorial(spec)
                base = schur(mu, n)
            else:
                alg = grothendieck_P_algebraic(spec)
                comb = grothendieck_P_combinatorial(spec)
                base = pschur(mu, n) if len(mu) <= n else Polynomial.zero(n, 0)
            ok, detail = True, ""
            if alg != comb:
                ok, detail = False, "algebraic and combinatorial routes disagree"
            if ok and not alg.poly.is_symmetric_x():
                ok, detail = False, "series is not symmetric in x"
            if ok and specialize_t(alg, (0,) * spec.ell) != base:
                ok, detail = False, "t=0 specialization is not the undeformed basis"
            if ok and spec.ell:
                for t_exps in ((1,) + (0,) * (spec.ell - 1), (0,) * (spec.ell - 1) + (1,)):
                    got = coefficient_via_hmult(spec, t_exps)
                    if got != alg.coefficient_of_t(t_exps):
                        ok, detail = False, f"h-product coefficient differs at t^{t_exps}"
                        break
                    if family == "J" and hmult_good_extension_route(spec, t_exps) != got:
                        ok, detail = False, f"good-extension route differs at t^{t_exps}"
                        break
            results.append(_check(name, ok, detail))
        except Exception as ex:  # pragma: no cover
            results.append(CaseResult(name, False, f"{type(ex).__name__}: {ex}"))
    return results


def positivity_suite(scale: str | None = None) -> list[CaseResult]:
    scale = scale or census_scale()
    results = []
    for family, mu, n, t_cap in _route_instances(scale):
        name = f"positivity {family} mu={','.join(map(str, mu)) or '0'} n={n} tcap={t_cap}"
        try:
            spec = FamilySpec(family, mu, n, t_cap=t_cap)
            if family == "J":
                series = grothendieck_J_combinatorial(spec)
                expansion = expand_in_schur(series, n)
            else:
                series = grothendieck_P_combinatorial(spec)
                expansion = expand_in_pschur(series, n)
            ok, detail = True, ""
            if not expansion.is_nonnegative():
                ok, detail = False, "a basis coefficient has a negative term"
            if ok and expansion != expansion_via_maximal(spec):
                ok, detail = False, "maximal-tableau expansion disagrees"
            results.append(_check(name, ok, detail))
        except Exception as ex:  # pragma: no cover
            results.append(CaseResult(name, False, f"{type(ex).__name__}: {ex}"))
    return results


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
