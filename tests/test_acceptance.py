"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or via the CLI as `grothlab verify all`.
"""

import time

import grothlab.cli as cli
from grothlab.algebra import Polynomial
from grothlab.polynomials import (
    FamilySpec,
    algebraic_series,
    combinatorial_series,
    expand_in_pschur,
    pschur,
    schur,
    signed_smt_sum,
    specialize_t,
)
from grothlab.partitions import subpartitions
from grothlab.verify import (
    lemma_suite,
    maximal_suite,
    phi_suite,
    positivity_suite,
    psi_suite,
    routes_suite,
)
from tuple_series import x_slice


def _report(name: str, failures, elapsed: float, limit: float):
    ok = not failures and elapsed < limit
    mark = "PASS" if ok else "FAIL"
    print(f"{mark} {name} ({elapsed:.1f}s / limit {limit:.0f}s)")
    for f in failures[:10]:
        print(f"     {f}")
    assert not failures, failures[:10]
    assert elapsed < limit, f"{name} took {elapsed:.1f}s"


def _suite_failures(results):
    return [f"{r.name}: {r.detail}" for r in results if not r.passed]


def test_criterion_1_paper_example(capsys):
    start = time.time()
    code = cli.main(["compute", "P", "2,1", "--n", "2", "--tcap", "1"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    failures = []
    if code != 0 or "verdict: AGREE" not in out:
        failures.append("CLI routes disagree")
    spec = FamilySpec("P", (2, 1), 2, t_cap=1)
    series = algebraic_series(spec)
    expected_slice = {
        ((3, 1), (1, 0)): 1,
        ((3, 1), (0, 1)): 1,
        ((2, 2), (1, 0)): 2,
        ((2, 2), (0, 1)): 2,
        ((1, 3), (1, 0)): 1,
        ((1, 3), (0, 1)): 1,
    }
    if x_slice(series, 4).terms != expected_slice:
        failures.append("degree-4 slice differs from the worked example")
    expansion = expand_in_pschur(series, 2)
    t1_plus_t2 = Polynomial.monomial((), (1, 0)) + Polynomial.monomial((), (0, 1))
    if expansion.coefficient((3, 1)) != t1_plus_t2:
        failures.append("P-Schur coefficient of (3,1) is not t1 + t2")
    with capsys.disabled():
        _report("criterion 1: worked-example reproduction", failures, elapsed, 1.0)


def test_criterion_2_route_equivalence(capsys):
    start = time.time()
    failures = _suite_failures(routes_suite("small"))
    # the suite runs the full t-window; also pin the smaller caps explicitly
    for family in ("J", "P"):
        for mu in subpartitions((3, 2, 1)):
            if family == "P" and any(
                mu[i] <= mu[i + 1] for i in range(len(mu) - 1)
            ):
                continue
            for n in (1, 2, 3):
                for t_cap in (0, 1):
                    spec = FamilySpec(family, mu, n, t_cap=t_cap)
                    if algebraic_series(spec) != combinatorial_series(spec):
                        failures.append(f"{family} mu={mu} n={n} tcap={t_cap}")
    elapsed = time.time() - start
    with capsys.disabled():
        _report("criterion 2: route equivalence", failures, elapsed, 300.0)


def test_criterion_3_hmult_lemma(capsys):
    start = time.time()
    failures = _suite_failures(lemma_suite("small"))
    elapsed = time.time() - start
    with capsys.disabled():
        _report("criterion 3: h-multiplication lemma", failures, elapsed, 60.0)


def test_criterion_4_bijections(capsys):
    start = time.time()
    failures = (
        _suite_failures(psi_suite("small"))
        + _suite_failures(phi_suite("small"))
        + _suite_failures(maximal_suite("small"))
    )
    elapsed = time.time() - start
    with capsys.disabled():
        _report("criterion 4: bijection round trips", failures, elapsed, 120.0)


def test_criterion_5_positivity(capsys):
    start = time.time()
    failures = _suite_failures(positivity_suite("small"))
    elapsed = time.time() - start
    with capsys.disabled():
        _report("criterion 5: basis positivity", failures, elapsed, 300.0)


def test_criterion_6_specialization(capsys):
    start = time.time()
    failures = []
    for family in ("J", "P"):
        for mu in subpartitions((3, 2, 1)):
            if family == "P" and any(
                mu[i] <= mu[i + 1] for i in range(len(mu) - 1)
            ):
                continue
            for n in (1, 2, 3):
                spec = FamilySpec(family, mu, n, t_cap=2)
                base = (pschur if spec.shifted else schur)(mu, n)
                if specialize_t(algebraic_series(spec), (0,) * spec.ell) != base:
                    failures.append(f"{family} mu={mu} n={n}")
    elapsed = time.time() - start
    with capsys.disabled():
        _report("criterion 6: t=0 specialization", failures, elapsed, 300.0)


def test_criterion_7_signed_factor(capsys):
    start = time.time()
    failures = []
    for mu in ((2, 1), (3, 1)):
        spec = FamilySpec("P", mu, 3, t_cap=2)
        unsigned = combinatorial_series(spec)
        signed = signed_smt_sum(spec)
        if signed.poly != unsigned.poly * (1 << len(mu)):
            failures.append(f"mu={mu}")
    elapsed = time.time() - start
    with capsys.disabled():
        _report("criterion 7: signed/unsigned factor", failures, elapsed, 120.0)
