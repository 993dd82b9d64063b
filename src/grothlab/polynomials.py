"""The polynomial families: Schur, P-Schur, and their weak deformations.

Every family has two independent routes: the algebraic one (an
antisymmetrized or coset-summed product of truncated geometric factors,
divided exactly by the Vandermonde) and the combinatorial one (a weighted
sum over multiset or shifted multiset tableaux).  Matching results from
the two routes is the core correctness check of the whole library.  The
routes read two things of a family off its `FamilySpec`: whether it is
shifted (P, pschur) and the t-cap they work at, which is 0 for the
undeformed families schur and pschur, J and P at t = 0.

The combinatorial route builds no tableau.  `count_mt_by_code` and
`count_smt_by_code` count the tableaux by (x, t) = (weight, column or
diagonal weight), keyed by the `MonomialCode` of x^x t^t, and those counts
are the terms of the resulting series as they stand: a series holds only
{code: c}, decodes it into a Polynomial when `.poly` is read, and is
printed straight from the codes.
They fill the cells in row order, where a cell's admissible boxes depend
only on its left and upper boxes (one helper per family states the rule),
so the completions of a partial filling depend only on the next cell, the
frontier of boxes later cells still read, and the extra entries left; each
such state is counted once per call (the transfer-matrix method).  `schur`
and `pschur` are the same counts with no extra entries, where t is zero.

The algebraic route computes neither the antisymmetrization A(f) nor its
quotient by the Vandermonde V.  By the bialternant rule
A(x^a)/V = sign(w) s_{w(a) - delta} (w sorts a decreasingly; 0 if a
repeats a part), `straighten` reads A(f)/V off the product f term by term
as Schur coefficients.  Kostka numbers, built by the Pieri rule with no
polynomial, turn them into monomials; `_from_schur` turns them into a
basis expansion.  Every family has one product, `_product`: for a shifted
family the tail Vandermonde of the coset sum is replaced by its leading
monomial, which turns the coset sum into a plain A(f)/V.  The product,
`straighten` and `schur_to_monomials` work in one `MonomialCode` and the
series is printed from its codes, with no (x, t) tuple.  The h-product
reference keeps the explicit antisymmetrize, coset-sum and division path.

Everything is exact: integer coefficients throughout, with the t-degree
cap as the only source of truncation.  Within the cap window the x-degree
of every term equals |mu| plus its t-degree, so any x-cap of at least
|mu| + t_cap loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import zip_longest

from .algebra import (
    MonomialCode,
    Polynomial,
    TruncatedSeries,
    antisymmetrize,
    coset_sum,
    divide_exact,
    h_polynomial,
    schur_to_monomials,
    straighten,
    vandermonde,
    x_var,
)
from .partitions import (
    column_heights,
    is_partition,
    is_strict_partition,
    pad,
    staircase,
)
from .tableaux import (
    count_mt_by_code,
    count_smt_by_code,
    maximal_box_sizes,
)

__all__ = [
    "ExpansionError",
    "FamilySpec",
    "BasisExpansion",
    "schur",
    "pschur",
    "algebraic_series",
    "combinatorial_series",
    "signed_smt_sum",
    "coefficient_via_hmult",
    "hmult_good_extension_route",
    "basis_expansion",
    "expand_in_schur",
    "expand_in_pschur",
    "expansion_via_maximal",
    "specialize_t",
]


class ExpansionError(ValueError):
    """A polynomial does not expand in the requested basis."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one polynomial computation.

    `family` is one of 'J', 'P', 'schur', 'pschur'.  The t-variable count
    is always ell = mu_1.  When mu needs more rows than there are
    x-variables the family vanishes; both routes then return the zero
    series.  The routes read only `shifted` and `work_t_cap` of the
    family; the printed caps come from `t_cap` and `x_cap`.
    """

    family: str
    mu: tuple[int, ...]
    n: int
    t_cap: int = 1
    x_cap: int | None = None

    def __post_init__(self):
        if self.family not in ("J", "P", "schur", "pschur"):
            raise ValueError(f"unknown family {self.family!r}")
        if not is_partition(self.mu):
            raise ValueError(f"mu must be a partition without trailing zeros: {self.mu}")
        if self.shifted and not is_strict_partition(self.mu):
            raise ValueError(f"family {self.family} needs a strict partition: {self.mu}")
        if self.n < 1:
            raise ValueError("need at least one x-variable")
        if self.t_cap < 0:
            raise ValueError("t_cap must be nonnegative")
        if self.x_cap is not None and self.x_cap < 0:
            raise ValueError("x_cap must be nonnegative")

    @property
    def ell(self) -> int:
        return self.mu[0] if self.mu else 0

    @property
    def shifted(self) -> bool:
        """P and pschur count shifted tableaux; J and schur straight ones."""
        return self.family in ("P", "pschur")

    @property
    def work_t_cap(self) -> int:
        """The t-cap the routes work at: schur and pschur are J and P at
        t = 0, lifted to the spec's caps."""
        return self.t_cap if self.family in ("J", "P") else 0

    @property
    def weight_size(self) -> int:
        return sum(self.mu)

    def effective_x_cap(self) -> int:
        if self.x_cap is not None:
            return self.x_cap
        return self.weight_size + self.t_cap * self.ell * self.n

    def vanishes(self) -> bool:
        return len(self.mu) > self.n


# ---------------------------------------------------------------------------
# undeformed bases


def _x_part(code, counts) -> Polynomial:
    """The t-free polynomial of coded counts taken with no extra entries,
    so that t is zero throughout."""
    xs, split = code.parts(counts)[0], code.split
    return Polynomial(code.nx, 0, {(xs[k // split], ()): c for k, c in counts.items()})


@lru_cache(maxsize=None)
def schur(lam: tuple[int, ...], n: int) -> Polynomial:
    """Schur polynomial as the tableau generating function."""
    lam = tuple(p for p in lam if p)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return _x_part(*count_mt_by_code(lam, n, 0))


@lru_cache(maxsize=None)
def pschur(lam: tuple[int, ...], n: int) -> Polynomial:
    """P-Schur polynomial as the shifted tableau generating function."""
    lam = tuple(lam)
    if not is_strict_partition(lam):
        raise ValueError(f"not a strict partition: {lam}")
    return _x_part(*count_smt_by_code(lam, n, 0))


# ---------------------------------------------------------------------------
# the two routes


def _times(a: dict, b: dict) -> dict:
    """The product of two {code: c} whose products stay within the code."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return out


def _stair(code: MonomialCode, head: int) -> dict:
    """x^delta with each factor x_i, i < head, of it made (x_i + x_j), as
    {code: c}.  Every term has x-degree n(n-1)/2, which the code covers."""
    n = code.nx
    stair = {code.part([0] * head + list(range(n - 1 - head, -1, -1))) * code.split: 1}
    for i in range(head):
        for j in range(i + 1, n):
            stair = _times(stair, dict.fromkeys((code.x_var(i), code.x_var(j)), 1))
    return stair


def _product(spec: FamilySpec) -> tuple[MonomialCode, dict]:
    """x^delta times the geometric rows of mu, truncated to the caps, as a
    `MonomialCode` and {code: c}; for a shifted family, each factor x_i of
    x^delta with i < m becomes (x_i + x_j).

    The P coset sum over S_n / S_{n-m} is A(f)/(n-m)! for the paper's
    product f = g * V_tail, where V_tail = prod_{m<=i<j} (x_i - x_j) and g
    (the geometric rows times the pair factors of the rows i < m) is
    symmetric in the n - m tail variables.  Each term sign(s) s(x_tail^delta)
    of V_tail gives A(g * s(x_tail^delta)) = sign(s) A(g * x_tail^delta), so
    A(f) = (n-m)! A(g * x_tail^delta): the coset sum is A of this product,
    with no division.

    The rows are multiplied first, capped at x-degree x_row = x_work - D,
    D = n(n-1)/2 the degree of every term of the stair (`_stair`), which
    comes last with no test: no term comes back under a cap once past it.
    A product's code is the sum of its factors' codes.  A row factor's term
    t_j^k x_i^(k+1) has |x| = |t| + 1, so after r row factors every term
    has |x| = r + |t|, and both caps are |x| <= min(x_row, r + t_cap): the
    code is below (that + 1) B^n split, the place of its leading digit.
    The base B may exceed x_work by only one, so a sum of codes can carry
    out of a digit, but every term has |x| >= |t|.  So when a sum's |x| is
    within the cap, every digit (x_i, |t|, t_j) is at most |x| < B and none
    carries; when it is past, the leading digit alone puts the code at or
    past the limit, carry or not, and the test drops it.
    """
    n, ell, t_cap = spec.n, spec.ell, spec.work_t_cap
    stair_degree = n * (n - 1) // 2
    x_row = min(spec.effective_x_cap(), spec.weight_size + t_cap)
    code = MonomialCode(n, ell, x_row + stair_degree, t_cap)
    if spec.vanishes():
        return code, {}
    base = code.base
    x_place, t_place = base ** n * code.split, base ** ell  # of the |x| and |t| digits
    prod = {0: 1}
    rows = 0  # the row factors multiplied in so far
    for i, part in enumerate(spec.mu):
        x_unit = code.x_var(i)
        t_j_place = 1  # the place B^(ell-1-j) of the t_j digit, as j falls
        for _ in range(part):  # j from ell - 1 down to ell - part
            rows += 1
            x_limit = (min(x_row, rows + t_cap) + 1) * x_place
            t_unit = t_place + t_j_place
            t_j_place *= base
            # t_j^k x_i^(k+1) for the k within the caps, in increasing degree:
            # a sum past the cap leaves every later one past it too
            factor = [(k + 1) * x_unit + k * t_unit for k in range(min(t_cap, x_row - 1) + 1)]
            out = {}
            for ka, ca in prod.items():
                for kb in factor:
                    k = ka + kb
                    if k >= x_limit:
                        break
                    # every factor has positive coefficients, so no sum cancels to zero
                    out[k] = out.get(k, 0) + ca
            prod = out
    return code, _times(prod, _stair(code, len(spec.mu) if spec.shifted else 0))


def algebraic_series(spec: FamilySpec) -> TruncatedSeries:
    """The bialternant route: A(f)/V for the truncated product f.

    For a shifted family this is the coset sum over S_n / S_{n-m} of the
    signed product, divided by V: `_product` carries the tail staircase in
    place of the tail Vandermonde (see there).  The quotient is read off f
    as Schur coefficients by `straighten` and expanded into monomials by
    `schur_to_monomials`, all in the product's `MonomialCode`; it equals
    the exact quotient of the antisymmetrized f by the Vandermonde.
    """
    code, product = _product(spec)
    quotient = schur_to_monomials(straighten(code, product), code)
    return TruncatedSeries(code, quotient, spec.effective_x_cap(), spec.t_cap)


def combinatorial_series(spec: FamilySpec) -> TruncatedSeries:
    """Tableau route: the sum of t^cw x^wt over capped multiset tableaux,
    or of t^dw x^wt over capped shifted multiset tableaux."""
    count = count_smt_by_code if spec.shifted else count_mt_by_code
    code, counts = count(spec.mu, spec.n, spec.work_t_cap)
    return TruncatedSeries(code, counts, spec.effective_x_cap(), spec.t_cap)


def signed_smt_sum(spec: FamilySpec) -> TruncatedSeries:
    """Sum over the signed census; equals 2^m times the unsigned route."""
    if not spec.shifted:
        raise ValueError("the signed census applies to shifted families")
    code, counts = count_smt_by_code(spec.mu, spec.n, spec.work_t_cap, signed=True)
    return TruncatedSeries(code, counts, spec.effective_x_cap(), spec.t_cap)


# ---------------------------------------------------------------------------
# the t-coefficient through the h-product identity


def _h_product(t_exps, heights, n: int) -> Polynomial:
    out = Polynomial.constant(1, n, 0)
    for h, t_h in enumerate(t_exps, start=1):
        out = out * h_polynomial(t_h, heights[h], n)
    return out


def coefficient_via_hmult(spec: FamilySpec, t_exps) -> Polynomial:
    """The x-coefficient of t^T computed by the h-product route.

    For family J the product is antisymmetrized against the staircase-shifted
    monomial; for family P it is coset-summed with the pair factors.  The
    result must match the same coefficient extracted from the algebraic
    series.
    """
    t_exps = tuple(t_exps)
    n, ell = spec.n, spec.ell
    if len(t_exps) != ell:
        raise ValueError(f"need exactly {ell} t-exponents")
    heights = column_heights(spec.mu)
    if spec.vanishes():
        return Polynomial.zero(n, 0)
    if spec.family == "J":
        mu_p = pad(spec.mu, n)
        exps = tuple(a + b for a, b in zip(mu_p, staircase(n)))
        f = _h_product(t_exps, heights, n) * Polynomial.monomial(exps, ())
        return divide_exact(antisymmetrize(f, n), vandermonde(n))
    if spec.family == "P":
        m = len(spec.mu)
        f = _h_product(t_exps, heights, n) * Polynomial.monomial(pad(spec.mu, n), ())
        for i in range(m):
            for j in range(i + 1, n):
                f = f * (x_var(i, n) + x_var(j, n))
        for i in range(m, n):
            for j in range(i + 1, n):
                f = f * (x_var(i, n) - x_var(j, n))
        return divide_exact(coset_sum(f, n, m), vandermonde(n))
    raise ValueError("coefficient_via_hmult applies to families J and P")


def hmult_good_extension_route(spec: FamilySpec, t_exps) -> Polynomial:
    """Family J only: the same t-coefficient summed over good extensions."""
    from .partitions import hmult_rhs_good

    t_exps = tuple(t_exps)
    n = spec.n
    if spec.family != "J":
        raise ValueError("the good-extension route applies to family J")
    if spec.vanishes():
        return Polynomial.zero(n, 0)
    heights = column_heights(spec.mu)
    ell = spec.ell
    mu_p = pad(spec.mu, n)
    base = tuple(a + b for a, b in zip(mu_p, staircase(n)))
    increments = tuple(t_exps[h - 1] for h in range(ell, 0, -1))
    columns = tuple(heights[h] for h in range(ell, 0, -1))
    return divide_exact(hmult_rhs_good(base, increments, columns, n), vandermonde(n))


# ---------------------------------------------------------------------------
# basis expansions


@dataclass(frozen=True)
class BasisExpansion:
    """Finitely supported map from basis indices to t-polynomials."""

    basis: str
    n: int
    nt: int
    coefficients: tuple[tuple[tuple[int, ...], Polynomial], ...]

    @classmethod
    def from_dict(cls, basis: str, n: int, nt: int, coeffs: dict) -> "BasisExpansion":
        items = tuple(
            (lam, coeffs[lam])
            for lam in sorted(coeffs, key=lambda l: (sum(l), l), reverse=True)
            if coeffs[lam]
        )
        return cls(basis, n, nt, items)

    def as_dict(self) -> dict:
        return dict(self.coefficients)

    def coefficient(self, lam) -> Polynomial:
        return self.as_dict().get(tuple(lam), Polynomial.zero(0, self.nt))

    def is_nonnegative(self) -> bool:
        return all(
            c >= 0 for _, poly in self.coefficients for c in poly.terms.values()
        )


def _from_schur(code: MonomialCode, coeffs: dict, basis: str) -> BasisExpansion:
    """The `basis` ('schur' or 'pschur') expansion of `straighten`'s output
    in `code`, which covers deg x^delta plus every |lam|.

    P_lam is s_lam plus Schur terms lower in dominance order (Macdonald,
    III §8), so the graded-lex largest lam left leads: its t-coefficient is
    read off and that multiple of P_lam subtracted.  P_lam is straightened
    from x^lam times the P stair of len(lam) rows, the P product at
    t_cap = 0, built in `code` once per row count.  A non-strict leader has
    no P-Schur expansion.
    """
    n, nt = code.nx, code.nt
    _, t_exps = code.parts({t_part for _, t_part in coeffs})
    stair = cache(partial(_stair, code))

    @cache
    def in_schur(lam):
        if basis == "schur":
            return {lam: 1}
        shape = tuple(p for p in lam if p)
        if not is_strict_partition(shape):
            raise ExpansionError(f"leading shape {shape} is not strict")
        shift = code.part(lam) * code.split
        product = {k + shift: c for k, c in stair(len(shape)).items()}
        return {nu: k for (nu, _), k in straighten(code, product).items()}

    rem = {lam: Polynomial(0, nt) for lam, _ in coeffs}
    for (lam, t_part), c in coeffs.items():
        rem[lam].terms[((), t_exps[t_part])] = c  # straighten stores no zero
    out = {}
    while rem:
        lam = max(rem, key=lambda l: (sum(l), l))
        lead = out[tuple(p for p in lam if p)] = rem[lam]
        for nu, k in in_schur(lam).items():
            rem[nu] = rem.get(nu, Polynomial(0, nt)) - lead * k
        rem = {nu: c for nu, c in rem.items() if c}
    return BasisExpansion.from_dict(basis, n, nt, out)


def basis_expansion(spec: FamilySpec) -> BasisExpansion:
    """J_mu in Schur or P_mu in P-Schur polynomials, read off the Schur
    coefficients `straighten` gives the algebraic product, with no monomial.

    For J these do not depend on n.  The J product is x^delta times
    g(x_1..x_m), m = len(mu), so every head exponent a_i + n-1-i (i < m) is
    at least n-m, above every tail exponent n-1-i (i >= m).  Sorting a
    term's exponents only permutes the head, so neither lam nor sign(w)
    depends on n.
    """
    code, product = _product(spec)
    return _from_schur(code, straighten(code, product), "pschur" if spec.shifted else "schur")


def _read_symmetric(f, n: int, basis: str) -> BasisExpansion:
    # A(f x^delta)/V = f for symmetric f (Macdonald, I §3)
    poly = f.poly if isinstance(f, TruncatedSeries) else f
    if not poly.is_symmetric_x():
        raise ExpansionError("polynomial is not symmetric in the x-block")
    shifted = poly * Polynomial.monomial(staircase(n), (0,) * poly.nt)
    code, coded, _ = MonomialCode.encoded(shifted)
    return _from_schur(code, straighten(code, coded), basis)


def expand_in_schur(f, n: int) -> BasisExpansion:
    """Expansion of a symmetric f in the Schur polynomials s_lam(x_1..x_n)."""
    return _read_symmetric(f, n, "schur")


def expand_in_pschur(f, n: int) -> BasisExpansion:
    """Expansion of a symmetric f in the P-Schur polynomials P_lam(x_1..x_n)."""
    return _read_symmetric(f, n, "pschur")


def expansion_via_maximal(spec: FamilySpec) -> BasisExpansion:
    """Expansion read off maximal tableaux: index lambda gets sum of t^cw
    (or t^dw) over the maximal tableaux of weight lambda.

    Each tableau is read off its box sizes, without building it: row i
    holds only the value i, so wt_i is the sum of row i's sizes, and the box
    at within-row index c adds its size - 1 to label ell - c.  The series'
    x-cap applies here too: every lambda with |lambda| above
    `spec.effective_x_cap()` is dropped, as its basis element is."""
    n, ell = spec.n, spec.ell
    sizes = maximal_box_sizes(spec.mu, spec.work_t_cap, shifted=spec.shifted)
    basis = "pschur" if spec.shifted else "schur"
    if spec.vanishes():
        return BasisExpansion.from_dict(basis, n, ell, {})
    x_cap = spec.effective_x_cap()
    grouped: dict[tuple[int, ...], list] = {}
    for rows in sizes:
        wt = tuple(map(sum, rows))
        if sum(wt) > x_cap:
            continue
        # column c sums its sizes, a missing box counted as 1, less one per row
        cw = tuple(sum(col) - len(rows) for col in zip_longest(*rows, fillvalue=1))[::-1]
        grouped.setdefault(wt, []).append((((), cw), 1))
    for wt in grouped:
        if not is_partition(wt):
            raise ExpansionError(f"maximal tableau weight {wt} is not a partition")
    return BasisExpansion.from_dict(basis, n, ell, {
        lam: Polynomial.from_terms(0, ell, pairs) for lam, pairs in grouped.items()
    })


# ---------------------------------------------------------------------------
# specialization


def specialize_t(f, values) -> Polynomial:
    """Substitute 0 or 1 for every t-variable; exactness caveat under caps.

    With all-zero values this is the t-free part.  All-one values are exact
    per x-degree slice only up to the series caps.
    """
    poly = f.poly if isinstance(f, TruncatedSeries) else f
    values = tuple(values)
    if len(values) != poly.nt:
        raise ValueError(f"need exactly {poly.nt} substitution values")
    if any(v not in (0, 1) for v in values):
        raise ValueError("only 0/1 specializations are exact under truncation")
    return Polynomial.from_terms(poly.nx, 0, (
        ((xe, ()), c)
        for (xe, te), c in poly.terms.items()
        if not any(e > 0 and v == 0 for e, v in zip(te, values))
    ))
