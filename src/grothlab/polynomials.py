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
printed straight from the codes.  The counter (`tableaux._count`) counts
each state of a row-order filling once, by the transfer-matrix method.
`schur` and `pschur` are the same counts with no extra entries, where t
is zero.

The algebraic route computes neither the antisymmetrization A(f) nor its
quotient by the Vandermonde V.  By the bialternant rule
A(x^a)/V = sign(w) s_{w(a) - delta} (w sorts a decreasingly; 0 if a
repeats a part), `straighten` reads A(f)/V off the product f term by term
as Schur coefficients.  Kostka numbers, built by the Pieri rule with no
polynomial, turn them into monomials; `_from_schur` turns them into a
basis expansion.  Every family has one product, `_product`: for a shifted
family the tail Vandermonde of the coset sum is replaced by its leading
monomial, which turns the coset sum into a plain A(f)/V, and the head-tail
pair factors by a sum of at most C(n, m) Schur polynomials in the head
(`_stair`), with the rows sorted on the head.  The product,
`straighten` and `schur_to_monomials` work in one `MonomialCode` and the
series is printed from its codes, with no (x, t) tuple.  The h-product
reference keeps the explicit antisymmetrize, coset-sum and division path.

Everything is exact: integer coefficients throughout, with the t-degree
cap as the only source of truncation.  Within the cap window the x-degree
of every term equals |mu| plus its t-degree, so any x-cap of at least
|mu| + t_cap loses nothing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, zip_longest

from .algebra import (
    MonomialCode,
    Polynomial,
    TruncatedSeries,
    _horizontal_strips,
    coset_sum,
    divide_exact,
    perm_sign,
    schur_to_monomials,
    straighten,
    vandermonde,
    x_var,
)
from .frozen import Frozen
from .partitions import (
    column_heights,
    hmult_lhs,
    hmult_product,
    hmult_rhs_good,
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


class FamilySpec(Frozen):
    """Parameters of one polynomial computation.

    `family` is one of 'J', 'P', 'schur', 'pschur'.  The t-variable count
    is always ell = mu_1.  When mu needs more rows than there are
    x-variables the family vanishes; both routes then return the zero
    series.  The routes read only `shifted` and `work_t_cap` of the
    family; the printed caps come from `t_cap` and `x_cap`.
    """

    __slots__ = ("family", "mu", "n", "t_cap", "x_cap")

    def __init__(
        self, family: str, mu: tuple[int, ...], n: int, t_cap: int = 1, x_cap: int | None = None
    ):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t_cap", t_cap)
        object.__setattr__(self, "x_cap", x_cap)
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
    """Schur polynomial as the tableau generating function; the counter
    checks the shape."""
    return _x_part(*count_mt_by_code(tuple(p for p in lam if p), n, 0))


@lru_cache(maxsize=None)
def pschur(lam: tuple[int, ...], n: int) -> Polynomial:
    """P-Schur polynomial as the shifted tableau generating function; the
    counter checks the shape."""
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


def _head_schur(code: MonomialCode, head: int, k: int) -> dict:
    """{lam: s_lam(x_1..x_head) as {code: c}} for every lam inside the box
    (k^head), padded to head parts.

    By the branching rule, s_lam(x_1..x_i) is the sum over the mu with lam/mu
    a horizontal strip of s_mu(x_1..x_(i-1)) x_i^|lam/mu| (Macdonald, I
    (5.11)), so the head variables are taken in one at a time, each shape
    pushed through its strips inside the box (`_horizontal_strips`, the
    strips the Kostka columns walk).  Each monomial is written once per
    chain of shapes that reaches it.
    """
    box = (k,) * head
    level = {(0,) * head: {0: 1}}
    for i in range(head):
        x_unit = code.x_var(i)
        grown: dict = {}
        for mu, s_mu in level.items():
            for size, lams in _horizontal_strips(mu, box).items():
                shift = size * x_unit
                for lam in lams:
                    into = grown.setdefault(lam, {})
                    for h, c in s_mu.items():
                        into[h + shift] = into.get(h + shift, 0) + c
        level = grown
    return level


def _stair(code: MonomialCode, head: int) -> dict:
    """A product with the same antisymmetrization as x^delta with each factor
    x_i, i < head, of it made (x_i + x_j), as {code: c}.  Every term has
    x-degree n(n-1)/2, which the code covers.

    That product is the pair factors inside the head, times the head-tail
    pair factors, times x_tail^delta_tail, delta_tail = (k-1, ..., 0) on the
    k = n - head tail variables.  By the dual Cauchy identity for a box
    (Macdonald, I §4, Example 5),

        prod_{i < head <= j} (x_i + x_j)
            = sum over lam inside (k^head) of s_lam(x_head) s_{lam~'}(x_tail),

    lam~ = (k - lam_head, ..., k - lam_1) the complement of lam in the box.
    The rest of a product that carries this stair (the rows, the head pair
    factors, s_lam(x_head)) is symmetric in the tail, and for such a G
    A(G s_nu(x_tail) x_tail^delta_tail) = A(G x_tail^(nu + delta_tail))
    (Macdonald, I §3: both are A(G a_(nu + delta_tail)(x_tail)) / k!).  So
    the stair is the head pair factors times the sum over lam of
    s_lam(x_head) x_tail^(lam~' + delta_tail): at most C(n, head) Schur
    terms in the head, where the pair factors multiply out to
    2^(head (n - head)) terms.  At k = 1 the sum is the product itself, and
    at k = 0 (head = n) it is one term; at head = 0 (the J product) the
    stair is x^delta, which is returned as it stands.  The stair is
    symmetric in the head variables (`_head_sorted`).
    """
    n = code.nx
    k = n - head
    delta_tail = range(k - 1, -1, -1)
    x_delta = code.part([0] * head + list(delta_tail)) * code.split
    if not head:
        return {x_delta: 1}
    # lam~ has a row of k - lam_i boxes for each row of lam; conjugated, a
    # row of r boxes is a column, one box in each of the first r tail
    # variables, whose code is columns[r]
    columns = list(accumulate([code.x_var(j) for j in range(head, n)], initial=0))
    box = {}
    for lam, s_lam in _head_schur(code, head, k).items():
        x_tail = x_delta + sum([columns[k - p] for p in lam])
        for h, c in s_lam.items():
            box[h + x_tail] = c  # each lam has its own tail exponents
    for i in range(head):
        for j in range(i + 1, head):
            box = _times(box, dict.fromkeys((code.x_var(i), code.x_var(j)), 1))
    return box


def _head_sorted(code: MonomialCode, coded: dict, head: int) -> dict:
    """A product of head-only terms {code: c} with the same antisymmetrization
    against anything symmetric in the head variables: a term that repeats a
    head exponent drops out, and every other term sorts its head exponents
    into decreasing order and takes the sign of that sort.

    For such an S, A(x^a S) = sign(w) A(x^(w(a)) S) for a permutation w of
    the head, and A(x^a S) = 0 when a transposition of two equal head
    exponents fixes x^a S.  Each distinct x part is read and signed once; a
    head of one variable is its own sort.
    """
    if head < 2:
        return coded
    n, split = code.nx, code.split
    by_x: dict[int, list] = {}
    for key, c in coded.items():
        x_part, t_part = divmod(key, split)
        by_x.setdefault(x_part, []).append((t_part, c))
    tail_unit = code.base ** (n - head)  # the places of the zero tail exponents
    heads = code.digits({x_part // tail_unit for x_part in by_x}, head)
    out = {}
    for x_part, t_terms in by_x.items():
        xe = heads[x_part // tail_unit]
        if len(set(xe)) < head:
            continue
        # the sign of the sort is the parity of the pairs i < j with xe[i] < xe[j]
        sign = perm_sign([-e for e in xe])
        x_sorted = code.part(sorted(xe, reverse=True)) * tail_unit * split
        for t_part, c in t_terms:
            out[x_sorted + t_part] = out.get(x_sorted + t_part, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _product(spec: FamilySpec) -> tuple[MonomialCode, dict]:
    """A product f with A(f) that of x^delta times the geometric rows of mu,
    truncated to the caps, as a `MonomialCode` and {code: c}; for a shifted
    family, each factor x_i of x^delta with i < m becomes (x_i + x_j).  For J
    f is that product itself; for a shifted family it is the head-sorted rows
    (`_head_sorted`) times the stair of `_stair`, which is symmetric in the
    head: equal to the paper's product under A, not term for term.

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
    if not spec.shifted:
        return code, _times(prod, _stair(code, 0))
    m = len(spec.mu)
    return code, _times(_head_sorted(code, prod, m), _stair(code, m))


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


def _hmult_exponents(spec: FamilySpec, t_exps) -> tuple:
    """t_exps as a tuple, refused unless it holds one exponent per label."""
    t_exps = tuple(t_exps)
    if len(t_exps) != spec.ell:
        raise ValueError(f"need exactly {spec.ell} t-exponents")
    return t_exps


def _hmult_arguments(spec: FamilySpec, t_exps) -> tuple:
    """(mu + delta padded to n, (T_ell..T_1), (c_ell..c_1)): the base of the
    J lemma and the levels, top first, of the t^T coefficient."""
    heights, levels = column_heights(spec.mu), range(spec.ell, 0, -1)
    base = tuple(a + b for a, b in zip(pad(spec.mu, spec.n), staircase(spec.n)))
    return base, tuple(t_exps[h - 1] for h in levels), tuple(heights[h] for h in levels)


def coefficient_via_hmult(spec: FamilySpec, t_exps) -> Polynomial:
    """The x-coefficient of t^T computed by the h-product route.

    For family J the product is antisymmetrized against the staircase-shifted
    monomial; for family P it is coset-summed with the pair factors.  The
    result must match the same coefficient extracted from the algebraic
    series.
    """
    t_exps = _hmult_exponents(spec, t_exps)
    n = spec.n
    if spec.vanishes():
        return Polynomial.zero(n, 0)
    base, increments, columns = _hmult_arguments(spec, t_exps)
    if spec.family == "J":
        return divide_exact(hmult_lhs(base, increments, columns, n), vandermonde(n))
    if spec.family == "P":
        m = len(spec.mu)
        f = hmult_product(spec.mu, increments, columns, n)
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
    n = spec.n
    if spec.family != "J":
        raise ValueError("the good-extension route applies to family J")
    t_exps = _hmult_exponents(spec, t_exps)
    if spec.vanishes():
        return Polynomial.zero(n, 0)
    return divide_exact(hmult_rhs_good(*_hmult_arguments(spec, t_exps), n), vandermonde(n))


# ---------------------------------------------------------------------------
# basis expansions


class BasisExpansion(Frozen):
    """Finitely supported map from basis indices to t-polynomials."""

    __slots__ = ("basis", "n", "nt", "coefficients")

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
    read off and that multiple of P_lam subtracted.  The coefficients are
    kept as {t part: c} per lam, and each leader's `Polynomial` is built
    once, at the end.  P_lam is straightened from x^lam times the P stair
    of len(lam) rows, the P product at t_cap = 0 (x^lam is its own head
    sort), built in `code` once per row count.  A non-strict leader has no
    P-Schur expansion.
    """
    n, nt = code.nx, code.nt
    _, t_exps = code.parts({t_part for _, t_part in coeffs})
    stairs: dict = {}  # {row count: its P stair}, shared by the leaders

    def in_schur(lam):
        if basis == "schur":
            return {lam: 1}
        shape = tuple(p for p in lam if p)
        if not is_strict_partition(shape):
            raise ExpansionError(f"leading shape {shape} is not strict")
        if len(shape) not in stairs:
            stairs[len(shape)] = _stair(code, len(shape))
        shift = code.part(lam) * code.split
        product = {k + shift: c for k, c in stairs[len(shape)].items()}
        return {nu: k for (nu, _), k in straighten(code, product).items()}

    rem: dict = {}  # {lam: {t part: c}}, no zero c and no empty lam
    for (lam, t_part), c in coeffs.items():
        rem.setdefault(lam, {})[t_part] = c
    out = {}
    while rem:
        lam = max(rem, key=lambda l: (sum(l), l))
        lead = out[tuple(p for p in lam if p)] = dict(rem[lam])
        for nu, k in in_schur(lam).items():
            into = rem.setdefault(nu, {})
            for t_part, c in lead.items():
                left = into.get(t_part, 0) - k * c
                if left:
                    into[t_part] = left
                else:
                    del into[t_part]
            if not into:
                del rem[nu]
    return BasisExpansion.from_dict(basis, n, nt, {
        shape: Polynomial(0, nt, {((), t_exps[t_part]): c for t_part, c in lead.items()})
        for shape, lead in out.items()
    })


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
