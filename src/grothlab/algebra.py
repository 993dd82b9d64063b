"""Exact sparse arithmetic for polynomials in two variable blocks.

Every polynomial lives in Z[x_1..x_nx, t_1..t_nt].  Terms are stored as a
dict mapping (x_exponents, t_exponents) -> integer coefficient, with zero
coefficients never stored.

MonomialCode packs a monomial into one int whose integer order is the
printed (graded lex) order.  The tableau counter tallies in these codes, the
algebraic product multiplies them and `straighten` and `schur_to_monomials`
read and write them, and every printed series is sorted on them.  A
TruncatedSeries holds its terms as {code: c} in one MonomialCode, with
degree caps on the two blocks and no term over either cap; it decodes them
into a Polynomial only when read.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, combinations_with_replacement, permutations, product, starmap
from operator import gt, mul

__all__ = [
    "ExactDivisionError",
    "MonomialCode",
    "Polynomial",
    "TruncatedSeries",
    "antisymmetrize",
    "apply_permutation",
    "coset_sum",
    "coset_permutations",
    "divide_exact",
    "h_polynomial",
    "kostka_columns",
    "perm_sign",
    "schur_to_monomials",
    "straighten",
    "vandermonde",
    "x_var",
]


class ExactDivisionError(ArithmeticError):
    """Raised when a quotient does not exist exactly over the integers."""


def perm_sign(sigma) -> int:
    """Sign of a permutation given in one-line form (tuple of images): the
    parity of its inversions, the pairs i < j with sigma[i] > sigma[j].  Any
    sequence of comparable entries is read the same way, a tie being no
    inversion.  The pairs are compared and counted in C, by `starmap`."""
    return -1 if sum(starmap(gt, combinations(sigma, 2))) % 2 else 1


def _order_key(mono):
    """Graded lex key, x-block before t-block."""
    xe, te = mono
    return (sum(xe), xe, sum(te), te)


# A code has nx + nt + 2 digits, and reading a series' parts takes up to
# quadratic time in that; past this bound a code is refused before it is
# built (base ** nt alone does not finish for nt = 10^20).
MAX_VARIABLES = 10_000


class MonomialCode:
    """The print-order code of the monomials x^a t^b in nx x- and nt t-variables.

    A code is one int of base-`base` digits, most significant first:
    |a|, a_1..a_nx, |b|, b_1..b_nt.  The base exceeds `x_degree` and
    `t_degree`, the largest |a| and |b| the codes stand for, and so every
    digit.  Integer order on codes is therefore `_order_key` order, and
    the code of a product is the sum of its factors' codes as long as the
    product stays within those degrees.  The base is odd, so that every
    digit reaches the low bits of a code, which pick its dict slot; with an
    even base those bits hold mostly the t digits, which take few values.

    A code splits at `split` into its x part, code // split, and its t part,
    code % split; each part is its block's degree digit followed by the
    block's exponents (`part`).  Readers of many codes decode each distinct
    part once, through the maps {x part: x_exps} and {t part: t_exps}
    (`parts`, read by `digits`), and a printer writes each distinct part's
    exponents to text once (`digit_texts`).
    """

    __slots__ = ("nx", "nt", "x_degree", "t_degree", "base", "split", "_places")

    def __init__(self, nx: int, nt: int, x_degree: int, t_degree: int):
        if nx + nt > MAX_VARIABLES:
            raise ValueError(f"a monomial code holds at most {MAX_VARIABLES} variables, not {nx} x- and {nt} t-variables")
        self.nx, self.nt = nx, nt
        self.x_degree, self.t_degree = x_degree, t_degree
        self.base = max(x_degree, t_degree) + 1 | 1
        self.split = self.base ** (nt + 1)
        self._places = [self.base ** i for i in range(7, -1, -1)]  # B^7 .. B^0, for `digits`

    @classmethod
    def encoded(cls, poly: "Polynomial") -> tuple["MonomialCode", dict, tuple[dict, dict]]:
        """A code covering poly's degrees, poly's terms as {code: c}, and the
        parts maps of those codes; each distinct x and t part is encoded once."""
        terms = poly.terms
        xs = {xe for xe, _ in terms}
        ts = {te for _, te in terms}
        code = cls(poly.nx, poly.nt, max(map(sum, xs), default=0), max(map(sum, ts), default=0))
        x_part = {xe: code.part(xe) for xe in xs}
        t_part = {te: code.part(te) for te in ts}
        split = code.split
        x_code = {xe: p * split for xe, p in x_part.items()}
        coded = {x_code[xe] + t_part[te]: c for (xe, te), c in terms.items()}
        return code, coded, ({p: xe for xe, p in x_part.items()}, {p: te for te, p in t_part.items()})

    def part(self, exps) -> int:
        """The x part (of x^exps) or t part (of t^exps): the degree digit,
        then the exponents."""
        part = sum(exps)
        for e in exps:
            part = part * self.base + e
        return part

    def digits(self, values, count: int) -> dict:
        """{value: its last `count` base-B digits, most significant first}, the
        exponents of x parts (count nx) or t parts (count nt).  Past 8 digits
        each value is halved by one divmod and each distinct half read once,
        so the zero halves of long sparse parts are read once between them."""
        if count <= 8:
            places, base = self._places[8 - count:], self.base
            return {v: tuple([v // u % base for u in places]) for v in values}
        half = count // 2
        unit = self.base ** half
        halves = {v: divmod(v, unit) for v in values}
        high = self.digits({h for h, _ in halves.values()}, count - half)
        low = self.digits({lo for _, lo in halves.values()}, half)
        return {v: high[h] + low[lo] for v, (h, lo) in halves.items()}

    def digit_texts(self, values, count: int) -> dict:
        """{value: its last `count` base-B digits in decimal, most significant
        first and joined by spaces}, the text of `digits`.  Each value is cut
        into a high and a low half, recursively, and each distinct half is
        written once, so a part's text is its two halves' texts joined and no
        exponent tuple is built.  One or two digits are written directly,
        which spares the calls of the smallest halvings."""
        base = self.base
        if count <= 2:
            if count == 2:
                return {v: f"{v // base % base} {v % base}" for v in values}
            return {v: str(v % base) for v in values} if count else dict.fromkeys(values, "")
        half = count // 2
        unit = base ** half
        values = list(values)
        highs = [v // unit for v in values]
        lows = [v % unit for v in values]
        high = self.digit_texts(set(highs), count - half)
        low = self.digit_texts(set(lows), half)
        return {v: f"{high[h]} {low[lo]}" for v, h, lo in zip(values, highs, lows)}

    def x_var(self, i: int) -> int:
        """The code of x_(i+1)."""
        base = self.base
        return (base ** self.nx + base ** (self.nx - 1 - i)) * self.split

    def t_var(self, j: int) -> int:
        """The code of t_(j+1)."""
        return self.base ** self.nt + self.base ** (self.nt - 1 - j)

    def parts(self, coded) -> tuple[dict, dict]:
        """({x part: x_exps}, {t part: t_exps}) over the distinct parts of
        the codes."""
        split = self.split
        xs = self.digits({k // split for k in coded}, self.nx)
        return xs, self.digits({k % split for k in coded}, self.nt)

    def decode(self, coded: dict) -> dict:
        """{(x_exps, t_exps): c} of {code: c}."""
        split = self.split
        xs, ts = self.parts(coded)
        return {(xs[k // split], ts[k % split]): c for k, c in coded.items()}


class Polynomial:
    """Sparse exact polynomial over Z with an x-block and a t-block."""

    __slots__ = ("nx", "nt", "terms")

    def __init__(self, nx: int, nt: int, terms=None):
        self.nx = nx
        self.nt = nt
        self.terms = {mono: coeff for mono, coeff in terms.items() if coeff} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nx: int, nt: int = 0) -> "Polynomial":
        return cls(nx, nt)

    @classmethod
    def constant(cls, c: int, nx: int, nt: int = 0) -> "Polynomial":
        mono = ((0,) * nx, (0,) * nt)
        return cls(nx, nt, {mono: c})

    @classmethod
    def monomial(cls, xexps, texps, coeff: int = 1) -> "Polynomial":
        return cls(len(xexps), len(texps), {(tuple(xexps), tuple(texps)): coeff})

    @classmethod
    def from_terms(cls, nx: int, nt: int, pairs) -> "Polynomial":
        """Sum of (monomial, coeff) pairs in one pass: repeated monomials add
        up, and coefficients that cancel to zero are dropped."""
        out = {}
        for mono, coeff in pairs:
            out[mono] = out.get(mono, 0) + coeff
        return cls(nx, nt, out)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nx != other.nx or self.nt != other.nt:
            raise ValueError(
                f"variable blocks differ: ({self.nx},{self.nt}) vs ({other.nx},{other.nt})"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.nx, self.nt)
        self._check_compatible(other)
        return Polynomial.from_terms(
            self.nx, self.nt, chain(self.terms.items(), other.terms.items())
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nx, self.nt, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.nx, self.nt)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.nx, self.nt, {m: c * other for m, c in self.terms.items()})
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (xa, ta), ca in a.items():
            for (xb, tb), cb in b.items():
                mono = (
                    tuple(p + q for p, q in zip(xa, xb)),
                    tuple(p + q for p, q in zip(ta, tb)),
                )
                c = out.get(mono, 0) + ca * cb
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return Polynomial(self.nx, self.nt, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nx, self.nt, self.terms) == (other.nx, other.nt, other.terms)

    __hash__ = None

    # -- queries -----------------------------------------------------------

    def coefficient(self, xexps, texps=()) -> int:
        texps = tuple(texps) if texps else (0,) * self.nt
        return self.terms.get((tuple(xexps), texps), 0)

    def coefficient_of_t(self, texps) -> "Polynomial":
        """Extract the x-polynomial multiplying t^texps (t-block dropped)."""
        texps = tuple(texps)
        out = {}
        for (xe, te), c in self.terms.items():
            if te == texps:
                out[(xe, ())] = c
        return Polynomial(self.nx, 0, out)

    def is_symmetric_x(self) -> bool:
        """True iff invariant under every adjacent x-transposition: each
        term's swapped monomial carries the same coefficient."""
        terms = self.terms
        return all(
            terms.get((xe[:i] + (xe[i + 1], xe[i]) + xe[i + 2:], te)) == c
            for (xe, te), c in terms.items()
            for i in range(self.nx - 1)
        )

    def sorted_terms(self):
        """Terms as (x_exps, t_exps, coeff), leading (graded lex) first: the
        order of their `MonomialCode`s, the one order of every printed series."""
        code, coded, (xs, ts) = MonomialCode.encoded(self)
        split = code.split
        return [(xs[k // split], ts[k % split], coded[k]) for k in sorted(coded, reverse=True)]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for xe, te, c in self.sorted_terms():
            names = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(xe) if e]
            names += [f"t{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(te) if e]
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(names))
            elif c == -1:
                parts.append("-" + "*".join(names))
            else:
                parts.append("*".join([str(c)] + names))
        return " + ".join(parts).replace("+ -", "- ")


def x_var(i: int, nx: int, nt: int = 0) -> Polynomial:
    """The variable x_{i+1} (0-based index i)."""
    xe = [0] * nx
    xe[i] = 1
    return Polynomial.monomial(xe, (0,) * nt)


def apply_permutation(p, sigma):
    """Relabel x_i -> x_{sigma(i)} (0-based one-line sigma); t-block untouched."""
    if len(sigma) != p.nx:
        raise ValueError("permutation length does not match x-block")
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return Polynomial.from_terms(p.nx, p.nt, (
        ((tuple(xe[inv[j]] for j in range(p.nx)), te), c)
        for (xe, te), c in p.terms.items()
    ))


def antisymmetrize(f: Polynomial, n: int | None = None) -> Polynomial:
    """Sum of sgn(sigma) * (f with x relabeled by sigma) over all of S_n, a
    Polynomial like f."""
    n = f.nx if n is None else n
    return coset_sum(f, n, n)


def coset_permutations(n: int, m: int):
    """One-line permutations of {0..n-1} with no descents after position m."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    out = []
    for head in permutations(range(n), m):
        tail = tuple(sorted(set(range(n)) - set(head)))
        out.append(head + tail)
    return sorted(out)


def coset_sum(f: Polynomial, n: int, m: int) -> Polynomial:
    """Signed sum of x-relabelings of f over S_n / S_{n-m} coset
    representatives, a Polynomial like f."""
    signed = ((sigma, perm_sign(sigma)) for sigma in coset_permutations(n, m))
    return Polynomial.from_terms(f.nx, f.nt, (
        (mono, sign * c)
        for sigma, sign in signed
        for mono, c in apply_permutation(f, sigma).terms.items()
    ))


def vandermonde(n: int, nt: int = 0) -> Polynomial:
    """Product of (x_i - x_j) over i < j; the empty product is 1."""
    out = Polynomial.constant(1, n, nt)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (x_var(i, n, nt) - x_var(j, n, nt))
    return out


def h_polynomial(k: int, c: int, nx: int, nt: int = 0) -> Polynomial:
    """Complete homogeneous polynomial h_k(x_1..x_c) inside Z[x_1..x_nx]."""
    # distinct multisets give distinct monomials, so nothing needs summing
    te = (0,) * nt
    terms = {}
    for combo in combinations_with_replacement(range(c), k):
        xe = [0] * nx
        for i in combo:
            xe[i] += 1
        terms[(tuple(xe), te)] = 1
    return Polynomial(nx, nt, terms)


def straighten(code: MonomialCode, coded: dict) -> dict:
    """Schur coefficients of the bialternant quotient A(f)/V, f given as
    {code: c}.

    A(x^a)/V is 0 when a has a repeated part, and otherwise sign(w) times
    the Schur polynomial s_{w(a) - delta}, where w sorts a into decreasing
    order and delta = (nx-1, ..., 1, 0) (Macdonald, I §3).  So the quotient
    is read off term by term, with no sum over S_n and no division.  The
    result maps (lam, t part) -> c, lam padded to nx parts.  The terms are
    grouped by x part, so each distinct x part is read and signed once.
    """
    n, split = code.nx, code.split
    delta = range(n - 1, -1, -1)
    by_x: dict[int, list] = {}
    for k, c in coded.items():
        x_part, t_part = divmod(k, split)
        by_x.setdefault(x_part, []).append((t_part, c))
    out = {}
    x_exps = code.digits(by_x, n)
    for x_part, t_terms in by_x.items():
        xe = x_exps[x_part]
        if len(set(xe)) < n:
            continue
        lam = tuple([p - d for p, d in zip(sorted(xe, reverse=True), delta)])
        # sign(w) is the parity of the pairs i < j with xe[i] < xe[j]
        sign = perm_sign([-e for e in xe])
        for t_part, c in t_terms:
            key = (lam, t_part)
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _horizontal_strips(mu: tuple[int, ...], bound: tuple[int, ...]) -> dict:
    """{k: the partitions lam inside `bound`, padded like mu, for which lam/mu
    is a horizontal k-strip}: |lam| = |mu| + k and mu_i <= lam_i <= mu_{i-1}.
    The strips of every size are walked in one pass, as the product of the
    rows' ranges; no rows hold only the empty strip."""
    size = sum(mu)
    out: dict[int, list] = {}
    for lam in product(*[range(p, min(above, b) + 1) for above, p, b in zip(bound[:1] + mu, mu, bound)]):
        out.setdefault(sum(lam) - size, []).append(lam)
    return out


def kostka_columns(degrees, n: int, bound: tuple[int, ...]) -> dict:
    """Kostka numbers {nu: {lam: K_{lam,nu}}} for the partitions nu of each
    d in `degrees` with at most n parts that some lam inside the partition
    `bound` dominates; nu is padded to n parts, and lam to len(bound) parts.

    h_nu = sum_lam K_{lam,nu} s_lam, and h_nu is built one part at a time
    by the Pieri rule s_mu h_k = sum of s_lam over the horizontal k-strips
    lam/mu (Macdonald, I (5.16)): the column of nu is the column of nu' =
    nu less its last part k, pushed through the strips.  The nu grow one
    part at a time, so each prefix's column is pushed once for all degrees,
    and each shape's strips are walked once for all sizes, into a table the
    call owns.  A prefix of size s that may take j more parts grows by a
    part p only if it can still reach a degree with parts of at most p: the
    least degree from s + p on, one `bisect_left` into the sorted degrees,
    must be at most s + p j.
    Every shape on the way to lam lies inside lam, so strips outside
    `bound` are dropped, and so is a prefix whose column empties.  So the
    strips walk only the bound's rows: a bound cut to its r nonzero parts
    gives the columns of its n-part padding with the zero rows of every lam
    dropped, and the empty bound (r = 0) leaves only the column of nu = 0.
    No polynomial is built and no tableau is enumerated.
    """
    reach = sorted(set(degrees))
    degrees = set(reach)
    top = reach[-1] if reach else 0
    strips: dict = {}  # {mu: its strips}, shared by many prefixes and sizes of this call
    out = {}
    level = [((), 0, {(0,) * len(bound): 1})]  # (prefix of nu, its size, its column)
    for rows in range(n, -1, -1):  # the parts the prefixes may still take
        grown = []
        for nu, size, column in level:
            if size in degrees:
                out[nu + (0,) * rows] = column
            for part in range(min(nu[-1] if nu else top, top - size), 0, -1):
                # the least degree from size + part on (there is one, top)
                if reach[bisect_left(reach, size + part)] > size + part * rows:
                    continue
                pushed = {}
                for mu, c in column.items():
                    lams = strips.get(mu)
                    if lams is None:
                        lams = strips[mu] = _horizontal_strips(mu, bound)
                    for lam in lams.get(part, ()):
                        pushed[lam] = pushed.get(lam, 0) + c
                if pushed:
                    grown.append((nu + (part,), size + part, pushed))
        level = grown
    return out


def schur_to_monomials(coeffs: dict, code: MonomialCode) -> dict:
    """Expand sum c * s_lam(x_1..x_n) * t^b, given as {(lam, t part of b): c}
    in `code`, in monomials, as {code: c}.

    The coefficient of x^alpha in s_lam is K_{lam,nu} with nu = sort(alpha),
    so each dominant weight nu is summed once and copied onto every distinct
    rearrangement of nu: an order of its nonzero parts in a set of places.
    Every lam lies inside their partwise maximum, the bound, and fills only
    its r nonzero rows (len(mu) rows for J and P, whatever n is), so the
    Kostka columns are built on the bound cut to those rows, and the
    coefficients are grouped by lam cut to them; each weight reads its
    column once per distinct lam.  The code must cover |lam| and |b|.
    """
    n, base, split = code.nx, code.base, code.split
    degree_place = base ** n * split
    x_places = [base ** i * split for i in range(n - 1, -1, -1)]
    bound = tuple(map(max, zip((0,) * n, *{lam for lam, _ in coeffs})))
    r = n - bound.count(0)  # a partition's zero parts trail
    bound = bound[:r]
    by_degree: dict[int, dict] = {}
    for (lam, t_part), c in coeffs.items():
        by_degree.setdefault(sum(lam), {}).setdefault(lam[:r], []).append((t_part, c))
    spots: dict[int, list] = {}  # {k: the places of k nonzero parts}
    out = {}
    for nu, column in kostka_columns(by_degree, n, bound).items():
        dominant: dict = {}
        for lam, t_terms in by_degree[sum(nu)].items():
            k = column.get(lam)
            if k:
                for t_part, c in t_terms:
                    dominant[t_part] = dominant.get(t_part, 0) + k * c
        nonzero = [(t_part, c) for t_part, c in dominant.items() if c]
        if not nonzero:
            continue
        degree = sum(nu) * degree_place
        parts = [p for p in nu if p]
        places = spots.get(len(parts))
        if places is None:
            places = spots[len(parts)] = list(combinations(x_places, len(parts)))
        for order in set(permutations(parts)):
            for spot in places:
                x_code = degree + sum(map(mul, order, spot))
                for t_part, c in nonzero:
                    out[x_code + t_part] = c
    return out


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """The Polynomial f / g, by leading-term reduction in graded lex order;
    f and g share their variable blocks.  Raises ExactDivisionError if no
    exact quotient exists."""
    if f.nx != g.nx or f.nt != g.nt:
        raise ValueError("variable blocks differ")
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    lt_g = max(g.terms, key=_order_key)
    c_g = g.terms[lt_g]
    rem = dict(f.terms)
    quot = {}
    while rem:
        lt_r = max(rem, key=_order_key)
        c_r = rem[lt_r]
        dx = tuple(a - b for a, b in zip(lt_r[0], lt_g[0]))
        dt = tuple(a - b for a, b in zip(lt_r[1], lt_g[1]))
        if any(e < 0 for e in dx) or any(e < 0 for e in dt) or c_r % c_g:
            raise ExactDivisionError("no exact quotient exists")
        qc = c_r // c_g
        quot[(dx, dt)] = quot.get((dx, dt), 0) + qc
        for (xg, tg), cg in g.terms.items():
            mono = (
                tuple(a + b for a, b in zip(dx, xg)),
                tuple(a + b for a, b in zip(dt, tg)),
            )
            c = rem.get(mono, 0) - qc * cg
            if c:
                rem[mono] = c
            else:
                rem.pop(mono, None)
    return Polynomial(f.nx, f.nt, quot)


class TruncatedSeries:
    """The terms {code: c} of a series in one `MonomialCode`, with degree
    caps on the two blocks; no term is over either cap.

    The t-cap is the single source of truncation: results are exact for
    every term within the caps.  The terms are decoded into `poly` only
    when it is first read, so a series that is only printed is never
    decoded.
    """

    __slots__ = ("_poly", "_code", "_coded", "x_cap", "t_cap")

    def __init__(self, code: MonomialCode, coded: dict, x_cap: int, t_cap: int):
        """The series of {code: c}, coefficients nonzero.  The cap filter reads
        the degree digits, and the input is kept, not copied, when the code's
        degrees are within the caps."""
        if code.x_degree > x_cap or code.t_degree > t_cap:
            # |a| <= x_cap iff the code is below (x_cap + 1) B^(nx+nt+1), and
            # |b| <= t_cap iff the t part is below (t_cap + 1) B^nt
            split, base = code.split, code.base
            x_limit, t_limit = (x_cap + 1) * split * base ** code.nx, (t_cap + 1) * base ** code.nt
            coded = {k: c for k, c in coded.items() if k < x_limit and k % split < t_limit}
        self._poly = None
        self._code, self._coded = code, coded
        self.x_cap, self.t_cap = x_cap, t_cap

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            code = self._code
            self._poly = Polynomial(code.nx, code.nt, code.decode(self._coded))
        return self._poly

    def coded(self) -> tuple[MonomialCode, dict]:
        """The terms as (code, {code: c}), the dict held, not a copy; a
        reader that wants exponents decodes its parts (`MonomialCode.parts`)."""
        return self._code, self._coded

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._coded)

    def __eq__(self, other):
        """Equal caps, variables and terms, compared on the codes: each
        distinct part of other's codes is decoded once and re-encoded in
        self's code, and each of other's terms is looked up in self's.  A
        part past self's degrees is no term of self, and is refused before
        it is encoded, since its digits would carry."""
        if not isinstance(other, type(self)):
            return NotImplemented
        code, coded = self._code, self._coded
        other_code, other_coded = other._code, other._coded
        if (self.x_cap, self.t_cap, code.nx, code.nt, len(coded)) != (
            other.x_cap, other.t_cap, other_code.nx, other_code.nt, len(other_coded)
        ):
            return False
        xs, ts = other_code.parts(other_coded)
        if any(sum(e) > code.x_degree for e in xs.values()) or any(sum(e) > code.t_degree for e in ts.values()):
            return False
        split, other_split = code.split, other_code.split
        x_recoded = {p: code.part(e) * split for p, e in xs.items()}
        t_recoded = {p: code.part(e) for p, e in ts.items()}
        get = coded.get
        return all(get(x_recoded[k // other_split] + t_recoded[k % other_split]) == c for k, c in other_coded.items())

    __hash__ = None

    def __bool__(self):
        return len(self) > 0

    def coefficient_of_t(self, texps) -> Polynomial:
        return self.poly.coefficient_of_t(texps)

    def __repr__(self):
        return f"TruncatedSeries({self.poly!r}, x_cap={self.x_cap}, t_cap={self.t_cap})"

