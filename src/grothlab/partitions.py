"""Partitions, conjugates, staircases, and T-extension chains.

A partition is a tuple of weakly decreasing positive integers with no
trailing zeros stored; padded views are produced on demand.  A T-extension
of a base composition mu is a chain of compositions growing by prescribed
total sizes with frozen tails; the "good" ones index the expansion used by
the h-multiplication identity, and the bad ones cancel in signed pairs
under the involution `iota`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .algebra import (
    Polynomial,
    antisymmetrize,
    h_polynomial,
    perm_sign,
)

__all__ = [
    "Partition",
    "TExtension",
    "SignedPair",
    "conjugate",
    "staircase",
    "pad",
    "is_partition",
    "is_strict_partition",
    "subpartitions",
    "column_heights",
    "enumerate_extensions",
    "is_good_extension",
    "iota",
    "hmult_lhs",
    "antisymmetrized_tops",
    "hmult_rhs_good",
    "verify_hmult_lemma",
]

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return False
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return False
    return not parts or parts[-1] > 0


def is_strict_partition(parts) -> bool:
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    )


def pad(mu, n: int) -> tuple[int, ...]:
    """mu padded with zeros to length n; error if mu has more than n parts."""
    mu = tuple(mu)
    if len(mu) > n:
        raise ValueError(f"partition {mu} has more than {n} parts")
    return mu + (0,) * (n - len(mu))


def conjugate(mu) -> Partition:
    """Column lengths of the Young diagram of mu."""
    mu = tuple(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p >= j) for j in range(1, mu[0] + 1))


def staircase(k: int) -> tuple[int, ...]:
    """The sequence (k-1, k-2, ..., 0)."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    return tuple(range(k - 1, -1, -1))


def column_heights(mu) -> dict[int, int]:
    """Heights c_j of the columns of mu, keyed by label j = 1..mu_1.

    Columns are labeled ell..1 from left to right, so c_j is the height of
    the (ell-j+1)-st column from the left.
    """
    mu = tuple(mu)
    conj = conjugate(mu)
    ell = mu[0] if mu else 0
    return {j: conj[ell - j] for j in range(1, ell + 1)}


def subpartitions(bound) -> list[Partition]:
    """All partitions fitting inside the given partition, largest parts first."""
    bound = tuple(bound)
    out = []

    def grow(prefix, row):
        out.append(tuple(p for p in prefix if p))
        if row >= len(bound):
            return
        hi = min(bound[row], prefix[-1] if prefix else bound[row])
        for part in range(1, hi + 1):
            grow(prefix + (part,), row + 1)

    grow((), 0)
    return sorted(set(out))


@dataclass(frozen=True)
class TExtension:
    """A chain base = lam^0 <= lam^1 <= ... <= lam^ell of compositions.

    `increments` and `columns` are stored in the conventional descending
    order (T_ell..T_1) and (c_ell..c_1).  Every composition is padded to a
    common fixed length.
    """

    base: tuple[int, ...]
    chain: tuple[tuple[int, ...], ...]
    increments: tuple[int, ...]
    columns: tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.increments)

    def level(self, h: int) -> tuple[int, ...]:
        """lam^h for h = 0..ell."""
        return self.base if h == 0 else self.chain[h - 1]

    def t_at(self, h: int) -> int:
        return self.increments[self.ell - h]

    def c_at(self, h: int) -> int:
        return self.columns[self.ell - h]

    @property
    def top(self) -> tuple[int, ...]:
        return self.chain[-1] if self.chain else self.base

    def check(self):
        n = len(self.base)
        if len(self.increments) != len(self.columns):
            raise ValueError("increment and column lists differ in length")
        if any(self.columns[i] < self.columns[i + 1] for i in range(self.ell - 1)):
            raise ValueError("columns must be weakly decreasing as (c_ell..c_1)")
        if self.columns and (self.columns[0] > n or self.columns[-1] < 1):
            raise ValueError("columns out of range")
        prev = self.base
        for h in range(1, self.ell + 1):
            cur = self.level(h)
            if len(cur) != n:
                raise ValueError("chain entries must share the base length")
            if any(c < p for c, p in zip(cur, prev)):
                raise ValueError("chain must grow entrywise")
            if sum(cur) - sum(prev) != self.t_at(h):
                raise ValueError(f"size increment at level {h} is not T_{h}")
            if any(cur[k] != prev[k] for k in range(self.c_at(h), n)):
                raise ValueError(f"tail beyond c_{h} must be frozen at level {h}")
            prev = cur


def _first_violation(ext: TExtension):
    """The least level h, then the least 2 <= k <= c_h, with
    lam^h_k >= lam^{h-1}_{k-1}; None when there is none."""
    for h in range(1, ext.ell + 1):
        cur, prev = ext.level(h), ext.level(h - 1)
        for k in range(2, ext.c_at(h) + 1):
            if cur[k - 1] >= prev[k - 2]:
                return h, k
    return None


def is_good_extension(ext: TExtension) -> bool:
    """True iff lam^h_k < lam^{h-1}_{k-1} for all levels h and 2 <= k <= c_h."""
    return _first_violation(ext) is None


def enumerate_extensions(mu, increments, columns) -> list[TExtension]:
    """All T-extensions of mu, each exactly once, in chain-lex order.

    `increments` = (T_ell..T_1) and `columns` = (c_ell..c_1); columns must
    be weakly decreasing in that order with c_ell <= len(mu).
    """
    mu = tuple(mu)
    increments = tuple(increments)
    columns = tuple(columns)
    n = len(mu)
    ell = len(increments)
    if len(columns) != ell:
        raise ValueError("increment and column lists differ in length")
    if any(columns[i] < columns[i + 1] for i in range(ell - 1)):
        raise ValueError("columns must be weakly decreasing as (c_ell..c_1)")
    if columns and (columns[0] > n or columns[-1] < 1):
        raise ValueError("columns out of range")

    def additions(total, width):
        """Compositions of `total` into `width` nonnegative parts."""
        if width == 0:
            return [()] if total == 0 else []
        out = []
        for combo in combinations_with_replacement(range(width), total):
            comp = [0] * width
            for i in combo:
                comp[i] += 1
            out.append(tuple(comp))
        return sorted(set(out))

    chains = [()]
    for h in range(1, ell + 1):
        t_h = increments[ell - h]
        c_h = columns[ell - h]
        grown = []
        for chain in chains:
            prev = chain[-1] if chain else mu
            for alpha in additions(t_h, c_h):
                nxt = tuple(
                    prev[k] + (alpha[k] if k < c_h else 0) for k in range(n)
                )
                grown.append(chain + (nxt,))
        chains = grown
    exts = [TExtension(mu, chain, increments, columns) for chain in chains]
    for ext in exts:
        ext.check()
    return sorted(exts, key=lambda e: e.chain)


@dataclass(frozen=True)
class SignedPair:
    """A permutation (0-based one-line) together with a T-extension."""

    sigma: tuple[int, ...]
    extension: TExtension

    @property
    def sign(self) -> int:
        return perm_sign(self.sigma)

    def monomial(self) -> Polynomial:
        """x_{sigma(i)} carries exponent lam_i, where lam tops the chain."""
        lam = self.extension.top
        n = len(lam)
        xe = [0] * n
        for i in range(n):
            xe[self.sigma[i]] = lam[i]
        return Polynomial.monomial(xe, ())


def iota(pair: SignedPair) -> SignedPair:
    """The sign-changing involution on bad signed pairs.

    Picks the minimal violating level i, then the minimal column k with
    lam^i_k >= lam^{i-1}_{k-1}, then the minimal j < k with
    lam^i_k >= lam^{i-1}_j; swaps positions j,k in sigma and in every
    lam^h with h >= i.
    """
    ext = pair.extension
    viol = _first_violation(ext)
    if viol is None:
        raise ValueError("iota is undefined on good extensions")
    i, k = viol
    cur, prev = ext.level(i), ext.level(i - 1)
    j = next(j for j in range(1, k) if cur[k - 1] >= prev[j - 1])

    a, b = j - 1, k - 1
    sigma = list(pair.sigma)
    sigma[a], sigma[b] = sigma[b], sigma[a]

    new_chain = []
    for h in range(1, ext.ell + 1):
        lam = list(ext.level(h))
        if h >= i:
            lam[a], lam[b] = lam[b], lam[a]
        new_chain.append(tuple(lam))
    new_ext = TExtension(ext.base, tuple(new_chain), ext.increments, ext.columns)
    new_ext.check()
    return SignedPair(tuple(sigma), new_ext)


def hmult_lhs(mu, increments, columns, n: int) -> Polynomial:
    """Antisymmetrized product of h_{T_h}(x_1..x_{c_h}) terms times x^mu."""
    mu_p = pad(mu, n)
    ell = len(increments)
    f = Polynomial.monomial(mu_p, ())
    for h in range(1, ell + 1):
        f = f * h_polynomial(increments[ell - h], columns[ell - h], n)
    return antisymmetrize(f, n)


def antisymmetrized_tops(extensions, n: int) -> Polynomial:
    """A(sum of x^top over the given extensions), antisymmetrized once: A is
    linear, so this is the sum of the antisymmetrized top monomials."""
    tops = Polynomial.from_terms(n, 0, (((ext.top, ()), 1) for ext in extensions))
    return antisymmetrize(tops, n)


def hmult_rhs_good(mu, increments, columns, n: int) -> Polynomial:
    """Sum of antisymmetrized top monomials over good extensions only."""
    exts = enumerate_extensions(pad(mu, n), increments, columns)
    return antisymmetrized_tops([e for e in exts if is_good_extension(e)], n)


def verify_hmult_lemma(mu, increments, columns, n: int) -> bool:
    """Exact check that the h-product route equals the good-extension route.

    Also requires the bad-extension sum to vanish identically.  The padded
    mu must have distinct parts.
    """
    mu_p = pad(mu, n)
    if len(set(mu_p)) != n:
        raise ValueError("padded base must have distinct parts")
    exts = enumerate_extensions(mu_p, increments, columns)
    good = [e for e in exts if is_good_extension(e)]
    bad = [e for e in exts if not is_good_extension(e)]
    lhs = hmult_lhs(mu, increments, columns, n)
    return lhs == antisymmetrized_tops(good, n) and not antisymmetrized_tops(bad, n)
