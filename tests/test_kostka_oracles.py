"""The Kostka columns and the Schur-to-monomial expansion against their
n-row bodies.

`kostka_columns` walks only the rows of the bound it is given, and
`schur_to_monomials` hands it the bound cut to its nonzero rows.  The
oracles below are the bodies both had when every shape, bound and lam was
padded to n rows; the properties check that the cut bound gives the n-row
columns with the zero rows dropped, that an n-row bound still gives the
n-row columns, and that the expansion is the one the n-row bodies give.
The Kostka oracle also keeps the reach test as it was, an `any` over every
degree, where `kostka_columns` bisects the sorted degrees.
"""

from functools import cache, partial
from itertools import combinations, permutations
from operator import mul

from hypothesis import example, given, settings, strategies as st

from grothlab.algebra import MonomialCode, kostka_columns, schur_to_monomials


def ref_horizontal_strips(mu, k, bound):
    """The partitions lam inside `bound`, padded like mu (at least one
    part), for which lam/mu is a horizontal k-strip."""
    grown = [((), k)]
    for i in range(len(mu) - 1, 0, -1):
        grown = [
            ((mu[i] + e,) + tail, left - e)
            for tail, left in grown
            for e in range(min(mu[i - 1], bound[i], mu[i] + left) - mu[i] + 1)
        ]
    return [(mu[0] + left,) + tail for tail, left in grown if mu[0] + left <= bound[0]]


def ref_kostka_columns(degrees, n, bound):
    """{nu: {lam: K_{lam,nu}}} with lam, nu and bound padded to n parts."""
    degrees = set(degrees)
    top = max(degrees, default=0)
    strips = cache(partial(ref_horizontal_strips, bound=bound))
    out = {}
    level = [((), 0, {(0,) * n: 1})]
    for rows in range(n, -1, -1):
        grown = []
        for nu, size, column in level:
            if size in degrees:
                out[nu + (0,) * rows] = column
            for part in range(min(nu[-1] if nu else top, top - size), 0, -1):
                if not any(size + part <= d <= size + part * rows for d in degrees):
                    continue
                pushed = {}
                for mu, c in column.items():
                    for lam in strips(mu, part):
                        pushed[lam] = pushed.get(lam, 0) + c
                if pushed:
                    grown.append((nu + (part,), size + part, pushed))
        level = grown
    return out


def ref_schur_to_monomials(coeffs, code):
    """{code: c} of sum c * s_lam * t^b, given as {(lam, t part): c}, with
    the Kostka columns on the n-row bound."""
    n, base, split = code.nx, code.base, code.split
    degree_place = base ** n * split
    x_places = [base ** i * split for i in range(n - 1, -1, -1)]
    by_degree = {}
    for (lam, t_part), c in coeffs.items():
        by_degree.setdefault(sum(lam), {}).setdefault(lam, []).append((t_part, c))
    bound = tuple(map(max, zip((0,) * n, *(lam for lam, _ in coeffs))))
    out = {}
    for nu, column in ref_kostka_columns(by_degree, n, bound).items():
        dominant = {}
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
        for order in set(permutations(parts)):
            for places in combinations(x_places, len(parts)):
                x_code = degree + sum(map(mul, order, places))
                for t_part, c in nonzero:
                    out[x_code + t_part] = c
    return out


def _partition(n, largest):
    """A partition with at most n parts, each at most `largest`, padded to n."""
    return st.lists(st.integers(0, largest), min_size=n, max_size=n).map(lambda p: tuple(sorted(p, reverse=True)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), _partition(n, 4), st.sets(st.integers(0, 7), max_size=4),
)))
@example((4, (5, 3, 2, 0), {10}))
@example((3, (2, 2, 1), {0, 3, 5}))
@example((5, (0,) * 5, {0}))
@example((2, (0, 0), {0, 1, 2}))
@example((6, (3, 0, 0, 0, 0, 0), set(range(8))))
def test_kostka_columns_on_the_live_rows_are_the_n_row_columns_cut_to_them(args):
    n, bound, degrees = args
    r = n - bound.count(0)
    full = ref_kostka_columns(degrees, n, bound)
    assert kostka_columns(degrees, n, bound) == full
    assert kostka_columns(degrees, n, bound[:r]) == {
        nu: {lam[:r]: k for lam, k in column.items()} for nu, column in full.items()
    }


def _degree_sets(bound):
    """Degree sets for `bound`: gaps, degrees past sum(bound), and the empty set."""
    return st.sets(st.integers(0, sum(bound) + 4), max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _partition(n, 4).flatmap(
    lambda bound: st.tuples(st.just(n), st.just(bound), _degree_sets(bound)),
)))
@example((3, (3, 2, 0), {2, 5}))
@example((4, (2, 1, 1, 0), {1, 6}))
@example((2, (2, 1), {4, 7}))
@example((3, (2, 0, 0), {9}))
@example((3, (2, 2, 1), set()))
@example((1, (0,), set()))
def test_kostka_columns_and_their_order_are_those_of_the_any_reach_test(args):
    # the oracle tests each part's reach with `any` over every degree; the
    # columns and their order must not move
    n, bound, degrees = args
    r = n - bound.count(0)
    for cut in (bound, bound[:r]):
        got = kostka_columns(degrees, n, cut)
        want = {
            nu: {lam[:len(cut)]: k for lam, k in column.items()}
            for nu, column in ref_kostka_columns(degrees, n, bound).items()
        }
        assert got == want
        assert list(got) == list(want)


@st.composite
def _schur_coefficients(draw):
    """(code, {(lam, t part): c}): lam partitions padded to n, some with
    trailing zero rows, and coefficients of both signs."""
    n = draw(st.integers(1, 5))
    nt = draw(st.integers(0, 2))
    lams = draw(st.lists(_partition(n, 3).filter(lambda lam: sum(lam) <= 6), max_size=5))
    t_exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * nt), min_size=1, max_size=3, unique=True))
    x_degree = max(map(sum, lams), default=0)
    code = MonomialCode(n, nt, x_degree, max(map(sum, t_exps)))
    coeffs = {}
    for lam in lams:
        for te in draw(st.lists(st.sampled_from(t_exps), min_size=1, max_size=2, unique=True)):
            coeffs[(lam, code.part(te))] = draw(st.integers(-3, 3).filter(bool))
    return code, coeffs


@settings(max_examples=80, deadline=None)
@given(_schur_coefficients())
@example((MonomialCode(3, 1, 0, 0), {}))
@example((MonomialCode(3, 1, 0, 1), {((0, 0, 0), 0): 2, ((0, 0, 0), MonomialCode(3, 1, 0, 1).part((1,))): -1}))
@example((MonomialCode(4, 0, 4, 0), {((2, 1, 1, 0), 0): 1, ((3, 1, 0, 0), 0): -2, ((2, 2, 0, 0), 0): 3}))
def test_schur_to_monomials_is_the_n_row_expansion(args):
    code, coeffs = args
    assert schur_to_monomials(coeffs, code) == ref_schur_to_monomials(coeffs, code)
