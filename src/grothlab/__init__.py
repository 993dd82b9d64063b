"""grothlab: exact computation of weak symmetric (P-)Grothendieck polynomials.

The library computes the deformed families J and P by two independent
routes (an algebraic bialternant-style formula over truncated geometric
series, and a generating sum over multiset or shifted multiset tableaux),
implements the insertion bijections relating the two, and verifies the
agreement exhaustively at desk scale.
"""

from .algebra import (
    ExactDivisionError,
    Polynomial,
    TruncatedSeries,
    antisymmetrize,
    apply_permutation,
    coset_sum,
    divide_exact,
    vandermonde,
)
from .insertion import (
    InsertionError,
    PrimedDuplicationError,
    column_insert,
    column_reverse_insert,
    in_step,
    out_step,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    shifted_column_insert,
    shifted_column_reverse_insert,
)
from .partitions import (
    SignedPair,
    TExtension,
    conjugate,
    enumerate_extensions,
    iota,
    is_good_extension,
    staircase,
    verify_hmult_lemma,
)
from .polynomials import (
    BasisExpansion,
    ExpansionError,
    FamilySpec,
    algebraic_series,
    coefficient_via_hmult,
    combinatorial_series,
    expand_in_pschur,
    expand_in_schur,
    expansion_via_maximal,
    pschur,
    schur,
    specialize_t,
)
from .tableaux import (
    Entry,
    MultisetTableau,
    ShiftedMultisetTableau,
    SkewFilling,
    enumerate_mt,
    enumerate_rt,
    enumerate_smt,
    enumerate_srt,
    enumerate_ssyt,
    enumerate_sst,
    is_maximal_mt,
    is_maximal_smt,
    maximal_mt_to_rt,
    maximal_smt_to_srt,
    strip_signs,
)

__version__ = "0.1.0"
