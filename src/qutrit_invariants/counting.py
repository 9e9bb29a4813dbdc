"""Combinatorial counts of linearly independent local invariants.

All counts are exact integers obtained from symmetric-group characters and
Schur-function plethysms; nothing here touches floating point.  The qutrit
local-special-linear count rests on an unproven multiplicity reading and is
flagged as a conjecture in its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .checks import integer
from .symfunc import (
    SchurExpr,
    character,
    class_sum,
    hall_norm,
    partitions,
    plethysm,  # no count calls it; the perfbench tracer wraps it here
    plethysm_class,
    plethysms,
    sun_modify,
)

ADJOINT = SchurExpr.schur((2, 1))

# Largest supported degree of each count table, by local dimension: the
# counting functions and the command line both check against it.
MAX_DEGREE = {"lu": {2: 8, 3: 5}, "lsl": {2: 12, 3: 12}}


def _check_degree(family, D, n):
    """(D, n) as ints; ``ValueError`` unless the ``family`` table covers
    degree n at local dimension D."""
    D, n = integer(D, "D"), integer(n, "n")
    limits = MAX_DEGREE[family]
    if D not in limits:
        raise ValueError("local dimension must be 2 or 3")
    if not 0 <= n <= limits[D]:
        raise ValueError(f"supported degrees: 0 <= n <= {limits[D]} for D={D}")
    return D, n


@dataclass(frozen=True)
class CountReport:
    degree: int
    count: int
    method: str
    conjecture: bool = False

    def as_dict(self):
        """``dataclasses.asdict`` without its deep copy of immutable values."""
        return dict(vars(self))


def count_lu_pure(K, D, n):
    """Linearly independent degree-n local-unitary invariants of a pure
    K-qudit state with local dimension D.

    Vanishes unless D divides n; otherwise it is the multiplicity of the
    trivial representation in the K-fold inner product of the rectangular
    character (r^D), r = n/D.
    """
    K, D, n = integer(K, "K"), integer(D, "D"), integer(n, "n")
    if not 1 <= K <= 4 or D not in (2, 3) or not 0 <= n <= 12:
        raise ValueError("supported range: 1 <= K <= 4, D in {2,3}, 0 <= n <= 12")
    if n == 0:
        return 1
    if n % D:
        return 0
    tau = (n // D,) * D
    return class_sum(n, lambda rho: character(tau, rho) ** K)


def count_lu_mixed(D, n):
    """Linearly independent degree-n local-unitary invariants of a
    bipartite mixed state with local dimension D.

    Sums <Y, chi^tau>^2 over tau, Y = sum chi^sigma^2 over sigma of n with
    at most D rows; the chi^tau are orthonormal, so this is <Y, Y>: one
    ``hall_norm`` of Y, with no tau and no bound on its rows.
    """
    D, n = _check_degree("lu", D, n)
    return hall_norm({rho: sum(character(sigma, rho) ** 2 for sigma in partitions(n, max_len=D))
                      for rho in partitions(n)})


def graded_table(columns):
    """Connected invariants at each multidegree (p, q, s) in ``columns``, a
    list of tuples of total degree <= 4, as a list of counts.

    The raw count sums, over sigma of weight s, the SU(3) singlets of the
    (p) and sigma symmetrized powers of the adjoint times those of (q) and
    sigma; it includes products of lower-degree invariants, and at total
    degree 4 the only ones, pairs of quadratics, are subtracted.  One table
    keyed by sigma holds each power, reduced once.  All of them come from
    one `plethysms` call on the {lam} with at most 3 rows, since the SU(3)
    reduction drops the others: polynomials in three variables that share
    each p_rho[{2,1}] and need characters of S_4 at most.  The adjoint is a
    real representation, so every symmetrized power of it is
    self-conjugate: the singlets of a product of two powers pair their
    coefficients at the same irreducible.
    """
    columns = [(integer(p, "p", 0), integer(q, "q", 0), integer(s, "s", 0)) for p, q, s in columns]
    if any(sum(c) > 4 for c in columns):
        raise ValueError("supported gradings have total degree <= 4")
    quads = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    split = {tuple(map(add, g1, g2)): (g1, g2) for i, g1 in enumerate(quads) for g2 in quads[i:]}
    needed = set(columns).union(*(split[c] for c in columns if c in split))
    sigmas = sorted({(n,) if n else () for g in needed for n in g[:2]}.union(
        *(partitions(g[2]) for g in needed)))
    expanded = plethysms([SchurExpr.schur(sigma) for sigma in sigmas], ADJOINT, 3)
    power = {sigma: sun_modify(e, 3) for sigma, e in zip(sigmas, expanded)}

    def singlets(n, sigma):  # sigma's power is its own dual: pair equal irreducibles
        one, other = power[(n,) if n else ()].terms, power[sigma].terms
        return sum(c * other.get(lam, 0) for lam, c in one.items())

    raw = {(p, q, s): sum(singlets(p, sigma) * singlets(q, sigma) for sigma in partitions(s))
           for p, q, s in needed}

    def connected(c):
        if c not in split:
            return raw[c]
        g1, g2 = split[c]
        n1, n2 = raw[g1], raw[g2]
        return raw[c] - (n1 * (n1 + 1) // 2 if g1 == g2 else n1 * n2)

    return [connected(c) for c in columns]


def count_graded_quartics(p, q, s):
    """Connected invariants of multidegree (p, q, s), total degree <= 4:
    the one-column ``graded_table``."""
    return graded_table([(p, q, s)])[0]


GRADED_COLUMNS = [
    (4, 0, 0), (0, 4, 0), (1, 0, 3), (0, 1, 3), (2, 0, 2), (0, 2, 2),
    (1, 1, 2), (1, 2, 1), (2, 1, 1), (3, 0, 1), (0, 3, 1), (0, 0, 4),
]


def count_lsl(D, n):
    """Local-special-linear (SLOCC) invariant count for a bipartite mixed
    state of local dimension D, as a CountReport.

    D = 2 is computed through the equivalence with local-unitary counting
    for four-qubit pure states.  D = 3 reads multiplicities off the
    symmetrized-power series of the degree-3 symmetric invariant tensor; no
    modification rules are known for that case, so the result is flagged as
    a conjecture.  The weight-n part of that series, n = 3m, is the one
    plethysm S(m)[S(3)], and the count is the sum of its squared Schur
    coefficients: its Hall norm, read off the class function of
    S(m)[S(3)] without expanding it in Schur functions.
    """
    D, n = _check_degree("lsl", D, n)
    if D == 2:
        count = count_lu_pure(4, 2, n)
        return CountReport(n, count, "four-qubit pure-state equivalence")
    count = 0
    if n % 3 == 0:
        p, order, _ = plethysm_class(SchurExpr.schur((n // 3,)), SchurExpr.schur((3,)))
        count = hall_norm(p, order)
    return CountReport(n, count, "symmetric-cube series multiplicities",
                       conjecture=True)
