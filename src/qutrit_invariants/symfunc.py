"""Exact symmetric-function arithmetic in the Schur basis.

Expressions are finite integer combinations of Schur functions keyed by
integer partitions.  The outer product uses the Littlewood-Richardson
rule; the inner (symmetric-group) product and plethysm route through the
power-sum basis, where an expansion is kept as the integer class function
X with characteristic map sum_rho X_rho p_rho / z_rho (Macdonald,
Symmetric Functions, I.7).  Converting back is one exact integer class sum
per Schur function against characters, which take one of two routes
(``character``): a shape (n - k, k) of at most two rows is a difference
of two subset-sum counts over the cycle lengths, read off one int, and a
longer shape takes the Murnaghan-Nakayama recursion, whose border strips
move the beads of a beta-set held as the bits of an int
(``_border_strips``).  Plethysms a[b] of one b capped at L <= 5 rows take
a second route (``plethysms``), with characters of S_|a| and of b's
weights only: it evaluates a[b] as a dense polynomial in L variables, each
exponent vector packed into one int (Kronecker's substitution), and reads
the coefficient of {lam} at x^(lam + delta) of a_delta times it (I.3).
One table of p_rho[b] serves both rings (``_product_table``); a single
capped `plethysm` takes the class route.  The sum of the squared Schur
coefficients, the Hall norm, needs no characters: it is one class sum of
X^2 (``hall_norm``).  No fractions and no floats appear, and every
division is one exact division (``_exact``).
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import lru_cache, partial
from itertools import chain, combinations, permutations, repeat
from math import comb, factorial, prod
from operator import add, mul

from .checks import integer, integer_cache

# The one bound on symmetric-group data, which keeps the memoized tables
# small: nothing in this package needs S_n past n = WEIGHT_LIMIT.  `kronecker`
# refuses an input weight past it, every plethysm an output weight past it
# (``_plethysm_rows``), and `counting.count_lu_pure` a degree past it.
WEIGHT_LIMIT = 14


def as_partition(parts):
    """Normalize ``parts`` to a tuple of weakly decreasing positive ints.

    Trailing zeros are stripped; anything else invalid, a part that is not
    an integer or is negative included, raises ValueError.
    """
    parts = tuple(parts)
    t = tuple(integer(p, "partition part", 0) for p in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts!r}")
    return t


@integer_cache("n")
def partitions(n, max_len=None):
    """All partitions of ``n`` as tuples, length bounded by ``max_len``;
    descending lexicographic order.  Each follows from the last: its last
    part v that can drop by one and leave the cells after it room in the
    rows left, at parts <= v - 1, does so, and those cells refill greedily."""
    cap = n if max_len is None else max_len
    if n <= 0 or cap < 1:
        return ((),) if n == 0 <= cap else ()
    out, parts = [], [n]
    while True:
        out.append(tuple(parts))
        rest = 0  # cells of the parts popped so far
        while parts:
            v = parts.pop()
            rest += v
            if v > 1 and rest - v + 1 <= (cap - len(parts) - 1) * (v - 1):
                break
        else:
            return tuple(out)
        q, r = divmod(rest, v - 1)
        parts += [v - 1] * q
        if r:
            parts.append(r)


def zclass(rho):
    """Centralizer order of the conjugacy class with cycle type ``rho``: a
    run of m equal parts k gives k^m m!, the product of k * (run position)."""
    z, run, prev = 1, 0, None
    for k in sorted(rho):
        run = run + 1 if k == prev else 1
        z, prev = z * k * run, k
    return z


def _exact(total, order, where):
    """``total`` divided by ``order``; ArithmeticError naming ``where`` when
    the division leaves a remainder."""
    coeff, rest = divmod(total, order)
    if rest:
        raise ArithmeticError(f"non-integral quotient {total}/{order} at {where}")
    return coeff


def class_sum(n, fn, scale=1):
    """Exact average of the class function ``fn`` over S_n, divided by
    ``scale``: the sum over cycle types rho of fn(rho) * (n!/z_rho), divided
    by n! * scale, in integers.  ArithmeticError when it is not an integer.
    """
    order = factorial(n)
    total = sum(fn(rho) * (order // zclass(rho)) for rho in partitions(n))
    return _exact(total, order * scale, f"the class sum over S_{n}")


def _collect(pairs):
    """Sum the values of equal keys in ``pairs``, dropping zero sums."""
    acc = defaultdict(int)
    for key, value in pairs:
        acc[key] += value
    return {key: value for key, value in acc.items() if value}


def _border_strips(lam, k):
    """Removable border strips of size ``k`` from ``lam``, as (smaller
    partition, strip height).  The beta-set of lam, its beta-numbers
    lam_i + len(lam) - 1 - i, is held as the bits of an int.  A strip moves
    the bead b of row i to a free place b - k; its height h is the bit count
    of the beads between them: rows i+1..i+h each lose a cell, row i lands
    below them, and any zero rows trail."""
    n, beads = len(lam), 0
    for i, x in enumerate(lam):
        beads |= 1 << (x + n - 1 - i)
    between = (1 << (k - 1)) - 1  # the k - 1 places above b - k
    for i, x in enumerate(lam):
        nb = x + n - 1 - i - k
        if nb < 0:
            break
        if beads >> nb & 1:
            continue
        h = (beads >> (nb + 1) & between).bit_count()
        j = i + 1 + h  # the first row below the strip
        mu = lam[:i] + (tuple([y - 1 for y in lam[i + 1:j]]) if h else ()) + (x - k + h,) + lam[j:]
        yield (mu[:mu.index(0)] if mu[-1] == 0 else mu), h


@lru_cache(maxsize=None)
def character(lam, rho):
    """Symmetric-group character value on cycle type ``rho``.  A shape
    (n - k, k) of at most two rows is pi_k - pi_(k-1), where pi_j counts the
    sets of cycles of ``rho`` whose lengths sum to j (Macdonald, I.7): one
    subset-sum pass over the parts, the counts pi_j held as the s-bit digits
    of an int (each is at most 2^len(rho) < 2^s), so that a part p adds the
    int shifted by s * p.  Longer shapes take the Murnaghan-Nakayama
    recursion over border strips."""
    if len(lam) <= 2:
        if sum(lam) != sum(rho):
            return 0
        if len(lam) < 2:
            return 1
        k, s = lam[1], len(rho) + 1
        pi = 1
        for part in rho:
            pi += pi << s * part
        digit = (1 << s) - 1
        return (pi >> s * k & digit) - (pi >> s * (k - 1) & digit)
    if not rho:
        return 0
    k, rest = rho[0], rho[1:]
    total = 0
    for mu, height in _border_strips(lam, k):
        total += (-1) ** height * character(mu, rest)
    return total


class SchurExpr:
    """Finite integer linear combination of Schur functions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = _collect((as_partition(lam), integer(c, "coefficient"))
                              for lam, c in items)

    @classmethod
    def _of(cls, terms):
        """Wrap ``terms``, already keyed by partitions with nonzero ints."""
        e = cls.__new__(cls)
        e.terms = terms
        return e

    @classmethod
    def schur(cls, parts):
        return cls._of({as_partition(parts): 1})

    def coefficient(self, parts):
        return self.terms.get(as_partition(parts), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SchurExpr) and self.terms == other.terms

    def __add__(self, other):
        return SchurExpr._of(_collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = integer(scalar, "scalar")
        return SchurExpr._of(_collect((lam, scalar * c) for lam, c in self.terms.items()))

    def __mul__(self, other):
        if isinstance(other, SchurExpr):
            return outer(self, other)
        return self.__rmul__(other)

    def __repr__(self):
        return format_expr(self)


def S(*parts):
    """Shorthand constructor: ``S(2, 1)`` is the Schur function {2,1}."""
    return SchurExpr.schur(parts)


# ---------------------------------------------------------------------------
# Littlewood-Richardson product

def _strip_chains(lam, mu):
    """Grow ``lam`` by horizontal strips of sizes ``mu`` subject to the
    ballot (lattice-word) condition; returns {result shape: multiplicity}."""
    # state: current shape and the per-row cell counts of the previous strip
    # (None for the first strip, which is unconstrained by the ballot rule)
    states = {(lam, None): 1}
    for size in mu:
        nxt = {}
        for (shape, prev), mult in states.items():
            rows = len(shape) + 1
            shp = shape + (0,) * (rows - len(shape))
            prv = None if prev is None else prev + (0,) * (rows - len(prev))

            def place(j, remaining, adds, cum, prev_cum):
                # ballot: cells of this letter in rows <= j never exceed
                # cells of the previous letter in rows <= j-1
                if j == rows:
                    if remaining == 0:
                        new_shape = tuple(s + a for s, a in zip(shp, adds))
                        new_shape = tuple(x for x in new_shape if x > 0)
                        key = (new_shape, tuple(adds))
                        nxt[key] = nxt.get(key, 0) + mult
                    return
                cap = remaining if j == 0 else min(remaining, shp[j - 1] - shp[j])
                if prv is not None:
                    cap = min(cap, prev_cum - cum)
                for a in range(cap, -1, -1):
                    place(j + 1, remaining - a, adds + [a], cum + a,
                          prev_cum + (prv[j] if prv is not None else 0))

            place(0, size, [], 0, 0)
        states = nxt
    return _collect((shape, mult) for (shape, _), mult in states.items())


@lru_cache(maxsize=None)
def _lr_product(lam, mu):
    """Expansion of s_lam * s_mu as a tuple of (nu, coefficient)."""
    if sum(lam) > sum(mu):  # fewer strips to place
        lam, mu = mu, lam
    return tuple(sorted(_strip_chains(mu, lam).items()))


def outer(a, b):
    """Pointwise (Littlewood-Richardson) product of two expressions."""
    return SchurExpr._of(_collect(
        (nu, ca * cb * k)
        for lam, ca in a.terms.items() for mu, cb in b.terms.items()
        for nu, k in _lr_product(lam, mu)))


# ---------------------------------------------------------------------------
# Power-sum plumbing: an expansion {rho: X} with integer X stands for
# sum_rho X_rho p_rho / z_rho, the characteristic map of the class function X.

@lru_cache(maxsize=None)
def _schur_term_to_p(lam):
    """p-expansion of a single Schur function: its character {rho: chi^lam_rho}."""
    return {rho: chi for rho in partitions(sum(lam)) if (chi := character(lam, rho))}


def _expr_to_p(expr):
    return _collect((rho, c * x) for lam, c in expr.terms.items()
                    for rho, x in _schur_term_to_p(lam).items())


def _p_mul(p1, p2):
    """Product: p_r1/z_r1 * p_r2/z_r2 is p_r/z_r times z_r/(z_r1 z_r2), the
    product over part sizes k of C(m_k(r1) + m_k(r2), m_k(r2)), r = r1 + r2."""
    return _collect((tuple(sorted(r1 + r2, reverse=True)),
                     x1 * x2 * prod(comb(r1.count(k) + r2.count(k), r2.count(k))
                                    for k in set(r2)))
                    for r1, x1 in p1.items() for r2, x2 in p2.items())


def _p_scale_parts(p, k):
    """Substitute p_m -> p_{km}; z_{k rho} = k^len(rho) z_rho."""
    return {tuple(k * x for x in rho): x * k ** len(rho) for rho, x in p.items()}


def _product_table(adams, product, unit):
    """p_rho[b] as a function of the cycle type rho, in the ring with the
    product ``product`` and the unit {``unit``: 1} where p_k[b] is
    ``adams(k)``: p_rho[b] minus its last part k times p_k[b].  Each prefix
    of rho is built once per table; a single part needs no product."""
    memo = {(): {unit: 1}}

    def composed(rho):
        if rho not in memo:
            if len(rho) == 1:
                memo[rho] = adams(rho[0])
            else:
                memo[rho] = product(composed(rho[:-1]), composed(rho[-1:]))
        return memo[rho]

    return composed


def _by_weight(p):
    """Split the p-expansion ``p`` into its homogeneous parts {n: {rho: X}}."""
    blocks = {}
    for rho, x in p.items():
        blocks.setdefault(sum(rho), {})[rho] = x
    return blocks


def _p_to_schur(p, scale=1, max_len=None):
    """Schur expansion of the p-expansion ``p`` divided by ``scale``, on the
    {lam} with at most ``max_len`` rows (the caller vouches for the rest):
    the coefficient of {lam} is the class sum of X_rho (n!/z_rho) chi^lam_rho
    over rho, divided by n! * scale.  ArithmeticError when that division is
    not exact, i.e. when the result is not a virtual character."""
    terms = {}
    for n, block in _by_weight(p).items():
        order = factorial(n)
        weights = [x * (order // zclass(rho)) for rho, x in block.items()]
        for lam in partitions(n, max_len):
            total = sum(map(mul, weights, map(character, repeat(lam), block)))
            if coeff := _exact(total, order * scale, lam):
                terms[lam] = coeff
    return SchurExpr._of(terms)


def hall_norm(p, scale=1):
    """Hall inner product <f, f> of f, the p-expansion ``p`` divided by
    ``scale``: the sum of its squared Schur coefficients, with no Schur
    expansion.  Since <p_rho, p_sigma> = z_rho delta_rho,sigma (Macdonald,
    I.4), the weight-n part is the `class_sum` of X_rho^2 divided by
    scale^2.  ArithmeticError when that division is not exact, since then
    f is not a virtual character."""
    return sum(class_sum(n, lambda rho: block.get(rho, 0) ** 2, scale * scale)
               for n, block in _by_weight(p).items())


# ---------------------------------------------------------------------------
# Inner product, plethysm, series

def kronecker(a, b):
    """Inner product: reduction of tensor products of symmetric-group
    representations.  Terms of unequal weight annihilate."""
    if max((sum(lam) for e in (a, b) for lam in e.terms), default=0) > WEIGHT_LIMIT:
        raise ValueError(f"inner product supported up to weight {WEIGHT_LIMIT}")
    # the inner product multiplies class functions pointwise
    pa, pb = _expr_to_p(a), _expr_to_p(b)
    return _p_to_schur({rho: xa * pb[rho] for rho, xa in pa.items() if rho in pb})


def _plethysm_rows(outers, b):
    """Row bound L = m times max len(nu) over ``b`` of the plethysms a[b],
    m the largest weight over the ``outers`` a; ValueError for an output
    weight past WEIGHT_LIMIT."""
    wmax = max((sum(lam) for lam in b.terms), default=0)
    m = max((sum(lam) for a in outers for lam in a.terms), default=0)
    if m * wmax > WEIGHT_LIMIT:
        raise ValueError(f"plethysm supported up to output weight {WEIGHT_LIMIT}")
    return m * max(map(len, b.terms), default=0)


def _class_weighted(a, composed):
    """(F, m!) with F the sum, over the terms c{lam} of ``a`` and the cycle
    types rho, of c chi^lam_rho (m!/z_rho) composed(rho), m the largest
    weight in ``a``: F is m! a[b] when composed(rho) is p_rho[b], since
    s_lam = sum_rho chi^lam_rho p_rho / z_rho."""
    order = factorial(max((sum(lam) for lam in a.terms), default=0))
    acc = defaultdict(int)
    for lam, c in a.terms.items():
        for rho, chi in _schur_term_to_p(lam).items():
            weight = c * chi * (order // zclass(rho))
            for key, v in composed(rho).items():
                acc[key] += weight * v
    return {key: v for key, v in acc.items() if v}, order


def plethysm_class(a, b):
    """Class function of the plethysm s_lam[b], extended linearly in ``a``.

    Returns (X, order, rows): a[b] is sum_rho X_rho p_rho / z_rho divided by
    order = m!, m the largest weight in ``a``, and only {lam} with at most
    rows = L = m times max len(nu) over ``b`` can occur in it: S_mu(W) lies
    in W^(x|mu|), and a Littlewood-Richardson term of {alpha}{beta} has at
    most len(alpha) + len(beta) rows.  A virtual ``b`` reduces to this case
    through s_mu[X - Y] = sum c^mu_{alpha beta} s_alpha[X] (-1)^|beta|
    s_beta'[Y] (Macdonald, I.8).
    """
    rows = _plethysm_rows([a], b)
    composed = _product_table(partial(_p_scale_parts, _expr_to_p(b)), _p_mul, ())
    return (*_class_weighted(a, composed), rows)


# ---------------------------------------------------------------------------
# Polynomials in L variables, for plethysms capped at L <= 5 rows: {e: c},
# c the coefficient at the monomial x^v, its exponent vector packed into the
# int e = sum_i v_i B^(L-1-i) (Kronecker's substitution).  Vectors whose
# entries differ by less than B pack to equal ints only when they are equal,
# negative entries included; a product of monomials adds their ints, x -> x^k
# multiplies them by k, and a degree sum_i v_i < B - 1 is e mod (B - 1).

def _pack(vec, base):
    """The int sum_i v_i base^(L-1-i) of the exponent vector ``vec``."""
    e = 0
    for v in vec:
        e = e * base + v
    return e


def _poly_mul(g, h):
    """Product of the packed polynomials ``g`` and ``h``."""
    return _collect((e1 + e2, c1 * c2) for e1, c1 in g.items() for e2, c2 in h.items())


def _poly_adams(f, k):
    """p_k[f] for the packed polynomial ``f``: f(x_1^k, ..., x_L^k)."""
    return {k * e: c for e, c in f.items()}


def _poly_to_schur(f, order, L, base):
    """Schur expansion of the symmetric polynomial ``f`` in L variables,
    packed in ``base``, divided by ``order``: the coefficient of {lam},
    len(lam) <= L, is [x^(lam + delta)] a_delta f (Macdonald, I.3), divided
    exactly (ArithmeticError otherwise).  a_delta is the sum over pi in S_L
    of sgn(pi) x^pi(delta), delta = (L-1, ..., 0), so that is the signed sum
    of f at lam + delta - pi(delta), whose entries lie in [1 - L, deg f + L - 1]:
    a base past deg f + L - 1 keeps them apart from the exponents of f."""
    delta = range(L - 1, -1, -1)
    shifts = [((-1) ** sum(x < y for x, y in combinations(pi, 2)), _pack(pi, base))
              for pi in permutations(delta)]
    terms = {}
    for n in sorted({e % (base - 1) for e in f}):
        for lam in partitions(n, L):
            top = _pack(map(add, chain(lam, repeat(0, L - len(lam))), delta), base)
            if coeff := _exact(sum(s * f.get(top - shift, 0) for s, shift in shifts), order, lam):
                terms[lam] = coeff
    return SchurExpr._of(terms)


def plethysms(outers, b, max_len):
    """[plethysm(a, b, max_len) for a in ``outers``], read off symmetric
    polynomials in L = min(max_len, row bound) variables, in exact ints;
    ValueError for a cap past 5 rows, where `plethysm` is the cheaper.

    a[b](x_1..x_L) is a evaluated at the monomials of b(x_1..x_L)
    (Macdonald, I.8), and it keeps every {lam} with at most L rows.  b is
    evaluated once, and p_rho[b] = prod_k b(x^k) once per cycle type rho,
    shared by every outer function; each a weights them by its class
    function, which needs characters of S_|a| only, and the Schur
    coefficients are read off a_delta times the sum.  The dense polynomials
    have C(d + L - 1, L - 1) monomials of degree d, and a_delta has L! terms,
    so the cost climbs steeply with L (README, "Exact counting").
    """
    cap = integer(max_len, "max_len", 0)
    if cap > 5:
        raise ValueError(f"plethysms reads at most 5 rows, got {cap}; plethysm reads any number")
    outers = list(outers)
    L = min(cap, _plethysm_rows(outers, b))
    # every degree is at most the output weight, so entries stay apart
    base = WEIGHT_LIMIT + L + 2
    # p_rho(x_1..x_L), from p_1 = x_1 + ... + x_L (zero when L = 0)
    power_sums = _product_table(partial(_poly_adams, {base ** i: 1 for i in range(L)}),
                                _poly_mul, 0)
    poly, order = _class_weighted(b, power_sums)
    inner = {e: _exact(c, order, "b in L variables") for e, c in poly.items()}
    composed = _product_table(partial(_poly_adams, inner), _poly_mul, 0)
    return [_poly_to_schur(*_class_weighted(a, composed), L, base) for a in outers]


def plethysm(a, b, max_len=None):
    """Plethysm (composition) s_lam[b], extended linearly in ``a``, on the
    {lam} with at most ``max_len`` rows (all of them when None).

    plethysm(S(n), x) is the {n}-symmetrized power of x; the classical
    product notation x (x) {n} corresponds to plethysm(S(n), x).  One Schur
    expansion of the class function of ``plethysm_class``, within its row
    bound and the cap; `plethysms` serves several a at a small cap.
    """
    cap = None if max_len is None else integer(max_len, "max_len", 0)
    p, order, rows = plethysm_class(a, b)
    return _p_to_schur(p, order, rows if cap is None else min(cap, rows))


def product_power_plethysm(a, b, n):
    """Symmetrized n-th power of a two-factor product character.

    Returns [(sigma, plethysm(S(sigma), a), plethysm(S(sigma), b))] over
    sigma of weight n; the symmetrized power of the product is the sum of
    the pairwise products of the two columns.  sigma = (n) comes first, so
    that its plethysms refuse an output weight past WEIGHT_LIMIT before
    partitions(n) is enumerated.
    """
    n = integer(n, "n", 0)

    def powers(sigma):
        ssig = SchurExpr.schur(sigma)
        return sigma, plethysm(ssig, a), plethysm(ssig, b)

    return [powers(as_partition((n,))), *map(powers, partitions(n)[1:])]


def sun_modify(a, N):
    """Restrict to SU(N) characters: drop terms longer than N and strip
    full columns of length N, merging coefficients."""
    if integer(N, "N") not in (2, 3):
        raise ValueError("only SU(2) and SU(3) are supported")

    def stripped(lam):
        m = lam[-1] if len(lam) == N else 0
        return tuple(x - m for x in lam if x > m)

    return SchurExpr._of(_collect((stripped(lam), c) for lam, c in a.terms.items()
                                  if len(lam) <= N))


def plethysm_series(k, max_weight):
    """Truncated series of all symmetrized powers of the one-row Schur
    function {k}: sum over n of plethysm(S(n), S(k)) up to max_weight.

    Plethysm is linear in its first argument, so this is the one plethysm
    of {0} + {1} + ... + {max_weight // k}; the {0} term gives the unit."""
    k, max_weight = integer(k, "k", 1), integer(max_weight, "max_weight", 0)
    inner = SchurExpr.schur((k,))
    _plethysm_rows([SchurExpr.schur((max_weight // k,))], inner)  # refuses before the sum
    return plethysm(SchurExpr({(n,): 1 for n in range(max_weight // k + 1)}), inner)


# ---------------------------------------------------------------------------
# Text form: "3{4,2} + {2,2,1}"; the printer and parser round-trip exactly.

_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+)?\s*\{\s*([0-9,\s]*)\}")


def format_expr(expr):
    if not expr.terms:
        return "0"
    keys = sorted(expr.terms, key=lambda lam: (sum(lam), [-x for x in lam]))
    pieces = []
    for i, lam in enumerate(keys):
        c = expr.terms[lam]
        body = "{" + (",".join(str(x) for x in lam) or "0") + "}"
        mag = abs(c)
        term = body if mag == 1 else f"{mag}{body}"
        if i == 0:
            pieces.append(term if c > 0 else "-" + term)
        else:
            pieces.append((" + " if c > 0 else " - ") + term)
    return "".join(pieces)


def parse_expr(text):
    text = text.strip()
    if text == "0":
        return SchurExpr()
    pos = 0
    out = SchurExpr()
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse expression at: {text[pos:]!r}")
        sign, mag, body = m.groups()
        if sign is None and not first:
            raise ValueError(f"missing sign before term at: {text[pos:]!r}")
        coeff = int(mag) if mag else 1
        if sign == "-":
            coeff = -coeff
        flat = [int(x) for x in body.replace(" ", "").split(",") if x]
        lam = () if flat == [0] or not flat else tuple(flat)
        out = out + coeff * SchurExpr.schur(lam)
        pos = m.end()
        first = False
    return out
