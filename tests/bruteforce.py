"""Independent brute-force oracle for symmetric-function identities.

Works directly with monomial expansions in 7 variables (faithful for
weights up to 6).  Schur polynomials come from semistandard tableau
enumeration, characters from decomposing power-sum products, and Kronecker
coefficients from the inner product of those characters, so nothing here
shares code with the package's Murnaghan-Nakayama/power-sum engine.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

NVARS = 7


def poly_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def poly_add(p1, p2, scale=1):
    out = dict(p1)
    for e, c in p2.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_poly(k):
    out = {}
    for i in range(NVARS):
        e = [0] * NVARS
        e[i] = k
        out[tuple(e)] = 1
    return out


def p_of_type(rho):
    out = {(0,) * NVARS: 1}
    for k in rho:
        out = poly_mul(out, p_poly(k))
    return out


@lru_cache(maxsize=None)
def schur_poly(lam):
    """Monomial expansion of the Schur polynomial via semistandard
    tableaux with entries 1..NVARS."""
    lam = tuple(lam)
    if not lam:
        return {(0,) * NVARS: 1}
    rows = len(lam)
    out = {}
    tableau = [[0] * lam[i] for i in range(rows)]

    def fill(i, j):
        if i == rows:
            e = [0] * NVARS
            for row in tableau:
                for v in row:
                    e[v - 1] += 1
            key = tuple(e)
            out[key] = out.get(key, 0) + 1
            return
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, tableau[i][j - 1])
        if i > 0 and j < lam[i - 1]:
            lo = max(lo, tableau[i - 1][j] + 1)
        for v in range(lo, NVARS + 1):
            tableau[i][j] = v
            fill(ni, nj)
    fill(0, 0)
    return out


def schur_decompose(poly):
    """Peel a symmetric polynomial into Schur coefficients by repeatedly
    removing the lexicographically leading term."""
    work = dict(poly)
    out = {}
    while work:
        lead = max(work)
        lam = tuple(x for x in lead if x)
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)), \
            f"leading exponent {lead} is not a partition"
        c = work[lead]
        out[lam] = out.get(lam, 0) + c
        work = poly_add(work, schur_poly(lam), scale=-c)
    return {k: v for k, v in out.items() if v}


def _partitions(n, maxp=None):
    maxp = n if maxp is None else maxp
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxp), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def zclass(rho):
    z = 1
    mult = {}
    for k in rho:
        mult[k] = mult.get(k, 0) + 1
    for k, m in mult.items():
        z *= k ** m * factorial(m)
    return z


@lru_cache(maxsize=None)
def char_table(n):
    """chi^lam(rho) from decomposing power-sum products into Schur terms."""
    table = {}
    for rho in _partitions(n):
        dec = schur_decompose(p_of_type(rho))
        for lam, c in dec.items():
            table[(lam, rho)] = c
    return table


def oracle_char(lam, rho):
    return char_table(sum(lam)).get((tuple(lam), tuple(rho)), 0)


def oracle_outer(lam, mu):
    return schur_decompose(poly_mul(schur_poly(tuple(lam)), schur_poly(tuple(mu))))


def oracle_kron(lam, mu):
    """Kronecker coefficients g(lam, mu, nu) as the character inner product
    sum over rho of chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho, on the
    oracle's own character table."""
    n = sum(lam)
    if n != sum(mu):
        return {}
    out = {}
    for nu in _partitions(n):
        g = sum(Fraction(oracle_char(lam, rho) * oracle_char(mu, rho) * oracle_char(nu, rho),
                         zclass(rho)) for rho in _partitions(n))
        assert g.denominator == 1
        if g:
            out[nu] = int(g)
    return out


def oracle_plethysm(outer_lam, inner_mu):
    """s(outer)[s(inner)] by substituting the inner monomials into the
    power-sum expansion of the outer Schur function."""
    inner = schur_poly(tuple(inner_mu))
    n = sum(outer_lam)

    def p_sub(k):
        # p_k evaluated on the multiset of inner monomials
        return {tuple(k * x for x in e): c for e, c in inner.items()}

    acc = {}
    for rho in _partitions(n):
        chi = oracle_char(outer_lam, rho)
        if not chi:
            continue
        prod = {(0,) * NVARS: 1}
        for k in rho:
            prod = poly_mul(prod, p_sub(k))
        acc = poly_add(acc, prod, scale=Fraction(chi, zclass(rho)))
    dec = schur_decompose(acc)
    assert all(Fraction(c).denominator == 1 for c in dec.values())
    return {k: int(c) for k, c in dec.items()}
