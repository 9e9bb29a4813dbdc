"""Skew Schur functions for the symmetric-function tests.

The package computes no skew: the tests use it to check the
Littlewood-Richardson product against the skew identities and to split a
plethysm over a sum, s_lam[b1 + b2] = sum_mu s_mu[b1] s_{lam/mu}[b2].
"""

from qutrit_invariants.symfunc import SchurExpr, _collect, _lr_product, partitions


def skew(a, b):
    """Skew {lam}/{mu} extended bilinearly: sum of C^lam_{mu,nu} {nu}."""
    return SchurExpr._of(_collect(
        (nu, ca * cb * dict(_lr_product(mu, nu)).get(lam, 0))
        for lam, ca in a.terms.items() for mu, cb in b.terms.items()
        for nu in partitions(sum(lam) - sum(mu))))
