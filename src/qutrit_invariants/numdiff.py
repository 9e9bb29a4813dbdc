"""Derivatives of polynomial maps by exact-degree central stencils.

A central difference stencil of order >= the polynomial degree has zero
truncation error, so Jacobians of the invariant polynomials carry only
rounding noise.  Weights are the classical rational values.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .checks import integer
from .contract import STACK, contract

STEP = 0.25  # spacing of the stencil points
RANK_THRESHOLD = 1e-8  # of the largest singular value, in numerical_rank

# order 2m -> offset k -> weight of the first-derivative stencil, exact for
# polynomials of degree <= 2m, offsets -m..-1, 1..m in order:
# w(k) = -w(-k) = (-1)^(k+1) (m!)^2 / (k (m-k)! (m+k)!)
_WEIGHTS = {2 * m: {k: Fraction((-1) ** (abs(k) + 1) * factorial(m) ** 2,
                                k * factorial(m - abs(k)) * factorial(m + abs(k)))
                    for k in [*range(-m, 0), *range(1, m + 1)]}
            for m in range(1, 5)}


def poly_jacobian(fn, x0, degree, directions):
    """The (k, m) product J V of the Jacobian J of ``fn`` at ``x0`` with the
    columns of an (n, m) matrix V of ``directions``: J itself for V the identity.

    ``fn`` maps an (M, n) stack of points to the (M, k) stack of its values
    and must be polynomial of total degree <= ``degree`` (1 to 8) in each
    coordinate; the stencil then differentiates it exactly up to rounding.
    All stencil points are evaluated in stacks of at most ``STACK``.
    """
    if not 1 <= integer(degree, "degree") <= max(_WEIGHTS):
        raise ValueError(f"stencil degree must be between 1 and {max(_WEIGHTS)}, "
                         f"got {degree}")
    order = min(o for o in _WEIGHTS if o >= degree)
    offsets, weights = zip(*_WEIGHTS[order].items())
    x0 = np.asarray(x0, dtype=float)
    V = np.asarray(directions, dtype=float)
    m, k = V.shape[1], len(offsets)
    # point j * k + i is x0 + offsets[i] * STEP * V[:, j]
    points = x0 + (V.T[:, None, :] * np.multiply(offsets, STEP)[:, None]).reshape(m * k, -1)
    values = np.concatenate([np.asarray(fn(points[s:s + STACK]), dtype=float)
                             for s in range(0, m * k, STACK)])
    return contract('jim,i->mj', values.reshape(m, k, -1), np.array(weights, dtype=float)) / STEP


def numerical_rank(matrix, rel_threshold=RANK_THRESHOLD):
    """Rank by SVD with a threshold relative to the largest singular value."""
    m = np.asarray(matrix, dtype=float)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rel_threshold * sv[0]))
