"""Two-qubit invariants under local unit-determinant transformations.

Qubit coordinates live in a four-dimensional space with the Lorentz-type
metric diag(1, -1, -1, -1); the relativistic transfer matrix built from
the bipartite coordinate matrix yields the trace invariants Q2, Q4, Q6
(and Q8, which is dependent), while the determinant of the coordinate
matrix itself supplies the quartic invariant Q4t with an equivalent
epsilon-epsilon contraction form.
"""

from __future__ import annotations

import numpy as np

from . import tensors
from .checks import integer
from .contract import contract, per_state
from .states import jacobian_rank, require_dims, require_unit_trace

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def w_matrix(ext):
    """One-sided transfer matrix: raise/lower with the metric on both
    slots of the coordinate matrix and contract the bar side."""
    ext = np.asarray(ext, dtype=float)
    return ext @ ETA @ ext.swapaxes(-1, -2) @ ETA


def w_matrix_bar(ext):
    """The partner acting on the other side: w_matrix of the transpose."""
    return w_matrix(np.swapaxes(ext, -1, -2))


def trace_invariants(ext, ks):
    """Tr(w^k) for each k of ``ks`` over a coordinate stack (Q2, Q4, Q6, Q8 for
    k = 1..4), forming w^k = w^ceil(k/2) @ w^floor(k/2) up to max(ks) only."""
    ks = [integer(k, "trace power k", 1) for k in ks]
    if not ks:
        raise ValueError(f"trace powers need a non-empty list of k >= 1, got {ks!r}")
    powers = [w_matrix(ext)]
    for k in range(2, max(ks) + 1):
        powers.append(powers[(k + 1) // 2 - 1] @ powers[k // 2 - 1])
    return [np.trace(powers[k - 1], axis1=-2, axis2=-1) for k in ks]


def determinant_invariant(ext):
    """Q4t alone: the determinant of each coordinate matrix of a stack."""
    return np.linalg.det(np.asarray(ext, dtype=float))


def q_invariants(ext):
    """Trace invariants of the transfer matrix plus the coordinate-matrix
    determinant, computed both directly and by the epsilon contraction.

    ``ext`` is one (4, 4) coordinate matrix or a stack (..., 4, 4); the
    values are floats for one matrix and arrays over the stack otherwise.
    """
    ext = np.asarray(ext, dtype=float)
    eps4 = tensors.levi_civita(4)
    eps_form = contract('abcd,pqrs,...ap,...bq,...cr,...ds->...', eps4, eps4,
                        ext, ext, ext, ext)
    vals = dict(zip(("Q2", "Q4", "Q6", "Q8"), trace_invariants(ext, (1, 2, 3, 4))),
                Q4t=determinant_invariant(ext), Q4t_eps=eps_form / 24.0)
    return {k: per_state(v, ext) for k, v in vals.items()}


def expansion_residuals(coords, q):
    """Residuals of the block expansions of Q2, Q4 and Q4t against their
    direct values ``q`` (the dict ``q_invariants(coords.ext)`` returns), and
    of Q4t's epsilon form: floats for a single state, arrays over a stacked
    state.  Raises ``ValueError`` unless every state has trace 1, where the
    expansions hold.

    Q4t, the coordinate-matrix determinant, expands as det(R)/4 minus half
    the double-cross coupling.  The minus sign is forced by the determinant
    itself (block expansion of the 4x4 coordinate matrix with the standard
    epsilon orientation) and is pinned against the direct determinant by
    the test suite.
    """
    require_dims(coords, 2)
    require_unit_trace(coords)
    r, rbar, R = coords.r, coords.rbar, coords.R
    Rt = R.swapaxes(-1, -2)
    RRt = R @ Rt
    dot, quad = '...a,...a->...', '...a,...ab,...b->...'
    rr, bb = contract(dot, r, r), contract(dot, rbar, rbar)
    q2 = 1.0 / 16.0 - rr - bb + contract('...ab,...ab->...', R, R)
    q4 = (np.trace(RRt @ RRt, axis1=-2, axis2=-1)
          + rr ** 2 + bb ** 2
          - 2.0 * contract(quad, r, RRt, r)
          - 2.0 * contract(quad, rbar, Rt @ R, rbar)
          + contract(quad, r, R, rbar)
          - rr / 8.0 - bb / 8.0 + 1.0 / 256.0)
    eps3 = tensors.build_structure_tensors(2).f  # su(2)'s f is the 3-index epsilon
    cross = contract('ijk,pqr,...i,...jp,...kq,...r->...', eps3, eps3, r, R, R, rbar)
    q4t = np.linalg.det(R) / 4.0 - cross / 2.0
    residuals = {"Q2": q["Q2"] - q2, "Q4": q["Q4"] - q4, "Q4t": q["Q4t"] - q4t,
                 "Q4t_eps": q["Q4t"] - q["Q4t_eps"]}
    return {k: per_state(abs(v), coords.ext) for k, v in residuals.items()}


def dependence_jacobian_rank(coords):
    """Rank of the Jacobian of (Q2, Q4, Q6, Q8, Q4t) over the fifteen free
    coordinates of a normalized state; the expected value is 4, witnessing
    one polynomial relation tying Q8 to the others."""
    require_dims(coords, 2)

    def fn(c):  # the five values of q_invariants, without its epsilon form
        return np.stack([*trace_invariants(c.ext, (1, 2, 3, 4)),
                         determinant_invariant(c.ext)], axis=-1)

    return jacobian_rank(coords, fn, degree=8, k=5)


def q8_relation_residual(ext):
    """Residual of the measured polynomial relation expressing Q8 through
    Q2, Q4, Q6 and the squared coordinate determinant (a Newton identity
    for the transfer-matrix spectrum whose product is that square)."""
    q = q_invariants(ext)
    predicted = (q["Q2"] ** 4 - 6.0 * q["Q2"] ** 2 * q["Q4"]
                 + 8.0 * q["Q2"] * q["Q6"] + 3.0 * q["Q4"] ** 2
                 - 24.0 * q["Q4t"] ** 2) / 6.0
    return abs(q["Q8"] - predicted)
