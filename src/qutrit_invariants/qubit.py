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

from .contract import contract, per_state
from .states import jacobian_rank
from .tensors import levi_civita

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
_EPS4 = levi_civita(4)
_EPS3 = levi_civita(3)


def _require_qubits(coords):
    if coords.dimA != 2 or coords.dimB != 2:
        raise ValueError("these invariants require two qubits")


def w_matrix(ext):
    """One-sided transfer matrix: raise/lower with the metric on both
    slots of the coordinate matrix and contract the bar side."""
    ext = np.asarray(ext, dtype=float)
    return ext @ ETA @ ext.swapaxes(-1, -2) @ ETA


def w_matrix_bar(ext):
    """The partner acting on the other side; isospectral to w_matrix."""
    ext = np.asarray(ext, dtype=float)
    return ext.swapaxes(-1, -2) @ ETA @ ext @ ETA


def trace_invariants(ext, ks):
    """Tr(w^k) for each k of ``ks`` over a coordinate stack (Q2, Q4, Q6, Q8 for
    k = 1..4), forming w^k = w^ceil(k/2) @ w^floor(k/2) up to max(ks) only."""
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
    eps_form = contract('abcd,pqrs,...ap,...bq,...cr,...ds->...', _EPS4, _EPS4,
                        ext, ext, ext, ext)
    vals = dict(zip(("Q2", "Q4", "Q6", "Q8"), trace_invariants(ext, (1, 2, 3, 4))),
                Q4t=determinant_invariant(ext), Q4t_eps=eps_form / 24.0)
    return {k: per_state(v, ext) for k, v in vals.items()}


def q2_expansion(coords):
    """Block expansion of Q2 for a trace-normalized state (or each state of
    a stack): 1/16 - r.r - rbar.rbar + sum R^2."""
    _require_qubits(coords)
    r, rbar, R = coords.r, coords.rbar, coords.R
    dot = '...a,...a->...'
    return per_state(1.0 / 16.0 - contract(dot, r, r) - contract(dot, rbar, rbar)
                     + contract('...ab,...ab->...', R, R), coords.ext)


def q4_expansion(coords):
    """Block expansion of Q4 for a trace-normalized state (or each state of
    a stack)."""
    _require_qubits(coords)
    r, rbar, R = coords.r, coords.rbar, coords.R
    Rt = R.swapaxes(-1, -2)
    RRt = R @ Rt
    dot, quad = '...a,...a->...', '...a,...ab,...b->...'
    rr, bb = contract(dot, r, r), contract(dot, rbar, rbar)
    return per_state(np.trace(RRt @ RRt, axis1=-2, axis2=-1)
                     + rr ** 2 + bb ** 2
                     - 2.0 * contract(quad, r, RRt, r)
                     - 2.0 * contract(quad, rbar, Rt @ R, rbar)
                     + contract(quad, r, R, rbar)
                     - rr / 8.0 - bb / 8.0 + 1.0 / 256.0, coords.ext)


def q4tilde_expansion(coords):
    """Block expansion of the coordinate-matrix determinant for a
    trace-normalized state (or each state of a stack): det(R)/4 minus half
    the double-cross coupling.

    The minus sign is forced by the determinant itself (block expansion of
    the 4x4 coordinate matrix with the standard epsilon orientation) and is
    pinned against the direct determinant by the test suite.
    """
    _require_qubits(coords)
    r, rbar, R = coords.r, coords.rbar, coords.R
    cross = contract('ijk,pqr,...i,...jp,...kq,...r->...', _EPS3, _EPS3,
                     r, R, R, rbar)
    return per_state(np.linalg.det(R) / 4.0 - cross / 2.0, coords.ext)


def expansion_residuals(coords):
    """Residuals of the three block expansions against the direct values:
    floats for a single state, arrays over a stacked state."""
    _require_qubits(coords)
    q = q_invariants(coords.ext)
    return {
        "Q2": abs(q["Q2"] - q2_expansion(coords)),
        "Q4": abs(q["Q4"] - q4_expansion(coords)),
        "Q4t": abs(q["Q4t"] - q4tilde_expansion(coords)),
        "Q4t_eps": abs(q["Q4t"] - q["Q4t_eps"]),
    }


def dependence_jacobian_rank(coords):
    """Rank of the Jacobian of (Q2, Q4, Q6, Q8, Q4t) over the fifteen free
    coordinates of a normalized state; the expected value is 4, witnessing
    one polynomial relation tying Q8 to the others."""
    _require_qubits(coords)

    names = ("Q2", "Q4", "Q6", "Q8", "Q4t")

    def fn(c):
        q = q_invariants(c.ext)
        return np.stack([q[k] for k in names], axis=-1)

    return jacobian_rank(coords, fn, degree=8, k=len(names))


def q8_relation_residual(ext):
    """Residual of the measured polynomial relation expressing Q8 through
    Q2, Q4, Q6 and the squared coordinate determinant (a Newton identity
    for the transfer-matrix spectrum whose product is that square)."""
    q = q_invariants(ext)
    predicted = (q["Q2"] ** 4 - 6.0 * q["Q2"] ** 2 * q["Q4"]
                 + 8.0 * q["Q2"] * q["Q6"] + 3.0 * q["Q4"] ** 2
                 - 24.0 * q["Q4t"] ** 2) / 6.0
    return abs(q["Q8"] - predicted)
