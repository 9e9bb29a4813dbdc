"""Hermitian matrix bases and their structure constants.

Builds the Pauli (dim 2) and Gell-Mann (dim 3) bases in the standard
ordering, the antisymmetric f and symmetric d coefficient arrays from their
trace formulas, and the totally symmetric rank-3 tensor extending d to the
identity direction (index 0), whose invariance group realizes the local
special-linear transformations of a single qutrit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .checks import integer_cache
from .contract import contract, per_state

_SQ3 = np.sqrt(3.0)

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# lambda_1..lambda_8 with lambda_3, lambda_8 diagonal; Tr(l_a l_b) = 2 delta_ab
GELL_MANN = np.array([
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    [[1 / _SQ3, 0, 0], [0, 1 / _SQ3, 0], [0, 0, -2 / _SQ3]],
], dtype=complex)


@dataclass(frozen=True)
class StructureTensors:
    """Basis matrices, their trace norms, f, d and the extended symmetric tensor.

    lam_ext is the extended basis with entry 0 the identity, so lam_ext[1:]
    is the traceless basis; norms[a] = Tr(l_a l_a).  f and d are dense
    (n, n, n) arrays over the traceless basis (n = dim^2 - 1, 0-based
    indices); dtilde is (n+1, n+1, n+1) with index 0 the identity direction.
    d and dtilde exist only for dim 3.
    """

    dim: int
    lam_ext: np.ndarray   # (n+1, dim, dim), entry 0 is the identity
    norms: np.ndarray     # (n+1,): dim for the identity, 2 for the others
    f: np.ndarray
    d: np.ndarray | None
    dtilde: np.ndarray | None


def _freeze(a):
    a.setflags(write=False)
    return a


@integer_cache("n")
def levi_civita(n):
    """The totally antisymmetric tensor with n indices, eps[0, 1, .., n-1] = 1,
    built once per n and shared read-only."""
    eps = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        eps[perm] = np.linalg.det(np.eye(n)[list(perm)])  # exactly +-1
    return _freeze(eps)


@integer_cache("dim")
def build_structure_tensors(dim):
    """Construct the basis and coefficient arrays for local dimension 2 or 3.

    f_abc = Tr([l_a, l_b] l_c) / 4i and d_abc = Tr({l_a, l_b} l_c) / 4,
    every entry read at its sorted index triple (f with the sign of the
    sorting permutation), so total (anti)symmetry holds exactly.
    """
    lams = {2: PAULI, 3: GELL_MANN}.get(dim)
    if lams is None:
        raise ValueError(f"unsupported local dimension {dim}")
    n = dim * dim - 1
    prods = lams[:, None] @ lams[None]   # l_a l_b
    swapped = prods.swapaxes(0, 1)       # l_b l_a

    def traces(x):  # Tr(x_ab l_c)
        return np.trace(x[:, :, None] @ lams[None, None], axis1=-2, axis2=-1)

    a, b, c = np.indices((n, n, n))
    lo, mid, hi = np.sort([a, b, c], axis=0)
    sign = np.sign((b - a) * (c - a) * (c - b))
    f = (traces(prods - swapped) / 4j).real[lo, mid, hi]
    d = (traces(prods + swapped) / 4).real[lo, mid, hi]
    f = np.where(np.abs(f) > 1e-14, sign * f, 0.0)
    d = np.where(np.abs(d) > 1e-14, d, 0.0)

    lam_ext = _freeze(np.concatenate([np.eye(dim, dtype=complex)[None], lams]))
    norms = np.full(dim * dim, 2.0)  # Tr(l_a l_b) = 2 delta_ab, Tr(I I) = dim
    norms[0] = dim
    if dim == 2:
        return StructureTensors(2, lam_ext, _freeze(norms), _freeze(f), None, None)

    dt = np.zeros((9, 9, 9))
    dt[0, 0, 0] = 1.5
    i = np.arange(1, 9)
    dt[0, i, i] = dt[i, 0, i] = dt[i, i, 0] = -0.5
    dt[1:, 1:, 1:] = d
    return StructureTensors(3, lam_ext, _freeze(norms), _freeze(f), _freeze(d), _freeze(dt))


def cyclic_identity_check():
    """Residuals of the once-contracted quartet identities used throughout
    the quartic analysis.

    Over four free octet indices (a, b, c, d), the cyclic sum in (a, b, c)
    of the pattern X_{ace} Y_{ebd} vanishes for (X, Y) = (d, f) and (f, f),
    while for (d, d) it equals one third of the matching delta-delta sum.
    Returns the max-abs residual of each, on the qutrit tensors.
    """
    t = build_structure_tensors(3)
    f, d = t.f, t.d

    def cyclic(x, y):
        return (contract('ace,ebd->abcd', x, y)
                + contract('bae,ecd->abcd', x, y)
                + contract('cbe,ead->abcd', x, y))

    eye = np.eye(8)
    dd = cyclic(d, d)
    deltas = (contract('ac,bd->abcd', eye, eye)
              + contract('ba,cd->abcd', eye, eye)
              + contract('cb,ad->abcd', eye, eye))
    return {
        "df": float(np.abs(cyclic(d, f)).max()),
        "ff": float(np.abs(cyclic(f, f)).max()),
        "dd_minus_deltadelta": float(np.abs(dd - deltas / 3.0).max()),
    }


def det_from_dtilde(coords):
    """Evaluate the cubic form of the extended symmetric tensor on single-
    qutrit coordinates (r0, r1..r8) alongside the direct determinant.

    Returns (cubic value, determinant of the reconstructed matrix): floats
    for one coordinate vector, arrays over the stack for (..., 9).  The two
    are proportional; the constant is measured by the test suite rather than
    assumed.  Raises ``ValueError`` for a non-finite coordinate.
    """
    from .states import from_single_coords  # states builds on this module

    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (9,):
        raise ValueError("expected 9 single-qutrit coordinates")
    if not np.isfinite(coords).all():
        raise ValueError("single-qutrit coordinates must be finite")
    dt = build_structure_tensors(3).dtilde
    cubic = contract('abc,...a,...b,...c->...', dt, coords, coords, coords)
    rho = from_single_coords(coords, 3)
    return per_state(cubic, rho), per_state(np.linalg.det(rho).real, rho)
