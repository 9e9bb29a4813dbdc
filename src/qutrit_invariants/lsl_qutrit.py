"""Local special-linear (SLOCC) machinery for qutrits.

Unit-determinant complex 3x3 maps act on the nine real coordinates of a
single qutrit through a 3:1 covering onto a group of real 9x9 matrices
that preserve the extended totally symmetric rank-3 tensor.  This module
builds that induced representation, the sixteen-dimensional Lie algebra
with its isomorphism certificate, and the degree-3 and degree-6 invariants
of two-qutrit states under the product group, including the expansion of
the cubic invariant in local-unitary invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import tensors
from .checks import integer
from .contract import STACK, contract, per_state
from .numdiff import numerical_rank
from .states import coordinate_action, random_local_sl, require_unit_trace

DET_TOL = 1e-10
ALGEBRA_MIN_TRIALS = 5  # the fewest random maps the algebra certificate is built on


def _dtilde(*shape):
    """dtilde as `tensors` builds it, read at call time and reshaped to
    ``shape``: it is exactly symmetric in its three slots, so a reshape
    alone moves any slot last."""
    return tensors.build_structure_tensors(3).dtilde.reshape(shape)


def _real_action(m, what):
    imag = np.abs(m.imag).max()
    if imag > 1e-12:
        raise ValueError(f"{what} has imaginary residue {imag:.2e}")
    return np.ascontiguousarray(m.real)


def induce_map(A):
    """Induced real 9x9 map m of A in the unit-determinant group, defined
    by A l_a A^dag = sum_b m[b, a] l_b."""
    A = np.asarray(A, dtype=complex)
    if not np.isfinite(A).all():
        raise ValueError("A has non-finite entries")
    det = np.linalg.det(A)
    if abs(det - 1) > DET_TOL:
        raise ValueError(f"determinant must be 1 (got {det})")
    return _real_action(coordinate_action(A, A, 3), "induced map")


def induced_generator(X):
    """Derivative of the induced map along A(t) = exp(tX) at t = 0,
    computed exactly from rho -> X rho + rho X^dag."""
    if not np.isfinite(X).all():
        raise ValueError("X has non-finite entries")
    eye = np.eye(3)
    m = coordinate_action(X, eye, 3) + coordinate_action(eye, X, 3)
    return _real_action(m, "induced generator")


def dtilde_preservation_residual(m):
    """Max deviation of the triple contraction of the symmetric tensor with
    three copies of m from the tensor itself: a float for one (9, 9) map,
    an array over the stack for (..., 9, 9)."""
    m = np.asarray(m, dtype=float)
    return per_state(np.abs(_dressed(m) - _dtilde(9, 9, 9)).max(axis=(-3, -2, -1)), m)


# ---------------------------------------------------------------------------
# Lie algebra of the invariance group

@dataclass(frozen=True)
class AlgebraGenerators:
    """Sixteen 9x9 generators in row-index-first layout X[i, j]: the
    antisymmetric octet F (compact directions) and the octet D (Hermitian
    directions).  The coordinate action of exp(t l_a) is 2 D_a transposed;
    of exp(i t l_a) it is -2 F_a transposed."""

    F: np.ndarray  # (8, 9, 9)
    D: np.ndarray  # (8, 9, 9)

    def all(self):
        return np.concatenate([self.F, self.D])


def _build_generators():
    t = tensors.build_structure_tensors(3)
    F = np.zeros((8, 9, 9))
    D = np.zeros((8, 9, 9))
    F[:, 1:, 1:] = t.f
    D[:, 1:, 1:] = t.d
    for a in range(8):
        D[a, 0, a + 1] = 1.0
        D[a, a + 1, 0] = 2.0 / 3.0
    return AlgebraGenerators(F, D)


def _linearized_residual(X):
    """Max-abs linearized tensor-preservation residual of a generator (9, 9),
    or of each generator of a stack (..., 9, 9)."""
    # generator layout pairs its second index with the tensor slots
    dt = _dtilde(9, 9, 9)
    t = (contract('...ip,pjk->...ijk', X, dt)
         + contract('...jp,ipk->...ijk', X, dt)
         + contract('...kp,ijp->...ijk', X, dt))
    return per_state(np.abs(t).max(axis=(-3, -2, -1)), X)


def build_algebra(seed=0, trials=20):
    """Construct the generators and certify the algebra numerically.

    The certificate records: the linearized tensor-preservation residual of
    every generator, the span dimension, the commutator tables on both the
    9x9 side and the 3x3 complex side (the correspondence F_a -> i l_a / 2,
    D_a -> l_a / 2 gives identical structure constants), the measured
    proportionality between the exact derivative of the induced map and the
    generators, and the triality kernel and homomorphism checks on random
    unit-determinant maps.
    """
    seed, trials = integer(seed, "seed", 0), integer(trials, "trials", ALGEBRA_MIN_TRIALS)
    gen = _build_generators()
    t = tensors.build_structure_tensors(3)
    f, lam = t.f, t.lam_ext[1:]

    lin_res = float(_linearized_residual(gen.all()).max())
    span = numerical_rank(gen.all().reshape(16, 81), 1e-10)

    # structure constants shared by both presentations (the row-lower-index
    # layout transposes the coordinate action, reversing commutators):
    # [F_a, F_b] = -f_abc F_c, [F_a, D_b] = -f_abc D_c, [D_a, D_b] = f_abc F_c
    def comm_table(Fs, Ds):
        def comm(X, Y):  # [X_a, Y_b] over all pairs (a, b)
            return X[:, None] @ Y[None] - Y[None] @ X[:, None]

        def mix(Z):  # f_abc Z_c
            return contract('abc,cij->abij', f, Z)

        return float(max(np.abs(comm(Fs, Fs) + mix(Fs)).max(),
                         np.abs(comm(Fs, Ds) + mix(Ds)).max(),
                         np.abs(comm(Ds, Ds) - mix(Fs)).max()))

    comm_9 = comm_table(gen.F, gen.D)
    comm_3 = comm_table(0.5j * lam, 0.5 * lam)

    # measured normalization of the exact induced-map derivatives
    def normalization(X, G):
        dX = np.stack([induced_generator(x).T for x in X])
        c = np.sum(dX * G, axis=(1, 2)) / np.sum(G * G, axis=(1, 2))
        return [float(v) for v in c], np.abs(dX - c[:, None, None] * G).max()

    ratios_D, res_D = normalization(lam, gen.D)
    ratios_F, res_F = normalization(1j * lam, gen.F)
    deriv_res = max(res_D, res_F)

    rng = np.random.default_rng(seed)
    omega = np.exp(2j * np.pi / 3)
    triality = homomorphism = preservation = 0.0
    for _ in range(trials):
        A = random_local_sl(3, rng)
        B = random_local_sl(3, rng)
        mA, mB = induce_map(A), induce_map(B)
        mAB = induce_map(A @ B)
        homomorphism = max(homomorphism, np.abs(mAB - mA @ mB).max())
        preservation = max(preservation, dtilde_preservation_residual(mA))
        for k in (1, 2):
            triality = max(triality,
                           np.abs(induce_map(omega ** k * A) - mA).max())

    return gen, {
        "span_dimension": int(span),
        "linearized_preservation_residual": lin_res,
        "commutator_residual_9x9": comm_9,
        "commutator_residual_3x3": comm_3,
        "derivative_match_residual": float(deriv_res),
        "measured_normalization_D": ratios_D,
        "measured_normalization_F": ratios_F,
        "triality_kernel_residual": float(triality),
        "homomorphism_residual": float(homomorphism),
        "dtilde_preservation_residual": float(preservation),
        "seed": seed,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# Degree-3 and degree-6 invariants of the product group

def _dressed(ext):
    """a[..., x, z, y] = dtilde_abc ext_ax ext_by ext_cz for a coordinate
    matrix (9, 9) or a stack (..., 9, 9), as three batched matrix products;
    a is symmetric in its last three slots."""
    batch = ext.shape[:-2]
    a = (ext.swapaxes(-1, -2) @ _dtilde(9, 81)).reshape(batch + (81, 9))  # (x, b), c
    a = (a @ ext).reshape(batch + (9, 9, 9))                                 # x, b, z
    a = a.swapaxes(-1, -2).reshape(batch + (81, 9)) @ ext                   # (x, z), y
    return a.reshape(batch + (9, 9, 9))


# The last product of C3 and C6 runs over the last batch axis of a stack in
# one BLAS call, whose rounding depends on that axis's length; numpy loops
# over the other batch axes one entry at a time.  So a stack is sliced along
# its other batch axes, and along its last one only the dressing is.

def _dressed_stack(ext):
    """``_dressed`` of a coordinate matrix (9, 9) or a stack (..., 9, 9),
    evaluated on slices of at most ``STACK`` matrices."""
    flat = ext.reshape((-1,) + ext.shape[-2:])
    if len(flat) <= STACK:
        return _dressed(ext)
    a = np.empty(flat.shape + (9,))
    for s in range(0, len(flat), STACK):
        a[s:s + STACK] = _dressed(flat[s:s + STACK])
    return a.reshape(ext.shape + (9,))


def _by_slices(kernel, ext):
    """``kernel`` of one coordinate matrix (9, 9) as a float, or of a stack
    (..., 9, 9) as an array over it, on slices along the leading batch axes
    of at most ``STACK`` matrices where the last batch axis allows."""
    ext = np.asarray(ext, dtype=float)
    if ext.ndim <= 3:
        return per_state(kernel(ext), ext)
    lead = ext.reshape((prod(ext.shape[:-3]),) + ext.shape[-3:])
    step = max(1, STACK // max(1, lead.shape[1]))
    return np.concatenate([kernel(lead[s:s + step])
                           for s in range(0, len(lead) or 1, step)]).reshape(ext.shape[:-2])


def _cubic(ext):
    return _dressed_stack(ext).reshape(ext.shape[:-2] + (729,)) @ _dtilde(729)


def _sextic(ext):
    b = _dressed_stack(ext).reshape(ext.shape[:-2] + (9, 81)) @ _dtilde(81, 9)
    return contract('...xw,...wx->...', b, b)


def cubic_invariant(ext):
    """Triple contraction of two copies of the symmetric tensor with three
    copies of the bipartite coordinate matrix: a float for one (9, 9)
    matrix, an array over the stack for (..., 9, 9)."""
    return _by_slices(_cubic, ext)


def sextic_invariant(ext):
    """Degree-6 invariant with crossed bar-side matchings, evaluated by
    staged pairwise contractions (cost ~9^5); a float for one (9, 9)
    matrix, an array over the stack for (..., 9, 9)."""
    return _by_slices(_sextic, ext)


CUBIC_CONSTANT_TERM = 1.0 / 324.0


def cubic_expansion(k):
    """The expansion of the cubic invariant in the degree <= 3 local-unitary
    invariants ``k`` (a dict of floats, or of arrays over a stack), its
    constant term included; it equals C3 on trace-normalized states."""
    return (k["K003d"]
            + 1.5 * (k["K300"] + k["K030"])
            + 1.5 * (k["K111"] - k["K102"] - k["K012"])
            - 0.25 * (k["K200"] + k["K020"])
            + k["K002"] / 12.0
            + CUBIC_CONSTANT_TERM)


def cubic_expansion_residual(coords, c3, lu):
    """|c3 - cubic_expansion(lu)| for the cubic invariant and the degree <= 3
    local-unitary invariants of ``coords``: a float, or an array over a stacked
    state.  ``ValueError`` unless every state has trace 1, where it holds."""
    require_unit_trace(coords)
    return abs(c3 - cubic_expansion(lu))
