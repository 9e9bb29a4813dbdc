"""Bipartite qudit mixed states and their real coordinate pictures.

A state of local dimensions (dA, dB) is carried both as a dense density
matrix and as the real (dA^2 x dB^2) coordinate matrix over the extended
Hermitian bases (identity in slot 0), related by trace inner products.
Either may be a stack with leading batch axes, (..., D, D) and
(..., dA^2, dB^2).  Sampling of states and of local transformations is
deterministic given a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .contract import contract, per_state
from .numdiff import numerical_rank, poly_jacobian
from .tensors import build_structure_tensors

HERMITICITY_TOL = 1e-10
PHYSICALITY_TOL = 1e-10
OVERSAMPLE = 3  # sketch directions beyond the output count
SKETCH_SEED = 0


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _norms(dim):
    # Tr(l_a l_b) = 2 delta_ab on the traceless block, Tr(I I) = dim
    n = np.full(dim * dim, 2.0)
    n[0] = float(dim)
    return n


@dataclass(frozen=True)
class StateCoords:
    """Real coordinates of a bipartite Hermitian operator.

    ``ext[..., a, b]`` multiplies basis element a (x) b with index 0 the
    identity; the one-sided blocks and the correlation block are views.
    """

    dimA: int
    dimB: int
    ext: np.ndarray

    @property
    def r(self):
        return self.ext[..., 1:, 0]

    @property
    def rbar(self):
        return self.ext[..., 0, 1:]

    @property
    def R(self):
        return self.ext[..., 1:, 1:]

    @property
    def trace_entry(self):
        """Tr(rho) / (dimA dimB): a float, or an array over a stack."""
        return per_state(self.ext[..., 0, 0], self.ext)


@dataclass(frozen=True)
class BipartiteState:
    dimA: int
    dimB: int
    rho: np.ndarray
    coords: StateCoords

    @classmethod
    def from_rho(cls, rho, dimA, dimB):
        return cls(dimA, dimB, rho, to_coords(rho, dimA, dimB))

    def __getitem__(self, index):
        """A state, or a smaller stack, taken from a stacked state."""
        return BipartiteState(self.dimA, self.dimB, self.rho[index],
                              StateCoords(self.dimA, self.dimB, self.coords.ext[index]))


def to_coords(rho, dimA, dimB):
    """Extract the real coordinate matrix of a Hermitian ``rho``, or of
    each matrix of a stack (..., D, D).

    ext[a, b] = Tr(rho (l_a x l_b)) / (n_a n_b) with n_0 = dim and n_a = 2
    otherwise, so ext[0, 0] = Tr(rho) / (dimA dimB).  Every matrix must be
    finite and Hermitian.
    """
    rho = np.asarray(rho, dtype=complex)
    D = dimA * dimB
    if rho.shape[-2:] != (D, D):
        raise ValueError(f"expected a {D}x{D} matrix for dims ({dimA},{dimB})")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if (herm > HERMITICITY_TOL).any():
        raise ValueError(f"matrix is not Hermitian (residual {herm.max():.2e})")
    lamA = build_structure_tensors(dimA).lam_ext
    lamB = build_structure_tensors(dimB).lam_ext
    rho4 = rho.reshape(rho.shape[:-2] + (dimA, dimB, dimA, dimB))
    ext = contract('...ipjq,aji,bqp->...ab', rho4, lamA, lamB)
    ext = ext.real / np.outer(_norms(dimA), _norms(dimB))
    return StateCoords(dimA, dimB, ext)


def _hermitian_part(rho):
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def from_coords(coords):
    """Reconstruct the Hermitian matrix from coordinates (exact inverse), or
    each matrix of a coordinate stack (..., dimA^2, dimB^2)."""
    dimA, dimB = coords.dimA, coords.dimB
    ext = np.asarray(coords.ext, dtype=float)
    if ext.shape[-2:] != (dimA * dimA, dimB * dimB):
        raise ValueError("coordinate shape does not match declared dimensions")
    lamA = build_structure_tensors(dimA).lam_ext
    lamB = build_structure_tensors(dimB).lam_ext
    rho4 = contract('...ab,aij,bpq->...ipjq', ext, lamA, lamB)
    return _hermitian_part(rho4.reshape(ext.shape[:-2] + (dimA * dimB, dimA * dimB)))


def to_single_coords(rho, dim):
    """Coordinates (r0, r1, ..) of a single-system Hermitian matrix, or of
    each matrix of a stack (..., dim, dim)."""
    rho = np.asarray(rho, dtype=complex)
    lam = build_structure_tensors(dim).lam_ext
    return contract('...ij,aji->...a', rho, lam).real / _norms(dim)


def from_single_coords(coords, dim):
    """The Hermitian matrix of single-system coordinates, or of each vector
    of a stack (..., dim^2)."""
    lam = build_structure_tensors(dim).lam_ext
    return _hermitian_part(contract('...a,aij->...ij', np.asarray(coords, dtype=float), lam))


def free_coordinates(coords):
    """The free coordinates of one state and the map back from them.

    The free coordinates are every entry of ``ext`` except the trace entry
    ``ext[0, 0]``, in row-major order.  Returns them as a vector x0 together
    with the map taking a stack of such vectors (..., D^2 - 1) to the
    ``StateCoords`` stack that shares the state's trace entry.
    """
    ext = np.asarray(coords.ext, dtype=float)
    flat = ext.reshape(-1)

    def coords_at(x):
        x = np.asarray(x, dtype=float)
        stack = np.concatenate([np.full(x.shape[:-1] + (1,), flat[0]), x], axis=-1)
        return StateCoords(coords.dimA, coords.dimB, stack.reshape(x.shape[:-1] + ext.shape))

    return flat[1:], coords_at


def jacobian_rank(coords, fn, degree, k):
    """Row-normalized rank of the Jacobian J of ``fn`` over the n free
    coordinates of one state; ``fn`` maps a ``StateCoords`` stack to its
    (..., k) values, polynomial of total degree <= ``degree``.  When
    k + OVERSAMPLE < n, the rank of J V along k + OVERSAMPLE unit Gaussian
    columns V from ``SKETCH_SEED``: never above rank J, and equal to it for
    all V outside a set of measure zero (Halko, Martinsson & Tropp 2011).
    """
    x0, coords_at = free_coordinates(coords)
    f = lambda x: fn(coords_at(x))
    m = k + OVERSAMPLE
    V = None
    if m < x0.size:
        V = np.random.default_rng(SKETCH_SEED).standard_normal((x0.size, m))
        V /= np.linalg.norm(V, axis=0)
    return numerical_rank(poly_jacobian(f, x0, degree, V), normalize_rows=True)


def complex_matrices(x):
    """Complex matrices of normals x (..., 2, dim, dim), real parts first."""
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def ginibre(rng, dim, size=None):
    """Complex Gaussian dim x dim matrix: the real parts are drawn first,
    then the imaginary parts.  With ``size``, a stack of that many matrices
    drawn in one call, equal to ``size`` single draws one after another.
    Every sampler draws through this or ``complex_matrices``, so a sample's
    draws do not depend on how samples are stacked."""
    return complex_matrices(rng.standard_normal((2, dim, dim) if size is None
                                                else (size, 2, dim, dim)))


def hs_state(G, dimA, dimB):
    """The Hilbert-Schmidt state G G^dag / Tr(G G^dag) of a complex
    Gaussian G, or the stacked states of a stack G (..., D, D)."""
    W = G @ G.conj().swapaxes(-1, -2)
    rho = W / np.trace(W, axis1=-2, axis2=-1).real[..., None, None]
    return BipartiteState.from_rho(rho, dimA, dimB)


def random_state(dimA, dimB, seed, size=None):
    """Hilbert-Schmidt ensemble state; with ``size``, a stack of that many
    states drawn one after another from the same generator, equal to
    ``size`` single calls on it."""
    return hs_state(ginibre(_rng(seed), dimA * dimB, size), dimA, dimB)


def special_unitary(Z):
    """Haar-ish special unitary of a complex Gaussian Z, or of each matrix of
    a stack (..., d, d): QR with phase fixing, determinant set to 1."""
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (diag / np.abs(diag))[..., None, :]
    return Q / (np.linalg.det(Q) ** (1.0 / Z.shape[-1]))[..., None, None]


def random_local_unitary(dim, seed):
    """Haar-ish special unitary: QR with phase fixing, determinant set to 1."""
    return special_unitary(ginibre(_rng(seed), dim))


def random_local_sl(dim, seed):
    """Random unit-determinant complex matrix (Gaussian entries rescaled)."""
    A = ginibre(_rng(seed), dim)
    return A / np.linalg.det(A) ** (1.0 / dim)


def kron(X, Y):
    """Kronecker products of square matrices over broadcast batch axes."""
    n, m = X.shape[-1], Y.shape[-1]
    K = X[..., :, None, :, None] * Y[..., None, :, None, :]
    return K.reshape(K.shape[:-4] + (n * m, n * m))


def apply_local(state, A, B, renormalize=True):
    """Conjugate by A (x) B, optionally dividing by the resulting trace."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    for M, d in ((A, state.dimA), (B, state.dimB)):
        if M.shape != (d, d):
            raise ValueError("local map shape does not match state dimensions")
        if abs(np.linalg.det(M)) < 1e-12:
            raise ValueError("local map is singular")
    E = kron(A, B)
    rho = E @ state.rho @ E.conj().T
    if renormalize:
        rho = rho / np.trace(rho).real
    return BipartiteState.from_rho(rho, state.dimA, state.dimB)


def coordinate_action(X, Y, dim):
    """Complex (dim^2 x dim^2) matrix m of rho -> X rho Y^dag on the extended
    coordinate basis of one subsystem: X l_a Y^dag = sum_b m[b, a] l_b, with
    index 0 the identity direction.  It is real up to rounding when Y = X,
    and for sums such as the generator action X rho + rho X^dag."""
    lam = build_structure_tensors(dim).lam_ext
    m = contract('ij,ajk,lk,bli->ba', np.asarray(X, dtype=complex), lam,
                 np.conj(np.asarray(Y, dtype=complex)), lam)
    return m / _norms(dim)[:, None]


def physicality(state):
    """Trace, Hermiticity residual and minimum eigenvalue diagnostics."""
    rho = state.rho
    herm = float(np.abs(rho - rho.conj().T).max())
    eigs = np.linalg.eigvalsh(_hermitian_part(rho))
    tr = float(np.trace(rho).real)
    return {
        "trace": tr,
        "hermiticity_residual": herm,
        "min_eigenvalue": float(eigs.min()),
        "physical": bool(herm <= PHYSICALITY_TOL and eigs.min() >= -PHYSICALITY_TOL
                         and abs(tr - 1) <= PHYSICALITY_TOL),
    }


# ---------------------------------------------------------------------------
# JSON state files: {"dimA": 3, "dimB": 3, "re": [[..]], "im": [[..]]},
# row-major real and imaginary parts of the density matrix.

def save_state(state, path):
    payload = {
        "dimA": state.dimA,
        "dimB": state.dimB,
        "re": state.rho.real.tolist(),
        "im": state.rho.imag.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_state(path):
    """Read a state file; every malformed file raises ``ValueError`` (or
    ``OSError`` when it cannot be read)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        dimA, dimB = payload["dimA"], payload["dimB"]
        if type(dimA) is not int or type(dimB) is not int:
            raise ValueError(f"dimensions must be integers, got {dimA!r} and {dimB!r}")
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    D = dimA * dimB
    if re.shape != (D, D) or im.shape != (D, D):
        raise ValueError(
            f"state file arrays must be {D}x{D} for dims ({dimA},{dimB})")
    # numpy would read true as 1.0 and "0.5" as 0.5: only JSON numbers count
    not_numbers = [x for key in ("re", "im") for row in payload[key] for x in row
                   if type(x) not in (int, float)]
    if not_numbers:
        raise ValueError(f"state file entries must be JSON numbers, got {not_numbers[0]!r}")
    rho = re + 1j * im
    return BipartiteState.from_rho(rho, dimA, dimB)
