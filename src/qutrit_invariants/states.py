"""Bipartite qudit mixed states and their real coordinate pictures.

A state of local dimensions (dA, dB) is carried both as a dense density
matrix and as the real (dA^2 x dB^2) coordinate matrix over the extended
Hermitian bases (identity in slot 0), related by trace inner products.
Either may be a stack with leading batch axes, (..., D, D) and
(..., dA^2, dB^2).  Sampling of states and of local transformations is
deterministic given a seed: an integer or a Generator, never None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensors
from .checks import integer
from .contract import contract, per_state
from .numdiff import RANK_THRESHOLD, numerical_rank, poly_jacobian

HERMITICITY_TOL = 1e-10
PHYSICALITY_TOL = 1e-10
UNIT_TRACE_TOL = 1e-8  # of the trace entry, for the block expansions
OVERSAMPLE = 3  # sketch directions beyond the output count
SKETCH_SEED = 0
TRIAL_INDICES = 2 ** 32  # trial indices hash as one uint32 entropy word


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(integer(seed, "seed", 0))


# numpy's SeedSequence: a pool of 4 uint32 words, O'Neill's seed_seq hash
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(init, mult, count):
    """init * mult**j mod 2**32 for j = 0 .. count, as a column of uint32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _pool_state(entropy):
    """generate_state(4, np.uint64) of the SeedSequence of each column of the
    (words, n) uint32 stack ``entropy``, as an (n, 4) stack.

    Each hash step takes the next constant of a fixed sequence, so the steps
    that numpy takes for several pool words in turn, with a value that none
    of them changes, are taken for all of them at once here.
    """
    length, n = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * max(length, _POOL))
    used = 0

    def hashmix(value, rows):  # one row for each of the next constants
        nonlocal used
        value = value ^ consts[used:used + rows]
        value *= consts[used + 1:used + rows + 1]
        used += rows
        value ^= value >> _SHIFT
        return value

    def mix(x, y):
        x = x * _MIX_L
        x -= y * _MIX_R
        x ^= x >> _SHIFT
        return x

    pool = np.zeros((_POOL, n), np.uint32)
    pool[:length] = entropy[:_POOL]
    pool = hashmix(pool, _POOL)
    # mix all words together so that late words reach early ones: word src
    # into every other word, in order
    for src in range(_POOL):
        h = hashmix(pool[src], _POOL - 1)
        if src:
            pool[:src] = mix(pool[:src], h[:src])
        if src < _POOL - 1:
            pool[src + 1:] = mix(pool[src + 1:], h[src:])
    # the words past the pool are mixed into every pool word
    for word in entropy[_POOL:]:
        pool = mix(pool, hashmix(word, _POOL))
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = np.concatenate([pool, pool]) ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> _SHIFT
    # consecutive uint32 words are the low and high halves of a uint64 word
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


def trial_seed_words(seed, start, stop):
    """Row k is ``SeedSequence((seed, start + k)).generate_state(4, np.uint64)``,
    for every trial index of [start, stop) at once: the words that seed the
    PCG64 generator of each trial (see `SeedWords`).

    The entropy words are numpy's: the seed's, least significant first (0 is
    one word 0), then the index's one word, as indices stay below
    ``TRIAL_INDICES`` = 2**32.  The whole range is hashed as one stack.
    """
    seed = integer(seed, "seed", 0)
    start = integer(start, "start", 0)
    stop = integer(stop, "stop", start)
    if stop > TRIAL_INDICES:
        raise ValueError(f"trial indices must stay below 2**32, got stop={stop}")
    words = max(1, (seed.bit_length() + 31) // 32)  # 0 is one word 0
    seed_words = np.frombuffer(seed.to_bytes(4 * words, "little"), "<u4")[:, None]
    index = np.arange(start, stop, dtype=np.uint32)
    return _pool_state(np.vstack([seed_words.repeat(stop - start, axis=1), index]))


class SeedWords(np.random.bit_generator.ISeedSequence):
    """The seed sequence that PCG64 sees: it hands over words computed
    beforehand, such as a row of `trial_seed_words`, so that
    ``PCG64(SeedWords(words))`` seeds as ``PCG64(SeedSequence(...))`` does."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("the words are 4 of uint64, as PCG64 asks")
        return self.words


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
        coords = to_coords(rho, dimA, dimB)  # checks the dimensions
        return cls(coords.dimA, coords.dimB, rho, coords)

    def __getitem__(self, index):
        """A state, or a smaller stack, taken from a stacked state."""
        return BipartiteState(self.dimA, self.dimB, self.rho[index],
                              StateCoords(self.dimA, self.dimB, self.coords.ext[index]))


def _hermitian_matrices(rho, D, dims):
    """``rho`` as a complex array, after checking that it is a finite
    Hermitian (D, D) matrix or a stack of them; ``dims`` names the dimensions."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (D, D):
        raise ValueError(f"expected a {D}x{D} matrix for {dims}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if (herm > HERMITICITY_TOL).any():
        raise ValueError(f"matrix is not Hermitian (residual {herm.max():.2e})")
    return rho


def to_coords(rho, dimA, dimB):
    """Extract the real coordinate matrix of a Hermitian ``rho``, or of
    each matrix of a stack (..., D, D).

    ext[a, b] = Tr(rho (l_a x l_b)) / (n_a n_b) with n_0 = dim and n_a = 2
    otherwise, so ext[0, 0] = Tr(rho) / (dimA dimB).  Every matrix must be
    finite and Hermitian.
    """
    dimA, dimB = integer(dimA, "dimA", 1), integer(dimB, "dimB", 1)
    rho = _hermitian_matrices(rho, dimA * dimB, f"dims ({dimA},{dimB})")
    tA, tB = tensors.build_structure_tensors(dimA), tensors.build_structure_tensors(dimB)
    rho4 = rho.reshape(rho.shape[:-2] + (dimA, dimB, dimA, dimB))
    ext = contract('...ipjq,aji,bqp->...ab', rho4, tA.lam_ext, tB.lam_ext)
    ext = ext.real / np.outer(tA.norms, tB.norms)
    return StateCoords(dimA, dimB, ext)


def hermitian_part(rho):
    """(rho + rho^dag) / 2, of a matrix or each matrix of a stack."""
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def from_coords(coords):
    """Reconstruct the Hermitian matrix from coordinates (exact inverse), or
    each matrix of a coordinate stack (..., dimA^2, dimB^2)."""
    dimA, dimB = coords.dimA, coords.dimB
    ext = np.asarray(coords.ext, dtype=float)
    if ext.shape[-2:] != (dimA * dimA, dimB * dimB):
        raise ValueError("coordinate shape does not match declared dimensions")
    lamA = tensors.build_structure_tensors(dimA).lam_ext
    lamB = tensors.build_structure_tensors(dimB).lam_ext
    rho4 = contract('...ab,aij,bpq->...ipjq', ext, lamA, lamB)
    return hermitian_part(rho4.reshape(ext.shape[:-2] + (dimA * dimB, dimA * dimB)))


def to_single_coords(rho, dim):
    """Coordinates (r0, r1, ..) of a single-system Hermitian matrix, or of
    each matrix of a stack (..., dim, dim), checked as `to_coords` checks."""
    dim = integer(dim, "dim", 1)
    rho = _hermitian_matrices(rho, dim, f"dim {dim}")
    t = tensors.build_structure_tensors(dim)
    return contract('...ij,aji->...a', rho, t.lam_ext).real / t.norms


def from_single_coords(coords, dim):
    """The Hermitian matrix of single-system coordinates, or of each vector
    of a stack (..., dim^2)."""
    lam = tensors.build_structure_tensors(dim).lam_ext
    return hermitian_part(contract('...a,aij->...ij', np.asarray(coords, dtype=float), lam))


def jacobian_rank(coords, fn, degree, k):
    """Row-normalized rank of the Jacobian J of ``fn`` over the n free
    coordinates of one state, every entry of ``ext`` but the trace entry
    ``ext[0, 0]``; ``fn`` maps a ``StateCoords`` stack to its (..., k) values,
    polynomial of total degree <= ``degree``.  The rank of J V along
    k + OVERSAMPLE unit Gaussian columns V from ``SKETCH_SEED``, below a zero
    row that holds the trace entry still: never above rank J, and equal to it
    for all V outside a set of measure zero (Halko, Martinsson & Tropp 2011).
    """
    ext, m = coords.ext, k + OVERSAMPLE
    V = np.concatenate([np.zeros((1, m)), _sketch(ext.size - 1, m)])
    J = poly_jacobian(lambda x: fn(StateCoords(coords.dimA, coords.dimB,
                                               x.reshape(x.shape[:-1] + ext.shape))),
                      ext.reshape(-1), degree, V)
    # a row at the rounding level of the largest, such as a constant's, is zero
    norms = np.linalg.norm(J, axis=1, keepdims=True)
    zero = norms <= RANK_THRESHOLD * norms.max(initial=0.0)
    return numerical_rank(np.where(zero, 0.0, J / np.where(zero, 1.0, norms)))


@lru_cache(maxsize=None)
def _sketch(n, m):
    """The (n, m) unit Gaussian columns of ``jacobian_rank``, drawn from
    ``SKETCH_SEED`` once per shape and returned read-only."""
    V = np.random.default_rng(SKETCH_SEED).standard_normal((n, m))
    V /= np.linalg.norm(V, axis=0)
    V.flags.writeable = False
    return V


def complex_matrices(x):
    """Complex matrices of normals x (..., 2, dim, dim), real parts first."""
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def ginibre(rng, dim, size=None):
    """Complex Gaussian dim x dim matrix: the real parts are drawn first,
    then the imaginary parts.  With ``size``, a stack of that many matrices
    drawn in one call, equal to ``size`` single draws one after another.
    Every sampler draws through this or ``complex_matrices``, so a sample's
    draws do not depend on how samples are stacked."""
    dim = integer(dim, "dim", 1)
    shape = (2, dim, dim) if size is None else (integer(size, "size", 0), 2, dim, dim)
    return complex_matrices(rng.standard_normal(shape))


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
    dimA, dimB = integer(dimA, "dimA", 1), integer(dimB, "dimB", 1)
    return hs_state(ginibre(_rng(seed), dimA * dimB, size), dimA, dimB)


def special_unitary(Z):
    """Haar-ish special unitary of a complex Gaussian Z, or of each matrix of
    a stack (..., d, d): QR with phase fixing, determinant set to 1."""
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return _unit_determinant(Q * (diag / np.abs(diag))[..., None, :])


def random_local_unitary(dim, seed):
    """Haar-ish special unitary: QR with phase fixing, determinant set to 1."""
    return special_unitary(ginibre(_rng(seed), dim))


def random_local_sl(dim, seed):
    """Random unit-determinant complex matrix (Gaussian entries rescaled)."""
    return _unit_determinant(ginibre(_rng(seed), dim))


def _unit_determinant(M):
    """M / det(M)**(1/d) for a (d, d) matrix M or each matrix of a stack."""
    return M / (np.linalg.det(M) ** (1.0 / M.shape[-1]))[..., None, None]


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
        if not np.isfinite(M).all():
            raise ValueError("local map has non-finite entries")
        if abs(np.linalg.det(M)) < 1e-12:
            raise ValueError("local map is singular")
    E = kron(A, B)
    rho = E @ state.rho @ E.conj().T
    if renormalize:
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return BipartiteState.from_rho(rho, state.dimA, state.dimB)


def coordinate_action(X, Y, dim):
    """Complex (dim^2 x dim^2) matrix m of rho -> X rho Y^dag on the extended
    coordinate basis of one subsystem: X l_a Y^dag = sum_b m[b, a] l_b, with
    index 0 the identity direction.  It is real up to rounding when Y = X,
    and for sums such as the generator action X rho + rho X^dag."""
    t = tensors.build_structure_tensors(dim)
    m = contract('ij,ajk,lk,bli->ba', np.asarray(X, dtype=complex), t.lam_ext,
                 np.conj(np.asarray(Y, dtype=complex)), t.lam_ext)
    return m / t.norms[:, None]


def physicality(state):
    """Trace, Hermiticity residual and minimum eigenvalue diagnostics of one
    state.  Raises ``ValueError`` for a stacked state, and when entries are
    so large (near the largest float) that the Hermitian part overflows."""
    rho = state.rho
    if rho.ndim != 2:
        raise ValueError(f"physicality takes one state, got a stack of shape {rho.shape[:-2]}")
    herm = float(np.abs(rho - rho.conj().T).max())
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitian_part(rho)
    if not np.isfinite(h).all():
        raise ValueError("matrix entries overflow the Hermitian part")
    eigs = np.linalg.eigvalsh(h)
    tr = float(np.trace(rho).real)
    return {
        "trace": tr,
        "hermiticity_residual": herm,
        "min_eigenvalue": float(eigs.min()),
        "physical": bool(herm <= PHYSICALITY_TOL and eigs.min() >= -PHYSICALITY_TOL
                         and abs(tr - 1) <= PHYSICALITY_TOL),
    }


def require_dims(coords, dim):
    """Raise ``ValueError`` unless both local dimensions of ``coords`` are ``dim``."""
    if (coords.dimA, coords.dimB) != (dim, dim):
        raise ValueError(f"these invariants require two {'qubits' if dim == 2 else 'qutrits'} "
                         f"({dim}, {dim}), got dimensions ({coords.dimA}, {coords.dimB})")


def require_unit_trace(coords):
    """Raise ``ValueError`` unless every state of ``coords`` has trace 1: its
    trace entry within UNIT_TRACE_TOL of 1/(dimA dimB).  The block
    expansions of the invariants hold for unit trace only."""
    if np.any(np.abs(coords.trace_entry - 1.0 / (coords.dimA * coords.dimB)) > UNIT_TRACE_TOL):
        raise ValueError("expansion requires a trace-normalized state")


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
