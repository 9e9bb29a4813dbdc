import dataclasses
import itertools

import numpy as np
import pytest

from qutrit_invariants import tensors
from qutrit_invariants.lsl_qutrit import (
    ALGEBRA_MIN_TRIALS,
    build_algebra,
    cubic_invariant,
    sextic_invariant,
)
from qutrit_invariants.lu_invariants import low_degree_invariants, quartic_blocks
from qutrit_invariants.qubit import q_invariants
from qutrit_invariants.states import random_state, to_coords, to_single_coords
from qutrit_invariants.tensors import (
    GELL_MANN,
    PAULI,
    build_structure_tensors,
    cyclic_identity_check,
    det_from_dtilde,
)

T3 = build_structure_tensors(3)
T2 = build_structure_tensors(2)


def test_basis_orthonormalization():
    for t in (T2, T3):
        gram = np.einsum('aij,bji->ab', t.lam_ext, t.lam_ext)
        assert np.abs(gram - np.diag(t.norms)).max() < 1e-12
        assert t.norms[0] == t.dim and (t.norms[1:] == 2.0).all()
        assert not t.norms.flags.writeable


def test_f_trace_oracle_entries():
    # independent evaluation straight from the trace formula
    def f_oracle(a, b, c):
        lam = GELL_MANN
        return (np.trace((lam[a] @ lam[b] - lam[b] @ lam[a]) @ lam[c]) / 4j).real

    assert abs(T3.f[0, 1, 2] - 1.0) < 1e-14
    assert T3.f[0, 0, 1] == 0.0
    for idx in [(0, 1, 2), (0, 3, 6), (1, 3, 5), (3, 4, 7), (5, 6, 7)]:
        assert abs(T3.f[idx] - f_oracle(*idx)) < 1e-14


def test_f_antisymmetric_d_symmetric_exactly():
    for p in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.array_equal(T3.f, -T3.f.transpose(p))
        assert np.array_equal(T3.d, T3.d.transpose(p))
    for p in [(1, 2, 0), (2, 0, 1)]:
        assert np.array_equal(T3.f, T3.f.transpose(p))
        assert np.array_equal(T3.d, T3.d.transpose(p))


def test_dtilde_entries_and_symmetry():
    dt = T3.dtilde
    assert dt[0, 0, 0] == 1.5
    assert dt[0, 1, 1] == -0.5
    assert np.abs(dt[0, 0, 1:]).max() == 0.0
    assert np.array_equal(dt[1:, 1:, 1:], T3.d)
    for p in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.array_equal(dt, dt.transpose(p))


def _loop_tables(lams):
    """f and d by one trace per sorted index triple, spread over the
    permutations in Python loops: the reference for the stacked tables."""
    n = len(lams)
    f = np.zeros((n, n, n))
    d = np.zeros((n, n, n))
    for a, b, c in itertools.combinations(range(n), 3):
        comm = lams[a] @ lams[b] - lams[b] @ lams[a]
        val = (np.trace(comm @ lams[c]) / 4j).real
        if abs(val) > 1e-14:
            for p in itertools.permutations(range(3)):
                f[tuple((a, b, c)[i] for i in p)] = np.linalg.det(np.eye(3)[list(p)]) * val
    for a, b, c in itertools.combinations_with_replacement(range(n), 3):
        anti = lams[a] @ lams[b] + lams[b] @ lams[a]
        val = (np.trace(anti @ lams[c]) / 4).real
        if abs(val) > 1e-14:
            for p in set(itertools.permutations((a, b, c))):
                d[p] = val
    return f, d


@pytest.mark.parametrize("t", [T2, T3], ids=["dim2", "dim3"])
def test_stacked_tables_equal_the_loop_tables_bit_for_bit(t):
    f, d = _loop_tables(t.lam_ext[1:])
    assert np.array_equal(t.f, f) and np.array_equal(np.signbit(t.f), np.signbit(f))
    if t.dim == 3:
        assert np.array_equal(t.d, d) and np.array_equal(np.signbit(t.d), np.signbit(d))
        dt = np.zeros((9, 9, 9))
        dt[0, 0, 0] = 1.5
        for a in range(1, 9):
            dt[0, a, a] = dt[a, 0, a] = dt[a, a, 0] = -0.5
        dt[1:, 1:, 1:] = d
        assert np.array_equal(t.dtilde, dt)
        assert np.array_equal(np.signbit(t.dtilde), np.signbit(dt))


def test_commutator_and_anticommutator_reconstruction():
    lam = T3.lam_ext[1:]
    comm = np.einsum('aij,bjk->abik', lam, lam) - np.einsum('bij,ajk->abik', lam, lam)
    rec = 2j * np.einsum('abc,cik->abik', T3.f, lam)
    assert np.abs(comm - rec).max() < 1e-12
    anti = np.einsum('aij,bjk->abik', lam, lam) + np.einsum('bij,ajk->abik', lam, lam)
    rec = (4.0 / 3.0) * np.einsum('ab,ik->abik', np.eye(8), np.eye(3)) \
        + 2 * np.einsum('abc,cik->abik', T3.d, lam)
    assert np.abs(anti - rec).max() < 1e-12


def test_pauli_structure_constants():
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    assert np.abs(T2.f - eps).max() < 1e-14
    assert T2.d is None and T2.dtilde is None
    assert np.array_equal(T2.lam_ext[1:], PAULI)


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError):
        build_structure_tensors(4)


def test_cyclic_identities_hold():
    res = cyclic_identity_check()
    assert max(res.values()) <= 1e-12


def test_cyclic_identities_sharp_under_perturbation(monkeypatch):
    d = T3.d.copy()
    d[0, 0, 7] += 1e-3
    perturbed = dataclasses.replace(T3, d=d)
    monkeypatch.setattr(tensors, "build_structure_tensors", lambda dim: perturbed)
    res = cyclic_identity_check()
    assert max(res.values()) > 1e-4


def test_det_identity_normalization():
    # 6 det = tr^3 - 3 tr tr(x^2) + 2 tr(x^3) pins the 1/6 convention
    rng = np.random.default_rng(0)
    for _ in range(20):
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = (H + H.conj().T) / 2
        t1 = np.trace(H).real
        t2 = np.trace(H @ H).real
        t3 = np.trace(H @ H @ H).real
        assert abs(6 * np.linalg.det(H).real - (t1 ** 3 - 3 * t1 * t2 + 2 * t3)) < 1e-10


def test_det_from_dtilde_identity_matrix():
    cubic, det = det_from_dtilde(np.array([1.0] + [0.0] * 8))
    assert cubic == 1.5 and abs(det - 1.0) < 1e-14


def test_det_from_dtilde_maximally_mixed():
    cubic, det = det_from_dtilde(np.array([1.0 / 3.0] + [0.0] * 8))
    assert abs(cubic - 1.0 / 18.0) < 1e-15
    assert abs(det - 1.0 / 27.0) < 1e-15


def test_cubic_determinant_ratio_is_three_halves():
    # the measured proportionality constant, fixed by the determinant oracle
    rng = np.random.default_rng(7)
    for _ in range(100):
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = (H + H.conj().T) / 2
        cubic, det = det_from_dtilde(to_single_coords(H, 3))
        assert abs(cubic / det - 1.5) < 1e-10


def test_stacked_det_from_dtilde_matches_per_item():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((6, 5, 3, 3)) + 1j * rng.standard_normal((6, 5, 3, 3))
    coords = to_single_coords((G + G.conj().swapaxes(-1, -2)) / 2, 3)
    cubic, det = det_from_dtilde(coords)
    assert cubic.shape == det.shape == (6, 5)
    for i in range(6):
        for j in range(5):
            c1, d1 = det_from_dtilde(coords[i, j])
            assert type(c1) is float and type(d1) is float
            assert abs(cubic[i, j] - c1) <= 1e-12 * max(abs(c1), 1.0)
            assert abs(det[i, j] - d1) <= 1e-12 * max(abs(d1), 1.0)
    # the direct triple contraction, independent of the kernel
    t = build_structure_tensors(3)
    direct = np.einsum('abc,...a,...b,...c->...', t.dtilde, coords, coords, coords)
    assert np.abs(cubic - direct).max() <= 1e-12 * np.abs(direct).max()


def test_det_from_dtilde_shape_check():
    with pytest.raises(ValueError):
        det_from_dtilde(np.zeros(8))
    with pytest.raises(ValueError):
        det_from_dtilde(np.zeros((4, 8)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_det_from_dtilde_refuses_non_finite_coordinates(bad):
    coords = np.full((2, 9), 0.1)
    coords[1, 4] = bad
    for c in (coords, coords[1]):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            det_from_dtilde(c)


def test_kernels_read_the_tensors_at_call_time(monkeypatch):
    """One substitution of `tensors.build_structure_tensors` reaches the
    low-degree, cubic and sextic kernels: with d and d-tilde doubled, K300
    doubles and C3 and C6 scale by 2^2 and 2^4, exactly (a power of two
    scales without rounding)."""
    coords = [random_state(3, 3, 0).coords, random_state(3, 3, 1, size=40).coords]

    def values():
        return [(low_degree_invariants(c)["K300"], cubic_invariant(c.ext),
                 sextic_invariant(c.ext)) for c in coords]

    clean = values()
    doubled = dataclasses.replace(T3, d=2 * T3.d, dtilde=2 * T3.dtilde)
    monkeypatch.setattr(tensors, "build_structure_tensors",
                        lambda dim: doubled if dim == 3 else T2)
    for (k300, c3, c6), (k300_2, c3_2, c6_2) in zip(clean, values()):
        assert np.array_equal(k300_2, 2 * k300)
        assert np.array_equal(c3_2, 4 * c3)
        assert np.array_equal(c6_2, 16 * c6)


def test_levi_civita_is_built_once_and_read_only():
    eps = tensors.levi_civita(4)
    assert tensors.levi_civita(np.int64(4)) is eps and not eps.flags.writeable
    for perm in itertools.permutations(range(4)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert eps[perm] == (-1) ** inversions
    assert np.count_nonzero(eps) == 24
    assert np.array_equal(tensors.levi_civita(3), T2.f)  # su(2)'s f is the 3-index epsilon


def test_one_substitution_reaches_every_reader(monkeypatch):
    """`build_structure_tensors` and `levi_civita` own every array a kernel
    reads: one substitution of the two moves the coordinates (the trace
    norms), the K004 chains through the embedded correlation tensor and the
    measured normalizations of the algebra certificate (the basis), the
    epsilon form of Q4t (epsilon_4) and the quartet identities (f and d).
    The basis is doubled and its norms, Tr(l_a l_a), quadrupled: powers of
    two, which scale without rounding."""
    state, ext22 = random_state(3, 3, 0), random_state(2, 2, 0).coords.ext
    c = state.coords

    def readers():
        cert = build_algebra(trials=ALGEBRA_MIN_TRIALS)[1]
        quartics = quartic_blocks(c.r, c.rbar, c.R)
        return {"ext": to_coords(state.rho, 3, 3).ext,
                "K004": np.array([v for k, v in quartics.items() if k.startswith("K004")]),
                "normalization": cert["measured_normalization_D"] + cert["measured_normalization_F"],
                "q": q_invariants(ext22),
                "quartet": cyclic_identity_check()}

    clean = readers()
    f, d = T3.f.copy(), T3.d.copy()
    f[0, 1, 2] += 1e-3
    d[0, 0, 7] += 1e-3
    altered = {dim: dataclasses.replace(t, lam_ext=2 * t.lam_ext, norms=4 * t.norms)
               for dim, t in ((2, T2), (3, T3))}
    altered[3] = dataclasses.replace(altered[3], f=f, d=d)
    eps = tensors.levi_civita
    monkeypatch.setattr(tensors, "build_structure_tensors", lambda dim: altered[dim])
    monkeypatch.setattr(tensors, "levi_civita", lambda n: 2 * eps(n))
    moved = readers()
    assert np.array_equal(moved["ext"], clean["ext"] / 4)  # the doubled basis's coordinates
    assert len(clean["K004"]) == 6 and np.array_equal(moved["K004"], 256 * clean["K004"])
    # doubled with the basis, up to the f and d entries raised above
    assert np.abs(np.subtract(moved["normalization"], np.multiply(2, clean["normalization"]))
                  ).max() < 2e-3
    assert moved["q"]["Q4t_eps"] == 4 * clean["q"]["Q4t_eps"]
    assert moved["q"]["Q4t"] == clean["q"]["Q4t"]
    assert max(clean["quartet"].values()) < 1e-12 < 1e-4 < min(moved["quartet"].values())
