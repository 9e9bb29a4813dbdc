from fractions import Fraction
from itertools import permutations
from math import prod

import numpy as np
import pytest

from qutrit_invariants import lsl_qutrit
from qutrit_invariants.contract import STACK, contract
from qutrit_invariants.lsl_qutrit import (
    ALGEBRA_MIN_TRIALS,
    _build_generators,
    _dressed,
    _linearized_residual,
    build_algebra,
    cubic_expansion,
    cubic_expansion_residual,
    cubic_invariant,
    dtilde_preservation_residual,
    induce_map,
    induced_generator,
    sextic_invariant,
)
from qutrit_invariants.lu_invariants import low_degree_invariants
from qutrit_invariants.states import (
    BipartiteState,
    apply_local,
    random_local_sl,
    random_local_unitary,
    random_state,
)
from qutrit_invariants.tensors import build_structure_tensors
from sextic_reference import sextic_by_matching

OMEGA = np.exp(2j * np.pi / 3)


def test_identity_induces_identity():
    assert np.abs(induce_map(np.eye(3)) - np.eye(9)).max() < 1e-14


def test_induced_map_is_the_real_coordinate_action():
    rng = np.random.default_rng(13)
    st = random_state(3, 3, rng)
    A, B = random_local_sl(3, rng), random_local_sl(3, rng)
    mA, mB = induce_map(A), induce_map(B)
    assert type(mA) is np.ndarray and mA.shape == (9, 9) and mA.dtype == float
    moved = apply_local(st, A, B, renormalize=False)
    assert np.abs(mA @ st.coords.ext @ mB.T - moved.coords.ext).max() < 1e-10


def test_covering_kernel():
    # the three cube roots of unity all act trivially
    for k in range(3):
        m = induce_map(OMEGA ** k * np.eye(3))
        assert np.abs(m - np.eye(9)).max() < 1e-12


def test_determinant_gate():
    with pytest.raises(ValueError):
        induce_map(2.0 * np.eye(3))


def test_induce_map_refuses_an_action_with_an_imaginary_residue(monkeypatch):
    # the action of a unit-determinant A is real up to rounding; a residue
    # past 1e-12 is refused, not dropped
    monkeypatch.setattr(lsl_qutrit, "coordinate_action",
                        lambda X, Y, dim: np.full((9, 9), 1e-9j))
    with pytest.raises(ValueError, match="imaginary residue 1.00e-09"):
        induce_map(np.eye(3))


def test_apply_local_refuses_a_map_of_another_dimension():
    st = random_state(3, 3, 6)
    for pair in ((np.eye(2), np.eye(3)), (np.eye(3), np.eye(2))):
        with pytest.raises(ValueError, match="local map shape does not match"):
            apply_local(st, *pair)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_slocc_maps_refuse_non_finite_matrices(bad):
    # refused before any linear algebra: no numpy warning, no NaN map
    A = random_local_sl(3, 6)
    A[1, 2] = bad
    st = random_state(3, 3, 6)
    with pytest.raises(ValueError, match="non-finite"):
        induce_map(A)
    with pytest.raises(ValueError, match="non-finite"):
        induced_generator(A)
    for pair in ((A, np.eye(3)), (np.eye(3), A)):
        with pytest.raises(ValueError, match="non-finite"):
            apply_local(st, *pair)


def test_homomorphism_and_preservation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        A, B = random_local_sl(3, rng), random_local_sl(3, rng)
        mA, mB = induce_map(A), induce_map(B)
        assert np.abs(induce_map(A @ B) - mA @ mB).max() < 1e-10
        assert dtilde_preservation_residual(mA) < 1e-10


def test_stacked_dtilde_preservation_residual():
    rng = np.random.default_rng(6)
    dt = build_structure_tensors(3).dtilde
    maps = np.stack([induce_map(random_local_sl(3, rng)) for _ in range(12)])
    # generic real maps move the tensor by O(1) amounts
    maps[6:] += rng.standard_normal((6, 9, 9))
    stacked = dtilde_preservation_residual(maps.reshape(3, 4, 9, 9)).reshape(12)
    for k, m in enumerate(maps):
        single = dtilde_preservation_residual(m)
        assert type(single) is float
        moved = np.einsum('abc,ai,bj,ck->ijk', dt, m, m, m)
        reference = np.abs(moved - dt).max()
        assert abs(single - reference) <= 1e-12 * max(reference, 1.0)
        assert abs(stacked[k] - single) <= 1e-12 * max(single, 1.0)
    assert stacked[:6].max() < 1e-10 and stacked[6:].min() > 1e-3


def test_linearized_residual_matches_three_einsum_reference():
    rng = np.random.default_rng(7)
    dt = build_structure_tensors(3).dtilde
    gens = _build_generators().all()
    # the generators preserve the tensor; generic matrices do not
    X = np.concatenate([gens, rng.standard_normal((4, 9, 9))])
    stacked = _linearized_residual(X)
    for k, x in enumerate(X):
        t = (np.einsum('ip,pjk->ijk', x, dt)
             + np.einsum('jp,ipk->ijk', x, dt)
             + np.einsum('kp,ijp->ijk', x, dt))
        reference = np.abs(t).max()
        single = _linearized_residual(x)
        assert type(single) is float
        assert abs(single - reference) <= 1e-12 * max(reference, 1.0)
        assert abs(stacked[k] - reference) <= 1e-12 * max(reference, 1.0)
    assert stacked[:16].max() <= 1e-12 and stacked[16:].min() > 1e-3


def test_triality_kernel_on_random_maps():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = random_local_sl(3, rng)
        m = induce_map(A)
        for k in (1, 2):
            assert np.abs(induce_map(OMEGA ** k * A) - m).max() < 1e-12


def test_unitary_restriction_is_orthogonal():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = induce_map(random_local_unitary(3, rng))
        block = m[1:, 1:]
        assert np.abs(block @ block.T - np.eye(8)).max() < 1e-12
        assert np.abs(m[0] - np.eye(9)[0]).max() < 1e-12
        assert np.abs(m[:, 0] - np.eye(9)[:, 0]).max() < 1e-12


def test_algebra_certificate():
    gen, cert = build_algebra(seed=1, trials=10)
    assert cert["span_dimension"] == 16
    assert cert["linearized_preservation_residual"] <= 1e-12
    assert cert["commutator_residual_9x9"] <= 1e-12
    assert cert["commutator_residual_3x3"] <= 1e-12
    assert cert["triality_kernel_residual"] <= 1e-12
    assert cert["derivative_match_residual"] <= 1e-12
    assert cert["homomorphism_residual"] <= 1e-10
    assert cert["dtilde_preservation_residual"] <= 1e-10
    # measured proportionality between induced-map derivatives and the
    # generator octets
    assert np.allclose(cert["measured_normalization_D"], 2.0, atol=1e-12)
    assert np.allclose(cert["measured_normalization_F"], -2.0, atol=1e-12)


def test_build_algebra_refuses_fewer_maps_than_its_floor():
    # the command line refuses the same count; the certificate needs 5 maps
    assert ALGEBRA_MIN_TRIALS == 5
    with pytest.raises(ValueError, match="trials must be at least 5, got 4"):
        build_algebra(trials=ALGEBRA_MIN_TRIALS - 1)


def test_generator_entries_and_shapes():
    gen, _ = build_algebra(trials=5)
    for a in range(8):
        assert np.abs(gen.F[a] + gen.F[a].T).max() == 0.0
    assert gen.D[0][0, 1] == 1.0
    assert abs(gen.D[0][1, 0] - 2.0 / 3.0) < 1e-15


def test_generator_is_exact_derivative():
    # analytic derivative: rho -> X rho + rho X^dag
    gen, _ = build_algebra(trials=5)
    lam1 = np.zeros((3, 3), dtype=complex)
    lam1[0, 1] = lam1[1, 0] = 1
    G = induced_generator(lam1)
    assert np.abs(G.T - 2.0 * gen.D[0]).max() < 1e-14


def test_cubic_maximally_mixed():
    mm = BipartiteState.from_rho(np.eye(9) / 9, 3, 3)
    assert abs(cubic_invariant(mm.coords.ext) - 1.0 / 324.0) < 1e-15
    assert abs(sextic_invariant(mm.coords.ext) - 1.5 ** 4 / 9 ** 6) < 1e-18


def test_cubic_pure_product_vanishes():
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    chi /= np.linalg.norm(chi)
    rho = np.kron(np.outer(psi, psi.conj()), np.outer(chi, chi.conj()))
    st = BipartiteState.from_rho(rho, 3, 3)
    assert abs(cubic_invariant(st.coords.ext)) < 1e-12


def test_cubic_product_state_factorizes():
    # C3 on a product equals (3/2)^2 det x det of the factors
    rng = np.random.default_rng(9)
    for _ in range(5):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rA = G @ G.conj().T
        rA /= np.trace(rA).real
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rB = G @ G.conj().T
        rB /= np.trace(rB).real
        st = BipartiteState.from_rho(np.kron(rA, rB), 3, 3)
        expected = 2.25 * np.linalg.det(rA).real * np.linalg.det(rB).real
        assert abs(cubic_invariant(st.coords.ext) - expected) < 1e-12


# The classical slice: on rho = sum_ip P_ip |ip><ip| with P a probability
# matrix, C3 = (3/8) perm(P), a closed form that reads no d-tilde; local
# unitaries leave C3 unchanged.  The P are small integer weights over their
# sum, so perm(P) is exact.  At the 51 rotated states below the deviation is
# at most 3.5e-18; a 1e-7 defect in d-tilde on the orbit of (1,2,3), (1,4,6),
# (3,8,8) or (0,0,0) moves it to 2.6e-11, 6.4e-11, 3.5e-11 or 4.1e-10.
CLASSICAL_C3_TOL = 1e-14

# full-rank marginals, yet perm(P) = 0: the support has no perfect matching
NULL_CONE_WEIGHTS = np.array([[1, 1, 1], [1, 0, 0], [1, 0, 0]])


# On the same slice C6 = (3A + 7B + 15C)/64, with m_sigma = prod_i P_{i sigma(i)}
# over the permutations sigma: A is the sum of the m_sigma^2, and B (C) the
# sum of m_sigma m_tau over ordered pairs sigma != tau of opposite (equal)
# sign.  At the same 51 states the deviation is at most 2.5e-20, with
# |C6| <= 1.4e-5; the four d-tilde defects above move it to 9.0e-14,
# 1.3e-13, 7.4e-14 or 2.7e-12.
CLASSICAL_C6_TOL = 1e-17


def permanent(W):
    return sum(prod(W[i, s] for i, s in enumerate(sigma)) for sigma in permutations(range(3)))


def c3_closed_form(W):
    """(3/8) perm(P) for P = W / sum(W), exactly."""
    return Fraction(3 * int(permanent(W)), 8 * int(W.sum()) ** 3)


def c6_closed_form(W):
    """(3A + 7B + 15C)/64 for P = W / sum(W), exactly."""
    sign = {sigma: (-1) ** sum(sigma[j] > sigma[i] for i in range(3) for j in range(i))
            for sigma in permutations(range(3))}
    m = {sigma: prod(int(W[i, s]) for i, s in enumerate(sigma)) for sigma in sign}
    A = sum(v * v for v in m.values())
    B = sum(m[s] * m[t] for s in m for t in m if sign[s] != sign[t])
    C = sum(m[s] * m[t] for s in m for t in m if s != t and sign[s] == sign[t])
    return Fraction(3 * A + 7 * B + 15 * C, 64 * int(W.sum()) ** 6)


def classical_states(seed=5, count=50, closed_form=c3_closed_form):
    """``closed_form`` of P and the classical state of P under random local
    unitaries, for ``count`` integer weight matrices with entries 0-9 and
    the null-cone weights."""
    rng = np.random.default_rng(seed)
    weights = [rng.integers(0, 10, (3, 3)) for _ in range(count)] + [NULL_CONE_WEIGHTS]
    out = []
    for W in weights:
        total = int(W.sum())
        rho = np.diag(W.reshape(-1) / total).astype(complex)
        state = apply_local(BipartiteState.from_rho(rho, 3, 3), random_local_unitary(3, rng),
                            random_local_unitary(3, rng))
        out.append((float(closed_form(W)), state))
    return out


CLASSICAL = classical_states()
CLASSICAL_C6 = classical_states(closed_form=c6_closed_form)


def classical_c3_deviation(pairs=CLASSICAL):
    """The largest |C3 - (3/8) perm(P)| over the (value, state) pairs."""
    return max(abs(cubic_invariant(state.coords.ext) - value) for value, state in pairs)


def classical_c6_deviation(pairs=CLASSICAL_C6):
    """The largest |C6 - (3A + 7B + 15C)/64| over the (value, state) pairs."""
    return max(abs(sextic_invariant(state.coords.ext) - value) for value, state in pairs)


def test_c3_on_the_classical_slice_is_three_eighths_of_the_permanent():
    assert classical_c3_deviation() <= CLASSICAL_C3_TOL
    # the last state is on the null cone: both marginals have full rank, yet
    # perm(P) = 0, so C3 reads rounding there
    assert CLASSICAL[-1][0] == 0
    assert (NULL_CONE_WEIGHTS.sum(axis=0) > 0).all() and (NULL_CONE_WEIGHTS.sum(axis=1) > 0).all()


def test_c6_on_the_classical_slice_is_its_closed_form():
    assert classical_c6_deviation() <= CLASSICAL_C6_TOL
    # the states of the C3 slice; the closed form vanishes on the null cone
    assert all(np.array_equal(a.rho, b.rho) for (_, a), (_, b) in zip(CLASSICAL, CLASSICAL_C6))
    assert CLASSICAL_C6[-1][0] == 0


def test_invariance_under_local_sl_coordinate_maps():
    rng = np.random.default_rng(12)
    st = random_state(3, 3, rng)
    c3 = cubic_invariant(st.coords.ext)
    c6 = sextic_invariant(st.coords.ext)
    for _ in range(30):
        mA = induce_map(random_local_sl(3, rng))
        mB = induce_map(random_local_sl(3, rng))
        ext = mA @ st.coords.ext @ mB.T
        assert abs(cubic_invariant(ext) - c3) / abs(c3) < 1e-9
        assert abs(sextic_invariant(ext) - c6) / abs(c6) < 1e-8


def test_homogeneity_degrees():
    st = random_state(3, 3, 31)
    ext = st.coords.ext
    c3, c6 = cubic_invariant(ext), sextic_invariant(ext)
    t = 1.37
    assert abs(cubic_invariant(t * ext) - t ** 3 * c3) / abs(c3) < 1e-12
    assert abs(sextic_invariant(t * ext) - t ** 6 * c6) / abs(c6) < 1e-12


def expansion_residual(state):
    """`cubic_expansion_residual` of a state or stack, handed its C3 and its
    degree <= 3 K values."""
    c = state.coords
    return cubic_expansion_residual(c, cubic_invariant(c.ext), low_degree_invariants(c))


def test_cubic_expansion_identity():
    rng = np.random.default_rng(13)
    worst = max(expansion_residual(random_state(3, 3, rng))
                for _ in range(200))
    assert worst < 1e-12
    mm = BipartiteState.from_rho(np.eye(9) / 9, 3, 3)
    assert expansion_residual(mm) < 1e-16


def test_expansion_requires_normalization():
    st = random_state(3, 3, 1)
    doubled = BipartiteState.from_rho(2 * st.rho, 3, 3)
    with pytest.raises(ValueError):
        expansion_residual(doubled)


def test_sextic_matchings_collapse_to_one_form():
    # every connected matching of the bar-side legs gives the same value;
    # aligned matchings degenerate to the squared cubic invariant
    st = random_state(3, 3, 14)
    ext = st.coords.ext
    c3, c6 = cubic_invariant(ext), sextic_invariant(ext)
    assert abs(sextic_by_matching(ext, (1, 2, 3)) - c6) / abs(c6) < 1e-12
    for group in [(2, 3, 4), (0, 3, 5), (1, 2, 5), (0, 2, 4), (1, 3, 5)]:
        assert abs(sextic_by_matching(ext, group) - c6) / abs(c6) < 1e-12
    for group in [(0, 1, 2), (3, 4, 5)]:
        assert abs(sextic_by_matching(ext, group) - c3 ** 2) < 1e-15


def test_stacked_cubic_and_sextic_match_per_state():
    from qutrit_invariants.tensors import build_structure_tensors

    dt = build_structure_tensors(3).dtilde
    stack = random_state(3, 3, 40, size=24).coords.ext.reshape(4, 6, 9, 9)
    c3, c6 = cubic_invariant(stack), sextic_invariant(stack)
    assert c3.shape == c6.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            ext = stack[i, j]
            single3, single6 = cubic_invariant(ext), sextic_invariant(ext)
            assert type(single3) is float and type(single6) is float
            assert abs(c3[i, j] - single3) <= 1e-12 * abs(single3)
            assert abs(c6[i, j] - single6) <= 1e-12 * abs(single6)
            # direct contraction as an independent reference
            ref = np.einsum('abc,ax,by,cz,xyz->', dt, ext, ext, ext, dt)
            assert abs(single3 - ref) <= 1e-12 * abs(ref)


def _unsliced(ext):
    """C3 and C6 of a stack from one ``_dressed`` call on the whole stack."""
    dt = build_structure_tensors(3).dtilde
    a = _dressed(ext)
    b = a.reshape(ext.shape[:-2] + (9, 81)) @ dt.reshape(81, 9)
    return (a.reshape(ext.shape[:-2] + (729,)) @ dt.reshape(-1),
            contract('...xw,...wx->...', b, b))


@pytest.mark.parametrize("shape", [(1,), (STACK - 1,), (STACK,), (STACK + 1,),
                                   (3 * STACK + 1,), (11, 3), (64, 3), (2, STACK + 8)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_sliced_cubic_and_sextic_equal_the_unsliced_formula_bit_for_bit(shape, monkeypatch):
    ext = random_state(3, 3, 50, size=prod(shape)).coords.ext.reshape(shape + (9, 9))
    c3, c6 = _unsliced(ext)
    sizes = []

    def recorded(x):
        sizes.append(prod(x.shape[:-2]))
        return _dressed(x)

    monkeypatch.setattr(lsl_qutrit, "_dressed", recorded)
    for fn, expected in ((cubic_invariant, c3), (sextic_invariant, c6)):
        sizes.clear()
        value = fn(ext)
        assert value.shape == shape and np.array_equal(value, expected)
        assert max(sizes) <= STACK and sum(sizes) == prod(shape)


def test_stacked_cubic_expansion_residual():
    st = random_state(3, 3, 41, size=10)
    res = expansion_residual(st)
    assert res.shape == (10,) and res.max() <= 1e-10
    assert abs(res[3] - expansion_residual(st[3])) <= 1e-15


def _nonphysical_unit_trace():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    H = (A + A.conj().T) / 2
    H += (1.0 - np.trace(H).real) / 9 * np.eye(9)
    assert np.linalg.eigvalsh(H).min() < 0
    return BipartiteState.from_rho(H, 3, 3)


@pytest.mark.parametrize("make", [lambda: random_state(3, 3, 5), _nonphysical_unit_trace,
                                  lambda: random_state(3, 3, 6, size=7)],
                         ids=["normalized", "nonphysical", "stacked"])
def test_cubic_expansion_is_the_written_out_polynomial(make):
    state = make()
    c = state.coords
    k = low_degree_invariants(c)
    written_out = (k["K003d"]
                   + 1.5 * (k["K300"] + k["K030"])
                   + 1.5 * (k["K111"] - k["K102"] - k["K012"])
                   - 0.25 * (k["K200"] + k["K020"])
                   + k["K002"] / 12.0
                   + 1.0 / 324.0)
    # exact equality: the same floating-point operations in the same order
    assert np.array_equal(cubic_expansion(k), written_out)
    assert np.array_equal(cubic_expansion_residual(c, cubic_invariant(c.ext), k),
                          abs(cubic_invariant(c.ext) - written_out))
