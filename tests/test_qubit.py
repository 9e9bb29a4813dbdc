import numpy as np
import pytest

from qutrit_invariants.qubit import (
    dependence_jacobian_rank,
    expansion_residuals,
    q8_relation_residual,
    q_invariants,
    trace_invariants,
    w_matrix,
    w_matrix_bar,
)
from qutrit_invariants.states import (
    BipartiteState,
    StateCoords,
    coordinate_action,
    random_local_sl,
    random_state,
)


def residuals(coords):
    return expansion_residuals(coords, q_invariants(coords.ext))


def test_w_matrix_maximally_mixed():
    mm = BipartiteState.from_rho(np.eye(4) / 4, 2, 2)
    w = w_matrix(mm.coords.ext)
    assert np.abs(w - np.diag([1.0 / 16.0, 0, 0, 0])).max() < 1e-15
    q = q_invariants(mm.coords.ext)
    assert abs(q["Q2"] - 1.0 / 16.0) < 1e-15
    assert abs(q["Q4t"]) < 1e-15
    # the density-matrix determinant differs from the coordinate one here
    assert abs(np.linalg.det(mm.rho).real - 1.0 / 256.0) < 1e-15


def test_one_sided_transfer_matrices_isospectral():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ext = random_state(2, 2, rng).coords.ext
        s1 = np.sort(np.linalg.eigvals(w_matrix(ext)).real)
        s2 = np.sort(np.linalg.eigvals(w_matrix_bar(ext)).real)
        assert np.abs(s1 - s2).max() < 1e-10


def test_expansions_on_random_states():
    rng = np.random.default_rng(2)
    worst = {"Q2": 0.0, "Q4": 0.0, "Q4t": 0.0, "Q4t_eps": 0.0}
    for _ in range(300):
        res = residuals(random_state(2, 2, rng).coords)
        for k in worst:
            worst[k] = max(worst[k], res[k])
    assert worst["Q2"] < 1e-12
    assert worst["Q4"] < 1e-12
    assert worst["Q4t"] < 1e-12
    assert worst["Q4t_eps"] < 1e-12


def test_q4tilde_oracle_cases():
    mm = BipartiteState.from_rho(np.eye(4) / 4, 2, 2)
    assert residuals(mm.coords)["Q4t"] < 1e-15
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi /= np.linalg.norm(chi)
    prod = BipartiteState.from_rho(
        np.kron(np.outer(psi, psi.conj()), np.outer(chi, chi.conj())), 2, 2)
    assert residuals(prod.coords)["Q4t"] < 1e-14


def test_invariance_under_local_sl():
    rng = np.random.default_rng(4)
    st = random_state(2, 2, rng)
    base = q_invariants(st.coords.ext)
    for _ in range(30):
        A, B = random_local_sl(2, rng), random_local_sl(2, rng)
        mA = coordinate_action(A, A, 2).real
        mB = coordinate_action(B, B, 2).real
        moved = q_invariants(mA @ st.coords.ext @ mB.T)
        for k in ("Q2", "Q4", "Q6", "Q8", "Q4t"):
            assert abs(moved[k] - base[k]) / max(abs(base[k]), 1e-300) < 1e-9, k


def test_q8_is_dependent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        st = random_state(2, 2, rng)
        assert q8_relation_residual(st.coords.ext) < 1e-14
        assert dependence_jacobian_rank(st.coords) == 4


def test_rejects_qutrit_coords():
    st = random_state(3, 3, 0)
    q = q_invariants(random_state(2, 2, 0).coords.ext)
    with pytest.raises(ValueError, match="two qubits"):
        expansion_residuals(st.coords, q)


def test_qubit_invariants_refuse_other_dimensions():
    q = q_invariants(random_state(2, 2, 0).coords.ext)
    for dims in ((3, 3), (2, 3), (3, 2)):
        coords = random_state(*dims, 0).coords
        message = rf"two qubits \(2, 2\), got dimensions \({dims[0]}, {dims[1]}\)"
        with pytest.raises(ValueError, match=message):
            expansion_residuals(coords, q)
        with pytest.raises(ValueError, match=message):
            dependence_jacobian_rank(coords)


def test_expansions_refuse_a_trace_that_is_not_one():
    for trace in (0.5, 2.0, 1.0 + 1e-6):
        st = BipartiteState.from_rho(trace * np.eye(4) / 4, 2, 2)
        with pytest.raises(ValueError, match="trace-normalized"):
            residuals(st.coords)
    # one state off unit trace in a stack refuses the stack
    stack = random_state(2, 2, 8, size=3)
    ext = stack.coords.ext.copy()
    ext[1] *= 2
    with pytest.raises(ValueError, match="trace-normalized"):
        residuals(StateCoords(2, 2, ext))


@pytest.mark.parametrize("ks", [[], [0], [-1], [2, 0]])
def test_trace_invariants_refuse_powers_below_one(ks):
    ext = random_state(2, 2, 0).coords.ext
    with pytest.raises(ValueError, match="k >= 1|trace power k must be at least 1"):
        trace_invariants(ext, ks)


def test_stacked_q_invariants_match_per_state_loop():
    rng = np.random.default_rng(6)
    exts = [random_state(2, 2, rng).coords.ext for _ in range(30)]
    stacked = q_invariants(np.stack(exts))
    for i, ext in enumerate(exts):
        single = q_invariants(ext)
        assert all(type(v) is float for v in single.values())
        for k, v in single.items():
            assert stacked[k].shape == (30,)
            assert abs(stacked[k][i] - v) <= 1e-12 * abs(v), k


def test_expansion_residuals_read_the_given_q():
    # the residuals are taken against the values passed in, not recomputed
    c = random_state(2, 2, 9).coords
    q = q_invariants(c.ext)
    base = expansion_residuals(c, q)
    shifted = expansion_residuals(c, dict(q, Q2=q["Q2"] + 0.5, Q4t=q["Q4t"] + 0.25))
    assert abs(shifted["Q2"] - 0.5) < 1e-12 and abs(shifted["Q4t"] - 0.25) < 1e-12
    assert shifted["Q4"] == base["Q4"]


def test_stacked_expansion_residuals_match_per_state():
    stack = random_state(2, 2, 10, size=12)
    c = stack.coords
    stacked = expansion_residuals(c, q_invariants(c.ext))
    for i in range(12):
        single = residuals(stack[i].coords)
        assert all(type(v) is float for v in single.values())
        for k, v in single.items():
            assert stacked[k].shape == (12,)
            assert abs(stacked[k][i] - v) <= 1e-14, k
