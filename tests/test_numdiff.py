from fractions import Fraction

import numpy as np
import pytest

from qutrit_invariants import numdiff, states
from qutrit_invariants.contract import STACK, contract
from qutrit_invariants.lu_invariants import (
    LOW_DEGREE_LABELS,
    QUARTIC_LABELS,
    _label_values,
    independence_test,
)
from qutrit_invariants.numdiff import _WEIGHTS, STEP, poly_jacobian
from qutrit_invariants.qubit import (
    dependence_jacobian_rank,
    determinant_invariant,
    q_invariants,
    trace_invariants,
)
from qutrit_invariants.states import OVERSAMPLE, StateCoords, jacobian_rank, random_state

# The hand-written stencil weights that the closed form now computes, kept as
# the reference for the derived table.
HAND_WRITTEN_WEIGHTS = {
    2: {-1: Fraction(-1, 2), 1: Fraction(1, 2)},
    4: {-2: Fraction(1, 12), -1: Fraction(-2, 3),
        1: Fraction(2, 3), 2: Fraction(-1, 12)},
    6: {-3: Fraction(-1, 60), -2: Fraction(3, 20), -1: Fraction(-3, 4),
        1: Fraction(3, 4), 2: Fraction(-3, 20), 3: Fraction(1, 60)},
    8: {-4: Fraction(1, 280), -3: Fraction(-4, 105), -2: Fraction(1, 5),
        -1: Fraction(-4, 5), 1: Fraction(4, 5), 2: Fraction(-1, 5),
        3: Fraction(4, 105), 4: Fraction(-1, 280)},
}


def test_stencil_weights_equal_the_hand_written_table():
    # the same values in the same key order, so the floats and the order
    # of summation in poly_jacobian are unchanged
    assert list(_WEIGHTS) == list(HAND_WRITTEN_WEIGHTS)
    for order, weights in HAND_WRITTEN_WEIGHTS.items():
        assert list(_WEIGHTS[order].items()) == list(weights.items())
        assert all(type(w) is Fraction for w in _WEIGHTS[order].values())


@pytest.mark.parametrize("order", sorted(_WEIGHTS))
def test_stencil_differentiates_every_monomial_up_to_its_order(order):
    # sum_k w_k k^j is the derivative of x^j at 0 on a unit step: [j == 1]
    for j in range(order + 1):
        moment = sum(w * Fraction(k) ** j for k, w in _WEIGHTS[order].items())
        assert moment == (1 if j == 1 else 0), (order, j)


@pytest.mark.parametrize("matrix", [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0)),
                                    np.zeros((2, 3))], ids=["0x3", "3x0", "0x0", "zero"])
def test_numerical_rank_of_an_empty_or_zero_matrix_is_0(matrix):
    assert numdiff.numerical_rank(matrix) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_numerical_rank_refuses_non_finite_entries(bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        numdiff.numerical_rank(matrix)


def overflowing(dim, seed, scale):
    # a finite Hermitian state whose invariants overflow to inf
    rho = random_state(dim, dim, seed).rho
    return states.BipartiteState.from_rho((rho + rho.conj().T) / 2 * scale, dim, dim)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("certificate", [
    lambda: independence_test([overflowing(3, seed, 1e90) for seed in range(22)], QUARTIC_LABELS),
    lambda: dependence_jacobian_rank(overflowing(2, 0, 1e50).coords),
], ids=["independence_test", "dependence_jacobian_rank"])
def test_rank_certificates_refuse_overflowing_states(certificate):
    # numpy's SVD raised LinAlgError ("did not converge") on these
    with pytest.raises(ValueError, match="finite"):
        certificate()


def test_jacobian_rank_of_a_map_with_a_known_rank():
    coords = random_state(2, 2, 4).coords

    def fn(c):
        # the gradients of x, y and x + y span two directions, and that of
        # x z adds the z direction
        x, y, z = c.ext[..., 0, 1], c.ext[..., 1, 0], c.ext[..., 2, 2]
        return np.stack([x, y, x + y, x * z], axis=-1)

    assert jacobian_rank(coords, fn, degree=2, k=4) == 3


def _polynomial(degree, a, b, c):
    """A map of three outputs of total degree ``degree`` in n >= 8
    coordinates, with its analytic Jacobian."""
    def fn(x):
        ax, bx, cx = x @ a, x @ b, x @ c
        return np.stack([ax ** degree, np.prod(x[..., :degree], axis=-1),
                         bx ** (degree - 1) * cx], axis=-1)

    def jac(x):
        ax, bx, cx = x @ a, x @ b, x @ c
        monomial = [np.prod(np.delete(x[:degree], i)) if i < degree else 0.0
                    for i in range(x.size)]
        return np.stack([degree * ax ** (degree - 1) * a, np.array(monomial),
                         (degree - 1) * bx ** (degree - 2) * cx * b + bx ** (degree - 1) * c])
    return fn, jac


@pytest.mark.parametrize("degree", sorted(_WEIGHTS))
def test_poly_jacobian_along_directions_is_the_jacobian_times_them(degree):
    rng = np.random.default_rng(degree)
    n = 10
    a, b, c = rng.standard_normal((3, n)) / np.sqrt(n)
    x0 = rng.uniform(-1.0, 1.0, n)
    fn, jac = _polynomial(degree, a, b, c)
    for m in (1, 4, n + 3):
        V = rng.standard_normal((n, m))
        sketched = poly_jacobian(fn, x0, degree, V)
        assert sketched.shape == (3, m)
        np.testing.assert_allclose(sketched, jac(x0) @ V, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(poly_jacobian(fn, x0, degree, np.eye(n)), jac(x0), rtol=1e-9, atol=1e-11)


def _coordinate_stencil(fn, x0, degree):
    """The coordinate stencil as it was built before it took directions:
    the stacked points and the Jacobian."""
    order = min(o for o in _WEIGHTS if o >= degree)
    offsets, weights = zip(*_WEIGHTS[order].items())
    n, k = x0.size, len(offsets)
    points = np.tile(x0, (n * k, 1))
    points[np.arange(n * k), np.repeat(np.arange(n), k)] += np.tile(np.multiply(offsets, STEP), n)
    values = np.concatenate([np.asarray(fn(points[s:s + STACK]), dtype=float)
                             for s in range(0, n * k, STACK)])
    jac = contract('jim,i->mj', values.reshape(n, k, -1), np.array(weights, dtype=float)) / STEP
    return points, jac


@pytest.mark.parametrize("degree", [2, 3, 8])
def test_poly_jacobian_along_the_identity_is_the_coordinate_stencil_bit_for_bit(degree):
    rng = np.random.default_rng(40 + degree)
    x0 = rng.standard_normal(15)
    fn, _ = _polynomial(degree, *rng.standard_normal((3, 15)))
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return fn(x)

    jac = poly_jacobian(recorded, x0, degree, np.eye(x0.size))
    points, expected = _coordinate_stencil(fn, x0, degree)
    assert np.array_equal(np.concatenate(seen), points)
    assert np.array_equal(jac, expected)


def _relative_singular_values(jacobians, rank):
    """The smallest kept and the largest dropped relative singular value of
    row-normalized Jacobians of the given rank."""
    kept, dropped = 1.0, 0.0
    for jac in jacobians:
        sv = np.linalg.svd(jac / np.linalg.norm(jac, axis=1, keepdims=True), compute_uv=False)
        kept = min(kept, sv[rank - 1] / sv[0])
        dropped = max([dropped, *(sv[rank:] / sv[0])])
    return kept, dropped


def _captured_jacobians(monkeypatch):
    captured = []
    rank_of = states.numerical_rank

    def capture(matrix, **kwargs):
        captured.append(np.asarray(matrix))
        return rank_of(matrix, **kwargs)

    monkeypatch.setattr(states, "numerical_rank", capture)
    return captured


def test_sketched_certificates_clear_the_rank_threshold_by_decades(monkeypatch):
    # the row-normalized sketched Jacobians that the certificates rank: the
    # smallest kept relative singular value and the largest dropped one stay
    # decades away from the 1e-8 threshold of numerical_rank
    captured = _captured_jacobians(monkeypatch)
    rng = np.random.default_rng(12)
    qutrits = [random_state(3, 3, rng) for _ in range(len(QUARTIC_LABELS) + 5)]
    low = [l for l in LOW_DEGREE_LABELS if l != "K000"]
    for labels, rank in ((QUARTIC_LABELS, 17), (low, 10)):
        captured.clear()
        rep = independence_test(qutrits, labels, jacobian_points=len(qutrits))
        assert rep["jacobian_ranks"] == [rank] * len(qutrits)
        assert {j.shape for j in captured} == {(rank, rank + OVERSAMPLE)}
        kept, _ = _relative_singular_values(captured, rank)
        assert kept >= 1e-5, (labels, kept)
    captured.clear()
    assert [dependence_jacobian_rank(random_state(2, 2, rng).coords) for _ in range(50)] == [4] * 50
    assert {j.shape for j in captured} == {(5, 5 + OVERSAMPLE)}
    kept, dropped = _relative_singular_values(captured, 4)
    assert kept >= 1e-5 and dropped <= 1e-10, (kept, dropped)


def test_qubit_rank_jacobian_is_the_q_invariants_jacobian(monkeypatch):
    # the stencil function stacks the five values without the epsilon form;
    # its sketched Jacobian is bit for bit the one of the q_invariants dict
    captured = _captured_jacobians(monkeypatch)
    names = ("Q2", "Q4", "Q6", "Q8", "Q4t")

    def from_q_invariants(c):
        q = q_invariants(c.ext)
        return np.stack([q[k] for k in names], axis=-1)

    rng = np.random.default_rng(17)
    for _ in range(4):
        coords = random_state(2, 2, rng).coords
        captured.clear()
        assert dependence_jacobian_rank(coords) == 4
        assert jacobian_rank(coords, from_q_invariants, degree=8, k=5) == 4
        new, old = captured
        assert new.shape == (5, 5 + OVERSAMPLE)
        assert np.array_equal(new, old)


def _free_coordinate_stencil(coords, fn, degree, k):
    """The sketched stencil as it was built over the free coordinates
    x = ext.flat[1:], with the trace entry put back in front of every point:
    the coordinate matrices of the points, and the row-normalized Jacobian."""
    flat = coords.ext.reshape(-1)
    V = states._sketch(flat.size - 1, k + OVERSAMPLE)
    order = min(o for o in _WEIGHTS if o >= degree)
    offsets, weights = zip(*_WEIGHTS[order].items())
    free = np.array([flat[1:] + o * STEP * V[:, j] for j in range(V.shape[1]) for o in offsets])
    points = np.concatenate([np.full((len(free), 1), flat[0]), free], axis=1)
    points = points.reshape((-1,) + coords.ext.shape)
    values = np.concatenate([fn(StateCoords(coords.dimA, coords.dimB, points[s:s + STACK]))
                             for s in range(0, len(points), STACK)])
    jac = contract('jim,i->mj', values.reshape(V.shape[1], len(offsets), -1),
                   np.array(weights, dtype=float)) / STEP
    norms = np.linalg.norm(jac, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return points, jac / norms


def _qubit_values(c):
    return np.stack([*trace_invariants(c.ext, (1, 2, 3, 4)), determinant_invariant(c.ext)],
                    axis=-1)


LOW_DEGREE = [l for l in LOW_DEGREE_LABELS if l != "K000"]


def test_certificates_rank_the_free_coordinate_jacobian_bit_for_bit(monkeypatch):
    # the certificates differentiate ext itself with the trace entry held
    # still; the Jacobians they rank are those of the free-coordinate stencil
    captured = _captured_jacobians(monkeypatch)
    rng = np.random.default_rng(23)
    qutrits = [random_state(3, 3, rng) for _ in range(len(QUARTIC_LABELS) + 5)]
    for labels, degree in ((QUARTIC_LABELS, 4), (LOW_DEGREE, 3)):
        captured.clear()
        independence_test(qutrits, labels, jacobian_points=2)
        for st, jac in zip(qutrits[:2], captured, strict=True):
            _, expected = _free_coordinate_stencil(
                st.coords, lambda c: _label_values(labels, c), degree, len(labels))
            assert np.array_equal(jac, expected), labels
    for _ in range(3):
        coords = random_state(2, 2, rng).coords
        captured.clear()
        dependence_jacobian_rank(coords)
        _, expected = _free_coordinate_stencil(coords, _qubit_values, 8, 5)
        assert np.array_equal(captured[0], expected)


def test_rank_jacobians_equal_those_of_64_point_stacks_bit_for_bit(monkeypatch):
    # the certificates of the rank benchmark (a quartic and a low-degree
    # independence test at one state, qubit dependence ranks) rank the same
    # Jacobians as when the stencil was evaluated 64 points per call
    captured = _captured_jacobians(monkeypatch)
    rng = np.random.default_rng(29)
    qutrits = [random_state(3, 3, rng) for _ in range(len(QUARTIC_LABELS) + 5)]
    qubits = [random_state(2, 2, rng).coords for _ in range(4)]

    def certificates():
        captured.clear()
        independence_test(qutrits, QUARTIC_LABELS, jacobian_points=1)
        independence_test(qutrits[:len(LOW_DEGREE) + 5], LOW_DEGREE, jacobian_points=1)
        for coords in qubits:
            dependence_jacobian_rank(coords)
        return list(captured)

    sliced = certificates()
    monkeypatch.setattr(numdiff, "STACK", 64)
    reference = certificates()
    assert len(sliced) == len(reference) == 6
    for new, old in zip(sliced, reference):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("dims,fn,degree,k", [
    ((3, 3), lambda c: _label_values(QUARTIC_LABELS, c), 4, len(QUARTIC_LABELS)),
    ((3, 3), lambda c: _label_values(LOW_DEGREE, c), 3, len(LOW_DEGREE)),
    ((2, 2), _qubit_values, 8, 5),
])
def test_stencil_points_keep_the_trace_entry(dims, fn, degree, k):
    coords = random_state(*dims, 31).coords
    seen = []

    def recorded(c):
        assert len(c.ext) <= STACK
        seen.append(c.ext.copy())
        return fn(c)

    jacobian_rank(coords, recorded, degree, k)
    points, _ = _free_coordinate_stencil(coords, fn, degree, k)
    stack = np.concatenate(seen)
    assert np.all(stack[:, 0, 0] == coords.ext[0, 0])
    assert np.array_equal(stack, points)


def test_sketch_is_one_read_only_draw_per_shape():
    for n, m in ((80, 20), (80, 13), (15, 8)):
        fresh = np.random.default_rng(states.SKETCH_SEED).standard_normal((n, m))
        fresh /= np.linalg.norm(fresh, axis=0)
        V = states._sketch(n, m)
        assert np.array_equal(V, fresh)
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0] = 0.0
        assert states._sketch(n, m) is V
