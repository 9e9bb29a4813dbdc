from fractions import Fraction

import numpy as np
import pytest

from qutrit_invariants import states
from qutrit_invariants.contract import contract
from qutrit_invariants.lu_invariants import (
    LOW_DEGREE_LABELS,
    QUARTIC_LABELS,
    independence_test,
)
from qutrit_invariants.numdiff import _BLOCK, _WEIGHTS, STEP, poly_jacobian
from qutrit_invariants.qubit import dependence_jacobian_rank, q_invariants
from qutrit_invariants.states import OVERSAMPLE, jacobian_rank, random_state

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
    np.testing.assert_allclose(poly_jacobian(fn, x0, degree), jac(x0), rtol=1e-9, atol=1e-11)


def _coordinate_stencil(fn, x0, degree):
    """The coordinate stencil as it was built before it took directions:
    the stacked points and the Jacobian."""
    order = min(o for o in _WEIGHTS if o >= degree)
    offsets, weights = zip(*_WEIGHTS[order].items())
    n, k = x0.size, len(offsets)
    points = np.tile(x0, (n * k, 1))
    points[np.arange(n * k), np.repeat(np.arange(n), k)] += np.tile(np.multiply(offsets, STEP), n)
    values = np.concatenate([np.asarray(fn(points[s:s + _BLOCK]), dtype=float)
                             for s in range(0, n * k, _BLOCK)])
    jac = contract('jim,i->mj', values.reshape(n, k, -1), np.array(weights, dtype=float)) / STEP
    return points, jac


@pytest.mark.parametrize("degree", [2, 3, 8])
def test_poly_jacobian_without_directions_is_the_coordinate_stencil_bit_for_bit(degree):
    rng = np.random.default_rng(40 + degree)
    x0 = rng.standard_normal(15)
    fn, _ = _polynomial(degree, *rng.standard_normal((3, 15)))
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return fn(x)

    jac = poly_jacobian(recorded, x0, degree)
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
