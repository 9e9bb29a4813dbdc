from fractions import Fraction

import numpy as np
import pytest

from qutrit_invariants.numdiff import _WEIGHTS
from qutrit_invariants.states import jacobian_rank, random_state

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

    assert jacobian_rank(coords, fn, degree=2) == 3
