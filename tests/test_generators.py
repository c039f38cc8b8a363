"""Model builders: the chain matrices behind every frame."""

import numpy as np
import pytest

from dynsub.generators import chain_matrices


def loop_chain(n, m, k, c, grounded):
    """The chain assembled spring by spring, as the textbook writes it."""
    mass = np.eye(n) * m
    stiffness = np.zeros((n, n))
    damping = np.zeros((n, n))
    for i in range(n - 1):
        for mat, val in ((stiffness, k), (damping, c)):
            mat[i, i] += val
            mat[i + 1, i + 1] += val
            mat[i, i + 1] -= val
            mat[i + 1, i] -= val
    if grounded:
        stiffness[0, 0] += k
        damping[0, 0] += c
    return mass, damping, stiffness


@pytest.mark.parametrize("n", [1, 2, 5, 200])
@pytest.mark.parametrize("grounded", [True, False])
@pytest.mark.parametrize("m, k, c", [(0.05, 2.5e5, 0.3), (1.0, 1.0, 0.0), (2, 3, 0), (0.1, 1e-7, 1.3e4)])
def test_chain_equals_the_spring_loop_bit_for_bit(n, grounded, m, k, c):
    # bytes, not values: a -0.0 where the loop writes 0.0 would also differ
    for got, want in zip(chain_matrices(n, m, k, c, grounded), loop_chain(n, m, k, c, grounded)):
        assert got.tobytes() == want.tobytes()
