import math

import numpy as np
import pytest

from spinclock import kernels
from spinclock.grids import sphere_grid


def test_amplitudes_match_closed_form_batch():
    # one batch mixes the label 0 (masked rows) with non-zero labels
    rng = np.random.default_rng(3)
    xi = (rng.normal(size=200) + 1j * rng.normal(size=200)) * 2
    xi[0] = 0.0
    for two_j in (1, 7, 40):
        got = kernels.coherent_amplitudes(xi, two_j)
        want = np.array([[(1 + abs(x) ** 2) ** (-two_j / 2) * math.sqrt(math.comb(two_j, n))
                          * x ** n for n in range(two_j + 1)] for x in xi])
        assert np.max(np.abs(got - want)) < 1e-13


def test_amplitudes_normalized_at_extreme_arguments():
    for xi in (1e-8, 1e4, 200j, 50 - 50j):
        v = kernels.coherent_amplitudes(np.array([xi]), 200)[0]
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-11)


def test_accumulate_matches_direct_sum():
    grid = sphere_grid(2.0)
    vecs = kernels.coherent_amplitudes(grid.xi, 4)
    acc = kernels.accumulate_projectors(vecs, grid.weights)
    direct = sum(w * np.outer(v, v.conj()) for v, w in zip(vecs, grid.weights))
    assert np.max(np.abs(acc - direct)) < 1e-13
