import math
import os
import subprocess
import sys

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


def test_ring_projector_sum_matches_direct_sum():
    # seeded complex per-node coefficients exercise every azimuthal mode;
    # n_polar=3 is an under-resolved override as verify --quad-order gives
    rng = np.random.default_rng(5)
    for two_j in (1, 4, 7):
        for n_polar in (None, 3):
            grid = sphere_grid(two_j / 2, n_polar=n_polar)
            coeff = grid.weights * (rng.normal(size=len(grid)) + 1j * rng.normal(size=len(grid)))
            vecs = kernels.coherent_amplitudes(grid.xi, two_j)
            direct = sum(c * np.outer(v, v.conj()) for v, c in zip(vecs, coeff))
            ring = kernels.ring_projector_sum(grid, coeff, two_j)
            assert np.max(np.abs(ring - direct)) < 1e-13


def test_operators_independent_of_blas_thread_count():
    code = ("import hashlib\n"
            "from spinclock import clock, coherent\n"
            "for op in (coherent.resolution_of_unity(100), clock.clock_operator(100, 0.7)):\n"
            "    print(hashlib.sha256(op.tobytes()).hexdigest())\n")
    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert digests[0] == digests[1]
