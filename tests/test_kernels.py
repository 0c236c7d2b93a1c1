import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from spinclock import clock, coherent, kernels, symbols
from spinclock.grids import SphereGrid, sphere_grid


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


def test_nan_label_gives_nan_amplitudes():
    # a NaN label is not the label 0, whose state is e_0
    got = kernels.coherent_amplitudes(np.array([complex(np.nan, 0.0), complex(0.5, np.nan), 0j]), 2)
    assert np.isnan(got[:2]).all()
    assert got[2].tolist() == [1, 0, 0]


def test_abs_and_square_round_as_python_abs():
    # np.abs and ** 2 on arrays differ from these in the last ulp for 7095 and 12 of
    # the 20000 random labels; |xi|^2 overflows past 1.34e154 and |xi| past 1.8e308
    rng = np.random.default_rng(20)
    xi = np.concatenate([rng.normal(size=(20000, 2)).view(complex)[:, 0],
                         [0j, 5e-324j, 3e-200 - 4e-200j, 1e160 + 1e160j, 1.5e308 - 1.5e308j]])
    a, a_sq = kernels.abs_and_square(xi)
    for x, got, got_sq in zip(xi.tolist(), a, a_sq):
        try:
            want = abs(x)
        except OverflowError:
            want = math.inf
        try:
            want_sq = want ** 2
        except OverflowError:
            want_sq = math.inf
        assert (got, got_sq) == (want, want_sq)


SQRT_MAX = 1.3407807929942596e154  # sqrt(DBL_MAX), the largest |xi| whose square is finite


def test_antipodal_switch_at_its_edge():
    # |xi|^2 is finite at SQRT_MAX and overflows at the next float, where the closed
    # forms switch to the label 1/xi; both sides must give the |xi| -> inf limits
    beyond = np.nextafter(SQRT_MAX, math.inf)
    eps, j, m = np.finfo(float).eps, 7, 7
    assert kernels.abs_and_square(SQRT_MAX)[1] < math.inf == kernels.abs_and_square(beyond)[1]
    for phase in (1, 1j, -1):
        sides = []
        for a in (SQRT_MAX, beyond):
            xi = a * phase
            assert kernels.antipodal_where_far(xi)[1] == (a == beyond)
            ov = coherent.overlap(xi, xi, j)
            s = np.array(symbols.spin_symbols_closed_form(xi, j))
            # at omega tau + phi' = -arg xi the clock symbol is its amplitude
            amp = clock.clock_symbol_q1(xi, m, -np.angle(xi)) / clock.slice_amplitude(m)
            vec = coherent.su2_coherent(xi, j)
            assert abs(ov - 1) <= 4 * eps
            assert abs(np.sum(s * s) - j * j) <= 4 * eps * j * j
            assert abs(amp - 1) <= 4 * eps
            assert abs(np.linalg.norm(vec) - 1) <= 4 * eps
            sides.append((ov, s, amp, vec))
        for near, far in zip(*sides):
            assert np.all(np.abs(near - far) <= 4 * eps * np.abs(near))


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


@pytest.mark.parametrize("two_j,n_azimuthal", [(6, 1), (6, 2), (6, 3), (7, 5), (8, 8)])
def test_aliased_grid_matches_direct_sum(two_j, n_azimuthal):
    # with n_azimuthal <= 2j the azimuthal rule aliases harmonic d onto
    # d mod n_azimuthal, so band-limited operators must still fill those diagonals
    j = two_j / 2
    grid = sphere_grid(j, n_azimuthal=n_azimuthal)
    vecs = kernels.coherent_amplitudes(grid.xi, two_j)

    def direct(coeff):
        total = sum(c * np.outer(v, v.conj()) for v, c in zip(vecs, grid.weights * coeff))
        return (two_j + 1) / np.pi * total

    def sym(xi):
        return np.exp(xi.real - 0.5 * xi.imag) / (1.0 + np.abs(xi) ** 2)

    assert np.max(np.abs(coherent.resolution_of_unity(j, grid) - direct(1.0))) < 1e-13
    got = symbols.reconstruct_operator(sym, j, grid)
    assert np.max(np.abs(got - direct(sym(grid.xi)))) < 1e-13


def _reference_binomial_ratios(two_j):
    """R_{n,d} of entry (n-d, n), one array per diagonal d, by a scalar walk out along each
    anti-diagonal l + u = s from R = 1 at (s // 2, s - s // 2)."""
    table = [np.ones(two_j + 1 - d) for d in range(two_j + 1)]
    for s in range(2 * two_j + 1):
        low, up, ratio = s // 2, s - s // 2, 1.0
        while low > 0 and up < two_j:
            ratio *= math.sqrt(low * (two_j - up) / ((two_j - low + 1) * (up + 1)))
            low, up = low - 1, up + 1
            table[up - low][low] = ratio
    return table


def _reference_ring_sum(grid, coeff, two_j, per_ring=False):
    """The ring sum entry by entry, with no gathered columns, packed triangle or mirror.

    Real coeff only; summed in the order the kernels sum, on amplitudes below 2**-450 set
    to 0.  Per-ring coefficients (per_ring_sum) by the kernel's einsum of the products
    a_{n+d} a_n, diagonal by diagonal.  Per-node ones (ring_projector_sum) by the kernel's
    tile products of the rows G_s = a_{s//2} a_{s-s//2} with the spectrum columns of each
    parity, whose band entries a scalar loop then multiplies by R and writes into the
    matrix, with their conjugates."""
    dim, n_az, n_polar = two_j + 1, grid.n_azimuthal, len(grid.rho)
    coeff = coeff.reshape(n_polar, -1)
    spectrum = n_az * coeff if per_ring else np.fft.rfft(coeff, axis=1)
    amps = kernels._magnitudes(grid.rho, two_j)
    amps = np.where(amps < 2.0 ** -450, 0.0, amps)

    def column(d):
        q = d % n_az
        return spectrum[:, q] if q <= n_az // 2 else spectrum[:, n_az - q].conj()

    out = np.zeros((dim, dim), dtype=np.complex128)
    if not per_ring:
        ratios = _reference_binomial_ratios(two_j)
        width, rows = kernels._tile(n_polar)
        for parity in (0, 1):
            # row k of g is G_{2k+parity}; rows 2t and 2t+1 of c are Re and Im of column
            # d = 2t + parity, whose entries (i, i+d) are the sums of rows k = i + t
            g = amps[:dim - parity] * amps[parity:]
            diags = range(parity, dim, 2)
            c = np.array([part for d in diags for part in (column(d).real, column(d).imag)])
            band = np.zeros((len(g), 2 * len(diags)))
            for right in range(len(diags), 0, -width):
                left = max(right - width, 0)
                height = len(g) - 2 * left
                blocks = -(-height // rows)
                for b in range(blocks):
                    top, bottom = left + height * b // blocks, left + height * (b + 1) // blocks
                    band[top:bottom, 2 * left:2 * right] = np.matmul(g[top:bottom],
                                                                     c[2 * left:2 * right].T)
            for t, d in enumerate(diags):
                for i in range(dim - d):
                    ratio = float(ratios[d][i])
                    value = complex(float(band[i + t, 2 * t]) * ratio,
                                    float(band[i + t, 2 * t + 1]) * ratio)
                    out[i, i + d] = value
                    if d:
                        out[i + d, i] = value.conjugate()
        return out
    out_re, out_im = out.real.reshape(-1), out.imag.reshape(-1)
    for d in range(0, dim, n_az):
        upper = np.einsum("ip,ip,p->i", amps[d:], amps[:dim - d], column(d).real)
        above = slice(d, (dim - d) * dim, dim + 1)
        below = slice(d * dim, None, dim + 1)
        out_re[below] = out_re[above] = upper
        out_im[below] = -0.0 if d else 0.0
    return out


@pytest.mark.parametrize("j", [50, 100])
def test_ratio_operator_bytes_match_reference_ring_sum(j):
    # the benchmark's ratio symbol c0 + c1 t/(1+t), t = |xi|^2, with seeded constants
    rng = np.random.default_rng(12)
    grid = sphere_grid(j)
    for c0, c1 in zip(rng.uniform(-2.0, 2.0, 3), rng.uniform(0.5, 2.5, 3)):
        def ratio(xi):
            t = np.square(np.abs(xi))
            return c0 + c1 * t / (1.0 + t)

        want = ((2 * j + 1) / np.pi) * _reference_ring_sum(grid, grid.weights * ratio(grid.xi), 2 * j)
        assert symbols.reconstruct_operator(ratio, j).tobytes() == want.tobytes()


@pytest.mark.parametrize("j", [100, 200])
def test_resolution_of_unity_bytes_match_reference_ring_sum(j):
    # (2j+1)/pi scales the ring weights before the ring sum, not the sum after it
    grid = sphere_grid(j)
    want = _reference_ring_sum(grid, ((2 * j + 1) / np.pi) * grid.ring_weights, 2 * j,
                               per_ring=True)
    assert coherent.resolution_of_unity(j).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_azimuthal", [1, 2, 3, 5, 8, None])
@pytest.mark.parametrize("n_polar", [None, 3])
def test_ring_sum_bytes_match_reference_ring_sum_on_aliased_grids(n_polar, n_azimuthal):
    # per-ring coefficients reach the diagonals d = 0 mod n_azimuthal, per-node ones every
    # diagonal; the bytes include the signed zeros of the reference's mirrored writes
    rng = np.random.default_rng(14)
    for two_j in (0, 1, 2, 3, 6, 9, 20):
        grid = sphere_grid(two_j / 2, n_polar=n_polar, n_azimuthal=n_azimuthal)
        per_ring = grid.ring_weights * rng.uniform(-1.0, 2.0, len(grid.rho))
        per_node = grid.weights * rng.normal(size=len(grid))
        want = _reference_ring_sum(grid, per_ring, two_j, per_ring=True)
        assert kernels.per_ring_sum(grid, per_ring, two_j).tobytes() == want.tobytes()
        want = _reference_ring_sum(grid, per_node, two_j)
        assert kernels.ring_projector_sum(grid, per_node, two_j).tobytes() == want.tobytes()
        imag = grid.weights * rng.normal(size=len(grid))
        want = (_reference_ring_sum(grid, per_node, two_j)
                + 1j * _reference_ring_sum(grid, imag, two_j))
        got = kernels.ring_projector_sum(grid, per_node + 1j * imag, two_j)
        assert got.tobytes() == want.tobytes()


def test_ring_constant_sum_writes_negative_zeros_below_the_diagonal():
    # 2j = 6 on 2 azimuths aliases diagonals 2, 4 and 6: their imaginary parts are -0.0
    # below the main diagonal, as the conjugate of a real sum; every other one is +0.0
    grid = sphere_grid(3, n_azimuthal=2)
    out = kernels.per_ring_sum(grid, grid.ring_weights, 6)
    row, col = np.indices(out.shape)
    assert not np.any(out.imag)
    assert np.array_equal(np.signbit(out.imag), (row > col) & ((row - col) % 2 == 0))
    assert np.count_nonzero(out.real) == 7 + 2 * (5 + 3 + 1)


def _warm_traced_peak(build) -> int:
    """tracemalloc peak of build() after one call that fills every cache."""
    build()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ring_sums_peak_no_higher_than_before_the_packed_triangle():
    # tracemalloc peaks of warm calls at j = 100 in (2j+1)^2 complex matrices' worth
    # (646416 B each).  The kernel that wrote every diagonal through four strided views
    # peaked at 2.531 (1636257 B) for per-node coefficients alone, 1.524 (984817 B) in
    # resolution_of_unity and 5.056 (3268352 B) in reconstruct_operator, whose peak is
    # in the symbol's own temporaries; each bound is that figure rounded up
    j, dim = 100, 201
    matrix = 16 * dim * dim
    grid = sphere_grid(j)
    ratio = lambda xi: 0.3 + 1.2 * np.square(np.abs(xi)) / (1.0 + np.square(np.abs(xi)))
    coeff = grid.weights * ratio(grid.xi)
    assert _warm_traced_peak(lambda: kernels.ring_projector_sum(grid, coeff, 2 * j)) \
        <= 2.532 * matrix
    assert _warm_traced_peak(lambda: coherent.resolution_of_unity(j)) <= 1.524 * matrix
    assert _warm_traced_peak(lambda: symbols.reconstruct_operator(ratio, j)) <= 5.057 * matrix


@pytest.mark.parametrize("two_j", [200, 400])
@pytest.mark.parametrize("n_azimuthal", [3, 5])
def test_ring_sum_matches_unflushed_direct_sum_at_large_spin(two_j, n_azimuthal):
    # the direct sum uses every amplitude, however small; the ring sum drops
    # those below 2**-450 and sums its products in tiles of blocks of rows.
    # On these rings e^{Re xi}/(1+|xi|^2) reaches 1e64 (2j = 200) and 1e135 (2j = 400).
    grid = sphere_grid(two_j / 2, n_azimuthal=n_azimuthal)
    xi = grid.xi
    vecs = kernels.coherent_amplitudes(xi, two_j)
    for sym in (lambda xi: (1.0 + 0.5 * xi.real - 0.25 * xi.imag) / np.sqrt(1.0 + np.abs(xi) ** 2),
                lambda xi: np.exp(xi.real) / (1.0 + np.abs(xi) ** 2)):
        coeff = grid.weights * sym(xi)
        direct = vecs.T @ (coeff[:, None] * vecs.conj())
        ring = kernels.ring_projector_sum(grid, coeff, two_j)
        assert np.max(np.abs(ring - direct)) <= 4 * np.finfo(float).eps * np.sum(np.abs(coeff))


def test_operators_independent_of_blas_thread_count():
    # the per-node ring sums' gemm tiles are kept small enough that no byte moves with
    # the BLAS thread count, and the per-ring sums run in einsum, which calls no BLAS.
    # The azimuth-dependent symbol runs reconstruct_operator over every diagonal, at
    # j = 100 and at j = 200 (dim 401, 402 rings).  resolution_of_unity at j = 150 on
    # 7 azimuths sums every 7th diagonal over 302 rings.  On 2100 rings, BLAS blocks of
    # 256 rows moved both sums at two threads.  On 20000 rings of one azimuth, 2j = 0
    # and 2 sum one-entry diagonals, which a gemv would run as a dot product split over
    # the rings.  sphere_grid(1000) runs the polar rule's contractions at n = 2002.  Each
    # j = 100 operator is built twice: the second (warm) call reads the cached amplitudes
    code = ("import hashlib\n"
            "import numpy as np\n"
            "from spinclock import clock, coherent, grids, symbols\n"
            "sym = lambda xi: np.exp(xi.real) / (1 + np.abs(xi) ** 2)\n"
            "bounded = lambda xi: (1 + 0.5 * xi.real) / np.sqrt(1 + np.abs(xi) ** 2)\n"
            "grid = grids.sphere_grid(1000)\n"
            "aliased = grids.sphere_grid(150, n_azimuthal=7)\n"
            "rings = grids.sphere_grid(150, n_polar=2100, n_azimuthal=3)\n"
            "wide = grids.SphereGrid(rho=np.geomspace(1e-3, 1e3, 20000),\n"
            "                        ring_weights=np.full(20000, np.pi / 20000), n_azimuthal=1)\n"
            "ops = (lambda: coherent.resolution_of_unity(100),\n"
            "       lambda: clock.clock_operator(100, 0.7),\n"
            "       lambda: symbols.reconstruct_operator(sym, 100))\n"
            "cold = [op() for op in ops]\n"
            "more = (symbols.reconstruct_operator(sym, 200),\n"
            "        coherent.resolution_of_unity(150, aliased),\n"
            "        coherent.resolution_of_unity(150, rings),\n"
            "        symbols.reconstruct_operator(bounded, 150, rings),\n"
            "        coherent.resolution_of_unity(0, wide),\n"
            "        coherent.resolution_of_unity(1, wide))\n"
            "assert all(np.isfinite(op).all() for op in more)\n"
            "for op in (*cold, grid.rho, grid.ring_weights, *more, *(op() for op in ops)):\n"
            "    print(hashlib.sha256(op.tobytes()).hexdigest())\n")
    digests = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert digests[1] == digests[0] and digests[2] == digests[0]
    lines = digests[0].splitlines()
    assert len(lines) == 14 and lines[:3] == lines[11:]


@pytest.mark.parametrize("two_j", [200, 400])
def test_ring_amplitudes_match_mpmath(two_j):
    # a_n = prod_k f_k / sqrt(sum_n a_n^2), the product over the |n - m| steps from the
    # ring's mode m.  Each step is four correctly rounded operations (a quotient, its sqrt,
    # the product with rho and the cumprod's), at most 3.5 u with u = eps / 2, and the
    # norm adds about 2 u.  An amplitude above 1e-3 lies within 5.3 sigma of the mode,
    # sigma^2 = 2j rho^2 / (1+rho^2)^2 <= j/2: at most 37 steps at 2j = 200 and 53 at
    # 2j = 400.  The roundings are independent with mean 0 and rms at most 1.04 u a step,
    # so the error's rms is at most 0.52 eps sqrt(53) = 3.8 eps at either spin: it does
    # not grow with j as the cancelling log sum's 12 (2j+1) eps did.  The bound 10 eps is
    # 2.6 of that rms; over every ring the worst amplitude above 1e-3 is 7.4 eps off at
    # 2j = 200 and 8.3 eps at 2j = 400 (796 and 2111 eps with the log sum)
    grid = sphere_grid(two_j / 2)
    amps = kernels._ring_amplitudes(grid.rho.tobytes(), two_j)
    worst = 0.0
    with mpmath.workdps(30):
        half_log_binomial = [mpmath.log(mpmath.binomial(two_j, n)) / 2 for n in range(two_j + 1)]
        for p, rho in enumerate(grid.rho.tolist()):
            rho = mpmath.mpf(rho)
            log_rho, log_norm = mpmath.log(rho), -two_j * mpmath.log1p(rho * rho) / 2
            for n in np.flatnonzero(amps[:, p] > 1e-3).tolist():
                exact = mpmath.exp(half_log_binomial[n] + n * log_rho + log_norm)
                worst = max(worst, abs(float((amps[n, p] - exact) / exact)))
    assert worst <= 10 * np.finfo(float).eps


def test_ring_sum_matches_mpmath_dense_sum_at_large_spin():
    # the dense sum over the nodes of amplitudes from 30-digit mpmath, each rounded once
    # to a double, against the large-spin test's bound 4 eps sum_k |c_k|.  With the
    # amplitudes of a cancelling log sum the ring sum was 1.7 and 88 times over it
    two_j, n_azimuthal = 200, 3
    grid = sphere_grid(two_j / 2, n_azimuthal=n_azimuthal)
    with mpmath.workdps(30):
        root_binomial = [mpmath.sqrt(mpmath.binomial(two_j, n)) for n in range(two_j + 1)]
        mags = []
        for rho in grid.rho.tolist():
            rho = mpmath.mpf(rho)
            norm = (1 + rho * rho) ** (mpmath.mpf(-two_j) / 2)
            mags.append([float(b * rho ** n * norm) for n, b in enumerate(root_binomial)])
        # e^{i n phi} on azimuth a is e^{2 pi i (n a mod 3) / 3}
        third = [complex(mpmath.expjpi(mpmath.mpf(2 * r) / 3)) for r in range(3)]
    n = np.arange(two_j + 1)
    phases = np.array([[third[(k * a) % 3] for k in n] for a in range(n_azimuthal)])
    vecs = (np.array(mags)[:, None, :] * phases[None, :, :]).reshape(len(grid), two_j + 1)
    xi = grid.xi
    for sym in (lambda xi: (1.0 + 0.5 * xi.real - 0.25 * xi.imag) / np.sqrt(1.0 + np.abs(xi) ** 2),
                lambda xi: np.exp(xi.real) / (1.0 + np.abs(xi) ** 2)):
        coeff = grid.weights * sym(xi)
        direct = vecs.T @ (coeff[:, None] * vecs.conj())
        ring = kernels.ring_projector_sum(grid, coeff, two_j)
        assert np.max(np.abs(ring - direct)) <= 4 * np.finfo(float).eps * np.sum(np.abs(coeff))


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_per_node_tiles_stay_within_one_thread_gemm_size(monkeypatch):
    # OpenBLAS runs a gemm of at most 2 * 2**17 multiply-adds on one thread, so no byte of
    # such a call moves with the thread count.  Every tile of per-node coefficients stays
    # within it on the default grids, on 2100 rings, and on 8 (2j+6) rings of 2j+2
    # azimuths at j = 30 (528 x 62); at j = 100 the tiles take at most half the 201 calls
    # of one two-row gemm per diagonal
    sym = lambda xi: (1.0 + 0.5 * xi.real) / np.sqrt(1.0 + np.abs(xi) ** 2)
    cases = [(j, sphere_grid(j)) for j in (50, 100, 200)]
    cases.append((150, sphere_grid(150, n_polar=2100, n_azimuthal=3)))
    cases.append((30, sphere_grid(30, n_polar=528, n_azimuthal=62)))
    matmul, shapes = np.matmul, []

    def recorded(a, b, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    calls = []
    for j, grid in cases:
        shapes.clear()
        symbols.reconstruct_operator(sym, j, grid)
        assert shapes and all(a[1] == b[0] == len(grid.rho) for a, b in shapes)
        assert max(a[0] * a[1] * b[1] for a, b in shapes) <= 2 * 2 ** 17
        calls.append(len(shapes))
    assert calls[1] <= 201 // 2


def test_second_operator_at_the_same_spin_computes_no_amplitudes_or_lgamma(monkeypatch):
    builds = (lambda: coherent.resolution_of_unity(30), lambda: clock.clock_operator(30, 0.4),
              lambda: symbols.reconstruct_operator(np.abs, 30))
    for build in builds:
        build()
    tables = _count_calls(monkeypatch, kernels, "_magnitudes")
    lgammas = _count_calls(monkeypatch, math, "lgamma")
    for build in builds:
        build()
    assert tables == [] and lgammas == []
    # the counters see what the kernels call
    kernels.coherent_amplitudes(0.5, 7)
    kernels._log_factorials(1)
    assert len(tables) == 1 and len(lgammas) == 2


def test_log_factorials_match_mpmath():
    lf = kernels._log_factorials(400)
    exact = np.array([float(mpmath.log(mpmath.factorial(k))) for k in range(401)])
    assert lf[0] == lf[1] == 0.0
    assert np.max(np.abs(lf[2:] - exact[2:]) / exact[2:]) < 4 * np.finfo(float).eps


def test_cached_arrays_are_read_only():
    grid = sphere_grid(4.5)
    for a in (kernels._ring_amplitudes(grid.rho.tobytes(), 9), *kernels._packed_tables(9),
              clock._beta_band(9, 0.5)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_returned_operators_are_writable_and_independent_of_each_other():
    sym = lambda xi: np.exp(xi.real) / (1.0 + np.abs(xi) ** 2)
    for build in (lambda: coherent.resolution_of_unity(6.5),
                  lambda: clock.clock_operator(6.5, 0.4),
                  lambda: symbols.reconstruct_operator(sym, 6.5)):
        first = build()
        want = first.tobytes()
        assert first.flags.writeable
        first[...] = 7.0
        assert build().tobytes() == want


def test_grid_with_other_radii_reads_its_own_amplitudes():
    # the default grid, one with other n_polar, and a hand-built grid with the
    # default radii scaled: each operator is the reference sum on its own grid
    j, sym = 6, lambda xi: (1.0 + xi.real) / (1.0 + np.abs(xi) ** 2)
    default = sphere_grid(j)
    grids = (default, sphere_grid(j, n_polar=5),
             SphereGrid(rho=1.5 * default.rho, ring_weights=default.ring_weights,
                        n_azimuthal=default.n_azimuthal))
    for _ in range(2):
        misses = kernels._ring_amplitudes.cache_info().misses
        for grid in grids:
            want = ((2 * j + 1) / np.pi) * _reference_ring_sum(grid, grid.weights * sym(grid.xi),
                                                               2 * j)
            assert symbols.reconstruct_operator(sym, j, grid).tobytes() == want.tobytes()
    # the second round found all three tables cached
    assert kernels._ring_amplitudes.cache_info().misses == misses


def test_ring_amplitude_cache_stays_within_its_size():
    size = kernels._ring_amplitudes.cache_info().maxsize
    assert size is not None
    for n_polar in range(2, size + 5):
        coherent.resolution_of_unity(2.5, sphere_grid(2.5, n_polar=n_polar))
    assert kernels._ring_amplitudes.cache_info().currsize == size
