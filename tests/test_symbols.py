import math

import numpy as np
import pytest

import spinclock
from spinclock import fock, kernels, symbols
from spinclock.coherent import su2_coherent
from spinclock.grids import sphere_grid

RNG = np.random.default_rng(7)


def test_upper_symbol_s3_at_origin():
    for m_prime in (1, 4, 9):
        _, _, s3 = fock.spin_operators(m_prime)
        val = symbols.upper_symbol(s3, 0.0)
        assert val.real == pytest.approx(-m_prime / 2.0, abs=1e-13)
        assert abs(val.imag) < 1e-13


def test_upper_symbol_identity():
    eye = np.eye(6, dtype=complex)
    for xi in (0.0, 1.3 - 0.4j, 10j):
        assert symbols.upper_symbol(eye, xi) == pytest.approx(1.0, abs=1e-12)


def test_upper_symbol_spin_one_values():
    s1, _, s3 = fock.spin_operators(2)
    assert symbols.upper_symbol(s1, 1.0).real == pytest.approx(1.0, abs=1e-13)
    for phase in (0.0, 0.8, 2.2):
        xi = complex(math.cos(phase), math.sin(phase))
        assert abs(symbols.upper_symbol(s3, xi)) < 1e-13


def test_spin_symbols_at_origin():
    assert symbols.spin_symbols_closed_form(0.0, 3.0) == (0.0, -0.0, -3.0)


def test_spin_symbols_match_matrix_expectations():
    for j in (0.5, 2.0, 7.5):
        m_prime = int(round(2 * j))
        mats = fock.spin_operators(m_prime)
        for _ in range(30):
            xi = complex(RNG.normal(), RNG.normal())
            cf = symbols.spin_symbols_closed_form(xi, j)
            for val, mat in zip(cf, mats):
                assert abs(symbols.upper_symbol(mat, xi) - val) < 1e-12


def test_spin_symbols_imaginary_label():
    # xi = i, j = 2: the matrix expectation fixes the sign of the middle
    # component to -2 (the reflected triple would break the cyclic algebra)
    cf = symbols.spin_symbols_closed_form(1j, 2.0)
    assert cf == pytest.approx((0.0, -2.0, 0.0), abs=1e-14)
    mats = fock.spin_operators(4)
    for val, mat in zip(cf, mats):
        assert abs(symbols.upper_symbol(mat, 1j) - val) < 1e-13


def test_spin_symbols_beyond_overflow_of_abs_sq():
    # |xi|^2 overflows; the closed form goes through the antipodal label 1/xi
    for xi, want in ((1e160, (4e-160, 0.0, 2.0)), (1e160j, (0.0, -4e-160, 2.0)),
                     (complex(1.5e308, -1.5e308), (0.0, 0.0, 2.0))):
        got = symbols.spin_symbols_closed_form(xi, 2.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


BROADCAST_LABELS = np.array([[0.0, 0.3 - 0.7j, 1e160], [-2.0 + 0.5j, 1e160j, 1.0]])


@pytest.mark.parametrize("j", [0.0, 0.5, 2.5, 20.0])
def test_upper_symbol_broadcasts_over_labels(j):
    mats = fock.spin_operators(int(round(2 * j)))
    for mat in mats:
        got = symbols.upper_symbol(mat, BROADCAST_LABELS)
        assert got.shape == BROADCAST_LABELS.shape
        for idx, x in np.ndenumerate(BROADCAST_LABELS):
            one = symbols.upper_symbol(mat, x)
            assert np.ndim(one) == 0
            assert got[idx] == one


@pytest.mark.parametrize("j", [0.0, 0.5, 2.5, 20.0])
def test_spin_symbols_closed_form_broadcasts_over_labels(j):
    got = symbols.spin_symbols_closed_form(BROADCAST_LABELS, j)
    assert all(s.shape == BROADCAST_LABELS.shape for s in got)
    for idx, x in np.ndenumerate(BROADCAST_LABELS):
        one = symbols.spin_symbols_closed_form(x, j)
        assert all(np.ndim(s) == 0 for s in one)
        assert tuple(s[idx] for s in got) == one


@pytest.mark.parametrize("j", [0.5, 2.5, 20.0])
def test_upper_symbol_of_full_matrix_matches_vdot(j):
    rng = np.random.default_rng(11)
    dim = int(round(2 * j)) + 1
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    xis = np.concatenate([[0.0, 1e160], rng.normal(size=(30, 2)).view(complex)[:, 0]])
    got = symbols.upper_symbol(op, xis)
    want = np.array([np.vdot(v, op @ v) for v in (su2_coherent(x, j) for x in xis)])
    assert np.max(np.abs(got - want)) < 1e-12


def test_spin_symbols_sphere_identity():
    for _ in range(100):
        xi = complex(RNG.normal(), RNG.normal())
        j = float(RNG.integers(1, 20)) / 2.0
        s1, s2, s3 = symbols.spin_symbols_closed_form(xi, j)
        assert s1**2 + s2**2 + s3**2 == pytest.approx(j * j, abs=1e-10)


def test_project_constant_symbol():
    reduced = symbols.project_lower_symbol(lambda xi, r, th: 1.0, 7)
    assert reduced(0.5 + 0.2j) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("m", [5, 50])
def test_project_q2_symbol_vanishes(m):
    reduced = symbols.project_lower_symbol(symbols.q2_position_symbol, m)
    for _ in range(20):
        xi = complex(RNG.normal(), RNG.normal())
        assert abs(reduced(xi)) < 1e-14


def test_project_radius_symbol():
    for m in (10, 100, 1000):
        reduced = symbols.project_lower_symbol(lambda xi, r, th: r, m)
        val = reduced(0.3 + 0j)
        assert val == pytest.approx(m + 2, rel=1e-13)
        rel = abs(val - (m + 1)) / (m + 1)
        assert rel == pytest.approx(1.0 / (m + 1), abs=1e-12)


def test_gauge_odd_symbols_average_to_zero():
    for c in (0.0, 1.1, 4.0):
        reduced = symbols.project_lower_symbol(
            lambda xi, r, th, c=c: (1 + abs(xi)) * np.sqrt(r) * np.cos(th + c), 8)
        for _ in range(10):
            xi = complex(RNG.normal(), RNG.normal())
            assert abs(reduced(xi)) < 1e-14


def _gauge_odd(xi, r, th):
    return (1 + np.abs(xi)) * np.sqrt(r) * np.cos(th + 1.1)


@pytest.mark.parametrize("sym", [symbols.q1_position_symbol, symbols.q2_position_symbol,
                                 _gauge_odd, lambda xi, r, th: r, lambda xi, r, th: 1.0],
                         ids=["q1", "q2", "gauge_odd", "r", "constant"])
def test_reduced_symbol_array_equals_scalar_calls(sym):
    reduced = symbols.project_lower_symbol(sym, 9)
    xis = RNG.normal(size=(4, 5)) + 1j * RNG.normal(size=(4, 5))
    vals = reduced(xis)
    assert vals.shape == xis.shape
    assert np.array_equal(vals, [[reduced(complex(x)) for x in row] for row in xis])


def _alpha_sq(xi, r, th):
    t = np.abs(xi) ** 2
    return r * t / (1 + t)


# full lower symbols and the diagonal of their anti-normally ordered
# operator on the sector m' = 2j: a a^+ = n+1, b b^+ = 2j-n+1, their sum 2j+2
ANTINORMAL = {
    "alpha_sq": (_alpha_sq, lambda n, two_j: n + 1),
    "q1_sq": (lambda xi, r, th: symbols.q1_position_symbol(xi, r, th) ** 2,
              lambda n, two_j: n + 1),
    "q2_sq": (lambda xi, r, th: symbols.q2_position_symbol(xi, r, th) ** 2,
              lambda n, two_j: two_j - n + 1),
    "r": (lambda xi, r, th: r, lambda n, two_j: np.full_like(n, two_j + 2)),
}


@pytest.mark.parametrize("kind", sorted(ANTINORMAL))
@pytest.mark.parametrize("j", [1.0, 2.0])
def test_projected_symbol_quantizes_to_antinormal_operator(kind, j):
    sym, diag = ANTINORMAL[kind]
    two_j = int(round(2 * j))
    op = symbols.reconstruct_operator(symbols.project_lower_symbol(sym, two_j), j)
    expected = np.diag(diag(np.arange(two_j + 1.0), two_j))
    assert np.max(np.abs(op - expected)) < 1e-10


def test_constraint_peaking_relative_error_shrinks():
    # theta-independent polynomial symbol: o'(xi) - o|_{r=m+1} is O(1/m)
    rels = []
    for m in (10, 100, 1000):
        reduced = symbols.project_lower_symbol(lambda xi, r, th: r * r, m)
        target = (m + 1) ** 2
        rels.append(abs(reduced(0.7 + 0j) - target) / target)
    assert rels[0] > rels[1] > rels[2]
    assert rels[1] / rels[2] == pytest.approx(10.0, rel=0.3)


def test_reconstruct_unit_symbol_is_identity():
    for j in (0.5, 3.0):
        res = symbols.reconstruct_operator(lambda xi: 1.0, j)
        dim = int(round(2 * j)) + 1
        assert np.max(np.abs(res - np.eye(dim))) < 1e-12


def _s3_lower_symbol(j):
    return lambda xi: -(j + 1) * (1 - abs(xi) ** 2) / (1 + abs(xi) ** 2)


def test_lower_symbol_scale_fit_spin_half():
    # brute force at j = 1/2: the best scalar c in reconstruct(c * u) = S3
    # is exactly -(j+1)
    j = 0.5
    _, _, s3 = fock.spin_operators(1)
    base = symbols.reconstruct_operator(
        lambda xi: (1 - abs(xi) ** 2) / (1 + abs(xi) ** 2), j)
    num = np.trace(s3.conj().T @ base).real
    den = np.trace(base.conj().T @ base).real
    assert num / den == pytest.approx(-(j + 1), abs=1e-12)


@pytest.mark.parametrize("j", [0.5, 1.0, 5.0])
def test_reconstruct_s3_from_its_lower_symbol(j):
    m_prime = int(round(2 * j))
    _, _, s3 = fock.spin_operators(m_prime)
    rebuilt = symbols.reconstruct_operator(_s3_lower_symbol(j), j)
    assert np.max(np.abs(rebuilt - s3)) < 1e-10


def test_upper_symbol_shape_is_not_the_lower_symbol():
    j = 2.0
    _, _, s3 = fock.spin_operators(4)
    wrong = symbols.reconstruct_operator(
        lambda xi: -j * (1 - abs(xi) ** 2) / (1 + abs(xi) ** 2), j)
    norm_s3 = np.linalg.norm(s3)
    assert np.linalg.norm(wrong - s3) > 0.1 * norm_s3


def test_reconstruct_real_symbol_hermitian():
    res = symbols.reconstruct_operator(
        lambda xi: xi.real / (1 + abs(xi) ** 2), 4.0)
    assert np.max(np.abs(res - res.conj().T)) < 1e-13


def test_q2_symbol_values():
    assert symbols.q2_position_symbol(0.0, 2.0, 0.0) == pytest.approx(2.0)
    assert abs(symbols.q2_position_symbol(0.5, 3.0, math.pi / 2)) < 1e-15
    # beta real positive: sqrt(2) * beta
    beta = 1.3
    val = symbols.q2_position_symbol(0.0, beta**2, 0.0)
    assert val == pytest.approx(math.sqrt(2) * beta)


def test_q1_symbol_tracks_mode_one_phase():
    xi = 0.8 * complex(math.cos(0.9), math.sin(0.9))
    r = 4.0
    for th in (0.0, 1.2, 3.3):
        alpha = xi * math.sqrt(r / (1 + abs(xi) ** 2)) * complex(math.cos(th),
                                                                 math.sin(th))
        expected = math.sqrt(2) * alpha.real
        assert symbols.q1_position_symbol(xi, r, th) == pytest.approx(expected,
                                                                     abs=1e-13)


def test_normalization_transport_composition():
    # reduce the unit symbol, then rebuild the operator: identity both ways
    m = 6
    reduced = symbols.project_lower_symbol(lambda xi, r, th: 1.0, m)
    op = symbols.reconstruct_operator(reduced, m / 2.0)
    assert np.max(np.abs(op - np.eye(m + 1))) < 1e-10


def _berezin_eigenvalue(l, two_j):
    """lambda_l = (2j)!(2j+1)!/((2j+l+1)!(2j-l)!), and 0 for l > 2j."""
    if l > two_j:
        return 0.0
    f = math.factorial
    return f(two_j) * f(two_j + 1) / (f(two_j + l + 1) * f(two_j - l))


def _harmonics(xi):
    """Spherical harmonics of degree l at xi = tan(Theta/2) e^{i phi}, keyed (l, name)."""
    t = np.abs(xi) ** 2
    u = (1.0 - t) / (1.0 + t)  # cos(Theta)
    sin_e = 2.0 * xi / (1.0 + t)  # sin(Theta) e^{i phi}
    return {(0, "P0"): np.ones_like(u), (1, "P1"): u, (2, "P2"): (3 * u**2 - 1) / 2,
            (3, "P3"): (5 * u**3 - 3 * u) / 2, (1, "Y11"): sin_e.real,
            (2, "Y22"): (sin_e**2).imag, (3, "Y31"): sin_e.real * (5 * u**2 - 1)}


@pytest.mark.parametrize("j", [1.0, 2.5, 10.0, 50.0, 100.0])
def test_reconstruct_then_upper_symbol_is_berezin_eigenvalue(j):
    # Berezin (1975): the P-representation followed by the upper symbol scales
    # a degree-l harmonic by lambda_l; the azimuthal ones reach off-diagonals
    two_j = int(round(2 * j))
    xis = np.array([0.0, 0.35 - 0.8j, -1.7 + 0.2j, 4.0j])
    for l, name in _harmonics(xis):
        op = symbols.reconstruct_operator(lambda xi: _harmonics(xi)[l, name], j)
        got = symbols.upper_symbol(op, xis)
        want = _berezin_eigenvalue(l, two_j) * _harmonics(xis)[l, name]
        assert np.max(np.abs(got - want)) < 1e-12, (l, name)


@pytest.mark.parametrize("two_j", [5, 20, 100])
def test_default_azimuths_integrate_harmonics_up_to_n_minus_2j_minus_1(two_j):
    # the N-point rule sums e^{i(h+d) phi} exactly unless h + d = 0 mod N; with
    # |d| <= 2j that holds for |h| <= N - 2j - 1, and h = N - 2j meets d = -2j
    j = two_j / 2
    grid = sphere_grid(j)
    n_az = grid.n_azimuthal
    fine = sphere_grid(j, n_azimuthal=4 * n_az)
    # the size of entry (n, n') for a symbol of modulus 1: ((2j+1)/pi) sum_k w_k a_n a_n'.
    # Entry (2j, 0) is 1e-29 at 2j = 100, below the rounding of the diagonal, so each
    # entry is compared on its own scale
    amps = kernels.coherent_amplitudes(grid.rho, two_j).real
    scale = (two_j + 1) / np.pi * n_az * (amps.T * grid.ring_weights) @ amps
    corners = (np.array([two_j, 0]), np.array([0, two_j]))
    for h in (n_az - two_j - 1, n_az - two_j):
        sym = lambda xi: np.cos(h * np.angle(xi))
        rel = np.abs(symbols.reconstruct_operator(sym, j, grid)
                     - symbols.reconstruct_operator(sym, j, fine)) / scale
        # the samples cos(h arg xi) round to about h eps
        tol = 4 * h * np.finfo(float).eps
        if h == n_az - two_j:
            # e^{ih phi} lands in column -2j mod N, which entry (2j, 0) reads: the cosine
            # puts half of the scale there and at the mirror (0, 2j)
            np.testing.assert_allclose(rel[corners], 0.5, rtol=1e-12)
            rel[corners] = 0.0
        assert np.max(rel) < tol, (h, np.max(rel) / tol)


def test_package_exports_resolve():
    # deparameterize turns q1 into the clock symbol; q2 is the clock oscillator's position
    assert [name for name in spinclock.__all__ if not hasattr(spinclock, name)] == []
    assert {"q1_position_symbol", "q2_position_symbol"} <= set(spinclock.__all__)
