import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinclock import coherent
from spinclock.errors import ChartSingularityError
from spinclock.grids import sphere_grid

RNG = np.random.default_rng(42)


def su2_reference(xi, j):
    """Direct binomial-formula evaluation, independent of the kernels."""
    two_j = int(round(2 * j))
    norm = (1.0 + abs(xi) ** 2) ** (-j)
    return np.array([norm * math.sqrt(math.comb(two_j, n)) * xi**n
                     for n in range(two_j + 1)], dtype=complex)


def test_su2_coherent_xi_zero():
    v = coherent.su2_coherent(0.0, 3.0)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0)


def test_su2_coherent_equal_superposition():
    v = coherent.su2_coherent(1.0, 0.5)
    assert np.allclose(v, [1 / math.sqrt(2)] * 2)


def test_su2_coherent_generic():
    xi, j = 2 + 1j, 1.5
    v = coherent.su2_coherent(xi, j)
    assert np.max(np.abs(v - su2_reference(xi, j))) < 1e-14
    assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)


def test_su2_coherent_large_arguments_stay_normalized():
    for xi in (50.0 + 0j, 1e-4 + 0j, 30j):
        v = coherent.su2_coherent(xi, 100.0)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)


def test_su2_coherent_beyond_overflow_of_abs_sq():
    # |xi|^2 overflows for |xi| > 1.3e154; the state is then e_{2j} times the phase of xi^{2j}
    for xi, phase in ((1e160, 1.0), (-1e160j, -1.0), (1.5e308, 1.0)):
        v = coherent.su2_coherent(xi, 1.0)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
        assert v[-1] == pytest.approx(phase, abs=1e-12)


@pytest.mark.parametrize("j", [0.0, 0.5, 2.5, 20.0])
def test_su2_coherent_broadcasts_over_labels(j):
    labels = np.array([[0.0, 0.3 - 0.7j, 1e160], [-2.0 + 0.5j, 1e160j, 1.0]])
    dim = int(round(2 * j)) + 1
    got = coherent.su2_coherent(labels, j)
    assert got.shape == labels.shape + (dim,)
    for idx, x in np.ndenumerate(labels):
        one = coherent.su2_coherent(x, j)
        assert one.shape == (dim,)
        assert np.array_equal(got[idx], one)
        assert np.vdot(one, one).real == pytest.approx(1.0, abs=1e-12)


def test_overlap_beyond_overflow_of_abs_sq():
    # near the pole xi = inf: <xi|xi> = 1, <xi|-xi> = (-1)^{2j}, and
    # <xi|eta> = (1 + conj(xi) eta)^{2j} / (1+|xi|^2)^j for |eta| << 1/|xi|
    assert coherent.overlap(1e160, 1e160, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert coherent.overlap(1e160j, 1e160j, 3.5) == pytest.approx(1.0, abs=1e-12)
    assert coherent.overlap(1e160, -1e160, 2.5) == pytest.approx(-1.0, abs=1e-12)
    assert coherent.overlap(1e160, 1e-170, 0.5) == pytest.approx(1e-160, rel=1e-12)


def test_project_coherent_alpha_zero():
    amps, _ = coherent.project_coherent(0.0, 1.0, 2)
    assert amps[1] == 0 and amps[2] == 0
    assert abs(amps[0]) > 0


def test_project_coherent_m_zero_norm():
    alpha, beta = 0.3 + 0.4j, -1.1 + 0.2j
    r = abs(alpha) ** 2 + abs(beta) ** 2
    amps, norm_sq = coherent.project_coherent(alpha, beta, 0)
    assert norm_sq == pytest.approx(math.exp(-r), rel=1e-12)
    assert abs(amps[0]) ** 2 == pytest.approx(norm_sq, rel=1e-12)


def test_project_coherent_rejects_negative_sector():
    with pytest.raises(ValueError, match=r"the quanta m must be nonnegative, got m=-1"):
        coherent.project_coherent(0.3 + 0.4j, -1.1 + 0.2j, -1)


def test_project_coherent_matches_su2_direction():
    amps, norm_sq = coherent.project_coherent(1.0, 1.0, 2)
    assert norm_sq == pytest.approx(2 * math.exp(-2), rel=1e-12)
    direction = amps / np.linalg.norm(amps)
    assert np.max(np.abs(direction - coherent.su2_coherent(1.0, 1.0))) < 1e-12


def test_project_coherent_against_truncated_two_mode_state():
    # materialize |alpha, beta> on a truncated grid and slice the sector
    alpha, beta, m_prime = 0.8 - 0.3j, 0.5 + 1.2j, 6
    n_cut = m_prime + int(math.ceil(10 * math.sqrt(m_prime + 1.0)))
    r = abs(alpha) ** 2 + abs(beta) ** 2
    pref = math.exp(-0.5 * r)
    full = np.zeros((n_cut, n_cut), dtype=complex)
    for n1 in range(n_cut):
        for n2 in range(n_cut):
            full[n1, n2] = (pref * alpha**n1 * beta**n2
                            / math.sqrt(math.factorial(n1) * math.factorial(n2)))
    sector = np.array([full[n, m_prime - n] for n in range(m_prime + 1)])
    amps, norm_sq = coherent.project_coherent(alpha, beta, m_prime)
    assert np.max(np.abs(sector - amps)) < 1e-13
    assert np.vdot(sector, sector).real == pytest.approx(norm_sq, rel=1e-12)


def test_projection_idempotent():
    # selecting the sector twice changes nothing (the selector is a mask)
    amps, _ = coherent.project_coherent(0.4 + 0.1j, 1.0, 5)
    again = amps.copy()  # the sector state is already inside the subspace
    assert np.all(again == amps)


def test_gauge_covariance():
    alpha, beta, m_prime = 0.7 + 0.2j, -0.4 + 0.9j, 7
    base, _ = coherent.project_coherent(alpha, beta, m_prime)
    for th0 in (0.3, 1.7, 5.1):
        rot, _ = coherent.project_coherent(alpha * np.exp(1j * th0),
                                           beta * np.exp(1j * th0), m_prime)
        assert np.max(np.abs(rot - np.exp(1j * m_prime * th0) * base)) < 1e-13


def test_factor_gauge_phase_simple():
    theta, xi = coherent.factor_gauge_phase(0.0, 1j)
    assert theta == pytest.approx(math.pi / 2)
    assert xi == 0


def test_factor_gauge_phase_reconstructs_state():
    alpha, beta, m_prime = 1 + 1j, 2.0, 3
    theta, xi = coherent.factor_gauge_phase(alpha, beta)
    assert xi == pytest.approx((1 + 1j) / 2)
    assert theta == pytest.approx(0.0)
    amps, _ = coherent.project_coherent(alpha, beta, m_prime)
    direction = amps / np.linalg.norm(amps)
    rebuilt = np.exp(1j * m_prime * theta) * coherent.su2_coherent(xi, m_prime / 2)
    assert np.max(np.abs(direction - rebuilt)) < 1e-12


def test_factored_projection_at_large_sector():
    # labels on the constraint surface |alpha|^2 + |beta|^2 = m' + 1, where
    # alpha^n alone overflows; measured worst 2.8e-13 for the direction and
    # 1.4e-12 relative for the norm, whose log-Gamma terms reach 1.3e4
    m_prime = 2000
    rng = np.random.default_rng(8)
    for alpha, beta in rng.normal(size=(8, 4)).view(complex):
        scale = math.sqrt((m_prime + 1) / (abs(alpha) ** 2 + abs(beta) ** 2))
        alpha, beta = scale * alpha, scale * beta
        amps, norm_sq = coherent.project_coherent(alpha, beta, m_prime)
        assert np.vdot(amps, amps).real == pytest.approx(norm_sq, rel=5e-12)
        theta, xi = coherent.factor_gauge_phase(alpha, beta)
        direction = amps / np.linalg.norm(amps)
        rebuilt = np.exp(1j * m_prime * theta) * coherent.su2_coherent(xi, m_prime / 2)
        assert np.max(np.abs(direction - rebuilt)) < 1e-12


def test_factor_gauge_phase_pole():
    with pytest.raises(ChartSingularityError):
        coherent.factor_gauge_phase(1.0, 0.0)


def test_overlap_self_is_one():
    assert coherent.overlap(0.3 - 0.8j, 0.3 - 0.8j, 4.0) == pytest.approx(1.0)


def test_overlap_spin_half():
    assert abs(coherent.overlap(0.0, 1.0, 0.5)) == pytest.approx(1 / math.sqrt(2))


@pytest.mark.parametrize("j", [1.0, 5.0, 10.0])
def test_overlap_real_labels_cosine_law(j):
    for th, thp in [(0.2, 0.9), (0.7, 0.75), (1.1, 0.3)]:
        ov = coherent.overlap(math.tan(thp), math.tan(th), j)
        assert abs(ov) == pytest.approx(abs(math.cos(thp - th)) ** (2 * j),
                                        rel=1e-12)


def test_overlap_of_orthogonal_labels_is_zero():
    # 1 + conj(1) * (-1) = 0: antipodal points on the sphere
    assert coherent.overlap(1, -1, 2.0) == 0


def test_overlap_array_equals_scalar_calls():
    xi1 = RNG.normal(size=200) + 1j * RNG.normal(size=200)
    xi2 = RNG.normal(size=200) + 1j * RNG.normal(size=200)
    xi1[:3] = [1.0, 0.5j, 0.0]
    xi2[:3] = [-1.0, -2j, 0.0]
    for j in (0.5, 3.5, 10.0):
        vals = coherent.overlap(xi1, xi2, j)
        assert vals.shape == xi1.shape
        assert vals[0] == vals[1] == 0
        assert np.array_equal(vals, [coherent.overlap(complex(a), complex(b), j)
                                     for a, b in zip(xi1, xi2)])
        # broadcasting one label against many
        assert np.array_equal(coherent.overlap(xi1, xi2[5], j),
                              [coherent.overlap(complex(a), complex(xi2[5]), j) for a in xi1])


def test_overlap_mismatched_spin_rejected():
    with pytest.raises(ValueError):
        coherent.overlap(0.0, 1.0, 0.7)  # 2j not an integer


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=50))
def test_overlap_closed_form_and_bound(x1, x2, two_j):
    j = two_j / 2.0
    closed = coherent.overlap(x1, x2, j)
    explicit = complex(np.vdot(coherent.su2_coherent(x1, j),
                               coherent.su2_coherent(x2, j)))
    assert abs(closed - explicit) < 1e-12
    assert abs(closed) <= 1.0 + 1e-12


# labels with |xi| near 0, near 1 and large, each at a generic phase
ORACLE_LABELS = np.array([1e-3 * np.exp(0.4j), 2.5e-9 - 1e-9j, 1.0, 0.999 + 0.03j,
                          np.exp(2.1j), 1e3 * np.exp(-1.3j), 1e9j, -7.5e5 + 2e5j])


def _mp(z):
    return mpmath.mpc(z.real, z.imag)


def _assert_near_oracle(got, want, two_j):
    # relative error per value: the log-domain forms lose about 2j ulps
    # (measured at most 18.9 (2j+1) eps, from |xi| = 1e9 and 7.8e5); values
    # below 1e-300 are held to an absolute bound
    tol = 32 * (two_j + 1) * np.finfo(float).eps
    for g, w in zip(got, want):
        assert abs(_mp(g) - w) <= tol * abs(w) + 1e-300, (g, w)


@pytest.mark.parametrize("two_j", [1, 15, 200, 2000])
def test_su2_coherent_matches_mpmath(two_j):
    got = coherent.su2_coherent(ORACLE_LABELS, two_j / 2)
    with mpmath.workdps(30):
        for x, row in zip(ORACLE_LABELS, got):
            # c_0 = (1+|xi|^2)^{-j}, c_{n+1} = c_n xi sqrt((2j-n)/(n+1))
            z = _mp(x)
            c = [(1 + abs(z) ** 2) ** (-mpmath.mpf(two_j) / 2)]
            for n in range(two_j):
                c.append(c[-1] * z * mpmath.sqrt(mpmath.mpf(two_j - n) / (n + 1)))
            _assert_near_oracle(row, c, two_j)


@pytest.mark.parametrize("two_j", [1, 15, 200, 2000])
def test_overlap_matches_mpmath(two_j):
    x1, x2 = np.meshgrid(ORACLE_LABELS, ORACLE_LABELS)
    got = coherent.overlap(x1.ravel(), x2.ravel(), two_j / 2)
    with mpmath.workdps(30):
        h = mpmath.mpf(two_j) / 2
        want = [(1 + abs(_mp(a)) ** 2) ** -h * (1 + abs(_mp(b)) ** 2) ** -h
                * (1 + mpmath.conj(_mp(a)) * _mp(b)) ** two_j
                for a, b in zip(x1.ravel(), x2.ravel())]
        _assert_near_oracle(got, want, two_j)


def test_sphere_grid_total_measure():
    for j in (0.5, 3.0, 10.0):
        grid = sphere_grid(j)
        assert abs(grid.weights.sum() - math.pi) < 1e-12
        assert np.all(grid.weights > 0)


def test_resolution_of_unity_scalar():
    res = coherent.resolution_of_unity(0.0)
    assert res.shape == (1, 1)
    assert res[0, 0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("j,tol", [(0.5, 1e-12), (10.0, 1e-10), (100.0, 1e-10),
                                   (200.0, 1e-10), (1000.0, 1e-11)])
def test_resolution_of_unity(j, tol):
    res = coherent.resolution_of_unity(j)
    dim = int(round(2 * j)) + 1
    assert np.max(np.abs(res - np.eye(dim))) < tol


def test_radial_weight_normalized():
    for m in (0, 5, 50):
        mass, err = mpmath.quad(lambda r: coherent.radial_weight(float(r), m),
                                [0, m + 1, mpmath.inf], error=True)
        assert float(mass) == pytest.approx(1.0, abs=max(float(err), 1e-10))


def test_radial_weight_peak_location():
    for m in (0, 10, 100):
        r = np.linspace(max(m - 3 * math.sqrt(m + 1.0), 0.01),
                        m + 4 + 3 * math.sqrt(m + 1.0), 400001)
        w = coherent.radial_weight(r, m)
        assert r[np.argmax(w)] == pytest.approx(m + 1, abs=1e-3)


def test_radial_weight_approaches_gaussian():
    # sup distance to the peak Gaussian shrinks monotonically with m
    dists = []
    for m in (10, 40, 160):
        mu = m + 1.0
        r = np.linspace(mu - 8 * math.sqrt(mu), mu + 8 * math.sqrt(mu), 20001)
        gauss = np.exp(-((r - mu) ** 2) / (2 * mu)) / math.sqrt(2 * math.pi * mu)
        dists.append(np.max(np.abs(coherent.radial_weight(r, m) - gauss)))
    assert dists[0] > dists[1] > dists[2]
