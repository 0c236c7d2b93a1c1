import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from spinclock import cli, clock, symbols
from spinclock.coherent import su2_coherent
from spinclock.errors import ChartSingularityError
from spinclock.grids import sphere_grid

RNG = np.random.default_rng(11)


def test_deparameterize_unit_symbol():
    at_slice = clock.deparameterize(lambda xi, r, th: 1.0, 12, tau=0.8,
                                    phi_prime=0.3)
    assert at_slice(0.4 + 0.1j) == pytest.approx(1.0, abs=1e-13)


def test_deparameterize_cosine_symbol():
    tau, phip, w = 0.45, 0.2, 1.0
    at_slice = clock.deparameterize(lambda xi, r, th: np.cos(th), 9, tau,
                                    phip, w)
    assert at_slice(1.0 + 0j) == pytest.approx(math.cos(w * tau + phip),
                                               abs=1e-13)


def test_deparameterize_array_equals_scalar_calls():
    at_slice = clock.deparameterize(symbols.q1_position_symbol, 11, tau=2.3,
                                    phi_prime=0.4)
    xis = RNG.normal(size=30) + 1j * RNG.normal(size=30)
    vals = at_slice(xis)
    assert vals.shape == xis.shape
    assert np.array_equal(vals, [at_slice(complex(x)) for x in xis])


def test_deparameterize_q1_matches_closed_form_up_to_constant():
    # the radial rule on the slice of q1's lower symbol gives the closed form itself:
    # the constant between them is 1, in any units.  The slice angle is not reduced
    # mod 2 pi: reduced by fmod, it sat 4.4e-11 (tau = 1e6) and 1.4e-8 (tau = 1e9) away
    m = 15
    for omega, hbar in ((1.0, 1.0), (1.7, 0.5)):
        q1 = lambda xi, r, th: symbols.q1_position_symbol(xi, r, th, omega, hbar)
        for tau in (0.0, 0.9, 2.7, 1e3, 1e6, 1e9):
            at_slice = clock.deparameterize(q1, m, tau, phi_prime=0.4, omega=omega)
            xis = np.array([0.8 + 0j, 0.3 - 1.1j, 2.0 + 0.5j])
            closed = clock.clock_symbol_q1(xis, m, tau, 0.4, omega, hbar)
            assert np.max(np.abs(at_slice(xis) - closed)) < 1e-12 * np.max(np.abs(closed))


@pytest.mark.parametrize("tau, phi_prime, omega", [
    (math.inf, 0.0, 1.0), (-math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0),
    (0.5, math.inf, 1.0), (0.5, math.nan, 1.0),
    (0.5, 0.0, math.inf), (0.5, 0.0, math.nan),
    (1e308, 0.0, 10.0)])
def test_clock_refuses_non_finite_slice_angle(tau, phi_prime, omega):
    # the last case is finite, but omega*tau overflows
    named = re.escape(f"tau={tau!r}, omega={omega!r}, phi_prime={phi_prime!r}")
    with pytest.raises(ValueError, match=named):
        clock.deparameterize(symbols.q1_position_symbol, 3, tau, phi_prime, omega)
    with pytest.raises(ValueError, match=named):
        clock.clock_operator(2, tau, phi_prime, omega)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.inf])
def test_clock_refuses_omega_that_is_not_finite_and_positive(omega):
    # sqrt(1/omega) and sqrt(hbar/omega) raised a bare ZeroDivisionError or math domain error
    with pytest.raises(ValueError, match="omega"):
        clock.clock_operator(2, 0.3, omega=omega)
    with pytest.raises(ValueError, match=re.escape(f"omega={omega!r}")):
        clock.clock_symbol_q1(1.0, 4, 0.3, omega=omega)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
def test_clock_symbol_refuses_hbar_that_is_not_finite_and_positive(hbar):
    with pytest.raises(ValueError, match=re.escape(f"hbar={hbar!r}")):
        clock.clock_symbol_q1(1.0, 4, 0.3, hbar=hbar)


def test_clock_symbol_zero_label():
    taus = np.linspace(0, 10, 50)
    assert np.all(clock.clock_symbol_q1(0.0, 20, taus) == 0)


def test_clock_symbol_small_m_value():
    # m = 0, xi = 1, phase 0: sqrt(hbar/2 omega) Gamma(5/2)/1! * 2/sqrt(2) = Gamma(5/2) = 3 sqrt(pi)/4
    expected = 3 * math.sqrt(math.pi) / 4
    assert expected == pytest.approx(1.3293, abs=1e-4)
    assert clock.clock_symbol_q1(1.0, 0, 0.0) == pytest.approx(expected, rel=1e-13)
    assert clock.clock_symbol_q1(1.0, 0, 0.0, omega=2.0, hbar=0.5) == pytest.approx(
        expected / 2, rel=1e-13)


def test_clock_symbol_large_m_no_overflow():
    val = clock.clock_symbol_q1(1.0, 5000, 0.0)
    assert np.isfinite(val)
    assert val > 0


@pytest.mark.parametrize("m", [0, 1, 7, 20, 200, 1000, 1940])
def test_slice_amplitude_matches_mpmath(m):
    # below m = 32 the constant sqrt(2) Gamma(5/2), the quotient of two exact integer
    # products and their product round once each: 3 u = 1.5 eps.  From m = 32 on sqrt(2z),
    # exp and the product round once each, exp within 1 ulp, and the roundings of the series
    # t, |t| <= 1/272, move e^t by under 0.02 u: at most 4 u = 2 eps.  The series' truncation
    # is below 1e-18.  exp(lgamma(m+2.5) - lgamma(m+2)) was 1598 eps off at m = 1000
    with mpmath.workdps(40):
        exact = mpmath.sqrt(2) * mpmath.gamma(m + mpmath.mpf(5) / 2) / mpmath.factorial(m + 1)
        error = abs((clock.slice_amplitude(m) - exact) / exact)
    assert error <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("m", [1, 10, 100])
def test_clock_symbol_is_single_sinusoid(m):
    taus = np.linspace(0, 6 * math.pi, 200)
    for _ in range(5):
        xi = complex(RNG.normal(), RNG.normal())
        if abs(xi) < 1e-3:
            continue
        phip = float(RNG.uniform(0, 2 * math.pi))
        vals = clock.clock_symbol_q1(xi, m, taus, phip)
        model = np.cos(taus + phip + np.angle(xi))
        amp = float(vals @ model) / float(model @ model)
        assert np.max(np.abs(vals - amp * model)) < 1e-12 * max(abs(amp), 1.0)
        assert np.max(np.abs(np.imag(vals))) == 0  # real by construction


# zero, a label whose |xi|^2 underflows, two whose |xi|^2 overflows, random ones
LABELS = np.concatenate([[0j, 1e-200j, 1e160, -1e300 + 1e300j],
                         RNG.normal(size=40) + 1j * RNG.normal(size=40),
                         1e155 * (RNG.normal(size=8) + 1j * RNG.normal(size=8))])


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_clock_symbol_broadcast_equals_scalar_calls():
    taus = np.array([0.0, 0.35, -2.2, 11.0])
    phis = np.array([0.0, 0.4, -1.3])
    got = clock.clock_symbol_q1(LABELS[:, None, None], 7, taus[:, None], phis, 1.7, 0.5)
    assert got.shape == (len(LABELS), len(taus), len(phis))
    want = [[[clock.clock_symbol_q1(complex(x), 7, float(t), float(p), 1.7, 0.5) for p in phis]
             for t in taus] for x in LABELS]
    assert same_bits(got, want)
    # labels read through a stride, as a column of a 2-d array is
    strided = np.stack([LABELS, LABELS[::-1]], axis=1)[:, 0]
    assert not strided.flags.c_contiguous
    assert same_bits(clock.clock_symbol_q1(strided, 7, 0.35, 0.4, 1.7, 0.5),
                     np.asarray(want)[:, 1, 1])
    assert np.isscalar(clock.clock_symbol_q1(-2.7 + 1.2j, 7, 0.3))


def test_clock_symbol_quantization_memory_per_node():
    # the clock symbol on 8 (2j+6) rings of 2j+2 nodes at j = 30, 528 x 62, on which it
    # converges like n_polar^-3, and on the same grid verify's clock.beta_band_exact symbol
    # Re xi / (1+|xi|^2): 73 and 40 bytes per node measured, which the budget of verify plans
    # as GRID_NODE_BYTES
    j, m = 30, 60
    grid = sphere_grid(j, n_polar=8 * (m + 6), n_azimuthal=m + 2)
    for sym in (lambda xi: clock.clock_symbol_q1(xi, m, 0.7, phi_prime=0.2),
                lambda xi: xi.real / (1.0 + np.abs(xi) ** 2)):
        symbols.reconstruct_operator(sym, j, grid)  # caches the rule and the ring amplitudes
        tracemalloc.start()
        try:
            symbols.reconstruct_operator(sym, j, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.GRID_NODE_BYTES * len(grid)


def test_classical_amplitude_broadcast_equals_scalar_calls():
    got = clock.classical_amplitude(7, LABELS, 1.7, 0.5)
    assert got.shape == LABELS.shape
    assert same_bits(got, [clock.classical_amplitude(7, complex(x), 1.7, 0.5) for x in LABELS])
    assert np.isscalar(clock.classical_amplitude(7, 1e160 + 0j))


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_classical_limit_amplitude_ratio_is_gamma_ratio(m):
    # sqrt(2) G(m) sqrt(hbar/omega) over sqrt(2 hbar omega (m+1))/omega: G(m)/sqrt(m+1)
    # with G(m) = Gamma(m+5/2)/(m+1)!, at any omega
    with mpmath.workdps(30):
        want = float(mpmath.gamma(m + mpmath.mpf(5) / 2) / mpmath.factorial(m + 1)
                     / mpmath.sqrt(m + 1))
    taus = np.linspace(0, 4 * math.pi, 100)
    for omega in (1.0, 1.7):
        report = clock.classical_limit_check(0.9 * np.exp(1.1j), [m], taus, omega=omega)
        assert report["amplitude_ratio"][0] == pytest.approx(want, rel=1e-12)
    assert report["limit_ratio"] == 1.0


def test_classical_limit_phase_and_amplitude():
    xi = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    taus = np.linspace(0, 4 * math.pi, 100)
    report = clock.classical_limit_check(xi, [10, 100, 400], taus)
    assert max(report["phase_residual"]) < 1e-12
    devs = [abs(r - report["limit_ratio"]) for r in report["amplitude_ratio"]]
    assert devs[0] > devs[1] > devs[2]
    # m = 100 -> 400 shrinks the deviation by about 4x
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.2)


def test_classical_limit_check_refuses_zero_label():
    with pytest.raises(ValueError, match="no oscillator-1 signal"):
        clock.classical_limit_check(0j, [10], np.linspace(0, 2 * math.pi, 16))


def test_classical_limit_real_label_in_phase():
    taus = np.linspace(0, 2 * math.pi, 64)
    vals = clock.clock_symbol_q1(0.7, 50, taus, phi_prime=0.3)
    # real xi: clock symbol in phase with oscillator 2
    model = np.cos(taus + 0.3)
    amp = float(vals @ model) / float(model @ model)
    assert np.max(np.abs(vals - amp * model)) < 1e-12


def test_clock_operator_degenerate_spin():
    op = clock.clock_operator(0.0, 0.3)
    assert op.shape == (1, 1)
    assert abs(op[0, 0]) < 1e-14


@pytest.mark.parametrize("j", [0.5, 1.0, 5.0])
def test_clock_operator_hermitian_traceless(j):
    for tau in (0.0, 1.9):
        op = clock.clock_operator(j, tau, phi_prime=0.6)
        assert np.max(np.abs(op - op.conj().T)) < 1e-13
        assert abs(np.trace(op)) < 1e-12


def _clock_entries_mpmath(two_j, psi, omega):
    """C[n, n+1] = (2j+1) sqrt(1/2 omega) Gamma(m+5/2)/(m+1)! sqrt(C(m,n) C(m,n+1))
    B(n+2, m-n+1/2) e^{i psi} with m = 2j, to 40 digits."""
    with mpmath.workdps(40):
        m = two_j
        g = (mpmath.sqrt(1 / (2 * mpmath.mpf(omega)))
             * mpmath.gamma(m + mpmath.mpf(5) / 2) / mpmath.factorial(m + 1))
        phase = mpmath.expj(psi)
        return [complex((m + 1) * g * mpmath.sqrt(mpmath.binomial(m, n) * mpmath.binomial(m, n + 1))
                        * mpmath.beta(n + 2, m - n + mpmath.mpf(1) / 2) * phase)
                for n in range(m)]


def _beta_band_bound(two_j):
    """The bound on _beta_band's error relative to each entry, 1.4 sqrt(2j) eps + 2 eps.

    Entry n is entry 0 times n steps, and each step rounds about five times: the
    quotient of the binomials' integers (halved by its square root), the root, the
    Beta's integer quotient, their product and the running product.  Each rounding is
    at most u = eps/2, of independent sign, variance u^2/3, so after n steps the error
    is a random walk of standard deviation 1.19 u sqrt(n) = 0.6 sqrt(n) eps, and the
    largest over the band about 1.25 times that at its end.  1.4 sqrt(2j) eps is 2.3
    such deviations (measured at most 0.84 sqrt(2j) eps, at 2j = 20 with k = 1); 2 eps
    covers entry 0 and, in clock_operator, the scale's own roundings.
    """
    return (1.4 * math.sqrt(two_j) + 2) * np.finfo(float).eps


@pytest.mark.parametrize("two_j", [20, 200, 1000, 1940])
@pytest.mark.parametrize("k", [0.5, 1.0])
def test_beta_band_matches_mpmath(two_j, k):
    # (2j+1) sqrt(C(m,n) C(m,n+1)) B(n+2, m-n+k) to 40 digits; bound 63.7 eps at 2j = 1940
    with mpmath.workdps(40):
        want = np.array([float((two_j + 1) * mpmath.sqrt(mpmath.binomial(two_j, n)
                                                        * mpmath.binomial(two_j, n + 1))
                               * mpmath.beta(n + 2, two_j - n + mpmath.mpf(k)))
                         for n in range(two_j)])
    band = clock._beta_band(two_j, k)
    assert np.max(np.abs(band - want) / want) < _beta_band_bound(two_j)


@pytest.mark.parametrize("j", [0.5, 5.0, 50.0, 1000.0])
def test_clock_operator_matches_mpmath_beta_expression(j):
    # _beta_band's bound, 64.6 eps at j = 1000: each entry is the band times one scale
    # (measured 0.9, 1.4, 8.7 and 14.2 eps).  A 1e-13 change to the constant fails every j
    two_j = int(2 * j)
    tau, phip, omega = 0.7, 0.3, 1.4
    op = clock.clock_operator(j, tau, phip, omega)
    n = np.arange(two_j)
    want = np.array(_clock_entries_mpmath(two_j, omega * tau + phip, omega))
    rel = np.max(np.abs(op[n, n + 1] - want) / np.abs(want))
    assert rel < _beta_band_bound(two_j)
    # exactly Hermitian, traceless and zero beyond the first off-diagonals
    assert np.array_equal(op, op.conj().T)
    off = op.copy()
    off[n, n + 1] = off[n + 1, n] = 0.0
    assert not np.any(off)


@pytest.mark.parametrize("j", [0.5, 3.0, 10.0])
def test_clock_operator_is_limit_of_sum_over_grid_nodes(j):
    # ((2j+1)/pi) sum_k w_k q1'(xi_k; tau) |xi_k><xi_k| over the nodes of refined
    # grids: sin(Theta/2) in the symbol is not a polynomial in cos(Theta), so the
    # sum converges like n_polar^-3, about 8x per doubling of the rings
    two_j = int(2 * j)
    tau, phip, omega = 0.7, 0.3, 1.4
    want = clock.clock_operator(j, tau, phip, omega)
    errs = []
    for k in (1, 2, 4):
        grid = sphere_grid(j, n_polar=k * (two_j + 6))
        coeff = grid.weights * clock.clock_symbol_q1(grid.xi, two_j, tau, phip, omega)
        vecs = su2_coherent(grid.xi, j)
        got = (two_j + 1) / np.pi * np.einsum("k,kn,km->nm", coeff, vecs, vecs.conj())
        errs.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert 3e-4 < errs[0] < 2e-3  # measured 9.4e-4, 1.2e-3 and 6.1e-4
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(8.0, rel=0.1)  # measured 7.4 to 7.9


def test_clock_operator_large_spin_is_tridiagonal():
    # q1' carries the azimuthal harmonics e^{+-i phi} only, so the operator
    # couples neighbouring number states and nothing else
    op = clock.clock_operator(200.0, 0.7)
    assert np.max(np.abs(op - op.conj().T)) < 1e-13
    assert abs(np.trace(op)) < 1e-12
    n = np.arange(op.shape[0] - 1)
    far = op.copy()
    far[n, n + 1] = far[n + 1, n] = 0.0
    assert not np.any(far)
    assert np.min(np.abs(op[n, n + 1])) > 0.1


@pytest.mark.parametrize("j", [5.0, 50.0])
def test_clock_operator_covariant_under_number_phase(j):
    # q1'(xi; tau + delta) = q1'(e^{i delta} xi; tau) and |e^{-i delta} xi> =
    # e^{-i delta N} |xi> with N = diag(n), so C(tau + delta) =
    # e^{-i delta N} C(tau) e^{i delta N}
    tau, delta = 0.4, 1.3
    n = np.arange(int(round(2 * j)) + 1)
    rot = np.exp(-1j * delta * n)
    want = rot[:, None] * clock.clock_operator(j, tau) * rot.conj()[None, :]
    got = clock.clock_operator(j, tau + delta)
    assert np.max(np.abs(got - want)) < 1e-12


def test_clock_operator_upper_symbol_sinusoidal():
    j = 3.0
    xi = 0.9 - 0.4j
    taus = np.linspace(0, 4 * math.pi, 60)
    vals = np.array([symbols.upper_symbol(clock.clock_operator(j, t), xi).real
                     for t in taus])
    # project onto one harmonic and check the residual
    c = np.cos(taus)
    s = np.sin(taus)
    a = float(vals @ c) / float(c @ c)
    b = float(vals @ s) / float(s @ s)
    assert np.max(np.abs(vals - a * c - b * s)) < 1e-10


def overlap_inner_product_batch(xi_ref: complex, xis: np.ndarray, j: float
                                ) -> np.ndarray:
    """|<xi'|xi_ref>| via explicit amplitude vectors (oracle for the closed form)."""
    return np.abs(su2_coherent(xis, j).conj() @ su2_coherent(xi_ref, j))


def test_amplitude_correlation_peak_and_width():
    j = 10.0
    theta = math.pi / 4
    sweep = np.linspace(theta - 0.75, theta + 0.75, 201)
    trace = clock.amplitude_correlation(theta, j, sweep)
    i_pk = int(np.argmax(trace.overlap))
    assert trace.sweep[i_pk] == pytest.approx(theta)
    assert trace.overlap[i_pk] == pytest.approx(1.0)
    assert trace.sigma2_fit == pytest.approx(1 / (2 * j), rel=0.01)


@pytest.mark.parametrize("j", [1.0, 10.0, 50.0])
def test_amplitude_correlation_matches_inner_products(j):
    theta = 0.6
    sweep = np.linspace(theta - 0.5, theta + 0.5, 41)
    trace = clock.amplitude_correlation(theta, j, sweep)
    oracle = overlap_inner_product_batch(math.tan(theta), np.tan(sweep).astype(complex), j)
    assert np.max(np.abs(trace.overlap - oracle)) < 1e-12


def test_amplitude_correlation_chart_pole():
    with pytest.raises(ChartSingularityError):
        clock.amplitude_correlation(math.pi / 2, 5.0,
                                    np.linspace(0.0, 1.0, 51))


def test_phase_correlation_width_and_oracle():
    j = 20.0
    sweep = np.linspace(-2.0, 2.0, 401)
    trace = clock.phase_correlation(1.0, j, sweep)
    assert trace.sigma2_pred == pytest.approx(2.0 / j)
    assert trace.sigma2_fit == pytest.approx(trace.sigma2_pred, rel=0.01)
    xi = 1.0
    oracle = overlap_inner_product_batch(xi, xi * np.exp(1j * sweep), j)
    assert np.max(np.abs(trace.overlap - oracle)) < 1e-12


def test_phase_correlation_unequal_energies():
    for mag in (0.5, 2.0):
        j = 30.0
        t = mag**2
        e1 = 2 * j * t / (1 + t)
        e2 = 2 * j / (1 + t)
        trace = clock.phase_correlation(mag, j, np.linspace(-2.5, 2.5, 801))
        assert trace.sigma2_pred == pytest.approx(2 * j / (e1 * e2))
        assert trace.sigma2_fit == pytest.approx(trace.sigma2_pred, rel=0.02)


def test_phase_correlation_degenerate_label():
    with pytest.raises(ValueError):
        clock.phase_correlation(0.0, 5.0, np.linspace(-1, 1, 51))


def test_fit_gaussian_width_refuses_coarse_sweep():
    # 5 samples above e^-2 of the peak, where the quartic fit needs 7
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="sweep too coarse"):
        clock.fit_gaussian_width(x, np.exp(-x**2))


def test_fit_gaussian_width_refuses_valley():
    # log y = x^2 has a positive quadratic coefficient about any sample
    x = np.linspace(-1.0, 1.0, 41)
    with pytest.raises(ValueError, match="no concave peak"):
        clock.fit_gaussian_width(x, np.exp(x**2))


def test_width_scaling_approaches_prediction():
    ratios = []
    for j in (5.0, 10.0, 20.0, 50.0, 100.0):
        half = 4.0 / math.sqrt(2 * j)
        sweep = np.linspace(-half, half, 801) + 0.7
        trace = clock.amplitude_correlation(0.7, j, sweep)
        ratios.append(abs(trace.sigma2_fit * 2 * j - 1.0))
    assert ratios[-1] < ratios[0]
    assert ratios[-1] < 5e-3
