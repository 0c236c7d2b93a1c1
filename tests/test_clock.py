import math

import numpy as np
import pytest

from spinclock import clock, symbols
from spinclock.errors import ChartSingularityError

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
    # quadrature vs closed form differ by one global constant (the
    # sqrt(2) position-normalization bookkeeping), independent of xi, tau
    m = 15
    ratios = []
    for tau in (0.0, 0.9, 2.7):
        at_slice = clock.deparameterize(symbols.q1_position_symbol, m, tau,
                                        phi_prime=0.4)
        for xi in (0.8 + 0j, 0.3 - 1.1j, 2.0 + 0.5j):
            closed = clock.clock_symbol_q1(xi, m, tau, phi_prime=0.4)
            if abs(closed) > 1e-10:
                ratios.append(at_slice(xi) / closed)
    assert max(ratios) - min(ratios) < 1e-12
    assert np.mean(ratios) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_clock_symbol_zero_label():
    taus = np.linspace(0, 10, 50)
    assert np.all(clock.clock_symbol_q1(0.0, 20, taus) == 0)


def test_clock_symbol_small_m_value():
    # m = 0, xi = 1, phase 0: Gamma(5/2)/1! * 2/sqrt(2)
    expected = math.exp(math.lgamma(2.5)) * 2 / math.sqrt(2)
    assert expected == pytest.approx(1.8800, abs=1e-4)
    assert clock.clock_symbol_q1(1.0, 0, 0.0) == pytest.approx(expected,
                                                               rel=1e-13)


def test_clock_symbol_large_m_no_overflow():
    val = clock.clock_symbol_q1(1.0, 5000, 0.0)
    assert np.isfinite(val)
    assert val > 0


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


def test_classical_limit_phase_and_amplitude():
    xi = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    taus = np.linspace(0, 4 * math.pi, 100)
    report = clock.classical_limit_check(xi, [10, 100, 400], taus)
    assert max(report["phase_residual"]) < 1e-12
    devs = [abs(r - report["limit_ratio"]) for r in report["amplitude_ratio"]]
    assert devs[0] > devs[1] > devs[2]
    # m = 100 -> 400 shrinks the deviation by about 4x
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.2)


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
    oracle = clock.overlap_inner_product_batch(math.tan(theta),
                                               np.tan(sweep).astype(complex), j)
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
    oracle = clock.overlap_inner_product_batch(
        xi, xi * np.exp(1j * sweep), j)
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


def test_width_scaling_approaches_prediction():
    ratios = []
    for j in (5.0, 10.0, 20.0, 50.0, 100.0):
        half = 4.0 / math.sqrt(2 * j)
        sweep = np.linspace(-half, half, 801) + 0.7
        trace = clock.amplitude_correlation(0.7, j, sweep)
        ratios.append(abs(trace.sigma2_fit * 2 * j - 1.0))
    assert ratios[-1] < ratios[0]
    assert ratios[-1] < 5e-3
