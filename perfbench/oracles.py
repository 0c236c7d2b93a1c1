"""Checks of spinclock outputs against computations made apart from the program.

Every expected value here is computed from a closed form with numpy, or by
an mpmath quadrature, never by calling spinclock.  Each check raises
CheckFailed with a message naming what disagreed; it returns None on
success.  No check compares against a stored copy of an earlier output, and
none encodes the amplitude constant of the clock symbol: the clock checks
look only at structure (one sinusoid with the classical phase; Hermitian,
traceless, tridiagonal operators).
"""

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its independent oracle."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got, expected, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got)
    expected = np.asarray(expected)
    _require(got.shape == expected.shape,
             f"{name}: shape {got.shape} != expected {expected.shape}")
    err = np.abs(got - expected)
    tol = rtol * np.abs(expected) + atol
    bad = ~(err <= tol)
    _require(not bad.any(),
             f"{name}: {int(bad.sum())} of {err.size} values off, "
             f"worst |error| {float(np.max(err)):.3e}")


# ----------------------------------------------------------------- CLI tables

def read_csv(text: str) -> dict:
    """Columns of a spinclock CSV table (the '# config' line is skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _require(len(lines) >= 2, "CSV output has no data rows")
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    _require(all(len(r) == len(names) for r in rows), "CSV rows have ragged widths")
    return {name: [r[i] for r in rows] for i, name in enumerate(names)}


def floats(column) -> np.ndarray:
    return np.array([float(v) for v in column])


def sweep_grid(name: str, values, lo: float, hi: float, count: int) -> None:
    """The sweep column is the uniform grid MIN..MAX with COUNT points."""
    _close(name, values, np.linspace(lo, hi, count), rtol=0.0, atol=1e-12)


def figure1_column(theta_prime, overlap_abs, j: float, theta_ref: float) -> None:
    """Amplitude correlation |<xi'|xi>| = |cos(theta' - theta_ref)|^{2j}."""
    expected = np.abs(np.cos(np.asarray(theta_prime) - theta_ref)) ** (2 * j)
    _close("figure 1 overlap_abs", overlap_abs, expected, rtol=1e-11, atol=1e-300)


def figure2_column(delta_phi, overlap_abs, j: float, xi_mag: float) -> None:
    """Phase correlation (|1 + t e^{i dphi}| / (1 + t))^{2j}, t = |xi|^2."""
    t = xi_mag ** 2
    expected = (np.abs(1.0 + t * np.exp(1j * np.asarray(delta_phi))) / (1.0 + t)) ** (2 * j)
    _close("figure 2 overlap_abs", overlap_abs, expected, rtol=1e-11, atol=1e-300)


def amplitude_width(j: float) -> float:
    """Predicted amplitude-correlation variance 1/(2j)."""
    return 1.0 / (2.0 * j)


def phase_width(j: float, xi_mag: float) -> float:
    """Predicted phase-correlation variance 2j/(E1 E2) with energies in quanta."""
    t = xi_mag ** 2
    e1 = 2.0 * j * t / (1.0 + t)
    e2 = 2.0 * j / (1.0 + t)
    return 2.0 * j / (e1 * e2)


def width_fit(name: str, sigma2_fit, predicted: float, rel: float = 0.05) -> None:
    """Every sigma2_fit entry lies within rel of the prediction."""
    fit = np.asarray(sigma2_fit, dtype=float)
    err = np.abs(fit / predicted - 1.0)
    _require(np.all(err <= rel),
             f"{name}: sigma2_fit {fit[np.argmax(err)]:.6g} is "
             f"{float(np.max(err)):.2%} from {predicted:.6g}")


def overlap_columns(xi: complex, xi_prime, ov_re, ov_im, ov_abs, j: float) -> None:
    """(1 + conj(xi) xi')^{2j} / ((1+|xi|^2)(1+|xi'|^2))^j, real and imaginary parts."""
    xp = np.asarray(xi_prime, dtype=complex)
    expected = (1.0 + np.conj(xi) * xp) ** (2 * j) \
        / ((1.0 + abs(xi) ** 2) * (1.0 + np.abs(xp) ** 2)) ** j
    got = np.asarray(ov_re) + 1j * np.asarray(ov_im)
    scale = np.abs(expected)
    err = np.abs(got - expected)
    _require(np.all(err <= 1e-12 * scale + 1e-300),
             f"overlap: worst |error| {float(np.max(err)):.3e}")
    _close("overlap_abs", ov_abs, scale, rtol=1e-12, atol=1e-300)


def radcliffe_symbols(xi, j: float) -> tuple:
    """Spin upper symbols 2j Re xi/(1+|xi|^2), -2j Im xi/(1+|xi|^2), -j(1-|xi|^2)/(1+|xi|^2)."""
    xi = np.asarray(xi, dtype=complex)
    t = np.abs(xi) ** 2
    return (2 * j * xi.real / (1 + t), -2 * j * xi.imag / (1 + t), -j * (1 - t) / (1 + t))


def spin_symbols(name: str, xi, s1, s2, s3, j: float) -> None:
    for k, (got, expected) in enumerate(zip((s1, s2, s3), radcliffe_symbols(xi, j)), 1):
        _close(f"{name} s{k}", got, expected, rtol=0.0, atol=1e-11 * (1 + j))


def one_sinusoid(tau, values, phase: float, omega: float = 1.0) -> None:
    """values = A cos(omega tau + phase) with A > 0; A itself is not checked."""
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    model = np.cos(omega * tau + phase)
    amp = float(values @ model) / float(model @ model)
    _require(amp > 0.0, f"clock trace: amplitude {amp:.3e} is not positive")
    resid = float(np.max(np.abs(values - amp * model)))
    _require(resid <= 1e-10 * amp,
             f"clock trace: residual {resid:.3e} from one sinusoid of amplitude {amp:.3e}")


def verify_report(stderr_text: str, passed_column) -> None:
    """Every 'spinclock verify' line reads PASS, and the table agrees."""
    lines = [ln for ln in stderr_text.splitlines() if ln.strip()]
    _require(lines, "verify printed no check lines")
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    _require(not bad, f"verify: {len(bad)} lines do not read PASS, first: {bad[:1]}")
    _require(len(passed_column) == len(lines) and all(v == "1" for v in passed_column),
             "verify: the table's passed column disagrees with the PASS lines")


# ------------------------------------------------------------ operators

def _scale(mat) -> float:
    return max(1.0, float(np.max(np.abs(mat))))


def operator_equals(name: str, mat, expected, tol: float) -> None:
    mat = np.asarray(mat)
    _require(mat.shape == np.shape(expected),
             f"{name}: shape {mat.shape} != {np.shape(expected)}")
    err = float(np.max(np.abs(mat - expected)))
    _require(err <= tol, f"{name}: max |M - expected| = {err:.3e} > {tol:.1e}")


def resolution_of_unity(mat) -> None:
    operator_equals("resolution of unity", mat, np.eye(np.shape(mat)[0]), 1e-10)


def ratio_operator(c0: float, c1: float, j: float):
    """Operator of c0 + c1 |xi|^2/(1+|xi|^2): c0 I + c1 diag((n+1)/(2j+2))."""
    n = np.arange(int(round(2 * j)) + 1)
    return np.diag(c0 + c1 * (n + 1.0) / (2 * j + 2))


def antinormal(kind: str, j: float):
    """Anti-normally ordered operators on the sector m' = 2j (hbar = omega = 1).

    |alpha|^2 and q1^2 -> a a' = diag(n+1); |beta|^2 and q2^2 -> b b' =
    diag(2j-n+1); r -> (2j+2) I; the gauge-odd q2 -> 0.
    """
    two_j = int(round(2 * j))
    n = np.arange(two_j + 1, dtype=float)
    diag = {"alpha2": n + 1, "q1sq": n + 1, "beta2": two_j - n + 1,
            "q2sq": two_j - n + 1, "r": np.full_like(n, two_j + 2.0),
            "q2": np.zeros_like(n)}[kind]
    return np.diag(diag)


def clock_structure(name: str, mat) -> None:
    """Hermitian, traceless, nonzero, and zero beyond the first off-diagonals."""
    mat = np.asarray(mat)
    tol = 1e-10 * _scale(mat)
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    _require(herm <= tol, f"{name}: not Hermitian, max |C - C^H| = {herm:.3e}")
    trace = abs(complex(np.trace(mat)))
    _require(trace <= tol, f"{name}: trace {trace:.3e} is not zero")
    a, b = np.indices(mat.shape)
    band = np.abs(mat[np.abs(a - b) >= 2])
    worst = float(band.max()) if band.size else 0.0
    _require(worst <= tol, f"{name}: entry {worst:.3e} beyond the first off-diagonals")
    first = np.abs(np.diag(mat, 1))
    _require(first.size and float(first.max()) > tol, f"{name}: the operator is zero")


# ------------------------------------------------------------ radial quadrature

def radial_mean(fn, m: int) -> float:
    """mpmath quadrature of fn(r) against r^{m+1} e^{-r} / (m+1)! on [0, inf)."""
    import mpmath

    log_norm = mpmath.loggamma(m + 2)
    weight = lambda r: mpmath.exp((m + 1) * mpmath.log(r) - r - log_norm)
    return float(mpmath.quad(lambda r: fn(float(r)) * weight(r), [0, m + 1, mpmath.inf]))


def slice_value(value: float, reference: float) -> None:
    """The 32-node radial rule integrates sqrt(r) against the weight to about
    1e-7 relative at m = 2 and 2e-9 at m = 4; 1e-6 absolute plus relative
    covers that and rejects any other rule or slice angle."""
    err = abs(value - reference)
    _require(err <= 1e-6 * (1.0 + abs(reference)),
             f"clock slice: {value:.12g} vs quadrature {reference:.12g}")
