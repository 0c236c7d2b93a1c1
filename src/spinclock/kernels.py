"""Hot numeric kernels, vectorized with numpy.

The two inner loops that dominate runtime are (1) evaluating batches of
spin coherent-state amplitude vectors and (2) summing the weighted
rank-one projectors  sum_k c_k |xi_k><xi_k|  over a sphere grid.

Amplitudes are computed in the log domain so that large spins and large
|xi| neither overflow nor lose the normalization.

The projector sum uses the ring layout of the sphere grid (see grids).
On a ring of radius rho the amplitudes factor as
a_n(rho) e^{i n phi} with real a_n, so entry (n, n') of the sum is

    sum_rings a_n a_n' sum_phi c(rho, phi) e^{i (n - n') phi},

and the inner sum is column (n' - n) mod n_azimuthal of the azimuthal
FFT of c on that ring.  One FFT per ring and one weighted sum over the
rings per diagonal n - n' replace the dense sum over all nodes: the cost
falls from O(npts dim^2) to O(n_polar (n_az log n_az + dim^2)), and the
temporaries are n_polar x n_az (the FFT) and n_polar x dim (the ring
amplitudes), never npts x dim.
"""

import math

import numpy as np

from .grids import SphereGrid


def _log_binomial_halves(two_j: int) -> np.ndarray:
    """0.5 * log C(2j, n) for n = 0..2j."""
    lg = math.lgamma(two_j + 1)
    n = np.arange(two_j + 1)
    return 0.5 * (
        lg
        - np.array([math.lgamma(k + 1) for k in n])
        - np.array([math.lgamma(two_j - k + 1) for k in n])
    )


def coherent_amplitudes(xi, two_j: int) -> np.ndarray:
    """Amplitude vectors of spin coherent states for a batch of labels.

    Returns an (npts, 2j+1) complex array; row k holds the coefficients
    c_n = (1+|xi_k|^2)^{-j} sqrt(C(2j,n)) xi_k^n on the number basis.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.complex128))
    out = np.zeros((xi.shape[0], two_j + 1), dtype=np.complex128)
    ax = np.abs(xi)
    nz = ax > 0.0
    out[~nz, 0] = 1.0
    n = np.arange(two_j + 1)
    la = np.log(ax[nz])
    ph = np.angle(xi[nz])
    base = -0.5 * two_j * np.log1p(ax[nz] ** 2)
    logmag = _log_binomial_halves(two_j)[None, :] + np.outer(la, n) + base[:, None]
    out[nz, :] = np.exp(logmag + 1j * np.outer(ph, n))
    return out


def ring_projector_sum(grid: SphereGrid, coeff, two_j: int) -> np.ndarray:
    """sum_k coeff[k] |xi_k><xi_k| over the nodes of grid, a dense (2j+1, 2j+1) matrix.

    coeff holds one value per grid node, in the grid's order.  The
    reductions over rings run in einsum, not in BLAS, so the bytes of the
    result do not depend on the BLAS thread count.
    """
    dim = two_j + 1
    n_az = grid.n_azimuthal
    # fourier[p, q] = sum_a coeff[p, a] e^{-2 pi i q a / n_az} on ring p; its
    # real and imaginary parts go through separate real einsums, which run
    # about twice as fast as one complex einsum
    fourier = np.fft.fft(np.asarray(coeff, dtype=np.complex128).reshape(-1, n_az), axis=1)
    f_re, f_im = fourier.real.T.copy(), fourier.imag.T.copy()
    # each ring starts at azimuth 0, where the amplitudes are real
    amps = coherent_amplitudes(np.abs(grid.xi[::n_az]), two_j).real
    out = np.empty((dim, dim), dtype=np.complex128)
    for d in range(dim):
        n = np.arange(d, dim)
        prod = amps[:, d:] * amps[:, :dim - d]  # a_n a_{n-d} on every ring
        # entries (n, n-d) carry e^{i d phi}, entries (n-d, n) e^{-i d phi}
        for rows, cols, q in ((n, n - d, -d % n_az), (n - d, n, d % n_az)):
            out.real[rows, cols] = np.einsum("r,rn->n", f_re[q], prod)
            out.imag[rows, cols] = np.einsum("r,rn->n", f_im[q], prod)
    return out
