"""Hot numeric kernels, vectorized with numpy.

The two inner loops that dominate runtime are (1) evaluating batches of
spin coherent-state amplitude vectors on a quadrature grid and (2)
accumulating the weighted rank-one sum  sum_k c_k |v_k><v_k|.

Amplitudes are computed in the log domain so that large spins and large
|xi| neither overflow nor lose the normalization.
"""

import math

import numpy as np


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


def accumulate_projectors(vecs: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_k coeff[k] |vecs[k]><vecs[k]| as a dense (dim, dim) matrix.

    Computed as one matrix product (vecs^T * coeff) @ conj(vecs).
    """
    vecs = np.asarray(vecs, dtype=np.complex128)
    coeff = np.asarray(coeff, dtype=np.complex128)
    return (vecs.T * coeff) @ vecs.conj()
