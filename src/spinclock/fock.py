"""Truncated two-mode Fock space and the physical number sector.

The physical subspace at total quanta m' is spanned by |n, m'-n> for
n = 0..m' (dimension m'+1 = 2j+1), ordered by ascending n.  Spin
operators are the Schwinger bilinears restricted to that block:

    S1 = (a'b + ab')/2,  S2 = (a'b - ab')/2i,  S3 = (a'a - b'b)/2.
"""

import math

import numpy as np

from .errors import NullPhysicalSubspaceError
from .grids import _check_scales


def constraint_eigencheck(E: float, omega: float = 1.0, hbar: float = 1.0) -> int:
    """Select the number sector m' from the energy, E' = E/(omega hbar) - 1.

    Raises NullPhysicalSubspaceError (carrying the residual) when E' is
    not within 1e-9 of an integer, in which case the projection of any
    state is null.  ValueError, naming the argument, for E <= 0 and for an
    E, omega or hbar that is not finite and > 0, or an E' that overflows.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    _check_scales(E=E, omega=omega, hbar=hbar)
    # omega hbar may underflow to 0, and E / (omega hbar) overflow to inf
    e_prime = E / (omega * hbar) - 1.0 if omega * hbar else math.inf
    if e_prime == math.inf:
        raise ValueError(f"E' = E/(omega hbar) - 1 is not finite at E={E!r}, omega={omega!r}, "
                         f"hbar={hbar!r}")
    m_prime = round(e_prime)
    residual = abs(e_prime - m_prime)
    if residual >= 1e-9 or m_prime < 0:
        raise NullPhysicalSubspaceError(residual)
    return m_prime


def raising_in_sector(m_prime: int) -> np.ndarray:
    """Matrix of a'b on the m' sector (maps the sector to itself).

    a'b |n, m'-n> = sqrt((n+1)(m'-n)) |n+1, m'-n-1>.
    """
    mat = np.zeros((m_prime + 1, m_prime + 1), dtype=np.complex128)
    n = np.arange(m_prime)
    mat[n + 1, n] = np.sqrt((n + 1.0) * (m_prime - n))
    return mat


def spin_operators(m_prime: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schwinger spin matrices (S1, S2, S3) on the m' sector."""
    ab = raising_in_sector(m_prime)  # a'b
    ba = ab.conj().T  # ab'
    s1 = 0.5 * (ab + ba)
    s2 = (ab - ba) / 2j
    n = np.arange(m_prime + 1)
    s3 = np.diag(n - m_prime / 2.0).astype(np.complex128)
    return s1, s2, s3


def casimir(m_prime: int) -> np.ndarray:
    """S1^2 + S2^2 + S3^2; equals j(j+1) I with j = m'/2.

    S3 is diagonal, so its square is the square of its diagonal.
    """
    s1, s2, s3 = spin_operators(m_prime)
    d3 = np.diag(s3)
    return s1 @ s1 + s2 @ s2 + np.diag(d3 * d3)
