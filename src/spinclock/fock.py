"""Truncated two-mode Fock space and the physical number sector.

The physical subspace at total quanta m' is spanned by |n, m'-n> for
n = 0..m' (dimension m'+1 = 2j+1), ordered by ascending n.  Spin
operators are the Schwinger bilinears restricted to that block:

    S1 = (a'b + ab')/2,  S2 = (a'b - ab')/2i,  S3 = (a'a - b'b)/2.
"""

import numpy as np

from .errors import NullPhysicalSubspaceError


def constraint_eigencheck(E: float, omega: float = 1.0, hbar: float = 1.0) -> int:
    """Select the number sector m' from the energy, E' = E/(omega hbar) - 1.

    Raises NullPhysicalSubspaceError (carrying the residual) when E' is
    not within 1e-9 of an integer, in which case the projection of any
    state is null.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    e_prime = E / (omega * hbar) - 1.0
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
    """S1^2 + S2^2 + S3^2; equals j(j+1) I with j = m'/2."""
    s1, s2, s3 = spin_operators(m_prime)
    return s1 @ s1 + s2 @ s2 + s3 @ s3
