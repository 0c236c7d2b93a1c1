import numpy as np
import pytest

from spinclock import fock
from spinclock.errors import NullPhysicalSubspaceError


def _full_ladders(n_max):
    """Single-mode truncated ladder matrices, oracle for the sector forms."""
    a = np.diag(np.sqrt(np.arange(1, n_max)), k=1)
    return a, a.conj().T


def _sector_indices(m_prime, n_max):
    """Flat indices of |n1, n2> with n1 + n2 = m_prime in the kron basis."""
    return [n1 * n_max + (m_prime - n1) for n1 in range(m_prime + 1)]


def test_constraint_eigencheck_integer():
    assert fock.constraint_eigencheck(3.0) == 2
    assert fock.constraint_eigencheck(21.0) == 20


def test_constraint_eigencheck_rejects_half_integer():
    with pytest.raises(NullPhysicalSubspaceError) as exc:
        fock.constraint_eigencheck(3.5)
    assert exc.value.residual == pytest.approx(0.5)


def test_constraint_eigencheck_units():
    # E = 6, omega = 2, hbar = 1 -> E' = 2
    assert fock.constraint_eigencheck(6.0, omega=2.0) == 2


def test_spin_half_s3():
    _, _, s3 = fock.spin_operators(1)
    assert np.allclose(s3, np.diag([-0.5, 0.5]))


def test_spin_zero_sector():
    for s in fock.spin_operators(0):
        assert s.shape == (1, 1)
        assert s[0, 0] == 0


def test_spin_one_spectrum():
    for s in fock.spin_operators(2):
        assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-1.0, 0.0, 1.0],
                           atol=1e-12)


@pytest.mark.parametrize("m_prime,expected", [(1, 0.75), (2, 2.0), (20, 110.0)])
def test_casimir(m_prime, expected):
    cas = fock.casimir(m_prime)
    assert np.max(np.abs(cas - expected * np.eye(m_prime + 1))) < 1e-12


@pytest.mark.parametrize("m_prime", [1, 2, 20, 200])
def test_su2_algebra(m_prime):
    s1, s2, s3 = fock.spin_operators(m_prime)
    for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        # relative to the product scale (entries ~ j^2/4, whose ulp at
        # m' = 200 already exceeds an absolute 1e-12)
        scale = max(1.0, float(np.max(np.abs(a @ b))))
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12 * scale


@pytest.mark.parametrize("m_prime", [1, 3, 7])
def test_sector_operators_match_full_kron_construction(m_prime):
    n_max = m_prime + 2
    a, ad = _full_ladders(n_max)
    eye = np.eye(n_max)
    ab = np.kron(ad, eye) @ np.kron(eye, a)  # a' b on the two-mode space
    idx = _sector_indices(m_prime, n_max)
    block = ab[np.ix_(idx, idx)]
    assert np.max(np.abs(block - fock.raising_in_sector(m_prime))) < 1e-13
    num = np.kron(ad @ a, eye) + np.kron(eye, ad @ a)
    assert np.allclose(np.diag(num)[idx], m_prime)


def test_spin_operators_hermitian():
    for s in fock.spin_operators(11):
        assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_ladder_raising_leaves_sector():
    m_prime = 4
    state = np.zeros(m_prime + 1, dtype=complex)
    n = 2
    state[n] = 1.0
    out, sector = fock.apply_full_ladder(state, m_prime, "a+")
    assert sector == m_prime + 1
    expected = np.zeros(m_prime + 2, dtype=complex)
    expected[n + 1] = np.sqrt(n + 1.0)
    assert np.allclose(out, expected)


def test_ladder_vacuum_annihilation():
    m_prime = 3
    state = np.zeros(m_prime + 1, dtype=complex)
    state[0] = 1.0  # |0, m'>
    out, sector = fock.apply_full_ladder(state, m_prime, "a")
    assert sector == m_prime - 1
    assert np.all(out == 0)


def test_ladder_lowering_other_mode():
    m_prime = 5
    state = np.zeros(m_prime + 1, dtype=complex)
    n = 2
    state[n] = 1.0
    out, sector = fock.apply_full_ladder(state, m_prime, "b")
    assert sector == m_prime - 1
    expected = np.zeros(m_prime, dtype=complex)
    expected[n] = np.sqrt(m_prime - n)
    assert np.allclose(out, expected)
