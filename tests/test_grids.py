import mpmath
import numpy as np
import pytest

from spinclock import grids


def _legendre_node(n, u0):
    """A root of P_n and its Gauss weight 2 / ((1-x^2) P_n'(x)^2), by mpmath Newton from u0."""
    with mpmath.workdps(32):
        x = mpmath.mpf(float(u0))

        def dp(x):
            return n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)

        for _ in range(3):
            x -= mpmath.legendre(n, x) / dp(x)
        return x, 2 / ((1 - x * x) * dp(x) ** 2)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 102, 202, 2002])
def test_polar_rule_matches_mpmath(n):
    u, w = grids._gauss_legendre(n)
    # u >= 0 only: the rule is symmetric (tested below) and mpmath.legendre is slow for x < 0
    for i in sorted({n // 2, 5 * n // 8, 3 * n // 4, max(n - 2, 0), n - 1}):
        x, wx = _legendre_node(n, u[i])
        assert abs(float(x - u[i])) <= 4e-16
        assert abs(float((w[i] - wx) / wx)) <= 1e-13


@pytest.mark.parametrize("n", range(1, 41))
def test_polar_rule_integrates_even_powers_exactly(n):
    u, w = grids._gauss_legendre(n)
    k = np.arange(n)  # 2k <= 2n - 1
    moments = np.sum(w[:, None] * u[:, None] ** (2 * k), axis=0)
    np.testing.assert_allclose(moments, 2.0 / (2 * k + 1), rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 101, 102, 2001])
def test_polar_rule_ascending_and_symmetric(n):
    u, w = grids._gauss_legendre(n)
    assert u.shape == w.shape == (n,)
    assert np.all(np.diff(u) > 0)
    assert np.all(w > 0)
    assert np.array_equal(u, -u[::-1])
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert u[n // 2] == 0


@pytest.mark.parametrize("n", [0, -3])
def test_polar_rule_needs_a_node(n):
    with pytest.raises(ValueError, match="at least 1 node"):
        grids._gauss_legendre(n)
