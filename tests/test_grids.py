import mpmath
import numpy as np
import pytest

from spinclock import clock, coherent, grids, symbols, verify


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
    for _ in range(2):  # the cache keeps no errors
        with pytest.raises(ValueError, match="at least 1 node"):
            grids._gauss_legendre(n)


def test_polar_rule_is_shared_read_only():
    u, w = grids._gauss_legendre(12)
    assert grids._gauss_legendre(12)[0] is u
    for a in (u, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert grids._gauss_legendre.cache_info().maxsize is not None


def test_sphere_grid_arrays_are_writable_and_repeat_their_bytes():
    first, second = grids.sphere_grid(7.5), grids.sphere_grid(7.5)
    for a, b in ((first.rho, second.rho), (first.ring_weights, second.ring_weights)):
        assert a.flags.writeable and a is not b
        assert a.tobytes() == b.tobytes()
    first.rho[:] = 0.0
    assert grids.sphere_grid(7.5).rho.tobytes() == second.rho.tobytes()


def test_default_grid_is_cached_read_only_with_the_public_bytes():
    # the operators read one cached default grid per 2j; sphere_grid(j) still builds new
    # writable arrays with the same bytes, also after the cached grid exists
    cached = grids._default_grid(15)
    assert grids._default_grid(15) is cached
    public = grids.sphere_grid(7.5)
    assert public.n_azimuthal == cached.n_azimuthal
    for a, b in ((cached.rho, public.rho), (cached.ring_weights, public.ring_weights)):
        assert a.tobytes() == b.tobytes() and a is not b
        assert b.flags.writeable and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    public.rho[:] = 0.0
    assert grids._default_grid(15).rho.tobytes() == grids.sphere_grid(7.5).rho.tobytes()
    misses = grids._default_grid.cache_info().misses
    coherent.resolution_of_unity(7.5)
    symbols.reconstruct_operator(np.abs, 7.5)
    assert grids._default_grid.cache_info().misses == misses


def test_default_grid_cache_stays_within_its_size():
    size = grids._default_grid.cache_info().maxsize
    assert size is not None
    for two_j in range(size + 3):
        coherent.resolution_of_unity(two_j / 2)
    assert grids._default_grid.cache_info().currsize == size


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_default_azimuth_count_is_the_largest_five_smooth_up_to_4j_plus_4():
    for two_j in range(2001):
        n_az, limit = grids._default_n_azimuthal(two_j), 2 * two_j + 4
        assert _five_smooth(n_az)
        assert two_j + 3 <= n_az <= limit
        assert not any(_five_smooth(n) for n in range(n_az + 1, limit + 1))
    assert [grids.sphere_grid(j).n_azimuthal for j in (5, 20, 50, 100, 200)] == \
        [24, 81, 200, 400, 800]


def test_explicit_azimuth_count_overrides_the_default():
    grid = grids.sphere_grid(100, n_azimuthal=404)
    assert grid.n_azimuthal == 404
    assert np.sum(grid.weights) == pytest.approx(np.pi, rel=1e-14)


@pytest.mark.parametrize("build", [lambda: grids.sphere_grid(2.3),
                                   lambda: grids.sphere_grid(-0.5),
                                   lambda: verify.run_checks(2.3)])
def test_spin_whose_2j_is_not_a_nonnegative_integer_is_rejected(build):
    # rounding 2j would give the 2j = 5 grid for 2.3 and a 1-ring grid for -0.5
    with pytest.raises(ValueError, match="2j must be a nonnegative integer"):
        build()


@pytest.mark.parametrize("n_azimuthal", [0, -3])
def test_sphere_grid_needs_an_azimuth(n_azimuthal):
    # 0 azimuths would divide by zero, -3 a grid of negative length
    with pytest.raises(ValueError, match=f"at least 1 azimuth, got n_azimuthal={n_azimuthal}$"):
        grids.sphere_grid(2, n_azimuthal=n_azimuthal)


@pytest.mark.parametrize("name", ["n_polar", "n_azimuthal"])
@pytest.mark.parametrize("value", [4.5, 4.0])
def test_sphere_grid_needs_integer_counts(name, value):
    # 4.5 azimuths gave weights summing to 2.79 and 4.5 rings an IndexError
    # from inside the Gauss-Legendre rule
    with pytest.raises(ValueError, match=f"an integer {name}, got {name}={value}$"):
        grids.sphere_grid(1, **{name: value})


def test_sphere_grid_takes_numpy_integer_counts():
    grid = grids.sphere_grid(1, n_polar=np.int64(4), n_azimuthal=np.int32(5))
    want = grids.sphere_grid(1, n_polar=4, n_azimuthal=5)
    assert len(grid) == 20 and type(grid.n_azimuthal) is int
    assert grid.rho.tobytes() == want.rho.tobytes()
    assert grid.ring_weights.tobytes() == want.ring_weights.tobytes()
    assert coherent.resolution_of_unity(1, grid).tobytes() == \
        coherent.resolution_of_unity(1, want).tobytes()


@pytest.mark.parametrize("build", [
    grids.radial_grid,
    lambda m: coherent.radial_weight(1.0, m),
    lambda m: symbols.project_lower_symbol(lambda xi, r, th: r, m),
    lambda m: clock.deparameterize(lambda xi, r, th: r, m, 0.0),
    lambda m: clock.clock_symbol_q1(0.5, m, 0.0)])
@pytest.mark.parametrize("m", [-1, -3, -5])
def test_negative_quanta_are_rejected(build, m):
    # the Laguerre rule puts every node at r = 0 for m = -2, and for m <= -3 its
    # recurrence has NaN off-diagonals and a negative mean of r
    with pytest.raises(ValueError, match=f"the quanta m must be nonnegative, got m={m}$"):
        build(m)


def test_second_reconstruct_operator_builds_no_rule():
    symbols.reconstruct_operator(np.abs, 6.0)
    misses = grids._gauss_legendre.cache_info().misses
    symbols.reconstruct_operator(np.abs, 6.0)
    assert grids._gauss_legendre.cache_info().misses == misses


def _laguerre_rule(m, x0):
    """30-digit generalized Gauss-Laguerre rule for r^{m+1} e^{-r}, weights normalized.

    Each node is a root of L_n^(m+1), found by Newton from x0 with L_n and L_{n-1}
    from the three-term recurrence; the weights are the Christoffel numbers
    Gamma(n+a) x_i / (n! (n+a) L_{n-1}(x_i)^2) divided by Gamma(a+1), a = m+1.
    """
    n = len(x0)
    with mpmath.workdps(30):
        a = mpmath.mpf(m + 1)

        def lag(x):  # (L_n(x), L_{n-1}(x))
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(n):
                prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
            return cur, prev

        nodes = []
        for x in map(mpmath.mpf, x0):
            for _ in range(50):
                ln, lm = lag(x)
                step = x * ln / (n * ln - (n + a) * lm)  # x L_n' = n L_n - (n+a) L_{n-1}
                x -= step
                if abs(step) <= mpmath.mpf(10) ** -28 * x:
                    break
            nodes.append(x)
        scale = mpmath.exp(mpmath.loggamma(n + a) - mpmath.loggamma(n + 1) - mpmath.loggamma(a + 1))
        weights = [scale * x / ((n + a) * lag(x)[1] ** 2) for x in nodes]
        exact = mpmath.exp(mpmath.loggamma(m + mpmath.mpf(5) / 2) - mpmath.loggamma(m + 2))
        return nodes, weights, mpmath.fsum(weights), mpmath.fsum(
            w * mpmath.sqrt(x) for x, w in zip(nodes, weights)), exact


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_radial_rule_matches_mpmath(m):
    eps = np.finfo(float).eps
    rule = grids.radial_grid(m)
    nodes, weights, total, mean_sqrt, exact = _laguerre_rule(m, rule.nodes)
    # Newton found every root of L_32 once, and the weights are normalized
    assert len({mpmath.nstr(x, 20) for x in nodes}) == len(rule.nodes)
    assert abs(total - 1) < 1e-25
    assert max(abs(float(x - u)) for x, u in zip(nodes, rule.nodes)) <= 8 * eps * rule.nodes[-1]
    assert max(abs(float(w - v)) for w, v in zip(weights, rule.weights)) <= 32 * eps
    # mean of sqrt(r): the 32-node rule itself misses Gamma(m+5/2)/Gamma(m+2) by
    # 1.0e-13 relative at m = 10 and by less than 1e-30 from m = 100 on
    assert abs(float((mean_sqrt - exact) / exact)) <= 1.5e-13
    got = np.dot(rule.weights, np.sqrt(rule.nodes))
    assert abs(float((got - mean_sqrt) / mean_sqrt)) <= 32 * eps
