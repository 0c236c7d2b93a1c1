"""Quadrature grids: sphere grid for the reduced phase space, radial grid
for the constraint direction.

The sphere measure is d(Re xi) d(Im xi) / (1+|xi|^2)^2, total mass pi.  In
the angles xi = tan(Theta/2) e^{i phi} it becomes (1/4) sin(Theta) dTheta
dphi, so Gauss-Legendre nodes in u = cos(Theta) together with a uniform
azimuth grid integrate every polynomial integrand exactly; with a factor
such as sin(Theta/2), no polynomial in u, they converge only algebraically.

The Gauss-Legendre rule comes from Newton's method in Theta on the cosine
series

    P_n(cos Theta) = sum_k g_k g_{n-k} cos((n-2k) Theta),  g_k = C(2k,k)/4^k,

whose coefficients are positive and sum to P_n(1) = 1, so an evaluation
never cancels; working in Theta keeps the nodes near u = +-1 apart.
Newton starts from Tricomi's estimates of the roots with Theta <= pi/2,
the other roots are their mirror images, and the weights are
2 / (dP_n/dTheta)^2 at the converged roots.  Each step evaluates P_n and
dP_n/dTheta at all those roots as contractions of one (n/2 x n/2) matrix
of cosines and one of sines, so the rule costs O(n^2) time and O(n^2/4)
memory, against O(n^3) for the companion-matrix eigenvalues of
numpy.polynomial.legendre.leggauss; it takes three Newton steps for
every n from 3 to 2000.  The contractions run in einsum, so the rule's
bytes do not depend on the BLAS thread count.  Each argument (n-2k) Theta
is formed exactly from a short head of Theta, and the tail enters as a
first-order term: rounded products would cost the weights two digits at
n = 2002, where they now agree with a 32-digit reference to 1e-14.

Each rule is computed once per node count per process: a bounded LRU
cache keeps the last few dozen (32 KB at n = 2002) as read-only arrays,
from which sphere_grid derives its own writable radii and weights.  A
node count below 1 raises on every call; the cache keeps no errors.  The
operators built on the default grid read one more cache, of the last
few default grids themselves with read-only arrays (_default_grid),
which they never hand to their caller.

The default azimuth count N is the largest 2^a 3^b 5^c <= 4j+4, a size
whose FFT runs in mixed radix: 4j+4 itself has the prime factor 101 at
j = 100, where np.fft.rfft over the 202 rings takes 1.6 ms against
0.28 ms at 400 azimuths (one Xeon core).  A power of two always lies in
(2j+2, 4j+4], so N >= 2j+3; the azimuthal rule is exact for a symbol of
azimuthal degree up to N - 2j - 1 (see sphere_grid).

Layout: the grid is a tensor product of n_polar Gauss-Legendre rings and
n_azimuthal uniform azimuths, and it stores only what varies between
rings: each ring's radius rho_p = tan(Theta_p/2) and the weight of each of
its nodes.  The flat node views number node k = p * n_azimuthal + a, on
ring p at azimuth 2 pi a / n_azimuthal, so consecutive blocks of
n_azimuthal nodes are the rings, each starting at azimuth 0.
kernels.ring_projector_sum works on the rings directly; only a caller that
evaluates a black-box symbol builds the node labels grid.xi, from n_polar
radii and n_azimuthal phase factors.

The radial weight is r^{m+1} e^{-r} / (m+1)!.  Nodes and *normalized*
weights come from the Golub-Welsch eigenproblem of the generalized
Laguerre recurrence; normalizing at this stage avoids the Gamma(m+2)
overflow that plain generalized Gauss-Laguerre weights hit for large m.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature over the reduced phase space (stereographic chart), ring by ring."""

    rho: np.ndarray  # radius |xi| = tan(Theta/2) of each polar ring
    ring_weights: np.ndarray  # weight of every node on each ring; n_azimuthal * sum = pi
    n_azimuthal: int  # nodes per ring, at azimuths 2 pi a / n_azimuthal

    @property
    def xi(self) -> np.ndarray:
        """Chart coordinate rho_p e^{2 pi i a / n_azimuthal} of every node, rings in order."""
        phi = np.arange(self.n_azimuthal) * (2.0 * np.pi / self.n_azimuthal)
        return np.outer(self.rho, np.exp(1j * phi)).ravel()

    @property
    def weights(self) -> np.ndarray:
        """Positive weight of every node, rings in order; sum = pi."""
        return np.repeat(self.ring_weights, self.n_azimuthal)

    def __len__(self) -> int:
        return self.rho.shape[0] * self.n_azimuthal


@dataclass(frozen=True)
class RadialGrid:
    """Nodes and normalized weights for integrals against r^{m+1}e^{-r}/(m+1)!."""

    nodes: np.ndarray
    weights: np.ndarray  # sum = 1


def sphere_grid(j: float, n_polar: int | None = None, n_azimuthal: int | None = None) -> SphereGrid:
    """Build the default exact-degree grid for spin j.

    Polynomial integrands of coherent-state matrix elements have degree
    2j in u = cos(Theta) and azimuthal harmonics up to e^{+-2ij phi}.  The
    defaults are 2j+2 Gauss-Legendre nodes and N azimuths, N the largest
    2^a 3^b 5^c <= 4j+4 (24 at j = 5, 81 at j = 20, 400 at j = 100).  The
    N-point azimuthal rule is exact for e^{ih phi} |xi><xi| whenever
    |h| <= N - 2j - 1; a symbol harmonic h = N - 2j aliases onto entry
    (2j, 0).  That degree is at least 3, and at least 0.81 (2j+3) for
    every 2j <= 4000 but 2j = 5, where it is 6; 4j+4 azimuths reach 2j+3.
    """
    two_j = _check_two_j(j)
    if n_polar is None:
        n_polar = two_j + 2
    if n_azimuthal is None:
        n_azimuthal = _default_n_azimuthal(two_j)
    n_polar = _check_count("n_polar", n_polar)
    n_azimuthal = _check_count("n_azimuthal", n_azimuthal)
    if n_azimuthal < 1:
        raise ValueError(f"a sphere grid needs at least 1 azimuth, got n_azimuthal={n_azimuthal}")
    u, wu = _gauss_legendre(n_polar)
    return SphereGrid(rho=np.sqrt((1.0 - u) / (1.0 + u)),
                      ring_weights=wu * (2.0 * np.pi / n_azimuthal) * 0.25,
                      n_azimuthal=n_azimuthal)


@functools.lru_cache(maxsize=8)
def _default_grid(two_j: int) -> SphereGrid:
    """sphere_grid(two_j / 2) with read-only arrays, cached per 2j.

    For the operators built on the default grid, which read it and never
    hand it to their caller; sphere_grid itself returns new writable
    arrays on every call.
    """
    grid = sphere_grid(two_j / 2)
    grid.rho.flags.writeable = grid.ring_weights.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=32)
def _default_n_azimuthal(two_j: int) -> int:
    """The largest 2^a 3^b 5^c <= 4j+4, the default azimuth count at spin j = two_j / 2.

    Cached per 2j: the search takes about 5 us at j = 100, a third of a grid build.
    """
    limit = 2 * two_j + 4
    best, p5 = 1, 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            # the largest p35 2^a <= limit
            best = max(best, p35 << ((limit // p35).bit_length() - 1))
            p35 *= 3
        p5 *= 5
    return best


def _check_count(name: str, n) -> int:
    """n as an int; ValueError unless it is an integer, a numpy integer included."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"a sphere grid needs an integer {name}, got {name}={n!r}") from None


def _check_m(m: int):
    """ValueError unless the quanta m are nonnegative."""
    if m < 0:
        raise ValueError(f"the quanta m must be nonnegative, got m={m}")


def _check_scales(**scales):
    """ValueError naming the first of scales (E, omega, hbar) that is not finite and > 0."""
    for name, value in scales.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {name}={value!r}")


def _check_two_j(j: float) -> int:
    """The integer 2j of spin j; ValueError unless it is a nonnegative integer."""
    # a finite j above 9e307 doubles to inf, which no integer 2j matches
    two_j = round(2 * j) if math.isfinite(2 * j) else -1
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"2j must be a nonnegative integer, got j={j}")
    return two_j


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u (ascending, u -> -u symmetric) and weights of the n-node Gauss-Legendre rule.

    Cached per n; the arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"the Gauss-Legendre rule needs at least 1 node, got {n}")
    # g_k = C(2k,k)/4^k; P_n(cos t) = sum_k c_k cos(f_k t) with the terms
    # k and n - k folded onto the frequencies f_k = n - 2k >= 0
    g = np.cumprod(np.concatenate(([1.0], 1.0 - 0.5 / np.arange(1, n + 1))))
    k = np.arange(n // 2 + 1)
    f = n - 2.0 * k
    c = np.where(f > 0, 2.0, 1.0) * g[k] * g[n - k]
    cf, cff = c * f, c * f * f
    scale = 2.0 ** (52 - int(n).bit_length())  # f * (a multiple of 1/scale below 2) is exact

    def p_and_dp(t):
        head = np.round(t * scale) / scale
        tail = t - head
        arg = np.multiply.outer(head, f)
        cos = np.cos(arg)
        sin = np.sin(arg, out=arg)
        s1 = np.einsum("rk,k->r", sin, cf)
        return (np.einsum("rk,k->r", cos, c) - tail * s1,
                -s1 - tail * np.einsum("rk,k->r", cos, cff))

    # the roots with t <= pi/2, ascending in t, from Tricomi's estimates
    i = np.arange(1, (n + 1) // 2 + 1)
    t = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos((4 * i - 1) * np.pi / (4 * n + 2)))
    # convergence is quadratic: after a step s the error is about n s^2 / 5,
    # below 1e-17 for s <= 1e-10 at n = 2000
    for _ in range(8):
        p, dp = p_and_dp(t)
        step = p / dp
        t -= step
        if np.max(np.abs(step)) <= 1e-10:
            break
    else:
        raise RuntimeError(f"Newton's method for the {n}-node Gauss-Legendre rule did not converge")
    if n % 2:  # the middle root of an odd rule is u = 0
        t[-1] = 0.5 * np.pi
    w = 2.0 / p_and_dp(t)[1] ** 2
    u = np.cos(t)
    if n % 2:
        u[-1] = 0.0
    half = n // 2
    u, w = np.concatenate((-u[:half], u[::-1])), np.concatenate((w[:half], w[::-1]))
    u.flags.writeable = w.flags.writeable = False
    return u, w


def radial_grid(m: int) -> RadialGrid:
    """32-node generalized Gauss-Laguerre rule for the normalized constraint weight; m >= 0."""
    _check_m(m)
    alpha = m + 1
    k = np.arange(32)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt((k[:-1] + 1.0) * (k[:-1] + 1.0 + alpha))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = vecs[0] ** 2
    return RadialGrid(nodes=nodes, weights=weights)


def gauge_grid() -> np.ndarray:
    """The 256 uniform trapezoid nodes on the gauge circle [0, 2pi).

    Their mean is exact for every gauge harmonic e^{ik theta} with 0 < |k| < 256.
    """
    return np.arange(256) * (2.0 * np.pi / 256)
