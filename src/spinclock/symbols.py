"""Symbol calculus on the reduced phase space.

Upper symbols are coherent-state expectation values.  Lower symbols are
black-box functions o(xi, r, theta) on the chart coordinates; projecting
one integrates out the constraint direction r (against the normalized
radial weight) and averages over the gauge angle theta, leaving a reduced
symbol o'(xi).  Reduced symbols define operators through their diagonal
coherent-state representation.

Symbols are numpy-broadcasting callables: a full lower symbol
sym(xi, r, theta) and a reduced symbol sym(xi) take scalars or arrays and
broadcast them against each other.  A symbol that does not depend on an
argument may return a smaller shape, even a constant such as
``lambda xi: 1.0``; the caller broadcasts the result.  The upper symbols
broadcast too: upper_symbol and spin_symbols_closed_form take a scalar or
an array of labels and return one value per label, so a sweep is one call
and one amplitude batch.
"""

from typing import Callable

import numpy as np

from . import kernels
from .coherent import su2_coherent
from .grids import RadialGrid, SphereGrid, _check_two_j, gauge_grid, radial_grid, sphere_grid

# a full lower symbol maps (xi, r, theta) -> value, broadcasting its arguments
FullLowerSymbol = Callable[[np.ndarray, float, np.ndarray], np.ndarray]
# a reduced symbol maps xi -> value, elementwise over an array of xi
ReducedLowerSymbol = Callable[[np.ndarray], np.ndarray]


def upper_symbol(op: np.ndarray, xi):
    """Expectation values <xi| op |xi> at the spin j whose sector has op's dimension 2j+1.

    xi is a scalar or an array of labels; the result is one complex value
    per label, a scalar for a scalar label.  The amplitudes come as one
    batch and the contraction runs in einsum, not in BLAS, so its bytes do
    not depend on the BLAS thread count.
    """
    dim = op.shape[0]
    v = su2_coherent(xi, (dim - 1) / 2)
    rows = v.reshape(-1, dim)
    vals = np.einsum("kn,kn->k", rows.conj(), np.einsum("nm,km->kn", op, rows))
    return vals.reshape(v.shape[:-1])[()]


def spin_symbols_closed_form(xi, j: float):
    """Closed-form upper symbols (s1, s2, s3) of the spin operators.

    xi is a scalar or an array of labels; each of s1, s2, s3 has its shape.
    The point (s1, s2, s3) lies on the sphere of radius j; s3 = -j at
    xi = 0 (all quanta in oscillator 2).  The sign of s2 is forced: with
    amplitudes proportional to xi^n, s3(0) = -j and the cyclic algebra
    [S1, S2] = iS3, the 2-component must be -2j Im(xi)/(1+|xi|^2) (the
    triple with +Im(xi) is a reflection of the expectation vector and
    would anti-commute the algebra).  Where |xi|^2 overflows, the same
    point comes from the antipodal label eta = 1/xi.
    """
    u, far, _, t = kernels.antipodal_where_far(xi)
    denom = 1.0 + t
    s1 = 2.0 * j * u.real / denom
    s2 = np.where(far, 2.0, -2.0) * j * u.imag / denom
    # clip to |s3| <= j: j (1 - t) overflows where j t > DBL_MAX and overshoots j by an ulp
    # where t is large, and s3 rounds to j there
    with np.errstate(over="ignore"):
        s3 = np.clip(np.where(far, j, -j) * (1.0 - t) / denom, -j, j)
    return s1[()], s2[()], s3[()]


def _radial_mean(sym: FullLowerSymbol, xi, rgrid: RadialGrid,
                 thetas: np.ndarray) -> np.ndarray:
    """sum_i w_i * mean_theta sym(xi, r_i, theta) over the given gauge angles.

    sym is called once per radial node on the (xi, theta) plane, so the
    temporaries stay len(xi) x len(thetas).  The result has the shape of xi.
    """
    xi = np.asarray(xi)[..., None]
    plane = np.broadcast_shapes(xi.shape, thetas.shape)
    total = 0.0
    for r, w in zip(rgrid.nodes, rgrid.weights):
        total += w * np.mean(np.broadcast_to(sym(xi, r, thetas), plane), axis=-1)
    return total


def project_lower_symbol(sym: FullLowerSymbol, m: int) -> ReducedLowerSymbol:
    """Reduce a full lower symbol to the physical phase space.

    o'(xi) = sum_i w_i * mean_theta sym(xi, r_i, theta) with the
    normalized radial rule radial_grid(m) and the uniform gauge grid; the
    uniform mean cancels gauge-odd symbols to roundoff.  The returned
    symbol takes a scalar or an array of xi.
    """
    rgrid = radial_grid(m)
    thetas = gauge_grid()

    def reduced(xi):
        return _radial_mean(sym, xi, rgrid, thetas)

    return reduced


def reconstruct_operator(sym: ReducedLowerSymbol, j: float,
                         grid: SphereGrid | None = None) -> np.ndarray:
    """Matrix of the diagonal representation ((2j+1)/pi) int sym |xi><xi| dmu."""
    two_j = _check_two_j(j)
    if grid is None:
        grid = sphere_grid(j)
    xi = grid.xi
    vals = np.broadcast_to(sym(xi), xi.shape)
    coeff = vals.reshape(len(grid.rho), -1) * grid.ring_weights[:, None]
    del xi, vals
    # sym is a black box, so every ring Fourier column may be non-zero
    out = kernels.ring_projector_sum(grid, coeff, two_j)
    out *= (two_j + 1) / np.pi
    return out


def q2_position_symbol(xi, r, theta, omega: float = 1.0, hbar: float = 1.0):
    """Lower symbol of the position of oscillator 2 in chart coordinates.

    (beta + conj(beta))/sqrt(2) = sqrt(2)|beta| cos(theta) with
    |beta| = sqrt(r/(1+|xi|^2)); scaled by sqrt(hbar/omega).
    """
    # np.abs and ** 2: hypot and float_power take 10x and 19x as long, for every radial node
    mag = np.sqrt(hbar / omega) * np.sqrt(2.0 * r / (1.0 + np.abs(xi) ** 2))
    return mag * np.cos(theta)


def q1_position_symbol(xi, r, theta, omega: float = 1.0, hbar: float = 1.0):
    """Lower symbol of the position of oscillator 1: sqrt(2)|alpha| cos(theta + arg xi)."""
    # np.abs and ** 2: hypot and float_power take 10x and 19x as long, for every radial node
    mag = np.sqrt(hbar / omega) * np.abs(xi) * np.sqrt(2.0 * r / (1.0 + np.abs(xi) ** 2))
    return mag * np.cos(theta + np.angle(xi))
