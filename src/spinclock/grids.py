"""Quadrature grids: sphere grid for the reduced phase space, radial grid
for the constraint direction.

The sphere measure is d(Re xi) d(Im xi) / (1+|xi|^2)^2, total mass pi.  In
the angles xi = tan(Theta/2) e^{i phi} it becomes (1/4) sin(Theta) dTheta
dphi, so Gauss-Legendre nodes in u = cos(Theta) together with a uniform
azimuth grid integrate every polynomial integrand exactly.

The radial weight is r^{m+1} e^{-r} / (m+1)!.  Nodes and *normalized*
weights come from the Golub-Welsch eigenproblem of the generalized
Laguerre recurrence; normalizing at this stage avoids the Gamma(m+2)
overflow that plain generalized Gauss-Laguerre weights hit for large m.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature over the reduced phase space (stereographic chart)."""

    theta: np.ndarray  # polar angles Theta of the nodes
    phi: np.ndarray  # azimuth angles
    weights: np.ndarray  # positive, sum = pi
    xi: np.ndarray  # complex chart coordinates tan(Theta/2) e^{i phi}

    def __len__(self) -> int:
        return self.xi.shape[0]


@dataclass(frozen=True)
class RadialGrid:
    """Nodes and normalized weights for integrals against r^{m+1}e^{-r}/(m+1)!."""

    m: int
    nodes: np.ndarray
    weights: np.ndarray  # sum = 1


def sphere_grid(j: float, n_polar: int | None = None, n_azimuthal: int | None = None) -> SphereGrid:
    """Build the default exact-degree grid for spin j.

    Polynomial integrands of coherent-state matrix elements have degree
    2j in u = cos(Theta) and azimuthal harmonics up to e^{+-2ij phi}; the
    defaults (2j+2 Gauss-Legendre nodes, 4j+4 azimuth points) are exact
    for those with headroom for low-degree symbol factors.
    """
    two_j = int(round(2 * j))
    if n_polar is None:
        n_polar = two_j + 2
    if n_azimuthal is None:
        n_azimuthal = 2 * two_j + 4
    u, wu = np.polynomial.legendre.leggauss(n_polar)
    phi = np.arange(n_azimuthal) * (2.0 * np.pi / n_azimuthal)
    theta = np.arccos(u)

    # tensor product, azimuth fastest
    th = np.repeat(theta, n_azimuthal)
    ph = np.tile(phi, n_polar)
    w = np.repeat(wu, n_azimuthal) * (2.0 * np.pi / n_azimuthal) * 0.25
    rho = np.sqrt((1.0 - np.repeat(u, n_azimuthal)) / (1.0 + np.repeat(u, n_azimuthal)))
    xi = rho * np.exp(1j * ph)
    return SphereGrid(theta=th, phi=ph, weights=w, xi=xi)


def radial_grid(m: int, order: int = 32) -> RadialGrid:
    """Generalized Gauss-Laguerre rule for the normalized constraint weight."""
    alpha = m + 1
    k = np.arange(order)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt((k[:-1] + 1.0) * (k[:-1] + 1.0 + alpha))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = vecs[0] ** 2
    return RadialGrid(m=m, nodes=nodes, weights=weights)


def gauge_grid() -> np.ndarray:
    """The 256 uniform trapezoid nodes on the gauge circle [0, 2pi).

    Their mean is exact for every gauge harmonic e^{ik theta} with 0 < |k| < 256.
    """
    return np.arange(256) * (2.0 * np.pi / 256)
