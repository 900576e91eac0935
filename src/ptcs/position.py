"""Position-space realization on the open interval (0, pi*a).

Potential, superpotential, normalized eigenfunctions, coherent-state
wavefunctions, and the quadrature grids used to integrate them.  The
potential walls diverge at both endpoints, so every grid keeps its nodes
strictly inside the interval.

Sign convention: the superpotential here is W = -(d/dx ln psi_0), so the
lowering operator (d/dx + W) annihilates the ground state, the raising
operator is (-d/dx + W), and the potential satisfies V = W^2 - W'.  (The
opposite overall sign would swap the roles of raising and lowering and
break the factorization against the potential as defined below.)
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import _levels
from .specfun import jacobi_poly_all, log_gamma

__all__ = [
    "QuadratureRule",
    "PositionGrid",
    "gauss_legendre_grid",
    "open_simpson_grid",
    "potential",
    "superpotential",
    "norm_constant",
    "eigenfunction",
    "eigenfunction_table",
    "wavefunction",
    "grid_inner_product",
]


class QuadratureRule(Enum):
    GAUSS_LEGENDRE = "gauss-legendre"
    COMPOSITE_SIMPSON = "composite-simpson"


@dataclass(frozen=True)
class PositionGrid:
    """Quadrature nodes/weights on (0, pi*a), endpoints excluded."""

    nodes: np.ndarray
    weights: np.ndarray
    rule: QuadratureRule
    length: float  # pi * a

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(nodes <= 0.0) or np.any(nodes >= self.length):
            raise ValueError("all nodes must lie strictly inside (0, pi*a)")
        total = float(np.sum(weights))
        if abs(total - self.length) > 1e-12 * self.length:
            raise ValueError(
                f"weights sum to {total}, expected the interval length {self.length}"
            )


def gauss_legendre_grid(params, n_nodes=400):
    """Gauss-Legendre rule mapped onto (0, pi*a); the default grid."""
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    length = math.pi * params.a
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return PositionGrid(
        nodes=0.5 * length * (x + 1.0),
        weights=0.5 * length * w,
        rule=QuadratureRule.GAUSS_LEGENDRE,
        length=length,
    )


def open_simpson_grid(params, n_panels=200):
    """Composite open Newton-Cotes rule of Simpson order.

    The classic closed Simpson rule places nodes on the interval
    endpoints, where the potential diverges; the 3-point open rule of the
    same order (panel weights 4h/3 * [2, -1, 2]) keeps every node
    interior while its weights still sum to the full interval length.
    """
    if n_panels < 1:
        raise ValueError(f"need at least 1 panel, got {n_panels}")
    length = math.pi * params.a
    h = length / (4.0 * n_panels)
    nodes = []
    weights = []
    for k in range(n_panels):
        left = 4.0 * h * k
        nodes.extend((left + h, left + 2.0 * h, left + 3.0 * h))
        weights.extend((8.0 * h / 3.0, -4.0 * h / 3.0, 8.0 * h / 3.0))
    return PositionGrid(
        nodes=np.array(nodes),
        weights=np.array(weights),
        rule=QuadratureRule.COMPOSITE_SIMPSON,
        length=length,
    )


def _check_interior(params, x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= math.pi * params.a):
        raise ValueError("position must lie strictly inside (0, pi*a)")
    return x


def potential(params, x):
    """Well profile: singular walls at 0 and pi*a, depth shifted so e_0 = 0.

    (1/4a^2) [ k(k-1)/sin^2(x/2a) + k'(k'-1)/cos^2(x/2a) ] - (k+k')^2/4a^2.
    """
    x = _check_interior(params, x)
    a = params.a
    k, kp = params.kappa, params.kappap
    t = x / (2.0 * a)
    quarter = 1.0 / (4.0 * a * a)
    val = quarter * (k * (k - 1.0) / np.sin(t) ** 2 + kp * (kp - 1.0) / np.cos(t) ** 2)
    return val - quarter * (k + kp) ** 2


def superpotential(params, x):
    """W(x) = (1/2a) [ kappa' tan(x/2a) - kappa cot(x/2a) ].

    Equal to -psi_0'/psi_0: it diverges to -inf at the left wall and +inf
    at the right wall, (d/dx + W) psi_0 = 0, and V = W^2 - W'.
    """
    x = _check_interior(params, x)
    t = x / (2.0 * params.a)
    return (params.kappap * np.tan(t) - params.kappa / np.tan(t)) / (2.0 * params.a)


def norm_constant(params, n):
    """Squared norm of the unnormalized eigenfunction.

    c_n = a 2^{-(k+k')} h_n, where h_n is the weighted L^2 norm of the
    Jacobi polynomial with exponents (k - 1/2, k' - 1/2); obtained from
    the substitution u = cos(x/a).  Positive for every n, and checked
    against direct quadrature in the tests.  n is a level index or an
    integer level array; an array gives the array of its norms.
    """
    n = _levels(n)
    xp = np if isinstance(n, np.ndarray) else math
    al = params.kappa - 0.5
    be = params.kappap - 0.5
    s = params.strength_sum
    log_h = (
        s * math.log(2.0)
        - xp.log(2.0 * n + s)
        + log_gamma(n + al + 1.0)
        + log_gamma(n + be + 1.0)
        - log_gamma(n + al + be + 1.0)
        - log_gamma(n + 1.0)
    )
    return params.a * xp.exp(log_h - s * math.log(2.0))


def eigenfunction(params, n, x):
    """Normalized bound state psi_n(x)."""
    x = _check_interior(params, x)
    return eigenfunction_table(params, n, x)[n]


def eigenfunction_table(params, nmax, x):
    """psi_0 .. psi_nmax evaluated on x, stacked along axis 0.

    Shares one Jacobi recurrence sweep across all orders, which is what
    wavefunction synthesis and Gram-matrix tests want.
    """
    x = _check_interior(params, x)
    a = params.a
    t = x / (2.0 * a)
    u = np.cos(x / a)
    polys = jacobi_poly_all(nmax, params.kappa - 0.5, params.kappap - 0.5, u)
    envelope = np.sin(t) ** params.kappa * np.cos(t) ** params.kappap
    norms = np.sqrt(norm_constant(params, np.arange(nmax + 1)))
    return polys * envelope / norms[:, None]


def wavefunction(params, state, grid):
    """Coherent-state wavefunction Psi(x_j) = sum_n c_n psi_n(x_j) on a grid."""
    table = eigenfunction_table(params, state.dim - 1, grid.nodes)
    return state.coeffs @ table.astype(complex)


def grid_inner_product(grid, f, g):
    """Quadrature approximation of <f|g> = int conj(f) g dx on the grid."""
    return complex(np.sum(grid.weights * np.conj(f) * g))
