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

from .operators import _check_well
from .specfun import ConvergenceError, _count, _levels, jacobi_poly_all, log_gamma

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
        if not np.all((nodes > 0.0) & (nodes < self.length)):
            raise ValueError("all nodes must lie strictly inside (0, pi*a)")
        total = float(np.sum(weights))
        if not abs(total - self.length) <= 1e-12 * self.length:
            raise ValueError(
                f"weights sum to {total}, expected the interval length {self.length}"
            )


# from Tricomi's starting values Newton takes 3 to 5 steps (every n < 1200,
# and n sampled up to 20001)
_NEWTON_STEPS = 10


def _legendre(n, x):
    """P_n(x) and P_n'(x) on |x| < 1 by one sweep of the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0) * x * cur - k * prev) / (k + 1.0)
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def _gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], O(n) memory.

    Newton's method on the Legendre recurrence from Tricomi's starting
    values (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)), for
    the ceil(n/2) nodes in [0, 1) only; the rule is then mirrored, so it
    is exactly symmetric and an odd rule's middle node is exactly 0.
    Weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged nodes.
    """
    k = np.arange(1.0, (n + 1) // 2 + 1.0)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    if n % 2:
        x[-1] = 0.0
    for step in range(1, _NEWTON_STEPS + 1):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        last = float(np.max(np.abs(dx)))
        if last <= 1e-16:
            break
    else:
        raise ConvergenceError(
            f"Gauss-Legendre nodes for n = {n} moved by {last:.3g} after {step} Newton steps",
            x, terms_used=step, last_term=last,
        )
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


def gauss_legendre_grid(params, n_nodes=400):
    """Gauss-Legendre rule mapped onto (0, pi*a); the default grid."""
    n_nodes = _count(n_nodes, "n_nodes", 2)
    length = math.pi * params.a
    x, w = _gauss_legendre(n_nodes)
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
    n_panels = _count(n_panels, "n_panels", 1)
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
    if not np.all((x > 0.0) & (x < math.pi * params.a)):
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
    the substitution u = cos(x/a).  c_0 = a G(k+1/2) G(k'+1/2) / G(s+1),
    and each later level multiplies in the ratio

        h_n / h_{n-1} = (2n+s-2)(n+k-1/2)(n+k'-1/2) / ((2n+s) n (n+s-1))
                      = (1 - 2/(2n+s)) (1 + (k-1/2)/n) (1 - (k-1/2)/(n+s-1)),

    in its second form, whose near-one factors do not repeat one rounding
    at every level: relative error ~1e-14 up to n = 4000, where a sum of
    four log-gamma values lost ~2e-11.  Positive for every n, and checked
    against direct quadrature in the tests.  n is a level index or an
    integer level array; an array gives the array of its norms.  Time
    and memory are O(max n).
    """
    n = _levels(n)
    k, kp, s = params.kappa, params.kappap, params.strength_sum
    al = k - 0.5
    m = np.arange(1.0, np.max(n, initial=0.0) + 1.0)
    ratio = (1.0 - 2.0 / (2.0 * m + s)) * (1.0 + al / m) * (1.0 - al / (m + s - 1.0))
    c0 = params.a * math.exp(log_gamma(k + 0.5) + log_gamma(kp + 0.5) - log_gamma(s + 1.0))
    table = c0 * np.cumprod(np.concatenate(([1.0], ratio)))
    return table[n.astype(int)] if isinstance(n, np.ndarray) else float(table[int(n)])


def eigenfunction(params, n, x):
    """Normalized bound state psi_n(x)."""
    n = _count(n, "n", 0)
    return eigenfunction_table(params, n, x)[n]


def eigenfunction_table(params, nmax, x):
    """psi_0 .. psi_nmax evaluated on x, stacked along axis 0.

    Shares one Jacobi recurrence sweep across all orders, which is what
    wavefunction synthesis and Gram-matrix tests want.  The envelope and
    the norms scale the Jacobi table in place, so the result is the only
    (nmax+1, *x.shape) array the call allocates.
    """
    x = _check_interior(params, x)
    a = params.a
    t = x / (2.0 * a)
    u = np.cos(x / a)
    polys = jacobi_poly_all(nmax, params.kappa - 0.5, params.kappap - 0.5, u)
    envelope = np.sin(t) ** params.kappa * np.cos(t) ** params.kappap
    norms = np.sqrt(norm_constant(params, np.arange(nmax + 1)))
    polys *= envelope
    polys /= norms.reshape((-1,) + (1,) * x.ndim)
    return polys


def wavefunction(params, state, grid):
    """Coherent-state wavefunction Psi(x_j) = sum_n c_n psi_n(x_j) on a grid.

    The real table meets the real and imaginary parts of the coefficients
    in two real products, so no complex copy of the table is made.  The
    state and the grid must belong to the well of params (alpha aside).
    """
    _check_well(params, state)
    if grid.length != math.pi * params.a:
        raise ValueError(f"grid spans {grid.length}, not pi a = {math.pi * params.a}")
    table = eigenfunction_table(params, state.dim - 1, grid.nodes)
    psi = np.empty(table.shape[1:], dtype=complex)
    psi.real = state.coeffs.real @ table
    psi.imag = state.coeffs.imag @ table
    return psi


def grid_inner_product(grid, f, g):
    """Quadrature approximation of <f|g> = int conj(f) g dx on the grid."""
    return complex(np.sum(grid.weights * np.conj(f) * g))
