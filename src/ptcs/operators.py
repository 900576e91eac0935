"""Truncated Fock-space model of the ladder algebra.

The well supports a discrete spectrum e_n = n(n + kappa + kappa') (energies
in units of 1/a^2).  Raising and lowering act on the eigenbasis with
square-root amplitudes dressed by phases controlled by the parameter
``alpha``; the phases cancel in every product that matters physically,
which the verification layer checks explicitly.

The level functions energy, g_value and ladder_*_amplitude are the one
definition of each level formula, and each accepts an integer level array.
build_matrices assembles the tridiagonal ladder operators from them; each
acts on a vector in O(dim), and only the oracles read their dense
entries.  Everything is immutable after construction and safe to share
between threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _count, _levels

__all__ = [
    "PotentialParams",
    "StateVector",
    "OperatorMatrix",
    "OperatorSet",
    "energy",
    "ladder_up_amplitude",
    "ladder_down_amplitude",
    "g_value",
    "build_matrices",
    "expectation",
    "variance_pair",
]

TAIL_WARN = 1e-10  # truncated mass past which a state reports under_truncated
PHASE_ULP_MAX = 1e-6  # rad: coarser rounding of a phase leaves only noise in it


@dataclass(frozen=True)
class PotentialParams:
    """Physical parameters of one well instance.

    kappa, kappap: dimensionless well strengths, both > 1 (trigonometric
    regime).  a: half-width scale, the well lives on (0, pi*a).  alpha:
    dimensionless ladder-phase parameter; it controls how the family
    labels move under time evolution.
    """

    kappa: float
    kappap: float
    a: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.kappa < math.inf):
            raise ValueError(f"kappa must be > 1 and finite, got {self.kappa}")
        if not (1.0 < self.kappap < math.inf):
            raise ValueError(f"kappap must be > 1 and finite, got {self.kappap}")
        if not (0.0 < self.a < math.inf):
            raise ValueError(f"a must be > 0 and finite, got {self.a}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    @property
    def strength_sum(self):
        """kappa + kappa', the combination every closed form depends on."""
        return self.kappa + self.kappap


@dataclass(frozen=True)
class StateVector:
    """Truncated eigenbasis expansion sum_n c_n |psi_n>.

    tail_bound is a rigorous (or, for recursion-built states, estimated)
    upper bound on the probability mass lost to truncation;
    under_truncated is derived from it (tail_bound > TAIL_WARN) so
    downstream checks can refuse or flag the state.
    """

    coeffs: np.ndarray
    params: PotentialParams
    tail_bound: float = 0.0

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must form a nonempty 1-d vector")
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be >= 0")

    @property
    def dim(self):
        return self.coeffs.size

    @property
    def under_truncated(self):
        return self.tail_bound > TAIL_WARN

    def norm_deficit(self):
        """| sum |c_n|^2 - 1 |, zero for a perfectly normalized state."""
        return abs(float(np.sum(np.abs(self.coeffs) ** 2)) - 1.0)


@dataclass(frozen=True)
class OperatorMatrix:
    """Tridiagonal operator on the truncated space, tagged with its role.

    diag holds the entries (n, n); upper and lower, one shorter, hold
    (n, n+1) and (n+1, n).  apply is the O(dim) product that production
    paths use; entries builds the dense matrix anew on each access, for
    the oracles and tests only.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    label: str

    def __post_init__(self):
        for name in ("diag", "upper", "lower"):
            band = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=complex))
            band.setflags(write=False)
            object.__setattr__(self, name, band)
        if self.diag.ndim != 1 or not self.upper.shape == self.lower.shape == (self.dim - 1,):
            raise ValueError("operator needs a diagonal and two off-diagonals one shorter")

    @property
    def dim(self):
        return self.diag.size

    @property
    def entries(self):
        m = np.diag(self.diag)
        m.flat[1 :: self.dim + 1], m.flat[self.dim :: self.dim + 1] = self.upper, self.lower
        return m

    def apply(self, vec):
        out = self.diag * vec
        out[:-1] += self.upper * vec[1:]
        out[1:] += self.lower * vec[:-1]
        return out


@dataclass(frozen=True)
class OperatorSet:
    """The full operator family on one truncated space."""

    a_minus: OperatorMatrix
    a_plus: OperatorMatrix
    h: OperatorMatrix
    n: OperatorMatrix
    g: OperatorMatrix
    w: OperatorMatrix
    p: OperatorMatrix
    params: PotentialParams


def energy(params, n):
    """Eigenvalue e_n = n(n + kappa + kappa') in units of 1/a^2; n may be a level array."""
    n = _levels(n)
    return n * (n + params.strength_sum)


def g_value(params, n):
    """Diagonal of the ladder commutator: 2n + kappa + kappa' + 1.

    Equals the level spacing e_{n+1} - e_n.  n may be a level array.
    """
    return 2.0 * _levels(n) + params.strength_sum + 1.0


def _check_phase(size, t, level, name="t", what="t e_n"):
    """Refuse a phase whose largest magnitude, size (at level), has an ulp over PHASE_ULP_MAX."""
    if math.ulp(size) > PHASE_ULP_MAX:
        raise ArithmeticError(f"phase {what} has lost its precision at {name} = {t}, "
                              f"level n = {level}: one ulp of {what} exceeds {PHASE_ULP_MAX} rad")


def ladder_up_amplitude(params, n):
    """Coefficient of |psi_{n+1}> in a+ |psi_n>, the adjoint of a-; n may be a level array."""
    return np.conj(ladder_down_amplitude(params, _levels(n) + 1.0))


def ladder_down_amplitude(params, n):
    """Coefficient of |psi_{n-1}> in a- |psi_n>, 0 at n = 0; n may be a level array.

    An ArithmeticError naming alpha once the phase alpha(2n - 1 + s) has lost its precision.
    """
    n = _levels(n)
    phase = params.alpha * (2.0 * n - 1.0 + params.strength_sum)
    _check_phase(np.max(np.abs(phase), initial=0.0), params.alpha, int(np.max(n, initial=0.0)),
                 "alpha", "alpha(2n - 1 + s)")
    return np.sqrt(energy(params, n)) * np.exp(1j * phase)


def build_matrices(params, dim):
    """Band operators a-, a+, H, N, G, W, P at truncation dim.

    a+ is the exact conjugate transpose of a- by construction.  H, N, G
    are real diagonal.  Truncation corrupts only the last row/column of
    products such as the commutator; the diagonal product a+ a- equals
    diag(e_n) exactly on all dim entries because the ladder phases cancel.
    """
    dim = _count(dim, "dim", 2)
    levels = np.arange(dim)
    d = ladder_down_amplitude(params, levels[1:])
    r2, zero, off = math.sqrt(2.0), np.zeros(dim), np.zeros(dim - 1)
    return OperatorSet(
        a_minus=OperatorMatrix(zero, d, off, "A_MINUS"),
        a_plus=OperatorMatrix(zero, off, d.conj(), "A_PLUS"),
        h=OperatorMatrix(energy(params, levels), off, off, "H"),
        n=OperatorMatrix(levels, off, off, "N"),
        g=OperatorMatrix(g_value(params, levels), off, off, "G"),
        w=OperatorMatrix(zero, d / r2, d.conj() / r2, "W"),
        p=OperatorMatrix(zero, 1j * -d / r2, 1j * d.conj() / r2, "P"),
        params=params,
    )


def expectation(state, op):
    """<state| op |state> for a normalized StateVector; op may also be a raw matrix."""
    band = isinstance(op, OperatorMatrix)
    dim = op.dim if band else np.shape(op)[0]
    if dim != state.dim:
        raise ValueError(f"dimension mismatch: state dim {state.dim}, operator dim {dim}")
    c = state.coeffs
    return complex(np.vdot(c, op.apply(c) if band else np.asarray(op) @ c))


def variance_pair(state):
    """Variances and correlators of the two quadrature-like operators.

    Returns a dict with (Delta W)^2, (Delta P)^2, <G>, and the symmetrized
    covariance <F> = <WP + PW> - 2<W><P>.  All four are real for any
    state; the imaginary residue of the underlying expectations is checked
    against 1e-10 and would indicate a broken Hermitian structure.
    """
    ops = build_matrices(state.params, state.dim)
    c = state.coeffs
    w_c = ops.w.apply(c)
    p_c = ops.p.apply(c)
    mean_w = np.vdot(c, w_c)
    mean_p = np.vdot(c, p_c)
    w2 = np.vdot(w_c, w_c)  # <W^2> via ||W psi||^2, exact Hermitian form
    p2 = np.vdot(p_c, p_c)
    mean_g = np.vdot(c, ops.g.apply(c))
    cross = np.vdot(w_c, p_c)  # <W P>
    mean_f = 2.0 * cross.real - 2.0 * mean_w.real * mean_p.real
    for val in (mean_w, mean_p, mean_g):
        if abs(val.imag) > 1e-10:
            raise ArithmeticError(
                f"non-real expectation ({val}) of a Hermitian operator"
            )
    return {
        "dW2": float(w2.real - mean_w.real**2),
        "dP2": float(p2.real - mean_p.real**2),
        "meanG": float(mean_g.real),
        "meanF": float(mean_f),
    }
