"""Truncated Fock-space model of the ladder algebra.

The well supports a discrete spectrum e_n = n(n + kappa + kappa') (energies
in units of 1/a^2).  Raising and lowering act on the eigenbasis with
square-root amplitudes dressed by phases controlled by the parameter
``alpha``; the phases cancel in every product that matters physically,
which the verification layer checks explicitly.

The level functions energy, g_value and ladder_*_amplitude are the one
definition of each level formula, and each accepts an integer level array.
build_matrices assembles dense matrices from them for the oracles and for
variance_pair.  Everything is immutable after construction and safe to
share between threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
        if not (self.kappa > 1.0):
            raise ValueError(f"kappa must be > 1, got {self.kappa}")
        if not (self.kappap > 1.0):
            raise ValueError(f"kappap must be > 1, got {self.kappap}")
        if not (self.a > 0.0):
            raise ValueError(f"a must be > 0, got {self.a}")
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
    upper bound on the probability mass lost to truncation; constructors
    set under_truncated when it exceeds 1e-10 so downstream checks can
    refuse or flag the state.
    """

    coeffs: np.ndarray
    params: PotentialParams
    tail_bound: float = 0.0
    under_truncated: bool = field(default=False)

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

    def norm_deficit(self):
        """| sum |c_n|^2 - 1 |, zero for a perfectly normalized state."""
        return abs(float(np.sum(np.abs(self.coeffs) ** 2)) - 1.0)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on the truncated space, tagged with its role."""

    entries: np.ndarray
    label: str

    def __post_init__(self):
        e = np.ascontiguousarray(np.asarray(self.entries, dtype=complex))
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("operator must be a square matrix")

    @property
    def dim(self):
        return self.entries.shape[0]


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


def _levels(n):
    """n as a float, or a level array as floats; ValueError unless all are integers >= 0."""
    arr = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0) & (arr == np.floor(arr))):
        raise ValueError(f"level index must be a nonnegative integer, got {n!r}")
    return float(arr) if arr.ndim == 0 else arr


def energy(params, n):
    """Eigenvalue e_n = n(n + kappa + kappa') in units of 1/a^2; n may be a level array."""
    n = _levels(n)
    return n * (n + params.strength_sum)


def g_value(params, n):
    """Diagonal of the ladder commutator: 2n + kappa + kappa' + 1.

    Equals the level spacing e_{n+1} - e_n.  n may be a level array.
    """
    return 2.0 * _levels(n) + params.strength_sum + 1.0


def ladder_up_amplitude(params, n):
    """Coefficient of |psi_{n+1}> in a+ |psi_n>; n may be a level array."""
    n = _levels(n)
    phase = params.alpha * (2.0 * n + 1.0 + params.strength_sum)
    return np.sqrt(energy(params, n + 1.0)) * np.exp(-1j * phase)


def ladder_down_amplitude(params, n):
    """Coefficient of |psi_{n-1}> in a- |psi_n>, 0 at n = 0; n may be a level array."""
    n = _levels(n)
    phase = params.alpha * (2.0 * n - 1.0 + params.strength_sum)
    return np.sqrt(energy(params, n)) * np.exp(1j * phase)


def build_matrices(params, dim):
    """Dense matrices for a-, a+, H, N, G, W, P at truncation dim.

    a+ is the exact conjugate transpose of a- by construction.  H, N, G
    are real diagonal.  Truncation corrupts only the last row/column of
    products such as the commutator; the diagonal product a+ a- equals
    diag(e_n) exactly on all dim entries because the ladder phases cancel.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    levels = np.arange(dim)
    a_minus = np.diag(ladder_down_amplitude(params, levels[1:]), 1)
    a_plus = a_minus.conj().T.copy()
    h = np.diag(energy(params, levels)).astype(complex)
    num = np.diag(levels).astype(complex)
    g = np.diag(g_value(params, levels)).astype(complex)
    w = (a_plus + a_minus) / math.sqrt(2.0)
    p = 1j * (a_plus - a_minus) / math.sqrt(2.0)
    return OperatorSet(
        a_minus=OperatorMatrix(a_minus, "A_MINUS"),
        a_plus=OperatorMatrix(a_plus, "A_PLUS"),
        h=OperatorMatrix(h, "H"),
        n=OperatorMatrix(num, "N"),
        g=OperatorMatrix(g, "G"),
        w=OperatorMatrix(w, "W"),
        p=OperatorMatrix(p, "P"),
        params=params,
    )


def expectation(state, op):
    """<state| op |state> for a normalized StateVector."""
    mat = op.entries if isinstance(op, OperatorMatrix) else np.asarray(op)
    if mat.shape[0] != state.dim:
        raise ValueError(
            f"dimension mismatch: state dim {state.dim}, operator dim {mat.shape[0]}"
        )
    c = state.coeffs
    return complex(np.vdot(c, mat @ c))


def variance_pair(state):
    """Variances and correlators of the two quadrature-like operators.

    Returns a dict with (Delta W)^2, (Delta P)^2, <G>, and the symmetrized
    covariance <F> = <WP + PW> - 2<W><P>.  All four are real for any
    state; the imaginary residue of the underlying expectations is checked
    against 1e-10 and would indicate a broken Hermitian structure.
    """
    ops = build_matrices(state.params, state.dim)
    c = state.coeffs
    w_c = ops.w.entries @ c
    p_c = ops.p.entries @ c
    mean_w = np.vdot(c, w_c)
    mean_p = np.vdot(c, p_c)
    w2 = np.vdot(w_c, w_c)  # <W^2> via ||W psi||^2, exact Hermitian form
    p2 = np.vdot(p_c, p_c)
    mean_g = np.vdot(c, ops.g.entries @ c)
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
        "under_truncated": state.under_truncated,
    }
