"""Closed-form construction of the three coherent-state families.

Three distinct constructions live on the same truncated eigenbasis:

* displacement-orbit states labelled by a disc coordinate zeta (|zeta| < 1)
  obtained by exponentiating the ladder pair on the ground state;
* lowering-eigenstates labelled by arbitrary complex z, normalized through
  a modified Bessel function;
* minimum-uncertainty states labelled by (z, lambda), built from the
  three-term recursion the eigenvalue problem induces on the basis
  coefficients.

Every constructor fixes the global phase so that c_0 is real positive,
which makes cross-family and oracle comparisons unambiguous.  Labels are
immutable; time evolution maps a label to a label (alpha -> alpha + t)
while the exact coefficient-level evolution c_n -> exp(-i e_n t) c_n is
available for any state.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    TAIL_WARN,  # re-exported: the threshold of StateVector.under_truncated
    StateVector,
    _check_phase,
    energy,
    ladder_down_amplitude,
    variance_pair,
)
from .report import VerifyReport
from .specfun import _count, bessel_i, hyp0f1, log_gamma

__all__ = [
    "KPLabel",
    "GKLabel",
    "ISLabel",
    "kp_coefficients",
    "kp_from_z",
    "kp_kernel",
    "evolve",
    "evolve_coefficients",
    "gk_coefficients",
    "gk_annihilation_residual",
    "gk_mean_g",
    "is_coefficients",
    "is_minimization_report",
    "analytic_repr",
]


def _with_label_alpha(params, label):
    """Parameter set whose phase parameter matches the label.

    The ladder phases and the state label share one alpha; recording it on
    the state keeps every downstream matrix action (residuals, variances)
    phase-consistent, including after evolution shifts the label.
    """
    if params.alpha == label.alpha:
        return params
    return replace(params, alpha=label.alpha)


@dataclass(frozen=True)
class KPLabel:
    """Displacement-orbit state label: disc coordinate and phase parameter."""

    zeta: complex
    alpha: float = 0.0

    def __post_init__(self):
        if not abs(self.zeta) < 1.0:  # NaN included
            raise ValueError(f"|zeta| must be < 1, got {abs(self.zeta)}")


@dataclass(frozen=True)
class GKLabel:
    """Lowering-eigenstate label: complex amplitude and phase parameter."""

    z: complex
    alpha: float = 0.0

    def __post_init__(self):
        if not cmath.isfinite(self.z):
            raise ValueError("z must be finite")


@dataclass(frozen=True)
class ISLabel:
    """Minimum-uncertainty state label: amplitude, squeezing, phase.

    lambda = -1 turns the defining equation into a pure raising condition
    with no normalizable solution, so it is excluded.
    """

    z: complex
    lam: complex
    alpha: float = 0.0

    def __post_init__(self):
        if not cmath.isfinite(self.z):
            raise ValueError("z must be finite")
        if not cmath.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if self.lam == -1:
            raise ValueError("lambda = -1 admits no normalizable state")


def _phases(params, t, dim):
    """exp(-i t e_n) for n < dim: the label phase (t = alpha) and the evolution.

    An ArithmeticError when one ulp of |t| e_{dim-1} exceeds PHASE_ULP_MAX.
    """
    _check_phase(abs(t) * energy(params, dim - 1), t, dim - 1)
    return np.exp(-1j * t * energy(params, np.arange(dim)))


def _numeric_failure(params, label, finite):
    """The ArithmeticError for coefficients that are all zero or not finite."""
    why = "no mass in the truncated basis" if finite else "non-finite coefficients"
    return ArithmeticError(f"{why} at kappa = {params.kappa}, kappa' = {params.kappap}, label {label}")


def _geometric_tail(first, q):
    """first / (1 - q), the tail majorant when terms shrink by q or more; inf unless q < 1."""
    return first / (1.0 - q) if q < 1.0 else math.inf


def _finish(params, label, coeffs, tail):
    """Closing step of every constructor: the state with its tail bound.

    Coefficients that are not finite, or all zero (an overflow upstream),
    are an ArithmeticError naming the parameters and the label.
    """
    finite = np.all(np.isfinite(coeffs))
    if not (finite and np.any(coeffs)):
        raise _numeric_failure(params, label, finite)
    return StateVector(coeffs, _with_label_alpha(params, label), tail_bound=tail)


def kp_coefficients(params, label, dim):
    """Displacement-orbit state in the disc coordinate.

    c_n = (1-|zeta|^2)^((s+1)/2) zeta^n sqrt(C(n+s,n)) e^{-i alpha e_n},
    s = kappa + kappa'.  The truncated mass is bounded by the geometric
    majorant of the binomial tail and recorded on the state.
    """
    dim = _count(dim, "dim", 1)
    zeta = complex(label.zeta)
    s = params.strength_sum
    rho2 = abs(zeta) ** 2
    pref = (1.0 - rho2) ** ((s + 1.0) / 2.0)
    k = np.arange(1.0, dim + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # _finish refuses the result
        binom = np.cumprod(np.concatenate(([1.0], (k + s) / k)))  # C(n+s, n), n = 0..dim
        zpow = zeta ** np.arange(dim)
        coeffs = pref * zpow * np.sqrt(binom[:-1]) * _phases(params, label.alpha, dim)
    # tail: sum_{n>=dim} rho2^n C(n+s,n), term ratio <= q below
    q = rho2 * (dim + 1.0 + s) / (dim + 1.0)
    tail = _geometric_tail(pref * pref * rho2**dim * float(binom[-1]), q)
    return _finish(params, label, coeffs, tail)


def kp_from_z(params, z, alpha, dim):
    """Displacement-orbit state from the plane label z via zeta = z tanh|z|/|z|."""
    z = complex(z)
    if z == 0:
        zeta = 0j
    else:
        zeta = z * math.tanh(abs(z)) / abs(z)
    return kp_coefficients(params, KPLabel(zeta=zeta, alpha=alpha), dim)


def kp_kernel(params, label1, label2, dim):
    """Overlap <zeta1,alpha1 | zeta2,alpha2> of two displacement-orbit states.

    Conjugate-linear inner product of the coefficient vectors; the
    relative phase enters as e^{-i (alpha2-alpha1) e_n}, the form forced
    by <state|state> = 1.  It is the transform of the second state at the
    first label.
    """
    return analytic_repr(params, kp_coefficients(params, label2, dim), label1)


def evolve(label, t):
    """Label-level time evolution: same family, alpha shifted by t.

    Exact for the displacement-orbit and lowering-eigenstate families; for
    minimum-uncertainty labels this is a relabeling convention only and
    the coefficient-level evolution is the ground truth.
    """
    if not isinstance(label, (KPLabel, GKLabel, ISLabel)):
        raise TypeError(f"not a coherent-state label: {label!r}")
    return replace(label, alpha=label.alpha + t)


def evolve_coefficients(state, t):
    """Exact evolution of any state: c_n -> exp(-i e_n t) c_n.

    The recorded phase-convention parameter rides along (alpha -> alpha+t)
    so operator actions on the evolved state stay consistent.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    evolved = replace(state.params, alpha=state.params.alpha + t)
    return replace(state, coeffs=state.coeffs * _phases(state.params, t, state.dim), params=evolved)


def gk_coefficients(params, label, dim):
    """Lowering-eigenstate: c_n = N(|z|) z^n e^{-i alpha e_n} / sqrt(n! (s+1)_n ...).

    The normalization N(|z|)^2 = |z|^s / I_s(2|z|) makes sum |c_n|^2 = 1;
    denominators are evaluated through log-gamma for stability at large n.
    """
    dim = _count(dim, "dim", 1)
    z = complex(label.z)
    s = params.strength_sum
    r = abs(z)
    if r == 0.0:
        coeffs = np.zeros(dim, dtype=complex)
        coeffs[0] = 1.0
        return _finish(params, label, coeffs, 0.0)
    try:
        bessel = bessel_i(s, 2.0 * r)
    except OverflowError:  # its leading term is already past the float range
        bessel = math.inf
    if not 0.0 < bessel < math.inf:  # N(|z|)^2 = |z|^s / I_s would be 0 or not finite
        raise _numeric_failure(params, label, finite=bessel == math.inf)
    log_norm = 0.5 * (s * math.log(r) - math.log(bessel))
    n = np.arange(dim, dtype=float)
    log_den = 0.5 * (log_gamma(n + 1.0) + log_gamma(n + s + 1.0))
    mags = np.exp(log_norm + n * math.log(r) - log_den)
    zphase = (z / r) ** np.arange(dim)
    coeffs = mags * zphase * _phases(params, label.alpha, dim)
    # ratio-test majorant: successive |c_n|^2 shrink at least by |z|^2 / e_{dim+1}
    first = (mags[-1] ** 2) * (r * r / energy(params, dim))
    return _finish(params, label, coeffs, _geometric_tail(first, r * r / energy(params, dim + 1)))


def gk_annihilation_residual(params, label, dim):
    """|| a- |state> - z |state> || over the untruncated block.

    Diagnostic for the defining eigenstate property; also locks the phase
    convention, since any change to the alpha-dependence of the
    coefficients makes this residual jump away from zero.
    """
    state = gk_coefficients(params, label, dim)
    c = state.coeffs
    # band product: (a- c)_m = d_{m+1} c_{m+1}; the last component would
    # need c_dim, so the residual stops one short
    lowered = ladder_down_amplitude(state.params, np.arange(1, dim)) * c[1:]
    return float(np.linalg.norm(lowered - complex(label.z) * c[:-1]))


def gk_mean_g(params, zmod):
    """Closed form for <G> on a lowering-eigenstate of modulus |z| = zmod.

    (1+s) + (2 zmod^2/(1+s)) 0F1(2+s; zmod^2) / 0F1(1+s; zmod^2); bounded
    below by 1+s for every zmod.
    """
    if not zmod >= 0.0:
        raise ValueError(f"zmod must be >= 0, got {zmod}")
    s = params.strength_sum
    x = zmod * zmod
    return (1.0 + s) + (2.0 * x / (1.0 + s)) * hyp0f1(2.0 + s, x) / hyp0f1(1.0 + s, x)


def is_coefficients(params, label, dim):
    """Minimum-uncertainty state from the coefficient three-term recursion.

    Projecting [(1-lambda) a+ + (1+lambda) a-] |psi> = 2 z |psi> on <psi_n|
    gives (1-lambda) conj(d_n) c_{n-1} + (1+lambda) d_{n+1} c_{n+1} = 2 z c_n,
    d the phased lowering amplitudes: a two-term recurrence for c_{n+1},
    stepped from c_0 = 1 and divided by max |c_n| and the norm, so c_0 stays
    real positive.  For Re(lambda) > 0 both solutions decay like
    (|1-lambda|/|1+lambda|)^(n/2); Re(lambda) < 0 admits no normalizable
    state and raises ArithmeticError naming lambda, and a sweep past the
    float range raises the one naming kappa, kappa' and the label.

    |c_n|^2 decays in parity pairs.  With P the mass of the last two levels
    and q the larger of |1-lambda|^2/|1+lambda|^2 and P over the mass of the
    two before, the tail bound is 2 P q / (1 - q): inf unless q < 1 (so at
    Re(lambda) = 0), and 0 once P = 0 has ended the recursion.  The factor 2
    is empirical, not proven: on seeded samples it keeps the bound above the
    mass beyond dim of the same state built on 8 dim levels.
    """
    dim = _count(dim, "dim", 2)
    lam = complex(label.lam)
    if lam.real < 0.0:
        raise ArithmeticError(f"recursion diverged: Re(lambda) < 0 at lambda = {lam}")
    d = ladder_down_amplitude(_with_label_alpha(params, label), np.arange(dim))  # d_0 = 0
    lead = (1.0 + lam) * d[1:]
    a = (2.0 * complex(label.z) / lead).tolist()
    b = (-(1.0 - lam) * d[:-1].conj() / lead).tolist()
    c = [0j, 1 + 0j]  # c_{-1}, c_0
    for a_n, b_n in zip(a, b):
        c.append(a_n * c[-1] + b_n * c[-2])
    c = np.array(c[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # _finish refuses the result
        c /= np.max(np.abs(c))
        c /= np.linalg.norm(c)
    last, before = math.hypot(*np.abs(c[-2:])), math.hypot(*np.abs(c[-4:-2]))
    r = abs(1.0 - lam) / abs(1.0 + lam)  # exactly 1 at Re(lambda) = 0
    if last > 0.0:
        r = max(r, last / before if before > 0.0 else math.inf)
    return _finish(params, label, c, 2.0 * _geometric_tail(last * last * r * r, r * r))


def is_minimization_report(params, label, dim):
    """Check the uncertainty-product relations on a minimum-uncertainty state.

    The defining eigenvalue property forces (Delta W)^2 = |lambda| Delta,
    (Delta P)^2 = Delta/|lambda| with Delta = sqrt(<G>^2 + <F>^2)/2, hence
    equality in the Robertson-Schroedinger product.  All three residuals
    go into the report; pass requires each <= 1e-8.
    """
    state = is_coefficients(params, label, dim)
    v = variance_pair(state)
    lam_mod = abs(complex(label.lam))
    delta = 0.5 * math.hypot(v["meanG"], v["meanF"])
    res_w = abs(v["dW2"] - lam_mod * delta)
    # lambda = 0 sends the second relation's bound to infinity
    res_p = abs(v["dP2"] - delta / lam_mod) if lam_mod > 0.0 else math.inf
    res_rs = abs(v["dW2"] * v["dP2"] - 0.25 * (v["meanG"] ** 2 + v["meanF"] ** 2))
    details = {
        "dW2": v["dW2"],
        "dP2": v["dP2"],
        "delta": delta,
        "meanG": v["meanG"],
        "meanF": v["meanF"],
        "residual_w": res_w,
        "residual_p": res_p,
        "residual_rs": res_rs,
        "tail_bound": state.tail_bound,
        "under_truncated": float(state.under_truncated),
    }
    return VerifyReport(
        check_name="is-minimization",
        max_deviation=max(res_w, res_p, res_rs),
        tolerance=1e-8,
        details=details,
    )


def analytic_repr(params, f, label):
    """Disc-coordinate transform of a state: the overlap <zeta,alpha | f>.

    f(zeta, zeta-bar) = (1-|zeta|^2)^((s+1)/2) sum_n zeta-bar^n
    sqrt(C(n+s,n)) e^{+i alpha e_n} <psi_n|f>.  This function determines
    |f> completely, and integrating it against the family with the
    invariant disc measure reconstructs |f> (checked in the verification
    layer).  The phase carries the sign conjugation requires, so that the
    transform of a family member is exactly the reproducing kernel.
    """
    state = kp_coefficients(params, label, f.dim)
    if state.under_truncated or f.under_truncated:
        warnings.warn(
            f"transform at dim {f.dim} discards mass beyond the tail bound "
            f"{max(state.tail_bound, f.tail_bound):.2e}",
            stacklevel=2,
        )
    return complex(np.vdot(state.coeffs, f.coeffs))
