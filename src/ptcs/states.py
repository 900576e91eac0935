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

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    StateVector,
    energy,
    ladder_down_amplitude,
    ladder_up_amplitude,
    variance_pair,
)
from .report import VerifyReport
from .specfun import bessel_i, hyp0f1, log_gamma

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

TAIL_WARN = 1e-10


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
        if abs(self.zeta) >= 1.0:
            raise ValueError(f"|zeta| must be < 1, got {abs(self.zeta)}")


@dataclass(frozen=True)
class GKLabel:
    """Lowering-eigenstate label: complex amplitude and phase parameter."""

    z: complex
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
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
        if self.lam == -1:
            raise ValueError("lambda = -1 admits no normalizable state")


def _phases(params, t, dim):
    """exp(-i t e_n) for n < dim: the label phase (t = alpha) and the evolution."""
    return np.exp(-1j * t * energy(params, np.arange(dim)))


def _finish(params, label, coeffs, tail):
    """Closing step of every constructor: the state, flagged past TAIL_WARN.

    Coefficients that are not finite, or all zero (an overflow upstream),
    are an ArithmeticError naming the parameters and the label.
    """
    finite = np.all(np.isfinite(coeffs))
    if not (finite and np.any(coeffs)):
        why = "no mass in the truncated basis" if finite else "non-finite coefficients"
        raise ArithmeticError(f"{why} at kappa = {params.kappa}, kappa' = {params.kappap}, label {label}")
    return StateVector(
        coeffs,
        _with_label_alpha(params, label),
        tail_bound=tail,
        under_truncated=tail > TAIL_WARN,
    )


def kp_coefficients(params, label, dim):
    """Displacement-orbit state in the disc coordinate.

    c_n = (1-|zeta|^2)^((s+1)/2) zeta^n sqrt(C(n+s,n)) e^{-i alpha e_n},
    s = kappa + kappa'.  The truncated mass is bounded by the geometric
    majorant of the binomial tail and recorded on the state.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    zeta = complex(label.zeta)
    if abs(zeta) >= 1.0:
        raise ValueError(f"|zeta| must be < 1, got {abs(zeta)}")
    s = params.strength_sum
    rho2 = abs(zeta) ** 2
    pref = (1.0 - rho2) ** ((s + 1.0) / 2.0)
    k = np.arange(1.0, dim + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # _finish refuses the result
        binom = np.cumprod(np.concatenate(([1.0], (k + s) / k)))  # C(n+s, n), n = 0..dim
        zpow = zeta ** np.arange(dim)
        coeffs = pref * zpow * np.sqrt(binom[:-1]) * _phases(params, label.alpha, dim)
    # tail: sum_{n>=dim} rho2^n C(n+s,n), term ratio <= q below
    term = pref * pref * rho2**dim * float(binom[-1])
    q = rho2 * (dim + 1.0 + s) / (dim + 1.0)
    tail = term / (1.0 - q) if q < 1.0 else math.inf
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
    by <state|state> = 1.
    """
    s1 = kp_coefficients(params, label1, dim)
    s2 = kp_coefficients(params, label2, dim)
    if s1.under_truncated or s2.under_truncated:
        warnings.warn(
            f"kernel at dim {dim} discards mass beyond the tail bounds "
            f"({s1.tail_bound:.2e}, {s2.tail_bound:.2e})",
            stacklevel=2,
        )
    return complex(np.vdot(s1.coeffs, s2.coeffs))


def evolve(label, t):
    """Label-level time evolution: same family, alpha shifted by t.

    Exact for the displacement-orbit and lowering-eigenstate families; for
    minimum-uncertainty labels this is a relabeling convention only and
    the coefficient-level evolution is the ground truth.
    """
    if isinstance(label, KPLabel):
        return KPLabel(zeta=label.zeta, alpha=label.alpha + t)
    if isinstance(label, GKLabel):
        return GKLabel(z=label.z, alpha=label.alpha + t)
    if isinstance(label, ISLabel):
        return ISLabel(z=label.z, lam=label.lam, alpha=label.alpha + t)
    raise TypeError(f"not a coherent-state label: {label!r}")


def evolve_coefficients(state, t):
    """Exact evolution of any state: c_n -> exp(-i e_n t) c_n.

    The recorded phase-convention parameter rides along (alpha -> alpha+t)
    so operator actions on the evolved state stay consistent.
    """
    return StateVector(
        state.coeffs * _phases(state.params, t, state.dim),
        replace(state.params, alpha=state.params.alpha + t),
        tail_bound=state.tail_bound,
        under_truncated=state.under_truncated,
    )


def gk_coefficients(params, label, dim):
    """Lowering-eigenstate: c_n = N(|z|) z^n e^{-i alpha e_n} / sqrt(n! (s+1)_n ...).

    The normalization N(|z|)^2 = |z|^s / I_s(2|z|) makes sum |c_n|^2 = 1;
    denominators are evaluated through log-gamma for stability at large n.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = complex(label.z)
    s = params.strength_sum
    r = abs(z)
    if r == 0.0:
        coeffs = np.zeros(dim, dtype=complex)
        coeffs[0] = 1.0
        return _finish(params, label, coeffs, 0.0)
    log_norm = 0.5 * (s * math.log(r) - math.log(bessel_i(s, 2.0 * r)))
    n = np.arange(dim, dtype=float)
    log_den = 0.5 * (log_gamma(n + 1.0) + log_gamma(n + s + 1.0))
    mags = np.exp(log_norm + n * math.log(r) - log_den)
    zphase = (z / r) ** np.arange(dim)
    coeffs = mags * zphase * _phases(params, label.alpha, dim)
    # ratio-test majorant: successive |c_n|^2 shrink at least by q
    q = r * r / energy(params, dim + 1)
    tail = (mags[-1] ** 2) * (r * r / energy(params, dim)) / (1.0 - q) if q < 1.0 else math.inf
    return _finish(params, label, coeffs, tail)


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
    if zmod < 0.0:
        raise ValueError(f"zmod must be >= 0, got {zmod}")
    s = params.strength_sum
    x = zmod * zmod
    return (1.0 + s) + (2.0 * x / (1.0 + s)) * hyp0f1(2.0 + s, x) / hyp0f1(1.0 + s, x)


def is_coefficients(params, label, dim):
    """Minimum-uncertainty state from the coefficient three-term recursion.

    Projecting the defining eigenvalue equation
    [(1-lambda) a+ + (1+lambda) a-] |psi> = 2 z |psi> on <psi_n| yields

        (1-lambda) u_{n-1} c_{n-1} + (1+lambda) d_{n+1} c_{n+1} = 2 z c_n

    with u, d the phased ladder amplitudes.  Seeded with c_0 = 1, then
    normalized with c_0 real positive.  For Re(lambda) > 0 both solutions
    of the recursion decay like (|1-lambda|/|1+lambda|)^(n/2) and the
    forward sweep is stable; for Re(lambda) < 0 the coefficients grow
    geometrically, no normalizable state exists and the construction
    raises ArithmeticError naming lambda.  The tail bound is the
    geometric estimate from the last two computed magnitudes.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    lam = complex(label.lam)
    if lam == -1:
        raise ValueError("lambda = -1 admits no normalizable state")
    if lam.real < 0.0:
        raise ArithmeticError(f"recursion diverged: Re(lambda) < 0 at lambda = {lam}")
    z = complex(label.z)
    state_params = _with_label_alpha(params, label)
    levels = np.arange(dim)
    up = ladder_up_amplitude(state_params, levels[:-1])  # u_n
    down = ladder_down_amplitude(state_params, levels[1:])  # d_{n+1}
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0
    for n in range(dim - 1):
        lower = (1.0 - lam) * up[n - 1] * c[n - 1] if n >= 1 else 0.0
        c[n + 1] = (2.0 * z * c[n] - lower) / ((1.0 + lam) * down[n])
        if not np.isfinite(c[n + 1]) or abs(c[n + 1]) > 1e140:
            raise ArithmeticError(
                f"recursion diverged at level {n + 1} "
                f"(lambda = {lam}, |1-lambda|/|1+lambda| = "
                f"{abs(1 - lam) / abs(1 + lam):.3f})"
            )
    nrm = np.linalg.norm(c)
    c = c / nrm
    if c[0] != 0:
        c = c * (c[0].conjugate() / abs(c[0]))
    tail = math.inf
    if abs(c[-2]) > 0:
        ratio = (abs(c[-1]) / abs(c[-2])) ** 2
        tail = abs(c[-1]) ** 2 * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    elif abs(c[-1]) == 0.0:
        tail = 0.0
    return _finish(params, label, c, tail)


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
