"""Self-contained double-precision special functions.

Everything the closed-form machinery needs lives here: log-gamma, gamma
ratios, Jacobi polynomials, modified Bessel functions of both kinds, the
confluent limit function 0F1, and the hyperbolic-argument Jacobi function
family that appears in quasi-unitary group representation theory.

No third-party special-function library is used; each routine is plain
series/recurrence/quadrature arithmetic so the test suite can check it
against slow independent oracles.

All functions are pure and hold no global mutable state.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesControl",
    "ConvergenceError",
    "log_gamma",
    "gamma_ratio",
    "jacobi_poly",
    "jacobi_poly_all",
    "bessel_i",
    "bessel_k",
    "hyp0f1",
    "jacobi_fn_ss",
]


class ConvergenceError(ArithmeticError):
    """A series failed to converge within its term budget.

    Carries the partial sum accumulated so far in ``partial_sum``.
    """

    def __init__(self, message, partial_sum):
        super().__init__(message)
        self.partial_sum = partial_sum


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series.

    A series is stopped once ``|term| <= rel_tol * |partial sum|`` held for
    three consecutive terms (guards against terms that are accidentally
    zero), or fails with :class:`ConvergenceError` after ``max_terms``.
    """

    max_terms: int = 400
    rel_tol: float = 1e-15
    underflow_guard: float = 1e-300

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


DEFAULT_CONTROL = SeriesControl()

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Lanczos approximation; relative error is comfortably below 1e-13 on
    the positive axis.  A scalar x returns a float; an ndarray x returns an
    ndarray of its shape from the same Lanczos sum, with numpy's log in
    place of math.log.  Any entry that is not finite and > 0 is a
    ValueError.
    """
    if isinstance(x, (int, float)):
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"log_gamma requires a finite x > 0, got {x!r}")
        if x < 0.5:
            # reflection keeps the rational part of the approximation in
            # its sweet spot
            return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
        log = math.log
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return log_gamma(float(x))
        ok = np.isfinite(x) & (x > 0.0)
        if not ok.all():
            raise ValueError(f"log_gamma requires a finite x > 0, got {float(x[~ok][0])}")
        refl = x < 0.5
        if refl.any():
            out = log_gamma(np.where(refl, 1.0 - x, x))
            out[refl] = np.log(np.pi / np.sin(np.pi * x[refl])) - out[refl]
            return out
        log = np.log
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return (x - 0.5) * log(t) - t + _LN_SQRT_2PI + log(acc)


def _inv_gamma(x):
    """1 / Gamma(x) for any real x; exactly 0.0 at the poles of Gamma."""
    if x > 0.5:
        return math.exp(-log_gamma(x))
    r = round(x)
    if abs(x - r) < 1e-12 and r <= 0:
        return 0.0
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
    return math.sin(math.pi * x) * math.exp(log_gamma(1.0 - x)) / math.pi


def _gamma_signed(x):
    """Gamma(x) for real x away from its poles (sign included)."""
    if x > 0.0:
        return math.exp(log_gamma(x))
    r = round(x)
    if abs(x - r) < 1e-12:
        raise ValueError(f"Gamma pole at x = {x}")
    return math.pi / (math.sin(math.pi * x) * math.exp(log_gamma(1.0 - x)))


def gamma_ratio(n, s):
    """Gamma(n+1+s) / (Gamma(n+1) Gamma(1+s)) as a running product.

    Equal to the generalized binomial coefficient C(n+s, n); always
    positive for s > 0.  The product form keeps full precision for the
    moderate n used throughout (an equivalent log-gamma path is checked
    against it in the tests).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if s <= 0.0:
        raise ValueError(f"s must be positive, got {s}")
    acc = 1.0
    for j in range(1, int(n) + 1):
        acc *= (j + s) / j
    return acc


def jacobi_poly(n, alpha, beta, u):
    """Jacobi polynomial P_n^(alpha,beta)(u) by the three-term recurrence.

    Seeds P_0 = 1 and P_1 = (alpha+1) + (alpha+beta+2)(u-1)/2.  Accepts a
    scalar or ndarray argument u in [-1, 1].
    """
    if n < 0 or n != int(n):
        raise ValueError(f"polynomial degree must be a nonnegative integer, got {n!r}")
    return jacobi_poly_all(int(n), alpha, beta, u)[-1]


def jacobi_poly_all(nmax, alpha, beta, u):
    """All Jacobi polynomials P_0 .. P_nmax at u, stacked along axis 0."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi parameters must exceed -1")
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) > 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    out = np.zeros((nmax + 1,) + u.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (u - 1.0) / 2.0
    for k in range(2, nmax + 1):
        c1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        c2 = (2.0 * k + alpha + beta - 1.0) * (
            (2.0 * k + alpha + beta) * (2.0 * k + alpha + beta - 2.0) * u
            + alpha * alpha - beta * beta
        )
        c3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        out[k] = (c2 * out[k - 1] - c3 * out[k - 2]) / c1
    return out


def bessel_i(nu, x, control=DEFAULT_CONTROL):
    """Modified Bessel function I_nu(x), ascending series.

    I_nu(x) = sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)); all terms are
    positive, so the sum carries no cancellation and is accurate to a few
    ulp over the working range x <= 100.
    """
    if nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - log_gamma(nu + 1.0))
    total = term
    quiet = 0
    for k in range(1, control.max_terms + 1):
        term *= half * half / (k * (nu + k))
        total += term
        if term <= control.rel_tol * max(total, control.underflow_guard):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise ConvergenceError(
        f"I_{nu}({x}) did not converge in {control.max_terms} terms", total
    )


_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _k_cutoff(nu, x):
    """Truncation point of the K_nu(x) integral: residual integrand below ~1e-326."""
    t_max = max(math.asinh(nu / x), 1.0)
    while x * math.cosh(t_max) - nu * t_max < 750.0 and t_max < 120.0:
        t_max += 0.5
    return t_max


def bessel_k(nu, x):
    """Modified Bessel function K_nu(x) for finite x > 0.

    Evaluated from the integral representation (DLMF 10.32.9)

        K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt

    by composite Gauss-Legendre panels whose width tracks the integrand's
    scale (narrow near t = 0 for large x, widening geometrically towards
    the truncation point).  Even in nu by construction, so negative orders
    are accepted.

    A scalar x returns a float; an ndarray x returns an ndarray of its
    shape.  Each element keeps its own truncation point and panels (only
    the panel loop runs across elements), so values are bit-identical to
    scalar calls.  Non-finite nu, or x not finite and > 0, is a ValueError.
    """
    nu = abs(float(nu))
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not (math.isfinite(nu) and np.all(np.isfinite(flat) & (flat > 0.0))):
        raise ValueError(f"need finite nu and finite x > 0, got nu={nu}, x={x}")
    top = np.array([_k_cutoff(nu, xi) for xi in flat.tolist()])
    width = np.minimum(0.5, 1.0 / np.sqrt(1.0 + flat))
    lo, total, neg_x = np.zeros_like(flat), np.zeros_like(flat), -flat
    out = np.empty_like(flat)
    live = np.arange(flat.size)  # top >= 1, so every element has a panel
    while live.size:
        hi = np.minimum(top, lo + width)
        rad = 0.5 * (hi - lo)
        t = rad[:, None] * _GL24_NODES + (0.5 * (lo + hi))[:, None]
        f = _GL24_WEIGHTS * np.exp(neg_x[:, None] * np.cosh(t)) * np.cosh(nu * t)
        total += rad * f.sum(axis=1)
        lo, width, keep = hi, width * 1.4, hi < top
        if not keep.all():  # store and drop the elements that reached their t_max
            out[live[~keep]] = total[~keep]
            live, lo, width, top, neg_x, total = (
                a[keep] for a in (live, lo, width, top, neg_x, total))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def hyp0f1(b, x, control=DEFAULT_CONTROL):
    """Confluent limit function 0F1(; b; x) = sum_k x^k / ((b)_k k!).

    Positive-term series for x >= 0, b > 0; converges factorially fast.
    """
    if b <= 0.0:
        raise ValueError(f"parameter must be > 0, got {b}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    term = 1.0
    total = 1.0
    quiet = 0
    for k in range(1, control.max_terms + 1):
        term *= x / (k * (b + k - 1.0))
        total += term
        if term <= control.rel_tol * max(total, control.underflow_guard):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise ConvergenceError(
        f"0F1({b}; {x}) did not converge in {control.max_terms} terms", total
    )


def jacobi_fn_ss(l, m, n, x, control=DEFAULT_CONTROL):
    """Hyperbolic-argument Jacobi function ss^l_{m,n} evaluated at cosh(2x).

    Computed as

        Gamma(l+n+1) (cosh x)^(2l) *
        sum_{s >= max(0, m-n)} (tanh x)^(n-m+2s) * R(s)
            / [ s! Gamma(n-m+s+1) Gamma(l+m+1-s) ]

    where R(s) = Gamma(l-n+1)/Gamma(l-n-s+1) is accumulated as the running
    product prod_{j=1..s} (l-n+1-j).  Folding that ratio into the series
    keeps the value finite when Gamma(l-n+1) itself sits on a pole, and
    reciprocals of Gamma at non-positive integers contribute exact zeros
    (analytic continuation).  Since |tanh x| < 1 the series converges for
    every admissible index combination; for half-integer index families it
    terminates after finitely many terms.

    Requires m - n integral and x >= 0.
    """
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    diff = m - n
    if abs(diff - round(diff)) > 1e-9:
        raise ValueError(f"m - n must be an integer, got {diff}")
    pref = _gamma_signed(l + n + 1.0) * math.cosh(x) ** (2.0 * l)
    th = math.tanh(x)
    th2 = th * th
    sig0 = max(0, int(round(diff)))
    # first term, assembled directly (sig0 is small in every index family
    # of interest)
    ratio0 = 1.0
    for j in range(1, sig0 + 1):
        ratio0 *= l - n + 1.0 - j
    term = (
        th ** (n - m + 2.0 * sig0)
        * ratio0
        * _inv_gamma(n - m + sig0 + 1.0)
        * _inv_gamma(l + m + 1.0 - sig0)
        * math.exp(-log_gamma(sig0 + 1.0))
    )
    total = term
    quiet = 0
    for sig in range(sig0, sig0 + control.max_terms):
        scale = max(abs(total), control.underflow_guard)
        if abs(term) <= control.rel_tol * scale:
            quiet += 1
            if quiet >= 3:
                return pref * total
        else:
            quiet = 0
        # one multiplicative step keeps every factor O(sig): the Gamma
        # ratio, both reciprocal Gammas (a descending argument crossing a
        # pole pins the term at exactly zero from then on) and the
        # factorial all advance together
        term *= (
            th2
            * (l - n - sig)
            * (l + m - sig)
            / ((n - m + sig + 1.0) * (sig + 1.0))
        )
        total += term
    raise ConvergenceError(
        f"ss^{l}_({m},{n})(cosh 2*{x}) did not converge "
        f"in {control.max_terms} terms",
        pref * total,
    )
