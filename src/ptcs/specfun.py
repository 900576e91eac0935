"""Self-contained double-precision special functions.

Everything the closed-form machinery needs lives here: log-gamma, gamma
ratios, Jacobi polynomials, modified Bessel functions of both kinds, the
confluent limit function 0F1, and the hyperbolic-argument Jacobi function
family that appears in quasi-unitary group representation theory.

No third-party special-function library is used; each routine is plain
series/recurrence/quadrature arithmetic so the test suite can check it
against slow independent oracles.  bessel_i, hyp0f1 and jacobi_fn_ss
give a first term and a term ratio to one series kernel and its stop rule.

All functions are pure and hold no global mutable state.

Both count rules of the package live here, below every other module:
_count for a dim, degree, node count or term budget (3.0 is read as 3)
and _levels for a level index or array.  NaN fails every real bound.
"""

import math
import numbers
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

    Carries the partial sum accumulated so far in ``partial_sum``, the
    number of terms summed (the leading one included) in ``terms_used`` and
    the magnitude of the last of them in ``last_term``.
    """

    def __init__(self, message, partial_sum, terms_used=None, last_term=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms_used = terms_used
        self.last_term = last_term


def _count(value, name, least):
    """value as an int; ValueError naming ``name`` unless it is an integer >= least."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value % 1 == 0):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _levels(n, name="level index"):
    """n as a float, or a level array as floats; ValueError naming ``name`` unless all are integers >= 0."""
    arr = np.asarray(n)
    arr = arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else np.array(math.nan)
    if not np.all(np.isfinite(arr) & (arr >= 0.0) & (arr == np.floor(arr))):
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series.

    A series is stopped once ``|term| <= rel_tol * |partial sum|`` held for
    three consecutive terms after the first (guards against terms that are
    accidentally zero; a partial sum below 1e-300 counts as 1e-300), or
    fails with :class:`ConvergenceError` after ``max_terms`` more terms.
    """

    max_terms: int = 400
    rel_tol: float = 1e-15

    def __post_init__(self):
        object.__setattr__(self, "max_terms", _count(self.max_terms, "max_terms", 1))
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


DEFAULT_CONTROL = SeriesControl()
_UNDERFLOW_GUARD = 1e-300  # floor of |partial sum| in the stop rule

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
    n = _count(n, "n", 0)
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s}")
    acc = 1.0
    for j in range(1, n + 1):
        acc *= (j + s) / j
    return acc


def jacobi_poly(n, alpha, beta, u):
    """Jacobi polynomial P_n^(alpha,beta)(u) by the three-term recurrence.

    Seeds P_0 = 1 and P_1 = (alpha+1) + (alpha+beta+2)(u-1)/2.  Accepts a
    scalar or ndarray argument u in [-1, 1].
    """
    return jacobi_poly_all(_count(n, "n", 0), alpha, beta, u)[-1]


def jacobi_poly_all(nmax, alpha, beta, u):
    """All Jacobi polynomials P_0 .. P_nmax at u, stacked along axis 0.

    The three-term recurrence c1_k P_k = c2_k(u) P_{k-1} - c3_k P_{k-2}
    is built in place: the level scalars are arrays over k, the rows
    2..nmax first hold c2_k(u), and each level then takes four in-place
    passes.  Every value rounds exactly as in the plain per-level form
    (c2 * P_{k-1} - c3 * P_{k-2}) / c1, and the only (nmax+1, *u.shape)
    array allocated is the result.
    """
    nmax = _count(nmax, "nmax", 0)
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError("Jacobi parameters must exceed -1")
    u = np.asarray(u, dtype=float)
    if not np.all(np.abs(u) <= 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (u - 1.0) / 2.0
    k = np.arange(2.0, nmax + 1.0)
    c1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
    c3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
    lead = (2.0 * k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
    shape = (-1,) + (1,) * u.ndim  # a level scalar broadcast against u
    rows = out[2:]
    np.multiply(lead.reshape(shape), u, out=rows)
    rows += alpha * alpha
    rows -= beta * beta
    rows *= (2.0 * k + alpha + beta - 1.0).reshape(shape)
    tmp = np.empty(u.shape)
    for j in range(2, nmax + 1):
        row = out[j, ...]
        row *= out[j - 1, ...]
        np.multiply(out[j - 2, ...], c3[j - 2], out=tmp)
        row -= tmp
        row /= c1[j - 2]
    return out


def _series(first, ratio, control, name, scale=1.0):
    """scale * sum_k t_k, t_0 = first, t_k = t_{k-1} ratio(k), under the SeriesControl stop rule."""
    term = total = first
    quiet = 0
    for k in range(1, control.max_terms + 1):
        term *= ratio(k)
        total += term
        if abs(term) <= control.rel_tol * max(abs(total), _UNDERFLOW_GUARD):
            quiet += 1
            if quiet >= 3:
                return scale * total
        else:
            quiet = 0
    raise ConvergenceError(
        f"{name} did not converge in {control.max_terms} terms", scale * total,
        terms_used=control.max_terms + 1, last_term=abs(scale * term),
    )


def bessel_i(nu, x, control=DEFAULT_CONTROL):
    """Modified Bessel function I_nu(x), ascending series.

    I_nu(x) = sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)); all terms are
    positive, so the sum carries no cancellation and is accurate to a few
    ulp over the working range x <= 100.
    """
    if not nu >= 0.0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if not x >= 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    first = math.exp(nu * math.log(half) - log_gamma(nu + 1.0))
    return _series(first, lambda k: half * half / (k * (nu + k)), control, f"I_{nu}({x})")


_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


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
    # truncation points, where the residual integrand is below ~1e-326: from
    # asinh(nu/x) (at least 1) in steps of 0.5, all elements in one loop
    top = np.maximum([math.asinh(r) for r in (nu / flat).tolist()], 1.0)
    while (short := (flat * np.cosh(top) - nu * top < 750.0) & (top < 120.0)).any():
        np.add(top, 0.5, out=top, where=short)
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
    if not b > 0.0:
        raise ValueError(f"parameter must be > 0, got {b}")
    if not x >= 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    return _series(1.0, lambda k: x / (k * (b + k - 1.0)), control, f"0F1({b}; {x})")


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
    if not x >= 0.0:
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
    first = (
        th ** (n - m + 2.0 * sig0)
        * ratio0
        * _inv_gamma(n - m + sig0 + 1.0)
        * _inv_gamma(l + m + 1.0 - sig0)
        * math.exp(-log_gamma(sig0 + 1.0))
    )

    def ratio(k):
        # one multiplicative step keeps every factor O(sig): the Gamma ratio, both
        # reciprocal Gammas (a descending argument crossing a pole pins the term at
        # exactly zero from then on) and the factorial all advance together
        sig = sig0 + k - 1
        return th2 * (l - n - sig) * (l + m - sig) / ((n - m + sig + 1.0) * (sig + 1.0))

    return _series(first, ratio, control, f"ss^{l}_({m},{n})(cosh 2*{x})", scale=pref)
