"""Independent oracles and integral identity checks.

Everything here recomputes a quantity the closed-form layer already
produces, by a dumber route: the displacement orbit by an actual matrix
exponential, the expansion coefficients by their nested-sum series and by
the hyperbolic Jacobi function, the resolutions of identity by quadrature
against the closed Gamma/Beta forms.  Where the two routes disagree, the
check reports it; nothing here shares code with the path it validates
beyond the elementary special functions.

The nested-sum series runs in exact integer arithmetic at every strength
sum: a float is a dyadic rational, so s = kappa + kappa' = P/Q exactly
with Q = 2^b (Q = 1 for integer s), and the scaled table Q^j pi(k, j) has
integer entries.  Its budget of terms grows with s, because the terms of
the alternating series peak later as the level spacings widen; it stops
growing at its s = 60 value, the largest s it was checked at, so a larger
s fails (ConvergenceError or OverflowError) after bounded work.

The module also adjudicates the radial measure index for the
lowering-eigenstate family: the weight I_s(2r) K_nu(2r) resolves the
identity only when the second index is nu = s = kappa + kappa' (the
moment condition fixes it uniquely); the commonly quoted nu = s/2 fails
by a large margin and both numbers are recorded.
"""

import functools
import math
from itertools import accumulate

import numpy as np

from .operators import StateVector, build_matrices
from .report import VerifyReport
from .specfun import (
    ConvergenceError,
    _count,
    _levels,
    bessel_k,
    gamma_ratio,
    jacobi_fn_ss,
    log_gamma,
)
from .states import (
    GKLabel,
    KPLabel,
    evolve,
    evolve_coefficients,
    gk_annihilation_residual,
    gk_coefficients,
    kp_coefficients,
    kp_from_z,
)

__all__ = [
    "taylor_expm_apply",
    "displacement_oracle",
    "pi_table",
    "cn_series",
    "cn_closed_form",
    "cn_from_jacobi_fn",
    "kp_identity_check",
    "gk_moment_oracle",
    "gk_identity_check",
    "reconstruction_check",
    "run_suite",
    "SUITE_NAMES",
]


def _frobenius(a):
    """Frobenius norm of a complex array, from one vdot."""
    return math.sqrt(np.vdot(a, a).real)


def taylor_expm_apply(matrix, vector, tol=1e-20, max_terms=600):
    """exp(matrix) @ vector by scaling and squaring a Taylor sum.

    The matrix is scaled by 2^-j so its 1-norm is at most one, the Taylor
    series of the scaled exponential is summed from the identity until
    terms vanish, the sum is squared j times and applied to the vector
    once (Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 3).
    Deliberately the simplest provably-convergent scheme: this must stay
    dumber than the closed forms it cross-checks.  A sum or square that
    leaves the float range is an ArithmeticError naming the 1-norm and the
    squaring count; shapes that do not fit, or a 1-norm that is not finite,
    a ValueError.  Term k of a matrix with d nonzero diagonals at offsets
    lo..hi lives on offsets k lo..k hi, so the terms and their sum are kept
    by diagonals, one broadcast product per diagonal: O(d k n) for term k,
    against O(n^3) dense.  Each entry adds the dense product's terms in the
    same order, less exact zeros, so the sum is the dense loop's bit for
    bit when the stop rule (Frobenius norms) ends at the same term.
    """
    max_terms = _count(max_terms, "max_terms", 1)
    m = np.asarray(matrix, dtype=complex)
    v = np.asarray(vector, dtype=complex)
    n = len(m) if m.ndim == 2 and m.shape[0] == m.shape[1] else 0
    if not n or v.ndim not in (1, 2) or len(v) != n:
        raise ValueError(f"not a square matrix and a vector of its size: {m.shape}, {v.shape}")
    with np.errstate(over="ignore"):  # a 1-norm past the float range is inf, refused below
        nrm = float(np.linalg.norm(m, 1))
    if not math.isfinite(nrm):
        raise ValueError(f"matrix 1-norm is not finite: {nrm}")
    j = max(0, int(math.ceil(math.log2(nrm)))) if nrm > 1.0 else 0
    scaled = m / (2.0**j)
    rows, cols = np.nonzero(scaled)
    offsets = np.unique(cols - rows).tolist() or [0]
    bands = [(d, max(-d, 0), n - max(d, 0), np.diagonal(scaled, d)) for d in offsets]  # rows i0:i1
    term, lo = np.ones((1, n), dtype=complex), 0  # term[e - lo, r] = (scaled^k / k!)[r, r + e]
    acc, alo = term.copy(), 0  # the sum, stored as term is, over the union of the offsets
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(1, max_terms + 1):
                ends = (lo + offsets[0], lo + len(term) - 1 + offsets[-1])
                new_lo, new_hi = (min(max(e, 1 - n), n - 1) for e in ends)
                new = np.zeros((new_hi - new_lo + 1, n), dtype=complex)
                for d, i0, i1, band in bands:  # (i, i+d+e) gains scaled[i, i+d] * term[i+d, i+d+e]
                    e0, e1 = max(lo, new_lo - d), min(lo + len(term), new_hi + 1 - d)
                    if e0 < e1:
                        prod = band * term[e0 - lo : e1 - lo, i0 + d : i1 + d]
                        new[e0 + d - new_lo : e1 + d - new_lo, i0:i1] += prod
                new *= 1.0 / k  # what numpy's complex / k computes, without the copy
                term, lo = new, new_lo
                glo, ghi = min(alo, lo), max(alo + len(acc), lo + len(term))
                if (glo, ghi) != (alo, alo + len(acc)):
                    grown = np.zeros((ghi - glo, n), dtype=complex)
                    grown[alo - glo : alo - glo + len(acc)] = acc
                    acc, alo = grown, glo
                acc[lo - alo : lo - alo + len(term)] += term
                converged = _frobenius(term) <= tol * _frobenius(acc)
                if converged:
                    break
            dense = np.zeros((n, n), dtype=complex)
            flat = dense.reshape(-1)  # sum[r, r + e] is flat[r (n + 1) + e]
            for e, row in enumerate(acc, alo):
                flat[max(e, -e * n) :: n + 1][: n - abs(e)] = row[max(-e, 0) : n - max(e, 0)]
            if not converged:
                raise ConvergenceError(
                    f"Taylor exponential did not converge in {max_terms} terms", dense,
                    terms_used=max_terms + 1, last_term=_frobenius(term),
                )
            for _ in range(j):
                dense = dense @ dense
            return dense @ v
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"Taylor exponential left the float range ({exc}): "
            f"generator 1-norm {nrm:.6g}, {j} squarings"
        ) from exc


def displacement_oracle(params, z, dim):
    """Ground-state orbit of exp(z a+ - conj(z) a-), by matrix exponential.

    This is the defining construction of the displacement family, built
    without any closed form: it validates the disc-coordinate expansion
    coefficient by coefficient.  The returned state records
    |last coefficient|^2 plus the norm deficit as its truncation sentinel.
    """
    z = complex(z)
    if dim < 4.0 * abs(z) ** 2 + 40.0:
        raise ValueError(
            f"dim = {dim} too small for |z| = {abs(z)} (need >= 4|z|^2 + 40)"
        )
    ops = build_matrices(params, dim)
    generator = z * ops.a_plus.entries - np.conj(z) * ops.a_minus.entries
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    v = taylor_expm_apply(generator, e0)
    sentinel = float(abs(v[-1]) ** 2 + abs(np.vdot(v, v).real - 1.0))
    return StateVector(v, params, tail_bound=sentinel)


def _energies(params, count):
    """Q e_i = i(iQ + P) for 0 <= i < count, exact integers; s = P/Q with Q = 2^b."""
    p, q = float(params.strength_sum).as_integer_ratio()
    return [i * (i * q + p) for i in range(count)]


def _series_budget(params):
    """j_max for c_n at n <= 8, |z| <= 0.9: covers the stop index up to s = 60 by >= 12.

    Capped at its s = 60 value, so a larger s fails after bounded work.
    """
    return min(64 + 3 * math.ceil(params.strength_sum), 244)


def pi_table(params, n_max, j_max):
    """Nested-sum table Q^j pi(k, j) for 1 <= k <= n_max + 2, 0 <= j <= j_max.

    pi(k, j) = sum_{i=1..k} e_i * pi(i+1, j-1), pi(k, 0) = 1.  With
    s = kappa + kappa' = P/Q read exactly from the float (Q a power of
    two), Q e_i = i(iQ + P) is an integer, so every entry Q^j pi(k, j) is
    an exact Python integer (arbitrary precision); for integer s, Q = 1
    and the entries are pi(k, j) itself.  The difference identity

        pi(n+1, j) - pi(n, j) = e_{n+1} pi(n+2, j-1)

    therefore holds with zero tolerance at every s, scaled by Q^j.
    """
    n_max, j_max = _count(n_max, "n_max", 0), _count(j_max, "j_max", 0)
    top = n_max + 2 + j_max  # level j needs rows k <= top - j to feed level j + 1
    e = _energies(params, top)
    level = [1] * (top + 1)  # level[k] = Q^j pi(k, j); slot 0 unused
    table = {}
    for j in range(j_max + 1):
        if j:
            terms = (e[k] * level[k + 1] for k in range(1, top - j + 1))
            level = list(accumulate(terms, initial=0))
        table.update(((k, j), level[k]) for k in range(1, n_max + 3))
    return table


def _check_zmod(zmod):
    """The one domain of |z| for the three c_n routes: finite and >= 0."""
    if not 0.0 <= zmod < math.inf:
        raise ValueError(f"zmod must be finite and >= 0, got {zmod}")


def cn_series(params, n, zmod, j_max, table=None):
    """Expansion coefficient c_n(|z|) from its alternating nested-sum series.

    c_n = sum_j (-|z|^2)^j pi(n+1, j) / (n+2j)!, summed exactly: with
    |z| = p/q read exactly from the float and the table holding
    Q^j pi(k, j) (see pi_table), the sum is one integer numerator over
    the running denominator q^(2j) Q^j (n+2j)!, never reduced, and each
    float is one correctly rounded integer division, so the alternating
    cancellation costs no precision.  Raises ConvergenceError if j_max
    leaves the last term above the convergence threshold.  ``table`` may
    be a pi_table for the same strength sum (Q e_1 and Q (e_1 + e_2) are
    checked), n_max >= n and the same j_max; by default one is built.  A
    step costs a few big-integer products, and its two divisions are skipped
    where bit lengths prove the stop test fails (the term above 2^-50 of the
    sum, and within 2^-1000..2^901 once divided); the last step always
    tests, so values and errors are those of testing every step.
    """
    n = _count(n, "n", 0)
    _check_zmod(zmod)
    if table is None:
        table = pi_table(params, n, j_max)
    elif (n + 1, j_max) not in table:
        raise ValueError(f"table lacks pi({n + 1}, {j_max}); need n_max >= {n}, j_max = {j_max}")
    elif j_max and [table[(1, 1)], table[(2, 1)]] != list(accumulate(_energies(params, 3)[1:])):
        raise ValueError(f"table was built for another strength sum than s = {params.strength_sum}")
    (p, q), s_den = float(zmod).as_integer_ratio(), float(params.strength_sum).as_integer_ratio()[1]
    num, den, power = 0, math.factorial(n), 1  # sum so far is num / den
    for j in range(j_max + 1):
        top = (-power if j % 2 else power) * table[(n + 1, j)]
        num += top
        bits = top.bit_length()  # the bit lengths that prove the test fails (see above)
        doomed = top and bits > num.bit_length() - 50 and -900 < den.bit_length() - bits < 1000
        if j == j_max or not doomed:
            total, last = num / den, abs(top / den)
            if last <= 1e-16 * max(abs(total), 1e-300):
                return total
        step = q * q * s_den * (n + 2 * j + 1) * (n + 2 * j + 2)
        power, num, den = power * p * p, num * step, den * step
    raise ConvergenceError(
        f"series for c_{n}({zmod}) still has significant terms at j_max = {j_max}", total,
        terms_used=j_max + 1, last_term=last,
    )


def cn_closed_form(params, n, zmod):
    """Elementary form c_n = cosh^{-(s+1)}(|z|) (tanh|z|/|z|)^n / n!.

    At zmod = 0 the limit tanh(z)/z -> 1 gives c_n(0) = 1/n!.
    """
    _check_zmod(zmod)
    s = params.strength_sum
    if zmod == 0.0:
        return 1.0 / math.exp(log_gamma(n + 1.0))
    return (
        math.cosh(zmod) ** (-(s + 1.0))
        * (math.tanh(zmod) / zmod) ** n
        / math.exp(log_gamma(n + 1.0))
    )


def cn_from_jacobi_fn(params, n, zmod):
    """c_n recovered from the hyperbolic Jacobi function route.

    c_n = ss^{-(s+1)/2}_{(s+1)/2, n+(s+1)/2}(cosh 2|z|) / (n! |z|^n);
    the removable zmod = 0 singularity is replaced by its limit 1/n!.
    """
    _check_zmod(zmod)
    s = params.strength_sum
    if zmod == 0.0:
        return 1.0 / math.exp(log_gamma(n + 1.0))
    half = (s + 1.0) / 2.0
    val = jacobi_fn_ss(-half, half, n + half, zmod)
    return val / (math.exp(log_gamma(n + 1.0)) * zmod**n)


_GL30_NODES, _GL30_WEIGHTS = np.polynomial.legendre.leggauss(30)


def _gl_panels(lo, hi, n_nodes):
    """Composite 30-node Gauss-Legendre nodes/weights over [lo, hi]."""
    n_nodes = _count(n_nodes, "radial_nodes", 1)
    edges = np.linspace(lo, hi, int(math.ceil(n_nodes / 30)) + 1)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (half * _GL30_NODES + 0.5 * (a + b)).ravel(), (half * _GL30_WEIGHTS).ravel()


def kp_identity_check(params, trunc_levels=20, radial_nodes=200):
    """Resolution of identity for the displacement family.

    The angular integral kills off-diagonal matrix elements exactly, so
    the check reduces to the radial moments: with the invariant disc
    measure (s/pi) d^2 zeta / (1-|zeta|^2)^2 and the substitution
    u = |zeta|^2, the diagonal moment of level n is

        M_nn = s C(n+s,n) int_0^1 u^n (1-u)^(s-1) du,

    evaluated here for all levels n <= trunc_levels in one quadrature
    product, while the Beta-integral reduction gives M_nn = 1
    identically (companion exact path, also reported).
    """
    trunc_levels = _count(trunc_levels, "trunc_levels", 0)
    if trunc_levels > 20:
        raise ValueError(f"trunc_levels must be <= 20, got {trunc_levels}")
    s = params.strength_sum
    u, w = _gl_panels(0.0, 1.0, radial_nodes)
    n = np.arange(trunc_levels + 1.0)
    norm = s * np.array([gamma_ratio(k, s) for k in n])
    numeric = norm * (u ** n[:, None] @ (w * (1.0 - u) ** (s - 1.0)))
    exact = norm * np.exp(log_gamma(n + 1.0) + log_gamma(s) - log_gamma(n + 1.0 + s))
    return VerifyReport(
        check_name="kp-identity",
        max_deviation=float(np.max(np.abs(numeric - 1.0))),
        tolerance=1e-6,
        details={
            "exact_path_deviation": float(np.max(np.abs(exact - 1.0))),
            "levels": float(trunc_levels),
        },
    )


def gk_moment_oracle(params, n, nu, radial_nodes=200):
    """Radial moment ratio for the lowering-eigenstate measure.

    Evaluates 4 int_0^inf r^(2n+s+1) K_nu(2r) dr / (n! Gamma(n+s+1)) by
    composite quadrature with the tail truncated where the integrand has
    decayed below 1e-18 of its peak.  The measure resolves the identity
    at level n exactly when this ratio is 1.  ``n`` may be a 1-d array
    of levels (an array result): the top level sets the cutoff and all
    share one node set and one K_nu evaluation, so the top element equals
    the scalar call bit for bit.  Integrated in the linear domain, it
    leaves the float range at high n (70 at s = 4): an ArithmeticError naming n, nu, s.
    """
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, got {nu}")
    ns = np.ravel(n).tolist()
    if np.ndim(_levels(n, "n")) > 1 or not ns:
        raise ValueError(f"n must be a nonnegative integer or a 1-d array of them, got {n!r}")
    s = params.strength_sum
    mu = 2.0 * max(ns) + s + 2.0  # top moment order in t = 2r
    peak_log = (mu - 1.5) * math.log(max(mu - 1.5, 1.0)) - (mu - 1.5)
    # cutoffs mu + 30, + 20, ... up to the first past 1200, tried in one
    # bessel_k call; the first where the integrand has decayed wins
    cands = [mu + 30.0]
    while cands[-1] < 1200.0:
        cands.append(cands[-1] + 20.0)
    excess = [
        (mu - 1.0) * math.log(t) + math.log(max(k, 1e-320)) - peak_log
        for t, k in zip(cands, bessel_k(nu, np.array(cands)).tolist())
    ]
    i = next((i for i, e in enumerate(excess) if e <= math.log(1e-18)), len(cands) - 1)
    t_max = cands[i]
    if excess[i] > math.log(1e-16):
        # the cutoffs tried, and the integrand at the last one relative to its peak
        raise ConvergenceError(
            "radial tail still significant at cutoff", t_max, terms_used=len(cands),
            last_term=math.exp(excess[i]) if excess[i] < 709.0 else math.inf,
        )
    t, w = _gl_panels(0.0, t_max, radial_nodes)
    k = bessel_k(nu, t)
    ratios = []
    for m in ns:
        mu_m = 2.0 * m + s + 2.0
        log_ref = log_gamma(m + 1.0) + log_gamma(m + s + 1.0) + (2.0 * m + s) * math.log(2.0)
        try:
            with np.errstate(over="raise"):
                ratios.append(float(np.sum(w * t ** (mu_m - 1.0) * k)) / math.exp(log_ref))
        except (FloatingPointError, OverflowError) as exc:
            msg = f"radial moment left the float range ({exc}) at n = {m}, nu = {nu}, s = {s}"
            raise ArithmeticError(msg) from exc
    return ratios[0] if np.ndim(n) == 0 else np.array(ratios)


def gk_identity_check(params, trunc_levels=10, radial_nodes=200):
    """Resolution of identity for the lowering-eigenstate family.

    Diagonal moments with the adjudicated index nu = s must all be 1;
    off-diagonals vanish exactly by angular integration.  The halved
    index that is sometimes quoted for this measure is evaluated at n = 0
    and recorded in the details as a failing companion value.
    """
    trunc_levels = _count(trunc_levels, "trunc_levels", 0)
    s = params.strength_sum
    moments = gk_moment_oracle(params, np.arange(trunc_levels + 1), s, radial_nodes)
    halved = gk_moment_oracle(params, 0, s / 2.0, radial_nodes)
    return VerifyReport(
        check_name="gk-identity",
        max_deviation=float(np.max(np.abs(moments - 1.0))),
        tolerance=1e-6,
        details={
            "levels": float(trunc_levels),
            "halved_index_ratio_n0": halved,
            "halved_index_deviation": abs(halved - 1.0),
        },
    )


def reconstruction_check(params, f, alpha, radial_nodes=200, angular_nodes=64):
    """Reconstruct |f> from its disc transform by 2-d quadrature.

    |f> = int f(zeta, zeta-bar) |zeta, alpha> dmu(zeta) with the invariant
    measure; the integral is done honestly over modulus and angle (no
    analytic shortcut), so it exercises the transform's phases as well as
    the radial moments.  The members |zeta, alpha> at every (modulus,
    angle) node are a radial table (nodes x dim) times the angular
    phases, so the transform and the resynthesis are two matrix products.
    Reports the worst coefficient deviation.
    """
    angular_nodes = _count(angular_nodes, "angular_nodes", 1)
    dim = f.dim
    s = params.strength_sum
    u, wu = _gl_panels(0.0, 1.0, radial_nodes)
    phi = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    wphi = 2.0 * math.pi / angular_nodes
    n = np.arange(dim, dtype=float)
    base = np.sqrt(np.array([gamma_ratio(int(k), s) for k in n])) * np.exp(
        -1j * alpha * n * (n + s)
    )
    angular = np.exp(1j * np.outer(n, phi))  # e^{i n phi_j}
    # radial[i, n]: member coefficient n at modulus node i, angle 0
    radial = ((1.0 - u) ** ((s + 1.0) / 2.0))[:, None] * base * np.sqrt(u)[:, None] ** n
    fvals = (radial.conj() * f.coeffs) @ angular.conj()  # transform at each (modulus, angle)
    weights = wphi * wu / (1.0 - u) ** 2
    recon = weights @ (radial * (fvals @ angular.T))
    recon *= s / (2.0 * math.pi)  # d^2 zeta = rho drho dphi = du dphi / 2
    dev = float(np.max(np.abs(recon - f.coeffs)))
    return VerifyReport(
        check_name="kp-reconstruction",
        max_deviation=dev,
        tolerance=1e-6,
        details={"dim": float(dim), "alpha": float(alpha)},
    )


# ---------------------------------------------------------------------------
# named check suite (deterministic order, one report each)
# ---------------------------------------------------------------------------


def _check_displacement(params, dim=120):
    worst = tail = 0.0
    for z in (0.2 + 0j, 0.5 + 0.4j, 1.0j):
        oracle = displacement_oracle(params, z, dim)
        closed = kp_from_z(params, z, params.alpha, dim)
        worst = max(worst, float(np.max(np.abs(oracle.coeffs - closed.coeffs))))
        tail = max(tail, closed.tail_bound)  # the closed form's own truncation at this dim
    return VerifyReport(
        check_name="displacement-equivalence",
        max_deviation=worst,
        tolerance=1e-8,
        details={"dim": float(dim), "closed_tail_bound": tail},
    )


def _check_cn_triple(params, table):
    j_max = _series_budget(params)
    worst = 0.0
    for n in range(0, 9):
        for zmod in (0.1, 0.4, 0.9):
            series = cn_series(params, n, zmod, j_max, table)
            closed = cn_closed_form(params, n, zmod)
            jfn = cn_from_jacobi_fn(params, n, zmod)
            scale = max(abs(closed), 1e-300)
            worst = max(
                worst,
                abs(series - closed) / scale,
                abs(jfn - closed) / scale,
                abs(series - jfn) / scale,
            )
    return VerifyReport(
        check_name="cn-triple-agreement",
        max_deviation=worst,
        tolerance=1e-10,
        details={"n_max": 8.0, "j_max": float(j_max)},
    )


def _check_pi_recursion(params, n_max=10, j_max=5):
    table = pi_table(params, n_max, j_max)
    e = _energies(params, n_max + 3)
    mismatch = any(
        table[(n + 1, j)] - table[(n, j)] != e[n + 1] * table[(n + 2, j - 1)]
        for n in range(1, n_max + 1)
        for j in range(1, j_max + 1)
    )
    return VerifyReport(check_name="pi-recursion", max_deviation=float(mismatch), tolerance=0.0)


def _check_cn_ode(params, table, zmod=0.5, n_max=6):
    """|z| c_n' = c_{n-1} - n c_n - (n+1)(n+1+s) |z|^2 c_{n+1}, via 5-point stencil."""
    s = params.strength_sum
    h = 1e-3
    j_max = _series_budget(params)

    @functools.cache  # the stencil and the three levels share points
    def c(k, r):
        return cn_series(params, k, r, j_max, table)

    worst = 0.0
    for n in range(0, n_max + 1):
        deriv = (
            -c(n, zmod + 2 * h) + 8 * c(n, zmod + h) - 8 * c(n, zmod - h) + c(n, zmod - 2 * h)
        ) / (12.0 * h)
        lower = c(n - 1, zmod) if n >= 1 else 0.0
        rhs = lower - n * c(n, zmod) - (n + 1.0) * (n + 1.0 + s) * zmod * zmod * c(n + 1, zmod)
        worst = max(worst, abs(zmod * deriv - rhs))
    return VerifyReport(
        check_name="cn-ode",
        max_deviation=worst,
        tolerance=1e-6,
        details={"zmod": zmod, "n_max": float(n_max), "j_max": float(j_max)},
    )


def _check_gk_measure_index(identity):
    good = identity.max_deviation
    bad = identity.details["halved_index_deviation"]
    # pass means: correct index resolves the moments AND the halved index
    # visibly does not
    deviation = good if bad > 0.10 else 1.0
    return VerifyReport(
        check_name="gk-measure-index",
        max_deviation=deviation,
        tolerance=1e-6,
        details={
            "index_full_worst": good,
            "index_halved_deviation_n0": bad,
        },
    )


def _check_gk_action(params, dim=120):
    worst = 0.0
    resid_worst = 0.0
    ops = build_matrices(params, dim)  # the labels share params.alpha
    for zmod in (0.5, 1.5, 3.0):
        label = GKLabel(z=zmod, alpha=params.alpha)
        state = gk_coefficients(params, label, dim)
        mean_h = np.vdot(state.coeffs, ops.h.apply(state.coeffs)).real
        worst = max(worst, abs(mean_h - zmod * zmod))
        resid_worst = max(resid_worst, gk_annihilation_residual(params, label, dim))
    # two gates: <H> - |z|^2 at 1e-8, eigen-residual at 1e-10; the reported
    # deviation is the worse of the two measured against its own gate
    return VerifyReport(
        check_name="gk-action",
        max_deviation=max(worst / 1e-8, resid_worst / 1e-10),
        tolerance=1.0,
        details={"mean_h_worst": worst, "eigen_residual_worst": resid_worst},
    )


def _check_temporal_stability(params, dim=80):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        t = float(rng.uniform(0.1, 2.0))
        zeta = complex(*(0.5 * rng.uniform(-1, 1, 2)))
        kp_label = KPLabel(zeta=zeta, alpha=params.alpha)
        relabeled = kp_coefficients(params, evolve(kp_label, t), dim)
        evolved = evolve_coefficients(kp_coefficients(params, kp_label, dim), t)
        worst = max(worst, float(np.max(np.abs(relabeled.coeffs - evolved.coeffs))))
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        gk_label = GKLabel(z=z, alpha=params.alpha)
        relabeled = gk_coefficients(params, evolve(gk_label, t), dim)
        evolved = evolve_coefficients(gk_coefficients(params, gk_label, dim), t)
        worst = max(worst, float(np.max(np.abs(relabeled.coeffs - evolved.coeffs))))
    return VerifyReport(
        check_name="temporal-stability",
        max_deviation=worst,
        tolerance=1e-12,
        details={"pairs": 5.0, "dim": float(dim)},
    )


def _check_reconstruction(params, dim=12):
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[0] = 1.0 / math.sqrt(2.0)
    coeffs[3] = 1.0 / math.sqrt(2.0)
    f = StateVector(coeffs, params)
    return reconstruction_check(params, f, params.alpha)


def _cn_table(params):
    """The pi_table to n_max = 8 that both c_n checks read."""
    return pi_table(params, 8, _series_budget(params))


# each check gets params and shared(f) = f(params), made at most once per run_suite call
_SUITE = (
    ("displacement-equivalence", lambda params, shared: _check_displacement(params)),
    ("cn-triple-agreement", lambda params, shared: _check_cn_triple(params, shared(_cn_table))),
    ("pi-recursion", lambda params, shared: _check_pi_recursion(params)),
    ("cn-ode", lambda params, shared: _check_cn_ode(params, shared(_cn_table))),
    ("kp-identity", lambda params, shared: kp_identity_check(params)),
    ("kp-reconstruction", lambda params, shared: _check_reconstruction(params)),
    ("gk-measure-index", lambda params, shared: _check_gk_measure_index(shared(gk_identity_check))),
    ("gk-identity", lambda params, shared: shared(gk_identity_check)),
    ("gk-action", lambda params, shared: _check_gk_action(params)),
    ("temporal-stability", lambda params, shared: _check_temporal_stability(params)),
)

SUITE_NAMES = tuple(name for name, _ in _SUITE)


def run_suite(params, names=None):
    """Run the named checks (all of them by default), in a fixed order."""
    names = SUITE_NAMES if names is None else tuple(names)
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown check name(s) {unknown}; valid names: {list(SUITE_NAMES)}")
    shared = functools.cache(lambda make: make(params))  # dropped when this call returns
    return [check(params, shared) for name, check in _SUITE if name in names]
