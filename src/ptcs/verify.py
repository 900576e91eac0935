"""Independent oracles and integral identity checks.

Everything here recomputes a quantity the closed-form layer already
produces, by a dumber route: the displacement orbit by an actual matrix
exponential, the expansion coefficients by their nested-sum series and by
the hyperbolic Jacobi function, the resolutions of identity by quadrature
against the closed Gamma/Beta forms.  Where the two routes disagree, the
check reports it; nothing here shares code with the path it validates
beyond the elementary special functions.

The module also adjudicates the radial measure index for the
lowering-eigenstate family: the weight I_s(2r) K_nu(2r) resolves the
identity only when the second index is nu = s = kappa + kappa' (the
moment condition fixes it uniquely); the commonly quoted nu = s/2 fails
by a large margin and both numbers are recorded.
"""

import functools
import math

import numpy as np

from .operators import StateVector, build_matrices
from .report import VerifyReport
from .specfun import (
    ConvergenceError,
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


def taylor_expm_apply(matrix, vector, tol=1e-20, max_terms=600):
    """exp(matrix) @ vector by scaling and squaring a Taylor sum.

    The matrix is scaled by 2^-j so its 1-norm is at most one, the Taylor
    series of the scaled exponential is summed from the identity until
    terms vanish, the sum is squared j times and applied to the vector
    once (Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 3).
    Deliberately the simplest provably-convergent scheme: this must stay
    dumber than the closed forms it cross-checks.
    """
    m = np.asarray(matrix, dtype=complex)
    nrm = float(np.linalg.norm(m, 1))
    j = max(0, int(math.ceil(math.log2(nrm)))) if nrm > 1.0 else 0
    scaled = m / (2.0**j)
    acc = np.eye(m.shape[0], dtype=complex)
    term = acc.copy()
    for k in range(1, max_terms + 1):
        term = scaled @ term / k
        acc += term
        if np.linalg.norm(term) <= tol * np.linalg.norm(acc):
            break
    else:
        raise ConvergenceError(
            f"Taylor exponential did not converge in {max_terms} terms", acc
        )
    for _ in range(j):
        acc = acc @ acc
    return acc @ np.asarray(vector, dtype=complex)


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
    return StateVector(v, params, tail_bound=sentinel, under_truncated=sentinel > 1e-10)


def _energies(params, count):
    s = params.strength_sum
    if float(s).is_integer():
        si = int(s)
        return [i * (i + si) for i in range(count)]
    return [float(i) * (i + s) for i in range(count)]


def pi_table(params, n_max, j_max):
    """Nested-sum table pi(k, j) for 1 <= k <= n_max + 2, 0 <= j <= j_max.

    pi(k, j) = sum_{i=1..k} e_i * pi(i+1, j-1), pi(k, 0) = 1.  When
    kappa + kappa' is an integer every entry is an exact Python integer
    (arbitrary precision), so the difference identity

        pi(n+1, j) - pi(n, j) = e_{n+1} pi(n+2, j-1)

    can be asserted with zero tolerance.
    """
    if n_max < 0 or j_max < 0:
        raise ValueError("n_max and j_max must be >= 0")
    k_top = n_max + 2 + 2 * j_max + 2  # deeper indices feed lower j levels
    e = _energies(params, k_top + 2)
    exact = float(params.strength_sum).is_integer()
    one = 1 if exact else 1.0
    prev = {k: one for k in range(1, k_top + 2)}
    table = {(k, 0): one for k in range(1, n_max + 3)}
    for j in range(1, j_max + 1):
        cur = {}
        running = 0 if exact else 0.0
        for k in range(1, k_top + 2 - 2 * j):
            running = running + e[k] * prev[k + 1]
            cur[k] = running
        for k in range(1, n_max + 3):
            if k in cur:
                table[(k, j)] = cur[k]
        prev = cur
    return table


def cn_series(params, n, zmod, j_max, table=None):
    """Expansion coefficient c_n(|z|) from its alternating nested-sum series.

    c_n = sum_j (-|z|^2)^j pi(n+1, j) / (n+2j)!.  For integer
    kappa + kappa' the sum is exact: with |z| = p/q read exactly from the
    float, it is one integer numerator over the running denominator
    q^(2j) (n+2j)!, never reduced, and each float is one correctly rounded
    integer division, so the alternating cancellation costs no precision;
    otherwise floats are used.  Raises ConvergenceError if j_max leaves
    the last term above the convergence threshold.  ``table`` may be a
    pi_table for the same params with n_max >= n and the same j_max,
    shared between calls; by default one is built here.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if zmod < 0.0:
        raise ValueError(f"zmod must be >= 0, got {zmod}")
    if table is None:
        table = pi_table(params, n, j_max)
    elif (n + 1, j_max) not in table:
        raise ValueError(f"table lacks pi({n + 1}, {j_max}); need n_max >= {n}, j_max = {j_max}")
    exact = float(params.strength_sum).is_integer()
    if exact:
        p, q = float(zmod).as_integer_ratio()
        num, den, power = 0, math.factorial(n), 1  # sum so far is num / den
    total = 0.0
    for j in range(j_max + 1):
        pi_val = table[(n + 1, j)]
        if exact:
            top = (-power if j % 2 else power) * pi_val
            num += top
            mag, total = abs(top / den), num / den
            step = q * q * (n + 2 * j + 1) * (n + 2 * j + 2)
            power, num, den = power * p * p, num * step, den * step
        else:
            term = (
                (-(zmod * zmod)) ** j
                * pi_val
                * math.exp(-log_gamma(n + 2 * j + 1.0))
            )
            total += term
            mag = abs(term)
        if mag <= 1e-16 * max(abs(total), 1e-300):
            return total
    raise ConvergenceError(
        f"series for c_{n}({zmod}) still has significant terms at j_max = {j_max}", total
    )


def cn_closed_form(params, n, zmod):
    """Elementary form c_n = cosh^{-(s+1)}(|z|) (tanh|z|/|z|)^n / n!.

    At zmod = 0 the limit tanh(z)/z -> 1 gives c_n(0) = 1/n!.
    """
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
    s = params.strength_sum
    if zmod == 0.0:
        return 1.0 / math.exp(log_gamma(n + 1.0))
    half = (s + 1.0) / 2.0
    val = jacobi_fn_ss(-half, half, n + half, zmod)
    return val / (math.exp(log_gamma(n + 1.0)) * zmod**n)


def _gl_panels(lo, hi, n_nodes, order=30):
    """Composite Gauss-Legendre nodes/weights over [lo, hi]."""
    n_panels = max(1, int(math.ceil(n_nodes / order)))
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * base_x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def kp_identity_check(params, alpha, trunc_levels=20, radial_nodes=200):
    """Resolution of identity for the displacement family.

    The angular integral kills off-diagonal matrix elements exactly, so
    the check reduces to the radial moments: with the invariant disc
    measure (s/pi) d^2 zeta / (1-|zeta|^2)^2 and the substitution
    u = |zeta|^2, the diagonal moment of level n is

        M_nn = s C(n+s,n) int_0^1 u^n (1-u)^(s-1) du,

    evaluated here by quadrature, while the Beta-integral reduction gives
    M_nn = 1 identically (companion exact path, also reported).
    """
    if trunc_levels > 20:
        raise ValueError("trunc_levels capped at 20")
    s = params.strength_sum
    u, w = _gl_panels(0.0, 1.0, radial_nodes)
    worst_numeric = 0.0
    worst_exact = 0.0
    for n in range(trunc_levels + 1):
        g_n = gamma_ratio(n, s)
        numeric = s * g_n * float(np.sum(w * u**n * (1.0 - u) ** (s - 1.0)))
        exact = s * g_n * math.exp(
            log_gamma(n + 1.0) + log_gamma(s) - log_gamma(n + 1.0 + s)
        )
        worst_numeric = max(worst_numeric, abs(numeric - 1.0))
        worst_exact = max(worst_exact, abs(exact - 1.0))
    return VerifyReport(
        check_name="kp-identity",
        max_deviation=worst_numeric,
        tolerance=1e-6,
        details={
            "exact_path_deviation": worst_exact,
            "levels": float(trunc_levels),
            "alpha": float(alpha),
            "off_diagonal": 0.0,  # vanishes exactly by angular integration
        },
    )


def gk_moment_oracle(params, n, nu, radial_nodes=200):
    """Radial moment ratio for the lowering-eigenstate measure.

    Evaluates 4 int_0^inf r^(2n+s+1) K_nu(2r) dr / (n! Gamma(n+s+1)) by
    composite quadrature with the tail truncated where the integrand has
    decayed below 1e-18 of its peak.  The measure resolves the identity
    at level n exactly when this ratio is 1.
    """
    if nu <= 0.0:
        raise ValueError(f"nu must be > 0, got {nu}")
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    s = params.strength_sum
    mu = 2.0 * n + s + 2.0  # moment order in t = 2r
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
        raise ConvergenceError("radial tail still significant at cutoff", t_max)
    t, w = _gl_panels(0.0, t_max, radial_nodes)
    integral = float(np.sum(w * t ** (mu - 1.0) * bessel_k(nu, t)))
    log_ref = log_gamma(n + 1.0) + log_gamma(n + s + 1.0) + (2.0 * n + s) * math.log(2.0)
    return integral / math.exp(log_ref)


def _moment_memo(params, radial_nodes=200):
    """(n, nu) -> gk_moment_oracle(params, n, nu, radial_nodes), each computed once."""
    return functools.cache(lambda n, nu: gk_moment_oracle(params, n, nu, radial_nodes))


def gk_identity_check(params, alpha, trunc_levels=10, radial_nodes=200, moment=None):
    """Resolution of identity for the lowering-eigenstate family.

    Diagonal moments with the adjudicated index nu = s must all be 1;
    off-diagonals vanish exactly by angular integration.  The halved
    index that is sometimes quoted for this measure is evaluated at n = 0
    and recorded in the details as a failing companion value.  ``moment``
    may be a shared _moment_memo at the same radial_nodes.
    """
    s = params.strength_sum
    moment = moment or _moment_memo(params, radial_nodes)
    worst = 0.0
    for n in range(trunc_levels + 1):
        worst = max(worst, abs(moment(n, s) - 1.0))
    halved = moment(0, s / 2.0)
    return VerifyReport(
        check_name="gk-identity",
        max_deviation=worst,
        tolerance=1e-6,
        details={
            "levels": float(trunc_levels),
            "alpha": float(alpha),
            "halved_index_ratio_n0": halved,
            "halved_index_deviation": abs(halved - 1.0),
            "off_diagonal": 0.0,
        },
    )


def reconstruction_check(params, f, alpha, radial_nodes=200, angular_nodes=64):
    """Reconstruct |f> from its disc transform by 2-d quadrature.

    |f> = int f(zeta, zeta-bar) |zeta, alpha> dmu(zeta) with the invariant
    measure; the integral is done honestly over modulus and angle (no
    analytic shortcut), so it exercises the transform's phases as well as
    the radial moments.  Reports the worst coefficient deviation.
    """
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
    recon = np.zeros(dim, dtype=complex)
    for ui, wui in zip(u, wu):
        pref = (1.0 - ui) ** ((s + 1.0) / 2.0)
        radial = pref * base * math.sqrt(ui) ** n
        members = radial[:, None] * angular  # coefficient vectors, one per angle
        fvals = members.conj().T @ f.coeffs  # transform values at each angle
        recon += (members @ fvals) * (wphi * wui / (1.0 - ui) ** 2)
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
    worst = 0.0
    for z in (0.2 + 0j, 0.5 + 0.4j, 1.0j):
        oracle = displacement_oracle(params, z, dim)
        closed = kp_from_z(params, z, params.alpha, dim)
        worst = max(worst, float(np.max(np.abs(oracle.coeffs - closed.coeffs))))
    return VerifyReport(
        check_name="displacement-equivalence",
        max_deviation=worst,
        tolerance=1e-8,
        details={"dim": float(dim)},
    )


def _check_cn_triple(params):
    table = pi_table(params, 8, 80)
    worst = 0.0
    for n in range(0, 9):
        for zmod in (0.1, 0.4, 0.9):
            series = cn_series(params, n, zmod, 80, table)
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
        details={"n_max": 8.0},
    )


def _check_pi_recursion(params, n_max=10, j_max=5):
    table = pi_table(params, n_max, j_max)
    exact = float(params.strength_sum).is_integer()
    e = _energies(params, n_max + 3)
    worst = 0.0
    for n in range(1, n_max + 1):
        for j in range(1, j_max + 1):
            lhs = table[(n + 1, j)] - table[(n, j)]
            rhs = e[n + 1] * table[(n + 2, j - 1)]
            if exact:
                worst = max(worst, 0.0 if lhs == rhs else 1.0)
            else:
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return VerifyReport(
        check_name="pi-recursion",
        max_deviation=worst,
        tolerance=0.0 if exact else 1e-12,
        details={"exact_arithmetic": float(exact)},
    )


def _check_cn_ode(params, zmod=0.5, n_max=6):
    """|z| c_n' = c_{n-1} - n c_n - (n+1)(n+1+s) |z|^2 c_{n+1}, via 5-point stencil."""
    s = params.strength_sum
    h = 1e-3
    table = pi_table(params, n_max + 1, 80)
    worst = 0.0
    for n in range(0, n_max + 1):
        def c(r, k=n):
            return cn_series(params, k, r, 80, table)

        deriv = (-c(zmod + 2 * h) + 8 * c(zmod + h) - 8 * c(zmod - h) + c(zmod - 2 * h)) / (
            12.0 * h
        )
        lower = c(zmod, n - 1) if n >= 1 else 0.0
        upper = c(zmod, n + 1)
        rhs = lower - n * c(zmod) - (n + 1.0) * (n + 1.0 + s) * zmod * zmod * upper
        worst = max(worst, abs(zmod * deriv - rhs))
    return VerifyReport(
        check_name="cn-ode",
        max_deviation=worst,
        tolerance=1e-6,
        details={"zmod": zmod, "n_max": float(n_max)},
    )


def _check_gk_measure_index(params, moment):
    s = params.strength_sum
    good = max(abs(moment(n, s) - 1.0) for n in range(0, 11))
    bad = abs(moment(0, s / 2.0) - 1.0)
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
        mean_h = np.vdot(state.coeffs, ops.h.entries @ state.coeffs).real
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


def _check_kp_identity(params):
    return kp_identity_check(params, params.alpha)


def _check_gk_identity(params, moment):
    return gk_identity_check(params, params.alpha, moment=moment)


def _check_reconstruction(params, dim=12):
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[0] = 1.0 / math.sqrt(2.0)
    coeffs[3] = 1.0 / math.sqrt(2.0)
    f = StateVector(coeffs, params)
    return reconstruction_check(params, f, params.alpha)


_SUITE = (
    ("displacement-equivalence", _check_displacement),
    ("cn-triple-agreement", _check_cn_triple),
    ("pi-recursion", _check_pi_recursion),
    ("cn-ode", _check_cn_ode),
    ("kp-identity", _check_kp_identity),
    ("kp-reconstruction", _check_reconstruction),
    ("gk-measure-index", _check_gk_measure_index),
    ("gk-identity", _check_gk_identity),
    ("gk-action", _check_gk_action),
    ("temporal-stability", _check_temporal_stability),
)

SUITE_NAMES = tuple(name for name, _ in _SUITE)

_MOMENT_CHECKS = ("gk-measure-index", "gk-identity")  # share the radial moments


def run_suite(params, names=None):
    """Run the named checks (all of them by default), in a fixed order."""
    if names is None:
        selected = SUITE_NAMES
    else:
        unknown = [n for n in names if n not in SUITE_NAMES]
        if unknown:
            raise ValueError(
                f"unknown check name(s) {unknown}; valid names: {list(SUITE_NAMES)}"
            )
        selected = tuple(n for n in SUITE_NAMES if n in set(names))
    lookup = dict(_SUITE)
    moment = _moment_memo(params)  # shared by this call's checks only
    return [
        lookup[name](params, moment) if name in _MOMENT_CHECKS else lookup[name](params)
        for name in selected
    ]
