"""One definition per repeated rule, pinned against the code it replaced.

The three convergent series share one kernel and its stop rule, a+ is
read off a- as its adjoint, the truncation flag is derived from the tail
bound, the three constructors share one geometric tail majorant, and
every count in the package, dim included, has one rule, defined in
specfun, with NaN failing every real-domain bound.
Where a shared definition replaced per-site code, its test compares the
two bit for bit; the parity-pair tail of the minimum-uncertainty states
is pinned to its formula to 1e-13.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from ptcs import operators, position, specfun, states, verify
from ptcs.operators import (
    PHASE_ULP_MAX,
    TAIL_WARN,
    PotentialParams,
    StateVector,
    build_matrices,
    energy,
    ladder_down_amplitude,
    ladder_up_amplitude,
)
from ptcs.specfun import (
    ConvergenceError,
    SeriesControl,
    _gamma_signed,
    _inv_gamma,
    bessel_i,
    gamma_ratio,
    hyp0f1,
    jacobi_fn_ss,
    jacobi_poly,
    jacobi_poly_all,
    log_gamma,
)
from ptcs.states import GKLabel, ISLabel, KPLabel, gk_coefficients, is_coefficients, kp_coefficients

P22 = PotentialParams(kappa=2.0, kappap=2.0)
PASYM = PotentialParams(kappa=1.5, kappap=2.5, alpha=0.1)
UNDERFLOW_GUARD = 1e-300  # the old SeriesControl.underflow_guard default


# ---------------------------------------------------------------------------
# the three series loops as they were before the shared kernel
# ---------------------------------------------------------------------------


def bessel_i_loop(nu, x, control=SeriesControl()):
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - log_gamma(nu + 1.0))
    total = term
    quiet = 0
    for k in range(1, control.max_terms + 1):
        term *= half * half / (k * (nu + k))
        total += term
        if term <= control.rel_tol * max(total, UNDERFLOW_GUARD):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise ConvergenceError(
        f"I_{nu}({x}) did not converge in {control.max_terms} terms", total,
        terms_used=control.max_terms + 1, last_term=term,
    )


def hyp0f1_loop(b, x, control=SeriesControl()):
    term = 1.0
    total = 1.0
    quiet = 0
    for k in range(1, control.max_terms + 1):
        term *= x / (k * (b + k - 1.0))
        total += term
        if term <= control.rel_tol * max(total, UNDERFLOW_GUARD):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise ConvergenceError(
        f"0F1({b}; {x}) did not converge in {control.max_terms} terms", total,
        terms_used=control.max_terms + 1, last_term=term,
    )


def jacobi_fn_ss_loop(l, m, n, x, control=SeriesControl()):
    diff = m - n
    pref = _gamma_signed(l + n + 1.0) * math.cosh(x) ** (2.0 * l)
    th = math.tanh(x)
    th2 = th * th
    sig0 = max(0, int(round(diff)))
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
        scale = max(abs(total), UNDERFLOW_GUARD)
        if abs(term) <= control.rel_tol * scale:
            quiet += 1
            if quiet >= 3:
                return pref * total
        else:
            quiet = 0
        term *= th2 * (l - n - sig) * (l + m - sig) / ((n - m + sig + 1.0) * (sig + 1.0))
        total += term
    raise ConvergenceError(
        f"ss^{l}_({m},{n})(cosh 2*{x}) did not converge in {control.max_terms} terms",
        pref * total,
        terms_used=control.max_terms + 1,
        last_term=abs(pref * term),
    )


def outcome(fn, *args):
    """The value's bits, or every field of the ConvergenceError."""
    try:
        return ("value", float(fn(*args)).hex())
    except ConvergenceError as err:
        return ("error", str(err), float(err.partial_sum).hex(), err.terms_used,
                float(err.last_term).hex())


BUDGETS = (3, 5, 10, 20, 400)


def series_grid(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield SeriesControl(max_terms=int(rng.choice(BUDGETS))), rng


class TestSeriesKernel:
    def test_bessel_i_equals_old_loop(self):
        for ctl, rng in series_grid(101, 1500):
            nu, x = float(rng.uniform(0.0, 12.0)), float(rng.uniform(0.0, 120.0))
            assert outcome(bessel_i, nu, x, ctl) == outcome(bessel_i_loop, nu, x, ctl)

    def test_hyp0f1_equals_old_loop(self):
        for ctl, rng in series_grid(102, 1500):
            b, x = float(rng.uniform(0.01, 12.0)), float(rng.uniform(0.0, 400.0))
            assert outcome(hyp0f1, b, x, ctl) == outcome(hyp0f1_loop, b, x, ctl)

    @pytest.mark.parametrize("family", ["generic", "cn"])
    def test_jacobi_fn_ss_equals_old_loop(self, family):
        """Equal bits everywhere except one boundary, checked for what it is.

        The old loop tested terms 0 .. max_terms - 1 and never its last
        term; the kernel tests terms 1 .. max_terms.  So a series whose
        third quiet term is exactly term max_terms now returns the partial
        sum that the old loop put into its ConvergenceError.
        """
        moved = 0
        for ctl, rng in series_grid(103 if family == "generic" else 104, 1500):
            if family == "generic":
                l, n, d = float(rng.uniform(-6, 6)), float(rng.uniform(-3, 8)), int(rng.integers(-4, 5))
                args = (l, n + d, n, float(rng.uniform(0.0, 3.0)), ctl)
            else:
                half = (float(rng.uniform(2.2, 12.0)) + 1.0) / 2.0
                args = (-half, half, int(rng.integers(0, 12)) + half, float(rng.uniform(0.0, 2.0)), ctl)
            new, old = outcome(jacobi_fn_ss, *args), outcome(jacobi_fn_ss_loop, *args)
            if new == old:
                continue
            moved += 1
            assert old[0] == "error" and new == ("value", old[2])
            shorter = SeriesControl(max_terms=ctl.max_terms - 1)
            assert outcome(jacobi_fn_ss, *args[:-1], shorter)[0] == "error"
        assert moved  # the grid reaches the boundary (10 generic, 284 c_n-family cases)

    def test_jacobi_fn_ss_last_term_boundary(self):
        # the third quiet term of this generic-index series is term m
        args = (-2.3, 2.0, 3.0, 1.4)
        m = next(m for m in range(1, 401)
                 if outcome(jacobi_fn_ss, *args, SeriesControl(max_terms=m))[0] == "value")
        value = jacobi_fn_ss(*args, SeriesControl(max_terms=m))
        with pytest.raises(ConvergenceError) as err:
            jacobi_fn_ss_loop(*args, SeriesControl(max_terms=m))
        assert err.value.partial_sum.hex() == value.hex() == jacobi_fn_ss(*args).hex()
        with pytest.raises(ConvergenceError):
            jacobi_fn_ss(*args, SeriesControl(max_terms=m - 1))

    def test_terminating_series_returns_at_three_terms(self):
        # the c_n index family terminates after its first term: three exact
        # zeros follow, which a three-term budget now accepts
        half = 3.0
        args = (-half, half, 2.0 + half, 0.7)
        with pytest.raises(ConvergenceError):
            jacobi_fn_ss_loop(*args, SeriesControl(max_terms=3))
        assert jacobi_fn_ss(*args, SeriesControl(max_terms=3)) == jacobi_fn_ss(*args)

    def test_series_control_has_no_underflow_guard(self):
        assert [f for f in SeriesControl.__dataclass_fields__] == ["max_terms", "rel_tol"]


# ---------------------------------------------------------------------------
# a+ as the adjoint of a-
# ---------------------------------------------------------------------------


def ladder_up_expression(params, n):
    """The raising amplitude as it was written out before."""
    n = np.asarray(n, dtype=float) if np.ndim(n) else float(n)
    phase = params.alpha * (2.0 * n + 1.0 + params.strength_sum)
    return np.sqrt(energy(params, n + 1.0)) * np.exp(-1j * phase)


LADDER_PARAMS = [
    P22, PASYM, PotentialParams(2.0, 2.0, alpha=0.3), PotentialParams(1.1, 3.7, alpha=-2.1),
    PotentialParams(3.3, 1.2, alpha=123.456),
]


class TestLadderAdjoint:
    @pytest.mark.parametrize("params", LADDER_PARAMS)
    def test_up_is_conjugate_down_one_level_up(self, params):
        n = np.arange(300)
        up, down = ladder_up_amplitude(params, n), np.conj(ladder_down_amplitude(params, n + 1))
        assert up.tobytes() == down.tobytes()
        for k in (0, 5, 17):
            up, down = ladder_up_amplitude(params, k), np.conj(ladder_down_amplitude(params, k + 1))
            assert type(up) is type(down) and np.asarray(up).tobytes() == np.asarray(down).tobytes()

    @pytest.mark.parametrize("params", LADDER_PARAMS)
    def test_up_equals_old_expression(self, params):
        n = np.arange(300)
        new, old = ladder_up_amplitude(params, n), ladder_up_expression(params, n)
        assert np.array_equal(new, old)
        if params.alpha != 0.0:  # at alpha = 0 only the sign of the zero imaginary part moved
            assert new.tobytes() == old.tobytes()

    def test_down_refuses_a_phase_past_its_precision(self):
        # one ulp of alpha(2n - 1 + s) crosses 1e-6 rad at 2^33: ulp 2^-19
        n, factor = 10, 2 * 10 - 1 + 4.0
        below = PotentialParams(2.0, 2.0, alpha=0.99 * 2.0**33 / factor)
        above = PotentialParams(2.0, 2.0, alpha=1.01 * 2.0**33 / factor)
        assert math.ulp(below.alpha * factor) <= PHASE_ULP_MAX < math.ulp(above.alpha * factor)
        ladder_down_amplitude(below, np.arange(n + 1))
        with pytest.raises(ArithmeticError, match=r"alpha = .*level n = 10"):
            ladder_down_amplitude(above, np.arange(n + 1))
        with pytest.raises(ArithmeticError, match="alpha"):
            ladder_up_amplitude(above, n - 1)

    def test_is_state_refuses_alpha_past_phase_precision(self):
        with pytest.raises(ArithmeticError, match=r"alpha = 1e\+300"):
            is_coefficients(P22, ISLabel(z=0.3, lam=1.0, alpha=1e300), 4)


# ---------------------------------------------------------------------------
# the truncation flag, derived from the tail bound
# ---------------------------------------------------------------------------


class TestDerivedFlag:
    C = np.array([1.0, 0.0])

    def test_threshold(self):
        assert not StateVector(self.C, P22, tail_bound=TAIL_WARN).under_truncated
        assert StateVector(self.C, P22, tail_bound=np.nextafter(TAIL_WARN, 1.0)).under_truncated
        assert StateVector(self.C, P22, tail_bound=math.inf).under_truncated
        assert not StateVector(self.C, P22).under_truncated

    def test_flag_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            StateVector(self.C, P22, tail_bound=0.0, under_truncated=True)

    def test_states_reexports_threshold(self):
        assert states.TAIL_WARN is operators.TAIL_WARN == 1e-10

    def test_evolution_keeps_bound_and_flag(self):
        state = kp_coefficients(P22, KPLabel(zeta=0.95), 20)
        evolved = states.evolve_coefficients(state, 0.4)
        assert state.under_truncated and evolved.under_truncated
        assert evolved.tail_bound == state.tail_bound


# ---------------------------------------------------------------------------
# one geometric tail majorant, with each constructor's own operands
# ---------------------------------------------------------------------------


def kp_tail_expression(params, label, dim):
    s = params.strength_sum
    rho2 = abs(complex(label.zeta)) ** 2
    pref = (1.0 - rho2) ** ((s + 1.0) / 2.0)
    k = np.arange(1.0, dim + 1.0)
    binom = np.cumprod(np.concatenate(([1.0], (k + s) / k)))
    term = pref * pref * rho2**dim * float(binom[-1])
    q = rho2 * (dim + 1.0 + s) / (dim + 1.0)
    return term / (1.0 - q) if q < 1.0 else math.inf


def gk_tail_expression(params, label, dim):
    s = params.strength_sum
    r = abs(complex(label.z))
    log_norm = 0.5 * (s * math.log(r) - math.log(bessel_i(s, 2.0 * r)))
    n = np.arange(dim, dtype=float)
    log_den = 0.5 * (log_gamma(n + 1.0) + log_gamma(n + s + 1.0))
    mags = np.exp(log_norm + n * math.log(r) - log_den)
    q = r * r / energy(params, dim + 1)
    return (mags[-1] ** 2) * (r * r / energy(params, dim)) / (1.0 - q) if q < 1.0 else math.inf


def is_tail_expression(c, lam):
    m = np.abs(c) ** 2
    last = m[-1] + m[-2]
    if last == 0.0:
        return 0.0
    q = max(abs(1.0 - lam) ** 2 / abs(1.0 + lam) ** 2, last / (m[-3] + m[-4]))  # parity pairs
    return 2.0 * last * q / (1.0 - q) if q < 1.0 else math.inf


class TestGeometricTail:
    @pytest.mark.parametrize("params", [P22, PASYM])
    @pytest.mark.parametrize("dim", [4, 10, 120])
    def test_kp(self, params, dim):
        for zeta in (0.1, 0.5 + 0.3j, -0.8j, 0.95, 0.9814, 0.999):  # q = 0.995 at 0.9814, dim 120
            label = KPLabel(zeta=zeta, alpha=params.alpha)
            tail = kp_coefficients(params, label, dim).tail_bound
            assert tail == kp_tail_expression(params, label, dim)
        assert math.isinf(kp_coefficients(params, KPLabel(zeta=0.95), 4).tail_bound)

    @pytest.mark.parametrize("params", [P22, PASYM])
    @pytest.mark.parametrize("dim", [5, 10, 120])
    def test_gk(self, params, dim):
        for z in (0.3, 1.0 + 0.5j, -6.0j, 20.0):
            label = GKLabel(z=z, alpha=params.alpha)
            tail = gk_coefficients(params, label, dim).tail_bound
            assert tail == gk_tail_expression(params, label, dim)
        assert math.isinf(gk_coefficients(params, GKLabel(z=20.0), 5).tail_bound)

    @pytest.mark.parametrize("params", [P22, PASYM])
    @pytest.mark.parametrize("dim", [10, 120])
    def test_is(self, params, dim):
        for z, lam in ((0.3, 1.0), (1.0 + 0.5j, 0.5 + 0.2j), (2.0, 2.5 - 0.7j), (0.8, 0.02 + 0.3j), (0.0, 0.5)):
            state = is_coefficients(params, ISLabel(z=z, lam=lam, alpha=params.alpha), dim)
            assert state.tail_bound == pytest.approx(is_tail_expression(state.coeffs, lam), rel=1e-13)
        assert math.isinf(is_coefficients(params, ISLabel(z=0.8, lam=1j, alpha=params.alpha), dim).tail_bound)


# ---------------------------------------------------------------------------
# one rule for dim in the closed-form layer
# ---------------------------------------------------------------------------


DIM_TAKERS = {
    "kp": lambda dim: kp_coefficients(P22, KPLabel(zeta=0.3), dim).dim,
    "gk": lambda dim: gk_coefficients(P22, GKLabel(z=0.5), dim).dim,
    "is": lambda dim: is_coefficients(P22, ISLabel(z=0.5, lam=1.0), dim).dim,
    "matrices": lambda dim: build_matrices(P22, dim).h.diag.size,
}


class TestDimRule:
    @pytest.mark.parametrize("dim", [2.5, math.nan, math.inf, "5", None, 1j, 0, -3])
    @pytest.mark.parametrize("taker", sorted(DIM_TAKERS))
    def test_bad_dim_is_a_value_error_naming_dim(self, taker, dim):
        with pytest.raises(ValueError, match="^dim must be"):
            DIM_TAKERS[taker](dim)

    @pytest.mark.parametrize("taker", sorted(DIM_TAKERS))
    def test_integral_float_dim_is_accepted(self, taker):
        assert DIM_TAKERS[taker](3.0) == 3


# ---------------------------------------------------------------------------
# one rule for every count in the package, defined in specfun
# ---------------------------------------------------------------------------


X = np.array([0.4, 1.3, 2.9])  # positions inside (0, pi); cos X lies in [-1, 1]
F4 = StateVector(np.eye(4, dtype=complex)[0], P22)
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])  # its Taylor sum stops after two terms

COUNT_TAKERS = {  # site -> (argument, the call with that count)
    "SeriesControl": ("max_terms", lambda v: SeriesControl(max_terms=v).max_terms),
    "gamma_ratio": ("n", lambda v: gamma_ratio(v, 4.0)),
    "jacobi_poly": ("n", lambda v: float(jacobi_poly(v, 0.5, 1.5, 0.3))),
    "jacobi_poly_all": ("nmax", lambda v: jacobi_poly_all(v, 0.5, 1.5, np.cos(X)).tolist()),
    "eigenfunction_table": ("nmax", lambda v: position.eigenfunction_table(P22, v, X).tolist()),
    "eigenfunction": ("n", lambda v: position.eigenfunction(P22, v, X).tolist()),
    "cn_series": ("n", lambda v: verify.cn_series(P22, v, 0.5, 80)),
    "pi_table/n_max": ("n_max", lambda v: verify.pi_table(P22, v, 4)),
    "pi_table/j_max": ("j_max", lambda v: verify.pi_table(P22, 4, v)),
    "kp_identity_check/radial_nodes": ("radial_nodes", lambda v: verify.kp_identity_check(P22, 3, v).as_dict()),
    "kp_identity_check/trunc_levels": ("trunc_levels", lambda v: verify.kp_identity_check(P22, v).as_dict()),
    "gk_identity_check/trunc_levels": ("trunc_levels", lambda v: verify.gk_identity_check(P22, v).as_dict()),
    "gk_moment_oracle": ("n", lambda v: verify.gk_moment_oracle(P22, v, 4.0)),
    "reconstruction_check": ("angular_nodes", lambda v: verify.reconstruction_check(P22, F4, 0.0, 200, v).as_dict()),
    "taylor_expm_apply": ("max_terms", lambda v: verify.taylor_expm_apply(NILPOTENT, [0.0, 1.0], max_terms=v).tolist()),
}


class TestCountRule:
    @pytest.mark.parametrize("value", [2.5, -1, math.nan, math.inf, "3", None])
    @pytest.mark.parametrize("site", sorted(COUNT_TAKERS))
    def test_bad_count_is_a_value_error_naming_it(self, site, value):
        name, take = COUNT_TAKERS[site]
        with pytest.raises(ValueError, match=f"^{name} must be"):
            take(value)

    @pytest.mark.parametrize("site", sorted(COUNT_TAKERS))
    def test_integral_float_is_read_as_the_int(self, site):
        take = COUNT_TAKERS[site][1]
        assert take(3.0) == take(3)

    def test_series_control_stores_an_int(self):
        assert type(SeriesControl(max_terms=3.0).max_terms) is int

    def test_kp_identity_keeps_its_level_cap(self):
        with pytest.raises(ValueError, match="^trunc_levels must be <= 20"):
            verify.kp_identity_check(P22, 21)


NAN_TAKERS = {  # site -> (the domain check's message, the call); each once gave NaN or a ConvergenceError
    "bessel_i/nu": ("order", lambda: bessel_i(math.nan, 1.0)),
    "bessel_i/x": ("argument", lambda: bessel_i(1.0, math.nan)),
    "hyp0f1/b": ("parameter", lambda: hyp0f1(math.nan, 1.0)),
    "hyp0f1/x": ("argument", lambda: hyp0f1(1.0, math.nan)),
    "jacobi_fn_ss/x": ("argument", lambda: jacobi_fn_ss(-2.5, 2.5, 3.5, math.nan)),
    "gamma_ratio/s": ("s must", lambda: gamma_ratio(3, math.nan)),
    "jacobi_poly/alpha": ("Jacobi parameters", lambda: jacobi_poly(2, math.nan, 0.5, 0.3)),
    "jacobi_poly_all/beta": ("Jacobi parameters", lambda: jacobi_poly_all(2, 0.5, math.nan, 0.3)),
    "cn_series/zmod": ("zmod", lambda: verify.cn_series(P22, 2, math.nan, 80)),
    "gk_moment_oracle/nu": ("nu", lambda: verify.gk_moment_oracle(P22, 2, math.nan)),
    "gk_mean_g/zmod": ("zmod", lambda: states.gk_mean_g(P22, math.nan)),
}


@pytest.mark.parametrize("site", sorted(NAN_TAKERS))
def test_nan_fails_the_real_domain_check(site):
    # a ConvergenceError is an ArithmeticError, so it would not satisfy this
    message, call = NAN_TAKERS[site]
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


# a count tested by hand: x % 1 == 0, x != int(x), x == x // 1, x.is_integer()
HAND_ROLLED = re.compile(r"%\s*1\s*[!=]=|[!=]=\s*int\(|//\s*1\b|is_integer\(")


class TestOneDefinition:
    def test_modules_take_the_rules_from_specfun(self):
        for module in (operators, position, states, verify):
            assert module._count is specfun._count
            # states takes no level argument, so it binds _count alone
            assert getattr(module, "_levels", specfun._levels) is specfun._levels

    def test_no_hand_rolled_integer_test_outside_specfun(self):
        for path in Path(specfun.__file__).parent.glob("*.py"):
            if path.name != "specfun.py":
                assert not HAND_ROLLED.findall(path.read_text()), path.name

    def test_the_pattern_sees_every_form_it_replaced(self):
        for old in ("n % 1 == 0", "n != int(n)", "m == m // 1", "float(n).is_integer()"):
            assert HAND_ROLLED.search(old)
