"""Special-function tests: trivial values, slow independent oracles, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ptcs.specfun import (
    ConvergenceError,
    SeriesControl,
    bessel_i,
    bessel_k,
    gamma_ratio,
    hyp0f1,
    jacobi_fn_ss,
    jacobi_poly,
    jacobi_poly_all,
    log_gamma,
)


class TestSeriesControl:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SeriesControl(max_terms=0)
        with pytest.raises(ValueError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(ValueError):
            SeriesControl(rel_tol=1.0)

    def test_defaults(self):
        ctl = SeriesControl()
        assert ctl.max_terms >= 1 and 0.0 < ctl.rel_tol < 1.0


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_gamma_five_is_log_24(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer_recursion_oracle(self):
        # Gamma(5.5) built from Gamma(0.5) = sqrt(pi) by the product recursion
        ref = math.sqrt(math.pi)
        for k in (0.5, 1.5, 2.5, 3.5, 4.5):
            ref *= k
        assert log_gamma(5.5) == pytest.approx(math.log(ref), rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.0, 2.3, 10.0, 101.5, 1234.5])
    def test_against_libm(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize(
        "x",
        [
            0.0, -1.0, math.inf, math.nan,
            np.array([1.0, 0.0]), np.array([2.0, -1.0]),
            np.array([math.inf, 3.0]), np.array([[0.3], [math.nan]]),
        ],
    )
    def test_domain(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)

    def test_array_keeps_shape_and_matches_scalar(self):
        x = np.linspace(0.05, 60.0, 24).reshape(2, 3, 4)
        out = log_gamma(x)
        assert out.shape == x.shape
        scalar = np.array([log_gamma(v) for v in x.ravel().tolist()]).reshape(x.shape)
        # numpy's log may round the last bit differently from math.log
        assert np.max(np.abs(out - scalar) / np.abs(scalar)) <= 1e-15

    def test_reflection_inside_array(self):
        x = np.array([0.1, 3.0, 0.25, 0.49, 0.5, 0.7])
        out = log_gamma(x)
        assert out.tolist() == pytest.approx([math.lgamma(v) for v in x], rel=1e-13, abs=1e-13)
        assert out[[0, 2, 3]].tolist() == pytest.approx(
            [log_gamma(v) for v in (0.1, 0.25, 0.49)], rel=1e-15
        )

    def test_scalar_and_zero_d_return_float(self):
        assert type(log_gamma(2.5)) is float
        assert isinstance(log_gamma(np.float64(2.5)), float)
        assert type(log_gamma(np.array(2.5))) is float
        assert log_gamma(np.array(0.2)) == log_gamma(0.2)


class TestGammaRatio:
    def test_empty_product(self):
        assert gamma_ratio(0, 3.7) == 1.0

    def test_single_factor(self):
        assert gamma_ratio(1, 4.0) == pytest.approx(5.0, rel=1e-15)

    def test_direct_product_oracle(self):
        ref = 1.0
        for j in range(1, 7):
            ref *= (j + 4.37) / j
        assert gamma_ratio(6, 4.37) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n,s", [(3, 4.0), (17, 2.5), (60, 5.0), (120, 4.37)])
    def test_log_gamma_path_agrees(self, n, s):
        via_logs = math.exp(
            log_gamma(n + 1.0 + s) - log_gamma(n + 1.0) - log_gamma(1.0 + s)
        )
        assert gamma_ratio(n, s) == pytest.approx(via_logs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_ratio(-1, 2.0)
        with pytest.raises(ValueError):
            gamma_ratio(2, 0.0)


def jacobi_sum_oracle(n, alpha, beta, u):
    """Explicit hypergeometric finite sum, term by term."""
    total = 0.0
    for m in range(n + 1):
        prod = math.comb(n, m)
        for j in range(1, m + 1):
            prod *= alpha + beta + n + j
        for j in range(m + 1, n + 1):
            prod *= alpha + j
        total += prod * ((u - 1.0) / 2.0) ** m
    return total / math.factorial(n)


class TestJacobiPoly:
    def test_degree_zero(self):
        assert jacobi_poly(0, 1.2, 3.4, 0.77) == 1.0

    def test_odd_symmetry_at_origin(self):
        assert jacobi_poly(1, 1.5, 1.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "n,alpha,beta,u",
        [(4, 1.5, 2.5, 0.3), (3, 1.5, 1.5, -0.9), (7, 2.0, 0.5, 0.95), (10, 1.5, 1.5, 0.1)],
    )
    def test_finite_sum_oracle(self, n, alpha, beta, u):
        # the explicit sum cancels heavily near polynomial roots, so its own
        # noise floor (not the recurrence's) sets the comparison scale
        scale = max(
            abs(jacobi_sum_oracle(n, alpha, beta, 1.0)), 1.0
        )
        assert jacobi_poly(n, alpha, beta, u) == pytest.approx(
            jacobi_sum_oracle(n, alpha, beta, u), rel=1e-10, abs=1e-12 * scale
        )

    def test_recurrence_residual_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = float(rng.uniform(-0.5, 3.0))
            beta = float(rng.uniform(-0.5, 3.0))
            u = float(rng.uniform(-1.0, 1.0))
            n = int(rng.integers(2, 12))
            pn, pnm1, pnm2 = (
                jacobi_poly(n, alpha, beta, u),
                jacobi_poly(n - 1, alpha, beta, u),
                jacobi_poly(n - 2, alpha, beta, u),
            )
            c1 = 2 * n * (n + alpha + beta) * (2 * n + alpha + beta - 2)
            c2 = (2 * n + alpha + beta - 1) * (
                (2 * n + alpha + beta) * (2 * n + alpha + beta - 2) * u
                + alpha**2 - beta**2
            )
            c3 = 2 * (n + alpha - 1) * (n + beta - 1) * (2 * n + alpha + beta)
            resid = abs(c1 * pn - c2 * pnm1 + c3 * pnm2)
            scale = max(abs(c1 * pn), abs(c2 * pnm1), abs(c3 * pnm2), 1.0)
            assert resid <= 1e-12 * scale

    def test_vectorized_matches_scalar(self):
        u = np.linspace(-1, 1, 11)
        table = jacobi_poly_all(5, 1.5, 2.5, u)
        for i, ui in enumerate(u):
            assert table[5, i] == pytest.approx(jacobi_poly(5, 1.5, 2.5, float(ui)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            jacobi_poly(-1, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_poly(2, 1.0, 1.0, 1.5)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(3.2, 0.0) == 0.0

    def test_0f1_identity_single(self):
        # I_nu(2y) = y^nu 0F1(nu+1; y^2) / Gamma(nu+1) at nu=4, y=1
        lhs = bessel_i(4.0, 2.0)
        rhs = hyp0f1(5.0, 1.0) / math.exp(log_gamma(5.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("nu", [2.5, 4.0, 6.0])
    @pytest.mark.parametrize("y", [0.5, 1.0, 5.0])
    def test_0f1_identity_grid(self, nu, y):
        lhs = bessel_i(nu, 2.0 * y)
        rhs = y**nu * hyp0f1(nu + 1.0, y * y) / math.exp(log_gamma(nu + 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_large_argument_stays_finite(self):
        val = bessel_i(4.0, 100.0)
        assert math.isfinite(val) and val > 1e40

    def test_convergence_error_carries_partial(self):
        ctl = SeriesControl(max_terms=3)
        with pytest.raises(ConvergenceError) as err:
            bessel_i(0.0, 30.0, ctl)
        assert err.value.partial_sum > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_i(1.0, -1.0)


def bessel_k_panel_loop(nu, x):
    """One-argument panel loop that array bessel_k must reproduce bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nu = abs(nu)
    t_max = max(math.asinh(nu / x), 1.0)
    while x * math.cosh(t_max) - nu * t_max < 750.0 and t_max < 120.0:
        t_max += 0.5
    width = min(0.5, 1.0 / math.sqrt(1.0 + x))
    total, lo = 0.0, 0.0
    while lo < t_max:
        hi = min(t_max, lo + width)
        rad = 0.5 * (hi - lo)
        t = rad * nodes + 0.5 * (lo + hi)
        total += rad * np.sum(weights * np.exp(-x * np.cosh(t)) * np.cosh(nu * t))
        lo, width = hi, width * 1.4
    return float(total)


class TestBesselK:
    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 10.0, 50.0])
    def test_half_integer_closed_form(self, x):
        ref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("nu", [0.25, 1.0, 3.3])
    @pytest.mark.parametrize("x", [0.05, 2.0, 20.0])
    def test_even_in_order(self, nu, x):
        assert bessel_k(nu, x) == bessel_k(-nu, x)

    @pytest.mark.parametrize(
        "mu,nu", [(4.0, 1.0), (3.0, 0.5), (6.0, 4.0), (5.0, 2.0)]
    )
    def test_mellin_moment_oracle(self, mu, nu):
        # int_0^inf t^(mu-1) K_nu(t) dt = 2^(mu-2) G((mu+nu)/2) G((mu-nu)/2)
        ref = 2.0 ** (mu - 2.0) * math.exp(
            log_gamma((mu + nu) / 2.0) + log_gamma((mu - nu) / 2.0)
        )
        t_max = mu + 90.0
        base_x, base_w = np.polynomial.legendre.leggauss(30)
        edges = np.linspace(0.0, t_max, 80)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            t = 0.5 * (b - a) * base_x + 0.5 * (a + b)
            k = bessel_k(nu, t)
            total += 0.5 * (b - a) * float(np.sum(base_w * t ** (mu - 1.0) * k))
        assert total == pytest.approx(ref, rel=1e-6)

    def test_mu_four_nu_one_is_three_pi_halves(self):
        ref = 2.0**2 * math.exp(log_gamma(2.5) + log_gamma(1.5))
        assert ref == pytest.approx(1.5 * math.pi, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.3, 2.2, 5.7, 8.0])
    def test_array_matches_scalar_bitwise(self, nu):
        xs = np.logspace(-3.0, 3.0, 61)
        reference = [bessel_k_panel_loop(nu, x) for x in xs.tolist()]
        assert bessel_k(nu, xs).tolist() == reference
        assert [bessel_k(nu, x) for x in xs] == reference
        grid = xs[:60].reshape(3, 4, 5)
        out = bessel_k(nu, grid)
        assert out.shape == grid.shape
        assert out.ravel().tolist() == [bessel_k(nu, x) for x in grid.ravel()]

    def test_scalar_returns_float(self):
        assert type(bessel_k(2.2, 1.5)) is float
        assert type(bessel_k(2.2, np.float64(1.5))) is float
        assert type(bessel_k(2.2, 3)) is float

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -2.0)
        for nu, x in [(2.0, math.nan), (2.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)]:
            with pytest.raises(ValueError):
                bessel_k(nu, x)
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                bessel_k(2.0, np.array([1.0, bad, 3.0]))
        with pytest.raises(ValueError):
            bessel_k(math.nan, np.array([1.0, 2.0]))


class TestHyp0f1:
    def test_at_zero(self):
        assert hyp0f1(3.7, 0.0) == 1.0

    def test_exact_rational_partial_sum_oracle(self):
        total = Fraction(0)
        term = Fraction(1)
        b = Fraction(5)
        for k in range(1, 201):
            total += term
            term *= Fraction(1) / (k * (b + k - 1))
        assert hyp0f1(5.0, 1.0) == pytest.approx(float(total), rel=1e-13)

    def test_matches_bessel_identity(self):
        # 0F1(5; 16) = I_4(2y) Gamma(5) / y^4 at y = 4, independent route
        lhs = hyp0f1(5.0, 16.0)
        rhs = bessel_i(4.0, 8.0) * math.exp(log_gamma(5.0)) / 4.0**4
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            hyp0f1(0.0, 1.0)
        with pytest.raises(ValueError):
            hyp0f1(2.0, -1.0)


def collapse_family(s, n_fock):
    """Index triple that reduces the function to its elementary form."""
    half = (s + 1.0) / 2.0
    return -half, half, n_fock + half


class TestJacobiFnSS:
    def test_single_term_at_origin(self):
        l, m, n = collapse_family(4.0, 0)
        assert jacobi_fn_ss(l, m, n, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("s", [4.0, 5.0, 4.37])
    @pytest.mark.parametrize("n_fock", [0, 1, 2, 5, 8])
    @pytest.mark.parametrize("x", [0.1, 0.4, 0.9])
    def test_elementary_form(self, s, n_fock, x):
        l, m, n = collapse_family(s, n_fock)
        ref = math.cosh(x) ** (-(s + 1.0)) * math.tanh(x) ** n_fock
        assert jacobi_fn_ss(l, m, n, x) == pytest.approx(ref, rel=1e-12)

    def test_matches_factorial_scaled_coefficient(self):
        # n! |z|^n c_n(|z|) at n = 2, |z| = 0.4, s = 4
        s, n_fock, x = 4.0, 2, 0.4
        l, m, n = collapse_family(s, n_fock)
        c2 = math.cosh(x) ** (-(s + 1.0)) * (math.tanh(x) / x) ** n_fock / 2.0
        assert jacobi_fn_ss(l, m, n, x) == pytest.approx(
            math.factorial(n_fock) * x**n_fock * c2, rel=1e-12
        )

    @pytest.mark.parametrize(
        "l,m,nu",
        [
            (-2.5, 2.5, 3.5),   # collapsing family (elementary closed form)
            (-2.5, 2.5, 4.5),
            (-2.5, 2.5, 6.5),
            (-2.5, 3.5, 3.5),   # shifted family, two-term sums
            (-2.5, 3.5, 4.5),
            (-2.3, 2.0, 3.0),   # generic order, genuinely infinite series
            (-2.3, 2.0, 4.0),
            (-2.3, 2.0, 6.0),
        ],
    )
    def test_derivative_relation(self, l, m, nu):
        # with the family written as ss^l_{m, nu}(cosh 2x):
        #   d/dx ss^l_{m,nu} = (nu + l) ss^l_{m,nu-1} - (nu - l) ss^l_{m,nu+1}
        x, h = 0.3, 1e-3

        def f(xx, shift=0.0):
            return jacobi_fn_ss(l, m, nu + shift, xx)

        deriv = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        rhs = (nu + l) * f(x, -1.0) - (nu - l) * f(x, +1.0)
        assert deriv == pytest.approx(rhs, rel=2e-9, abs=2e-9)

    def test_convergence_error(self):
        ctl = SeriesControl(max_terms=4)
        with pytest.raises(ConvergenceError):
            jacobi_fn_ss(-2.3, 2.0, 3.0, 1.4, ctl)

    def test_non_integer_index_difference_rejected(self):
        with pytest.raises(ValueError):
            jacobi_fn_ss(-2.5, 2.2, 3.5, 0.3)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            jacobi_fn_ss(-2.5, 2.5, 2.5, -0.1)
