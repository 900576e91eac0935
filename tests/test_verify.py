"""Oracle layer: matrix exponential, nested-sum tables, identity checks."""

import ast
import dataclasses
import inspect
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ptcs.operators import PotentialParams, StateVector, build_matrices
import ptcs.verify as verify
from ptcs.specfun import ConvergenceError, bessel_k, gamma_ratio, jacobi_fn_ss, log_gamma
from ptcs.states import kp_from_z
from ptcs.verify import (
    SUITE_NAMES,
    cn_closed_form,
    cn_from_jacobi_fn,
    cn_series,
    displacement_oracle,
    gk_identity_check,
    gk_moment_oracle,
    kp_identity_check,
    pi_table,
    reconstruction_check,
    run_suite,
    taylor_expm_apply,
)

P22 = PotentialParams(kappa=2.0, kappap=2.0)
P22A = PotentialParams(kappa=2.0, kappap=2.0, alpha=0.3)
PASYM = PotentialParams(kappa=2.1, kappap=2.7, alpha=0.2)


def taylor_vector_loop(matrix, vector, tol=1e-20, max_terms=600):
    """Reference: the scaled Taylor series summed on the vector, applied 2^j times."""
    m = np.asarray(matrix, dtype=complex)
    v = np.asarray(vector, dtype=complex).copy()
    nrm = float(np.linalg.norm(m, 1))
    j = max(0, int(math.ceil(math.log2(nrm)))) if nrm > 1.0 else 0
    scaled = m / (2.0**j)
    for _ in range(2**j):
        acc = v.copy()
        term = v.copy()
        for k in range(1, max_terms + 1):
            term = scaled @ term / k
            acc += term
            if np.linalg.norm(term) <= tol * np.linalg.norm(acc):
                break
        v = acc
    return v


def taylor_dense_loop(matrix, vector, tol=1e-20, max_terms=600):
    """The dense-product Taylor loop that built the exponential before the diagonal products."""
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
    for _ in range(j):
        acc = acc @ acc
    return acc @ np.asarray(vector, dtype=complex)


def taylor_diagonal_loop(matrix, vector, tol=1e-20, max_terms=600):
    """Reference: the Taylor loop with dense terms, each product formed from the nonzero diagonals."""
    m = np.asarray(matrix, dtype=complex)
    nrm = float(np.linalg.norm(m, 1))
    j = max(0, int(math.ceil(math.log2(nrm)))) if nrm > 1.0 else 0
    scaled = m / (2.0**j)
    n = m.shape[0]
    rows, cols = np.nonzero(scaled)
    bands = [(d, np.diagonal(scaled, d)[:, None]) for d in np.unique(cols - rows).tolist()]
    acc = np.eye(n, dtype=complex)
    term = acc.copy()
    for k in range(1, max_terms + 1):
        term, prev = np.zeros_like(term), term
        for d, band in bands:
            term[max(-d, 0) : n - max(d, 0)] += band * prev[max(d, 0) : n + min(d, 0)]
        term *= 1.0 / k
        acc += term
        if verify._frobenius(term) <= tol * verify._frobenius(acc):
            break
    for _ in range(j):
        acc = acc @ acc
    return acc @ np.asarray(vector, dtype=complex)


def cn_series_every_step(params, n, zmod, j_max, table=None):
    """Reference: the exact cn_series loop that divides and tests at every step."""
    table = table or pi_table(params, n, j_max)
    p, q = float(zmod).as_integer_ratio()
    s_den = float(params.strength_sum).as_integer_ratio()[1]
    num, den, power = 0, math.factorial(n), 1
    for j in range(j_max + 1):
        top = (-power if j % 2 else power) * table[(n + 1, j)]
        num += top
        total, last = num / den, abs(top / den)
        if last <= 1e-16 * max(abs(total), 1e-300):
            return total
        step = q * q * s_den * (n + 2 * j + 1) * (n + 2 * j + 2)
        power, num, den = power * p * p, num * step, den * step
    raise ConvergenceError("reference series did not converge", total, terms_used=j_max + 1, last_term=last)


def displacement_generator(params, z, dim=120):
    ops = build_matrices(params, dim)
    return z * ops.a_plus.entries - np.conj(z) * ops.a_minus.entries


def pi_table_fraction(params, n_max, j_max):
    """Reference: pi(k, j) itself, summed in Fraction from the energies i(i + s)."""
    s = Fraction(params.strength_sum)  # exact: a float is a dyadic rational
    rows = n_max + 2 + j_max
    level = [Fraction(1)] * (rows + 1)
    table = {(k, 0): level[k] for k in range(1, n_max + 3)}
    for j in range(1, j_max + 1):
        running, cur = Fraction(0), [None]
        for i in range(1, rows - j + 1):
            running += i * (i + s) * level[i + 1]
            cur.append(running)
        level = cur
        table.update({(k, j): level[k] for k in range(1, n_max + 3)})
    return table


def cn_series_fraction(params, n, zmod, j_max, table=None):
    """Reference: the exact-rational cn_series loop accumulated in Fraction.

    ``table`` holds pi(k, j) itself; the default pi_table is right only
    for integer s, where its entries carry no power of the denominator.
    """
    table = table or pi_table(params, n, j_max)
    r2 = Fraction(zmod) ** 2
    total, sign, fact, power = Fraction(0), 1, math.factorial(n), Fraction(1)
    for j in range(j_max + 1):
        term = sign * power * Fraction(table[(n + 1, j)], fact)
        total += term
        mag = abs(float(term))
        sign = -sign
        power *= r2
        fact *= (n + 2 * j + 1) * (n + 2 * j + 2)
        if mag <= 1e-16 * max(abs(float(total)), 1e-300):
            return float(total)
    raise ConvergenceError("reference series did not converge", float(total))


def gk_moment_scalar_search(params, n, nu, radial_nodes=200):
    """Reference: gk_moment_oracle with its t_max found one bessel_k call at a time."""
    s = params.strength_sum
    mu = 2.0 * n + s + 2.0
    t_max = mu + 30.0
    peak_log = (mu - 1.5) * math.log(max(mu - 1.5, 1.0)) - (mu - 1.5)

    def log_integrand(t):
        return (mu - 1.0) * math.log(t) + math.log(max(bessel_k(nu, t), 1e-320))

    while log_integrand(t_max) - peak_log > math.log(1e-18) and t_max < 1200.0:
        t_max += 20.0
    if log_integrand(t_max) - peak_log > math.log(1e-16):
        raise ConvergenceError("radial tail still significant at cutoff", t_max)
    t, w = verify._gl_panels(0.0, t_max, radial_nodes)
    integral = float(np.sum(w * t ** (mu - 1.0) * bessel_k(nu, t)))
    log_ref = log_gamma(n + 1.0) + log_gamma(n + s + 1.0) + (2.0 * n + s) * math.log(2.0)
    return integral / math.exp(log_ref)


def gl_panels_loop(lo, hi, n_nodes, order=30):
    """Reference: composite Gauss-Legendre rule built one panel at a time."""
    n_panels = max(1, int(math.ceil(n_nodes / order)))
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * base_x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * base_w)
    return np.concatenate(xs), np.concatenate(ws)


@pytest.mark.parametrize(
    "lo, hi, n_nodes",
    [(0.0, 1.0, 200), (0.0, 1.0, 1), (0.0, 1.0, 30), (0.0, 1.0, 31), (0.0, 63.0, 200),
     (0.0, 1234.5, 200), (-2.5, 3.7, 95), (0.1, 0.1000001, 600)],
)
def test_gl_panels_match_panel_loop_bitwise(lo, hi, n_nodes):
    x, w = verify._gl_panels(lo, hi, n_nodes)
    ref_x, ref_w = gl_panels_loop(lo, hi, n_nodes)
    assert x.tolist() == ref_x.tolist() and w.tolist() == ref_w.tolist()


def kp_identity_level_loop(params, trunc_levels=20, radial_nodes=200):
    """Reference: kp_identity_check's worst numeric and exact deviations, one level at a time."""
    s = params.strength_sum
    u, w = verify._gl_panels(0.0, 1.0, radial_nodes)
    worst_numeric = worst_exact = 0.0
    for n in range(trunc_levels + 1):
        g_n = gamma_ratio(n, s)
        numeric = s * g_n * float(np.sum(w * u**n * (1.0 - u) ** (s - 1.0)))
        exact = s * g_n * math.exp(log_gamma(n + 1.0) + log_gamma(s) - log_gamma(n + 1.0 + s))
        worst_numeric = max(worst_numeric, abs(numeric - 1.0))
        worst_exact = max(worst_exact, abs(exact - 1.0))
    return worst_numeric, worst_exact


def reconstruction_node_loop(params, f, alpha, radial_nodes=200, angular_nodes=64):
    """Reference: reconstruction_check's worst deviation, one modulus node at a time."""
    s = params.strength_sum
    u, wu = verify._gl_panels(0.0, 1.0, radial_nodes)
    phi = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    wphi = 2.0 * math.pi / angular_nodes
    n = np.arange(f.dim, dtype=float)
    base = np.sqrt(np.array([gamma_ratio(int(k), s) for k in n])) * np.exp(-1j * alpha * n * (n + s))
    angular = np.exp(1j * np.outer(n, phi))
    recon = np.zeros(f.dim, dtype=complex)
    for ui, wui in zip(u, wu):
        radial = (1.0 - ui) ** ((s + 1.0) / 2.0) * base * math.sqrt(ui) ** n
        members = radial[:, None] * angular
        fvals = members.conj().T @ f.coeffs
        recon += (members @ fvals) * (wphi * wui / (1.0 - ui) ** 2)
    recon *= s / (2.0 * math.pi)
    return float(np.max(np.abs(recon - f.coeffs)))


class TestTaylorExpmApply:
    def test_zero_matrix(self):
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        out = taylor_expm_apply(np.zeros((3, 3)), v)
        assert np.array_equal(out, v)

    def test_against_diagonalization(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        a = (a - a.conj().T) * 0.8  # skew-hermitian, like the generator
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        evals, evecs = np.linalg.eig(a)
        ref = evecs @ (np.exp(evals) * np.linalg.solve(evecs, v))
        out = taylor_expm_apply(a, v)
        assert float(np.max(np.abs(out - ref))) < 1e-11

    @pytest.mark.parametrize("params", [P22A, PASYM], ids=["integer-s", "float-s"])
    @pytest.mark.parametrize("z", [0.2 + 0j, 0.5 + 0.4j, 1.0j])
    def test_squaring_matches_vector_loop(self, params, z):
        gen = displacement_generator(params, z)
        e0 = np.eye(120, dtype=complex)[0]
        out = taylor_expm_apply(gen, e0)
        assert float(np.max(np.abs(out - taylor_vector_loop(gen, e0)))) <= 1e-13

    @pytest.mark.parametrize("params", [P22A, PASYM], ids=["integer-s", "float-s"])
    @pytest.mark.parametrize("z", [0.2 + 0j, 0.5 + 0.4j, 1.0j])
    def test_diagonal_products_match_dense_loop(self, params, z):
        gen = displacement_generator(params, z)
        e0 = np.eye(120, dtype=complex)[0]
        ref = taylor_dense_loop(gen, e0)
        assert float(np.max(np.abs(taylor_expm_apply(gen, e0) - ref))) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("offset", [1, -1, 3, -3])
    def test_nilpotent_shift_gives_inverse_factorials(self, offset):
        # exp(N) = sum_k N^k / k!, and N^k is the shift by k * offset
        shift = np.eye(6, k=offset)
        out = taylor_expm_apply(shift, np.eye(6))
        ref = sum(np.eye(6, k=k * offset) / math.factorial(k) for k in range(6))
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("z", [0.5 + 0.4j, 1.0j])
    def test_matches_scipy_expm(self, z):
        linalg = pytest.importorskip("scipy.linalg")
        gen = displacement_generator(PASYM, z)
        e0 = np.eye(120, dtype=complex)[0]
        ref = linalg.expm(gen) @ e0
        assert float(np.max(np.abs(taylor_expm_apply(gen, e0) - ref))) <= 1e-13

    @pytest.mark.parametrize("params", [P22A, PASYM], ids=["integer-s", "float-s"])
    @pytest.mark.parametrize("z", [0.2 + 0j, 0.5 + 0.4j, 1.0j])
    def test_band_storage_equals_diagonal_loop_on_generators(self, params, z):
        gen = displacement_generator(params, z)
        e0 = np.eye(120, dtype=complex)[0]
        assert np.array_equal(taylor_expm_apply(gen, e0), taylor_diagonal_loop(gen, e0))

    @pytest.mark.parametrize("shape", ["bands-at-minus2-plus5", "dense-12", "n-1"])
    @pytest.mark.parametrize("scale", [0.3, 6.0], ids=["no-squaring", "squared"])
    def test_band_storage_equals_diagonal_loop(self, shape, scale):
        rng = np.random.default_rng(29)
        if shape == "dense-12":
            m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        elif shape == "n-1":
            m = np.array([[0.7 - 0.4j]])
        else:
            m = np.diag(rng.normal(size=28) + 0.5j, -2) + np.diag(rng.normal(size=25), 5)
        m = scale * m
        n = len(m)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for vector in (v, np.eye(n)):
            assert np.array_equal(taylor_expm_apply(m, vector), taylor_diagonal_loop(m, vector))

    @pytest.mark.parametrize(
        "matrix, vector, match",
        [
            (np.ones((2, 3)), np.ones(3), r"square matrix and a vector of its size: \(2, 3\), \(3,\)"),
            (np.ones(3), np.ones(3), r"square matrix and a vector of its size: \(3,\), \(3,\)"),
            (np.ones((0, 0)), np.ones(0), r"square matrix and a vector of its size: \(0, 0\), \(0,\)"),
            (np.eye(3), np.ones(4), r"square matrix and a vector of its size: \(3, 3\), \(4,\)"),
            (np.eye(3), np.ones((2, 3)), r"square matrix and a vector of its size: \(3, 3\), \(2, 3\)"),
            (np.eye(3), np.ones((3, 1, 1)), r"square matrix and a vector of its size: \(3, 3\), \(3, 1, 1\)"),
            ([[math.nan, 0.0], [0.0, 0.0]], np.ones(2), "1-norm is not finite: nan"),
            ([[math.inf, 0.0], [0.0, 0.0]], np.ones(2), "1-norm is not finite: inf"),
            ([[1e308, 0.0], [1e308, 0.0]], np.ones(2), "1-norm is not finite: inf"),
        ],
        ids=["2x3", "1-d", "empty", "short-vector", "wide-vector", "3-d-vector", "nan", "inf", "norm-overflow"],
    )
    def test_bad_input_is_value_error(self, matrix, vector, match):
        with pytest.raises(ValueError, match=match):
            taylor_expm_apply(matrix, vector)

    def test_nan_amplitude_is_value_error(self):
        with pytest.raises(ValueError, match="not finite"):
            displacement_oracle(P22, complex(math.nan, 0.0), 120)


class TestOracleFailures:
    """Budget attributes at each oracle raise site, and the float-range guard."""

    def test_taylor_budget(self):
        gen = 0.9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            taylor_expm_apply(gen, np.array([1.0, 0.0]), max_terms=3)
        assert err.value.terms_used == 4
        # gen^3 / 3! = -0.9^3 J / 6, whose Frobenius norm is 0.9^3 sqrt(2) / 6
        assert err.value.last_term == pytest.approx(0.9**3 * math.sqrt(2.0) / 6.0, rel=1e-14)

    def test_cn_series_budget(self):
        with pytest.raises(ConvergenceError) as err:
            cn_series(P22, 4, 0.9, 4)
        assert err.value.terms_used == 5
        last = pi_table(P22, 4, 4)[(5, 4)] * 0.9**8 / math.factorial(12)
        assert err.value.last_term == pytest.approx(last, rel=1e-14)

    def test_gk_moment_budget(self):
        # mu = 1096: cutoffs 1126, 1146, ..., 1206 all leave the tail significant
        with pytest.raises(ConvergenceError) as err:
            gk_moment_oracle(P22, 545, 4.0)
        assert err.value.terms_used == 5
        assert err.value.partial_sum == 1206.0
        assert err.value.last_term > 1e-16

    def test_overflowing_squaring_is_named_arithmetic_error(self):
        params = PotentialParams(kappa=1e300, kappap=2.0)
        with pytest.raises(ArithmeticError, match=r"1-norm 4\.354\d*e\+150, 501 squarings") as err:
            displacement_oracle(params, 0.2, 120)
        assert type(err.value) is ArithmeticError


class TestDisplacementOracle:
    def test_zero_is_identity(self):
        st = displacement_oracle(P22, 0.0, 60)
        assert st.coeffs[0] == pytest.approx(1.0, rel=1e-15)
        assert float(np.max(np.abs(st.coeffs[1:]))) == 0.0

    def test_unitary_norm(self):
        st = displacement_oracle(P22A, 0.9 + 0.3j, 120)
        assert float(np.linalg.norm(st.coeffs)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form(self):
        z = 0.5 + 0.4j
        oracle = displacement_oracle(P22A, z, 120)
        closed = kp_from_z(P22A, z, 0.3, 120)
        assert float(np.max(np.abs(oracle.coeffs - closed.coeffs))) <= 1e-8

    def test_grid_of_amplitudes(self):
        # nine-point complex grid, |z| <= 1, per-coefficient agreement
        rng = np.random.default_rng(8)
        for _ in range(9):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            oracle = displacement_oracle(PASYM, z, 120)
            closed = kp_from_z(PASYM, z, PASYM.alpha, 120)
            assert float(np.max(np.abs(oracle.coeffs - closed.coeffs))) <= 1e-8

    def test_underdimensioned_rejected(self):
        with pytest.raises(ValueError):
            displacement_oracle(P22, 3.0, 50)

    @pytest.mark.parametrize("kappa", [2.0, 30.0])
    def test_check_reports_the_closed_form_tail(self, kappa):
        # at kappa = kappa' = 30 the closed form, truncated at dim 120, fails
        # the check by its own truncation, and the row says so
        params = PotentialParams(kappa=kappa, kappap=kappa)
        (row,) = run_suite(params, ["displacement-equivalence"])
        tail = max(kp_from_z(params, z, 0.0, 120).tail_bound for z in (0.2, 0.5 + 0.4j, 1.0j))
        assert row.details["closed_tail_bound"] == tail
        assert row.passed == (kappa == 2.0)
        assert (tail >= 1e-3) == (kappa == 30.0)


def boost_element_closed(p, q, t, weight):
    """<p| exp(t(a+ - a-)) |q> from the disentangled normal-ordered form.

    Splitting the exponential into raising, diagonal, and lowering factors
    gives a finite sum over how far the lowering leg descends; this is an
    independent route to the same matrix the Taylor exponential builds.
    """
    zeta = math.tanh(t)
    total = 0.0
    for j in range(0, q + 1):
        if p - q + j < 0:
            continue
        total += (
            (-1.0) ** j
            * zeta ** (2 * j)
            * (1.0 - zeta * zeta) ** (-j)
            / (
                math.factorial(j)
                * math.factorial(p - q + j)
                * math.factorial(q - j)
                * math.exp(log_gamma(q - j + 2 * weight))
            )
        )
    pref = (
        (1.0 - zeta * zeta) ** (weight + q)
        * zeta ** (p - q)
        * math.sqrt(
            math.factorial(p)
            * math.factorial(q)
            * math.exp(log_gamma(p + 2 * weight) + log_gamma(q + 2 * weight))
        )
    )
    return pref * total


class TestBoostMatrixElements:
    """Two independent routes to <p| exp(t(a+ - a-)) |q>."""

    WEIGHT = 2.5  # (kappa + kappa' + 1)/2 for the 2,2 well

    def columns(self, q, t, dim=70):
        ops = build_matrices(P22, dim)
        gen = t * (ops.a_plus.entries - ops.a_minus.entries)
        e_q = np.zeros(dim, dtype=complex)
        e_q[q] = 1.0
        return taylor_expm_apply(gen, e_q)

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("t", [0.3, 0.8])
    def test_disentangled_form_vs_exponential(self, q, t):
        col = self.columns(q, t)
        worst = max(
            abs(boost_element_closed(p, q, t, self.WEIGHT) - col[p].real)
            + abs(col[p].imag)
            for p in range(25)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("t", [0.25, 0.6])
    def test_jacobi_fn_reproduces_elements(self, q, t):
        # the hyperbolic Jacobi function at general first index equals the
        # boost element up to the exact weight ratio
        #   sqrt( p! Gamma(q+2k) / ( q! Gamma(p+2k) ) ),
        # which pins the series' index dependence with no free constant
        col = self.columns(q, t)
        k = self.WEIGHT
        for p in range(q, q + 8):
            scale = math.sqrt(
                math.factorial(p)
                * math.exp(log_gamma(q + 2 * k))
                / (math.factorial(q) * math.exp(log_gamma(p + 2 * k)))
            )
            val = jacobi_fn_ss(-k, q + k, p + k, t)
            assert val == pytest.approx(scale * col[p].real, rel=1e-10, abs=1e-13)


class TestPiTable:
    def test_zeroth_column_is_one(self):
        table = pi_table(P22, 8, 3)
        assert all(table[(k, 0)] == 1 for k in range(1, 10))

    def test_first_entry(self):
        table = pi_table(P22, 1, 1)
        assert table[(1, 1)] == 5  # single-term sum, first level spacing

    def test_exact_integer_arithmetic(self):
        table = pi_table(P22, 10, 5)
        assert isinstance(table[(5, 3)], int)

    def test_difference_identity_exact(self):
        n_max, j_max = 10, 5
        table = pi_table(P22, n_max, j_max)
        s = 4
        for n in range(1, n_max + 1):
            for j in range(1, j_max + 1):
                lhs = table[(n + 1, j)] - table[(n, j)]
                rhs = (n + 1) * ((n + 1) + s) * table[(n + 2, j - 1)]
                assert lhs == rhs  # exact integers, no tolerance

    def test_float_variant_for_general_strengths(self):
        # s = P/Q exactly, Q a power of two; the entries are Q^j pi(k, j)
        table = pi_table(PASYM, 6, 3)
        assert isinstance(table[(3, 2)], int)
        P, Q = PASYM.strength_sum.as_integer_ratio()
        for n in range(1, 6):
            for j in range(1, 4):
                lhs = table[(n + 1, j)] - table[(n, j)]
                assert lhs == (n + 1) * ((n + 1) * Q + P) * table[(n + 2, j - 1)]

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_bigger_table_holds_same_prefix(self, params):
        big = pi_table(params, 9, 80)
        for n in range(0, 10):
            small = pi_table(params, n, 80)
            assert all(big[key] == value for key, value in small.items())
        assert all(type(value) is int for value in big.values())

    def test_nested_sum_brute_force_oracle(self):
        # j = 2 entry computed from the literal double sum
        s = 4
        e = [i * (i + s) for i in range(20)]
        for k in (1, 3, 5):
            brute = sum(
                e[i1] * sum(e[i2] for i2 in range(1, i1 + 2))
                for i1 in range(1, k + 1)
            )
            assert pi_table(P22, k, 2)[(k, 2)] == brute


class TestCnSeries:
    def test_ground_at_zero(self):
        assert cn_series(P22, 0, 0.0, 10) == 1.0

    @pytest.mark.parametrize("n", [0, 2, 5, 8])
    @pytest.mark.parametrize("zmod", [0.1, 0.4, 0.9])
    def test_matches_elementary_form(self, n, zmod):
        series = cn_series(P22, n, zmod, 80)
        closed = cn_closed_form(P22, n, zmod)
        assert series == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_matches_jacobi_fn_route(self, n):
        zmod = 0.4
        assert cn_from_jacobi_fn(P22, n, zmod) == pytest.approx(
            cn_series(P22, n, zmod, 80), rel=1e-10
        )

    def test_float_path_for_general_strengths(self):
        series = cn_series(PASYM, 3, 0.4, 60)
        closed = cn_closed_form(PASYM, 3, 0.4)
        assert series == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_shared_table_gives_same_values(self, params):
        table = pi_table(params, 9, 80)
        for n in (0, 1, 4, 9):
            for zmod in (0.1, 0.4, 0.9):
                assert cn_series(params, n, zmod, 80, table) == cn_series(params, n, zmod, 80)

    def test_table_without_row_rejected(self):
        with pytest.raises(ValueError, match="table lacks"):
            cn_series(P22, 5, 0.4, 80, pi_table(P22, 3, 80))  # rows k <= 5 only
        with pytest.raises(ValueError, match="table lacks"):
            cn_series(P22, 2, 0.4, 80, pi_table(P22, 8, 10))  # j_max too small

    @pytest.mark.parametrize(
        "params", [P22, PASYM, PotentialParams(kappa=1.7, kappap=2.2)], ids=["integer-s", "float-s", "1.7-2.2"]
    )
    def test_skipped_stop_tests_change_no_value(self, params):
        j_max = verify._series_budget(params)
        table = pi_table(params, 8, j_max)

        def outcome(series, n, zmod):  # the value, or the attributes of the budget error
            try:
                return series(params, n, zmod, j_max, table)
            except ConvergenceError as err:
                return err.partial_sum, err.terms_used, err.last_term

        for n in range(9):
            for zmod in (0.0, 1e-3, 0.1, 0.4, 0.9, 1.3):  # j_max is sized for |z| <= 0.9
                assert outcome(cn_series, n, zmod) == outcome(cn_series_every_step, n, zmod)

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    @pytest.mark.parametrize("n, zmod, j_max", [(4, 0.9, 4), (0, 0.4, 2), (8, 1.3, 20), (3, 0.9, 0)])
    def test_skipped_stop_tests_keep_the_budget_error(self, params, n, zmod, j_max):
        with pytest.raises(ConvergenceError) as new:
            cn_series(params, n, zmod, j_max)
        with pytest.raises(ConvergenceError) as ref:
            cn_series_every_step(params, n, zmod, j_max)
        got, want = new.value, ref.value
        assert (got.partial_sum, got.terms_used, got.last_term) == (want.partial_sum, want.terms_used, want.last_term)

    @pytest.mark.parametrize(
        "params, other",
        [
            (P22, PotentialParams(kappa=3.0, kappap=3.0)),
            (PASYM, PotentialParams(kappa=1.7, kappap=2.2)),
            # s = 2.5 = 5/2 and s = 6 share Q e_1 = 7; Q (e_1 + e_2) is 25 against 23
            (PotentialParams(kappa=1.25, kappap=1.25), PotentialParams(kappa=3.0, kappap=3.0)),
        ],
        ids=["integer-s", "float-s", "same-first-entry"],
    )
    def test_table_for_another_strength_sum_rejected(self, params, other):
        with pytest.raises(ValueError, match="another strength sum"):
            cn_series(params, 0, 0.5, 70, pi_table(other, 8, 70))

    def test_table_for_the_same_strength_sum_accepted(self):
        table = pi_table(P22, 8, 70)
        assert cn_series(PotentialParams(kappa=1.5, kappap=2.5), 3, 0.5, 70, table) == cn_series(P22, 3, 0.5, 70)

    def test_insufficient_budget_raises(self):
        with pytest.raises(ConvergenceError):
            cn_series(P22, 4, 0.9, 4)

    @pytest.mark.parametrize("kappap", [2.0, 3.0, 4.0, 5.0, 6.0])
    def test_exact_path_equals_fraction_loop(self, kappap):
        # the points of cn-triple-agreement and cn-ode, bit for bit
        params = PotentialParams(kappa=2.0, kappap=kappap)
        h = 1e-3
        zmods = (0.1, 0.4, 0.9, 0.5, 0.5 + h, 0.5 - h, 0.5 + 2 * h, 0.5 - 2 * h)
        for n in range(0, 9):
            for zmod in zmods:
                assert cn_series(params, n, zmod, 80) == cn_series_fraction(params, n, zmod, 80)

    @pytest.mark.parametrize("kappap", [2.2, 3.8, 6.1])
    def test_float_strengths_equal_fraction_reference(self, kappap):
        # s is not an integer: the pi table of the reference is summed in
        # Fraction from i(i + s), not taken from pi_table
        params = PotentialParams(kappa=1.7, kappap=kappap)
        j_max = verify._series_budget(params)
        table = pi_table_fraction(params, 8, j_max)
        h = 1e-3
        zmods = (0.1, 0.4, 0.9, 0.5, 0.5 + h, 0.5 - h, 0.5 + 2 * h, 0.5 - 2 * h)
        for n in range(0, 9):
            for zmod in zmods:
                assert cn_series(params, n, zmod, j_max) == cn_series_fraction(params, n, zmod, j_max, table)

    @pytest.mark.parametrize("n, zmod, j_max", [(4, 0.9, 4), (0, 0.4, 2), (8, 0.9, 10)])
    def test_exact_partial_sum_equals_fraction_loop(self, n, zmod, j_max):
        with pytest.raises(ConvergenceError) as new:
            cn_series(P22, n, zmod, j_max)
        with pytest.raises(ConvergenceError) as ref:
            cn_series_fraction(P22, n, zmod, j_max)
        assert new.value.partial_sum == ref.value.partial_sum

    def test_ode_residual_by_stencil(self):
        # |z| c_n' = c_{n-1} - n c_n - (n+1)(n+1+s) |z|^2 c_{n+1}
        s, zmod, h = 4.0, 0.5, 1e-3
        for n in range(0, 7):
            def c(r, k=n):
                return cn_series(P22, k, r, 80)

            deriv = (-c(zmod + 2 * h) + 8 * c(zmod + h) - 8 * c(zmod - h) + c(zmod - 2 * h)) / (12 * h)
            lower = cn_series(P22, n - 1, zmod, 80) if n >= 1 else 0.0
            upper = cn_series(P22, n + 1, zmod, 80)
            rhs = lower - n * c(zmod) - (n + 1.0) * (n + 1.0 + s) * zmod**2 * upper
            assert zmod * deriv == pytest.approx(rhs, abs=1e-6)


@pytest.mark.parametrize(
    "kappa, kappap",
    [(1.1, 1.1), (2.0, 3.0), (3.8, 3.8), (6.1, 6.1), (10.0, 10.0), (15.3, 15.3), (20.0, 25.3), (30.0, 30.0)],
)
def test_series_checks_across_strengths(kappa, kappap):
    # s from 2.2 to 60, integer and not: one exact path, budget from s
    params = PotentialParams(kappa=kappa, kappap=kappap)
    triple, recursion, ode = run_suite(params, ["cn-triple-agreement", "pi-recursion", "cn-ode"])
    assert triple.max_deviation <= 1e-13
    assert recursion.passed and recursion.tolerance == 0.0
    assert ode.passed
    assert triple.details["j_max"] == ode.details["j_max"] == verify._series_budget(params)


@pytest.mark.parametrize("zmod", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize(
    "route",
    [
        lambda zmod: cn_series(P22, 0, zmod, 10),
        lambda zmod: cn_closed_form(P22, 0, zmod),
        lambda zmod: cn_from_jacobi_fn(P22, 0, zmod),
    ],
    ids=["series", "closed-form", "jacobi-fn"],
)
def test_cn_routes_share_one_zmod_domain(route, zmod):
    with pytest.raises(ValueError, match="zmod must be finite and >= 0"):
        route(zmod)


def test_suite_checks_take_no_options():
    # each check's budgets are written once, in its body; no caller sets them
    checks = [f for name, f in vars(verify).items()
              if name.startswith("_check_") and getattr(f, "__module__", None) == verify.__name__]
    assert len(checks) >= 8
    for check in checks:
        params = inspect.signature(check).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), check.__name__
    assert "tol" not in inspect.signature(taylor_expm_apply).parameters


def test_series_budget_capped_above_validated_strengths():
    # the budget stops growing past s = 60, so a larger s ends in
    # ConvergenceError after bounded work rather than an unbounded table
    assert verify._series_budget(PotentialParams(kappa=30.0, kappap=30.0)) == 244
    assert verify._series_budget(PotentialParams(kappa=1e300, kappap=2.0)) == 244
    with pytest.raises(ConvergenceError, match="j_max = 244"):
        run_suite(PotentialParams(kappa=80.0, kappap=2.0), ["cn-triple-agreement"])


class TestKPIdentity:
    def test_exact_beta_path(self):
        rep = kp_identity_check(P22)
        assert rep.details["exact_path_deviation"] <= 1e-13

    def test_numeric_path(self):
        rep = kp_identity_check(P22, trunc_levels=20, radial_nodes=200)
        assert rep.passed
        assert rep.max_deviation <= 1e-6

    def test_non_integer_strengths(self):
        rep = kp_identity_check(PASYM, trunc_levels=15)
        assert rep.passed

    @pytest.mark.parametrize("params", [P22, PASYM, PotentialParams(1.1, 1.3), PotentialParams(4.0, 3.0)])
    @pytest.mark.parametrize("trunc_levels", [0, 7, 20])
    def test_level_array_matches_level_loop(self, params, trunc_levels):
        rep = kp_identity_check(params, trunc_levels=trunc_levels)
        numeric, exact = kp_identity_level_loop(params, trunc_levels)
        assert abs(rep.max_deviation - numeric) <= 1e-14
        assert abs(rep.details["exact_path_deviation"] - exact) <= 1e-14

    @pytest.mark.parametrize("check", [kp_identity_check, gk_identity_check])
    def test_reports_only_computed_details(self, check):
        rep = check(P22)
        assert not {"alpha", "off_diagonal"} & set(rep.details)


class TestGKMeasure:
    def test_full_index_moments(self):
        for n in (0, 3, 10):
            assert gk_moment_oracle(P22, n, 4.0) == pytest.approx(1.0, abs=1e-6)

    def test_halved_index_fails_visibly(self):
        ratio = gk_moment_oracle(P22, 0, 2.0)
        assert abs(ratio - 1.0) > 0.10
        assert ratio == pytest.approx(0.25, rel=1e-6)  # Gamma(4)Gamma(2)/Gamma(1)Gamma(5)

    def test_closed_form_exactness_at_n0(self):
        # with nu = s the moment collapses to Gamma(n+1)Gamma(n+s+1) exactly
        assert gk_moment_oracle(P22, 0, 4.0) == pytest.approx(1.0, abs=1e-9)

    def test_identity_report(self):
        rep = gk_identity_check(P22, trunc_levels=10)
        assert rep.passed
        assert rep.details["halved_index_deviation"] > 0.10

    def test_domain(self):
        with pytest.raises(ValueError):
            gk_moment_oracle(P22, 0, 0.0)

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_level_array_top_equals_scalar_call(self, params):
        s = params.strength_sum
        moments = gk_moment_oracle(params, np.arange(11), s)
        assert moments.shape == (11,)
        assert moments[-1] == gk_moment_oracle(params, 10, s)

    @pytest.mark.parametrize("kappa", [1.001, 1.1, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("shift", [0.0, 0.3], ids=["kappap=kappa", "kappap=kappa+0.3"])
    def test_level_array_resolves_identity(self, kappa, shift):
        params = PotentialParams(kappa=kappa, kappap=kappa + shift)
        moments = gk_moment_oracle(params, np.arange(11), params.strength_sum)
        assert float(np.max(np.abs(moments - 1.0))) <= 1e-10

    @pytest.mark.parametrize("n", [-1, 1.5, math.inf, math.nan, [0, -1], [[0, 1]], []])
    def test_level_domain(self, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            gk_moment_oracle(P22, n, 4.0)

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_batched_cutoff_equals_scalar_search(self, params):
        s = params.strength_sum
        for n, nu in [(n, s) for n in range(0, 11)] + [(0, s / 2.0), (3, 0.7)]:
            assert gk_moment_oracle(params, n, nu) == gk_moment_scalar_search(params, n, nu)


class TestReconstruction:
    def test_ground_state(self):
        coeffs = np.zeros(10, dtype=complex)
        coeffs[0] = 1.0
        rep = reconstruction_check(P22, StateVector(coeffs, P22), alpha=0.0)
        assert rep.passed

    def test_two_level_mixture(self):
        coeffs = np.zeros(12, dtype=complex)
        coeffs[0] = coeffs[3] = 1.0 / math.sqrt(2.0)
        rep = reconstruction_check(P22, StateVector(coeffs, P22), alpha=0.0)
        assert rep.passed

    def test_nonzero_alpha_phases(self):
        # exercises the conjugation convention of the transform
        coeffs = np.zeros(12, dtype=complex)
        coeffs[0] = coeffs[3] = 1.0 / math.sqrt(2.0)
        rep = reconstruction_check(P22, StateVector(coeffs, P22), alpha=0.3)
        assert rep.passed

    def test_basis_state_reduces_to_identity_diagonal(self):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[4] = 1.0
        rep = reconstruction_check(P22, StateVector(coeffs, P22), alpha=0.0)
        assert rep.passed
        identity = kp_identity_check(P22, trunc_levels=8)
        assert rep.max_deviation <= 10.0 * max(identity.max_deviation, 1e-12)

    @pytest.mark.parametrize("params", [P22, PASYM, PotentialParams(1.1, 1.3)])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("levels", [(0,), (0, 3), (1, 2, 5, 7)])
    def test_node_table_matches_node_loop(self, params, alpha, levels):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[list(levels)] = np.exp(1j * np.arange(len(levels))) / math.sqrt(len(levels))
        f = StateVector(coeffs, params)
        rep = reconstruction_check(params, f, alpha)
        assert abs(rep.max_deviation - reconstruction_node_loop(params, f, alpha)) <= 1e-14


class TestRunSuite:
    def test_full_suite_passes(self):
        reports = run_suite(P22A)
        assert [r.check_name for r in reports] == list(SUITE_NAMES)
        assert all(r.passed for r in reports)

    def test_subset_keeps_canonical_order(self):
        reports = run_suite(P22, names=["pi-recursion", "kp-identity"])
        assert [r.check_name for r in reports] == ["pi-recursion", "kp-identity"]
        reports = run_suite(P22, names=["kp-identity", "pi-recursion"])
        assert [r.check_name for r in reports] == ["pi-recursion", "kp-identity"]

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_checks_share_no_state(self, params):
        together = [r.as_dict() for r in run_suite(params)]
        alone = [run_suite(params, [name])[0].as_dict() for name in SUITE_NAMES]
        assert together == alone

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_alpha_free_checks_ignore_alpha(self, params):
        names = ["cn-triple-agreement", "pi-recursion", "cn-ode", "kp-identity", "gk-measure-index", "gk-identity"]
        at = [[r.as_dict() for r in run_suite(dataclasses.replace(params, alpha=a), names)] for a in (0.0, 0.7)]
        assert at[0] == at[1]

    def test_moments_computed_once_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return gk_moment_oracle(*args)

        monkeypatch.setattr(verify, "gk_moment_oracle", counted)
        run_suite(P22)
        assert len(calls) == 2  # the 11 levels at nu = s and the halved index, read by both gk checks
        calls.clear()
        for name in SUITE_NAMES:
            run_suite(P22, [name])
        assert len(calls) == 4  # nothing is kept between calls

    def test_suite_builds_pi_table_twice(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return pi_table(*args)

        monkeypatch.setattr(verify, "pi_table", counted)
        run_suite(P22)
        assert len(calls) == 2  # one for both c_n checks, one for pi-recursion
        calls.clear()
        for name in SUITE_NAMES:
            run_suite(P22, [name])
        assert len(calls) == 3  # nothing is kept between calls

    def test_suite_makes_four_bessel_k_calls(self, monkeypatch):
        import ptcs
        import ptcs.specfun
        import ptcs.states

        calls = []

        def counted(*args):
            calls.append(args)
            return bessel_k(*args)

        for module in (ptcs, ptcs.specfun, ptcs.states, verify):
            if hasattr(module, "bessel_k"):
                monkeypatch.setattr(module, "bessel_k", counted)
        run_suite(P22)
        assert len(calls) == 4  # cutoff search and nodes, per moment call

    def test_cn_ode_evaluates_each_point_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1:3])
            return cn_series(*args)

        monkeypatch.setattr(verify, "cn_series", counted)
        run_suite(P22, ["cn-ode"])
        assert len(calls) == len(set(calls)) == 36  # 7 levels x 4 stencil points, 8 levels at |z|

    def test_dense_matrices_built_once_per_check_use(self, monkeypatch):
        import ptcs
        import ptcs.operators
        import ptcs.states

        calls = []

        def counted(*args):
            calls.append(args)
            return build_matrices(*args)

        for module in (ptcs, ptcs.operators, ptcs.states, verify):
            if hasattr(module, "build_matrices"):
                monkeypatch.setattr(module, "build_matrices", counted)
        run_suite(P22)
        assert len(calls) == 4  # one per displacement amplitude, one for gk-action

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="valid names"):
            run_suite(P22, names=["no-such-check"])


def test_oracle_imports_from_closed_form_layer_pinned():
    # an oracle must not be routed through the closed form it checks:
    # growing this list needs a reason in review
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("ptcs")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ptcs") for a in node.names)
    assert imported == {
        # _check_well and _check_zmod are shared input rules, not closed forms
        "operators": {"StateVector", "_check_well", "build_matrices"},
        "report": {"VerifyReport"},
        "specfun": {
            "ConvergenceError", "_count", "_levels", "bessel_k", "gamma_ratio", "jacobi_fn_ss", "log_gamma",
        },
        "states": {
            "GKLabel", "KPLabel", "_check_zmod", "evolve", "evolve_coefficients",
            "gk_annihilation_residual", "gk_coefficients", "kp_coefficients", "kp_from_z",
        },
    }


def test_gk_moment_past_float_range_is_named_without_warning():
    # the moment is integrated in the linear domain: t^(2n+s+1) overflows at n = 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=r"at n = 100, nu = 4\.0, s = 4") as err:
            gk_moment_oracle(PotentialParams(2, 2), 100, 4.0)
    assert not isinstance(err.value, ConvergenceError)


class TestEmptyBudgets:
    """An oracle given nothing to check raises instead of reporting a pass."""

    @pytest.mark.parametrize("check", [kp_identity_check, gk_identity_check])
    def test_trunc_levels(self, check):
        with pytest.raises(ValueError, match="trunc_levels must be >= 0"):
            check(P22, trunc_levels=-1)

    @pytest.mark.parametrize("radial_nodes", [0, -5])
    def test_radial_nodes(self, radial_nodes):
        f = StateVector(np.eye(4, dtype=complex)[0], P22)
        for call in (
            lambda: kp_identity_check(P22, radial_nodes=radial_nodes),
            lambda: gk_identity_check(P22, radial_nodes=radial_nodes),
            lambda: gk_moment_oracle(P22, 0, 4.0, radial_nodes=radial_nodes),
            lambda: reconstruction_check(P22, f, 0.0, radial_nodes=radial_nodes),
        ):
            with pytest.raises(ValueError, match="radial_nodes must be >= 1"):
                call()

    @pytest.mark.parametrize("angular_nodes", [0, -1])
    def test_angular_nodes(self, angular_nodes):
        f = StateVector(np.eye(4, dtype=complex)[0], P22)
        with pytest.raises(ValueError, match="angular_nodes must be >= 1"):
            reconstruction_check(P22, f, 0.0, angular_nodes=angular_nodes)


@pytest.mark.parametrize("trunc_levels", [2.5, 0.5, math.inf, math.nan])
@pytest.mark.parametrize("check", [kp_identity_check, gk_identity_check])
def test_non_integer_trunc_levels_is_value_error(check, trunc_levels):
    with pytest.raises(ValueError, match="trunc_levels"):
        check(P22, trunc_levels=trunc_levels)
