"""Oracle layer: matrix exponential, nested-sum tables, identity checks."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ptcs.operators import PotentialParams, StateVector, build_matrices
import ptcs.verify as verify
from ptcs.specfun import ConvergenceError, bessel_k, jacobi_fn_ss, log_gamma
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


def displacement_generator(params, z, dim=120):
    ops = build_matrices(params, dim)
    return z * ops.a_plus.entries - np.conj(z) * ops.a_minus.entries


def cn_series_fraction(params, n, zmod, j_max):
    """Reference: the exact-rational cn_series loop accumulated in Fraction."""
    table = pi_table(params, n, j_max)
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

    @pytest.mark.parametrize("z", [0.5 + 0.4j, 1.0j])
    def test_matches_scipy_expm(self, z):
        linalg = pytest.importorskip("scipy.linalg")
        gen = displacement_generator(PASYM, z)
        e0 = np.eye(120, dtype=complex)[0]
        ref = linalg.expm(gen) @ e0
        assert float(np.max(np.abs(taylor_expm_apply(gen, e0) - ref))) <= 1e-13


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
        table = pi_table(PASYM, 6, 3)
        assert isinstance(table[(3, 2)], float)
        s = PASYM.strength_sum
        for n in range(1, 6):
            for j in range(1, 4):
                lhs = table[(n + 1, j)] - table[(n, j)]
                rhs = (n + 1) * ((n + 1) + s) * table[(n + 2, j - 1)]
                assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("params", [P22, PASYM], ids=["integer-s", "float-s"])
    def test_bigger_table_holds_same_prefix(self, params):
        big = pi_table(params, 9, 80)
        for n in range(0, 10):
            small = pi_table(params, n, 80)
            assert all(big[key] == value for key, value in small.items())
        kind = int if params is P22 else float
        assert all(type(value) is kind for value in big.values())

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


class TestKPIdentity:
    def test_exact_beta_path(self):
        rep = kp_identity_check(P22, alpha=0.0)
        assert rep.details["exact_path_deviation"] <= 1e-13

    def test_numeric_path(self):
        rep = kp_identity_check(P22, alpha=0.0, trunc_levels=20, radial_nodes=200)
        assert rep.passed
        assert rep.max_deviation <= 1e-6

    def test_non_integer_strengths(self):
        rep = kp_identity_check(PASYM, alpha=0.2, trunc_levels=15)
        assert rep.passed


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
        rep = gk_identity_check(P22, alpha=0.0, trunc_levels=10)
        assert rep.passed
        assert rep.details["halved_index_deviation"] > 0.10

    def test_domain(self):
        with pytest.raises(ValueError):
            gk_moment_oracle(P22, 0, 0.0)

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
        identity = kp_identity_check(P22, alpha=0.0, trunc_levels=8)
        assert rep.max_deviation <= 10.0 * max(identity.max_deviation, 1e-12)


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

    def test_moments_computed_once_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return gk_moment_oracle(*args)

        monkeypatch.setattr(verify, "gk_moment_oracle", counted)
        run_suite(P22)
        assert len(calls) == 12  # 11 levels at nu = s and the halved index
        calls.clear()
        for name in SUITE_NAMES:
            run_suite(P22, [name])
        assert len(calls) == 24  # nothing is kept between calls

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
        "operators": {"StateVector", "build_matrices"},
        "report": {"VerifyReport"},
        "specfun": {"ConvergenceError", "bessel_k", "gamma_ratio", "jacobi_fn_ss", "log_gamma"},
        "states": {
            "GKLabel", "KPLabel", "evolve", "evolve_coefficients",
            "gk_annihilation_residual", "gk_coefficients", "kp_coefficients", "kp_from_z",
        },
    }
