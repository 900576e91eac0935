"""Position-space realization: grids, factorization, eigenfunctions, wavefunctions."""

import math
import tracemalloc

import numpy as np
import pytest

import ptcs.position
from ptcs.operators import PotentialParams, energy
from ptcs.position import (
    PositionGrid,
    QuadratureRule,
    _gauss_legendre,
    eigenfunction,
    eigenfunction_table,
    gauss_legendre_grid,
    grid_inner_product,
    norm_constant,
    open_simpson_grid,
    potential,
    superpotential,
    wavefunction,
)
from ptcs.specfun import ConvergenceError, jacobi_poly_all, log_gamma
from ptcs.states import (
    GKLabel,
    ISLabel,
    KPLabel,
    evolve_coefficients,
    gk_coefficients,
    is_coefficients,
    kp_coefficients,
)

P22 = PotentialParams(kappa=2.0, kappap=2.0)
PASYM = PotentialParams(kappa=1.5, kappap=2.5)

H_STENCIL = math.pi / 4096.0


@pytest.fixture(scope="module")
def grid2000():
    """The 2000-node Gauss-Legendre grid on (0, pi), shared by the dim-2000 tests."""
    return gauss_legendre_grid(P22, 2000)


def stencil_d1(f, x, h=H_STENCIL):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

def stencil_d2(f, x, h=H_STENCIL):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )


class TestGrids:
    @pytest.mark.parametrize(
        "make,rule",
        [
            (lambda p: gauss_legendre_grid(p, 400), QuadratureRule.GAUSS_LEGENDRE),
            (lambda p: open_simpson_grid(p, 150), QuadratureRule.COMPOSITE_SIMPSON),
        ],
    )
    def test_invariants(self, make, rule):
        params = PotentialParams(kappa=2.0, kappap=2.0, a=1.7)
        grid = make(params)
        assert grid.rule is rule
        assert np.all(grid.nodes > 0.0)
        assert np.all(grid.nodes < math.pi * 1.7)
        assert float(np.sum(grid.weights)) == pytest.approx(math.pi * 1.7, rel=1e-13)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, "400", None, 1, 0, -3.0])
    def test_gauss_legendre_size_must_be_an_integer_of_at_least_two(self, bad):
        with pytest.raises(ValueError, match="n_nodes"):
            gauss_legendre_grid(P22, bad)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3", None, 0, -1.0])
    def test_open_simpson_size_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="n_panels"):
            open_simpson_grid(P22, bad)

    def test_integral_float_sizes_are_accepted(self):
        assert np.array_equal(gauss_legendre_grid(P22, 3.0).nodes, gauss_legendre_grid(P22, 3).nodes)
        assert np.array_equal(open_simpson_grid(P22, 3.0).nodes, open_simpson_grid(P22, 3).nodes)

    def test_open_simpson_integrates_smooth_vanishing_function(self):
        grid = open_simpson_grid(P22, 400)
        vals = np.sin(grid.nodes / 2.0) ** 4 * np.cos(grid.nodes / 2.0) ** 4
        ref = 3.0 * math.pi / 128.0
        assert float(np.sum(grid.weights * vals)) == pytest.approx(ref, rel=1e-9)

    def test_rejects_boundary_nodes(self):
        with pytest.raises(ValueError):
            PositionGrid(
                nodes=np.array([0.0, 1.0]),
                weights=np.array([1.0, math.pi - 1.0]),
                rule=QuadratureRule.GAUSS_LEGENDRE,
                length=math.pi,
            )

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            PositionGrid(
                nodes=np.array([1.0, 2.0]),
                weights=np.array([1.0, 1.0]),
                rule=QuadratureRule.GAUSS_LEGENDRE,
                length=math.pi,
            )

    @pytest.mark.parametrize(
        "nodes,weights",
        [([1.0, math.nan], [math.pi, math.nan]), ([1.0, 2.0], [math.pi, math.nan]),
         ([1.0, math.nan], [1.0, math.pi - 1.0])],
    )
    def test_rejects_non_finite_nodes_and_weights(self, nodes, weights):
        with pytest.raises(ValueError):
            PositionGrid(
                nodes=np.array(nodes),
                weights=np.array(weights),
                rule=QuadratureRule.GAUSS_LEGENDRE,
                length=math.pi,
            )


class TestGaussLegendreRule:
    """The O(n) rule on [-1, 1] behind `gauss_legendre_grid`."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 30, 120, 399, 400, 2000])
    def test_nodes_match_leggauss_and_mirror_exactly(self, n):
        x, w = _gauss_legendre(n)
        ref = np.polynomial.legendre.leggauss(n)[0]
        assert float(np.max(np.abs(x - ref))) <= 2.3e-16
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0

    @pytest.mark.parametrize("n", [30, 400, 2000])
    def test_weights_match_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        x, w = _gauss_legendre(n)
        # the 8 outermost nodes and 8 more spread over the rest of one half;
        # the other half is the exact mirror image
        picks = sorted(set(range(8)) | set(np.linspace(8, n // 2, 8).astype(int).tolist()))
        worst = 0.0
        with mpmath.workdps(40):
            for i in picks:
                root = mpmath.mpf(float(x[i]))
                for _ in range(3):  # Newton from a node that is already ~1 ulp off
                    prev, cur = mpmath.mpf(1), root
                    for k in range(1, n):
                        prev, cur = cur, ((2 * k + 1) * root * cur - k * prev) / (k + 1)
                    slope = n * (root * cur - prev) / (root * root - 1)
                    root -= cur / slope
                ref = 2 / ((1 - root * root) * slope * slope)
                worst = max(worst, float(abs(w[i] - ref) / ref))
        assert worst <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 30, 400])
    def test_exact_for_every_degree_below_2n(self, n):
        x, w = _gauss_legendre(n)
        moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)
        expected = np.zeros(2 * n)
        expected[0] = 2.0
        assert float(np.max(np.abs(moments - expected))) <= 1e-13

    def test_grid_2000_peak_memory_is_linear(self):
        # leggauss(2000) takes the eigenvalues of a dense 2000 x 2000 matrix: 32 MB
        tracemalloc.start()
        try:
            gauss_legendre_grid(P22, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_step_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(ptcs.position, "_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match="n = 400") as info:
            _gauss_legendre(400)
        assert info.value.terms_used == 1 and info.value.last_term > 1e-16


class TestPotential:
    def test_midpoint_value(self):
        # kappa = kappa' = 2, a = 1: V(pi/2) = (1/4)(4 + 4) - 4 = -2
        assert potential(P22, math.pi / 2.0) == pytest.approx(-2.0, rel=1e-14)

    def test_symmetric_well_mirror(self):
        xs = np.linspace(0.3, 1.2, 7)
        for x in xs:
            assert potential(P22, x) == pytest.approx(
                potential(P22, math.pi - x), rel=1e-12
            )

    @pytest.mark.parametrize("params", [P22, PASYM])
    def test_factorization_identity(self, params):
        # V = W^2 - W' pointwise (W' by central stencil)
        for x in np.linspace(0.25, math.pi - 0.25, 9):
            w = superpotential(params, x)
            w_prime = stencil_d1(lambda t: superpotential(params, t), x)
            assert potential(params, x) == pytest.approx(w * w - w_prime, rel=1e-9, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            potential(P22, 0.0)
        with pytest.raises(ValueError):
            potential(P22, math.pi)

    def test_rejects_non_finite_position(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly inside"):
                eigenfunction(P22, 3, [1.0, bad])


class TestSuperpotential:
    def test_symmetric_midpoint_zero(self):
        assert superpotential(P22, math.pi / 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_divergence_at_both_walls(self):
        # monotone blow-up approaching either wall: -inf at 0+, +inf at pi a-
        left = superpotential(P22, np.array([0.3, 0.2, 0.1, 0.05, 0.01]))
        assert np.all(np.diff(left) < 0) and left[-1] < -100.0
        right = superpotential(P22, math.pi - np.array([0.3, 0.2, 0.1, 0.05, 0.01]))
        assert np.all(np.diff(right) > 0) and right[-1] > 100.0

    @pytest.mark.parametrize("params", [P22, PASYM])
    def test_ground_state_annihilation_pointwise(self, params):
        # (d/dx + W) psi_0 = 0 on a wide interior band, derivative by stencil
        xs = np.linspace(0.06 * math.pi, 0.94 * math.pi, 200)
        psi0 = lambda x: eigenfunction(params, 0, x)
        resid = stencil_d1(psi0, xs) + superpotential(params, xs) * psi0(xs)
        assert float(np.max(np.abs(resid))) <= 1e-8


class TestNormConstant:
    @pytest.mark.parametrize("params", [P22, PASYM])
    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_quadrature_oracle(self, params, n):
        grid = gauss_legendre_grid(params, 400)
        t = grid.nodes / (2.0 * params.a)
        raw = (
            np.sin(t) ** params.kappa
            * np.cos(t) ** params.kappap
        )
        from ptcs.specfun import jacobi_poly

        poly = jacobi_poly(
            n, params.kappa - 0.5, params.kappap - 0.5, np.cos(grid.nodes / params.a)
        )
        direct = float(np.sum(grid.weights * (raw * poly) ** 2))
        assert norm_constant(params, n) == pytest.approx(direct, rel=1e-10)

    def test_ground_value_symmetric_well(self):
        # integral of sin^4(x/2) cos^4(x/2) over (0, pi) is 3 pi / 128
        assert norm_constant(P22, 0) == pytest.approx(3.0 * math.pi / 128.0, rel=1e-13)

    def test_successive_ratio_matches_closed_form(self):
        s = PASYM.strength_sum
        al, be = PASYM.kappa - 0.5, PASYM.kappap - 0.5
        for n in range(10):
            ref = (
                (2.0 * n + s)
                / (2.0 * n + 2.0 + s)
                * (n + al + 1.0)
                * (n + be + 1.0)
                / ((n + al + be + 1.0) * (n + 1.0))
            )
            assert norm_constant(PASYM, n + 1) / norm_constant(PASYM, n) == pytest.approx(
                ref, rel=1e-12
            )

    def test_positive(self):
        assert all(norm_constant(P22, n) > 0.0 for n in range(40))

    @pytest.mark.parametrize(
        "params",
        [P22, PASYM, PotentialParams(kappa=2.712863349048302, kappap=1.79639245207805)],
    )
    def test_level_array_matches_per_level_form_at_dim_4000(self, params):
        al, be, s = params.kappa - 0.5, params.kappap - 0.5, params.strength_sum

        def per_level(n):  # the scalar form, one log_gamma call per term and level
            log_h = (
                s * math.log(2.0) - math.log(2.0 * n + s)
                + log_gamma(n + al + 1.0) + log_gamma(n + be + 1.0)
                - log_gamma(n + al + be + 1.0) - log_gamma(n + 1.0)
            )
            return params.a * math.exp(log_h - s * math.log(2.0))

        out = norm_constant(params, np.arange(4000))
        assert out.shape == (4000,)
        ref = np.array([per_level(n) for n in range(4000)])
        # near n = 4000 each log-gamma term is ~3e4, where one ulp is 3.6e-12,
        # so any two roundings of log_h differ by up to a few 1e-12 in the
        # exponent; the last parameter set is the worst of 85 random draws
        assert float(np.max(np.abs(out - ref) / ref)) <= 5e-11

    def test_level_array_domain(self):
        with pytest.raises(ValueError, match="level index"):
            norm_constant(P22, np.array([0, 1, -1]))

    def test_matches_mpmath_to_1e12_at_dim_4000(self):
        mpmath = pytest.importorskip("mpmath")
        pairs = [(2.712863349048302, 1.79639245207805), (2.0, 2.0), (1.5, 2.5),
                 (1.1, 4.0), (3.7, 1.2), (1.05, 1.05)]
        levels = sorted(set(range(0, 4001, 9)) | {3716, 4000})
        worst = 0.0
        with mpmath.workdps(40):
            for kappa, kappap in pairs:
                params = PotentialParams(kappa=kappa, kappap=kappap)
                out = norm_constant(params, np.arange(4001))
                k, kp = mpmath.mpf(kappa), mpmath.mpf(kappap)
                for n in levels:
                    # c_n = G(n+k+1/2) G(n+k'+1/2) / ((2n+s) G(n+s) n!) at a = 1
                    ref = float(mpmath.exp(
                        mpmath.loggamma(n + k + 0.5) + mpmath.loggamma(n + kp + 0.5)
                        - mpmath.loggamma(n + k + kp) - mpmath.loggamma(n + 1)
                    ) / (2 * n + k + kp))
                    worst = max(worst, abs(out[n] - ref) / ref)
                    if n == 3716:
                        assert norm_constant(params, n) == out[n]
        assert worst <= 1e-12


class TestEigenfunctions:
    @pytest.mark.parametrize(
        "params",
        [P22, PASYM, PotentialParams(kappa=1.5, kappap=2.5, a=2.0)],
    )
    def test_gram_matrix_identity(self, params):
        grid = gauss_legendre_grid(params, 400)
        table = eigenfunction_table(params, 15, grid.nodes)
        gram = (table * grid.weights) @ table.T
        assert float(np.max(np.abs(gram - np.eye(16)))) <= 1e-8

    def test_scaled_well_schrodinger_residual(self):
        # physical eigenvalue carries the 1/a^2 scale
        params = PotentialParams(kappa=2.0, kappap=2.0, a=2.0)
        h = math.pi * params.a / 4096.0
        xs = np.linspace(0.1 * math.pi * params.a, 0.9 * math.pi * params.a, 80)
        for n in (0, 2, 5):
            psi = lambda x, k=n: eigenfunction(params, k, x)
            d2 = (-psi(xs + 2 * h) + 16 * psi(xs + h) - 30 * psi(xs)
                  + 16 * psi(xs - h) - psi(xs - 2 * h)) / (12 * h * h)
            resid = -d2 + potential(params, xs) * psi(xs) \
                - energy(params, n) / params.a**2 * psi(xs)
            assert float(np.max(np.abs(resid))) <= 1e-6

    def test_interior_sign_changes(self):
        grid = gauss_legendre_grid(P22, 400)
        table = eigenfunction_table(P22, 8, grid.nodes)
        for n in range(9):
            signs = np.sign(table[n])
            changes = int(np.sum(signs[1:] * signs[:-1] < 0))
            assert changes == n

    @pytest.mark.parametrize("params", [P22, PASYM, PotentialParams(kappa=2.3, kappap=1.8, a=1.7)])
    def test_table_is_the_scaled_jacobi_table_bitwise(self, params):
        x = gauss_legendre_grid(params, 300).nodes
        t = x / (2.0 * params.a)
        polys = jacobi_poly_all(150, params.kappa - 0.5, params.kappap - 0.5, np.cos(x / params.a))
        envelope = np.sin(t) ** params.kappa * np.cos(t) ** params.kappap
        norms = np.sqrt(norm_constant(params, np.arange(151)))
        assert np.array_equal(eigenfunction_table(params, 150, x), polys * envelope / norms[:, None])

    @pytest.mark.parametrize("params", [P22, PASYM])
    def test_scalar_position_gives_the_one_point_value(self, params):
        # to an ulp: numpy's power may round a 0-d operand differently
        for x in (0.3, 1.0, 2.9):
            assert eigenfunction(params, 2, x) == pytest.approx(eigenfunction(params, 2, [x])[0], rel=1e-15)
            table = eigenfunction_table(params, 6, x)
            assert table.shape == (7,)
            np.testing.assert_allclose(table, eigenfunction_table(params, 6, [x])[:, 0], rtol=1e-15, atol=0)

    def test_position_array_shape_is_kept(self):
        x = np.linspace(0.3, 2.5, 21)
        table = eigenfunction_table(P22, 6, x.reshape(7, 3))
        assert table.shape == (7, 7, 3)
        assert np.array_equal(table, eigenfunction_table(P22, 6, x).reshape(7, 7, 3))

    @pytest.mark.parametrize("n_nodes", [400, 800])
    @pytest.mark.parametrize("kappa, kappap", [(2.0, 2.0), (2.0, 3.0), (3.5, 4.0), (2.0, 6.0)])
    def test_gram_identity_reaches_only_a_fraction_of_the_nodes(self, n_nodes, kappa, kappap):
        # n nodes resolve the Gram matrix through level ~0.57 n at kappa,
        # kappa' >= 2 (1227 at n = 2000; lower near the kappa = 1 walls, ~100
        # at n = 400), so a state with mass past it has a wrong density there
        params = PotentialParams(kappa, kappap)
        grid = gauss_legendre_grid(params, n_nodes)
        good, top = int(0.55 * n_nodes), int(0.65 * n_nodes)
        table = eigenfunction_table(params, top + 20, grid.nodes)
        gram = (table * grid.weights) @ table.T - np.eye(top + 21)
        assert float(np.max(np.abs(gram[: good + 1, : good + 1]))) <= 1e-12
        assert float(np.max(np.abs(gram[top:, top:]))) > 1e-6

    @pytest.mark.parametrize("params", [P22, PASYM])
    def test_schrodinger_residual(self, params):
        # (-d2/dx2 + V) psi_n = (e_n / a^2) psi_n on an interior band
        xs = np.linspace(0.06 * math.pi * params.a, 0.94 * math.pi * params.a, 150)
        for n in range(9):
            psi = lambda x, k=n: eigenfunction(params, k, x)
            resid = (
                -stencil_d2(psi, xs)
                + potential(params, xs) * psi(xs)
                - energy(params, n) / params.a**2 * psi(xs)
            )
            assert float(np.max(np.abs(resid))) <= 1e-6


class TestDifferentialLadder:
    """Quadrature identities tying the first-order operators to the
    algebraic ladder amplitudes.

    The lowering image (d/dx + W) psi_n lands in the eigenbasis of the
    strength-shifted partner well (kappa+1, kappa'+1); the same-well
    matrix element of the raising operator is NOT the ladder amplitude
    (the image leaves the decay class of the original basis), so the
    valid statements are the norm identity and the cross-well element.
    """

    @pytest.mark.parametrize("params", [P22, PASYM])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_lowering_norm_identity(self, params, n):
        # || (d/dx + W) psi_n ||^2 = e_n
        grid = gauss_legendre_grid(params, 400)
        mask = (grid.nodes > 4 * H_STENCIL) & (grid.nodes < math.pi * params.a - 4 * H_STENCIL)
        x = grid.nodes[mask]
        psi = lambda t, k=n: eigenfunction(params, k, t)
        image = stencil_d1(psi, x) + superpotential(params, x) * psi(x)
        val = float(np.sum(grid.weights[mask] * image**2))
        assert val == pytest.approx(energy(params, n) / params.a**2, rel=1e-6)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_partner_well_raising_element(self, n):
        # |<psi_{n+1} | (-d/dx + W) phi_n>| = sqrt((n+1)(n+1+s)) where
        # phi_n is the (kappa+1, kappa'+1) partner eigenfunction
        params = P22
        partner = PotentialParams(kappa=3.0, kappap=3.0)
        grid = gauss_legendre_grid(params, 400)
        mask = (grid.nodes > 4 * H_STENCIL) & (grid.nodes < math.pi - 4 * H_STENCIL)
        x = grid.nodes[mask]
        phi = lambda t, k=n: eigenfunction(partner, k, t)
        image = -stencil_d1(phi, x) + superpotential(params, x) * phi(x)
        val = float(np.sum(grid.weights[mask] * eigenfunction(params, n + 1, x) * image))
        ref = math.sqrt((n + 1.0) * (n + 1.0 + params.strength_sum))
        assert abs(val) == pytest.approx(ref, rel=1e-6)


class TestWavefunction:
    def test_basis_state_passthrough(self):
        grid = gauss_legendre_grid(P22, 200)
        coeffs = np.zeros(8, dtype=complex)
        coeffs[3] = 1.0
        from ptcs.operators import StateVector

        psi = wavefunction(P22, StateVector(coeffs, P22), grid)
        ref = eigenfunction(P22, 3, grid.nodes)
        assert float(np.max(np.abs(psi - ref))) == 0.0

    def test_kp_origin_is_ground_profile(self):
        grid = gauss_legendre_grid(P22, 200)
        st = kp_coefficients(P22, KPLabel(zeta=0.0), 12)
        psi = wavefunction(P22, st, grid)
        assert float(np.max(np.abs(psi - eigenfunction(P22, 0, grid.nodes)))) == 0.0

    def test_gk_density_normalization(self):
        grid = gauss_legendre_grid(P22, 400)
        st = gk_coefficients(P22, GKLabel(z=1.5), 120)
        psi = wavefunction(P22, st, grid)
        total = grid_inner_product(grid, psi, psi).real
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_evolution_preserves_grid_norm(self):
        grid = gauss_legendre_grid(P22, 400)
        st = gk_coefficients(P22, GKLabel(z=1.5), 120)
        norms = []
        for t in (0.0, 0.4, 1.3, 5.0):
            psi = wavefunction(P22, evolve_coefficients(st, t), grid)
            norms.append(grid_inner_product(grid, psi, psi).real)
        assert max(abs(v - 1.0) for v in norms) <= 1e-8

    @pytest.mark.parametrize("dim", [120, 2000])
    @pytest.mark.parametrize(
        "make",
        [
            lambda p, dim: kp_coefficients(p, KPLabel(zeta=0.9 + 0.2j, alpha=0.3), dim),
            lambda p, dim: gk_coefficients(p, GKLabel(z=15.0 + 4.0j, alpha=0.3), dim),
            lambda p, dim: is_coefficients(p, ISLabel(z=2.0 - 1.0j, lam=1.2 + 0.4j), dim),
        ],
        ids=["kp", "gk", "is"],
    )
    def test_matches_complex_table_product(self, make, dim, grid2000):
        params = PotentialParams(kappa=2.3, kappap=1.8)
        grid = gauss_legendre_grid(params, 400) if dim == 120 else grid2000
        st = make(params, dim)
        psi = wavefunction(params, st, grid)
        ref = st.coeffs @ eigenfunction_table(params, dim - 1, grid.nodes).astype(complex)
        assert float(np.max(np.abs(psi - ref))) <= 1e-15 * float(np.max(np.abs(ref)))

    def test_dim_2000_peak_memory(self, grid2000):
        # the (2000, 2000) real table is 32 MB; a complex copy would add 64 MB
        params = PotentialParams(kappa=2.3, kappap=1.8)
        st = gk_coefficients(params, GKLabel(z=15.0 + 4.0j), 2000)
        tracemalloc.start()
        try:
            wavefunction(params, st, grid2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestExactRevival:
    """Revival at t = pi in a symmetric well, a gate that needs no quadrature.

    For kappa = kappa', psi_n(pi a - x) = (-1)^n psi_n(x).  With a = 1 and
    integer s the phase exp(-i pi n(n+s)) is 1 for odd s, since n(n+s) is
    even, and (-1)^n for even s: Psi(x, pi) = Psi(x, 0) for odd s and the
    mirror image Psi(pi - x, 0) for even s, which on the symmetric
    Gauss-Legendre grid is the reversed node order.
    """

    @pytest.mark.parametrize("kappa", [1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda p: gk_coefficients(p, GKLabel(z=15.0 + 4.0j), 2000),
            lambda p: kp_coefficients(p, KPLabel(zeta=0.9 + 0.2j), 2000),
        ],
        ids=["gk", "kp"],
    )
    def test_revival_at_t_pi(self, make, kappa, grid2000):
        params = PotentialParams(kappa=kappa, kappap=kappa)
        st = make(params)
        psi0 = wavefunction(params, st, grid2000)
        psit = wavefunction(params, evolve_coefficients(st, math.pi), grid2000)
        s = round(params.strength_sum)
        expected = psi0 if s % 2 else psi0[::-1]
        assert float(np.max(np.abs(psit - expected))) <= 1e-12 * float(np.max(np.abs(psi0)))
