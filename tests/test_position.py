"""Position-space realization: grids, factorization, eigenfunctions, wavefunctions."""

import math

import numpy as np
import pytest

from ptcs.operators import PotentialParams, energy
from ptcs.position import (
    PositionGrid,
    QuadratureRule,
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
from ptcs.specfun import log_gamma
from ptcs.states import GKLabel, KPLabel, evolve_coefficients, gk_coefficients, kp_coefficients

P22 = PotentialParams(kappa=2.0, kappap=2.0)
PASYM = PotentialParams(kappa=1.5, kappap=2.5)

H_STENCIL = math.pi / 4096.0


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
