"""Coherent-state families: closed forms, eigen-properties, uncertainty relations."""

import cmath
import math

import numpy as np
import pytest

from ptcs.operators import PotentialParams, StateVector, build_matrices, expectation, variance_pair
from ptcs.specfun import bessel_i, log_gamma
from ptcs.states import (
    GKLabel,
    ISLabel,
    KPLabel,
    analytic_repr,
    evolve,
    evolve_coefficients,
    gk_annihilation_residual,
    gk_coefficients,
    gk_mean_g,
    is_coefficients,
    is_minimization_report,
    kp_coefficients,
    kp_from_z,
    kp_kernel,
)

P22 = PotentialParams(kappa=2.0, kappap=2.0)
P22A = PotentialParams(kappa=2.0, kappap=2.0, alpha=0.3)


class TestKPCoefficients:
    def test_origin_gives_ground_state(self):
        st = kp_coefficients(P22, KPLabel(zeta=0.0), 10)
        assert st.coeffs[0] == 1.0
        assert np.all(st.coeffs[1:] == 0.0)
        assert st.tail_bound == 0.0

    def test_direct_substitution(self):
        st = kp_coefficients(P22, KPLabel(zeta=0.5), 10)
        c0 = 0.75**2.5
        assert st.coeffs[0] == pytest.approx(c0, rel=1e-14)
        assert st.coeffs[1] == pytest.approx(c0 * 0.5 * math.sqrt(5.0), rel=1e-14)

    @pytest.mark.parametrize("zeta", [0.3, 0.6j, -0.45 + 0.3j, 0.9])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_normalization_approaches_one(self, zeta, alpha):
        st = kp_coefficients(P22, KPLabel(zeta=zeta, alpha=alpha), 250)
        assert st.norm_deficit() <= max(1e-12, st.tail_bound)

    def test_tail_bound_is_rigorous(self):
        # bound must dominate the actual mass left beyond the truncation
        small = kp_coefficients(P22, KPLabel(zeta=0.7), 25)
        big = kp_coefficients(P22, KPLabel(zeta=0.7), 400)
        lost = float(np.sum(np.abs(big.coeffs[25:]) ** 2))
        assert small.tail_bound >= lost
        assert small.tail_bound <= 100.0 * max(lost, 1e-300)

    def test_domain(self):
        with pytest.raises(ValueError):
            KPLabel(zeta=1.0)
        with pytest.raises(ValueError):
            kp_coefficients(P22, KPLabel(zeta=0.5), 0)


class TestKPFromZ:
    def test_zero_maps_to_ground(self):
        st = kp_from_z(P22, 0.0, 0.0, 8)
        assert st.coeffs[0] == 1.0

    def test_plane_to_disc_map(self):
        st1 = kp_from_z(P22, 1.0, 0.0, 40)
        st2 = kp_coefficients(P22, KPLabel(zeta=math.tanh(1.0)), 40)
        assert np.max(np.abs(st1.coeffs - st2.coeffs)) < 1e-15

    def test_phase_of_map(self):
        z = 0.5 + 0.4j
        st1 = kp_from_z(P22, z, 0.1, 60)
        zeta = z * math.tanh(abs(z)) / abs(z)
        st2 = kp_coefficients(P22, KPLabel(zeta=zeta, alpha=0.1), 60)
        assert np.max(np.abs(st1.coeffs - st2.coeffs)) == 0.0


class TestKPKernel:
    def test_normalized(self):
        label = KPLabel(zeta=0.4 + 0.2j, alpha=0.7)
        k = kp_kernel(P22, label, label, 200)
        assert k == pytest.approx(1.0, abs=1e-12)

    def test_real_closed_form(self):
        # same alpha, real disc coordinates: binomial resummation
        z1, z2, s1 = 0.35, 0.55, 5.0  # s1 = kappa + kappap + 1
        k = kp_kernel(P22, KPLabel(zeta=z1), KPLabel(zeta=z2), 300)
        ref = ((1 - z1 * z1) ** (s1 / 2)) * ((1 - z2 * z2) ** (s1 / 2)) / (1 - z1 * z2) ** s1
        assert k.real == pytest.approx(ref, rel=1e-12)
        assert abs(k.imag) < 1e-14

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            l1 = KPLabel(zeta=complex(*(0.65 * rng.uniform(-1, 1, 2))), alpha=float(rng.uniform(0, 2)))
            l2 = KPLabel(zeta=complex(*(0.65 * rng.uniform(-1, 1, 2))), alpha=float(rng.uniform(0, 2)))
            assert abs(kp_kernel(P22, l1, l2, 200)) <= 1.0 + 1e-12

    def test_gram_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        labels = [
            KPLabel(zeta=complex(*(0.6 * rng.uniform(-1, 1, 2))), alpha=float(rng.uniform(0, 1)))
            for _ in range(8)
        ]
        gram = np.array(
            [[kp_kernel(P22, a, b, 220) for b in labels] for a in labels]
        )
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10


class TestEvolution:
    def test_zero_time_identity(self):
        label = KPLabel(zeta=0.3, alpha=0.2)
        assert evolve(label, 0.0) == label

    @pytest.mark.parametrize("family", ["kp", "gk"])
    def test_label_vs_coefficient_evolution(self, family):
        rng = np.random.default_rng(99)
        for _ in range(5):
            t = float(rng.uniform(0.05, 3.0))
            if family == "kp":
                label = KPLabel(zeta=complex(*(0.5 * rng.uniform(-1, 1, 2))), alpha=0.3)
                relabeled = kp_coefficients(P22A, evolve(label, t), 80)
                evolved = evolve_coefficients(kp_coefficients(P22A, label, 80), t)
            else:
                label = GKLabel(z=complex(*rng.uniform(-1.5, 1.5, 2)), alpha=0.3)
                relabeled = gk_coefficients(P22A, evolve(label, t), 80)
                evolved = evolve_coefficients(gk_coefficients(P22A, label, 80), t)
            assert np.max(np.abs(relabeled.coeffs - evolved.coeffs)) < 1e-12

    def test_alpha_convention_rides_along(self):
        st = gk_coefficients(P22A, GKLabel(z=1.0, alpha=0.3), 40)
        assert evolve_coefficients(st, 0.5).params.alpha == pytest.approx(0.8)

    def test_exact_revival_for_integer_strengths(self):
        # integer kappa + kappa' makes every level energy an integer, so
        # the wavepacket revives exactly with period 2 pi
        st = gk_coefficients(P22, GKLabel(z=1.3), 90)
        revived = evolve_coefficients(st, 2.0 * math.pi)
        assert float(np.max(np.abs(revived.coeffs - st.coeffs))) < 1e-10
        partway = evolve_coefficients(st, math.pi / 3.0)
        assert float(np.max(np.abs(partway.coeffs - st.coeffs))) > 1e-2


class TestGKCoefficients:
    def test_origin_gives_ground_state(self):
        st = gk_coefficients(P22, GKLabel(z=0.0), 10)
        assert st.coeffs[0] == 1.0

    @pytest.mark.parametrize("zmod", [0.5, 1.5, 3.0])
    def test_normalization_identity(self, zmod):
        # sum |z|^(2n) / (n! Gamma(n+s+1)) = |z|^(-s) I_s(2|z|)
        st = gk_coefficients(P22, GKLabel(z=zmod), 140)
        assert st.norm_deficit() <= 1e-12
        direct = sum(
            zmod ** (2 * n) / (math.gamma(n + 1) * math.gamma(n + 5.0))
            for n in range(140)
        )
        ref = zmod ** (-4.0) * bessel_i(4.0, 2.0 * zmod)
        assert direct == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("zmod", [0.5, 1.5, 3.0])
    def test_identity_action(self, zmod):
        dim = max(int(2 * zmod) + 40, 80)
        st = gk_coefficients(P22, GKLabel(z=zmod), dim)
        ops = build_matrices(st.params, dim)
        mean_h = expectation(st, ops.h).real
        assert mean_h == pytest.approx(zmod * zmod, abs=1e-10)


class TestGKAnnihilation:
    def test_zero_label(self):
        assert gk_annihilation_residual(P22, GKLabel(z=0.0), 30) == 0.0

    def test_eigenstate_residual(self):
        resid = gk_annihilation_residual(P22, GKLabel(z=1.5, alpha=0.3), 80)
        assert resid <= 1e-10

    def test_phase_convention_locked(self):
        # flipping the sign of the phase in the coefficients must break the
        # eigenstate property by a visible margin
        label = GKLabel(z=1.5, alpha=0.3)
        st = gk_coefficients(P22, label, 80)
        n = np.arange(80, dtype=float)
        wrong = StateVector(
            st.coeffs * np.exp(+2j * 0.3 * n * (n + 4.0)),  # conjugated phases
            st.params,
        )
        ops = build_matrices(st.params, 80)
        resid = np.linalg.norm((ops.a_minus.entries @ wrong.coeffs - 1.5 * wrong.coeffs)[:-1])
        assert resid > 1e-2


class TestGKVariances:
    @pytest.mark.parametrize("zmod", [0.0, 0.8, 2.0])
    def test_equal_variances_at_half_mean_g(self, zmod):
        st = gk_coefficients(P22, GKLabel(z=zmod, alpha=0.2), 140)
        v = variance_pair(st)
        assert v["dW2"] == pytest.approx(v["meanG"] / 2.0, abs=1e-10)
        assert v["dP2"] == pytest.approx(v["meanG"] / 2.0, abs=1e-10)
        assert v["meanF"] == pytest.approx(0.0, abs=1e-10)


class TestGKMeanG:
    def test_at_zero(self):
        assert gk_mean_g(P22, 0.0) == pytest.approx(5.0, rel=1e-14)

    def test_lower_bound_grid(self):
        for zmod in np.linspace(0.0, 6.0, 50):
            assert gk_mean_g(P22, float(zmod)) >= 5.0 - 1e-12

    @pytest.mark.parametrize("zmod", [0.0, 1.0, 2.0, 4.0])
    def test_matches_matrix_expectation(self, zmod):
        dim = 140
        st = gk_coefficients(P22, GKLabel(z=zmod), dim)
        ops = build_matrices(st.params, dim)
        direct = expectation(st, ops.g).real
        assert gk_mean_g(P22, zmod) == pytest.approx(direct, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            gk_mean_g(P22, -0.1)


class TestISCoefficients:
    def test_lambda_one_reduces_to_gk(self):
        for z in (0.3, 0.8, 1.2 + 0.5j):
            gk = gk_coefficients(P22, GKLabel(z=z), 90)
            is_ = is_coefficients(P22, ISLabel(z=z, lam=1.0), 90)
            assert np.max(np.abs(gk.coeffs - is_.coeffs)) < 1e-10

    def test_zero_amplitude_ground_state(self):
        st = is_coefficients(P22, ISLabel(z=0.0, lam=1.0), 30)
        assert st.coeffs[0] == pytest.approx(1.0)
        assert np.max(np.abs(st.coeffs[1:])) == 0.0

    def test_pure_imaginary_lambda_balances_variances(self):
        # an antiunitary symmetry of the recursion forces equal variances
        # at any truncation for z real, alpha = 0
        st = is_coefficients(P22, ISLabel(z=0.8, lam=1j), 120)
        v = variance_pair(st)
        assert v["dW2"] == pytest.approx(v["dP2"], abs=1e-9)

    def test_eigen_residual_on_untruncated_block(self):
        for lam, z in ((2.0, 0.8), (0.5 + 0.5j, 0.3), (1.0, 1.5)):
            dim = 100
            st = is_coefficients(P22, ISLabel(z=z, lam=lam), dim)
            ops = build_matrices(st.params, dim)
            op = (1.0 - lam) * ops.a_plus.entries + (1.0 + lam) * ops.a_minus.entries
            resid = np.linalg.norm((op @ st.coeffs - 2.0 * z * st.coeffs)[: dim - 1])
            assert resid <= 1e-9

    def test_divergent_recursion_raises(self):
        # Re(lambda) < 0 makes both solutions grow geometrically
        with pytest.raises(ArithmeticError, match="diverged"):
            is_coefficients(P22, ISLabel(z=0.5, lam=-3.0), 2500)

    @pytest.mark.parametrize("lam", [-0.5 + 0.2j, -0.01, -2.0 - 1.0j])
    def test_negative_real_lambda_raises_naming_lambda(self, lam):
        # no normalizable state even where the sweep would not overflow
        with pytest.raises(ArithmeticError, match="Re\\(lambda\\) < 0") as err:
            is_coefficients(P22, ISLabel(z=1.0, lam=lam), 120)
        assert str(complex(lam)) in str(err.value)

    def test_lambda_minus_one_rejected(self):
        with pytest.raises(ValueError):
            ISLabel(z=0.5, lam=-1.0)


class TestISMinimizationReport:
    def test_gk_point_ground_values(self):
        rep = is_minimization_report(P22, ISLabel(z=0.0, lam=1.0), 40)
        assert rep.passed
        assert rep.details["dW2"] == pytest.approx(2.5, rel=1e-12)
        assert rep.details["dP2"] == pytest.approx(2.5, rel=1e-12)
        assert rep.max_deviation <= 1e-12

    def test_unimodular_lambda_equality(self):
        # |lambda| = 1 with Re(lambda) > 0: equality in the uncertainty
        # product at the stated gate
        rng = np.random.default_rng(5)
        for _ in range(6):
            theta = float(rng.uniform(-1.2, 1.2))  # stays clear of +/- pi/2
            lam = cmath.exp(1j * theta)
            rep = is_minimization_report(P22, ISLabel(z=0.6, lam=lam), 140)
            assert rep.details["residual_rs"] <= 1e-8
            assert rep.passed

    @pytest.mark.parametrize("lam", [2.0, 0.5, 3.0])
    def test_variance_ratio_for_real_lambda(self, lam):
        rep = is_minimization_report(P22, ISLabel(z=0.8, lam=lam), 140)
        ratio = rep.details["dW2"] / rep.details["dP2"]
        assert ratio == pytest.approx(lam * lam, abs=1e-8)


class TestAnalyticRepr:
    def test_ground_state_transform(self):
        f = StateVector(np.eye(60, dtype=complex)[0], P22)
        label = KPLabel(zeta=0.4 + 0.1j, alpha=0.2)
        ref = (1.0 - abs(label.zeta) ** 2) ** 2.5
        assert analytic_repr(P22, f, label) == pytest.approx(ref, rel=1e-13)

    def test_warns_when_truncation_is_inadequate(self):
        f = StateVector(np.eye(8, dtype=complex)[0], P22)
        with pytest.warns(UserWarning, match="tail bound"):
            analytic_repr(P22, f, KPLabel(zeta=0.6))

    def test_family_member_gives_kernel(self):
        inner = KPLabel(zeta=0.3 - 0.2j, alpha=0.4)
        outer = KPLabel(zeta=0.5 + 0.1j, alpha=0.4)
        f = kp_coefficients(P22, inner, 180)
        lhs = analytic_repr(P22, f, outer)
        rhs = kp_kernel(P22, outer, inner, 180)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNormalizationInvariant:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: kp_coefficients(P22, KPLabel(zeta=0.55, alpha=0.3), 120),
            lambda: gk_coefficients(P22, GKLabel(z=2.0, alpha=0.1), 120),
            lambda: is_coefficients(P22, ISLabel(z=0.8, lam=2.0), 120),
        ],
    )
    def test_constructor_normalization_window(self, make):
        st = make()
        total = float(np.sum(np.abs(st.coeffs) ** 2))
        assert total <= 1.0 + 1e-12
        assert total >= 1.0 - 10.0 * max(st.tail_bound, 1e-13)


def gk_per_level_reference(params, label, dim):
    """The gk coefficients as built before the array log_gamma: one scalar call per level."""
    z = complex(label.z)
    s = params.strength_sum
    r = abs(z)
    log_norm = 0.5 * (s * math.log(r) - math.log(bessel_i(s, 2.0 * r)))
    n = np.arange(dim, dtype=float)
    log_den = np.array([0.5 * (log_gamma(k + 1.0) + log_gamma(k + s + 1.0)) for k in n])
    mags = np.exp(log_norm + n * math.log(r) - log_den)
    e = n * (n + s)
    return mags * (z / r) ** np.arange(dim) * np.exp(-1j * label.alpha * e)


class TestGKArrayPath:
    @pytest.mark.parametrize(
        "params,z",
        [
            (P22, 1.5),
            (P22A, 3.0 + 1.0j),
            (PotentialParams(kappa=1.7, kappap=2.2, alpha=0.4), 40.0j),
            (PotentialParams(kappa=1.1, kappap=3.9, alpha=1.3), -150.0 + 120.0j),
        ],
    )
    def test_dim_4000_matches_per_level_form(self, params, z):
        label = GKLabel(z=z, alpha=params.alpha)
        out = gk_coefficients(params, label, 4000).coeffs
        ref = gk_per_level_reference(params, label, 4000)
        # below 1e-300 the magnitudes approach the subnormal range, where a
        # relative comparison means nothing
        normal = np.abs(ref) > 1e-300
        rel = np.abs(out[normal] - ref[normal]) / np.abs(ref[normal])
        assert float(np.max(rel)) <= 1e-11
        assert np.all(np.abs(out - ref)[~normal] <= 1e-300)

    @pytest.mark.parametrize(
        "z,alpha,dim", [(1.5, 0.3, 80), (0.7 - 2.0j, 1.1, 60), (3.0, 0.0, 12), (0.4j, 0.5, 2)]
    )
    def test_band_residual_matches_dense(self, z, alpha, dim):
        label = GKLabel(z=z, alpha=alpha)
        st = gk_coefficients(P22, label, dim)
        ops = build_matrices(st.params, dim)
        dense = float(np.linalg.norm((ops.a_minus.entries @ st.coeffs - z * st.coeffs)[:-1]))
        assert gk_annihilation_residual(P22, label, dim) == pytest.approx(dense, rel=1e-12, abs=1e-15)


class TestBrokenStateFailsLoudly:
    def test_huge_kappa_raises_naming_parameters_and_label(self):
        params = PotentialParams(kappa=1e300, kappap=2.0)
        with pytest.raises(ArithmeticError, match=r"non-finite.*kappa = 1e\+300, kappa' = 2\.0.*KPLabel"):
            kp_coefficients(params, KPLabel(zeta=0.3), 4)

    def test_overflowing_gk_norm_raises_instead_of_an_empty_state(self):
        # I_s(800) overflows, so every coefficient would be 0 with tail_bound 0
        with pytest.raises(ArithmeticError, match=r"no mass.*kappa = 2\.0.*GKLabel"):
            gk_coefficients(P22, GKLabel(z=400.0), 4000)

    def test_finite_states_still_built(self):
        assert gk_coefficients(P22, GKLabel(z=30.0), 400).norm_deficit() <= 1e-12
        assert kp_coefficients(PotentialParams(kappa=300.0, kappap=2.0), KPLabel(zeta=0.1), 40).dim == 40
