"""Ladder-algebra matrix model: construction invariants and expectations."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ptcs.cli import main
from ptcs.operators import (
    OperatorMatrix,
    PotentialParams,
    StateVector,
    build_matrices,
    energy,
    expectation,
    g_value,
    ladder_down_amplitude,
    ladder_up_amplitude,
    variance_pair,
)
from ptcs.states import (
    GKLabel,
    ISLabel,
    KPLabel,
    gk_coefficients,
    is_coefficients,
    is_minimization_report,
    kp_coefficients,
)

P22 = PotentialParams(kappa=2.0, kappap=2.0)
P22A = PotentialParams(kappa=2.0, kappap=2.0, alpha=0.3)
PASYM = PotentialParams(kappa=1.5, kappap=2.5, alpha=0.1)


def basis_state(params, n, dim):
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return StateVector(c, params)


class TestParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="kappa"):
            PotentialParams(kappa=1.0, kappap=2.0)
        with pytest.raises(ValueError, match="kappap"):
            PotentialParams(kappa=2.0, kappap=0.5)
        with pytest.raises(ValueError, match="a"):
            PotentialParams(kappa=2.0, kappap=2.0, a=0.0)
        with pytest.raises(ValueError, match="alpha"):
            PotentialParams(kappa=2.0, kappap=2.0, alpha=math.inf)

    @pytest.mark.parametrize("name", ["kappa", "kappap", "a"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        fields = dict(kappa=2.0, kappap=2.0, a=1.0)
        fields[name] = value
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            PotentialParams(**fields)

    def test_strength_sum(self):
        assert PASYM.strength_sum == 4.0


class TestEnergy:
    def test_ground_level(self):
        assert energy(P22, 0) == 0.0

    def test_first_level(self):
        assert energy(P22, 1) == 5.0

    def test_asymmetric(self):
        assert energy(PotentialParams(kappa=1.5, kappap=2.5), 3) == 21.0

    def test_domain(self):
        with pytest.raises(ValueError):
            energy(P22, -1)


class TestGValue:
    def test_ground(self):
        assert g_value(P22, 0) == 5.0

    def test_is_level_spacing(self):
        for n in range(51):
            assert g_value(PASYM, n) == pytest.approx(
                energy(PASYM, n + 1) - energy(PASYM, n), rel=1e-14
            )

    def test_non_integer_strengths(self):
        p = PotentialParams(kappa=2.3, kappap=2.5)
        assert g_value(p, 3) == pytest.approx(11.8, rel=1e-14)


class TestLadderAmplitudes:
    def test_zero_alpha_modulus(self):
        amp = ladder_up_amplitude(P22, 0)
        assert amp == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert amp.imag == 0.0

    def test_ground_annihilated(self):
        assert ladder_down_amplitude(P22A, 0) == 0j

    def test_down_modulus_and_phase(self):
        p = PotentialParams(kappa=2.0, kappap=2.0, alpha=0.3)
        amp = ladder_down_amplitude(p, 2)
        ref = math.sqrt(12.0) * np.exp(1j * 0.3 * 7.0)
        assert amp == pytest.approx(ref, rel=1e-14)

    def test_adjointness_identity(self):
        for n in range(12):
            up = ladder_up_amplitude(P22A, n)
            down = ladder_down_amplitude(P22A, n + 1)
            assert up.conjugate() == pytest.approx(down, rel=1e-14)


class TestLevelArrays:
    LEVELS = np.arange(200)
    FLOAT_S = PotentialParams(kappa=1.37, kappap=2.91, alpha=0.77)

    @pytest.mark.parametrize("params", [P22, PASYM, FLOAT_S])
    @pytest.mark.parametrize("fn", [energy, g_value])
    def test_spectrum_arrays_bitwise_equal_scalar_loop(self, params, fn):
        out = fn(params, self.LEVELS)
        assert out.shape == self.LEVELS.shape
        assert out.tolist() == [fn(params, n) for n in range(self.LEVELS.size)]

    @pytest.mark.parametrize("params", [P22A, PASYM, FLOAT_S])
    def test_ladder_arrays_match_scalar_forms(self, params):
        s, alpha = params.strength_sum, params.alpha
        # the per-level math/cmath forms the array functions replace
        up_ref = [
            math.sqrt((n + 1.0) * (n + 1.0 + s)) * cmath.exp(-1j * alpha * (2.0 * n + 1.0 + s))
            for n in self.LEVELS.tolist()
        ]
        down_ref = [
            math.sqrt(n * (n + s)) * cmath.exp(1j * alpha * (2.0 * n - 1.0 + s))
            for n in self.LEVELS.tolist()
        ]
        for fn, ref in ((ladder_up_amplitude, up_ref), (ladder_down_amplitude, down_ref)):
            out = fn(params, self.LEVELS)
            ref = np.array(ref)
            scale = np.maximum(np.abs(ref), 1e-300)
            assert np.max(np.abs(out - ref) / scale) <= 1e-15
            assert [fn(params, n) for n in range(self.LEVELS.size)] == out.tolist()

    @pytest.mark.parametrize("fn", [energy, g_value, ladder_up_amplitude, ladder_down_amplitude])
    def test_scalar_in_scalar_out(self, fn):
        assert np.ndim(fn(PASYM, 3)) == 0
        assert isinstance(fn(PASYM, 3), (float, complex))

    @pytest.mark.parametrize("fn", [energy, g_value, ladder_up_amplitude, ladder_down_amplitude])
    @pytest.mark.parametrize(
        "levels", [np.array([0, 1, -2]), np.array([0.0, 1.5, 2.0]), np.array([1.0, math.nan]), 2.5]
    )
    def test_bad_level_rejected(self, fn, levels):
        with pytest.raises(ValueError, match="level index"):
            fn(P22, levels)

    def test_empty_level_array(self):
        assert energy(P22, np.arange(0)).shape == (0,)


class TestBuildMatrices:
    @pytest.mark.parametrize("params", [P22, P22A, PASYM])
    def test_adjoint_exact(self, params):
        ops = build_matrices(params, 30)
        assert np.array_equal(ops.a_plus.entries, ops.a_minus.entries.conj().T)

    @pytest.mark.parametrize("params", [P22A, PASYM])
    def test_phase_cancellation_in_product(self, params):
        # a+ a- is real diagonal despite the complex ladder phases
        dim = 40
        ops = build_matrices(params, dim)
        prod = ops.a_plus.entries @ ops.a_minus.entries
        ref = np.diag([energy(params, n) for n in range(dim)])
        scale = abs(energy(params, dim - 1))
        assert np.max(np.abs(prod - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("params", [P22, PASYM])
    def test_commutator_untruncated_block(self, params):
        dim = 25
        ops = build_matrices(params, dim)
        comm = (
            ops.a_minus.entries @ ops.a_plus.entries
            - ops.a_plus.entries @ ops.a_minus.entries
        )
        ref = np.diag([g_value(params, n) for n in range(dim)])
        block = slice(0, dim - 1)
        scale = g_value(params, dim)
        assert np.max(np.abs((comm - ref)[block, block])) <= 1e-14 * scale
        # the last diagonal entry is corrupted by truncation, by -e_dim
        assert comm[dim - 1, dim - 1].real < 0

    @pytest.mark.parametrize("params", [P22A, PASYM])
    def test_quadrature_commutator(self, params):
        # [W, P] = i G on the untruncated block
        dim = 25
        ops = build_matrices(params, dim)
        comm = ops.w.entries @ ops.p.entries - ops.p.entries @ ops.w.entries
        ref = 1j * ops.g.entries
        block = slice(0, dim - 1)
        assert np.max(np.abs((comm - ref)[block, block])) <= 1e-13 * g_value(params, dim)

    def test_h_is_diagonal_energy(self):
        ops = build_matrices(P22A, 10)
        assert np.allclose(ops.h.entries, np.diag([energy(P22A, n) for n in range(10)]))

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            build_matrices(P22, 1)


class TestExpectation:
    def test_ground_energy(self):
        ops = build_matrices(P22, 8)
        assert expectation(basis_state(P22, 0, 8), ops.h) == 0.0

    def test_number_operator(self):
        ops = build_matrices(P22, 8)
        for n in range(6):
            assert expectation(basis_state(P22, n, 8), ops.n) == pytest.approx(n)

    def test_g_on_level_two(self):
        ops = build_matrices(P22, 8)
        assert expectation(basis_state(P22, 2, 8), ops.g) == pytest.approx(9.0)

    def test_dim_mismatch(self):
        ops = build_matrices(P22, 8)
        with pytest.raises(ValueError):
            expectation(basis_state(P22, 0, 9), ops.h)

    def test_accepts_raw_matrix(self):
        raw = np.diag(np.arange(8.0))
        assert expectation(basis_state(P22, 3, 8), raw) == pytest.approx(3.0)


class TestVariancePair:
    @pytest.mark.parametrize("params", [P22, P22A, PASYM])
    def test_ground_state_values(self, params):
        v = variance_pair(basis_state(params, 0, 20))
        s = params.strength_sum
        assert v["dW2"] == pytest.approx((s + 1.0) / 2.0, rel=1e-12)
        assert v["dP2"] == pytest.approx((s + 1.0) / 2.0, rel=1e-12)
        assert v["meanF"] == pytest.approx(0.0, abs=1e-12)
        assert v["meanG"] == pytest.approx(s + 1.0, rel=1e-12)

    def test_keys_are_the_four_functionals(self):
        v = variance_pair(basis_state(P22A, 1, 20))
        assert set(v) == {"dW2", "dP2", "meanG", "meanF"}

    def test_uncertainty_inequality_random_sweep(self):
        # product relation holds for arbitrary states; random vectors are
        # padded with empty head-room so truncation cannot corrupt the
        # matrix identities
        rng = np.random.default_rng(42)
        dim, pad = 30, 10
        for _ in range(100):
            raw = rng.normal(size=dim - pad) + 1j * rng.normal(size=dim - pad)
            c = np.zeros(dim, dtype=complex)
            c[: dim - pad] = raw / np.linalg.norm(raw)
            v = variance_pair(StateVector(c, P22A))
            resid = v["dW2"] * v["dP2"] - 0.25 * (v["meanG"] ** 2 + v["meanF"] ** 2)
            assert resid >= -1e-10


OPERATORS = ("a_minus", "a_plus", "h", "n", "g", "w", "p")


def dense_variance_pair(state):
    """Reference: the four variance_pair values from the dense matrices."""
    ops = build_matrices(state.params, state.dim)
    c = state.coeffs
    w_c, p_c = ops.w.entries @ c, ops.p.entries @ c
    mean_w, mean_p = np.vdot(c, w_c).real, np.vdot(c, p_c).real
    return {
        "dW2": np.vdot(w_c, w_c).real - mean_w**2,
        "dP2": np.vdot(p_c, p_c).real - mean_p**2,
        "meanG": np.vdot(c, ops.g.entries @ c).real,
        "meanF": 2.0 * np.vdot(w_c, p_c).real - 2.0 * mean_w * mean_p,
    }


def family_states(dim):
    params = PotentialParams(kappa=2.3, kappap=1.8, alpha=0.4)
    return [
        gk_coefficients(params, GKLabel(z=1.5 + 0.7j, alpha=0.4), dim),
        is_coefficients(params, ISLabel(z=1.2 - 0.4j, lam=0.6 + 0.3j, alpha=0.4), dim),
        kp_coefficients(params, KPLabel(zeta=0.5 + 0.3j, alpha=0.4), dim),
    ]


class TestBandOperators:
    @pytest.mark.parametrize("params", [P22, P22A, PASYM])
    @pytest.mark.parametrize("dim", [2, 3, 40])
    def test_apply_matches_dense_product(self, params, dim):
        rng = np.random.default_rng(dim)
        ops = build_matrices(params, dim)
        c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for name in OPERATORS:
            op = getattr(ops, name)
            dense = op.entries @ c
            # componentwise: relative to the sum of the moduli of the terms
            scale = np.abs(op.entries) @ np.abs(c)
            assert np.all(np.abs(op.apply(c) - dense) <= 1e-15 * scale), name

    @pytest.mark.parametrize("params", [P22, P22A, PASYM])
    def test_entries_equal_dense_construction(self, params):
        # the dense matrices assembled from the amplitudes, as the bands define them
        dim = 30
        levels = np.arange(dim)
        a_minus = np.diag(ladder_down_amplitude(params, levels[1:]), 1)
        a_plus = a_minus.conj().T
        ref = {
            "a_minus": a_minus,
            "a_plus": a_plus,
            "h": np.diag(energy(params, levels)),
            "n": np.diag(levels),
            "g": np.diag(g_value(params, levels)),
            "w": (a_plus + a_minus) / math.sqrt(2.0),
            "p": 1j * (a_plus - a_minus) / math.sqrt(2.0),
        }
        ops = build_matrices(params, dim)
        for name in OPERATORS:
            entries = getattr(ops, name).entries
            assert entries.dtype == complex and np.array_equal(entries, ref[name]), name

    def test_bands_are_read_only_and_checked(self):
        op = build_matrices(P22A, 5).w
        for band in (op.diag, op.upper, op.lower):
            assert not band.flags.writeable
        assert op.dim == 5
        with pytest.raises(ValueError, match="off-diagonals"):
            OperatorMatrix(np.zeros(4), np.zeros(3), np.zeros(2), "BAD")

    @pytest.mark.parametrize("params", [P22, P22A, PASYM])
    def test_expectation_band_equals_dense(self, params):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=40) + 1j * rng.normal(size=40)
        st = StateVector(raw / np.linalg.norm(raw), params)
        ops = build_matrices(params, 40)
        for name in OPERATORS:
            op = getattr(ops, name)
            assert expectation(st, op) == pytest.approx(expectation(st, op.entries), rel=1e-14), name

    @pytest.mark.parametrize("dim", [120, 1000])
    def test_variance_pair_matches_dense_reference(self, dim):
        for st in family_states(dim):
            v, ref = variance_pair(st), dense_variance_pair(st)
            for key, val in ref.items():
                assert abs(v[key] - val) <= 1e-13 * max(abs(val), ref["meanG"]), key

    def test_variance_pair_memory_linear_in_dim(self):
        st = family_states(4000)[0]
        tracemalloc.start()
        try:
            variance_pair(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # one dense complex 4000^2 matrix alone is 256 MB


class TestNoDenseMatrixOnProductionPaths:
    """Only oracles and tests may read OperatorMatrix.entries."""

    @pytest.fixture(autouse=True)
    def forbid_entries(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"dense {self.label} built on a production path")

        monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))

    def test_guard_is_active(self):
        with pytest.raises(AssertionError, match="dense G"):
            build_matrices(P22, 4).g.entries

    def test_variance_pair_and_expectation(self):
        for st in family_states(300):
            variance_pair(st)
            expectation(st, build_matrices(st.params, st.dim).g)

    def test_is_minimization_report(self):
        label = ISLabel(z=0.8 + 0.2j, lam=0.7 + 0.1j, alpha=0.2)
        assert is_minimization_report(PASYM, label, 200).passed

    @pytest.mark.parametrize(
        "label", [["--z-re", "1.5"], ["--zeta-re", "0.4"], ["--z-re", "1", "--lambda-re", "0.7"]]
    )
    def test_uncertainty_command(self, capsys, label):
        argv = ["uncertainty", "--kappa", "2", "--kappap", "2.5", *label, "--dim", "500"]
        assert main(argv) == 0
        assert "dW2" in capsys.readouterr().out
