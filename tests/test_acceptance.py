"""Acceptance criteria, one test per numbered criterion.

Each test evaluates its criterion at the stated tolerance and prints one
``ACCEPTANCE <k>: PASS/FAIL`` line (visible with ``pytest -s`` or in the
captured output of failures).
"""

import math
import time

import numpy as np
import pytest

from ptcs.operators import (
    PotentialParams,
    build_matrices,
    expectation,
    variance_pair,
)
from ptcs.position import (
    eigenfunction,
    eigenfunction_table,
    gauss_legendre_grid,
    potential,
    superpotential,
)
from ptcs.states import (
    GKLabel,
    ISLabel,
    KPLabel,
    evolve,
    evolve_coefficients,
    gk_annihilation_residual,
    gk_coefficients,
    gk_mean_g,
    is_coefficients,
    kp_coefficients,
    kp_from_z,
)
from ptcs.verify import (
    cn_closed_form,
    cn_from_jacobi_fn,
    cn_series,
    displacement_oracle,
    gk_moment_oracle,
    kp_identity_check,
    pi_table,
)

P22 = PotentialParams(kappa=2.0, kappap=2.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_displacement_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.3):
        params = PotentialParams(kappa=2.0, kappap=2.0, alpha=alpha)
        for z in (0.2 + 0j, 0.5 + 0.4j, 1.0j):
            oracle = displacement_oracle(params, z, 120)
            closed = kp_from_z(params, z, alpha, 120)
            worst = max(worst, float(np.max(np.abs(oracle.coeffs - closed.coeffs))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"per-coefficient max dev {worst:.3e} <= 1e-8, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_cn_triple_agreement():
    worst = 0.0
    for params in (P22, PotentialParams(kappa=2.5, kappap=2.5)):
        for n in range(0, 9):
            for zmod in (0.1, 0.4, 0.9):
                series = cn_series(params, n, zmod, 80)
                closed = cn_closed_form(params, n, zmod)
                jfn = cn_from_jacobi_fn(params, n, zmod)
                scale = abs(closed)
                worst = max(
                    worst,
                    abs(series - closed) / scale,
                    abs(jfn - closed) / scale,
                    abs(series - jfn) / scale,
                )
    report(2, worst <= 1e-10, f"pairwise rel dev {worst:.3e} <= 1e-10")


def test_criterion_03_pi_recursion_and_ode():
    table = pi_table(P22, 10, 5)
    exact_ok = all(
        table[(n + 1, j)] - table[(n, j)]
        == (n + 1) * (n + 5) * table[(n + 2, j - 1)]
        for n in range(1, 11)
        for j in range(1, 6)
    )
    integer_ok = all(isinstance(table[(n, j)], int) for n in range(1, 12) for j in range(6))
    zmod, h = 0.5, 1e-3
    ode_worst = 0.0
    for n in range(0, 9):
        def c(r, k=n):
            return cn_series(P22, k, r, 80)

        deriv = (-c(zmod + 2 * h) + 8 * c(zmod + h) - 8 * c(zmod - h) + c(zmod - 2 * h)) / (
            12 * h
        )
        lower = cn_series(P22, n - 1, zmod, 80) if n >= 1 else 0.0
        upper = cn_series(P22, n + 1, zmod, 80)
        rhs = lower - n * c(zmod) - (n + 1.0) * (n + 5.0) * zmod**2 * upper
        ode_worst = max(ode_worst, abs(zmod * deriv - rhs))
    report(
        3,
        exact_ok and integer_ok and ode_worst <= 1e-6,
        f"difference identity exact over n<=10, j<=5; ode residual {ode_worst:.3e} <= 1e-6",
    )


def test_criterion_04_kp_resolution_of_identity():
    rep = kp_identity_check(P22, trunc_levels=20, radial_nodes=200)
    exact_dev = rep.details["exact_path_deviation"]
    report(
        4,
        exact_dev <= 1e-13 and rep.max_deviation <= 1e-6,
        f"beta-reduction dev {exact_dev:.3e}, quadrature dev {rep.max_deviation:.3e} <= 1e-6",
    )


def test_criterion_05_gk_measure_adjudication():
    full_worst = max(abs(gk_moment_oracle(P22, n, 4.0) - 1.0) for n in range(11))
    halved = gk_moment_oracle(P22, 0, 2.0)
    report(
        5,
        full_worst <= 1e-6 and abs(halved - 1.0) > 0.10,
        f"nu=s ratio dev {full_worst:.3e} <= 1e-6; "
        f"halved-index ratio {halved:.4f} deviates by {abs(halved-1):.0%} > 10%",
    )


def test_criterion_06_gk_identity_action():
    worst_h = 0.0
    worst_resid = 0.0
    for zmod in (0.5, 1.5, 3.0):
        dim = max(int(2 * zmod) + 40, 120)
        label = GKLabel(z=zmod)
        state = gk_coefficients(P22, label, dim)
        ops = build_matrices(state.params, dim)
        worst_h = max(worst_h, abs(expectation(state, ops.h).real - zmod * zmod))
        worst_resid = max(worst_resid, gk_annihilation_residual(P22, label, dim))
    report(
        6,
        worst_h <= 1e-8 and worst_resid <= 1e-10,
        f"<H>-|z|^2 dev {worst_h:.3e} <= 1e-8; eigen-residual {worst_resid:.3e} <= 1e-10",
    )


def test_criterion_07_temporal_stability():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(5):
        t = float(rng.uniform(0.05, 2.5))
        alpha = float(rng.uniform(0.0, 1.0))
        params = PotentialParams(kappa=2.0, kappap=2.0, alpha=alpha)
        kp_label = KPLabel(zeta=complex(*(0.5 * rng.uniform(-1, 1, 2))), alpha=alpha)
        relabeled = kp_coefficients(params, evolve(kp_label, t), 100)
        evolved = evolve_coefficients(kp_coefficients(params, kp_label, 100), t)
        worst = max(worst, float(np.max(np.abs(relabeled.coeffs - evolved.coeffs))))
        gk_label = GKLabel(z=complex(*rng.uniform(-1.5, 1.5, 2)), alpha=alpha)
        relabeled = gk_coefficients(params, evolve(gk_label, t), 100)
        evolved = evolve_coefficients(gk_coefficients(params, gk_label, 100), t)
        worst = max(worst, float(np.max(np.abs(relabeled.coeffs - evolved.coeffs))))
    report(7, worst <= 1e-12, f"relabeling vs coefficient evolution dev {worst:.3e} <= 1e-12")


def test_criterion_08_mean_g_closed_form_and_bound():
    worst = 0.0
    for zmod in (0.0, 1.0, 2.0, 4.0):
        state = gk_coefficients(P22, GKLabel(z=zmod), 140)
        ops = build_matrices(state.params, 140)
        direct = expectation(state, ops.g).real
        worst = max(worst, abs(gk_mean_g(P22, zmod) - direct))
    bound_ok = all(
        gk_mean_g(P22, float(z)) >= 5.0 - 1e-12 for z in np.linspace(0.0, 8.0, 50)
    )
    report(
        8,
        worst <= 1e-8 and bound_ok,
        f"closed form vs expectation dev {worst:.3e} <= 1e-8; lower bound holds on 50-point grid",
    )


IS_CASES = [
    (1.0, 0.3),
    (1.0, 0.8),
    (1j, 0.3),
    (1j, 0.8),
    (2.0, 0.3),
    (2.0, 0.8),
    (0.5 + 0.5j, 0.3),
    (0.5 + 0.5j, 0.8),
]


@pytest.mark.parametrize("lam,z", IS_CASES, ids=lambda v: str(v))
def test_criterion_09_intelligent_states(lam, z):
    # NOTE: for purely imaginary lambda the defining eigenvalue equation has
    # no normalizable solution (|1-lambda| = |1+lambda| makes the recursion
    # envelope fall off like n^{-1/2}, so the squared coefficients are not
    # summable); the equality part of this criterion is then unattainable at
    # any truncation and the lam=i cases fail honestly.
    dim = 160
    state = is_coefficients(P22, ISLabel(z=z, lam=lam), dim)
    v = variance_pair(state)
    rs_resid = abs(v["dW2"] * v["dP2"] - 0.25 * (v["meanG"] ** 2 + v["meanF"] ** 2))
    ratio_resid = abs(v["dW2"] / v["dP2"] - abs(lam) ** 2)
    gk_dev = 0.0
    if lam == 1.0:
        gk = gk_coefficients(P22, GKLabel(z=z), dim)
        gk_dev = float(np.max(np.abs(gk.coeffs - state.coeffs)))
    report(
        9,
        rs_resid <= 1e-8 and ratio_resid <= 1e-8 and gk_dev <= 1e-10,
        f"lambda={lam}, z={z}: rs equality resid {rs_resid:.3e}, "
        f"ratio resid {ratio_resid:.3e}, gk match dev {gk_dev:.3e}",
    )


def test_criterion_10_position_space():
    grid = gauss_legendre_grid(P22, 400)
    table = eigenfunction_table(P22, 15, grid.nodes)
    gram_dev = float(np.max(np.abs((table * grid.weights) @ table.T - np.eye(16))))

    h = math.pi / 4096.0
    xs = np.linspace(0.06 * math.pi, 0.94 * math.pi, 150)
    resid_worst = 0.0
    for n in range(9):
        psi = lambda x, k=n: eigenfunction(P22, k, x)
        d2 = (-psi(xs + 2 * h) + 16 * psi(xs + h) - 30 * psi(xs) + 16 * psi(xs - h)
              - psi(xs - 2 * h)) / (12 * h * h)
        resid = -d2 + potential(P22, xs) * psi(xs) - n * (n + 4.0) * psi(xs)
        resid_worst = max(resid_worst, float(np.max(np.abs(resid))))

    psi0 = lambda x: eigenfunction(P22, 0, x)
    d1 = (-psi0(xs + 2 * h) + 8 * psi0(xs + h) - 8 * psi0(xs - h) + psi0(xs - 2 * h)) / (12 * h)
    ann_worst = float(np.max(np.abs(d1 + superpotential(P22, xs) * psi0(xs))))

    report(
        10,
        gram_dev <= 1e-8 and resid_worst <= 1e-6 and ann_worst <= 1e-8,
        f"gram dev {gram_dev:.3e} <= 1e-8; schrodinger residual {resid_worst:.3e} <= 1e-6; "
        f"ground-state annihilation {ann_worst:.3e} <= 1e-8",
    )
