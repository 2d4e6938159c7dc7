"""End-to-end acceptance checks.

Each test verifies one headline property of the library at its stated
tolerance and emits a single PASS/FAIL summary line to the terminal.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dacqo.cli import TWO_QUBIT_995_RATE, main
from dacqo.counterdiabatic import (
    Schedule,
    alpha1_analytic,
    alpha1_oracle,
    exact_evolution,
    gamma_closed_forms,
    gamma_oracle,
)
from dacqo.extrapolation import fit_extrapolation
from dacqo.gates import generator_pauli_coefficients, gms_unitary
from dacqo.hardware import analytic_runtime, enhancement_factor
from dacqo.paulis import phase_distance
from dacqo.problem import (
    IsingProblem,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)
from dacqo.simulator import (
    NoiseModel,
    circuit_unitary,
    optimal_state_indices,
    run,
    success_vs_fidelity_sweep,
    trotter_reference_unitary,
)
from dacqo.synthesis import (
    analytic_depth,
    synthesize_digital_baseline,
    synthesize_homogeneous,
)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _instances():
    modes = ("homogeneous", "mixed", "fully_nonuniform")
    out = []
    for seed in range(50):
        n = 1 + seed % 6
        out.append(random_spin_glass(n, seed, modes[seed % 3]))
    return out


def test_01_alpha1_closed_form(capsys):
    start = time.time()
    lams = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for p in _instances():
        for lam in lams:
            worst = max(
                worst, abs(alpha1_analytic(p, lam) - alpha1_oracle(p, lam))
            )
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 30.0
    _report(
        capsys, 1, ok,
        f"alpha_1 analytic vs commutator oracle, 50 instances x 11 points: "
        f"max |delta| = {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_02_gamma_closed_forms(capsys):
    worst = 0.0
    for p in _instances():
        for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
            g1c, g2c = gamma_closed_forms(p, lam)
            g1o, g2o = gamma_oracle(p, lam)
            worst = max(worst, abs(g1c - g1o), abs(g2c - g2o))
    ok = worst < 1e-9
    _report(
        capsys, 2, ok,
        f"Gamma_1/Gamma_2 closed forms vs trace oracle: "
        f"max |delta| = {worst:.2e} (tol 1e-9)",
    )


def test_03_parasitic_yy_elimination(capsys):
    rng = np.random.default_rng(12)
    worst = 0.0
    for k in (2, 3, 4):
        for _ in range(20):
            # trotter-step-scale angles; the conjugate cancels YY exactly
            # to third order, so the residual scales as theta^3
            theta = rng.uniform(-1e-3, 1e-3)
            phi = rng.uniform(0.0, math.pi / 2)
            u = gms_unitary(k, theta, phi)
            canceller = gms_unitary(
                k, theta * math.sin(phi) ** 2, math.pi / 2
            ).conj().T
            coeffs = generator_pauli_coefficients(canceller @ u, k)
            for i, j in itertools.combinations(range(k), 2):
                key = "".join(
                    "Y" if q in (i, j) else "I" for q in range(k)
                )
                worst = max(worst, abs(coeffs.get(key, 0.0)))
    ok = worst < 1e-10
    _report(
        capsys, 3, ok,
        f"composed GMS + conjugate: max |YY coefficient| = {worst:.2e} "
        f"(tol 1e-10), k in 2..4, 20 draws each",
    )


def test_04_circuit_equals_trotter_product(capsys):
    worst = 0.0
    for n in (2, 4, 6):
        p = random_spin_glass(n, n, "homogeneous")
        k = min(4, n)
        for steps in (1, 2, 4):
            sch = Schedule(1.0, steps)
            d = phase_distance(
                circuit_unitary(synthesize_homogeneous(p, sch, k)),
                trotter_reference_unitary(p, sch, k),
            )
            worst = max(worst, d)
    ok = worst < 1e-8
    _report(
        capsys, 4, ok,
        f"layered circuit vs ordered trotter product, N in (2,4,6), "
        f"n in (1,2,4): max phase distance = {worst:.2e} (tol 1e-8)",
    )


def test_05_trotter_convergence(capsys):
    p = random_spin_glass(4, 0, "homogeneous")
    psi0 = np.zeros(16, dtype=complex)
    psi0[-1] = 1.0
    infids = []
    for steps in (2, 4, 8, 16):
        sch = Schedule(1.0, steps)
        exact = exact_evolution(p, sch, 2000) @ psi0
        circ = circuit_unitary(synthesize_homogeneous(p, sch, 4)) @ psi0
        infids.append(1.0 - abs(np.vdot(exact, circ)) ** 2)
    ok = all(b < a for a, b in zip(infids, infids[1:]))
    _report(
        capsys, 5, ok,
        "final-state infidelity strictly decreasing over n=(2,4,8,16): "
        + ", ".join(f"{x:.2e}" for x in infids),
    )


def test_06_depth_formulas(capsys):
    details = []
    ok = True
    for n in (4, 8, 12, 16):
        p = random_spin_glass(n, 0, "homogeneous")
        total = synthesize_homogeneous(p, Schedule(1.0, 1), 4).depth_report().total
        bound = analytic_depth(n, 4, "homogeneous")
        ok = ok and total <= bound
        details.append(f"N={n}: {total} <= {bound:g}")
    ok = ok and analytic_depth(8, 4, "homogeneous") == pytest.approx(14.0)
    ok = ok and analytic_depth(8, 4, "programmable_xx") == pytest.approx(11.0)
    ok = ok and analytic_depth(8, 4, "programmable_xx_nonlocal", m=0) == (
        pytest.approx(analytic_depth(8, 4, "programmable_xx"))
    )
    _report(
        capsys, 6, ok,
        "per-step layers within closed-form depth (" + "; ".join(details)
        + "); formulas give 14 and 11 at (8,4), M=0 reduction exact",
    )


def test_07_runtime_reproduction(capsys):
    steps = 10  # trotter count assumption; recorded in scaling sidecars
    digital = analytic_runtime(100, steps, path="digital")
    daqc = analytic_runtime(100, steps, path="daqc_homog")
    ok = abs(digital - 2.8) <= 0.15 * 2.8 and abs(daqc - 1.8) <= 0.15 * 1.8
    _report(
        capsys, 7, ok,
        f"N=100, {steps} trotter steps: digital {digital:.3f}s "
        f"(2.8 +-15%), digital-analog {daqc:.3f}s (1.8 +-15%)",
    )


def test_08_enhancement_factor(capsys):
    schedule = Schedule(1.0, 1)
    unweighted = mis_to_ising(random_graph(16, 0, weight_mode="unweighted"))
    r2 = enhancement_factor(unweighted, schedule, block_sizes=(2,))[2]
    nonuniform = mis_to_ising(
        random_graph(16, 0, weight_mode="fully_nonuniform")
    )
    r46 = enhancement_factor(nonuniform, schedule, block_sizes=(4, 6))
    ok = r2 >= 1.5 and r46[6] < r46[4]
    _report(
        capsys, 8, ok,
        f"16-node MIS: unweighted k=2 ratio {r2:.3f} (>= 1.5); "
        f"fully-nonuniform ratio(6)={r46[6]:.3f} < ratio(4)={r46[4]:.3f}",
    )


def test_09_noise_monotonicity_and_crossover(capsys):
    start = time.time()
    p = random_spin_glass(4, 0, "homogeneous")
    sch = Schedule(1.0, 10)
    rows = success_vs_fidelity_sweep(
        p, sch, 4, [0.0, 0.02, 0.05, 0.08, 0.12], trajectories=512, seed=0
    )
    baseline = run(
        synthesize_digital_baseline(p, sch),
        p,
        NoiseModel(0.0, TWO_QUBIT_995_RATE, seed=0),
        trajectories=512,
    ).success_probability
    # rows are sorted by ascending fidelity; success must not increase as
    # fidelity drops, beyond twice the combined standard error
    monotone = all(
        rows[i][1] <= rows[i + 1][1] + 2 * (rows[i][2] + rows[i + 1][2])
        for i in range(len(rows) - 1)
    )
    crossing = None
    for lo, hi in zip(rows, rows[1:]):
        if (lo[1] - baseline) * (hi[1] - baseline) <= 0 and hi[1] != lo[1]:
            frac = (baseline - lo[1]) / (hi[1] - lo[1])
            crossing = lo[0] + frac * (hi[0] - lo[0])
    elapsed = time.time() - start
    ok = (
        monotone
        and crossing is not None
        and 0.90 < crossing < 1.0
        and elapsed < 300.0
    )
    _report(
        capsys, 9, ok,
        f"success monotone in fidelity (within 2 sigma): {monotone}; "
        f"crossover vs digital baseline {baseline:.3f} at fidelity "
        f"{crossing if crossing is not None else float('nan'):.3f} "
        f"(in (0.90, 1.0)); {elapsed:.0f}s (< 300s)",
    )


def test_10_counterdiabatic_advantage(capsys):
    class WithoutCD(Schedule):
        # the same lambda(t) with lambda_dot held at 0: no CD term
        def lam_dot(self, t):
            return 0.0

    p = random_spin_glass(4, 0, "homogeneous")
    with_cd = Schedule(0.5, 10)
    without_cd = WithoutCD(0.5, 10)
    s_cd = run(synthesize_homogeneous(p, with_cd, 4), p).success_probability
    s_plain = run(
        synthesize_homogeneous(p, without_cd, 4), p
    ).success_probability
    margin = s_cd - s_plain
    ok = margin > 0.02
    _report(
        capsys, 10, ok,
        f"T=0.5 noiseless: success {s_cd:.3f} with CD terms vs "
        f"{s_plain:.3f} without, margin {margin:.3f} (> 0.02)",
    )


def test_11_extrapolation_round_trip(capsys):
    K, rate = 0.8, 0.1
    pts = [
        (n, 1.0 + (K - 1.0) * math.exp(-rate * n))
        for n in (4, 8, 12, 16, 24, 36)
    ]
    fit = fit_extrapolation(pts)
    err = max(abs(fit.K - K), abs(fit.decay_rate - rate), abs(fit.L - 1.0))
    ok = err < 1e-6
    _report(
        capsys, 11, ok,
        f"synthetic constants (L=1, K={K}, rate={rate}) recovered: "
        f"max |delta| = {err:.2e} (tol 1e-6)",
    )


def test_12_cli_determinism(capsys, tmp_path):
    from click.testing import CliRunner

    runner = CliRunner()
    args = [
        "fidelity-sweep", "--sizes", "4", "--c-grid", "0,0.05",
        "--steps", "2", "--trajectories", "8", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = runner.invoke(main, args + ["--output", str(a)])
    rb = runner.invoke(main, args + ["--output", str(b)])
    ok = (
        ra.exit_code == 0
        and rb.exit_code == 0
        and a.read_bytes() == b.read_bytes()
    )
    _report(
        capsys, 12, ok,
        "fidelity-sweep rerun with identical seed: CSV outputs byte-identical",
    )
