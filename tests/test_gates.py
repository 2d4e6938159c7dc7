import inspect
import itertools
import json
import math

import numpy as np
import pytest

from dacqo.counterdiabatic import Schedule, alpha1_analytic
from dacqo.gates import (
    Gate,
    gate_unitary,
    generator_pauli_coefficients,
    gms_unitary,
    rotation_unitary,
    solve_gms_angles,
    trotter_angles,
)
from dacqo.paulis import PAULI, kron_all, pauli_on
from dacqo.problem import CapabilityError, IsingProblem


class TestGmsUnitary:
    def test_two_qubit_pi_is_minus_xx(self):
        # (S_x)^2 = 2 I + 2 XX for k=2, so theta=pi gives -XX exactly
        u = gms_unitary(2, math.pi, 0.0)
        xx = kron_all([PAULI["X"], PAULI["X"]])
        np.testing.assert_allclose(u, -xx, atol=1e-12)

    def test_unitarity(self):
        for k, theta, phi in [(2, 0.7, 0.3), (3, 1.9, 1.1), (4, -0.4, 2.0)]:
            u = gms_unitary(k, theta, phi)
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(2**k), atol=1e-12
            )

    def test_permutation_symmetry(self):
        # the generator is symmetric under any qubit relabeling
        u = gms_unitary(3, 0.9, 0.4)
        # swap qubits 0 and 2
        perm = np.zeros((8, 8))
        for b in range(8):
            b2 = ((b & 1) << 2) | (b & 2) | (b >> 2)
            perm[b2, b] = 1.0
        np.testing.assert_allclose(perm @ u @ perm.T, u, atol=1e-12)

    def test_phi_is_frame_rotation(self):
        # cos(phi) X + sin(phi) Y = e^{-i phi Z / 2} X e^{+i phi Z / 2}
        k, theta, phi = 3, 1.3, 0.8
        w1 = rotation_unitary("z", phi / 2)
        W = kron_all([w1] * k)
        expected = W @ gms_unitary(k, theta, 0.0) @ W.conj().T
        np.testing.assert_allclose(gms_unitary(k, theta, phi), expected, atol=1e-12)

    def test_pairwise_generator_expansion(self):
        # small-angle generator has theta/2 on every XX pair (phi = 0)
        theta = 1e-3
        coeffs = generator_pauli_coefficients(gms_unitary(3, theta, 0.0), 3)
        for key in ("XXI", "XIX", "IXX"):
            assert coeffs[key] == pytest.approx(theta / 2, rel=1e-9)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_closed_form_matches_eigh_of_summed_generator(self, k):
        # reference: exponentiate (cos phi S_x + sin phi S_y)^2 built from
        # kron products by diagonalizing it
        rng = np.random.default_rng(k)
        for theta, phi in rng.uniform(-2 * math.pi, 2 * math.pi, (4, 2)):
            axis = math.cos(phi) * PAULI["X"] + math.sin(phi) * PAULI["Y"]
            s = 0
            for i in range(k):
                term = np.ones((1, 1))
                for q in range(k):
                    term = np.kron(term, axis if q == i else PAULI["I"])
                s = s + term
            vals, vecs = np.linalg.eigh(s @ s)
            ref = (vecs * np.exp(-0.25j * theta * vals)) @ vecs.conj().T
            np.testing.assert_allclose(
                gms_unitary(k, theta, phi), ref, rtol=0, atol=1e-12
            )

    def test_size_limits(self):
        with pytest.raises(CapabilityError):
            gms_unitary(1, 1.0, 0.0)
        with pytest.raises(CapabilityError):
            gms_unitary(11, 1.0, 0.0)


class TestRotationUnitary:
    def test_full_angle_convention(self):
        # exp(-i pi/2 Z) = -i Z (not the half-angle convention)
        np.testing.assert_allclose(
            rotation_unitary("z", math.pi / 2), -1j * PAULI["Z"], atol=1e-15
        )

    def test_composition(self):
        u = rotation_unitary("x", 0.3) @ rotation_unitary("x", 0.5)
        np.testing.assert_allclose(u, rotation_unitary("x", 0.8), atol=1e-12)


class TestGateRecord:
    def test_json_round_trip_gms(self):
        g = Gate("gms", (0, 2, 3), theta=0.7, phi=0.25)
        assert Gate.from_dict(json.loads(json.dumps(g.to_dict()))) == g

    def test_json_round_trip_1q(self):
        g = Gate("1q", (1,), theta=-0.4, axis="y")
        assert Gate.from_dict(json.loads(json.dumps(g.to_dict()))) == g

    def test_validation(self):
        with pytest.raises(ValueError):
            Gate("twirl", (0, 1), theta=1.0)
        with pytest.raises(ValueError):
            Gate("gms", (0, 0), theta=1.0)
        with pytest.raises(ValueError):
            Gate("gms", (0,), theta=1.0)
        with pytest.raises(ValueError):
            Gate("1q", (0,), theta=1.0, axis="w")

    def test_gms_dag_is_conjugate(self):
        g = Gate("gms", (0, 1), theta=0.6, phi=0.2)
        gd = Gate("gms_dag", (0, 1), theta=0.6, phi=0.2)
        np.testing.assert_allclose(
            gate_unitary(gd), gate_unitary(g).conj().T, atol=1e-14
        )


class TestStepAngles:
    def test_formulas_at_midpoint(self):
        # inhomogeneous: per-pair couplings (one pair missing) and fields
        J = {(0, 1): 0.5, (0, 2): -0.3, (1, 3): 0.8, (2, 3): 0.25,
             (0, 3): 1.1}
        h = [0.5, -0.2, 0.7, 0.1]
        p = IsingProblem(4, J, h)
        sch = Schedule(2.0, 4)
        step = 2
        ang = list(trotter_angles(p, sch))[step - 1]
        t = sch.midpoints()[step - 1]
        lam, ldot = sch.lam(t), sch.lam_dot(t)
        dt = 0.5
        cd = -ldot * alpha1_analytic(p, lam)
        for i, j in itertools.combinations(range(4), 2):
            v = J.get((i, j), 0.0)
            for a, b in ((i, j), (j, i)):
                assert ang.xx[a, b] == lam * v * dt
                assert ang.xy[a, b] == 2.0 * cd * v * dt
        assert ang.xx[1, 2] == ang.xy[1, 2] == 0.0
        for q in range(4):
            assert ang.x[q] == lam * h[q] * dt
            assert ang.y[q] == 2.0 * cd * h[q] * dt
        assert ang.z == (1 - lam) * dt

    def test_y_channel_positive(self):
        # alpha_1 < 0 and lambda_dot > 0 mid-schedule, so the rotated-frame
        # counterdiabatic coefficient comes out positive
        p = IsingProblem(2, {(0, 1): 1.0}, [1.0, 1.0])
        ang = next(trotter_angles(p, Schedule(1.0, 2)))
        assert ang.y[0] > 0 and ang.y[1] > 0
        assert ang.xy[0, 1] > 0

    def test_rejects_nan(self):
        class NaNProfile(Schedule):
            def lam(self, t):
                return math.nan

            def lam_dot(self, t):
                return 1.0

        p = IsingProblem(2, {(0, 1): 1.0}, [1.0, 1.0])
        sch = NaNProfile(1.0, 2)
        with pytest.raises(ValueError, match="^step 1: xx angles are not finite"):
            next(trotter_angles(p, sch))

    def test_all_zero_problem_has_no_cd_term(self):
        # alpha_1 is undefined (0/0) without couplings or fields
        for ang in trotter_angles(IsingProblem(3), Schedule(1.0, 2)):
            assert not ang.xx.any() and not ang.xy.any()
            assert not ang.x.any() and not ang.y.any()
            assert ang.z > 0

    def test_one_step_at_a_time(self):
        # a generator: a sweep never holds every step's N x N matrices
        p = IsingProblem(3, {(0, 1): 1.0}, [0.5, 0.0, 0.0])
        sch = Schedule(1.0, 5)
        angles = trotter_angles(p, sch)
        assert inspect.isgenerator(angles)
        assert len(list(angles)) == sch.trotter_steps


def _composed_generator(gates, k):
    u = np.eye(2**k, dtype=complex)
    for g in gates:
        full = np.eye(2**k, dtype=complex)
        # gates here act on all k qubits in order, or on a pair
        if len(g.qubits) == k and g.qubits == tuple(range(k)):
            full = gate_unitary(g)
        else:
            raise AssertionError("helper expects full-register gates")
        u = full @ u
    return generator_pauli_coefficients(u, k)


class TestSolveGmsAngles:
    def test_generic_pair(self):
        txx, txy = 0.6e-3, 0.3e-3
        gates = solve_gms_angles(txx, txy, (0, 1))
        coeffs = _composed_generator(gates, 2)
        assert coeffs["XX"] == pytest.approx(txx, abs=1e-8)
        assert coeffs["XY"] == pytest.approx(txy, abs=1e-8)
        assert coeffs["YX"] == pytest.approx(txy, abs=1e-8)
        assert abs(coeffs.get("YY", 0.0)) < 1e-10

    def test_pure_xx_needs_one_gate(self):
        gates = solve_gms_angles(0.3, 0.0)
        assert len(gates) == 1 and gates[0].phi == 0.0

    def test_pure_cross_channel(self):
        txy = 1.2e-3
        gates = solve_gms_angles(0.0, txy, (0, 1))
        assert len(gates) == 2
        coeffs = _composed_generator(gates, 2)
        assert coeffs["XY"] == pytest.approx(txy, abs=1e-10)
        assert coeffs["YX"] == pytest.approx(txy, abs=1e-10)
        assert abs(coeffs.get("XX", 0.0)) < 1e-10
        assert abs(coeffs.get("YY", 0.0)) < 1e-10

    @pytest.mark.parametrize("k,bound", [
        (2, 1e-14), (3, 4e-5), (4, 1.5e-4), (5, 4e-4), (6, 8e-4)])
    def test_pure_cross_channel_against_expm(self, k, bound):
        # GMS(2t, pi/4) then GMS^dag(2t, 3pi/4) against
        # exp(-i t sum_{i<j} (X_i Y_j + Y_i X_j)): exact on a pair, and on
        # larger blocks within half the splitting error of the earlier
        # three-gate form (9.3e-5, 3.6e-4, 8.7e-4 and 1.7e-3 for k = 3..6)
        from scipy.linalg import expm

        txy = 0.05
        generator = sum(pauli_on(k, {i: "X", j: "Y"}) + pauli_on(k, {i: "Y", j: "X"})
                        for i, j in itertools.combinations(range(k), 2))
        target = expm(-1j * txy * generator)
        u = np.eye(2**k, dtype=complex)
        for g in solve_gms_angles(0.0, txy, tuple(range(k))):
            u = gate_unitary(g) @ u
        assert 1 - abs(np.trace(u.conj().T @ target)) / 2**k <= bound

    def test_zero_targets_empty(self):
        assert solve_gms_angles(0.0, 0.0) == []

    def test_block_of_three(self):
        txx, txy = 0.8e-3, -0.5e-3
        gates = solve_gms_angles(txx, txy, (0, 1, 2))
        coeffs = _composed_generator(gates, 3)
        for pair in (("XXI", "XYI", "YXI", "YYI"),
                     ("XIX", "XIY", "YIX", "YIY"),
                     ("IXX", "IXY", "IYX", "IYY")):
            assert coeffs[pair[0]] == pytest.approx(txx, abs=1e-9)
            assert coeffs[pair[1]] == pytest.approx(txy, abs=1e-9)
            assert coeffs[pair[2]] == pytest.approx(txy, abs=1e-9)
            assert abs(coeffs.get(pair[3], 0.0)) < 1e-9


class TestGeneratorCoefficients:
    def test_single_qubit_rotation(self):
        coeffs = generator_pauli_coefficients(rotation_unitary("y", 0.37), 1)
        assert coeffs == pytest.approx({"Y": 0.37})

    def test_two_qubit_mixed(self):
        G = 0.2 * pauli_on(2, {0: "X", 1: "Y"}) + 0.05 * pauli_on(2, {1: "Z"})
        from scipy.linalg import expm

        coeffs = generator_pauli_coefficients(expm(-1j * G), 2)
        assert coeffs["XY"] == pytest.approx(0.2, abs=1e-10)
        assert coeffs["IZ"] == pytest.approx(0.05, abs=1e-10)
