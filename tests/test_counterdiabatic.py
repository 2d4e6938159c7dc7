import collections
import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacqo import counterdiabatic
from dacqo.counterdiabatic import (
    Schedule,
    alpha1_analytic,
    alpha1_oracle,
    exact_evolution,
    gamma_closed_forms,
    gamma_oracle,
    hadamard_frame,
    rotated_full_hamiltonian,
)
from dacqo.paulis import hs_norm_sq, pauli_on
from dacqo.problem import (
    CapabilityError,
    Graph,
    IsingProblem,
    all_energies,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)
from dacqo.synthesis import synthesize


def _closure_profiles(T):
    """The built-in profiles as closures over T, kept as the reference."""

    def sin2sin2_lam(t):
        inner = math.sin(math.pi * t / (2.0 * T)) ** 2
        return math.sin(0.5 * math.pi * inner) ** 2

    def sin2sin2_lam_dot(t):
        b = math.pi * t / (2.0 * T)
        a = 0.5 * math.pi * math.sin(b) ** 2
        return (math.pi**2 / (4.0 * T)) * math.sin(2 * a) * math.sin(2 * b)

    def smoothstep_lam(t):
        s = t / T
        return s * s * (3.0 - 2.0 * s)

    def smoothstep_lam_dot(t):
        s = t / T
        return 6.0 * s * (1.0 - s) / T

    return {"sin2sin2": (sin2sin2_lam, sin2sin2_lam_dot),
            "linear-smoothstep": (smoothstep_lam, smoothstep_lam_dot)}


class TestSchedule:
    @pytest.mark.parametrize("profile", ["sin2sin2", "linear-smoothstep"])
    def test_boundary_conditions(self, profile):
        sch = Schedule(2.0, 4, profile=profile)
        assert sch.lam(0.0) == pytest.approx(0.0, abs=1e-15)
        assert sch.lam(2.0) == pytest.approx(1.0, abs=1e-12)
        assert sch.lam_dot(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sch.lam_dot(2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("profile", ["sin2sin2", "linear-smoothstep"])
    def test_monotone_on_grid(self, profile):
        sch = Schedule(1.0, 1, profile=profile)
        grid = np.linspace(0, 1, 1001)
        vals = [sch.lam(t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_finite_difference(self):
        sch = Schedule(1.5, 1)
        eps = 1e-6
        for t in (0.3, 0.7, 1.1):
            fd = (sch.lam(t + eps) - sch.lam(t - eps)) / (2 * eps)
            assert sch.lam_dot(t) == pytest.approx(fd, abs=1e-8)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            Schedule(1.0, 1, profile="cubic")

    @pytest.mark.parametrize("total_time,steps,field", [
        (1.0, 2.5, "trotter_steps"),
        (1.0, 2.0, "trotter_steps"),
        (1.0, True, "trotter_steps"),
        (1.0, "3", "trotter_steps"),
        (1.0, 0, "trotter_steps"),
        (True, 1, "total_time"),
        ("1.0", 1, "total_time"),
        (1j, 1, "total_time"),
    ], ids=["fractional-steps", "float-steps", "bool-steps", "string-steps",
            "zero-steps", "bool-time", "string-time", "complex-time"])
    def test_rejects_bad_fields(self, total_time, steps, field):
        with pytest.raises(ValueError, match=field):
            Schedule(total_time, steps)

    def test_three_plain_fields(self):
        # lam and lam_dot are methods, not fields a caller can pass
        assert [f.name for f in dataclasses.fields(Schedule)] == [
            "total_time", "trotter_steps", "profile"]
        with pytest.raises(TypeError):
            Schedule(1.0, 2, lam=lambda t: t, lam_dot=lambda t: 1.0)

    def test_schedules_compare_by_their_fields(self):
        for profile in ("sin2sin2", "linear-smoothstep"):
            a, b = Schedule(1.5, 3, profile=profile), Schedule(1.5, 3, profile=profile)
            assert a == b and hash(a) == hash(b)
        assert Schedule(1.5, 3) != Schedule(1.5, 3, profile="linear-smoothstep")
        assert Schedule(1.5, 3) != Schedule(1.5, 4)
        assert Schedule(1.5, 3) != Schedule(2.0, 3)
        with pytest.raises(ValueError, match="profile"):
            Schedule(1.0, 2, profile=None)

    def test_subclass_overrides_the_profile(self):
        # a custom lambda(t) is a subclass; it differs from the built-in
        # schedule of the same fields
        class Ramp(Schedule):
            def lam(self, t):
                return t / self.total_time

            def lam_dot(self, t):
                return 1.0 / self.total_time

        ramp = Ramp(2.0, 4)
        assert ramp.lam(0.5) == 0.25 and ramp.lam_dot(0.5) == 0.5
        assert ramp != Schedule(2.0, 4)
        p = random_spin_glass(3, 0, "mixed")
        assert synthesize(p, ramp, 3).to_json() != synthesize(
            p, Schedule(2.0, 4), 3).to_json()

    @pytest.mark.parametrize("profile", ["sin2sin2", "linear-smoothstep"])
    def test_replace_rebuilds_a_built_in_profile(self, profile):
        # lam and lam_dot read the copy's own total time
        copy = dataclasses.replace(Schedule(1.0, 2, profile=profile), total_time=2.0)
        fresh = Schedule(2.0, 2, profile=profile)
        assert copy == fresh and copy.profile == profile
        for t in (0.5, 1.0, 1.5):
            assert copy.lam(t) == fresh.lam(t)
            assert copy.lam_dot(t) == fresh.lam_dot(t)
        assert copy.lam(1.0) == pytest.approx(0.5)
        other = dataclasses.replace(Schedule(1.0, 2), profile="linear-smoothstep")
        assert other == Schedule(1.0, 2, profile="linear-smoothstep")
        assert other.lam(0.25) == Schedule(1.0, 2, profile="linear-smoothstep").lam(0.25)

    @pytest.mark.parametrize("schedule", [
        Schedule(1.5, 3),
        Schedule(1.5, 3, profile="linear-smoothstep"),
    ], ids=["sin2sin2", "linear-smoothstep"])
    def test_pickle_round_trip(self, schedule):
        back = pickle.loads(pickle.dumps(schedule))
        assert back == schedule and hash(back) == hash(schedule)
        assert back.profile == schedule.profile
        assert back.lam(0.7) == schedule.lam(0.7)
        assert back.lam_dot(0.7) == schedule.lam_dot(0.7)

    @pytest.mark.parametrize("total_time,steps", [
        (1.0, 10), (1.0, 1), (2.5, 7), (0.3, 40), (1.3, 3),
    ])
    def test_midpoints(self, total_time, steps):
        sch = Schedule(total_time, steps)
        dt = total_time / steps
        grid = sch.midpoints()
        assert grid == sch.midpoints(steps)
        assert grid == pytest.approx([(k + 0.5) * dt for k in range(steps)],
                                     rel=1e-15)
        assert len(sch.midpoints(2 * steps)) == 2 * steps

    @pytest.mark.parametrize("slices", [-3, 0, True, 2.0, "3"])
    def test_midpoints_reject_a_bad_slice_count(self, slices):
        with pytest.raises(ValueError, match="slices must be an integer"):
            Schedule(1.0, 2).midpoints(slices)

    @pytest.mark.parametrize("profile", ["sin2sin2", "linear-smoothstep"])
    def test_copies_equal_a_fresh_schedule(self, profile):
        base = Schedule(1.0, 2, profile=profile)
        assert copy.deepcopy(base) == base
        assert dataclasses.replace(base, total_time=2.5) == Schedule(
            2.5, 2, profile=profile)
        assert dataclasses.replace(base, trotter_steps=7) == Schedule(
            1.0, 7, profile=profile)
        other = "sin2sin2" if profile != "sin2sin2" else "linear-smoothstep"
        assert dataclasses.replace(base, profile=other) == Schedule(
            1.0, 2, profile=other)

    @pytest.mark.parametrize("profile", ["sin2sin2", "linear-smoothstep"])
    def test_profiles_equal_the_closure_reference(self, profile):
        for T in (0.3, 1.0, 1.5, 7.25, 40.0):
            sch = Schedule(T, 3, profile=profile)
            lam, lam_dot = _closure_profiles(T)[profile]
            for t in np.linspace(0.0, T, 23):
                assert sch.lam(t) == lam(t)
                assert sch.lam_dot(t) == lam_dot(t)

    def test_accepts_numpy_scalars(self):
        p = random_spin_glass(4, 0)
        circuit = synthesize(p, Schedule(np.float64(1.5), np.int64(2)), 4)
        assert circuit.to_json() == synthesize(p, Schedule(1.5, 2), 4).to_json()


class TestDenseCap:
    @pytest.mark.parametrize("build", [
        counterdiabatic._operators,
        lambda p: rotated_full_hamiltonian(p, Schedule(1.0, 1), 0.5),
    ], ids=["operators", "rotated_full_hamiltonian"])
    def test_dense_operators_capped_at_twelve_qubits(self, build):
        with pytest.raises(CapabilityError, match="capped at 12"):
            build(random_spin_glass(13, 0))


class TestOperators:
    """The index-arithmetic build of (H_f, sum X) against Pauli strings."""

    @staticmethod
    def _term_by_term(p, zf, xd):
        n = p.n_qubits
        Hf = np.zeros((2**n, 2**n), dtype=complex)
        D = np.zeros_like(Hf)
        for (i, j), v in p.couplings.items():
            Hf += v * pauli_on(n, {i: zf, j: zf})
        for i, hi in enumerate(p.fields):
            Hf += hi * pauli_on(n, {i: zf})
            D += pauli_on(n, {i: xd})
        return Hf, D

    @staticmethod
    def _problems():
        for n in range(1, 9):
            for mode in ("homogeneous", "mixed", "fully_nonuniform"):
                yield random_spin_glass(n, n, mode)
        yield IsingProblem(4, {}, [0.5, -1.25, 2.0, 0.0])
        yield IsingProblem(4, {(0, 1): 1.5, (1, 3): -0.75, (0, 2): 2.0})

    def test_rotated_frame_bit_identical(self):
        for p in self._problems():
            built = counterdiabatic._operators(p, rotated=True)
            for a, b in zip(built, self._term_by_term(p, "X", "Z")):
                assert a.dtype == complex
                assert np.array_equal(a, b)

    def test_original_frame(self):
        for p in self._problems():
            Hf, D = counterdiabatic._operators(p)
            Hf_ref, D_ref = self._term_by_term(p, "Z", "X")
            assert Hf.dtype == D.dtype == complex
            assert np.array_equal(D, D_ref)
            assert np.abs(Hf - Hf_ref).max() <= 1e-13


@st.composite
def _mis_problems(draw):
    """mis_to_ising of a graph on N <= 6 nodes in one of three weight classes."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    weight = draw(st.sampled_from([
        st.just(1.0),
        st.sampled_from([0.5, 1.0]),
        st.floats(0.1, 1.0),
    ]))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return mis_to_ising(Graph(n, frozenset(edges), np.array(weights)))


class TestAlpha1:
    @given(_mis_problems(), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_oracle_agreement_on_mis_problems(self, p, lam):
        assert alpha1_analytic(p, lam) == pytest.approx(
            alpha1_oracle(p, lam), rel=0, abs=1e-9
        )

    def test_single_qubit_midpoint(self):
        p = IsingProblem(1, {}, [1.0])
        assert alpha1_analytic(p, 0.5) == pytest.approx(-0.5)

    def test_single_qubit_start(self):
        p = IsingProblem(1, {}, [1.0])
        assert alpha1_analytic(p, 0.0) == pytest.approx(-0.25)

    def test_oracle_agreement_random(self):
        p = random_spin_glass(4, 42, "fully_nonuniform")
        assert alpha1_analytic(p, 0.3) == pytest.approx(
            alpha1_oracle(p, 0.3), abs=1e-9
        )

    def test_oracle_agreement_homogeneous(self):
        p = random_spin_glass(2, 0, "homogeneous")
        assert alpha1_analytic(p, 0.0) == pytest.approx(
            alpha1_oracle(p, 0.0), abs=1e-10
        )

    def test_negative_in_open_interval(self):
        p = random_spin_glass(3, 9, "mixed")
        for lam in (0.1, 0.5, 0.9):
            assert alpha1_analytic(p, lam) < 0

    def test_zero_problem_raises(self):
        p = IsingProblem(2)
        with pytest.raises(ZeroDivisionError):
            alpha1_analytic(p, 0.5)

    def test_gamma_closed_forms_match_oracle(self):
        p = random_spin_glass(4, 8, "fully_nonuniform")
        for lam in (0.0, 0.4, 1.0):
            g1c, g2c = gamma_closed_forms(p, lam)
            g1o, g2o = gamma_oracle(p, lam)
            assert g1c == pytest.approx(g1o, rel=1e-11)
            assert g2c == pytest.approx(g2o, rel=1e-11)


def _literal_gammas(p, lam):
    """Gamma_1, Gamma_2 from H(lambda), O_1 and O_2 formed at this lambda."""
    Hf, D = counterdiabatic._operators(p)
    H = lam * Hf + (1 - lam) * D
    dH = Hf - D
    O1 = H @ dH - dH @ H
    O2 = H @ O1 - O1 @ H
    return hs_norm_sq(O1), hs_norm_sq(O2)


class TestGammaOracle:
    """The oracle's quadratic in lambda against its definition."""

    @staticmethod
    def _problems():
        for n in range(1, 9):
            for mode in ("homogeneous", "mixed", "fully_nonuniform"):
                yield random_spin_glass(n, n, mode)
            for weights in ("unweighted", "mixed", "fully_nonuniform"):
                yield mis_to_ising(random_graph(n, n, weight_mode=weights))

    def test_matches_literal_commutators(self):
        for p in self._problems():
            for lam in (0.0, 0.3, 0.5, 1.0):
                g1, g2 = gamma_oracle(p, lam)
                r1, r2 = _literal_gammas(p, lam)
                assert g1 == pytest.approx(r1, rel=1e-12)
                assert g2 == pytest.approx(r2, rel=1e-12)

    def test_cross_term_vanishes(self):
        # A = [H_f, O_1] has entries only at one-bit flips, B = [D, O_1]
        # only at zero- and two-bit flips, so the closed form has no
        # lambda (1 - lambda) term
        for p in self._problems():
            assert counterdiabatic._commutator_norms(p)[3] == 0.0

    def test_nine_qubits_capped(self):
        p = random_spin_glass(9, 0, "mixed")
        for oracle in (gamma_oracle, alpha1_oracle):
            with pytest.raises(CapabilityError):
                oracle(p, 0.5)

    def test_zero_problem_raises_before_and_after_cache_hit(self):
        _clear_caches()
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                alpha1_oracle(IsingProblem(2), 0.5)
        assert counterdiabatic._commutator_norms.cache_info().hits == 1


class TestPauliForm:
    """The CD operator is formed as a commutator; pin its Pauli terms and
    the sign it takes in the Hadamard frame against term-by-term sums."""

    @staticmethod
    def _cd_terms(p, field_letter):
        from dacqo.paulis import pauli_on

        n = p.n_qubits
        G = sum(hi * pauli_on(n, {i: "Y"}) for i, hi in enumerate(p.fields))
        for (i, j), v in p.couplings.items():
            G = G + v * (pauli_on(n, {i: "Y", j: field_letter})
                         + pauli_on(n, {i: field_letter, j: "Y"}))
        return G

    def test_rotated_hamiltonian_matches_docstring_formula(self):
        from dacqo.paulis import pauli_on

        p = random_spin_glass(3, 11, "fully_nonuniform")
        sch = Schedule(1.0, 2)
        for t in (0.13, 0.5, 0.87):
            lam, ldot = sch.lam(t), sch.lam_dot(t)
            H = sum((1 - lam) * pauli_on(3, {i: "Z"}) for i in range(3))
            H = H + sum(lam * hi * pauli_on(3, {i: "X"})
                        for i, hi in enumerate(p.fields))
            for (i, j), v in p.couplings.items():
                H = H + lam * v * pauli_on(3, {i: "X", j: "X"})
            H = H - 2 * ldot * alpha1_analytic(p, lam) * self._cd_terms(p, "X")
            np.testing.assert_allclose(rotated_full_hamiltonian(p, sch, t), H,
                                       rtol=0, atol=1e-12)


def _original_hamiltonian(p, sch, t):
    """Original-frame H(t) = H_ad(lambda(t)) + 2 lambda_dot alpha_1 C."""
    (lam, ldot, a1), = counterdiabatic._coefficients(p, sch, (t,))
    Hf, D, C = counterdiabatic._with_cd(counterdiabatic._operators(p))
    return lam * Hf + (1 - lam) * D + 2 * ldot * a1 * C


class TestRotatedFrame:
    def test_t0_is_driver(self):
        p = random_spin_glass(3, 0, "mixed")
        sch = Schedule(1.0, 2)
        H = rotated_full_hamiltonian(p, sch, 0.0)
        from dacqo.paulis import pauli_on

        target = sum(pauli_on(3, {i: "Z"}) for i in range(3))
        np.testing.assert_allclose(H, target, atol=1e-12)

    def test_tT_diagonal_in_x_basis(self):
        p = random_spin_glass(3, 0, "mixed")
        sch = Schedule(1.0, 2)
        H = rotated_full_hamiltonian(p, sch, 1.0)
        W = hadamard_frame(3)
        Hz = W @ H @ W.conj().T
        assert np.abs(Hz - np.diag(np.diag(Hz))).max() < 1e-12

    def test_unitarily_equivalent_to_original_frame(self):
        for n in (2, 4, 6):
            p = random_spin_glass(n, n, "fully_nonuniform")
            sch = Schedule(1.0, 2)
            W = hadamard_frame(n)
            for t in (0.21, 0.6, 0.95):
                H = _original_hamiltonian(p, sch, t)
                Hp = rotated_full_hamiltonian(p, sch, t)
                assert np.abs(W @ H @ W.conj().T - Hp).max() < 1e-10


# (T, slices) checked against scipy: a single slice; 100 slices, which
# fill several stacks from N=3 on; T=5 slices, several squarings each
_EXPM_GRIDS = ((1.0, 1), (1.0, 3), (1.0, 100), (5.0, 1), (5.0, 7))


class TestExactEvolution:
    def test_unitary(self):
        p = random_spin_glass(3, 2, "mixed")
        U = exact_evolution(p, Schedule(1.0, 1), 100)
        assert np.abs(U.conj().T @ U - np.eye(8)).max() < 1e-9

    def test_refinement_converges(self):
        p = random_spin_glass(2, 0, "homogeneous")
        sch = Schedule(1.0, 1)
        u1 = exact_evolution(p, sch, 500)
        u2 = exact_evolution(p, sch, 1000)
        u3 = exact_evolution(p, sch, 2000)
        d12 = np.linalg.norm(u2 - u1)
        d23 = np.linalg.norm(u3 - u2)
        assert d23 < d12

    def test_two_thousand_vs_four_thousand(self):
        p = random_spin_glass(2, 0, "homogeneous")
        sch = Schedule(1.0, 1)
        d = np.linalg.norm(
            exact_evolution(p, sch, 4000) - exact_evolution(p, sch, 2000),
            ord=2,
        )
        assert d < 1e-5

    def test_pure_driver_is_diagonal(self):
        # h = J = 0 makes alpha_1 singular, so switch the CD term off with
        # a zero-velocity schedule; only the diagonal (1-lambda) sum Z
        # survives and the propagator stays diagonal
        class NoVelocity(Schedule):
            def lam_dot(self, t):
                return 0.0

        p = IsingProblem(2, {(0, 1): 0.0}, [0.0, 1e-12])
        U = exact_evolution(p, NoVelocity(1.0, 1), 50)
        off = U - np.diag(np.diag(U))
        assert np.abs(off).max() < 1e-9

    @pytest.mark.parametrize("n,mode,grids", [
        *(pytest.param(n, mode, _EXPM_GRIDS, id=f"{n}-{mode}")
          for n in range(1, 7)
          for mode in ("homogeneous", "mixed", "fully_nonuniform")),
        pytest.param(8, "mixed", ((5.0, 7),), id="8-mixed"),
    ])
    def test_matches_expm_product(self, n, mode, grids):
        # an independent propagator: scipy's expm of each slice's H'(t)
        # at the same midpoints, multiplied on the left
        from scipy.linalg import expm

        p = random_spin_glass(n, 3, mode)
        for total_time, slices in grids:
            sch = Schedule(total_time, 10)
            dt = total_time / slices
            Hs = [rotated_full_hamiltonian(p, sch, (k + 0.5) * dt)
                  for k in range(slices)]
            # all scipy calls in a row: alternating them with numpy's
            # products makes the two BLAS thread pools contend
            factors = [expm(-1j * dt * H) for H in Hs]
            ref = np.eye(2**n, dtype=complex)
            for factor in factors:
                ref = factor @ ref
            U = exact_evolution(p, sch, slices)
            assert np.abs(U - ref).max() <= 1e-12

    @pytest.mark.parametrize("total_time,steps", [
        (1.0, 10), (1.0, 1), (2.5, 7), (0.3, 40),
    ])
    def test_slices_sit_on_the_trotter_grid(self, total_time, steps,
                                            monkeypatch):
        # exact_evolution(p, sch, sch.trotter_steps) reads H'(t) at the
        # trotter midpoints, bit for bit
        seen = []
        coefficients = counterdiabatic._coefficients

        def recording(problem, schedule, times):
            seen.extend(times)
            return coefficients(problem, schedule, times)

        monkeypatch.setattr(counterdiabatic, "_coefficients", recording)
        sch = Schedule(total_time, steps)
        exact_evolution(random_spin_glass(2, 0), sch, sch.trotter_steps)
        assert seen == sch.midpoints()

    @pytest.mark.parametrize("steps", [-3, 0, True, 2.0, "3"])
    def test_rejects_bad_slice_count(self, steps, monkeypatch):
        # checked before any operator is built
        def unreachable(*args):
            raise AssertionError("operators built for a bad slice count")

        monkeypatch.setattr(counterdiabatic, "_operators", unreachable)
        with pytest.raises(ValueError, match="steps must be an integer"):
            exact_evolution(random_spin_glass(3, 0), Schedule(1.0, 1), steps)


class TestCoefficients:
    """(lambda, lambda_dot, alpha_1) come from one rule for every consumer."""

    def test_all_zero_problem_has_no_cd_term(self):
        # alpha_1 = 0/0 without couplings or fields: the CD term is off,
        # as in the trotter angles, and only (1 - lambda) sum Z remains
        p = IsingProblem(3)
        sch = Schedule(1.0, 6)
        driver = sum(pauli_on(3, {i: "Z"}) for i in range(3))
        H = rotated_full_hamiltonian(p, sch, 0.3)
        np.testing.assert_allclose(H, (1.0 - sch.lam(0.3)) * driver, atol=1e-15)
        W = hadamard_frame(3)
        np.testing.assert_allclose(
            W @ _original_hamiltonian(p, sch, 0.3) @ W.conj().T, H, atol=1e-12
        )

    @staticmethod
    def _triple_sum_loop(problem):
        # the sequential loop the vectorized triple sum must reproduce
        Jm = problem.coupling_matrix()
        s3 = 0.0
        for i, j, k in itertools.combinations(range(problem.n_qubits), 3):
            a, b, c = Jm[i, j], Jm[i, k], Jm[j, k]
            s3 += a * a * b * b + a * a * c * c + b * b * c * c
        return s3

    @pytest.mark.parametrize("n", [3, 6, 14, 32])
    def test_triple_sum_equals_loop(self, n):
        modes = ("homogeneous", "mixed", "fully_nonuniform")
        problems = [random_spin_glass(n, 5, m) for m in modes]
        for seed, weights in enumerate(("unweighted", "mixed",
                                        "fully_nonuniform")):
            problems.append(mis_to_ising(random_graph(n, seed,
                                                      weight_mode=weights)))
        for p in problems:
            assert counterdiabatic._coupling_sums(p)[5] == \
                self._triple_sum_loop(p)

    def test_coupling_sums_formed_once_per_sweep(self, monkeypatch):
        calls = []
        sums = counterdiabatic._coupling_sums

        def counted(problem):
            calls.append(problem)
            return sums(problem)

        monkeypatch.setattr(counterdiabatic, "_coupling_sums", counted)
        p = random_spin_glass(5, 1, "fully_nonuniform")
        synthesize(p, Schedule(1.0, 10), 3)
        assert len(calls) == 1
        exact_evolution(p, Schedule(1.0, 10), 50)
        assert len(calls) == 2


def _clear_caches():
    for cache in (counterdiabatic._coupling_sums,
                  counterdiabatic._commutator_norms):
        cache.cache_clear()


class TestCaches:
    """Instance data is computed once per problem, and the results keep
    their bits."""

    LAMBDAS = np.linspace(0.0, 1.0, 11)

    @classmethod
    def _results(cls, p):
        sch = Schedule(1.0, 4)
        return (
            [alpha1_analytic(p, lam) for lam in cls.LAMBDAS],
            [alpha1_oracle(p, lam) for lam in cls.LAMBDAS],
            exact_evolution(p, sch, 20),
            rotated_full_hamiltonian(p, sch, 0.3),
        )

    @pytest.mark.parametrize("mode", [
        "homogeneous", "mixed", "fully_nonuniform",
    ])
    def test_cleared_caches_give_equal_results(self, mode):
        p = random_spin_glass(5, 4, mode)
        _clear_caches()
        cold = self._results(p)
        for q in (p, IsingProblem.from_json(p.to_json())):
            for a, b in zip(self._results(q), cold):
                assert np.array_equal(a, b)

    def test_sweep_computes_instance_data_once(self, monkeypatch):
        # the coupling sums read the coupling matrix once; the oracle
        # forms H_f (from all_energies), D and its three commutators once
        counts = collections.Counter()

        def counted(name, f):
            def wrapper(*args):
                counts[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(counterdiabatic, "all_energies",
                            counted("energies", all_energies))
        monkeypatch.setattr(IsingProblem, "coupling_matrix",
                            counted("sums", IsingProblem.coupling_matrix))
        monkeypatch.setattr(counterdiabatic, "_operators",
                            counted("operators", counterdiabatic._operators))
        monkeypatch.setattr(counterdiabatic, "commutator",
                            counted("commutators", counterdiabatic.commutator))
        _clear_caches()
        p = random_spin_glass(6, 2, "fully_nonuniform")
        # an equal copy finds what p left in the caches
        same = (p, IsingProblem.from_json(p.to_json()))
        for k, lam in enumerate(self.LAMBDAS):
            q = same[k % 2]
            alpha1_analytic(q, lam)
            alpha1_oracle(q, lam)
            gamma_closed_forms(q, lam)
        assert counts == {"sums": 1, "energies": 1, "commutators": 3,
                          "operators": 1}
        assert counterdiabatic._commutator_norms.cache_info().misses == 1
        entry = counterdiabatic._commutator_norms(p)
        assert len(entry) == 4
        assert all(type(x) is float for x in entry)

    def test_returned_matrices_are_fresh(self):
        p = random_spin_glass(3, 1, "mixed")
        sch = Schedule(1.0, 2)
        builders = [
            lambda: rotated_full_hamiltonian(p, sch, 0.3),
            lambda: exact_evolution(p, sch, 5),
            lambda: counterdiabatic._operators(p)[0],
            lambda: counterdiabatic._operators(p)[1],
            lambda: counterdiabatic._operators(p, rotated=True)[0],
            lambda: counterdiabatic._operators(p, rotated=True)[1],
        ]
        for build in builders:
            first = build()
            expected = first.copy()
            first[...] = 7.0
            assert np.array_equal(build(), expected)

    def test_caches_keep_less_than_one_dense_matrix(self):
        # at N = 10 one 2^N x 2^N complex matrix is 16 MiB; the caches
        # hold Python floats only
        p = random_spin_glass(10, 0, "fully_nonuniform")
        _clear_caches()
        tracemalloc.start()
        try:
            exact_evolution(p, Schedule(1.0, 1), 1)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert counterdiabatic._coupling_sums.cache_info().currsize == 1
        assert kept < 2**20 * 16
