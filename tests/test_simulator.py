import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacqo import _kernels, simulator
from dacqo.counterdiabatic import Schedule, exact_evolution
from dacqo.gates import Gate, gate_unitary, rotation_unitary
from dacqo.paulis import HADAMARD, PAULI, kron_all, phase_distance
from dacqo.problem import (
    CapabilityError,
    IsingProblem,
    all_energies,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)
from dacqo.simulator import (
    NoiseModel,
    circuit_unitary,
    gate_fidelity,
    optimal_state_indices,
    perturb_analog_block,
    run,
    success_vs_fidelity_sweep,
    trotter_reference_unitary,
)
from dacqo.synthesis import Circuit, synthesize, synthesize_homogeneous


def _homogeneous_k4():
    return IsingProblem(
        4,
        {p: 1.0 for p in itertools.combinations(range(4), 2)},
        [1.0] * 4,
    )


class TestPerturbAnalogBlock:
    def test_zero_amplitude_is_identity(self):
        u = gate_unitary(Gate("gms", (0, 1), 0.7))
        assert perturb_analog_block(u, 0.0, 3) is u

    def test_result_is_unitary(self):
        u = gate_unitary(Gate("gms", (0, 1, 2), 0.7))
        v = perturb_analog_block(u, 0.1, 7)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(8), atol=1e-12)

    def test_fidelity_decreases_with_amplitude(self):
        u = gate_unitary(Gate("gms", (0, 1), 0.7))
        means = []
        for c in (0.02, 0.1, 0.4):
            fids = [
                gate_fidelity(u, perturb_analog_block(u, c, s))
                for s in range(100)
            ]
            means.append(np.mean(fids))
        assert means[0] > means[1] > means[2]

    def test_deterministic_per_seed(self):
        u = gate_unitary(Gate("gms", (0, 1), 0.7))
        np.testing.assert_array_equal(
            perturb_analog_block(u, 0.05, 11),
            perturb_analog_block(u, 0.05, 11),
        )

    @pytest.mark.parametrize("c", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("q", [2, 3])
    def test_rejects_a_bad_amplitude(self, c, q):
        # NoiseModel's rule, before any draw; the match tells it from the
        # LinAlgError (a ValueError) of an SVD on a non-finite matrix
        u = gate_unitary(Gate("gms", tuple(range(q)), 0.7))
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="c must be finite"):
            perturb_analog_block(u, c, rng, 2)
        assert rng.random() == np.random.default_rng(5).random()

    @pytest.mark.parametrize("draws", [0, -1, 2.5, True, np.float64(2.0)])
    def test_rejects_a_bad_draw_count(self, draws):
        # before any draw, and not from deep inside the window code
        u = gate_unitary(Gate("gms", (0, 1, 2), 0.7))
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="draws must be None or an integer"):
            perturb_analog_block(u, 0.1, rng, draws)
        assert rng.random() == np.random.default_rng(5).random()

    def test_accepts_a_numpy_integer_draw_count(self):
        u = gate_unitary(Gate("gms", (0, 1), 0.7))
        np.testing.assert_array_equal(perturb_analog_block(u, 0.1, 4, np.int64(3)),
                                      perturb_analog_block(u, 0.1, 4, 3))


def _svd_polar(x):
    w, _, vh = np.linalg.svd(x)
    return w @ vh


def _reference_perturb(u, c, seed, draws):
    """perturb_analog_block as formed with temporaries in earlier releases."""
    rng = np.random.default_rng(seed)
    shape = u.shape if draws is None else (draws,) + u.shape
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    return _reference_polar((u + c * g).reshape((-1,) + u.shape)).reshape(shape)


def _reference_polar(x):
    if x.shape[-1] < 8:
        return _svd_polar(x)
    r = np.matmul(x.conj().swapaxes(1, 2), x)
    scale2 = np.minimum(1.0, 2.25 / np.abs(r).sum(axis=2).max(axis=1))
    simulator._diagonal(r)[:] -= 1
    y = x * np.sqrt(scale2)[:, None, None]
    r *= scale2[:, None, None]
    simulator._diagonal(r)[:] += (scale2 - 1)[:, None]
    for _ in range(simulator._POLAR_MAX_ITER):
        if np.abs(r).max() <= simulator._POLAR_TOL:
            return y
        r *= -0.5
        simulator._diagonal(r)[:] += 1
        y = y @ r
        r = np.matmul(y.conj().swapaxes(1, 2), y)
        simulator._diagonal(r)[:] -= 1
    bad = np.abs(r).max(axis=(1, 2)) > simulator._POLAR_TOL
    if bad.any():
        y[bad] = _svd_polar(x[bad])
    return y


def _block(d):
    """An ideal d x d analog block: GMS on log2(d) >= 2 qubits, else Rx."""
    q = d.bit_length() - 1
    if q == 1:
        return rotation_unitary("x", 0.7)
    return gate_unitary(Gate("gms", tuple(range(q)), 0.7))


def _perturbed_stack(d, b, c, seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]
    g = rng.standard_normal((b, d, d)) + 1j * rng.standard_normal((b, d, d))
    return u + c * g / math.sqrt(2)


class TestPolar:
    """The Newton-Schulz projection against LAPACK's SVD."""

    @staticmethod
    def _count_svd(monkeypatch):
        sizes = []

        def counted(x):
            sizes.append(len(x))
            return _svd_polar(x)

        monkeypatch.setattr(simulator, "_svd_polar", counted)
        return sizes

    @pytest.mark.parametrize("c", [0.02, 0.12, 0.4])
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
    def test_matches_svd_and_is_unitary(self, monkeypatch, d, c):
        # blocks of d < 8 always take the SVD
        x = _perturbed_stack(d, 4, c, seed=d)
        sizes = self._count_svd(monkeypatch)
        v = simulator._polar(x)
        np.testing.assert_allclose(v, _svd_polar(x), rtol=0, atol=1e-12)
        gram = np.matmul(v.conj().swapaxes(1, 2), v)
        assert np.abs(gram - np.eye(d)).max() <= 1e-13
        if d >= 8 and c == 0.02:
            assert sizes == []  # converged without the SVD

    def test_singular_values_above_sqrt3_are_scaled(self, monkeypatch):
        # unscaled, these converge to a unitary 0.8 away from the polar
        # factor while X^H X - I still vanishes
        rng = np.random.default_rng(0)
        d = 8
        sigma = np.linspace(0.5, 1.9, d)
        haar = [np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
                for _ in range(32)]
        x = np.stack([w * sigma @ v for w, v in zip(haar[::2], haar[1::2])])
        sizes = self._count_svd(monkeypatch)
        v = simulator._polar(x)
        assert sizes == []
        np.testing.assert_allclose(v, _svd_polar(x), rtol=0, atol=1e-12)

    def test_iteration_cap_falls_back_to_svd(self, monkeypatch):
        x = _perturbed_stack(16, 4, 0.02, seed=1)
        monkeypatch.setattr(simulator, "_POLAR_MAX_ITER", 1)
        sizes = self._count_svd(monkeypatch)
        v = simulator._polar(x)
        assert sizes == [4]
        np.testing.assert_allclose(v, _svd_polar(x), rtol=0, atol=1e-12)

    def test_only_unconverged_matrices_fall_back(self, monkeypatch):
        # at c = 0.02 a 16x16 block converges in 5 updates, at c = 0.12 in
        # about 8: with a cap of 6 only the noisier one needs the SVD
        x = np.concatenate([_perturbed_stack(16, 3, 0.02, seed=2),
                            _perturbed_stack(16, 1, 0.12, seed=3)])
        monkeypatch.setattr(simulator, "_POLAR_MAX_ITER", 6)
        sizes = self._count_svd(monkeypatch)
        v = simulator._polar(x)
        assert sizes == [1]
        np.testing.assert_allclose(v, _svd_polar(x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cap", [20, 6])
    def test_stacks_stop_on_their_own(self, monkeypatch, cap):
        # stacks of 4 at c = 0.02 stop after 5 updates, at c = 0.12 after
        # about 8: batched, the early ones keep their iterate while the
        # others go on, and with a cap of 6 only the late ones fall back
        stacks = [_perturbed_stack(16, 4, c, seed=s)
                  for s, c in enumerate((0.02, 0.12, 0.02, 0.12))]
        monkeypatch.setattr(simulator, "_POLAR_MAX_ITER", cap)
        sizes = self._count_svd(monkeypatch)
        alone = [simulator._polar(x) for x in stacks]
        assert sizes == ([] if cap == 20 else [4, 4])
        batched = simulator._polar(np.concatenate(stacks), 4)
        assert np.array_equal(batched, np.concatenate(alone))
        assert sizes == ([] if cap == 20 else [4, 4, 8])

    @pytest.mark.parametrize("d,draws", [(16, 32), (4, 8), (8, None)])
    def test_draws_follow_the_seeded_stream(self, d, draws):
        # the projection of u + c g with g re-drawn from the same seed, in
        # the same order: real parts of the whole stack, then imaginary
        u = gate_unitary(Gate("gms", tuple(range(d.bit_length() - 1)), 0.7))
        c, seed = 0.08, 21
        shape = u.shape if draws is None else (draws,) + u.shape
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)) / math.sqrt(2)
        v = perturb_analog_block(u, c, seed, draws)
        assert v.shape == shape
        np.testing.assert_allclose(v, _svd_polar(u + c * g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", [0.02, 0.12, 0.4])
    @pytest.mark.parametrize("draws", [None, 1, 4, 32])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_same_bits_as_temporaries(self, d, draws, c):
        # guards the buffered real arithmetic against numpy changing how
        # it divides a complex array by a real scalar
        u = _block(d)
        want = _reference_perturb(u, c, d + 3, draws)
        got = perturb_analog_block(u, c, d + 3, draws)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cap", [1, 6])
    def test_same_bits_as_temporaries_at_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(simulator, "_POLAR_MAX_ITER", cap)
        sizes = self._count_svd(monkeypatch)
        u = _block(16)
        for c in (0.02, 0.12):
            assert np.array_equal(perturb_analog_block(u, c, 4, 8),
                                  _reference_perturb(u, c, 4, 8))
        assert sizes  # the fallback ran

    @pytest.mark.parametrize("d", [4, 16])
    def test_results_do_not_share_the_buffers(self, d):
        u = _block(d)
        rng = np.random.default_rng(5)
        first = perturb_analog_block(u, 0.12, rng, 8)
        kept = first.copy()
        second = perturb_analog_block(u, 0.12, rng, 8)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_allocates_little_more_than_its_result(self):
        # after a warm-up on the shape, the draws and iterates reuse their
        # buffers, and only the result is new
        u = _block(16)
        rng = np.random.default_rng(6)
        perturb_analog_block(u, 0.12, rng, 32)
        tracemalloc.start()
        try:
            v = perturb_analog_block(u, 0.12, rng, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * v.nbytes


def _window_circuit():
    """Gates of every block dimension d = 2..16, perturbed or not, with
    ideal unitaries in both memory orders (a gms_dag's is F-ordered)."""
    gates, ideal, analog = [], [], []
    for rep in range(3):
        for q, kind in ((4, "gms"), (2, "gms_dag"), (1, "1q"), (3, "gms"),
                        (2, "gms"), (1, "1q"), (4, "gms_dag")):
            qubits = tuple((rep + j) % 5 for j in range(q))
            if kind == "1q":
                g = Gate("1q", qubits, theta=0.3 + rep, axis="xyz"[rep])
            else:
                g = Gate(kind, qubits, 0.4 + 0.3 * rep + 0.1 * q)
            # a 1q rotation stands in for a d = 2 block on every other pass
            perturbed = kind != "1q" or rep != 1
            gates.append(g)
            ideal.append(gate_unitary(g))
            analog.append(perturbed)
    return gates, ideal, analog


class TestWindows:
    """``run`` draws and projects each window of gates together; every
    operator and fidelity has the bits of the one-gate path."""

    @staticmethod
    def _per_gate(gates, ideal, analog, c, p, seed, b):
        """(operator, Pauli stacks, fidelity sum) per gate, with a
        (stack, (q,)) pair per hit qubit q: the drawn Pauli in hit
        columns, else I."""
        rng = np.random.default_rng(seed)
        errors = np.stack([PAULI[a] for a in "XYZ"])
        out = []
        for g, u, perturbed in zip(gates, ideal, analog):
            v, fid, paulis = u, None, []
            if perturbed:
                v = perturb_analog_block(u, c, rng, b)
                fid = float(gate_fidelity(u, v).sum())
            if p > 0:
                for q, r in zip(g.qubits, rng.random((len(g.qubits), b))):
                    hit = r < p
                    if hit.any():
                        e = np.array([PAULI["I"]] * b)
                        e[hit] = errors[(r[hit] / p * 3).astype(int) % 3]
                        paulis.append((e, (q,)))
            out.append((v, paulis, fid))
        return out

    @pytest.mark.parametrize("cap", [None, 5])
    @pytest.mark.parametrize("b", [1, 4, 32])
    def test_bits_of_the_one_gate_path(self, monkeypatch, b, cap):
        gates, ideal, analog = _window_circuit()
        assert {len(u) for u, a in zip(ideal, analog) if a} == {2, 4, 8, 16}
        assert any(u.flags.f_contiguous and not u.flags.c_contiguous for u in ideal)
        if cap is not None:
            # 16 x 16 blocks at c = 0.08 need 6 or 7 updates, so every
            # one of them reaches the cap and falls back to the SVD
            monkeypatch.setattr(simulator, "_POLAR_MAX_ITER", cap)
        # windows of two 4-qubit blocks and a few smaller ones end
        # mid-circuit
        monkeypatch.setattr(simulator, "_WINDOW_ENTRIES", 3 * 256 * b)
        polar, svd = simulator._polar, simulator._svd_polar
        stacks, fallbacks = [], []

        def counted_polar(x, stack=None):
            stacks.append((x.shape[-1], len(x) // (stack or len(x))))
            return polar(x, stack)

        def counted_svd(x):
            fallbacks.append((x.shape[-1], len(x)))
            return svd(x)

        monkeypatch.setattr(simulator, "_svd_polar", counted_svd)
        want = self._per_gate(gates, ideal, analog, 0.08, 0.05, 9, b)
        monkeypatch.setattr(simulator, "_polar", counted_polar)
        got = list(simulator._chunk_operators(
            tuple(ideal), analog, [g.qubits for g in gates], 0.08, 0.05,
            np.random.default_rng(9), b))
        assert len(got) == len(want) == len(gates)
        # Pauli stacks among them (one trajectory draws no hit at seed 9)
        assert b == 1 or any(paulis for _, paulis, _ in got)
        for (v, paulis, fid), (w, paulis_want, fid_want) in zip(got, want):
            assert fid == fid_want
            assert v.shape == w.shape and np.array_equal(v, w)
            assert [on for _, on in paulis] == [on for _, on in paulis_want]
            for (e, _), (e_want, _) in zip(paulis, paulis_want):
                assert e.shape == e_want.shape and np.array_equal(e, e_want)
        # several windows, some projecting more than one gate per d
        windows = sum(1 for d, _ in stacks if d == 16)
        assert windows > 1 and max(n for _, n in stacks) > 1
        if cap is not None:
            assert any(d == 16 for d, _ in fallbacks)

    @pytest.mark.parametrize("c", [0.02, 0.12, 0.4])
    def test_single_block_windows_match_the_reference(self, monkeypatch, c):
        # sweep_n4's shape: 32 trajectories of 4-qubit blocks, a window
        # cap below one block, so every window holds exactly one, and
        # p = 0; against the temporaries, drawn gate by gate from one
        # generator
        gates = [Gate(kind, (0, 1, 2, 3), 0.3 + 0.2 * i)
                 for i, kind in enumerate(("gms", "gms_dag", "gms", "gms_dag"))]
        gates.insert(2, Gate("1q", (1,), theta=0.4, axis="x"))
        ideal = [gate_unitary(g) for g in gates]
        analog = [g.kind != "1q" for g in gates]
        b = 32
        monkeypatch.setattr(simulator, "_WINDOW_ENTRIES", b * 256 - 1)
        polar, stacks = simulator._polar, []

        def counted_polar(x, stack=None):
            stacks.append(len(x) // (stack or len(x)))
            return polar(x, stack)

        monkeypatch.setattr(simulator, "_polar", counted_polar)
        got = list(simulator._chunk_operators(
            ideal, analog, [g.qubits for g in gates], c, 0.0,
            np.random.default_rng(9), b))
        assert stacks == [1] * 4
        rng = np.random.default_rng(9)
        assert len(got) == len(gates)
        for u, perturbed, (v, paulis, fid) in zip(ideal, analog, got):
            assert paulis == []
            if not perturbed:
                assert v is u and fid is None
                continue
            want = _reference_perturb(u, c, rng, b)
            assert v.shape == want.shape and np.array_equal(v, want)
            assert fid == float(gate_fidelity(u, want).sum())

    def test_gms_fidelity_is_the_per_gate_sum(self, monkeypatch):
        # the window's fidelities reach run's mean in gate order
        monkeypatch.setattr(simulator, "_WINDOW_ENTRIES", 2048)
        problem = random_spin_glass(6, 4, "mixed")
        circuit = synthesize(problem, Schedule(1.0, 3), 3)
        res = run(circuit, problem, NoiseModel(0.1, 0.02, seed=3), trajectories=5)
        _, _, fidelity = _per_gate_run(circuit, problem, NoiseModel(0.1, 0.02, seed=3), 5)
        assert res.gms_fidelity == fidelity

    def test_memory_is_the_state_and_the_window(self):
        # a solve-like run at N = 12: 4 trajectories, c and p > 0.  Past
        # the cached ideal unitaries, the peak is a few copies of the state
        # and of the window (two draws, U + c G, two iterates, the residual,
        # its modulus, the result), never the circuit's perturbed blocks
        # all at once
        problem = mis_to_ising(random_graph(12, 0))
        circuit = synthesize(problem, Schedule(1.0, 10), 4)
        truth = simulator.brute_force_ground_state(problem)
        state = 2**12 * 4 * 16
        window = simulator._WINDOW_ENTRIES * 16
        bound = 8 * state + 8 * window
        blocks = sum(4 * 16 * len(gate_unitary(g)) ** 2
                     for g in circuit.gates() if g.kind != "1q")
        assert blocks > bound
        simulator._draw_buffers.cache_clear()
        simulator._polar_buffers.cache_clear()
        simulator._ideal_unitaries(circuit)
        tracemalloc.start()
        try:
            run(circuit, problem, NoiseModel(0.05, 0.005, seed=1),
                trajectories=4, truth=truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestOverflow:
    """Amplitudes large enough to overflow, on blocks of d >= 8, where
    the projection runs Newton-Schulz: at 1e160 X^H X, at 1e308 c G."""

    def test_gram_overflow_falls_back_to_the_svd(self):
        # X^H X overflows at c = 1e160, and the residual is NaN
        u = gate_unitary(Gate("gms", (0, 1, 2), 0.7))
        v = perturb_analog_block(u, 1e160, 3, 4)
        assert np.isfinite(v).all()
        np.testing.assert_allclose(v @ v.conj().swapaxes(1, 2),
                                   np.broadcast_to(np.eye(8), v.shape),
                                   rtol=0, atol=1e-14)

    def test_non_finite_perturbation_raises(self):
        problem = random_spin_glass(3, 0)
        circuit = synthesize(problem, Schedule(1.0, 2), 3)
        assert {len(g.qubits) for g in circuit.gates() if g.kind != "1q"} == {3}
        with pytest.raises(FloatingPointError):
            run(circuit, problem, NoiseModel(1e308), trajectories=2)


class TestGateFidelity:
    def test_identity(self):
        assert gate_fidelity(np.eye(4), np.eye(4)) == pytest.approx(1.0)

    def test_z_rotation_against_identity(self):
        # |tr exp(-i theta Z)| / 2 = |cos theta|
        for theta in (0.2, 1.0, 2.5):
            f = gate_fidelity(np.eye(2), rotation_unitary("z", theta))
            assert f == pytest.approx(abs(math.cos(theta)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(2), np.eye(4))


class TestOptimalStateIndices:
    def test_antiferromagnetic_pair(self):
        idx, truth = optimal_state_indices(IsingProblem(2, {(0, 1): 1.0}))
        np.testing.assert_array_equal(idx, [1, 2])
        assert truth.energy == -1.0

    def test_field_selects_all_up(self):
        idx, _ = optimal_state_indices(IsingProblem(3, {}, [-1.0] * 3))
        np.testing.assert_array_equal(idx, [0])

    @pytest.mark.parametrize("mode", ["homogeneous", "mixed", "fully_nonuniform"])
    def test_indices_are_the_minima_of_all_energies(self, mode):
        # spin glasses in each weight class and MIS graphs in the matching
        # node-weight class; ties are exact in the first two classes
        weights = {"homogeneous": "unweighted"}.get(mode, mode)
        for n in range(1, 9):
            for seed in range(3):
                for p in (random_spin_glass(n, seed, mode),
                          mis_to_ising(random_graph(n, seed, 0.4, weights))):
                    e = all_energies(p)
                    idx, _ = optimal_state_indices(p)
                    np.testing.assert_array_equal(
                        idx, np.flatnonzero(e == e.min()))


class TestCircuitUnitary:
    def test_matches_reference_product(self):
        p = _homogeneous_k4()
        sch = Schedule(1.0, 2)
        u = circuit_unitary(synthesize_homogeneous(p, sch, 4))
        ref = trotter_reference_unitary(p, sch, 4)
        assert phase_distance(u, ref) < 1e-10

    def test_reference_rejects_inhomogeneous(self):
        p = IsingProblem(2, {(0, 1): 0.3}, [1.0, 0.5])
        with pytest.raises(ValueError, match="homogeneous"):
            trotter_reference_unitary(p, Schedule(1.0, 1), 2)

    def test_single_layer(self):
        c = Circuit(1, [[Gate("1q", (0,), 0.4, axis="y")]])
        np.testing.assert_allclose(
            circuit_unitary(c), rotation_unitary("y", 0.4), atol=1e-14
        )

    def test_width_cap(self):
        with pytest.raises(CapabilityError):
            circuit_unitary(Circuit(13, []))

    def test_builds_each_distinct_unitary_once(self, monkeypatch):
        # a homogeneous N=6 circuit repeats its rotations on every qubit
        # and its blocks' angles; same-qubit gates merge before the kernel
        p = random_spin_glass(6, 0, "homogeneous")
        sch = Schedule(1.0, 2)
        built, listed = [], []
        gate_operators = simulator._gate_operators

        def counted_build(g):
            built.append(g)
            return gate_unitary(g)

        def listing(gates):
            listed.append(list(gates))
            return gate_operators(listed[-1])

        monkeypatch.setattr(simulator, "gate_unitary", counted_build)
        monkeypatch.setattr(simulator, "_gate_operators", listing)
        calls = _counting_kernel(monkeypatch)
        circuit = synthesize_homogeneous(p, sch, 4)
        for product in (lambda: circuit_unitary(circuit),
                        lambda: trotter_reference_unitary(p, sch, 4)):
            for log in (built, listed, calls):
                log.clear()
            product()
            [gates] = listed
            first = {}
            for g in gates:
                first.setdefault((g.kind, len(g.qubits), g.theta, g.phi, g.axis,
                                  math.copysign(1, g.theta), math.copysign(1, g.phi)), g)
            assert built == list(first.values()) and len(built) < len(gates)
            assert 0 < len(calls) < len(gates)


def _product_per_operator(ops, qubits):
    """``_product`` without merges: one kernel call per operator, on the
    identity in canonical order."""
    position = {q: i for i, q in enumerate(qubits)}
    s = len(position)
    d = 2**s
    m = np.eye(d, dtype=complex)
    for op, on in ops:
        if op.ndim == 3 and m.ndim == 2:
            # (d, B, d): matrix b acts on the columns of m[:, b]
            m = np.broadcast_to(m[:, None, :], (d, len(op), d))
        m = _kernels.apply_unitary(m, op, [position[q] for q in on], s)
    return m if m.ndim == 2 else np.moveaxis(m, 1, 0)


def _random_unitaries(rng, shape, k):
    """Random unitaries of dimension 2^k, of leading ``shape``."""
    z = rng.standard_normal(shape + (2**k, 2**k, 2))
    return np.linalg.qr(z[..., 0] + 1j * z[..., 1])[0]


@st.composite
def _operator_lists(draw):
    """Qubit labels, a stack size B and up to 16 (qubits, stacked) entries.

    An entry takes the qubits of an earlier one, as they are or reversed,
    or a fresh tuple, so that same-qubit runs, runs broken by an operator
    on some of their qubits, and the same qubits in another order
    (``(0, 2)`` and ``(2, 0)``) all turn up.
    """
    s = draw(st.integers(1, 5))
    labels = draw(st.permutations([0, 2, 3, 5, 6, 7]).map(lambda p: tuple(p[:s])))
    b = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(0, 16))):
        how = draw(st.sampled_from(("fresh", "last", "earlier", "reversed")))
        if entries and how != "fresh":
            on = entries[-1][0] if how == "last" else draw(st.sampled_from(entries))[0]
            on = on[::-1] if how == "reversed" else on
        else:
            on = tuple(draw(st.lists(st.sampled_from(labels), min_size=1,
                                     max_size=min(3, s), unique=True)))
        entries.append((on, draw(st.booleans())))
    return labels, b, entries


class TestProduct:
    """``_product`` merges same-qubit operators before the kernel."""

    @staticmethod
    def _ops(rng, b, entries):
        return [(_random_unitaries(rng, (b,) if stacked else (), len(on)), on)
                for on, stacked in entries]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_operator_lists(), st.integers(0, 2**32 - 1))
    def test_matches_one_call_per_operator(self, drawn, seed):
        labels, b, entries = drawn
        ops = self._ops(np.random.default_rng(seed), b, entries)
        got = simulator._product(ops, labels)
        want = _product_per_operator(ops, labels)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("entries,calls", [
        # a run on (0, 2) across an operator on other qubits: one call
        ([((0, 2), False), ((3,), True), ((0, 2), True), ((0, 2), False)], 2),
        # an operator on one of its qubits breaks the run
        ([((0, 2), False), ((2,), False), ((0, 2), False)], 3),
        # the same qubits in another order are another operator
        ([((0, 2), False), ((2, 0), False)], 2),
        ([((0, 2), True), ((2, 0), True), ((0, 2), False)], 3),
        # a shared operator into a stack, and a stack into a shared one
        ([((3,), False), ((3,), True), ((3,), False)], 1),
    ])
    def test_merges_only_same_qubit_runs(self, monkeypatch, entries, calls):
        ops = self._ops(np.random.default_rng(3), 2, entries)
        want = _product_per_operator(ops, (0, 2, 3))
        counted = _counting_kernel(monkeypatch)
        got = simulator._product(ops, (0, 2, 3))
        assert len(counted) == calls
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


class TestRun:
    def test_noiseless_matches_exact_reference(self):
        p = _homogeneous_k4()
        sch = Schedule(1.0, 10)
        circuit = synthesize_homogeneous(p, sch, 4)
        res = run(circuit, p, trajectories=1)
        # exact continuous evolution, same frame and measurement
        idx, _ = optimal_state_indices(p)
        psi = np.zeros(16, dtype=complex)
        psi[-1] = 1.0
        psi = exact_evolution(p, sch, 400) @ psi
        H1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        W = H1
        for _ in range(3):
            W = np.kron(W, H1)
        exact = float(np.sum(np.abs((W @ psi)[idx]) ** 2))
        assert res.success_probability == pytest.approx(exact, abs=0.02)
        assert res.trajectories == 1
        assert res.gms_fidelity == 1.0

    def test_noiseless_high_success(self):
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 10), 4)
        assert run(circuit, p).success_probability > 0.9

    def test_heavy_noise_scrambles(self):
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 10), 4)
        res = run(circuit, p, NoiseModel(5.0, 0.0, seed=1), trajectories=32)
        # 10 of the 16 bitstrings are optimal here, so a fully scrambled
        # state still succeeds ~62% of the time
        assert res.success_probability < 0.75
        assert res.gms_fidelity < 0.6

    def test_mild_depolarizing_sits_between(self):
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 10), 4)
        clean = run(circuit, p).success_probability
        noisy = run(
            circuit, p, NoiseModel(0.0, 2e-4, seed=3), trajectories=64
        ).success_probability
        floor = run(
            circuit, p, NoiseModel(0.0, 0.5, seed=3), trajectories=64
        ).success_probability
        assert floor < noisy <= clean + 1e-12

    def test_deterministic(self):
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 4), 4)
        a = run(circuit, p, NoiseModel(0.05, 1e-3, seed=9), trajectories=16)
        b = run(circuit, p, NoiseModel(0.05, 1e-3, seed=9), trajectories=16)
        assert a == b

    def test_validation(self):
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 1), 4)
        with pytest.raises(ValueError):
            run(circuit, p, trajectories=0)
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, 1.5)

    @pytest.mark.parametrize("kwargs,named", [
        ({"analog_noise_amplitude": True}, "c True is not a number"),
        ({"analog_noise_amplitude": "0.1"}, "c '0.1' is not a number"),
        ({"depolarizing_rate": True}, "p True is not a number"),
        ({"depolarizing_rate": "0.5"}, "p '0.5' is not a number"),
        ({"seed": 1.5}, "seed must be an integer >= 0"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": True}, "seed must be an integer >= 0"),
    ], ids=["bool-c", "string-c", "bool-p", "string-p", "fractional-seed",
            "negative-seed", "bool-seed"])
    def test_noise_model_reads_numbers(self, kwargs, named):
        # a bool p once ran as p = 1, and a fractional seed failed only
        # inside SeedSequence
        with pytest.raises(ValueError, match=named):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize("trajectories", [2.5, 2.0, True, "8"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_rejects_a_trajectory_count_that_is_not_an_integer(
            self, trajectories, noisy):
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 1), 4)
        noise = NoiseModel(0.05, 0.01, seed=0) if noisy else None
        with pytest.raises(ValueError, match="trajectories must be an integer"):
            run(circuit, p, noise, trajectories=trajectories)


def _depolarized_success(circuit, problem, p):
    """Exact success of the per-qubit depolarizing channel on a density matrix."""
    n = circuit.width
    eye = np.eye(2**n, dtype=complex)

    def full(u, qubits):
        return _kernels.apply_unitary(eye, u, qubits, n)

    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[-1, -1] = 1.0
    for g in circuit.gates():
        u = full(gate_unitary(g), g.qubits)
        rho = u @ rho @ u.conj().T
        for q in g.qubits:
            errs = [full(PAULI[a], (q,)) for a in "XYZ"]
            rho = (1 - p) * rho + p / 3 * sum(e @ rho @ e for e in errs)
    h = kron_all([HADAMARD] * n)
    rho = h @ rho @ h
    idx, _ = optimal_state_indices(problem)
    return float(np.real(np.trace(rho[np.ix_(idx, idx)])))


class TestBatchedTrajectories:
    @pytest.mark.parametrize("n,path", [(2, "auto"), (3, "auto"), (3, "digital")])
    def test_depolarizing_mean_matches_channel(self, n, path):
        problem = random_spin_glass(n, 5, "fully_nonuniform")
        circuit = synthesize(problem, Schedule(1.0, 3), n, path)
        p = 0.05
        res = run(circuit, problem, NoiseModel(0.0, p, seed=11), trajectories=2000)
        exact = _depolarized_success(circuit, problem, p)
        clean = run(circuit, problem).success_probability
        assert res.trajectories == 2000 and res.stderr > 0
        # the noise moves the success by far more than the tolerance
        assert abs(clean - exact) > 10 * res.stderr
        assert abs(res.success_probability - exact) < 5 * res.stderr

    def test_several_chunks_deterministic_per_seed(self, monkeypatch):
        # a 4-qubit block unitary has 256 entries: 4 trajectories per chunk
        monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 1024)
        p = _homogeneous_k4()
        circuit = synthesize_homogeneous(p, Schedule(1.0, 2), 4)
        noise = NoiseModel(0.05, 1e-2, seed=4)
        a = run(circuit, p, noise, trajectories=10)
        b = run(circuit, p, noise, trajectories=10)
        assert a == b
        assert a.trajectories == 10
        assert a != run(circuit, p, NoiseModel(0.05, 1e-2, seed=5), trajectories=10)


class TestSweep:
    def test_sorted_and_deterministic(self):
        p = _homogeneous_k4()
        sch = Schedule(1.0, 4)
        rows = success_vs_fidelity_sweep(
            p, sch, 4, [0.0, 0.08, 0.03], trajectories=8, seed=2
        )
        fids = [r[0] for r in rows]
        assert fids == sorted(fids)
        again = success_vs_fidelity_sweep(
            p, sch, 4, [0.0, 0.08, 0.03], trajectories=8, seed=2
        )
        assert rows == again

    def test_noiseless_entry_has_unit_fidelity(self):
        p = _homogeneous_k4()
        rows = success_vs_fidelity_sweep(
            p, Schedule(1.0, 4), 4, [0.0, 0.1], trajectories=4
        )
        assert rows[-1][0] == 1.0 and rows[-1][3] == 0.0

    def test_builds_each_gate_unitary_once(self, monkeypatch):
        calls, runs = [], []

        def counted(gate):
            calls.append(gate)
            return gate_unitary(gate)

        def counted_run(*args, **kwargs):
            runs.append(kwargs["noise"] if "noise" in kwargs else args[2])
            return run(*args, **kwargs)

        simulator._ideal_unitaries.cache_clear()
        monkeypatch.setattr(simulator, "gate_unitary", counted)
        monkeypatch.setattr(simulator, "run", counted_run)
        p = _homogeneous_k4()
        sch = Schedule(1.0, 2)
        success_vs_fidelity_sweep(p, sch, 4, [0.0, 0.05, 0.1], trajectories=4)
        # once for the whole grid, and once per distinct unitary
        gates = list(synthesize(p, sch, 4).gates())
        first = {}
        for g in gates:
            first.setdefault((g.kind, len(g.qubits), g.theta, g.phi, g.axis), g)
        assert calls == list(first.values()) and len(calls) < len(gates)
        # every amplitude still goes through the public run
        assert [r.analog_noise_amplitude for r in runs] == [0.0, 0.05, 0.1]

    def test_cached_unitaries_are_read_only(self):
        circuit = synthesize(_homogeneous_k4(), Schedule(1.0, 2), 4)
        gates, ideal, plan = simulator._ideal_unitaries(circuit)
        assert gates == tuple(circuit.gates())
        assert plan == simulator._fusion_plan([g.qubits for g in gates], 4)
        for g, u in zip(gates, ideal):
            np.testing.assert_array_equal(u, gate_unitary(g))
            assert not u.flags.writeable

    def test_builds_each_distinct_unitary_once(self, monkeypatch):
        # equal gates on other qubits share one array; a zero angle's sign,
        # the kind, the size and the axis each make a gate distinct
        from dacqo import gates as gates_module

        built = []

        def counting(build):
            def counted(*args):
                built.append(args)
                return build(*args)
            return counted

        for name in ("gms_unitary", "rotation_unitary"):
            monkeypatch.setattr(gates_module, name, counting(getattr(gates_module, name)))
        layers = [
            [Gate("1q", (0,), theta=0.0, axis="x"), Gate("1q", (1,), theta=-0.0, axis="x"),
             Gate("1q", (2,), theta=0.0, axis="x"), Gate("1q", (3,), theta=0.0, axis="z")],
            [Gate("gms", (0, 1), 0.3, phi=-0.0), Gate("gms", (2, 3), 0.3, phi=0.0)],
            [Gate("gms", (1, 2), 0.3, phi=0.0), Gate("gms_dag", (0, 3), 0.3, phi=0.0)],
            [Gate("gms", (0, 1, 2), 0.3, phi=0.0), Gate("1q", (3,), theta=-0.0, axis="x")],
            [Gate("gms", (0, 1), -0.0, phi=-0.0), Gate("gms", (2, 3), 0.0, phi=-0.0)],
        ]
        problem = mis_to_ising(random_graph(8, 2))
        for circuit, distinct in ((Circuit(4, layers), 9),
                                  (synthesize(problem, Schedule(1.0, 3), 4), None)):
            built.clear()
            simulator._ideal_unitaries.cache_clear()
            gates, ideal, _ = simulator._ideal_unitaries(circuit)
            keys = {(g.kind, len(g.qubits), g.theta, g.phi, g.axis,
                     math.copysign(1, g.theta), math.copysign(1, g.phi)) for g in gates}
            assert len(built) == len({id(u) for u in ideal}) == len(keys) < len(gates)
            for g, u in zip(gates, ideal):
                want = gate_unitary(g)
                assert u.tobytes() == want.tobytes() and u.strides == want.strides
            assert distinct is None or len(keys) == distinct

    def test_width_cap_checked_before_synthesis(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called past the width cap")

        monkeypatch.setattr(simulator, "synthesize", must_not_run)
        monkeypatch.setattr(simulator, "brute_force_ground_state", must_not_run)
        p = random_spin_glass(15, 0, "homogeneous")
        with pytest.raises(CapabilityError):
            success_vs_fidelity_sweep(p, Schedule(1.0, 1), 4, [0.0])

    def test_width_cap_is_fourteen(self):
        simulator.check_simulation_width(14)
        with pytest.raises(CapabilityError):
            simulator.check_simulation_width(15)


def _per_gate_run(circuit, problem, noise, trajectories):
    """``run`` without fusion: the kernel per gate, then Pauli rewrites of
    the hit columns, from the same draws in the same order."""
    n = circuit.width
    gates = list(circuit.gates())
    ideal = [gate_unitary(g) for g in gates]
    c, p = noise.analog_noise_amplitude, noise.depolarizing_rate
    analog = [c > 0 and g.kind != "1q" for g in gates]
    entries = max((u.size for u, a in zip(ideal, analog) if a or p > 0), default=1)
    width = max(1, simulator._CHUNK_ENTRIES // max(2**n, entries))
    starts = range(0, trajectories, width)
    seeds = np.random.SeedSequence(noise.seed).spawn(len(starts))
    idx, _ = optimal_state_indices(problem)
    successes, fid_sum, fid_count = [], 0.0, 0
    for start, seed in zip(starts, seeds):
        rng = np.random.default_rng(seed)
        b = min(width, trajectories - start)
        state = np.zeros((2**n, b), dtype=complex)
        state[-1] = 1.0
        for g, u, perturbed in zip(gates, ideal, analog):
            v = u
            if perturbed:
                v = perturb_analog_block(u, c, rng, b)
                fid_sum += float(gate_fidelity(u, v).sum())
                fid_count += b
            state = _kernels.apply_unitary(state, v, g.qubits, n)
            if p > 0:
                for q, r in zip(g.qubits, rng.random((len(g.qubits), b))):
                    hit = np.flatnonzero(r < p)
                    if hit.size:
                        ops = np.stack([PAULI[a] for a in "XYZ"])[
                            (r[hit] / p * 3).astype(int) % 3]
                        state[:, hit] = _kernels.apply_unitary(
                            state[:, hit], ops, (q,), n)
        for q in range(n):
            state = _kernels.apply_unitary(state, HADAMARD, (q,), n)
        successes.extend(np.sum(np.abs(state[idx]) ** 2, axis=0))
    successes = np.array(successes)
    stderr = successes.std(ddof=1) / math.sqrt(trajectories) if trajectories > 1 else 0.0
    return successes.mean(), stderr, fid_sum / fid_count if fid_count else 1.0


def _counting_kernel(monkeypatch):
    """Record the qubit count ``n`` of every state-kernel call."""
    calls = []
    apply_unitary = _kernels.apply_unitary

    def counted(state, u, qubits, n, **kwargs):
        calls.append(n)
        return apply_unitary(state, u, qubits, n, **kwargs)

    monkeypatch.setattr(_kernels, "apply_unitary", counted)
    return calls


class TestFusedGroups:
    """``run`` applies each chunk's gates in fused groups."""

    @pytest.mark.parametrize("n,mode,k,path,chunk_entries", [
        (9, "fully_nonuniform", 4, "inhomogeneous", 2048),
        (6, "mixed", 2, "digital", 256),
    ])
    @pytest.mark.parametrize("c,p", [(0.05, 0.05), (0.0, 0.05), (0.05, 0.0)])
    def test_matches_per_gate_loop(self, monkeypatch, n, mode, k, path,
                                   chunk_entries, c, p):
        # 10 trajectories in chunks of 4, 4 and 2
        monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", chunk_entries)
        problem = random_spin_glass(n, 2, mode)
        circuit = synthesize(problem, Schedule(1.0, 3), k, path)
        noise = NoiseModel(c, p, seed=6)
        res = run(circuit, problem, noise, trajectories=10)
        mean, stderr, fidelity = _per_gate_run(circuit, problem, noise, 10)
        widest = max(len(g.qubits) for g in circuit.gates())
        assert 4**widest < 2**n  # fusion is on
        assert res.trajectories == 10
        assert res.gms_fidelity == fidelity
        assert res.success_probability == pytest.approx(mean, rel=1e-12, abs=0)
        assert res.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
        # noise this strong hits gates in every chunk
        assert p == 0 or not math.isclose(res.success_probability,
                                          run(circuit, problem).success_probability)

    @pytest.mark.parametrize("n,chunk_entries", [(10, 2**13), (12, 2**14)])
    def test_carried_order_matches_per_gate_loop(self, monkeypatch, n, chunk_entries):
        # a full chunk of at least _CARRY_ENTRIES amplitudes keeps its axis
        # order, so copies are laid out for the next group and calls run
        # in place behind them; 10 trajectories in chunks of 8 and 2 (N=10)
        # or 4, 4 and 2 (N=12)
        monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", chunk_entries)
        problem = mis_to_ising(random_graph(n, 3))
        circuit = synthesize(problem, Schedule(1.0, 2), 4)
        assert chunk_entries >= _kernels._CARRY_ENTRIES
        noise = NoiseModel(0.05, 0.02, seed=5)
        res = run(circuit, problem, noise, trajectories=10)
        mean, stderr, fidelity = _per_gate_run(circuit, problem, noise, 10)
        assert res.gms_fidelity == fidelity
        assert res.success_probability == pytest.approx(mean, rel=1e-12, abs=0)
        assert res.stderr == pytest.approx(stderr, rel=1e-12, abs=0)

    def test_noiseless_matches_per_gate_loop(self):
        problem = mis_to_ising(random_graph(10, 1))
        circuit = synthesize(problem, Schedule(1.0, 3), 4)
        res = run(circuit, problem)
        mean, _, _ = _per_gate_run(circuit, problem, NoiseModel(), 1)
        assert res.success_probability == pytest.approx(mean, rel=1e-12, abs=0)
        assert res.stderr == 0.0 and res.gms_fidelity == 1.0

    def test_one_group_per_gate_at_four_qubits(self, monkeypatch):
        # 4^4 entries of a 4-qubit block exceed the 2^4 amplitudes: one
        # call per gate, per Hadamard and per (gate, qubit) a Pauli hits
        calls = _counting_kernel(monkeypatch)
        problem = _homogeneous_k4()
        circuit = synthesize_homogeneous(problem, Schedule(1.0, 3), 4)
        gates = list(circuit.gates())
        for p in (0.0, 0.05):
            calls.clear()
            res = run(circuit, problem, NoiseModel(0.05, p, seed=1), trajectories=8)
            # the same draws, gate by gate, from the one chunk's generator
            rng = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
            hits = 0
            for g in gates:
                if g.kind != "1q":
                    rng.standard_normal((2, 8) + (2 ** len(g.qubits),) * 2)
                if p > 0:
                    hits += int((rng.random((len(g.qubits), 8)) < p).any(axis=1).sum())
            assert hits > 0 or p == 0
            assert len(calls) == len(gates) + 4 + hits
            assert calls == [4] * len(calls)
            assert res.kernel_applications == len(calls)

    @pytest.mark.parametrize("n,mode,k,path", [
        (4, "homogeneous", 4, "auto"),
        (4, "mixed", 4, "auto"),
        (4, "mixed", 4, "digital"),
        (5, "mixed", 4, "auto"),
    ])
    @pytest.mark.parametrize("c,p", [(0.0, 0.01), (0.05, 0.05), (0.0, 0.2)])
    def test_without_fusion_equals_per_gate_loop(self, n, mode, k, path, c, p):
        # one chunk of 24 trajectories stays below _CARRY_ENTRIES, so the
        # state is back in canonical order after every call, as the
        # loop's is; a Pauli stack is exact on every column, so every
        # bit agrees
        problem = random_spin_glass(n, 2, mode)
        circuit = synthesize(problem, Schedule(1.0, 3), k, path)
        widest = max(len(g.qubits) for g in circuit.gates())
        assert 4**widest >= 2**n  # fusion is off
        assert 2**n * 24 < _kernels._CARRY_ENTRIES
        noise = NoiseModel(c, p, seed=6)
        res = run(circuit, problem, noise, trajectories=24)
        mean, stderr, fidelity = _per_gate_run(circuit, problem, noise, 24)
        assert res.success_probability == mean
        assert res.stderr == stderr
        assert res.gms_fidelity == fidelity

    def test_fuses_at_the_width_cap(self, monkeypatch):
        calls = _counting_kernel(monkeypatch)
        problem = mis_to_ising(random_graph(14, 0))
        circuit = synthesize(problem, Schedule(1.0, 2), 4)
        res = run(circuit, problem, NoiseModel(0.05, 0.01, seed=2),
                  trajectories=2)
        gates = len(list(circuit.gates()))
        state_calls = calls.count(14)
        assert res.kernel_applications == state_calls
        assert 0 < 4 * state_calls <= gates
        # composing a group works on its own matrix, never the state
        assert max(n for n in calls if n != 14) <= 4


@st.composite
def _gate_qubits(draw):
    """A width n <= 8 and the qubits of up to 40 gates of 1-4 qubits."""
    n = draw(st.integers(1, 8))
    # the widest gate's bound, drawn first so that fusion is on in many draws
    widest = draw(st.integers(1, min(4, n)))
    count = draw(st.integers(0, 40))
    gate = st.lists(st.integers(0, n - 1), min_size=1, max_size=widest,
                    unique=True).map(tuple)
    return n, draw(st.lists(gate, min_size=count, max_size=count))


class TestFusionPlan:
    """``_fusion_plan`` groups a circuit's gates and closing Hadamards."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_gate_qubits())
    def test_groups_keep_each_qubits_order(self, drawn):
        n, qubits = drawn
        plan = simulator._fusion_plan(qubits, n)
        on = qubits + [(q,) for q in range(n)]
        widest = max(map(len, qubits), default=1)
        if 4**widest >= 2**n:
            # fusion off: each member alone, in circuit order
            assert plan == tuple(((i,), None) for i in range(len(on)))
            return
        order = [i for members, _ in plan for i in members]
        assert sorted(order) == list(range(len(on)))
        for members, fused in plan:
            union = sorted(set().union(*(on[i] for i in members)))
            assert fused == tuple(union)
            assert len(members) == 1 or len(union) <= widest
            # run pulls the stream up to a group's last member
            assert members[-1] == max(members)
        for q in range(n):
            touching = [i for i in order if q in on[i]]
            assert touching == sorted(touching)

    def test_built_once_per_circuit(self, monkeypatch):
        plans = []
        fusion_plan = simulator._fusion_plan

        def counted(qubits, n):
            plans.append(n)
            return fusion_plan(qubits, n)

        monkeypatch.setattr(simulator, "_fusion_plan", counted)
        simulator._ideal_unitaries.cache_clear()
        success_vs_fidelity_sweep(_homogeneous_k4(), Schedule(1.0, 2), 4,
                                  [0.0, 0.05, 0.1], trajectories=4)
        assert plans == [4]
        # 10 trajectories of a fused 9-qubit circuit in chunks of 4, 4 and 2
        monkeypatch.setattr(simulator, "_CHUNK_ENTRIES", 2048)
        problem = random_spin_glass(9, 2, "fully_nonuniform")
        circuit = synthesize(problem, Schedule(1.0, 2), 4)
        res = run(circuit, problem, NoiseModel(0.05, 0.05, seed=1), trajectories=10)
        assert res.trajectories == 10
        assert plans == [4, 9]
