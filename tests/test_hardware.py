import itertools

import numpy as np
import pytest

from dacqo.counterdiabatic import Schedule
from dacqo.hardware import (
    HardwareSpec,
    analytic_runtime,
    circuit_runtime,
    enhancement_factor,
)
from dacqo.problem import IsingProblem, random_spin_glass
from dacqo.synthesis import DepthReport, synthesize_homogeneous


class TestHardwareSpec:
    def test_defaults(self):
        spec = HardwareSpec()
        assert spec.t_M == pytest.approx(930e-6)
        assert spec.t_S == pytest.approx(130e-6)
        assert spec.coherence_time == 1.0

    def test_json_round_trip(self):
        spec = HardwareSpec(t_M=500e-6, t_S=50e-6, coherence_time=2.0)
        again = HardwareSpec.from_json(spec.to_json())
        assert again.t_M == pytest.approx(spec.t_M)
        assert again.t_S == pytest.approx(spec.t_S)
        assert again.coherence_time == spec.coherence_time

    @pytest.mark.parametrize("text", [
        "{}", '{"t_M_us": 930, "t_S_us": 130}', HardwareSpec().to_json(),
    ], ids=["empty", "whole-microseconds", "default-to-json"])
    def test_default_durations_read_back_exactly(self, text):
        # microseconds are read as value / 1e6, the correctly rounded
        # quotient, so the defaults and whole microseconds come back equal
        assert HardwareSpec.from_json(text) == HardwareSpec()

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareSpec(t_M=0.0)

    @pytest.mark.parametrize("field", ["t_M", "t_S", "coherence_time"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_durations(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            HardwareSpec(**{field: bad})


class TestCircuitRuntime:
    def test_single_multiqubit_layer(self):
        rep = DepthReport(1, 0, 1)
        assert circuit_runtime(rep).runtime_seconds == pytest.approx(930e-6)

    def test_single_rotation_layer(self):
        rep = DepthReport(0, 1, 1)
        assert circuit_runtime(rep).runtime_seconds == pytest.approx(130e-6)

    def test_empty_circuit(self):
        assert circuit_runtime(DepthReport(0, 0, 0)).runtime_seconds == 0.0

    def test_additive_in_layers(self):
        a = circuit_runtime(DepthReport(3, 2, 5)).runtime_seconds
        b = circuit_runtime(DepthReport(1, 4, 5)).runtime_seconds
        c = circuit_runtime(DepthReport(4, 6, 10)).runtime_seconds
        assert c == pytest.approx(a + b)

    def test_accepts_circuit(self):
        p = random_spin_glass(4, 0, "homogeneous")
        circ = synthesize_homogeneous(p, Schedule(1.0, 1), 4)
        rep = circ.depth_report()
        direct = circuit_runtime(circ).runtime_seconds
        assert direct == pytest.approx(
            930e-6 * rep.multiqubit_layers + 130e-6 * rep.single_qubit_layers
        )

    def test_coherence_flag(self):
        tight = HardwareSpec(coherence_time=1e-4)
        assert not circuit_runtime(DepthReport(1, 0, 1), tight).within_coherence
        assert circuit_runtime(DepthReport(1, 0, 1)).within_coherence

    def test_type_check(self):
        with pytest.raises(TypeError):
            circuit_runtime("not a circuit")


class TestAnalyticRuntime:
    def test_digital_layer_count(self):
        # 3 (N-1) entangling rounds + 3 rotation layers per step
        t = analytic_runtime(10, 1, path="digital")
        assert t == pytest.approx(930e-6 * 27 + 130e-6 * 3)

    def test_analog_beats_digital_at_scale(self):
        for n in (8, 16, 48, 100):
            dig = analytic_runtime(n, 1, path="digital")
            assert analytic_runtime(n, 1, path="daqc_homog") < dig
        # the sign-flip overhead pays off only at larger sizes
        for n in (32, 48, 100):
            dig = analytic_runtime(n, 1, path="digital")
            assert analytic_runtime(n, 1, path="daqc_inhomog") < dig

    def test_scales_linearly_in_steps(self):
        one = analytic_runtime(20, 1, path="daqc_homog")
        five = analytic_runtime(20, 5, path="daqc_homog")
        assert five == pytest.approx(5 * one)

    def test_unknown_path(self):
        with pytest.raises(ValueError):
            analytic_runtime(10, 1, path="acoustic")

    @pytest.mark.parametrize("path", ["digital", "daqc_homog", "daqc_inhomog"])
    @pytest.mark.parametrize("steps", [0, -5])
    def test_rejects_fewer_than_one_step(self, path, steps):
        with pytest.raises(ValueError, match="trotter_steps"):
            analytic_runtime(8, steps, path=path)

    @pytest.mark.parametrize("steps", [2.5, 2.0, True, "3"])
    def test_rejects_a_step_count_that_is_not_an_integer(self, steps):
        with pytest.raises(ValueError, match="trotter_steps must be an integer"):
            analytic_runtime(8, steps)

    @pytest.mark.parametrize("path", ["digital", "daqc_homog", "daqc_inhomog"])
    @pytest.mark.parametrize("n", [0, 1, -4, 2.5, 8.0, True, "8"])
    def test_rejects_a_size_that_is_not_an_integer_of_at_least_two(self, path, n):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            analytic_runtime(n, 1, path=path)

    @pytest.mark.parametrize("path", ["daqc_homog", "daqc_inhomog"])
    @pytest.mark.parametrize("k", [2.5, 4.0, 1, 0, True, "4"])
    def test_rejects_a_block_size_that_is_not_an_integer_of_at_least_two(
        self, path, k
    ):
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            analytic_runtime(8, 1, path=path, k=k)

    @pytest.mark.parametrize("path", ["daqc_homog", "daqc_inhomog"])
    def test_accepts_a_numpy_integer_block_size(self, path):
        assert analytic_runtime(8, 1, path=path, k=np.int64(4)) == \
            analytic_runtime(8, 1, path=path, k=4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sign_flip_blocks_need_as_many_qubits(self, n):
        with pytest.raises(ValueError, match="need N >= k"):
            analytic_runtime(n, 1, path="daqc_inhomog", k=4)
        assert analytic_runtime(n, 1, path="daqc_inhomog", k=n) > 0


class TestEnhancementFactor:
    def test_small_homogeneous_instance(self):
        p = IsingProblem(
            8,
            {pr: 1.0 for pr in itertools.combinations(range(8), 2)},
            [1.0] * 8,
        )
        ratios = enhancement_factor(p, Schedule(1.0, 1), block_sizes=(2, 4))
        assert set(ratios) == {2, 4}
        assert all(r > 0 for r in ratios.values())

    def test_block_size_bounds(self):
        p = random_spin_glass(4, 0, "homogeneous")
        with pytest.raises(ValueError):
            enhancement_factor(p, Schedule(1.0, 1), block_sizes=(1,))

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_rejects_a_block_size_that_is_not_an_integer(self, k):
        p = random_spin_glass(6, 0, "homogeneous")
        with pytest.raises(ValueError, match="block_size must be an integer"):
            enhancement_factor(p, Schedule(1.0, 1), block_sizes=(2, k))
