"""Digital-analog counterdiabatic quantum optimization toolkit."""

from .counterdiabatic import (
    Schedule,
    alpha1_analytic,
    alpha1_oracle,
    exact_evolution,
    rotated_full_hamiltonian,
)
from .extrapolation import ExtrapolationFit, fit_extrapolation
from .gates import Gate, gms_unitary, solve_gms_angles, trotter_angles
from .hardware import (
    HardwareSpec,
    RuntimeReport,
    circuit_runtime,
    enhancement_factor,
)
from .problem import (
    Graph,
    GroundTruth,
    IsingProblem,
    brute_force_ground_state,
    mis_to_ising,
    random_spin_glass,
)
from .simulator import (
    NoiseModel,
    RunResult,
    gate_fidelity,
    perturb_analog_block,
    run,
    success_vs_fidelity_sweep,
)
from .synthesis import (
    Circuit,
    DepthReport,
    analytic_depth,
    synthesis_plan,
    synthesize,
    synthesize_digital_baseline,
    synthesize_homogeneous,
    synthesize_inhomogeneous,
)

__version__ = "0.1.0"
