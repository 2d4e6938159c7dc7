"""Trapped-ion runtime cost models and digital-vs-analog enhancement factors.

Runtime = t_M * (multiqubit gate layers) + t_S * (single-qubit layers),
with trapped-ion defaults t_M = 930 us and t_S = 130 us; k-qubit GMS blocks
are costed at the 2-qubit gate time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .counterdiabatic import _check_count
from .problem import IsingProblem, _json_object, _number
from .synthesis import (
    _FLIP_BLOCK_CAP,
    Circuit,
    DepthReport,
    analytic_depth,
    synthesize,
    synthesize_digital_baseline,
)

__all__ = [
    "HardwareSpec",
    "RuntimeReport",
    "circuit_runtime",
    "enhancement_factor",
    "analytic_runtime",
]


@dataclass(frozen=True)
class HardwareSpec:
    t_M: float = 930e-6  # multiqubit gate duration, seconds
    t_S: float = 130e-6  # single-qubit gate duration, seconds
    coherence_time: float = 1.0

    def __post_init__(self):
        durations = (self.t_M, self.t_S, self.coherence_time)
        if not all(math.isfinite(d) and d > 0 for d in durations):
            raise ValueError("durations must be positive and finite")

    @staticmethod
    def from_json(text: str) -> "HardwareSpec":
        doc = _json_object(text, "hardware", ("t_M_us", "t_S_us", "coherence_s"))
        return HardwareSpec(
            t_M=_number(doc.get("t_M_us", 930.0), "t_M_us") / 1e6,
            t_S=_number(doc.get("t_S_us", 130.0), "t_S_us") / 1e6,
            coherence_time=_number(doc.get("coherence_s", 1.0), "coherence_s"),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "t_M_us": self.t_M * 1e6,
                "t_S_us": self.t_S * 1e6,
                "coherence_s": self.coherence_time,
            }
        )


@dataclass(frozen=True)
class RuntimeReport:
    runtime_seconds: float
    within_coherence: bool


def circuit_runtime(
    report, spec: HardwareSpec = HardwareSpec()
) -> RuntimeReport:
    """Wall-clock runtime of a circuit or depth report on a device profile."""
    if isinstance(report, Circuit):
        report = report.depth_report()
    if not isinstance(report, DepthReport):
        raise TypeError("expected Circuit or DepthReport")
    runtime = (
        spec.t_M * report.multiqubit_layers + spec.t_S * report.single_qubit_layers
    )
    return RuntimeReport(
        runtime_seconds=runtime,
        within_coherence=runtime <= spec.coherence_time,
    )


def analytic_runtime(
    n: int, trotter_steps: int, spec: HardwareSpec = HardwareSpec(),
    path: str = "daqc_homog", k: int = 4,
) -> float:
    """Closed-form runtime for large-N all-to-all instances.

    daqc_homog   : per step, analytic_depth multiqubit layers minus the 3
                   single-qubit ones, plus 3 single-qubit layers
    daqc_inhomog : each block family layer is replaced by k(k-1)/2
                   sub-blocks with their flip sandwiches
    digital      : 3 (N-1) two-qubit rounds per step (XX, YX, XY channels)
                   plus the X, Z, Y layers; basis-change rotations around
                   the YX/XY rounds are treated as absorbed into the gate
                   (the cost model counts entangling rounds and the global
                   rotation layers only)

    ``n`` must be an integer >= 2 on every path.  Both daqc paths need
    ``k`` to be an integer >= 2, and daqc_inhomog needs N >= k; digital
    ignores ``k``.
    """
    _check_count("n", n, least=2)
    _check_count("trotter_steps", trotter_steps)
    if path in ("daqc_homog", "daqc_inhomog"):
        _check_count("k", k, least=2)
    if path == "digital":
        multi = 3 * (n - 1)
        single = 3
    elif path == "daqc_homog":
        multi = analytic_depth(n, k, "homogeneous") - 3.0
        single = 3
    elif path == "daqc_inhomog":
        if n < k:
            raise ValueError(f"need N >= k, got N={n}, k={k}")
        subs = k * (k - 1) // 2
        # the 4 block-family layers become 4*subs, each sandwiched in flips
        multi = 4 * subs + 2 + 2.0 * (n - k) * (n - k + 1) / n
        single = 3 + 8 * subs
    else:
        raise ValueError(f"unknown path {path!r}")
    return trotter_steps * (spec.t_M * multi + spec.t_S * single)


def enhancement_factor(
    problem: IsingProblem,
    schedule,
    spec: HardwareSpec = HardwareSpec(),
    block_sizes=(2, 3, 4),
) -> dict:
    """Runtime ratio R_digital / R_DAQC per analog block size.

    Both paths are synthesized for the same problem and schedule; the
    digital-analog path is the one ``synthesis_plan`` picks automatically
    (homogeneous blocks when the instance allows it, sign-flip sub-blocks
    otherwise, with k clamped to the qubit count).  Keys are the requested
    block sizes.
    """
    for k in block_sizes:
        _check_count("block_size", k)
    if any(k < 2 or k > _FLIP_BLOCK_CAP for k in block_sizes):
        raise ValueError(f"block sizes must lie in 2..{_FLIP_BLOCK_CAP}")
    digital = circuit_runtime(
        synthesize_digital_baseline(problem, schedule), spec
    ).runtime_seconds
    out = {}
    for k in block_sizes:
        circ = synthesize(problem, schedule, k)
        daqc = circuit_runtime(circ, spec).runtime_seconds
        out[k] = digital / daqc if daqc > 0 else float("inf")
    return out
