"""Gate records, GMS unitaries, and coefficient-to-angle mapping.

A k-qubit global Molmer-Sorensen (GMS) gate is

    U_MS^k(theta, phi) = exp[-i theta/4 (cos(phi) S_x + sin(phi) S_y)^2],
    S_a = sum_{i=1}^k sigma_i^a.

Expanding the square, every qubit pair picks up the two-body generator

    theta/2 [cos^2(phi) XX + cos(phi)sin(phi) (XY + YX) + sin^2(phi) YY],

so a single GMS realizes the XX and symmetrized XY couplings of the
rotated-frame Hamiltonian simultaneously, at the price of a parasitic YY
piece.  Appending the conjugate gate U_MS^dag(theta sin^2(phi), pi/2)
removes the YY component (exactly to third order in the angles, which is
far below tolerance at trotter-step scale).

Single-qubit rotation convention: ``theta`` is the coefficient in
exp(-i theta sigma_axis) — no half-angle — matching the trotter factors
exp(-i theta^x sum X_i) directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .counterdiabatic import Schedule, _coefficients, hadamard_frame
from .paulis import PAULI, pauli_on
from .problem import CapabilityError, IsingProblem

__all__ = [
    "Gate",
    "StepAngles",
    "gms_unitary",
    "rotation_unitary",
    "gate_unitary",
    "trotter_angles",
    "solve_gms_angles",
    "generator_pauli_coefficients",
]

_GMS_CAP = 10
_EPS = 1e-14


@dataclass(frozen=True)
class Gate:
    """One circuit element: a GMS block, its conjugate, or a 1q rotation.

    For kind "gms_dag" the stored ``theta`` is the canceller angle
    theta_m = theta * sin^2(phi) of its partner gate.
    """

    kind: str  # "gms" | "gms_dag" | "1q"
    qubits: tuple
    theta: float
    phi: float = 0.0
    axis: Optional[str] = None  # "x" | "y" | "z" for kind == "1q"

    def __post_init__(self):
        if self.kind not in ("gms", "gms_dag", "1q"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if self.kind == "1q":
            if len(self.qubits) != 1 or self.axis not in ("x", "y", "z"):
                raise ValueError("1q gate needs one qubit and an axis")
        elif len(self.qubits) < 2:
            raise ValueError("GMS gates act on >= 2 qubits")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "qubits": list(self.qubits), "theta": self.theta}
        if self.kind == "1q":
            d["axis"] = self.axis
        else:
            d["phi"] = self.phi
        return d

    @staticmethod
    def from_dict(d: dict) -> "Gate":
        return Gate(
            kind=d["kind"],
            qubits=tuple(d["qubits"]),
            theta=float(d["theta"]),
            phi=float(d.get("phi", 0.0)),
            axis=d.get("axis"),
        )


class StepAngles(NamedTuple):
    """Rotation angles of one trotter step, channel by channel.

    ``xx``/``xy`` are symmetric N x N matrices of per-pair angles (zero
    where a pair has no coupling), ``x``/``y`` per-qubit vectors, and
    ``z`` the angle shared by every qubit.
    """

    xx: np.ndarray
    xy: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: float


@functools.lru_cache(maxsize=None)
def _zsum_basis(k: int):
    """Z-sum eigenvalue s_b = k - 2 popcount(b) of each basis state, and H^(x)k.

    Both arrays are read-only: every caller with the same k shares them.
    """
    s = k - 2 * np.bitwise_count(np.arange(2**k)).astype(np.int64)
    h = hadamard_frame(k)
    s.flags.writeable = False
    h.flags.writeable = False
    return s, h


def gms_unitary(k: int, theta: float, phi: float) -> np.ndarray:
    """Dense k-qubit GMS unitary exp[-i theta/4 (cos phi S_x + sin phi S_y)^2].

    Closed form: cos phi S_x + sin phi S_y = D S_x D^dag with
    D = exp(-i phi S_z / 2), and S_x = H S_z H with H the k-fold Hadamard,
    so the unitary is D H diag(exp(-i theta s^2 / 4)) H D^dag, s the
    diagonal of S_z.
    """
    if not 2 <= k <= _GMS_CAP:
        raise CapabilityError(f"gms_unitary supports 2..{_GMS_CAP} qubits")
    s, h = _zsum_basis(k)
    m = (h * np.exp(-0.25j * theta * s**2)) @ h
    d = np.exp(-0.5j * phi * s)
    return d[:, None] * m * d.conj()


def rotation_unitary(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis) — note: full angle, not half-angle."""
    sig = PAULI[axis.upper()]
    return math.cos(theta) * PAULI["I"] - 1j * math.sin(theta) * sig


def gate_unitary(gate: Gate) -> np.ndarray:
    """Dense unitary of a gate on its own qubits (in gate.qubits order)."""
    if gate.kind == "1q":
        return rotation_unitary(gate.axis, gate.theta)
    u = gms_unitary(len(gate.qubits), gate.theta, gate.phi)
    # "gms_dag" stores the canceller angle directly; just conjugate.
    if gate.kind == "gms_dag":
        u = u.conj().T
    return u


def trotter_angles(problem: IsingProblem, schedule: Schedule):
    """Yield the trotter angles of every channel, one ``StepAngles`` per step.

    lambda, lambda_dot and alpha_1 come from ``counterdiabatic`` at each
    step midpoint; the step duration is T/n.  The Y-channel coefficient
    carries the rotated-frame sign (-lambda_dot * alpha_1, positive since
    alpha_1 < 0); it is zero for a problem with no couplings and no
    fields, whose alpha_1 is undefined.  A generator, so a sweep holds
    one step's angles at a time.
    """
    J = problem.coupling_matrix()
    h = problem.fields
    dt = schedule.total_time / schedule.trotter_steps
    coefficients = _coefficients(problem, schedule, schedule.midpoints())
    for step, (lam, ldot, a1) in enumerate(coefficients, start=1):
        cd = -ldot * a1
        angles = StepAngles(
            xx=lam * J * dt,
            xy=2.0 * cd * J * dt,
            x=lam * h * dt,
            y=2.0 * cd * h * dt,
            z=(1.0 - lam) * dt,
        )
        for name, value in zip(angles._fields, angles):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"step {step}: {name} angles are not finite")
        yield angles


def solve_gms_angles(theta_xx: float, theta_xy: float, qubits=(0, 1)) -> list:
    """GMS prescription realizing per-pair theta_xx XX + theta_xy (XY + YX).

    Returns a list of gates: the main GMS plus conjugate cancellers that
    strip the parasitic components.  Generic case: tan(phi) =
    theta_xy/theta_xx, theta = 2 theta_xx / cos^2(phi), YY canceller at
    theta_m = theta sin^2(phi).  If only the cross channel is wanted,
    GMS(2 theta_xy, pi/4) is followed by its mirror GMS^dag(2 theta_xy,
    3 pi/4): their XX and YY pieces cancel and their cross pieces add.
    The two generators commute on a pair, so k=2 is exact.
    """
    qubits = tuple(qubits)
    if abs(theta_xx) < _EPS and abs(theta_xy) < _EPS:
        return []
    if abs(theta_xy) < _EPS:
        return [Gate("gms", qubits, theta=2.0 * theta_xx, phi=0.0)]
    if abs(theta_xx) < _EPS:
        return [
            Gate("gms", qubits, theta=2.0 * theta_xy, phi=math.pi / 4),
            Gate("gms_dag", qubits, theta=2.0 * theta_xy, phi=3 * math.pi / 4),
        ]
    phi = math.atan(theta_xy / theta_xx)
    theta = 2.0 * theta_xx / math.cos(phi) ** 2
    theta_m = theta * math.sin(phi) ** 2
    gates = [Gate("gms", qubits, theta=theta, phi=phi)]
    if abs(theta_m) >= _EPS:
        gates.append(Gate("gms_dag", qubits, theta=theta_m, phi=math.pi / 2))
    return gates


def generator_pauli_coefficients(U: np.ndarray, n: int) -> dict:
    """Pauli coefficients of the Hermitian generator G with U = exp(-iG).

    Uses the principal matrix logarithm via eigendecomposition; valid
    while the eigenphases stay inside (-pi, pi).  Returns letters-string
    -> real coefficient, e.g. {"XY": 0.25}.
    """
    vals, vecs = np.linalg.eig(U)
    G = (vecs * (1j * np.log(vals))) @ np.linalg.inv(vecs)
    G = 0.5 * (G + G.conj().T)
    coeffs = {}
    for letters in itertools.product("IXYZ", repeat=n):
        P = pauli_on(n, dict(enumerate(letters)))
        w = np.trace(P @ G).real / 2**n
        if abs(w) > 1e-15:
            coeffs["".join(letters)] = float(w)
    return coeffs
