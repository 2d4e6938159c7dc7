"""Small dense Pauli-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(ops) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for o in ops:
        out = np.kron(out, o)
    return out


def pauli_on(n: int, placed: dict) -> np.ndarray:
    """Dense operator with single-qubit Paulis on selected wires.

    ``placed`` maps qubit index -> 2x2 matrix or one of "X","Y","Z".
    Qubit 0 is the most significant tensor factor.
    """
    ops = []
    for i in range(n):
        o = placed.get(i, I2)
        ops.append(PAULI[o] if isinstance(o, str) else o)
    return kron_all(ops)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hs_norm_sq(a: np.ndarray) -> float:
    """Normalized Hilbert-Schmidt norm squared, Tr(A^dag A)/dim."""
    return float(np.vdot(a, a).real) / a.shape[0]


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Operator 2-norm distance minimized over a global phase."""
    tr = np.trace(u.conj().T @ v)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return float(np.linalg.norm(u - v / phase, ord=2))
