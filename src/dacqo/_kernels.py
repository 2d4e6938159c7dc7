"""State-vector gate-application kernel.

Applies a dense 2^k x 2^k unitary along the axes of k chosen qubits of a
2^n state vector, or of every column of a (2^n, m) matrix at once.
Qubit 0 is the most significant bit of the state index.
"""

from __future__ import annotations

import numpy as np


def apply_unitary(state: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply ``u`` on ``qubits`` of an n-qubit state or (2^n, m) matrix.

    Returns a new array of the input's shape; the input is not modified.
    """
    k = len(qubits)
    psi = state.reshape((2,) * n + state.shape[1:])
    u_t = u.reshape((2,) * (2 * k))
    psi = np.tensordot(u_t, psi, axes=(range(k, 2 * k), qubits))
    psi = np.moveaxis(psi, range(k), qubits)
    return np.ascontiguousarray(psi).reshape(state.shape)


def backend_name() -> str:
    return "numpy"
