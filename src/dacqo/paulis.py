"""Small dense Pauli-algebra helpers shared across modules.

Basis convention, used by every dense operator, spin table and basis
index in the package: qubit 0 is the most significant bit of a
computational-basis index, so on n qubits qubit q has bit weight
``1 << (n - 1 - q)`` (``_bit_weights``).  A bit value 0 is |0> and spin
+1, a bit value 1 is |1> and spin -1.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def _bit_weights(n: int) -> np.ndarray:
    """Bit weight 2^(n-1-q) of each qubit q in a basis index."""
    return 1 << (n - 1 - np.arange(n, dtype=np.int64))


def kron_all(ops) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for o in ops:
        out = np.kron(out, o)
    return out


def pauli_on(n: int, placed: dict) -> np.ndarray:
    """Dense Pauli string; ``placed`` maps qubit index -> "I", "X", "Y" or "Z".

    X and Y flip their qubit's bit, Y and Z give a sign (-1)^bit, and each
    Y a factor i, so column b holds i^#Y (-1)^popcount(b & zmask) in row
    b ^ xmask.
    """
    weights = _bit_weights(n)
    xmask = zmask = 0
    for q, letter in placed.items():
        if letter not in PAULI or not 0 <= q < n:
            raise ValueError(f"no Pauli {letter!r} on qubit {q} of {n}")
        xmask |= int(weights[q]) * (letter in "XY")
        zmask |= int(weights[q]) * (letter in "YZ")
    b = np.arange(2**n)
    # bitwise_count is uint8: cast before forming signs
    signs = 1 - 2 * (np.bitwise_count(b & zmask).astype(np.int64) & 1)
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[b ^ xmask, b] = 1j ** list(placed.values()).count("Y") * signs
    return out


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
