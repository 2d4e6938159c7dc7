"""State-vector gate-application kernel.

Applies a dense 2^k x 2^k unitary along the axes of k chosen qubits of a
2^n state vector, or of every column of a (2^n, m) matrix at once.  A
stacked (m, 2^k, 2^k) unitary applies a different matrix to each column,
which is how one noisy trajectory per column gets its own perturbed gate;
on a (2^n, m, r) array, matrix b acts on all r columns of ``state[:, b]``,
which is how the simulator composes per-trajectory gates into one stack.
A shared unitary on one ascending run of qubits is one broadcast matmul
on a reshaped view; every other case permutes the gate's qubit axes to
the front, runs one matmul and permutes them back.  Qubit order follows
``dacqo.paulis``: qubit 0 is the most significant bit.
"""

from __future__ import annotations

import numpy as np


def apply_unitary(state: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply ``u`` on ``qubits`` of an n-qubit state or (2^n, m) matrix.

    ``u`` is either one 2^k x 2^k matrix, applied to every column, or a
    stacked (m, 2^k, 2^k) array whose ``u[b]`` acts on column ``b`` of a
    (2^n, m) matrix, or on every column of ``state[:, b]`` of a
    (2^n, m, r) array.  Returns a new array of the input's shape; the
    input is not modified.
    """
    k = len(qubits)
    q0 = qubits[0]
    rest = state.size >> (q0 + k)
    # on one ascending run of qubits the state is a (2^q0, 2^k, rest)
    # array, and one broadcast matmul applies a shared u without
    # transposes.  numpy runs one small gemm per leading index, which pays
    # off for at most 64 of them or for trailing extents of at least 64
    if u.ndim == 2 and tuple(qubits) == tuple(range(q0, q0 + k)) and (
        2**q0 <= 64 or rest >= 64
    ):
        psi = np.matmul(u, state.reshape(2**q0, 2**k, rest))
        return psi.reshape(state.shape)
    others = tuple(q for q in range(n) if q not in qubits)
    if u.ndim == 2:
        # the gate's qubits first, then the others and the column axis:
        # the whole state is one (2^k, 2^(n-k) m) block
        order = (*qubits, *others, *range(n, state.ndim + n - 1))
        shape = (2**k, -1)
    else:
        if state.ndim not in (2, 3) or u.shape[0] != state.shape[1]:
            raise ValueError("a stacked unitary needs one matrix per state column")
        # column axis first: each column, with its trailing axis if any,
        # is a (2^k, -1) block for its own matrix
        order = (n, *qubits, *others, *range(n + 1, state.ndim + n - 1))
        shape = (state.shape[1], 2**k, -1)
    psi = state.reshape((2,) * n + state.shape[1:]).transpose(order)
    out = np.matmul(u, psi.reshape(shape)).reshape(psi.shape)
    return out.transpose(np.argsort(order)).reshape(state.shape)


def backend_name() -> str:
    return "numpy"
