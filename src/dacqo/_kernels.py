"""State-vector gate-application kernel.

Applies a dense 2^k x 2^k unitary along the axes of k chosen qubits of a
2^n state vector, or of every column of a (2^n, m) matrix at once.  A
stacked (m, 2^k, 2^k) unitary applies a different matrix to each column,
which is how one noisy trajectory per column gets its own perturbed gate;
on a (2^n, m, r) array, matrix b acts on all r columns of ``state[:, b]``,
which is how the simulator composes per-trajectory gates into one stack.
Qubit order follows ``dacqo.paulis``: qubit 0 is the most significant bit.

The state may also be given in tensor form, one axis of length 2 per
qubit followed by the column axes: (2,)*n, (2,)*n + (m,) or
(2,)*n + (m, r).  Then the axis order travels with the array: a call
returns its product as a transposed view in the memory order the matmul
wrote, with no copy back, and the next call reads the order from the
strides.  A call takes one of three layouts:

- a shared unitary on an ascending run of qubits of a state in
  canonical (C-contiguous) order: one matmul on a reshaped view;
- the gate's axes innermost, in order (and, for a stacked unitary, the
  column axis outermost): in place, as view @ u^T;
- otherwise one transposed copy with the gate's axes in front (behind
  the column axis, for a stacked unitary).  A caller that names the
  qubits of its next call (``next_qubits``) gets those axes put
  innermost in that copy, so that the next call runs in place: on a
  chain of gates on disjoint qubits, about every other call copies,
  not every one.  Where the state already lies in that order, the
  transpose is a view and nothing is copied.

A result of fewer than ``_CARRY_ENTRIES`` entries is copied back to
canonical order, where a call's fixed costs outweigh a copy.  An input
of shape (2^n, ...) cannot carry a permuted order, so its result is
always canonical.
"""

from __future__ import annotations

import numpy as np


# a result of fewer entries goes back to canonical order: there a copy
# costs less than a call's fixed costs, and in canonical order a shared
# gate on an ascending run of qubits needs no copy at all.  A 14-qubit
# chunk (2^16 entries and more) and an N >= 7 circuit_unitary carry
# their order; an N = 4 chunk and a fused group's product do not
_CARRY_ENTRIES = 2**13


def apply_unitary(state: np.ndarray, u: np.ndarray, qubits, n: int, *,
                  next_qubits=None) -> np.ndarray:
    """Apply ``u`` on ``qubits`` of an n-qubit state, matrix or tensor.

    ``u`` is either one 2^k x 2^k matrix, applied to every column, or a
    stacked (m, 2^k, 2^k) array whose ``u[b]`` acts on column ``b`` of a
    (2^n, m) matrix, or on every column of ``state[:, b]`` of a
    (2^n, m, r) array (likewise for the tensor forms).  Nothing here
    needs ``u`` to be unitary: any square matrix or stack of square
    matrices of that size is applied the same way.  Returns a new array
    of the input's shape, which for a tensor-form input may be a
    transposed view; the input is not modified.

    ``next_qubits`` names the qubits of the call that will follow on the
    result.  When this call copies, its result carries its order and
    those qubits are disjoint from ``qubits``, the copy puts their axes
    innermost, in that order, so that the next call runs in place.  It
    changes the result's memory order, and its values only by rounding.
    """
    k = len(qubits)
    q0 = qubits[0]
    rest = state.size >> (q0 + k)
    # a shared u on an ascending run of a state in canonical order: one
    # matmul on a (2^q0, 2^k, rest) view.  numpy makes one small gemm per
    # leading index, which pays off for at most 8 of them or for trailing
    # extents of at least 256
    if (u.ndim == 2 and state.flags.c_contiguous
            and list(qubits) == list(range(q0, q0 + k))
            and (q0 <= 3 or rest >= 256)):
        return np.matmul(u, state.reshape(2**q0, 2**k, rest)).reshape(state.shape)
    psi = state
    if state.shape[:n] != (2,) * n:
        psi = state.reshape((2,) * n + state.shape[1:])
    if u.ndim == 3 and (psi.ndim - n not in (1, 2) or u.shape[0] != psi.shape[n]):
        raise ValueError("a stacked unitary needs one matrix per state column")
    # memory order of the axes, outermost first.  An axis of length 1 ties
    # with its neighbour and may sort on either side of it, which at worst
    # costs a copy
    mem = list(range(psi.ndim))
    if not psi.flags.c_contiguous:
        mem.sort(key=psi.strides.__getitem__, reverse=True)
    qubits = list(qubits)
    lead = [n] if u.ndim == 3 else []
    # the gate's axes innermost, in order, and (stacked) the column axis
    # outermost: (rest, 2^k) @ u^T, or (m, rest, 2^k) @ u[b]^T per column
    back = mem[-k:] == qubits and mem[:len(lead)] == lead
    order = mem
    if not back:
        last = []
        if (next_qubits is not None and psi.size >= _CARRY_ENTRIES
                and set(next_qubits).isdisjoint(qubits)):
            last = list(next_qubits)
        order = lead + qubits
        order += [a for a in mem if a not in order and a not in last] + last
    psi = psi.transpose(order)
    if back:
        out = np.matmul(psi.reshape(u.shape[:-2] + (-1, 2**k)), u.swapaxes(-1, -2))
    else:
        out = np.matmul(u, psi.reshape(u.shape[:-2] + (2**k, -1)))
    out = out.reshape(psi.shape)
    inverse = [0] * len(order)
    for j, a in enumerate(order):
        inverse[a] = j
    out = out.transpose(inverse)
    if out.size < _CARRY_ENTRIES:
        out = np.ascontiguousarray(out)
    return out.reshape(state.shape)


def backend_name() -> str:
    return "numpy"
