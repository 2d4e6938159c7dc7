"""Reference computations the benchmark checks the program against.

These are written from the definitions in the dacqo docstrings and do not
call the simulator or its kernels, so a change to the simulator cannot
move the reference along with the value it is compared to.
"""

from __future__ import annotations

import math

import numpy as np

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_I = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _kron(ops):
    out = np.ones((1, 1), dtype=complex)
    for o in ops:
        out = np.kron(out, o)
    return out


def gate_matrix(kind: str, n_qubits: int, theta: float, phi: float, axis):
    """exp(-i theta sigma) for 1q gates; exp[-i theta/4 S_phi^2] for GMS."""
    if kind == "1q":
        sigma = {"x": _X, "y": _Y, "z": np.diag([1, -1]).astype(complex)}[axis]
        return math.cos(theta) * _I - 1j * math.sin(theta) * sigma
    a = math.cos(phi) * _X + math.sin(phi) * _Y
    s = sum(_kron([a if q == i else _I for q in range(n_qubits)])
            for i in range(n_qubits))
    vals, vecs = np.linalg.eigh(s @ s)
    u = (vecs * np.exp(-0.25j * theta * vals)) @ vecs.conj().T
    return u.conj().T if kind == "gms_dag" else u


def apply(state: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply u on ``qubits`` (qubit 0 most significant) with einsum."""
    k = len(qubits)
    psi = state.reshape((2,) * n)
    letters = "abcdefghijklmnopqrstuvwxyz"
    src = letters[:n]
    new = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:k]
    dst = list(src)
    for q, c in zip(qubits, new):
        dst[q] = c
    spec = f"{new}{''.join(src[q] for q in qubits)},{src}->{''.join(dst)}"
    return np.einsum(spec, u.reshape((2,) * (2 * k)), psi).reshape(-1)


def noiseless_success(circuit_doc: dict, optimal_indices) -> float:
    """Success probability of a circuit JSON document, run without noise.

    Starts in |1...1>, applies every gate, then a Hadamard on each qubit,
    and sums the probabilities of the optimal basis states.
    """
    n = circuit_doc["width"]
    state = np.zeros(2**n, dtype=complex)
    state[-1] = 1.0
    cache = {}
    for layer in circuit_doc["layers"]:
        for g in layer:
            key = (g["kind"], len(g["qubits"]), g["theta"], g.get("phi", 0.0),
                   g.get("axis"))
            if key not in cache:
                cache[key] = gate_matrix(*key)
            state = apply(state, cache[key], tuple(g["qubits"]), n)
    for q in range(n):
        state = apply(state, _H, (q,), n)
    return float(np.sum(np.abs(state[list(optimal_indices)]) ** 2))


def hadamard_all(n: int) -> np.ndarray:
    return _kron([_H] * n)


def perturbation_fidelity(dim: int, c: float, samples: int, seed: int):
    """Mean and variance of |Tr V| / d for V = polar(I + c G).

    For any unitary U, polar(U + c G) = U polar(I + c U^dag G) and U^dag G
    has the law of G, so the fidelity of a perturbed block depends only on
    its dimension and on c.
    """
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((samples, dim, dim))
         + 1j * rng.standard_normal((samples, dim, dim))) / math.sqrt(2)
    w, _, vh = np.linalg.svd(np.eye(dim) + c * g)
    v = w @ vh
    f = np.abs(np.trace(v, axis1=1, axis2=2)) / dim
    return float(f.mean()), float(f.var(ddof=1))


def fidelity_band(block_dims, c: float, draws_per_block: int, sigmas=5.0,
                  samples=2000, seed=12345):
    """Band for the mean block fidelity over every perturbed block drawn.

    ``block_dims`` lists the dimension of each GMS block in the circuit;
    each is perturbed ``draws_per_block`` times (once per trajectory).
    Returns (expected, half_width).
    """
    counts = {}
    for d in block_dims:
        counts[d] = counts.get(d, 0) + 1
    total = sum(counts.values()) * draws_per_block
    mean, var_run, var_ref = 0.0, 0.0, 0.0
    for d, m in sorted(counts.items()):
        mu, var = perturbation_fidelity(d, c, samples, seed + d)
        share = m * draws_per_block / total
        mean += share * mu
        var_run += share**2 * var / (m * draws_per_block)
        var_ref += share**2 * var / samples
    return mean, sigmas * math.sqrt(var_run + var_ref)


def max_weight_independent_set(n: int, edges, weights) -> tuple:
    """Exhaustive maximum-weight independent set: (weight, node tuple)."""
    masks = np.arange(1 << n, dtype=np.int64)
    bit = [(masks >> i) & 1 for i in range(n)]
    ok = np.ones(1 << n, dtype=bool)
    for i, j in edges:
        ok &= (bit[i] & bit[j]) == 0
    w = sum(bit[i] * weights[i] for i in range(n))
    w = np.where(ok, w, -np.inf)
    best = int(np.argmax(w))
    return float(w[best]), tuple(i for i in range(n) if (best >> i) & 1)
