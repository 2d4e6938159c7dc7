"""Exact noisy state-vector execution of synthesized circuits.

Noise model:

* every multiqubit GMS block's unitary U is replaced by the polar
  projection of U + c G with G a seeded complex Gaussian matrix (the
  nearest unitary to the perturbed matrix), and
* after every gate, each touched qubit independently suffers an X, Y or Z
  error with probability p/3 each (Pauli trajectories; expectation over
  trajectories equals the depolarizing channel).

The initial state is |1...1>, the ground state of the rotated driver
sum_i Z_i; success is the total probability of the optimal bitstrings read
in the X basis (a Hadamard on every qubit before measuring), where the
problem Hamiltonian is diagonal.

Trajectories run in chunks: a chunk holds its trajectories as the columns
of one (2^n, B) state matrix.  Each gate gets one operator for the whole
chunk.  A perturbed GMS block is a stacked (B, d, d) unitary, one
perturbation per column, drawn and projected in one batch (``_polar``:
scaled Newton-Schulz matmuls, or LAPACK's SVD where that is faster, with
the same draws either way).  The draws, U + c G and the iterates live in
work buffers kept per stack shape and reused on every later call; the
results are bit-identical to forming them with temporaries, as the
previous release did, and each call returns a fresh array.  The buffers
are process state: dacqo is single-threaded.  A Pauli error is folded
into the operator of the gate it follows: for each hit column b, v_b
becomes P v_b, with P on the hit qubit's position in the gate, which
makes a shared unitary a stacked one.  The draws follow the gates in
circuit order, so every error site of the per-gate model is kept.

The operators are then applied in fused groups (``_Fuser``; gate fusion
as in qsim, Isakov et al. 2021).  A gate joins the open groups it
touches while their qubits and its own number at most w, the circuit's
widest gate; otherwise those groups are applied to the state and the
gate opens a new one.  Open groups are disjoint, so they commute.  A
group's product is composed with the state kernel on its (2^s, 2^s)
matrix, or on its stacked columns, and applied to the state in one
kernel call; the measurement's Hadamards join the same stream.  Fusion
is on only when a group's 4^w entries are fewer than the state's 2^n
amplitudes; otherwise (N=4 with 4-qubit blocks, say) every group is one
gate.  ``RunResult.kernel_applications`` counts the calls on the state.

A chunk holds at most ``_CHUNK_ENTRIES`` state amplitudes, and at most as
many entries as a stacked operator of the widest gate (4^w), so memory
stays bounded at any width; only a hand-built 1-qubit circuit with c > 0
and more than 2^16 trajectories gets more chunks than a bound over the
stacked gates alone would give.  The noise seed is
split with ``SeedSequence(seed).spawn`` into one generator per chunk, so
a seed gives the same result on every run.  ``run`` keeps the ideal gate
unitaries of the circuit it ran last, so a sweep over noise amplitudes
builds them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .gates import _EPS, Gate, gate_unitary, solve_gms_angles, trotter_angles
from .paulis import HADAMARD, PAULI, _bit_weights
from .problem import (
    CapabilityError,
    GroundTruth,
    IsingProblem,
    brute_force_ground_state,
)
from .synthesis import (
    Circuit,
    correction_weights,
    coverage_plan,
    schedule_pairs,
    synthesize,
)

__all__ = [
    "NoiseModel",
    "RunResult",
    "perturb_analog_block",
    "gate_fidelity",
    "check_simulation_width",
    "run",
    "success_vs_fidelity_sweep",
    "circuit_unitary",
    "optimal_state_indices",
]

_WIDTH_CAP = 14
# cap on the amplitudes of a chunk's state matrix and on the entries of a
# stacked block unitary: 2^18 complex128 values, 4 MiB
_CHUNK_ENTRIES = 2**18
# the polar projection's Newton-Schulz stop: max|X^H X - I| at most
# _POLAR_TOL, within _POLAR_MAX_ITER updates (then the SVD)
_POLAR_TOL = 1e-13
_POLAR_MAX_ITER = 20
# stack shapes whose work buffers perturb_analog_block and _polar keep
_SHAPES_KEPT = 4
_SQRT_HALF = 1.0 / math.sqrt(2)


def check_simulation_width(n: int) -> None:
    """Raise CapabilityError if n qubits exceed the simulator's width cap.

    Callers check before synthesis and brute force, whose cost grows with
    n long before the state vector is built.
    """
    if n > _WIDTH_CAP:
        raise CapabilityError(f"simulation capped at {_WIDTH_CAP} qubits")


@dataclass(frozen=True)
class NoiseModel:
    """Analog-block perturbation amplitude c, depolarizing rate p, seed."""

    analog_noise_amplitude: float = 0.0
    depolarizing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        c = self.analog_noise_amplitude
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"c must be finite and nonnegative, got {c}")
        if not 0.0 <= self.depolarizing_rate <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    @property
    def is_trivial(self) -> bool:
        return self.analog_noise_amplitude == 0 and self.depolarizing_rate == 0


@dataclass(frozen=True)
class RunResult:
    success_probability: float
    gms_fidelity: float
    trajectories: int
    stderr: float = 0.0
    # state-kernel calls, summed over chunks (fused groups and Hadamards)
    kernel_applications: int = 0


def perturb_analog_block(
    u: np.ndarray, c: float, seed, draws: Optional[int] = None
) -> np.ndarray:
    """Nearest unitary to U + c G for a seeded complex Gaussian G.

    With ``draws`` = B, returns a (B, d, d) stack of independent
    perturbations of ``u``, drawn and projected in one batch; otherwise
    one (d, d) matrix.  ``u`` itself is returned when c == 0.  The
    projection is the unitary polar factor of U + c G (``_polar``: scaled
    Newton-Schulz matmuls, or the SVD W S V^dag -> W V^dag where that is
    faster); the draws do not depend on which one runs.

    The draws, U + c G and the Newton-Schulz iterates live in work
    buffers kept per stack shape (``_draw_buffers``, ``_polar_buffers``),
    so repeated calls on one shape allocate only the array they return.
    That array is always a fresh one, never a view of a buffer: callers
    hold operators across calls.  The results are bit-identical to the
    previous release, which formed G = (re + 1j im) / sqrt(2), U + c G
    and the iterates as temporaries.
    """
    if c == 0:
        return u
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shape = (1 if draws is None else draws,) + u.shape
    re, im, x = _draw_buffers(shape)
    # real parts of the whole stack, then imaginary parts
    rng.standard_normal(out=re)
    rng.standard_normal(out=im)
    # numpy divides a complex array by a real scalar as a product with
    # its reciprocal, so this is (u + c (re + 1j im) / sqrt(2)) bit for bit
    for part, ux, xx in ((re, u.real, x.real), (im, u.imag, x.imag)):
        part *= _SQRT_HALF
        part *= c
        np.add(ux, part, out=xx)
    v = _polar(x)
    return v if draws is not None else v[0]


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _draw_buffers(shape: tuple) -> tuple:
    """Real draws, imaginary draws and U + c G for a (B, d, d) stack."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.complex128)


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _polar_buffers(shape: tuple) -> tuple:
    """Two iterates, X^H X - I, a conjugate and |.| for a (B, d, d) stack."""
    z = [np.empty(shape, dtype=np.complex128) for _ in range(4)]
    return (*z, np.empty(shape))


def _svd_polar(x: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(x)
    return w @ vh


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (B, d, d) stack."""
    b, d, _ = a.shape
    return a.reshape(b, d * d)[:, :: d + 1]


def _gram(y: np.ndarray, yh: np.ndarray, r: np.ndarray) -> None:
    """r <- Y^H Y for each matrix of the stack ``y``; ``yh`` is scratch."""
    np.conjugate(y, out=yh)
    np.matmul(yh.swapaxes(1, 2), y, out=r)


def _polar(x: np.ndarray) -> np.ndarray:
    """Unitary polar factor of every matrix of a (B, d, d) stack.

    Runs the Newton-Schulz iteration X <- X - X (X^H X - I) / 2 (Bjorck &
    Bowie 1971; Higham 1986) on the whole stack.  Each matrix is first
    scaled so that sigma_max <= 1.5: sigma_max^2 is at most the largest
    row sum of |X^H X|, and polar(a X) = polar(X) for a > 0.  Unscaled, a
    singular value above sqrt(3) turns negative in one step, and the
    iteration converges to a unitary that is not the polar factor, with a
    residual that does not show it.  The iteration stops once
    max|X^H X - I| <= _POLAR_TOL; a matrix still above it after
    _POLAR_MAX_ITER updates gets the SVD.

    Blocks of d < 8 go to the SVD directly: there LAPACK is faster than
    the batched matmuls.  Otherwise the iterates alternate between two
    buffers of ``_polar_buffers`` (a matmul's output must not overlap its
    inputs), and the result is a fresh copy of the last one.
    """
    d = x.shape[-1]
    if d < 8:
        return _svd_polar(x)
    y, y_next, r, yh, mag = _polar_buffers(x.shape)
    _gram(x, yh, r)
    scale2 = np.minimum(1.0, 2.25 / np.abs(r, out=mag).sum(axis=2).max(axis=1))
    _diagonal(r)[:] -= 1
    # scaling X by a maps X^H X - I to a^2 (X^H X - I) + (a^2 - 1) I
    np.multiply(x, np.sqrt(scale2)[:, None, None], out=y)
    r *= scale2[:, None, None]
    _diagonal(r)[:] += (scale2 - 1)[:, None]
    for _ in range(_POLAR_MAX_ITER):
        if np.abs(r, out=mag).max() <= _POLAR_TOL:
            return y.copy()
        r *= -0.5
        _diagonal(r)[:] += 1
        np.matmul(y, r, out=y_next)  # X (I - R / 2)
        y, y_next = y_next, y
        _gram(y, yh, r)
        _diagonal(r)[:] -= 1
    bad = np.abs(r, out=mag).max(axis=(1, 2)) > _POLAR_TOL
    y = y.copy()
    if bad.any():
        y[bad] = _svd_polar(x[bad])
    return y


def gate_fidelity(u: np.ndarray, v: np.ndarray):
    """|Tr(U^dag V)| / d, or one such value per matrix of a (B, d, d) stack."""
    if u.shape != v.shape[-2:]:
        raise ValueError("dimension mismatch")
    f = np.abs(np.einsum("ij,...ij->...", u.conj(), v)) / u.shape[0]
    return float(f) if f.ndim == 0 else f


def optimal_state_indices(problem: IsingProblem, truth: GroundTruth = None):
    """Sorted basis indices of the optimal bitstrings, and the ground truth."""
    if truth is None:
        truth = brute_force_ground_state(problem)
    n = problem.n_qubits
    spins = np.array(list(truth.bitstrings)).reshape(-1, n)
    return np.sort((spins == -1) @ _bit_weights(n)), truth


def _measure_success(fuser: _Fuser, indices: np.ndarray) -> np.ndarray:
    """Success probability of each column of the fuser's state matrix.

    The Hadamards that turn the X basis into the computational one join
    the fuser's stream, then every open group is applied.
    """
    for q in range(fuser.n):
        fuser.add(HADAMARD, (q,))
    state = fuser.finish()
    return np.sum(np.abs(state[indices]) ** 2, axis=0)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense composed unitary of a (noiseless) circuit."""
    n = circuit.width
    if n > 12:
        raise CapabilityError("dense circuit unitary capped at 12 qubits")
    return _product(((gate_unitary(g), g.qubits) for g in circuit.gates()), range(n))


def trotter_reference_unitary(
    problem: IsingProblem, schedule, block_size: int
) -> np.ndarray:
    """Straight-line product of the intended trotter factor unitaries.

    Multiplies the per-step factors (block GMS gates, cancellers,
    correction and leftover pairs, global rotations) of a homogeneous
    instance in canonical stage order without any layer packing; the
    layered circuit must compose to the same operator.
    """
    if not problem.is_homogeneous():
        raise ValueError("trotter_reference_unitary needs a homogeneous instance")
    n = problem.n_qubits
    if n > 10:
        raise CapabilityError("reference product capped at 10 qubits")
    pair = next(iter(problem.couplings), None)
    if pair is not None:
        primary, supplementary, coverage = coverage_plan(n, block_size)
        needed = correction_weights(coverage)
        rounds = schedule_pairs(needed, n)

    gates = []
    for ang in trotter_angles(problem, schedule):
        a, b = (ang.xx[pair], ang.xy[pair]) if pair is not None else (0.0, 0.0)
        if abs(a) >= _EPS or abs(b) >= _EPS:
            for block in primary + supplementary:
                gates += solve_gms_angles(a, b, block)
            for rnd in rounds:
                for p in rnd:
                    gates += solve_gms_angles(needed[p] * a, needed[p] * b, p)
        for axis, theta in (("x", ang.x[0]), ("z", ang.z), ("y", ang.y[0])):
            if abs(theta) >= _EPS:
                gates += (Gate("1q", (q,), theta=theta, axis=axis) for q in range(n))
    return _product(((gate_unitary(g), g.qubits) for g in gates), range(n))


def _product(ops, qubits) -> np.ndarray:
    """Dense product of the (operator, qubits) pairs ``ops`` on ``qubits``.

    The first operator is applied first.  Returns a (2^s, 2^s) matrix
    for s qubits, or a (B, 2^s, 2^s) stack once an operator is a stacked
    (B, d, d) one.
    """
    position = {q: i for i, q in enumerate(qubits)}
    s = len(position)
    d = 2**s
    m = np.eye(d, dtype=np.complex128)
    for op, on in ops:
        if op.ndim == 3 and m.ndim == 2:
            m = np.broadcast_to(m[:, None, :], (d, len(op), d))
        m = _kernels.apply_unitary(m, op, [position[q] for q in on], s)
    return m if m.ndim == 2 else m.transpose(1, 0, 2)


_PAULI_OPS = np.stack([PAULI["X"], PAULI["Y"], PAULI["Z"]])


@functools.lru_cache(maxsize=1)
def _ideal_unitaries(circuit: Circuit) -> tuple:
    """The circuit's gates and their ideal unitaries, read-only.

    Kept for the last circuit run: a noise sweep runs one circuit once
    per amplitude.
    """
    gates = tuple(circuit.gates())
    ideal = tuple(gate_unitary(g) for g in gates)
    for u in ideal:
        u.flags.writeable = False
    return gates, ideal


def _fold_pauli_errors(v: np.ndarray, draws: np.ndarray, p: float) -> np.ndarray:
    """Gate operator ``v`` followed by the Pauli errors that ``draws`` hit.

    ``draws`` holds one uniform draw per gate qubit (row j for the gate's
    qubit j) and trajectory; a draw below p hits with X, Y or Z, by which
    third of [0, p) it falls in.  For each hit column b, v_b becomes
    P_j v_b, so a shared (d, d) ``v`` becomes a (B, d, d) stack.
    """
    hits = draws < p
    if not hits.any():
        return v
    if v.ndim == 2:
        v = np.repeat(v[None], draws.shape[1], axis=0)
    for j in np.flatnonzero(hits.any(axis=1)):
        hit = np.flatnonzero(hits[j])
        ops = _PAULI_OPS[(draws[j, hit] / p * 3).astype(int) % 3]
        # the hit matrices as (d, h, d) columns; P acts on their bit j
        cols = v[hit].transpose(1, 0, 2)
        v[hit] = _kernels.apply_unitary(cols, ops, (int(j),), len(draws)).transpose(1, 0, 2)
    return v


class _Fuser:
    """Applies a stream of gates to a (2^n, B) state matrix in fused groups.

    An open group holds the operators, shared (d, d) or stacked (B, d, d),
    of gates whose qubits together number at most ``limit``.  A gate joins
    the open groups it touches when their qubits and its own stay within
    the limit; otherwise those groups are applied to the state and the
    gate opens a group of its own, or is applied at once if it is wider
    than the limit.  Open groups are disjoint, so they commute and can be
    applied in any order.  A group's product is formed with the state
    kernel on its (2^s, 2^s) matrix, or on its stacked (2^s, B, 2^s)
    columns, and applied to the state in one more call.
    """

    def __init__(self, state: np.ndarray, limit: int):
        self.state = state
        self.n = state.shape[0].bit_length() - 1
        self.limit = limit
        self.groups = []  # (qubits, [(operator, gate qubits), ...])
        self.applications = 0

    def add(self, op: np.ndarray, qubits: tuple) -> None:
        touched, rest = [], []
        for group in self.groups:
            (rest if group[0].isdisjoint(qubits) else touched).append(group)
        self.groups = rest
        if len(qubits) <= self.limit:
            union = frozenset(qubits).union(*(g[0] for g in touched))
            if len(union) <= self.limit:
                ops = [o for g in touched for o in g[1]]
                rest.append((union, ops + [(op, qubits)]))
                return
        for group in touched:
            self._flush(group)
        if len(qubits) <= self.limit:
            rest.append((frozenset(qubits), [(op, qubits)]))
        else:
            self._apply(op, qubits)  # no group can hold it

    def finish(self) -> np.ndarray:
        """Apply every open group and return the state."""
        for group in self.groups:
            self._flush(group)
        self.groups = []
        return self.state

    def _flush(self, group) -> None:
        union, ops = group
        if len(ops) == 1:
            self._apply(*ops[0])
        else:
            qubits = tuple(sorted(union))
            self._apply(_product(ops, qubits), qubits)

    def _apply(self, u: np.ndarray, qubits: tuple) -> None:
        self.state = _kernels.apply_unitary(self.state, u, qubits, self.n)
        self.applications += 1


def run(
    circuit: Circuit,
    problem: IsingProblem,
    noise: NoiseModel = None,
    trajectories: int = 512,
    truth: GroundTruth = None,
) -> RunResult:
    """Execute the circuit and report success probability and block fidelity."""
    n = circuit.width
    check_simulation_width(n)
    if noise is None:
        noise = NoiseModel()
    if trajectories < 1:
        raise ValueError("trajectories must be >= 1")
    indices, truth = optimal_state_indices(problem, truth)
    gates, ideal = _ideal_unitaries(circuit)
    if noise.is_trivial:
        trajectories = 1
    c = noise.analog_noise_amplitude
    p = noise.depolarizing_rate
    analog = [c > 0 and g.kind in ("gms", "gms_dag") for g in gates]
    widest = max((len(g.qubits) for g in gates), default=1)
    # the widest gate bounds the entries of a stacked operator
    width = max(1, _CHUNK_ENTRIES // max(2**n, 4**widest))
    # a fused group is worth its composition only while its matrix is
    # smaller than the state; otherwise each gate is applied on its own,
    # in circuit order
    limit = widest if 4**widest < 2**n else 0
    starts = range(0, trajectories, width)
    chunk_seeds = np.random.SeedSequence(noise.seed).spawn(len(starts))
    successes = np.empty(trajectories)
    fid_sum, fid_count = 0.0, 0
    applications = 0
    for start, chunk_seed in zip(starts, chunk_seeds):
        rng = np.random.default_rng(chunk_seed)
        b = min(width, trajectories - start)
        state = np.zeros((2**n, b), dtype=np.complex128)
        state[-1] = 1.0  # |1...1>
        fuser = _Fuser(state, limit)
        for g, u, perturbed in zip(gates, ideal, analog):
            v = u
            if perturbed:
                v = perturb_analog_block(u, c, rng, b)
                fid_sum += float(gate_fidelity(u, v).sum())
                fid_count += b
            if p > 0:
                v = _fold_pauli_errors(v, rng.random((len(g.qubits), b)), p)
            fuser.add(v, g.qubits)
        successes[start:start + b] = _measure_success(fuser, indices)
        applications += fuser.applications
    mean = float(successes.mean())
    stderr = float(successes.std(ddof=1) / math.sqrt(trajectories)) if trajectories > 1 else 0.0
    fidelity = fid_sum / fid_count if fid_count else 1.0
    return RunResult(
        success_probability=mean,
        gms_fidelity=fidelity,
        trajectories=trajectories,
        stderr=stderr,
        kernel_applications=applications,
    )


def success_vs_fidelity_sweep(
    problem: IsingProblem,
    schedule,
    block_size: int,
    c_grid,
    trajectories: int = 512,
    seed: int = 0,
):
    """One noisy run per analog-noise amplitude, sorted by realized fidelity.

    The circuit follows ``synthesis_plan``'s automatic path choice and
    block-size clamp; ``run`` builds its ideal gate unitaries once for
    the whole grid.  Returns a list of (mean gms_fidelity, success_probability, stderr, c)
    tuples.
    """
    check_simulation_width(problem.n_qubits)
    circuit = synthesize(problem, schedule, block_size)
    truth = brute_force_ground_state(problem)
    rows = []
    for i, c in enumerate(c_grid):
        noise = NoiseModel(
            analog_noise_amplitude=float(c), depolarizing_rate=0.0,
            seed=seed + i,
        )
        res = run(circuit, problem, noise, trajectories, truth=truth)
        rows.append((res.gms_fidelity, res.success_probability, res.stderr, float(c)))
    rows.sort(key=lambda r: r[0])
    return rows
