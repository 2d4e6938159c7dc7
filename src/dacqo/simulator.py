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
of one state, a (2,)*n + (B,) tensor whose axis order travels with it
(``dacqo._kernels``): each kernel call leaves the state in the memory
order its matmul wrote, and the measurement reads the optimal amplitudes
in whatever order the state was left.  Each gate gets one operator for
the whole chunk, and so does each Pauli error that hits it (below).  A
perturbed GMS block is a stacked (B, d, d) unitary, one perturbation
per column, the polar projection of U + c G (``_polar``: scaled
Newton-Schulz matmuls, or LAPACK's SVD where that is faster, with the
same draws either way).  The gates go in windows of consecutive gates
(``_chunk_operators``) of at most ``_WINDOW_ENTRIES`` drawn entries: a
window makes every draw of its gates first, in circuit order, and then
projects all of its blocks of one dimension in one ``_polar`` call,
which stops the iteration for each gate on its own, so every operator
has the bits it would get projected alone, and the random stream is
that of drawing gate by gate.  This is the only place
where a perturbed block is drawn and projected: ``perturb_analog_block``
is its call on one gate.  A window whose U + c G overflows raises
FloatingPointError before any projection.  The draws, U + c G and the
iterates live in flat work buffers kept between calls; the results are
bit-identical to forming them with temporaries, and every operator is a
fresh array.  The buffers are process state: dacqo is single-threaded.
A Pauli error is an operator of its own in the stream: right after its
gate, one (B, 2, 2) stack per gate qubit that a draw hits, holding the
drawn Pauli in each hit column and the identity in the others.  No gate
operator is rewritten for a hit.  The draws follow the gates in circuit
order, so every error site of the per-gate model is kept.

The operators are then applied in fused groups (gate fusion as in qsim,
Isakov et al. 2021).  The groups depend only on the gates' qubits, so
each circuit's plan is computed once (``_fusion_plan``, cached with the
ideal unitaries) and every chunk and noise amplitude walks it.  A gate
joins the open groups it touches while their qubits and its own number
at most w, the circuit's widest gate; otherwise those groups close, in
the plan's order, and the gate opens a new one.  Open groups are
disjoint, so they commute.  The measurement's n Hadamards are the plan's
last members.  A group's product (``_product``, which also forms
``circuit_unitary`` and ``trotter_reference_unitary``) first multiplies
each run of its operators on one qubit tuple as plain matrices, a 1q
gate with the Pauli stacks that follow it, say; the state kernel then
applies each merged operator to the group's tensor-form (2^s, 2^s)
matrix, or to its stacked columns, carrying its axis order from one
operator to the next, and the product goes to the state in one kernel
call.  Each call on the state names the qubits of
the call after it (the next group's), so that a call that must copy the
state lays it out for its successor, which then runs in place: a
14-qubit solve's chunk copies its state on about half of its calls.  A
Pauli stack acts on a qubit of its gate, so it always joins its gate's
group.  Fusion is on only when a group's 4^w entries are fewer than the
state's 2^n amplitudes; otherwise (N=4 with 4-qubit blocks, say) every
gate is its own group and each operator,
Pauli stacks included, is one call on the state, so a run has the bits
of applying them one by one.  ``RunResult.kernel_applications`` counts
the calls on the state.

A chunk holds at most ``_CHUNK_ENTRIES`` state amplitudes, and at most as
many entries as a stacked operator of the widest gate (4^w), so memory
stays bounded at any width; only a hand-built 1-qubit circuit with c > 0
and more than 2^16 trajectories gets more chunks than a bound over the
stacked gates alone would give.  The noise seed is
split with ``SeedSequence(seed).spawn`` into one generator per chunk, so
a seed gives the same result on every run.  ``run`` keeps the ideal gate
unitaries and the fusion plan of the circuit it ran last, so a sweep
over noise amplitudes builds them once.  Gates with equal kind, size,
angles and axis share one unitary, built once per circuit, and so once
per call of the dense products.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .counterdiabatic import _check_count
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
# cap on the entries of one window of gates whose perturbed blocks are
# drawn, then projected together: 2^13 complex128 values, 128 KiB.  At a
# 14-qubit chunk of 4 trajectories a window holds up to seven 16 x 16
# blocks for one _polar call; the bits do not depend on it (each gate's
# stack stops on its own)
_WINDOW_ENTRIES = 2**13
# the polar projection's Newton-Schulz stop: max|X^H X - I| at most
# _POLAR_TOL, within _POLAR_MAX_ITER updates (then the SVD)
_POLAR_TOL = 1e-13
_POLAR_MAX_ITER = 20
# sizes of the flat work buffers kept for the draws and the projection;
# every request of at most _WINDOW_ENTRIES entries shares one
_SIZES_KEPT = 4
_SQRT_HALF = 1.0 / math.sqrt(2)


def check_simulation_width(n: int) -> None:
    """Raise CapabilityError if n qubits exceed the simulator's width cap.

    Callers check before synthesis and brute force, whose cost grows with
    n long before the state vector is built.
    """
    if n > _WIDTH_CAP:
        raise CapabilityError(f"simulation capped at {_WIDTH_CAP} qubits")


def _check_amplitude(c: float) -> None:
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and nonnegative, got {c}")


@dataclass(frozen=True)
class NoiseModel:
    """Analog-block perturbation amplitude c, depolarizing rate p, seed."""

    analog_noise_amplitude: float = 0.0
    depolarizing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_amplitude(self.analog_noise_amplitude)
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
    # state-kernel calls, summed over chunks: fused groups, or single gates,
    # Pauli stacks and Hadamards where fusion is off
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

    This is ``run``'s window code (``_chunk_operators``) on one gate, so
    it makes the draws and gets the bits that the block gets in a run.
    The result is a fresh array, never a view of a work buffer: callers
    hold operators across calls.  Raises ValueError, before any draw,
    unless c is finite and nonnegative, as ``NoiseModel`` does, and
    ``draws`` is None or an integer >= 1.
    """
    _check_amplitude(c)
    if draws is not None and (isinstance(draws, bool)
                              or not isinstance(draws, numbers.Integral)
                              or draws < 1):
        raise ValueError(f"draws must be None or an integer >= 1, got {draws}")
    if c == 0:
        return u
    b = 1 if draws is None else draws
    qubits = tuple(range(len(u).bit_length() - 1))
    rng = np.random.default_rng(seed)
    [(v, _, _)] = _chunk_operators((u,), (True,), (qubits,), c, 0, rng, b)
    return v if draws is not None else v[0]


def _work(buffers, entries: int) -> tuple:
    """Flat work buffers from ``buffers`` of at least ``entries`` values.

    Every request of at most _WINDOW_ENTRIES shares one set; a larger one
    gets a set of its own size.
    """
    return buffers(max(entries, _WINDOW_ENTRIES))


@functools.lru_cache(maxsize=_SIZES_KEPT)
def _draw_buffers(entries: int) -> tuple:
    """Real draws, imaginary draws and U + c G."""
    return np.empty(entries), np.empty(entries), np.empty(entries, dtype=np.complex128)


@functools.lru_cache(maxsize=_SIZES_KEPT)
def _polar_buffers(entries: int) -> tuple:
    """Two iterates, X^H X - I and |.|."""
    z = [np.empty(entries, dtype=np.complex128) for _ in range(3)]
    return (*z, np.empty(entries))


def _svd_polar(x: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(x)
    return w @ vh


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (B, d, d) stack."""
    b, d, _ = a.shape
    return a.reshape(b, d * d)[:, :: d + 1]


def _gram(y: np.ndarray, scratch: np.ndarray, r: np.ndarray) -> None:
    """r <- Y^H Y for each matrix of the stack ``y``; ``scratch`` is overwritten."""
    np.conjugate(y, out=scratch)
    np.matmul(scratch.swapaxes(1, 2), y, out=r)


def _polar(x: np.ndarray, stack: Optional[int] = None) -> np.ndarray:
    """Unitary polar factor of every matrix of a (B, d, d) stack.

    Runs the Newton-Schulz iteration X <- X - X (X^H X - I) / 2 (Bjorck &
    Bowie 1971; Higham 1986) on the whole stack.  Each matrix is first
    scaled so that sigma_max <= 1.5: sigma_max^2 is at most the largest
    row sum of |X^H X|, and polar(a X) = polar(X) for a > 0.  Unscaled, a
    singular value above sqrt(3) turns negative in one step, and the
    iteration converges to a unitary that is not the polar factor, with a
    residual that does not show it.

    ``x`` is made of stacks of ``stack`` consecutive matrices (default:
    one stack of all B), one per gate of a window.  Each stack stops on
    its own, at the first update count at which max|X^H X - I| over the
    stack is at most _POLAR_TOL, so it gets the same bits as it would
    alone.  After _POLAR_MAX_ITER updates, each matrix whose residual is
    not within the tolerance (NaN, where X^H X overflowed, included) gets
    the SVD.

    Blocks of d < 8 go to the SVD directly: there LAPACK is faster than
    the batched matmuls.  Otherwise the iterates alternate between two
    work buffers (a matmul's output must not overlap its inputs), the one
    not holding the iterate serving as scratch for X^H, and the result is
    a fresh array.
    """
    d = x.shape[-1]
    if d < 8:
        return _svd_polar(x)
    size = x.size
    y, y_next, r, mag = (a[:size].reshape(x.shape) for a in _work(_polar_buffers, size))
    # an X^H X that overflows leaves an inf or NaN residual, which the
    # SVD fallback below catches: its numpy warnings say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        _gram(x, y_next, r)
        scale2 = np.minimum(1.0, 2.25 / np.abs(r, out=mag).sum(axis=2).max(axis=1))
        _diagonal(r)[:] -= 1
        # scaling X by a maps X^H X - I to a^2 (X^H X - I) + (a^2 - 1) I
        np.multiply(x, np.sqrt(scale2)[:, None, None], out=y)
        r *= scale2[:, None, None]
        _diagonal(r)[:] += (scale2 - 1)[:, None]
        groups = len(x) // (stack or len(x))
        for _ in range(_POLAR_MAX_ITER):
            if np.abs(r, out=mag).max() <= _POLAR_TOL:
                return y.copy()
            if groups > 1:
                # a stack that has stopped keeps its iterate: X (I - 0) is X
                # exactly, and so is its residual
                r.reshape(groups, -1)[mag.reshape(groups, -1).max(axis=1) <= _POLAR_TOL] = 0
            r *= -0.5
            _diagonal(r)[:] += 1
            np.matmul(y, r, out=y_next)  # X (I - R / 2)
            y, y_next = y_next, y
            _gram(y, y_next, r)
            _diagonal(r)[:] -= 1
    # not <=: a residual that overflowed to NaN falls back too
    bad = ~(np.abs(r, out=mag).max(axis=(1, 2)) <= _POLAR_TOL)
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


def _measure_success(state: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Success probability of each column of a (2,)*n + (B,) state.

    The state has had the plan's closing Hadamards, which turn the X
    basis into the computational one.
    """
    # indexed by bits, so the state is read in whatever order it was left
    amplitudes = state[np.unravel_index(indices, state.shape[:-1])]
    return np.sum(np.abs(amplitudes) ** 2, axis=0)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense composed unitary of a (noiseless) circuit."""
    n = circuit.width
    if n > 12:
        raise CapabilityError("dense circuit unitary capped at 12 qubits")
    return _product(_gate_operators(circuit.gates()), range(n))


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
    return _product(_gate_operators(gates), range(n))


def _product(ops, qubits) -> np.ndarray:
    """Dense product of the (operator, qubits) pairs ``ops`` on ``qubits``.

    The first operator is applied first.  Returns a (2^s, 2^s) matrix
    for s qubits, or a (B, 2^s, 2^s) stack once an operator is a stacked
    (B, d, d) one.

    Operators wait as pending ones, on disjoint qubits, so they commute.
    An operator on the same qubit tuple, in the same order, as a pending
    one is multiplied into it with a plain matmul (a shared (d, d) and a
    stacked (B, d, d) one broadcast); no operator in between touched
    those qubits, or the pending one would have gone.  A merge costs d^3
    flops a matrix, and applying the operator to the product d^2 2^s.
    Any other operator first has the kernel apply each pending one it
    touches to the product, in the order they were opened; the rest go
    at the end, in that order.
    """
    position = {q: i for i, q in enumerate(qubits)}
    s = len(position)
    d = 2**s
    # in tensor form, so the kernel carries the axis order from one
    # operator to the next; the last reshape copies it back to canonical
    m = np.eye(d, dtype=np.complex128).reshape((2,) * s + (d,))

    def apply(op, on):
        nonlocal m
        if op.ndim == 3 and m.ndim == s + 1:
            m = np.broadcast_to(m[..., None, :], (2,) * s + (len(op), d))
        m = _kernels.apply_unitary(m, op, [position[q] for q in on], s)

    pending = {}  # opening index -> [operator, qubits], in opening order
    owner = {}  # qubit -> the opening index of the pending operator on it
    for i, (op, on) in enumerate(ops):
        touched = sorted({owner[q] for q in on if q in owner})
        if len(touched) == 1 and pending[touched[0]][1] == on:
            pending[touched[0]][0] = op @ pending[touched[0]][0]
            continue
        for j in touched:
            before, closed = pending.pop(j)
            apply(before, closed)
            for q in closed:
                del owner[q]
        pending[i] = [op, on]
        owner.update((q, i) for q in on)
    for op, on in pending.values():
        apply(op, on)
    if m.ndim == s + 1:
        return m.reshape(d, d)
    return np.moveaxis(m, s, 0).reshape(-1, d, d)


# a Pauli error's operator by kind: none, X, Y, Z
_PAULI_OPS = np.stack([PAULI[a] for a in "IXYZ"])


@functools.lru_cache(maxsize=1)
def _ideal_unitaries(circuit: Circuit) -> tuple:
    """The circuit's gates, their ideal unitaries, read-only, and its
    fusion plan.

    Kept for the last circuit run: a noise sweep runs one circuit once
    per amplitude, and every chunk of a run walks the same plan.  Equal
    gates share one array (``_gate_operators``).
    """
    gates = tuple(circuit.gates())
    ideal = tuple(u for u, _ in _gate_operators(gates))
    for u in ideal:
        u.flags.writeable = False
    return gates, ideal, _fusion_plan([g.qubits for g in gates], circuit.width)


def _gate_operators(gates):
    """Yield (unitary, qubits) per gate, building each distinct unitary once.

    Gates with the same kind, qubit count, angles and axis share one
    array, built once per call; the key holds each angle's sign too, so
    that -0.0 and 0.0 are told apart and a shared array has the bits of
    a fresh build.
    """
    built = {}
    for g in gates:
        key = (g.kind, len(g.qubits), g.theta, g.phi, g.axis,
               math.copysign(1.0, g.theta), math.copysign(1.0, g.phi))
        if key not in built:
            built[key] = gate_unitary(g)
        yield built[key], g.qubits


def _fusion_plan(qubits, n: int) -> tuple:
    """Fused groups of the gates on ``qubits`` and n closing Hadamards.

    Member i < len(qubits) is gate i; member len(qubits) + q is the
    Hadamard on qubit q.  Returns (members, group qubits) pairs in the
    order the groups are applied, each group's members in the order its
    product composes them.  A gate joins the open groups it touches while
    their qubits and its own number at most the widest gate's; otherwise
    those groups close, in the order of the gates that last joined them,
    and the gate opens a new one.  Where fusion is off (a group's 4^w entries
    at least the state's 2^n amplitudes), every member is a group of its
    own, in circuit order, and its qubits are None: each of its operators
    is applied on its own.
    """
    widest = max(map(len, qubits), default=1)
    on = [*qubits, *((q,) for q in range(n))]
    if 4**widest >= 2**n:
        return tuple(((i,), None) for i in range(len(on)))
    plan, groups = [], []  # open groups: (qubits, members), disjoint
    for i, gate in enumerate(on):
        touched, rest = [], []
        for group in groups:
            (rest if group[0].isdisjoint(gate) else touched).append(group)
        union = frozenset(gate).union(*(g[0] for g in touched))
        if len(union) <= widest:
            rest.append((union, [m for g in touched for m in g[1]] + [i]))
        else:
            plan += touched
            rest.append((frozenset(gate), [i]))
        groups = rest
    plan += groups
    return tuple((tuple(members), tuple(sorted(union))) for union, members in plan)


def _chunk_operators(ideal, analog, qubits, c, p, rng, b):
    """Yield (operator, Pauli stacks, fidelity sum) per gate for a chunk
    of b trajectories.

    ``ideal`` holds the gates' ideal unitaries, ``analog`` whether each
    one is a perturbed block, and ``qubits`` the qubits each acts on, one
    row of Pauli draws per qubit.  The gates go in windows of
    consecutive gates whose perturbed blocks (b d^2 entries each) and
    Pauli draws (b per gate qubit) number at most _WINDOW_ENTRIES; a
    window holds at least one gate.  A window first makes every draw, in
    circuit order: each perturbed block's real, then imaginary parts,
    into its slot of the flat work buffers (``_draw_buffers``, one
    segment per block dimension d), then the gate's ``rng.random((k,
    b))``.  Then it forms U + c G per d, raising FloatingPointError if
    c G overflows (on an inf, LAPACK's SVD need not return), and projects
    each d's blocks in one ``_polar`` call that stops per gate, so a
    block gets the same bits in a window of one as in a window of ten.

    A gate's Pauli stacks, applied right after its operator, are
    (stack, (q,)) pairs, one (b, 2, 2) stack per gate qubit q that some
    column's draw hits: a draw below p hits with X, Y or Z, by which
    third of [0, p) it falls in, and a column not hit gets the identity.
    The fidelity sum is ``gate_fidelity``'s over the b trajectories, or
    None for a gate with no perturbation.  An operator is the read-only
    ideal unitary or its own part of a fresh array, never a view of a
    work buffer: a run holds the operators of open groups across windows.
    """
    # the entries each gate draws
    weight = [b * (perturbed * u.size + (p > 0) * len(on))
              for u, perturbed, on in zip(ideal, analog, qubits)]
    start = 0
    while start < len(ideal):
        stop, entries = start + 1, weight[start]
        while stop < len(ideal) and entries + weight[stop] <= _WINDOW_ENTRIES:
            entries += weight[stop]
            stop += 1
        perturbed = [i for i in range(start, stop) if analog[i]]
        blocks = {}  # d -> the window's perturbed gates of that dimension
        for i in perturbed:
            blocks.setdefault(len(ideal[i]), []).append(i)
        buffers = _work(_draw_buffers, entries)
        segments, slots, offset = [], {}, 0
        for d, members in blocks.items():
            size = len(members) * b * d * d
            re, im, x = (a[offset:offset + size].reshape(-1, b, d, d) for a in buffers)
            segments.append((members, re, im, x))
            slots.update((i, (re[j], im[j])) for j, i in enumerate(members))
            offset += size
        draws = {}
        for i in range(start, stop):
            if analog[i]:
                re, im = slots[i]
                rng.standard_normal(out=re)
                rng.standard_normal(out=im)
            if p > 0:
                draws[i] = rng.random((len(qubits[i]), b))
        # _check_amplitude keeps c finite, so U + c G is not finite only
        # where c G overflows; that raises here, before any projection
        with np.errstate(over="raise"):
            for members, re, im, x in segments:
                # x <- U + c (re + 1j im) / sqrt(2), with re and im scaled
                # in place: numpy divides a complex array by a real scalar
                # as a product with its reciprocal, so this real
                # arithmetic gives those bits exactly
                u = np.array([ideal[i] for i in members])[:, None]
                for part, ux, xx in ((re, u.real, x.real), (im, u.imag, x.imag)):
                    part *= _SQRT_HALF
                    part *= c
                    np.add(ux, part, out=xx)
        ops = {}
        for members, _, _, x in segments:
            d = x.shape[-1]
            v = _polar(x.reshape(-1, d, d), b).reshape(x.shape)
            ops.update(zip(members, v))
        # per gate: einsum's summation order follows u's memory order, and
        # half of the ideal unitaries are F-ordered
        fids = {i: float(gate_fidelity(ideal[i], ops[i]).sum()) for i in perturbed}
        for i in range(start, stop):
            paulis = []
            if p > 0:
                for q, row in zip(qubits[i], draws[i]):
                    hit = row < p
                    if hit.any():
                        kinds = np.zeros(b, dtype=int)
                        kinds[hit] = (row[hit] / p * 3).astype(int) % 3 + 1
                        paulis.append((_PAULI_OPS[kinds], (q,)))
            yield ops.get(i, ideal[i]), paulis, fids.get(i)
        start = stop


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
    _check_count("trajectories", trajectories)
    indices, truth = optimal_state_indices(problem, truth)
    gates, ideal, plan = _ideal_unitaries(circuit)
    if noise.is_trivial:
        trajectories = 1
    c = noise.analog_noise_amplitude
    p = noise.depolarizing_rate
    analog = [c > 0 and g.kind in ("gms", "gms_dag") for g in gates]
    qubits = [g.qubits for g in gates]
    widest = max(map(len, qubits), default=1)
    # the widest gate bounds the entries of a stacked operator
    width = max(1, _CHUNK_ENTRIES // max(2**n, 4**widest))
    on = [*qubits, *((q,) for q in range(n))]
    hadamards = [(HADAMARD, [], None)] * n
    # the qubits of the first call on the state of each group's successor:
    # its fused product's, or a lone gate's own (its Pauli stacks follow it)
    successors = [fused if len(members) > 1 else on[members[0]]
                  for members, fused in plan[1:]] + [None]
    starts = range(0, trajectories, width)
    chunk_seeds = np.random.SeedSequence(noise.seed).spawn(len(starts))
    successes = np.empty(trajectories)
    fid_sum, fid_count = 0.0, 0
    applications = 0
    for start, chunk_seed in zip(starts, chunk_seeds):
        rng = np.random.default_rng(chunk_seed)
        b = min(width, trajectories - start)
        state = np.zeros((2,) * n + (b,), dtype=np.complex128)
        state[(1,) * n] = 1.0  # |1...1>
        stream = enumerate(itertools.chain(
            _chunk_operators(ideal, analog, qubits, c, p, rng, b), hadamards))
        held = {}  # member -> its operators, until its group is applied
        for (members, fused), successor in zip(plan, successors):
            # members[-1] joined last, so it is the group's last in the stream
            while members[-1] not in held:
                i, (v, paulis, fid) = next(stream)
                if fid is not None:
                    fid_sum += fid
                    fid_count += b
                held[i] = [(v, on[i]), *paulis]
            ops = []
            for i in members:
                ops += held.pop(i)
            if fused and len(ops) > 1:
                ops = [(_product(ops, fused), fused)]
            # each call lays out a copy of the state for the call after it
            after = [targets for _, targets in ops[1:]] + [successor]
            for (u, targets), following in zip(ops, after):
                state = _kernels.apply_unitary(state, u, targets, n,
                                               next_qubits=following)
            applications += len(ops)
        successes[start:start + b] = _measure_success(state, indices)
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
