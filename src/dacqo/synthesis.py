"""Layered digital-analog circuit construction and depth cost models.

One trotter step of the rotated-frame Hamiltonian needs, per qubit pair,
the two-body coupling theta_xx XX + theta_xy (XY + YX) plus global X/Z/Y
rotation layers.  For homogeneous instances the entangling work is done by
k-qubit GMS blocks:

  * primary blocks on consecutive index groups [0,k), [k,2k), ...
  * supplementary blocks on a second group family (index-strided when
    N >= k^2, else shifted by floor(k/2) with wraparound) chosen so block
    coverage overlaps little,
  * every pair covered zero times gets a 2-qubit GMS at full strength and
    every pair covered c >= 2 times gets a correction at -(c-1) times the
    strength; these 2-qubit gates are packed into parallel rounds by
    the circle method or maximum-matching peeling, stopping once the
    rounds reach the pair graph's largest degree (a lower bound), with
    each pair set scheduled once per process,
  * each GMS is followed by its conjugate parasitic-term canceller.

Inhomogeneous instances replace each k-qubit block with k(k-1)/2
homogeneous sub-blocks sandwiched between Z-pi flips on qubit masks; the
flips negate the coupling of every pair with exactly one endpoint in the
mask, and solving the resulting +-1 linear system steers each pair to its
own target strength (first-order accurate in the angles).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .counterdiabatic import Schedule
from .gates import Gate, solve_gms_angles, step_angles
from .problem import IsingProblem

__all__ = [
    "Circuit",
    "DepthReport",
    "SynthesisError",
    "synthesis_plan",
    "synthesize",
    "synthesize_homogeneous",
    "synthesize_inhomogeneous",
    "synthesize_digital_baseline",
    "solve_block_inhomogeneity",
    "analytic_depth",
    "coverage_plan",
    "correction_weights",
    "schedule_pairs",
]

_EPS = 1e-14


class SynthesisError(Exception):
    """Raised when a block decomposition cannot meet its targets."""


@dataclass(frozen=True)
class Circuit:
    """Ordered layers of gates; gates within a layer act on disjoint qubits."""

    width: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(tuple(layer) for layer in self.layers)
        )
        for layer in self.layers:
            seen = set()
            for gate in layer:
                if not all(0 <= q < self.width for q in gate.qubits):
                    raise ValueError("gate qubit outside circuit width")
                if seen & set(gate.qubits):
                    raise ValueError("overlapping gates within a layer")
                seen.update(gate.qubits)

    def gates(self):
        for layer in self.layers:
            yield from layer

    def depth_report(self) -> "DepthReport":
        multi = sum(
            1 for layer in self.layers if any(len(g.qubits) > 1 for g in layer)
        )
        single = len(self.layers) - multi
        return DepthReport(
            multiqubit_layers=multi,
            single_qubit_layers=single,
            total=len(self.layers),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "width": self.width,
                "layers": [[g.to_dict() for g in layer] for layer in self.layers],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Circuit":
        doc = json.loads(text)
        return Circuit(
            width=doc["width"],
            layers=tuple(
                tuple(Gate.from_dict(g) for g in layer)
                for layer in doc["layers"]
            ),
        )


@dataclass(frozen=True)
class DepthReport:
    multiqubit_layers: int
    single_qubit_layers: int
    total: int

    def __post_init__(self):
        assert self.total == self.multiqubit_layers + self.single_qubit_layers


# ---------------------------------------------------------------------------
# block coverage plan (homogeneous path)
# ---------------------------------------------------------------------------

def coverage_plan(n: int, k: int):
    """Block families and pair coverage for the homogeneous construction.

    Returns (primary_blocks, supplementary_blocks, pair_coverage) where
    pair_coverage maps every qubit pair (i<j) to the number of blocks
    containing both endpoints.
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    primary = [tuple(range(b, b + k)) for b in range(0, n - k + 1, k)]
    supplementary = []
    if n > k:
        if n >= k * k and n % k == 0:
            stride = n // k
            supplementary = [
                tuple(i + j * stride for j in range(k)) for i in range(stride)
            ]
        else:
            shift = k // 2
            supplementary = [
                tuple((b + shift + i) % n for i in range(k))
                for b in range(0, n - k + 1, k)
            ]
        prim_sets = {frozenset(b) for b in primary}
        supplementary = [
            b for b in supplementary if frozenset(b) not in prim_sets
        ]
    coverage = {}
    for i, j in itertools.combinations(range(n), 2):
        c = 0
        for block in primary + supplementary:
            if i in block and j in block:
                c += 1
        coverage[(i, j)] = c
    return primary, supplementary, coverage


def correction_weights(coverage: dict) -> dict:
    """Relative strength of the 2-qubit gate each pair needs on top of blocks.

    A pair no block covers gets a full-strength gate (+1); a pair covered
    c >= 2 times gets -(c - 1) to cancel the surplus.
    """
    needed = {}
    for pair, c in coverage.items():
        if c == 0:
            needed[pair] = 1.0
        elif c >= 2:
            needed[pair] = -(c - 1.0)
    return needed


def _circle_rounds(pairs, n):
    """Round-robin (circle method) rounds filtered to the wanted pairs."""
    m = n if n % 2 == 0 else n + 1
    ring = list(range(m))
    rounds = []
    want = set(pairs)
    for _ in range(m - 1):
        rnd = []
        for i in range(m // 2):
            a, b = ring[i], ring[m - 1 - i]
            p = (min(a, b), max(a, b))
            if p in want:
                rnd.append(p)
        if rnd:
            rounds.append(sorted(rnd))
        ring = [ring[0]] + [ring[-1]] + ring[1:-1]
    return rounds


def _peel_rounds(pairs, seed):
    rng = np.random.default_rng(seed)
    remaining = set(pairs)
    rounds = []
    while remaining:
        g = nx.Graph()
        for p in remaining:
            g.add_edge(*p, weight=1.0 + 0.01 * rng.random())
        match = nx.max_weight_matching(g, maxcardinality=True)
        rnd = sorted((min(a, b), max(a, b)) for a, b in match)
        rounds.append(rnd)
        remaining -= set(rnd)
    return rounds


def schedule_pairs(pairs, n: int, seed: int = 0, trials: int = 12):
    """Pack pairs into parallel rounds (disjoint qubits per round).

    Deterministic: tries the circle method, then up to ``trials`` seeded
    matching-peeling passes (seeds ``seed``, ``seed + 1``, ...), and keeps
    the shortest schedule found, the earliest on a tie.  Every round is a
    matching, so no schedule is shorter than the largest degree of the
    pair graph; the passes stop once the best schedule reaches that bound,
    which returns the schedule running every pass would.  Schedules are
    cached per process by pair set, ``n``, ``seed`` and ``trials``; each
    call returns fresh round lists.
    """
    rounds = _schedule(tuple(sorted(set(pairs))), n, seed, trials)
    return [list(rnd) for rnd in rounds]


@functools.lru_cache(maxsize=64)
def _schedule(pairs, n, seed, trials):
    """Rounds of ``schedule_pairs`` for sorted distinct ``pairs``, as tuples."""
    if not pairs:
        return ()
    max_degree = np.bincount(np.ravel(pairs)).max()
    best = _circle_rounds(pairs, n)
    for t in range(trials):
        if len(best) == max_degree:
            break
        cand = _peel_rounds(pairs, seed + t)
        if len(cand) < len(best):
            best = cand
    return tuple(tuple(rnd) for rnd in best)


# ---------------------------------------------------------------------------
# layer assembly helpers
# ---------------------------------------------------------------------------

def _stage_layers(gate_groups):
    """Interleave per-slot gate groups into parallel layers.

    ``gate_groups`` is a list of gate lists, one per disjoint qubit slot
    (e.g. one per block).  Layer r collects the r-th gate of every group,
    so main gates and cancellers line up across slots.
    """
    depth = max((len(g) for g in gate_groups), default=0)
    layers = []
    for r in range(depth):
        layer = [g[r] for g in gate_groups if len(g) > r]
        if layer:
            layers.append(layer)
    return layers


def _rotation_layers(rotations):
    """One single-qubit layer per (axis, per-qubit angles), skipping zeros."""
    layers = []
    for axis, thetas in rotations:
        layer = [
            Gate("1q", (q,), theta=theta, axis=axis)
            for q, theta in enumerate(thetas)
            if abs(theta) >= _EPS
        ]
        if layer:
            layers.append(layer)
    return layers


def synthesize_homogeneous(
    problem: IsingProblem, schedule: Schedule, block_size: int
) -> Circuit:
    """Algorithmic digital-analog circuit for a homogeneous instance.

    Every pair shares the angles of the first stored coupling and every
    qubit those of qubit 0's field.
    """
    if not problem.is_homogeneous():
        raise ValueError(
            "instance is not homogeneous; use synthesize_inhomogeneous"
        )
    n = problem.n_qubits
    if not 2 <= block_size <= n:
        raise ValueError("need 2 <= block_size <= n_qubits")
    pair = next(iter(problem.couplings), None)
    if pair is not None:
        primary, supplementary, coverage = coverage_plan(n, block_size)
        needed = correction_weights(coverage)
        rounds = schedule_pairs(needed, n)
    layers = []
    for step in range(1, schedule.trotter_steps + 1):
        ang = step_angles(problem, schedule, step)
        a, b = (ang.xx[pair], ang.xy[pair]) if pair is not None else (0.0, 0.0)
        if abs(a) >= _EPS or abs(b) >= _EPS:
            for family in (primary, supplementary):
                groups = [solve_gms_angles(a, b, block) for block in family]
                layers.extend(_stage_layers(groups))
            for rnd in rounds:
                groups = [
                    solve_gms_angles(needed[p] * a, needed[p] * b, p)
                    for p in rnd
                ]
                layers.extend(_stage_layers(groups))
        layers.extend(
            _rotation_layers(
                (axis, [theta] * n)
                for axis, theta in (("x", ang.x[0]), ("z", ang.z), ("y", ang.y[0]))
            )
        )
    return Circuit(width=n, layers=tuple(layers))


# ---------------------------------------------------------------------------
# inhomogeneous path
# ---------------------------------------------------------------------------

def _flip_masks(k: int):
    """Qubit masks for the k(k-1)/2 sign-flip sandwiches of one block.

    Candidate masks (singletons, then pairs, then triples) are added
    greedily whenever they increase the rank of the per-pair sign matrix,
    so the resulting square system is invertible by construction.
    """
    n_pairs = k * (k - 1) // 2
    pairs = list(itertools.combinations(range(k), 2))
    candidates = [frozenset([q]) for q in range(k)]
    candidates += [frozenset(p) for p in pairs]
    candidates += [frozenset(t) for t in itertools.combinations(range(k), 3)]
    masks, cols = [], []
    for m in candidates:
        col = [(-1.0) ** len(set(p) & m) for p in pairs]
        trial = np.array(cols + [col]).T
        if np.linalg.matrix_rank(trial) > len(cols):
            masks.append(m)
            cols.append(col)
        if len(masks) == n_pairs:
            break
    if len(masks) != n_pairs:
        raise SynthesisError(f"no invertible flip-mask family for k={k}")
    return masks


def _sign_matrix(k: int, masks):
    pairs = list(itertools.combinations(range(k), 2))
    M = np.array(
        [
            [(-1.0) ** len(set(p) & m) for m in masks]
            for p in pairs
        ]
    )
    return pairs, M


def solve_block_inhomogeneity(k: int, target_xx: dict, target_xy: dict):
    """Per-sub-block (mask, a_m, b_m) steering each pair to its target.

    ``target_xx``/``target_xy`` map local pairs (i<j, indices 0..k-1) to
    the wanted XX and XY+YX strengths.  Solves the +-1 sign system for the
    XX weight a_m and the XY+YX weight b_m of the sub-block flipped by
    ``mask``; ``solve_gms_angles(a_m, b_m, qubits)`` turns each into gates.
    The parasitic YY of each sub-block is cancelled inside its own flip
    sandwich by a conjugate gate (the flips change XX/XY/YX/YY signs
    identically, so one system serves all channels).
    """
    if not 2 <= k <= 6:
        raise ValueError("block inhomogeneity supported for k in 2..6")
    masks = _flip_masks(k)
    pairs, M = _sign_matrix(k, masks)
    if abs(np.linalg.det(M)) < 1e-9:
        raise SynthesisError(f"sign system singular for k={k}")
    x = np.array([target_xx.get(p, 0.0) for p in pairs])
    y = np.array([target_xy.get(p, 0.0) for p in pairs])
    a = np.linalg.solve(M, x)
    b = np.linalg.solve(M, y)
    if np.abs(M @ a - x).max() > 1e-9 or np.abs(M @ b - y).max() > 1e-9:
        raise SynthesisError("inconsistent targets beyond numerical tolerance")
    return list(zip(masks, a, b))


def _block_sandwich_layers(block, sub_solutions):
    """Layers of one inhomogeneous block-set family.

    ``block`` lists qubit index tuples (disjoint sets), ``sub_solutions``
    the per-set solve_block_inhomogeneity output, aligned by sub-block
    index so independent sets run their m-th sub-block in parallel.
    """
    layers = []
    n_sub = max((len(s) for s in sub_solutions), default=0)
    for m in range(n_sub):
        flips, groups = [], []
        for qubits, subs in zip(block, sub_solutions):
            if m >= len(subs):
                continue
            mask, am, bm = subs[m]
            if abs(am) < _EPS and abs(bm) < _EPS:
                continue
            flips.extend(
                Gate("1q", (qubits[q],), theta=math.pi / 2, axis="z")
                for q in sorted(mask)
            )
            groups.append(solve_gms_angles(am, bm, qubits))
        if not groups:
            continue
        if flips:
            layers.append(list(flips))
        layers.extend(_stage_layers(groups))
        if flips:
            layers.append(list(flips))
    return layers


def synthesize_inhomogeneous(
    problem: IsingProblem, schedule: Schedule, block_size: int
) -> Circuit:
    """Digital-analog circuit with per-pair couplings and per-qubit fields.

    Pairs inside each consecutive k-set are realized by the sign-flip
    sub-block construction; pairs spanning different sets (or involving
    trailing qubits that fill no complete set) get their own 2-qubit GMS
    with pair-specific angles, packed into matching rounds once for the
    whole circuit.
    """
    n = problem.n_qubits
    k = block_size
    if not 2 <= k <= 6:
        raise ValueError("block_size must be in 2..6")
    Jmat = problem.coupling_matrix()
    sets = [tuple(range(b, b + k)) for b in range(0, n - k + 1, k)] if k > 2 else []
    local_pairs = list(itertools.combinations(range(k), 2))
    in_set = {(s[a], s[b]) for s in sets for a, b in local_pairs}
    cross_pairs = sorted(
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if (i, j) not in in_set and abs(Jmat[i, j]) > 0
    )
    rounds = schedule_pairs(cross_pairs, n)
    layers = []
    for step in range(1, schedule.trotter_steps + 1):
        ang = step_angles(problem, schedule, step)
        # in-set couplings via sign-flip sub-blocks
        live_sets = []
        solutions = []
        for s in sets:
            tx = {(a, b): ang.xx[s[a], s[b]] for a, b in local_pairs}
            ty = {(a, b): ang.xy[s[a], s[b]] for a, b in local_pairs}
            if all(abs(v) < _EPS for v in tx.values()) and all(
                abs(v) < _EPS for v in ty.values()
            ):
                continue
            live_sets.append(s)
            solutions.append(solve_block_inhomogeneity(k, tx, ty))
        layers.extend(_block_sandwich_layers(live_sets, solutions))
        # cross-set couplings as per-pair 2-qubit gates; a pair whose
        # angles vanish this step emits nothing
        for rnd in rounds:
            groups = [solve_gms_angles(ang.xx[p], ang.xy[p], p) for p in rnd]
            layers.extend(_stage_layers(groups))
        layers.extend(
            _rotation_layers((("x", ang.x), ("z", [ang.z] * n), ("y", ang.y)))
        )
    return Circuit(width=n, layers=tuple(layers))


# ---------------------------------------------------------------------------
# digital baseline
# ---------------------------------------------------------------------------

def _xx_layer(rnd, theta):
    """Native XX gates exp(-i theta[p] X X) for the pairs of one round."""
    return [
        Gate("gms", p, theta=2.0 * theta[p], phi=0.0)
        for p in rnd
        if abs(theta[p]) >= _EPS
    ]


def synthesize_digital_baseline(
    problem: IsingProblem, schedule: Schedule
) -> Circuit:
    """Purely digital circuit using native 2-qubit XX gates.

    Per trotter step, term order XX -> X -> Z -> YX -> XY -> Y.  The YX
    and XY factors are XX gates conjugated by z-rotations on the qubit
    whose Pauli changes to Y, which adds a single-qubit layer before and
    after each 2-qubit round.
    """
    n = problem.n_qubits
    Jmat = problem.coupling_matrix()
    pairs = sorted(p for p in itertools.combinations(range(n), 2)
                   if abs(Jmat[p]) > 0)
    rounds = schedule_pairs(pairs, n)
    layers = []
    for step in range(1, schedule.trotter_steps + 1):
        ang = step_angles(problem, schedule, step)
        # XX
        for rnd in rounds:
            layer = _xx_layer(rnd, ang.xx)
            if layer:
                layers.append(layer)
        # X, Z
        layers.extend(_rotation_layers((("x", ang.x), ("z", [ang.z] * n))))
        # YX then XY: conjugate the rotated qubit (first for YX, second for XY)
        for which in (0, 1):
            for rnd in rounds:
                layer = _xx_layer(rnd, ang.xy)
                if not layer:
                    continue
                # exp(-i theta Y X) = V exp(-i theta X X) V^dag with
                # V = exp(-i pi/4 Z) on the rotated qubit; V^dag executes first
                conj = [
                    Gate("1q", (g.qubits[which],), theta=-math.pi / 4, axis="z")
                    for g in layer
                ]
                unconj = [
                    Gate("1q", (g.qubits[which],), theta=math.pi / 4, axis="z")
                    for g in layer
                ]
                layers.append(conj)
                layers.append(layer)
                layers.append(unconj)
        # Y
        layers.extend(_rotation_layers((("y", ang.y),)))
    return Circuit(width=n, layers=tuple(layers))


# ---------------------------------------------------------------------------
# path choice
# ---------------------------------------------------------------------------

SYNTHESIS_PATHS = ("auto", "homogeneous", "inhomogeneous", "digital")


def synthesis_plan(problem: IsingProblem, block_size: int, path: str = "auto"):
    """The synthesis path and effective block size for ``problem``.

    ``auto`` picks the homogeneous construction iff the instance is
    homogeneous and the sign-flip one otherwise; ``digital`` picks the
    baseline, which has no block size (None).  The block size is clamped
    to 2..N, and to at most 6 on the inhomogeneous path.  Forcing the
    homogeneous path on an inhomogeneous instance raises ValueError.
    """
    if path not in SYNTHESIS_PATHS:
        raise ValueError(f"unknown synthesis path {path!r}")
    if path == "digital":
        return path, None
    homogeneous = problem.is_homogeneous()
    if path == "auto":
        path = "homogeneous" if homogeneous else "inhomogeneous"
    elif path == "homogeneous" and not homogeneous:
        raise ValueError(
            "instance is not homogeneous; use the inhomogeneous or digital path"
        )
    k = max(2, min(block_size, problem.n_qubits))
    if path == "inhomogeneous":
        k = min(k, 6)
    return path, k


def synthesize(
    problem: IsingProblem, schedule: Schedule, block_size: int,
    path: str = "auto",
) -> Circuit:
    """Synthesize along the path and block size ``synthesis_plan`` picks."""
    path, k = synthesis_plan(problem, block_size, path)
    if path == "digital":
        return synthesize_digital_baseline(problem, schedule)
    if path == "homogeneous":
        return synthesize_homogeneous(problem, schedule, k)
    return synthesize_inhomogeneous(problem, schedule, k)


# ---------------------------------------------------------------------------
# analytic depth models
# ---------------------------------------------------------------------------

def analytic_depth(n: int, k: int, variant: str = "homogeneous", m: int = 0) -> float:
    """Closed-form per-trotter-step depth.

    homogeneous              : 9 + 2 (N-k)(N-k+1) / N
    programmable_xx          : 6 + 2 (N-4)(N-3) / N
    programmable_xx_nonlocal : 6 + 2 [(N-4)(N-3) - 6M] / N
    """
    if n < k or k < 2:
        raise ValueError("need N >= k >= 2")
    if variant == "homogeneous":
        return 9.0 + 2.0 * (n - k) * (n - k + 1) / n
    if variant == "programmable_xx":
        return 6.0 + 2.0 * (n - 4) * (n - 3) / n
    if variant == "programmable_xx_nonlocal":
        bracket = (n - 4) * (n - 3) - 6 * m
        if bracket < 0:
            raise ValueError("M too large: negative remaining-pair count")
        return 6.0 + 2.0 * bracket / n
    raise ValueError(f"unknown variant {variant!r}")

