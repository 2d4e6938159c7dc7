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
    the circle method or by peeling maximum matchings (Edmonds' blossom
    algorithm on array state, ``dacqo._matching``), stopping
    once the rounds reach the pair graph's largest degree (a lower
    bound), with each pair set scheduled once per process,
  * each GMS is followed by its conjugate parasitic-term canceller.

Inhomogeneous instances replace each k-qubit block with k(k-1)/2
homogeneous sub-blocks sandwiched between Z-pi flips on qubit masks; the
flips negate the coupling of every pair with exactly one endpoint in the
mask, and solving the resulting +-1 linear system steers each pair to its
own target strength (first-order accurate in the angles).

Every path builds a circuit the same way: step -> factors -> layers.  A
synthesizer lists one trotter step as an ordered list of factors, each a
list of gate groups on disjoint qubits (blocks with their cancellers, the
flips of a sub-block, pair prescriptions, conjugated XX gates, a rotation
layer).  One step loop evaluates the step's angles once and packs every
factor into parallel layers, the r-th layer holding the r-th gate of each
group.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._matching import max_weight_matching
from .counterdiabatic import Schedule
from .gates import _EPS, Gate, solve_gms_angles, trotter_angles
from .problem import IsingProblem, _check_count

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

# largest block the sign-flip (inhomogeneous) construction takes
_FLIP_BLOCK_CAP = 6
# seeded matching-peeling passes ``schedule_pairs`` tries after the circle method
_PEEL_TRIALS = 12


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
        return DepthReport(multiqubit_layers=multi, single_qubit_layers=single)

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

    @property
    def total(self) -> int:
        return self.multiqubit_layers + self.single_qubit_layers


# ---------------------------------------------------------------------------
# block coverage plan (homogeneous path)
# ---------------------------------------------------------------------------

def coverage_plan(n: int, k: int):
    """Block families and pair coverage for the homogeneous construction.

    Returns (primary_blocks, supplementary_blocks, pair_coverage) where
    pair_coverage maps every qubit pair (i<j) to the number of blocks
    containing both endpoints.  N and k are integers with 2 <= k <= N.
    """
    _check_count("n", n, least=2)
    _check_count("k", k, least=2)
    if k > n:
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
    coverage = dict.fromkeys(itertools.combinations(range(n), 2), 0)
    for block in primary + supplementary:
        # sorted: a supplementary block may wrap around past qubit n - 1
        for pair in itertools.combinations(sorted(block), 2):
            coverage[pair] += 1
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
    """Rounds made by peeling maximum matchings off the pair graph.

    Each round is a maximum-cardinality matching of the pairs still left,
    of greatest weight under weights ``1 + 0.01 r`` with ``r`` drawn
    uniformly from the seeded generator, one per remaining pair in set
    order; the pairs and their weights go to the matcher as they are.
    The weights (almost surely) make that optimum unique, so the seed
    alone picks the round, whatever the matcher's tie-breaking.
    """
    rng = np.random.default_rng(seed)
    remaining = set(pairs)
    rounds = []
    while remaining:
        weights = 1.0 + 0.01 * rng.random(len(remaining))
        rnd = sorted(max_weight_matching(remaining, weights))
        rounds.append(rnd)
        remaining -= set(rnd)
    return rounds


def schedule_pairs(pairs, n: int):
    """Pack pairs into parallel rounds (disjoint qubits per round).

    Deterministic: tries the circle method, then up to 12
    matching-peeling passes seeded 0, 1, ..., 11, and keeps the shortest
    schedule found, the earliest on a tie.  Every round is a matching, so
    no schedule is shorter than the largest degree of the pair graph; the
    passes stop once the best schedule reaches that bound, which returns
    the schedule running every pass would.  Schedules are cached per
    process by pair set and ``n``; each call returns fresh round lists.
    Every pair must be ``(i, j)`` with ``0 <= i < j < n``; any other
    raises ``ValueError``.
    """
    pairs = tuple(sorted(set(pairs)))
    for pair in pairs:
        i, j = pair
        if not 0 <= i < j < n:
            raise ValueError(f"pair {pair} is not (i, j) with 0 <= i < j < n = {n}")
    rounds = _schedule(pairs, n)
    return [list(rnd) for rnd in rounds]


@functools.lru_cache(maxsize=64)
def _schedule(pairs, n):
    """Rounds of ``schedule_pairs`` for sorted distinct ``pairs``, as tuples."""
    if not pairs:
        return ()
    max_degree = np.bincount(np.ravel(pairs)).max()
    best = _circle_rounds(pairs, n)
    for t in range(_PEEL_TRIALS):
        if len(best) == max_degree:
            break
        cand = _peel_rounds(pairs, t)
        if len(cand) < len(best):
            best = cand
    return tuple(tuple(rnd) for rnd in best)


# ---------------------------------------------------------------------------
# step -> factors -> layers
# ---------------------------------------------------------------------------

def _stage_layers(factor):
    """Interleave the gate groups of one factor into parallel layers.

    A factor lists gate groups on disjoint qubits (e.g. one per block).
    Layer r collects the r-th gate of every group, so main gates and
    cancellers line up across groups; an empty factor gives no layers.
    """
    depth = max((len(g) for g in factor), default=0)
    return [[g[r] for g in factor if len(g) > r] for r in range(depth)]


def _circuit(n, problem, schedule, step_factors):
    """Circuit of every trotter step, each packed factor by factor.

    ``step_factors(angles)`` lists one step's factors in execution order;
    this is the only loop over steps and the only place layers are formed.
    """
    layers = []
    for angles in trotter_angles(problem, schedule):
        for factor in step_factors(angles):
            layers.extend(_stage_layers(factor))
    return Circuit(width=n, layers=tuple(layers))


def _rotations(axis, thetas):
    """Factor of one rotation layer: a gate per qubit, skipping zero angles."""
    return [
        [Gate("1q", (q,), theta=theta, axis=axis)]
        for q, theta in enumerate(thetas)
        if abs(theta) >= _EPS
    ]


def _pair_rounds(rounds, xx, xy):
    """One factor per round: each pair's 2-qubit GMS prescription.

    ``xx``/``xy`` map a pair to its angles; a pair whose angles vanish
    emits nothing.
    """
    return [
        [solve_gms_angles(xx[p], xy[p], p) for p in rnd] for rnd in rounds
    ]


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

    def step_factors(ang):
        a, b = (ang.xx[pair], ang.xy[pair]) if pair is not None else (0.0, 0.0)
        if abs(a) >= _EPS or abs(b) >= _EPS:
            for family in (primary, supplementary):
                yield [solve_gms_angles(a, b, block) for block in family]
            yield from _pair_rounds(
                rounds,
                {p: w * a for p, w in needed.items()},
                {p: w * b for p, w in needed.items()},
            )
        for axis, theta in (("x", ang.x[0]), ("z", ang.z), ("y", ang.y[0])):
            yield _rotations(axis, [theta] * n)

    return _circuit(n, problem, schedule, step_factors)


# ---------------------------------------------------------------------------
# inhomogeneous path
# ---------------------------------------------------------------------------

@functools.cache
def _sign_system(k: int):
    """Sign-flip system of one k-qubit block: (pairs, masks, M).

    ``pairs`` are the local pairs i<j and ``masks`` the qubit sets of the
    k(k-1)/2 flip sandwiches; M[p, m] = (-1)^|p & mask_m| is the sign the
    sandwich on mask m gives pair p's coupling.  Candidate masks
    (singletons, then pairs, then triples) are added greedily whenever
    they increase the rank of M, so the square system is invertible by
    construction.  Built once per k; every caller shares the tuples and
    the read-only M.
    """
    pairs = tuple(itertools.combinations(range(k), 2))
    candidates = [
        frozenset(c)
        for size in (1, 2, 3)
        for c in itertools.combinations(range(k), size)
    ]
    masks, cols = [], []
    for m in candidates:
        col = [(-1.0) ** len(set(p) & m) for p in pairs]
        if np.linalg.matrix_rank(np.array(cols + [col]).T) > len(cols):
            masks.append(m)
            cols.append(col)
        if len(masks) == len(pairs):
            break
    if len(masks) != len(pairs):
        raise SynthesisError(f"no invertible flip-mask family for k={k}")
    M = np.ascontiguousarray(np.array(cols).T)
    if abs(np.linalg.det(M)) < 1e-9:
        raise SynthesisError(f"sign system singular for k={k}")
    M.flags.writeable = False
    return pairs, tuple(masks), M


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
    if not 2 <= k <= _FLIP_BLOCK_CAP:
        raise ValueError(
            f"block inhomogeneity supported for k in 2..{_FLIP_BLOCK_CAP}"
        )
    pairs, masks, M = _sign_system(k)
    x = np.array([target_xx.get(p, 0.0) for p in pairs])
    y = np.array([target_xy.get(p, 0.0) for p in pairs])
    a = np.linalg.solve(M, x)
    b = np.linalg.solve(M, y)
    if np.abs(M @ a - x).max() > 1e-9 or np.abs(M @ b - y).max() > 1e-9:
        raise SynthesisError("inconsistent targets beyond numerical tolerance")
    return list(zip(masks, a, b))


def _flip_sandwich(sets, solutions):
    """Factors of the sign-flip sub-blocks of disjoint qubit sets.

    ``solutions`` holds each set's solve_block_inhomogeneity output.  The
    m-th sub-blocks of all sets run in parallel: Z flips, exp(-i pi/2 Z),
    on their masks, the sub-block gates, then the same flips.  A sub-block whose
    weights vanish emits nothing.
    """
    factors = []
    for subs in zip(*solutions):
        flips, groups = [], []
        for qubits, (mask, am, bm) in zip(sets, subs):
            if abs(am) < _EPS and abs(bm) < _EPS:
                continue
            flips += [
                [Gate("1q", (qubits[q],), theta=math.pi / 2, axis="z")]
                for q in sorted(mask)
            ]
            groups.append(solve_gms_angles(am, bm, qubits))
        factors += [flips, groups, flips]
    return factors


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
    if not 2 <= k <= _FLIP_BLOCK_CAP:
        raise ValueError(f"block_size must be in 2..{_FLIP_BLOCK_CAP}")
    sets = [tuple(range(b, b + k)) for b in range(0, n - k + 1, k)] if k > 2 else []
    local_pairs = list(itertools.combinations(range(k), 2))
    in_set = {(s[a], s[b]) for s in sets for a, b in local_pairs}
    rounds = schedule_pairs(
        [p for p, v in problem.couplings.items() if v != 0 and p not in in_set],
        n,
    )

    def step_factors(ang):
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
        yield from _flip_sandwich(live_sets, solutions)
        # cross-set couplings as per-pair 2-qubit gates
        yield from _pair_rounds(rounds, ang.xx, ang.xy)
        for axis, thetas in (("x", ang.x), ("z", [ang.z] * n), ("y", ang.y)):
            yield _rotations(axis, thetas)

    return _circuit(n, problem, schedule, step_factors)


# ---------------------------------------------------------------------------
# digital baseline
# ---------------------------------------------------------------------------

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
    rounds = schedule_pairs([p for p, v in problem.couplings.items() if v != 0], n)

    def step_factors(ang):
        # native XX gates exp(-i theta X X): the pure-XX GMS prescription
        for rnd in rounds:
            yield [solve_gms_angles(ang.xx[p], 0.0, p) for p in rnd]
        yield _rotations("x", ang.x)
        yield _rotations("z", [ang.z] * n)
        # YX then XY: exp(-i theta Y X) = V exp(-i theta X X) V^dag with
        # V = exp(-i pi/4 Z) on the rotated qubit (first for YX, second
        # for XY); V^dag executes first
        for which in (0, 1):
            for rnd in rounds:
                yield [
                    [
                        Gate("1q", (p[which],), theta=-math.pi / 4, axis="z"),
                        *solve_gms_angles(ang.xy[p], 0.0, p),
                        Gate("1q", (p[which],), theta=math.pi / 4, axis="z"),
                    ]
                    for p in rnd
                    if abs(ang.xy[p]) >= _EPS
                ]
        yield _rotations("y", ang.y)

    return _circuit(n, problem, schedule, step_factors)


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
    homogeneous path on an inhomogeneous instance raises ValueError, and
    so does a problem of fewer than 2 qubits, on every path, and a block
    size that is not an integer (a bool is not one) on every path but
    ``digital``, which ignores it.
    """
    if path not in SYNTHESIS_PATHS:
        raise ValueError(f"unknown synthesis path {path!r}")
    if problem.n_qubits < 2:
        raise ValueError(
            f"synthesis needs at least 2 qubits, got N={problem.n_qubits}"
        )
    if path == "digital":
        return path, None
    _check_count("block_size", block_size, least=None)
    homogeneous = problem.is_homogeneous()
    if path == "auto":
        path = "homogeneous" if homogeneous else "inhomogeneous"
    elif path == "homogeneous" and not homogeneous:
        raise ValueError(
            "instance is not homogeneous; use the inhomogeneous or digital path"
        )
    k = max(2, min(block_size, problem.n_qubits))
    if path == "inhomogeneous":
        k = min(k, _FLIP_BLOCK_CAP)
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

    N and k are integers with 2 <= k <= N, and M an integer >= 0.
    """
    _check_count("n", n, least=2)
    _check_count("k", k, least=2)
    _check_count("m", m, least=0)
    if n < k:
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

