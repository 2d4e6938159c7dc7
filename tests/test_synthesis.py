import collections
import hashlib
import itertools
import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dacqo._matching import _arrays, _Matcher, max_weight_matching
from dacqo.counterdiabatic import Schedule, exact_evolution
from dacqo.gates import Gate
from dacqo.paulis import pauli_on, phase_distance
from dacqo.problem import (
    IsingProblem,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)
from dacqo.simulator import circuit_unitary
from dacqo.synthesis import (
    Circuit,
    SynthesisError,
    SYNTHESIS_PATHS,
    _circle_rounds,
    _flip_sandwich,
    _peel_rounds,
    _sign_system,
    _stage_layers,
    analytic_depth,
    correction_weights,
    coverage_plan,
    schedule_pairs,
    solve_block_inhomogeneity,
    synthesis_plan,
    synthesize,
    synthesize_digital_baseline,
    synthesize_homogeneous,
    synthesize_inhomogeneous,
)


@dataclass(frozen=True)
class _ConstantSchedule(Schedule):
    """lambda and lambda_dot held at fixed values over the whole schedule."""

    value: float = 0.5
    velocity: float = 0.0

    def lam(self, t):
        return self.value

    def lam_dot(self, t):
        return self.velocity


class TestCircuit:
    def test_rejects_overlapping_layer(self):
        with pytest.raises(ValueError):
            Circuit(2, [[Gate("1q", (0,), 1.0, axis="x"),
                         Gate("1q", (0,), 1.0, axis="z")]])

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            Circuit(2, [[Gate("gms", (1, 2), 1.0)]])

    def test_depth_report_counts(self):
        c = Circuit(3, [
            [Gate("gms", (0, 1), 0.1)],
            [Gate("1q", (q,), 0.2, axis="x") for q in range(3)],
            [Gate("gms", (1, 2), 0.1)],
        ])
        rep = c.depth_report()
        assert (rep.multiqubit_layers, rep.single_qubit_layers, rep.total) == (2, 1, 3)

    def test_json_round_trip(self):
        p = random_spin_glass(4, 3, "homogeneous")
        c = synthesize_homogeneous(p, Schedule(1.0, 2), 2)
        d = Circuit.from_json(c.to_json())
        assert d.width == c.width
        assert d.layers == c.layers


class TestCoveragePlan:
    def test_primary_blocks_consecutive(self):
        primary, _, _ = coverage_plan(8, 4)
        assert primary == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_strided_supplementary_for_square_sizes(self):
        _, supp, _ = coverage_plan(16, 4)
        assert (0, 4, 8, 12) in supp and len(supp) == 4

    def test_coverage_counts_all_pairs(self):
        _, _, cov = coverage_plan(8, 4)
        assert set(cov) == set(itertools.combinations(range(8), 2))
        assert cov[(0, 1)] >= 1  # inside the first primary block

    def test_single_block_covers_everything(self):
        _, supp, cov = coverage_plan(4, 4)
        assert supp == []
        assert all(c == 1 for c in cov.values())

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            coverage_plan(4, 5)

    @pytest.mark.parametrize("n, k, name", [
        (8.0, 4, "n"), (1, 2, "n"), (True, 2, "n"),
        (8, 4.0, "k"), (8, 1, "k"), (8, "4", "k"),
    ])
    def test_counts_are_integers(self, n, k, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            coverage_plan(n, k)

    def test_coverage_matches_testing_every_pair_in_every_block(self):
        # blocks x qubits incidence: entry (i, j) of B^T B counts the
        # blocks holding both i and j, for every pair and every block
        for n in range(2, 65):
            for k in range(2, min(n, 10) + 1):
                primary, supp, cov = coverage_plan(n, k)
                blocks = primary + supp
                B = np.zeros((len(blocks), n), dtype=int)
                for r, block in enumerate(blocks):
                    B[r, list(block)] = 1
                both = B.T @ B
                assert cov == {
                    (i, j): both[i, j]
                    for i, j in itertools.combinations(range(n), 2)
                }, (n, k)


@st.composite
def _pair_sets(draw):
    """(n, pairs) with 2 <= n <= 20, each pair kept with a drawn probability."""
    n = draw(st.integers(2, 20))
    density = draw(st.integers(1, 10)) / 10
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    every = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(every)) < density
    return n, [p for p, k in zip(every, keep) if k]


@st.composite
def _weighted_graphs(draw):
    """(order, edges) on 2 <= n <= 24 vertices with distinct float weights.

    ``order`` is the vertex insertion order, ``edges`` the (i, j, weight)
    list in edge insertion order.  Graphs are empty, complete or random
    (some vertices isolated); weights are the peel's ``1 + 0.01 r`` or
    spread over six decades.
    """
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "complete", "random", "empty"]))
    every = list(itertools.combinations(range(n), 2))
    if shape == "empty":
        edges = []
    elif shape == "complete":
        edges = every
    else:
        density = draw(st.integers(1, 9)) / 10
        edges = [p for p, k in zip(every, rng.random(len(every)) < density) if k]
    edges = [edges[e] for e in rng.permutation(len(edges))]
    if draw(st.booleans()):
        weights = 1.0 + 0.01 * rng.random(len(edges))
    else:
        weights = 10.0 ** rng.uniform(-3, 3, len(edges))
    assert len(set(weights.tolist())) == len(edges)
    order = rng.permutation(n).tolist()
    return order, [(i, j, w) for (i, j), w in zip(edges, weights.tolist())]


def _nx_peel_rounds(pairs, seed):
    """The peel as networkx ran it: a Graph per round, one draw per edge."""
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


def _labelled_graph(labels, seed):
    """(order, edges): the complete graph on ``labels``, peel weights."""
    every = list(itertools.combinations(labels, 2))
    weights = 1.0 + 0.01 * np.random.default_rng(seed).random(len(every))
    return list(labels), [(i, j, w) for (i, j), w in zip(every, weights.tolist())]


def _peel_weighted(pairs, seed):
    """(order, edges): the graph of ``pairs``, peel weights."""
    weights = 1.0 + 0.01 * np.random.default_rng(seed).random(len(pairs))
    order = list(dict.fromkeys(v for p in pairs for v in p))
    return order, [(i, j, w) for (i, j), w in zip(pairs, weights.tolist())]


# even orders without a perfect matching, so a greedy-started run cannot
# certify its result and the matcher runs again from uniform duals
_TWO_TRIANGLES = _peel_weighted([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6)
_STAR_AND_EDGE = _peel_weighted([(0, 1), (0, 2), (0, 3), (4, 5)], 7)
# a tree on which the greedy-started run ends with the matching
# {(0, 5), (1, 2)} of weight 5: two edges, but not the heaviest two
_LIGHT_GREEDY_TREE = ([0, 5, 1, 2, 3, 4], [
    (0, 5, 1.0), (1, 2, 4.0), (2, 3, 9.0), (2, 4, 8.0), (4, 5, 4.0)])


def _greedy_matcher(edges):
    """A greedy-started ``_Matcher`` on ``(i, j, weight)`` edges."""
    return _Matcher(*_arrays([(i, j) for i, j, _ in edges],
                             np.array([w for _, _, w in edges])), greedy=True)


class TestMatching:
    """The array blossom matcher against networkx's, the test oracle."""

    @given(_weighted_graphs())
    @example(([], []))
    @example(([0], []))
    @example(([3, 0, 2, 1, 4], []))
    @example((list(range(7)), [(i, j, 1.0 + (i * 7 + j) / 100)
                               for i, j in itertools.combinations(range(7), 2)]))
    # vertices that are not 0..m-1: sparse, negative and non-integer labels
    @example(([90, -4, 7, 1000, 13], [(90, 7, 1.5), (7, -4, 2.25),
                                      (1000, 13, 0.5), (-4, 1000, 3.0),
                                      (13, 90, 1.25)]))
    @example(_labelled_graph([3 * v + 11 for v in range(9)], 4))
    @example(_labelled_graph(["q%d" % v for v in range(6)], 5))
    # the largest arrays: complete graphs on 40 vertices
    @example(_labelled_graph(range(40), 0))
    @example(_labelled_graph(range(79, -1, -2), 1))
    # even orders without a perfect matching: the uniform-dual run decides
    @example(_TWO_TRIANGLES)
    @example(_STAR_AND_EDGE)
    @example(_LIGHT_GREEDY_TREE)
    # an even-order regular graph: the Petersen graph, 3-regular on 10
    @example(_peel_weighted(sorted(nx.petersen_graph().edges), 2))
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_same_edges_as_networkx(self, drawn):
        order, edges = drawn
        g = nx.Graph()
        g.add_nodes_from(order)
        for i, j, w in edges:
            g.add_edge(i, j, weight=w)
        pairs = [(i, j) for i, j, _ in edges]
        got = max_weight_matching(pairs, [w for _, _, w in edges])
        want = nx.max_weight_matching(g, maxcardinality=True)
        assert {frozenset(e) for e in got} == {frozenset(e) for e in want}
        assert len(got) == len(want)
        assert got <= set(pairs)
        matched = [v for e in got for v in e]
        assert len(matched) == len(set(matched))

    @given(_weighted_graphs())
    @example(_labelled_graph(range(40), 0))
    @example(_TWO_TRIANGLES)
    @example(([0, 1, 2, 3], [(0, 1, -2.0), (1, 2, -0.5), (2, 3, -3.0),
                             (0, 3, 1.5)]))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_greedy_start_is_feasible_with_matched_edges_tight(self, drawn):
        _, edges = drawn
        if not edges:
            return
        matcher = _greedy_matcher(edges)
        m, w2, mate = matcher.m, matcher.w2, matcher.mate
        dual = matcher.dual[:m]
        slack = dual[:, None] + dual - w2   # twice the slack; +inf off edges
        tol = 1e-12 * np.abs(w2[np.isfinite(w2)]).max()
        assert slack.min() >= -tol
        matched = np.flatnonzero(mate >= 0)
        assert (mate[mate[matched]] == matched).all()
        assert np.abs(slack[matched, mate[matched]]).max(initial=0.0) <= tol

    def test_greedy_start_certifies_only_a_perfect_matching(self):
        # where the greedy-started stages leave a vertex exposed, their
        # matching may be lighter than the best of its cardinality
        for _, edges in (_TWO_TRIANGLES, _STAR_AND_EDGE, _LIGHT_GREEDY_TREE):
            matcher = _greedy_matcher(edges)
            assert 2 * len(matcher.run()) < matcher.m
        # edge ids 0 and 1: (0, 5) and (1, 2); networkx's is (2, 3), (4, 5)
        assert sorted(_greedy_matcher(_LIGHT_GREEDY_TREE[1]).run()) == [0, 1]

    def test_rejects_weights_of_another_length(self):
        with pytest.raises(ValueError, match="2 edges"):
            max_weight_matching([(0, 1), (1, 2)], [1.0])

    def test_peel_of_the_n32_k4_corrections(self):
        pairs = sorted(correction_weights(coverage_plan(32, 4)[2]))
        assert len(pairs) == 400
        for seed in (0, 1):
            assert _peel_rounds(pairs, seed) == _nx_peel_rounds(pairs, seed)

    @given(_pair_sets(), st.integers(0, 4))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_peel_matches_networkx(self, drawn, seed):
        _, pairs = drawn
        assert _peel_rounds(pairs, seed) == _nx_peel_rounds(pairs, seed)


def _schedule_every_trial(pairs, n, seed, trials=12):
    """The circle method then every peel trial, keeping the strictly shortest.

    It peels with ``_peel_rounds`` itself; ``TestMatching`` checks that
    peel against networkx.
    """
    pairs = sorted(set(pairs))
    if not pairs:
        return []
    best = _circle_rounds(pairs, n)
    for t in range(trials):
        cand = _peel_rounds(pairs, seed + t)
        if len(cand) < len(best):
            best = cand
    return best


class TestSchedulePairs:
    def test_rounds_are_disjoint(self):
        pairs = list(itertools.combinations(range(7), 2))
        for rnd in schedule_pairs(pairs, 7):
            qubits = [q for p in rnd for q in p]
            assert len(qubits) == len(set(qubits))

    def test_covers_every_pair_once(self):
        pairs = [(0, 3), (1, 2), (0, 1), (2, 3), (0, 2)]
        rounds = schedule_pairs(pairs, 4)
        flat = [p for rnd in rounds for p in rnd]
        assert sorted(flat) == sorted(pairs)

    def test_complete_graph_on_six_needs_five_rounds(self):
        pairs = list(itertools.combinations(range(6), 2))
        assert len(schedule_pairs(pairs, 6)) == 5

    def test_empty(self):
        assert schedule_pairs([], 4) == []

    def test_deterministic(self):
        pairs = list(itertools.combinations(range(9), 2))
        assert schedule_pairs(pairs, 9) == schedule_pairs(pairs, 9)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match=r"pair \(0, 0\)"):
            schedule_pairs([(0, 0)], 2)

    def test_rejects_descending_pair(self):
        with pytest.raises(ValueError, match=r"pair \(3, 1\)"):
            schedule_pairs([(3, 1)], 4)

    def test_rejects_both_orientations(self):
        with pytest.raises(ValueError, match=r"pair \(1, 0\)"):
            schedule_pairs([(0, 1), (1, 0)], 2)

    def test_rejects_qubit_out_of_range(self):
        with pytest.raises(ValueError, match=r"pair \(0, 5\)"):
            schedule_pairs([(0, 5)], 4)

    @given(_pair_sets())
    @example((1, []))
    @example((20, list(itertools.combinations(range(20), 2))))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_matches_running_every_trial(self, drawn):
        n, pairs = drawn
        want = _schedule_every_trial(pairs, n, 0)
        rounds = schedule_pairs(pairs, n)
        assert rounds == want
        for rnd in rounds:
            qubits = [q for p in rnd for q in p]
            assert len(qubits) == len(set(qubits))
        assert sorted(p for rnd in rounds for p in rnd) == sorted(pairs)
        degree = collections.Counter(q for p in pairs for q in p)
        assert len(rounds) >= max(degree.values(), default=0)
        # a caller that edits its schedule leaves the next call's alone
        rounds.append([(0, 1)])
        for rnd in rounds:
            rnd.clear()
        assert schedule_pairs(pairs, n) == want


class TestHomogeneousSynthesis:
    def test_rejects_inhomogeneous_instance(self):
        p = random_spin_glass(4, 0, "fully_nonuniform")
        with pytest.raises(ValueError):
            synthesize_homogeneous(p, Schedule(1.0, 1), 2)

    def test_depth_within_analytic_ceiling(self):
        for n in (4, 8, 12, 16, 20, 24):
            p = random_spin_glass(n, 0, "homogeneous")
            c = synthesize_homogeneous(p, Schedule(1.0, 1), 4)
            ceiling = math.ceil(analytic_depth(n, 4, "homogeneous"))
            assert c.depth_report().total <= ceiling, n

    def test_matches_digital_when_cd_vanishes(self):
        # with lambda_dot = 0 both paths realize exp(-i theta sum XX)
        # times the same rotation layers, exactly (XX terms all commute)
        p = IsingProblem(4, {pr: 1.0 for pr in
                             itertools.combinations(range(4), 2)},
                         [1.0] * 4)
        sch = _ConstantSchedule(0.3, 1)
        da = circuit_unitary(synthesize_homogeneous(p, sch, 4))
        dig = circuit_unitary(synthesize_digital_baseline(p, sch))
        assert phase_distance(da, dig) < 1e-10

    def test_block_size_validation(self):
        p = random_spin_glass(4, 0, "homogeneous")
        with pytest.raises(ValueError):
            synthesize_homogeneous(p, Schedule(1.0, 1), 5)


def _signs_from_masks(pairs, masks):
    """M[p, m] = (-1)^|p & mask_m|, built from the masks alone."""
    return np.array([[(-1.0) ** len(set(p) & m) for m in masks] for p in pairs])


def _sandwich_circuit(k, subs):
    """The flip sandwich of one k-qubit block, packed factor by factor."""
    factors = _flip_sandwich([tuple(range(k))], [subs])
    return Circuit(k, [layer for f in factors for layer in _stage_layers(f)])


class TestFlipMasks:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_full_rank(self, k):
        pairs, masks, M = _sign_system(k)
        assert pairs == tuple(itertools.combinations(range(k), 2))
        assert len(masks) == k * (k - 1) // 2
        own = _signs_from_masks(pairs, masks)
        assert abs(np.linalg.det(own)) > 1e-9
        np.testing.assert_array_equal(M, own)

    def test_sign_matrix_is_read_only(self):
        M = _sign_system(4)[2]
        assert M.flags.c_contiguous
        with pytest.raises(ValueError):
            M[0, 0] = 0.0


class TestBlockInhomogeneity:
    def test_sign_system_residual(self):
        eps = 1e-3
        tx = {(0, 1): eps, (0, 2): eps, (1, 2): -eps}
        subs = solve_block_inhomogeneity(3, tx, {})
        masks = [m for m, _, _ in subs]
        pairs = list(itertools.combinations(range(3), 2))
        M = _signs_from_masks(pairs, masks)
        a = np.array([am for _, am, _ in subs])
        x = np.array([tx[p] for p in pairs])
        assert np.abs(M @ a - x).max() < 1e-12

    def test_sub_block_unitary_matches_target(self):
        eps = 1e-3
        tx = {(0, 1): eps, (0, 2): -0.5 * eps, (1, 2): 0.7 * eps}
        ty = {(0, 1): 0.4 * eps, (0, 2): 0.2 * eps, (1, 2): -0.3 * eps}
        subs = solve_block_inhomogeneity(3, tx, ty)
        u = circuit_unitary(_sandwich_circuit(3, subs))
        G = np.zeros((8, 8), dtype=complex)
        for (i, j), v in tx.items():
            G = G + v * pauli_on(3, {i: "X", j: "X"})
        for (i, j), v in ty.items():
            G = G + v * (pauli_on(3, {i: "X", j: "Y"})
                         + pauli_on(3, {i: "Y", j: "X"}))
        assert phase_distance(u, expm(-1j * G)) < 1e-5

    @pytest.mark.parametrize("k", range(2, 7))
    def test_error_is_second_order_in_the_angles(self, k):
        # the construction is first-order accurate, so its distance to
        # exp(-iG) scales as eps^2 and falls by 4 when eps halves
        pairs = list(itertools.combinations(range(k), 2))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1, 1, len(pairs))
            y = rng.uniform(-1, 1, len(pairs))
            dist = []
            for eps in (4e-3, 2e-3):
                tx = dict(zip(pairs, eps * x))
                ty = dict(zip(pairs, eps * y))
                subs = solve_block_inhomogeneity(k, tx, ty)
                u = circuit_unitary(_sandwich_circuit(k, subs))
                G = sum(v * pauli_on(k, {i: "X", j: "X"})
                        for (i, j), v in tx.items())
                G = G + sum(v * (pauli_on(k, {i: "X", j: "Y"})
                                 + pauli_on(k, {i: "Y", j: "X"}))
                            for (i, j), v in ty.items())
                dist.append(phase_distance(u, expm(-1j * G)))
            assert 3.7 <= dist[0] / dist[1] <= 4.3, (seed, dist)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            solve_block_inhomogeneity(7, {}, {})


class TestInhomogeneousSynthesis:
    def test_agrees_with_homogeneous_at_small_angles(self):
        # both constructions realize the same per-pair targets; their
        # composition orders differ only at second order in the angles
        p = IsingProblem(4, {pr: 1.0 for pr in
                             itertools.combinations(range(4), 2)},
                         [1.0] * 4)
        sch = _ConstantSchedule(2e-3, 1, velocity=0.1)
        hom = circuit_unitary(synthesize_homogeneous(p, sch, 2))
        inh = circuit_unitary(synthesize_inhomogeneous(p, sch, 2))
        assert phase_distance(hom, inh) < 1e-6

    def test_block_of_four_handles_nonuniform_couplings(self):
        p = random_spin_glass(8, 5, "fully_nonuniform")
        sch = Schedule(0.5, 2)
        c = synthesize_inhomogeneous(p, sch, 4)
        assert c.width == 8
        assert any(g.kind == "gms" for g in c.gates())

    def test_block_size_bounds(self):
        p = random_spin_glass(8, 0, "fully_nonuniform")
        with pytest.raises(ValueError):
            synthesize_inhomogeneous(p, Schedule(1.0, 1), 7)


class TestDigitalBaseline:
    def test_entangling_round_structure(self):
        # per step: 5 XX rounds, each counterdiabatic channel (YX, XY)
        # adds 5 rounds wrapped in basis-change layers, plus X/Z/Y layers
        p = IsingProblem(6, {pr: 1.0 for pr in
                             itertools.combinations(range(6), 2)},
                         [1.0] * 6)
        c = synthesize_digital_baseline(p, Schedule(1.0, 1))
        rep = c.depth_report()
        assert rep.multiqubit_layers == 15
        assert rep.single_qubit_layers == 3 + 2 * 2 * 5

    def test_only_two_qubit_entanglers(self):
        p = random_spin_glass(5, 2, "fully_nonuniform")
        c = synthesize_digital_baseline(p, Schedule(1.0, 2))
        for g in c.gates():
            if g.kind != "1q":
                assert len(g.qubits) == 2 and g.phi == 0.0


class TestAnalyticDepth:
    def test_homogeneous_example(self):
        assert analytic_depth(8, 4, "homogeneous") == pytest.approx(14.0)

    def test_programmable_example(self):
        assert analytic_depth(8, 4, "programmable_xx") == pytest.approx(11.0)

    def test_nonlocal_reduces_to_local_at_m_zero(self):
        for n in (8, 12, 20):
            assert analytic_depth(n, 4, "programmable_xx_nonlocal", m=0) == (
                pytest.approx(analytic_depth(n, 4, "programmable_xx"))
            )

    def test_nonlocal_negative_bracket(self):
        with pytest.raises(ValueError):
            analytic_depth(8, 4, "programmable_xx_nonlocal", m=4)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            analytic_depth(8, 4, "bogus")

    @pytest.mark.parametrize("n, k, m, name", [
        (8.5, 4, 0, "n"), (1, 2, 0, "n"), (8, 2.5, 0, "k"), (8, 1, 0, "k"),
        (8, True, 0, "k"), (8, 4, -3, "m"), (8, 4, 0.5, "m"),
    ])
    def test_counts_are_integers(self, n, k, m, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            analytic_depth(n, k, "programmable_xx_nonlocal", m)


def _ring(n=4, J=1.0, h=1.0):
    return IsingProblem(n, {(i, (i + 1) % n) if i + 1 < n else (0, n - 1): J
                            for i in range(n)}, [h] * n)


# the path/block-size choice each call site made before synthesis_plan
# existed, written out as reference rules
def _solve_rule(p, k):
    k = max(2, min(k, p.n_qubits))
    return ("homogeneous", k) if p.is_homogeneous() else ("inhomogeneous", min(k, 6))


def _emit_rule(p, k, path):
    if path == "digital":
        return ("digital", None)
    k = max(2, min(k, p.n_qubits))
    if path == "homogeneous" or (path == "auto" and p.is_homogeneous()):
        return ("homogeneous", k)
    return ("inhomogeneous", min(k, 6))


def _sweep_rule(p, k):
    return ("homogeneous" if p.is_homogeneous() else "inhomogeneous", k)


def _enhancement_rule(p, k):
    if p.is_homogeneous() and k <= p.n_qubits:
        return ("homogeneous", k)
    return ("inhomogeneous", k)


class TestSynthesisPlan:
    PROBLEMS = (
        random_spin_glass(4, 0, "homogeneous"),
        random_spin_glass(8, 0, "homogeneous"),
        random_spin_glass(6, 1, "mixed"),
        random_spin_glass(16, 2, "fully_nonuniform"),
        _ring(),
    )

    @pytest.mark.parametrize("p", PROBLEMS, ids=[
        "homogeneous4", "homogeneous8", "mixed6", "nonuniform16", "ring4"])
    def test_reproduces_call_site_rules(self, p):
        for k in range(0, 10):
            assert synthesis_plan(p, k) == _solve_rule(p, k)
            for path in ("auto", "inhomogeneous", "digital"):
                assert synthesis_plan(p, k, path) == _emit_rule(p, k, path)
            if p.is_homogeneous():
                assert synthesis_plan(p, k, "homogeneous") == \
                    _emit_rule(p, k, "homogeneous")
            # the sweep and enhancement_factor passed k through unclamped;
            # inside the clamp range the choice is unchanged
            hom = p.is_homogeneous()
            if 2 <= k <= p.n_qubits and (hom or k <= 6):
                assert synthesis_plan(p, k) == _sweep_rule(p, k)
            if 2 <= k <= min(6, p.n_qubits):
                assert synthesis_plan(p, k) == _enhancement_rule(p, k)

    def test_forced_homogeneous_on_inhomogeneous_raises(self):
        with pytest.raises(ValueError, match="not homogeneous"):
            synthesis_plan(_ring(), 4, "homogeneous")

    def test_nearly_equal_couplings_are_inhomogeneous(self):
        # within np.allclose's tolerance, but the homogeneous path would
        # realize the third pair at 1000 instead of 1000.009
        p = IsingProblem(3, {(0, 1): 1000.0, (0, 2): 1000.0,
                             (1, 2): 1000.009}, [1.0] * 3)
        assert synthesis_plan(p, 3) == ("inhomogeneous", 3)
        with pytest.raises(ValueError, match="not homogeneous"):
            synthesize(p, Schedule(1.0, 1), 3, path="homogeneous")

    def test_unknown_path(self):
        with pytest.raises(ValueError, match="unknown synthesis path"):
            synthesis_plan(_ring(), 4, "telepathic")

    @pytest.mark.parametrize("path", ["auto", "homogeneous", "inhomogeneous"])
    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_rejects_a_block_size_that_is_not_an_integer(self, path, k):
        for p in (random_spin_glass(6, 0, "homogeneous"),
                  random_spin_glass(6, 0, "fully_nonuniform")):
            if path == "homogeneous" and not p.is_homogeneous():
                continue
            with pytest.raises(ValueError, match="block_size must be an integer"):
                synthesis_plan(p, k, path)
            with pytest.raises(ValueError, match="block_size must be an integer"):
                synthesize(p, Schedule(1.0, 1), k, path)

    def test_digital_path_takes_its_own_plan_back(self):
        # the baseline has no block size: the plan's None goes back in
        p = random_spin_glass(6, 0, "fully_nonuniform")
        path, k = synthesis_plan(p, 4, "digital")
        assert k is None
        assert synthesize(p, Schedule(1.0, 1), k, path) == \
            synthesize_digital_baseline(p, Schedule(1.0, 1))

    @pytest.mark.parametrize("path", SYNTHESIS_PATHS)
    def test_one_qubit_rejected_on_every_path(self, path):
        p = IsingProblem(1, {}, [1.0])
        with pytest.raises(ValueError, match="N=1"):
            synthesis_plan(p, 4, path)
        with pytest.raises(ValueError, match="N=1"):
            synthesize(p, Schedule(1.0, 1), 4, path)

    def test_synthesize_follows_plan(self):
        p = random_spin_glass(6, 1, "mixed")
        sch = Schedule(1.0, 2)
        assert synthesize(p, sch, 9).to_json() == \
            synthesize_inhomogeneous(p, sch, 6).to_json()
        assert synthesize(p, sch, 4, "digital").to_json() == \
            synthesize_digital_baseline(p, sch).to_json()
        h = random_spin_glass(4, 0, "homogeneous")
        assert synthesize(h, sch, 9).to_json() == \
            synthesize_homogeneous(h, sch, 4).to_json()


class TestEdgeInstances:
    def test_ring_follows_exact_evolution(self):
        # a uniform-weight ring is not homogeneous: the homogeneous path
        # would couple every pair (infidelity ~0.48 here)
        p = _ring()
        sch = Schedule(1.0, 40)
        assert synthesis_plan(p, 4) == ("inhomogeneous", 4)
        psi0 = np.zeros(16, dtype=complex)
        psi0[-1] = 1.0
        circ = circuit_unitary(synthesize(p, sch, 4)) @ psi0
        exact = exact_evolution(p, sch, 200) @ psi0
        assert 1.0 - abs(np.vdot(exact, circ)) ** 2 < 0.01

    @pytest.mark.parametrize("path", ["homogeneous", "inhomogeneous", "digital"])
    def test_all_zero_problem_synthesizes(self, path):
        # no couplings, no fields: only the driver's Z rotations remain
        p = IsingProblem(4)
        c = synthesize(p, Schedule(1.0, 3), 4, path)
        assert c.depth_report().total == 3
        assert {g.axis for g in c.gates()} == {"z"}

    @pytest.mark.parametrize("problem", [
        IsingProblem(3), IsingProblem(3, {(0, 1): 0.0}),
    ], ids=["no-terms", "zero-coupling"])
    def test_all_zero_problem_follows_exact_evolution(self, problem):
        # both are products of exp(-i (1 - lambda(t_k)) dt sum Z) on the
        # same midpoint grid; the CD term is off in both
        sch = Schedule(1.0, 6)
        circ = circuit_unitary(synthesize(problem, sch, 2))
        assert phase_distance(exact_evolution(problem, sch, 6), circ) <= 1e-12

    @pytest.mark.parametrize("k, path", [
        (4, "digital"), (2, "inhomogeneous"), (3, "inhomogeneous"),
    ])
    def test_stored_zero_couplings_emit_what_absent_ones_do(self, k, path):
        # 0.0 and -0.0 on pairs in a sign-flip set and across sets
        zeros = {(0, 1): 0.0, (1, 4): -0.0, (2, 5): 0.0, (3, 4): -0.0}
        base = random_spin_glass(6, 0, "fully_nonuniform")
        kept = {p: v for p, v in base.couplings.items() if p not in zeros}
        sch = Schedule(1.0, 3)
        stored = synthesize(IsingProblem(6, {**kept, **zeros}, base.fields),
                            sch, k, path)
        absent = synthesize(IsingProblem(6, kept, base.fields), sch, k, path)
        assert stored.to_json() == absent.to_json()


def _convergence_cases():
    """(instance, k, path) of every path at N = 4 and 6: the auto path on a
    homogeneous instance, the sign-flip path on two spin glasses and an MIS
    graph (also at k = 6 for N = 6), and the digital path on all four."""
    for n in (4, 6):
        homogeneous = random_spin_glass(n, 0, "homogeneous")
        glasses = [random_spin_glass(n, 0, mode)
                   for mode in ("mixed", "fully_nonuniform")]
        mis = mis_to_ising(random_graph(n, 2, 0.5, "fully_nonuniform"))
        yield from ((homogeneous, k, "auto") for k in (2, 3, 4))
        yield from ((p, k, "inhomogeneous") for p in glasses for k in (2, 3, 4))
        yield from ((mis, k, "inhomogeneous") for k in (2, 3))
        if n == 6:
            # k = N: one sign-flip block holds every qubit
            yield from ((p, 6, "inhomogeneous") for p in [*glasses, mis])
        yield from ((p, 2, "digital") for p in [homogeneous, *glasses, mis])


class TestFirstOrderConvergence:
    @pytest.mark.parametrize("problem, k, path", list(_convergence_cases()))
    def test_distance_to_the_step_oracle_halves_per_doubling(
        self, problem, k, path
    ):
        # the circuit and exact_evolution share the midpoint grid of s
        # slices, so only the trotter splitting separates them: O(1/s)
        dist = [
            phase_distance(
                circuit_unitary(synthesize(problem, Schedule(1.0, s), k, path)),
                exact_evolution(problem, Schedule(1.0, s), s),
            )
            for s in (10, 20, 40)
        ]
        for coarse, fine in zip(dist, dist[1:]):
            assert 1.85 <= coarse / fine <= 2.05


class TestCircuitBytes:
    """SHA-256 of ``synthesize(...).to_json()`` for fixed inputs.

    Pins the circuit bytes on each synthesis path, so a change that must
    leave circuits alone (scheduling, angles, layer packing) is checked on
    every test run.
    """

    @pytest.mark.parametrize("problem, steps, k, path, digest", [
        (random_spin_glass(32, 0, "homogeneous"), 1, 4, "auto",
         "d1a526c0482564bca023084db269d776e16cbc170c1d3f2ef509b3008bfa4824"),
        # a 41-round peel of the N=48 correction pairs
        (random_spin_glass(48, 0, "homogeneous"), 1, 4, "auto",
         "33c4ba4cd429b51a9def9b862b7513ecf86bc6162164f65ba9495857ac6f52b4"),
        # the largest routine peel: 1824 correction pairs of largest degree
        # 57 in 57 rounds, every one a perfect matching
        (random_spin_glass(64, 0, "homogeneous"), 1, 4, "auto",
         "2aaca654e6b82469c3e3b32fcd6db6d89778e8b679660a586c01b0bf61b7bc1e"),
        (random_spin_glass(16, 0, "fully_nonuniform"), 10, 4, "inhomogeneous",
         "6ef417a1129910dab8fdd4300ff89ea8fccd008a9e4ca433bcf0d357d4c5126f"),
        (random_spin_glass(16, 0, "fully_nonuniform"), 10, 4, "digital",
         "8f425a82d4bc05b3683fa4f440e0093520c7274db4f5295c080c453dfb4aa1d3"),
        (mis_to_ising(random_graph(14, 0, weight_mode="fully_nonuniform")), 10,
         4, "auto",
         "10e0763fbb533859714be9a2cc135b1087d85840a5cace2a1dfa779233d7aa60"),
        # k=2: no sign-flip sets, every coupling is a cross pair
        (random_spin_glass(8, 1, "mixed"), 3, 2, "inhomogeneous",
         "c1400ef683dfec0717b73453cd18685c399df72dc229144eb39cae6543915c45"),
        # k=6 on 8 qubits: one sign-flip set and 2 trailing qubits
        (random_spin_glass(8, 1, "fully_nonuniform"), 3, 6, "inhomogeneous",
         "1c7c92d5c68517c8c44179baf08796318ae43699adcba4b08bec4ca76cef36d3"),
        # N < k^2: the shifted supplementary block family
        (random_spin_glass(6, 0, "homogeneous"), 3, 4, "auto",
         "b88343434346967584083f38fc5edda8de5feb2e9b9e9cbcb15f13fd705edfbe"),
        # a stored zero coupling and no fields
        (IsingProblem(5, {(0, 1): 0.0, (2, 3): 1.0}), 3, 4, "auto",
         "6957968e20b52a9403b5d505d083d074c472cae0aca53fc7ba145715b1ab94c4"),
        (IsingProblem(5, {(0, 1): 0.0, (2, 3): 1.0}), 3, 4, "digital",
         "5573bc13c78992d0ae783e9680feee283554453819afa257d50489ac1c8e5b16"),
    ], ids=["homogeneous-n32", "homogeneous-n48", "homogeneous-n64",
            "inhomogeneous-n16", "digital-n16", "mis14", "mixed-n8-k2",
            "nonuniform-n8-k6", "homogeneous-n6-shifted", "zero-coupling-auto",
            "zero-coupling-digital"])
    def test_sha256(self, problem, steps, k, path, digest):
        circuit = synthesize(problem, Schedule(1.0, steps), k, path)
        assert hashlib.sha256(circuit.to_json().encode()).hexdigest() == digest

    def test_sha256_of_90_inputs(self):
        # the circuits of N x weight class x k x seed, in that order, on
        # the default path, hashed into one digest
        h = hashlib.sha256()
        for n, mode, k, seed in itertools.product(
            (3, 4, 6, 8, 9),
            ("homogeneous", "mixed", "fully_nonuniform"),
            (2, 3, 4),
            (0, 1),
        ):
            problem = random_spin_glass(n, seed, mode)
            h.update(synthesize(problem, Schedule(1.0, 10), k).to_json().encode())
        assert h.hexdigest() == (
            "e46e38893e8ee280336b88fa98a9cbffa0563ab96f17ccf35b9a64ae2303c62d"
        )
