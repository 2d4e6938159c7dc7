import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacqo.paulis import pauli_on
from dacqo.problem import (
    CapabilityError,
    Graph,
    IsingProblem,
    all_energies,
    brute_force_ground_state,
    independent_set_from_spins,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)


def classical_energy(problem, spins):
    """Ising energy of a +/-1 spin configuration (offset excluded), term by
    term: the oracle the vectorized energies are checked against."""
    spins = np.asarray(spins)
    e = float(problem.fields @ spins)
    for (i, j), v in problem.couplings.items():
        e += v * spins[i] * spins[j]
    return e


class TestClassicalEnergy:
    def test_single_coupling_aligned(self):
        p = IsingProblem(2, {(0, 1): 1.0})
        assert classical_energy(p, (1, 1)) == 1.0

    def test_single_field(self):
        p = IsingProblem(1, {}, [-2.0])
        assert classical_energy(p, (1,)) == -2.0

    def test_hand_evaluated_triangle(self):
        # J terms: (-1)(-1) + (-1)(+1) + (-1)(+1) = 1 - 1 - 1 = -1
        # h terms: -1 - 1 + 1 = -1
        p = IsingProblem(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, [1, 1, 1])
        assert classical_energy(p, (-1, -1, 1)) == -2.0

    @given(st.integers(0, 2**6 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_dense_diagonal(self, basis_index):
        rng = np.random.default_rng(99)
        n = 6
        p = IsingProblem(
            n,
            {
                (i, j): rng.normal()
                for i, j in itertools.combinations(range(n), 2)
            },
            rng.normal(size=n),
        )
        energy = all_energies(p)[basis_index]
        spins = [1 - 2 * ((basis_index >> (n - 1 - i)) & 1) for i in range(n)]
        assert abs(energy - classical_energy(p, spins)) < 1e-12


class TestBruteForce:
    def test_antiferromagnetic_pair(self):
        truth = brute_force_ground_state(IsingProblem(2, {(0, 1): 1.0}))
        assert truth.energy == -1.0
        assert truth.bitstrings == frozenset({(1, -1), (-1, 1)})

    def test_single_field(self):
        truth = brute_force_ground_state(IsingProblem(1, {}, [-2.0]))
        assert truth.energy == -2.0
        assert truth.bitstrings == frozenset({(1,)})

    def test_matches_min_eigenvalue(self):
        # H_f summed from Pauli strings, independent of all_energies,
        # which brute force is built on
        p = random_spin_glass(4, 7, "fully_nonuniform")
        Hf = sum(v * pauli_on(4, {i: "Z", j: "Z"})
                 for (i, j), v in p.couplings.items())
        Hf = Hf + sum(hi * pauli_on(4, {i: "Z"}) for i, hi in enumerate(p.fields))
        truth = brute_force_ground_state(p)
        evals = np.linalg.eigvalsh(Hf)
        assert abs(truth.energy - evals[0]) < 1e-10

    def test_every_listed_bitstring_is_optimal(self):
        p = random_spin_glass(5, 3, "mixed")
        truth = brute_force_ground_state(p)
        for b in truth.bitstrings:
            assert np.isclose(classical_energy(p, b), truth.energy)

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            brute_force_ground_state(IsingProblem(25))


class TestMisEncoding:
    def test_single_edge_selects_one_node(self):
        g = Graph(2, {(0, 1)}, [1.0, 1.0])
        truth = brute_force_ground_state(mis_to_ising(g, penalty=2.0))
        sets = {frozenset(independent_set_from_spins(b)) for b in truth.bitstrings}
        assert sets == {frozenset({0}), frozenset({1})}

    def test_edgeless_selects_all(self):
        g = Graph(3, set(), [1.0, 1.0, 1.0])
        truth = brute_force_ground_state(mis_to_ising(g))
        assert truth.bitstrings == frozenset({(-1, -1, -1)})

    def test_triangle_three_degenerate_optima(self):
        g = Graph(3, {(0, 1), (1, 2), (0, 2)}, [1.0, 1.0, 1.0])
        truth = brute_force_ground_state(mis_to_ising(g, penalty=2.0))
        assert len(truth.bitstrings) == 3
        for b in truth.bitstrings:
            assert len(independent_set_from_spins(b)) == 1

    def test_offset_recovers_graph_objective(self):
        # optimal ising energy + offset == -(weight of the best set)
        g = random_graph(8, 11, weight_mode="fully_nonuniform")
        p = mis_to_ising(g)
        truth = brute_force_ground_state(p)
        best = max(
            sum(g.weights[i] for i in subset)
            for subset in map(set, _independent_sets(g))
        )
        assert abs(truth.energy + p.offset + best) < 1e-9

    def test_matches_exhaustive_mis(self):
        for seed in range(4):
            g = random_graph(10, seed)
            truth = brute_force_ground_state(mis_to_ising(g))
            exact = max(len(s) for s in _independent_sets(g))
            chosen = independent_set_from_spins(next(iter(truth.bitstrings)))
            assert len(chosen) == exact

    def test_penalty_too_small(self):
        g = Graph(2, {(0, 1)}, [1.0, 3.0])
        with pytest.raises(ValueError):
            mis_to_ising(g, penalty=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "3", True])
    def test_penalty_is_a_finite_number(self, bad):
        # NaN and inf once failed later as "fields must be finite", and a
        # bool ran as the penalty 1
        g = Graph(2, {(0, 1)}, [0.5, 0.5])
        with pytest.raises(ValueError, match="penalty"):
            mis_to_ising(g, bad)

    def test_all_zero_weights_take_a_positive_default_penalty(self):
        # twice the largest weight would be 0, which no penalty may be
        g = Graph(3, {(0, 1), (1, 2)}, [0.0, 0.0, 0.0])
        p = mis_to_ising(g)
        assert p.couplings == {(0, 1): 0.5, (1, 2): 0.5}
        truth = brute_force_ground_state(p)
        # every independent set weighs 0, so each one is optimal
        assert truth.energy + p.offset == 0.0
        assert {frozenset(independent_set_from_spins(b))
                for b in truth.bitstrings} == {
            frozenset(s) for s in _independent_sets(g)}


def _independent_sets(g: Graph):
    for r in range(g.n_nodes + 1):
        for subset in itertools.combinations(range(g.n_nodes), r):
            s = set(subset)
            if all(not (i in s and j in s) for i, j in g.edges):
                yield subset


class TestRandomGraph:
    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, "0.5", True])
    def test_edge_prob_is_a_number_in_the_unit_interval(self, bad):
        # 1.5 once gave the complete graph and NaN the empty one
        with pytest.raises(ValueError, match="edge_prob"):
            random_graph(4, 0, edge_prob=bad)

    def test_edge_prob_bounds_accepted(self):
        assert random_graph(5, 0, edge_prob=0).edges == frozenset()
        assert len(random_graph(5, 0, edge_prob=1.0).edges) == 10
        assert random_graph(5, 0, edge_prob=np.float64(0.35)).edges == \
            random_graph(5, 0).edges


class TestRandomSpinGlass:
    def test_homogeneous_flag(self):
        assert random_spin_glass(4, 0, "homogeneous").is_homogeneous()

    def test_determinism(self):
        a = random_spin_glass(4, 5, "fully_nonuniform")
        b = random_spin_glass(4, 5, "fully_nonuniform")
        assert a.couplings == b.couplings
        assert np.array_equal(a.fields, b.fields)

    def test_mixed_values_from_discrete_set(self):
        p = random_spin_glass(3, 2, "mixed")
        assert all(v in (0.5, 1.0) for v in p.couplings.values())
        assert all(h in (0.5, 1.0) for h in p.fields)

    def test_all_to_all(self):
        p = random_spin_glass(5, 1, "fully_nonuniform")
        assert len(p.couplings) == 10


class TestSerialization:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_problem_round_trip(self, seed):
        p = random_spin_glass(4, seed, "fully_nonuniform")
        q = IsingProblem.from_json(p.to_json())
        assert q.n_qubits == p.n_qubits
        assert q.couplings == p.couplings
        assert np.array_equal(q.fields, p.fields)

    def test_graph_round_trip(self):
        g = random_graph(7, 13, weight_mode="mixed")
        h = Graph.from_json(g.to_json())
        assert h.edges == g.edges
        assert np.array_equal(h.weights, g.weights)


class TestGraphIdentity:
    """Graphs hold a read-only copy of their weights and compare by identity."""

    def test_weights_are_a_read_only_copy(self):
        w = np.array([1.0, 2.0, 0.5])
        g = Graph(3, {(0, 1)}, w)
        w[0] = 7.0
        assert g.weights[0] == 1.0
        assert w.flags.writeable
        for graph in (g, Graph(3, {(0, 1)})):
            assert not graph.weights.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                graph.weights[0] = 7.0

    def test_compare_by_identity(self):
        g = Graph(3, {(0, 1)}, [1.0, 2.0, 0.5])
        assert g == g
        assert g != Graph(3, {(0, 1)}, [1.0, 2.0, 0.5])

    def test_hashable(self):
        g = Graph(3, {(0, 1)}, [1.0, 2.0, 0.5])
        assert hash(g) == hash(g)
        assert {g: "graph"}[g] == "graph"


class TestIdentity:
    """Problems compare and hash by their exact contents."""

    @staticmethod
    def _problems():
        for mode in ("homogeneous", "mixed", "fully_nonuniform"):
            yield random_spin_glass(5, 3, mode)
        yield mis_to_ising(random_graph(6, 2, weight_mode="mixed"))
        yield IsingProblem(1)

    def test_round_trip_is_equal_with_equal_hash(self):
        for p in self._problems():
            q = IsingProblem.from_json(p.to_json())
            assert q is not p
            assert q == p and hash(q) == hash(p)

    def test_reordered_couplings_are_equal(self):
        p = IsingProblem(3, {(0, 1): 1.0, (1, 2): -0.5}, [0.1, 0.2, 0.3])
        q = IsingProblem(3, {(2, 1): -0.5, (1, 0): 1.0}, (0.1, 0.2, 0.3))
        assert q == p and hash(q) == hash(p)

    def test_one_changed_value_is_unequal(self):
        p = IsingProblem(3, {(0, 1): 1.0, (1, 2): -0.5}, [0.1, 0.2, 0.0],
                         offset=2.0)
        changed = [
            IsingProblem(3, {(0, 1): 1.0, (1, 2): -0.25}, p.fields, offset=2.0),
            IsingProblem(3, {(0, 1): 1.0, (0, 2): -0.5}, p.fields, offset=2.0),
            IsingProblem(3, {(0, 1): 1.0}, p.fields, offset=2.0),
            IsingProblem(3, p.couplings, [0.1, 0.25, 0.0], offset=2.0),
            # exact bytes: a signed zero is a different field
            IsingProblem(3, p.couplings, [0.1, 0.2, -0.0], offset=2.0),
            IsingProblem(3, p.couplings, p.fields, offset=2.5),
            IsingProblem(4, p.couplings, [0.1, 0.2, 0.0, 0.0], offset=2.0),
        ]
        assert IsingProblem(3, p.couplings, p.fields, offset=2.0) == p
        for q in changed:
            assert q != p
        assert len({p, *changed}) == 1 + len(changed)
        assert p != p.to_json()

    def test_fields_are_a_read_only_copy(self):
        h = np.array([0.5, -1.0, 0.25])
        p = IsingProblem(3, {(0, 2): 1.0}, h)
        assert not p.fields.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            p.fields[0] = 2.0
        # the caller's array stays writable, and writing it changes nothing
        assert h.flags.writeable
        h[0] = 2.0
        assert p.fields[0] == 0.5
        assert p == IsingProblem(3, {(0, 2): 1.0}, [0.5, -1.0, 0.25])

    def test_couplings_are_a_read_only_copy(self):
        j = {(0, 1): 1.0, (1, 2): -0.5}
        p = IsingProblem(3, j, [0.1, 0.2, 0.3])
        with pytest.raises(TypeError):
            p.couplings[(0, 1)] = 5.0
        with pytest.raises(TypeError):
            del p.couplings[(1, 2)]
        j[(0, 1)] = 5.0
        assert p.couplings == {(0, 1): 1.0, (1, 2): -0.5}
        assert p == IsingProblem(3, {(0, 1): 1.0, (1, 2): -0.5}, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("round_trip", [
        lambda p: pickle.loads(pickle.dumps(p)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_pickle_and_copy_round_trips(self, round_trip):
        p = random_spin_glass(5, 3, "fully_nonuniform")
        p = IsingProblem(p.n_qubits, p.couplings, p.fields, offset=-1.5)
        q = round_trip(p)
        assert q == p and hash(q) == hash(p)
        assert q.couplings == p.couplings and q.offset == p.offset
        np.testing.assert_array_equal(q.fields, p.fields)
        assert not q.fields.flags.writeable
        with pytest.raises(TypeError):
            q.couplings[(0, 1)] = 5.0


class TestValidation:
    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            IsingProblem(2, {(1, 1): 1.0})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            IsingProblem(2, {(0, 1): 1.0, (1, 0): 2.0})

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 0)]],
                             ids=["repeated", "reversed"])
    def test_duplicate_edge_rejected(self, edges):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph(3, edges)

    @pytest.mark.parametrize("build,name", [
        (lambda n: IsingProblem(n), "n_qubits"),
        (lambda n: random_spin_glass(n, 0), "n"),
    ], ids=["IsingProblem", "random_spin_glass"])
    @pytest.mark.parametrize("bad", [2.5, True, 0, -1, 3.0])
    def test_spin_count_is_an_integer_of_at_least_one(self, build, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            build(bad)

    def test_float_spin_count_rejected_with_fields(self):
        # a float N with fields of that length used to construct, and
        # failed at the first use that sized an array by it
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            IsingProblem(3.0, {}, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("build,name", [
        (lambda n: Graph(n, frozenset()), "n_nodes"),
        (lambda n: random_graph(n, 0), "n"),
    ], ids=["Graph", "random_graph"])
    @pytest.mark.parametrize("bad", [-1, -2, 2.0, True])
    def test_node_count_is_an_integer_of_at_least_zero(self, build, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
            build(bad)

    @pytest.mark.parametrize("build", [
        lambda i: IsingProblem(3, {(i, 1): 1.0}),
        lambda i: IsingProblem(3, {(1, i): 1.0}),
        lambda i: Graph(3, [(i, 1)]),
        lambda i: Graph(3, [(1, i)]),
    ], ids=["coupling-first", "coupling-second", "edge-first", "edge-second"])
    @pytest.mark.parametrize("bad", [0.5, 0.0, np.float64(0.0), True, "0",
                                     -1, 3, np.int64(3)])
    def test_index_is_an_integer_in_range(self, build, bad):
        # a float index once built an instance equal to, and sharing every
        # cache with, the instance of its integer part
        with pytest.raises(ValueError, match=r"index .* is not an integer in \[0, 3\)"):
            build(bad)

    @pytest.mark.parametrize("build", [
        lambda v: IsingProblem(2, {(0, 1): v}),
        lambda v: IsingProblem(2, {}, [0.0, v]),
        lambda v: IsingProblem(2, {}, offset=v),
        lambda v: Graph(2, [(0, 1)], [1.0, v]),
    ], ids=["coupling", "field", "offset", "weight"])
    @pytest.mark.parametrize("bad", [True, np.bool_(False), "1", 1j, None])
    def test_values_are_real_numbers(self, build, bad):
        with pytest.raises(ValueError, match="is not a number"):
            build(bad)

    def test_numpy_scalars_accepted(self):
        # numpy indices are kept as the Python ints they equal, so the
        # instances write JSON
        i, j = np.int64(0), np.int32(2)
        p = IsingProblem(3, {(i, j): np.float32(0.5)}, np.ones(3, np.float32),
                         np.float64(1.5))
        assert p == IsingProblem(3, {(0, 2): 0.5}, [1.0, 1.0, 1.0], 1.5)
        assert IsingProblem.from_json(p.to_json()) == p
        g = Graph(3, [(i, j)], np.array([1, 2, 3]))
        assert g.edges == {(0, 2)}
        np.testing.assert_array_equal(g.weights, [1.0, 2.0, 3.0])
        assert Graph.from_json(g.to_json()).edges == g.edges

    @pytest.mark.parametrize("n", [1, 3, np.int64(3)])
    def test_integer_counts_accepted(self, n):
        assert IsingProblem(n).n_qubits == n
        assert random_spin_glass(n, 0).n_qubits == n
        assert Graph(n - 1, frozenset()).n_nodes == n - 1
        assert random_graph(n - 1, 0).n_nodes == n - 1

    def test_all_energies_matches_classical(self):
        p = random_spin_glass(3, 0, "mixed")
        e = all_energies(p)
        for b in range(8):
            spins = [1 - 2 * ((b >> (2 - i)) & 1) for i in range(3)]
            assert np.isclose(e[b], classical_energy(p, spins))


class TestHomogeneity:
    def test_complete_uniform_instance(self):
        pairs = itertools.combinations(range(5), 2)
        assert IsingProblem(5, {p: 0.7 for p in pairs}, [0.2] * 5).is_homogeneous()

    def test_uniform_ring_is_not_homogeneous(self):
        # a missing pair counts as a zero coupling
        ring = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0}
        assert not IsingProblem(4, ring, [1.0] * 4).is_homogeneous()

    def test_unequal_fields(self):
        assert not IsingProblem(2, {(0, 1): 1.0}, [1.0, 0.5]).is_homogeneous()

    def test_no_couplings(self):
        assert IsingProblem(3, {}, [0.4] * 3).is_homogeneous()
        assert IsingProblem(1).is_homogeneous()


class TestFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_problem_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="coupling"):
            IsingProblem(2, {(0, 1): bad})
        with pytest.raises(ValueError, match="fields"):
            IsingProblem(2, {}, [0.0, bad])
        with pytest.raises(ValueError, match="offset"):
            IsingProblem(2, {}, offset=bad)

    def test_graph_rejects_non_finite_weights(self):
        with pytest.raises(ValueError, match="finite"):
            Graph(2, frozenset({(0, 1)}), [1.0, np.nan])
