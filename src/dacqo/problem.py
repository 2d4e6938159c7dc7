"""Ising / QUBO problem instances and exact ground-truth oracles.

The optimization target is the classical Ising energy

    E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i,    s_i in {+1, -1}.

Spin configurations and basis indices follow the convention stated in
``dacqo.paulis``: bit 0 is spin +1, bit 1 spin -1, qubit 0 most significant.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
import types
from dataclasses import dataclass, field

import numpy as np

from .paulis import _bit_weights

__all__ = [
    "IsingProblem",
    "GroundTruth",
    "Graph",
    "brute_force_ground_state",
    "mis_to_ising",
    "random_spin_glass",
]

_BRUTE_FORCE_CAP = 24


@dataclass(frozen=True, eq=False)
class IsingProblem:
    """A 2-local Ising instance.

    Two instances are equal, and hash alike, exactly when N, the
    couplings, the bytes of the fields and the offset are the same, so an
    instance can key a cache of data derived from it.  The key is formed
    once, so ``couplings`` and ``fields`` are read-only copies of the
    values given.  An instance pickles and copies as a rebuild from them.

    Parameters
    ----------
    n_qubits : int
        Number of spins N.
    couplings : dict[(int, int), float]
        Pair couplings J_ij keyed by (i, j) with i < j; kept as a
        read-only mapping.
    fields : np.ndarray
        Local fields h_i, length N.
    offset : float
        Constant energy shift (e.g. from a QUBO -> Ising change of
        variables); reported energies may add it back.
    """

    n_qubits: int
    couplings: dict = field(default_factory=dict)
    fields: np.ndarray = None
    offset: float = 0.0

    def __post_init__(self):
        n = self.n_qubits
        _check_count("n_qubits", n)
        fields = np.zeros(n) if self.fields is None \
            else np.array([_number(h, "field") for h in self.fields])
        fields.setflags(write=False)
        object.__setattr__(self, "fields", fields)
        if len(self.fields) != n:
            raise ValueError("fields length must equal n_qubits")
        if not np.all(np.isfinite(self.fields)):
            raise ValueError("fields must be finite")
        if not math.isfinite(_number(self.offset, "offset")):
            raise ValueError("offset must be finite")
        clean = {}
        for (i, j), v in self.couplings.items():
            i, j = _check_index(i, n), _check_index(j, n)
            if i == j:
                raise ValueError(f"self-coupling ({i},{i}) not allowed")
            key = (i, j) if i < j else (j, i)
            if key in clean:
                raise ValueError(f"duplicate coupling for pair {key}")
            v = _number(v, "coupling")
            if not math.isfinite(v):
                raise ValueError(f"coupling {key} is not finite")
            clean[key] = v
        object.__setattr__(self, "couplings", types.MappingProxyType(clean))
        # bytes: Python keeps their hashes, and they are exact (0.0 and
        # -0.0 differ, as they do in the fields)
        pairs = sorted(clean)
        values = [clean[p] for p in pairs] + [self.offset]
        object.__setattr__(self, "_key", (
            self.n_qubits,
            np.array(pairs, dtype=np.int64).tobytes(),
            np.array(values, dtype=float).tobytes(),
            fields.tobytes(),
        ))

    def __eq__(self, other):
        if not isinstance(other, IsingProblem):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        # a mappingproxy can be neither pickled nor copied
        return IsingProblem, (self.n_qubits, dict(self.couplings), self.fields,
                              self.offset)

    def is_homogeneous(self) -> bool:
        """True iff every pair i<j has the same coupling and all fields match.

        A pair with no stored coupling counts as 0, so a uniform-weight
        graph that is not complete is not homogeneous.  Values compare
        exactly: the homogeneous path realizes every pair at the first
        coupling, so any difference would be dropped.
        """
        js = self.coupling_matrix()[np.triu_indices(self.n_qubits, 1)]
        j_ok = js.size == 0 or np.all(js == js[0])
        h_ok = np.all(self.fields == self.fields[0])
        return bool(j_ok and h_ok)

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric dense N x N matrix of couplings (zero diagonal)."""
        J = np.zeros((self.n_qubits, self.n_qubits))
        for (i, j), v in self.couplings.items():
            J[i, j] = J[j, i] = v
        return J

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n_qubits,
                "J": [[i, j, v] for (i, j), v in sorted(self.couplings.items())],
                "h": list(self.fields),
                "offset": self.offset,
            }
        )

    @staticmethod
    def from_json(text: str) -> "IsingProblem":
        doc = _json_object(text, "problem", ("n", "J", "h", "offset"))
        try:
            n = _size(doc.get("n"))
            couplings = {}
            for i, j, v in doc.get("J", []):
                if (i, j) in couplings:
                    raise ValueError(f"pair {(i, j)} appears twice")
                couplings[i, j] = v
            return IsingProblem(n, couplings, doc.get("h"),
                                doc.get("offset", 0.0))
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed problem file: {e}") from e


@dataclass(frozen=True)
class GroundTruth:
    """Exact optimum of an Ising instance.

    ``bitstrings`` holds every optimal spin configuration as a tuple of
    +1/-1 values.
    """

    energy: float
    bitstrings: frozenset


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected node-weighted graph for independent-set instances.

    ``weights`` is a read-only copy of the values given.  Graphs compare
    and hash by identity.
    """

    n_nodes: int
    edges: frozenset
    weights: np.ndarray = None

    def __post_init__(self):
        n = self.n_nodes
        _check_count("n_nodes", n, least=0)
        weights = np.ones(n) if self.weights is None \
            else np.array([_number(w, "weight") for w in self.weights])
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        if len(self.weights) != n:
            raise ValueError("weights length must equal n_nodes")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("node weights must be finite")
        if np.any(self.weights < 0):
            raise ValueError("node weights must be nonnegative")
        clean = set()
        for i, j in self.edges:
            i, j = _check_index(i, n), _check_index(j, n)
            if i == j:
                raise ValueError("self-loops not allowed")
            key = (min(i, j), max(i, j))
            if key in clean:
                raise ValueError(f"duplicate edge {key}")
            clean.add(key)
        object.__setattr__(self, "edges", frozenset(clean))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n_nodes,
                "edges": [list(e) for e in sorted(self.edges)],
                "weights": list(self.weights),
            }
        )

    @staticmethod
    def from_json(text: str) -> "Graph":
        doc = _json_object(text, "graph", ("n", "edges", "weights"))
        try:
            return Graph(_size(doc.get("n")), doc.get("edges", []),
                         doc.get("weights"))
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed graph file: {e}") from e


def _json_object(text: str, kind: str, keys) -> dict:
    """Parse an input file: one JSON object whose keys are among ``keys``.

    Text that is not JSON, a key given twice in one object, a document
    that is not an object and a top-level key outside ``keys`` or with a
    null value each raise ValueError naming ``kind`` and the key, so no
    key is silently dropped, overwritten or taken for absent.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as e:
        raise ValueError(f"{kind} file: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file must hold a JSON object")
    for key, value in doc.items():
        if key not in keys:
            raise ValueError(
                f"{kind} file: unknown key {key!r}; keys are {', '.join(keys)}"
            )
        if value is None:
            raise ValueError(f"{kind} file: key {key!r} is null")
    return doc


def _unique_keys(pairs) -> dict:
    """Object hook of the JSON parser: reject a key given twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _check_count(name: str, value, least=1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least`` (not a bool).

    With ``least`` None every integer passes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_index(v, n: int) -> int:
    """``v`` as an int; ValueError unless it is an integer in [0, n) (not a
    bool), so a numpy integer is stored as the Python int it equals."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
            or not 0 <= v < n:
        raise ValueError(f"index {v!r} is not an integer in [0, {n})")
    return int(v)


def _size(v) -> int:
    """The ``"n"`` of a problem or graph file: an integer that fits an index."""
    _check_count('"n"', v, least=None)
    if v > sys.maxsize:
        raise ValueError(f'"n" = {v} does not fit an index')
    return v


def _number(v, what: str) -> float:
    """A real number, not a boolean or a string, as the nearest float."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{what} {v!r} is not a number")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} is too large for a float") from None


def _spins(indices: np.ndarray, n: int) -> np.ndarray:
    """Spin table: row r holds the +/-1 spins of basis index ``indices[r]``."""
    return 1 - 2 * ((indices[:, None] & _bit_weights(n)) != 0)


def all_energies(problem: IsingProblem) -> np.ndarray:
    """Vector of Ising energies over all 2^N basis states.

    Entry b is the energy of the spins of basis index b.  This is exactly
    the diagonal of the dense problem Hamiltonian.
    """
    n = problem.n_qubits
    spins = _spins(np.arange(2**n), n)
    e = spins @ problem.fields
    for (i, j), v in problem.couplings.items():
        e = e + v * spins[:, i] * spins[:, j]
    return e.astype(float)


def brute_force_ground_state(problem: IsingProblem) -> GroundTruth:
    """Exhaustive minimum over all 2^N assignments; ties retained."""
    n = problem.n_qubits
    if n > _BRUTE_FORCE_CAP:
        raise CapabilityError(
            f"brute force capped at {_BRUTE_FORCE_CAP} qubits, got {n}"
        )
    energies = all_energies(problem)
    best = energies.min()
    winners = np.flatnonzero(np.isclose(energies, best, rtol=0, atol=1e-12))
    bits = map(tuple, _spins(winners, n).tolist())
    return GroundTruth(energy=float(best), bitstrings=frozenset(bits))


class CapabilityError(Exception):
    """Raised when an input exceeds a documented size cap."""


def mis_to_ising(graph: Graph, penalty: float = None) -> IsingProblem:
    """Encode maximum (weighted) independent set as an Ising instance.

    Maximizing sum_i w_i x_i subject to x_i x_j = 0 on edges becomes
    minimizing -sum w_i x_i + penalty * sum_{(i,j) in E} x_i x_j over
    binary x, then x_i = (1 - s_i)/2 turns it into spin J/h form.
    The constant shift is stored in ``offset``.
    """
    w = graph.weights
    heaviest = float(w.max(initial=0.0))
    if penalty is None:
        # 2 where every weight is 0: any positive penalty exceeds them
        penalty = 2.0 * heaviest or 2.0
    penalty = _number(penalty, "penalty")
    if not (math.isfinite(penalty) and penalty > heaviest):
        raise ValueError(f"penalty {penalty} must be finite and exceed max "
                         f"node weight {heaviest}")
    n = graph.n_nodes
    h = w / 2.0
    J = {}
    offset = -float(w.sum()) / 2.0
    for i, j in graph.edges:
        J[(i, j)] = penalty / 4.0
        h[i] -= penalty / 4.0
        h[j] -= penalty / 4.0
        offset += penalty / 4.0
    return IsingProblem(n_qubits=n, couplings=J, fields=h, offset=offset)


def independent_set_from_spins(spins) -> set:
    """Nodes selected by a spin configuration (spin -1 <-> x=1 <-> chosen)."""
    return {i for i, s in enumerate(spins) if s == -1}


def random_spin_glass(n: int, seed: int, mode: str = "homogeneous") -> IsingProblem:
    """Seeded all-to-all spin glass in one of three weight classes.

    homogeneous      : J_ij = 1, h_i = 1
    mixed            : |J|, |h| drawn from {0.5, 1.0}
    fully_nonuniform : J, h ~ Uniform(0.1, 1.0)
    """
    _check_count("n", n)
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    if mode == "homogeneous":
        J = {p: 1.0 for p in pairs}
        h = np.ones(n)
    elif mode == "mixed":
        choices = np.array([0.5, 1.0])
        J = {p: float(rng.choice(choices)) for p in pairs}
        h = rng.choice(choices, size=n)
    elif mode == "fully_nonuniform":
        J = {p: float(rng.uniform(0.1, 1.0)) for p in pairs}
        h = rng.uniform(0.1, 1.0, size=n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return IsingProblem(n_qubits=n, couplings=J, fields=np.asarray(h, float))


def random_graph(n: int, seed: int, edge_prob: float = 0.35,
                 weight_mode: str = "unweighted") -> Graph:
    """Seeded Erdos-Renyi graph with one of three node-weight classes.

    unweighted       : all weights 1
    mixed            : weights from {0.5, 1.0}
    fully_nonuniform : weights ~ Uniform(0.1, 1.0)
    """
    _check_count("n", n, least=0)
    if not 0 <= _number(edge_prob, "edge_prob") <= 1:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    edges = {
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < edge_prob
    }
    if weight_mode == "unweighted":
        w = np.ones(n)
    elif weight_mode == "mixed":
        w = rng.choice(np.array([0.5, 1.0]), size=n)
    elif weight_mode == "fully_nonuniform":
        w = rng.uniform(0.1, 1.0, size=n)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    return Graph(n_nodes=n, edges=frozenset(edges), weights=w)
