"""Timing spans and counters around dacqo's public functions.

The wrappers are installed from outside the package: each target function
is looked up once, and every ``dacqo`` module attribute that refers to it
(``from .synthesis import schedule_pairs`` creates one binding per
importing module) is rebound to the wrapper.  CLI commands are wrapped at
their click callback.

Two kinds of wrapping exist.  *Capture* targets (the synthesizers and
``simulator.run``) are wrapped for the whole process, because their return
values are outputs the benchmark checks (circuit depth, device runtime,
gate applications); they are called a handful of times per pass.  Every
other target is wrapped only while tracing is on, so untraced passes run
the program's own functions.

Spans are kept in memory as (name, start, end, parent) and written out
when the benchmark ends.  A layer's self time is its span durations minus
the part covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

_now = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``layer`` is the metric prefix.  ``key`` maps the call arguments to a
    hashable value for ``repeat_frac``; ``count`` adds per-call counters
    from the arguments and result.
    """

    module: str
    attr: str
    layer: str
    key: Optional[Callable] = None
    count: Optional[Callable] = None


def _problem_key(problem):
    return (
        problem.n_qubits,
        tuple(sorted(problem.couplings.items())),
        problem.fields.tobytes(),
    )


def _kernel_count(args, kwargs, result, counters):
    n = args[3] if len(args) > 3 else kwargs["n"]
    # one read and one write of the 2^n complex128 state; labelled computed
    counters["kernels.bytes_computed"] += 2 * (1 << n) * 16


def _schedule_count(args, kwargs, result, counters):
    pairs = set(args[0])
    if not pairs:
        return
    degree = collections.Counter()
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    counters["synthesis.schedule_pairs.rounds_sum"] += len(result)
    counters["synthesis.schedule_pairs.max_degree_sum"] += max(degree.values())


def _run_count(args, kwargs, result, counters):
    circuit = args[0]
    gates = sum(len(layer) for layer in circuit.layers)
    counters["simulator.trajectories"] += result.trajectories
    counters["simulator.gate_apps"] += gates * result.trajectories


TARGETS = (
    Target("dacqo._kernels", "apply_unitary", "kernels.apply_unitary",
           count=_kernel_count),
    Target("dacqo.simulator", "run", "simulator.run", count=_run_count),
    Target("dacqo.simulator", "perturb_analog_block",
           "simulator.perturb_analog_block"),
    Target("dacqo.simulator", "_measure_success", "simulator.measure_success"),
    Target("dacqo.simulator", "circuit_unitary", "simulator.circuit_unitary"),
    Target("dacqo.simulator", "trotter_reference_unitary",
           "simulator.trotter_reference_unitary"),
    Target("dacqo.gates", "gate_unitary", "gates.gate_unitary",
           key=lambda args, kwargs: args[0]),
    Target("dacqo.synthesis", "schedule_pairs", "synthesis.schedule_pairs",
           key=lambda args, kwargs: (tuple(sorted(set(args[0]))), args[1:],
                                     tuple(sorted(kwargs.items()))),
           count=_schedule_count),
    Target("dacqo.synthesis", "synthesize_homogeneous",
           "synthesis.synthesize_homogeneous"),
    Target("dacqo.synthesis", "synthesize_inhomogeneous",
           "synthesis.synthesize_inhomogeneous"),
    Target("dacqo.synthesis", "synthesize_digital_baseline",
           "synthesis.synthesize_digital_baseline"),
    Target("dacqo.synthesis", "solve_block_inhomogeneity",
           "synthesis.solve_block_inhomogeneity"),
    Target("dacqo.counterdiabatic", "alpha1_analytic",
           "counterdiabatic.alpha1_analytic",
           key=lambda args, kwargs: (_problem_key(args[0]), args[1])),
    Target("dacqo.counterdiabatic", "alpha1_oracle",
           "counterdiabatic.alpha1_oracle"),
    Target("dacqo.counterdiabatic", "exact_evolution",
           "counterdiabatic.exact_evolution"),
    Target("dacqo.counterdiabatic", "rotated_full_hamiltonian",
           "counterdiabatic.rotated_full_hamiltonian"),
    Target("dacqo.problem", "brute_force_ground_state",
           "problem.brute_force_ground_state"),
    Target("dacqo.hardware", "enhancement_factor",
           "hardware.enhancement_factor"),
    Target("dacqo.hardware", "circuit_runtime", "hardware.circuit_runtime"),
)

# click commands whose callbacks are wrapped as cli.<name> spans
CLI_COMMANDS = ("solve", "fidelity-sweep", "scaling", "emit-circuit")

SYNTHESIZERS = ("synthesis.synthesize_homogeneous",
                "synthesis.synthesize_inhomogeneous",
                "synthesis.synthesize_digital_baseline")
# wrapped for the whole process: their results are checked outputs
CAPTURED = SYNTHESIZERS + ("simulator.run",)


class Spans:
    """Append-only span store: parallel arrays, one entry per call."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]

    def name_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def open(self, lid: int) -> int:
        idx = len(self.name)
        self.name.append(lid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()

    def __len__(self):
        return len(self.name)

    def busy_and_self(self):
        """Per-layer (busy seconds, self seconds, calls) over all spans."""
        child = collections.defaultdict(float)
        busy = collections.defaultdict(float)
        calls = collections.Counter()
        for i in range(len(self.name)):
            d = self.end[i] - self.start[i]
            lid = self.name[i]
            busy[lid] += d
            calls[lid] += 1
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        self_s = collections.defaultdict(float)
        for i in range(len(self.name)):
            self_s[self.name[i]] += (self.end[i] - self.start[i]) - child[i]
        return {
            self.names[lid]: (busy[lid], self_s[lid], calls[lid]) for lid in busy
        }

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                f.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )


class Instrument:
    """Installs wrappers around TARGETS and the CLI command callbacks."""

    def __init__(self):
        self.tracing = False
        self.spans = Spans()
        self.counters: collections.Counter = collections.Counter()
        self.seen: dict = collections.defaultdict(set)
        self.repeats: collections.Counter = collections.Counter()
        self.keyed_calls: collections.Counter = collections.Counter()
        self.circuits: list = []  # every Circuit synthesized in the pass
        self.run_seconds = 0.0  # host time inside simulator.run calls
        self.originals: dict = {}
        self._bindings: dict = {}
        self._wrappers: dict = {}
        modules = [m for name, m in sys.modules.items()
                   if name == "dacqo" or name.startswith("dacqo.")]
        for t in TARGETS:
            fn = getattr(sys.modules[t.module], t.attr)
            self.originals[t.layer] = fn
            self._bindings[t.layer] = [
                (m, name) for m in modules for name, v in vars(m).items()
                if v is fn
            ]
            self._wrappers[t.layer] = self._wrap(t, fn)
        cli = sys.modules["dacqo.cli"]
        for name in CLI_COMMANDS:
            cmd = cli.main.commands[name]
            layer = f"cli.{name}"
            self.originals[layer] = cmd.callback
            self._bindings[layer] = [(cmd, "callback")]
            self._wrappers[layer] = self._wrap(Target("", "", layer),
                                               cmd.callback)
        self._bind()

    def _bind(self) -> None:
        for layer, places in self._bindings.items():
            on = self.tracing or layer in CAPTURED
            fn = self._wrappers[layer] if on else self.originals[layer]
            for obj, name in places:
                setattr(obj, name, fn)

    def set_tracing(self, on: bool) -> None:
        self.tracing = on
        self._bind()

    def begin_pass(self) -> None:
        """Reset the per-pass state: counters, repeat sets, captures."""
        self.counters.clear()
        self.seen.clear()
        self.repeats.clear()
        self.keyed_calls.clear()
        self.circuits = []
        self.run_seconds = 0.0

    def _wrap(self, target: Target, fn):
        spans = self.spans
        lid = spans.name_id(target.layer)
        layer = target.layer
        key, count = target.key, target.count
        capture_circuit = layer in SYNTHESIZERS
        timed = layer == "simulator.run"
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not inst.tracing:
                t0 = _now()
                result = fn(*args, **kwargs)
                if timed:
                    inst.run_seconds += _now() - t0
                    count(args, kwargs, result, inst.counters)
                if capture_circuit:
                    inst.circuits.append(result)
                return result
            if key is not None:
                k = key(args, kwargs)
                inst.keyed_calls[layer] += 1
                if k in inst.seen[layer]:
                    inst.repeats[layer] += 1
                else:
                    inst.seen[layer].add(k)
            idx = spans.open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(idx)
            if timed:
                inst.run_seconds += spans.end[idx] - spans.start[idx]
            if count is not None:
                count(args, kwargs, result, inst.counters)
            if capture_circuit:
                inst.circuits.append(result)
            return result

        return wrapper
