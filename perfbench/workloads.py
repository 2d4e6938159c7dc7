"""The four benchmark workloads.

Each workload generates its inputs from the workload seed in ``setup``,
runs one pass of its timed phase in ``run_pass`` (returning the bytes or
values the pass produced, which every later pass must reproduce), and
checks the outputs in ``checks``.  ``run_pass`` calls ``step()`` after
each command or library part, so the benchmark can time the parts
separately and re-read the host's speed between them.  W1-W3 call the ``dacqo`` CLI commands
in-process; W4 has no CLI command and calls the library.

Checks hold under any trajectory RNG stream: they compare against
RNG-free references, against bands derived from the trajectory count, or
against the same pass run again with the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import dacqo.cli
import dacqo.counterdiabatic as cd
import dacqo.paulis
import dacqo.problem
import dacqo.simulator
import dacqo.synthesis

from perfbench import reference

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())


class CliError(RuntimeError):
    pass


def cli(args) -> str:
    """Invoke a dacqo command in-process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            dacqo.cli.main(list(args), standalone_mode=False)
        except SystemExit as e:  # _guarded exits with 2/3/4 on failure
            if e.code:
                raise CliError(f"dacqo {args[0]} exited {e.code}") from e
    return out.getvalue()


def derive_seeds(seed: int, stream: int, count: int) -> list:
    """Independent non-negative program seeds for one workload."""
    ss = np.random.SeedSequence([seed, stream])
    return [int(x) for x in ss.generate_state(count) % (2**31 - 1)]


class Workload:
    name = ""
    stream = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.info: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, step):
        raise NotImplementedError

    def checks(self, first_output) -> list:
        """List of (name, ok, detail) for the outputs of the first pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# W1: the success-vs-fidelity experiment at N=4
# ---------------------------------------------------------------------------

class SweepN4(Workload):
    name = "sweep_n4"
    stream = 1
    n, k, steps, T = 4, 4, 10, 1.0
    c_grid = (0.0, 0.02, 0.05, 0.08, 0.12)
    trajectories = 32

    def setup(self):
        (self.cli_seed,) = derive_seeds(self.seed, self.stream, 1)
        self.problem = dacqo.problem.random_spin_glass(
            self.n, self.cli_seed, "homogeneous")
        self.truth = dacqo.problem.brute_force_ground_state(self.problem)
        self.csv = self.dir / "sweep.csv"
        self.args = [
            "fidelity-sweep", "--sizes", str(self.n),
            "--c-grid", ",".join(repr(c) for c in self.c_grid),
            "--mode", "homogeneous", "--k", str(self.k),
            "--steps", str(self.steps), "--t", repr(self.T),
            "--trajectories", str(self.trajectories),
            "--seed", str(self.cli_seed), "--output", str(self.csv),
        ]

    def run_pass(self, step):
        cli(self.args)
        step()
        return self.csv.read_bytes()

    def checks(self, out):
        rows = [line.split(",") for line in out.decode().splitlines()[1:]]
        fid = [float(r[1]) for r in rows]
        succ = [float(r[2]) for r in rows]
        base = float(rows[0][3])
        res = []
        res.append(("sweep.rows", len(rows) == len(self.c_grid),
                    f"{len(rows)} rows"))
        schedule = cd.Schedule(self.T, self.steps)
        circuit = dacqo.synthesis.synthesize_homogeneous(
            self.problem, schedule, self.k)
        u = dacqo.simulator.circuit_unitary(circuit)
        psi = reference.hadamard_all(self.n) @ u[:, -1]
        idx, _ = dacqo.simulator.optimal_state_indices(self.problem, self.truth)
        ideal = float(np.sum(np.abs(psi[idx]) ** 2))
        # the c=0 row is the one with fidelity exactly 1
        zero = [s for f, s in zip(fid, succ) if f == 1.0]
        err = abs(zero[0] - ideal) if zero else math.inf
        res.append(("sweep.noiseless_vs_circuit_unitary", err < 1e-10,
                    f"|delta| = {err:.2e} (tol 1e-10)"))
        lib = dacqo.simulator.success_vs_fidelity_sweep(
            self.problem, schedule, self.k, list(self.c_grid),
            self.trajectories, seed=self.cli_seed)
        same = [(r[0], r[1]) for r in lib] == list(zip(fid, succ))
        res.append(("sweep.csv_matches_library", same,
                    "CSV rows equal success_vs_fidelity_sweep"))
        mono = all(
            lib[i][1] <= lib[i + 1][1] + 2 * (lib[i][2] + lib[i + 1][2])
            for i in range(len(lib) - 1))
        res.append(("sweep.monotone_within_2se", mono,
                    "success non-increasing as fidelity drops"))
        dims = [2 ** len(g.qubits) for g in circuit.gates()
                if g.kind != "1q"]
        for fidelity, _, _, c in lib:
            if c == 0.0:
                continue
            mean, half = reference.fidelity_band(dims, c, self.trajectories)
            res.append((f"sweep.fidelity_band_c{c}",
                        abs(fidelity - mean) <= half,
                        f"{fidelity:.6f} vs {mean:.6f} +- {half:.6f}"))
        res.append(("sweep.baseline_in_unit_interval", 0.0 <= base <= 1.0,
                    f"digital baseline {base:.4f}"))
        self.info.update(noiseless_success=ideal, digital_baseline=base)
        return res


# ---------------------------------------------------------------------------
# W2: one solve at the simulator's width cap
# ---------------------------------------------------------------------------

class SolveMis14(Workload):
    name = "solve_mis14"
    stream = 2
    n_nodes, n_edges = 14, 32
    # the edge set is drawn once from this fixed seed, so every workload
    # seed runs a circuit of the same size; the seed draws the weights
    topology_seed = 0
    k, steps, T, c = 4, 10, 1.0, 0.05
    trajectories = 4

    def setup(self):
        weight_seed, self.cli_seed = derive_seeds(self.seed, self.stream, 2)
        pairs = list(itertools.combinations(range(self.n_nodes), 2))
        pick = np.random.default_rng(self.topology_seed).choice(
            len(pairs), self.n_edges, replace=False)
        self.edges = sorted(pairs[i] for i in pick)
        self.weights = np.random.default_rng(weight_seed).uniform(
            0.1, 1.0, self.n_nodes)
        graph = dacqo.problem.Graph(self.n_nodes, frozenset(self.edges),
                                    self.weights)
        self.graph_file = self.dir / "graph.json"
        self.graph_file.write_text(graph.to_json())
        self.problem = dacqo.problem.mis_to_ising(graph)
        self.truth = dacqo.problem.brute_force_ground_state(self.problem)
        self.out = self.dir / "solve.json"
        common = ["--graph-file", str(self.graph_file), "--k", str(self.k),
                  "--steps", str(self.steps), "--t", repr(self.T)]
        self.args = ["solve", *common, "--c", repr(self.c),
                     "--p", repr(dacqo.cli.TWO_QUBIT_995_RATE),
                     "--trajectories", str(self.trajectories),
                     "--seed", str(self.cli_seed), "--output", str(self.out)]
        self.noiseless_args = ["solve", *common, "--c", "0", "--p", "0",
                               "--seed", str(self.cli_seed),
                               "--output", str(self.dir / "noiseless.json")]
        self.emit_args = ["emit-circuit", *common,
                          "--output", str(self.dir / "circuit.json")]

    def run_pass(self, step):
        cli(self.args)
        step()
        return self.out.read_bytes()

    def checks(self, out):
        res = []
        rep = json.loads(out)
        cli(self.noiseless_args)
        s0 = json.loads((self.dir / "noiseless.json").read_text())
        cli(self.emit_args)
        doc = json.loads((self.dir / "circuit.json").read_text())
        idx, _ = dacqo.simulator.optimal_state_indices(self.problem, self.truth)
        ref = reference.noiseless_success(doc, idx)
        got = s0["success_probability"]
        res.append(("solve.noiseless_vs_reference", abs(got - ref) <= 1e-9,
                    f"{got:.12e} vs {ref:.12e} (tol 1e-9)"))
        pinned = PINNED["solve_mis14"].get(str(self.seed))
        if pinned is not None:
            res.append(("solve.noiseless_vs_seed_commit",
                        abs(got - pinned) <= 1e-9,
                        f"{got:.12e} vs {pinned:.12e} (tol 1e-9)"))
        w, chosen = reference.max_weight_independent_set(
            self.n_nodes, self.edges, self.weights)
        picked = [tuple(i for i, s in enumerate(b) if s == -1)
                  for b in rep["optimal_bitstrings"]]
        res.append(("solve.optimum_is_mwis", picked == [chosen],
                    f"MWIS weight {w:.6f}, nodes {chosen}"))
        m = rep["trajectories"]
        s, se = rep["success_probability"], rep["stderr"]
        # trajectory successes lie in [0, 1], so their sample variance is
        # at most m s (1 - s) / (m - 1)
        bound = math.sqrt(max(s * (1 - s), 0.0) / (m - 1))
        res.append(("solve.noisy_success_band",
                    m == self.trajectories and 0.0 <= s <= 1.0
                    and 0.0 <= se <= bound + 1e-15,
                    f"{s:.6e} +- {se:.2e} over {m} trajectories "
                    f"(stderr bound {bound:.2e})"))
        dims = [2 ** len(g["qubits"]) for layer in doc["layers"]
                for g in layer if g["kind"] != "1q"]
        mean, half = reference.fidelity_band(dims, self.c, m)
        f = rep["gms_fidelity"]
        res.append(("solve.fidelity_band", abs(f - mean) <= half,
                    f"{f:.6f} vs {mean:.6f} +- {half:.6f}"))
        self.info.update(noiseless_success=got, noisy_success=s,
                         gms_fidelity=f, depth=rep["depth"])
        return res


# ---------------------------------------------------------------------------
# W3: synthesis and cost models, no simulation
# ---------------------------------------------------------------------------

class SynthN32(Workload):
    name = "synth_n32"
    stream = 3

    def setup(self):
        s_scaling, s16, s32 = derive_seeds(self.seed, self.stream, 3)
        p16 = self.dir / "p16.json"
        p16.write_text(dacqo.problem.random_spin_glass(
            16, s16, "fully_nonuniform").to_json())
        p32 = self.dir / "p32.json"
        p32.write_text(dacqo.problem.random_spin_glass(
            32, s32, "homogeneous").to_json())
        self.scaling_csv = self.dir / "scaling.csv"
        self.enh_csv = self.dir / "scaling_enhancement.csv"
        self.c16 = self.dir / "c16.json"
        self.c32 = self.dir / "c32.json"
        self.calls = [
            ["scaling", "--max-n", "100", "--seed", str(s_scaling),
             "--output", str(self.scaling_csv)],
            ["emit-circuit", "--problem-file", str(p16), "--path",
             "inhomogeneous", "--k", "4", "--steps", "10", "--t", "1.0",
             "--output", str(self.c16)],
            ["emit-circuit", "--problem-file", str(p32), "--path",
             "homogeneous", "--k", "4", "--steps", "1", "--t", "1.0",
             "--output", str(self.c32)],
        ]

    def run_pass(self, step):
        for args in self.calls:
            cli(args)
            step()
        return tuple(p.read_bytes() for p in
                     (self.scaling_csv, self.enh_csv, self.c16, self.c32))

    def checks(self, out):
        scaling, enh, c16, c32 = out
        res = []
        ratios = {}
        for line in enh.decode().splitlines()[1:]:
            klass, k, r = line.split(",")
            ratios[(klass, int(k))] = float(r)
        r2 = ratios.get(("unweighted", 2), math.nan)
        r4 = ratios.get(("fully_nonuniform", 4), math.nan)
        r6 = ratios.get(("fully_nonuniform", 6), math.nan)
        res.append(("synth.enhancement_unweighted_k2", r2 >= 1.5,
                    f"ratio {r2:.3f} (>= 1.5)"))
        res.append(("synth.enhancement_nonuniform_6_lt_4", r6 < r4,
                    f"ratio(6) {r6:.3f} < ratio(4) {r4:.3f}"))
        rows = scaling.decode().splitlines()[1:]
        res.append(("synth.scaling_rows_to_100",
                    bool(rows) and rows[-1].split(",")[0] == "100",
                    f"{len(rows)} rows"))
        for label, text in (("c16", c16), ("c32", c32)):
            circ = dacqo.synthesis.Circuit.from_json(text.decode())
            res.append((f"synth.{label}_roundtrip",
                        circ.to_json() + "\n" == text.decode(),
                        "Circuit.from_json(...).to_json() reproduces file"))
            self.info[f"{label}_sha256"] = hashlib.sha256(text).hexdigest()
            self.info[f"{label}_depth"] = circ.depth_report().total
        depth32 = dacqo.synthesis.Circuit.from_json(
            c32.decode()).depth_report().total
        bound = dacqo.synthesis.analytic_depth(32, 4)
        res.append(("synth.c32_depth_within_analytic", depth32 <= bound,
                    f"{depth32} <= {bound:g}"))
        return res


# ---------------------------------------------------------------------------
# W4: the dense verification path
# ---------------------------------------------------------------------------

class OracleN6(Workload):
    name = "oracle_n6"
    stream = 4
    exact_slices = 100
    lambdas = tuple(np.linspace(0.0, 1.0, 11))

    def setup(self):
        seeds = derive_seeds(self.seed, self.stream, 53)
        self.unitary_cases = [
            (dacqo.problem.random_spin_glass(n, s, "homogeneous"), n)
            for n, s in zip((2, 4, 6), seeds[:3])]
        modes = ("homogeneous", "mixed", "fully_nonuniform")
        self.alpha_cases = [
            dacqo.problem.random_spin_glass(1 + i % 6, s, modes[i % 3])
            for i, s in enumerate(seeds[3:])]
        self.psi0 = np.zeros(16, dtype=complex)
        self.psi0[-1] = 1.0

    def run_pass(self, step):
        homog = dacqo.synthesis.synthesize_homogeneous
        distances = []
        for p, n in self.unitary_cases:
            k = min(4, n)
            for steps in (1, 2, 4):
                sch = cd.Schedule(1.0, steps)
                distances.append(dacqo.paulis.phase_distance(
                    dacqo.simulator.circuit_unitary(homog(p, sch, k)),
                    dacqo.simulator.trotter_reference_unitary(p, sch, k)))
        step()
        p4 = self.unitary_cases[1][0]
        infidelities = []
        for steps in (2, 4, 8, 16):
            sch = cd.Schedule(1.0, steps)
            exact = cd.exact_evolution(p4, sch, self.exact_slices) @ self.psi0
            circ = dacqo.simulator.circuit_unitary(homog(p4, sch, 4)) @ self.psi0
            infidelities.append(1.0 - abs(np.vdot(exact, circ)) ** 2)
        step()
        alpha_err = max(
            abs(cd.alpha1_analytic(p, lam) - cd.alpha1_oracle(p, lam))
            for p in self.alpha_cases for lam in self.lambdas)
        step()
        return (tuple(distances), tuple(infidelities), alpha_err)

    def checks(self, out):
        distances, infidelities, alpha_err = out
        worst = max(distances)
        self.info.update(infidelities=list(infidelities))
        return [
            ("oracle.phase_distance", worst < 1e-8,
             f"max phase distance {worst:.2e} (tol 1e-8)"),
            ("oracle.infidelity_decreasing",
             all(b < a for a, b in zip(infidelities, infidelities[1:])),
             ", ".join(f"{x:.3e}" for x in infidelities)),
            ("oracle.alpha1_closed_form", alpha_err < 1e-9,
             f"max |delta| {alpha_err:.2e} (tol 1e-9)"),
        ]


WORKLOADS = {w.name: w for w in (SweepN4, SolveMis14, SynthN32, OracleN6)}
