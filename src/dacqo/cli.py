"""Command-line experiment runner.

Commands
--------
solve          synthesize + simulate one instance, report success probability
fidelity-sweep success probability vs analog-block fidelity (CSV)
scaling        runtime scaling table and MIS enhancement factors (CSV)
emit-circuit   dump a synthesized layered circuit as JSON
fit            exponential-saturation fit of required fidelity vs size

Every command accepts ``--config file.json``; individual flags override
config values.  CSV outputs get a ``<name>.meta.json`` sidecar holding the
fully resolved configuration, and all randomness derives from one master
seed so reruns are byte-identical.

Exit codes: 0 success, 2 configuration error (including any ValueError
raised by the library on invalid input), 3 capability (size cap)
exceeded, 4 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .counterdiabatic import Schedule
from .extrapolation import fit_extrapolation
from .hardware import (
    HardwareSpec,
    analytic_runtime,
    circuit_runtime,
    default_spec,
    enhancement_factor,
)
from .problem import (
    CapabilityError,
    Graph,
    IsingProblem,
    brute_force_ground_state,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)
from .simulator import NoiseModel, run, success_vs_fidelity_sweep
from .synthesis import (
    SYNTHESIS_PATHS,
    SynthesisError,
    synthesis_plan,
    synthesize,
    synthesize_digital_baseline,
)

EXIT_CONFIG = 2
EXIT_CAPABILITY = 3
EXIT_NUMERICAL = 4

# depolarizing rate at which a 2-qubit gate has 99.5% fidelity
TWO_QUBIT_995_RATE = 1.0 - 0.995**0.5


class ConfigError(Exception):
    pass


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(EXIT_CONFIG)
        except CapabilityError as e:
            click.echo(f"capability error: {e}", err=True)
            sys.exit(EXIT_CAPABILITY)
        except (SynthesisError, ZeroDivisionError, FloatingPointError,
                np.linalg.LinAlgError) as e:
            click.echo(f"numerical failure: {e}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except ValueError as e:  # after LinAlgError, which subclasses it
            click.echo(f"config error: {e}", err=True)
            sys.exit(EXIT_CONFIG)

    return wrapper


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad JSON in {path} (line {e.lineno}): {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(config, flags):
    """Merge config-file values with CLI flags; flags win when given."""
    merged = dict(config)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def _get_problem(cfg) -> IsingProblem:
    if cfg.get("problem_file"):
        try:
            text = Path(cfg["problem_file"]).read_text()
        except FileNotFoundError:
            raise ConfigError(f"problem file not found: {cfg['problem_file']}")
        return IsingProblem.from_json(text)
    if cfg.get("graph_file"):
        try:
            text = Path(cfg["graph_file"]).read_text()
        except FileNotFoundError:
            raise ConfigError(f"graph file not found: {cfg['graph_file']}")
        return mis_to_ising(Graph.from_json(text))
    n = int(cfg.get("n", 4))
    mode = cfg.get("mode", "homogeneous")
    try:
        return random_spin_glass(n, int(cfg.get("seed", 0)), mode)
    except ValueError as e:
        raise ConfigError(str(e))


def _get_schedule(cfg) -> Schedule:
    try:
        return Schedule(
            total_time=float(cfg.get("T", 1.0)),
            trotter_steps=int(cfg.get("steps", 10)),
            profile=cfg.get("profile", "sin2sin2"),
        )
    except ValueError as e:
        raise ConfigError(str(e))


def _get_hardware(cfg) -> HardwareSpec:
    if cfg.get("hardware_file"):
        try:
            return HardwareSpec.from_json(Path(cfg["hardware_file"]).read_text())
        except FileNotFoundError:
            raise ConfigError(
                f"hardware profile not found: {cfg['hardware_file']}"
            )
    return default_spec()


def _write_csv(path, header, rows, sidecar: dict):
    path = Path(path)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    meta = dict(sidecar)
    meta["version"] = __version__
    with open(path.with_name(path.name + ".meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def _parse_floats(text):
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"bad numeric list: {text!r}")


def _parse_ints(text):
    return [int(x) for x in _parse_floats(text)]


@click.group()
@click.version_option(__version__)
def main():
    """Digital-analog counterdiabatic optimization experiments."""


@main.command("solve")
@click.option("--config", type=click.Path(), default=None)
@click.option("--n", type=int, default=None)
@click.option("--mode", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--problem-file", default=None)
@click.option("--graph-file", default=None)
@click.option("--t", "T", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--profile", default=None)
@click.option("--k", type=int, default=None)
@click.option("--c", type=float, default=None)
@click.option("--p", type=float, default=None)
@click.option("--trajectories", type=int, default=None)
@click.option("--output", default=None)
@_guarded
def cmd_solve(config, **flags):
    """Run one instance end to end and report the outcome."""
    cfg = _resolve(_load_config(config), flags)
    problem = _get_problem(cfg)
    schedule = _get_schedule(cfg)
    path, k = synthesis_plan(problem, int(cfg.get("k", 4)))
    circuit = synthesize(problem, schedule, k, path)
    noise = NoiseModel(
        analog_noise_amplitude=float(cfg.get("c", 0.0)),
        depolarizing_rate=float(cfg.get("p", 0.0)),
        seed=int(cfg.get("seed", 0)),
    )
    truth = brute_force_ground_state(problem)
    result = run(
        circuit, problem, noise, int(cfg.get("trajectories", 512)), truth=truth
    )
    report = {
        "n_qubits": problem.n_qubits,
        "ground_energy": truth.energy,
        "ground_energy_with_offset": truth.energy + problem.offset,
        "optimal_bitstrings": sorted(list(b) for b in truth.bitstrings),
        "success_probability": result.success_probability,
        "gms_fidelity": result.gms_fidelity,
        "stderr": result.stderr,
        "trajectories": result.trajectories,
        "depth": circuit.depth_report().total,
        "synthesis_path": path,
        "block_size": k,
        "config": {key: cfg[key] for key in sorted(cfg)},
    }
    text = json.dumps(report, indent=2)
    if cfg.get("output"):
        Path(cfg["output"]).write_text(text + "\n")
    click.echo(text)


@main.command("fidelity-sweep")
@click.option("--config", type=click.Path(), default=None)
@click.option("--sizes", default=None, help="comma-separated qubit counts")
@click.option("--c-grid", "c_grid", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--mode", default=None)
@click.option("--t", "T", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--trajectories", type=int, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--output", default="fidelity_sweep.csv")
@_guarded
def cmd_fidelity_sweep(config, **flags):
    """Success probability vs analog-block fidelity, with digital baseline."""
    cfg = _resolve(_load_config(config), flags)
    sizes = _parse_ints(cfg.get("sizes", "4"))
    c_grid = _parse_floats(cfg.get("c_grid", "0,0.02,0.05,0.08,0.12"))
    if not sizes or not c_grid:
        raise ConfigError("sizes and c_grid must be nonempty")
    k = int(cfg.get("k", 4))
    if k < 2:
        raise ConfigError(f"block size k must be >= 2, got {k}")
    for n in sizes:
        if n % k:
            raise ConfigError(f"size {n} is not a multiple of block size {k}")
    seed = int(cfg.get("seed", 0))
    trajectories = int(cfg.get("trajectories", 512))
    threshold = float(cfg.get("threshold", 0.37))
    schedule = _get_schedule(cfg)
    mode = cfg.get("mode", "homogeneous")
    rows = []
    for n in sizes:
        problem = random_spin_glass(n, seed, mode)
        digital = synthesize_digital_baseline(problem, schedule)
        base = run(
            digital,
            problem,
            NoiseModel(0.0, TWO_QUBIT_995_RATE, seed),
            trajectories,
        ).success_probability
        sweep = success_vs_fidelity_sweep(
            problem, schedule, k, c_grid, trajectories, seed=seed
        )
        ideal = max(s for _, s, _, c in sweep if c == 0.0) if 0.0 in c_grid \
            else sweep[-1][1]
        for fid, succ, _, _ in sweep:
            rows.append((n, fid, succ, base, threshold * ideal))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(
        cfg.get("output", "fidelity_sweep.csv"),
        ["N", "fidelity", "success_probability", "digital_baseline",
         "threshold_37pct"],
        rows,
        {"command": "fidelity-sweep", **{key: cfg[key] for key in sorted(cfg)}},
    )
    click.echo(f"wrote {len(rows)} rows to {cfg.get('output', 'fidelity_sweep.csv')}")


@main.command("scaling")
@click.option("--config", type=click.Path(), default=None)
@click.option("--max-n", "max_n", type=int, default=None)
@click.option("--n-step", "n_step", type=int, default=None)
@click.option("--steps", type=int, default=None, help="trotter steps")
@click.option("--seed", type=int, default=None)
@click.option("--hardware-file", default=None)
@click.option("--output", default="scaling.csv")
@_guarded
def cmd_scaling(config, **flags):
    """Analytic runtime scaling plus MIS enhancement factors."""
    cfg = _resolve(_load_config(config), flags)
    spec = _get_hardware(cfg)
    max_n = int(cfg.get("max_n", 100))
    n_step = int(cfg.get("n_step", 8))
    # the headline runtime numbers assume 10 trotter steps; the assumption
    # is recorded in the sidecar so results stay interpretable
    steps = int(cfg.get("steps", 10))
    seed = int(cfg.get("seed", 0))
    sizes = list(range(8, max_n + 1, n_step))
    if sizes and sizes[-1] != max_n:
        sizes.append(max_n)
    rows = []
    for n in sizes:
        rows.append(
            (
                n,
                analytic_runtime(n, steps, spec, "digital"),
                analytic_runtime(n, steps, spec, "daqc_homog"),
                analytic_runtime(n, steps, spec, "daqc_inhomog"),
            )
        )
    out = cfg.get("output", "scaling.csv")
    sidecar = {
        "command": "scaling",
        "trotter_steps_assumption": steps,
        **{key: cfg[key] for key in sorted(cfg)},
    }
    _write_csv(
        out,
        ["N", "runtime_digital", "runtime_daqc_homog", "runtime_daqc_inhomog"],
        rows,
        sidecar,
    )
    # enhancement factors on 16-node MIS instances of the three classes
    enh_rows = []
    schedule = Schedule(total_time=1.0, trotter_steps=1)
    for klass in ("unweighted", "mixed", "fully_nonuniform"):
        graph = random_graph(16, seed, weight_mode=klass)
        problem = mis_to_ising(graph)
        ratios = enhancement_factor(
            problem, schedule, spec, block_sizes=(2, 3, 4, 5, 6)
        )
        for k in sorted(ratios):
            enh_rows.append((klass, k, ratios[k]))
    enh_out = str(Path(out).with_name(Path(out).stem + "_enhancement.csv"))
    _write_csv(
        enh_out,
        ["instance_class", "block_size", "enhancement_factor"],
        enh_rows,
        sidecar,
    )
    click.echo(f"wrote {out} and {enh_out}")


@main.command("emit-circuit")
@click.option("--config", type=click.Path(), default=None)
@click.option("--n", type=int, default=None)
@click.option("--mode", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--problem-file", default=None)
@click.option("--graph-file", default=None)
@click.option("--t", "T", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--path", "synth_path", default=None,
              type=click.Choice(SYNTHESIS_PATHS))
@click.option("--output", default="circuit.json")
@_guarded
def cmd_emit_circuit(config, **flags):
    """Write a synthesized layered circuit to JSON."""
    cfg = _resolve(_load_config(config), flags)
    problem = _get_problem(cfg)
    schedule = _get_schedule(cfg)
    path, k = synthesis_plan(
        problem, int(cfg.get("k", 4)), cfg.get("synth_path", "auto")
    )
    circuit = synthesize(problem, schedule, k, path)
    out = cfg.get("output", "circuit.json")
    Path(out).write_text(circuit.to_json() + "\n")
    rep = circuit.depth_report()
    plan = f"path {path}" + ("" if k is None else f", block size {k}")
    click.echo(
        f"wrote {out}: width {circuit.width}, {rep.total} layers "
        f"({rep.multiqubit_layers} multiqubit), {plan}"
    )


@main.command("fit")
@click.option("--config", type=click.Path(), default=None)
@click.option("--input", "input_file", default=None,
              help="CSV with N,required_fidelity columns")
@click.option("--output", default=None)
@_guarded
def cmd_fit(config, **flags):
    """Fit f(N) = 1 + (K-1) exp(-rate N) to required-fidelity data."""
    cfg = _resolve(_load_config(config), flags)
    src = cfg.get("input_file")
    if not src:
        raise ConfigError("fit requires --input CSV")
    try:
        with open(src) as f:
            reader = csv.reader(f)
            header = next(reader)
            points = [(float(r[0]), float(r[1])) for r in reader if r]
    except FileNotFoundError:
        raise ConfigError(f"input not found: {src}")
    except (ValueError, IndexError, StopIteration):
        raise ConfigError(f"could not parse N,fidelity rows from {src}")
    try:
        fit = fit_extrapolation(points)
    except (ValueError, RuntimeError) as e:
        click.echo(f"numerical failure: {e}", err=True)
        sys.exit(EXIT_NUMERICAL)
    report = {
        "L": fit.L,
        "K": fit.K,
        "decay_rate": fit.decay_rate,
        "residual": fit.residual,
        "prediction_n52": float(fit(52)),
    }
    text = json.dumps(report, indent=2)
    if cfg.get("output"):
        Path(cfg["output"]).write_text(text + "\n")
    click.echo(text)


if __name__ == "__main__":
    main()
