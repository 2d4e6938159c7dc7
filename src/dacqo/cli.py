"""Command-line experiment runner.

Commands
--------
solve          synthesize + simulate one instance, report success probability
fidelity-sweep success probability vs analog-block fidelity (CSV)
scaling        runtime scaling table and MIS enhancement factors (CSV)
emit-circuit   dump a synthesized layered circuit as JSON
fit            exponential-saturation fit of required fidelity vs size

Every command accepts ``--config file.json``, a JSON object keyed by the
command's parameter names (``T`` for ``--t``, ``c_grid`` for
``--c-grid``).  It becomes click's default map: each value is parsed like
the same text given as a flag, and a flag beats the file.  Each default is
declared once, on its option, and so is each range that only the CLI
imposes (``--k``, ``--n-step``, ``--max-n``); the library checks the rest.  The effective configuration, defaults
included, is the body of every CSV's ``<name>.meta.json`` sidecar, and
the ``solve`` report's ``config``, which records an input file by its
name and sha256 and leaves out ``--output``.  All randomness derives
from one master seed, so reruns are byte-identical.

Exit codes: 0 success, 2 configuration error (a bad flag or config entry,
an unreadable input or unwritable output, and any ValueError raised by the
library on invalid input), 3 capability exceeded (a size cap, or an
input too large to allocate), 4 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
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
    enhancement_factor,
)
from .problem import (
    CapabilityError,
    Graph,
    IsingProblem,
    _json_object,
    brute_force_ground_state,
    independent_set_from_spins,
    mis_to_ising,
    random_graph,
    random_spin_glass,
)
from .simulator import (
    NoiseModel,
    check_simulation_width,
    run,
    success_vs_fidelity_sweep,
)
from .synthesis import (
    _FLIP_BLOCK_CAP,
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
# threshold_37pct is this fraction of the noiseless success probability
THRESHOLD_FRACTION = 0.37


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except CapabilityError as e:
            click.echo(f"capability error: {e}", err=True)
            sys.exit(EXIT_CAPABILITY)
        except MemoryError as e:
            # a size that fits an index but no array, such as a file's "n"
            click.echo(f"capability error: out of memory: {e}", err=True)
            sys.exit(EXIT_CAPABILITY)
        except (SynthesisError, ZeroDivisionError, FloatingPointError,
                np.linalg.LinAlgError) as e:
            click.echo(f"numerical failure: {e}", err=True)
            sys.exit(EXIT_NUMERICAL)
        # after LinAlgError, which subclasses ValueError
        except (ValueError, OSError) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(EXIT_CONFIG)

    return wrapper


def _read_config(ctx, param, path):
    """Install the JSON object in ``path`` as the command's default map."""
    if path is None:
        return
    names = sorted(p.name for p in ctx.command.params if p.expose_value)
    try:
        doc = _json_object(Path(path).read_text(), "config", names)
    except ValueError as e:  # bad JSON or keys, or bytes that are not UTF-8
        raise click.BadParameter(str(e))
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise click.BadParameter(
                f"{key!r} must be a string or a number, got {json.dumps(value)}"
            )
    ctx.default_map = {key: str(value) for key, value in doc.items()}


def _options(*decorators):
    """Apply ``decorators`` as if stacked in the order given."""
    def apply(fn):
        for decorate in reversed(decorators):
            fn = decorate(fn)
        return fn

    return apply


_INPUT = click.Path(exists=True, dir_okay=False)
_config = click.option(
    "--config", type=_INPUT, is_eager=True, expose_value=False,
    callback=_read_config, help="JSON object of option values; flags win",
)
_seed = click.option("--seed", type=int, default=0)
_mode = click.option("--mode", default="homogeneous")
_steps = click.option("--steps", type=int, default=10, help="trotter steps")
_trajectories = click.option("--trajectories", type=int, default=512)
_problem_options = _options(
    click.option("--n", type=int, default=4),
    _mode,
    _seed,
    click.option("--problem-file", type=_INPUT),
    click.option("--graph-file", type=_INPUT),
)
_schedule_options = _options(
    click.option("--t", "T", type=float, default=1.0),
    _steps,
    click.option("--profile", default="sin2sin2"),
    click.option("--k", type=click.IntRange(min=2), default=4,
                 help="GMS block size, clamped to N (and to 6 on sign flips)"),
)


def _get_problem(cfg) -> tuple:
    """The instance, and the graph it encodes (None unless a graph file)."""
    if cfg["problem_file"] and cfg["graph_file"]:
        raise ValueError("give --problem-file or --graph-file, not both")
    if cfg["problem_file"]:
        return IsingProblem.from_json(Path(cfg["problem_file"]).read_text()), None
    if cfg["graph_file"]:
        graph = Graph.from_json(Path(cfg["graph_file"]).read_text())
        return mis_to_ising(graph), graph
    return random_spin_glass(cfg["n"], cfg["seed"], cfg["mode"]), None


def _get_schedule(cfg) -> Schedule:
    return Schedule(
        total_time=cfg["T"], trotter_steps=cfg["steps"], profile=cfg["profile"]
    )


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


def _write_report(report: dict, output) -> None:
    """Print ``report`` as JSON, and also write it to ``output`` if given."""
    text = json.dumps(report, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    click.echo(text)


def _parse_list(text, cast):
    """Comma-separated values, each parsed with ``cast`` (int or float)."""
    return [cast(x) for x in text.split(",") if x != ""]


@click.group(context_settings={"show_default": True})
@click.version_option(__version__)
def main():
    """Digital-analog counterdiabatic optimization experiments."""
    # The objects the imports left behind live as long as the process.
    # Freezing them takes them out of the collector's count of long-lived
    # objects, which sets when a full collection runs; otherwise the size
    # of the import heap decides whether a command pays a 30 ms gen-2
    # pass partway through.  Only the first command of a process freezes:
    # later ones would also freeze the garbage of the commands before.
    _freeze_import_heap()


@functools.cache
def _freeze_import_heap() -> None:
    gc.freeze()


@main.command("solve")
@_config
@_problem_options
@_schedule_options
@click.option("--c", type=float, default=0.0, help="analog noise amplitude")
@click.option("--p", type=float, default=0.0, help="depolarizing rate")
@_trajectories
@click.option("--output")
@_guarded
def cmd_solve(**cfg):
    """Run one instance end to end and report the outcome."""
    if not (cfg["problem_file"] or cfg["graph_file"]):
        check_simulation_width(cfg["n"])  # before N(N-1)/2 couplings are drawn
    problem, graph = _get_problem(cfg)
    check_simulation_width(problem.n_qubits)
    schedule = _get_schedule(cfg)
    path, k = synthesis_plan(problem, cfg["k"])
    circuit = synthesize(problem, schedule, k, path)
    noise = NoiseModel(
        analog_noise_amplitude=cfg["c"],
        depolarizing_rate=cfg["p"],
        seed=cfg["seed"],
    )
    truth = brute_force_ground_state(problem)
    result = run(circuit, problem, noise, cfg["trajectories"], truth=truth)
    bitstrings = sorted(list(b) for b in truth.bitstrings)
    report = {
        "n_qubits": problem.n_qubits,
        "ground_energy": truth.energy,
        "ground_energy_with_offset": truth.energy + problem.offset,
        "optimal_bitstrings": bitstrings,
    }
    if graph is not None:
        # each optimal bitstring's nodes, in the order of the bitstrings
        report["independent_sets"] = [
            {"nodes": nodes, "weight": math.fsum(graph.weights[nodes])}
            for nodes in (sorted(independent_set_from_spins(b)) for b in bitstrings)]
    _write_report({
        **report,
        "success_probability": result.success_probability,
        "gms_fidelity": result.gms_fidelity,
        "stderr": result.stderr,
        "trajectories": result.trajectories,
        "kernel_applications": result.kernel_applications,
        "depth": circuit.depth_report().total,
        "synthesis_path": path,
        "block_size": k,
        "config": _report_config(cfg),
    }, cfg["output"])


def _report_config(cfg) -> dict:
    """The ``solve`` report's record of its configuration, keys sorted.

    An input file is recorded as its name and the sha256 of its bytes,
    and ``output``, where the report itself goes, is left out: so the
    same run writes the same bytes from any directory.  hashlib is
    imported here: it loads OpenSSL, about 3 MB, which the other commands
    need not pay.
    """
    import hashlib

    record = {key: value for key, value in cfg.items() if key != "output"}
    for key in ("problem_file", "graph_file"):
        if record[key]:
            path = Path(record[key])
            record[key] = {"name": path.name,
                           "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return dict(sorted(record.items()))


@main.command("fidelity-sweep")
@_config
@click.option("--sizes", default="4", help="comma-separated qubit counts")
@click.option("--c-grid", "c_grid", default="0,0.02,0.05,0.08,0.12",
              help="comma-separated analog noise amplitudes")
@_seed
@_mode
@_schedule_options
@_trajectories
@click.option("--output", default="fidelity_sweep.csv")
@_guarded
def cmd_fidelity_sweep(**cfg):
    """Success probability vs analog-block fidelity, with digital baseline."""
    sizes = _parse_list(cfg["sizes"], int)
    c_grid = _parse_list(cfg["c_grid"], float)
    if not sizes or not c_grid:
        raise ValueError("sizes and c_grid must be nonempty")
    check_simulation_width(max(sizes))
    seed = cfg["seed"]
    trajectories = cfg["trajectories"]
    schedule = _get_schedule(cfg)
    rows, plans = [], []
    for n in sizes:
        problem = random_spin_glass(n, seed, cfg["mode"])
        path, block = synthesis_plan(problem, cfg["k"])
        plans.append({"N": n, "synthesis_path": path, "block_size": block})
        digital = synthesize_digital_baseline(problem, schedule)
        base = run(
            digital,
            problem,
            NoiseModel(0.0, TWO_QUBIT_995_RATE, seed),
            trajectories,
        ).success_probability
        sweep = success_vs_fidelity_sweep(
            problem, schedule, cfg["k"], c_grid, trajectories, seed=seed
        )
        ideal = max(s for _, s, _, c in sweep if c == 0.0) if 0.0 in c_grid \
            else sweep[-1][1]
        for fid, succ, _, _ in sweep:
            rows.append((n, fid, succ, base, THRESHOLD_FRACTION * ideal))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(
        cfg["output"],
        ["N", "fidelity", "success_probability", "digital_baseline",
         "threshold_37pct"],
        rows,
        {"command": "fidelity-sweep", "synthesis_plan": plans, **cfg},
    )
    click.echo(f"wrote {len(rows)} rows to {cfg['output']}")


@main.command("scaling")
@_config
@click.option("--max-n", "max_n", type=click.IntRange(min=8), default=100,
              help="last N of the table, which starts at N=8")
@click.option("--n-step", "n_step", type=click.IntRange(min=1), default=8)
@_steps
@_seed
@click.option("--hardware-file", type=_INPUT)
@click.option("--output", default="scaling.csv")
@_guarded
def cmd_scaling(**cfg):
    """Analytic runtime scaling plus MIS enhancement factors."""
    max_n = cfg["max_n"]
    spec = HardwareSpec() if cfg["hardware_file"] is None else \
        HardwareSpec.from_json(Path(cfg["hardware_file"]).read_text())
    sizes = list(range(8, max_n + 1, cfg["n_step"]))
    if sizes[-1] != max_n:
        sizes.append(max_n)
    paths = ("digital", "daqc_homog", "daqc_inhomog")
    rows = [
        (n, *(analytic_runtime(n, cfg["steps"], spec, p) for p in paths))
        for n in sizes
    ]
    out = cfg["output"]
    sidecar = {"command": "scaling", **cfg}
    _write_csv(out, ["N", *(f"runtime_{p}" for p in paths)], rows, sidecar)
    # enhancement factors on 16-node MIS instances of the three classes
    enh_rows = []
    schedule = Schedule(total_time=1.0, trotter_steps=1)
    block_sizes = tuple(range(2, _FLIP_BLOCK_CAP + 1))
    for klass in ("unweighted", "mixed", "fully_nonuniform"):
        graph = random_graph(16, cfg["seed"], weight_mode=klass)
        problem = mis_to_ising(graph)
        ratios = enhancement_factor(
            problem, schedule, spec, block_sizes=block_sizes
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
@_config
@_problem_options
@_schedule_options
@click.option("--path", "synth_path", default="auto",
              type=click.Choice(SYNTHESIS_PATHS))
@click.option("--output", default="circuit.json")
@_guarded
def cmd_emit_circuit(**cfg):
    """Write a synthesized layered circuit to JSON."""
    problem, _ = _get_problem(cfg)
    schedule = _get_schedule(cfg)
    path, k = synthesis_plan(problem, cfg["k"], cfg["synth_path"])
    circuit = synthesize(problem, schedule, k, path)
    out = cfg["output"]
    Path(out).write_text(circuit.to_json() + "\n")
    rep = circuit.depth_report()
    plan = f"path {path}" + ("" if k is None else f", block size {k}")
    click.echo(
        f"wrote {out}: width {circuit.width}, {rep.total} layers "
        f"({rep.multiqubit_layers} multiqubit), {plan}"
    )


@main.command("fit")
@_config
@click.option("--input", "input_file", type=_INPUT, required=True,
              help="CSV with N,required_fidelity columns")
@click.option("--output")
@_guarded
def cmd_fit(input_file, output):
    """Fit f(N) = 1 + (K-1) exp(-rate N) to required-fidelity data."""
    try:
        with open(input_file) as f:
            reader = csv.reader(f)
            next(reader)
            points = [(float(r[0]), float(r[1])) for r in reader if r]
    except (ValueError, IndexError, StopIteration):
        raise ValueError(f"could not parse N,fidelity rows from {input_file}")
    try:
        fit = fit_extrapolation(points)
    except RuntimeError as e:  # curve_fit did not converge
        click.echo(f"numerical failure: {e}", err=True)
        sys.exit(EXIT_NUMERICAL)
    _write_report({
        "L": fit.L,
        "K": fit.K,
        "decay_rate": fit.decay_rate,
        "residual": fit.residual,
        "prediction_n52": float(fit(52)),
    }, output)


if __name__ == "__main__":
    main()
