"""Host-time benchmark for dacqo.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_n4 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Workloads: sweep_n4, solve_mis14, synth_n32, oracle_n6 (see
perfbench/workloads.py and perfbench/predictions.json).

Every timed pass runs in a fresh process (perfbench/worker.py), as each
CLI invocation a user makes does: it pays the imports and first-call
costs, and nothing carries over from one pass to the next.  A run starts
such processes one after another until ``--seconds`` have passed (at
least three, five for synth_n32) and reports medians over them.  The
first process also checks the pass's outputs against the references;
every later pass must reproduce the first pass's output bytes and
counts.

A fixed reference computation is timed before and after set-up and
between the steps of each pass (one step per CLI command or library
part).  ``wall_ref`` sums each step's time in units of the mean of the
two readings beside it, and ``setup_s`` is set-up time in the same units
times REF_NOMINAL_S, i.e. seconds on a host where one reference reading
takes REF_NOMINAL_S.  This cancels most of the drift in a shared host's
speed; raw seconds are in the report (``wall_s``, ``setup_raw_s``).
With ``--trace 0`` every pass runs the program's own functions and the
run reports the end-to-end metrics; with ``--trace 1`` every other pass
(process) records spans around each layer and the run reports the
per-layer metrics, including the tracing overhead.

The second-to-last stdout line is the full report (environment, checks,
samples); the last line is {"correct", "attempted", "failed", "metrics"}.
The program is imported from this checkout's ``src``; without it the
benchmark exits 2 and prints no result.  A run in which no untraced
pass completed prints its failed checks and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
WORKLOADS = ("sweep_n4", "solve_mis14", "synth_n32", "oracle_n6")
# fresh processes a run starts at least, whatever --seconds says; a
# synth_n32 pass takes about 9 s, and a median of fewer than five of
# them moves by more than a tenth from run to run on a 2-vCPU host
MIN_PASSES = {"synth_n32": 5}
# set-up time is reported in seconds on a host where one reference
# reading (perfbench/worker.py: reference_work) takes this long
REF_NOMINAL_S = 0.1


def _worker(args, index: int, out: Path, timeout: float):
    """Run one pass in a fresh process; (data, None) or (None, error)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--index", str(index),
           "--out", str(out), "--spawned-at", repr(time.time())]
    if index == 0:
        cmd.append("--check")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=max(timeout, 1.0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as e:
        return None, f"worker timed out after {e.timeout:g} s"
    if proc.returncode != 0:
        return None, (f"worker exited {proc.returncode}: "
                      + (proc.stdout + proc.stderr)[-2000:])
    data = json.loads(out.read_text())
    out.unlink()
    return data, None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _median(values):
    return statistics.median(values) if values else None


def _layers(traced, plain) -> dict:
    """Per-layer metrics from the traced passes of a trace run."""
    from perfbench.tracer import TARGETS

    total = sum(p["seconds"] for p in traced)
    busy = {}
    for p in traced:
        for layer, (b, s, n) in p["layers"].items():
            acc = busy.setdefault(layer, [0.0, 0.0, 0])
            acc[0] += b
            acc[1] += s
            acc[2] += n
    first = traced[0]
    out = {}
    for layer, (b, s, n) in busy.items():
        out[f"{layer}.busy_pct"] = (100.0 * b / total, "%")
        out[f"{layer}.self_pct"] = (100.0 * s / total, "%")
        out[f"{layer}.calls"] = (n // len(traced), "count")
    for layer in (t.layer for t in TARGETS if t.key is not None):
        calls = first["keyed_calls"].get(layer, 0)
        reps = first["repeats"].get(layer, 0)
        out[f"{layer}.repeat_frac"] = (reps / calls if calls else 0.0, "frac")
    c = first["counters"]
    rounds = c.get("synthesis.schedule_pairs.rounds_sum", 0)
    degree = c.get("synthesis.schedule_pairs.max_degree_sum", 0)
    out["synthesis.schedule_pairs.rounds_over_max_degree"] = (
        rounds / degree if degree else 0.0, "ratio")
    out["kernels.bytes_computed"] = (c.get("kernels.bytes_computed", 0), "B")
    for key in ("synthesis.gates_emitted", "synthesis.multiqubit_layers",
                "synthesis.single_qubit_layers", "simulator.trajectories",
                "simulator.gate_apps"):
        out[key] = (first["outputs"][key], "count")
    run_s = sum(p["run_seconds"] for p in plain)
    apps = sum(p["outputs"]["simulator.gate_apps"] for p in plain)
    out["simulator.gate_apps_per_s"] = (apps / run_s if run_s else 0.0, "1/s")
    # how far the pass lifts the process's peak resident set above its
    # peak after set-up: the workload's own working set, without imports
    out["pass.rss_growth_mb"] = (statistics.median(
        p["rss_growth_mb"] for p in plain), "MB")
    # compared in reference units, so host drift between passes cancels
    t_med = statistics.median(p["ref"] for p in traced)
    u_med = statistics.median(p["ref"] for p in plain)
    out["trace.overhead_pct"] = (100.0 * (t_med - u_med) / u_med, "%")
    out["trace.spans_per_pass"] = (first["spans"], "count")
    return out


def run_workload(args) -> tuple:
    """Returns (report, result line) for one workload."""
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples, checks = [], []
    start = time.perf_counter()
    # a pass that hangs or runs far too long ends the run as a failed check
    deadline = start + 2 * args.seconds + 100
    while True:
        index = len(samples)
        data, error = _worker(args, index, outdir / f"{stem}-{index}.json",
                              deadline - time.perf_counter())
        if data is None:
            checks.append({"name": f"pass.{index}.worker", "ok": False,
                           "detail": error})
            break
        samples.append(data)
        rec = data["pass"]
        checks.append({"name": f"pass.{index}.ok", "ok": rec["error"] is None,
                       "detail": rec["error"] or ""})
        if index == 0:
            checks.extend(data["checks"])
        else:
            first = samples[0]
            checks.append({
                "name": f"pass.{index}.same_output",
                "ok": data["output_sha256"] == first["output_sha256"],
                "detail": "output equals the first pass's output"})
            checks.append({
                "name": f"pass.{index}.same_counts",
                "ok": rec["outputs"] == first["pass"]["outputs"],
                "detail": "circuits, device runtime and gate applications "
                          "equal the first pass's"})
        if (time.perf_counter() - start >= args.seconds
                and len(samples) >= MIN_PASSES.get(args.workload, 3)):
            break
    # a worker that was stopped leaves its work directory behind
    shutil.rmtree(outdir / f"work-{args.workload}-seed{args.seed}",
                  ignore_errors=True)

    failed = sum(not c["ok"] for c in checks)
    plain = [s for s in samples if not s["pass"]["traced"]]
    traced = [s["pass"] for s in samples if s["pass"]["traced"]]
    setups = [s["setup_s"] for s in samples]
    setup_refs = [s["setup_ref"] for s in samples]
    wall = [s["pass"]["seconds"] for s in plain]
    wall_ref = [s["pass"]["ref"] for s in plain]
    end_to_end = {}
    if plain:
        end_to_end = {
            "setup_s": (statistics.median(setup_refs) * REF_NOMINAL_S, "s"),
            "wall_ref": (statistics.median(wall_ref), "ref"),
            "peak_rss_mb": (statistics.median(
                s["peak_rss_mb"] for s in plain), "MB"),
        }
    metrics = end_to_end
    if args.trace:
        metrics = _layers(traced, [s["pass"] for s in plain]) if traced else {}
    first = samples[0] if samples else {}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {**first.get("environment", {}),
                        "git_commit": _git_commit()},
        "failed_frac": failed / len(checks),
        "failed_checks": [c for c in checks if not c["ok"]],
        "checks": {c["name"]: c["detail"] for c in checks
                   if not c["name"].startswith("pass.")},
        "passes": len(samples),
        "setup_raw_s": _median(setups),
        "setup_raw_s_samples": setups,
        "setup_ref_samples": setup_refs,
        "wall_s": _median(wall),
        "wall_s_samples": wall,
        "wall_s_quartiles": _quartiles(wall) if wall else None,
        "wall_ref_samples": wall_ref,
        "reference_s_samples": [s["reference_s"] for s in samples],
        "peak_rss_mb_samples": [s["peak_rss_mb"] for s in samples],
        "pass_rss_growth_mb_samples": [s["pass"]["rss_growth_mb"]
                                       for s in samples],
        "traced_pass_s": [p["seconds"] for p in traced],
        "outputs_per_pass": first.get("pass", {}).get("outputs"),
        "output_sha256": first.get("output_sha256"),
        "info": first.get("info"),
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
    }
    if args.trace:
        report["spans_files"] = [s["spans_file"] for s in samples
                                 if "spans_file" in s]
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (outdir / f"{stem}-report.json").write_text(json.dumps(report, indent=2))
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "dacqo" / "__init__.py").is_file():
        print(f"no dacqo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        report, result = run_workload(args)
        print(json.dumps(report))
        print(json.dumps(result))
        return 0 if result["metrics"] else 1
    results = {}
    for name in WORKLOADS:
        report, result = run_workload(argparse.Namespace(**{**vars(args),
                                                            "workload": name}))
        results[name] = result
        if not result["metrics"]:
            print(json.dumps(report["failed_checks"]), file=sys.stderr)
        print(f"{name}: failed_frac {report['failed_frac']:g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:58s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
