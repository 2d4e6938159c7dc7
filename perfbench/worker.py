"""One benchmark process: set up a workload, time one pass, check it.

Started by ``perfbench/run.py``, once per timed pass, so every pass is a
fresh process that pays the imports and first-call costs a user's CLI
invocation pays, and no state carries over from one pass to the next.
Writes its findings as JSON to ``--out``.  The first process of a run
(``--check``) also checks the pass's outputs against the references.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# one BLAS thread: the load is a single process, and a pinned count keeps
# the figures comparable between runs on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import dacqo from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import dacqo  # noqa: F401
    import dacqo.cli  # noqa: F401

    src = (ROOT / "src" / "dacqo").resolve()
    if Path(dacqo.__file__).resolve().parent != src:
        raise SystemExit(f"dacqo imported from {dacqo.__file__}, not {src}")


def environment(seed: int) -> dict:
    import importlib.metadata as md

    import networkx
    import numpy
    import scipy

    from dacqo import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "click": md.version("click"),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": _kernels.backend_name(),
        "workload_seed": seed,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned value."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work() -> float:
    """Seconds taken by a fixed computation that does not touch dacqo.

    Small tensordots on a 6-qubit state plus Python arithmetic, the same
    mix of interpreter and small-array work as the workloads.  It is timed
    before and after set-up and between the steps of the pass: a shared
    host's speed drifts by tens of percent over minutes, and dividing a
    stretch's time by the mean of the two readings beside it cancels most
    of that drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((16, 16)))[0].astype(complex)
    u = u.reshape((2,) * 8)
    state = np.zeros((2,) * 6, dtype=complex)
    state[(0,) * 6] = 1.0
    acc = 0
    t0 = time.perf_counter()
    for i in range(6000):
        state = np.tensordot(u, state, axes=((4, 5, 6, 7), (0, 1, 2, 3)))
        for j in range(20):
            acc += j * i % 7
    return time.perf_counter() - t0


class _PassClock:
    """Times a pass step by step, reading the reference between steps.

    ``seconds`` sums the steps' host time; ``ref`` sums each step's time
    divided by the mean of the reference readings just before and after
    it.  The reference work itself is not part of either.
    """

    def __init__(self, reference: list):
        self.reference = reference
        self.seconds = 0.0
        self.ref = 0.0
        self.t0 = time.perf_counter()

    def step(self) -> None:
        dt = time.perf_counter() - self.t0
        self.reference.append(reference_work())
        self.seconds += dt
        self.ref += dt / ((self.reference[-2] + self.reference[-1]) / 2)
        self.t0 = time.perf_counter()


def _pass_record(inst, runtime_fn, clock, traced, error):
    circuits = inst.circuits
    reports = [c.depth_report() for c in circuits]
    counters = dict(inst.counters)
    rec = {
        "seconds": clock.seconds,
        "ref": clock.ref,
        "traced": traced,
        "error": error,
        "run_seconds": inst.run_seconds,
        "counters": counters,
        "repeats": dict(inst.repeats),
        "keyed_calls": dict(inst.keyed_calls),
        # outputs of the program, identical in every pass of a run
        "outputs": {
            "circuits": len(circuits),
            "synthesis.gates_emitted": sum(
                sum(len(layer) for layer in c.layers) for c in circuits),
            "synthesis.multiqubit_layers": sum(
                r.multiqubit_layers for r in reports),
            "synthesis.single_qubit_layers": sum(
                r.single_qubit_layers for r in reports),
            "device_runtime_s": sum(
                runtime_fn(r).runtime_seconds for r in reports),
            "simulator.trajectories": counters.get("simulator.trajectories", 0),
            "simulator.gate_apps": counters.get("simulator.gate_apps", 0),
        },
    }
    if traced:
        busy = inst.spans.busy_and_self()
        rec["layers"] = {layer: busy.get(layer, (0.0, 0.0, 0))
                         for layer in inst.originals}
        rec["spans"] = len(inst.spans)
    return rec


def _measure(wl, inst, runtime_fn, args, reference) -> dict:
    traced = bool(args.trace) and args.index % 2 == 1
    inst.begin_pass()
    inst.set_tracing(traced)
    error, output = None, None
    peak_before = _peak_rss_mb()
    clock = _PassClock(reference)
    try:
        output = wl.run_pass(clock.step)
    except Exception:  # a failed pass is counted as a failed check
        error = traceback.format_exc(limit=3)
    inst.set_tracing(False)
    peak = _peak_rss_mb()
    rec = _pass_record(inst, runtime_fn, clock, traced, error)
    rec["rss_growth_mb"] = peak - peak_before
    result = {
        "pass": rec,
        "output_sha256": hashlib.sha256(repr(output).encode()).hexdigest(),
        "reference_s": reference,
        "peak_rss_mb": peak,
    }
    if traced:
        spans_file = (ROOT / ".bench_out" / f"spans-{args.workload}"
                      f"-seed{args.seed}-pass{args.index}.csv")
        inst.spans.write_csv(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    if args.check:
        checks = []
        if output is not None:
            try:
                checks.extend(wl.checks(output))
            except Exception:
                checks.append(("workload.checks", False,
                               traceback.format_exc(limit=3)))
        result["checks"] = [{"name": n, "ok": bool(ok), "detail": d}
                            for n, ok, d in checks]
        result["info"] = wl.info
        result["environment"] = environment(args.seed)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--index", type=int, required=True,
                    help="pass number in the run; odd passes are traced "
                         "when --trace is 1")
    ap.add_argument("--check", action="store_true",
                    help="check the pass's outputs against the references")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    # the program imports numpy first thing; the reference reading taken
    # here is left out of the set-up time
    import numpy  # noqa: F401
    ref_before = reference_work()
    _import_program()
    from perfbench.tracer import Instrument
    from perfbench.workloads import WORKLOADS

    inst = Instrument()
    runtime_fn = inst.originals["hardware.circuit_runtime"]
    # the same path in every pass: the CLI echoes its file paths into its
    # outputs, which every pass must reproduce byte for byte
    workdir = ROOT / ".bench_out" / f"work-{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = time.time() - args.spawned_at - ref_before
        reference = [ref_before, reference_work()]
        result = {
            "setup_s": setup_s,
            "setup_ref": setup_s / ((reference[0] + reference[1]) / 2),
            **_measure(wl, inst, runtime_fn, args, reference),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
