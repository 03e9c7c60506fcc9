"""Run one benchmark workload; print its figures as one JSON line.

    python3 benchmark/run.py --workload extract-dense --seed 0 --trace 0
    python3 benchmark/run.py --workload all --seed 0

One run: build or reuse the reference (in a child process), set up twice
(import, inputs, fit, one untimed warm-up operation; once in a child
process, once here), then run the workload's operation in a closed loop for ``--seconds`` and check every
output. ``--trace 0`` prints the end-to-end figures, ``--trace 1`` the
per-layer figures of a traced run. A record of the run is written to
``.bench_out/records/``. ``--workload all`` runs every workload, each in
its own process, and prints every figure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import inputs

inputs.pin_threads()

HERE = Path(__file__).resolve().parent
SETUP_REPS = 2
CHILD_TIMEOUT_S = 170


def _child(args: list[str], what: str) -> str:
    """Run a python child in the checkout; the last word it prints."""
    proc = subprocess.run([sys.executable, *args], cwd=inputs.ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark: {what} failed")
    return proc.stdout.split()[-1]


def _import_program() -> float:
    """Seconds to import aksvd (and numpy) from the checkout."""
    t0 = time.perf_counter()
    inputs.use_source_tree()
    import workloads  # noqa: F401  (imports aksvd and numpy)
    return time.perf_counter() - t0


def _load_reference(path) -> dict:
    import numpy as np
    with np.load(path) as cached:
        return {k: cached[k] for k in cached.files if k != "key"}


def _set_up(workload: str, seed: int, ref: dict, unit=nullcontext):
    """Inputs, fit and one untimed warm-up operation: (workload, seconds)."""
    import workloads
    t0 = time.perf_counter()
    with unit("setup"):
        wl = workloads.WORKLOADS[workload](seed, ref,
                                          inputs.OUT / workload / "work")
        wl.setup()
        wl.operation()
    return wl, time.perf_counter() - t0


def setup_only(workload: str, seed: int, ref_path: str) -> float:
    """One set-up in a fresh process, import included (``--setup-only``)."""
    import_s = _import_program()
    _, seconds = _set_up(workload, seed, _load_reference(ref_path))
    return import_s + seconds


def _environment() -> dict:
    import numpy as np
    return {"threads": {v: os.environ.get(v) for v in inputs.THREAD_VARS},
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop, check; return the run record.

    All but one set-up run in child processes, each with its own import, so
    the measuring process sets up once and its peak RSS is that of one
    set-up and the operations, not of heap left over from an earlier set-up.
    """
    ref_path = _child([str(HERE / "reference.py"), "--workload", workload,
                       "--seed", str(seed)], f"reference for {workload}")
    setups = [float(_child([str(Path(__file__).resolve()), "--workload",
                            workload, "--seed", str(seed), "--setup-only",
                            ref_path], f"set-up of {workload}"))
              for _ in range(SETUP_REPS - 1)]

    import_s = _import_program()
    ref = _load_reference(ref_path)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    def unit(kind):
        return tracer.unit(kind) if tracer else nullcontext()

    wl, seconds_set_up = _set_up(workload, seed, ref, unit)
    setups.append(import_s + seconds_set_up)

    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        phases, output = None, None
        with unit("op"):
            try:
                phases, output = wl.operation()
            except Exception as err:  # counted as failed, not fatal
                fails = [("operation", repr(err))]
        if phases is not None:
            try:
                fails = wl.check(output)
                values = wl.layer_values(output)
            except Exception as err:
                fails, values = [("check", repr(err))], {}
        if tracer and hasattr(wl, "replay"):
            with unit("replay"):
                wl.replay()
        ops.append({"phases": phases, "layer": values if phases else {},
                    "failures": [f"{name}: {msg}" for name, msg in fails],
                    "fault_names": sorted({name for name, _ in fails})})
        output = None

    done = [op["phases"] for op in ops if op["phases"] is not None]
    e2e = {k: statistics.median(p[k] for p in done)
           for k in (done[0] if done else {})}
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    e2e["setup_s"] = statistics.median(setups)
    correct = bool(done) and all(set(op["fault_names"]) <= wl.known_faults
                                 for op in ops)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": correct, "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failures"]),
        "end_to_end": e2e, "import_s": import_s, "setups_s": setups,
        "ops": ops, "environment": _environment(),
    }
    if tracer:
        tracer.uninstall()
        record["per_layer"] = tracing.layer_metrics(
            tracer, [op["layer"] for op in ops])
        record["units"] = tracer.units
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The JSON object the benchmark prints last, in BENCHMARK.json's units."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    figures = record[kind]
    if set(figures) != set(units):
        sys.exit(f"benchmark: {kind} figures {sorted(figures)} differ from "
                 f"BENCHMARK.json's {sorted(units)}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in figures.items()}}


def run_all(args) -> int:
    """Every workload in its own process; one table of every figure."""
    status = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=inputs.ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S + 10)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{workload}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        status |= 0 if res["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="REFERENCE",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    inputs.check_source_tree()
    if args.setup_only:
        print(setup_only(args.workload, args.seed, args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record, spec)
    out = inputs.OUT / "records"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
