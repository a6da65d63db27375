"""spnkit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; spnkit is imported from ``src/``.
The run generates its inputs from ``--seed``, runs the scan-versus-oracle
correctness gate, sets the workload up, then repeats the workload's
operation until ``--seconds`` have passed, checking every output. Between
operations it sets up a throwaway copy of the workload, so set-up samples
spread over the run like the operations do; every set-up draws its inputs
from its own sub-seed of ``--seed``, and ``setup_s`` is their median. Times
are wall-clock. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones in BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, from a run that alternates traced and untraced
operations. The line before it carries the environment and the workload's
own named figures. Any failed check makes the exit code 1; a checkout
without spnkit makes it 2. ``--workload all`` runs every workload in its own
process and prints all their figures.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_SHARE = 0.1  # set-up time taken per second of the measured period
MIN_SETUPS = 5


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _require_sources() -> None:
    if not (SRC / "spnkit" / "__init__.py").is_file():
        _fail_setup(f"no spnkit sources under {SRC}; run from a source checkout")


def _import_program():
    _require_sources()
    sys.path.insert(0, str(SRC))
    import numpy
    import spnkit
    if Path(spnkit.__file__).resolve().parent != (SRC / "spnkit").resolve():
        _fail_setup(f"imported spnkit from {spnkit.__file__}, not from {SRC}")
    return numpy


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(wl, seconds: float, spare_setup, tracer=None):
    """Run operations until `seconds` pass; alternate tracing if given.

    Between operations, outside their timing, ``spare_setup()`` runs until
    set-ups have taken SETUP_SHARE of the time so far.

    Returns (records, failures, attempted, set-up seconds) where each record
    is (traced, duration_s, items, operation times in ms).
    """
    records, failures, attempted, setup_s = [], [], 0, []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            with (tracer.installed() if traced else nullcontext()), \
                 (tracer.span("bench.op") if traced else nullcontext()):
                t0 = time.perf_counter()
                result = wl.op()
                duration = time.perf_counter() - t0
            problems = wl.check(result)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failures += problems
        else:
            records.append((traced, duration, wl.items(result),
                            wl.op_ms(result, duration)))
        result = None  # a spare set-up must not add to the operation's peak memory
        while sum(setup_s) < SETUP_SHARE * (time.perf_counter() - start):
            setup_s.append(spare_setup())
        enough = attempted >= max(wl.min_ops, 2 if tracer else 1)
        if enough and time.perf_counter() >= deadline:
            while len(setup_s) < MIN_SETUPS:
                setup_s.append(spare_setup())
            return records, failures, attempted, setup_s


def run_one(args) -> int:
    np = _import_program()
    import tracing
    import workloads

    spec = _benchmark_spec()
    wl = workloads.WORKLOADS[args.workload](toy=args.toy)
    env = environment(np, args.seed)
    attempted, failures = workloads.scan_gate(args.seed)

    workdir = WORK / f"{os.getpid()}"
    tracer = tracing.Tracer(workloads.trace_targets()) if args.trace else None
    sub_seeds = (int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
                 for i in itertools.count())

    def timed_setup(instance, directory, traced=False):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        with (tracer.installed() if traced else nullcontext()), \
             (tracer.span("bench.setup") if traced else nullcontext()):
            t0 = time.perf_counter()
            instance.setup(next(sub_seeds), directory)
            return time.perf_counter() - t0

    try:
        first = timed_setup(wl, workdir / "main", traced=tracer is not None)
        records, op_failures, op_attempted, setup_s = measure(
            wl, args.seconds, lambda: timed_setup(type(wl)(toy=args.toy), workdir / "spare"),
            tracer)
        setup_s.append(first)
        failures += op_failures
        attempted += op_attempted
        if tracer:
            WORK.mkdir(exist_ok=True)
            tracer.dump(WORK / f"trace-{wl.name}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in records if not r[0]]
    traced = [r for r in records if r[0]]
    report, values, wanted = {}, {}, []
    if plain and (traced or not args.trace):
        op_ms = [t for r in plain for t in r[3]]
        wall = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": float(np.percentile(op_ms, 50)),
            "op_ms_p90": float(np.percentile(op_ms, 90)),
            "items_per_s": sum(r[2] for r in plain) / sum(r[1] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report = {
            "setup_s": (wall["setup_s"], "s"),
            "failed_frac": (len(failures) / attempted, "frac"),
            "peak_rss_mb": (wall["peak_rss_mb"], "MB"),
            **wl.report(wall),
        }
        if args.trace:
            per_item = lambda rs: statistics.median(r[1] / r[2] for r in rs)
            ops = tracer.summary("bench.op")
            values = workloads.layer_metrics(ops, tracer.summary("bench.setup"),
                                             sum(r[2] for r in traced))
            values["trace_overhead_pct"] = 100.0 * (per_item(traced) / per_item(plain) - 1.0)
            values["trace.unattributed_pct"] = 100.0 * (1.0 - ops["attributed_s"] / ops["root_s"])
            wanted = spec["per_layer"]
        else:
            values = {name: wall[name] for name in
                      ("setup_s", "op_ms_p50", "items_per_s", "peak_rss_mb")}
            wanted = spec["end_to_end"]
    else:
        failures.append("too few operations passed their checks to report")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for problem in failures:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in report.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"workload": wl.name, "env": env, "ops": len(plain),
                      "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}}))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints every figure by name."""
    _require_sources()
    names = [w["name"] for w in _benchmark_spec()["workloads"]]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name} (seed {args.seed}, env {json.dumps(detail['env'])})")
        for key, m in detail["report"].items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']} (detail line)")
        for key, m in result["metrics"].items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']} (result line)")
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": m for k, m in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="shrink every input (for the harness smoke test)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {w["name"] for w in _benchmark_spec()["workloads"]}:
        _fail_setup(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
