#!/usr/bin/env python3
"""The probarg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload entail-random --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
One process and one thread drive the public API in a closed loop: each call
starts when the previous one returns. Every answer is checked after its
instance's timed operations. The last line of standard output is one JSON
object; the lines before it print every metric with its unit and sample
count. `--trace 1` reruns each instance with spans recorded around the
library's entry points and reports per-layer metrics instead.
"""
import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (imported before probarg's import is timed)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 15         # set-ups per run; setup_s is their median
SETUP_CAL = 5           # timed set-up kernel passes after each set-up
HIGHS_INSTANCES = 5     # entail-random instances cross-checked against HiGHS
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# gated end-to-end metrics: name -> unit. `setup_s` and the `*_norm` ones are
# the raw figure at the reference host speed (see `calibration_ns`).
END_TO_END = {
    "setup_s": "s", "problems_per_s_norm": "1/s", "sat_p50_ms_norm": "ms",
    "entail_p50_ms_norm": "ms", "maxent_p50_ms_norm": "ms", "query_p50_ms_norm": "ms",
    "peak_rss_mb": "MB",
}

# A fixed piece of work that shares no code with probarg: dense rank-1 updates
# on a small matrix, an interpreter loop and first touches of fresh pages, the
# kinds of work the library does. It runs after every instance, outside the
# timed region. The host this benchmark runs on drifts by 20-60% over minutes
# (other tenants); the kernel drifts with it, so its time right after an
# instance says how fast the host was then. It allocates nothing from the heaps
# the library uses: its arrays are allocated once and its pages are mapped and
# unmapped directly, so what the library leaves behind cannot change it. An
# untimed first pass reloads what the instance evicted from the caches.
_CAL_MATRIX = np.random.default_rng(0).random((150, 200))
_CAL_T = np.empty_like(_CAL_MATRIX)
_CAL_OUTER = np.empty_like(_CAL_MATRIX)
_CAL_COL = np.empty(_CAL_MATRIX.shape[0])
_CAL_ROW = np.empty(_CAL_MATRIX.shape[1])
_CAL_PAGES = 1024
CAL_REF_MS = 6.2  # the kernel's median on the reference host: 2 vCPU Xeon, 2.1 GHz


def _calibration_pass() -> int:
    T, outer, col, row = _CAL_T, _CAL_OUTER, _CAL_COL, _CAL_ROW
    np.copyto(T, _CAL_MATRIX)
    for k in range(40):
        np.copyto(col, T[:, k])
        np.divide(T[k], T[k, k] + 10.0, out=row)
        np.outer(col, row, out=outer)
        np.subtract(T, outer, out=T)
    with mmap.mmap(-1, _CAL_PAGES * mmap.PAGESIZE) as pages:
        np.frombuffer(pages, dtype=np.uint8)[::mmap.PAGESIZE] = 1
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return acc


def calibration_ns() -> int:
    _calibration_pass()
    t0 = time.perf_counter_ns()
    _calibration_pass()
    return time.perf_counter_ns() - t0


# Set-up builds many small Python objects, and on this host that kind of work
# drifts more than the kernel above. So set-up is measured against a kernel of
# the same kind, run in a fresh interpreter after each set-up, where nothing
# the library left in this process's heap can change it. It prints the median
# of `argv[1]` timed passes, in nanoseconds.
_SETUP_KERNEL = """
import sys, time
def build():
    names = {}
    for i in range(18000):
        name = str(i)
        names[name] = (i, name)
times = []
for _ in range(int(sys.argv[1])):
    build()
    t0 = time.perf_counter_ns()
    build()
    times.append(time.perf_counter_ns() - t0)
print(sorted(times)[len(times) // 2])
"""
SETUP_CAL_REF_MS = 5.5  # its median on the reference host


def setup_calibration_ms() -> float:
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _SETUP_KERNEL, str(SETUP_CAL)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) / 1e6


LABELLING_OPS = ("parse", "compile", "sat", "entail", "maxent", "query", "conditional")
ORACLE_OPS = ("oracle_sat", "oracle_maxent")


def import_probarg():
    """A fresh import of the library from this checkout: (package, seconds)."""
    for name in [m for m in sys.modules if m == "probarg" or m.startswith("probarg.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pa = importlib.import_module("probarg")
    elapsed = time.perf_counter() - t0
    if Path(pa.__file__).resolve().parent != SRC / "probarg":
        raise ImportError(f"probarg imported from {pa.__file__}, not from {SRC}")
    return pa, elapsed


def setup(workload: str, seed: int):
    """Import plus input generation, SETUP_REPS times; the last one is kept.

    Returns the package, the instances, and per set-up its time in seconds
    and the set-up kernel's time in milliseconds right after it.
    """
    times, cal_ms, digests = [], [], set()
    instances = None
    for _ in range(SETUP_REPS):
        instances = None  # each set-up starts from the same heap
        gc.collect()
        gc.disable()  # as timeit does: no collection left over from earlier work
        try:
            pa, t_import = import_probarg()
            t0 = time.perf_counter()
            specs = workloads.generate(workload, seed)
            instances = [workloads.build(pa, workload, s) for s in specs]
            times.append(t_import + time.perf_counter() - t0)
        finally:
            gc.enable()
        digests.add(hash(workloads.input_bytes(specs)))
        cal_ms.append(setup_calibration_ms())
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return pa, instances, times, cal_ms


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "load": "closed loop, 1 client, 1 process, 1 thread"}


def end_to_end(op_ns, setup_times, setup_cal_ms, cal_ns) -> dict[str, tuple[float, int]]:
    """Every end-to-end figure as {name: (value, sample count)}, from each
    measured instance's {operation: nanoseconds}."""
    per_op: dict[str, list[float]] = {op: [] for op in LABELLING_OPS + ORACLE_OPS}
    labelling_ns = []
    for times in op_ns:
        for op, ns in times.items():
            per_op[op].append(ns / 1e6)
        labelling_ns.append(sum(ns for op, ns in times.items() if op in LABELLING_OPS))
    m: dict[str, tuple[float, int]] = {}
    m["setup_raw_s"] = (statistics.median(setup_times), len(setup_times))
    m["problems_per_s"] = (len(labelling_ns) * 1e9 / sum(labelling_ns), len(op_ns))
    for op in ("sat", "entail", "maxent", "query", "conditional", "parse", "compile"):
        if per_op[op]:
            m[f"{op}_p50_ms"] = (statistics.median(per_op[op]), len(per_op[op]))
    for op in ("entail", "maxent"):
        t = tail(per_op[op])
        if t is not None:
            m[f"{op}_tail_ms"] = (t[1], len(per_op[op]))
            m[f"{op}_tail_pct"] = (t[0], len(per_op[op]))
    oracle = [sum(times.get(op, 0) for op in ORACLE_OPS) / 1e6 for times in op_ns
              if "oracle_sat" in times]
    if oracle:
        m["oracle_p50_ms"] = (statistics.median(oracle), len(oracle))
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    # Each set-up and each instance is scaled by the kernel run right after
    # it, so drift within a run cancels too.
    m["setup_calibration_ms"] = (statistics.median(setup_cal_ms), len(setup_cal_ms))
    m["setup_s"] = (statistics.median(t * SETUP_CAL_REF_MS / c
                                      for t, c in zip(setup_times, setup_cal_ms)),
                    len(setup_times))
    m["calibration_ms"] = (statistics.median(cal_ns) / 1e6, len(cal_ns))
    scale = [CAL_REF_MS * 1e6 / ns for ns in cal_ns]  # < 1 when the host ran slow
    norm_ns = sum(ns * f for ns, f in zip(labelling_ns, scale))
    m["problems_per_s_norm"] = (len(labelling_ns) * 1e9 / norm_ns, len(op_ns))
    for op in ("sat", "entail", "maxent", "query"):
        norm = [times[op] / 1e6 * f for times, f in zip(op_ns, scale) if op in times]
        m[f"{op}_p50_ms_norm"] = (statistics.median(norm) if norm else 0.0, len(norm))
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in tracing.LAYER_METRICS:
        return tracing.LAYER_METRICS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "ratio"


def print_metrics(title: str, metrics: dict[str, tuple[float, int]]) -> None:
    print(f"# {title}")
    for name, (value, count) in metrics.items():
        print(f"{name:<28} {value:>14.6f} {unit_of(name):<6} n={count}")


def run(args) -> int:
    try:
        pa, instances, setup_times, setup_cal_ms = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import probarg from {SRC}: {exc}", file=sys.stderr)
        return 2
    modules = {name: importlib.import_module(f"probarg.{name}")
               for name in ("cli", "constraints", "lp", "reasoner", "maxent", "oracle")}
    tracer = tracing.Tracer(modules) if args.trace else None

    wrong: list[tuple[int, str, str]] = []
    attempted = 0

    def gate(k, inst, out):
        nonlocal attempted
        attempted += len(out.times)
        wrong.extend((k, op, why) for op, why in checks.check(pa, args.workload, inst, out))

    # warm-up: lazy imports and first-call set-up finish before timing
    gate(-1, instances[0], workloads.run_instance(pa, args.workload, instances[0]))

    # only the times are kept, so memory does not grow with the run's length
    op_ns, entail_bounds, cal_ns, untraced_ns, traced_ns = [], [], [], 0, 0
    budget = args.seconds * 1e9
    spent = 0
    k = 0
    # the pool and everything set-up made stay alive for the whole run; frozen,
    # the collector no longer walks them, as it would not in a program that
    # had built only the instance at hand
    gc.collect()
    gc.freeze()
    while spent < budget or not op_ns:
        inst = instances[k % len(instances)]
        t0 = time.perf_counter_ns()
        out = workloads.run_instance(pa, args.workload, inst)
        wall = time.perf_counter_ns() - t0
        op_ns.append(out.times)
        if k < HIGHS_INSTANCES:
            entail_bounds.append(out.values.get("entail"))
        spent += wall
        cal_ns.append(calibration_ns())
        gate(k, inst, out)
        if tracer is not None:
            tracer.instance = k
            with tracer.installed():
                t0 = time.perf_counter_ns()
                tout = workloads.run_instance(pa, args.workload, inst, tracer)
                twall = time.perf_counter_ns() - t0
            spent += twall
            untraced_ns += wall
            traced_ns += twall
            gate(k, inst, tout)
        # free the instance's reference cycles now, outside the timed region,
        # so that neither a later instance's times nor the peak RSS depend on
        # when the collector last ran
        gc.collect()
        k += 1
    metrics = end_to_end(op_ns, setup_times, setup_cal_ms, cal_ns)  # before HiGHS loads scipy

    highs = checks.HighsReference() if args.workload == "entail-random" else None
    if highs is not None and highs.available:
        for k, (inst, bounds) in enumerate(zip(instances, entail_bounds)):
            if bounds is not None:
                wrong.extend((k, op, why) for op, why in highs.check(inst, bounds))

    env = environment(args)
    failed = len({(k, op) for k, op, _ in wrong})
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# inputs: {len(instances)} generated, {len(op_ns)} instances measured")
    print_metrics("end to end (untraced)", metrics)
    print(f"{'fail_ratio':<28} {failed / max(attempted, 1):>14.6f} {'ratio':<6} n={attempted}")

    result_metrics = {name: metrics[name] for name in END_TO_END}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_ratio"] = (traced_ns / untraced_ns, len(op_ns))
        ref = highs.times_ms if highs is not None else []
        layers["ref.highs_entail_ms"] = (statistics.median(ref) if ref else 0.0, len(ref))
        print_metrics("per layer (traced)", layers)
        tracer.write(OUT / f"spans-{stem}.json", env)
        result_metrics = {name: layers[name] for name in tracing.LAYER_METRICS}

    for k, op, why in wrong[:20]:
        print(f"WRONG instance {k} {op}: {why}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(v), "unit": unit_of(name)}
                          for name, (v, _) in result_metrics.items()}}
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "all_metrics": metrics, "result": result,
                   "op_ms": [{op: ns / 1e6 for op, ns in times.items()} for times in op_ns],
                   "calibration_ms": [ns / 1e6 for ns in cal_ns]},
                  fh)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
