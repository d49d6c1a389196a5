"""One workload process: set up, run verified passes, print one JSON line.

Run by ``bench/run.py``; not meant to be called by hand. Set-up is everything
before the first pass: importing pathhjb, generating the seeded inputs and
constructing the problems; ``--setup-only`` stops there. A pass runs every
task of the workload once and checks every output against its oracle. Before
each task, outside its timed region, it collects garbage and times the host
kernel that run.py scales latencies by.

With ``--trace 1`` the process runs one untraced pass, then installs the span
wrappers and runs traced passes; the wrappers are removed before it exits.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path as FsPath  # noqa: E402

ROOT = FsPath(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / "bench" / "out"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def host_kernel_ms() -> float:
    """Time of a fixed kernel of small numpy operations and Python arithmetic.

    It gauges the host's current speed for code like pathhjb's, which on a
    shared host changes with the neighbours' load.
    """
    import math

    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        a = np.array([i, 1.0])
        b = a * 2.0 + 1.0
        acc += float(b.sum()) + math.tanh(i * 1e-3)
    return 1e3 * (time.perf_counter() - t0)


def run_pass(tasks, problems, tracer=None) -> dict:
    """Run every task once; returns wall time, latencies, failures and a digest.

    Before each task, and once after the last, the pass collects garbage and
    reads the host kernel; the wall time leaves these out, and the folding of
    trace spans, which are the benchmark's own work.
    """
    results: dict = {}
    latencies = []
    kernel = []
    failures = []
    digest = hashlib.sha256()
    harness_s = 0.0
    started = time.perf_counter()
    for task in tasks:
        g0 = time.perf_counter()
        gc.collect()
        kernel.append(host_kernel_ms())
        t0 = time.perf_counter()
        harness_s += t0 - g0
        try:
            out = task.run(problems)
            err = None
        except Exception as exc:  # a failing task is counted, and the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = task.check(out, results)
            except Exception as exc:
                err = f"oracle raised {type(exc).__name__}: {exc}"
        results[task.key] = out
        if err is not None:
            failures.append(f"{task.key}: {err}")
        digest.update(f"{task.key}:{'' if out is None else ','.join(_fmt(x) for x in out)}\n".encode())
        if tracer is not None:
            f0 = time.perf_counter()
            tracer.flush()
            harness_s += time.perf_counter() - f0
    g0 = time.perf_counter()
    kernel.append(host_kernel_ms())
    harness_s += time.perf_counter() - g0
    return {
        "wall_s": time.perf_counter() - started - harness_s,
        "latencies_ms": [1e3 * x for x in latencies],
        "kernel_ms": kernel,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import pathhjb

    if FsPath(pathhjb.__file__).resolve().parent != SRC / "pathhjb":
        print(f"pathhjb was imported from {pathhjb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.build(args.workload, args.seed, WORKDIR / args.workload)
    problems = wl.construct()
    setup_s = time.perf_counter() - _T0
    setup_kernel_ms = statistics.median(host_kernel_ms() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_kernel_ms": setup_kernel_ms}))
        return 0

    started = time.perf_counter()
    passes = []
    tracer = None
    untraced = None
    if args.trace:
        untraced = run_pass(wl.tasks, problems)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            problems = wl.construct()  # again, so the coefficients are wrapped
            tracer.flush()
            tracer.totals.clear()
            while not passes or time.perf_counter() - started < args.seconds:
                passes.append(run_pass(wl.tasks, problems, tracer))
        finally:
            patches.restore()
    else:
        while not passes or time.perf_counter() - started < args.seconds:
            passes.append(run_pass(wl.tasks, problems))

    checked = passes + ([untraced] if untraced else [])
    report = {
        "setup_s": setup_s,
        "setup_kernel_ms": setup_kernel_ms,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "latencies_ms": [p["latencies_ms"] for p in passes],
        "kernel_ms": [p["kernel_ms"] for p in passes],
        "attempted": len(wl.tasks) * len(checked),
        "failed": sum(len(p["failures"]) for p in checked),
        "failures": [f for p in checked for f in p["failures"]][:20],
        "digests": sorted({p["digest"] for p in checked}),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "task_counts": wl.kind_counts(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        report["untraced_wall_s"] = untraced["wall_s"]
        report["untraced_kernel_ms"] = untraced["kernel_ms"]
        report["per_layer"] = tracing.per_layer_metrics(tracer.totals, len(passes))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
