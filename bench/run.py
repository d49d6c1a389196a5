"""pathhjb benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): ``markov-ladder``, ``path-dependent`` and
``pathwise``. Each is a closed loop: one process runs the tasks one after
another, with no worker threads, and BLAS pinned to one thread.

With ``--trace 0`` the launcher first runs the workload's set-up alone in
four fresh processes, then runs passes over the task list in a fifth until
``--seconds`` have gone, and prints the end-to-end metrics:

  wall_s        sum over the tasks of a pass of their latencies
  task_p50_ms   median of the task latencies, one per task of a pass
  task_p90_ms   90th percentile of the same, with at least 10 tasks beyond it
  setup_s       median over the five processes of import, input generation
                and problem construction
  peak_rss_mib  peak resident set size of the process that ran the passes

A task's latency is its median over the run's passes. Times are scaled to a
reference host speed: the worker times a fixed kernel of small numpy
operations before every task and after the last, and a latency is multiplied
by REFERENCE_KERNEL_MS over the mean of the two readings around it (set-up
by the readings right after it). On a shared host whose speed swings with its
neighbours' load, up to twofold within a minute, this keeps runs comparable;
the unscaled figures and the median kernel reading are in the metadata.

With ``--trace 1`` one process runs an untraced pass and then traced passes,
and the launcher prints the per-layer metrics of tracing.py, per pass and
unscaled.

Every task is checked by an oracle; a miss or an exception counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``bench-meta``, holds the run's metadata: versions, commit,
seed, task counts, latency sample count, failed ratio, the SHA-256 digest of
the task outputs (printed at 17 significant digits) and, when traced, the
tracing overhead. The exit code is 0 only when every task passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("markov-ladder", "path-dependent", "pathwise")
SETUP_ONLY_PROCESSES = 4
DEADLINE_S = 170.0
# The host kernel's time on the reference host; times are scaled to it.
REFERENCE_KERNEL_MS = 5.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        cmd, env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolating between the closest ranks."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def per_task_latencies(report: dict, scaled: bool) -> list[float]:
    """Each task's median latency over the run's passes, in ms.

    Scaled, a latency is multiplied by REFERENCE_KERNEL_MS over the mean of
    the host-kernel readings just before and just after the task.
    """
    samples = []
    for lat, kernel in zip(report["latencies_ms"], report["kernel_ms"]):
        if scaled:
            lat = [x * 2.0 * REFERENCE_KERNEL_MS / (k0 + k1) for x, k0, k1 in zip(lat, kernel, kernel[1:])]
        samples.append(lat)
    return [statistics.median(xs) for xs in zip(*samples)]


def end_to_end(report: dict, setups: list[dict], scaled: bool = True) -> dict:
    per_task = per_task_latencies(report, scaled)
    setup = [r["setup_s"] * (REFERENCE_KERNEL_MS / r["setup_kernel_ms"] if scaled else 1.0) for r in setups]
    return {
        "wall_s": {"value": sum(per_task) / 1e3, "unit": "s"},
        "task_p50_ms": {"value": percentile(per_task, 50), "unit": "ms"},
        "task_p90_ms": {"value": percentile(per_task, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = [
            run_worker(args.workload, args.seed, 0.0, 0, deadline, setup_only=True)
            for _ in range(0 if args.trace else SETUP_ONLY_PROCESSES)
        ]
        report = run_worker(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = report["attempted"]
    failed = report["failed"]
    for msg in report["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in report["per_layer"].items()}
    else:
        metrics = end_to_end(report, setups + [report])

    digests = report["digests"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": report["python"],
        "numpy": report["numpy"],
        "commit": git_commit(ROOT),
        "setup_processes": len(setups) + 1,
        "passes": len(report["pass_walls_s"]),
        "task_counts": report["task_counts"],
        "latency_samples": sum(len(p) for p in report["latencies_ms"]),
        "failed_ratio": failed / attempted,
        "digest_sha256": digests[0] if len(digests) == 1 else digests,
        "digest_consistent": len(digests) == 1,
    }
    if not args.trace:
        meta["host_kernel_ms"] = statistics.median(k for ks in report["kernel_ms"] for k in ks)
        meta["unscaled"] = {k: v["value"] for k, v in end_to_end(report, setups + [report], scaled=False).items()}
    else:
        # Pass walls scaled to the reference host speed, like the latencies.
        untraced = report["untraced_wall_s"] * REFERENCE_KERNEL_MS / statistics.median(report["untraced_kernel_ms"])
        traced = statistics.median(
            w * REFERENCE_KERNEL_MS / statistics.median(k) for w, k in zip(report["pass_walls_s"], report["kernel_ms"])
        )
        meta["untraced_wall_s"] = untraced
        meta["traced_wall_s"] = traced
        meta["tracing_overhead_s"] = traced - untraced
    print("bench-meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
