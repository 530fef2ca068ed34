"""flagroots benchmark: one workload per call, outputs checked, one JSON line.

    python3 perfbench/run.py --workload enumerate|residual|certify \
        --seed N --seconds S --trace 0|1

With --trace 0 it times SETUP_PROBES fresh starts of the worker up to
its first job (setup_s is their median), then runs the worker's closed
loop of jobs for S seconds in one process.  With --trace 1 it runs the
worker once with spans around each flagroots layer and reports the
per-layer metrics instead.  Either way the outputs are checked here,
after the worker has exited, against oracle.py.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}.

setup_s and the job times (and trace.job_p50_ms) are scaled to the
reference speed of a speed.py kernel timed around each probe and job;
the raw medians go to stderr as one line `perfbench: raw {...}`.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from speed import KERNELS, scaled
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# Fresh starts timed per run for setup_s; one more, untimed, warms the disk cache.
SETUP_PROBES = 15
# The kernel that tracks each workload's jobs.  Enumerate's jobs are bound
# by allocation, the collector and JSON encoding over a heap of 500 MB and
# follow the memory kernel; the compute kernel adds noise there (README.md).
# The other jobs, and every set-up, are small-heap Fraction and tuple work.
JOB_KERNEL = {"enumerate": "memory", "residual": "cpu", "certify": "cpu"}
SETUP_KERNEL = "cpu"


def probe(workload: str) -> float:
    """Wall time from spawning a fresh worker until it is ready to run a job."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "probe", workload,
                             "--seed", "0", "--out", str(OUT)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe of {workload} failed")
    return elapsed


def run_worker(args) -> dict:
    """Run the worker's jobs, timing the workload's kernel at each boundary."""
    result = OUT / f"{args.workload}.json"
    result.unlink(missing_ok=True)
    if args.workload == "residual":
        inputs.write_residual_inputs(args.seed, OUT / "residual-inputs.jsonl")
    cmd = [sys.executable, str(WORKER), "run", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    kernel = KERNELS[JOB_KERNEL[args.workload]][0]
    refs = []
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        for line in proc.stdout:
            if line != "boundary\n":
                sys.stderr.write(line)
                continue
            refs.append(kernel())
            proc.stdin.write("\n")
            proc.stdin.flush()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker for {args.workload} failed")
    doc = json.loads(result.read_text())
    doc["ref_ms"] = refs
    with open(OUT / f"{args.workload}-jobs.jsonl") as jobs:
        doc["jobs"] = [json.loads(line) for line in jobs]
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "flagroots" / "__init__.py").is_file():
        print(f"perfbench: no flagroots source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        probe(args.workload)
        kernel = KERNELS[SETUP_KERNEL][0]
        ref = kernel()
        for _ in range(SETUP_PROBES):
            measured = probe(args.workload)
            setups.append((measured, ref, ref := kernel()))
    doc = run_worker(args)
    gc.disable()  # the checks build large acyclic structures; spare them the collector
    problems = checks.check_run(doc)
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    jobs, refs = doc["jobs"], doc["ref_ms"]
    raw_ms = [j["ms"] for j in jobs]
    job_kernel = JOB_KERNEL[args.workload]
    job_ms = [scaled(ms, job_kernel, refs[k], refs[k + 1]) for k, ms in enumerate(raw_ms)]
    raw = {"jobs": len(jobs), "job_p50_ms": statistics.median(raw_ms),
           "kernel_p50_ms": statistics.median(refs)}
    if args.trace:
        metrics = dict(doc["trace"], **{"trace.job_p50_ms": statistics.median(job_ms)})
        values = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        raw["setup_s"] = statistics.median(m for m, _, _ in setups)
        values = {
            "setup_s": (statistics.median(scaled(m, SETUP_KERNEL, *r) for m, *r in setups), "s"),
            "jobs_per_s": (len(jobs) / (sum(job_ms) / 1e3), "1/s"),
            "job_p50_ms": (statistics.median(job_ms), "ms"),
            "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        }
    print(f"perfbench: raw {json.dumps(raw)}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
