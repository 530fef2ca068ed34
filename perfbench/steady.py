"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Set 1 runs run.py on seeds 101..110 for every workload, then set 2 on
seeds 201..210, each run for BENCHMARK.json's run_seconds.  For every
end-to-end metric and workload it prints each set's median and
quartiles, the quartile spread as a share of the median against the
metric's bound, and how far set 2's median moved from set 1's, with the
operations attempted and failed.  Rows `raw:setup_s` and
`raw:job_p50_ms` give the same figures before scaling to the reference
speed (run.py's stderr line `perfbench: raw {...}`).  Last comes one
traced run per workload on seed 101, with its per-layer metrics and the
tracing overhead on the median job.  Raw results go to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED_BASES = (101, 201)
RAW_PREFIX = "perfbench: raw "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = [line for line in proc.stderr.splitlines() if line.startswith(RAW_PREFIX)]
    result["raw"] = json.loads(raw[-1][len(RAW_PREFIX):])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for base in SEED_BASES:
        for w in workloads:
            runs = []
            for seed in range(base, base + RUNS):
                t0 = time.perf_counter()
                runs.append(run_once(w, seed, seconds, 0))
                print(f"{w} seed {seed} ({time.perf_counter() - t0:.0f} s): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr)
            results[w].append(runs)
    traced = {w: run_once(w, SEED_BASES[0], seconds, 1) for w in workloads}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps({"sets": results, "traced": traced}))

    rows = [(m["name"], m["bound"], lambda r, n=m["name"]: r["metrics"][n]["value"])
            for m in spec["end_to_end"]]
    rows += [(f"raw:{n}", None, lambda r, n=n: r["raw"][n])
             for n in ("setup_s", "job_p50_ms")]
    print(f"{'workload':10} {'metric':16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'moved':>7}  verdict")
    for w in workloads:
        for name, bound, value in rows:
            first = None
            for s, runs in enumerate(results[w]):
                q1, med, q3 = quartiles([value(r) for r in runs])
                spread = (q3 - q1) / med
                moved = 0.0 if first is None else (med - first) / first
                verdict = []
                if bound is not None:
                    if spread > bound:
                        verdict.append("SPREAD>BOUND")
                    elif spread > bound / 3:
                        verdict.append("spread>bound/3")
                    if abs(moved) > bound:
                        verdict.append("MOVED>BOUND")
                print(f"{w:10} {name:16} {s + 1:>3} {q1:12.5g} {med:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {bound if bound is not None else '-':>6} {moved:+7.3f}  "
                      f"{' '.join(verdict) or ('ok' if bound is not None else '')}")
                first = med if first is None else first
        for s, runs in enumerate(results[w]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            correct = all(r["correct"] for r in runs)
            print(f"{w:10} set {s + 1}: attempted {attempted}, failed {failed}, "
                  f"failed shares {shares}, all correct {correct}")
    for w, r in traced.items():
        traced_p50 = r["metrics"]["trace.job_p50_ms"]["value"]
        untraced = statistics.median(x["metrics"]["job_p50_ms"]["value"]
                                     for runs in results[w] for x in runs)
        print(f"\n{w}: traced job p50 {traced_p50:.1f} ms, correct {r['correct']}, untraced "
              f"{untraced:.1f} ms, overhead {traced_p50 / untraced - 1:+.1%}")
        for k, v in r["metrics"].items():
            print(f"  {k:32} {v['value']:14.6g} {v['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
