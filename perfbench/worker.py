"""One workload in one process: set up, then run timed jobs back to back.

    python3 worker.py probe <workload> --seed N --out DIR
        set up, print "ready" and exit (run.py times fresh starts of this)
    python3 worker.py run <workload> --seed N --seconds S --trace 0|1 --out DIR
        set up, run jobs until S seconds have passed; write one line per job
        to DIR/<workload>-jobs.jsonl and the run's summary to DIR/<workload>.json

Before the first job and after each one the worker prints "boundary"
and waits for a line on stdin, while run.py times its speed kernel.

The worker imports flagroots from the checkout's src/ and never the
benchmark's oracle (residual inputs come from a file that run.py writes
beforehand) or its kernels, so its peak RSS is the program's.  Output
checks run afterwards, in run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_flagroots():
    if not (SRC / "flagroots" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flagroots package under {SRC}")
    sys.path.insert(0, str(SRC))
    import flagroots
    import flagroots.cli  # noqa: F401  (the jobs call cli.main)

    if Path(flagroots.__file__).resolve().parent != SRC / "flagroots":
        sys.exit(f"perfbench: imported flagroots from {flagroots.__file__}, not {SRC}")
    return flagroots


def _element(elem) -> dict:
    return {"a": [[list(r), str(c)] for r, c in elem.a.items()],
            "b": [[list(r), str(c)] for r, c in elem.b.items()],
            "cartan": [str(c) for c in elem.cartan]}


def boundary() -> None:
    """Hand the machine to run.py for a speed sample, and wait until it is done."""
    print("boundary", flush=True)
    sys.stdin.readline()


class Job:
    """Counts the program calls of one job; a call that raises or exits
    nonzero is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        return result

    def cli(self, fr, argv) -> int | None:
        rc = self.call(fr.cli.main, argv)
        if rc != 0 and rc is not None:
            self.failed += 1
        return rc


class Enumerate:
    """`enumerate E8_12 --format json --verify-fixtures` through cli.main."""

    space = "E8_12"

    def __init__(self, fr, seed: int, out: Path):
        self.fr, self.seed, self.path = fr, seed, out / "enumerate-out.json"
        fr.space_diagram(self.space).isotropy_decomposition()
        fr.load_fixture(self.space)

    def prepare(self, job: int):
        return ["enumerate", self.space, "--format", "json", "--verify-fixtures",
                "--seed", str(self.seed), "--out", str(self.path)]

    def run(self, job: Job, argv):
        return job.cli(self.fr, argv)

    def collect(self, argv, rc) -> dict:
        if not self.path.exists():
            return {"rc": rc, "sha256": None, "path": str(self.path)}
        with open(self.path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        return {"rc": rc, "sha256": digest, "path": str(self.path)}

    def systems(self):
        return [self.fr.space_diagram(self.space).system]


class Residual:
    """Dense and family-supported E8_12 vectors through
    equigeodesic_residual under a metric batch, and the all-metrics test."""

    space = inputs.RESIDUAL_SPACE

    def __init__(self, fr, seed: int, out: Path):
        self.fr, self.seed, self.inputs = fr, seed, out / "residual-inputs.jsonl"
        self.pd = fr.space_diagram(self.space)
        self.table = fr.build_constants(self.pd.system)

    def prepare(self, job: int):
        doc = inputs.read_residual_input(self.inputs, job)
        fr = self.fr
        vectors = {name: fr.TangentVector.from_coefficients(self.pd, a=doc[name]["a"],
                                                            b=doc[name]["b"])
                   for name in ("dense", "family")}
        metrics = [fr.MetricVector(lam) for lam in doc["metrics"]]
        return vectors, metrics

    def run(self, job: Job, prepared):
        vectors, metrics = prepared
        fr, table, pd = self.fr, self.table, self.pd
        out = {}
        for name, x in vectors.items():
            out[name] = [job.call(fr.equigeodesic_residual, table, pd, x, lam)
                         for lam in metrics]
            out[f"{name}_all_metrics"] = job.call(fr.is_equigeodesic_all_metrics,
                                                  table, pd, x)
        return out

    def collect(self, prepared, out) -> dict:
        for name in ("dense", "family"):
            out[name] = [None if r is None else _element(r) for r in out[name]]
        return out

    def systems(self):
        return [self.pd.system]


class Certify:
    """`table brackets <space> --check --format json` for all five spaces,
    then every non-suspect reference family through is_structural_family
    and is_equigeodesic_all_metrics on fresh constant tables."""

    def __init__(self, fr, seed: int, out: Path):
        self.fr, self.seed, self.out = fr, seed, out
        self.spaces = {}
        for sid in fr.fixtures.SPACE_IDS:
            pd = fr.space_diagram(sid)
            pd.isotropy_decomposition()
            fx = fr.load_fixture(sid)
            self.spaces[sid] = (pd, [fx.family_roots(f) for f in fx.families if not f.suspect])

    def prepare(self, job: int):
        plan = {}
        for sid, (pd, families) in self.spaces.items():
            coeffs = inputs.certify_coefficients(self.seed, job, sid, [len(f) for f in families])
            vecs = [({tuple(r): c for r, c in zip(roots, k["a"])},
                     {tuple(r): c for r, c in zip(roots, k["b"])})
                    for roots, k in zip(families, coeffs)]
            argv = ["table", "brackets", sid, "--check", "--format", "json",
                    "--seed", str(self.seed), "--out", str(self.out / f"certify-{sid}.json")]
            plan[sid] = (argv, vecs)
        return plan

    def run(self, job: Job, plan):
        fr = self.fr
        out = {}
        for sid, (argv, vecs) in plan.items():
            pd, families = self.spaces[sid]
            rc = job.cli(fr, argv)
            table = job.call(fr.build_constants, pd.system)
            verdicts = []
            for roots, (a, b) in zip(families, vecs):
                fam = job.call(fr.StructuralFamily.from_roots, pd, roots)
                x = job.call(fr.TangentVector.from_coefficients, pd, a, b)
                verdicts.append([job.call(fr.is_structural_family, fam),
                                 job.call(fr.is_equigeodesic_all_metrics, table, pd, x)])
            out[sid] = {"rc": rc, "families": verdicts}
        return out

    def collect(self, plan, out) -> dict:
        for sid, (argv, _) in plan.items():
            out[sid]["doc"] = json.loads(Path(argv[-1]).read_text())
        return out

    def systems(self):
        return [pd.system for pd, _ in self.spaces.values()]


WORKLOADS = {"enumerate": Enumerate, "residual": Residual, "certify": Certify}


def run(args) -> None:
    fr = import_flagroots()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = Path(args.out)
    workload = WORKLOADS[args.workload](fr, args.seed, out)
    setup_end = time.perf_counter()
    windows = []
    boundary()
    # Job records go straight to disk, so that they do not add to the peak RSS.
    with open(out / f"{args.workload}-jobs.jsonl", "w") as jobs:
        begin = time.perf_counter()
        while not windows or time.perf_counter() - begin < args.seconds:
            gc.collect()
            prepared = workload.prepare(len(windows))
            job = Job()
            t0 = time.perf_counter()
            result = workload.run(job, prepared)
            t1 = time.perf_counter()
            windows.append((t0, t1))
            boundary()
            record = {"ms": (t1 - t0) * 1e3, "attempted": job.attempted, "failed": job.failed,
                      "output": workload.collect(prepared, result)}
            jobs.write(json.dumps(record) + "\n")
            del prepared, result, record
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "oracle" in sys.modules:
        sys.exit("perfbench: the worker loaded the oracle, so its peak RSS is not the program's")
    doc = {"workload": args.workload, "seed": args.seed,
           "peak_rss_mb": peak_kb / 1024,
           "positive_roots": {s.lie_type.name: [list(r) for r in s.positive_roots]
                              for s in workload.systems()}}
    if tracer is not None:
        doc["trace"] = tracer.metrics(setup_end, windows)
        tracer.dump(out / f"trace-{args.workload}.json")
    (out / f"{args.workload}.json").write_text(json.dumps(doc))


def main() -> None:
    parser = argparse.ArgumentParser()
    modes = parser.add_subparsers(dest="mode", required=True)
    probe, run_ = modes.add_parser("probe"), modes.add_parser("run")
    for sub in (probe, run_):
        sub.add_argument("workload", choices=sorted(WORKLOADS))
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--out", required=True)
    run_.add_argument("--seconds", type=float, required=True)
    run_.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.mode == "probe":
        fr = import_flagroots()
        WORKLOADS[args.workload](fr, args.seed, Path(args.out))
        print("ready", flush=True)
    else:
        run(args)


if __name__ == "__main__":
    main()
