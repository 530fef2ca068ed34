"""Seeded job inputs.  The same (workload, seed, job) gives the same input.

Inputs are plain coefficient maps over root tuples.  The residual
inputs are drawn from the benchmark's own root arithmetic (oracle.py) in
run.py, which writes them to a file for the worker, so that the worker
never loads the oracle; the checks regenerate them to test the outputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

RESIDUAL_SPACE = "E8_12"
# Distinct residual inputs per run; job k takes input k % RESIDUAL_POOL.
RESIDUAL_POOL = 32
# Numerators in +-[1, NUM_MAX], denominators in [1, DEN_MAX].
NUM_MAX, DEN_MAX = 9, 5
# Metric parameters p/q with p in [1, 60], q in [1, 7].
LAMBDA_NUM, LAMBDA_DEN = 60, 7


def rng_for(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{job}")


def coefficient(rng: random.Random) -> Fraction:
    num = rng.randint(1, NUM_MAX) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, DEN_MAX))


def _positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, LAMBDA_NUM), rng.randint(1, LAMBDA_DEN))


def residual_job(seed: int, job: int) -> dict:
    """One dense vector over all of R_M+ (A and B parts), one vector on a
    seeded maximal structural family, and a batch of four metrics
    [l1, l2, l1 + l2, l1 + c] whose residuals must be additive and
    shift-invariant."""
    import oracle  # here, not at the top: the worker imports this module

    rng = rng_for("residual", seed, job)
    sp = oracle.space(RESIDUAL_SPACE)
    dense = {part: {r: coefficient(rng) for r in sp.m_pos} for part in ("a", "b")}
    roots = sp.random_maximal_family(rng)
    family = {part: {r: coefficient(rng) for r in roots} for part in ("a", "b")}
    l1 = tuple(_positive(rng) for _ in sp.troots)
    l2 = tuple(_positive(rng) for _ in sp.troots)
    c = _positive(rng)
    metrics = [l1, l2, tuple(x + y for x, y in zip(l1, l2)), tuple(x + c for x in l1)]
    return {"dense": dense, "family": family, "metrics": metrics}


def write_residual_inputs(seed: int, path) -> None:
    """The run's residual inputs, one JSON line per pool entry."""
    with open(path, "w") as fh:
        for k in range(RESIDUAL_POOL):
            doc = residual_job(seed, k)
            line = {name: {part: [[list(r), str(c)] for r, c in doc[name][part].items()]
                           for part in ("a", "b")} for name in ("dense", "family")}
            line["metrics"] = [[str(x) for x in lam] for lam in doc["metrics"]]
            fh.write(json.dumps(line) + "\n")


def read_residual_input(path, job: int) -> dict:
    """Job `job`'s entry of a file from write_residual_inputs, with Fractions."""
    with open(path) as fh:
        line = fh.readlines()[job % RESIDUAL_POOL]
    doc = json.loads(line)
    out = {name: {part: {tuple(r): Fraction(c) for r, c in doc[name][part]}
                  for part in ("a", "b")} for name in ("dense", "family")}
    out["metrics"] = [tuple(Fraction(x) for x in lam) for lam in doc["metrics"]]
    return out


def certify_coefficients(seed: int, job: int, space_id: str, sizes: list[int]) -> list[dict]:
    """A/B coefficients for each reference family of a space, by size."""
    rng = random.Random(f"certify:{seed}:{job}:{space_id}")
    return [{part: [coefficient(rng) for _ in range(n)] for part in ("a", "b")}
            for n in sizes]
