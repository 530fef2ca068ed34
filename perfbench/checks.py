"""Output checks, each against oracle.py's independent root arithmetic or
a property the method must have.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import inputs
import oracle

Vec = tuple[int, ...]


def check_roots(family: str, listed: list[list[int]]) -> list[str]:
    """The program's positive roots, in order, against the reflection closure."""
    want = oracle.roots(family).positive
    got = [tuple(r) for r in listed]
    if got != want:
        return [f"{family}: {len(got)} positive roots differ from the "
                f"{len(want)} of the reflection closure"]
    return []


def check_enumerate(doc: dict, space_id: str, expected: set[frozenset[Vec]]) -> list[str]:
    """An `enumerate --format json --verify-fixtures` document against the
    maximal cliques of the root-membership compatibility graph."""
    sp = oracle.space(space_id)
    problems = []
    for key, want in (("command", "enumerate"), ("space", space_id),
                      ("truncated", False), ("fixture_match", True)):
        if doc.get(key) != want:
            problems.append(f"{key} is {doc.get(key)!r}, expected {want!r}")
    if doc.get("fixture_check", {}).get("missed") != []:
        problems.append("fixture check reports missed reference families")
    families = doc.get("families", [])
    if doc.get("total") != len(families):
        problems.append(f"total {doc.get('total')} but {len(families)} families listed")
    got = set()
    for fam in families:
        roots = frozenset(tuple(m["root_coeffs"]) for m in fam["members"])
        got.add(roots)
        for m in fam["members"]:
            r = tuple(m["root_coeffs"])
            if sp.module.get(r) != m["module"]:
                problems.append(f"root {r} listed in module {m['module']}")
    if len(got) != len(families):
        problems.append("a family is listed twice")
    if got != expected:
        problems.append(f"{len(got - expected)} families are not maximal cliques, "
                        f"{len(expected - got)} maximal cliques are missing")
    return problems


def check_table(doc: dict, space_id: str) -> list[str]:
    """A `table brackets --check --format json` document against the table
    derived from root arithmetic."""
    sp = oracle.space(space_id)
    problems = []
    for key, want in (("command", "table brackets"), ("space", space_id),
                      ("check", True), ("match", True), ("labels", sp.labels),
                      ("brackets", sp.bracket_table())):
        if doc.get(key) != want:
            problems.append(f"{space_id}: {key} is {doc.get(key)!r}, expected {want!r}")
    return problems


def _parse(elem: dict) -> tuple[dict[Vec, Fraction], dict[Vec, Fraction], list[Fraction]]:
    a = {tuple(r): Fraction(c) for r, c in elem["a"]}
    b = {tuple(r): Fraction(c) for r, c in elem["b"]}
    return a, b, [Fraction(c) for c in elem["cartan"]]


def check_residuals(space_id: str, vector: dict, metrics: list, residuals: list) -> list[str]:
    """Residuals [X, Lambda X]_m of one vector under the metric batch
    [l1, l2, l1 + l2, l1 + c]: tangent, Killing-orthogonal to X and to
    Lambda X, additive in the metric and blind to a common shift."""
    sp = oracle.space(space_id)
    problems = []
    parsed = []
    for k, (lam, elem) in enumerate(zip(metrics, residuals)):
        if elem is None:
            parsed.append(None)
            continue
        a, b, cartan = _parse(elem)
        parsed.append((a, b))
        if any(cartan) or any(r not in sp.module for r in (*a, *b)):
            problems.append(f"residual {k} leaves the tangent space")
            continue
        for name, scale in (("X", None), ("Lambda X", lam)):
            xa, xb = ({r: c * (1 if scale is None else scale[sp.module[r] - 1])
                       for r, c in vector[part].items()} for part in ("a", "b"))
            if sp.killing(a, xa) + sp.killing(b, xb) != 0:
                problems.append(f"residual {k} is not Killing-orthogonal to {name}")
    if all(p is not None for p in parsed):
        r1, r2, r12, r1c = parsed
        for part in (0, 1):
            total = dict(r1[part])
            for r, c in r2[part].items():
                total[r] = total.get(r, 0) + c
            if {r: c for r, c in total.items() if c} != r12[part]:
                problems.append("residual is not additive in the metric")
            if r1c[part] != r1[part]:
                problems.append("residual changes under a common metric shift")
    return problems


def check_residual_job(seed: int, job: int, output: dict) -> list[str]:
    """One residual job: both vectors' residuals, the family vector's zero
    residual and all-metrics pass, the dense vector's all-metrics fail."""
    doc = inputs.residual_job(seed, job % inputs.RESIDUAL_POOL)
    space_id = inputs.RESIDUAL_SPACE
    problems = []
    for name in ("dense", "family"):
        problems += [f"{name}: {p}" for p in
                     check_residuals(space_id, doc[name], doc["metrics"], output[name])]
    if any(r is not None and (r["a"] or r["b"] or any(Fraction(c) for c in r["cartan"]))
           for r in output["family"]):
        problems.append("a vector on a structural family has a nonzero residual")
    if output["family_all_metrics"] is False:
        problems.append("a vector on a structural family fails the all-metrics test")
    if output["dense_all_metrics"] is True:
        problems.append("the dense vector passes the all-metrics test")
    return problems


def check_certify_job(output: dict) -> list[str]:
    problems = []
    for sid, res in output.items():
        problems += check_table(res["doc"], sid)
        if any(v is False for pair in res["families"] for v in pair):
            problems.append(f"{sid}: a reference family is rejected")
    return problems


def check_run(doc: dict) -> list[str]:
    """All checks for one worker result document."""
    problems = []
    for family, listed in doc["positive_roots"].items():
        problems += check_roots(family, listed)
    jobs = doc["jobs"]
    if doc["workload"] == "enumerate":
        outputs = [j["output"] for j in jobs if j["failed"] == 0]
        if outputs:
            # Every job writes the same file; all must hash alike, and the
            # last one is checked in full.
            if len({o["sha256"] for o in outputs}) != 1:
                problems.append("enumerate outputs differ between jobs")
            space_id = "E8_12"
            text = Path(outputs[-1]["path"]).read_text()
            problems += check_enumerate(json.loads(text), space_id,
                                        oracle.space(space_id).maximal_families())
    elif doc["workload"] == "residual":
        for k, j in enumerate(jobs):
            problems += [f"job {k}: {p}" for p in check_residual_job(doc["seed"], k, j["output"])]
    else:
        for k, j in enumerate(jobs):
            problems += [f"job {k}: {p}" for p in check_certify_job(j["output"])]
    return problems
