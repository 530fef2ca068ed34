"""The output checks accept the program's outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import random
from fractions import Fraction

import pytest

import checks
import inputs
import oracle
import worker

fr = worker.import_flagroots()


def cli_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    assert fr.cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("family", sorted(oracle.GRAM))
def test_roots_check(family):
    system = fr.root_system(fr.LieType[family])
    listed = [list(r) for r in system.positive_roots]
    assert checks.check_roots(family, listed) == []
    assert checks.check_roots(family, listed[:-1])


@pytest.mark.parametrize("space_id", ["F4_34", "E6_36"])
def test_enumerate_check_rejects_a_dropped_family(tmp_path, space_id):
    doc = cli_json(tmp_path, "enumerate", space_id, "--verify-fixtures")
    expected = oracle.space(space_id).maximal_families()
    assert checks.check_enumerate(doc, space_id, expected) == []
    doc["families"].pop(len(doc["families"]) // 2)
    doc["total"] -= 1
    assert checks.check_enumerate(doc, space_id, expected)


def test_enumerate_check_rejects_a_wrong_module(tmp_path):
    doc = cli_json(tmp_path, "enumerate", "F4_34", "--verify-fixtures")
    expected = oracle.space("F4_34").maximal_families()
    doc["families"][0]["members"][0]["module"] += 1
    assert checks.check_enumerate(doc, "F4_34", expected)


@pytest.mark.parametrize("space_id", sorted(oracle.SPACES))
def test_table_check_rejects_a_changed_cell(tmp_path, space_id):
    doc = cli_json(tmp_path, "table", "brackets", space_id, "--check")
    assert checks.check_table(doc, space_id) == []
    labels = doc["labels"]
    cell = doc["brackets"][0][1]
    doc["brackets"][0][1] = [labels[5]] if cell != [labels[5]] else []
    assert checks.check_table(doc, space_id)


@pytest.fixture(scope="module")
def residual_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("residual")
    inputs.write_residual_inputs(7, out / "residual-inputs.jsonl")
    work = worker.Residual(fr, 7, out)
    prepared = work.prepare(0)
    job = worker.Job()
    out = work.collect(prepared, work.run(job, prepared))
    assert job.failed == 0
    return out


def test_residual_check_accepts_the_program(residual_output):
    assert checks.check_residual_job(7, 0, residual_output) == []


def test_residual_check_rejects_a_perturbed_coefficient(residual_output):
    for k in range(4):
        bad = copy.deepcopy(residual_output)
        entry = bad["dense"][k]["b"][3]
        entry[1] = str(Fraction(entry[1]) + Fraction(1, 3))
        assert checks.check_residual_job(7, 0, bad), k


def test_residual_check_rejects_a_nonzero_family_residual(residual_output):
    bad = copy.deepcopy(residual_output)
    root = list(oracle.space(inputs.RESIDUAL_SPACE).m_pos[0])
    bad["family"][1]["a"].append([root, "1/2"])
    assert checks.check_residual_job(7, 0, bad)


def test_residual_check_rejects_swapped_verdicts(residual_output):
    bad = dict(residual_output, dense_all_metrics=True, family_all_metrics=False)
    assert len(checks.check_residual_job(7, 0, bad)) == 2


def test_killing_weights_on_a_non_simply_laced_space(monkeypatch):
    """F4 has roots of two lengths, so the 1/|a|^2 weights matter."""
    space_id = "F4_34"
    pd = fr.space_diagram(space_id)
    table = fr.build_constants(pd.system)
    rng = random.Random(3)
    sp = oracle.space(space_id)
    vector = {part: {r: inputs.coefficient(rng) for r in sp.m_pos} for part in ("a", "b")}
    l1 = tuple(Fraction(rng.randint(1, 9)) for _ in range(6))
    l2 = tuple(Fraction(rng.randint(1, 9), 2) for _ in range(6))
    metrics = [l1, l2, tuple(x + y for x, y in zip(l1, l2)), tuple(x + 5 for x in l1)]
    x = fr.TangentVector.from_coefficients(pd, a=vector["a"], b=vector["b"])
    residuals = [worker._element(fr.equigeodesic_residual(table, pd, x, fr.MetricVector(lam)))
                 for lam in metrics]
    assert any(r["a"] or r["b"] for r in residuals)
    assert checks.check_residuals(space_id, vector, metrics, residuals) == []
    # Equal weights on long and short roots break the orthogonality.
    monkeypatch.setattr(oracle.Space, "killing", lambda self, u, v: sum(
        (c * v[r] for r, c in u.items() if r in v), Fraction(0)))
    assert checks.check_residuals(space_id, vector, metrics, residuals)


def test_certify_check_rejects_a_rejected_family(tmp_path):
    doc = cli_json(tmp_path, "table", "brackets", "F4_34", "--check")
    good = {"F4_34": {"rc": 0, "doc": doc, "families": [[True, True]] * 3}}
    assert checks.check_certify_job(good) == []
    bad = copy.deepcopy(good)
    bad["F4_34"]["families"][1][1] = False
    assert checks.check_certify_job(bad)


def test_residual_inputs_file_matches_the_regenerated_inputs(tmp_path):
    """The worker reads what the checks regenerate, pool entry k % RESIDUAL_POOL."""
    path = tmp_path / "residual-inputs.jsonl"
    inputs.write_residual_inputs(5, path)
    for job in (0, 1, inputs.RESIDUAL_POOL + 1):
        assert inputs.read_residual_input(path, job) == \
            inputs.residual_job(5, job % inputs.RESIDUAL_POOL)
