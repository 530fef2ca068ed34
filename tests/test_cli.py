import json

import pytest

from flagroots.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "F4_34")
    assert code == 0
    assert "m(0,1)" in out and "type I" in out


def test_roots_fiber_sizes_json(capsys):
    for space, label, size in [
        ("F4_34", "m(0,1)", 1),
        ("E6_36", "m(3,1)", 1),
    ]:
        code, out, _ = run(capsys, "roots", space, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        mod = next(m for m in doc["modules"] if m["label"] == label)
        assert len(mod["roots"]) == size
    code, out, _ = run(capsys, "roots", "G2_12", "--format", "json")
    doc = json.loads(out)
    assert [len(m["roots"]) for m in doc["modules"]] == [1] * 6


def test_json_outputs_byte_stable(capsys):
    _, out1, _ = run(capsys, "roots", "E6_36", "--format", "json")
    _, out2, _ = run(capsys, "roots", "E6_36", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == 1 and doc["seed"] == 0


def test_table_checks(capsys):
    code, out, _ = run(capsys, "table", "dims", "E7_56", "--check")
    assert code == 0 and "MATCH" in out
    code, out, _ = run(capsys, "table", "troots", "E8_12", "--check")
    assert code == 0 and "type II" in out
    code, out, _ = run(capsys, "table", "brackets", "F4_34", "--check")
    assert code == 0


def test_table_check_mismatch_exit_code(capsys):
    # a custom painting has no reference fixture: input error
    code, _, err = run(capsys, "table", "dims", "F4:1,2", "--check")
    assert code == 2 and "error" in err


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "dims", "F4_34", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}") and "12" in out


def test_check_families(capsys):
    code, out, _ = run(capsys, "check", "F4_34", "b3^3", "b1^1", "b6^1")
    assert code == 0 and "structural: yes" in out and "all metrics: yes" in out
    code, out, _ = run(capsys, "check", "F4_34", "b1^1", "b1^3")
    assert code == 0 and "structural: no" in out
    # raw coefficient vectors work too
    code, out, _ = run(capsys, "check", "F4_34", "0,0,1,1", "0,1,1,0", "1,1,1,0")
    assert code == 0 and "structural: yes" in out


def test_check_e6_large_family(capsys):
    members = ["b1^6"] + [f"b{i}^1" for i in range(1, 10)]
    code, out, _ = run(capsys, "check", "E6_36", *members)
    assert code == 0 and "structural: yes" in out


def test_enumerate_with_fixture_verification(capsys):
    code, out, _ = run(capsys, "enumerate", "F4_34", "--verify-fixtures",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 39 and doc["fixture_match"]
    assert doc["fixture_check"]["checked"] == 39
    code, out, _ = run(capsys, "enumerate", "E6_36", "--verify-fixtures",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 147 and doc["fixture_match"]


def test_enumerate_cap(capsys):
    code, out, _ = run(capsys, "enumerate", "F4_34", "--cap", "5",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] and len(doc["families"]) == 5 and doc["total"] == 39


def test_enumerate_cap_with_verify_fails(capsys):
    # a truncated enumeration cannot claim fixture coverage
    code, out, _ = run(capsys, "enumerate", "F4_34", "--cap", "1",
                       "--verify-fixtures", "--format", "json")
    assert code == 1


def test_verify_single_module_zero(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "a": [{"label": "b1^1", "coeff": 2}, {"label": "b3^1", "coeff": "1/2"}],
        "b": [{"label": "b1^1", "coeff": -1}],
    }))
    code, out, _ = run(capsys, "verify", "F4_34", str(vec),
                       "--metric", "1,2,3,4,5,6")
    assert code == 0 and out.strip() == "zero"


def test_verify_family_span_zero(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "a": [{"label": "b3^3", "coeff": "7/3"},
              {"label": "b1^1", "coeff": 1},
              {"label": "b6^1", "coeff": -4}],
        "b": [{"label": "b6^1", "coeff": "2/5"}],
    }))
    code, out, _ = run(capsys, "verify", "F4_34", str(vec),
                       "--metric", "1,2,3,4,5,6")
    assert code == 0 and out.strip() == "zero"


def test_verify_nonzero_residual_decomposed(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "a": [{"root": [0, 1, 1, 0], "coeff": 1, "module": 1},
              {"root": [0, 1, 1, 1], "coeff": 1, "module": 3}],
    }))
    code, out, _ = run(capsys, "verify", "F4_34", str(vec),
                       "--metric", "1,1,2,1,1,1")
    assert code == 0
    assert "nonzero residual" in out and "m(2,1)" in out and "m(0,1)" in out
    # json form records the metric and the per-module components
    code, out, _ = run(capsys, "verify", "F4_34", str(vec),
                       "--metric", "1,1,2,1,1,1", "--format", "json")
    doc = json.loads(out)
    assert doc["zero"] is False and set(doc["residual_by_module"]) == {"m(2,1)", "m(0,1)"}


def test_verify_rejects_wrong_module_claim(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "a": [{"root": [0, 1, 1, 0], "coeff": 1, "module": 2}],
    }))
    code, _, err = run(capsys, "verify", "F4_34", str(vec),
                       "--metric", "1,1,1,1,1,1")
    assert code == 2 and "module" in err


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "roots", "X9_99")
    assert code == 2
    code, _, err = run(capsys, "check", "F4_34", "b9^9")
    assert code == 2
    code, _, err = run(capsys, "verify", "F4_34", str(tmp_path / "missing.json"),
                       "--metric", "1,1,1,1,1,1")
    assert code == 2
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": 1}]}))
    code, _, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,0,1,1,1,1")
    assert code == 2


def test_verify_zero_denominator_metric_exit_2(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": 1}]}))
    code, _, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,2,3,4,5,1/0")
    assert code == 2 and err.startswith("error:") and "1/0" in err


def test_verify_non_object_vector_exit_2(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text("[1]")
    code, _, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and err.startswith("error:") and "object" in err


def test_check_reports_fixture_error(capsys, tmp_path, monkeypatch):
    import flagroots.fixtures as fxmod

    monkeypatch.setenv(fxmod.ENV_FIXTURE_DIR, str(tmp_path / "nonexistent"))
    code, _, err = run(capsys, "check", "F4_34", "b1^1")
    assert code == 2 and "fixture file not found" in err
    assert "canonical space" not in err


def test_check_rejects_repeated_member(capsys):
    code, out, err = run(capsys, "check", "F4_34", "b1^1", "b1^1")
    assert code == 2 and out == "" and "'b1^1'" in err and "repeats" in err


def test_custom_space(capsys):
    code, out, _ = run(capsys, "roots", "E6:1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "none" and len(doc["modules"]) == 1


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "roots", "G2_12", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["space"] == "G2_12"


@pytest.mark.parametrize("entry,words", [
    ({"root": [0, 1, 1, 0]}, "no 'coeff'"),
    ({"root": 5, "coeff": 1}, "'root' list of integers"),
])
def test_verify_malformed_entry_exit_2(capsys, tmp_path, entry, words):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [entry]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert str(vec) in err and words in err


def test_verify_directory_as_vector_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "F4_34", str(tmp_path), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ["check", "F4_34", "b1^1"],
    ["verify", "F4_34", "vec.json", "--metric", "1,1,1,1,1,1"],
])
def test_latex_rejected_on_check_and_verify(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "latex"])
    assert exc.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err
