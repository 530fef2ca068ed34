import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import flagroots
from flagroots.cli import main
from flagroots.fixtures import FixtureSet


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


def test_table_brackets_check_needs_a_g2_type_space(capsys):
    # Any painting has a bracket table (F4:1,2 has nine modules, so 45 cells
    # with i <= j); the reference tables exist only for Type I and II.
    code, out, _ = run(capsys, "table", "brackets", "F4:1,2")
    assert code == 0 and out.count(" -> ") == 45
    code, out, err = run(capsys, "table", "brackets", "F4:1,2", "--check")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "F4:1,2" in err and "G2-type" in err


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


def test_enumerate_verify_misses_a_member_that_is_no_vertex(capsys, monkeypatch):
    # Each member's root taken from the next module: no (module, root) pair
    # is a vertex of the compatibility graph, so every family is missed.
    monkeypatch.setattr(FixtureSet, "family_roots", lambda self, fam: [
        self.root_of_label(m % 6 + 1, 1) for m, _ in fam.members])
    code, out, _ = run(capsys, "enumerate", "F4_34", "--verify-fixtures", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["fixture_match"] is False
    assert len(doc["fixture_check"]["missed"]) == doc["fixture_check"]["checked"] == 39


def test_enumerate_verify_misses_a_family_with_one_member_off_the_graph(capsys, monkeypatch):
    # Each reference family gains a member b1^7, read as a root of module 6:
    # no vertex.  The other members still make a maximal clique that is
    # found, yet no clique holds the family, so every family is missed.
    import flagroots.cli as cli

    fixture = cli._space_fixture(cli.space_diagram("F4_34"))
    monkeypatch.setattr(cli, "_space_fixture", lambda pd: replace(fixture, families=tuple(
        replace(f, members=f.members + ((7, 1),)) for f in fixture.families)))
    root_of_label = FixtureSet.root_of_label
    monkeypatch.setattr(FixtureSet, "root_of_label", lambda self, m, i: root_of_label(self, min(m, 6), i))
    code, out, _ = run(capsys, "enumerate", "F4_34", "--verify-fixtures", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["fixture_match"] is False
    assert len(doc["fixture_check"]["missed"]) == doc["fixture_check"]["checked"] == 39


def test_enumerate_verify_misses_a_family_of_two_clashing_members(capsys, monkeypatch):
    # b1^1 and b1^3 are a non-structural pair, so no clique holds them, though
    # they span the two modules that --min-modules asks for.
    import flagroots.cli as cli
    from flagroots.fixtures import FixtureFamily

    fixture = cli._space_fixture(cli.space_diagram("F4_34"))
    monkeypatch.setattr(cli, "_space_fixture", lambda pd: replace(fixture, families=(
        FixtureFamily(((1, 1), (3, 1))), fixture.families[0])))
    code, out, _ = run(capsys, "enumerate", "F4_34", "--verify-fixtures", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["fixture_match"] is False
    assert doc["fixture_check"] == {"checked": 2, "skipped_suspect": 0, "missed": [[[1, 1], [3, 1]]]}


def test_table_brackets_check_reads_reference(capsys, monkeypatch):
    # [m_1, m_3] reaches m_2 and m_4 in F4_34; a reference without m_4 fails
    from flagroots.flag import REFERENCE_BRACKETS, G2Kind

    monkeypatch.setitem(REFERENCE_BRACKETS[G2Kind.TYPE_I], (1, 3), (2,))
    code, out, _ = run(capsys, "table", "brackets", "F4_34", "--check")
    assert code == 1 and out.endswith("check: MISMATCH\n")


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


@pytest.mark.parametrize("extra", [[], ["--verify-fixtures"], ["--verify-fixtures", "--format", "json"]])
def test_enumerate_min_modules_above_module_count_exit_2(capsys, extra):
    # A bound no family can meet is bad input, not an empty answer nor a
    # failed comparison with the reference lists.
    code, out, err = run(capsys, "enumerate", "F4_34", "--min-modules", "7", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "min_modules 7 exceeds the 6 modules of F4(3,4)" in err
    assert run(capsys, "enumerate", "F4_34", "--min-modules", "6", *extra)[0] in (0, 1)


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


def _drop_label_map(doc):
    del doc["label_map"]


def _label_map_as_list(doc):
    doc["label_map"] = list(doc["label_map"].values())


def _short_member(doc):
    doc["families"][0]["members"][0] = [1]


def _non_root_label(doc):
    doc["label_map"]["1"][0] = [9] * len(doc["label_map"]["1"][0])


def _repeated_root(doc):
    doc["label_map"]["1"].append(doc["label_map"]["1"][0])


def _bool_member(doc):
    doc["families"][0]["members"][0] = [True, True]


def _bool_pair_module(doc):
    doc["pair_lists"][0]["modules"][0] = True


def _bool_pair_entry(doc):
    doc["pair_lists"][0]["pairs"][0] = [1, True]


def _other_space(doc):
    doc["space"] = "E6_36"


def _drop_module_6(doc):
    del doc["label_map"]["6"]


def _swap_fibers(doc):
    lm = doc["label_map"]
    lm["1"][0], lm["3"][0] = lm["3"][0], lm["1"][0]


def _pair_out_of_range(doc):
    first = doc["pair_lists"][0]
    first["pairs"][0] = [len(doc["label_map"][str(first["modules"][0])]) + 1, 1]


def _key(text):
    def edit(doc):
        doc["label_map"] = {text if key == "1" else key: roots for key, roots in doc["label_map"].items()}
    return edit


@pytest.mark.parametrize("space,edit,words", [
    ("F4_34", _drop_label_map, "'label_map' object"),
    ("G2_12", _label_map_as_list, "'label_map' object"),
    ("E6_36", None, "malformed fixture (JSONDecodeError"),
    ("E7_56", _short_member, "malformed fixture (ValueError"),
    ("E8_12", _non_root_label, "is not a root of E8"),
    ("F4_34", _repeated_root, "label map fiber 1 lists a root twice"),
    # JSON true once loaded as 1, so a member [true, true] read as b1^1, and
    # int() took the label map keys "+1", " 1" and "01" for module 1.
    ("F4_34", _bool_member, "family member [True, True] is not a list of integers"),
    ("E6_36", _bool_pair_module, "pair list modules [True, 3] is not a list of integers"),
    ("E7_56", _bool_pair_entry, "pair list entry [1, True] is not a list of integers"),
    ("E8_12", _key("+1"), "label map key '+1' is not a module number"),
    ("F4_34", _key(" 1"), "label map key ' 1' is not a module number"),
    ("E6_36", _key("01"), "label map key '01' is not a module number"),
    ("F4_34", _other_space, "fixture space mismatch: 'E6_36'"),
    ("E7_56", _drop_module_6, "label map does not cover the modules"),
    ("E8_12", _swap_fibers, "label map fiber 1 disagrees with the computed fiber"),
    ("F4_34", _pair_out_of_range, "pair (7,1) out of range for modules (1, 3)"),
], ids=["no-label-map", "label-map-list", "invalid-json", "short-member", "non-root", "repeated-root",
        "bool-member", "bool-pair-module", "bool-pair-entry", "plus-key", "space-key", "zero-key",
        "space-mismatch", "missing-module", "fiber-mismatch", "pair-out-of-range"])
def test_malformed_fixture_exits_2_naming_the_file(capsys, tmp_path, monkeypatch, space, edit, words):
    # Every command that reads the fixture reports the fault, naming the
    # file; none exits with a traceback or reads past the fault.
    from importlib import resources

    import flagroots.fixtures as fxmod

    text = (resources.files("flagroots") / "fixtures" / f"{space.lower()}.json").read_text()
    if edit is None:
        text = text[:-10]
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    path = tmp_path / f"{space.lower()}.json"
    path.write_text(text)
    monkeypatch.setenv(fxmod.ENV_FIXTURE_DIR, str(tmp_path))
    for argv in (["check", space, "b1^1"], ["check", space, "b7^1"], ["table", "dims", space, "--check"],
                 ["table", "troots", space, "--check"], ["enumerate", space, "--verify-fixtures"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {path}: ") and words in err, argv


@pytest.mark.parametrize("label", ["b0^1", "b-1^1", "b-1^3"])
def test_check_refuses_a_label_index_below_1(capsys, label):
    # Label indices are 1-based: b0^1 and b-1^1 once answered for b6^1 and b5^1.
    code, out, err = run(capsys, "check", "F4_34", label)
    assert (code, out, err) == (2, "", f"error: no label {label} in F4_34\n")


def test_verify_refuses_a_label_entry_with_index_0(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"label": "b0^1", "coeff": 1}]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,2,3,4,5,6")
    assert code == 2 and out == "" and err.startswith(f"error: {vec}: entry ")
    assert err.endswith("in 'a': no label b0^1 in F4_34\n")


def test_check_rejects_repeated_member(capsys):
    code, out, err = run(capsys, "check", "F4_34", "b1^1", "b1^1")
    assert code == 2 and out == "" and "'b1^1'" in err and "repeats" in err


def test_check_rejects_negative_of_member(capsys):
    code, out, err = run(capsys, "check", "F4_34", "0,1,1,0", "--", "0,-1,-1,0")
    assert code == 2 and out == "" and "error: member '0,-1,-1,0'" in err


def test_check_rejects_member_outside_r_m(capsys):
    code, out, err = run(capsys, "check", "F4_34", "b1^1", "--", "0,-1,-1,-1")
    assert code == 2 and out == "" and "error: member '0,-1,-1,-1'" in err
    for token in ("1,0,0,0", "0,1,1", "1,0,0,1"):  # a K-root, a short vector, a non-root
        code, out, err = run(capsys, "check", "F4_34", token)
        assert code == 2 and out == "" and f"error: member '{token}'" in err


# int() once read the eight labels after bx^1 as b1^1 (b1_0^1 as b10^1, b1^1_0
# as b1^10, b-01^1 as b-1^1) and the last five vectors as the root (0,1,1,0)
# or (0,10,0,0): label indices and vector coordinates are plain ASCII numbers,
# with no plus sign, space, underscore or leading zero.
@pytest.mark.parametrize("token", ["0,x,1,0", "b1^x", "bx^1", "0,,1,0", "b+1^1", "b 1^1", "b1^+1",
                                   "b\u0661^1", "b1_0^1", "b1^1_0", "b01^1", "b-01^1",
                                   "+0,1,1,0", "\uff10,1,1,0", "0, 1,1,0", "0,01,1,0", "0,1_0,0,0"])
def test_check_names_a_malformed_member(capsys, token):
    code, out, err = run(capsys, "check", "F4_34", "b1^1", token)
    assert code == 2 and out == ""
    assert err == f"error: member '{token}' is not a label b<i>^<j> or a vector of integers\n"


def test_verify_names_a_malformed_label(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"label": "b1^x", "coeff": 1}]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith(f"error: {vec}: entry ")
    assert "member 'b1^x' is not a label" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_exits_1_quietly(tmp_path, monkeypatch):
    err = io.StringIO()
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["enumerate", "F4_34", "--format", "latex"]) == 1
    assert err.getvalue() == ""


def _close_pipe_after(fmt: str, first: bytes) -> None:
    # `flagroots enumerate E7_56 --format <fmt> | head -c <len(first)>`: over
    # 190 kB in each format, more than a pipe holds, so the writer sees the
    # closed pipe; it must exit 1 and print nothing to stderr.
    env = {**os.environ, "PYTHONPATH": str(Path(flagroots.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagroots.cli", "enumerate", "E7_56", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(len(first)) == first
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_closed_pipe_exits_1_without_traceback():
    _close_pipe_after("latex", b"\\begin{tabular}{c}\n")


@pytest.mark.parametrize("fmt,first", [("json", b'{"cap":null,"command":"enumerate","families":[{"members":[{'),
                                       ("text", b"1713 maximal structural families (min modules 2)\n  m1:(")])
def test_closed_pipe_exits_1_without_traceback_in_json_and_text(fmt, first):
    _close_pipe_after(fmt, first)


def test_out_directory_exits_2_naming_it(capsys, tmp_path):
    code, out, err = run(capsys, "roots", "G2_12", "--out", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error:") and str(tmp_path) in err
    assert "Traceback" not in err


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
    # An entry names its root once, so a 'root' beside a label is refused,
    # also one that is no root of F4; so is a key the entry format lacks.
    ({"label": "b1^1", "root": [9], "coeff": 1}, "both a 'label' and a 'root'"),
    ({"label": "b1^1", "root": [0, 1, 1, 0], "coeff": 1}, "both a 'label' and a 'root'"),
    ({"root": [0, 1, 1, 0], "coeff": 1, "modul": 3}, "unknown key 'modul'"),
])
def test_verify_malformed_entry_exit_2(capsys, tmp_path, entry, words):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [entry]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert str(vec) in err and words in err and f"entry {entry} in 'a'" in err


@pytest.mark.parametrize("doc,words", [
    # README's names for the basis vectors are not the file's keys, and a
    # file with no key is no vector: none of these is the zero vector.
    ({"A": [{"label": "b1^1", "coeff": 1}], "B": []}, "unknown top-level key 'A'"),
    ({"a": [{"label": "b1^1", "coeff": 1}], "c": []}, "unknown top-level key 'c'"),
    ({}, "the top level must be an object with 'a'/'b' lists"),
])
def test_verify_vector_file_keys_exit_2(capsys, tmp_path, doc, words):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith(f"error: {vec}: {words}")


@pytest.mark.parametrize("doc", [{"a": []}, {"b": []}, {"a": [], "b": []}])
def test_verify_empty_lists_are_the_zero_vector(capsys, tmp_path, doc):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps(doc))
    assert run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1") == (0, "zero\n", "")


def test_verify_directory_as_vector_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "F4_34", str(tmp_path), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith("error:") and str(tmp_path) in err


def test_verify_deeply_nested_vector_exit_2(capsys, tmp_path):
    # Arrays nested past the JSON decoder's recursion limit.
    vec = tmp_path / "deep.json"
    vec.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {vec}: not a JSON document")


@pytest.mark.parametrize("argv", [
    ["check", "F4_34", "b1^1"],
    ["verify", "F4_34", "vec.json", "--metric", "1,1,1,1,1,1"],
])
def test_latex_rejected_on_check_and_verify(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "latex"])
    assert exc.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


# Numbers are plain ASCII: Fraction() reads each of these as a number (1_0 as
# 10, 1/2_0 as 1/20, the others as 3, 1 or 1/2), and the CLI refuses them.
LOOSE_NUMBERS = ["1_0", "1/2_0", "\uff13", "\u0663", "+3", " 3", "3 ", ".5", "1."]
LOOSE_IDS = ["underscore", "underscore-denominator", "full-width", "arabic-indic", "plus", "leading-space",
             "trailing-space", "bare-fraction", "bare-point"]


@pytest.mark.parametrize("token", ["1e100000", "1E5", "1e10000000", "2.5e-3", "1" * 5000] + LOOSE_NUMBERS,
                         ids=["exponent", "upper-exponent", "huge-exponent", "decimal-exponent",
                              "5000-digits"] + LOOSE_IDS)
def test_verify_metric_rejected_by_token(capsys, tmp_path, token):
    # exponent notation never reaches Fraction, and an integer string past
    # Python's digit limit is reported by its token
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": 1}]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", f"1,1,1,1,1,{token}")
    assert code == 2 and out == "" and err.startswith("error:") and token[:40] in err


@pytest.mark.parametrize("entry,words", [
    ({"root": [0, 1, 1, 0], "coeff": "1e100000"}, "exponent"),
    ({"root": [0, 1, 1, 0], "coeff": "7" * 5000}, "not an exact rational"),
    ({"root": [False, True, True, True], "coeff": 1}, "'root' list of integers"),
    ({"root": [0, 1, 1, 1], "coeff": True}, "got True"),
    ({"root": [0, 1, 1, 1], "coeff": 1, "module": True}, "is not in module True"),
    ({"label": "b1^x", "coeff": 1}, "member 'b1^x' is not a label"),
    ({"label": "b99^1", "coeff": 1}, "no label b99^1"),
    ({"root": [0, 1, 1, 0, 0, 0], "coeff": 1}, "expected length 4, got 6"),
    ({"root": [1, 1, 1, 5], "coeff": 1}, "(1, 1, 1, 5) is not a root of F4"),
    ({"root": [0, 1, 0, 0], "coeff": 1}, "(0, 1, 0, 0) is not in R_M"),
    ({"label": "b+1^1", "coeff": 1}, "member 'b+1^1' is not a label"),
] + [({"root": [0, 1, 1, 0], "coeff": tok}, f"got {tok!r}") for tok in LOOSE_NUMBERS])
def test_verify_vector_entry_rejected_by_entry(capsys, tmp_path, entry, words):
    # JSON booleans are not integers, coefficients follow the metric's rules,
    # and each entry's root must be a root of R_M, by label or by coefficients
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [entry]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,1,1,1,1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert str(vec) in err and "entry" in err and words in err


def test_verify_metric_first_token_rejected(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": 1}]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1_0,2,3,4,5,6")
    assert code == 2 and out == "" and err.startswith("error:") and "'1_0'" in err


def test_verify_reads_the_documented_number_forms(capsys, tmp_path):
    # 3, -2/5 and 1.5, in a metric and as coefficients, are read exactly.
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": "-2/5"},
                                     {"root": [0, 1, 1, 1], "coeff": "1.5"}],
                               "b": [{"root": [0, 1, 1, 0], "coeff": "3"}]}))
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": "-4/10"},
                                       {"root": [0, 1, 1, 1], "coeff": "3/2"}],
                                 "b": [{"root": [0, 1, 1, 0], "coeff": 3}]}))
    code, out, _ = run(capsys, "verify", "F4_34", str(vec), "--metric", "3,1.5,2/5,1,1,1", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["metric"] == ["3", "3/2", "2/5", "1", "1", "1"] and doc["zero"] is False
    code, out, _ = run(capsys, "verify", "F4_34", str(exact), "--metric", "3,3/2,0.4,1,1,1", "--format", "json")
    assert code == 0 and json.loads(out)["residual_by_module"] == doc["residual_by_module"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_names_a_residual_coefficient_too_long_to_write(capsys, tmp_path, fmt):
    # Each 3,000-digit coefficient is accepted, but their products have
    # 6,000 digits, past Python's limit for writing an integer.
    vec = tmp_path / "big.json"
    vec.write_text(json.dumps({"a": [{"root": [0, 1, 1, 0], "coeff": "1" + "0" * 2999},
                                     {"root": [0, 1, 1, 1], "coeff": "3" + "0" * 2999}]}))
    code, out, err = run(capsys, "verify", "F4_34", str(vec), "--metric", "1,1,2,1,1,1",
                         "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error:")
    assert str(vec) in err and "A(0,0,0,1)" in err and "too long to write" in err


SPELLED_COMMANDS = [["table", "troots", "{}", "--check"], ["table", "dims", "{}", "--check"],
                    ["enumerate", "{}", "--verify-fixtures"]]


@pytest.mark.parametrize("argv", SPELLED_COMMANDS, ids=["troots", "dims", "enumerate"])
def test_canonical_space_in_any_spelling(capsys, argv):
    # F4:3,4 and F4:4,3 paint the nodes of F4_34, so they are F4_34 with
    # its fixture; only the space field of the document tells them apart.
    spell = lambda space: [a.format(space) for a in argv] + ["--format", "json"]  # noqa: E731
    code, want, _ = run(capsys, *spell("F4_34"))
    assert code == 0
    for space in ("F4:3,4", "F4:4,3"):
        code, out, _ = run(capsys, *spell(space))
        assert code == 0
        assert json.loads(out) == {**json.loads(want), "space": space}


@pytest.mark.parametrize("argv", SPELLED_COMMANDS, ids=["troots", "dims", "enumerate"])
def test_non_canonical_painting_has_no_fixture(capsys, argv):
    code, out, err = run(capsys, *[a.format("F4:1,2") for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "canonical space" in err and "F4:1,2" in err


def test_parser_reuse_leaves_no_flags_behind(capsys, tmp_path):
    # The parser is built once per process; a call that drops the flags the
    # previous call set answers as in a fresh process.
    argv = ["table", "brackets", "F4_34"]
    code, out, _ = run(capsys, *argv, "--check", "--seed", "7", "--out", str(tmp_path / "t.json"),
                       "--format", "json")
    assert code == 0 and out == ""
    code, out, err = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(flagroots.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "flagroots.cli", *argv], capture_output=True, env=env,
                           timeout=60)
    assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv", [["bogus", "F4_34"], ["roots", "F4_34", "--format", "yaml"]])
def test_argparse_error_after_a_successful_call_exits_2(capsys, argv):
    assert run(capsys, "roots", "G2_12")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_parser_built_once_across_calls(capsys):
    import flagroots.cli as cli

    cli._build_parser.cache_clear()
    for argv in (["roots", "G2_12"], ["table", "dims", "F4_34"], ["roots", "E6:1", "--format", "json"]) * 3:
        assert run(capsys, *argv)[0] == 0
    assert cli._build_parser.cache_info().misses == 1
