import json
import re

import pytest

import oracles
from flagroots import (
    FixtureError,
    PaintedDiagram,
    StructuralFamily,
    is_structural_family,
    load_fixture,
    paint,
    root_system,
    space_diagram,
)
from flagroots import cli
from flagroots.fixtures import SPACE_IDS, parse_space
from flagroots.rootsys import LieType

EXPECTED_FAMILY_COUNTS = {
    # (total, suspect)
    "G2_12": (0, 0),
    "F4_34": (39, 0),
    "E6_36": (118, 28),
    "E7_56": (24, 9),
    "E8_12": (21, 3),
}


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_label_map_fibers_match_decomposition(sid):
    # the loader itself verifies fiber set equality; loading must succeed
    fx = load_fixture(sid)
    pd = space_diagram(sid)
    mods = pd.isotropy_decomposition()
    assert sorted(fx.label_map) == list(range(1, len(mods) + 1))
    for k, mod in enumerate(mods, start=1):
        assert len(fx.label_map[k]) == len(mod.roots)


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_family_counts_frozen(sid):
    fx = load_fixture(sid)
    total, suspect = EXPECTED_FAMILY_COUNTS[sid]
    assert len(fx.families) == total
    assert sum(1 for f in fx.families if f.suspect) == suspect
    # no duplicates
    keys = {tuple(sorted(f.members)) for f in fx.families}
    assert len(keys) == total


def test_f4_pair_lists_exact():
    # the six reference pair lists equal the computed compatible sets
    fx = load_fixture("F4_34")
    pd = space_diagram("F4_34")
    assert {pl.modules for pl in fx.pair_lists} == {
        (1, 3), (1, 4), (1, 6), (2, 4), (3, 4), (3, 5)}
    for pl in fx.pair_lists:
        assert pl.complete and not pl.suspect
        mi, mj = pl.modules
        computed = {
            (i, j)
            for i, ri in enumerate(fx.label_map[mi], 1)
            for j, rj in enumerate(fx.label_map[mj], 1)
            if oracles.pair_compatible(pd, ri, rj)
        }
        assert set(pl.pairs) == computed
    universal = {pl.modules: pl.pairs for pl in fx.pair_lists}
    assert len(universal[(1, 6)]) == 6
    assert len(universal[(2, 4)]) == 6
    assert len(universal[(3, 5)]) == 6
    assert len(universal[(1, 3)]) == 12


def test_f4_unlisted_module_pairs_have_no_compatible_pairs():
    # the module pairs without a reference list admit no compatible pair
    fx = load_fixture("F4_34")
    pd = space_diagram("F4_34")
    listed = {pl.modules for pl in fx.pair_lists}
    for mi in range(1, 7):
        for mj in range(mi + 1, 7):
            if (mi, mj) in listed:
                continue
            for ri in fx.label_map[mi]:
                for rj in fx.label_map[mj]:
                    assert not oracles.pair_compatible(pd, ri, rj), (mi, mj)


@pytest.mark.parametrize("sid", ["E6_36", "E7_56", "E8_12"])
def test_pair_list_suspect_marks_are_exact(sid):
    # non-suspect lists agree with computation exactly; suspect ones
    # differ (that is why they are marked) and the note says how.
    fx = load_fixture(sid)
    pd = space_diagram(sid)
    for pl in fx.pair_lists:
        mi, mj = pl.modules
        computed = {
            (i, j)
            for i, ri in enumerate(fx.label_map[mi], 1)
            for j, rj in enumerate(fx.label_map[mj], 1)
            if oracles.pair_compatible(pd, ri, rj)
        }
        if pl.suspect:
            assert set(pl.pairs) != computed
            assert pl.note
        elif pl.complete:
            assert set(pl.pairs) == computed


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_families_verify(sid):
    fx = load_fixture(sid)
    pd = space_diagram(sid)
    for fam in fx.families:
        roots = fx.family_roots(fam)
        sf = StructuralFamily.from_roots(pd, roots)
        if fam.suspect:
            # suspect entries are verified too: a documented failure
            # keeps its note; repaired readings must pass.
            if not is_structural_family(sf):
                assert fam.note and "cross-pair" in fam.note
        else:
            assert is_structural_family(sf), fam


def test_label_lookup_round_trip():
    fx = load_fixture("E6_36")
    labels = {tuple(r): (module, i) for module, roots in fx.label_map.items()
              for i, r in enumerate(roots, 1)}
    assert len(labels) == sum(map(len, fx.label_map.values()))  # one label per root
    for r, (module, i) in labels.items():
        assert tuple(fx.root_of_label(module, i)) == r
    for module, index in ((2, 5), (2, 0), (2, -1), (7, 1)):  # index 0 and -1 must not wrap around
        with pytest.raises(FixtureError, match=rf"^no label b{index}\^{module} in E6_36$"):
            fx.root_of_label(module, index)


def test_parse_space_forms():
    assert parse_space("F4_34") == (LieType.F4, (3, 4))
    assert parse_space("E6:3,6") == (LieType.E6, (3, 6))
    with pytest.raises(FixtureError):
        parse_space("Q9_11")
    with pytest.raises(FixtureError):
        parse_space("E6:")


@pytest.mark.parametrize("spec", ["F4:+3,4", "F4:\uff13,4", "F4: 3 , 4", "F4:3,,4", "F4:3,4,", "F4:03,4",
                                  "F4:3,4\n", " F4:3,4", "F4 :3,4", "F4:3_0", "E8:0", "F4:3,3,4", "F4:3,3",
                                  "E8:1,1"])
def test_space_spec_nodes_are_ascii_numbers(spec, capsys):
    # A sign, a full-width digit, spaces, an empty item or a repeated node once
    # ran as F4_34 (F4:3,3 as F4:3), and 3_0 read as node 30: only distinct
    # comma-separated ASCII numbers are nodes.
    with pytest.raises(FixtureError, match=rf"^bad space spec {re.escape(repr(spec))}$"):
        parse_space(spec)
    assert cli.main(["table", "troots", spec, "--check"]) == 2
    assert capsys.readouterr().err == f"error: bad space spec {spec!r}\n"


@pytest.mark.parametrize("spec,rank", [("F4:5", 4), ("F4:3,30", 4), ("G2:1,3", 2), ("E8:9", 8),
                                       pytest.param("E6:1" + "0" * 5000, 6, id="E6:1e5000")])
def test_space_spec_out_of_range_names_the_spec(spec, rank, capsys):
    # "painted nodes out of range 1..4" did not say which spec was meant.
    want = f"bad space spec {spec!r}: painted nodes out of range 1..{rank}"
    with pytest.raises(FixtureError) as exc:
        parse_space(spec)
    assert str(exc.value) == want
    assert cli.main(["enumerate", spec]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


FLAG_EDITS = [("families", "suspect", "false"), ("families", "suspect", 0), ("families", "suspect", None),
              ("pair_lists", "complete", "no"), ("pair_lists", "complete", 1), ("pair_lists", "suspect", "true")]


@pytest.mark.parametrize("part,key,value", FLAG_EDITS)
def test_fixture_flags_are_json_booleans(part, key, value, tmp_path, monkeypatch, capsys):
    # The clashing pair b1^1, b1^3 marked "suspect": "false" was skipped as
    # suspect, and a pair list "complete": "no" loaded as complete.
    from importlib import resources

    import flagroots.fixtures as fxmod

    doc = json.loads((resources.files("flagroots") / "fixtures" / "f4_34.json").read_text())
    if part == "families":
        doc["families"].append({"members": [[1, 1], [3, 1]], "suspect": value})
    else:
        doc["pair_lists"][0][key] = value
    path = tmp_path / "f4_34.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv(fxmod.ENV_FIXTURE_DIR, str(tmp_path))
    want = f"{path}: {'family' if part == 'families' else 'pair list'} {key} {value!r} is not true or false"
    with pytest.raises(FixtureError) as exc:
        load_fixture("F4_34")
    assert str(exc.value) == want
    assert cli.main(["enumerate", "F4_34", "--verify-fixtures", "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {want}\n"


def test_fixture_env_override(tmp_path, monkeypatch):
    from importlib import resources

    import flagroots.fixtures as fxmod

    text = (resources.files("flagroots") / "fixtures" / "g2_12.json").read_text()
    (tmp_path / "g2_12.json").write_text(text)
    monkeypatch.setenv(fxmod.ENV_FIXTURE_DIR, str(tmp_path))
    fx = load_fixture("G2_12")
    assert len(fx.label_map[1]) == 1
    monkeypatch.setenv(fxmod.ENV_FIXTURE_DIR, str(tmp_path / "nope"))
    with pytest.raises(FixtureError):
        load_fixture("G2_12")


def test_family_member_index_0_is_refused_naming_the_file(tmp_path, monkeypatch, capsys):
    # Label indices are 1-based: a member (1, 0) once read as b6^1 and the
    # fixture loaded, so enumerate --verify-fixtures matched it.
    from importlib import resources

    import flagroots.fixtures as fxmod

    doc = json.loads((resources.files("flagroots") / "fixtures" / "f4_34.json").read_text())
    doc["families"][0]["members"].append([1, 0])
    path = tmp_path / "f4_34.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv(fxmod.ENV_FIXTURE_DIR, str(tmp_path))
    with pytest.raises(FixtureError) as exc:
        load_fixture("F4_34")
    assert str(exc.value) == f"{path}: no label b0^1 in F4_34"
    assert cli.main(["enumerate", "F4_34", "--verify-fixtures", "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {path}: no label b0^1 in F4_34\n"


def test_one_painting_per_space(monkeypatch, capsys):
    # Every spelling of a space gives one shared painting, so loading its
    # fixture or running a fixture-reading command paints nothing again;
    # paint() itself still builds a new painting per call.
    pd = space_diagram("F4_34")
    assert space_diagram("F4:3,4") is pd and space_diagram("F4:4,3") is pd
    assert space_diagram("F4:1,2") is not pd
    assert paint(root_system(LieType.F4), (3, 4)) is not paint(root_system(LieType.F4), (3, 4))
    built = []
    init = PaintedDiagram.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(PaintedDiagram, "__init__", counted)
    load_fixture("F4_34")
    assert cli.main(["check", "F4:3,4", "b3^3", "b1^1", "b6^1"]) == 0
    assert cli.main(["table", "troots", "F4_34", "--check"]) == 0
    capsys.readouterr()
    assert built == []
    paint(root_system(LieType.F4), (3, 4))
    assert len(built) == 1
