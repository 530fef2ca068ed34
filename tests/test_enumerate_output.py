"""Pinned output bytes: `enumerate`, bracket tables, constant tables, a
dense residual and the painting outputs for every space, the t-root,
dimension and bracket tables in every format, and `check` and `verify` in
text; and no family object built in `enumerate`.

The bracket, constant-table and residual hashes were taken with the
tuple-and-Fraction bracket, which the integer root-id kernel must match
byte for byte.
"""

import hashlib
import json
import random
from collections import Counter
from functools import cache

import pytest

from flagroots import LieType, build_constants, enumerate_maximal_families, equigeo, root_system, space_diagram
from flagroots.cli import main
from flagroots.equigeo import StructuralFamily
from flagroots.fixtures import SPACE_IDS
from flagroots.flag import PaintedDiagram
from flagroots.rootsys import SCHEMA_VERSION

# sha256 of `enumerate <space> --verify-fixtures --format <fmt> --out FILE`.
GOLDEN = {
    ("G2_12", "latex"): "76a18fdd42f3146858fbd9e5cb45900c1d416be9965c8a00bfb1aa1e6e2ca27e",
    ("G2_12", "json"): "c7a4ee9b70127eaefcc85735a2142c37c0a0094ba6c7ad3a0174532b5d030082",
    ("G2_12", "text"): "69e979bb5226735500f3b1041492eca7dfec02f8a4ef6f152297d376b6e7a5eb",
    ("F4_34", "latex"): "5039e56153750c348e10175899ed9f8263d634618aaf78eb7a16ebf36edf12f0",
    ("F4_34", "json"): "a5f12ebc345c41c8188924d34b61dc4d98a17c85fc00433a0b0fc6c2f7077814",
    ("F4_34", "text"): "c7013c1089fe2feaaf9f06f713e41005916bfc3a617d535cbd4d48d74bbd05af",
    ("E6_36", "latex"): "69ac72958773d84ab6865d3bc45466f5839c3e31bc17503ca384e12b651245ae",
    ("E6_36", "json"): "cdbd7b8fbf4869ce14f84e29efc507384b3f3957c5ae52fb163116927ed06f6c",
    ("E6_36", "text"): "58551da9ce2426d12bb5606bef80ae8e86123bb685e2131879b4bac688501f23",
    ("E7_56", "latex"): "f61ca8ad34d57254d4d0ce84ec0e8a16332449fd544cc8cb8a025e3fd6dc6a7f",
    ("E7_56", "json"): "d5efd8fdcd032023eeef0d06d7bb2b5cfed098dbf1124ec5808e3b39324e6932",
    ("E7_56", "text"): "931eae6ae13ae1605a49d5d3a06633083395d0308c97d3571ec291a6e47d9208",
    ("E8_12", "latex"): "741d542590e4efe5af6f56d9a06dba3e56c55936d8331854efea7bf9575769cc",
    ("E8_12", "json"): "cb7d1bbaddb05317e8dd66cf62c12eb9eea2638766b3f8e41e0d35652e487450",
    ("E8_12", "text"): "160539f64380e816ec29f2d29f9c24a1593ca07d44d10f05cac26b36e60b1746",
}


@pytest.mark.parametrize("space,fmt", sorted(GOLDEN))
def test_enumerate_golden_hash(space, fmt, tmp_path):
    out = tmp_path / f"{space}.{fmt}"
    code = main(["enumerate", space, "--verify-fixtures", "--format", fmt, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[space, fmt]


# (exit code, sha256) of `enumerate <space> --verify-fixtures --format json
# <option> --out FILE` where the fixture check lists missed families: the
# reference families found by lookup, and those left to the scan, are pinned.
GOLDEN_FIXTURE_CHECK = {
    ("G2_12", "--min-modules=3"): (0, "3597f595566bdcecfe041052b51e9067ee9103aa4a78cdc99d672d90cc5cad9c"),
    ("F4_34", "--min-modules=3"): (1, "bfe3f5f03c9aea8ba0d4176d67ef39d46346cf2997a2eed4116dcea92c985555"),
    ("E6_36", "--min-modules=3"): (1, "3ed469070935023978650ee4a5a386fac3e9e6afea353832e855957a1d965f06"),
    ("E7_56", "--min-modules=3"): (1, "467bce8d253393e8435c595c1af3ff9c7f08c185c22b22982e9ead5a103ffa89"),
    ("E8_12", "--min-modules=3"): (1, "d75e7ed4a4c978d2b083639908e89f02b4825d81de80d20a999040f7cbe7d1a7"),
    ("F4_34", "--cap=1"): (1, "81132ed511ae53e16f3219fea9a955bdb236c3e017a0013ab4d0641923b4c7d2"),
    ("F4_34", "--min-modules=6"): (1, "b500fcfe31ac477bb4d1316cbe2df6e620b2bfd177f74cf9b28a022dea78b87d"),
}


@pytest.mark.parametrize("space,option", sorted(GOLDEN_FIXTURE_CHECK))
def test_enumerate_fixture_check_golden_hash(space, option, tmp_path):
    out = tmp_path / "out.json"
    code = main(["enumerate", space, "--verify-fixtures", "--format", "json",
                 option, "--out", str(out)])
    assert (code, _sha256(out)) == GOLDEN_FIXTURE_CHECK[space, option]


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_enumerate_builds_no_family(fmt, tmp_path, monkeypatch):
    # Output is joined from per-vertex strings: no family object, no dict.
    calls = Counter()
    for cls, name in ((StructuralFamily, "to_dict"), (equigeo._Families, "__getitem__"),
                      (PaintedDiagram, "to_dict")):
        def counted(self, *args, _orig=getattr(cls, name), _key=f"{cls.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    out = tmp_path / "out"
    assert main(["enumerate", "E7_56", "--verify-fixtures", "--format", fmt, "--out", str(out)]) == 0
    assert calls == Counter()
    assert _sha256(out) == GOLDEN["E7_56", fmt]


# `enumerate E8_12 --cap N` on either side of the 256-family pieces the CLI
# writes, against an assembly that shares no code with its serializer: json
# from StructuralFamily.to_dict(), text and latex from sorted_members().
PIECE_CAPS = (0, 1, 255, 256, 257, 512, 513)


@cache
def _e8_12_enumeration():
    return enumerate_maximal_families(space_diagram("E8_12"))


def _expected_enumerate(cap: int, fmt: str) -> str:
    result = _e8_12_enumeration()
    families = result.families[:cap]
    if fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, "command": "enumerate", "space": "E8_12",
                           "seed": 0, "min_modules": 2, "cap": cap, "total": result.total,
                           "truncated": cap < result.total, "families": [f.to_dict() for f in families]},
                          sort_keys=True, separators=(",", ":")) + "\n"
    form = "m{}:({})" if fmt == "text" else "b({};({}))"
    rows = [" ".join(form.format(k, ",".join(str(c) for c in r)) for k, r in f.sorted_members()) for f in families]
    if fmt == "text":
        head = f"{result.total} maximal structural families (min modules 2) [truncated]"
        return "\n  ".join([head, *rows]) + "\n"
    return "\n".join(["\\begin{tabular}{c}", "\\hline", "maximal structural families \\\\", "\\hline",
                      *(row + " \\\\" for row in rows), "\\hline", "\\end{tabular}"]) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
@pytest.mark.parametrize("cap", PIECE_CAPS)
def test_enumerate_piece_boundaries(cap, fmt, tmp_path):
    out = tmp_path / "out"
    assert main(["enumerate", "E8_12", "--cap", str(cap), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == _expected_enumerate(cap, fmt)


# sha256 of `table brackets <space> --check --format json --out FILE`.
GOLDEN_BRACKETS = {
    "G2_12": "2e685af9dbedc605d5620c490cf1130b3ba69a9673c5e80195a509f6f3acc414",
    "F4_34": "d082b1194fc8680afae00c51f78f45452f6fd0131a2e08cfa3106bda435e6819",
    "E6_36": "83395e9f3c81cfa1d5c3b60559e8f37760acd0b94d05ba0dcb2ed74dc4b9e515",
    "E7_56": "2ba426fafa6e1c7dc224bfce72cf2d15ba2f1886ab73872c2448ba63cb3bba01",
    "E8_12": "34b5cf7dd7b98c6d35f301ca799d9670764d962f6737d572be5d30e020125a8e",
}

# sha256 of `table brackets <space> --format json --out FILE`, without --check.
GOLDEN_BRACKETS_NO_CHECK = {
    "G2_12": "031f50e7f801c3744a11155fa6bfa14112120a2645d859eccc5ddf73e6fb6afd",
    "F4_34": "d32498b42ddb0bf6b4cb1a1d94092968423a47b1d9a543e4900b4eb9191941f5",
    "E6_36": "dcc124fe223679fdf4029f6caa201ec8e7e7a6f033abbe8b02af6e1db6f7a032",
    "E7_56": "151f22b97dbb53e6b0000b49eef303ab439e999f577f9b2d52dda8ac5327eb86",
    "E8_12": "41110411e560bec80fad5f79c1d545052d7c174cbccf836865e7aae38630c319",
}

# sha256 of StructureConstantTable.to_json().
GOLDEN_CONSTANTS = {
    "G2": "688b489f63b1e2b827cdac4156c2c1fe32f1fc38ff305be96f15eacf387ec044",
    "F4": "cee3cb6cda6404296b5640c0513c987ebc9c68c54c4f6f7b288bcf5146324793",
    "E6": "4f36782151f376e2ebbfb496cf08dc0837972ed8e841ce675218ed2ba9e70542",
    "E7": "6af7061af9fc12f2773d6a21ca7a3cf74fe34cfcfa42f9495db73258ab688fce",
    "E8": "0db714f18c7be0601518ca96e45f09840d7baf18007b3bc191893afbe4ecb2ff",
}

# sha256 of `verify E8_12 FILE --metric DENSE_METRIC --format json --out FILE`
# on dense_vector_doc(DENSE_SEED).
DENSE_SEED = 2024
DENSE_METRIC = "3/2,5,7/3,11,13/4,2"
GOLDEN_DENSE_VERIFY = "8623e378cd4a91e3ca1ac02ab48499e37555a6223969c73ac3b18d5872341fe8"


def _canonical(doc) -> str:
    """Byte-stable JSON: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("space", SPACE_IDS)
def test_bracket_table_golden_hash(space, tmp_path):
    out = tmp_path / f"{space}.json"
    assert main(["table", "brackets", space, "--check", "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_BRACKETS[space]


@pytest.mark.parametrize("space", SPACE_IDS)
def test_bracket_table_golden_hash_without_check(space, tmp_path):
    out = tmp_path / f"{space}.json"
    assert main(["table", "brackets", space, "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_BRACKETS_NO_CHECK[space]


# sha256 of `<command> F4:1,2 --format json --out FILE` on a painting that is
# not G2-type: its 42 maximal families over two or more of its nine modules,
# and its 9x9 bracket table.
GOLDEN_NOT_G2_TYPE = {
    ("enumerate",): "a12026b8f87e158b11a93df76ea8f85ecb1b2b3d1cb4aa803dfaad12388ee63c",
    ("table", "brackets"): "c79894a00712705540d429ccbf51f64f0439f42f3df6831d3d1827f422b77bf6",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_NOT_G2_TYPE))
def test_not_g2_type_golden_hash(command, tmp_path):
    out = tmp_path / "out.json"
    assert main([*command, "F4:1,2", "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_NOT_G2_TYPE[command]


# sha256 of `enumerate <args> --format json --out FILE` on paintings outside
# the five spaces: E8:3,5 (38,176 families; W_K has 14 vertex orbits of 2 to
# 18 roots), E8:1,4,5 (32,787 families) and the full flag of F4, whose W_K is
# trivial.
GOLDEN_OTHER_PAINTINGS = {
    ("E8:3,5",): "cfce6f21a5c51743e928ae5b786a17e111304d538e196675eef292d7afe7e31d",
    ("E8:1,4,5",): "82961a546f4c8bd32f85953a1a073906ef5b5e6fcacc2bf53dd267d5ae2ba6d0",
    ("F4:1,2,3,4", "--min-modules", "1"): "20b7883b1f9e8d4470b69f7c96ffea44a6a1da0c10f61a7e6e7d45e1898038d5",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_OTHER_PAINTINGS))
def test_other_painting_enumerate_golden_hash(args, tmp_path):
    out = tmp_path / "out.json"
    assert main(["enumerate", *args, "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_OTHER_PAINTINGS[args]


@pytest.mark.parametrize("family", sorted(GOLDEN_CONSTANTS))
def test_constant_table_golden_hash(family):
    text = build_constants(root_system(LieType[family])).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONSTANTS[family]


def dense_vector_doc(seed: int) -> dict:
    """A vector file over every root of R_M+ of E8_12, A and B parts, with
    seeded coefficients +-p/q (q up to 13, so denominators are mixed)."""
    rng = random.Random(seed)
    roots = space_diagram("E8_12").r_m_pos
    return {part: [{"root": list(r),
                    "coeff": f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 13)}"}
                   for r in roots]
            for part in ("a", "b")}


def test_dense_verify_golden_hash(tmp_path):
    vec, out = tmp_path / "dense.json", tmp_path / "out.json"
    vec.write_text(json.dumps(dense_vector_doc(DENSE_SEED)))
    assert main(["verify", "E8_12", str(vec), "--metric", DENSE_METRIC,
                 "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["zero"] is False
    assert _sha256(out) == GOLDEN_DENSE_VERIFY


# The painting outputs the root-id layer must leave byte for byte: `roots`
# in every format and the t-root and dimension tables, for the five spaces
# and three paintings that are not G2-type (one node, and two nodes whose
# t-roots are not the G2 pattern).
PAINTINGS = ("G2_12", "F4_34", "E6_36", "E7_56", "E8_12", "E6:1", "F4:1,2", "E8:3,5")

# sha256 of `roots <space> --format <fmt> --out FILE`.
GOLDEN_ROOTS = {
    ("G2_12", "json"): "2ad8b46ee67beeb3382e405f0f15780e99642efe7c96c015539b233c7bc7e0ba",
    ("G2_12", "latex"): "f739c4a73375fd636d74d83d7a4597c6ee08c61ed4a9fe1852ca69210b753e2f",
    ("G2_12", "text"): "1f9cc36cee63435bd53f1bc5df5501c6017654de71a440f00b0bd4d6018defe3",
    ("F4_34", "json"): "dd44435dfe272bce4ebaf9345aae14f5fa21ec04753d73427741cad412426bdb",
    ("F4_34", "latex"): "07d2a4fb8a5cade38b23630c95ec84b8ee5e7997548caae4f7903fd94542e2f6",
    ("F4_34", "text"): "f58e4f8b84cd1f617b1fafa11263d41a88078b5e20bcdd407cc101780de51b63",
    ("E6_36", "json"): "1c6759c1d6c52c45741b09993a86cde65d94547a2990f39414b9cf32dc53de25",
    ("E6_36", "latex"): "efa0f3d8b751dc293bafaea598bc1f7172753be699358c04bbe27aaeedaa3bd3",
    ("E6_36", "text"): "53b92d30bf8b0c6fbc4bf890b70bc8117c733d48d0d1c3e28f89afe7bdfc1509",
    ("E7_56", "json"): "ee4846b1f6fcfd6a7ea3183943bd474f35feeabf71e1fd20b94eaaa0f20fc255",
    ("E7_56", "latex"): "756de40d8e4ef024f26e8f255f61a6fa77afa302f26e39af61327b22fe1ab3d0",
    ("E7_56", "text"): "8473392860d947d3b847dd77ec05d30ba98ae190f41bd2cb28c28cee2f0fb5c1",
    ("E8_12", "json"): "bd4f6804fe313793ad7a758be56f1daa05de4e80211d63f5ed6d0d04373645bb",
    ("E8_12", "latex"): "5300883c60fa9af66d14b30d20fc4a2b94db733ae728132474edcb5200ddd156",
    ("E8_12", "text"): "56a7187a61b99c3b0c14c3eedb198df8f952b3c564149ee8c389f423fdb41ebe",
    ("E6:1", "json"): "a1d3fdc60ce36eac6d7d88379602b5c915d3951f0ec86c1488d5fdb0a4bf1e34",
    ("E6:1", "latex"): "69173895447fa80133f05cf058c1fd6b52a71c01de931f3a98165a81cb6c40a0",
    ("E6:1", "text"): "730e655d3c2f186f084ca3bce14b51841bfb4a1cfb9704c3b37a00c870d52d8a",
    ("F4:1,2", "json"): "924e76ee44900b12db4f176bb499a8d37f3dd86888e15788921a94e4ec153f88",
    ("F4:1,2", "latex"): "45f80b1536336acf8ca724fc559de48e0f256a566c566f92887dbe5b161847ec",
    ("F4:1,2", "text"): "44880925552a3cf8993678f0c0825513c4c23c993b4aece50dc491e11f083674",
    ("E8:3,5", "json"): "9744cc6b12c71c678a2ffbb056f1f4d33a083fd03eca5f76a6809f5bd72e0210",
    ("E8:3,5", "latex"): "e48ab95de47968808f5b2f936ff682128466aae63a623cb3f4e87c5c62b30f78",
    ("E8:3,5", "text"): "969d56be39c2e314353cbe868f9c5a4991b3d26312f7727d261cab386b66a38c",
}

# sha256 of `table <dims|troots> <space> --format json --out FILE`.
GOLDEN_TABLES = {
    ("G2_12", "dims"): "2cbac2740e53f4b0404269f6aca43303405c1effef254d7af32850adeeb9aeeb",
    ("G2_12", "troots"): "b314ca0c25fe69225334aa97f605c7614064307258828f594e43919c426e0397",
    ("F4_34", "dims"): "02b984a82dc0b221b62beed7db31021546e5b20a68ccc03b62f02709d4c8b84d",
    ("F4_34", "troots"): "97a9e3ce1b75469c2369ad8239a1cac33501ad05bc57b0c1ede01271da2c0244",
    ("E6_36", "dims"): "36707309fbd1e4cf6148508af4a07c7368e2774128b582d6629ac48858f481a8",
    ("E6_36", "troots"): "87bfed928dcacdf8a5e3fd696c41790e51eff7d4a112a5c86ced97081abc91f3",
    ("E7_56", "dims"): "66ca53437b64f07ca667d3a67ff97aed299bdb8fcade8f08cdb376de13d0773b",
    ("E7_56", "troots"): "64e053a176f1e331ee6713db185052824f67f2d04afd3fec703b537a29ed5f15",
    ("E8_12", "dims"): "f010c7343a3e8a88699cf6b192ead341ab05008bca52f2e76da1010b7a93f53a",
    ("E8_12", "troots"): "b40a6b7b5234222287cbb18eea98d6c253b2c0f31cb6fd4d11b6f44d86242f19",
}

# sha256 of a root system's canonical JSON: schema version, family, rank,
# Cartan entries and symmetrizer, and the positive roots in canonical order.
GOLDEN_SYSTEMS = {
    "G2": "e25ca2b39b0b1bdab47dc10008b1ea9be650d8ec7ce44c21927e3b332ad4c659",
    "F4": "f4d8b1080aeb9a87bd2052bdd5b5a0d4487ac51430f60c0d7024bab6b80b6175",
    "E6": "510093f97a0fa45f03c942fdf42f7b59712118f14f23f6ada6d17b62ae034c4d",
    "E7": "8867e2c354c609c0088f2666084cbb2db5fefe7e3210c2836c194d4271b6e44f",
    "E8": "a3b1fa0ac668234058c917e5889ed492a3ca81f09a6b0ad916ab9efee3d518eb",
}

# sha256 of the canonical JSON of PaintedDiagram.to_dict().
GOLDEN_PAINTINGS = {
    "G2_12": "97fd4a0068be26fceb0fa6634a55e9af105287163834de6445d7cdfd4c9c5c86",
    "F4_34": "177f95975eb33542f69d0765df4cf3552bf8eddebbbe9c3a4e0e20861cc98c9b",
    "E6_36": "53fa7c8036c48fff584c88334251b12ede7ad8cd161aeb2554b6b72746ad43b0",
    "E7_56": "c23e88259a28dbb65d3aeb4d38864e43f97c267b0742f4fda34abad3f0332752",
    "E8_12": "0f80482c4ce50f251a0754a47f3a12d4e34bbb975cc5999fb01fa566ee7c608e",
    "E6:1": "f57cc7402e2118708a514f711e0e6d736c27e6dff9f620c011239d3a6019f4ed",
    "F4:1,2": "21f67cd077ecd0d951c3fc586486909993d0c0492c31bdabcb0ab49dc030427f",
    "E8:3,5": "7526ecbe37d01170b7357539f68e6b65435736ab0dc4043d04b092d5e55c77e0",
}


@pytest.mark.parametrize("space,fmt", sorted(GOLDEN_ROOTS))
def test_roots_golden_hash(space, fmt, tmp_path):
    out = tmp_path / "roots"
    assert main(["roots", space, "--format", fmt, "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_ROOTS[space, fmt]


@pytest.mark.parametrize("space,which", sorted(GOLDEN_TABLES))
def test_troot_and_dim_table_golden_hash(space, which, tmp_path):
    out = tmp_path / "table.json"
    assert main(["table", which, space, "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_TABLES[space, which]


@pytest.mark.parametrize("family", sorted(GOLDEN_SYSTEMS))
def test_root_system_golden_hash(family):
    s = root_system(LieType[family])
    cartan = {"entries": [list(row) for row in s.cartan.entries], "symmetrizer": list(s.cartan.symmetrizer)}
    text = _canonical({"schema_version": SCHEMA_VERSION, "family": family, "rank": s.rank, "cartan": cartan,
                       "positive_roots": [list(r) for r in s.positive_roots]})
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SYSTEMS[family]


@pytest.mark.parametrize("space", PAINTINGS)
def test_painted_diagram_golden_hash(space):
    text = _canonical(space_diagram(space).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_PAINTINGS[space]


# sha256 of `table <which> <space> --format <fmt> [--check] --out FILE` in the
# formats not pinned above; --check adds a verdict line in text.
GOLDEN_TABLE_OUTPUTS = {
    ("G2_12", "brackets", "latex", False): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("G2_12", "brackets", "latex", True): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("G2_12", "brackets", "text", False): "dd331d160cdd3e6f8154ca3ac5b0836d8a8fe4864633a8949424d695b869b1e9",
    ("G2_12", "brackets", "text", True): "25a60894adf1b6fd15c631cef3d0a952b3d0eebcbcaf138d99f8c61c29a9e031",
    ("G2_12", "dims", "latex", False): "973cc56329cc3ae3c89974cf1eb97b3f426652ad3f080f1702c32ede3d0e6b2e",
    ("G2_12", "dims", "latex", True): "973cc56329cc3ae3c89974cf1eb97b3f426652ad3f080f1702c32ede3d0e6b2e",
    ("G2_12", "dims", "text", False): "1ae5049ff6c955664aae606b6fb4064ddd37d830f08bdab4a681198611131db4",
    ("G2_12", "dims", "text", True): "7400ea007f9e00f0f7b660bc272517a60cd8a9fc38a452f49ffd0f142cc171ad",
    ("G2_12", "troots", "latex", False): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("G2_12", "troots", "latex", True): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("G2_12", "troots", "text", False): "4823b8469f916029f3db6939f7df62fbb7efd2763f86e773209385bacce88aff",
    ("G2_12", "troots", "text", True): "69bbe301692ff5c0839dba97dda632f7d5b76be539a1ff2ecf88abfbf6dd5590",
    ("F4_34", "brackets", "latex", False): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("F4_34", "brackets", "latex", True): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("F4_34", "brackets", "text", False): "dd331d160cdd3e6f8154ca3ac5b0836d8a8fe4864633a8949424d695b869b1e9",
    ("F4_34", "brackets", "text", True): "25a60894adf1b6fd15c631cef3d0a952b3d0eebcbcaf138d99f8c61c29a9e031",
    ("F4_34", "dims", "latex", False): "cbaf96e18d165d2d31dea8eab8565ca6638cd02fe41fe5902a53f36718a58f8f",
    ("F4_34", "dims", "latex", True): "cbaf96e18d165d2d31dea8eab8565ca6638cd02fe41fe5902a53f36718a58f8f",
    ("F4_34", "dims", "text", False): "9e131431c0baa7b407afe00113d0bcc80a021d9e69de69f8f58f59e362b193b8",
    ("F4_34", "dims", "text", True): "ef9e3596d81e1750d03b5d087d384d70efcdfca6defd83d60017957acf60a3c0",
    ("F4_34", "troots", "latex", False): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("F4_34", "troots", "latex", True): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("F4_34", "troots", "text", False): "4823b8469f916029f3db6939f7df62fbb7efd2763f86e773209385bacce88aff",
    ("F4_34", "troots", "text", True): "69bbe301692ff5c0839dba97dda632f7d5b76be539a1ff2ecf88abfbf6dd5590",
    ("E6_36", "brackets", "latex", False): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("E6_36", "brackets", "latex", True): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("E6_36", "brackets", "text", False): "dd331d160cdd3e6f8154ca3ac5b0836d8a8fe4864633a8949424d695b869b1e9",
    ("E6_36", "brackets", "text", True): "25a60894adf1b6fd15c631cef3d0a952b3d0eebcbcaf138d99f8c61c29a9e031",
    ("E6_36", "dims", "latex", False): "c100a3e8634ce68071b7fb1a0a0bd3ad1617abdc298346421cbdeffc3ea58071",
    ("E6_36", "dims", "latex", True): "c100a3e8634ce68071b7fb1a0a0bd3ad1617abdc298346421cbdeffc3ea58071",
    ("E6_36", "dims", "text", False): "6e69dc787b212c3753a7e55dd157c38bb41edd398882b46e4e890bd5283a5879",
    ("E6_36", "dims", "text", True): "08ae51d91fd085aeaa3b5d923bb4b9f2b016fc59ba8e5fe5442283fdaaca7b14",
    ("E6_36", "troots", "latex", False): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("E6_36", "troots", "latex", True): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("E6_36", "troots", "text", False): "4823b8469f916029f3db6939f7df62fbb7efd2763f86e773209385bacce88aff",
    ("E6_36", "troots", "text", True): "69bbe301692ff5c0839dba97dda632f7d5b76be539a1ff2ecf88abfbf6dd5590",
    ("E7_56", "brackets", "latex", False): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("E7_56", "brackets", "latex", True): "fcf21cbc24de69043829571824b2497e5f17db9ec3332a20f5357ad016102bea",
    ("E7_56", "brackets", "text", False): "dd331d160cdd3e6f8154ca3ac5b0836d8a8fe4864633a8949424d695b869b1e9",
    ("E7_56", "brackets", "text", True): "25a60894adf1b6fd15c631cef3d0a952b3d0eebcbcaf138d99f8c61c29a9e031",
    ("E7_56", "dims", "latex", False): "cb7c69a6848c33ba7d21fd174265ea26b07f3494dfd9b96ded62003969d6bdf7",
    ("E7_56", "dims", "latex", True): "cb7c69a6848c33ba7d21fd174265ea26b07f3494dfd9b96ded62003969d6bdf7",
    ("E7_56", "dims", "text", False): "972f6bafee04f615b3fea3f5fee8c8d4723042b2b45a3868187ccfe6452ec5d8",
    ("E7_56", "dims", "text", True): "617bdb42cbf70dc12e36ecdc50bc99b24115f137c8909e9b013abebe8d162c4c",
    ("E7_56", "troots", "latex", False): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("E7_56", "troots", "latex", True): "a1f833be49692d3da1e78fdbadf22223351bfbb451e231b54bd7af2a2411070e",
    ("E7_56", "troots", "text", False): "4823b8469f916029f3db6939f7df62fbb7efd2763f86e773209385bacce88aff",
    ("E7_56", "troots", "text", True): "69bbe301692ff5c0839dba97dda632f7d5b76be539a1ff2ecf88abfbf6dd5590",
    ("E8_12", "brackets", "latex", False): "d2b2370cb6ef84c0ea8f86e0f5ff049fa9340e7bcf37bbc5664f445b61d2ec90",
    ("E8_12", "brackets", "latex", True): "d2b2370cb6ef84c0ea8f86e0f5ff049fa9340e7bcf37bbc5664f445b61d2ec90",
    ("E8_12", "brackets", "text", False): "d654e105159846bca482a2de7411620e1b070f88425b0cc6151dcd42afd6333c",
    ("E8_12", "brackets", "text", True): "c179088bb22da290e2fd79840c6ea2b823ec79e64a4886a4f825fc7a539e816e",
    ("E8_12", "dims", "latex", False): "086fc422b8b0706080ae669d6e3663dbb872b76016421e3efeccc77d9d171d0d",
    ("E8_12", "dims", "latex", True): "086fc422b8b0706080ae669d6e3663dbb872b76016421e3efeccc77d9d171d0d",
    ("E8_12", "dims", "text", False): "93612382d3827b0302844012f3e4ff6e74c702d4ab1129ea5433dea36feb7773",
    ("E8_12", "dims", "text", True): "22dab185379eadffadadf7397e99374f5782fdad0bdf63d21fcfe9436275101b",
    ("E8_12", "troots", "latex", False): "9c070b4ce1c8582b9675e62d196f0a640092dc00b8b641968dcf408883551ad7",
    ("E8_12", "troots", "latex", True): "9c070b4ce1c8582b9675e62d196f0a640092dc00b8b641968dcf408883551ad7",
    ("E8_12", "troots", "text", False): "d108ba82c4d43124abf39cfd6f801b72c5c1b2e80def9a01d718258e8f543efb",
    ("E8_12", "troots", "text", True): "716fa5d7a111d1da06f0a8a6d2e71a03b584cdafa742e47e0c39400c97a7ceb2",
}


@pytest.mark.parametrize("space,which,fmt,check", sorted(GOLDEN_TABLE_OUTPUTS))
def test_table_text_and_latex_golden_hash(space, which, fmt, check, tmp_path):
    out = tmp_path / "table"
    check_flag = ["--check"] if check else []
    assert main(["table", which, space, "--format", fmt, *check_flag, "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_TABLE_OUTPUTS[space, which, fmt, check]


# sha256 of `check F4_34 <members> --format <fmt> --out FILE` for
# a structural family and a family that is not structural.
GOLDEN_CHECK = {
    (("b3^3", "b1^1", "b6^1"), "json"): "1dfa8a1fc27cea93e4196f46d3cbc4e53892862f997ad1cbdc82a81f93fcc90b",
    (("b3^3", "b1^1", "b6^1"), "text"): "78776490bc51f78a7fae16f49add9b65ea050c02dab9b862a733ac41c04cee47",
    (("b1^1", "b1^3"), "json"): "109670374e1c12466f0b288cbee77f9800aabc314c58e7a2bd06a522095e3fdf",
    (("b1^1", "b1^3"), "text"): "9d5bf92f973b7d79cf5b45eed1e109ab95599d0bd52256e7cf3e1ff5b8f537fc",
}


@pytest.mark.parametrize("members,fmt", sorted(GOLDEN_CHECK))
def test_check_golden_hash(members, fmt, tmp_path):
    out = tmp_path / "check"
    assert main(["check", "F4_34", *members, "--format", fmt, "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_CHECK[members, fmt]


# sha256 of `verify <space> FILE --metric DENSE_METRIC --out FILE` in text, on
# dense_vector_doc(DENSE_SEED) (nonzero) and on ZERO_VECTOR (zero).
ZERO_VECTOR = {"a": [{"label": "b1^1", "coeff": 2}, {"label": "b3^1", "coeff": "1/2"}],
               "b": [{"label": "b1^1", "coeff": -1}]}
GOLDEN_VERIFY_TEXT = {
    "E8_12": "94d68c2f9bc0a7eb947a1d8357d823ceee1935a17ae39b2a4842837716d23ccc",
    "F4_34": "ff9fb51036a15c5c92c8b80d3dac03262bfb9d081b1490f719ab4127e6069fce",
}


@pytest.mark.parametrize("space", sorted(GOLDEN_VERIFY_TEXT))
def test_verify_text_golden_hash(space, tmp_path):
    vec, out = tmp_path / "vec.json", tmp_path / "out.txt"
    vec.write_text(json.dumps(dense_vector_doc(DENSE_SEED) if space == "E8_12" else ZERO_VECTOR))
    assert main(["verify", space, str(vec), "--metric", DENSE_METRIC, "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_VERIFY_TEXT[space]
