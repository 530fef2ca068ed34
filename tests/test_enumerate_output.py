"""Pinned output bytes: `enumerate`, bracket tables, constant tables and a
dense residual for every space; and one encode per family in `enumerate`.

The bracket, constant-table and residual hashes were taken with the
tuple-and-Fraction bracket, which the integer root-id kernel must match
byte for byte.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from flagroots import LieType, build_constants, root_system, space_diagram
from flagroots.cli import main
from flagroots.equigeo import StructuralFamily
from flagroots.fixtures import SPACE_IDS
from flagroots.flag import PaintedDiagram

# sha256 of `enumerate <space> --verify-fixtures --format <fmt> --out FILE`.
GOLDEN = {
    ("G2_12", "json"): "c7a4ee9b70127eaefcc85735a2142c37c0a0094ba6c7ad3a0174532b5d030082",
    ("G2_12", "text"): "69e979bb5226735500f3b1041492eca7dfec02f8a4ef6f152297d376b6e7a5eb",
    ("F4_34", "json"): "a5f12ebc345c41c8188924d34b61dc4d98a17c85fc00433a0b0fc6c2f7077814",
    ("F4_34", "text"): "c7013c1089fe2feaaf9f06f713e41005916bfc3a617d535cbd4d48d74bbd05af",
    ("E6_36", "json"): "cdbd7b8fbf4869ce14f84e29efc507384b3f3957c5ae52fb163116927ed06f6c",
    ("E6_36", "text"): "58551da9ce2426d12bb5606bef80ae8e86123bb685e2131879b4bac688501f23",
    ("E7_56", "json"): "d5efd8fdcd032023eeef0d06d7bb2b5cfed098dbf1124ec5808e3b39324e6932",
    ("E7_56", "text"): "931eae6ae13ae1605a49d5d3a06633083395d0308c97d3571ec291a6e47d9208",
    ("E8_12", "json"): "cb7d1bbaddb05317e8dd66cf62c12eb9eea2638766b3f8e41e0d35652e487450",
    ("E8_12", "text"): "160539f64380e816ec29f2d29f9c24a1593ca07d44d10f05cac26b36e60b1746",
}


@pytest.mark.parametrize("space,fmt", sorted(GOLDEN))
def test_enumerate_golden_hash(space, fmt, tmp_path):
    out = tmp_path / f"{space}.{fmt}"
    code = main(["enumerate", space, "--verify-fixtures", "--format", fmt, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[space, fmt]


def test_enumerate_encodes_each_family_once(tmp_path, monkeypatch):
    calls = Counter()
    for cls in (StructuralFamily, PaintedDiagram):
        def counted(self, *args, _orig=cls.to_dict, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "to_dict", counted)
    out = str(tmp_path / "out")
    assert main(["enumerate", "E7_56", "--format", "text", "--out", out]) == 0
    assert calls == Counter()
    assert main(["enumerate", "E7_56", "--format", "json", "--out", out]) == 0
    assert calls == Counter({"StructuralFamily": 1713})


# sha256 of `table brackets <space> --check --format json --out FILE`.
GOLDEN_BRACKETS = {
    "G2_12": "2e685af9dbedc605d5620c490cf1130b3ba69a9673c5e80195a509f6f3acc414",
    "F4_34": "d082b1194fc8680afae00c51f78f45452f6fd0131a2e08cfa3106bda435e6819",
    "E6_36": "83395e9f3c81cfa1d5c3b60559e8f37760acd0b94d05ba0dcb2ed74dc4b9e515",
    "E7_56": "2ba426fafa6e1c7dc224bfce72cf2d15ba2f1886ab73872c2448ba63cb3bba01",
    "E8_12": "34b5cf7dd7b98c6d35f301ca799d9670764d962f6737d572be5d30e020125a8e",
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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("space", SPACE_IDS)
def test_bracket_table_golden_hash(space, tmp_path):
    out = tmp_path / f"{space}.json"
    assert main(["table", "brackets", space, "--check", "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_BRACKETS[space]


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
