"""`enumerate` output: pinned bytes for every space, and one encode per family."""

import hashlib
from collections import Counter

import pytest

from flagroots.cli import main
from flagroots.equigeo import StructuralFamily
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
