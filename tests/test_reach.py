"""Every function under src/ is reached by a command.

A fresh interpreter sets sys.setprofile before it imports flagroots, runs a
fixed list of console commands through cli.main and then the README's python
blocks, and reports the code objects of src/flagroots that were called.  Each
def in src/flagroots that none of them called fails the test, unless ALLOWED
names it with its reason; an unreached function should get a command or go.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flagroots"

FORMATS = ("text", "json", "latex")
VECTOR = {"a": [{"label": "b1^1", "coeff": 1}, {"label": "b1^3", "coeff": "1/2"}],
          "b": [{"label": "b3^3", "coeff": -2}, {"label": "b6^1", "coeff": "3/4"}]}
# (argv, exit status); "{vector}" stands for a file holding VECTOR.
COMMANDS = [
    *((["roots", "F4_34", "--format", f], 0) for f in FORMATS),
    *((["table", which, "F4_34", "--check", "--format", f], 0) for which in ("troots", "dims", "brackets")
      for f in FORMATS),
    # Five of 39 families miss reference families: the fixture check fails.
    *((["enumerate", "F4_34", "--verify-fixtures", "--cap", "5", "--format", f], 1) for f in FORMATS),
    *((["check", "F4_34", "b3^3", "b1^1", "b6^1", "--format", f], 0) for f in FORMATS[:2]),
    *((["check", "F4_34", "b1^1", "b1^3", "--format", f], 0) for f in FORMATS[:2]),
    *((["verify", "F4_34", "{vector}", "--metric", "1,2,3,4,5,6", "--format", f], 0) for f in FORMATS[:2]),
    (["enumerate", "F4:1,2"], 0),
    (["check", "F4:1,2", "1,0,0,0", "0,1,0,0"], 0),
    (["table", "brackets", "F4:1,2", "--check"], 2),  # the reference tables are Type I/II only
]

# "file:qualname" of each def that no command reaches, and why it stays.
TRACER = "perfbench/tracer.py wraps it by name"
CONSTANTS = "the tests' one read of the constants, and the planned `table constants` output"
ALLOWED = {
    "chevalley.py:bracket": TRACER,
    "chevalley.py:project_m": TRACER,
    "equigeo.py:StructuralFamily.to_dict": TRACER,
    "equigeo.py:_Families.__len__": TRACER,
    "chevalley.py:StructureConstantTable.n": CONSTANTS,
    "chevalley.py:StructureConstantTable.to_dict": CONSTANTS,
    "chevalley.py:StructureConstantTable.to_json": CONSTANTS,
    "rootsys.py:RootSystem.__repr__": "for debugging",
    "flag.py:PaintedDiagram.__repr__": "for debugging",
}

PROBE = r"""
import contextlib, io, json, sys

spec = json.loads(sys.argv[1])
called = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(spec["src"]):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import flagroots
from flagroots.cli import main

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in spec["commands"]:
        codes.append(main(argv))
    for block in spec["blocks"]:
        exec(block, {})
sys.setprofile(None)
print(json.dumps({"file": flagroots.__file__, "codes": codes, "called": sorted(called)}))
"""


def _defs():
    """{(path, first line): "file:qualname"} for every def under src/flagroots; the first line of a
    decorated def is its first decorator's, as in its code object."""
    out = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[str(path), line] = f"{path.relative_to(SRC)}:{prefix}{child.name}"
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(path, child, f"{prefix}{child.name}." if named else prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(path, ast.parse(path.read_text()), "")
    return out


def test_every_src_function_is_reached_by_a_command(tmp_path):
    vector = tmp_path / "vector.json"
    vector.write_text(json.dumps(VECTOR))
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks, "README has no python block"
    spec = {"src": str(SRC) + "/", "blocks": blocks,
            "commands": [[str(vector) if a == "{vector}" else a for a in argv] for argv, _ in COMMANDS]}
    run = subprocess.run([sys.executable, "-c", PROBE, json.dumps(spec)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert Path(report["file"]) == SRC / "__init__.py"
    assert report["codes"] == [code for _, code in COMMANDS]
    defs, called = _defs(), {tuple(c) for c in report["called"]}
    assert set(ALLOWED) <= set(defs.values()), "an allowlisted function is gone"
    unreached = sorted(name for key, name in defs.items() if key not in called)
    missed = [name for name in unreached if name not in ALLOWED]
    assert not missed, f"no command reaches {', '.join(missed)}"
    assert sorted(ALLOWED) == unreached, "an allowlisted function is reached: drop it from ALLOWED"
