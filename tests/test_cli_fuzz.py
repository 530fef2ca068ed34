"""The CLI's exit-code contract under fuzzed input: 0 on success, 1 on a
failed comparison, 2 on bad input, and never an uncaught exception.

Members, --metric strings and vector files are drawn by hypothesis on
G2_12 and F4_34, with a fixed example budget and derandomized draws, so
every run checks the same inputs."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from flagroots import load_fixture
from flagroots.cli import main

FUZZ = settings(derandomize=True, database=None, max_examples=50, deadline=None)

SPACES = st.sampled_from(["G2_12", "F4_34"])
VECTOR = st.lists(st.integers(-3, 4), max_size=5).map(lambda v: ",".join(map(str, v)))
LABEL = st.tuples(st.integers(-1, 30), st.integers(-1, 8)).map(lambda t: f"b{t[0]}^{t[1]}")
# Labels and vectors of roots in R_M+ of one space or the other, or of neither.
KNOWN = st.sampled_from(["b1^1", "b2^2", "b1^3", "b3^3", "b1^6", "0,1,1,0", "1,1,1,0", "1,0", "1,1", "3,2"])
MEMBER = st.one_of(KNOWN, VECTOR, LABEL, st.text(alphabet="b^,-0123456789x /", max_size=10))
NUMBER = st.one_of(
    st.integers(-3, 60).map(str),
    st.tuples(st.integers(-3, 60), st.integers(-2, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", " 2", "1.5", "-0", "x", "1/", "/2", "nan", "inf", "1e3", "1_0"]))
METRIC = st.lists(NUMBER, max_size=8).map(",".join)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
ENTRY = st.fixed_dictionaries(
    {"coeff": st.integers(-5, 5) | NUMBER | JSON},
    optional={"root": st.lists(st.integers(-2, 3), max_size=5) | JSON,
              "label": LABEL | MEMBER | JSON,
              "module": st.integers(0, 7) | JSON})
VECTOR_DOC = JSON | st.fixed_dictionaries(
    {}, optional={"a": st.lists(ENTRY, max_size=4) | JSON, "b": st.lists(ENTRY, max_size=4) | JSON})


@pytest.fixture(scope="module")
def vector_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("vectors")


def run(*argv):
    """Exit code and stderr of one in-process call; an uncaught exception
    propagates and fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
    return code


def _missing_label(space, member):
    """Whether member is a label b<i>^<j> that the space's fixture lacks: i below 1,
    j outside 1..6, or i past the size of module j."""
    label = re.fullmatch(r"b(-?\d+)\^(-?\d+)", member)
    if label is None:
        return False
    index, module = map(int, label.groups())
    sizes = {k: len(roots) for k, roots in load_fixture(space).label_map.items()}
    return not (1 <= module <= 6 and 1 <= index <= sizes[module])


@FUZZ
@given(space=SPACES, members=st.lists(MEMBER, min_size=1, max_size=4))
@example(space="F4_34", members=["b0^1"])
@example(space="F4_34", members=["b-1^3"])
def test_fuzzed_members(space, members):
    code = run("check", space, "--", *members)
    if any(_missing_label(space, m) for m in members):
        assert code == 2, (space, members)


@FUZZ
@given(space=SPACES, metric=METRIC)
def test_fuzzed_metric(vector_dir, space, metric):
    path = vector_dir / "metric.json"
    path.write_text(json.dumps({"a": [{"root": [0, 1] if space == "G2_12" else [0, 1, 1, 0], "coeff": 1},
                                      {"root": [1, 1] if space == "G2_12" else [0, 1, 1, 1], "coeff": "1/2"}]}))
    run("verify", space, str(path), f"--metric={metric}")


@FUZZ
@given(space=SPACES, doc=VECTOR_DOC)
def test_fuzzed_vector_file(vector_dir, space, doc):
    path = vector_dir / "vector.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run("verify", space, str(path), "--metric", "1,2,3,4,5,6", "--format", "json")
