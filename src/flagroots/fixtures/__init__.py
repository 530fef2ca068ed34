"""Frozen reference data for the five supported spaces.

Each space ships a JSON document with:

* ``label_map`` -- per module, the ordered list of roots behind the
  display labels ``b<i>^<j>`` (index i within module j).  The order was
  fixed once from the standard Euclidean realizations of the exceptional
  root systems and is frozen; fiber *sets* always equal the computed
  isotropy fibers.
* ``pair_lists`` -- per module pair, the reference list of compatible
  label-index pairs, with a ``complete``/``suspect`` marking describing
  how trustworthy the source list is.
* ``families`` -- reference structural families, as (module, index)
  members, with ``suspect: true`` on entries whose source reading is
  ambiguous (truncated cells, impossible labels).  Suspect entries are
  verified but never hard-fail acceptance.

The environment variable ``FLAGROOTS_FIXTURES`` overrides the bundled
fixture directory.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from ..flag import PaintedDiagram, paint
from ..rootsys import Coeffs, FlagrootsError, LieType, root_system

ENV_FIXTURE_DIR = "FLAGROOTS_FIXTURES"

_SPACE_DEFS: dict[str, tuple[LieType, tuple[int, int]]] = {
    "G2_12": (LieType.G2, (1, 2)),
    "F4_34": (LieType.F4, (3, 4)),
    "E6_36": (LieType.E6, (3, 6)),
    "E7_56": (LieType.E7, (5, 6)),
    "E8_12": (LieType.E8, (1, 2)),
}
SPACE_IDS = tuple(_SPACE_DEFS)


class FixtureError(FlagrootsError):
    """A fixture document is missing, malformed, or inconsistent."""


def parse_space(spec: str) -> tuple[LieType, tuple[int, ...]]:
    """Resolve a space spec: canonical id ("F4_34") or "F4:3,4" form, the nodes comma-separated
    distinct ASCII numbers from 1 to the rank, with no sign, space or leading zero."""
    if spec in _SPACE_DEFS:
        return _SPACE_DEFS[spec]
    if ":" in spec:
        fam, _, nodes = spec.partition(":")
        painted = nodes.split(",")
        if (fam not in LieType.__members__ or len(set(painted)) < len(painted)
                or nodes and not re.fullmatch("[1-9][0-9]*(,[1-9][0-9]*)*", nodes)):
            raise FixtureError(f"bad space spec {spec!r}")
        if not nodes:
            raise FixtureError(f"bad space spec {spec!r}: no painted nodes")
        lie_type = LieType[fam]
        if any(len(x) > 1 or int(x) > lie_type.rank for x in painted):  # every rank is one digit
            raise FixtureError(f"bad space spec {spec!r}: painted nodes out of range 1..{lie_type.rank}")
        return lie_type, tuple(map(int, painted))
    raise FixtureError(
        f"unknown space {spec!r}; use one of {', '.join(SPACE_IDS)} or FAMILY:n1,n2")


def space_diagram(spec: str) -> PaintedDiagram:
    """The painting of a space spec, one per (Lie type, painted nodes) per process, as
    root_system is shared: "F4_34", "F4:3,4" and "F4:4,3" give the same object."""
    lie_type, painted = parse_space(spec)
    return _painting(lie_type, tuple(sorted(painted)))


@lru_cache(maxsize=None)
def _painting(lie_type: LieType, painted: tuple[int, ...]) -> PaintedDiagram:
    return paint(root_system(lie_type), painted)


@dataclass(frozen=True)
class PairList:
    """Reference compatibility pairs for one ordered module pair."""

    modules: tuple[int, int]
    pairs: tuple[tuple[int, int], ...]
    complete: bool
    suspect: bool = False
    note: str | None = None


@dataclass(frozen=True)
class FixtureFamily:
    """One reference family as (module, label index) members."""

    members: tuple[tuple[int, int], ...]
    suspect: bool = False
    note: str | None = None
    source: str | None = None


@dataclass(frozen=True)
class FixtureSet:
    space_id: str
    label_map: dict[int, tuple[Coeffs, ...]]
    pair_lists: tuple[PairList, ...]
    families: tuple[FixtureFamily, ...]
    notes: tuple[str, ...] = ()

    def root_of_label(self, module: int, index: int) -> Coeffs:
        """The root behind display label b<index>^<module> (1-based: no index below 1)."""
        roots = self.label_map.get(module, ())
        if not 1 <= index <= len(roots):
            raise FixtureError(f"no label b{index}^{module} in {self.space_id}")
        return roots[index - 1]

    def family_roots(self, family: FixtureFamily) -> list[Coeffs]:
        return [self.root_of_label(m, i) for m, i in family.members]


def _read_fixture_text(space_id: str) -> tuple[str, str]:
    """The fixture document's file name and text, from the directory that
    FLAGROOTS_FIXTURES names when it is set and nonempty."""
    override = os.environ.get(ENV_FIXTURE_DIR)
    name = f"{space_id.lower()}.json"
    if override:
        path = Path(override) / name
        if not path.is_file():
            raise FixtureError(f"fixture file not found: {path}")
        return str(path), path.read_text()
    ref = resources.files(__package__) / name
    if not ref.is_file():
        raise FixtureError(f"no bundled fixture for {space_id}")
    return str(ref), ref.read_text()


def load_fixture(space_id: str) -> FixtureSet:
    """Load and validate the fixture document of a canonical space.

    Any fault in the document is a FixtureError that names its file.
    """
    if space_id not in _SPACE_DEFS:
        raise FixtureError(f"no fixtures for space {space_id!r}")
    path, text = _read_fixture_text(space_id)
    try:
        return _parse_fixture(space_id, json.loads(text))
    except FlagrootsError as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise FixtureError(f"{path}: malformed fixture ({type(exc).__name__}: {exc})") from exc


def _ints(value, what: str) -> tuple[int, ...]:
    """A JSON list of plain integers as a tuple; true and false are no integers here."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise FixtureError(f"{what} {value!r} is not a list of integers")
    return tuple(value)


def _flag(value, what: str) -> bool:
    """A JSON boolean; a string such as "false" or a number is no flag here."""
    if type(value) is not bool:
        raise FixtureError(f"{what} {value!r} is not true or false")
    return value


def _parse_fixture(space_id: str, doc) -> FixtureSet:
    if not isinstance(doc, dict) or not isinstance(doc.get("label_map"), dict):
        raise FixtureError("the document must be an object with a 'label_map' object")
    if doc.get("space") != space_id:
        raise FixtureError(f"fixture space mismatch: {doc.get('space')!r}")
    pd = space_diagram(space_id)
    system = pd.system
    label_map: dict[int, tuple[Coeffs, ...]] = {}
    for key, roots in doc["label_map"].items():
        if not re.fullmatch("[1-9][0-9]*", key):
            raise FixtureError(f"label map key {key!r} is not a module number")
        label_map[int(key)] = tuple(system.root(r) for r in roots)
    modules = pd.isotropy_decomposition()
    if sorted(label_map) != list(range(1, len(modules) + 1)):
        raise FixtureError("label map does not cover the modules")
    for k, mod in enumerate(modules, start=1):
        if set(label_map[k]) != set(mod.roots):
            raise FixtureError(f"label map fiber {k} disagrees with the computed fiber")
        if len(label_map[k]) != len(mod.roots):
            raise FixtureError(f"label map fiber {k} lists a root twice")
    pair_lists = tuple(
        PairList(
            modules=_ints(p["modules"], "pair list modules"),
            pairs=tuple(_ints(x, "pair list entry") for x in p["pairs"]),
            complete=_flag(p["complete"], "pair list complete"),
            suspect=_flag(p.get("suspect", False), "pair list suspect"),
            note=p.get("note"),
        )
        for p in doc.get("pair_lists", [])
    )
    families = tuple(
        FixtureFamily(
            members=tuple(_ints(m, "family member") for m in f["members"]),
            suspect=_flag(f.get("suspect", False), "family suspect"),
            note=f.get("note"),
            source=f.get("source"),
        )
        for f in doc.get("families", [])
    )
    fixture = FixtureSet(space_id, label_map, pair_lists, families, tuple(doc.get("notes", [])))
    for pl in pair_lists:
        sizes = (len(label_map[pl.modules[0]]), len(label_map[pl.modules[1]]))
        for i, j in pl.pairs:
            if not (1 <= i <= sizes[0] and 1 <= j <= sizes[1]):
                raise FixtureError(f"pair ({i},{j}) out of range for modules {pl.modules}")
    for fam in families:
        for m, i in fam.members:
            fixture.root_of_label(m, i)
    return fixture
