"""Painted Dynkin diagrams, t-roots, isotropy modules, type classification.

Painting a set of nodes black splits the positive roots into the
subsystem R_K+ (supported on unpainted nodes only) and the complement
R_M+.  Restricting a complementary root to the painted coordinates
gives its t-root; the fibers of that map are the irreducible isotropy
summands, one per positive t-root.

Two-node paintings whose six positive t-roots form the pattern
{x, y, x+y, 2x+y, 3x+y, 3x+2y} are Type I; the mark-swapped pattern
{x, y, x+y, x+2y, x+3y, 2x+3y} is Type II.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .chevalley import StructureConstantTable
from .rootsys import (
    Coeffs,
    FlagrootsError,
    LieType,
    Root,
    RootSystem,
    SCHEMA_VERSION,
    canonical_key,
)


class NotComplementaryRootError(FlagrootsError):
    """t-roots are only defined on complementary roots, never on R_K."""


class NotG2TypeError(FlagrootsError):
    """The requested operation needs a painting with G2-type t-roots."""


class TRoot(tuple):
    """Restriction of a root to the painted coordinates."""

    __slots__ = ()

    def __neg__(self) -> "TRoot":
        return TRoot(-c for c in self)

    def __repr__(self) -> str:
        return f"TRoot({tuple(self)})"


class G2Kind(Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    NOT_G2_TYPE = "none"


TYPE_I_TROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
TYPE_II_TROOTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))

# Reference upper bounds for the 6x6 bracket tables: for modules i < j
# (1-based, module order), the modules [m_i, m_j] may reach; an empty
# entry means k only.  Diagonal brackets [m_i, m_i] lie in k.
REFERENCE_BRACKETS: dict[G2Kind, dict[tuple[int, int], tuple[int, ...]]] = {
    G2Kind.TYPE_I: {
        (1, 2): (3,), (1, 3): (2, 4), (1, 4): (3, 5), (1, 5): (4,), (1, 6): (),
        (2, 3): (1,), (2, 4): (), (2, 5): (6,), (2, 6): (5,),
        (3, 4): (1, 6), (3, 5): (), (3, 6): (4,),
        (4, 5): (1,), (4, 6): (3,), (5, 6): (2,),
    },
    G2Kind.TYPE_II: {
        (1, 2): (3,), (1, 3): (2,), (1, 4): (), (1, 5): (6,), (1, 6): (5,),
        (2, 3): (1, 4), (2, 4): (3, 5), (2, 5): (4,), (2, 6): (),
        (3, 4): (2, 6), (3, 5): (), (3, 6): (4,),
        (4, 5): (2,), (4, 6): (3,), (5, 6): (1,),
    },
}


@dataclass(frozen=True)
class G2TypeClassification:
    kind: G2Kind
    module_order: tuple[TRoot, ...]


@dataclass(frozen=True)
class IsotropyModule:
    """One irreducible summand: the fiber of a positive t-root."""

    troot: TRoot
    roots: tuple[Root, ...]
    label: str

    @property
    def dim_real(self) -> int:
        return 2 * len(self.roots)


class PaintedDiagram:
    """A root system with a nonempty painted node set (1-based indices).

    Immutable after construction.
    """

    def __init__(self, system: RootSystem, painted: Iterable[int]):
        nodes = tuple(sorted(set(painted)))
        if not nodes:
            raise FlagrootsError("painted node set must be nonempty")
        if any(i < 1 or i > system.rank for i in nodes):
            raise FlagrootsError(f"painted nodes out of range 1..{system.rank}")
        self.system = system
        self.painted = nodes
        # Display name such as "E8(1,2)", shared by every serialised family.
        self.name = f"{system.lie_type.family}({','.join(map(str, nodes))})"
        self._painted0 = tuple(i - 1 for i in nodes)
        r_k, r_m = [], []
        for r in system.positive_roots:
            if any(r[i] for i in self._painted0):
                r_m.append(r)
            else:
                r_k.append(r)
        self.r_k_pos: tuple[Root, ...] = tuple(r_k)
        self.r_m_pos: tuple[Root, ...] = tuple(r_m)
        self.k_positive_set: frozenset[Coeffs] = frozenset(tuple(r) for r in r_k)
        self._m_set: frozenset[Coeffs] = frozenset(tuple(r) for r in r_m)
        self._classification: G2TypeClassification | None = None
        self._modules: tuple[IsotropyModule, ...] | None = None
        self._module_of: dict[Coeffs, int] | None = None

    def __repr__(self) -> str:
        nodes = ",".join(str(i) for i in self.painted)
        return f"PaintedDiagram({self.system.lie_type.name}; painted {nodes})"

    def t_root(self, root: Sequence[int]) -> TRoot:
        """Restrict a complementary root to the painted coordinates.

        Rejects K-roots instead of returning zero: a zero answer here is
        always a caller bug.
        """
        v = tuple(self.system.root(root))
        if v in self.k_positive_set or tuple(-c for c in v) in self.k_positive_set:
            raise NotComplementaryRootError(f"{v} lies in R_K; its t-root is zero")
        return TRoot(v[i] for i in self._painted0)

    def classify_g2_type(self) -> G2TypeClassification:
        if self._classification is None:
            self._classification = self._classify()
        return self._classification

    def _classify(self) -> G2TypeClassification:
        if len(self.painted) != 2:
            return G2TypeClassification(G2Kind.NOT_G2_TYPE, ())
        troots = {tuple(self.t_root(r)) for r in self.r_m_pos}
        if troots == set(TYPE_I_TROOTS):
            return G2TypeClassification(
                G2Kind.TYPE_I, tuple(TRoot(t) for t in TYPE_I_TROOTS))
        if troots == set(TYPE_II_TROOTS):
            return G2TypeClassification(
                G2Kind.TYPE_II, tuple(TRoot(t) for t in TYPE_II_TROOTS))
        return G2TypeClassification(G2Kind.NOT_G2_TYPE, ())

    def isotropy_decomposition(self) -> tuple[IsotropyModule, ...]:
        """Fibers of the t-root map over R_M+, in module order.

        G2-type paintings use the fixed six-label order; anything else
        falls back to the canonical t-root order.
        """
        if self._modules is not None:
            return self._modules
        fibers: dict[tuple[int, ...], list[Root]] = {}
        for r in self.r_m_pos:
            fibers.setdefault(tuple(self.t_root(r)), []).append(r)
        cls = self.classify_g2_type()
        if cls.kind is G2Kind.NOT_G2_TYPE:
            ordered = sorted(fibers, key=canonical_key)
            prefix = "m"
        else:
            ordered = [tuple(t) for t in cls.module_order]
            prefix = "m" if cls.kind is G2Kind.TYPE_I else "n"
        modules = []
        for t in ordered:
            roots = tuple(sorted(fibers[t], key=canonical_key))
            label = f"{prefix}({','.join(str(c) for c in t)})"
            modules.append(IsotropyModule(TRoot(t), roots, label))
        self._modules = tuple(modules)
        return self._modules

    def module_index(self, root: Sequence[int]) -> int:
        """1-based module index of a complementary root (sign ignored)."""
        if self._module_of is None:
            lookup = {}
            for k, mod in enumerate(self.isotropy_decomposition(), start=1):
                for r in mod.roots:
                    lookup[tuple(r)] = k
            self._module_of = lookup
        v = tuple(root)
        if v not in self._module_of:
            v = tuple(-c for c in v)
        if v not in self._module_of:
            raise NotComplementaryRootError(f"{tuple(root)} is not in R_M")
        return self._module_of[v]

    def to_dict(self) -> dict:
        cls = self.classify_g2_type()
        return {
            "schema_version": SCHEMA_VERSION,
            "space": self.name,
            "type": cls.kind.value,
            "modules": [
                {
                    "label": m.label,
                    "troot": list(m.troot),
                    "dim": m.dim_real,
                    "roots": [list(r) for r in m.roots],
                }
                for m in self.isotropy_decomposition()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def paint(system: RootSystem, painted: Iterable[int]) -> PaintedDiagram:
    """Partition the positive roots by support on the painted nodes."""
    return PaintedDiagram(system, painted)


def bracket_inclusion_table(
    pd: PaintedDiagram, table: StructureConstantTable
) -> list[list[list[str]]]:
    """6x6 table: which modules (or k) each [m_i, m_j] actually hits.

    Entry (i, j) lists the labels of modules receiving a nonzero
    component of some basis-pair bracket, with "k" when the isotropy
    subalgebra receives one.  Minimal by construction: a label appears
    only if a bracket actually lands there.  The hits are read from the
    table's bracket supports; no bracket is evaluated.
    """
    cls = pd.classify_g2_type()
    if cls.kind is G2Kind.NOT_G2_TYPE:
        raise NotG2TypeError("bracket inclusion tables need a G2-type painting")
    if table.system is not pd.system:
        raise FlagrootsError("constant table does not match the painted diagram")
    modules = pd.isotropy_decomposition()
    index = pd.system.index
    # Label per positive-root id, with "k" for K-roots and the Cartan id n.
    label = ["k"] * (len(index) + 1)
    ids = [[index[r] for r in mod.roots] for mod in modules]
    for mod, mod_ids in zip(modules, ids):
        for k in mod_ids:
            label[k] = mod.label
    size = len(modules)
    out: list[list[list[str]]] = [[[] for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            out[i][j] = out[j][i] = sorted({label[k] for x in ids[i] for y in ids[j]
                                            for k in table.bracket_support(x, y)})
    return out


def g2_type_paintings(lie_type: LieType) -> list[tuple[int, int]]:
    """All two-node paintings of a system that come out G2-type."""
    from .rootsys import root_system

    system = root_system(lie_type)
    found = []
    for i in range(1, system.rank + 1):
        for j in range(i + 1, system.rank + 1):
            pd = PaintedDiagram(system, (i, j))
            if pd.classify_g2_type().kind is not G2Kind.NOT_G2_TYPE:
                found.append((i, j))
    return found
