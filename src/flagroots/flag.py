"""Painted Dynkin diagrams, t-roots, isotropy modules, G2 type.

Painting a set of nodes black splits the positive roots into the
subsystem R_K+ (supported on unpainted nodes only) and the complement
R_M+.  Restricting a complementary root to the painted coordinates
gives its t-root; the fibers of that map are the irreducible isotropy
summands, one per positive t-root.

Two-node paintings whose six positive t-roots form the pattern
{x, y, x+y, 2x+y, 3x+y, 3x+2y} are Type I; the mark-swapped pattern
{x, y, x+y, x+2y, x+3y, 2x+3y} is Type II.  The type, PaintedDiagram.kind,
fixes only the order and labels of the modules and which reference bracket
table applies; the rest works on any painting.

The bracket inclusion table is t-root arithmetic, by the lemma [M_a, M_b] =
M_(a+b) for t-roots a, b, a+b (Alekseevsky-Perelomov, Funct. Anal. Appl. 20,
1986); a test checks it against a root-pair scan on all 463 paintings of G2-E8.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import add, sub
from typing import Iterable, Sequence

from .rootsys import (
    Coeffs,
    FlagrootsError,
    RootSystem,
    SCHEMA_VERSION,
    _lazy,
    canonical_key,
)


class NotComplementaryRootError(FlagrootsError):
    """t-roots are only defined on complementary roots, never on R_K."""


class NotG2TypeError(FlagrootsError):
    """The requested operation needs a painting with G2-type t-roots."""


class G2Kind(Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    NOT_G2_TYPE = "none"


TYPE_I_TROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
TYPE_II_TROOTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))

# The paper's 6x6 bracket tables, transcribed: for modules i < j (1-based,
# module order), the modules [m_i, m_j] may reach; an empty entry means k
# only.  Diagonal brackets [m_i, m_i] lie in k.  The one copy: `table
# brackets --check` and the tests compare the computed tables against it.
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
class IsotropyModule:
    """One irreducible summand: the fiber of a positive t-root."""

    troot: Coeffs
    roots: tuple[Coeffs, ...]
    label: str

    @property
    def dim_real(self) -> int:
        return 2 * len(self.roots)


class PaintedDiagram:
    """A root system with a nonempty painted node set (1-based indices).

    Construction computes the t-roots, the G2 type (kind) and the modules
    in one pass.  module_of[i] is the 1-based module index of root id i
    (both signs share it, as a module holds the pair +-r), and 0 for R_K.
    Immutable after construction, but for the clash table, built on first read.
    """

    def __init__(self, system: RootSystem, painted: Iterable[int]):
        painted = tuple(painted)
        if bad := [i for i in painted if type(i) is not int]:
            raise FlagrootsError(f"painted node {bad[0]!r} is not an int")
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
        # Positive root ids by t-root, in canonical order; R_K under t = 0.
        fibers: dict[Coeffs, list[int]] = {}
        for i, r in enumerate(system.positive_roots):
            fibers.setdefault(tuple(r[j] for j in self._painted0), []).append(i)
        r_k = fibers.pop((0,) * len(nodes), [])
        # G2-type paintings use the fixed six-label order, anything else the
        # canonical t-root order.
        self.kind, order = G2Kind.NOT_G2_TYPE, sorted(fibers, key=canonical_key)
        if len(nodes) == 2:
            for g2, pattern in ((G2Kind.TYPE_I, TYPE_I_TROOTS), (G2Kind.TYPE_II, TYPE_II_TROOTS)):
                if set(fibers) == set(pattern):
                    self.kind, order = g2, pattern
        prefix = "n" if self.kind is G2Kind.TYPE_II else "m"
        pos, n = system.positive_roots, len(system.positive_roots)
        module_of = [0] * (2 * n)
        modules = []
        for k, t in enumerate(order, start=1):
            for i in fibers[t]:
                module_of[i] = module_of[i + n] = k
            label = f"{prefix}({','.join(map(str, t))})"
            modules.append(IsotropyModule(t, tuple(pos[i] for i in fibers[t]), label))
        self._modules: tuple[IsotropyModule, ...] = tuple(modules)
        self.module_of: tuple[int, ...] = tuple(module_of)
        self.r_k_pos: tuple[Coeffs, ...] = tuple(pos[i] for i in r_k)
        self.r_m_pos: tuple[Coeffs, ...] = tuple(r for r, k in zip(pos, module_of) if k)

    @_lazy
    def clash(self) -> tuple[int, ...]:
        """clash[i], i a root id of R_M+: the bitmask of the R_M+ ids j of other modules with i + j or
        i - j a root, on the root codes; 0 for any other id.  The structural tests and the graph read it."""
        codes, code_ids, module_of = self.system.codes, self.system.code_ids, self.module_of
        clash = [0] * len(self.system.positive_roots)
        for i, j in combinations([i for i, k in enumerate(module_of[:len(clash)]) if k], 2):
            if module_of[i] != module_of[j] and (codes[i] + codes[j] in code_ids or codes[i] - codes[j] in code_ids):
                clash[i] |= 1 << j
                clash[j] |= 1 << i
        return tuple(clash)

    def __repr__(self) -> str:
        nodes = ",".join(str(i) for i in self.painted)
        return f"PaintedDiagram({self.system.lie_type.name}; painted {nodes})"

    def isotropy_decomposition(self) -> tuple[IsotropyModule, ...]:
        """Fibers of the t-root map over R_M+, in module order."""
        return self._modules

    def module_index(self, root: Sequence[int]) -> int:
        """1-based module index of a complementary root (sign ignored)."""
        i = self.system.index.get(tuple(root))
        if i is None or not self.module_of[i]:
            raise NotComplementaryRootError(f"{tuple(root)} is not in R_M")
        return self.module_of[i]

    def _m_id(self, root: Sequence[int]) -> int | None:
        """Root id of a root of R_M+; None for any other vector."""
        i = self.system.index.get(tuple(root), -1)
        return i if 0 <= i < len(self.system.positive_roots) and self.module_of[i] else None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "space": self.name,
            "type": self.kind.value,
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


def paint(system: RootSystem, painted: Iterable[int]) -> PaintedDiagram:
    """Partition the positive roots by support on the painted nodes."""
    return PaintedDiagram(system, painted)


def bracket_inclusion_table(pd: PaintedDiagram) -> list[list[list[str]]]:
    """m x m table, m modules: which modules (or k) each [m_i, m_j] actually hits.

    Entry (i, j) lists, sorted, the labels of the modules whose t-root is
    t_i + t_j, t_i - t_j or t_j - t_i: the t-roots of x+y and x-y for x in m_i
    and y in m_j, each reached by the lemma above.  "k" is added when i = j,
    for the Cartan part of [A_x, B_x] (and x - y lies in R_K only then).
    """
    label = {mod.troot: mod.label for mod in pd.isotropy_decomposition()}
    troots = list(label)
    out = [[None] * len(troots) for _ in troots]
    for i, a in enumerate(troots):
        for j, b in enumerate(troots[i:], start=i):
            ends = (tuple(map(add, a, b)), tuple(map(sub, a, b)), tuple(map(sub, b, a)))
            out[i][j] = out[j][i] = sorted({label[t] for t in ends if t in label} | ({"k"} if i == j else set()))
    return out
