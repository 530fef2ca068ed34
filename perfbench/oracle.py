"""Independent root arithmetic for checking flagroots outputs.

Nothing here imports flagroots.  Root systems come from the Gram matrix
of the simple roots, written out from the Dynkin diagrams in the
package's node numbering, and the roots are the closure of the simple
roots under the simple reflections.  Modules, compatibility and the
module-bracket tables are derived from root membership alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

Vec = tuple[int, ...]


def _chain(rank: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    gram = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        gram[i - 1][j - 1] = gram[j - 1][i - 1] = -1
    return tuple(tuple(row) for row in gram)


# Inner products (a_i, a_j) of the simple roots, short roots of norm 2.
GRAM: dict[str, tuple[tuple[int, ...], ...]] = {
    # a1 short, a2 long, triple edge.
    "G2": ((2, -3), (-3, 6)),
    # a1, a2 short, a3, a4 long, double edge between a2 and a3.
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -2, 4, -2), (0, 0, -2, 4)),
    "E6": _chain(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "E7": _chain(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]),
    "E8": _chain(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]),
}

# Highest roots as documented for this numbering; the closure must reach them.
HIGHEST: dict[str, Vec] = {
    "G2": (3, 2),
    "F4": (2, 4, 3, 2),
    "E6": (1, 2, 3, 2, 1, 2),
    "E7": (1, 2, 3, 4, 3, 2, 2),
    "E8": (2, 3, 4, 5, 6, 4, 2, 3),
}

SPACES: dict[str, tuple[str, tuple[int, int]]] = {
    "G2_12": ("G2", (1, 2)),
    "F4_34": ("F4", (3, 4)),
    "E6_36": ("E6", (3, 6)),
    "E7_56": ("E7", (5, 6)),
    "E8_12": ("E8", (1, 2)),
}

# The six positive t-roots in module order, with the label prefix.
PATTERNS = (
    ("m", ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))),
    ("n", ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))),
)


class Roots:
    """All roots of one system, as the Weyl closure of the simple roots."""

    def __init__(self, family: str):
        self.family = family
        self.gram = GRAM[family]
        rank = len(self.gram)
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        found = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(rank):
                    w = self.reflect(i, v)
                    if w not in found:
                        found.add(w)
                        nxt.append(w)
            frontier = nxt
        self.all = frozenset(found)
        self.positive = sorted((v for v in found if sum(v) > 0),
                               key=lambda v: (sum(v), v))
        if self.positive[-1] != HIGHEST[family]:
            raise ValueError(f"{family}: closure misses the documented highest root")

    def inner(self, x: Vec, y: Vec) -> int:
        g = self.gram
        return sum(g[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))

    def reflect(self, i: int, v: Vec) -> Vec:
        pairing = 2 * sum(self.gram[i][j] * v[j] for j in range(len(v))) // self.gram[i][i]
        return tuple(c - pairing if k == i else c for k, c in enumerate(v))

    def normsq(self, v: Vec) -> int:
        return self.inner(v, v)


@lru_cache(maxsize=None)
def roots(family: str) -> Roots:
    return Roots(family)


class Space:
    """R_M+, its six modules and their compatibility, for one painting."""

    def __init__(self, space_id: str):
        family, painted = SPACES[space_id]
        self.id = space_id
        self.roots = roots(family)
        p0 = [i - 1 for i in painted]
        self.m_pos = [v for v in self.roots.positive if any(v[i] for i in p0)]
        troots = {v: tuple(v[i] for i in p0) for v in self.m_pos}
        for prefix, order in PATTERNS:
            if set(troots.values()) == set(order):
                break
        else:
            raise ValueError(f"{space_id}: t-roots do not form a G2 pattern")
        self.troots = order
        self.labels = [f"{prefix}({a},{b})" for a, b in order]
        self.module = {v: order.index(t) + 1 for v, t in troots.items()}

    def compatible(self, a: Vec, b: Vec) -> bool:
        if self.module[a] == self.module[b]:
            return True
        rs = self.roots.all
        return (tuple(x + y for x, y in zip(a, b)) not in rs
                and tuple(x - y for x, y in zip(a, b)) not in rs)

    def maximal_families(self) -> set[frozenset[Vec]]:
        """Maximal cliques spanning at least two modules, by networkx."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.m_pos)
        for i, a in enumerate(self.m_pos):
            for b in self.m_pos[i + 1:]:
                if self.compatible(a, b):
                    graph.add_edge(a, b)
        return {frozenset(c) for c in nx.find_cliques(graph)
                if len({self.module[v] for v in c}) >= 2}

    def random_maximal_family(self, rng: random.Random) -> list[Vec]:
        """A maximal family spanning at least two modules, by greedy growth
        over a seeded vertex order."""
        while True:
            order = list(self.m_pos)
            rng.shuffle(order)
            family: list[Vec] = []
            for v in order:
                if all(self.compatible(v, u) for u in family):
                    family.append(v)
            if len({self.module[v] for v in family}) >= 2:
                return sorted(family, key=lambda v: (sum(v), v))

    def bracket_table(self) -> list[list[list[str]]]:
        """The 6x6 module-bracket table from root arithmetic: {k} on the
        diagonal; off it, the module of t_i+t_j when some a+b is a root
        and that of +-(t_i-t_j) when some a-b is a root."""
        rs = self.roots.all
        size = len(self.troots)
        fibers = [[v for v in self.m_pos if self.module[v] == k + 1] for k in range(size)]
        out = [[["k"] for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if i == j:
                    continue
                ti, tj = self.troots[i], self.troots[j]
                hits = set()
                plus = (ti[0] + tj[0], ti[1] + tj[1])
                minus = (ti[0] - tj[0], ti[1] - tj[1])
                minus = minus if minus in self.troots else (-minus[0], -minus[1])
                for a in fibers[i]:
                    for b in fibers[j]:
                        if tuple(x + y for x, y in zip(a, b)) in rs:
                            hits.add(self.labels[self.troots.index(plus)])
                        if tuple(x - y for x, y in zip(a, b)) in rs:
                            hits.add(self.labels[self.troots.index(minus)])
                out[i][j] = sorted(hits)
        return out

    def killing(self, u: dict[Vec, Fraction], v: dict[Vec, Fraction]) -> Fraction:
        """Killing pairing of two coefficient maps on one of the A/B parts,
        up to a constant factor: weight 1/|a|^2 per root."""
        return sum((c * v[r] / self.roots.normsq(r) for r, c in u.items() if r in v),
                   Fraction(0))


@lru_cache(maxsize=None)
def space(space_id: str) -> Space:
    return Space(space_id)
