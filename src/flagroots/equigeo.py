"""Structural equigeodesic subspaces and exact residual verification.

A cross-module pair of complementary roots a, b is compatible when neither a+b nor a-b is a root;
same-module pairs always are, as Lambda scales a module part X_i by one l_i and [X_i, l_i X_i] = 0
(on any painting: [m_i, m_i] need not lie in k).  A set of roots whose cross-module pairs are all
compatible spans a subspace of vectors that are equigeodesic for every invariant metric; such sets
are the cliques of the compatibility graph.  The painting's clash table, built on first read, holds
the pairs that are not compatible, by root id: the family and vector tests and the graph read it.
W_K, the Weyl group of the unpainted nodes, keeps every module and compatibility, so the clique
search runs once per W_K vertex orbit and maps what it finds onto the rest of each orbit: the same
families, each once, as one search over the whole graph.

The residual [X, Lambda X]_m is evaluated with exact rational coefficients, so a zero here is an
identity, not a tolerance.  Over the module parts X_k of X it is the sum over i < j of
(l_j - l_i) [X_i, X_j], as [X_i, X_i] = 0 and the pairs (i, j), (j, i) combine by antisymmetry; each
such bracket lies in m, as xi_i +- xi_j != 0 for distinct t-roots.  It equals sum_k l_k C_k with
C_k = [X, X_k]_m.  Only the cross pairs of roots whose sum or difference is a root add to it;
the constant table compiles them once per painting and gives all the C_k of X in one integer pass,
kept on X.  The residual combines the C_k in ints over D^2 L, each nonzero sum one reduced Fraction
by chevalley._fraction (an int when D^2 L = 1); the all-metrics test asks that every C_k be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Collection, Iterable, Sequence
from functools import reduce
from math import lcm
from operator import mul

from .chevalley import AlgebraElement, MixedSystemError, Scalar, StructureConstantTable, _fraction
from .flag import PaintedDiagram
from .rootsys import Coeffs, FlagrootsError, SCHEMA_VERSION


class SupportError(FlagrootsError):
    """A tangent vector or family involves roots outside R_M+."""


@dataclass(frozen=True)
class MetricVector:
    """One positive scaling parameter per isotropy module, each an int or a Fraction."""

    lambdas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        lambdas = tuple(self.lambdas)
        for k, v in enumerate(lambdas, start=1):
            if not (type(v) is int or isinstance(v, Fraction)):
                raise FlagrootsError(f"metric parameter {k}, {v!r}, is not an int or a Fraction")
        object.__setattr__(self, "lambdas", tuple(map(Fraction, lambdas)))
        if any(v <= 0 for v in self.lambdas):
            raise FlagrootsError("metric parameters must be strictly positive")


@dataclass(frozen=True, init=False)
class StructuralFamily:
    """A nonempty set of (module index, root) members, each root in R_M+ once.  Built only by from_roots
    and by an enumeration result's families, each with _ids, the members' root ids."""

    space: PaintedDiagram
    members: frozenset[tuple[int, Coeffs]]

    @classmethod
    def from_roots(cls, space: PaintedDiagram, roots: Iterable[Sequence[int]]) -> "StructuralFamily":
        """One index lookup per root; module_index refuses a K-root or a non-root, and a negative root
        is refused here."""
        index, module_of = space.system.index, space.module_of
        ids = [i if (i := index.get(tuple(r))) is not None and module_of[i] else space.module_index(r) for r in roots]
        if not ids:
            raise FlagrootsError("a structural family must be nonempty")
        members = frozenset((module_of[i], space.system.roots[i]) for i in ids)
        if max(ids) >= (n := len(space.system.positive_roots)):
            root = next(r for _, r in members if index[r] >= n)
            raise SupportError(f"root {root} is not in R_M+ of {space.name}")
        return _family(space, members, ids)

    def sorted_members(self) -> list[tuple[int, Coeffs]]:
        return sorted(self.members, key=lambda kr: (kr[0], sum(kr[1]), kr[1]))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "space": self.space.name,
            "members": [
                {"module": k, "root_coeffs": list(r)} for k, r in self.sorted_members()
            ],
        }


def _family(space: PaintedDiagram, members: frozenset[tuple[int, Coeffs]], ids: Sequence[int]) -> StructuralFamily:
    """A family of members already checked, and their root ids for the structural test."""
    family = object.__new__(StructuralFamily)
    family.__dict__.update(space=space, members=members, _ids=ids)
    return family


class TangentVector:
    """A tangent-space element of int or Fraction coefficients, no Cartan part or K-support; verdict, C_k memoised.
    from_coefficients builds it.  a and b hold the A and B sums by positive-root id, each in order of first
    appearance, with no zero entry and the coefficient types the caller gave."""

    space: PaintedDiagram
    a: dict[int, Scalar]
    b: dict[int, Scalar]
    _structural: bool | None
    _brackets: tuple[int, tuple, tuple] | None  # the C_k, equal under every table of the system

    @classmethod
    def from_coefficients(
        cls,
        pd: PaintedDiagram,
        a: dict[Sequence[int], Scalar] | None = None,
        b: dict[Sequence[int], Scalar] | None = None,
    ) -> "TangentVector":
        """Sum of coeff A_root over a and coeff B_root over b, each coeff an int or a Fraction;
        a negative root counts as its positive, B with the coefficient negated.  The sums are
        kept by root id, and the support, after cancellation, is checked on pd.module_of."""
        system, parts, n = pd.system, [], len(pd.system.positive_roots)
        get = system.index.get
        for coeffs, flip in ((a, 1), (b, -1)):
            out: dict[int, Scalar] = {}
            for root, coeff in (coeffs or {}).items():
                i = get(root) or system.id(root)  # id 0, another spelling or a non-root, which id() refuses
                if not (type(coeff) is int or isinstance(coeff, Fraction)):
                    raise FlagrootsError(f"coefficient {coeff!r} of root {tuple(root)} is not an int or a Fraction")
                if i >= n:
                    i, coeff = i - n, flip * coeff
                if i in out:  # a first coefficient is stored as given, not as 0 + c
                    coeff += out[i]
                if coeff:
                    out[i] = coeff
                else:
                    out.pop(i, None)
            parts.append(out)
        keys, module_of = system.positive_roots, pd.module_of
        if bad := sorted(keys[k] for k in parts[0].keys() | parts[1].keys() if not module_of[k]):
            raise SupportError(f"support leaves R_M+: {bad}")
        x = object.__new__(cls)
        x.space, (x.a, x.b), x._structural, x._brackets = pd, parts, None, None
        return x


def _all_compatible(pd: PaintedDiagram, ids: Collection[int]) -> bool:
    """Whether no two of the R_M+ roots of these ids clash: no root's clash mask meets
    the support's bits."""
    clash, support = pd.clash, 0
    for i in ids:
        support |= 1 << i
    for i in ids:
        if clash[i] & support:
            return False
    return True


def _is_structural(x: TangentVector) -> bool:
    """Whether every cross pair of the support of X is compatible, found once per vector."""
    if x._structural is None:
        x._structural = _all_compatible(x.space, x.a.keys() | x.b.keys())
    return x._structural


def is_structural_family(family: StructuralFamily) -> bool:
    """Every cross-module pair of members must be compatible."""
    return _all_compatible(family.space, family._ids)


@dataclass(frozen=True)
class CompatibilityGraph:
    """Vertices are R_M+ roots (module order, then canonical root order);
    adjacency is pair compatibility, kept as per-vertex bitmasks."""

    space: PaintedDiagram
    vertices: tuple[tuple[int, Coeffs], ...]
    adjacency: tuple[int, ...]


def compatibility_graph(pd: PaintedDiagram) -> CompatibilityGraph:
    """Adjacency off the clash table: every other vertex whose root does not clash."""
    vertices = [(k, r) for k, mod in enumerate(pd.isotropy_decomposition(), start=1)
                for r in mod.roots]
    ids, clash = [pd.system.index[r] for _, r in vertices], pd.clash
    adj = [sum(1 << u for u, j in enumerate(ids) if not clash[i] >> j & 1) & ~(1 << v) for v, i in enumerate(ids)]
    return CompatibilityGraph(pd, tuple(vertices), tuple(adj))


def _maximal_cliques(adj: Sequence[int], module: Sequence[int], min_modules: int,
                     generators: Iterable[Sequence[int]] = ()) -> list[bytes]:
    """Maximal cliques spanning >= min_modules modules, each as bytes of its ascending
    vertex indices (a graph has at most 120 vertices, E8's positive roots, so each
    fits in a byte): Tomita-style pivoting that knows each module is a clique, once
    per vertex orbit of the group G of the generators, which keep adjacency and modules.

    R is the clique so far, mods the bitmask of its modules, P the candidates
    and X the excluded vertices.  A branch ends once a vertex of X is adjacent
    to all of P.  When P lies in one module, R + P is the branch's one maximal
    clique.  Cliques over too few modules are dropped where they are found.

    A Schreier tree gives each u in an orbit O of least vertex v a g_u in G with g_u(v) = u.  Largest first,
    each orbit of 2+ vertices is searched for the cliques F through v that avoid E, the orbits before it, and
    F gives g_u(F), with as many modules, for each u in O with u = min(g_u(F) & O); a last call, E excluded,
    finds the rest (with no generators, the one call over the graph).  A maximal clique I meeting O and no
    earlier orbit comes once: for u = min(I & O), F = g_u^-1(I) is found and gives I, and a found F' giving
    I for u' has u' = u, so F' = F.
    """
    cliques: list[bytes] = []
    same = [sum(1 << u for u, k in enumerate(module) if k == kv) for kv in module]

    def expand(r: tuple[int, ...], mods: int, p: int, x: int) -> None:
        v = (p & -p).bit_length() - 1
        if not p & ~same[v]:
            while x:
                if p & adj[(x & -x).bit_length() - 1] == p:
                    return
                x &= x - 1
            if (mods | 1 << module[v]).bit_count() >= min_modules:
                while p:
                    r += ((p & -p).bit_length() - 1,)
                    p &= p - 1
                cliques.append(bytes(sorted(r)))
            return
        pivot, best, size = -1, -1, p.bit_count()
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (p & adj[u]).bit_count()
            if deg > best:
                if deg == size:  # u is in X, as no vertex is its own neighbour
                    return
                pivot, best = u, deg
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit, a, k = 1 << v, adj[v], mods | 1 << module[v]
            cand &= cand - 1
            if p & a:
                expand(r + (v,), k, p & a, x & a)
            elif not x & a and k.bit_count() >= min_modules:  # R + v is maximal
                cliques.append(bytes(sorted(r + (v,))))
            p &= ~bit
            x |= bit

    tables, trees, seen, done, n = [bytes(g) + bytes(range(len(g), 256)) for g in generators], [], 0, 0, len(adj)
    for v in range(n):
        if not seen >> v & 1:  # v is the least vertex of its orbit, and tree[u] maps v to u
            tree = {v: bytes(range(256))}
            while new := {t[u]: g.translate(t) for u, g in tree.items() for t in tables if t[u] not in tree}:
                tree |= new
            trees.append(tree)
            seen |= sum(1 << u for u in tree)
    for tree in sorted((t for t in trees if len(t) > 1), key=len, reverse=True):
        v, orbit, start = min(tree), sum(1 << u for u in tree), len(cliques)
        later = [sum(1 << u for u, g in tree.items() if g[w] >= u) if w in tree else -1 for w in range(n)]
        expand((), 0, adj[v] & ~done | 1 << v, adj[v] & done)  # the maximal cliques through v that avoid E
        for f in cliques[start:]:
            keep = reduce(int.__and__, map(later.__getitem__, f), orbit ^ 1 << v)
            while keep:
                cliques.append(bytes(sorted(f.translate(tree[(keep & -keep).bit_length() - 1]))))
                keep &= keep - 1
        done |= orbit
    if p := (1 << n) - 1 & ~done:
        expand((), 0, p, done)
    return cliques


class _Families(Sequence[StructuralFamily]):
    """Families as ascending index sequences into graph.vertices (bytes from enumeration), each built only
    when read; the vertices are the painting's R_M+ roots."""

    def __init__(self, graph: CompatibilityGraph, cliques: Sequence[Sequence[int]]):
        self._graph, self._cliques = graph, cliques

    def __len__(self) -> int:
        return len(self._cliques)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(_Families(self._graph, self._cliques[i]))
        members = frozenset(map(self._graph.vertices.__getitem__, self._cliques[i]))
        return _family(self._graph.space, members, [self._graph.space.system.index[r] for _, r in members])


@dataclass(frozen=True)
class EnumerationResult:
    """Maximal families, each as bytes of its ascending indices into graph.vertices."""

    graph: CompatibilityGraph
    cliques: tuple[bytes, ...]
    truncated: bool
    total: int

    @property
    def families(self) -> Sequence[StructuralFamily]:
        return _Families(self.graph, self.cliques)


def enumerate_maximal_families(
    pd: PaintedDiagram,
    min_modules: int = 2,
    cap: int | None = None,
) -> EnumerationResult:
    """All maximal structural families spanning >= min_modules modules.

    Maximal cliques of the compatibility graph, searched once per vertex orbit of W_K, canonically sorted.
    When cap is given, at most cap families are returned and the result
    is flagged truncated; nothing is dropped silently.
    """
    if type(min_modules) is not int:
        raise FlagrootsError(f"min_modules {min_modules!r} is not an int")
    if cap is not None and type(cap) is not int:
        raise FlagrootsError(f"cap {cap!r} is not an int")
    if cap is not None and cap < 0:
        raise FlagrootsError("cap must be nonnegative")
    if min_modules < 1:
        raise FlagrootsError("min_modules must be at least 1")
    graph = compatibility_graph(pd)
    n_modules = len(pd.isotropy_decomposition())
    if min_modules > n_modules:
        raise FlagrootsError(f"min_modules {min_modules} exceeds the {n_modules} modules of {pd.name}")
    module = [k for k, _ in graph.vertices]
    # W_K's generators keep modules (they fix painted coefficients) and compatibility (linear, they permute R).
    vertex = {pd.system.index[r]: v for v, (_, r) in enumerate(graph.vertices)}
    generators = [[vertex[s[i]] for i in vertex]
                  for j, s in enumerate(pd.system.reflections) if j + 1 not in pd.painted]
    # Vertices are in sorted_members order, and bytes compare as tuples of
    # their indices do, so sorting the cliques sorts the families canonically.
    cliques = _maximal_cliques(graph.adjacency, module, min_modules, generators)
    cliques.sort()
    total = len(cliques)
    if truncated := cap is not None and total > cap:
        del cliques[cap:]
    return EnumerationResult(graph, tuple(cliques), truncated, total)


def _module_brackets(table: StructureConstantTable, x: TangentVector) -> tuple[int, tuple, tuple]:
    """The table's module_brackets of X, all C_k = [X, X_k]_m in one integer pass, memoised on X."""
    if x._brackets is None:
        x._brackets = table.module_brackets(x.space, x.a, x.b)
    return x._brackets


def _check_operands(table: StructureConstantTable, pd: PaintedDiagram, x: TangentVector) -> None:
    if x.space is not pd:
        raise SupportError("tangent vector belongs to a different painting")
    if table.system is not pd.system:
        raise MixedSystemError("elements do not match the constant table")


def equigeodesic_residual(table: StructureConstantTable, pd: PaintedDiagram, x: TangentVector,
                          metric: MetricVector) -> AlgebraElement:
    """[X, Lambda X]_m = sum_k l_k C_k exactly, each l_k an int over one denominator L; zero at once
    when every cross pair of the support is compatible.  Only the result, over D^2 L, is made of
    Fractions, each built reduced by _fraction (ints when D^2 L = 1)."""
    _check_operands(table, pd, x)
    lam, n_modules = metric.lambdas, len(pd.isotropy_decomposition())
    if len(lam) != n_modules:
        raise FlagrootsError(f"metric has {len(lam)} parameters, expected {n_modules}")
    if _is_structural(x):
        return AlgebraElement.zero(pd.system)
    den, *rows = _module_brackets(table, x)
    lden = lcm(*(v.denominator for v in lam))
    scaled, den = [v.numerator * (lden // v.denominator) for v in lam], den * lden
    parts = ({r: v if den == 1 else _fraction(v, den) for r, cs in part if (v := sum(map(mul, scaled, cs)))}
             for part in rows)
    return AlgebraElement(pd.system, (0,) * pd.system.rank, *parts)


def is_equigeodesic_all_metrics(table: StructureConstantTable, pd: PaintedDiagram,
                                x: TangentVector) -> bool:
    """True iff [X, Lambda X]_m = 0 for every invariant metric Lambda.

    As [X, Lambda X]_m = sum_k l_k C_k, with C_k = [X, X_k]_m and X_k the
    module-k part of X, that is: no C_k has a nonzero entry.  A support whose
    cross pairs are all compatible needs no C_k.
    """
    _check_operands(table, pd, x)
    if _is_structural(x):
        return True
    return not any(_module_brackets(table, x)[1:])
