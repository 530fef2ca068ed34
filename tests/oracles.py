"""Independent brute-force oracles the tests check the engine against.

Root counts come from reflection closure, root strings and root pairs from
membership walks on that closure, coroots from the Cartan data, cliques
from an exhaustive subset scan, an unpivoted expansion or networkx on a
graph built from root arithmetic, residual identities from polynomial
sampling, and brackets from the real-form formulas term by term.  What
they still read of the engine: a system's rank, Cartan entries, symmetrizer
and root tuples; a painting's painted nodes, modules and module_index; the
constants through table.n; AlgebraElement as the value type;
equigeodesic_residual, which residual_vanishes_identically samples; and
the family test, which pair_compatible puts to two roots.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


def reflect(entries, i, v):
    """Simple reflection s_i of a coefficient vector, from the Cartan matrix
    rows A[i][j] = <a_j, a_i^>: v - <v, a_i^> a_i."""
    pairing = sum(a * c for a, c in zip(entries[i], v))
    return tuple(c - pairing if j == i else c for j, c in enumerate(v))


def weyl_closure_roots(system):
    """All roots as the closure of the simple roots under reflections."""
    rank, entries = system.rank, system.cartan.entries
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = reflect(entries, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


_CLOSURES = {}


def _closure(system):
    """weyl_closure_roots, once per Lie type, for the membership walks."""
    if system.lie_type not in _CLOSURES:
        _CLOSURES[system.lie_type] = frozenset(weyl_closure_roots(system))
    return _CLOSURES[system.lie_type]


def normsq(system, x):
    """|x|^2 = sum_ij d_i A[i][j] x_i x_j from the Cartan entries A and the symmetrizer d,
    normalized so short roots have norm 2."""
    c = system.cartan
    return sum(d * a * xi * xj for d, row, xi in zip(c.symmetrizer, c.entries, x) for a, xj in zip(row, x))


def coroot(system, x):
    """h_x = sum_i x_i d_i / (|x|^2/2) h_i over the simple coroots, d the symmetrizer; linear in x,
    so h_{-x} = -h_x."""
    half = normsq(system, x) // 2
    assert all(m * d % half == 0 for m, d in zip(x, system.cartan.symmetrizer))
    return tuple(m * d // half for m, d in zip(x, system.cartan.symmetrizer))


def string_by_scan(system, alpha, beta):
    """(p, q) by raw membership walks on the reflection closure, no string arithmetic."""
    a, b, roots = tuple(alpha), tuple(beta), _closure(system)
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while cur in roots:
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    q = 0
    cur = tuple(x + y for x, y in zip(b, a))
    while cur in roots:
        q += 1
        cur = tuple(x + y for x, y in zip(cur, a))
    return p, q


def maximal_cliques_subset_scan(adjacency):
    """Maximal cliques of a small graph by scanning all 2^n subsets.

    Vectorized over numpy; usable up to ~22 vertices.
    """
    n = len(adjacency)
    total = 1 << n
    subsets = np.arange(total, dtype=np.uint32)
    is_clique = np.ones(total, dtype=bool)
    closed = [np.uint32(adjacency[v] | (1 << v)) for v in range(n)]
    for v in range(n):
        has_v = (subsets >> np.uint32(v)) & np.uint32(1) == 1
        outside = (subsets & ~closed[v]) != 0
        is_clique &= ~(has_v & outside)
    is_maximal = is_clique.copy()
    is_maximal[0] = False
    for u in range(n):
        bit = np.uint32(1 << u)
        extendable = is_clique & ((subsets & bit) == 0) & ((subsets & ~np.uint32(adjacency[u])) == 0)
        is_maximal &= ~extendable
    return [int(s) for s in subsets[is_maximal]]


def maximal_cliques_unpivoted(adjacency):
    """Plain recursive expansion without pivoting, different vertex order."""
    n = len(adjacency)
    out = []

    def walk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        cand = p
        while cand:
            v = cand.bit_length() - 1  # highest vertex first
            bit = 1 << v
            cand &= ~bit
            walk(r | bit, p & adjacency[v], x & adjacency[v])
            p &= ~bit
            x |= bit

    walk(0, (1 << n) - 1, 0)
    return out


def maximal_cliques_networkx(roots, painted):
    """Maximal structural families as frozensets of R_M+ root tuples, by
    networkx.find_cliques on a compatibility graph built from root
    arithmetic alone.

    roots is the full root set (e.g. weyl_closure_roots) and painted the
    1-based painted nodes.  Vertices are the positive roots with a nonzero
    painted coefficient; two of them are adjacent when they restrict to
    the same painted coordinates, or when neither their sum nor their
    difference is a root.
    """
    import networkx as nx

    roots = {tuple(r) for r in roots}
    cols = [i - 1 for i in painted]
    verts = [r for r in roots if sum(r) > 0 and any(r[i] for i in cols)]
    graph = nx.Graph()
    graph.add_nodes_from(verts)
    for u, v in combinations(verts, 2):
        same = all(u[i] == v[i] for i in cols)
        if same or (tuple(p + q for p, q in zip(u, v)) not in roots
                    and tuple(p - q for p, q in zip(u, v)) not in roots):
            graph.add_edge(u, v)
    return {frozenset(c) for c in nx.find_cliques(graph)}


def structural_by_pairs(roots, all_roots, painted):
    """Whether a set of R_M+ roots is structural, pair by pair from root
    arithmetic alone: two roots whose painted coordinates differ lie in
    different modules, and then neither their sum nor their difference may
    be in all_roots (e.g. weyl_closure_roots)."""
    cols = [i - 1 for i in painted]
    for u, v in combinations(roots, 2):
        if any(u[i] != v[i] for i in cols) and (tuple(p + q for p, q in zip(u, v)) in all_roots
                                                or tuple(p - q for p, q in zip(u, v)) in all_roots):
            return False
    return True


def residual_vanishes_identically(table, pd, x, points=7):
    """Whether [X, Lambda X]_m = 0 as a polynomial identity in the
    metric parameters, by sampling each parameter on a grid.

    The residual is multilinear of degree 1 in each lambda_i, so
    vanishing on a grid with more than one point per active variable is
    an identity; several extra points are sampled for slack.
    """
    from flagroots import MetricVector, equigeodesic_residual

    active = sorted({pd.module_index(r) for r in (*x.element.a, *x.element.b)})
    n_modules = len(pd.isotropy_decomposition())
    base = [Fraction(1)] * n_modules
    if not active:
        return True
    # vary one module at a time, then a couple of joint assignments
    for k in active:
        for t in range(1, points + 1):
            lam = list(base)
            lam[k - 1] = Fraction(t, 2)
            if not equigeodesic_residual(table, pd, x, MetricVector(tuple(lam))).is_zero():
                return False
    for shift in range(1, points + 1):
        lam = [Fraction(1 + ((i * shift) % (points + 1)), 1 + (i % 3)) for i in range(n_modules)]
        if not equigeodesic_residual(table, pd, x, MetricVector(tuple(lam))).is_zero():
            return False
    return True


def pair_brackets_vanish(table, pd, x):
    """Whether every cross-module pair bracket [X_i, X_j], i < j, of the
    module parts X_i of X vanishes, each evaluated by reference_bracket.

    This is sufficient for X to be equigeodesic for every metric, since
    C_k = [X, X_k]_m = sum over i != k of [X_i, X_k]_m.  It is not known to
    be necessary: two pairs can reach the same root and might cancel.
    """
    from flagroots import AlgebraElement

    parts = {}
    for kind, store in enumerate((x.element.a, x.element.b)):
        for r, c in store.items():
            parts.setdefault(pd.module_index(r), ({}, {}))[kind][r] = c
    elems = [AlgebraElement(pd.system, (0,) * pd.system.rank, *parts[k]) for k in sorted(parts)]
    return all(reference_bracket(table, u, v).is_zero() for u, v in combinations(elems, 2))


def reference_bracket(table, x, y):
    """[x, y] expanded term by term in the real basis {A_r, B_r, sqrt(-1) h_i},
    straight from the compact-real-form formulas of the chevalley module
    docstring.  Reads only table.n, the Cartan data (for the pairings and
    coroots) and root tuples; shares no code with chevalley.bracket."""
    from flagroots import AlgebraElement

    system = x.system
    rank = system.rank
    entries = system.cartan.entries

    def pairing(root, i):  # <root, a_i^>
        return sum(entries[i][j] * root[j] for j in range(rank))

    def terms(elem):
        out = [("H", i, c) for i, c in enumerate(elem.cartan) if c]
        out += [("A", tuple(r), c) for r, c in elem.a.items()]
        out += [("B", tuple(r), c) for r, c in elem.b.items()]
        return out

    def basis_bracket(k1, r1, k2, r2):
        """[basis1, basis2] as (kind, key, coefficient) terms."""
        if k1 == "H" and k2 == "H":
            return []
        if k2 == "H" or (k1 == "B" and k2 == "A"):
            return [(k, r, -c) for k, r, c in basis_bracket(k2, r2, k1, r1)]
        if k1 == "H":  # [sqrt(-1)h_i, A_y] = y(h_i) B_y, [sqrt(-1)h_i, B_y] = -y(h_i) A_y
            return [("B", r2, pairing(r2, r1))] if k2 == "A" else [("A", r2, -pairing(r2, r1))]
        if r1 == r2:  # [A_x, A_x] = [B_x, B_x] = 0, [A_x, B_x] = 2 sqrt(-1) h_x
            if k1 != k2:
                return [("H", i, 2 * h) for i, h in enumerate(coroot(system, r1))]
            return []
        plus = tuple(p + q for p, q in zip(r1, r2))
        minus = tuple(p - q for p, q in zip(r1, r2))
        n_plus, n_minus = table.n(r1, r2), table.n(r1, tuple(-q for q in r2))
        if k1 == "A" and k2 == "A":
            return [("A", plus, n_plus), ("A", minus, n_minus)]
        if k1 == "B" and k2 == "B":
            return [("A", plus, -n_plus), ("A", minus, n_minus)]
        # [A_x, B_y] = N(x,y) B_{x+y} + N(x,-y) B_{y-x}
        return [("B", plus, n_plus), ("B", tuple(-c for c in minus), n_minus)]

    cartan = [0] * rank
    a, b = {}, {}
    for k1, r1, c1 in terms(x):
        for k2, r2, c2 in terms(y):
            for kind, key, n in basis_bracket(k1, r1, k2, r2):
                c = c1 * c2 * n
                if not c:
                    continue
                if kind == "H":
                    cartan[key] += c
                    continue
                if sum(key) < 0:  # A_{-r} = A_r, B_{-r} = -B_r
                    key = tuple(-v for v in key)
                    c = c if kind == "A" else -c
                store = a if kind == "A" else b
                store[key] = store.get(key, 0) + c
    return AlgebraElement(system, tuple(cartan),
                          {r: c for r, c in a.items() if c}, {r: c for r, c in b.items() if c})


def pair_compatible(pd, alpha, beta):
    """Whether two R_M+ roots can share a structural family: the engine's family test on the pair."""
    from flagroots import StructuralFamily, is_structural_family

    return is_structural_family(StructuralFamily.from_roots(pd, [alpha, beta]))


def combine(*terms):
    """The sum of c x over the (c, x) terms, x real-form elements of one system, term
    by term; a root whose sum reaches 0 is dropped, and is stored last if it comes back."""
    from flagroots import AlgebraElement

    system = terms[0][1].system
    cartan, a, b = [0] * system.rank, {}, {}
    for c, x in terms:
        assert x.system is system
        cartan = [u + c * v for u, v in zip(cartan, x.cartan)]
        for out, part in ((a, x.a), (b, x.b)):
            for r, v in part.items():
                w = out.get(r, 0) + c * v
                if w:
                    out[r] = w
                else:
                    out.pop(r, None)
    return AlgebraElement(system, tuple(cartan), a, b)


def real_basis(system):
    """A_r, B_r for each positive root r in order, then sqrt(-1) h_i for each simple coroot."""
    from flagroots import AlgebraElement

    zero, out = (0,) * system.rank, []
    for r in system.positive_roots:
        out += [AlgebraElement(system, zero, {r: 1}), AlgebraElement(system, zero, {}, {r: 1})]
    return out + [AlgebraElement(system, tuple(int(j == i) for j in range(system.rank))) for i in range(system.rank)]


_ROOT_PAIRS = {}


def _root_pairs(system):
    """Each pair x, y of positive roots, x before y, whose sum or difference
    is a root, with those roots, all as positions in system.roots; by
    membership in the reflection closure, once per Lie type."""
    if system.lie_type not in _ROOT_PAIRS:
        position, roots = {r: k for k, r in enumerate(system.roots)}, _closure(system)
        pos = system.positive_roots
        pairs = []
        for a, x in enumerate(pos):
            for y in pos[a + 1:]:
                hits = [position[v] for v in (tuple(p + q for p, q in zip(x, y)), tuple(p - q for p, q in zip(x, y)))
                        if v in roots]
                if hits:
                    pairs.append((position[x], position[y], hits))
        _ROOT_PAIRS[system.lie_type] = pairs
    return _ROOT_PAIRS[system.lie_type]


def bracket_inclusion_by_scan(pd):
    """The bracket inclusion table by scanning every pair x, y of R_M+ roots
    whose sum or difference is a root: x+y and x-y, where they are roots,
    land in the module whose t-root is theirs up to sign, or in k when that
    t-root is 0; x = y adds k for the Cartan part.  Reads only the
    painting's modules and painted nodes."""
    modules = pd.isotropy_decomposition()
    position = {m.troot: k for k, m in enumerate(modules)}
    nodes = [i - 1 for i in pd.painted]

    def where(v):  # position of a root's module, its t-root taken up to sign; -1 for k
        t = tuple(v[i] for i in nodes)
        return position.get(t, position.get(tuple(-c for c in t), -1))

    at = [where(v) for v in pd.system.roots]
    names = [m.label for m in modules] + ["k"]  # names[-1] is k
    size = len(modules)
    hit = [[{"k"} if i == j else set() for j in range(size)] for i in range(size)]
    for x, y, roots in _root_pairs(pd.system):
        i, j = sorted((at[x], at[y]))
        if i >= 0:
            for v in roots:
                hit[i][j].add(names[at[v]])
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            out[i][j] = out[j][i] = sorted(hit[i][j])
    return out
