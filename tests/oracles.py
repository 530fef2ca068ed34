"""Independent brute-force oracles the tests check the engine against.

Nothing here shares code paths with the package internals it verifies:
root counts come from reflection closure, root strings from raw
membership walks, cliques from either an exhaustive subset scan or an
unpivoted expansion, and residual identities from polynomial sampling.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


def weyl_closure_roots(system):
    """All roots as the closure of the simple roots under reflections."""
    rank = system.rank
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = system.reflect(i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def string_by_scan(system, alpha, beta):
    """(p, q) by raw membership walks, no string arithmetic."""
    a, b = tuple(alpha), tuple(beta)
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while system.is_root(cur):
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    q = 0
    cur = tuple(x + y for x, y in zip(b, a))
    while system.is_root(cur):
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


def residual_vanishes_identically(table, pd, x, points=7):
    """Whether [X, Lambda X]_m = 0 as a polynomial identity in the
    metric parameters, by sampling each parameter on a grid.

    The residual is multilinear of degree 1 in each lambda_i, so
    vanishing on a grid with more than one point per active variable is
    an identity; several extra points are sampled for slack.
    """
    from flagroots import MetricVector, equigeodesic_residual

    active = sorted({pd.module_index(r) for r in x.element.support()})
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


def reference_bracket(table, x, y):
    """[x, y] expanded term by term in the real basis {A_r, B_r, sqrt(-1) h_i},
    straight from the compact-real-form formulas of the chevalley module
    docstring.  Reads only table.n, table.coroot, the Cartan matrix entries
    and root tuples; shares no code with chevalley.bracket."""
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
                return [("H", i, 2 * h) for i, h in enumerate(table.coroot(r1))]
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
