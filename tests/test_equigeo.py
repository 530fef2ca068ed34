import gc
import random
import re
import sys
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from flagroots import (
    AlgebraElement,
    DimensionMismatchError,
    FlagrootsError,
    LieType,
    MetricVector,
    MixedSystemError,
    NotComplementaryRootError,
    StructureConstantTable,
    StructuralFamily,
    SupportError,
    TangentVector,
    bracket,
    build_constants,
    compatibility_graph,
    enumerate_maximal_families,
    equigeodesic_residual,
    is_equigeodesic_all_metrics,
    is_structural_family,
    load_fixture,
    paint,
    project_m,
    RootSystem,
    space_diagram,
)
from flagroots import chevalley, cli, equigeo, fixtures
from flagroots.fixtures import SPACE_IDS

# F4 display labels used below (frozen from the fixture label map):
# b1^1=(0,1,1,0)  b6^1=(1,1,1,0)  b3^3=(0,0,1,1)  b1^3=(0,1,1,1)


def test_pair_compatible_examples(diagrams):
    pd, pair_compatible = diagrams["F4_34"], oracles.pair_compatible
    assert pair_compatible(pd, (0, 1, 1, 0), (0, 0, 1, 1))      # b1^1 vs b3^3
    assert not pair_compatible(pd, (0, 1, 1, 0), (0, 1, 1, 1))  # b1^1 vs b1^3
    assert pair_compatible(pd, (0, 1, 1, 0), (0, 0, 1, 0))      # same module
    with pytest.raises(NotComplementaryRootError):  # a K-root is in no family
        StructuralFamily.from_roots(pd, [(0, 1, 0, 0), (0, 0, 1, 0)])


def test_structural_family_examples(diagrams):
    pd = diagrams["F4_34"]
    fam = StructuralFamily.from_roots(pd, [(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 0)])
    assert is_structural_family(fam)
    single = StructuralFamily.from_roots(pd, [(0, 1, 1, 0)])
    assert is_structural_family(single)
    bad = StructuralFamily.from_roots(pd, [(0, 1, 1, 0), (0, 1, 1, 1)])
    assert not is_structural_family(bad)


def test_family_validation(diagrams):
    pd = diagrams["F4_34"]
    with pytest.raises(Exception):
        StructuralFamily.from_roots(pd, [])


def test_from_roots_and_from_coefficients_are_the_only_constructors(diagrams):
    # The checked constructors that sat beside them are gone: a family or a
    # vector is built from roots or coefficients, each checked once there.
    pd = diagrams["F4_34"]
    members = frozenset({(1, pd.system.root((0, 1, 1, 0)))})
    with pytest.raises(TypeError):
        StructuralFamily(pd, members)
    with pytest.raises(TypeError):
        TangentVector(pd, AlgebraElement(pd.system, (0, 0, 0, 0), {(0, 1, 1, 0): 1}))


def test_family_rejects_a_root_and_its_negative(diagrams):
    # b1^1 and its negative once made a "two-member" structural family.
    pd = diagrams["F4_34"]
    with pytest.raises(SupportError, match=r"\(0, -1, -1, 0\) is not in R_M\+"):
        StructuralFamily.from_roots(pd, [(0, 1, 1, 0), (0, -1, -1, 0)])


def test_graph_shape(diagrams):
    g4 = compatibility_graph(diagrams["F4_34"])
    assert len(g4.vertices) == 21
    g8 = compatibility_graph(diagrams["E8_12"])
    assert len(g8.vertices) == 84
    # same-module vertices always form cliques
    for g in (g4, g8):
        bymod = {}
        for i, (k, _) in enumerate(g.vertices):
            bymod.setdefault(k, []).append(i)
        for verts in bymod.values():
            for i in verts:
                for j in verts:
                    if i != j:
                        assert g.adjacency[i] >> j & 1


def test_enumeration_f4_counts(diagrams):
    res = enumerate_maximal_families(diagrams["F4_34"])
    assert res.total == 39
    assert not res.truncated
    sizes = sorted(len(f.members) for f in res.families)
    assert sizes == [3] * 36 + [7] * 3


def test_enumeration_output_properties(diagrams, tables):
    pd = diagrams["E6_36"]
    res = enumerate_maximal_families(pd)
    roots_sets = [frozenset(r for _, r in f.members) for f in res.families]
    graph = compatibility_graph(pd)
    vert_index = {tuple(r): i for i, (_, r) in enumerate(graph.vertices)}
    for f, rs in zip(res.families, roots_sets):
        assert is_structural_family(f)
        # maximality: no vertex outside extends the clique
        mask = 0
        for r in rs:
            mask |= 1 << vert_index[r]
        for v in range(len(graph.vertices)):
            if mask >> v & 1:
                continue
            assert (graph.adjacency[v] & mask) != mask
    # no family contains another
    for a, b in combinations(roots_sets, 2):
        assert not (a <= b or b <= a)


def test_enumeration_cap_flags_truncation(diagrams):
    res = enumerate_maximal_families(diagrams["F4_34"], cap=10)
    assert res.truncated and res.total == 39 and len(res.families) == 10
    res_all = enumerate_maximal_families(diagrams["F4_34"], cap=39)
    assert not res_all.truncated


@pytest.mark.parametrize("sid", [*SPACE_IDS, "F4:1,2", "E8:3,5"])
def test_enumerated_cliques_are_sorted_untracked_bytes(sid):
    # Each family is kept as bytes of its ascending vertex indices, which the
    # collector does not track; the cliques are sorted, and every cap takes a
    # prefix of them.  E8_12's 78,357 families fit in 5 MB (tuples took 8.3).
    pd = space_diagram(sid)
    res = enumerate_maximal_families(pd)
    cliques, n = res.cliques, len(res.graph.vertices)
    assert type(cliques) is tuple and len(cliques) == res.total and not res.truncated
    for c in cliques:
        assert type(c) is bytes and not gc.is_tracked(c)
        assert c and all(a < b for a, b in zip(c, c[1:])) and c[-1] < n
    assert list(cliques) == sorted(cliques) == sorted(cliques, key=tuple)
    for cap in (0, res.total // 2, res.total + 1):
        capped = enumerate_maximal_families(pd, cap=cap)
        assert capped.cliques == cliques[:cap] and capped.total == res.total
        assert capped.truncated is (cap < res.total)
    if sid == "E8_12":
        assert sys.getsizeof(cliques) + sum(map(sys.getsizeof, cliques)) < 5_000_000


def test_enumeration_min_modules_filter(diagrams):
    res3 = enumerate_maximal_families(diagrams["F4_34"], min_modules=3)
    assert all(len({k for k, _ in f.members}) >= 3 for f in res3.families)
    assert res3.total <= 39
    with pytest.raises(Exception):
        enumerate_maximal_families(diagrams["F4_34"], cap=-1)
    with pytest.raises(Exception):
        enumerate_maximal_families(diagrams["F4_34"], min_modules=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"min_modules": True}, "min_modules True is not an int"),
    ({"min_modules": 2.0}, "min_modules 2.0 is not an int"),
    ({"cap": False}, "cap False is not an int"),
    ({"cap": 5.0}, "cap 5.0 is not an int"),
    ({"cap": "5"}, "cap '5' is not an int"),
])
def test_enumeration_bounds_must_be_plain_ints(diagrams, kwargs, message):
    with pytest.raises(FlagrootsError, match=re.escape(message)):
        enumerate_maximal_families(diagrams["F4_34"], **kwargs)


def _eager_families(pd, min_modules=2, cap=None):
    """Every maximal clique (unpivoted oracle) built from its roots as a
    StructuralFamily, filtered, sorted by members and capped."""
    graph = compatibility_graph(pd)
    families = []
    for mask in oracles.maximal_cliques_unpivoted(list(graph.adjacency)):
        family = StructuralFamily.from_roots(pd, [r for i, (_, r) in enumerate(graph.vertices) if mask >> i & 1])
        if len({k for k, _ in family.members}) >= min_modules:
            families.append(family)
    families.sort(key=lambda f: [(k, sum(r), tuple(r)) for k, r in f.sorted_members()])
    return tuple(families[:cap])


@pytest.mark.parametrize("sid", ["G2_12", "F4_34", "E6_36", "E7_56"])
@pytest.mark.parametrize("min_modules,cap", [(2, None), (2, 5), (3, None), (3, 2), (2, 0),
                                             (1, None), (4, None), (5, None), (6, None)])
def test_lazy_families_equal_eager_construction(diagrams, sid, min_modules, cap):
    pd = diagrams[sid]
    eager = _eager_families(pd, min_modules, cap)
    res = enumerate_maximal_families(pd, min_modules=min_modules, cap=cap)
    fams = res.families
    assert len(fams) == len(eager) and res.total >= len(eager)
    assert res.truncated == (cap is not None and res.total > cap)
    assert tuple(fams) == eager and list(iter(fams)) == list(eager)
    for i in {0, 1, len(eager) // 2, len(eager) - 1} & set(range(len(eager))):
        assert fams[i] == eager[i] and fams[-1 - i] == eager[-1 - i]
    for sl in (slice(None), slice(1, 4), slice(-3, None), slice(None, None, -2), slice(5, 1)):
        assert fams[sl] == eager[sl]
    with pytest.raises(IndexError):
        fams[len(eager)]
    with pytest.raises(IndexError):
        fams[-len(eager) - 1]
    assert all(f.space is pd for f in fams)


def test_family_json_schema(diagrams):
    import json as _json

    pd = diagrams["F4_34"]
    fam = StructuralFamily.from_roots(pd, [(0, 0, 1, 1), (0, 1, 1, 0)])
    doc = _json.loads(_json.dumps(fam.to_dict(), sort_keys=True, separators=(",", ":")))
    assert doc["schema_version"] == 1 and doc["space"] == "F4(3,4)"
    assert doc["members"] == [
        {"module": 1, "root_coeffs": [0, 1, 1, 0]},
        {"module": 3, "root_coeffs": [0, 0, 1, 1]},
    ]


def test_bk_matches_subset_scan_oracle(diagrams):
    # independent exhaustive check over all 2^21 subsets
    pd = diagrams["F4_34"]
    graph = compatibility_graph(pd)
    marks = oracles.maximal_cliques_subset_scan(list(graph.adjacency))
    res = enumerate_maximal_families(pd, min_modules=1)
    got = set()
    for f in res.families:
        mask = 0
        idx = {tuple(r): i for i, (_, r) in enumerate(graph.vertices)}
        for _, r in f.members:
            mask |= 1 << idx[tuple(r)]
        got.add(mask)
    assert got == set(marks)


def test_bk_matches_unpivoted_oracle(diagrams):
    for sid in ("F4_34", "E6_36"):
        graph = compatibility_graph(diagrams[sid])
        a = sorted(oracles.maximal_cliques_unpivoted(list(graph.adjacency)))
        res = enumerate_maximal_families(diagrams[sid], min_modules=1)
        idx = {tuple(r): i for i, (_, r) in enumerate(graph.vertices)}
        b = sorted(
            sum(1 << idx[tuple(r)] for _, r in f.members) for f in res.families
        )
        assert a == b


def test_bk_random_graphs_against_oracle():
    # Each vertex its own module: every maximal clique, nothing filtered.
    from flagroots.equigeo import _maximal_cliques

    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 13)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        cliques = _maximal_cliques(adj, list(range(n)), 1)
        assert all(type(c) is bytes and list(c) == sorted(set(c)) for c in cliques)
        assert sorted(sum(1 << i for i in c) for c in cliques) == sorted(
            oracles.maximal_cliques_unpivoted(adj))


def test_module_aware_search_against_oracle():
    # Random graphs over a random module partition, each module a clique,
    # under every module bound: the search's settled branches and its
    # filter against the unpivoted oracle, filtered here.
    from flagroots.equigeo import _maximal_cliques

    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 13)
        parts = rng.randint(1, n)
        labels = rng.sample(range(1, 20), parts)
        module = labels + [rng.choice(labels) for _ in range(n - parts)]
        rng.shuffle(module)
        density = rng.choice((0.2, 0.45, 0.7))
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if module[i] == module[j] or rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        oracle = oracles.maximal_cliques_unpivoted(adj)
        for min_modules in range(1, parts + 1):
            want = sorted(mask for mask in oracle
                          if len({module[i] for i in range(n) if mask >> i & 1}) >= min_modules)
            cliques = _maximal_cliques(adj, module, min_modules)
            assert all(type(c) is bytes and list(c) == sorted(set(c)) for c in cliques)
            assert sorted(sum(1 << i for i in c) for c in cliques) == want


def _planted_symmetric_graph(rng):
    # A random graph over a random module partition, each module a clique,
    # closed under 1-3 planted permutations that keep every module: each acts
    # on each module's members, in a fixed random order, by the identity, a
    # rotation or a reflection, so one permutation moves several modules at
    # once.  The edges between modules come in whole orbits.
    n = rng.randint(1, 14)
    parts = rng.randint(1, max(1, n // 2))
    labels = rng.sample(range(1, 20), parts)
    module = labels + [rng.choice(labels) for _ in range(n - parts)]
    rng.shuffle(module)
    members = {k: rng.sample([v for v in range(n) if module[v] == k], module.count(k)) for k in labels}
    generators = []
    for _ in range(rng.randint(1, 3)):
        g = list(range(n))
        for ms in members.values():
            shift, flip = rng.randrange(len(ms)), rng.random() < 0.3
            if flip or rng.random() < 0.7:
                for i, v in enumerate(ms):
                    g[v] = ms[(shift - i if flip else shift + i) % len(ms)]
        generators.append(g)
    density, edges = rng.choice((0.0, 0.2, 0.45, 0.7)), set()
    for i, j in combinations(range(n), 2):
        if frozenset((i, j)) in edges:
            continue
        if module[i] == module[j] or rng.random() < density:
            orbit = [frozenset((i, j))]
            for e in orbit:
                for g in generators:
                    image = frozenset(g[v] for v in e)
                    if image not in orbit:
                        orbit.append(image)
            edges.update(orbit)
    adj = [sum(1 << u for u in range(n) if frozenset((u, v)) in edges) for v in range(n)]
    return adj, module, parts, generators


def test_orbit_search_on_planted_symmetric_graphs_against_oracle():
    # The search run once per vertex orbit of a planted group, under every
    # module bound, against the unpivoted oracle, filtered here; orbits of
    # one vertex, isolated vertices and trivial generators included.
    from flagroots.equigeo import _maximal_cliques

    rng, orbit_runs = random.Random(29), 0
    for _ in range(150):
        adj, module, parts, generators = _planted_symmetric_graph(rng)
        n = len(adj)
        for g in generators:
            assert [module[v] for v in g] == module
            assert [sum(1 << g[u] for u in range(n) if a >> u & 1) for a in adj] == [adj[v] for v in g]
        orbit_runs += any(g != list(range(n)) for g in generators)
        oracle = oracles.maximal_cliques_unpivoted(adj)
        for min_modules in range(1, parts + 1):
            want = sorted(mask for mask in oracle
                          if len({module[i] for i in range(n) if mask >> i & 1}) >= min_modules)
            cliques = _maximal_cliques(adj, module, min_modules, generators)
            assert all(type(c) is bytes and list(c) == sorted(set(c)) for c in cliques)
            assert sorted(sum(1 << i for i in c) for c in cliques) == want
    assert orbit_runs > 120, orbit_runs


ALL_PAINTINGS = [(t, nodes) for t in (LieType.G2, LieType.F4, LieType.E6, LieType.E7)
                 for k in range(1, t.rank + 1) for nodes in combinations(range(1, t.rank + 1), k)]


@pytest.mark.parametrize("lie_type,nodes", ALL_PAINTINGS + [(LieType.E8, (1, 2)), (LieType.E8, (3, 5)),
                                                            (LieType.E8, (1, 4, 5))],
                         ids=[f"{t.name}:{','.join(map(str, n))}" for t, n in ALL_PAINTINGS]
                         + ["E8:1,2", "E8:3,5", "E8:1,4,5"])
def test_weyl_k_generators_are_graph_automorphisms(systems, monkeypatch, lie_type, nodes):
    # The vertex permutations that enumeration passes to the search are the
    # reflections in the unpainted nodes, as the oracle's reflection moves
    # the roots; each keeps every module and the adjacency of the graph.
    # Up to E7 the orbit search also equals the search with no generators.
    seen = []

    def record(adj, module, min_modules, generators=()):
        seen.append((adj, module, generators))
        return []
    monkeypatch.setattr(equigeo, "_maximal_cliques", record)
    pd = paint(systems[lie_type], nodes)
    enumerate_maximal_families(pd, min_modules=1)
    [(adj, module, generators)] = seen
    graph, entries, n = compatibility_graph(pd), pd.system.cartan.entries, len(adj)
    assert adj == graph.adjacency and module == [k for k, _ in graph.vertices]
    unpainted = [i for i in range(pd.system.rank) if i + 1 not in nodes]
    assert len(generators) == len(unpainted)
    roots = [tuple(r) for _, r in graph.vertices]
    for i, g in zip(unpainted, generators):
        assert [roots[u] for u in g] == [oracles.reflect(entries, i, r) for r in roots]
        assert [module[u] for u in g] == module
        assert [sum(1 << g[u] for u in range(n) if a >> u & 1) for a in adj] == [adj[u] for u in g]
    monkeypatch.undo()
    if lie_type is not LieType.E8:
        assert sorted(equigeo._maximal_cliques(adj, module, 1, generators)) == sorted(
            equigeo._maximal_cliques(adj, module, 1))


def test_min_modules_above_the_module_count_is_rejected(diagrams):
    for sid in ("G2_12", "F4_34", "E6_36"):
        assert enumerate_maximal_families(diagrams[sid], min_modules=6).total >= 0
        name = re.escape(diagrams[sid].name)
        with pytest.raises(FlagrootsError, match=f"min_modules 7 exceeds the 6 modules of {name}"):
            enumerate_maximal_families(diagrams[sid], min_modules=7)


def test_residual_single_module_trivial(diagrams, tables):
    pd = diagrams["F4_34"]
    table = tables[LieType.F4]
    x = TangentVector.from_coefficients(
        pd,
        a={(0, 1, 1, 0): 3, (0, 0, 1, 0): Fraction(-1, 2)},
        b={(1, 1, 1, 0): 7},
    )
    for lam in [(1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 5, 6), (Fraction(1, 3), 5, 2, 7, 1, 9)]:
        assert equigeodesic_residual(table, pd, x, MetricVector(lam)).is_zero()
    assert is_equigeodesic_all_metrics(table, pd, x)


def test_residual_structural_family_vanishes(diagrams, tables):
    # arbitrary rational combination over a reference family
    pd = diagrams["F4_34"]
    table = tables[LieType.F4]
    fx = load_fixture("F4_34")
    fam = fx.families[0]
    roots = fx.family_roots(fam)
    x = TangentVector.from_coefficients(
        pd,
        a={tuple(r): Fraction(3 * i - 7, 2) for i, r in enumerate(roots)},
        b={tuple(r): Fraction(2 * i + 1, 3) for i, r in enumerate(roots)},
    )
    assert is_equigeodesic_all_metrics(table, pd, x)
    rng = random.Random(23)
    for _ in range(25):
        lam = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(6))
        assert equigeodesic_residual(table, pd, x, MetricVector(lam)).is_zero()


def test_residual_incompatible_pair(diagrams, tables):
    # X = A_{b1^1} + A_{b1^3}: the surviving terms scale with l3 - l1.
    pd = diagrams["F4_34"]
    table = tables[LieType.F4]
    x = TangentVector.from_coefficients(pd, a={(0, 1, 1, 0): 1, (0, 1, 1, 1): 1})
    r = equigeodesic_residual(table, pd, x, MetricVector((1, 1, 2, 1, 1, 1)))
    assert not r.is_zero()
    # frozen from the bracket computation: components in m(2,1) and m(0,1)
    assert set(r.a) == {(0, 2, 2, 1), (0, 0, 0, 1)}
    assert not r.b and not any(r.cartan)
    base = {k: v for k, v in r.a.items()}
    # residual scales linearly in (l3 - l1)
    r5 = equigeodesic_residual(table, pd, x, MetricVector((1, 1, 6, 1, 1, 1)))
    assert r5.a == {k: 5 * v for k, v in base.items()}
    assert not is_equigeodesic_all_metrics(table, pd, x)


def test_residual_scaling_invariance(diagrams, tables):
    pd = diagrams["E6_36"]
    table = tables[LieType.E6]
    fx = load_fixture("E6_36")
    rng = random.Random(31)
    roots = [tuple(r) for r in pd.r_m_pos]
    for _ in range(30):
        support = rng.sample(roots, rng.randint(1, 5))
        x = TangentVector.from_coefficients(
            pd, a={r: rng.randint(1, 5) for r in support})
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        xc = TangentVector.from_coefficients(pd, a={r: v * c for r, v in oracles.element(x).a.items()})
        assert is_equigeodesic_all_metrics(table, pd, x) == is_equigeodesic_all_metrics(
            table, pd, xc)
        lam = MetricVector(tuple(rng.randint(1, 9) for _ in range(6)))
        assert equigeodesic_residual(table, pd, xc, lam) == oracles.combine(
            (c * c, equigeodesic_residual(table, pd, x, lam)))


def test_metric_validation():
    with pytest.raises(Exception):
        MetricVector((1, 2, 3, 4, 5, 0))
    with pytest.raises(Exception):
        MetricVector((1, 2, 3, 4, 5, Fraction(-1, 2)))
    m = MetricVector((1, 2, 3, 4, 5, Fraction(7, 2)))
    assert m.lambdas[5] == Fraction(7, 2)


@pytest.mark.parametrize("value", [0.1, 2.0, "1/2", Decimal("0.5"), True])
def test_metric_refuses_non_rational_parameters(value):
    # A float was taken as its binary value and a string was parsed; only
    # int and Fraction parameters are exact rationals of the engine.
    with pytest.raises(FlagrootsError, match=re.escape(f"metric parameter 2, {value!r}, is not an int")):
        MetricVector([1, value, 3, 4, 5, 6])


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_every_root_handed_out_is_the_stored_plain_tuple(diagrams, tables, sid):
    # One root type: each root the package hands out is a tuple of ints, and
    # the very object that RootSystem.roots holds for its id, whatever
    # sequence or sign the caller looked it up by.
    pd, table = diagrams[sid], tables[diagrams[sid].system.lie_type]
    system, fx = pd.system, load_fixture(sid)

    def stored(roots):
        for r in roots:
            assert type(r) is tuple and all(type(c) is int for c in r), r
            assert system.roots[system.index[r]] is r, r

    neg = lambda r: tuple(-c for c in r)  # noqa: E731
    stored(system.roots)
    stored(system.positive_roots)
    stored([system.highest_root])
    stored(system.root(list(r)) for r in system.roots)
    stored(r for mod in pd.isotropy_decomposition() for r in mod.roots)
    stored(r for roots in fx.label_map.values() for r in roots)
    stored(fx.root_of_label(k, i) for k, roots in fx.label_map.items() for i in range(1, len(roots) + 1))
    m = pd.r_m_pos
    x = TangentVector.from_coefficients(pd, a={tuple(list(r)): 1 for r in m},
                                        b={neg(r): Fraction(k + 1, 2) for k, r in enumerate(m)})
    y = AlgebraElement(system, (0,) * system.rank, {m[0]: 1}, {m[-1]: -3})
    xe = oracles.element(x)
    twice = oracles.combine((2, xe))
    for elem in (xe, y, bracket(table, xe, y), bracket(table, xe, twice)):
        stored(elem.a)
        stored(elem.b)
    assert set(xe.a) == set(xe.b) == set(m)
    assert y.a.keys() == {m[0]} and y.b.keys() == {m[-1]}


def test_tangent_vector_support_validation(diagrams):
    pd = diagrams["F4_34"]
    with pytest.raises(SupportError):
        TangentVector.from_coefficients(pd, a={(0, 1, 0, 0): 1})  # K-root


def test_from_coefficients_folds_signs_and_keeps_order_and_types(diagrams):
    # Keys in order of first appearance, as plain tuples; a root and its
    # negative add up in A and cancel in B, where -x negates the coefficient;
    # a zero coefficient is not stored; int stays int and Fraction Fraction.
    pd = diagrams["F4_34"]
    r1, r2, r3 = pd.r_m_pos[:3]
    neg = lambda r: tuple(-c for c in r)  # noqa: E731
    x = TangentVector.from_coefficients(
        pd, a={r2: 3, r1: Fraction(1, 2), neg(r2): 4, r3: 0},
        b={r1: Fraction(2, 3), neg(r1): Fraction(2, 3), r3: 5, neg(r2): Fraction(3)})
    xe = oracles.element(x)
    assert list(xe.a.items()) == [(r2, 7), (r1, Fraction(1, 2))]
    assert list(xe.b.items()) == [(r3, 5), (r2, Fraction(-3))]
    for part in (xe.a, xe.b):
        assert all(type(r) is tuple for r in part)
    assert [type(c) for c in xe.a.values()] == [int, Fraction]
    assert [type(c) for c in xe.b.values()] == [int, Fraction]


def test_criteria_equivalence_random_vectors(diagrams, tables):
    # all-metrics test (every C_k = 0) == sampled-metric residual test ==
    # polynomial identity == pair-vanishing oracle, on mixed random supports
    for sid in ("G2_12", "F4_34", "E6_36", "E7_56", "E8_12"):
        pd = diagrams[sid]
        table = tables[pd.system.lie_type]
        roots = [tuple(r) for r in pd.r_m_pos]
        rng = random.Random(41)
        agree = 0
        for _ in range(60):
            support = rng.sample(roots, rng.randint(1, 5))
            a = {r: rng.choice([1, 2, -1, Fraction(1, 2)]) for r in support}
            b = {r: rng.choice([0, 1, -3]) for r in support}
            b = {r: c for r, c in b.items() if c}
            x = TangentVector.from_coefficients(pd, a=a, b=b)
            flag = is_equigeodesic_all_metrics(table, pd, x)
            sampled = all(
                equigeodesic_residual(
                    table, pd, x,
                    MetricVector(tuple(
                        Fraction(rng.randint(1, 97), rng.randint(1, 13))
                        for _ in range(6)))).is_zero()
                for _ in range(25)
            )
            ident = oracles.residual_vanishes_identically(table, pd, x)
            pairs = oracles.pair_brackets_vanish(table, pd, x)
            assert flag == sampled == ident == pairs, (sid, a, b)
            agree += 1
        assert agree == 60


# Cross-module pairs of R_M+ per space: 15, 165, 327, 813 and 2,433.
CROSS_PAIRS = {"G2_12": 15, "F4_34": 165, "E6_36": 327, "E7_56": 813, "E8_12": 2433}


@pytest.mark.parametrize("sid", sorted(CROSS_PAIRS))
def test_pair_compatible_certificate(diagrams, tables, sid):
    """Compatibility of a and b iff the basis brackets of a and b all vanish,
    for every cross-module pair of R_M+.

    With the identity [X, Lambda X]_m = sum_k l_k C_k, C_k = [X, X_k]_m,
    this certifies "structural => equigeodesic subspace" for every subset S
    of every space.  Let V = span{A_r, B_r : r in S}.  Every X in V is
    equigeodesic for every metric iff each quadratic map X -> C_k vanishes on
    V.  Polarizing, that holds iff [e, P_k f]_m + [f, P_k e]_m = 0 for all
    basis vectors e, f of V, P_k the projection onto m_k.  For e in m_i and
    f in m_j, i != j, take k = j: P_j e = 0, so [e, f]_m = 0; and [e, f] has
    t-root +-xi_i +- xi_j != 0, so it lies in m and [e, f] = 0.  Conversely
    C_k(X) is a sum of such cross brackets, as [X_k, X_k] = 0.  So V consists
    of equigeodesic vectors iff the four basis brackets [A_a, A_b], [A_a, B_b],
    [B_a, A_b], [B_a, B_b] are zero for each cross pair of S, and by this
    test iff S is structural.  The all-metrics test's early return, which
    skips every bracket on a structural support, rests on it.
    """
    pd, table = diagrams[sid], tables[diagrams[sid].system.lie_type]
    system = pd.system
    pairs = [(a, b) for a, b in combinations(pd.r_m_pos, 2)
             if pd.module_index(a) != pd.module_index(b)]
    assert len(pairs) == CROSS_PAIRS[sid]
    basis = oracles.real_basis(system)
    basis = {r: basis[2 * system.index[r]:2 * system.index[r] + 2] for r in pd.r_m_pos}
    mismatched = [(a, b) for a, b in pairs if oracles.pair_compatible(pd, a, b)
                  != all(bracket(table, u, v).is_zero() for u in basis[a] for v in basis[b])]
    assert mismatched == []


@pytest.mark.parametrize("sid", sorted(CROSS_PAIRS))
def test_normal_metric_residual_vanishes(diagrams, tables, sid):
    # sum_k C_k = [X, X]_m = 0: every vector is geodesic for the normal metric.
    pd, table = diagrams[sid], tables[diagrams[sid].system.lie_type]
    rng = random.Random(61)
    normal = MetricVector((1,) * len(pd.isotropy_decomposition()))
    for _ in range(3):
        dense = {r: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for r in pd.r_m_pos}
        x = TangentVector.from_coefficients(pd, a=dense, b={r: rng.randint(1, 5) for r in pd.r_m_pos})
        assert len(oracles.element(x).b) == len(pd.r_m_pos)
        assert equigeodesic_residual(table, pd, x, normal).is_zero()


def _p_over_q(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _dense_vector(pd, rng):
    return TangentVector.from_coefficients(pd, a={r: _p_over_q(rng) for r in pd.r_m_pos},
                                           b={r: _p_over_q(rng) for r in pd.r_m_pos})


def _metric(rng, n):
    return tuple(Fraction(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(n))


def _oracle_residual(table, pd, x, lam):
    """project_m([X, Lambda X]), Lambda X built term by term and the bracket
    taken by the reference oracle.  A zero parameter (a unit metric) drops
    its module's terms, as an element stores no zero coefficient."""
    xe = oracles.element(x)
    scaled = [{r: c * lam[pd.module_index(r) - 1] for r, c in part.items() if lam[pd.module_index(r) - 1]}
              for part in (xe.a, xe.b)]
    lx = AlgebraElement(pd.system, (0,) * pd.system.rank, *scaled)
    return project_m(pd, oracles.reference_bracket(table, xe, lx))


@pytest.mark.parametrize("sid", sorted(CROSS_PAIRS))
def test_residual_matches_reference_bracket(diagrams, tables, sid):
    # Dense vectors, metrics with distinct and with repeated entries, and
    # supports inside one module, against the reference bracket of X and
    # Lambda X with the projection onto m.
    pd, table = diagrams[sid], tables[diagrams[sid].system.lie_type]
    n = len(pd.isotropy_decomposition())
    rng = random.Random(f"residual-oracle:{sid}")
    x = _dense_vector(pd, rng)
    lam = _metric(rng, n)
    repeated = (lam[0], lam[0], lam[1], lam[1], lam[0], lam[2])
    for metric in (lam, repeated, (1,) * n):
        got = equigeodesic_residual(table, pd, x, MetricVector(metric))
        assert got == _oracle_residual(table, pd, x, metric), metric
    assert not equigeodesic_residual(table, pd, x, MetricVector(lam)).is_zero()
    for mod in pd.isotropy_decomposition():
        xk = TangentVector.from_coefficients(pd, a={r: _p_over_q(rng) for r in mod.roots},
                                             b={r: _p_over_q(rng) for r in mod.roots})
        assert equigeodesic_residual(table, pd, xk, MetricVector(lam)).is_zero()
        assert _oracle_residual(table, pd, xk, lam).is_zero()


@pytest.mark.parametrize("sid", sorted(CROSS_PAIRS))
def test_residual_linear_and_shift_invariant(diagrams, tables, sid):
    # R(l + m) = R(l) + R(m) and R(l + c 1) = R(l) on a dense vector.
    pd, table = diagrams[sid], tables[diagrams[sid].system.lie_type]
    n = len(pd.isotropy_decomposition())
    rng = random.Random(f"residual-linear:{sid}")
    x = _dense_vector(pd, rng)
    lam, mu, c = _metric(rng, n), _metric(rng, n), Fraction(rng.randint(1, 30), rng.randint(1, 7))

    def res(metric):
        return equigeodesic_residual(table, pd, x, MetricVector(metric))

    assert res([p + q for p, q in zip(lam, mu)]) == oracles.combine((1, res(lam)), (1, res(mu)))
    assert res([p + c for p in lam]) == res(lam)


# Cross-module pairs of R_M+ whose root sum or difference is a root: the
# complements of the compatible ones among CROSS_PAIRS.
BRACKETING_PAIRS = {"G2_12": 12, "F4_34": 111, "E6_36": 192, "E7_56": 408, "E8_12": 1056}


def _bracketing_pairs(pd):
    """(x, y) over cross-module pairs of R_M+, lower module first, whose sum or
    difference is a root, by tuple arithmetic."""
    system, out = pd.system, set()
    for a, b in combinations(pd.r_m_pos, 2):
        i, j = pd.module_index(a), pd.module_index(b)
        if i != j and any(tuple(p + s * q for p, q in zip(a, b)) in system.index for s in (1, -1)):
            out.add((a, b) if i < j else (b, a))
    return out


def _unit(n, k):
    return tuple(int(i == k) for i in range(1, n + 1))


def _c_k(table, x, k):
    """C_k = [X, X_k]_m read from the one-pass system memoised on x."""
    den, rows_a, rows_b = equigeo._module_brackets(table, x)
    return AlgebraElement(x.space.system, (0,) * x.space.system.rank,
                          *({r: Fraction(cs[k - 1], den) for r, cs in rows if cs[k - 1]} for rows in (rows_a, rows_b)))


@pytest.mark.parametrize("sid", sorted(BRACKETING_PAIRS))
def test_cross_pair_system_holds_the_bracketing_pairs(diagrams, tables, sid):
    # The compiled system lists each cross-module pair with a root sum or
    # difference once, lower module first, with the constants of the table;
    # the one-pass system's C_k is the residual at the unit metric e_k,
    # [X, X_k]_m, which weighs the pairs (k, j) by -1 and (i, k) by +1.
    pd, table = diagrams[sid], tables[diagrams[sid].system.lie_type]
    system, n = pd.system, len(pd.system.positive_roots)
    stored = [(system.roots[x], entry) for x, row in enumerate(table.cross_pairs(pd)) for entry in row]
    pairs = [(x, system.roots[entry[0]]) for x, entry in stored]
    assert len(pairs) == len(set(pairs)) == BRACKETING_PAIRS[sid]
    assert set(pairs) == _bracketing_pairs(pd)
    for x, (y_id, k, s, ns, d, nd, nb) in stored:
        y = system.roots[y_id]
        diff = tuple(p - q for p, q in zip(x, y))
        assert k == pd.module_index(y) > pd.module_index(x)
        assert (ns, nd) == (table.n(x, y), table.n(x, tuple(-c for c in y)))
        assert s == system.index.get(tuple(p + q for p, q in zip(x, y)), n)
        assert d == (n if nd == 0 else system.index[diff] % n)
        assert nb == (-nd if nd and system.index[diff] < n else nd)
    rng = random.Random(f"unit-metrics:{sid}")
    x, n_modules = _dense_vector(pd, rng), len(pd.isotropy_decomposition())
    for k in range(1, n_modules + 1):
        got = _c_k(table, x, k)
        assert got == _oracle_residual(table, pd, x, _unit(n_modules, k)), k
        assert not got.is_zero()


def test_structural_supports_build_no_cross_pair_system():
    # The non-suspect reference families, as the certify benchmark runs them,
    # and a support inside one module are answered without compiling a
    # cross-pair system or filling the vector's C_k.  Fresh systems: the
    # shared ones' tables hold other tests' cross-pair systems.
    checked = 0
    for sid, (lie_type, nodes) in fixtures._SPACE_DEFS.items():
        pd, fx = paint(RootSystem(lie_type), nodes), load_fixture(sid)
        table = build_constants(pd.system)
        lam = MetricVector(tuple(range(1, len(pd.isotropy_decomposition()) + 1)))
        supports = [fx.family_roots(f) for f in fx.families if not f.suspect]
        for roots in supports + [pd.isotropy_decomposition()[0].roots]:
            x = TangentVector.from_coefficients(pd, a={r: Fraction(i + 1, 3) for i, r in enumerate(roots)},
                                                b={r: -i - 1 for i, r in enumerate(roots)})
            assert is_equigeodesic_all_metrics(table, pd, x)
            assert equigeodesic_residual(table, pd, x, lam).is_zero()
            assert x._brackets is None
        checked += len(supports)
        assert table._compiled == {}, sid
    assert checked == 162


def test_cross_pair_system_is_compiled_once():
    # A fresh system, so that its table holds no other painting's system.
    pd = paint(RootSystem(LieType.E6), (3, 6))
    table = build_constants(pd.system)
    rng = random.Random(97)
    x, lam = _dense_vector(pd, rng), MetricVector(_metric(rng, 6))
    first = equigeodesic_residual(table, pd, x, lam)
    system = table._compiled[pd.painted]
    assert not is_equigeodesic_all_metrics(table, pd, x)
    assert equigeodesic_residual(table, pd, x, lam) == first
    assert list(table._compiled) == [pd.painted] and table._compiled[pd.painted] is system


def _counting(monkeypatch, calls, owner, *names):
    """Count the calls made to each named function of a module, or method of a class."""
    for name in names:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)


def test_module_brackets_are_computed_once_per_vector(diagrams, monkeypatch):
    # One numerator pass, on the vector's id-keyed sums, and one pass over the
    # cross-pair system per vector, both in the table's module_brackets: later
    # residuals and the all-metrics test read the vector's one memo slot.
    pd = diagrams["E6_36"]
    table, calls = build_constants(pd.system), Counter()
    _counting(monkeypatch, calls, chevalley, "_numerators")
    _counting(monkeypatch, calls, StructureConstantTable, "cross_pairs")
    counted, operands = chevalley._numerators, []
    monkeypatch.setattr(chevalley, "_numerators", lambda *args: operands.append(args) or counted(*args))
    rng = random.Random(103)
    x, metrics = _dense_vector(pd, rng), [MetricVector(_metric(rng, 6)) for _ in range(3)]
    first = equigeodesic_residual(table, pd, x, metrics[0])
    memo = x._brackets
    assert calls == {"_numerators": 1, "cross_pairs": 1} and type(memo) is tuple and len(memo) == 3
    assert operands[0][0] is x.a and operands[0][1] is x.b  # the vector's own sums by root id, not a copy
    again = [equigeodesic_residual(table, pd, x, lam) for lam in metrics]
    assert not is_equigeodesic_all_metrics(table, pd, x)
    assert calls == {"_numerators": 1, "cross_pairs": 1}
    assert again[0] == first == _oracle_residual(table, pd, x, metrics[0].lambdas)
    assert x._brackets is memo
    y = _dense_vector(pd, rng)
    assert not is_equigeodesic_all_metrics(table, pd, y)
    assert calls == {"_numerators": 2, "cross_pairs": 2}


def test_structural_verdict_is_found_once_per_vector(diagrams, monkeypatch):
    # Four residuals and the all-metrics test on one vector walk its support's
    # pairs once, for a structural support (no C_k) and a dense one alike.
    pd, fx = diagrams["F4_34"], load_fixture("F4_34")
    table, rng, calls = build_constants(pd.system), random.Random(127), Counter()
    _counting(monkeypatch, calls, equigeo, "_all_compatible")
    family = TangentVector.from_coefficients(pd, a={r: 1 for r in fx.family_roots(fx.families[0])})
    for x, structural in ((family, True), (_dense_vector(pd, rng), False)):
        calls.clear()
        residuals = [equigeodesic_residual(table, pd, x, MetricVector(_metric(rng, 6))) for _ in range(4)]
        assert is_equigeodesic_all_metrics(table, pd, x) is structural
        assert calls == {"_all_compatible": 1}
        assert all(r.is_zero() for r in residuals) is structural
        assert (x._brackets is None) is structural


def test_memoised_residuals_do_not_depend_on_the_order(diagrams, tables):
    # A shuffled batch of metrics on a vector whose C_k are already stored
    # gives the elements of the same batch on a fresh copy of the vector.
    pd, table = diagrams["F4_34"], tables[LieType.F4]
    rng = random.Random(107)
    a, b = ({r: _p_over_q(rng) for r in pd.r_m_pos} for _ in "ab")
    metrics = [MetricVector(_metric(rng, 6)) for _ in range(8)]
    x = TangentVector.from_coefficients(pd, a=a, b=b)
    assert not is_equigeodesic_all_metrics(table, pd, x)
    order = list(range(len(metrics)))
    rng.shuffle(order)
    shuffled = {i: equigeodesic_residual(table, pd, x, metrics[i]) for i in order}
    fresh = TangentVector.from_coefficients(pd, a=a, b=b)
    assert [shuffled[i] for i in range(len(metrics))] == [equigeodesic_residual(table, pd, fresh, lam)
                                                          for lam in metrics]


def test_one_vector_under_two_tables_of_its_system(diagrams, tables):
    # A table made by hand and build_constants' one table of the system give
    # equal residuals, each on a vector of its own, so neither reads the
    # other's memo.
    pd = diagrams["F4_34"]
    first, second = build_constants(pd.system), StructureConstantTable(pd.system)
    assert first is not second and first.to_json() == second.to_json()
    rng = random.Random(109)
    a, b = ({r: _p_over_q(rng) for r in pd.r_m_pos} for _ in "ab")
    x, y = (TangentVector.from_coefficients(pd, a=a, b=b) for _ in "xy")
    lam = MetricVector(_metric(rng, 6))
    want = _oracle_residual(first, pd, x, lam.lambdas)
    assert equigeodesic_residual(first, pd, x, lam) == want == equigeodesic_residual(second, pd, y, lam)
    assert not is_equigeodesic_all_metrics(second, pd, y)
    assert x._brackets == y._brackets


def test_operand_checks_come_before_the_memo(diagrams, tables):
    # A table of another system, a painting other than the vector's and a
    # metric of the wrong length are refused after the C_k are stored too.
    pd, table = diagrams["F4_34"], tables[LieType.F4]
    rng = random.Random(113)
    x, lam = _dense_vector(pd, rng), MetricVector(_metric(rng, 6))
    assert not equigeodesic_residual(table, pd, x, lam).is_zero()
    memo = x._brackets
    assert memo is not None
    with pytest.raises(MixedSystemError):
        equigeodesic_residual(tables[LieType.E6], pd, x, lam)
    with pytest.raises(MixedSystemError):
        is_equigeodesic_all_metrics(tables[LieType.E6], pd, x)
    with pytest.raises(SupportError):
        is_equigeodesic_all_metrics(table, space_diagram("F4:1"), x)
    with pytest.raises(FlagrootsError, match="metric has 2 parameters"):
        equigeodesic_residual(table, pd, x, MetricVector((1, 2)))
    assert x._brackets is memo


def test_one_table_keeps_the_paintings_apart():
    # F4_34 and the custom painting F4:1 share one root system and one table,
    # which holds a cross-pair system for each, under its painted nodes.  A
    # fresh system, so that its table holds no other painting's system.
    system = RootSystem(LieType.F4)
    pd, custom = paint(system, (3, 4)), paint(system, (1,))
    assert len(custom.isotropy_decomposition()) == 2
    table = build_constants(pd.system)
    rng = random.Random(101)
    for space in (pd, custom, pd):
        x = _dense_vector(space, rng)
        lam = _metric(rng, len(space.isotropy_decomposition()))
        got = equigeodesic_residual(table, space, x, MetricVector(lam))
        assert not got.is_zero() and got == _oracle_residual(table, space, x, lam)
    assert sorted(table._compiled) == [(1,), (3, 4)]
    for space in (pd, custom):
        stored = {(x, e[0]) for x, row in enumerate(table._compiled[space.painted]) for e in row}
        index = space.system.index
        assert stored == {(index[a], index[b]) for a, b in _bracketing_pairs(space)}


def test_residual_agrees_across_coefficient_types(diagrams, tables):
    # int, integral Fraction and p/q coefficients give the same residual,
    # scaled by the square of the common factor.
    pd, table = diagrams["E8_12"], tables[LieType.E8]
    rng = random.Random(89)
    a = {r: rng.choice((-1, 1)) * rng.randint(1, 9) for r in pd.r_m_pos}
    b = {r: rng.choice((-1, 1)) * rng.randint(1, 9) for r in pd.r_m_pos}
    lam = MetricVector(_metric(rng, 6))
    want = equigeodesic_residual(table, pd, TangentVector.from_coefficients(pd, a=a, b=b), lam)
    assert not want.is_zero()
    for conv, scale in ((Fraction, 1), (lambda c: Fraction(c, 7), Fraction(1, 49))):
        x = TangentVector.from_coefficients(pd, a={r: conv(c) for r, c in a.items()},
                                            b={r: conv(c) for r, c in b.items()})
        assert equigeodesic_residual(table, pd, x, lam) == oracles.combine((scale, want))


# Cancellation vectors: non-structural subsets where the all-ones
# vector is still equigeodesic (its brackets cancel without every
# structure constant vanishing).  Frozen from the exhaustive scan; such
# vectors are equigeodesic without spanning an equigeodesic subspace.
F4_ALL_ONES_CANCELLATIONS = {
    ((0, 0, 1, 0), (0, 2, 1, 0), (2, 2, 2, 1), (2, 4, 2, 1)),
    ((0, 0, 1, 0), (0, 2, 2, 1), (2, 2, 1, 0), (2, 4, 2, 1)),
    ((0, 0, 1, 1), (0, 2, 1, 1), (2, 2, 2, 1), (2, 4, 2, 1)),
    ((0, 0, 1, 1), (0, 2, 2, 1), (2, 2, 1, 1), (2, 4, 2, 1)),
}


def _sample_vectors(pd, subset, rng):
    yield TangentVector.from_coefficients(
        pd, a={r: 1 for r in subset}, b={r: 1 for r in subset})
    for _ in range(10):
        yield TangentVector.from_coefficients(
            pd,
            a={r: rng.choice([1, -1, 2, Fraction(1, 3)]) for r in subset},
            b={r: rng.choice([1, -2, Fraction(3, 2), 5]) for r in subset},
        )


def test_structural_iff_equigeodesic_f4_exhaustive(diagrams, tables):
    # exhaustive over F4 subsets of size <= 4: structural holds iff the
    # all-ones vector and 10 random coefficient vectors are all
    # equigeodesic.  Individual vectors may pass on non-structural
    # subsets (cancellation); those cases are surfaced and frozen.
    pd = diagrams["F4_34"]
    table = tables[LieType.F4]
    roots = [tuple(r) for r in pd.r_m_pos]
    rng = random.Random(43)
    surfaced = set()
    for size in (1, 2, 3, 4):
        for subset in combinations(roots, size):
            fam = StructuralFamily.from_roots(pd, subset)
            structural = is_structural_family(fam)
            if structural:
                for x in _sample_vectors(pd, subset, rng):
                    assert is_equigeodesic_all_metrics(table, pd, x), subset
            else:
                verdicts = [is_equigeodesic_all_metrics(table, pd, x)
                            for x in _sample_vectors(pd, subset, rng)]
                assert not all(verdicts), subset
                if verdicts[0]:
                    surfaced.add(subset)
    assert surfaced == F4_ALL_ONES_CANCELLATIONS


def test_structural_iff_equigeodesic_sampled_large(diagrams, tables):
    for sid in ("E6_36", "E7_56", "E8_12"):
        pd = diagrams[sid]
        table = tables[pd.system.lie_type]
        roots = [tuple(r) for r in pd.r_m_pos]
        rng = random.Random(47)
        for _ in range(150):
            subset = tuple(rng.sample(roots, rng.randint(1, 4)))
            structural = is_structural_family(
                StructuralFamily.from_roots(pd, subset))
            verdicts = [is_equigeodesic_all_metrics(table, pd, x)
                        for x in _sample_vectors(pd, subset, rng)]
            if structural:
                assert all(verdicts), (sid, subset)
            else:
                assert not all(verdicts), (sid, subset)


# The last four paintings are not G2-type: one module (E6:1), three, nine,
# and the full flag of F4, whose 24 modules hold one root each.
@pytest.mark.parametrize("sid,count", [("E6_36", 147), ("E7_56", 1713), ("E8_12", 78357),
                                       ("G2:1", 2), ("E6:1", 0), ("F4:1,2", 42), ("F4:1,2,3,4", 39)])
def test_enumeration_matches_networkx_oracle(sid, count):
    pd = space_diagram(sid)
    oracle = oracles.maximal_cliques_networkx(oracles.weyl_closure_roots(pd.system), pd.painted)
    res = enumerate_maximal_families(pd, min_modules=1)
    assert {frozenset(r for _, r in f.members) for f in res.families} == oracle
    assert sum(len({k for k, _ in f.members}) >= 2 for f in res.families) == count


def _fold_from_coefficients(pd, a, b):
    """TangentVector.from_coefficients as one-term basis elements added up, a negative
    root folded onto its positive with A_{-r} = A_r and B_{-r} = -B_r."""
    system, zero, n = pd.system, (0,) * pd.system.rank, len(pd.system.positive_roots)
    terms = [(1, AlgebraElement.zero(system))]
    for root, coeff in a.items():
        terms.append((coeff, AlgebraElement(system, zero, {system.positive_roots[system.index[root] % n]: 1})))
    for root, coeff in b.items():
        negative, k = divmod(system.index[root], n)
        terms.append(((-1) ** negative * coeff, AlgebraElement(system, zero, {}, {system.positive_roots[k]: 1})))
    return oracles.combine(*terms)


def test_from_coefficients_matches_fold(diagrams):
    rng = random.Random(71)
    coeffs = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-7, 11), Fraction(5, 13)]
    for sid in ("F4_34", "E6_36", "E8_12"):
        pd = diagrams[sid]
        roots = [tuple(r) for r in pd.r_m_pos]
        for _ in range(60):
            parts = []
            for flip in (1, -1):
                part = {}
                for r in rng.sample(roots, rng.randint(0, min(12, len(roots)))):
                    part[tuple(-c for c in r) if rng.random() < 0.4 else r] = rng.choice(coeffs)
                # Then some of the same roots with the other sign, later in
                # the dict: half of them cancel, the rest keep the first key.
                for key, c in list(part.items()):
                    if rng.random() < 0.4:
                        cancel = -c if flip == 1 else c
                        part[tuple(-v for v in key)] = cancel if rng.random() < 0.5 else rng.choice(coeffs)
                parts.append(part)
            got = oracles.element(TangentVector.from_coefficients(pd, a=parts[0], b=parts[1]))
            want = _fold_from_coefficients(pd, *parts)
            assert list(got.a.items()) == list(want.a.items())
            assert list(got.b.items()) == list(want.b.items())
            assert got.cartan == want.cartan
    with pytest.raises(FlagrootsError):
        TangentVector.from_coefficients(diagrams["F4_34"], a={(1, 0, 0, 1): 1})


@pytest.mark.parametrize("coeff", [0.5, 1.0, "1/2", Decimal("0.5"), True])
def test_from_coefficients_refuses_non_rational_coefficients(diagrams, coeff):
    # Only int and Fraction coefficients are exact rationals of the engine; a
    # float once reached the numerator pass and died there with AttributeError.
    pd, root = diagrams["F4_34"], (0, 1, 1, 0)
    for part in ("a", "b"):
        with pytest.raises(FlagrootsError, match=re.escape(f"coefficient {coeff!r} of root {root} ")):
            TangentVector.from_coefficients(pd, **{part: {(1, 1, 1, 0): 1, root: coeff}})


class _ListRoot(list):
    """A root spelled as a list, hashable so that it keys a coefficient map beside its tuple spelling."""

    def __hash__(self):
        return hash(tuple(self))


def _sums(part, negative_sign):
    """A coefficient map summed by positive root tuple in order of first appearance, a negative
    root counted as its positive with the coefficient times negative_sign; a sum that reaches 0 is
    dropped, and stored last if it comes back."""
    out = {}
    for root, c in part.items():
        r = tuple(root)
        if sum(r) < 0:
            r, c = tuple(-v for v in r), negative_sign * c
        w = out[r] + c if r in out else c
        if w:
            out[r] = w
        else:
            out.pop(r, None)
    return out


SUM_COEFF = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), st.none())
SUM_ROOT = st.one_of(st.integers(0, 3), st.integers(0, 119))  # a few roots often, so that they repeat
SUM_ENTRIES = st.lists(st.tuples(st.sampled_from("ab"), SUM_ROOT, st.booleans(), st.booleans(), SUM_COEFF),
                       max_size=30)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=st.sampled_from([*SPACE_IDS, "E8:3,5"]), entries=SUM_ENTRIES)
@example(spec="F4_34", entries=[("a", 0, False, False, 2), ("a", 0, True, True, None), ("a", 1, False, False, 1),
                                ("a", 0, True, False, Fraction(3)), ("b", 0, False, False, Fraction(1, 3)),
                                ("b", 0, True, False, None), ("b", 2, True, True, 0), ("b", 0, False, True, 5)])
def test_from_coefficients_against_an_accumulation_in_the_test(spec, entries):
    # Roots of either sign in tuple and list spellings, so a root, its
    # negative and their repeats key one map; a None coefficient cancels the
    # running sum of its root (a 0 when there is none), and later entries add
    # it back.  The vector's sums by root id are A_-x = A_x, B_-x = -B_x summed
    # in the test, in order, value and type, and its structural verdict is the
    # pairwise oracle's on the support.
    pd = space_diagram(spec)
    pool, parts = pd.r_m_pos, {"a": {}, "b": {}}
    for part, k, negative, as_list, coeff in entries:
        root = tuple(-v for v in pool[k % len(pool)]) if negative else pool[k % len(pool)]
        key = _ListRoot(root) if as_list else root
        if key in parts[part]:
            continue
        if coeff is None:
            running = _sums(parts[part], 1 if part == "a" else -1).get(tuple(abs(v) for v in root), 0)
            coeff = running if part == "b" and negative else -running
        parts[part][key] = coeff
    x = TangentVector.from_coefficients(pd, **parts)
    want_a, want_b = _sums(parts["a"], 1), _sums(parts["b"], -1)
    got = oracles.element(x)
    for have, want in ((got.a, want_a), (got.b, want_b)):
        assert list(have.items()) == list(want.items())
        assert [type(c) for c in have.values()] == [type(c) for c in want.values()]
    assert all(type(i) is int for i in (*x.a, *x.b))
    support = list(want_a.keys() | want_b.keys())
    want = oracles.structural_by_pairs(support, oracles._closure(pd.system), pd.painted)
    assert equigeo._is_structural(x) is want


R_M_POS = {sid: space_diagram(sid).r_m_pos for sid in ("G2_12", "F4_34")}
COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
CASES = st.sampled_from(sorted(R_M_POS)).flatmap(lambda sid: st.tuples(
    st.just(sid), st.lists(st.tuples(st.sampled_from(R_M_POS[sid]), COEFF, COEFF), max_size=10)))
LAMBDAS = st.lists(st.builds(Fraction, st.integers(1, 60), st.integers(1, 7)), min_size=6, max_size=6)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(case=CASES, lam=LAMBDAS)
@example(case=("F4_34", [(r, 1, 1) for r in sorted(F4_ALL_ONES_CANCELLATIONS)[0]]), lam=[1, 2, 3, 4, 5, 6])
@example(case=("F4_34", [(r, 1, 1) for r in sorted(F4_ALL_ONES_CANCELLATIONS)[1]]), lam=[2, 3, 5, 7, 11, 13])
@example(case=("F4_34", [(r, 1, 1) for r in sorted(F4_ALL_ONES_CANCELLATIONS)[2]]), lam=[6, 5, 4, 3, 2, 1])
@example(case=("F4_34", [(r, 1, 1) for r in sorted(F4_ALL_ONES_CANCELLATIONS)[3]]), lam=[1, 1, 2, 3, 5, 8])
def test_module_brackets_against_the_oracle(diagrams, tables, case, lam):
    # Random vectors (with the four all-ones cancellation vectors of F4 as
    # fixed examples) and metrics: the residual equals the oracle's, and the
    # all-metrics test holds iff every oracle C_k, the residual at e_k, is 0.
    sid, terms = case
    pd = diagrams[sid]
    table = tables[pd.system.lie_type]
    x = TangentVector.from_coefficients(pd, a={r: c for r, c, _ in terms}, b={r: c for r, _, c in terms})
    assert equigeodesic_residual(table, pd, x, MetricVector(lam)) == _oracle_residual(table, pd, x, lam)
    c_zero = all(_oracle_residual(table, pd, x, _unit(6, k)).is_zero() for k in range(1, 7))
    assert is_equigeodesic_all_metrics(table, pd, x) == c_zero


@pytest.mark.parametrize("spec", ["G2_12", "F4_34", "E6_36", "E7_56", "E8_12", "F4:1,2", "E6:1", "E8:3,5"])
def test_grouped_structural_test_matches_the_pairwise_oracle(spec):
    # Random supports of 1-12 roots, and supports grown root by root while
    # the oracle keeps them structural, so that both verdicts occur where the
    # painting has more than one module (E6:1 has one, so every support is
    # structural).  The family test and the vector's verdict both read the one
    # test on the clash table, which takes the roots' ids.
    pd = space_diagram(spec)
    all_roots, pool = oracles.weyl_closure_roots(pd.system), list(pd.r_m_pos)
    rng, verdicts = random.Random(f"grouped:{spec}"), Counter()
    supports = [rng.sample(pool, rng.randint(1, min(12, len(pool)))) for _ in range(150)]
    for _ in range(50):
        grown, size = [], rng.randint(1, 12)
        for r in rng.sample(pool, len(pool)):
            if len(grown) < size and oracles.structural_by_pairs(grown + [r], all_roots, pd.painted):
                grown.append(r)
        supports.append(grown)
    for roots in supports:
        want = oracles.structural_by_pairs(roots, all_roots, pd.painted)
        assert equigeo._all_compatible(pd, [pd.system.index[r] for r in roots]) is want, roots
        assert is_structural_family(StructuralFamily.from_roots(pd, roots)) is want, roots
        assert equigeo._is_structural(TangentVector.from_coefficients(pd, b={r: 1 for r in roots})) is want
        verdicts[want] += 1
    assert verdicts[True] >= 50
    assert (verdicts[False] == 0) is (len(pd.isotropy_decomposition()) == 1)


# Error parity of the two entry points that resolve roots, pinned on the
# implementation that looked every root up once per check: each case names
# its input, and the exception class (exactly) and message, or the value,
# must stay as they are.  F4_34 paints nodes 3 and 4: (0,1,0,0), (1,0,0,0)
# and (1,1,0,0) are its K-roots, and (0,1,1,0) and (0,1,1,1) lie in
# different modules.
E6_ROOT = (0, 0, 1, 0, 0, 0)
NOT_ROOT_OUTCOME = (NotComplementaryRootError, "(1, 0, 0, 1) is not in R_M")
PARITY = {
    "from_roots": lambda pd, roots: sorted(StructuralFamily.from_roots(pd, roots).members),
    "from_coefficients": lambda pd, a, b: _parts(TangentVector.from_coefficients(pd, a, b)),
}
PARITY_CASES = [
    ("from_roots", "K-root", ([(0, 1, 1, 0), (0, 1, 0, 0)],),
     (NotComplementaryRootError, "(0, 1, 0, 0) is not in R_M")),
    ("from_roots", "negative root", ([(0, 1, 1, 0), (0, -1, -1, -1)],),
     (SupportError, "root (0, -1, -1, -1) is not in R_M+ of F4(3,4)")),
    ("from_roots", "two negative roots", ([(0, -1, -1, 0), (0, -1, -1, -1)],),  # the first in member order
     (SupportError, "root (0, -1, -1, -1) is not in R_M+ of F4(3,4)")),
    ("from_roots", "negative root, then a K-root", ([(0, -1, -1, 0), (0, 1, 0, 0)],),
     (NotComplementaryRootError, "(0, 1, 0, 0) is not in R_M")),
    ("from_roots", "negative K-root", ([(0, -1, 0, 0)],),
     (NotComplementaryRootError, "(0, -1, 0, 0) is not in R_M")),
    ("from_roots", "non-root", ([(1, 0, 0, 1)],), NOT_ROOT_OUTCOME),
    ("from_roots", "wrong length", ([(0, 1, 1)],), (NotComplementaryRootError, "(0, 1, 1) is not in R_M")),
    ("from_roots", "empty", ([],), (FlagrootsError, "a structural family must be nonempty")),
    ("from_roots", "float entries", ([(0, 1.0, 1, 0), (0, 1, 1, 1)],),
     [(1, (0, 1, 1, 0)), (3, (0, 1, 1, 1))]),
    ("from_roots", "str", (["0110"],), (NotComplementaryRootError, "('0', '1', '1', '0') is not in R_M")),
    ("from_roots", "repeated root", ([(0, 1, 1, 0), [0, 1, 1, 0]],), [(1, (0, 1, 1, 0))]),
    ("from_roots", "other system", ([E6_ROOT],), (NotComplementaryRootError, f"{E6_ROOT} is not in R_M")),
    ("from_coefficients", "K-root", ({(0, 1, 0, 0): 1}, None),
     (SupportError, "support leaves R_M+: [(0, 1, 0, 0)]")),
    ("from_coefficients", "negative root", ({(0, -1, -1, 0): 1}, {(0, -1, -1, 0): 2}),
     ({(0, 1, 1, 0): 1}, {(0, 1, 1, 0): -2})),
    ("from_coefficients", "non-root", ({(1, 0, 0, 1): 1}, None), (FlagrootsError, "(1, 0, 0, 1) is not a root of F4")),
    ("from_coefficients", "non-root with a float coefficient", (None, {(1, 0, 0, 1): 0.5}),
     (FlagrootsError, "(1, 0, 0, 1) is not a root of F4")),
    ("from_coefficients", "wrong length", ({(0, 1, 1): 1}, None),
     (DimensionMismatchError, "expected length 4, got 3")),
    ("from_coefficients", "empty", (None, {}), ({}, {})),
    ("from_coefficients", "float coefficient", ({(0, 1, 1, 0): 0.5}, None),
     (FlagrootsError, "coefficient 0.5 of root (0, 1, 1, 0) is not an int or a Fraction")),
    ("from_coefficients", "str coefficient", (None, {(0, -1, -1, 0): "1"}),
     (FlagrootsError, "coefficient '1' of root (0, -1, -1, 0) is not an int or a Fraction")),
    ("from_coefficients", "K-roots that cancel", ({(0, 1, 0, 0): 1, (0, -1, 0, 0): -1, (0, 1, 1, 0): 2},
                                                  {(1, 1, 0, 0): Fraction(1, 2), (-1, -1, 0, 0): Fraction(1, 2)}),
     ({(0, 1, 1, 0): 2}, {})),
    ("from_coefficients", "an R_M+ root that cancels", ({(0, 1, 1, 0): 1, (0, -1, -1, 0): -1}, {(0, 1, 1, 1): 3}),
     ({}, {(0, 1, 1, 1): 3})),
    ("from_coefficients", "K-root with coefficient 0", ({(0, 1, 0, 0): 0, (0, 1, 1, 0): 1}, None),
     ({(0, 1, 1, 0): 1}, {})),
    ("from_coefficients", "roots outside R_M+ in both parts",
     ({(0, 1, 0, 0): 1, (0, 1, 1, 0): 1, (-1, 0, 0, 0): 2}, {(1, 1, 0, 0): 3, (0, -1, 0, 0): 1}),
     (SupportError, "support leaves R_M+: [(0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]")),
    ("from_coefficients", "other system", ({E6_ROOT: 1}, None), (DimensionMismatchError, "expected length 4, got 6")),
]


def _parts(x):
    xe = oracles.element(x)
    return xe.a, xe.b


@pytest.mark.parametrize("entry,case,args,want", PARITY_CASES, ids=[f"{e}-{c}" for e, c, _, _ in PARITY_CASES])
def test_root_resolution_errors_are_pinned(diagrams, entry, case, args, want):
    pd = diagrams["F4_34"]
    try:
        got = PARITY[entry](pd, *args)
    except Exception as exc:  # noqa: BLE001 - the class itself is pinned
        got = (type(exc), str(exc))
    assert got == want
    if isinstance(want, tuple) and isinstance(want[0], dict):  # values keep their types and key order
        assert [list(map(type, p.values())) for p in got] == [list(map(type, p.values())) for p in want]
        assert [list(p) for p in got] == [list(p) for p in want]


SMALL_PAINTINGS = [(t, nodes) for t in LieType for k in (1, 2) for nodes in combinations(range(1, t.rank + 1), k)]


@pytest.mark.parametrize("lie_type,nodes", SMALL_PAINTINGS,
                         ids=[f"{t.name}:{','.join(map(str, n))}" for t, n in SMALL_PAINTINGS])
def test_clash_table_is_the_pairwise_oracle(systems, lie_type, nodes):
    # Every pair of R_M+ roots of each of the 98 one- and two-node paintings:
    # the clash table marks the pair exactly when the oracle, which reads only
    # root tuples, refuses it; the graph is the complement of the table; and
    # families read from the graph's vertices, as enumeration's are, get the
    # verdict of the same family built from its roots and of the oracle.
    pd = paint(systems[lie_type], nodes)
    all_roots, index, clash = oracles.weyl_closure_roots(pd.system), pd.system.index, pd.clash
    assert len(clash) == len(pd.system.positive_roots)
    assert all(not clash[i] for i, r in enumerate(pd.system.positive_roots) if r not in pd.r_m_pos)
    for a, b in combinations(pd.r_m_pos, 2):
        refused = not oracles.structural_by_pairs([a, b], all_roots, nodes)
        assert bool(clash[index[a]] >> index[b] & 1) is bool(clash[index[b]] >> index[a] & 1) is refused, (a, b)
    graph = compatibility_graph(pd)
    assert [r for _, r in graph.vertices] == sorted(pd.r_m_pos, key=lambda r: (pd.module_index(r), sum(r), r))
    ids = [index[r] for _, r in graph.vertices]
    for v, u in combinations(range(len(ids)), 2):
        adjacent = not clash[ids[v]] >> ids[u] & 1
        assert bool(graph.adjacency[v] >> u & 1) is bool(graph.adjacency[u] >> v & 1) is adjacent
    assert not any(a >> v & 1 for v, a in enumerate(graph.adjacency))
    rng, subsets = random.Random(f"clash:{lie_type.name}:{nodes}"), []
    for _ in range(20):
        subsets.append(tuple(sorted(rng.sample(range(len(ids)), rng.randint(1, min(8, len(ids)))))))
        grown = 0  # a clique, grown vertex by vertex in random order
        for v in rng.sample(range(len(ids)), len(ids)):
            if graph.adjacency[v] & grown == grown:
                grown |= 1 << v
        subsets.append(tuple(v for v in range(len(ids)) if grown >> v & 1))
    verdicts = Counter()
    for family in equigeo._Families(graph, subsets):
        want = oracles.structural_by_pairs([r for _, r in family.members], all_roots, nodes)
        from_roots = StructuralFamily.from_roots(pd, [r for _, r in family.members])
        assert from_roots == family and is_structural_family(family) is is_structural_family(from_roots) is want
        verdicts[want] += 1
    assert verdicts[True] >= 20 and (verdicts[False] > 0 or len(pd.isotropy_decomposition()) == 1)


def test_clash_table_built_only_when_read(monkeypatch, capsys):
    # Painting, loading the fixture, `table brackets --check` and building
    # the constants leave the clash table unbuilt; a structural test, a
    # residual or the graph builds it once, on a painting of its own here,
    # and every later read gets that one table.
    monkeypatch.setattr(fixtures, "_painting", lru_cache(maxsize=None)(fixtures._painting.__wrapped__))
    pd, fx = space_diagram("E8_12"), load_fixture("E8_12")
    assert cli.main(["table", "brackets", "E8_12", "--check", "--format", "json"]) == 0
    capsys.readouterr()
    table = build_constants(pd.system)
    assert space_diagram("E8:1,2") is pd and "clash" not in pd.__dict__
    roots = fx.family_roots(fx.families[0])
    lam = MetricVector((1, 2, 3, 4, 5, 6))
    for read in (lambda p: is_structural_family(StructuralFamily.from_roots(p, roots)),
                 lambda p: equigeodesic_residual(table, p, TangentVector.from_coefficients(p, a={r: 1 for r in roots}),
                                                 lam),
                 compatibility_graph):
        p = paint(pd.system, (1, 2))
        read(p)
        clash = p.__dict__["clash"]
        is_structural_family(StructuralFamily.from_roots(p, roots))
        compatibility_graph(p)
        assert p.clash is clash and clash == pd.clash


def test_reflections_read_only_by_enumeration(monkeypatch, capsys, diagrams, tables):
    # `table brackets --check` and the family checks of every space, a dense
    # E8_12 residual and the all-metrics test never read a root system's
    # reflections; enumeration reads them once.
    reads, lazy = [], RootSystem.__dict__["reflections"]
    monkeypatch.setattr(RootSystem, "reflections", property(lambda s: reads.append(s) or lazy.build(s)))
    for sid in SPACE_IDS:
        assert cli.main(["table", "brackets", sid, "--check", "--format", "json"]) == 0
        pd, fx = space_diagram(sid), load_fixture(sid)
        table = build_constants(pd.system)
        for roots in map(fx.family_roots, fx.families):
            x = TangentVector.from_coefficients(pd, a={r: 1 for r in roots}, b={roots[0]: 2})
            is_structural_family(StructuralFamily.from_roots(pd, roots))
            is_equigeodesic_all_metrics(table, pd, x)
    capsys.readouterr()
    pd = diagrams["E8_12"]
    x = TangentVector.from_coefficients(pd, a={r: 1 for r in pd.r_m_pos}, b={r: 2 for r in pd.r_m_pos})
    equigeodesic_residual(tables[LieType.E8], pd, x, MetricVector((1, 2, 3, 4, 5, 6)))
    assert not is_equigeodesic_all_metrics(tables[LieType.E8], pd, x)
    assert reads == []
    enumerate_maximal_families(diagrams["F4_34"])
    assert reads == [diagrams["F4_34"].system]


def test_clash_table_first_read_from_four_threads_at_once(systems):
    # Four threads that make the first read of a fresh E8 painting's clash
    # table together, with a short switch interval, all get equal tables.
    want = paint(systems[LieType.E8], (3, 5)).clash
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            pd, barrier, seen = paint(systems[LieType.E8], (3, 5)), threading.Barrier(4), []

            def read():
                barrier.wait(timeout=10)
                seen.append(pd.clash)
            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads) and seen == [want] * 4
    finally:
        sys.setswitchinterval(interval)
