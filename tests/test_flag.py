import json
import re
from itertools import combinations, combinations_with_replacement

import pytest

import oracles
from flagroots import (
    FlagrootsError,
    G2Kind,
    LieType,
    NotComplementaryRootError,
    bracket,
    bracket_inclusion_table,
    paint,
    space_diagram,
)
from flagroots.flag import REFERENCE_BRACKETS

TYPE_I_SET = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
TYPE_II_SET = {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}

EXPECTED_DIMS = {
    "F4_34": (12, 2, 12, 12, 2, 2),
    "E6_36": (18, 2, 18, 18, 2, 2),
    "E7_56": (30, 2, 30, 30, 2, 2),
    "G2_12": (2, 2, 2, 2, 2, 2),
    "E8_12": (2, 54, 54, 54, 2, 2),
}

EXPECTED_SIZES = {  # |R_M+|, |R_K+|
    "F4_34": (21, 3),
    "E6_36": (30, 6),
    "E7_56": (48, 15),
    "G2_12": (6, 0),
    "E8_12": (84, 36),
}

def test_partition_sizes(diagrams):
    for sid, (nm, nk) in EXPECTED_SIZES.items():
        pd = diagrams[sid]
        assert len(pd.r_m_pos) == nm
        assert len(pd.r_k_pos) == nk
        assert len(pd.r_m_pos) + len(pd.r_k_pos) == len(pd.system.positive_roots)


def _troot(pd, root):
    """The t-root of a complementary root's module, read by module_index (sign ignored)."""
    return pd.isotropy_decomposition()[pd.module_index(root) - 1].troot


def test_t_root_examples(diagrams):
    f4 = diagrams["F4_34"]
    assert _troot(f4, (0, 0, 1, 0)) == (1, 0)
    assert _troot(f4, f4.system.highest_root) == (3, 2)
    assert _troot(f4, (0, 0, -1, -1)) == (1, 1)
    e8 = diagrams["E8_12"]
    assert _troot(e8, e8.system.highest_root) == (2, 3)
    with pytest.raises(NotComplementaryRootError):
        _troot(f4, (0, 1, 0, 0))


def test_troot_sets_and_classification(diagrams):
    for sid, pd in diagrams.items():
        got = {tuple(r[i - 1] for i in pd.painted) for r in pd.r_m_pos}
        if sid == "E8_12":
            assert got == TYPE_II_SET
            assert pd.kind is G2Kind.TYPE_II
        else:
            assert got == TYPE_I_SET
            assert pd.kind is G2Kind.TYPE_I


def test_module_dimensions_in_order(diagrams):
    for sid, pd in diagrams.items():
        mods = pd.isotropy_decomposition()
        assert tuple(m.dim_real for m in mods) == EXPECTED_DIMS[sid]
        # module order equals the fixed label order
        expected = TYPE_II_SET if sid == "E8_12" else TYPE_I_SET
        order = [tuple(m.troot) for m in mods]
        assert set(order) == expected
        prefix = "n" if sid == "E8_12" else "m"
        assert all(m.label.startswith(prefix) for m in mods)


def test_fibers_partition_r_m(diagrams):
    for pd in diagrams.values():
        mods = pd.isotropy_decomposition()
        union = set()
        total = 0
        for m in mods:
            troots = {tuple(r[i - 1] for i in pd.painted) for r in m.roots}
            assert troots == {tuple(m.troot)}
            union |= {tuple(r) for r in m.roots}
            total += len(m.roots)
        assert union == {tuple(r) for r in pd.r_m_pos}
        assert total == len(pd.r_m_pos)
        assert sum(m.dim_real for m in mods) == 2 * len(pd.r_m_pos)


def test_single_painted_node_not_g2_type(systems):
    pd = paint(systems[LieType.E6], (1,))
    assert pd.kind is G2Kind.NOT_G2_TYPE
    # decomposition still works generically: mark of node 1 is 1
    mods = pd.isotropy_decomposition()
    assert [tuple(m.troot) for m in mods] == [(1,)]


def test_exhaustive_two_node_scan(systems):
    # G2-type paintings are exactly the five known ones.
    expected = {
        LieType.G2: [(1, 2)],
        LieType.F4: [(3, 4)],
        LieType.E6: [(3, 6)],
        LieType.E7: [(5, 6)],
        LieType.E8: [(1, 2)],
    }
    for t, want in expected.items():
        s = systems[t]
        assert [nodes for nodes in combinations(range(1, s.rank + 1), 2)
                if paint(s, nodes).kind is not G2Kind.NOT_G2_TYPE] == want


def test_painting_input_validation(systems):
    with pytest.raises(Exception):
        paint(systems[LieType.F4], ())
    with pytest.raises(Exception):
        paint(systems[LieType.F4], (0, 3))
    with pytest.raises(Exception):
        paint(systems[LieType.F4], (5,))


@pytest.mark.parametrize("sid", ["G2_12", "F4_34", "E6_36", "E7_56", "E8_12"])
def test_bracket_inclusion_contained_in_reference(diagrams, sid):
    pd = diagrams[sid]
    got = bracket_inclusion_table(pd)
    mods = pd.isotropy_decomposition()
    labels = [m.label for m in mods]
    ref = REFERENCE_BRACKETS[G2Kind.TYPE_II if sid == "E8_12" else G2Kind.TYPE_I]
    for i in range(6):
        for j in range(6):
            cell = set(got[i][j])
            if i == j:
                assert cell <= {"k"}
                continue
            key = (min(i, j) + 1, max(i, j) + 1)
            allowed = {labels[k - 1] for k in ref[key]} | ({"k"} if not ref[key] else set())
            assert cell <= allowed, (sid, i + 1, j + 1, cell, allowed)


def test_bracket_inclusion_examples(diagrams):
    f4 = diagrams["F4_34"]
    tbl = bracket_inclusion_table(f4)
    assert set(tbl[0][1]) <= {"m(1,1)"}
    for i in range(6):
        assert set(tbl[i][i]) <= {"k"}
    e8 = diagrams["E8_12"]
    tbl8 = bracket_inclusion_table(e8)
    assert set(tbl8[1][2]) <= {"n(1,0)", "n(1,2)"}


def test_bracket_inclusion_matches_root_arithmetic(diagrams):
    # every structure constant on a root pair is nonzero, so the hit-set
    # equals the prediction from root sums/differences alone.
    for sid in ("G2_12", "F4_34", "E6_36", "E7_56", "E8_12"):
        pd = diagrams[sid]
        system = pd.system
        mods = pd.isotropy_decomposition()
        got = bracket_inclusion_table(pd)
        for i in range(6):
            for j in range(6):
                predict = set()
                for a in mods[i].roots:
                    for b in mods[j].roots:
                        if a == b:
                            predict.add("k")
                            continue
                        sm = tuple(x + y for x, y in zip(a, b))
                        df = tuple(x - y for x, y in zip(a, b))
                        for v in (sm, df):
                            if v not in system.index:
                                continue
                            va = v if sum(v) > 0 else tuple(-c for c in v)
                            if va in pd.r_k_pos:
                                predict.add("k")
                            else:
                                predict.add(mods[pd.module_index(va) - 1].label)
                assert set(got[i][j]) == predict, (sid, i, j)


@pytest.mark.parametrize("sid", ["G2_12", "F4_34", "E6_36", "E7_56", "E8_12", "F4:1", "F4:1,2", "E6:1"])
def test_bracket_inclusion_matches_basis_brackets(tables, sid):
    # The table equals the one read from evaluated brackets: for every pair
    # of R_M+ roots, the four A/B basis-pair brackets, each support root
    # labelled by its module (k for a K-root) and k for a Cartan part.  The
    # last three paintings are not G2-type: their tables are m x m, with m
    # their module count (2, 9 and 1).
    pd = space_diagram(sid)
    system, table = pd.system, tables[pd.system.lie_type]
    labels = ["k"] + [m.label for m in pd.isotropy_decomposition()]
    module = {r: pd.module_index(r) for r in pd.r_m_pos}
    basis = oracles.real_basis(system)
    basis = {r: basis[2 * system.index[r]:2 * system.index[r] + 2] for r in pd.r_m_pos}
    size = len(labels) - 1
    want = [[set() for _ in range(size)] for _ in range(size)]
    for a, b in combinations_with_replacement(pd.r_m_pos, 2):
        hit = want[module[a] - 1][module[b] - 1]
        for u in basis[a]:
            for v in basis[b]:
                z = bracket(table, u, v)
                hit |= {labels[pd.module_of[system.index[r]]] for r in (*z.a, *z.b)}
                if any(z.cartan):
                    hit.add("k")
        want[module[b] - 1][module[a] - 1] |= hit
    assert bracket_inclusion_table(pd) == [[sorted(cell) for cell in row] for row in want]


def test_decomposition_json(diagrams):
    doc = json.loads(json.dumps(diagrams["F4_34"].to_dict()))
    assert doc["schema_version"] == 1
    assert doc["type"] == "I"
    assert [m["dim"] for m in doc["modules"]] == [12, 2, 12, 12, 2, 2]


# The module order of the two G2 patterns, written out from the paper.
TYPE_I_ORDER = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
TYPE_II_ORDER = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]
SMALL_PAINTINGS = [(t, nodes) for t in LieType for k in (1, 2)
                   for nodes in combinations(range(1, t.rank + 1), k)]


ALL_PAINTINGS = [(t, nodes) for t in LieType for k in range(1, t.rank + 1)
                 for nodes in combinations(range(1, t.rank + 1), k)]


def test_small_painting_count():
    assert len(SMALL_PAINTINGS) == 98
    assert len(ALL_PAINTINGS) == 463


@pytest.mark.parametrize("lie_type,nodes", SMALL_PAINTINGS,
                         ids=[f"{t.name}:{','.join(map(str, n))}" for t, n in SMALL_PAINTINGS])
def test_module_index_is_the_troot_position(systems, lie_type, nodes):
    # The expected module of r is worked out from r's coefficients alone:
    # its t-root's position in the G2 pattern, or in canonical t-root order.
    s = systems[lie_type]
    pd = paint(s, nodes)
    troot = {r: tuple(r[i - 1] for i in nodes) for r in s.positive_roots}
    troots = {t for t in troot.values() if any(t)}
    order = sorted(troots, key=lambda t: (sum(t), t))
    for pattern in (TYPE_I_ORDER, TYPE_II_ORDER):
        if len(nodes) == 2 and set(pattern) == troots:
            order = pattern
    assert [tuple(m.troot) for m in pd.isotropy_decomposition()] == order
    for r, t in troot.items():
        signed = (r, tuple(-c for c in r))
        if any(t):
            k = order.index(t) + 1
            assert [pd.module_index(v) for v in signed] == [k, k]
            assert [pd.module_of[s.index[v]] for v in signed] == [k, k]
        else:
            for v in signed:
                assert pd.module_of[s.index[v]] == 0
                with pytest.raises(NotComplementaryRootError):
                    pd.module_index(v)
    for not_a_root in ((0,) * s.rank, tuple(2 * c for c in s.highest_root)):
        with pytest.raises(NotComplementaryRootError):
            pd.module_index(not_a_root)


@pytest.mark.parametrize("nodes,bad", [([True, 2], "True"), ([1.0], "1.0"), (["1"], "'1'"), ((1, None), "None")])
def test_painted_nodes_must_be_plain_ints(systems, nodes, bad):
    # A bool would name the painting G2(True,2) in every family it serialises,
    # and a float or a string fail deep inside; each is refused, named.
    with pytest.raises(FlagrootsError, match=f"painted node {re.escape(bad)} is not an int"):
        paint(systems[LieType.G2], nodes)
    assert paint(systems[LieType.G2], iter([2, 1])).name == "G2(1,2)"


@pytest.mark.parametrize("lie_type,nodes", ALL_PAINTINGS,
                         ids=[f"{t.name}:{','.join(map(str, n))}" for t, n in ALL_PAINTINGS])
def test_bracket_inclusion_matches_exhaustive_scan(systems, lie_type, nodes):
    # The table is t-root arithmetic and reads no root pair; the oracle scans
    # every root pair whose sum or difference is a root, on every painting.
    pd = paint(systems[lie_type], nodes)
    assert bracket_inclusion_table(pd) == oracles.bracket_inclusion_by_scan(pd)
