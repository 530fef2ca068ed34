"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import oracles
from flagroots import (
    G2Kind,
    LieType,
    MetricVector,
    RootSystem,
    StructuralFamily,
    TangentVector,
    bracket,
    bracket_inclusion_table,
    build_constants,
    compatibility_graph,
    enumerate_maximal_families,
    equigeodesic_residual,
    is_equigeodesic_all_metrics,
    is_structural_family,
    load_fixture,
    space_diagram,
)
from flagroots.fixtures import SPACE_IDS
from flagroots.flag import REFERENCE_BRACKETS


def report(n, elapsed, budget, detail=""):
    line = f"criterion {n}: PASS in {elapsed:.2f}s (budget {budget}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_root_counts_and_marks():
    t0 = time.time()
    expected = {
        LieType.G2: (6, (3, 2)),
        LieType.F4: (24, (2, 4, 3, 2)),
        LieType.E6: (36, (1, 2, 3, 2, 1, 2)),
        LieType.E7: (63, (1, 2, 3, 4, 3, 2, 2)),
        LieType.E8: (120, (2, 3, 4, 5, 6, 4, 2, 3)),
    }
    for t, (count, marks) in expected.items():
        s = RootSystem(t)  # fresh build, no cache
        assert len(s.positive_roots) == count
        assert s.highest_root == marks
    report(1, time.time() - t0, 1, "counts 6/24/36/63/120, marks exact")


def test_criterion_2_troot_sets_and_types(diagrams):
    t0 = time.time()
    type_i = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    type_ii = {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}
    for sid in SPACE_IDS:
        pd = diagrams[sid]
        got = {tuple(r[i - 1] for i in pd.painted) for r in pd.r_m_pos}
        kind = pd.kind.value
        if sid == "E8_12":
            assert got == type_ii and kind == "II"
        else:
            assert got == type_i and kind == "I"
    report(2, time.time() - t0, 1, "five t-root sets and I/II kinds exact")


def test_criterion_3_module_dimensions(diagrams):
    t0 = time.time()
    expected = {
        "F4_34": (12, 2, 12, 12, 2, 2),
        "E6_36": (18, 2, 18, 18, 2, 2),
        "E7_56": (30, 2, 30, 30, 2, 2),
        "G2_12": (2, 2, 2, 2, 2, 2),
        "E8_12": (2, 54, 54, 54, 2, 2),
    }
    for sid, dims in expected.items():
        mods = diagrams[sid].isotropy_decomposition()
        assert tuple(m.dim_real for m in mods) == dims
    report(3, time.time() - t0, 1, "all module dimension rows exact")


def test_criterion_4_structure_constants(systems, tables):
    t0 = time.time()
    for t in LieType:
        s = systems[t]
        tab = tables[t]
        for x, y, v in tab.to_dict()["pairs"]:
            assert v != 0
            assert tab.n(y, x) == -v
            assert tab.n(tuple(-c for c in x), tuple(-c for c in y)) == v
            p, _ = oracles.string_by_scan(s, x, y)
            assert abs(v) == p + 1

    def jacobi_zero(tab, x, y, z):
        return oracles.combine((1, bracket(tab, x, bracket(tab, y, z))),
                               (1, bracket(tab, y, bracket(tab, z, x))),
                               (1, bracket(tab, z, bracket(tab, x, y)))).is_zero()

    n_exhaustive = 0
    for t in (LieType.G2, LieType.F4):
        b = oracles.real_basis(systems[t])
        for x, y, z in itertools.combinations(b, 3):
            assert jacobi_zero(tables[t], x, y, z)
            n_exhaustive += 1
    n_random = 0
    for t in (LieType.E6, LieType.E7, LieType.E8):
        b = oracles.real_basis(systems[t])
        rng = random.Random(101)
        for _ in range(10_000):
            x, y, z = rng.sample(b, 3)
            assert jacobi_zero(tables[t], x, y, z)
            n_random += 1
    report(4, time.time() - t0, 60,
           f"all stored pairs checked; Jacobi on {n_exhaustive} exhaustive "
           f"+ {n_random} random triples")


def test_criterion_5_bracket_inclusion_tables(diagrams):
    # The reference tables are the paper's, transcribed in flag.REFERENCE_BRACKETS.
    t0 = time.time()
    strict = []
    for sid in SPACE_IDS:
        pd = diagrams[sid]
        mods = pd.isotropy_decomposition()
        labels = [m.label for m in mods]
        ref = REFERENCE_BRACKETS[G2Kind.TYPE_II if sid == "E8_12" else G2Kind.TYPE_I]
        table = bracket_inclusion_table(pd)
        for i in range(6):
            for j in range(6):
                cell = set(table[i][j])
                if i == j:
                    allowed = {"k"}
                else:
                    key = (min(i, j) + 1, max(i, j) + 1)
                    allowed = {labels[k - 1] for k in ref[key]}
                    if not ref[key]:
                        allowed = {"k"}
                assert cell <= allowed, (sid, i + 1, j + 1)
                if i <= j and cell < allowed:
                    strict.append(f"{sid}({i + 1},{j + 1})")
    report(5, time.time() - t0, 120,
           "contained everywhere; strictly smaller entries (reported, "
           "not failures): " + ", ".join(strict))


def test_criterion_6_f4_pair_lists():
    t0 = time.time()
    fx = load_fixture("F4_34")
    pd = space_diagram("F4_34")
    by_modules = {pl.modules: pl for pl in fx.pair_lists}
    assert set(by_modules) == {(1, 3), (1, 4), (1, 6), (2, 4), (3, 4), (3, 5)}
    for (mi, mj), pl in by_modules.items():
        computed = {
            (i, j)
            for i, ri in enumerate(fx.label_map[mi], 1)
            for j, rj in enumerate(fx.label_map[mj], 1)
            if oracles.pair_compatible(pd, ri, rj)
        }
        assert set(pl.pairs) == computed, (mi, mj)
    assert len(by_modules[(1, 3)].pairs) == 12
    assert set(by_modules[(1, 6)].pairs) == {(i, 1) for i in range(1, 7)}
    assert set(by_modules[(2, 4)].pairs) == {(1, j) for j in range(1, 7)}
    assert set(by_modules[(3, 5)].pairs) == {(i, 1) for i in range(1, 7)}
    report(6, time.time() - t0, 1,
           "all six reference pair lists equal the computed sets")


def test_criterion_7_reference_family_tables(diagrams, tables):
    t0 = time.time()
    verified = {}
    for sid in ("F4_34", "E6_36"):
        pd = diagrams[sid]
        tab = tables[pd.system.lie_type]
        fx = load_fixture(sid)
        maximal = [frozenset(r for _, r in f.members) for f in enumerate_maximal_families(pd).families]
        n = 0
        for fam in fx.families:
            if fam.suspect:
                continue
            roots = fx.family_roots(fam)
            sf = StructuralFamily.from_roots(pd, roots)
            assert is_structural_family(sf)
            x = TangentVector.from_coefficients(
                pd,
                a={tuple(r): Fraction(3 * i + 2, 3) for i, r in enumerate(roots)},
                b={tuple(r): Fraction(-2 * i - 1, 2) for i, r in enumerate(roots)},
            )
            assert is_equigeodesic_all_metrics(tab, pd, x)
            rs = frozenset(tuple(r) for r in roots)
            assert any(rs <= m for m in maximal)
            n += 1
        verified[sid] = n
    # headline reproduction: nontrivial multi-module families verified
    # for all four spaces (E7/E8 families are checked in criterion 10)
    for sid in ("F4_34", "E6_36", "E7_56", "E8_12"):
        fx = load_fixture(sid)
        pd = diagrams[sid]
        nontrivial = [
            f for f in fx.families
            if not f.suspect and len({m for m, _ in f.members}) >= 2
        ]
        assert nontrivial, sid
        roots = fx.family_roots(nontrivial[0])
        assert is_structural_family(StructuralFamily.from_roots(pd, roots))
    report(7, time.time() - t0, 10,
           f"{verified['F4_34']} + {verified['E6_36']} non-suspect families "
           "verified and covered; nontrivial families exist in all four spaces")


def test_criterion_8_lemma_equivalence(diagrams, tables):
    t0 = time.time()
    checked = 0
    for sid in SPACE_IDS:
        pd = diagrams[sid]
        tab = tables[pd.system.lie_type]
        roots = [tuple(r) for r in pd.r_m_pos]
        rng = random.Random(83)

        def distinct_metric():
            vals = set()
            out = []
            while len(out) < 6:
                v = Fraction(rng.randint(1, 199), rng.randint(1, 17))
                if v not in vals:
                    vals.add(v)
                    out.append(v)
            return MetricVector(tuple(out))

        for _ in range(200):
            support = rng.sample(roots, rng.randint(1, min(6, len(roots))))
            a = {r: rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
                 for r in support}
            b = {r: rng.choice([0, 1, -2, Fraction(2, 3)]) for r in support}
            b = {r: c for r, c in b.items() if c}
            x = TangentVector.from_coefficients(pd, a=a, b=b)
            brackets_zero = is_equigeodesic_all_metrics(tab, pd, x)
            residuals_zero = all(
                equigeodesic_residual(tab, pd, x, distinct_metric()).is_zero()
                for _ in range(25)
            )
            assert brackets_zero == residuals_zero, (sid, support)
            checked += 1
    report(8, time.time() - t0, 120, f"{checked} random vectors, exact agreement")


def test_criterion_9_enumeration_oracle(diagrams):
    t0 = time.time()
    pd = diagrams["F4_34"]
    graph = compatibility_graph(pd)
    oracle_masks = set(oracles.maximal_cliques_subset_scan(list(graph.adjacency)))
    res = enumerate_maximal_families(pd, min_modules=1)
    idx = {tuple(r): i for i, (_, r) in enumerate(graph.vertices)}
    got = {
        sum(1 << idx[tuple(r)] for _, r in f.members) for f in res.families
    }
    assert got == oracle_masks
    report(9, time.time() - t0, 60,
           f"{len(got)} maximal families equal the exhaustive subset scan")


def test_criterion_10_e7_e8_samples(diagrams):
    t0 = time.time()
    counts = {}
    for sid in ("E7_56", "E8_12"):
        pd = diagrams[sid]
        fx = load_fixture(sid)
        n_ok = 0
        excluded = []
        for fam in fx.families:
            if fam.suspect:
                excluded.append(fam)
                continue
            roots = fx.family_roots(fam)
            assert is_structural_family(StructuralFamily.from_roots(pd, roots))
            n_ok += 1
        counts[sid] = (n_ok, len(excluded))
        for fam in excluded:
            print(f"   {sid}: excluded suspect entry "
                  + " ".join(f"b{i}^{m}" for m, i in fam.members)
                  + (f" ({fam.note})" if fam.note else ""))
        for note in fx.notes:
            print(f"   {sid} note: {note}")
    report(10, time.time() - t0, 120,
           f"E7 {counts['E7_56'][0]} ok/{counts['E7_56'][1]} excluded; "
           f"E8 {counts['E8_12'][0]} ok/{counts['E8_12'][1]} excluded")
