import gc
import hashlib
import itertools
import json
import random
import re
import sys
import threading
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest

import oracles
from flagroots import (
    AlgebraElement,
    FlagrootsError,
    LieType,
    MetricVector,
    MixedSystemError,
    RootSystem,
    StructureConstantTable,
    TangentVector,
    bracket,
    build_constants,
    chevalley,
    equigeodesic_residual,
    is_equigeodesic_all_metrics,
    paint,
    project_m,
    root_system,
)


def random_element(rng, system, density, with_cartan, fractions):
    """Seeded element on a `density` share of the positive roots in each
    part; coefficients are nonzero ints or p/q with co-prime q in 7, 11, 13."""
    def coeff():
        p = rng.choice((-1, 1)) * rng.randint(1, 12)
        return Fraction(p, rng.choice((1, 7, 11, 13))) if fractions else p

    roots = [tuple(r) for r in system.positive_roots]
    a = {r: coeff() for r in roots if rng.random() < density}
    b = {r: coeff() for r in roots if rng.random() < density}
    cartan = tuple(coeff() if with_cartan else 0 for _ in range(system.rank))
    return AlgebraElement(system, cartan, a, b)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_bracket_matches_reference(systems, tables, lie_type):
    s, t = systems[lie_type], tables[lie_type]
    rng = random.Random(f"reference:{lie_type.name}")
    # (density, Cartan part, Fraction coefficients) of each operand.
    pairs = [((1.0, False, True), (1.0, True, False)),
             ((1.0, True, True), (0.05, False, False)),
             ((0.05, True, True), (0.05, False, True)),
             ((0.3, True, False), (0.3, False, True)),
             ((0.0, True, True), (0.3, True, True))]
    for shape_x, shape_y in pairs:
        x = random_element(rng, s, *shape_x)
        y = random_element(rng, s, *shape_y)
        for u, v in ((x, y), (y, x)):
            assert bracket(t, u, v) == oracles.reference_bracket(t, u, v)


@pytest.mark.parametrize("lie_type", [LieType.G2, LieType.F4, LieType.E8])
def test_bracket_operand_mix_matches_reference(systems, tables, lie_type):
    # Shared operands, operands with and without Cartan parts, p/q, int and
    # integral-Fraction coefficients, a self-bracket and a zero operand.
    s, t = systems[lie_type], tables[lie_type]
    rng = random.Random(f"bracket-sum:{lie_type.name}")
    density = 1.0 if lie_type is LieType.G2 else 0.2
    x = random_element(rng, s, density, True, True)
    y = random_element(rng, s, density, False, True)
    z = random_element(rng, s, density, True, False)
    zf = _with_coefficients(z, "Fraction")
    zero = AlgebraElement.zero(s)
    for u, v in ((x, y), (y, z), (z, x), (x, zf), (zf, y), (y, y), (x, x), (zero, x)):
        assert bracket(t, u, v) == oracles.reference_bracket(t, u, v)
    assert bracket(t, x, zf) == bracket(t, x, z)
    assert bracket(t, y, y).is_zero() and bracket(t, zero, x).is_zero()


def _with_coefficients(elem, kind):
    """elem with each coefficient c as int(c), Fraction(int(c)) or int(c)/7."""
    conv = {"int": int, "Fraction": Fraction, "p/q": lambda c: Fraction(int(c), 7)}[kind]
    return AlgebraElement(elem.system, tuple(map(conv, elem.cartan)),
                          {r: conv(c) for r, c in elem.a.items()},
                          {r: conv(c) for r, c in elem.b.items()})


@pytest.mark.parametrize("lie_type", [LieType.F4, LieType.E8])
def test_bracket_agrees_across_coefficient_types(systems, tables, lie_type):
    # Integral Fractions run the same integer arithmetic as ints: the
    # numerators are ints, and the results are equal and integral.
    s, t = systems[lie_type], tables[lie_type]
    rng = random.Random(f"coefficient-types:{lie_type.name}")
    x = random_element(rng, s, 0.5, True, False)
    y = random_element(rng, s, 0.5, True, False)
    for kind in ("int", "Fraction", "p/q"):
        u, v = _with_coefficients(x, kind), _with_coefficients(y, kind)
        den, a, b, h = chevalley._numerators(s.index, u)
        assert den == (7 if kind == "p/q" else 1)
        assert all(type(c) is int for part in (a, b, h) for c in part.values())
        assert len(a) == len(u.a) and len(b) == len(u.b) and len(h) == sum(1 for c in u.cartan if c)
        got = bracket(t, u, v)
        assert got == oracles.combine((Fraction(1, 49) if kind == "p/q" else 1, bracket(t, x, y)))
        if kind != "p/q":
            assert all(type(c) is int for c in (*got.a.values(), *got.b.values(), *got.cartan))


def jacobi(table, x, y, z):
    return oracles.combine((1, bracket(table, x, bracket(table, y, z))),
                           (1, bracket(table, y, bracket(table, z, x))),
                           (1, bracket(table, z, bracket(table, x, y))))


@pytest.mark.parametrize("lie_type", list(LieType))
def test_table_relations(systems, tables, lie_type):
    # antisymmetry, sign symmetry under negation, magnitude p+1
    s = systems[lie_type]
    t = tables[lie_type]
    assert t.n_map, "table must not be empty"
    for (x, y), v in t.n_map.items():
        assert v != 0
        assert t.n(y, x) == -v
        assert t.n(tuple(-c for c in x), tuple(-c for c in y)) == v
        p, _ = oracles.string_by_scan(s, x, y)
        assert abs(v) == p + 1


def test_g2_magnitudes(tables):
    t = tables[LieType.G2]
    assert abs(t.n((1, 0), (0, 1))) == 1
    # p = 1 here: (a1+a2) - a1 is a root
    assert abs(t.n((1, 0), (1, 1))) == 2


@pytest.mark.parametrize("lie_type", [LieType.G2, LieType.F4])
def test_jacobi_exhaustive_small(systems, tables, lie_type):
    t = tables[lie_type]
    basis = oracles.real_basis(systems[lie_type])
    for x, y, z in itertools.combinations(basis, 3):
        assert jacobi(t, x, y, z).is_zero()


@pytest.mark.parametrize("lie_type", [LieType.E6, LieType.E7, LieType.E8])
def test_jacobi_sampled_large(systems, tables, lie_type):
    t = tables[lie_type]
    basis = oracles.real_basis(systems[lie_type])
    rng = random.Random(11)
    for _ in range(1500):
        x, y, z = rng.sample(basis, 3)
        assert jacobi(t, x, y, z).is_zero()


def test_bracket_diagonal_pair_gives_cartan(systems, tables):
    s = systems[LieType.G2]
    t = tables[LieType.G2]
    for r in s.positive_roots:
        got = bracket(t, AlgebraElement(s, (0, 0), {r: 1}), AlgebraElement(s, (0, 0), {}, {r: 1}))
        assert got.a == {} and got.b == {}
        assert got.cartan == tuple(2 * c for c in oracles.coroot(s, r))


def test_bracket_alternating(systems, tables):
    s = systems[LieType.F4]
    t = tables[LieType.F4]
    x = AlgebraElement(s, (0, 0, -1, 0), {(0, 1, 1, 0): 3}, {(0, 0, 1, 1): Fraction(1, 2)})
    assert bracket(t, x, x).is_zero()
    y = AlgebraElement(s, (0, 0, 0, 0), {(1, 1, 1, 1): Fraction(-2, 3)})
    assert oracles.combine((1, bracket(t, x, y)), (1, bracket(t, y, x))).is_zero()


def test_bracket_bilinear(systems, tables):
    s = systems[LieType.E6]
    t = tables[LieType.E6]
    rng = random.Random(5)
    basis = oracles.real_basis(s)
    for _ in range(25):
        x, y, z = rng.sample(basis, 3)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = bracket(t, oracles.combine((1, x), (c, y)), z)
        rhs = oracles.combine((1, bracket(t, x, z)), (c, bracket(t, y, z)))
        assert lhs == rhs


def test_bracket_rejects_non_positive_keys(systems, tables):
    s, t = systems[LieType.G2], tables[LieType.G2]
    y = AlgebraElement(s, (0, 0), {(0, 1): 1})
    for bad in ((-1, 0), (5, 5)):
        with pytest.raises(FlagrootsError, match="not a positive root"):
            bracket(t, AlgebraElement(s, (0, 0), {bad: 1}), y)


@pytest.mark.parametrize("bad", [1.5, 0.0, "1", True, Decimal(1)])
def test_bracket_refuses_a_coefficient_that_is_not_an_int_or_a_fraction(systems, tables, bad):
    # A float in an operand once died in the numerator pass with a bare
    # AttributeError, and a bool ran as an int.  Each part of each operand.
    s, t = systems[LieType.G2], tables[LieType.G2]
    good = AlgebraElement(s, (0, 0), {(0, 1): 1})
    for x in (AlgebraElement(s, (bad, 0)), AlgebraElement(s, (0, 0), {(1, 0): bad}),
              AlgebraElement(s, (0, 0), {}, {(1, 0): bad})):
        for u, v in ((x, good), (good, x)):
            with pytest.raises(FlagrootsError, match=re.escape(f"coefficient {bad!r} is not an int or a Fraction")):
                bracket(t, u, v)


def test_g2_simple_bracket_has_no_difference_term(systems, tables):
    # a1 - a2 is not a root, so only the sum survives.
    s = systems[LieType.G2]
    t = tables[LieType.G2]
    got = bracket(t, AlgebraElement(s, (0, 0), {(1, 0): 1}), AlgebraElement(s, (0, 0), {(0, 1): 1}))
    assert set(got.a) == {(1, 1)}
    assert abs(got.a[(1, 1)]) == 1
    assert not got.b and not any(got.cartan)


def test_disjoint_pairs_bracket_to_zero(systems, tables):
    # whenever a +- b is not a root, all A/B brackets vanish: the
    # mechanism behind structural families.
    s = systems[LieType.F4]
    t = tables[LieType.F4]
    pos, basis = s.positive_roots, oracles.real_basis(s)
    for i, a in enumerate(pos):
        for j, b in enumerate(pos):
            if a == b:
                continue
            sm = tuple(x + y for x, y in zip(a, b))
            df = tuple(x - y for x, y in zip(a, b))
            if sm in s.index or df in s.index:
                continue
            for u in basis[2 * i:2 * i + 2]:
                for v in basis[2 * j:2 * j + 2]:
                    assert bracket(t, u, v).is_zero()


def test_trace_form_ad_invariance_sampled(systems, tables):
    # <[x,y],z> + <y,[x,z]> = 0 for the adjoint trace form.
    s = systems[LieType.G2]
    t = tables[LieType.G2]
    basis = oracles.real_basis(s)

    def coords(elem):
        # same layout as real_basis: A/B interleaved, then the h's
        row = []
        for r in s.positive_roots:
            row.append(elem.a.get(tuple(r), 0))
            row.append(elem.b.get(tuple(r), 0))
        row.extend(elem.cartan)
        return row

    ad = {}
    for i, e in enumerate(basis):
        ad[i] = [coords(bracket(t, e, f)) for f in basis]

    def trace_form(i, j):
        # tr(ad x ad y) over the real basis
        return sum(
            sum(ad[i][k][l] * ad[j][l][k] for l in range(len(basis)))
            for k in range(len(basis))
        )

    rng = random.Random(3)
    for _ in range(20):
        i, j, k = rng.sample(range(len(basis)), 3)
        xy = bracket(t, basis[i], basis[j])
        xz = bracket(t, basis[i], basis[k])
        lhs = sum(c * trace_form(m, k) for m, c in _expand(xy, basis, s))
        rhs = sum(c * trace_form(j, m) for m, c in _expand(xz, basis, s))
        assert lhs + rhs == 0


def _expand(elem, basis, system):
    """Element as (basis index, coefficient) pairs."""
    out = []
    for i in range(system.rank):
        if elem.cartan[i]:
            out.append((2 * len(system.positive_roots) + i, elem.cartan[i]))
    idx = {tuple(r): k for k, r in enumerate(system.positive_roots)}
    for r, c in elem.a.items():
        out.append((2 * idx[r], c))
    for r, c in elem.b.items():
        out.append((2 * idx[r] + 1, c))
    return out


def test_project_m_examples(systems, tables, diagrams):
    s = systems[LieType.F4]
    pd = diagrams["F4_34"]
    h = AlgebraElement(s, (1, 0, 0, 0))
    assert project_m(pd, h).is_zero()
    a3 = AlgebraElement(s, (0, 0, 0, 0), {(0, 0, 1, 0): 1})
    assert project_m(pd, a3) == a3
    a2 = AlgebraElement(s, (0, 0, 0, 0), {(0, 1, 0, 0): 1})
    assert project_m(pd, a2).is_zero()


def test_is_zero_reads_values_not_entries(systems, diagrams):
    # A stored 0, which the constructor accepts, is zero, through project_m
    # too; equality stays entry by entry, so it does not equal zero().
    s, pd = systems[LieType.F4], diagrams["F4_34"]
    for x in (AlgebraElement(s, (0, 0, 0, 0), {(0, 0, 1, 0): 0}),
              AlgebraElement(s, (0, 0, 0, 0), {}, {(0, 1, 1, 0): Fraction(0)})):
        assert x.is_zero() and project_m(pd, x).is_zero()
        assert x != AlgebraElement.zero(s)
    assert not AlgebraElement(s, (0, 0, 0, 0), {(0, 0, 1, 0): 0}, {(0, 0, 1, 0): 1}).is_zero()


def test_mixed_systems_rejected(systems, tables):
    x = AlgebraElement(systems[LieType.G2], (1, 0))
    y = AlgebraElement(systems[LieType.F4], (1, 0, 0, 0))
    with pytest.raises(MixedSystemError):
        bracket(tables[LieType.G2], x, y)


def test_table_json_dump_stable(systems, tables):
    t = tables[LieType.G2]
    doc = json.loads(t.to_json())
    assert doc["schema_version"] == 1
    assert len(doc["pairs"]) == len(t.n_map)
    # build_constants returns this very table, so solve the system again.
    again = StructureConstantTable(systems[LieType.G2])
    assert again is not t and again.to_json() == t.to_json()


@pytest.mark.parametrize("lie_type", [LieType.G2, LieType.F4, LieType.E6])
def test_bracket_support_matches_basis_brackets(systems, tables, lie_type):
    # The four A/B basis-pair brackets of positive roots x and y reach x+y
    # and +-(x-y) where these are roots, and the Cartan part (None) when
    # x = y: a Chevalley constant on a root sum is never 0.
    system, table = systems[lie_type], tables[lie_type]
    pos = [tuple(r) for r in system.positive_roots]
    positive = set(pos)
    basis = oracles.real_basis(system)
    for x, rx in enumerate(pos):
        for y, ry in enumerate(pos):
            hit = set()
            for u in basis[2 * x:2 * x + 2]:
                for v in basis[2 * y:2 * y + 2]:
                    z = bracket(table, u, v)
                    hit |= {*z.a, *z.b}
                    if any(z.cartan):
                        hit.add(None)
            want = {None} if x == y else set()
            for w in (tuple(a + b for a, b in zip(rx, ry)), tuple(a - b for a, b in zip(rx, ry))):
                if w in system.index:
                    want.add(w if w in positive else _neg(w))
            assert hit == want, (lie_type, rx, ry)


# Pairs with a root sum, and quadruples a+b+c+d = 0 with a+b a root and no
# opposite pair, per type.
ROOT_SUM_PAIRS = {LieType.G2: 60, LieType.F4: 816, LieType.E6: 1440, LieType.E7: 4032,
                  LieType.E8: 13440}
FOUR_ROOT_INSTANCES = {LieType.G2: 192, LieType.F4: 12672, LieType.E6: 25920,
                       LieType.E7: 120960, LieType.E8: 725760}


def _neg(v):
    return tuple(-c for c in v)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_magnitude_and_three_root_identity_exhaustive(systems, tables, lie_type):
    # |N(x,y)| = p+1, and N(x,y)/|z|^2 = N(y,z)/|x|^2 = N(z,x)/|y|^2 for
    # x+y+z = 0, over every pair with a root sum.
    s, t = systems[lie_type], tables[lie_type]
    roots = oracles.weyl_closure_roots(s)
    norm = {r: oracles.normsq(s, r) for r in roots}
    pairs = [(x, y) for x in roots for y in roots if tuple(a + b for a, b in zip(x, y)) in roots]
    assert len(pairs) == len(t.n_map) == ROOT_SUM_PAIRS[lie_type]
    for x, y in pairs:
        z = _neg(tuple(a + b for a, b in zip(x, y)))
        p, _ = oracles.string_by_scan(s, x, y)
        assert abs(t.n(x, y)) == p + 1, (x, y)
        assert t.n(x, y) * norm[x] == t.n(y, z) * norm[z], (x, y)
        assert t.n(y, z) * norm[y] == t.n(z, x) * norm[x], (x, y)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_four_root_identity_exhaustive(systems, tables, lie_type):
    # N(a,b)N(c,d)/|a+b|^2 + N(b,c)N(a,d)/|b+c|^2 + N(c,a)N(b,d)/|c+a|^2 = 0
    # for a+b+c+d = 0 with no opposite pair, over every such quadruple with
    # a+b a root; a term whose sum is not a root is 0.  Checked on integers:
    # each term's numerator times the other two terms' norms.
    s, t = systems[lie_type], tables[lie_type]
    roots = sorted(oracles.weyl_closure_roots(s))
    at = {r: i for i, r in enumerate(roots)}
    neg = [at[_neg(r)] for r in roots]
    norm = [oracles.normsq(s, r) for r in roots]
    # add[i][j]: index of roots[i] + roots[j], or -1; nn[i][j]: N and its norm.
    add = [[at.get(tuple(a + b for a, b in zip(x, y)), -1) for y in roots] for x in roots]
    nn = [[(t.n(x, y), norm[k]) if k >= 0 else (0, 1) for y, k in zip(roots, row)]
          for x, row in zip(roots, add)]
    by_sum = [[] for _ in roots]
    for i, row in enumerate(add):
        for j, k in enumerate(row):
            if k >= 0:
                by_sum[k].append((i, j))
    count = 0
    for k, pairs in enumerate(by_sum):
        for a, b in pairs:
            opposite = (neg[a], neg[b])
            nab, mab = nn[a][b]
            for c, d in by_sum[neg[k]]:
                if c in opposite or d in opposite:
                    continue
                count += 1
                (nbc, mbc), (nca, mca) = nn[b][c], nn[c][a]
                assert (nab * nn[c][d][0] * mbc * mca + nbc * nn[a][d][0] * mab * mca
                        + nca * nn[b][d][0] * mab * mbc) == 0, (a, b, c, d)
    assert count == FOUR_ROOT_INSTANCES[lie_type]


def test_n_map_built_only_when_read():
    # The bracket, and the residual and the all-metrics test with the cross-pair
    # system they compile, read the table's pair entries, never n_map.  A fresh
    # system: the shared one's table is the one other tests read.
    pd = paint(RootSystem(LieType.F4), (3, 4))
    table = build_constants(pd.system)
    zero = (0,) * pd.system.rank
    bracket(table, AlgebraElement(pd.system, zero, {(0, 1, 1, 0): 1}),
            AlgebraElement(pd.system, zero, {}, {(0, 0, 1, 1): 1}))
    dense = TangentVector.from_coefficients(pd, a={r: 1 for r in pd.r_m_pos},
                                            b={r: Fraction(1, 3) for r in pd.r_m_pos})
    assert not equigeodesic_residual(table, pd, dense, MetricVector((1, 2, 3, 4, 5, 6))).is_zero()
    assert not is_equigeodesic_all_metrics(table, pd, dense)
    assert list(table._compiled) == [pd.painted]
    assert "n_map" not in table.__dict__
    assert len(table.n_map) == ROOT_SUM_PAIRS[LieType.F4]
    assert "n_map" in table.__dict__


# sha256 of repr(table._pairs), pinned while the entries were still built in
# a second pass after the recursion.
EAGER_PAIR_ENTRIES = {
    LieType.G2: "463909604e8cb4807285913d36675377f25b1547227f1e64862f64f9d070c1b8",
    LieType.F4: "ef6f3381ed2515490a3f58843e3f80cbb83b9d284fdc7208fd9be2981990228f",
    LieType.E6: "2933577710012bf1984782606280bb468e9163680508c1f9891b8ccd4477c889",
    LieType.E7: "0a154b1f5b43396846142ea606c6d07a51e36a923c761671f4c7074524aa2205",
    LieType.E8: "4f2797743bf77fb5d543deb08eff8d707e191d4ef8ec8f360b195c037e964c83",
}


@pytest.mark.parametrize("lie_type", list(LieType))
def test_pair_entries_equal_the_pinned_ones(systems, lie_type):
    table = build_constants(systems[lie_type])
    assert hashlib.sha256(repr(table._pairs).encode()).hexdigest() == EAGER_PAIR_ENTRIES[lie_type]
    # Field 4 is -sign(i-j) times the stored N(i,-j) of field 3, and both
    # constants agree with n_map.
    s = systems[lie_type]
    roots, n = s.roots, len(s.positive_roots)
    for i, row in enumerate(table._pairs):
        for j, e in enumerate(row):
            if e is not None:
                assert e[1] == table.n(roots[i], roots[j]) and e[3] == table.n(roots[i], roots[j + n])
                d = s.index.get(tuple(a - b for a, b in zip(roots[i], roots[j])))
                assert e[4] == -(0 if d is None else 1 if d < n else -1) * e[3], (i, j)


@pytest.mark.parametrize("x,y,message", [
    # extraspecial for (3,2): N = 1 becomes 2, and the Jacobi step for
    # (1,1) + (2,1) divides 3 by it
    ((0, 1), (3, 1), "inconsistent structure-constant recursion"),
    # (1,1) + (2,1) is solved by Jacobi, so p+2 is not its magnitude
    ((1, 1), (2, 1), "magnitude check failed"),
    # extraspecial short + short = long (3,1): N = 4 makes N|a|^2/|g|^2 = 8/6
    ((1, 0), (2, 1), "non-integral structure constant reduction"),
])
def test_consistency_checks_catch_a_wrong_string_length(monkeypatch, x, y, message):
    # A fresh system: the shared one has its table already, so its builds
    # never reach _string_p.  A failed build keeps no table on the system, so
    # a second build runs the recursion again and raises again.
    s = RootSystem(LieType.G2)
    target, string_p = (s.index[x], s.index[y]), chevalley._string_p
    monkeypatch.setattr(chevalley, "_string_p",
                        lambda system, a, b: string_p(system, a, b) + ((a, b) == target))
    for _ in range(2):
        with pytest.raises(FlagrootsError, match=message):
            build_constants(s)
        assert "_constants" not in vars(s)


def test_each_system_is_solved_once(monkeypatch):
    # The first build of a fresh E8 system evaluates one string length per
    # triple, 1,120 of them, and fills the pair entries; a second build
    # evaluates none and returns the same table.
    calls, string_p = [], chevalley._string_p
    monkeypatch.setattr(chevalley, "_string_p", lambda system, a, b: calls.append((a, b)) or string_p(system, a, b))
    s = RootSystem(LieType.E8)
    first = build_constants(s)
    assert len(calls) == 1120 == len(set(calls))
    assert first._pairs
    assert build_constants(s) is first is vars(s)["_constants"]
    assert len(calls) == 1120
    for lie_type in LieType:
        assert build_constants(root_system(lie_type)) is build_constants(root_system(lie_type)), lie_type


def test_solved_data_does_not_keep_its_system_alive():
    # The table lives on its system, and the two form a cycle that the
    # collector frees once nothing else holds either.
    s = RootSystem(LieType.G2)
    table = build_constants(s)
    assert vars(s)["_constants"] is table and table.system is s
    refs = weakref.ref(s), weakref.ref(table)
    del s, table
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_first_build_from_four_threads_at_once():
    # Four threads that make the first build of a fresh E8 system together,
    # with a short switch interval, all get the one table kept on the system,
    # its pair entries those of a single build.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        s, barrier, seen = RootSystem(LieType.E8), threading.Barrier(4), []

        def build():
            barrier.wait(timeout=10)
            seen.append(build_constants(s))
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and len(seen) == 4
        assert all(t is build_constants(s) for t in seen)
        assert hashlib.sha256(repr(seen[0]._pairs).encode()).hexdigest() == EAGER_PAIR_ENTRIES[LieType.E8]
        assert seen[0].to_json() == build_constants(root_system(LieType.E8)).to_json()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_pairings_by_linearity_match_coroot_pairing(systems, tables, lie_type):
    # Only the simple roots' pairings come from the Cartan matrix; the rest
    # are sums along a triple.
    s = systems[lie_type]
    assert tables[lie_type]._pairings == [s.cartan.coroot_pairing(r) for r in s.positive_roots]


@pytest.mark.parametrize("lie_type", list(LieType))
def test_pair_entries_name_the_sum_and_difference(systems, tables, lie_type):
    # For every pair of positive ids (14,400 on E8): the entry's sum id is
    # that of i+j and its difference id that of +-(i-j), each n when absent,
    # read from coefficient tuples; no entry where neither is a root.
    s, rows = systems[lie_type], tables[lie_type]._pairs
    pos, n = s.positive_roots, len(s.positive_roots)
    for i, j in itertools.product(range(n), repeat=2):
        sm = s.index.get(tuple(a + b for a, b in zip(pos[i], pos[j])))
        df = s.index.get(tuple(a - b for a, b in zip(pos[i], pos[j])))
        e = rows[i][j]
        if sm is None and df is None:
            assert e is None, (i, j)
        else:
            assert (e[0], e[2]) == (n if sm is None else sm, n if df is None else df % n), (i, j)
