import itertools
import json
import random
from fractions import Fraction

import pytest

import oracles
from flagroots import (
    AlgebraElement,
    FlagrootsError,
    LieType,
    MixedSystemError,
    bracket,
    paint,
    project_m,
)


def real_basis(system):
    out = []
    for r in system.positive_roots:
        out.append(AlgebraElement.basis_a(system, r))
        out.append(AlgebraElement.basis_b(system, r))
    for i in range(system.rank):
        out.append(AlgebraElement.basis_h(system, i))
    return out


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


def jacobi(table, x, y, z):
    return (
        bracket(table, x, bracket(table, y, z))
        + bracket(table, y, bracket(table, z, x))
        + bracket(table, z, bracket(table, x, y))
    )


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
        p, _ = s.root_string(x, y)
        assert abs(v) == p + 1


def test_g2_magnitudes(tables):
    t = tables[LieType.G2]
    assert abs(t.n((1, 0), (0, 1))) == 1
    # p = 1 here: (a1+a2) - a1 is a root
    assert abs(t.n((1, 0), (1, 1))) == 2


@pytest.mark.parametrize("lie_type", [LieType.G2, LieType.F4])
def test_jacobi_exhaustive_small(systems, tables, lie_type):
    t = tables[lie_type]
    basis = real_basis(systems[lie_type])
    for x, y, z in itertools.combinations(basis, 3):
        assert jacobi(t, x, y, z).is_zero()


@pytest.mark.parametrize("lie_type", [LieType.E6, LieType.E7, LieType.E8])
def test_jacobi_sampled_large(systems, tables, lie_type):
    t = tables[lie_type]
    basis = real_basis(systems[lie_type])
    rng = random.Random(11)
    for _ in range(1500):
        x, y, z = rng.sample(basis, 3)
        assert jacobi(t, x, y, z).is_zero()


def test_bracket_diagonal_pair_gives_cartan(systems, tables):
    s = systems[LieType.G2]
    t = tables[LieType.G2]
    for r in s.positive_roots:
        got = bracket(t, AlgebraElement.basis_a(s, r), AlgebraElement.basis_b(s, r))
        assert got.a == {} and got.b == {}
        assert got.cartan == tuple(2 * c for c in t.coroot(r))


def test_bracket_alternating(systems, tables):
    s = systems[LieType.F4]
    t = tables[LieType.F4]
    x = (
        AlgebraElement.basis_a(s, (0, 1, 1, 0), 3)
        + AlgebraElement.basis_b(s, (0, 0, 1, 1), Fraction(1, 2))
        + AlgebraElement.basis_h(s, 2, -1)
    )
    assert bracket(t, x, x).is_zero()
    y = AlgebraElement.basis_a(s, (1, 1, 1, 1), Fraction(-2, 3))
    assert (bracket(t, x, y) + bracket(t, y, x)).is_zero()


def test_bracket_bilinear(systems, tables):
    s = systems[LieType.E6]
    t = tables[LieType.E6]
    rng = random.Random(5)
    basis = real_basis(s)
    for _ in range(25):
        x, y, z = rng.sample(basis, 3)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = bracket(t, x + y * c, z)
        rhs = bracket(t, x, z) + bracket(t, y, z) * c
        assert lhs == rhs


def test_bracket_rejects_non_positive_keys(systems, tables):
    s, t = systems[LieType.G2], tables[LieType.G2]
    y = AlgebraElement.basis_a(s, (0, 1))
    for bad in ((-1, 0), (5, 5)):
        with pytest.raises(FlagrootsError, match="not a positive root"):
            bracket(t, AlgebraElement(s, (0, 0), {bad: 1}), y)


def test_g2_simple_bracket_has_no_difference_term(systems, tables):
    # a1 - a2 is not a root, so only the sum survives.
    s = systems[LieType.G2]
    t = tables[LieType.G2]
    got = bracket(t, AlgebraElement.basis_a(s, (1, 0)), AlgebraElement.basis_a(s, (0, 1)))
    assert set(got.a) == {(1, 1)}
    assert abs(got.a[(1, 1)]) == 1
    assert not got.b and not any(got.cartan)


def test_disjoint_pairs_bracket_to_zero(systems, tables):
    # whenever a +- b is not a root, all A/B brackets vanish: the
    # mechanism behind structural families.
    s = systems[LieType.F4]
    t = tables[LieType.F4]
    pos = s.positive_roots
    for a in pos:
        for b in pos:
            if a == b:
                continue
            sm = tuple(x + y for x, y in zip(a, b))
            df = tuple(x - y for x, y in zip(a, b))
            if s.is_root(sm) or s.is_root(df):
                continue
            for make_x in (AlgebraElement.basis_a, AlgebraElement.basis_b):
                for make_y in (AlgebraElement.basis_a, AlgebraElement.basis_b):
                    if make_x is make_y is AlgebraElement.basis_b and a == b:
                        continue
                    assert bracket(t, make_x(s, a), make_y(s, b)).is_zero()


def test_trace_form_ad_invariance_sampled(systems, tables):
    # <[x,y],z> + <y,[x,z]> = 0 for the adjoint trace form.
    s = systems[LieType.G2]
    t = tables[LieType.G2]
    basis = real_basis(s)

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
    h = AlgebraElement.basis_h(s, 0)
    assert project_m(pd, h).is_zero()
    a3 = AlgebraElement.basis_a(s, (0, 0, 1, 0))
    assert project_m(pd, a3) == a3
    a2 = AlgebraElement.basis_a(s, (0, 1, 0, 0))
    assert project_m(pd, a2).is_zero()


def test_mixed_systems_rejected(systems, tables):
    x = AlgebraElement.basis_h(systems[LieType.G2], 0)
    y = AlgebraElement.basis_h(systems[LieType.F4], 0)
    with pytest.raises(MixedSystemError):
        bracket(tables[LieType.G2], x, y)
    with pytest.raises(MixedSystemError):
        x + y


def test_negative_root_basis_normalization(systems):
    # A_{-r} = A_r and B_{-r} = -B_r at construction time.
    s = systems[LieType.G2]
    r = (1, 1)
    neg = (-1, -1)
    assert AlgebraElement.basis_a(s, neg) == AlgebraElement.basis_a(s, r)
    assert AlgebraElement.basis_b(s, neg) == AlgebraElement.basis_b(s, r) * -1


def test_table_json_dump_stable(systems, tables):
    t = tables[LieType.G2]
    doc = json.loads(t.to_json())
    assert doc["schema_version"] == 1
    assert len(doc["pairs"]) == len(t.n_map)
    from flagroots import build_constants

    again = build_constants(systems[LieType.G2])
    assert again.to_json() == t.to_json()
