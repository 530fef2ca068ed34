import random

import pytest

import oracles
from flagroots import (
    CartanMatrix,
    DimensionMismatchError,
    FlagrootsError,
    InvalidCartanError,
    LieType,
    RootSystem,
    cartan_matrix,
    generate_positive_roots,
)
from flagroots.rootsys import _string_p

EXPECTED_COUNTS = {
    LieType.G2: 6,
    LieType.F4: 24,
    LieType.E6: 36,
    LieType.E7: 63,
    LieType.E8: 120,
}

EXPECTED_MARKS = {
    LieType.G2: (3, 2),
    LieType.F4: (2, 4, 3, 2),
    LieType.E6: (1, 2, 3, 2, 1, 2),
    LieType.E7: (1, 2, 3, 4, 3, 2, 2),
    LieType.E8: (2, 3, 4, 5, 6, 4, 2, 3),
}


@pytest.mark.parametrize("lie_type", list(LieType))
def test_positive_root_counts(systems, lie_type):
    assert len(systems[lie_type].positive_roots) == EXPECTED_COUNTS[lie_type]


@pytest.mark.parametrize("lie_type", list(LieType))
def test_highest_root_marks(systems, lie_type):
    s = systems[lie_type]
    assert s.highest_root == EXPECTED_MARKS[lie_type]
    assert all(m >= 1 for m in s.highest_root)


def test_g2_positive_roots_exact(systems):
    got = {tuple(r) for r in systems[LieType.G2].positive_roots}
    assert got == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


@pytest.mark.parametrize("lie_type", list(LieType))
def test_weyl_closure_oracle(systems, lie_type):
    # Independent count: reflection closure of the simple roots.
    s = systems[lie_type]
    closure = oracles.weyl_closure_roots(s)
    assert len(closure) == 2 * EXPECTED_COUNTS[lie_type]
    assert closure == set(s.index)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_canonical_order_and_roundtrip(systems, lie_type):
    s = systems[lie_type]
    keyed = [(sum(r), tuple(r)) for r in s.positive_roots]
    assert keyed == sorted(keyed)


def test_g2_cartan_triple_edge():
    c = cartan_matrix(LieType.G2)
    assert c.entries[0][1] * c.entries[1][0] == 3


def test_is_root_trivia(systems):
    f4 = systems[LieType.F4]
    a3 = (0, 0, 1, 0)
    a4 = (0, 0, 0, 1)
    a1 = (1, 0, 0, 0)
    assert tuple(x + y for x, y in zip(a3, a4)) in f4.index
    assert (0, 0, 0, 0) not in f4.index
    assert tuple(x + y for x, y in zip(a1, a4)) not in f4.index
    assert (0, 0, -1, -1) in f4.index
    assert (1, 0) not in f4.index


def test_root_constructor_checks_membership(systems):
    f4 = systems[LieType.F4]
    assert tuple(f4.root((0, 1, 1, 0))) == (0, 1, 1, 0)
    with pytest.raises(Exception):
        f4.root((1, 0, 0, 1))


def _string(s, alpha, beta):
    """(p, q) of the string through beta in the direction of alpha, both read by _string_p on root ids."""
    a, b, n = s.index[tuple(alpha)], s.index[tuple(beta)], len(s.positive_roots)
    return _string_p(s, a, b), _string_p(s, (a + n) % (2 * n), b)


def test_root_string_examples(systems):
    g2 = systems[LieType.G2]
    assert _string(g2, (1, 0), (0, 1)) == oracles.string_by_scan(g2, (1, 0), (0, 1)) == (0, 3)
    # orthogonal simple roots in F4: empty string
    f4 = systems[LieType.F4]
    assert _string(f4, (1, 0, 0, 0), (0, 0, 0, 1)) == (0, 0)
    # frozen from the membership-scan oracle (a2 + 2 a3 has squared
    # length 10, so the string stops at q = 1)
    assert _string(f4, (0, 0, 1, 0), (0, 1, 0, 0)) == (0, 1)
    assert oracles.string_by_scan(f4, (0, 0, 1, 0), (0, 1, 0, 0)) == (0, 1)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_root_strings_match_scan_oracle(systems, lie_type):
    s = systems[lie_type]
    rng = random.Random(7)
    pos = s.positive_roots
    for _ in range(200):
        a, b = rng.sample(pos, 2)
        assert _string(s, a, b) == oracles.string_by_scan(s, a, b)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_string_closure_property(systems, lie_type):
    # b + q a_i is a root, b + (q+1) a_i is not; same downwards.
    s = systems[lie_type]
    rank = s.rank
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    for b in s.positive_roots:
        for i, a in enumerate(simple):
            if tuple(b) == a:
                continue
            p, q = _string(s, a, b)
            up = tuple(x + q * y for x, y in zip(b, a))
            down = tuple(x - p * y for x, y in zip(b, a))
            beyond = tuple(x + (q + 1) * y for x, y in zip(b, a))
            assert up in s.index
            assert down in s.index
            assert beyond not in s.index


def test_invalid_cartan_rejected():
    # Each type is a diagram: a bond (i, j, m) must join a reached node to a
    # new one of 1..rank by 1, 2 or 3 lines, and the bonds must reach every node.
    bad = [
        (2, ((1, 3, 1),)),  # node out of range
        (2, ((0, 2, 1),)),  # node 0 would wrap to the last row
        (2, ((1, 1, 1),)),  # repeated node
        (3, ((1, 2, 1), (2, 1, 1))),  # a bond back to a reached node
        (3, ((1, 2, 1), (3, 2, 1))),  # a bond from an unreached node
        (3, ((1, 2, 1),)),  # node 3 unreached
        (2, ()),  # no bond joins the two nodes
        (2, ((1, 2, 0),)),  # multiplicity 0
        (2, ((1, 2, 4),)),  # multiplicity 4
        (2, ((1, 2, True),)),  # a bool is no multiplicity
        (2.0, ((1, 2, 1),)),  # rank not an int
        (True, ()),  # a bool is no rank
        (0, ()),  # rank not positive
    ]
    for rank, bonds in bad:
        with pytest.raises(InvalidCartanError):
            CartanMatrix(rank, bonds)
    assert CartanMatrix(1, ()).entries == ((2,),)


def test_affine_matrix_fails_generation():
    # Affine G2~: a well-formed diagram whose closure never terminates within the bound.
    c = CartanMatrix(3, ((1, 2, 3), (2, 3, 1)))
    assert c.entries == ((2, -3, 0), (-1, 2, -1), (0, -1, 2)) and c.symmetrizer == (1, 3, 3)
    with pytest.raises(InvalidCartanError, match="exceeded the finite-type bound"):
        generate_positive_roots(c)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_cartan_matrix_matches_oracle(lie_type):
    # The matrix and symmetrizer derived from the diagram equal the oracle's hand-typed ones.
    c = cartan_matrix(lie_type)
    assert (c.entries, c.symmetrizer) == oracles.CARTAN[lie_type.name]
    assert c.rank == lie_type.rank == len(lie_type.value[1]) + 1


def test_symmetrizer_symmetrizes():
    for t in LieType:
        c = cartan_matrix(t)
        n = c.rank
        for i in range(n):
            for j in range(n):
                assert c.symmetrizer[i] * c.entries[i][j] == c.symmetrizer[j] * c.entries[j][i]


@pytest.mark.parametrize("lie_type", list(LieType))
def test_root_codes_decide_sums_and_differences(systems, lie_type):
    # Root id i is positive root i, id n + i its negative; a code sum or
    # difference names a root exactly when the coefficient vector does.
    s = systems[lie_type]
    roots = [tuple(r) for r in s.positive_roots]
    roots += [tuple(-c for c in r) for r in roots]
    assert len(s.codes) == len(set(s.codes)) == len(s.code_ids) == len(roots)
    assert all(s.code_ids[c] == i for i, c in enumerate(s.codes))
    for x, cx in zip(roots, s.codes):
        for y, cy in zip(roots, s.codes):
            for v, c in ((tuple(p + q for p, q in zip(x, y)), cx + cy),
                         (tuple(p - q for p, q in zip(x, y)), cx - cy)):
                assert (roots[s.code_ids[c]] == v) if v in s.index else c not in s.code_ids


@pytest.mark.parametrize("lie_type", list(LieType))
def test_root_ids_cover_both_signs(systems, lie_type):
    # Id i < n is positive root i, id (i + n) % 2n its negative, and index,
    # id() and root() agree on every root of either sign.
    s = systems[lie_type]
    n = len(s.positive_roots)
    assert s.roots[:n] == s.positive_roots
    assert len(s.roots) == len(s.index) == 2 * n
    for i, r in enumerate(s.roots):
        assert s.index[r] == s.id(list(r)) == i
        assert s.root(list(r)) is r
        assert s.roots[(i + n) % (2 * n)] == tuple(-c for c in r)
        assert (sum(r) > 0) == (i < n)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_simple_reflections_permute_the_root_ids(systems, lie_type):
    # Each s_i is an involution of the 2n ids that sends a_i to -a_i, commutes
    # with negation (id i -> (i + n) % 2n) and moves every root as the oracle's
    # reflection, written from the Cartan rows, moves its coefficients.
    s = systems[lie_type]
    n, entries = len(s.positive_roots), s.cartan.entries
    assert len(s.reflections) == s.rank
    for i, perm in enumerate(s.reflections):
        assert sorted(perm) == list(range(2 * n))
        assert all(perm[perm[r]] == r for r in range(2 * n))
        simple = s.index[tuple(int(j == i) for j in range(s.rank))]
        assert perm[simple] == simple + n
        assert all(perm[(r + n) % (2 * n)] == (perm[r] + n) % (2 * n) for r in range(2 * n))
        assert [s.roots[j] for j in perm] == [oracles.reflect(entries, i, r) for r in s.roots]


def test_reflections_built_only_when_read():
    # A fresh system has no reflection table until the first read, which
    # builds it once; later reads get the same object.
    s = RootSystem(LieType.E8)
    assert "reflections" not in s.__dict__
    table = s.reflections
    assert s.__dict__["reflections"] is table is s.reflections


@pytest.mark.parametrize("lie_type", list(LieType))
def test_root_strings_of_either_sign_match_scan_oracle(systems, lie_type):
    s = systems[lie_type]
    rng = random.Random(f"signed-strings:{lie_type.name}")
    for _ in range(300):
        a, b = rng.sample(s.roots, 2)
        if a != tuple(-c for c in b):
            assert _string(s, a, b) == oracles.string_by_scan(s, a, b)


@pytest.mark.parametrize("lie_type", list(LieType))
def test_root_lookups_check_the_length(systems, lie_type):
    s = systems[lie_type]
    top = s.highest_root
    for bad in ((1,) * (s.rank + 1), tuple(top)[:-1], ()):
        for call in (s.root, s.id):
            with pytest.raises(DimensionMismatchError):
                call(bad)
    for not_a_root in ((0,) * s.rank, tuple(2 * c for c in top)):
        assert not_a_root not in s.index
        for call in (s.root, s.id):
            with pytest.raises(FlagrootsError, match="is not a root") as err:
                call(not_a_root)
            assert not isinstance(err.value, DimensionMismatchError)
