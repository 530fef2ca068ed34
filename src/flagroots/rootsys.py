"""Exact root systems for the exceptional Lie types G2, F4, E6, E7, E8.

Roots are integer coefficient vectors over a fixed base of simple roots,
kept as plain tuples of ints.  Each RootSystem stores every root once, in
roots; its lookups return those tuples, and the roots of the other modules
and the keys of the AlgebraElements that bracket, the residual and tangent
vectors build are the same objects.
The node numbering follows the diagram convention in which the highest
root of F4 is 2a1+4a2+3a3+2a4 and that of E8 is 2a1+3a2+4a3+5a4+6a5+4a6+
2a7+3a8 (this is *not* the Bourbaki numbering for F4/E6/E7/E8).

All arithmetic is exact; no floats appear anywhere in this package.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Sequence

Coeffs = tuple[int, ...]

SCHEMA_VERSION = 1

# Hard upper bound on |R+| across the supported types (attained by E8).
MAX_POSITIVE_ROOTS = 120


class FlagrootsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FlagrootsError):
    """A coefficient vector has the wrong length for its root system."""


class InvalidCartanError(FlagrootsError):
    """A Dynkin diagram is malformed, or its Cartan matrix is not of finite type."""


class _lazy:
    """A method's value, set on the instance by setattr on first read.  A functools cached property stores through
    instance.__dict__, which on CPython 3.11 moves the attributes into a dict: each later read is about 3x slower."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        setattr(obj, self.name, value := self.build(obj))
        return value


class LieType(Enum):
    """The five supported simple Lie types, each valued by its Dynkin diagram (rank, bonds).

    A bond (i, j, m) joins nodes i and j with m lines, i the short end when
    m > 1; each bond after the first starts at a node an earlier bond
    reached.  Distinct diagrams are distinct values.
    """

    G2 = (2, ((1, 2, 3),))
    F4 = (4, ((1, 2, 1), (2, 3, 2), (3, 4, 1)))
    E6 = (6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 6, 1)))
    E7 = (7, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (4, 7, 1)))
    E8 = (8, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1), (5, 8, 1)))

    @property
    def rank(self) -> int:
        return self.value[0]


class CartanMatrix:
    """Cartan matrix with entries A[i][j] = 2(ai,aj)/(ai,ai), derived from a Dynkin diagram (rank, bonds).

    With this (row) convention the pairing of a root b = sum m_j a_j
    with the i-th simple coroot is the i-th entry of A @ m.  The
    symmetrizer d (d_i = (ai,ai)/2, normalized so short roots have
    squared length 2) makes diag(d) @ A the matrix of inner products.
    A bond (i, j, m) sets A[i][j] = -m, A[j][i] = -1 and d_j = m d_i,
    from d = 1; the bonds must grow one tree over the nodes 1..rank.
    """

    def __init__(self, rank: int, bonds: Sequence[tuple[int, int, int]]):
        if type(rank) is not int or rank < 1:
            raise InvalidCartanError(f"rank {rank!r} is not a positive int")
        a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
        d = [1] * rank
        reached = {bonds[0][0] if bonds else 1}
        for i, j, m in bonds:
            if not (all(type(x) is int for x in (i, j, m)) and 0 < i <= rank and 0 < j <= rank
                    and i in reached and j not in reached and m in (1, 2, 3)):
                raise InvalidCartanError(f"bond {(i, j, m)} does not grow the tree on 1..{rank} by 1, 2 or 3 lines")
            reached.add(j)
            a[i - 1][j - 1], a[j - 1][i - 1], d[j - 1] = -m, -1, m * d[i - 1]
        if len(reached) != rank:
            raise InvalidCartanError(f"the bonds reach {len(reached)} of the {rank} nodes")
        self.rank = rank
        self.entries: tuple[Coeffs, ...] = tuple(map(tuple, a))
        self.symmetrizer: tuple[int, ...] = tuple(d)

    def coroot_pairing(self, coeffs: Sequence[int]) -> Coeffs:
        """Pairings <b, ai^> of b = sum coeffs_j a_j with each simple coroot."""
        if len(coeffs) != self.rank:
            raise DimensionMismatchError(
                f"expected length {self.rank}, got {len(coeffs)}")
        return tuple(sum(a * c for a, c in zip(row, coeffs)) for row in self.entries)


def cartan_matrix(lie_type: LieType) -> CartanMatrix:
    """The Cartan matrix of a supported type, derived from its diagram."""
    return CartanMatrix(*lie_type.value)


def canonical_key(coeffs: Sequence[int]) -> tuple[int, Coeffs]:
    """Sort key of the canonical root order: height, then lexicographic."""
    return (sum(coeffs), tuple(coeffs))


def generate_positive_roots(cartan: CartanMatrix) -> list[Coeffs]:
    """All positive roots of a finite-type Cartan matrix, canonically ordered.

    Height-by-height closure: a root b extends to b + a_i exactly when
    the string number q = p - <b, ai^> is positive, where p is the
    largest k with b - k a_i a root.  Raises InvalidCartanError if the
    closure exceeds the theoretical bound |R+| <= 120.
    """
    rank = cartan.rank
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    found: set[Coeffs] = set(simple)
    level = list(simple)
    while level:
        nxt: list[Coeffs] = []
        for beta in level:
            pairing = cartan.coroot_pairing(beta)
            for i in range(rank):
                head, m, tail = beta[:i], beta[i], beta[i + 1:]
                p = 0
                while head + (m - p - 1,) + tail in found:
                    p += 1
                if p - pairing[i] >= 1:
                    up = head + (m + 1,) + tail
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        if len(found) > MAX_POSITIVE_ROOTS:
            raise InvalidCartanError(
                "positive-root closure exceeded the finite-type bound; "
                "matrix is not of supported finite type")
        level = nxt
    return sorted(found, key=canonical_key)


def _string_p(system: "RootSystem", a: int, b: int) -> int:
    """p = max k with b - k a a root, for root ids a and b."""
    step, ids = system.codes[a], system.code_ids
    code, p = system.codes[b] - step, 0
    while code in ids:
        code, p = code - step, p + 1
    return p


class RootSystem:
    """An indexed root system: roots by id, the highest root, codes.

    Root ids number the positive roots in canonical order, 0..n-1, and
    their negatives n..2n-1: roots[i] is the root of id i, the negative of
    id i is id (i + n) % 2n, and index maps every root of either sign to
    its id, so a vector is a root iff it is a key of index.  Lookups go
    through ids; root() and id() are the checked ones.  codes[i] is the
    linear code sum c_k 2^(w k) of root id i, and code_ids maps a code back
    to its id: code(x +- y) = code(x) +- code(y), and w leaves room for
    every coefficient of x +- y, so x +- y is a root iff its code is in
    code_ids; _string_p walks root strings on the codes.  Immutable after
    construction, but for reflections and _constants, build_constants' one
    table, each made on first read; safe to share across threads.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        self.rank: int = lie_type.rank
        self.cartan = cartan_matrix(lie_type)
        self.positive_roots: tuple[Coeffs, ...] = tuple(generate_positive_roots(self.cartan))
        self.roots: tuple[Coeffs, ...] = self.positive_roots + tuple(tuple(-c for c in r) for r in self.positive_roots)
        self.index: dict[Coeffs, int] = {r: i for i, r in enumerate(self.roots)}
        self.highest_root: Coeffs = self.positive_roots[-1]
        w = (2 * max(map(max, self.positive_roots))).bit_length() + 1
        self.codes: tuple[int, ...] = tuple(sum(c << (w * k) for k, c in enumerate(r))
                                            for r in self.roots)
        self.code_ids: dict[int, int] = {c: i for i, c in enumerate(self.codes)}

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type.name}, {len(self.positive_roots)} positive roots)"

    def id(self, coeffs: Sequence[int]) -> int:
        """Checked lookup: the id of a root of either sign."""
        v = tuple(coeffs)
        i = self.index.get(v)
        if i is None:
            if len(v) != self.rank:
                raise DimensionMismatchError(f"expected length {self.rank}, got {len(v)}")
            raise FlagrootsError(f"{v} is not a root of {self.lie_type.name}")
        return i

    def root(self, coeffs: Sequence[int]) -> Coeffs:
        """Checked lookup: the stored root with these coefficients."""
        return self.roots[self.id(coeffs)]

    @_lazy
    def reflections(self) -> tuple[tuple[int, ...], ...]:
        """reflections[i][r]: the id of s_i(r) = r - <r, a_i^> a_i for root id r, 0-based i, at code(r) -
        <r, a_i^> code(a_i) in code_ids; each a permutation of the 2n ids, built on first read."""
        simple = [self.codes[self.index[tuple(int(j == i) for j in range(self.rank))]] for i in range(self.rank)]
        pair = [self.cartan.coroot_pairing(r) for r in self.roots]
        return tuple(tuple(self.code_ids[c - p[i] * a] for c, p in zip(self.codes, pair)) for i, a in enumerate(simple))


@lru_cache(maxsize=None)
def root_system(lie_type: LieType) -> RootSystem:
    """Shared immutable RootSystem instance for a supported type."""
    return RootSystem(lie_type)
