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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

Coeffs = tuple[int, ...]

SCHEMA_VERSION = 1

# Hard upper bound on |R+| across the supported types (attained by E8).
MAX_POSITIVE_ROOTS = 120


class FlagrootsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FlagrootsError):
    """A coefficient vector has the wrong length for its root system."""


class InvalidCartanError(FlagrootsError):
    """A matrix is not a valid Cartan matrix of supported finite type."""


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
    """The five supported simple Lie types, keyed by rank."""

    G2 = 2
    F4 = 4
    E6 = 6
    E7 = 7
    E8 = 8

    @property
    def family(self) -> str:
        return self.name

    @property
    def rank(self) -> int:
        return self.value


@dataclass(frozen=True)
class CartanMatrix:
    """Cartan matrix with entries A[i][j] = 2(ai,aj)/(ai,ai).

    With this (row) convention the pairing of a root b = sum m_j a_j
    with the i-th simple coroot is the i-th entry of A @ m.  The
    symmetrizer d (d_i = (ai,ai)/2, normalized so short roots have
    squared length 2) makes diag(d) @ A the matrix of inner products.
    """

    entries: tuple[Coeffs, ...]
    symmetrizer: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise InvalidCartanError("matrix must be square and nonempty")
        if len(self.symmetrizer) != n or any(d <= 0 for d in self.symmetrizer):
            raise InvalidCartanError("symmetrizer must be positive and of matching length")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise InvalidCartanError("diagonal entries must equal 2")
            for j in range(n):
                if i == j:
                    continue
                a = self.entries[i][j]
                if a not in (0, -1, -2, -3):
                    raise InvalidCartanError(f"off-diagonal entry A[{i}][{j}]={a} out of range")
                if (a == 0) != (self.entries[j][i] == 0):
                    raise InvalidCartanError("zero pattern must be symmetric")
                if self.symmetrizer[i] * a != self.symmetrizer[j] * self.entries[j][i]:
                    raise InvalidCartanError("symmetrizer does not symmetrize the matrix")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def coroot_pairing(self, coeffs: Sequence[int]) -> Coeffs:
        """Pairings <b, ai^> of b = sum coeffs_j a_j with each simple coroot."""
        if len(coeffs) != self.rank:
            raise DimensionMismatchError(
                f"expected length {self.rank}, got {len(coeffs)}")
        return tuple(sum(a * c for a, c in zip(row, coeffs)) for row in self.entries)


# Cartan data in the diagram orderings used throughout this package.
# Edge lists give the chain; F4/G2 carry the non-simply-laced entries
# explicitly.  Validated against the printed highest-root marks below.
def _simply_laced(rank: int, edges: Iterable[tuple[int, int]]) -> CartanMatrix:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    return CartanMatrix(tuple(tuple(row) for row in a), (1,) * rank)


_CARTAN: dict[LieType, CartanMatrix] = {
    # a1 short (mark 3), a2 long (mark 2); triple edge.
    LieType.G2: CartanMatrix(((2, -3), (-1, 2)), (1, 3)),
    # a1,a2 short, a3,a4 long; double edge between a2 and a3.
    LieType.F4: CartanMatrix(
        ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
        (1, 1, 2, 2),
    ),
    # Chain 1-2-3-4-5 with node 6 attached to node 3.
    LieType.E6: _simply_laced(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    # Chain 1-..-6 with node 7 attached to node 4.
    LieType.E7: _simply_laced(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]),
    # Chain 1-..-7 with node 8 attached to node 5.
    LieType.E8: _simply_laced(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]),
}


def cartan_matrix(lie_type: LieType) -> CartanMatrix:
    """The hard-coded Cartan matrix of a supported type."""
    return _CARTAN[lie_type]


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
