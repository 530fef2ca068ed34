"""Integer structure constants and the compact real form bracket.

The complex algebra carries a Chevalley basis {e_x : x a root} with
[e_x, e_y] = N(x,y) e_{x+y} and |N(x,y)| = p+1.  Signs are fixed by the
extraspecial-pair rule over the canonical root order.  The table stored
here is for the sign-adjusted basis f_x = e_x (x > 0), f_{-x} = -e_x,
in which the constants obey

    N(x,y) = -N(y,x),   N(x,y) = N(-x,-y),   N(x,-y) = N(-x,y),

the symmetric convention the real-form formulas below rely on.

The compact real form has basis {A_x, B_x, sqrt(-1) h_i} with
A_x = f_x + f_{-x} and B_x = sqrt(-1)(f_x - f_{-x}) for positive x.
Its bracket (with B_{-y} = -B_y, A_{-y} = A_y understood):

    [A_x, A_y] = N(x,y) A_{x+y} + N(x,-y) A_{x-y}
    [B_x, B_y] = -N(x,y) A_{x+y} + N(x,-y) A_{x-y}
    [A_x, B_y] = N(x,y) B_{x+y} + N(x,-y) B_{y-x}
    [A_x, B_x] = 2 sqrt(-1) h_x
    [sqrt(-1)h, A_y] = y(h) B_y,   [sqrt(-1)h, B_y] = -y(h) A_y

where h_x is the coroot of x and y(h_i) the integer coroot pairing.
These are forced by the f-basis expansion and the Jacobi identity;
sign conventions never create or destroy a zero bracket.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .rootsys import (
    Coeffs,
    FlagrootsError,
    RootSystem,
    SCHEMA_VERSION,
    _vec_add,
    _vec_neg,
    _vec_sub,
    canonical_key,
)

Scalar = int | Fraction


class MixedSystemError(FlagrootsError):
    """Operands belong to different root systems."""


class StructureConstantTable:
    """All constants N(x,y), x, y, x+y roots, in the symmetric convention.

    Immutable after construction; bracket evaluation is pure.  For the
    bracket kernel, entry (i, j) of _pairs over positive-root ids is
    (s, N(i,j), d, N(i,-j), -sign(i-j) N(i,-j)) with s the id of i+j and d
    that of +-(i-j), or None when neither is a root; an absent one has
    constant 0 and the spare id n.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        pos = self._roots = [tuple(r) for r in system.positive_roots]
        n = self._n = len(pos)
        # Root ids: positive root k is k, its negative k + n.
        roots = pos + [_vec_neg(r) for r in pos]
        ids = {r: k for k, r in enumerate(roots)}
        self._norm = [system.cartan.normsq(r) for r in pos] * 2
        # _add[x][y]: id of root x + root y, or -1 when that is not a root.
        add = self._add = [[-1] * (2 * n) for _ in range(2 * n)]
        for i, x in enumerate(pos):
            for j, y in enumerate(pos):
                s = add[i][j] = ids.get(_vec_add(x, y), -1)
                add[i + n][j + n] = s + n if s >= 0 else -1
                add[i][j + n] = add[j + n][i] = ids.get(_vec_sub(x, y), -1)
        self._carter: dict[tuple[int, int], int] = {}
        self._build_positive_pairs()
        self.n_map: dict[tuple[Coeffs, Coeffs], int] = {}
        self._pairs: list[list[tuple[int, int, int, int, int] | None]] = []
        self._expand_all_pairs(roots)
        del self._add
        self._coroots = [self._coroot_coeffs(k) for k in range(n)]
        self._pairings = [system.cartan.coroot_pairing(r) for r in pos]

    # -- construction ------------------------------------------------

    def _neg(self, x: int) -> int:
        return (x + self._n) % (2 * self._n)

    def _string_p(self, a: int, b: int) -> int:
        p, down = 0, self._add[b][self._neg(a)]
        while down >= 0:
            p, down = p + 1, self._add[down][self._neg(a)]
        return p

    def _build_positive_pairs(self) -> None:
        """Fix signs by extraspecial pairs, ascending canonical order."""
        n, add = self._n, self._add
        decomps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if add[a][b] >= 0:
                    decomps[add[a][b]].append((a, b))
        for gamma in range(n):
            if not decomps[gamma]:
                continue
            (a1, b1), *rest = decomps[gamma]
            self._carter[(a1, b1)] = self._string_p(a1, b1) + 1
            m1 = self._neg(a1)
            for a, b in rest:
                # Jacobi on (e_{-a1}, e_a, e_b); every factor on the right
                # has a lower-height sum, so it is already determined.
                rhs = 0
                if add[b][m1] >= 0:
                    rhs += self._n_carter(b, m1) * self._n_carter(a, add[b][m1])
                if add[a][m1] >= 0:
                    rhs += self._n_carter(m1, a) * self._n_carter(b, add[a][m1])
                denom = self._n_carter(m1, gamma)
                num = -rhs
                if denom == 0 or num % denom != 0:
                    raise FlagrootsError("inconsistent structure-constant recursion")
                val = num // denom
                expected = self._string_p(a, b) + 1
                if abs(val) != expected:
                    raise FlagrootsError("structure-constant magnitude check failed")
                self._carter[(a, b)] = val

    def _n_carter(self, x: int, y: int) -> int:
        """N(x,y) in the raw Chevalley convention, any sign pattern."""
        n = self._n
        if x < n and y < n:
            if (x, y) in self._carter:
                return self._carter[(x, y)]
            return -self._carter[(y, x)]
        if x >= n and y >= n:
            return -self._n_carter(x - n, y - n)
        if x >= n:
            return -self._n_carter(y, x)
        # x > 0 > y; reduce to a positive pair via norm-weighted identities.
        z = self._add[x][y]
        if z < n:
            num, den = self._n_carter(z, y - n) * self._norm[z], self._norm[x]
        else:
            num, den = self._n_carter(z - n, x) * self._norm[z], self._norm[y]
        if num % den != 0:
            raise FlagrootsError("non-integral structure constant reduction")
        return num // den

    def _expand_all_pairs(self, roots: list[Coeffs]) -> None:
        """The stored table over all ordered root pairs, f-basis signs,
        and each positive id's row of bracket entries."""
        n, add = self._n, self._add
        for x, rx in enumerate(roots):
            vals = [0] * (2 * n)
            for y, ry in enumerate(roots):
                s = add[x][y]
                if s >= 0:
                    vals[y] = self.n_map[(rx, ry)] = (
                        self._n_carter(x, y) * (-1) ** ((x >= n) + (y >= n) + (s >= n)))
            if x < n:
                self._pairs.append([
                    None if s < 0 and d < 0 else
                    (s if s >= 0 else n, ns, d % n if d >= 0 else n, nd, nd if d >= n else -nd)
                    for s, d, ns, nd in zip(add[x][:n], add[x][n:], vals[:n], vals[n:])])

    def _coroot_coeffs(self, k: int) -> Coeffs:
        """h_root in the basis of simple coroots; always integral."""
        d_root = self._norm[k] // 2
        out = []
        for m, d in zip(self._roots[k], self.system.cartan.symmetrizer):
            if m * d % d_root != 0:
                raise FlagrootsError("non-integral coroot coefficient")
            out.append(m * d // d_root)
        return tuple(out)

    # -- queries -----------------------------------------------------

    def n(self, x: Sequence[int], y: Sequence[int]) -> int:
        """N(x,y); zero when x+y is not a root."""
        return self.n_map.get((tuple(x), tuple(y)), 0)

    def coroot(self, root: Sequence[int]) -> Coeffs:
        v, index = tuple(root), self.system.index
        if v in index:
            return self._coroots[index[v]]
        neg = _vec_neg(v)
        if neg in index:
            return _vec_neg(self._coroots[index[neg]])
        raise FlagrootsError(f"{v} is not a root")

    def to_dict(self) -> dict:
        pairs = sorted(
            self.n_map.items(),
            key=lambda kv: (canonical_key(kv[0][0]), canonical_key(kv[0][1])),
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.system.lie_type.family,
            "pairs": [[list(x), list(y), n] for (x, y), n in pairs],
        }

    def to_json(self) -> str:
        """Canonical JSON dump of the table, for external cross-validation."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def build_constants(system: RootSystem) -> StructureConstantTable:
    """Structure constants of a root system, deterministic signs."""
    return StructureConstantTable(system)


@dataclass
class AlgebraElement:
    """A compact-real-form element in sparse canonical form.

    cartan holds coordinates over sqrt(-1) h_{a_1} .. sqrt(-1) h_{a_l};
    a and b map positive roots to the coefficients of A_root / B_root.
    Zero coefficients are never stored.  Treated as immutable.
    """

    system: RootSystem
    cartan: tuple[Scalar, ...]
    a: dict[Coeffs, Scalar] = field(default_factory=dict)
    b: dict[Coeffs, Scalar] = field(default_factory=dict)

    @classmethod
    def zero(cls, system: RootSystem) -> "AlgebraElement":
        return cls(system, (0,) * system.rank)

    @classmethod
    def basis_a(cls, system: RootSystem, root: Sequence[int], coeff: Scalar = 1) -> "AlgebraElement":
        r = tuple(system.root(root))
        if sum(r) < 0:
            r = _vec_neg(r)
        return cls(system, (0,) * system.rank, a={r: coeff} if coeff else {})

    @classmethod
    def basis_b(cls, system: RootSystem, root: Sequence[int], coeff: Scalar = 1) -> "AlgebraElement":
        r = tuple(system.root(root))
        if sum(r) < 0:
            r, coeff = _vec_neg(r), -coeff
        return cls(system, (0,) * system.rank, b={r: coeff} if coeff else {})

    @classmethod
    def basis_h(cls, system: RootSystem, i: int, coeff: Scalar = 1) -> "AlgebraElement":
        cartan = tuple(coeff if j == i else 0 for j in range(system.rank))
        return cls(system, cartan)

    def is_zero(self) -> bool:
        return not self.a and not self.b and not any(self.cartan)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        parts = []
        for mine, theirs in ((self.a, other.a), (self.b, other.b)):
            out = dict(mine)
            for k, v in theirs.items():
                w = out.get(k, 0) + v
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
            parts.append(out)
        cartan = tuple(x + y for x, y in zip(self.cartan, other.cartan))
        return AlgebraElement(self.system, cartan, *parts)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (other * -1)

    def __mul__(self, scalar: Scalar) -> "AlgebraElement":
        if not scalar:
            return AlgebraElement.zero(self.system)
        return AlgebraElement(
            self.system,
            tuple(scalar * c for c in self.cartan),
            {k: scalar * v for k, v in self.a.items()},
            {k: scalar * v for k, v in self.b.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.system is other.system
            and self.a == other.a
            and self.b == other.b
            and tuple(self.cartan) == tuple(other.cartan)
        )

    def _check(self, other: "AlgebraElement") -> None:
        if self.system is not other.system:
            raise MixedSystemError("elements live over different root systems")

    def support(self) -> set[Coeffs]:
        return set(self.a) | set(self.b)


def _numerators(index: dict[Coeffs, int], elem: AlgebraElement):
    """(D, a, b, h): elem's coefficients over their common denominator D,
    with a and b keyed by positive-root id and h None for a zero Cartan
    part.  They are integer numerators (at D = 1 they already are)."""
    h = elem.cartan if any(elem.cartan) else None
    den = 1
    for c in h or ():
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    parts = []
    try:
        for part in (elem.a, elem.b):
            ids = {}
            for r, c in part.items():
                ids[index[r]] = c
                if c.denominator != 1:
                    den = lcm(den, c.denominator)
            parts.append(ids)
    except KeyError as exc:
        raise FlagrootsError(f"{exc.args[0]} is not a positive root key") from exc
    if den != 1:
        parts = [{k: c.numerator * (den // c.denominator) for k, c in p.items()} for p in parts]
        h = h and [c.numerator * (den // c.denominator) for c in h]
    return den, *parts, h


def bracket(table: StructureConstantTable, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket of two real-form elements, exact coefficients.

    Each operand becomes integer numerators over its own common
    denominator, keyed by positive-root id; each pair of terms costs one
    lookup in the table's pair entries, and only the result is made of
    Fractions, over the product of the two denominators.
    """
    if x.system is not table.system or y.system is not table.system:
        raise MixedSystemError("elements do not match the constant table")
    system, rows = table.system, table._pairs
    dx, xa, xb, xh = _numerators(system.index, x)
    dy, ya, yb, yh = _numerators(system.index, y)
    # Absent sums and differences add 0 at the spare id n.
    out_a: defaultdict[int, int] = defaultdict(int)
    out_b: defaultdict[int, int] = defaultdict(int)
    out_h = [0] * system.rank
    # [A,A], [B,B] land on A and [A,B], [B,A] on B; sign and sign_d scale the
    # sum and difference terms, read from entry field 1 and field `slot`.
    for xs, ys, out, sign, sign_d, slot in ((xa, ya, out_a, 1, 1, 3), (xb, yb, out_a, -1, 1, 3),
                                            (xa, yb, out_b, 1, 1, 4), (xb, ya, out_b, 1, -1, 4)):
        for i, ci in xs.items() if ys else ():
            row = rows[i]
            for j, cj in ys.items():
                e = row[j]
                if e is not None:
                    c = ci * cj
                    out[e[0]] += sign * c * e[1]
                    out[e[2]] += sign_d * c * e[slot]
    # [A_x, B_x] = 2 sqrt(-1) h_x, from both orderings.
    for xs, ys, sign in ((xa, yb, 2), (ya, xb, -2)):
        for i, ci in xs.items() if ys else ():
            if i in ys:
                c = sign * ci * ys[i]
                for k, h in enumerate(table._coroots[i]):
                    out_h[k] += c * h
    # Cartan action: [sqrt(-1)h, A_y] = y(h) B_y, [sqrt(-1)h, B_y] = -y(h) A_y.
    for hs, a, b, sign in ((xh, ya, yb, 1), (yh, xa, xb, -1)):
        if hs is None:
            continue
        for j, cj in a.items():
            out_b[j] += sign * cj * sum(h * p for h, p in zip(hs, table._pairings[j]))
        for j, cj in b.items():
            out_a[j] -= sign * cj * sum(h * p for h, p in zip(hs, table._pairings[j]))

    pos, den = table._roots, dx * dy
    scalar = int if den == 1 else lambda v: Fraction(v, den)
    return AlgebraElement(system, tuple(map(scalar, out_h)) if any(out_h) else (0,) * len(out_h),
                          {pos[k]: scalar(v) for k, v in out_a.items() if v},
                          {pos[k]: scalar(v) for k, v in out_b.items() if v})


def project_m(pd, x: AlgebraElement) -> AlgebraElement:
    """Projection onto the tangent part: drop Cartan and K-root components."""
    if x.system is not pd.system:
        raise MixedSystemError("element does not match the painted diagram")
    k_roots = pd.k_positive_set
    return AlgebraElement(
        x.system,
        (0,) * x.system.rank,
        {r: c for r, c in x.a.items() if r not in k_roots},
        {r: c for r, c in x.b.items() if r not in k_roots},
    )
