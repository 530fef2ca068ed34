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
from itertools import chain
from fractions import Fraction
from math import gcd, lcm
from operator import add
from threading import Lock
from typing import Sequence

from .rootsys import (
    Coeffs,
    FlagrootsError,
    RootSystem,
    SCHEMA_VERSION,
    _lazy,
    _string_p,
    canonical_key,
)

Scalar = int | Fraction
_FIRST_BUILD = Lock()  # so that threads making a system's first build at once all get one table


class MixedSystemError(FlagrootsError):
    """Operands belong to different root systems."""


class StructureConstantTable:
    """All constants N(x,y), x, y, x+y roots, in the symmetric convention.

    Every nonzero constant belongs to a positive triple a + b = g, and the
    table is filled one triple at a time, g ascending, in the raw Chevalley
    convention.  The first pair (a1, b1) of g, a1 < b1 in the canonical
    order, is extraspecial with N(a1,b1) = p+1; each other pair (a, b) of g
    follows from the Jacobi identity on (e_{-a1}, e_a, e_b), whose factors
    all belong to triples of lower height.  Once N(a,b) is fixed, the three-root
    identity N(x,y)/|z|^2 = N(y,z)/|x|^2 = N(z,x)/|y|^2 for x+y+z = 0, with
    N(y,x) = -N(x,y) and N(-x,-y) = -N(x,y), gives the triple's other
    eleven ordered pairs.  The first triple of g also gives g's coroot
    pairings, <g, .> = <a, .> + <b, .>; only a simple root, which has no
    triple, reads them from the Cartan matrix.

    Construction runs the recursion and the coroot check, so all four consistency errors raise
    there; build_constants gives each root system one table.  The recursion writes the bracket
    kernel's index as it solves, and reads its own earlier constants from it: _pairs, where entry
    (i, j) over positive-root ids is (s, N(i,j), d, N(i,-j), -sign(i-j) N(i,-j)) with s the id of
    i+j and d that of +-(i-j), or None when neither is a root (an absent one has constant 0 and
    the spare id n).  n_map, keyed by root pairs, is built from _pairs on first read, and each
    painting's cross-pair system is cached by equigeo in _compiled under the painted nodes.
    Bracket evaluation is pure.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        pos = system.positive_roots
        n = self._n = len(pos)
        sym = system.cartan.symmetrizer
        codes, get = system.codes, system.code_ids.get
        # triples[g]: the pairs a < b of positive ids with a + b = g.
        triples: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a in range(n):
            ca = codes[a]
            for b in range(a + 1, n):
                g = get(ca + codes[b])
                if g is not None:
                    triples[g].append((a, b))
        # <g, .> = <a, .> + <b, .> for g's first triple (a, b); a simple root has none.
        pairings = self._pairings = []
        for r, pairs in zip(pos, triples):
            pairings.append(tuple(map(add, pairings[pairs[0][0]], pairings[pairs[0][1]])) if pairs
                            else system.cartan.coroot_pairing(r))
        # |x|^2 = sum_i d_i x_i <x, a_i^>, d the symmetrizer.
        norm = [sum(d * m * q for d, m, q in zip(sym, r, pr)) for r, pr in zip(pos, pairings)]
        # _pairs[i][j], i and j positive ids: (s, N(i,j), d, N(i,-j), raw N(i,-j)), or None.
        rows = self._pairs = [[None] * n for _ in range(n)]

        def raw(x: int, y: int) -> int:
            """N(x,y) in the raw Chevalley convention, x > 0, y any id; 0 while unset."""
            e = rows[x][y % n]
            return 0 if e is None else e[1] if y < n else e[4]
        for g, pairs in enumerate(triples):
            for k, (a, b) in enumerate(pairs):
                c = _string_p(system, a, b) + 1
                if k:
                    # Jacobi on (e_{-a1}, e_a, e_b), with (a1, b1) = pairs[0]
                    # extraspecial; every factor belongs to a triple of lower
                    # height, so it is already fixed.  When b - a1 (a - a1) is
                    # not a root, raw(b, m1) (raw(a, m1)) is 0 and the spare
                    # index 0 stands in for the missing id.
                    m1 = pairs[0][0] + n
                    rhs = (raw(b, m1) * raw(a, get(codes[b] + codes[m1], 0))
                           - raw(a, m1) * raw(b, get(codes[a] + codes[m1], 0)))
                    denom = -raw(g, m1)
                    if denom == 0 or rhs % denom != 0:
                        raise FlagrootsError("inconsistent structure-constant recursion")
                    if abs(rhs // denom) != c:
                        raise FlagrootsError("structure-constant magnitude check failed")
                    c = -rhs // denom
                # The three-root identity gives the triple's other pairs.
                u, v = c * norm[a], c * norm[b]
                if u % norm[g] or v % norm[g]:
                    raise FlagrootsError("non-integral structure constant reduction")
                p, q = u // norm[g], -v // norm[g]
                # The sum part keeps the difference part that the triple of max(a, b) < g wrote.
                for i, j, nij in ((a, b, c), (b, a, -c)):
                    rows[i][j] = (g, nij) + (rows[i][j][2:] if rows[i][j] else (n, 0, 0))
                # Raw N(g,-a) = N(a,-g) = q and N(g,-b) = N(b,-g) = p; entries not yet set, as g+a
                # and g+b come later.  f_{-x} = -e_x flips N(g,-a) and N(g,-b) in field 3.
                for j, d, x in ((a, b, q), (b, a, p)):
                    rows[g][j], rows[j][g] = (n, 0, d, -x, x), (n, 0, d, x, x)
        # h_x = sum_i x_i d_i / (|x|^2/2) h_i over the simple coroots.
        if any(m * d % (k // 2) for r, k in zip(pos, norm) for m, d in zip(r, sym)):
            raise FlagrootsError("non-integral coroot coefficient")
        self._coroots = [tuple(m * d // (k // 2) for m, d in zip(r, sym)) for r, k in zip(pos, norm)]
        self._compiled: dict[tuple[int, ...], list] = {}

    # -- queries -----------------------------------------------------

    @_lazy
    def n_map(self) -> dict[tuple[Coeffs, Coeffs], int]:
        """N(x,y) keyed by root tuples over every pair with a root sum, from
        N(-x,-y) = N(x,y) and N(-x,y) = N(x,-y)."""
        roots, n = self.system.roots, self._n
        out = {}
        for i, row in enumerate(self._pairs):
            for j, e in enumerate(row):
                if e is not None:
                    if e[1]:
                        out[(roots[i], roots[j])] = out[(roots[i + n], roots[j + n])] = e[1]
                    if e[3]:
                        out[(roots[i], roots[j + n])] = out[(roots[i + n], roots[j])] = e[3]
        return out

    def n(self, x: Sequence[int], y: Sequence[int]) -> int:
        """N(x,y); zero when x+y is not a root."""
        return self.n_map.get((tuple(x), tuple(y)), 0)

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
    """The system's one table of structure constants, deterministic signs, set on it as _constants; none on
    failure: the first call solves every triple into the table's pair entries, and every later call returns it."""
    with _FIRST_BUILD:
        if not hasattr(system, "_constants"):
            system._constants = StructureConstantTable(system)
    return system._constants


@dataclass
class AlgebraElement:
    """A compact-real-form element in sparse canonical form.

    cartan holds coordinates over sqrt(-1) h_{a_1} .. sqrt(-1) h_{a_l};
    a and b map positive roots to the coefficients of A_root / B_root.
    The elements bracket, the residual and TangentVector.from_coefficients
    build store no zero coefficient and key a and b by the system's stored
    root tuples; the constructor checks neither.  Treated as immutable.
    """

    system: RootSystem
    cartan: tuple[Scalar, ...]
    a: dict[Coeffs, Scalar] = field(default_factory=dict)
    b: dict[Coeffs, Scalar] = field(default_factory=dict)

    @classmethod
    def zero(cls, system: RootSystem) -> "AlgebraElement":
        return cls(system, (0,) * system.rank)

    def is_zero(self) -> bool:
        """Whether every coefficient is 0, a stored 0 included.  Equality is the dataclass's, entry by entry:
        an element that stores a 0 is zero but does not equal zero()."""
        return not any(self.a.values()) and not any(self.b.values()) and not any(self.cartan)


def _numerators(index: dict[Coeffs, int], elem: AlgebraElement):
    """(D, a, b, h): elem's nonzero coefficients as int numerators over their
    common denominator D, a and b keyed by positive-root id and h by Cartan
    index.  Integral Fractions become ints too: no Fraction arithmetic."""
    n = len(index) // 2  # ids n..2n-1 are the negative roots
    for r in chain(elem.a, elem.b):
        if index.get(r, n) >= n:
            raise FlagrootsError(f"{r} is not a positive root key")
    den = lcm(*{c.denominator for c in chain(elem.cartan, elem.a.values(), elem.b.values())})
    num = lambda c: c * den if type(c) is int else c.numerator * (den // c.denominator)  # noqa: E731
    a = {index[r]: num(c) for r, c in elem.a.items()}
    b = {index[r]: num(c) for r, c in elem.b.items()}
    return den, a, b, {k: num(c) for k, c in enumerate(elem.cartan) if c} if any(elem.cartan) else {}


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for den > 0, in value, type, str and hash, with one gcd: the reduced pair is set
    in the two slots of a bare Fraction, as CPython 3.12's Fraction._from_coprime_ints does."""
    g, f = gcd(num, den), object.__new__(Fraction)
    f._numerator, f._denominator = num // g, den // g
    return f


def bracket(table: StructureConstantTable, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket of two real-form elements, exact coefficients: int numerators
    keyed by positive-root id, one lookup in the table's pair entries per pair of
    basis terms, and only the result made of Fractions over the product D of the
    operands' denominators, each built reduced by _fraction (ints when D = 1).
    An operand coefficient that is not an int or a Fraction is refused."""
    system, rows = table.system, table._pairs
    if x.system is not system or y.system is not system:
        raise MixedSystemError("elements do not match the constant table")
    for c in chain(x.cartan, x.a.values(), x.b.values(), y.cartan, y.a.values(), y.b.values()):
        if not (type(c) is int or isinstance(c, Fraction)):
            raise FlagrootsError(f"coefficient {c!r} is not an int or a Fraction")
    (dx, xa, xb, xh), (dy, ya, yb, yh) = _numerators(system.index, x), _numerators(system.index, y)
    # Absent sums and differences add 0 at the spare id n.
    out_a: defaultdict[int, int] = defaultdict(int)
    out_b: defaultdict[int, int] = defaultdict(int)
    out_h = [0] * system.rank
    # [A,A], [B,B] land on A and [A,B], [B,A] on B; sign and sign_d scale
    # the sum and difference terms, read from entry field 1 and field `slot`.
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
        for j, cj in a.items() if hs else ():
            out_b[j] += sign * cj * sum(h * table._pairings[j][k] for k, h in hs.items())
        for j, cj in b.items() if hs else ():
            out_a[j] -= sign * cj * sum(h * table._pairings[j][k] for k, h in hs.items())

    pos, den = system.positive_roots, dx * dy
    cartan = tuple(v if den == 1 else _fraction(v, den) for v in out_h) if any(out_h) else (0,) * len(out_h)
    parts = ({pos[k]: v if den == 1 else _fraction(v, den) for k, v in out.items() if v} for out in (out_a, out_b))
    return AlgebraElement(system, cartan, *parts)


def project_m(pd, x: AlgebraElement) -> AlgebraElement:
    """Projection onto the tangent part: keep the components on R_M+ only."""
    if x.system is not pd.system:
        raise MixedSystemError("element does not match the painted diagram")
    return AlgebraElement(
        x.system,
        (0,) * x.system.rank,
        {r: c for r, c in x.a.items() if pd._m_id(r) is not None},
        {r: c for r, c in x.b.items() if pd._m_id(r) is not None},
    )
