"""The types of the kernels' exact result coefficients.

A residual or bracket over a denominator den > 1 has only Fractions in
lowest terms with a positive denominator, integral values and the zeros of
a nonzero Cartan part included; over den = 1 it has only ints.  Each
fractional result is checked against the same call on integral operands,
which gives ints: by (bi)linearity its coefficients are Fraction(v, den),
v the integral result's coefficients, in value, type, str and hash.
"""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from flagroots import AlgebraElement, MetricVector, TangentVector, bracket, build_constants, chevalley
from flagroots import equigeodesic_residual

SPACES = ("F4_34", "E8_12")
BIG = 2 ** 4096


@st.composite
def _ratios(draw):
    """(n, d), d >= 1, with n zero, small, a multiple of d, or of up to about 4,000 bits."""
    d = draw(st.one_of(st.integers(1, 1000), st.integers(1, BIG)))
    n = draw(st.one_of(st.just(0), st.integers(-1000, 1000), st.integers(-BIG, BIG),
                       st.integers(-1000, 1000).map(lambda k: k * d)))
    return n, d


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_ratios())
@example((0, 1))
@example((0, 12))
@example((-6, 4))
@example((12, 4))
@example((-(3 ** 2500), 3 ** 1500 * 2 ** 40))
@example((2 ** 5000 + 1, 1))
def test_fraction_helper_is_fraction(case):
    n, d = case
    got, want = chevalley._fraction(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == want and str(got) == str(want) and repr(got) == repr(want) and hash(got) == hash(want)
    assert got.as_integer_ratio() == want.as_integer_ratio() == (want.numerator, want.denominator)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is Fraction and back == want and str(back) == str(want) and hash(back) == hash(want)
    other = Fraction(-3, 7)
    for op in (lambda u: u + other, lambda u: u - 1, lambda u: u * other, lambda u: u / other, lambda u: -u,
               abs, int, lambda u: u // 1, lambda u: u < other, lambda u: u ** 2):
        assert op(got) == op(want)


def _assert_reduced(c, v, den):
    """c is Fraction(v, den) in value, type, str and hash, in lowest terms with a positive denominator."""
    want = Fraction(v, den)
    assert type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    assert c == want and str(c) == str(want) and hash(c) == hash(want)


def _signed(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 9)


@pytest.mark.parametrize("sid", SPACES)
def test_residual_coefficients_are_reduced_fractions(diagrams, sid):
    # A dense vector over 1, 2 or 6 and a metric over 1, 3 or 4, so D^2 L is
    # 1, 3, 4 or 144: against the residual of the integral vector under the
    # integral metric, which is that of X under Lambda times D^2 L.
    pd = diagrams[sid]
    table, rng, n = build_constants(pd.system), random.Random(f"result-types:{sid}"), len(pd.isotropy_decomposition())
    ints = [{r: _signed(rng) for r in pd.r_m_pos} for _ in "ab"]
    lam = tuple(rng.randint(1, 30) for _ in range(n))
    whole = equigeodesic_residual(table, pd, TangentVector.from_coefficients(pd, *ints), MetricVector(lam))
    assert whole.a and whole.b and all(type(v) is int for v in (*whole.a.values(), *whole.b.values(), *whole.cartan))
    integral = 0
    for dscale, lscale in ((2, 1), (1, 3), (6, 4)):
        x = TangentVector.from_coefficients(pd, *({r: Fraction(c, dscale) for r, c in p.items()} for p in ints))
        got = equigeodesic_residual(table, pd, x, MetricVector(tuple(Fraction(v, lscale) for v in lam)))
        assert got.a.keys() == whole.a.keys() and got.b.keys() == whole.b.keys()
        assert got.cartan == (0,) * pd.system.rank
        for mine, theirs in ((got.a, whole.a), (got.b, whole.b)):
            for r, c in mine.items():
                _assert_reduced(c, theirs[r], dscale * dscale * lscale)
                integral += c.denominator == 1
    assert integral  # some values are integral and still Fractions


def _element(rng, system, scale):
    """A dense element, Cartan part included, with int numerators over scale (an int element at 1)."""
    part = lambda: {r: Fraction(_signed(rng), scale) if scale > 1 else _signed(rng)  # noqa: E731
                    for r in system.positive_roots}
    return AlgebraElement(system, tuple(Fraction(_signed(rng), scale) if scale > 1 else _signed(rng)
                                        for _ in range(system.rank)), part(), part())


def _integral(elem, scale):
    return AlgebraElement(elem.system, tuple(int(c * scale) for c in elem.cartan),
                          *({r: int(c * scale) for r, c in p.items()} for p in (elem.a, elem.b)))


@pytest.mark.parametrize("sid", SPACES)
def test_bracket_coefficients_are_reduced_fractions(diagrams, sid):
    system = diagrams[sid].system
    table, rng = build_constants(system), random.Random(f"bracket-result-types:{sid}")
    for sx, sy in ((1, 1), (2, 1), (6, 35)):
        x, y = _element(rng, system, sx), _element(rng, system, sy)
        whole = bracket(table, _integral(x, sx), _integral(y, sy))
        got = bracket(table, x, y)
        assert all(type(v) is int for v in (*whole.a.values(), *whole.b.values(), *whole.cartan))
        if sx * sy == 1:
            assert got == whole and all(type(v) is int for v in (*got.a.values(), *got.b.values(), *got.cartan))
            continue
        assert got.a.keys() == whole.a.keys() and got.b.keys() == whole.b.keys() and any(got.cartan)
        cartans = dict(enumerate(got.cartan)), dict(enumerate(whole.cartan))
        for mine, theirs in ((got.a, whole.a), (got.b, whole.b), cartans):
            for k, c in mine.items():
                _assert_reduced(c, theirs[k], sx * sy)
    # [1/2 A_a, 2 A_b + B_a], a the first simple root and a + b a root: over
    # D = 2, every value is integral, and the Cartan part, the coroot of a, has zeros.
    a = system.positive_roots[0]
    b = next(r for r in system.positive_roots if tuple(map(sum, zip(a, r))) in system.index)
    zero = (0,) * system.rank
    got = bracket(table, AlgebraElement(system, zero, {a: Fraction(1, 2)}),
                  AlgebraElement(system, zero, {b: 2}, {a: 1}))
    coeffs = (*got.a.values(), *got.b.values(), *got.cartan)
    assert got.a and 0 in got.cartan and all(type(c) is Fraction and c.denominator == 1 for c in coeffs)
    assert got.cartan == tuple(Fraction(h) for h in oracles.coroot(system, a))
