"""The integer inner loops of the exact core against plain-Fraction references.

Poly evaluation, multiplication and integration, pair, pair_curve and
delta.binding sum or compare on integers over a common denominator.  Each
reference below is the Fraction loop they replace, kept here as the oracle:
Horner's rule, the convolution, the antiderivative, the naive bilinear sum
and the per-end minimum of the ratio lines.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfano.catalog import CASES
from logfano.delta import Ratio, RatioTable, _minimizer_names, binding
from logfano.exact import Poly, integrate
from logfano.surface import DivisorExpr, ModelMismatch, SurfaceModel, pair, pair_curve

# ---------------------------------------------------------------------------
# Plain-Fraction references
# ---------------------------------------------------------------------------


def horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def convolution(a, b):
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def antiderivative_integral(coeffs, a, b):
    anti = [F(0)] + [c / (k + 1) for k, c in enumerate(coeffs)]
    return horner(anti, b) - horner(anti, a)


def bilinear_pair(model, d1, d2):
    """The sum over (ambient, *curves) x (ambient, *curves) of table entry times coefficient product."""
    table = [[model.ambient_self, *model.ambient_pairings]]
    table += [[p, *row] for p, row in zip(model.ambient_pairings, model.gram)]
    out = []
    for x, row in zip((d1.ambient, *d1.coeffs), table):
        for y, g in zip((d2.ambient, *d2.coeffs), row):
            for k, c in enumerate(convolution(x.coeffs, y.coeffs)):
                out += [F(0)] * (k + 1 - len(out))
                out[k] += c * g
    while out and out[-1] == 0:
        out.pop()
    if len(out) > 3:
        raise AssertionError("pairing of affine families must have degree <= 2")
    return tuple(out)


def per_end_binding(table, lo, hi):
    """delta.binding with Fraction lines: the lines least at lo and least at hi."""

    def lines(ratios):
        return {r.label: (r.a / r.s, r.b / r.s) for r in ratios}

    def least(lines):
        at_lo, at_hi = (min(a + b * x for a, b in lines.values()) for x in (lo, hi))
        return [label for label, (a, b) in lines.items() if a + b * lo == at_lo and a + b * hi == at_hi]

    lower, upper = lines((table.e, *(ratio for _, _, ratio in table.rows))), lines((table.e, *table.curves))
    low, up = least(lower), least(upper)
    return lower[low[0]] if low else None, upper[up[0]] if up else None, _minimizer_names(low)


# ---------------------------------------------------------------------------
# Strategies: zeros, negatives and large denominators
# ---------------------------------------------------------------------------

small = st.builds(F, st.integers(-400, 400), st.integers(1, 40))
huge = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30))
rationals = st.one_of(st.just(F(0)), small, huge)
coeff_lists = st.lists(rationals, max_size=5)


class TestPolyKernels:
    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, rationals)
    @example([F(0), F(-3, 7), F(1, 10**30)], F(-(10**30), 7))
    def test_call_is_horner(self, coeffs, x):
        got = Poly(tuple(coeffs))(x)
        assert got == horner(coeffs, x) and type(got) is F

    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, coeff_lists)
    @example([F(1, 3), F(-1, 2)], [F(0), F(0), F(2, 3)])
    @example([F(2), F(-2)], [F(1, 2), F(1, 2)])  # (1 - x)(1 + x): the middle term cancels
    def test_mul_is_the_convolution(self, a, b):
        got = Poly(tuple(a)) * Poly(tuple(b))
        assert got == Poly(tuple(convolution(a, b)))
        assert all(type(c) is F for c in got.coeffs) and (not got.coeffs or got.coeffs[-1] != 0)

    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, rationals, rationals)
    @example([F(5, 3), F(0), F(-7, 2)], F(-1, 10**20), F(1, 10**20))
    def test_integrate_is_the_antiderivative_difference(self, coeffs, a, b):
        a, b = min(a, b), max(a, b)
        got = integrate(Poly(tuple(coeffs)), a, b)
        assert got == antiderivative_integral(coeffs, a, b) and type(got) is F

    def test_integrate_refuses_an_empty_interval(self):
        with pytest.raises(ValueError):
            integrate(Poly.of(1, 2), F(1, 3), F(1, 4))


@st.composite
def models(draw):
    """A catalog model, or a random symmetric table of 1-4 curves with E first."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted({spec.model for spec in CASES.values()}, key=repr)))
    n = draw(st.integers(1, 4))
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(rationals)
    names = ("E", "L", "M", "N")[:n]
    return SurfaceModel(names, tuple(map(tuple, gram)), draw(rationals), tuple(draw(rationals) for _ in names))


def divisors(model, max_degree):
    poly = st.lists(rationals, max_size=max_degree + 1).map(lambda cs: Poly(tuple(cs)))
    curves = st.lists(poly, min_size=len(model.curves), max_size=len(model.curves))
    return st.builds(lambda amb, cs: DivisorExpr(model, amb, tuple(cs)), poly, curves)


class TestPairKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pair_is_the_bilinear_sum(self, data):
        model = data.draw(models())
        # degree-2 coefficients make some products of degree 3 or 4: both sides must refuse those
        d1, d2 = data.draw(divisors(model, 2)), data.draw(divisors(model, 2))
        try:
            want = bilinear_pair(model, d1, d2)
        except AssertionError:
            with pytest.raises(AssertionError, match="degree <= 2"):
                pair(model, d1, d2)
        else:
            got = pair(model, d1, d2)
            assert got.coeffs == want and all(type(c) is F for c in got.coeffs)

    def test_pair_of_degree_above_2_raises(self):
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))
        square = DivisorExpr.build(model, Poly.of(0, 0, F(1, 3)))
        with pytest.raises(AssertionError):
            bilinear_pair(model, square, square)
        with pytest.raises(AssertionError, match="degree <= 2"):
            pair(model, square, square)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pair_curve_is_pair_with_a_unit_divisor(self, data):
        model = data.draw(models())
        d = data.draw(divisors(model, 2))
        for name in model.curves:
            unit = DivisorExpr.build(model, Poly(), {name: Poly.const(1)})
            assert pair_curve(model, d, name) == pair(model, d, unit) == pair(model, unit, d)

    def test_pair_curve_checks_model_and_name(self):
        spec, other = CASES["A2"], CASES["smooth_conic"]
        d = DivisorExpr.zero(spec.model)
        with pytest.raises(ModelMismatch):
            pair_curve(other.model, d, "E")
        with pytest.raises(KeyError):
            pair_curve(spec.model, d, "Z")


# a small pool of lines and ends, so that ties at one end or both are common
pool = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3, 2)]), rationals)
positive = st.one_of(st.sampled_from([F(1), F(1, 3), F(2)]), st.builds(F, st.integers(1, 10**12), st.integers(1, 10**12)))


@st.composite
def tables(draw):
    def ratio(label):
        return Ratio(label, draw(pool), draw(pool), draw(positive))

    rows = []
    for variant in ("v1", "v2")[: draw(st.integers(1, 2))]:
        for point in draw(st.lists(st.sampled_from("PQR"), unique=True, max_size=3)):
            rows.append((variant, point, ratio(f"{variant}:{point}")))
        rows.append((variant, "generic", ratio("generic")))
    curves = tuple(ratio(f"curve(e={e},l=1)") for e in range(1, draw(st.integers(1, 3))))
    return RatioTable(F(1), ratio("E"), tuple(rows), curves, {})


class TestBindingKernel:
    @settings(max_examples=150, deadline=None)
    @given(tables(), pool, pool)
    def test_binding_is_the_per_end_minimum(self, table, lo, hi):
        assert binding(table, lo, hi) == per_end_binding(table, lo, hi)

    def test_catalog_tables_on_their_intervals_and_at_0(self):
        for spec in CASES.values():
            for row in spec.rows:
                for lo, hi in ((row.lo, row.hi), (F(0), F(0)), (F(0), row.hi), (row.hi, row.hi)):
                    assert binding(spec.ratio_table, lo, hi) == per_end_binding(spec.ratio_table, lo, hi)
