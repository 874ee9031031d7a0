"""Exact arithmetic layer: integration, roots, and rational-function fitting."""

from __future__ import annotations

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logfano.exact import (
    Degenerate,
    IrrationalRoot,
    LinearFractional,
    PiecewisePoly,
    Poly,
    RationalFunction,
    UnsupportedDegree,
    _fraction,
    fit_rational_function,
    integrate,
    integrate_piecewise,
    poly_gcd,
    rat,
    rat_str,
    roots_in_interval,
)

from conftest import gauss_poly, rel_err

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=40)


class TestRationalStrings:
    def test_round_trip(self):
        for text in ["3/4", "-5/3", "0", "7", "-12/35"]:
            assert rat_str(rat(text)) == text

    def test_canonical(self):
        assert rat_str(F(6, -4)) == "-3/2"

    def test_float_rejected(self):
        for bad in (0.1, 0.5, 2.0, float("nan")):
            with pytest.raises(TypeError):
                rat(bad)

    def test_bool_rejected(self):
        # bool is an int to Python: rat(True) was Fraction(1)
        for bad in (True, False):
            with pytest.raises(TypeError, match=r"^bool .* is not a rational"):
                rat(bad)

    @given(rationals)
    def test_parse_inverse(self, x):
        assert rat(rat_str(x)) == x

    def test_results_in_lowest_terms(self):
        val = integrate(Poly.of(F(2, 4), F(6, 8)), 0, F(10, 5))
        assert val == F(5, 2)
        assert math.gcd(val.numerator, val.denominator) == 1 and val.denominator > 0


class TestFractionKernel:
    """_fraction(n, d) is Fraction(n, d) for ints: value, type, repr, hash and parts, or its refusal."""

    big = st.integers(min_value=-10**40, max_value=10**40)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(big, st.integers(-50, 50)), st.one_of(big, st.integers(-50, 50)))
    @example(0, 7)
    @example(0, -7)
    @example(6, -4)
    @example(-10**40, -10**40)
    @example(5, 0)
    @example(0, 0)
    def test_is_fraction_of_the_two_ints(self, n, d):
        if d == 0:
            with pytest.raises(ZeroDivisionError) as want:
                F(n, d)
            with pytest.raises(ZeroDivisionError, match=f"^{re.escape(str(want.value))}$") as got:
                _fraction(n, d)
            assert got.type is want.type and str(got.value) == f"Fraction({n}, 0)"
            return
        got, want = _fraction(n, d), F(n, d)
        assert type(got) is type(want) and got == want and repr(got) == repr(want) and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int


class TestPolyArithmetic:
    """Sums, differences and products skip the public
    constructor's coercion; each must equal what that constructor builds from
    the same coefficients."""

    # zeros make trailing zeros, cancellation and the zero polynomial common
    coeff_lists = st.lists(st.one_of(st.just(F(0)), rationals), max_size=5)

    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, coeff_lists, st.one_of(rationals, st.integers(-9, 9)))
    def test_matches_coercing_constructor(self, a, b, s):
        p, q = Poly(tuple(a)), Poly(tuple(b))
        n = max(len(p.coeffs), len(q.coeffs))
        product = [F(0)] * (len(p.coeffs) + len(q.coeffs))
        for i, x in enumerate(p.coeffs):
            for j, y in enumerate(q.coeffs):
                product[i + j] += x * y
        cases = [
            (p + q, Poly(tuple(p.coeff(k) + q.coeff(k) for k in range(n)))),
            (p - q, Poly(tuple(p.coeff(k) - q.coeff(k) for k in range(n)))),
            (-p, Poly(tuple(-c for c in p.coeffs))),
            (p * s, Poly(tuple(c * s for c in p.coeffs))),
            (s * p, Poly(tuple(c * s for c in p.coeffs))),
            (p * q, Poly(tuple(product))),
            (p - p, Poly()),
        ]
        for got, want in cases:
            assert got == want
            assert all(type(c) is F for c in got.coeffs)
            assert not got.coeffs or got.coeffs[-1] != 0
        assert (p - p).coeffs == () and (p * 0).coeffs == () and (p * Poly()).coeffs == ()


class TestIntegrate:
    def test_power_rule(self):
        assert integrate(Poly.of(0, 0, 1), 0, 1) == F(1, 3)

    def test_conic_volume_piece(self):
        # checked against the float oracle before being frozen here
        p = Poly.of(9, 0, F(-1, 2))
        assert integrate(p, 0, 3) == F(45, 2)
        assert rel_err(F(45, 2), gauss_poly(p, 0, 3)) < 1e-9

    def test_zero_integrand(self):
        assert integrate(Poly(), F(-2), F(7)) == 0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(Poly.of(1), 1, 0)

    @given(st.lists(rationals, min_size=1, max_size=5), rationals, rationals, st.fractions(min_value=0, max_value=1, max_denominator=50))
    def test_additivity(self, coeffs, a, b, s):
        assume(a < b and 0 < s < 1)
        p = Poly(tuple(coeffs))
        c = a + (b - a) * s
        assert integrate(p, a, b) == integrate(p, a, c) + integrate(p, c, b)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=5), rationals, rationals)
    def test_against_quadrature(self, coeffs, a, b):
        assume(a < b)
        p = Poly(tuple(coeffs))
        exact = integrate(p, a, b)
        assume(abs(exact) > F(1, 1000))
        assert rel_err(exact, gauss_poly(p, a, b)) < 1e-6


class TestPiecewise:
    def test_single_piece(self):
        f = PiecewisePoly((F(0), F(1)), (Poly.of(0, 0, 1),))
        assert integrate_piecewise(f) == F(1, 3)

    def test_conic_volume(self):
        f = PiecewisePoly(
            (F(0), F(3), F(6)),
            (Poly.of(9, 0, F(-1, 2)), Poly.of(18, -6, F(1, 2))),
        )
        assert integrate_piecewise(f) == 27
        assert rel_err(27, gauss_poly(f.pieces[0], 0, 3) + gauss_poly(f.pieces[1], 3, 6)) < 1e-9

    def test_split_invariance(self):
        p = Poly.of(2, -3, 5)
        whole = PiecewisePoly((F(0), F(1)), (p,))
        split = PiecewisePoly((F(0), F(1, 2), F(1)), (p, p))
        assert integrate_piecewise(whole) == integrate_piecewise(split)

    def test_left_piece_convention(self):
        f = PiecewisePoly((F(0), F(1), F(2)), (Poly.of(0, 1), Poly.of(1)))
        assert f(1) == 1
        assert f(F(3, 2)) == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PiecewisePoly((F(0), F(0)), (Poly.of(1),))
        with pytest.raises(ValueError):
            PiecewisePoly((F(0), F(1)), ())


class TestRoots:
    def test_linear(self):
        assert roots_in_interval(Poly.of(-3, 1), 0, 10) == [3]

    def test_quadratic(self):
        assert roots_in_interval(Poly.of(6, -5, 1), 0, 10) == [2, 3]

    def test_irrational_in_range(self):
        with pytest.raises(IrrationalRoot):
            roots_in_interval(Poly.of(-2, 0, 1), 0, 10)

    def test_irrational_out_of_range_ignored(self):
        assert roots_in_interval(Poly.of(-2, 0, 1), 2, 10) == []
        assert roots_in_interval(Poly.of(1, 0, F(-1, 6)), 0, 2) == []

    def test_double_root(self):
        assert roots_in_interval(Poly.of(4, -4, 1), 0, 10) == [2]

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegree):
            roots_in_interval(Poly.of(0, 0, 0, 1), 0, 1)

    def test_endpoints_inclusive(self):
        assert roots_in_interval(Poly.of(-3, 1), 3, 4) == [3]


class TestRationalFunction:
    def test_canonical_form(self):
        rf = RationalFunction.from_coeffs((15, -18), (15, -20))
        assert rf == RationalFunction.from_coeffs((F(15, 7), F(-18, 7)), (F(15, 7), F(-20, 7)))
        assert rf.den.coeffs[-1] == 1

    def test_gcd_reduction(self):
        rf = RationalFunction.from_coeffs((3, -6), (3, -3))
        assert rf == RationalFunction.from_coeffs((1, -2), (1, -1))

    def test_format(self):
        assert RationalFunction.from_coeffs((15, -18), (15, -15)).format() == "(5-6l)/(5-5l)"
        assert RationalFunction.from_coeffs((1,), (1,)).format() == "1"

    def test_poly_gcd(self):
        a = Poly.of(-2, 1) * Poly.of(3, 1)
        b = Poly.of(-2, 1) * Poly.of(5, 2)
        assert poly_gcd(a, b) == Poly.of(-2, 1)


parts = st.tuples(*[st.one_of(st.just(F(0)), rationals)] * 4)


def _forms(parts):
    """(RationalFunction, LinearFractional) of (a + b*l)/(c + e*l)."""
    a, b, c, e = parts
    return RationalFunction.from_coeffs((a, b), (c, e)), LinearFractional.from_coeffs((a, b), (c, e))


class TestLinearFractional:
    """exact.LinearFractional against RationalFunction, its reference on parts of degree <= 1."""

    @settings(max_examples=300, deadline=None)
    @given(parts, rationals)
    @example((F(2), F(2), F(3), F(3)), F(-1))  # proportional parts: the constant 2/3, no pole at -1
    @example((F(0), F(0), F(1), F(5)), F(0))  # the zero form
    @example((F(1), F(2), F(0), F(0)), F(0))  # zero denominator
    @example((F(1), F(2), F(3), F(-6)), F(1, 2))  # a pole
    @example((F(-3, 2), F(1), F(0), F(-2, 3)), F(1))  # denominator e*l with e < 0
    def test_value_pole_format_and_degrees_are_the_rational_functions(self, parts, x):
        if parts[2] == parts[3] == 0:
            for build in (RationalFunction.from_coeffs, LinearFractional.from_coeffs):
                with pytest.raises(ZeroDivisionError):
                    build(parts[:2], parts[2:])
            return
        rf, lf = _forms(parts)
        assert all(type(v) is int for v in (lf.a, lf.b, lf.c, lf.e))
        assert math.gcd(lf.a, lf.b, lf.c, lf.e) == 1 and (lf.c > 0 or lf.c == 0 and lf.e > 0)
        assert (lf.num_degree, lf.den_degree) == (rf.num.degree, rf.den.degree)
        assert lf.format() == rf.format() and lf.format("λ") == rf.format("λ")
        if rf.den(x) == 0:
            for form in (rf, lf):
                with pytest.raises(ZeroDivisionError, match=f"^pole at {x}$"):
                    form(x)
        else:
            value = lf(x)
            assert type(value) is F and value == rf(x)

    @settings(max_examples=300, deadline=None)
    @given(parts, parts, st.booleans(), rationals)
    @example((F(2), F(2), F(3), F(3)), (F(4), F(0), F(6), F(0)), False, F(1))  # one constant, two ways
    @example((F(0), F(0), F(1), F(0)), (F(0), F(0), F(-2), F(7)), False, F(1))  # zero, two ways
    def test_equal_exactly_when_the_rational_functions_are(self, first, second, scaled, k):
        if scaled:  # the same function, every coefficient times k
            assume(k != 0)
            second = tuple(k * x for x in first)
        assume(first[2:] != (0, 0) and second[2:] != (0, 0))
        (rf1, lf1), (rf2, lf2) = _forms(first), _forms(second)
        assert (lf1 == lf2) == (rf1 == rf2)
        if lf1 == lf2:
            assert hash(lf1) == hash(lf2)

    def test_normal_form(self):
        assert LinearFractional(30, -36, 30, -40) == LinearFractional(15, -18, 15, -20)
        assert (LinearFractional(-2, 4, 0, -6).a, LinearFractional(-2, 4, 0, -6).e) == (1, 3)
        constant = LinearFractional(2, 2, 3, 3)
        assert (constant.a, constant.b, constant.c, constant.e) == (2, 0, 3, 0)
        assert constant.format() == "2/3" and LinearFractional(0, 0, -5, 1).format() == "0"

    def test_degree_above_one_is_refused(self):
        assert LinearFractional.from_coeffs((1, 2, 0), (3,)) == LinearFractional(1, 2, 3, 0)
        with pytest.raises(ValueError, match=r"^degrees \(2, 0\) above 1: not a linear-fractional form$"):
            LinearFractional.from_coeffs((1, 0, 1), (3,))
        with pytest.raises(ValueError, match=r"^degrees \(0, 2\) above 1: not a linear-fractional form$"):
            LinearFractional.from_coeffs((1,), (1, 0, 1))


class TestFit:
    def test_main_theorem_line_form(self):
        target = RationalFunction.from_coeffs((3, -3), (3, -1))
        xs = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1, 8)]
        rf = fit_rational_function([(x, target(x)) for x in xs], 1, 1)
        assert rf == target

    def test_constant(self):
        rf = fit_rational_function([(F(k, 7), F(1)) for k in range(4)], 0, 0)
        assert rf == RationalFunction.from_coeffs((1,), (1,))

    def test_derived_form(self):
        # samples computed by hand from (5-6l)/(5-5l)
        samples = [
            (F(0), F(1)),
            (F(1, 2), F(4, 5)),
            (F(1, 3), F(9, 10)),
            (F(1, 5), F(19, 20)),
            (F(2, 3), F(3, 5)),
        ]
        rf = fit_rational_function(samples, 1, 1)
        assert rf == RationalFunction.from_coeffs((5, -6), (5, -5))

    def test_no_fit_when_bounds_too_small(self):
        target = RationalFunction.from_coeffs((1, 0, 1), (1,))
        xs = [F(k, 5) for k in range(5)]
        with pytest.raises((ValueError, Degenerate)):
            fit_rational_function([(x, target(x)) for x in xs], 1, 1)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_rational_function([(F(0), F(1)), (F(1), F(2))], 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=2, max_size=3),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=2, max_size=3),
    )
    def test_round_trip_property(self, num, den):
        num_p, den_p = Poly(tuple(num)), Poly(tuple(den))
        assume(not num_p.is_zero and not den_p.is_zero)
        target = RationalFunction(num_p, den_p)
        nd, dd = max(target.num.degree, 0), max(target.den.degree, 0)
        xs = [F(k, 17) for k in range(nd + dd + 5)]
        assume(all(target.den(x) != 0 for x in xs))
        samples = [(x, target(x)) for x in xs[: nd + dd + 2]]
        rf = fit_rational_function(samples, nd, dd)
        assert rf == target
        for x in xs[nd + dd + 2 :]:
            assert rf(x) == target(x)
