"""The integer inner loops of the exact core against plain-Fraction references.

Poly evaluation, multiplication, integration and formatting, delta._least, the
quadratic formula and the location of an irrational root, the support
solve and support growth of the Zariski decomposition, the
decomposition's invariant checks, its S-integrals and verify's homogeneity
comparison, and the closed form's reduction run on integers over a common
denominator.  Each reference below is the Fraction loop they replace, kept
here as the oracle: Horner's rule, the convolution, the antiderivative, the
Fraction format, the naive bilinear sum, the per-end minimum of the ratio
lines, the quadratic formula with a rational square root (and, for an
irrational one, each comparison with a root made through its square),
Gaussian elimination with Sylvester's minors, the Fraction support growth,
the Poly checks and integrals of tests/oracles.py and the polynomial gcd.
The engine's pieces are integer rows; the oracles read them as DivisorExprs
through oracles.exprs and pair them through surface.pair, itself checked
here against the naive bilinear sum.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logfano.catalog import CASES
from logfano.delta import Ratio, RatioTable, _minimizer_names, _over_t, integrated_s_invariants
from logfano.exact import (
    IrrationalRoot,
    Poly,
    RationalFunction,
    UnsupportedDegree,
    _integers,
    _root_pairs,
    _quadratic_has_root_in,
    _roots,
    integrate,
    is_negative_definite,
    poly_divmod,
    poly_gcd,
    rational_roots,
    roots_in_interval,
    solve_linear,
)
from logfano.surface import (
    DivisorExpr,
    IndefiniteSupport,
    ModelMismatch,
    NotPseudoEffective,
    SurfaceModel,
    Unbounded,
    ZariskiPieces,
    _integer_divisor,
    _solve_support,
    flag_family,
    invariant_violations,
    pair,
    pair_curve,
    zariski_decompose,
)
from logfano.verify import _is_scaled, _probe_lambda
from oracles import (
    difference,
    divisor_expr,
    exprs,
    least_lines,
    poly_family,
    poly_invariant_violations,
    poly_s_invariants,
    rows,
    scaled,
)

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


def fraction_format(coeffs, var):
    """Poly.format on Fractions: each term from abs(c), its numerator and denominator."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            vpart = var if k == 1 else f"{var}^{k}"
            if mag == 1:
                term = vpart
            elif mag.denominator == 1:
                term = f"{mag}{vpart}"
            elif mag.numerator == 1:
                term = f"{vpart}/{mag.denominator}"
            else:
                term = f"{mag.numerator}{vpart}/{mag.denominator}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+{term}" if c > 0 else f"-{term}")
    return "".join(parts) or "0"


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


def gcd_reduced(num, den):
    """(num, den) in lowest terms with a monic den: divided by their polynomial gcd, then scaled."""
    if num.is_zero:
        return Poly(), Poly.const(1)
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    scale = 1 / den.coeffs[-1]
    return num * scale, den * scale


def monic_parts(lf):
    """The (num, den) Polys of a LinearFractional scaled to a monic den, as gcd_reduced gives them."""
    lead = lf.e or lf.c
    return Poly.affine(F(lf.a, lead), F(lf.b, lead)), Poly.affine(F(lf.c, lead), F(lf.e, lead))


def per_end_least_lines(table, lo, hi):
    """oracles.least_lines with Fraction lines: the lines least at lo and least at hi."""

    def lines(ratios):
        return {r.label: (r.a / r.s, r.b / r.s) for r in ratios}

    def least(lines):
        at_lo, at_hi = (min(a + b * x for a, b in lines.values()) for x in (lo, hi))
        return [label for label, (a, b) in lines.items() if a + b * lo == at_lo and a + b * hi == at_hi]

    lower, upper = lines((table.e, *(ratio for _, _, ratio in table.rows))), lines((table.e, *table.curves))
    low, up = least(lower), least(upper)
    return lower[low[0]] if low else None, upper[up[0]] if up else None, _minimizer_names(low)


def quadratic_formula_roots(p):
    """rational_roots with the quadratic formula on Fractions and a rational square root."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    if p.degree > 2:
        raise UnsupportedDegree(f"degree {p.degree} > 2")
    if p.degree == 0:
        return []
    if p.degree == 1:
        return [-p.coeff(0) / p.coeff(1)]
    c, b, a = p.coeff(0), p.coeff(1), p.coeff(2)
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        raise IrrationalRoot(f"irrational roots of {p.format()}")
    root = F(rn, rd)
    return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})


def irrational_root_in(p, a, b):
    """Whether a root (-q -+ sqrt(disc))/(2k) of the quadratic p = c + q*x + k*x^2, k > 0 and disc
    not a rational square, lies in [a, b]: the root is >= x iff -+sqrt(disc) >= 2k*x + q, and each
    such comparison with the square root is decided by squaring."""
    c, q, k = p.coeffs if p.coeff(2) > 0 else (-p).coeffs
    disc = q * q - 4 * k * c

    def root_exceeds(y):  # sqrt(disc) > y; never equal
        return y < 0 or disc > y * y

    for sign in (-1, 1):
        # the root minus x has the sign of sign*sqrt(disc) - (2k*x + q)
        at_least = root_exceeds if sign > 0 else (lambda y: not root_exceeds(-y))
        if at_least(2 * k * a + q) and not at_least(2 * k * b + q):
            return True
    return False


def quadratic_formula_roots_in(p, a, b):
    """roots_in_interval over quadratic_formula_roots and irrational_root_in."""
    try:
        roots = quadratic_formula_roots(p)
    except IrrationalRoot:
        if irrational_root_in(p, a, b):
            raise
        return []
    return [r for r in roots if a <= r <= b]


def fraction_solve_support(model, d, support):
    """The support solve on Fractions: Sylvester's minors, then one elimination per right-hand side."""
    if not support:
        return d, DivisorExpr.zero(model)
    idx = [model.index(name) for name in support]
    gram = [[model.gram[i][j] for j in idx] for i in idx]
    if not is_negative_definite(gram):
        raise IndefiniteSupport(f"support {support} has non negative-definite Gram matrix")
    rhs = [pair_curve(model, d, name) for name in support]
    c0 = solve_linear(gram, [r.coeff(0) for r in rhs])
    c1 = solve_linear(gram, [r.coeff(1) for r in rhs])
    n = DivisorExpr.build(model, Poly(), {name: Poly.affine(c0[k], c1[k]) for k, name in enumerate(support)})
    return difference(d, n), n


def fraction_grow(model, d):
    """Support growth on Polys over Fractions, the roots by the quadratic formula."""
    for name in model.curves:
        if pair_curve(model, d, name).coeff(0) < 0:
            raise NotPseudoEffective(f"D(0) pairs negatively with {name}")
    v, support = F(0), ()
    breakpoints, positives, negatives, supports = [F(0)], [], [], []
    for _ in range(len(model.curves) + 1):
        p, n = fraction_solve_support(model, d, support)
        outside = {name: pair_curve(model, p, name) for name in model.curves if name not in support}
        entering = [name for name, f in outside.items() if f(v) == 0 and f.coeff(1) < 0]
        if entering:
            support = support + tuple(entering)
            continue
        vol = pair(model, p, p)
        crossings = []
        for name, f in outside.items():
            if f.degree == 1:
                root = -f.coeff(0) / f.coeff(1)
                if f.coeff(1) < 0 and root > v:
                    crossings.append((root, name))
        cross_v = min((r for r, _ in crossings), default=None)
        if cross_v is None:
            vol_hits = [r for r in quadratic_formula_roots(vol) if r >= v]
            if not vol_hits:
                raise Unbounded("volume never reaches zero and no curve enters the support")
        else:
            vol_hits = quadratic_formula_roots_in(vol, v, cross_v)
        positives.append(p)
        negatives.append(n)
        supports.append(support)
        if vol_hits:
            breakpoints.append(min(vol_hits))
            return ZariskiPieces(model, tuple(breakpoints), tuple(positives), tuple(negatives), tuple(supports))
        breakpoints.append(cross_v)
        support = support + tuple(name for r, name in crossings if r == cross_v)
        v = cross_v
    raise AssertionError("support grew beyond the curve count")


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError, AssertionError) as exc:
        return type(exc), str(exc)


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

    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, st.sampled_from(["v", "l", "λ"]))
    @example([F(0), F(-1), F(1, 2), F(-3, 4)], "l")
    @example([F(5, 3), F(0), F(-7, 2), F(0)], "v")
    def test_format_is_the_fraction_format(self, coeffs, var):
        assert Poly(tuple(coeffs)).format(var) == fraction_format(coeffs, var)

    def test_integrate_refuses_an_empty_interval(self):
        with pytest.raises(ValueError):
            integrate(Poly.of(1, 2), F(1, 3), F(1, 4))


catalog_models = sorted({spec.model for spec in CASES.values()}, key=repr)


@st.composite
def models(draw):
    """A catalog model, or a random symmetric table of 1-4 curves with E first."""
    if draw(st.booleans()):
        return draw(st.sampled_from(catalog_models))
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
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pair_is_the_bilinear_sum(self, data):
        model = data.draw(models())
        # affine divisors always pair; degree-2 coefficients make some products of degree 3 or 4,
        # which both sides must refuse
        degree = data.draw(st.integers(1, 2))
        d1, d2 = data.draw(divisors(model, degree)), data.draw(divisors(model, degree))
        for a, b in ((d1, d2), (d2, d1), (d1, d1)):
            try:
                want = bilinear_pair(model, a, b)
            except AssertionError:
                with pytest.raises(AssertionError, match="degree <= 2"):
                    pair(model, a, b)
            else:
                got = pair(model, a, b)
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
    return RatioTable(F(1), ratio("E"), tuple(rows), curves)


class TestLeastLinesKernel:
    @settings(max_examples=150, deadline=None)
    @given(tables(), pool, pool)
    def test_least_lines_are_the_per_end_minimum(self, table, lo, hi):
        assert least_lines(table, lo, hi) == per_end_least_lines(table, lo, hi)

    def test_catalog_tables_on_their_intervals_and_at_0(self):
        for spec in CASES.values():
            for row in spec.rows:
                for lo, hi in ((row.lo, row.hi), (F(0), F(0)), (F(0), row.hi), (row.hi, row.hi)):
                    assert least_lines(spec.ratio_table, lo, hi) == per_end_least_lines(spec.ratio_table, lo, hi)


# ---------------------------------------------------------------------------
# Zariski decomposition: roots, the support solve, support growth
# ---------------------------------------------------------------------------

small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def quadratics(draw):
    """A polynomial of degree <= 3, often k*(x - r1)*(x - r2) so that rational roots are common."""
    if draw(st.booleans()):
        k, r1, r2 = draw(st.one_of(small_rationals, huge).filter(bool)), draw(small_rationals), draw(rationals)
        return Poly.of(k * r1 * r2, -k * (r1 + r2), k)
    return Poly(tuple(draw(st.lists(st.one_of(small_rationals, rationals), max_size=4))))


@st.composite
def located_quadratics(draw):
    """(p, a, b): a quadratic and an interval with one end at a rational root or at the vertex, or
    within 10^-k of an irrational root on either side, the other end anywhere or near the other root;
    p scaled by a small or a huge rational."""
    kind = draw(st.sampled_from(("root", "vertex", "near")))
    if kind == "root":
        r1, r2 = draw(rationals), draw(rationals)
        p = Poly.of(r1 * r2, -(r1 + r2), 1)
        ends = [draw(st.sampled_from([r1, r2])), draw(st.sampled_from([r1, r2]) | rationals)]
    elif kind == "vertex":
        c, q, k = draw(rationals), draw(rationals), draw(rationals.filter(bool))
        p = Poly.of(c, q, k)
        ends = [-q / (2 * k), draw(rationals)]
    else:  # shift -+ sqrt(m)/den, irrational
        m = draw(st.integers(2, 10**9).filter(lambda m: math.isqrt(m) ** 2 != m))
        shift, den = draw(rationals), draw(st.integers(1, 10**12))
        p = Poly.of(shift * shift - F(m, den * den), -2 * shift, 1)

        def near_root():  # within 10^-k of a root, below or above it
            k = draw(st.integers(0, 30))
            below = F(math.isqrt(m * 10 ** (2 * k)), 10**k)  # < sqrt(m) < below + 10^-k
            return shift + draw(st.sampled_from([-1, 1])) * draw(st.sampled_from([below, below + F(1, 10**k)])) / den

        ends = [near_root(), draw(st.one_of(st.builds(near_root), rationals))]
    return p * draw(st.one_of(small_rationals, huge).filter(bool)), min(ends), max(ends)


@st.composite
def root_pair_cases(draw):
    """(ints, lo, hi): integer coefficients of a linear or a quadratic, often with a rational or a double
    root at an end, or an irrational root near one (from quadratics and located_quadratics), and ends as
    integer pairs, unreduced by a drawn factor; hi is None (open above) or the upper end."""
    kind = draw(st.sampled_from(("located", "any", "linear", "double")))
    if kind == "located":
        p, a, b = draw(located_quadratics())
    else:
        if kind == "any":
            p = draw(quadratics())
        elif kind == "linear":
            p = Poly.of(draw(rationals), draw(small_rationals.filter(bool)))
        else:
            r = draw(small_rationals)
            p = Poly.of(r * r, -2 * r, 1) * draw(small_rationals.filter(bool))
        r = quadratic_roots_or_zero(p)
        a, b = sorted([draw(st.sampled_from([r, r + F(1, 7), r - F(1, 7)])), draw(small_rationals)])
    ints = tuple(_integers(p.coeffs)[0]) if p.coeffs else (0,)

    def pair(x):
        k = draw(st.integers(1, 3))
        return x.numerator * k, x.denominator * k

    return ints, pair(a), draw(st.sampled_from([None, pair(b)]))


def quadratic_roots_or_zero(p):
    """A rational root of p when it has one, else 0: an end for root_pair_cases to sit on."""
    try:
        return min(quadratic_formula_roots(p), default=F(0))
    except (ValueError, ArithmeticError):
        return F(0)


class TestRootKernels:
    @settings(max_examples=200, deadline=None)
    @given(quadratics(), small_rationals, small_rationals)
    @example(Poly.of(1, 0, F(-6, 7)), F(0), F(2))  # the pinned fault detail "irrational roots of 1-6v^2/7"
    @example(Poly.of(F(9, 4), -3, 1), F(0), F(1))  # a double root
    @example(Poly(), F(0), F(1))
    def test_rational_roots_is_the_quadratic_formula(self, p, a, b):
        a, b = min(a, b), max(a, b)
        assert outcome(rational_roots, p) == outcome(quadratic_formula_roots, p)
        assert outcome(roots_in_interval, p, a, b) == outcome(quadratic_formula_roots_in, p, a, b)

    @settings(max_examples=300, deadline=None)
    @given(located_quadratics())
    @example((Poly.of(6, -5, 1), F(2), F(5, 2)))  # a root at a
    @example((Poly.of(6, -5, 1), F(5, 2), F(3)))  # a root at b
    @example((Poly.of(F(9, 4), -3, 1), F(3, 2), F(2)))  # the double root, at the vertex
    @example((Poly.of(-2, 0, 1), F(0), F(1)))  # the vertex at a, both roots outside
    @example((Poly.of(-2, 0, 1), F(-1), F(1)))  # the vertex inside, both ends negative
    @example((Poly.of(-2, 0, 1), F(14143, 10000), F(2)))  # sqrt(2) just below a
    @example((Poly.of(-2, 0, 1), F(1), F(14142, 10000)))  # sqrt(2) just above b
    @example((Poly.of(-2, 0, 1), F(-14142, 10000), F(14142, 10000)))  # both roots just outside
    @example((Poly.of(-2, 0, 1), F(-14143, 10000), F(14143, 10000)))  # both just inside
    @example((Poly.of(F(-2, 10**30), 0, F(1, 10**30)), F(3, 10**40), F(14142135623730950488, 10**19)))  # sqrt(2) just above b
    def test_located_roots_are_the_quadratic_formula(self, case):
        p, a, b = case
        a, b = min(a, b), max(a, b)
        want = outcome(quadratic_formula_roots_in, p, a, b)
        assert outcome(roots_in_interval, p, a, b) == want
        ints, _ = _integers(p.coeffs)
        irrational = isinstance(want, tuple) and want[0] is IrrationalRoot
        assert outcome(_roots, ints, a, b) == (None if irrational else want)
        c, q, k = ints
        if q * q - 4 * k * c > 0:  # the location test's domain, rational roots included
            assert _quadratic_has_root_in(c, q, k, a.as_integer_ratio(), b.as_integer_ratio()) == (irrational or bool(want))

    @settings(max_examples=300, deadline=None)
    @given(root_pair_cases())
    @example(((6, -5, 1), (2, 1), (5, 2)))  # a root at lo, the interval closed
    @example(((6, -5, 1), (4, 2), None))  # the same root at an unreduced lo, open above
    @example(((9, -12, 4), (3, 2), None))  # the double root 3/2 at lo
    @example(((9, -12, 4), (1, 1), (3, 2)))  # the double root at hi
    @example(((-2, 0, 1), (0, 1), (7, 5)))  # sqrt(2) just outside a closed interval: no root
    @example(((-2, 0, 1), (0, 1), (3, 2)))  # sqrt(2) inside: refused
    @example(((-2, 0, 1), (2, 1), None))  # open above, both roots below lo: refused all the same
    @example(((3, -2), (3, 2), None))  # a linear root at lo
    @example(((3, 2), (0, 1), None))  # a linear root below lo
    @example(((5,), (0, 1), None))  # a nonzero constant
    @example(((0, 0, 0), (0, 1), (1, 1)))  # the zero polynomial
    def test_root_pairs_are_the_quadratic_formula(self, case):
        """The decomposition's roots on integer coefficients and integer-pair ends: those of
        quadratic_formula_roots_in(p, lo, hi) with a closed end, the rational roots at or above lo
        with an open one (hi None), where any irrational root refuses as rational_roots does."""
        ints, lo, hi = case
        p = Poly(tuple(map(F, ints)))
        a = F(*lo)
        try:
            if hi is None:
                want = [r for r in quadratic_formula_roots(p) if r >= a]
            else:
                want = quadratic_formula_roots_in(p, a, F(*hi))
        except IrrationalRoot:
            want = None
        except (ValueError, ArithmeticError) as exc:  # UnsupportedDegree, the zero polynomial
            want = type(exc), str(exc)
        try:
            got = _root_pairs(ints, lo, hi)
        except (ValueError, ArithmeticError) as exc:
            got = type(exc), str(exc)
        else:
            if got is not None:
                assert all(q > 0 for _, q in got)
                got = [F(*r) for r in got]
        assert got == want

    def test_irrational_root_names_the_fraction_polynomial(self):
        with pytest.raises(IrrationalRoot, match=r"^irrational roots of 1-6v\^2/7$"):
            rational_roots(Poly.of(1, 0, F(-6, 7)))


# small Gram entries, biased so that negative-definite supports and rational breakpoints are common
self_intersections = st.sampled_from([F(-1), F(-2), F(-1, 2), F(-1, 3), F(-1, 6), F(-3), F(0), F(1)])
definite_self_intersections = st.sampled_from([F(-3), F(-4), F(-7, 2)])
meets = st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(2), F(-1)])


@st.composite
def small_models(draw, selfs=self_intersections, max_curves=4):
    n = draw(st.integers(1, max_curves))
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = draw(selfs)
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(meets)
    names = ("E", "L", "M", "N")[:n]
    pairings = (F(0), *(draw(st.sampled_from([F(0), F(1), F(2)])) for _ in names[1:]))
    return SurfaceModel(names, tuple(map(tuple, gram)), draw(st.sampled_from([F(1), F(2)])), pairings)


def line_model(gram):
    """E and lines through it: H.H = 1, H.E = 0, H.C = 1 for every other curve."""
    gram = tuple(tuple(map(F, row)) for row in gram)
    names = ("E", "L", "M", "N")[: len(gram)]
    return SurfaceModel(names, gram, F(1), (F(0), *(F(1) for _ in names[1:])))


# t*H - v*E on these has three pieces, the last with a two-curve support
THREE_PIECES = (
    line_model([["-1/6", "1/3", "2/3"], ["1/3", "-1", "1"], ["2/3", "1", "-3"]]),
    line_model([["-1/4", "1/2", "2/3", "2/5"], ["1/2", "-1/3", "0", "1/2"], ["2/3", "0", "-2", "1/2"], ["2/5", "1/2", "1/2", "-3"]]),
)
decomposable = st.one_of(small_models(), st.sampled_from(THREE_PIECES + tuple(catalog_models)))


def affine_divisors(model):
    """t*H - v*E, or a*H + v*(a random combination of the curves): both nef at v = 0 when H is."""
    positive = st.builds(F, st.integers(1, 9), st.integers(1, 4))
    slopes = st.lists(small_rationals, min_size=len(model.curves), max_size=len(model.curves))
    return st.one_of(
        st.builds(lambda t: poly_family(model, t), positive),
        st.builds(lambda a, s: DivisorExpr(model, Poly.const(a), tuple(Poly.affine(0, x) for x in s)), positive, slopes),
    )


def solve(model, d, support):
    p, n = _solve_support(model, _integer_divisor(d), support)
    return divisor_expr(model, p), divisor_expr(model, n)


def grow(model, d):
    """zariski_decompose of the DivisorExpr d as a row, its pieces read as DivisorExprs."""
    return exprs(zariski_decompose(model, _integer_divisor(d)))


class TestDecompositionKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solve_support_is_the_fraction_solve(self, data):
        model = data.draw(st.one_of(small_models(), small_models(definite_self_intersections), models()))
        d = data.draw(st.one_of(affine_divisors(model), divisors(model, 1)))
        support = tuple(data.draw(st.permutations(model.curves))[: data.draw(st.integers(0, len(model.curves)))])
        assert outcome(solve, model, d, support) == outcome(fraction_solve_support, model, d, support)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_grow_is_the_fraction_growth(self, data):
        model = data.draw(decomposable)
        d = data.draw(affine_divisors(model))
        assert outcome(grow, model, d) == outcome(fraction_grow, model, d)

    def test_catalog_models_at_t_1_and_lambda_1(self):
        for spec in CASES.values():
            for row in spec.rows:
                for t in (1, 3 - row.d * _probe_lambda(row)):
                    z = zariski_decompose(spec.model, flag_family(spec.model, t))
                    d = divisor_expr(spec.model, flag_family(spec.model, t))
                    assert exprs(z) == fraction_grow(spec.model, d), (spec.id, row.d, t)
                    for support in {*z.supports, tuple(reversed(spec.model.curves))}:
                        assert outcome(solve, spec.model, d, support) == outcome(fraction_solve_support, spec.model, d, support)

    @pytest.mark.parametrize("model", THREE_PIECES)
    def test_three_pieces(self, model):
        for t in (1, F(7, 3)):
            z = zariski_decompose(model, flag_family(model, t))
            d = divisor_expr(model, flag_family(model, t))
            assert len(z.supports) == 3 and len(z.supports[-1]) == 2
            assert exprs(z) == fraction_grow(model, d)

    def test_volume_zero_at_the_start(self):
        # H.H = 0: the volume -v^2 of t*H - v*E has its double root at v = 0, where the growth starts
        model = SurfaceModel(("E",), ((F(-1),),), F(0), (F(0),))
        z = zariski_decompose(model, flag_family(model, 1))
        assert exprs(z) == fraction_grow(model, divisor_expr(model, flag_family(model, 1)))
        assert z.breakpoints == (0, 0)

    def test_two_volume_roots_after_v_end_at_the_first(self):
        # H.H = -1 and E.E = 1: D = ((2v - 3)/2)*H + E/2 pairs with E as 1/2 throughout, so no curve
        # crosses, and its volume (2 - v)(v - 1) has both roots after v = 0; the growth ends at the first
        model = SurfaceModel(("E",), ((F(1),),), F(-1), (F(0),))
        d = ((-3, 1), (2, 0), 2)
        z = zariski_decompose(model, d)
        assert z.breakpoints == (0, 1)
        assert exprs(z) == fraction_grow(model, divisor_expr(model, d))

    def test_non_affine_family_is_refused(self):
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))
        d = DivisorExpr.build(model, Poly.const(1), {"E": Poly.of(0, 0, -1)})
        with pytest.raises(ValueError, match="affine"):
            grow(model, d)


# one- and two-curve models, definite and indefinite, with the catalog's and the three-piece ones
checked_models = st.one_of(
    small_models(max_curves=2),
    small_models(definite_self_intersections, max_curves=2),
    st.sampled_from(THREE_PIECES + tuple(catalog_models)),
)
positive_t = st.builds(F, st.integers(1, 9), st.integers(1, 4))
MUTATIONS = ("none", "N falling or flat", "P.C negative", "volume shifted", "tau moved", "curved")


def mutated(data, z: ZariskiPieces) -> ZariskiPieces:
    """z, its pieces DivisorExprs, or z with one piece changed: an N-coefficient made falling or flat, a curve added to P (which moves
    its pairings and its volume), P's ambient coefficient shifted (the volume jumps at a breakpoint or
    misses zero at tau), tau moved, or a coefficient of P or N given a v^2 term."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "none":
        return z
    if kind == "tau moved":
        lo, tau = z.breakpoints[-2:]
        moved = data.draw(st.sampled_from([tau + F(1, 7), tau - (tau - lo) / 7]))
        return z._replace(breakpoints=z.breakpoints[:-1] + (moved,))
    i = data.draw(st.integers(0, len(z.positives) - 1))
    lo, hi = z.breakpoints[i : i + 2]
    model = z.model
    name = data.draw(st.sampled_from(model.curves))
    k = model.index(name)
    positives, negatives, supports = list(z.positives), list(z.negatives), list(z.supports)
    p, n = positives[i], negatives[i]
    if kind == "N falling or flat":  # below zero at hi or not; its curve joins the support
        coeffs = list(n.coeffs)
        coeffs[k] = Poly.affine(hi - data.draw(st.sampled_from([F(0), (hi - lo) / 2])), data.draw(st.sampled_from([-1, 0])))
        negatives[i] = dataclasses.replace(n, coeffs=tuple(coeffs))
        supports[i] = supports[i] if name in supports[i] else supports[i] + (name,)
    elif kind == "P.C negative":
        coeffs = list(p.coeffs)
        coeffs[k] = coeffs[k] + Poly.affine(data.draw(small_rationals), data.draw(small_rationals))
        positives[i] = dataclasses.replace(p, coeffs=tuple(coeffs))
    elif kind == "volume shifted":
        positives[i] = dataclasses.replace(p, ambient=p.ambient + Poly.const(data.draw(small_rationals)))
    else:  # "curved"
        expr = data.draw(st.sampled_from([p, n]))
        bent = Poly.of(0, 0, data.draw(small_rationals.filter(bool)))
        if data.draw(st.booleans()):
            bent_expr = dataclasses.replace(expr, ambient=expr.ambient + bent)
        else:
            coeffs = list(expr.coeffs)
            coeffs[k] = coeffs[k] + bent
            bent_expr = dataclasses.replace(expr, coeffs=tuple(coeffs))
        (positives if expr is p else negatives)[i] = bent_expr
    return z._replace(positives=tuple(positives), negatives=tuple(negatives), supports=tuple(supports))


def affine(z: ZariskiPieces) -> bool:
    """Whether every coefficient of every P and N has degree <= 1."""
    return all(c.degree <= 1 for e in z.positives + z.negatives for c in (e.ambient, *e.coeffs))


def integer_rows(z: ZariskiPieces) -> ZariskiPieces | None:
    """rows(z), or None for a "curved" z: no integer row holds a v^2 term, and rows refuses it as
    _integer_divisor refuses any D(v) that is not affine in v."""
    if affine(z):
        return rows(z)
    with pytest.raises(ValueError, match=r"^D\(v\) must be affine in v$"):
        rows(z)
    return None


class TestDecompositionChecks:
    """invariant_violations, integrated_s_invariants and verify's homogeneity comparison read integer
    rows; the Poly versions of tests/oracles.py are their references, on engine decompositions and on
    the pieces the invariant tests of test_surface corrupt, changed through oracles.exprs and read
    back by oracles.rows."""

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_checks_and_integrals_are_the_poly_ones(self, data):
        model = data.draw(checked_models)
        z = outcome(zariski_decompose, model, flag_family(model, data.draw(positive_t)))
        assume(isinstance(z, ZariskiPieces))
        changed = mutated(data, exprs(z))
        z = integer_rows(changed)
        if z is not None:
            assert outcome(invariant_violations, z) == outcome(poly_invariant_violations, changed)
            got = integrated_s_invariants(z)
            assert got == poly_s_invariants(changed) and all(type(x) is F for x in got if x is not None)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_homogeneity_is_the_scaled_equality(self, data):
        model = data.draw(checked_models)
        ref = outcome(zariski_decompose, model, flag_family(model, 1))
        t = data.draw(positive_t)
        fresh = outcome(zariski_decompose, model, flag_family(model, t))
        assume(isinstance(ref, ZariskiPieces) and isinstance(fresh, ZariskiPieces))
        assert _is_scaled(fresh, ref, t) and exprs(fresh) == scaled(exprs(ref), t)
        perturbed = t + data.draw(st.sampled_from([F(1, 97), F(-1, 97), F(1, 3), -t / 2]))
        changed = integer_rows(mutated(data, exprs(fresh)))
        for got, s in ((fresh, perturbed), (changed, t), (changed, perturbed)):
            if got is not None:
                assert _is_scaled(got, ref, s) == (exprs(got) == scaled(exprs(ref), s))

    def test_volume_rising_at_the_start_of_a_later_piece(self):
        # P = H + (v - 1)*E on [3/2, 2] of the single-E model: the volume 2v - v^2 falls there, its slope
        # 2 - 2v read at both ends; (P . E) = 1 - v is negative
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))
        p = DivisorExpr.build(model, Poly.const(1), {"E": Poly.affine(-1, 1)})
        z = ZariskiPieces(model, (F(3, 2), F(2)), (p,), (DivisorExpr.zero(model),), ((),))
        assert invariant_violations(rows(z)) == poly_invariant_violations(z) == ["piece 0: (P . E) negative on [3/2, 2]"]

    def test_catalog_decompositions(self):
        for model in catalog_models:
            ref = zariski_decompose(model, flag_family(model, 1))
            assert invariant_violations(ref) == poly_invariant_violations(exprs(ref)) == []
            assert integrated_s_invariants(ref) == poly_s_invariants(exprs(ref))
            for t in (F(5, 2), F(7, 3)):
                fresh = zariski_decompose(model, flag_family(model, t))
                assert _is_scaled(fresh, ref, t) and exprs(fresh) == scaled(exprs(ref), t)
                assert not _is_scaled(fresh, ref, t + F(1, 97)) and exprs(fresh) != scaled(exprs(ref), t + F(1, 97))


class TestClosedFormKernel:
    @settings(max_examples=100, deadline=None)
    @given(rationals, rationals, st.integers(1, 4), st.booleans())
    @example(F(0), F(0), 2, False)
    def test_over_t_is_the_gcd_reduction(self, a, b, d, proportional):
        if proportional:  # a multiple of 3 - d*lambda
            b = -a * d / 3
        line, den = _integers([a, b])
        lf = _over_t(tuple(line), den, d)
        assert monic_parts(lf) == gcd_reduced(Poly.affine(a, b), Poly.affine(3, -d))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(rationals, max_size=2), st.lists(rationals, min_size=1, max_size=2), st.lists(rationals, max_size=2))
    @example([F(2)], [F(3)], [F(1), F(1)])  # proportional linear parts: (2 + 2x)/(3 + 3x)
    @example([F(1), F(1)], [F(1)], [F(-1), F(1)])  # mixed degrees: (x^2 - 1)/(x - 1)
    @example([F(5)], [F(2)], [])  # constants
    def test_constructor_reduces_as_the_gcd_does(self, num, den, common):
        # parts of degree <= 1 take the cross-product test and higher degrees the gcd; times a common factor
        num, den, common = Poly(tuple(num)), Poly(tuple(den)), Poly(tuple(common))
        if not common.is_zero:
            num, den = num * common, den * common
        assume(not den.is_zero)
        rf = RationalFunction(num, den)
        assert (rf.num, rf.den) == gcd_reduced(num, den)
