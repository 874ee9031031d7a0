"""Exact rational arithmetic: polynomials, piecewise polynomials, root finding,
and rational-function reconstruction from exact samples.

Every quantity in the engine is a ``fractions.Fraction`` (arbitrary precision,
always in lowest terms with positive denominator) or is built out of them.  No
floating point ever enters the computation path; floats appear only in external
test oracles.

The inner loops of evaluation, multiplication and integration run on integer
numerators over one common denominator, and each result value or coefficient
is built as a single Fraction at the end, so the results are Fractions as
before, with one reduction each instead of one per operation.  Root finding
tests the integer discriminant of the numerators for a square with
``math.isqrt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class UnsupportedDegree(ValueError):
    """Root finding was requested for a polynomial of degree > 2."""


class IrrationalRoot(ValueError):
    """A real root exists in the requested range but is not rational."""


class NoFit(ValueError):
    """No rational function with the given degree bounds interpolates the samples."""


class Degenerate(ValueError):
    """The interpolation system has no solution with a nonzero denominator."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or canonical ``"p/q"`` string to a Fraction.

    Floats are refused with TypeError: a binary float is not the rational it
    was meant to be, so there is no float input path into the engine.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact rational; pass a Fraction, an int or a 'p/q' string")
    return Fraction(str(value).strip())


def rat_str(value: int | Fraction) -> str:
    """Canonical string form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(Fraction(value))


def _coerce(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial with rational coefficients, index = degree.

    The representation is canonical: trailing zero coefficients are stripped,
    so equality of tuples is equality of polynomials.  The zero polynomial is
    the empty tuple.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = _coerce(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, *coeffs: int | str | Fraction) -> Poly:
        return cls(tuple(coeffs))

    @classmethod
    def const(cls, c: int | str | Fraction) -> Poly:
        return cls((rat(c),))

    @classmethod
    def affine(cls, c0: int | str | Fraction, c1: int | str | Fraction) -> Poly:
        """The polynomial c0 + c1*x."""
        return cls((rat(c0), rat(c1)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        if not self.coeffs:
            return Fraction(0)
        # Horner's rule on x = p/q: sum of c_k p^k q^(n-k) over the common denominator den*q^n
        p, q = x.numerator, x.denominator
        ints, den = _integers(self.coeffs)
        acc, scale = ints[-1], 1
        for c in reversed(ints[:-1]):
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, den * scale)

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return _canonical([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return _canonical([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> Poly:
        return _canonical([-c for c in self.coeffs])

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            return _canonical([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return _canonical([])
        a, da = _integers(self.coeffs)
        b, db = _integers(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _from_integers(out, da * db)

    __rmul__ = __mul__

    def format(self, var: str = "v") -> str:
        """Human-readable form, constant term first: e.g. ``3-4v`` or ``9-v^2/2``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
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
        return "".join(parts)


def _integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, den): values[k] = numerators[k] / den, den the least common denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _from_integers(numerators: list[int], den: int) -> Poly:
    """The Poly with coefficients numerators[k] / den, one Fraction per nonzero coefficient."""
    while numerators and not numerators[-1]:
        numerators.pop()
    return _canonical([Fraction(n, den) for n in numerators])


def _canonical(coeffs: list[Fraction]) -> Poly:
    """A Poly from coefficients that are already Fractions, as the results of
    arithmetic on Polys are: strips trailing zeros and skips the coercion."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    poly = object.__new__(Poly)
    object.__setattr__(poly, "coeffs", tuple(coeffs))
    return poly


def integrate(p: Poly, a: int | str | Fraction, b: int | str | Fraction) -> Fraction:
    """Exact definite integral of ``p`` over ``[a, b]``; requires a <= b."""
    a, b = rat(a), rat(b)
    if a > b:
        raise ValueError(f"integrate: empty interval [{a}, {b}]")
    if not p.coeffs:
        return Fraction(0)
    # sum of c_k (b^(k+1) - a^(k+1))/(k+1); with b = u/Q and a = w/Q its numerator over den*Q^n
    # is, by Horner's rule in Q, the sum of c_k*den/(k+1) (u^(k+1) - w^(k+1)) Q^(n-1-k)
    dens = [c.denominator * (k + 1) for k, c in enumerate(p.coeffs)]
    den = math.lcm(*dens)
    ints = [c.numerator * (den // d) for c, d in zip(p.coeffs, dens)]
    q = a.denominator * b.denominator
    u, w = b.numerator * a.denominator, a.numerator * b.denominator
    acc, up, wp = 0, 1, 1
    for c in ints:
        up, wp = up * u, wp * w
        acc = acc * q + c * (up - wp)
    return Fraction(acc, den * q ** len(ints))


@dataclass(frozen=True)
class PiecewisePoly:
    """One polynomial per interval [v_i, v_{i+1}] of a strictly increasing grid.

    Evaluation at an interior breakpoint uses the left piece; for instances
    produced by the engine the two sides agree (continuity is a checked
    invariant, not an assumption).
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]

    def __post_init__(self) -> None:
        bps = _coerce(self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) != len(bps) - 1:
            raise ValueError("piece count must be breakpoint count - 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    def piece_index(self, v: int | str | Fraction) -> int:
        v = rat(v)
        if v < self.lo or v > self.hi:
            raise ValueError(f"{v} outside [{self.lo}, {self.hi}]")
        if v == self.lo:
            return 0
        for i in range(len(self.pieces)):
            if v <= self.breakpoints[i + 1]:
                return i
        raise AssertionError("unreachable")

    def __call__(self, v: int | str | Fraction) -> Fraction:
        return self.pieces[self.piece_index(v)](rat(v))


def integrate_piecewise(f: PiecewisePoly) -> Fraction:
    """Exact integral over the full breakpoint range; additive over pieces."""
    total = Fraction(0)
    for i, p in enumerate(f.pieces):
        total += integrate(p, f.breakpoints[i], f.breakpoints[i + 1])
    return total


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of ``p`` (degree <= 2), ascending, without multiplicity.

    Raises IrrationalRoot when a degree-2 polynomial has real irrational roots,
    and UnsupportedDegree above degree 2.  The zero polynomial is rejected.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    if p.degree > 2:
        raise UnsupportedDegree(f"degree {p.degree} > 2")
    if p.degree == 0:
        return []
    if p.degree == 1:
        return [-p.coeff(0) / p.coeff(1)]
    # the quadratic formula on the integer numerators: the roots are rational iff the
    # integer discriminant is a perfect square
    (c, b, a), _ = _integers(p.coeffs)
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        raise IrrationalRoot(f"irrational roots of {p.format()}")
    return sorted({Fraction(-b - root, 2 * a), Fraction(-b + root, 2 * a)})


def roots_in_interval(p: Poly, a: int | str | Fraction, b: int | str | Fraction) -> list[Fraction]:
    """Rational roots of ``p`` (degree <= 2) inside ``[a, b]``, ascending.

    Raises IrrationalRoot only when an irrational root actually lies in the
    interval; irrational roots strictly outside [a, b] are ignored.
    """
    a, b = rat(a), rat(b)
    if a > b:
        raise ValueError("empty interval")
    try:
        roots = rational_roots(p)
    except IrrationalRoot:
        if _quadratic_has_root_in(p, a, b):
            raise
        return []
    return [r for r in roots if a <= r <= b]


def _quadratic_has_root_in(p: Poly, a: Fraction, b: Fraction) -> bool:
    # Exact location test for a quadratic with real (possibly irrational) roots:
    # either the sign changes across [a, b], or the vertex lies inside with a
    # value of the opposite sign to the (equal-signed) endpoint values.
    pa, pb = p(a), p(b)
    if pa == 0 or pb == 0 or pa * pb < 0:
        return True
    vertex = -p.coeff(1) / (2 * p.coeff(2))
    if a <= vertex <= b:
        pv = p(vertex)
        return pv == 0 or (pv > 0) != (pa > 0)
    return False


# ---------------------------------------------------------------------------
# Exact linear algebra (small dense systems over Q)
# ---------------------------------------------------------------------------


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square nonsingular system exactly by Gaussian elimination."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def nullspace(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of an m x ncols matrix over Q."""
    rows = [list(r) for r in matrix]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][f]
        basis.append(vec)
    return basis


def is_negative_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester criterion: leading principal minors alternate, starting negative."""
    n = len(matrix)
    for k in range(1, n + 1):
        minor = _det([row[:k] for row in matrix[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


def _det(matrix: list[list[Fraction]]) -> Fraction:
    n = len(matrix)
    rows = [list(r) for r in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q: list[Fraction] = [Fraction(0)] * max(0, num.degree - den.degree + 1)
    rem = num
    lead = den.coeffs[-1]
    while not rem.is_zero and rem.degree >= den.degree:
        shift = rem.degree - den.degree
        factor = rem.coeffs[-1] / lead
        q[shift] = factor
        sub = [Fraction(0)] * shift + [factor * c for c in den.coeffs]
        rem = rem - Poly(tuple(sub))
    return Poly(tuple(q)), rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.coeffs[-1])


@dataclass(frozen=True)
class RationalFunction:
    """A ratio of polynomials, stored with coprime parts and monic denominator."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
            scale = 1 / den.coeffs[-1]
            num, den = num * scale, den * scale
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_coeffs(
        cls,
        num: Iterable[int | str | Fraction],
        den: Iterable[int | str | Fraction],
    ) -> RationalFunction:
        return cls(Poly(_coerce(num)), Poly(_coerce(den)))

    @classmethod
    def constant(cls, c: int | str | Fraction) -> RationalFunction:
        return cls(Poly.const(c), Poly.const(1))

    def __call__(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def format(self, var: str = "l") -> str:
        """Display with jointly-primitive integer coefficients, e.g. ``(5-6l)/(5-5l)``."""
        num, den = self.num, self.den
        if num.is_zero:
            return "0"
        coeffs = list(num.coeffs) + list(den.coeffs)
        scale = Fraction(math.lcm(*(c.denominator for c in coeffs)))
        ints = [c * scale for c in coeffs]
        g = math.gcd(*(abs(c.numerator) for c in ints if c != 0))
        scale /= g
        if (den(0) if den(0) != 0 else den.coeffs[-1]) * scale < 0:
            scale = -scale
        num, den = num * scale, den * scale
        if den == Poly.const(1):
            return num.format(var) if num.degree > 0 else str(num.coeff(0))
        ns = num.format(var)
        ds = den.format(var)
        ns = f"({ns})" if num.degree > 0 else ns
        ds = f"({ds})" if den.degree > 0 else ds
        return f"{ns}/{ds}"


def _reduced(num: Poly, den: Poly) -> RationalFunction:
    """A RationalFunction from parts that are already coprime with a monic den: skips the gcd."""
    rf = object.__new__(RationalFunction)
    object.__setattr__(rf, "num", num)
    object.__setattr__(rf, "den", den)
    return rf


def fit_rational_function(
    samples: Sequence[tuple[Fraction, Fraction]],
    num_deg: int,
    den_deg: int,
) -> RationalFunction:
    """Reconstruct the unique rational function of bounded degrees through exact samples.

    Solves N(x_i) - y_i * D(x_i) = 0 exactly over Q and reduces the result.
    Requires at least num_deg + den_deg + 2 samples with distinct abscissae.
    """
    if len(samples) < num_deg + den_deg + 2:
        raise ValueError("not enough samples for the requested degree bounds")
    xs = [rat(x) for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("sample abscissae must be distinct")
    ys = [rat(y) for _, y in samples]
    ncols = num_deg + den_deg + 2
    rows = []
    for x, y in zip(xs, ys):
        row = [x**k for k in range(num_deg + 1)]
        row += [-y * x**k for k in range(den_deg + 1)]
        rows.append(row)
    basis = nullspace(rows, ncols)
    if not basis:
        raise NoFit("degree bounds too small for these samples")
    candidate = None
    for vec in basis:
        den = Poly(tuple(vec[num_deg + 1 :]))
        if not den.is_zero:
            candidate = vec
            break
    if candidate is None:
        raise Degenerate("all solutions have identically zero denominator")
    rf = RationalFunction(Poly(tuple(candidate[: num_deg + 1])), Poly(tuple(candidate[num_deg + 1 :])))
    for x, y in zip(xs, ys):
        if rf.den(x) == 0 or rf(x) != y:
            raise NoFit("fit does not reproduce the samples (inconsistent system)")
    return rf
