"""Exact rational arithmetic: polynomials, piecewise polynomials, root finding,
linear-fractional closed forms, and rational-function reconstruction from exact
samples.

Every quantity in the engine is a ``fractions.Fraction`` (arbitrary precision,
always in lowest terms with positive denominator) or is built out of them.  No
floating point ever enters the computation path; floats appear only in external
test oracles.

The inner loops of evaluation, multiplication and integration run on integer
numerators over one common denominator, and each result value or coefficient
is built as a single Fraction at the end, so the results are Fractions as
before, with one reduction each instead of one per operation.  Every Poly,
an arithmetic result included, is built by its constructor.  A closed form of
delta is a LinearFractional of four integers, put in normal form by one gcd in
its constructor and evaluated as one Fraction by _fraction (Fraction(n, d) of two ints,
one gcd, no type dispatch; delta's too); a RationalFunction, the result
of the fit only, is put in lowest terms with a monic denominator by its own.
Root finding runs on integer coefficients: it tests the discriminant for a
square with ``math.isqrt``, and locates an irrational root by integer sign
tests.  Its kernel, _root_pairs, takes and returns integer pairs (numerator,
denominator), so the decomposition, which calls it directly, builds no
Fraction for a root; _roots makes each root one Fraction.
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
    was meant to be, so there is no float input path into the engine.  So are
    bools, which are ints to Python but no rational a caller means.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"bool {value!r} is not a rational; pass a Fraction, an int or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact rational; pass a Fraction, an int or a 'p/q' string")
    return Fraction(str(value).strip())


def rat_str(value: int | Fraction) -> str:
    """Canonical string form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(Fraction(value))


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d, with one gcd and no type dispatch: lowest terms, d > 0."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    value = object.__new__(Fraction)
    value._numerator, value._denominator = n // g, d // g
    return value


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
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) - other.coeff(k) for k in range(n)))

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return Poly()
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
        return _format(self.coeffs, var)


def _format(coeffs: Sequence[Fraction], var: str) -> str:
    """Poly.format of these coefficients, each read as its integer ratio; "0" when all are 0."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        n, d = c.as_integer_ratio()
        if n == 0:
            continue
        mag = abs(n)
        if k == 0:
            term = str(mag) if d == 1 else f"{mag}/{d}"
        else:
            vpart = var if k == 1 else f"{var}^{k}"
            if d == 1:
                term = vpart if mag == 1 else f"{mag}{vpart}"
            else:
                term = f"{vpart}/{d}" if mag == 1 else f"{mag}{vpart}/{d}"
        parts.append(f"-{term}" if n < 0 else f"+{term}" if parts else term)
    return "".join(parts) or "0"


def _integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, den): values[k] = numerators[k] / den, den the least common denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _from_integers(numerators: list[int], den: int) -> Poly:
    """The Poly with coefficients numerators[k] / den, one Fraction per coefficient."""
    return Poly(tuple(Fraction(n, den) for n in numerators))


def integrate(p: Poly, a: int | str | Fraction, b: int | str | Fraction) -> Fraction:
    """Exact definite integral of ``p`` over ``[a, b]``; requires a <= b."""
    a, b = rat(a), rat(b)
    if a > b:
        raise ValueError(f"integrate: empty interval [{a}, {b}]")
    if not p.coeffs:
        return Fraction(0)
    return Fraction(*_integral(*_integers(p.coeffs), a.as_integer_ratio(), b.as_integer_ratio()))


def _integral(ints: list[int], den: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The integral over [a, b] of sum_k ints[k]*v^k/den, as an integer ratio (numerator, denominator);
    each end an integer pair (numerator, denominator > 0)."""
    # sum of c_k (b^(k+1) - a^(k+1))/(k+1); with b = u/Q, a = w/Q and L = lcm(1..n) its numerator over
    # den*L*Q^n is, by Horner's rule in Q, the sum of c_k*L/(k+1) (u^(k+1) - w^(k+1)) Q^(n-1-k)
    n = len(ints)
    scale = math.lcm(*range(1, n + 1))
    (a_n, a_d), (b_n, b_d) = a, b
    q = a_d * b_d
    u, w = b_n * a_d, a_n * b_d
    acc, up, wp = 0, 1, 1
    for k, c in enumerate(ints):
        up, wp = up * u, wp * w
        acc = acc * q + c * (scale // (k + 1)) * (up - wp)
    return acc, den * scale * q**n


def _sum(ratios: list[tuple[int, int]]) -> Fraction:
    """The sum of integer ratios (numerator, denominator) over their least common denominator, as one Fraction."""
    den = math.lcm(*[d for _, d in ratios])
    return _fraction(sum(n * (den // d) for n, d in ratios), den)


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

    def piece_index(self, v: int | str | Fraction) -> int:
        v = rat(v)
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if v < lo or v > hi:
            raise ValueError(f"{v} outside [{lo}, {hi}]")
        if v == lo:
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
    roots = _roots(_integers(p.coeffs)[0])
    if roots is None:
        raise IrrationalRoot(f"irrational roots of {p.format()}")
    return roots


def roots_in_interval(p: Poly, a: int | str | Fraction, b: int | str | Fraction) -> list[Fraction]:
    """Rational roots of ``p`` (degree <= 2) inside ``[a, b]``, ascending.

    Raises IrrationalRoot only when an irrational root actually lies in the
    interval; irrational roots strictly outside [a, b] are ignored.
    """
    a, b = rat(a), rat(b)
    if a > b:
        raise ValueError("empty interval")
    roots = _roots(_integers(p.coeffs)[0], a, b)
    if roots is None:
        raise IrrationalRoot(f"irrational roots of {p.format()}")
    return roots


def _roots(ints: Sequence[int], lo: Fraction | None = None, hi: Fraction | None = None) -> list[Fraction] | None:
    """The rational roots of sum_k ints[k]*x^k (degree <= 2), ascending, without multiplicity,
    or None where rational_roots raises IrrationalRoot.  With an interval [lo, hi], only the
    roots in it, and None only when an irrational root lies in it (roots_in_interval)."""
    ends = (None, None) if lo is None else (lo.as_integer_ratio(), hi.as_integer_ratio())
    pairs = _root_pairs(ints, *ends)
    return None if pairs is None else [Fraction(*r) for r in pairs]


def _root_pairs(
    ints: Sequence[int], lo: tuple[int, int] | None = None, hi: tuple[int, int] | None = None
) -> list[tuple[int, int]] | None:
    """The rational roots of sum_k ints[k]*x^k (degree <= 2), ascending, without multiplicity, as
    integer pairs (numerator, denominator > 0), not reduced: with lo only those >= lo, with hi only
    those <= hi, each end an integer pair too.  None for an irrational root: any when hi is None,
    else one in [lo, hi].  The zero polynomial raises ValueError, a degree above 2 UnsupportedDegree.
    """
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        raise ValueError("zero polynomial has no isolated roots")
    if n > 3:
        raise UnsupportedDegree(f"degree {n - 1} > 2")
    if n < 3:
        roots = [] if n == 1 else [(-ints[0], ints[1]) if ints[1] > 0 else (ints[0], -ints[1])]
    else:
        # the quadratic formula: the roots are rational iff the discriminant is a perfect square
        c, b, a = ints[:3]
        if a < 0:  # the same roots, with a > 0, so that they come ascending
            c, b, a = -c, -b, -a
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        root = math.isqrt(disc)
        if root * root != disc:
            return None if hi is None or _quadratic_has_root_in(c, b, a, lo, hi) else []
        roots = [(-b - root, 2 * a), (-b + root, 2 * a)] if root else [(-b, 2 * a)]
    return [(p, q) for p, q in roots
            if (lo is None or p * lo[1] >= lo[0] * q) and (hi is None or p * hi[1] <= hi[0] * q)]


def _quadratic_has_root_in(c: int, b: int, a: int, lo: tuple[int, int], hi: tuple[int, int]) -> bool:
    """Whether c + b*x + a*x^2, of positive discriminant, has a root in [lo, hi], by integer sign tests;
    each end an integer pair (numerator, denominator > 0).

    Either its sign changes across [lo, hi] (or it is 0 at an end), or both ends
    have the sign of a and the vertex -b/(2a), where the value c - b^2/(4a) has
    the other sign, lies between them.
    """
    if a < 0:  # the same roots, with a > 0
        c, b, a = -c, -b, -a
    # the value at x = p/q times q^2
    at_lo, at_hi = ((c * q + b * p) * q + a * p * p for p, q in (lo, hi))
    if min(at_lo, at_hi) <= 0 <= max(at_lo, at_hi):
        return True
    return at_lo > 0 and 2 * a * lo[0] <= -b * lo[1] and -b * hi[1] <= 2 * a * hi[0]


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
class LinearFractional:
    """(a + b*l)/(c + e*l) with integer coefficients: the shape of every closed form of delta.

    The constructor puts it in normal form with one gcd: a constant (proportional
    parts, a zero numerator among them) is (n, 0, m, 0); the four coefficients
    are jointly coprime; and the denominator's first nonzero coefficient, c or
    else e, is positive.  So two instances are equal exactly when they are the
    same function, and a value is one Fraction of two integers (_fraction).
    """

    a: int
    b: int
    c: int
    e: int

    def __post_init__(self) -> None:
        a, b, c, e = self.a, self.b, self.c, self.e
        if not (c or e):
            raise ZeroDivisionError("zero denominator")
        if a * e == b * c:  # proportional parts: the constant b/e, or a/c
            a, b, c, e = (b, 0, e, 0) if e else (a, 0, c, 0)
        g = math.gcd(a, b, c, e)
        if c < 0 or not c and e < 0:
            g = -g
        set_ = object.__setattr__
        set_(self, "a", a // g)
        set_(self, "b", b // g)
        set_(self, "c", c // g)
        set_(self, "e", e // g)

    @classmethod
    def from_coeffs(
        cls,
        num: Iterable[int | str | Fraction],
        den: Iterable[int | str | Fraction],
    ) -> LinearFractional:
        """The form num/den from rational coefficients, constant term first; ValueError above degree 1."""
        num_p, den_p = Poly(_coerce(num)), Poly(_coerce(den))
        if num_p.degree > 1 or den_p.degree > 1:
            raise ValueError(f"degrees ({num_p.degree}, {den_p.degree}) above 1: not a linear-fractional form")
        return cls(*_integers([num_p.coeff(0), num_p.coeff(1), den_p.coeff(0), den_p.coeff(1)])[0])

    @property
    def num_degree(self) -> int:
        """Degree of the numerator; -1 for the zero form."""
        return 1 if self.b else 0 if self.a else -1

    @property
    def den_degree(self) -> int:
        return 1 if self.e else 0

    def __call__(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        p, q = x.numerator, x.denominator
        den = self.c * q + self.e * p
        if not den:
            raise ZeroDivisionError(f"pole at {x}")
        return _fraction(self.a * q + self.b * p, den)

    def format(self, var: str = "l") -> str:
        """Display with the coprime integer coefficients, e.g. ``(5-6l)/(5-5l)``, ``3/4`` or ``1-2l``."""
        num, den = Poly((self.a, self.b)), Poly((self.c, self.e))
        if num.is_zero:
            return "0"
        if den == Poly.const(1):
            return num.format(var)
        ns = f"({num.format(var)})" if num.degree > 0 else num.format(var)
        ds = f"({den.format(var)})" if den.degree > 0 else den.format(var)
        return f"{ns}/{ds}"


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
            if num.degree > 1 or den.degree > 1:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = poly_divmod(num, g)[0]
                    den = poly_divmod(den, g)[0]
            elif den.degree == 1 and num.coeff(0) * den.coeff(1) == num.coeff(1) * den.coeff(0):
                # parts of degree <= 1 share a factor only when both are linear and proportional
                num, den = Poly.const(num.coeff(1) / den.coeff(1)), Poly.const(1)
            if den.coeffs[-1] != 1:
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
