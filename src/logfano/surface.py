"""Surface intersection model and exact Zariski decomposition.

A SurfaceModel is a finite lattice of named curve classes with a rational
intersection form, together with the pairings of a distinguished ambient class
(the pullback of the anticanonical polarization) against itself and against
each curve.  Divisor families D(v) have coefficients affine in the flag
parameter v, so all pairings are polynomials in v of degree at most 2 and the
whole decomposition is exact.

The decomposition follows a support-growth scheme: starting from an empty
negative part, solve (P(v) . C) = 0 for the support curves on each v-regime,
and let a new curve enter the support at the exact parameter value where its
pairing with the running positive part crosses zero.  The run ends where the
self-intersection of the positive part reaches zero (the pseudo-effective
threshold).

The growth runs on integers: D, P and N are integer vectors over one common
denominator, the support system is solved by one fraction-free (Bareiss)
elimination whose pivots also decide negative-definiteness, and DivisorExpr
and Poly values are built only for the pieces returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exact import (
    PiecewisePoly,
    Poly,
    _from_integers,
    _integers,
    is_negative_definite,
    rat,
    rational_roots,
    roots_in_interval,
)


class ModelMismatch(ValueError):
    """Divisor expressions over different surface models were combined."""


class NotPseudoEffective(ValueError):
    """The divisor pairs negatively with a model curve already at v = 0."""


class IndefiniteSupport(ValueError):
    """A candidate negative-part support has a non negative-definite Gram matrix."""


class Unbounded(ValueError):
    """The volume never reaches zero on the probed range."""


@dataclass(frozen=True)
class SurfaceModel:
    """Named curve classes with their Gram matrix and ambient pairings."""

    curves: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    ambient_self: Fraction
    ambient_pairings: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        gram = tuple(tuple(rat(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "ambient_self", rat(self.ambient_self))
        object.__setattr__(self, "ambient_pairings", tuple(rat(x) for x in self.ambient_pairings))
        n = len(self.curves)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise ValueError("gram matrix shape does not match curve count")
        if len(self.ambient_pairings) != n:
            raise ValueError("ambient pairing count does not match curve count")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")

    def index(self, name: str) -> int:
        try:
            return self.curves.index(name)
        except ValueError:
            raise KeyError(f"unknown curve {name!r}") from None

    def pairing(self, a: str, b: str) -> Fraction:
        return self.gram[self.index(a)][self.index(b)]

    @cached_property
    def _integer_table(self) -> tuple[list[list[int]], int]:
        """(table, den): the symmetric Gram matrix of (ambient class, *curves) as integers over one denominator."""
        rows = [(self.ambient_self, *self.ambient_pairings)]
        rows += [(p, *row) for p, row in zip(self.ambient_pairings, self.gram)]
        ints, den = _integers([x for row in rows for x in row])
        n = len(rows)
        return [ints[i * n : (i + 1) * n] for i in range(n)], den


@dataclass(frozen=True)
class DivisorExpr:
    """ambient_coeff * (ambient class) + sum_i coeffs[i] * curves[i], affine in v."""

    model: SurfaceModel
    ambient: Poly
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.model.curves):
            raise ValueError("coefficient count does not match curve count")

    @classmethod
    def build(cls, model: SurfaceModel, ambient: Poly, coeffs: dict[str, Poly] | None = None) -> DivisorExpr:
        cs = [Poly() for _ in model.curves]
        for name, poly in (coeffs or {}).items():
            cs[model.index(name)] = poly
        return cls(model, ambient, tuple(cs))

    @classmethod
    def zero(cls, model: SurfaceModel) -> DivisorExpr:
        return cls(model, Poly(), tuple(Poly() for _ in model.curves))

    def __sub__(self, other: DivisorExpr) -> DivisorExpr:
        if self.model != other.model:
            raise ModelMismatch("divisors over different models")
        return DivisorExpr(
            self.model,
            self.ambient - other.ambient,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def coeff(self, name: str) -> Poly:
        return self.coeffs[self.model.index(name)]

    def at(self, v: Fraction) -> dict[str, Fraction]:
        """Numeric coefficients at a parameter value (ambient under key ``""``)."""
        out = {"": self.ambient(v)}
        for name, c in zip(self.model.curves, self.coeffs):
            out[name] = c(v)
        return out

    @cached_property
    def _integer_rows(self) -> tuple[list[list[int]], int]:
        """(rows, den): the ambient coefficients, then each curve's, as integers over one common denominator."""
        polys = (self.ambient, *self.coeffs)
        den = math.lcm(*[c.denominator for p in polys for c in p.coeffs])  # exact._integers, kept per polynomial
        return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys], den


def pair(model: SurfaceModel, d1: DivisorExpr, d2: DivisorExpr) -> Poly:
    """Bilinear extension of the intersection table; a polynomial in v of degree <= 2.

    The terms are summed as integers over the common denominator of the table
    and of both divisors, one Fraction per result coefficient.
    """
    if d1.model != model or d2.model != model:
        raise ModelMismatch("divisor expressions do not belong to the model")
    table, den = model._integer_table
    rows1, den1 = d1._integer_rows
    rows2, den2 = d2._integer_rows
    acc: list[int] = []
    for a, table_row in zip(rows1, table):
        if a:
            for b, g in zip(rows2, table_row):
                if g:
                    _add_product(acc, a, b, g)
    return _checked_pairing(acc, den * den1 * den2)


def pair_curve(model: SurfaceModel, d: DivisorExpr, name: str) -> Poly:
    """(D . C) for the model curve C called name, which is pair with C's unit divisor: one table column."""
    if d.model != model:
        raise ModelMismatch("divisor expressions do not belong to the model")
    table, den = model._integer_table
    column = table[model.index(name) + 1]  # the table is symmetric
    rows, den_d = d._integer_rows
    acc: list[int] = []
    for a, g in zip(rows, column):
        if g:
            _add_product(acc, a, [1], g)
    return _checked_pairing(acc, den * den_d)


def _checked_pairing(acc: list[int], den: int) -> Poly:
    result = _from_integers(acc, den)
    if result.degree > 2:
        raise AssertionError("pairing of affine families must have degree <= 2")
    return result


def _add_product(acc: list[int], a: list[int], b: list[int], g: int) -> None:
    """acc += a * b * g, with a, b and acc coefficient sequences indexed by degree."""
    if not a or not b:
        return
    if len(acc) < len(a) + len(b) - 1:
        acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
    for j, y in enumerate(b):
        yg = y * g
        for i, x in enumerate(a):
            acc[i + j] += x * yg


@dataclass(frozen=True)
class ZariskiPieces:
    """Positive/negative parts of D(v) on [0, tau], one regime per piece."""

    model: SurfaceModel
    breakpoints: tuple[Fraction, ...]
    positives: tuple[DivisorExpr, ...]
    negatives: tuple[DivisorExpr, ...]
    supports: tuple[tuple[str, ...], ...]

    @property
    def tau(self) -> Fraction:
        return self.breakpoints[-1]


# An affine divisor (c + s*v)/den on integers: c and s hold the ambient coefficient, then each curve's.
IntegerDivisor = tuple[list[int], list[int], int]


def _dot(a: list[int], b: list[int]) -> int:
    return sum(map(mul, a, b))


def _integer_divisor(d: DivisorExpr) -> IntegerDivisor:
    """d as (c, s, den), read from its integer rows; ValueError unless d is affine in v."""
    rows, den = d._integer_rows
    if any(len(r) > 2 for r in rows):
        raise ValueError("D(v) must be affine in v")
    return [r[0] if r else 0 for r in rows], [r[1] if len(r) > 1 else 0 for r in rows], den


def _divisor(model: SurfaceModel, d: IntegerDivisor) -> DivisorExpr:
    """The DivisorExpr of (c, s, den): one Fraction per nonzero coefficient."""
    c, s, den = d
    polys = [_from_integers([a, b], den) for a, b in zip(c, s)]
    return DivisorExpr(model, polys[0], tuple(polys[1:]))


def _solve_support(
    model: SurfaceModel, d: IntegerDivisor, support: tuple[str, ...]
) -> tuple[IntegerDivisor, IntegerDivisor]:
    """(P, N) with (P . C) = 0 for C in the support; N-coefficients come out affine in v.

    One fraction-free (Bareiss) elimination of the support's integer Gram matrix,
    without row swaps, carries both right-hand sides, the constant and the v part
    of (D . C).  Its k-th pivot is the k-th leading principal minor, so the same
    pass is Sylvester's test: the support is negative definite iff that pivot has
    the sign of (-1)^k.  Back substitution gives det*N on integers (Cramer's rule).
    """
    c, s, den = d
    if not support:
        return d, ([0] * len(c), [0] * len(c), 1)
    table, _ = model._integer_table
    idx = [model.index(name) + 1 for name in support]
    k = len(idx)
    m = [[table[i][j] for j in idx] + [_dot(table[i], c), _dot(table[i], s)] for i in idx]
    det = 1
    for col in range(k):
        pivot = m[col][col]
        if pivot == 0 or (pivot < 0) != (col % 2 == 0):
            raise IndefiniteSupport(f"support {support} has non negative-definite Gram matrix")
        for r in range(col + 1, k):
            f = m[r][col]
            m[r] = [(x * pivot - f * y) // det for x, y in zip(m[r], m[col])]  # exact: Bareiss
        det = pivot
    x0, x1 = [0] * k, [0] * k
    for i in reversed(range(k)):
        row = m[i]
        x0[i] = (det * row[k] - _dot(row[i + 1 : k], x0[i + 1 :])) // row[i]
        x1[i] = (det * row[k + 1] - _dot(row[i + 1 : k], x1[i + 1 :])) // row[i]
    if det < 0:
        det, x0, x1 = -det, [-x for x in x0], [-x for x in x1]
    nc, ns = [0] * len(c), [0] * len(c)
    for i, a, b in zip(idx, x0, x1):
        nc[i], ns[i] = a, b
    # N = X/(det*den) and P = D - N over the same denominator
    p = ([det * a - b for a, b in zip(c, nc)], [det * a - b for a, b in zip(s, ns)], det * den)
    return p, (nc, ns, det * den)


def zariski_decompose(model: SurfaceModel, d: DivisorExpr) -> ZariskiPieces:
    """Full decomposition on [0, tau]."""
    if d.model != model:
        raise ModelMismatch("divisor expressions do not belong to the model")
    table, den_t = model._integer_table
    dd = _integer_divisor(d)
    for name, g in zip(model.curves, table[1:]):
        if _dot(g, dd[0]) < 0:
            raise NotPseudoEffective(f"D(0) pairs negatively with {name}")
    v = Fraction(0)
    support: tuple[str, ...] = ()
    breakpoints = [Fraction(0)]
    positives: list[DivisorExpr] = []
    negatives: list[DivisorExpr] = []
    supports: list[tuple[str, ...]] = []
    for _ in range(len(model.curves) + 1):
        p, n = _solve_support(model, dd, support)
        pc, ps, den_p = p
        tc, ts = [_dot(g, pc) for g in table], [_dot(g, ps) for g in table]
        # (P . C) = (f0 + f1*v) / (den_t*den_p) for every curve outside the support, shared by both tests below
        outside = [(name, tc[i], ts[i]) for i, name in enumerate(model.curves, 1) if name not in support]
        # absorb curves whose pairing is already zero and strictly decreasing at v
        entering = tuple(name for name, f0, f1 in outside if f1 < 0 and f0 * v.denominator + f1 * v.numerator == 0)
        if entering:
            support = support + entering
            continue
        vol = _from_integers([_dot(pc, tc), 2 * _dot(pc, ts), _dot(ps, ts)], den_t * den_p * den_p)
        roots = [(Fraction(-f0, f1), name) for name, f0, f1 in outside if f1 < 0]
        crossings = [(r, name) for r, name in roots if r > v]
        cross_v = min((r for r, _ in crossings), default=None)
        # volume roots matter only before the next support change; an irrational
        # root beyond it belongs to a regime with a different volume polynomial
        if cross_v is None:
            vol_hits = [r for r in rational_roots(vol) if r >= v]
            if not vol_hits:
                raise Unbounded("volume never reaches zero and no curve enters the support")
        else:
            vol_hits = roots_in_interval(vol, v, cross_v)
        positives.append(_divisor(model, p))
        negatives.append(_divisor(model, n))
        supports.append(support)
        if vol_hits:
            breakpoints.append(min(vol_hits))
            return ZariskiPieces(model, tuple(breakpoints), tuple(positives), tuple(negatives), tuple(supports))
        breakpoints.append(cross_v)
        support = support + tuple(name for r, name in crossings if r == cross_v)
        v = cross_v
    raise AssertionError("support grew beyond the curve count")


def volume_function(z: ZariskiPieces) -> PiecewisePoly:
    """v -> (P(v))^2 as an exact piecewise polynomial on [0, tau]."""
    return PiecewisePoly(z.breakpoints, tuple(pair(z.model, p, p) for p in z.positives))


def invariant_violations(z: ZariskiPieces) -> list[str]:
    """Check the structural invariants of a decomposition; returns human-readable defects.

    P and N must be affine in v on every piece; a piece that is not is
    reported and nothing else is checked.  Then each (P . C), each N-coefficient
    and the slope of the volume is affine on a piece, so its values at the piece
    ends decide each test exactly.  Checked per piece: (P . C) = 0 identically
    on the support, (P . C) >= 0 for every model curve, N-coefficients >= 0 and
    non-decreasing, support Gram negative definite, volume non-increasing;
    globally: volume continuity at breakpoints (which makes the volume
    non-increasing on all of [0, tau]) and volume zero at tau.
    """
    curved = [i for i, parts in enumerate(zip(z.positives, z.negatives))
              if any(c.degree > 1 for e in parts for c in (e.ambient, *e.coeffs))]
    if curved:
        return [f"piece {i}: P or N not affine in v" for i in curved]
    problems: list[str] = []
    model = z.model
    vol = volume_function(z)
    for i, (p, n, support, volume) in enumerate(zip(z.positives, z.negatives, z.supports, vol.pieces)):
        lo, hi = z.breakpoints[i], z.breakpoints[i + 1]
        pairings = {name: pair_curve(model, p, name) for name in model.curves}
        for name in support:
            if not pairings[name].is_zero:
                problems.append(f"piece {i}: (P . {name}) not identically zero on support")
        for name, f in pairings.items():
            if f(lo) < 0 or f(hi) < 0:
                problems.append(f"piece {i}: (P . {name}) negative on [{lo}, {hi}]")
        for name in support:
            c = n.coeff(name)
            if c(lo) < 0 or c(hi) < 0:
                problems.append(f"piece {i}: negative-part coefficient of {name} below zero")
            if c(hi) < c(lo):
                problems.append(f"piece {i}: negative-part coefficient of {name} decreasing")
        if support:
            idx = [model.index(name) for name in support]
            if not is_negative_definite([[model.gram[a][b] for b in idx] for a in idx]):
                problems.append(f"piece {i}: support Gram not negative definite")
        slope = Poly.affine(volume.coeff(1), 2 * volume.coeff(2))
        if slope(lo) > 0 or slope(hi) > 0:
            problems.append(f"piece {i}: volume increasing on [{lo}, {hi}]")
    for i in range(1, len(z.breakpoints) - 1):
        b = z.breakpoints[i]
        if vol.pieces[i - 1](b) != vol.pieces[i](b):
            problems.append(f"volume discontinuous at {b}")
    if vol.pieces[-1](z.tau) != 0:
        problems.append("volume nonzero at tau")
    return problems
