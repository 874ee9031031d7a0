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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    PiecewisePoly,
    Poly,
    _from_integers,
    _integers,
    is_negative_definite,
    rat,
    rational_roots,
    roots_in_interval,
    solve_linear,
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


def pair(model: SurfaceModel, d1: DivisorExpr, d2: DivisorExpr) -> Poly:
    """Bilinear extension of the intersection table; a polynomial in v of degree <= 2.

    The terms are summed as integers over the common denominator of the table
    and of both divisors, one Fraction per result coefficient.
    """
    if d1.model != model or d2.model != model:
        raise ModelMismatch("divisor expressions do not belong to the model")
    table, den = model._integer_table
    rows1, den1 = _integer_rows(d1)
    rows2, den2 = _integer_rows(d2)
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
    rows, den_d = _integer_rows(d)
    acc: list[int] = []
    for a, g in zip(rows, column):
        if g:
            _add_product(acc, a, [1], g)
    return _checked_pairing(acc, den * den_d)


def _integer_rows(d: DivisorExpr) -> tuple[list[list[int]], int]:
    """(rows, den): the ambient coefficients, then each curve's, as integers over one common denominator."""
    polys = (d.ambient, *d.coeffs)
    den = math.lcm(*[c.denominator for p in polys for c in p.coeffs])  # exact._integers, kept per polynomial
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys], den


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


def _solve_support(
    model: SurfaceModel, d: DivisorExpr, support: tuple[str, ...]
) -> tuple[DivisorExpr, DivisorExpr]:
    """Solve (P . C) = 0 for C in the support; N-coefficients come out affine in v."""
    if not support:
        return d, DivisorExpr.zero(model)
    idx = [model.index(name) for name in support]
    gram = [[model.gram[i][j] for j in idx] for i in idx]
    if not is_negative_definite(gram):
        raise IndefiniteSupport(f"support {support} has non negative-definite Gram matrix")
    rhs = [pair_curve(model, d, name) for name in support]
    if any(r.degree > 1 for r in rhs):
        raise AssertionError("support system must be affine in v")
    c0 = solve_linear(gram, [r.coeff(0) for r in rhs])
    c1 = solve_linear(gram, [r.coeff(1) for r in rhs])
    coeffs = {name: Poly.affine(c0[k], c1[k]) for k, name in enumerate(support)}
    n = DivisorExpr.build(model, Poly(), coeffs)
    return d - n, n


def _grow(model: SurfaceModel, d: DivisorExpr) -> ZariskiPieces:
    for name in model.curves:
        if pair_curve(model, d, name).coeff(0) < 0:
            raise NotPseudoEffective(f"D(0) pairs negatively with {name}")
    v = Fraction(0)
    support: tuple[str, ...] = ()
    breakpoints = [Fraction(0)]
    positives: list[DivisorExpr] = []
    negatives: list[DivisorExpr] = []
    supports: list[tuple[str, ...]] = []
    for _ in range(len(model.curves) + 1):
        p, n = _solve_support(model, d, support)
        # (P . C) for every curve outside the support, shared by both tests below
        outside = {name: pair_curve(model, p, name) for name in model.curves if name not in support}
        # absorb curves whose pairing is already zero and strictly decreasing at v
        entering = [name for name, f in outside.items() if f(v) == 0 and f.coeff(1) < 0]
        if entering:
            support = support + tuple(entering)
            continue
        vol = pair(model, p, p)
        crossings: list[tuple[Fraction, str]] = []
        for name, f in outside.items():
            if f.degree == 1:
                root = -f.coeff(0) / f.coeff(1)
                if f.coeff(1) < 0 and root > v:
                    crossings.append((root, name))
        cross_v = min((r for r, _ in crossings), default=None)
        # volume roots matter only before the next support change; an irrational
        # root beyond it belongs to a regime with a different volume polynomial
        if cross_v is None:
            vol_hits = [r for r in rational_roots(vol) if r >= v]
            if not vol_hits:
                raise Unbounded("volume never reaches zero and no curve enters the support")
        else:
            vol_hits = roots_in_interval(vol, v, cross_v)
        if vol_hits:
            breakpoints.append(min(vol_hits))
            positives.append(p)
            negatives.append(n)
            supports.append(support)
            return ZariskiPieces(model, tuple(breakpoints), tuple(positives), tuple(negatives), tuple(supports))
        breakpoints.append(cross_v)
        positives.append(p)
        negatives.append(n)
        supports.append(support)
        support = support + tuple(name for r, name in crossings if r == cross_v)
        v = cross_v
    raise AssertionError("support grew beyond the curve count")


def pseudo_effective_threshold(model: SurfaceModel, d: DivisorExpr) -> Fraction:
    """Smallest v >= 0 at which the running volume (P(v))^2 reaches zero."""
    return _grow(model, d).tau


def zariski_decompose(model: SurfaceModel, d: DivisorExpr, v_max: Fraction | None = None) -> ZariskiPieces:
    """Full decomposition on [0, tau]; a given v_max must equal the computed threshold tau."""
    pieces = _grow(model, d)
    if v_max is not None and pieces.tau != rat(v_max):
        raise ValueError(f"v_max {v_max} != computed pseudo-effective threshold {pieces.tau}")
    return pieces


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
