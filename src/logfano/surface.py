"""Surface intersection model and exact Zariski decomposition.

A SurfaceModel is a finite lattice of named curve classes with a rational
intersection form, together with the pairings of a distinguished ambient class
(the pullback of the anticanonical polarization) against itself and against
each curve.  The decomposition takes D(v) as an integer row (c + s*v)/den,
affine in the flag parameter v, such as flag_family's t*H - v*E, so all
pairings are polynomials in v of degree at most 2 and the whole
decomposition is exact.

The decomposition follows a support-growth scheme: starting from an empty
negative part, solve (P(v) . C) = 0 for the support curves on each v-regime,
and let a new curve enter the support at the exact parameter value where its
pairing with the running positive part crosses zero.  The run ends where the
self-intersection of the positive part reaches zero (the pseudo-effective
threshold).

The growth runs on integers: D, P and N are integer vectors over one common
denominator, the support system is solved by one fraction-free (Bareiss)
elimination whose pivots also decide negative-definiteness, and the volume's
roots after v are found from its integer coefficients as integer pairs
(exact._root_pairs).  The running v, each crossing and each root are integer
pairs (numerator, denominator), so a Fraction is built only for each
breakpoint.  The pieces returned are those integer rows, and their readers
(invariant_violations, the S-integrals of delta and the homogeneity check of
verify) pair them through _pairings, shared with the growth, and read the
breakpoints as integer pairs, so each test is an integer sign or equality.
invariant_violations re-tests each support's Gram matrix with
exact.is_negative_definite, Sylvester's determinant test on Fractions, a
different algorithm from the Bareiss pivots that grew the support.

DivisorExpr (Polys over Fractions) and pair, its plain bilinear sum, are the
reference for the rows; _integer_divisor turns a DivisorExpr into a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .exact import (
    IrrationalRoot,
    PiecewisePoly,
    Poly,
    _fraction,
    _from_integers,
    _integers,
    _root_pairs,
    is_negative_definite,
    rat,
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
        object.__setattr__(self, "_hash", hash((self.curves, gram, self.ambient_self, self.ambient_pairings)))

    def __hash__(self) -> int:  # stored: the _unit_constants memo and verify_all look a model up per call
        return self._hash

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
    """ambient_coeff * (ambient class) + sum_i coeffs[i] * curves[i], a family in v over Fractions."""

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

    def coeff(self, name: str) -> Poly:
        return self.coeffs[self.model.index(name)]


def pair(model: SurfaceModel, d1: DivisorExpr, d2: DivisorExpr) -> Poly:
    """Bilinear extension of the intersection table, summed over Polys; a polynomial in v of degree <= 2."""
    if d1.model != model or d2.model != model:
        raise ModelMismatch("divisor expressions do not belong to the model")
    table = [(model.ambient_self, *model.ambient_pairings)]
    table += [(p, *row) for p, row in zip(model.ambient_pairings, model.gram)]
    result = Poly()
    for a, row in zip((d1.ambient, *d1.coeffs), table):
        for b, g in zip((d2.ambient, *d2.coeffs), row):
            result = result + a * b * g
    if result.degree > 2:
        raise AssertionError("pairing of affine families must have degree <= 2")
    return result


def pair_curve(model: SurfaceModel, d: DivisorExpr, name: str) -> Poly:
    """(D . C) for the model curve C called name: pair with C's unit divisor."""
    return pair(model, d, DivisorExpr.build(model, Poly(), {name: Poly.const(1)}))


# An affine divisor (c + s*v)/den on integers: c and s hold the ambient coefficient, then each curve's.
IntegerDivisor = tuple[tuple[int, ...], tuple[int, ...], int]


class ZariskiPieces(NamedTuple):
    """Positive/negative parts of D(v) on [0, tau], one regime per piece.

    Each P and N is the IntegerDivisor (c, s, den) of the support solve,
    (c + s*v)/den with den > 0: affine in v by its type.  The rows are not
    reduced, so equal values may be stored as different rows; compare them
    cross-multiplied, as verify._is_scaled does.
    """

    model: SurfaceModel
    breakpoints: tuple[Fraction, ...]
    positives: tuple[IntegerDivisor, ...]
    negatives: tuple[IntegerDivisor, ...]
    supports: tuple[tuple[str, ...], ...]

    @property
    def tau(self) -> Fraction:
        return self.breakpoints[-1]


def _dot(a: list[int], b: list[int]) -> int:
    return sum(map(mul, a, b))


def _integer_divisor(d: DivisorExpr) -> IntegerDivisor:
    """d as the row (c, s, den) over its least common denominator; ValueError unless d is affine in v."""
    polys = (d.ambient, *d.coeffs)
    if any(p.degree > 1 for p in polys):
        raise ValueError("D(v) must be affine in v")
    ints, den = _integers([p.coeff(k) for p in polys for k in (0, 1)])
    return tuple(ints[0::2]), tuple(ints[1::2]), den


def flag_family(model: SurfaceModel, t: Fraction | int) -> IntegerDivisor:
    """The divisor family D(v) = t*H - v*E, H the pulled-back line class, as an integer row.

    With t = p/q the row is c = (p, 0, ...), s = -q in E's column and den = q.
    """
    t = rat(t)
    c, s = [0] * (len(model.curves) + 1), [0] * (len(model.curves) + 1)
    c[0], s[model.index("E") + 1] = t.numerator, -t.denominator
    return tuple(c), tuple(s), t.denominator


def _pairings(table: list[list[int]], d: IntegerDivisor) -> tuple[list[int], list[int], list[int]]:
    """(f0, f1, vol) of d = (c + s*v)/den against the model's integer table over den_t.

    (d . X) = (f0[j] + f1[j]*v)/(den_t*den) for X the ambient class (j = 0) or
    the curve of table row j, and (d . d) = (vol[0] + vol[1]*v + vol[2]*v^2)/(den_t*den^2).
    """
    c, s, _ = d
    f0, f1 = [sum(map(mul, g, c)) for g in table], [sum(map(mul, g, s)) for g in table]  # _dot, inlined
    return f0, f1, [_dot(c, f0), 2 * _dot(c, f1), _dot(s, f1)]


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
        return d, ((0,) * len(c), (0,) * len(c), 1)
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
    p = (tuple(det * a - b for a, b in zip(c, nc)), tuple(det * a - b for a, b in zip(s, ns)), det * den)
    return p, (tuple(nc), tuple(ns), det * den)


_ZERO = Fraction(0)


def zariski_decompose(model: SurfaceModel, d: IntegerDivisor) -> ZariskiPieces:
    """Full decomposition on [0, tau] of the row d = (c + s*v)/den; ValueError unless it fits the model.

    v, each crossing and each volume root are integer pairs (numerator, denominator > 0),
    compared cross-multiplied; each breakpoint is built as one Fraction.
    """
    c, s, den = d
    if len(c) != len(model.curves) + 1 or len(s) != len(c) or den <= 0:
        raise ValueError(f"D(v) must be a row of {len(model.curves) + 1} coefficients over den > 0")
    table, den_t = model._integer_table
    for name, g in zip(model.curves, table[1:]):
        if _dot(g, c) < 0:
            raise NotPseudoEffective(f"D(0) pairs negatively with {name}")
    v_p, v_q = 0, 1  # v = v_p/v_q
    support: tuple[str, ...] = ()
    breakpoints = [_ZERO]
    positives: list[IntegerDivisor] = []
    negatives: list[IntegerDivisor] = []
    supports: list[tuple[str, ...]] = []
    for _ in range(len(model.curves) + 1):
        p, n = _solve_support(model, d, support)
        tc, ts, vol_ints = _pairings(table, p)
        # (P . C) = (f0 + f1*v) / (den_t*den_p) for every curve outside the support, shared by both tests below
        outside = [(name, tc[i], ts[i]) for i, name in enumerate(model.curves, 1) if name not in support]
        # absorb curves whose pairing is already zero and strictly decreasing at v
        entering = tuple(name for name, f0, f1 in outside if f1 < 0 and f0 * v_q + f1 * v_p == 0)
        if entering:
            support = support + entering
            continue
        # a falling pairing crosses zero at f0/(-f1); the least crossing after v, and the curves crossing there
        cross, crossing = None, []
        for name, f0, f1 in outside:
            if f1 < 0 and f0 * v_q > -f1 * v_p:
                if cross is None or f0 * cross[1] < cross[0] * -f1:
                    cross, crossing = (f0, -f1), [name]
                elif f0 * cross[1] == cross[0] * -f1:
                    crossing.append(name)
        # volume roots matter only before the next support change; an irrational
        # root beyond it belongs to a regime with a different volume polynomial
        hits = _root_pairs(vol_ints, (v_p, v_q), cross)
        if hits is None:  # as exact.rational_roots and roots_in_interval raise it
            raise IrrationalRoot(f"irrational roots of {_from_integers(vol_ints, den_t * p[2] * p[2]).format()}")
        if not hits and cross is None:
            raise Unbounded("volume never reaches zero and no curve enters the support")
        positives.append(p)
        negatives.append(n)
        supports.append(support)
        if hits:
            breakpoints.append(_fraction(*hits[0]))
            return ZariskiPieces(model, tuple(breakpoints), tuple(positives), tuple(negatives), tuple(supports))
        breakpoints.append(_fraction(*cross))
        support = support + tuple(crossing)
        v_p, v_q = cross
    raise AssertionError("support grew beyond the curve count")


def volume_function(z: ZariskiPieces) -> PiecewisePoly:
    """v -> (P(v))^2 as an exact piecewise polynomial on [0, tau], each piece's from _pairings."""
    table, den_t = z.model._integer_table
    volumes = (_from_integers(_pairings(table, p)[2], den_t * p[2] ** 2) for p in z.positives)
    return PiecewisePoly(z.breakpoints, tuple(volumes))


def invariant_violations(z: ZariskiPieces) -> list[str]:
    """Check the structural invariants of a decomposition; returns human-readable defects.

    P and N are integer rows (c + s*v)/den, affine in v, so each (P . C), each
    N-coefficient and the slope of the volume is affine on a piece, and its
    values at the piece ends decide each test exactly.  Checked per piece:
    (P . C) = 0 identically on the support, (P . C) >= 0 for every model curve,
    N-coefficients >= 0 and non-decreasing, support Gram negative definite,
    volume non-increasing; globally: volume continuity at breakpoints (which
    makes the volume non-increasing on all of [0, tau]) and volume zero at tau.

    The piece ends are read as integer pairs p/q: an affine f0 + f1*v has the
    sign of f0*q + f1*p there, and two pieces' volumes meet at a breakpoint
    when their numerators there, each times the other's den^2, agree.  The
    support's Fraction Gram (model.gram) is re-tested by exact.is_negative_definite,
    Sylvester's determinant test, apart from the Bareiss pivots of the decomposition.
    """
    problems: list[str] = []
    model = z.model
    table, _ = model._integer_table
    column = {name: k for k, name in enumerate(model.curves, 1)}  # a curve's row of the table
    ends = [b.as_integer_ratio() for b in z.breakpoints]
    volumes = []  # per piece: the numerator coefficients of (P . P), and den_p^2

    def at(f0: int, f1: int, v: tuple[int, int]) -> int:  # f0 + f1*v times the denominator of v
        return f0 * v[1] + f1 * v[0]

    for i, (p, n, support) in enumerate(zip(z.positives, z.negatives, z.supports)):
        lo, hi = ends[i], ends[i + 1]
        f0, f1, vol = _pairings(table, p)
        volumes.append((vol, p[2] ** 2))
        for name in support:
            if f0[column[name]] or f1[column[name]]:
                problems.append(f"piece {i}: (P . {name}) not identically zero on support")
        for name, k in column.items():
            if at(f0[k], f1[k], lo) < 0 or at(f0[k], f1[k], hi) < 0:
                problems.append(f"piece {i}: (P . {name}) negative on [{z.breakpoints[i]}, {z.breakpoints[i + 1]}]")
        nc, ns, _ = n
        for name in support:
            c0, c1 = nc[column[name]], ns[column[name]]
            if at(c0, c1, lo) < 0 or at(c0, c1, hi) < 0:
                problems.append(f"piece {i}: negative-part coefficient of {name} below zero")
            if c1 < 0:  # falling, as lo < hi
                problems.append(f"piece {i}: negative-part coefficient of {name} decreasing")
        if support:
            idx = [column[name] for name in support]
            if not is_negative_definite([[model.gram[a - 1][b - 1] for b in idx] for a in idx]):
                problems.append(f"piece {i}: support Gram not negative definite")
        if at(vol[1], 2 * vol[2], lo) > 0 or at(vol[1], 2 * vol[2], hi) > 0:
            problems.append(f"piece {i}: volume increasing on [{z.breakpoints[i]}, {z.breakpoints[i + 1]}]")

    def volume_at(i: int, v: tuple[int, int]) -> int:  # piece i's (P . P) at v times den_t*den_p^2*q^2, v = p/q
        (a0, a1, a2), _ = volumes[i]
        p, q = v
        return (a0 * q + a1 * p) * q + a2 * p * p

    for i in range(1, len(ends) - 1):
        if volume_at(i - 1, ends[i]) * volumes[i][1] != volume_at(i, ends[i]) * volumes[i - 1][1]:
            problems.append(f"volume discontinuous at {z.breakpoints[i]}")
    if volume_at(-1, ends[-1]):
        problems.append("volume nonzero at tau")
    return problems
