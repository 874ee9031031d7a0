"""Lower bounds for delta invariants of threefold pairs via plane-curve data.

The bounds reduce a threefold computation to a plane one: the S-invariants of
a plane flag or of the exceptional plane of a point blowup have exact closed
forms, and the remaining infimum is controlled by the delta invariant of the
plane pair cut out by the flag (a hyperplane section for a smooth point, the
projectivized tangent cone for a singular one).  All three combinators return
certified lower bounds; a result >= 1 certifies K-stability of the
corresponding polarized pair.  Each flag's S-invariant is the one gate of s
and lambda, and a bound refuses what its flag refuses and lambda*d >= 3, d the
degree of the plane curve it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .catalog import check_degree, get_case
from .delta import _value, interior_samples
from .exact import PiecewisePoly, Poly, integrate_piecewise, rat

F = Fraction


def _positive_degree(value: int, name: str) -> None:
    """TypeError unless value is an int (check_degree), ValueError unless it is >= 1."""
    if check_degree(value, name) < 1:
        raise ValueError(f"need {name} >= 1")


def _flag_base(s: int, lam: Fraction) -> Fraction:
    """4 - lam*s, the gate of the flags below: s >= 1, 0 <= lam and lam*s < 4."""
    _positive_degree(s, "surface degree s")
    if lam < 0 or lam * s >= 4:
        raise ValueError("need 0 <= lambda and lambda * s < 4")
    return 4 - lam * s


def s_plane_flag(s: int, lam) -> Fraction:
    """S of a general plane through a smooth point of a degree-s surface in P^3: (4 - lam*s)/4."""
    return _flag_base(s, rat(lam)) / 4


def s_blowup_flag(s: int, lam) -> Fraction:
    """S of the exceptional plane of a point blowup of P^3, boundary degree s: 3*(4 - lam*s)/4."""
    return 3 * _flag_base(s, rat(lam)) / 4


def _s_quadric_flag(lam: Fraction) -> Fraction:
    """S of the exceptional plane of a point blowup of the quadric threefold, boundary lam*(-K): 3*(1 - lam)."""
    if lam < 0 or lam >= 1:
        raise ValueError("need 0 <= lambda < 1")
    return 3 * (1 - lam)


def _plane_gate(lam: Fraction, d: int, delta2d: Fraction) -> None:
    """lam*d < 3 for the degree-d plane curve whose delta a bound reads, as delta_point requires of it,
    and delta2d >= 0, as that delta is.  Checked after the flag's gate; then
    15 - 9*lam - 2*lam*m > 15 - 9 - 6 = 0 on the quadric's 0 <= lam < 1."""
    if lam * d >= 3:
        raise ValueError("need lambda * d < 3, with d the degree of the plane curve the bound reads")
    if delta2d < 0:
        raise ValueError(f"need delta2d >= 0: the delta of a plane pair is not negative, got {delta2d}")


def delta_bound_smooth(s: int, lam, delta2d) -> Fraction:
    """Lower bound at a smooth surface point from a general plane flag."""
    lam, delta2d = rat(lam), rat(delta2d)
    flag = s_plane_flag(s, lam)
    _plane_gate(lam, s, delta2d)
    return min(1 / flag, delta2d * (3 - lam * s) / (3 * flag))


def delta_bound_blowup(s: int, m: int, lam, delta2d) -> Fraction:
    """Lower bound at a point of multiplicity m from the point-blowup flag."""
    lam, delta2d = rat(lam), rat(delta2d)
    _positive_degree(m, "multiplicity m")
    flag = s_blowup_flag(s, lam)
    if m > s:
        raise ValueError("need multiplicity m <= s: a point of a degree-s surface has multiplicity at most s")
    _plane_gate(lam, m, delta2d)
    factor = (3 - lam * m) / flag
    return min(factor, delta2d * factor)


def delta_bound_quadric(m: int, lam, delta2d) -> Fraction:
    """Lower bound on the quadric threefold with an anticanonical boundary."""
    lam, delta2d = rat(lam), rat(delta2d)
    _positive_degree(m, "multiplicity m")
    flag = _s_quadric_flag(lam)
    _plane_gate(lam, m, delta2d)
    first = (3 - lam * m) / flag
    second = 4 * (3 - lam * m) / (15 - 9 * lam - 2 * lam * m)  # the one term no volume identity checks
    return min(first, second, first * 4 * delta2d / 3)


# The degree each flag's S-invariant takes.
_FLAG_DEGREES: dict[str, tuple[str, ...]] = {"plane": ("s",), "blowup": ("s",), "quadric": ()}

# The volume section verify.verify_threefold_section checks: each flag at each lambda.
SECTION_FLAGS: tuple[tuple[str, dict], ...] = (("plane", {"s": 4}), ("blowup", {"s": 4}), ("quadric", {}))
SECTION_LAMBDAS: tuple[Fraction, ...] = tuple(interior_samples(F(0), F(3, 4), 5))


def verify_threefold_volumes(kind: str, params: dict, lam) -> bool:
    """Integrate the piecewise volume of the flag divisor and compare with the
    closed form of its S-invariant (s_plane_flag, s_blowup_flag, _s_quadric_flag);
    exact equality or bust.  params holds exactly the degrees the flag takes."""
    takes = _FLAG_DEGREES.get(kind)
    if takes is None:
        raise ValueError(f"unknown kind {kind!r}")
    if sorted(params) != list(takes):
        raise ValueError(f"flag {kind!r} takes the degrees {list(takes)}, not {sorted(params)}")
    lam = rat(lam)
    if kind == "quadric":
        flag = _s_quadric_flag(lam)  # first: it gates lambda
        a = 1 - lam
        shifted = Poly.of(6 * a, -1)
        vol = PiecewisePoly((F(0), 3 * a, 6 * a), (Poly.of(54 * a**3, 0, 0, -1), shifted * shifted * shifted))
        return integrate_piecewise(vol) / (54 * a**3) == flag
    s = params["s"]
    b = _flag_base(s, lam)
    if kind == "plane":
        vol, flag = Poly.of(b, -1) * Poly.of(b, -1) * Poly.of(b, -1), s_plane_flag
    else:
        vol, flag = Poly.of(b**3, 0, 0, -1), s_blowup_flag
    return integrate_piecewise(PiecewisePoly((F(0), b), (vol,))) / b**3 == flag(s, lam)


# The degrees each kind's bound takes; the last is the degree of the plane
# curve whose delta it reads (the hyperplane section at a smooth point, the
# tangent cone at a singular one).
KIND_DEGREES: dict[str, tuple[str, ...]] = {"smooth": ("s",), "blowup": ("s", "m"), "quadric": ("m",)}


@dataclass(frozen=True)
class CorollaryConfig:
    """One threefold configuration whose bound certifies K-stability.

    s is the surface degree in P^3 and m the point multiplicity; a kind takes
    exactly the degrees KIND_DEGREES names, each an int >= 1, all checked before
    the cone is read (ValueError, or TypeError for a degree that is not an int); then rat coerces
    lam, and the cone case must admit cone_degree (UnknownCase, DegreeNotAdmissible).
    """

    name: str
    kind: str  # "smooth" | "blowup" | "quadric"
    s: int | None
    m: int | None
    lam: Fraction
    cone_case: str

    def __post_init__(self) -> None:
        takes = KIND_DEGREES.get(self.kind)
        if takes is None:
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in ("s", "m"):
            if (getattr(self, name) is None) == (name in takes):
                raise ValueError(f"kind {self.kind!r} {'needs' if name in takes else 'does not use'} --{name}")
        for name, label in (("s", "surface degree s"), ("m", "multiplicity m")):
            if name in takes:
                _positive_degree(getattr(self, name), label)
        object.__setattr__(self, "lam", rat(self.lam))
        get_case(self.cone_case).row(self.cone_degree)

    @property
    def cone_degree(self) -> int:
        """The degree of the plane curve cone_case, at which its delta is read."""
        return getattr(self, KIND_DEGREES[self.kind][-1])


# Tangent cones: a surface node is a smooth conic, an A_n (n >= 2) point a pair
# of lines, an ordinary triple point a smooth cubic (flex flag), an ordinary
# quadruple point a smooth quartic (flex flag).  Smooth points use a general
# plane section, whose tangent line meets it with multiplicity two.
COROLLARY_CONFIGS: tuple[CorollaryConfig, ...] = (
    CorollaryConfig("cubic surface, smooth point", "smooth", 3, None, F(2, 3), "smooth_cubic_tangent2"),
    CorollaryConfig("cubic surface, node", "blowup", 3, 2, F(2, 3), "smooth_conic"),
    CorollaryConfig("quartic double solid, smooth point", "smooth", 4, None, F(1, 2), "smooth_quartic_tangent2"),
    CorollaryConfig("quartic double solid, node", "blowup", 4, 2, F(1, 2), "smooth_conic"),
    CorollaryConfig("quartic double solid, A_n (n>=2) point", "blowup", 4, 2, F(1, 2), "A1"),
    CorollaryConfig("quartic double solid, ordinary triple point", "blowup", 4, 3, F(1, 2), "smooth_cubic_flex"),
    CorollaryConfig("quintic surface, node", "blowup", 5, 2, F(1, 2), "smooth_conic"),
    CorollaryConfig("quintic surface, A_n (n>=2) point", "blowup", 5, 2, F(1, 2), "A1"),
    CorollaryConfig("quintic surface, ordinary triple point", "blowup", 5, 3, F(1, 2), "smooth_cubic_flex"),
    CorollaryConfig("sextic double solid, node", "blowup", 6, 2, F(1, 2), "smooth_conic"),
    CorollaryConfig("sextic double solid, A_n (n>=2) point", "blowup", 6, 2, F(1, 2), "A1"),
    CorollaryConfig("sextic double solid, ordinary triple point", "blowup", 6, 3, F(1, 2), "smooth_cubic_flex"),
    CorollaryConfig("sextic double solid, ordinary quadruple point", "blowup", 6, 4, F(1, 2), "smooth_quartic_flex"),
    CorollaryConfig("quadric threefold section, node", "quadric", None, 2, F(2, 3), "smooth_conic"),
)


class CorollaryResult(NamedTuple):
    config: CorollaryConfig
    delta2d: Fraction
    delta2d_exact: bool
    bound: Fraction

    @property
    def certifies(self) -> bool:
        return self.bound >= 1

    @property
    def strict(self) -> bool:
        return self.bound > 1


def tangent_cone_delta(cone_case: str, cone_degree: int, lam) -> tuple[Fraction, bool]:
    """Delta of the plane pair cut out by the flag, or the certified lower bound where the
    catalog value is not exact at this lambda: delta_point's (value, exact), with no report."""
    return _value(cone_case, cone_degree, lam)


def evaluate_corollary(config: CorollaryConfig) -> CorollaryResult:
    delta2d, exact = tangent_cone_delta(config.cone_case, config.cone_degree, config.lam)
    if config.kind == "smooth":
        bound = delta_bound_smooth(config.s, config.lam, delta2d)
    elif config.kind == "blowup":
        bound = delta_bound_blowup(config.s, config.m, config.lam, delta2d)
    else:  # "quadric", the last kind CorollaryConfig admits
        bound = delta_bound_quadric(config.m, config.lam, delta2d)
    return CorollaryResult(config, delta2d, exact, bound)


def corollary_suite() -> list[CorollaryResult]:
    return [evaluate_corollary(config) for config in COROLLARY_CONFIGS]
