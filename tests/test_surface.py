"""Intersection pairing and exact Zariski decomposition."""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from logfano.catalog import CASES, build_case
from logfano.exact import IrrationalRoot, Poly, is_negative_definite, solve_linear
from logfano.surface import (
    DivisorExpr,
    IndefiniteSupport,
    ModelMismatch,
    NotPseudoEffective,
    SurfaceModel,
    Unbounded,
    ZariskiPieces,
    _integer_divisor,
    flag_family,
    invariant_violations,
    pair,
    volume_function,
    zariski_decompose,
)
from oracles import difference, divisor_expr, exprs, poly_family, rows


def conic_setup(lam=F(0)):
    model, factory, spec = build_case("smooth_conic", 2)
    return model, factory(lam), spec


class TestPair:
    def test_conic_volume_polynomial(self):
        model, d, _ = conic_setup()
        d = divisor_expr(model, d)
        assert pair(model, d, d) == Poly.of(9, 0, F(-1, 2))

    def test_cusp_table_entry(self):
        model, _, _ = build_case("A2", 4)
        e = DivisorExpr.build(model, Poly(), {"E": Poly.const(1)})
        l = DivisorExpr.build(model, Poly(), {"L": Poly.const(1)})
        assert pair(model, e, l) == Poly.const(F(1, 2))

    def test_zero_divisor(self):
        model, d, _ = conic_setup()
        assert pair(model, divisor_expr(model, d), DivisorExpr.zero(model)) == Poly()

    def test_symmetry(self):
        model, d, _ = conic_setup(F(1, 3))
        d = divisor_expr(model, d)
        l = DivisorExpr.build(model, Poly(), {"L": Poly.affine(1, 2)})
        assert pair(model, d, l) == pair(model, l, d)

    def test_model_mismatch(self):
        model1, d1, _ = conic_setup()
        model2, factory2, _ = build_case("A2", 4)
        with pytest.raises(ModelMismatch):
            pair(model1, divisor_expr(model1, d1), divisor_expr(model2, factory2(F(0))))


class TestFlagFamily:
    def test_is_the_poly_family_as_a_row(self):
        # the row of t*H - v*E equals, by value, the Poly family read through _integer_divisor
        models = {spec.model for spec in CASES.values()}
        assert len(models) == 10
        for model in models:
            for t in (F(1), F(1, 2), F(7, 3), 3 - 4 * F(3, 8)):
                c, s, den = flag_family(model, t)
                want_c, want_s, want_den = _integer_divisor(poly_family(model, t))
                assert den > 0 and len(c) == len(s) == len(want_c) == len(want_s) == len(model.curves) + 1
                assert [x * want_den for x in c] == [x * den for x in want_c]
                assert [x * want_den for x in s] == [x * den for x in want_s]


class TestDecomposition:
    def test_conic_breakpoints(self):
        model, d, _ = conic_setup()
        z = exprs(zariski_decompose(model, d))
        assert z.tau == 6
        assert z.breakpoints == (0, 3, 6)
        assert z.supports == ((), ("L",))
        assert z.negatives[0].coeff("L") == Poly()
        # negative part (v - 3) * L on the second regime
        assert z.negatives[1].coeff("L") == Poly.of(-3, 1)

    def test_single_curve_case(self):
        model, factory, _ = build_case("A1", 4)
        z = zariski_decompose(model, factory(F(0)))
        assert z.tau == 3
        assert z.breakpoints == (0, 3)
        assert z.supports == ((),)

    def test_nef_at_zero(self):
        model, d, _ = conic_setup(F(1, 4))
        z = exprs(zariski_decompose(model, d))
        p, want = z.positives[0], divisor_expr(model, d)
        assert [c(F(0)) for c in (p.ambient, *p.coeffs)] == [c(F(0)) for c in (want.ambient, *want.coeffs)]
        assert all(c.is_zero for c in z.negatives[0].coeffs)

    def test_thresholds(self):
        model, factory, _ = build_case("A2", 4)
        assert zariski_decompose(model, factory(F(1, 2))).tau == 3
        model, d, _ = conic_setup()
        assert zariski_decompose(model, d).tau == 6
        model, factory, _ = build_case("A1", 4)
        assert zariski_decompose(model, factory(F(0))).tau == 3

    def test_volume_endpoints(self):
        model, factory, _ = build_case("A2", 4)
        z = zariski_decompose(model, factory(F(1, 2)))
        assert z.tau == 3
        vol = volume_function(z)
        assert vol(0) == 1  # (3 - d*lambda)^2 at lambda = 1/2, d = 4
        assert vol(z.tau) == 0
        assert vol.pieces[0] == Poly.of(1, 0, F(-1, 6))
        assert vol.pieces[1] == Poly.of(3, -2, F(1, 3))

    def test_not_pseudo_effective(self):
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(-1),))
        d = flag_family(model, 1)
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(model, d)

    def test_indefinite_support_detected(self):
        # a companion curve with nonnegative self-intersection whose pairing
        # crosses zero before the volume vanishes cannot enter a negative part
        model = SurfaceModel(
            ("E", "L"),
            ((F(-1), F(2)), (F(2), F(1))),
            F(1),
            (F(0), F(1)),
        )
        d = flag_family(model, 3)
        with pytest.raises(IndefiniteSupport):
            zariski_decompose(model, d)

    def test_irrational_breakpoint_surfaces(self):
        # E^2 = -2 on a single-curve model makes the volume vanish at 3/sqrt(2)
        model = SurfaceModel(("E",), ((F(-2),),), F(1), (F(0),))
        d = flag_family(model, 3)
        with pytest.raises(IrrationalRoot):
            zariski_decompose(model, d)

    def test_constant_volume_is_unbounded(self):
        # E.E = 0 and H.E = 0: (P . E) is 0 for every v and the volume stays 9
        model = SurfaceModel(("E",), ((F(0),),), F(1), (F(0),))
        d = flag_family(model, 3)
        with pytest.raises(Unbounded, match=r"^volume never reaches zero and no curve enters the support$"):
            zariski_decompose(model, d)

    def test_malformed_row_is_refused(self):
        # the conic model has E and L: a row holds the ambient coefficient and two curves' over den > 0
        model, (c, s, den), _ = conic_setup()
        message = r"^D\(v\) must be a row of 3 coefficients over den > 0$"
        for bad in ((c[:-1], s[:-1], den), (c + (0,), s + (0,), den), (c, s + (0,), den), (c, s, 0)):
            with pytest.raises(ValueError, match=message):
                zariski_decompose(model, bad)


class TestInvariants:
    @pytest.mark.parametrize("case_id,d", [("smooth_conic", 2), ("A2", 4), ("A4", 4), ("A7", 4), ("E6", 4)])
    def test_engine_output_clean(self, case_id, d):
        model, factory, spec = build_case(case_id, d)
        for lam in [F(0), F(1, 8), F(1, 3)]:
            z = zariski_decompose(model, factory(lam))
            assert invariant_violations(z) == []

    def test_violations_reported_for_corrupted_pieces(self):
        model, d, _ = conic_setup()
        z = zariski_decompose(model, d)
        assert z.tau == 6
        bad = type(z)(
            model,
            z.breakpoints,
            (z.positives[1], z.positives[0]),
            (z.negatives[1], z.negatives[0]),
            (z.supports[1], z.supports[0]),
        )
        assert invariant_violations(bad)

    def test_volume_rising_between_samples_is_flagged(self):
        # P = (v - 19/20)*H - E/20 on [0, 1] of the single-E model: (P . E) = 1/20, the volume
        # (v - 19/20)^2 - 1/400 is zero at 1 and falls at every multiple of 1/6 and 1/5, yet
        # rises on (19/20, 1]; its slope at the piece end decides
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))
        p = DivisorExpr.build(model, Poly.affine(F(-19, 20), 1), {"E": Poly.const(F(-1, 20))})
        z = rows(ZariskiPieces(model, (F(0), F(1)), (p,), (DivisorExpr.zero(model),), ((),)))
        assert volume_function(z)(F(1)) == 0 and pair(model, p, DivisorExpr.build(model, Poly(), {"E": Poly.const(1)})) == Poly.const(F(1, 20))
        assert invariant_violations(z) == ["piece 0: volume increasing on [0, 1]"]

    def test_support_pairing_not_zero_is_reported(self):
        model, d, _ = conic_setup()
        z = zariski_decompose(model, d)
        assert z.supports == ((), ("L",))
        bad = dataclasses.replace(z, supports=(("L",), ("L",)))
        assert invariant_violations(bad) == ["piece 0: (P . L) not identically zero on support"]

    def test_decreasing_negative_part_is_reported(self):
        model, d, _ = conic_setup()
        z = zariski_decompose(model, d)
        lo, hi = z.breakpoints[1:]
        falling = DivisorExpr.build(model, Poly(), {"L": Poly.affine(hi, -1)})  # hi - v: nonnegative on [lo, hi]
        bad = dataclasses.replace(z, negatives=(z.negatives[0], _integer_divisor(falling)))
        assert invariant_violations(bad) == ["piece 1: negative-part coefficient of L decreasing"]

    def test_support_gram_not_negative_definite_is_reported(self):
        # E.E = +1: P = (1 - v)*H has (P . E) = 0 and a volume that falls to zero at 1, yet E cannot be a support
        model = SurfaceModel(("E",), ((F(1),),), F(1), (F(0),))
        p = DivisorExpr.build(model, Poly.affine(1, -1))
        z = rows(ZariskiPieces(model, (F(0), F(1)), (p,), (DivisorExpr.zero(model),), (("E",),)))
        assert invariant_violations(z) == ["piece 0: support Gram not negative definite"]

    def test_two_curve_support_gram_not_negative_definite_is_reported(self):
        # P = (1 - v)*H pairs to zero with every curve; the support (L, E), listed out of model
        # order, has a negative diagonal and determinant 0, so its second leading minor fails,
        # while the blocks a shifted index into model.gram would read, (M, L) or (E, M), are definite
        gram = ((-1, 1, 0), (1, -1, 0), (0, 0, -1))
        model = SurfaceModel(("E", "L", "M"), gram, F(1), (F(0), F(0), F(0)))
        p = DivisorExpr.build(model, Poly.affine(1, -1))
        z = rows(ZariskiPieces(model, (F(0), F(1)), (p,), (DivisorExpr.zero(model),), (("L", "E"),)))
        assert invariant_violations(z) == ["piece 0: support Gram not negative definite"]

    def test_volume_discontinuous_at_a_breakpoint_is_reported(self):
        # (1 - v)^2 on [0, 1/2], then (1 - v)^2 - 1/16 on [1/2, 3/4]: each falls, the second to zero at 3/4
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))
        p0 = DivisorExpr.build(model, Poly.affine(1, -1))
        p1 = DivisorExpr.build(model, Poly.affine(1, -1), {"E": Poly.const(F(-1, 4))})
        zero = DivisorExpr.zero(model)
        z = rows(ZariskiPieces(model, (F(0), F(1, 2), F(3, 4)), (p0, p1), (zero, zero), ((), ())))
        assert invariant_violations(z) == ["volume discontinuous at 1/2"]

    def test_piece_not_affine_in_v_is_refused(self):
        # pieces are integer rows (c + s*v)/den, which hold no v^2 term: a curved D(v) is refused
        # where it becomes a row, by _integer_divisor, and so is a curved hand-built piece
        model = SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))
        p = DivisorExpr.build(model, Poly.const(1), {"E": Poly.of(0, 0, -1)})
        with pytest.raises(ValueError, match=r"^D\(v\) must be affine in v$"):
            _integer_divisor(p)
        with pytest.raises(ValueError, match=r"^D\(v\) must be affine in v$"):
            rows(ZariskiPieces(model, (F(0), F(1)), (p,), (DivisorExpr.zero(model),), ((),)))


def brute_force_negative_part(model, d, v):
    """Independent solver: try every support subset, keep the one that is valid.

    Solves the orthogonality system at the single parameter value v, demands
    nonnegative coefficients, a nef positive part, and a negative-definite
    support Gram matrix, and canonicalizes by dropping zero coefficients.
    """
    names = model.curves
    valid = set()
    for r in range(len(names) + 1):
        for subset in itertools.combinations(range(len(names)), r):
            gram = [[model.gram[i][j] for j in subset] for i in subset]
            if subset and not is_negative_definite(gram):
                continue
            rhs = [pair(model, d, DivisorExpr.build(model, Poly(), {names[j]: Poly.const(1)}))(v) for j in subset]
            try:
                coeffs = solve_linear(gram, rhs) if subset else []
            except ValueError:
                continue
            if any(c < 0 for c in coeffs):
                continue
            n_expr = DivisorExpr.build(
                model, Poly(), {names[j]: Poly.const(c) for j, c in zip(subset, coeffs)}
            )
            p_expr = difference(d, n_expr)
            ok = True
            for name in names:
                unit = DivisorExpr.build(model, Poly(), {name: Poly.const(1)})
                if pair(model, p_expr, unit)(v) < 0:
                    ok = False
                    break
            if not ok:
                continue
            canonical = tuple(sorted(names[j] for j, c in zip(subset, coeffs) if c != 0))
            valid.add((canonical, tuple((names[j], c) for j, c in zip(subset, coeffs) if c != 0)))
    assert len(valid) == 1, f"expected a unique decomposition at v={v}, got {valid}"
    return dict(next(iter(valid))[1])


@pytest.mark.parametrize(
    "case_id,d,lam",
    [
        ("smooth_conic", 2, F(0)),
        ("smooth_conic", 2, F(1, 2)),
        ("A2", 4, F(1, 2)),
        ("A4", 4, F(1, 2)),
        ("A5", 4, F(1, 2)),
        ("A7", 4, F(1, 2)),
        ("E6", 4, F(1, 4)),
        ("D6", 4, F(1, 5)),
    ],
)
def test_brute_force_oracle_equivalence(case_id, d, lam):
    model, factory, spec = build_case(case_id, d)
    z = exprs(zariski_decompose(model, factory(lam)))
    div = divisor_expr(model, factory(lam))
    for i in range(len(z.positives)):
        lo, hi = z.breakpoints[i], z.breakpoints[i + 1]
        for k in range(1, 6):
            v = lo + (hi - lo) * F(k, 6)
            expected = brute_force_negative_part(model, div, v)
            engine = {
                name: z.negatives[i].coeff(name)(v)
                for name in z.supports[i]
                if z.negatives[i].coeff(name)(v) != 0
            }
            assert engine == expected, f"{case_id} at v={v}"
