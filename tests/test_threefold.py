"""Threefold lower-bound combinators and their exact volume identities."""

from __future__ import annotations

import re
from fractions import Fraction as F

import pytest

from logfano import threefold
from logfano.delta import interior_samples
from logfano.threefold import (
    COROLLARY_CONFIGS,
    CorollaryConfig,
    corollary_suite,
    delta_bound_blowup,
    delta_bound_quadric,
    delta_bound_smooth,
    s_blowup_flag,
    s_plane_flag,
    verify_threefold_volumes,
)
from logfano.verify import verify_threefold_section


class TestFlagInvariants:
    def test_plane_flag(self):
        assert s_plane_flag(4, F(1, 2)) == F(1, 2)
        assert s_plane_flag(3, F(2, 3)) == F(1, 2)
        assert s_plane_flag(4, F(0)) == 1

    def test_blowup_flag(self):
        assert s_blowup_flag(4, F(1, 2)) == F(3, 2)
        assert s_blowup_flag(6, F(1, 2)) == F(3, 4)
        assert s_blowup_flag(5, F(0)) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            s_plane_flag(6, F(2, 3))
        with pytest.raises(ValueError):
            delta_bound_blowup(6, 2, F(2, 3), F(1))
        with pytest.raises(ValueError):
            delta_bound_quadric(0, F(1, 2), F(1))
        with pytest.raises(ValueError):
            delta_bound_quadric(2, F(1), F(1))

    @pytest.mark.parametrize("call, message", [
        (lambda: s_plane_flag(4, -1), "need 0 <= lambda and lambda * s < 4"),
        (lambda: s_blowup_flag(4, -1), "need 0 <= lambda and lambda * s < 4"),
        (lambda: verify_threefold_volumes("plane", {"s": 4}, -1), "need 0 <= lambda and lambda * s < 4"),
        (lambda: verify_threefold_volumes("quadric", {}, -1), "need 0 <= lambda < 1"),
        (lambda: verify_threefold_volumes("quadric", {}, 1), "need 0 <= lambda < 1"),
        (lambda: s_plane_flag(0, F(1, 2)), "need surface degree s >= 1"),
        (lambda: delta_bound_smooth(0, F(1, 2), 1), "need surface degree s >= 1"),
        (lambda: delta_bound_blowup(-3, 2, F(1, 2), 1), "need surface degree s >= 1"),
        (lambda: delta_bound_blowup(2, 3, F(1, 2), 1),
         "need multiplicity m <= s: a point of a degree-s surface has multiplicity at most s"),
    ], ids=["plane-negative-lambda", "blowup-negative-lambda", "plane-volume-negative-lambda",
            "quadric-volume-negative-lambda", "quadric-volume-lambda-one", "plane-s-zero", "smooth-s-zero",
            "blowup-s-negative", "blowup-m-above-s"])
    def test_each_flag_gates_its_inputs(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_bounds_keep_their_lambda_messages(self):
        for call in (lambda: delta_bound_smooth(4, -1, 1), lambda: delta_bound_blowup(4, 2, 1, 1)):
            with pytest.raises(ValueError, match=r"^need 0 <= lambda and lambda \* s < 4$"):
                call()
        for lam in (-1, 1):
            with pytest.raises(ValueError, match="^need 0 <= lambda < 1$"):
                delta_bound_quadric(2, lam, 1)

    @pytest.mark.parametrize("call", [
        lambda: delta_bound_quadric(4, F(15, 17), 1),  # its second term divided by zero
        lambda: delta_bound_smooth(4, F(4, 5), 1),  # -1/3
        lambda: delta_bound_blowup(4, 4, F(9, 10), 1),  # -2
        lambda: delta_bound_quadric(4, F(9, 10), 1),  # -8/3
        lambda: delta_bound_smooth(4, F(3, 4), 1),  # 0, at lambda*s = 3
        lambda: delta_bound_blowup(5, 4, F(3, 4), 1),  # 0, at lambda*m = 3
    ], ids=["quadric-zero-division", "smooth-negative", "blowup-negative", "quadric-negative",
            "smooth-at-three", "blowup-at-three"])
    def test_bounds_refuse_lambda_d_from_three(self, call):
        with pytest.raises(ValueError, match=r"^need lambda \* d < 3, with d the degree of the plane curve the bound reads$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: delta_bound_blowup(4, 2.0, "1/2", 1), "multiplicity m 2.0 is not an int"),  # returned 1.333...
        (lambda: delta_bound_quadric(2.0, F(2, 3), 1), "multiplicity m 2.0 is not an int"),
        (lambda: delta_bound_smooth(3.0, F(2, 3), 1), "surface degree s 3.0 is not an int"),
        (lambda: s_blowup_flag(4.0, F(1, 2)), "surface degree s 4.0 is not an int"),
        (lambda: verify_threefold_volumes("plane", {"s": 4.0}, F(1, 2)), "surface degree s 4.0 is not an int"),
    ], ids=["blowup-m", "quadric-m", "smooth-s", "blowup-flag-s", "plane-volume-s"])
    def test_a_float_degree_is_refused(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: delta_bound_smooth(True, "1/2", 1), "surface degree s True is not an int"),  # returned 20/21
        (lambda: delta_bound_blowup(4, True, "1/2", 1), "multiplicity m True is not an int"),  # returned 5/3
    ], ids=["smooth-s", "blowup-m"])
    def test_a_bool_degree_is_refused(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: delta_bound_smooth(3, F(2, 3), -1),  # returned -2/3
        lambda: delta_bound_blowup(4, 2, F(1, 2), -1),  # returned -4/3
        lambda: delta_bound_quadric(2, F(2, 3), -1),  # returned -20/9
    ], ids=["smooth", "blowup", "quadric"])
    def test_bounds_refuse_a_negative_plane_delta(self, call):
        with pytest.raises(ValueError, match=r"^need delta2d >= 0: the delta of a plane pair is not negative, got -1$"):
            call()

    def test_accepted_quadric_range_is_finite_and_positive(self):
        for m in range(1, 9):
            hi = min(F(1), F(3, m))
            for lam in (F(0), *interior_samples(F(0), hi, 7), hi - F(1, 10**6)):
                assert 15 - 9 * lam - 2 * lam * m > 0 and delta_bound_quadric(m, lam, 1) > 0, (m, lam)


class TestBounds:
    def test_smooth_cubic_surface(self):
        assert delta_bound_smooth(3, F(2, 3), F(5, 3)) == F(10, 9)

    def test_smooth_lambda_zero(self):
        assert delta_bound_smooth(5, F(0), F(1)) == 1

    def test_smooth_not_always_at_least_one(self):
        assert delta_bound_smooth(4, F(1, 2), F(1)) == F(2, 3)

    def test_blowup_node(self):
        assert delta_bound_blowup(4, 2, F(1, 2), F(1)) == F(4, 3)

    def test_blowup_sextic_quadruple(self):
        factor = F(4) * (3 - 2) / (3 * (4 - 3))
        assert delta_bound_blowup(6, 4, F(1, 2), F(15, 8)) == factor * min(1, F(15, 8))

    def test_blowup_lambda_zero(self):
        assert delta_bound_blowup(4, 2, F(0), F(1)) == 1

    def test_quadric_node(self):
        assert delta_bound_quadric(2, F(2, 3), F(1)) == F(20, 19)
        # term-by-term agreement with the specialized display at lambda = 2/3
        m = 2
        assert (3 - F(2, 3) * m) / (3 * (1 - F(2, 3))) == 3 - F(2 * m, 3)
        assert F(4) * (3 - F(2, 3) * m) / (15 - 6 - F(4, 3) * m) == 1 + F(9 - 4 * m, 27 - 4 * m)

    def test_quadric_lambda_zero_not_normalized(self):
        assert delta_bound_quadric(2, F(0), F(1)) == F(4, 5)

    def test_factor_consistency(self):
        # both blowup-bound arguments share the factor 4(3-lm)/(3(4-ls))
        for lam in interior_samples(F(0), F(3, 4), 5):
            factor = F(4) * (3 - lam * 2) / (3 * (4 - lam * 4))
            for delta2d in (F(1, 2), F(1), F(7, 5)):
                assert delta_bound_blowup(4, 2, lam, delta2d) == min(factor, delta2d * factor)


@pytest.fixture(scope="module")
def section():
    return verify_threefold_section()


class TestVolumes:
    @pytest.mark.parametrize("kind,params", threefold.SECTION_FLAGS)
    def test_all_kinds(self, section, kind, params):
        checks = [c for c in section if c.name.partition(" ")[0] == kind]
        assert [c.name for c in checks] == [f"{kind} volume at l={lam}" for lam in threefold.SECTION_LAMBDAS]
        assert all(c.ok for c in checks)
        assert len(section) == 15

    def test_quadric_value(self):
        assert verify_threefold_volumes("quadric", {}, F(1, 3))
        assert verify_threefold_volumes("quadric", {}, F(0))

    def test_plane_params(self):
        assert verify_threefold_volumes("plane", {"s": 3}, F(2, 3))

    @pytest.mark.parametrize("kind", ["plane", "blowup"])
    @pytest.mark.parametrize("s", [3, 4, 5, 6])
    def test_flag_closed_forms_against_integrals(self, kind, s):
        for lam in interior_samples(F(0), F(4, s), 5):
            assert verify_threefold_volumes(kind, {"s": s}, lam), (kind, s, lam)

    @pytest.mark.parametrize("kind, params, message", [
        ("plane", {}, r"flag 'plane' takes the degrees \['s'\], not \[\]"),
        ("blowup", {"s": 4, "m": 2}, r"flag 'blowup' takes the degrees \['s'\], not \['m', 's'\]"),
        ("quadric", {"s": 9}, r"flag 'quadric' takes the degrees \[\], not \['s'\]"),
        ("cone", {}, "unknown kind 'cone'"),
    ], ids=["plane-missing", "blowup-unused", "quadric-unused", "unknown"])
    def test_degrees_the_flag_does_not_take_are_refused(self, kind, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_threefold_volumes(kind, params, F(1, 2))


class TestBoundsReadTheCheckedFlags:
    """Each bound reads the flag S-invariant whose volume identity verify checks."""

    @pytest.mark.parametrize("flag, kind, bound", [
        ("s_plane_flag", "plane", lambda: delta_bound_smooth(3, F(2, 3), F(5, 3))),
        ("s_blowup_flag", "blowup", lambda: delta_bound_blowup(4, 2, F(1, 2), F(1))),
        # the third term, first * 4 * delta2d / 3, binds at delta2d = 1/4
        ("_s_quadric_flag", "quadric", lambda: delta_bound_quadric(2, F(2, 3), F(1, 4))),
    ], ids=["plane", "blowup", "quadric"])
    def test_scaled_flag_fails_its_volumes_and_moves_its_bound(self, monkeypatch, flag, kind, bound):
        before = bound()
        real = getattr(threefold, flag)
        monkeypatch.setattr(threefold, flag, lambda *args: real(*args) * F(101, 100))
        failed = [c.name for c in verify_threefold_section() if not c.ok]
        assert len(failed) == 5 and all(name.startswith(f"{kind} volume") for name in failed)
        assert bound() != before


class TestCorollaries:
    def test_all_certify(self):
        results = corollary_suite()
        assert len(results) == len(COROLLARY_CONFIGS)
        for r in results:
            assert r.certifies, r.config.name

    def test_cone_read_at_the_kinds_last_degree(self):
        for config in COROLLARY_CONFIGS:
            assert config.cone_degree == (config.s if config.kind == "smooth" else config.m), config.name

    @pytest.mark.parametrize("kind, s, m, message", [
        ("smooth", 3, 2, "kind 'smooth' does not use --m"),
        ("quadric", None, None, "kind 'quadric' needs --m"),
        ("cone", 3, 2, "unknown kind 'cone'"),
    ])
    def test_config_refuses_degrees_its_kind_does_not_take(self, kind, s, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CorollaryConfig("x", kind, s, m, F(1, 2), "smooth_conic")

    @pytest.mark.parametrize("kind, s, m, error, message", [
        ("smooth", 0, None, ValueError, "need surface degree s >= 1"),
        ("quadric", None, 0, ValueError, "need multiplicity m >= 1"),
        ("blowup", 0, 2, ValueError, "need surface degree s >= 1"),
        ("blowup", 4, -1, ValueError, "need multiplicity m >= 1"),
        ("blowup", 4, 2.0, TypeError, "multiplicity m 2.0 is not an int"),
        ("smooth", True, None, TypeError, "surface degree s True is not an int"),
    ], ids=["smooth-s-zero", "quadric-m-zero", "blowup-s-zero", "blowup-m-negative", "float-m", "bool-s"])
    def test_config_gates_each_degree_before_the_cone_is_read(self, kind, s, m, error, message):
        # the cone's row was read first: these said "case A2 does not admit degree 0" (or 2)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CorollaryConfig("x", kind, s, m, F(1, 2), "A2")

    def test_reference_values(self):
        by_name = {r.config.name: r for r in corollary_suite()}
        assert by_name["quartic double solid, node"].bound == F(4, 3)
        assert by_name["quadric threefold section, node"].bound == F(20, 19)
        assert by_name["cubic surface, smooth point"].bound == F(10, 9)
        triple = by_name["quartic double solid, ordinary triple point"]
        assert triple.bound == 1 and not triple.strict
