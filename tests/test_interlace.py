"""Interlace number, certs, angle-interlacing, and the bound ladder."""

from fractions import Fraction as Q

import mpmath
import pytest

from palinlace.errors import EmptyPolynomial, NotApplicable, NotFull, NotTrim
from palinlace.interlace import (
    angle_interlaces,
    bound_ladder,
    increasing_upper_bound,
    interlace_number,
    interlace_rational_candidates,
    is_interlace_rational,
    kwon_bound,
    ll_bound,
    monotonic_lower,
    ramanujan_lower,
    shift_geometric,
)
from palinlace.polycore import (
    Polynomial,
    instantiate,
    make_polynomial,
    p_alpha,
    zero_polynomial,
)
from palinlace.precision import working_precision
from palinlace.families import random_trim_palindromic

from conftest import approx, ge, rel_close


class TestInterlaceNumber:
    def test_geometric(self):
        res = interlace_number(ge(6))
        assert approx(res.value, Q(1, 2), "1e-25")
        assert sorted(res.certs) == [1, 2, 3]
        assert res.certified

    def test_d6_pair(self):
        q = make_polynomial([172, 100, 198, 100, 172], offset=1)
        assert approx(interlace_number(q).value, 171, "1e-20")
        p = make_polynomial([100, 172, 198, 172, 100], offset=1)
        assert approx(interlace_number(p).value, 135, "1e-20")

    def test_basis_polynomial(self):
        res = interlace_number(make_polynomial([1, 0, 1], offset=1))
        assert approx(res.value, 1, "1e-25")
        assert sorted(res.certs) == [2]

    def test_fekete5(self):
        res = interlace_number(make_polynomial([1, -1, -1, 1], offset=1))
        with working_precision(256):
            assert abs(res.value - mpmath.sqrt(5) / 2) < mpmath.mpf("1e-30")

    def test_exapol(self):
        with working_precision(256):
            b = 1 - mpmath.sqrt(5)
            p = make_polynomial([b, 6, 6, b], offset=1)
            res = interlace_number(p)
            assert abs(res.value - (3 + mpmath.sqrt(5))) < mpmath.mpf("1e-20")
        assert sorted(res.certs) == [1]

    def test_self_inversive_uses_full_circle(self):
        p = Polynomial([0, 1, 1], [0, 1, -1])  # (1+i)x + (1-i)x^2, darga 3
        res = interlace_number(p)
        assert all(0 <= j < 3 for j in res.certs)
        vals = [-p.evaluate_complex(mpmath.expjpi(mpmath.mpf(2 * j) / 3)).real / 2
                for j in range(3)]
        with working_precision():
            assert approx(res.value, max(vals), "1e-15")

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyPolynomial):
            interlace_number(zero_polynomial(4))
        with pytest.raises(NotTrim):
            interlace_number(make_polynomial([1, 2, 1]))


class TestAngleInterlaces:
    def test_xn_plus_1(self):
        from palinlace.polycore import x_pow_n_plus_1
        assert angle_interlaces(x_pow_n_plus_1(7))

    def test_threshold_straddle(self):
        ap = p_alpha(ge(6))
        assert angle_interlaces(instantiate(ap, Q(6, 10)))
        assert not angle_interlaces(instantiate(ap, Q(4, 10)))

    def test_zero_value_breaks_strictness(self):
        assert not angle_interlaces(make_polynomial([1, 2, 1]))

    def test_trim_rejected(self):
        with pytest.raises(NotFull):
            angle_interlaces(ge(5))


class TestUpperBounds:
    def test_basis_bounds(self):
        for n, k in [(4, 1), (5, 2), (7, 1)]:
            p = make_polynomial([0] * (k - 1) + [1], offset=1) + \
                make_polynomial([1], offset=n - k, allow_zero=True)
            assert ll_bound(p) == 1
            assert kwon_bound(p) == 1

    def test_d6_kwon(self):
        q = make_polynomial([172, 100, 198, 100, 172], offset=1)
        assert kwon_bound(q) == 171

    def test_stretched_kwon_degrades(self):
        p = make_polynomial([100, 172, 198, 172, 100], offset=1)
        px2 = p.stretch(2)
        assert kwon_bound(px2) == 371
        assert ll_bound(px2) == 371

    def test_kwon_skipped_when_p1_negative(self):
        p = ge(6).scale(-1)
        assert kwon_bound(p) is None

    def test_increasing_upper_applies(self):
        p = make_polynomial([1, 2, 3, 2, 1], offset=1)  # strictly increasing half
        b = increasing_upper_bound(p)
        assert b is not None
        res = interlace_number(p)
        with working_precision():
            assert res.value <= b + mpmath.mpf("1e-20")


class TestLowerBounds:
    def test_geometric_ramanujan(self):
        assert ramanujan_lower(ge(6)) == Q(1, 2)

    def test_coprime_support(self):
        r6 = make_polynomial([1, 0, 0, 0, 1], offset=1)
        assert ramanujan_lower(r6) == 1

    def test_tgcd(self):
        p = make_polynomial([1, 2, 3, 2, 1], offset=1)
        assert ramanujan_lower(p) == 2

    def test_monotonic_lower_formula(self):
        # sigma = (1, 2, 3), darga 6: 3 + (2-1)(1 - 5/9) = 31/9
        p = make_polynomial([1, 2, 6, 2, 1], offset=1)
        assert monotonic_lower(p) == Q(31, 9)
        res = interlace_number(p)
        with working_precision():
            from palinlace.polycore import as_mpf
            assert res.value >= as_mpf(Q(31, 9)) - mpmath.mpf("1e-20")

    def test_monotonic_lower_constant(self):
        p = make_polynomial([3, 3, 6, 3, 3], offset=1)  # sigma constant 3
        assert monotonic_lower(p) == 3

    def test_monotonic_lower_rejects_decreasing(self):
        with pytest.raises(NotApplicable):
            monotonic_lower(make_polynomial([3, 1, 1, 1, 3], offset=1))


class TestInterlaceRational:
    def test_tgcd6(self):
        ok, v = is_interlace_rational(make_polynomial([1, 2, 3, 2, 1], offset=1))
        assert ok and v == 2

    def test_darga3_basis(self):
        ok, v = is_interlace_rational(make_polynomial([1, 1], offset=1))
        assert ok and v == Q(1, 2)

    def test_r15(self):
        coeffs = [1 if __import__("math").gcd(j, 15) == 1 else 0
                  for j in range(1, 15)]
        ok, v = is_interlace_rational(make_polynomial(coeffs, offset=1))
        assert ok and v == 2

    def test_irrational_case(self):
        ok, v = is_interlace_rational(make_polynomial([1, -1, -1, 1], offset=1))
        assert not ok and v is None

    def test_irrational_value_beside_a_rational_cert(self):
        # il = 5 + sqrt(2) 1e-10 / 2 at j = 1 ties the rational value 5 at j = 3
        t = Q(10000000001, 10000000000)
        res = interlace_number(make_polynomial([1, 5, t, 10, t, 5, 1], offset=1))
        assert sorted(res.certs) == [1, 3]
        assert res.rational is None

    def test_candidates_match_ramanujan_max(self, rng):
        for _ in range(10):
            p = random_trim_palindromic(rng, rng.randint(3, 10))
            cands = interlace_rational_candidates(p)
            assert max(cands.values()) == ramanujan_lower(p)


class TestShiftGeometric:
    def test_zero_base(self):
        p = shift_geometric(zero_polynomial(6), 1)
        assert p == ge(6)
        assert approx(interlace_number(p).value, Q(1, 2), "1e-25")

    def test_cancellation(self):
        assert shift_geometric(ge(6), -1).is_zero

    def test_coefficientwise(self):
        p = make_polynomial([1, 0, 1], offset=1)
        assert shift_geometric(p, 2) == make_polynomial([3, 2, 3], offset=1)


class TestProperties:
    def test_linear_scaling(self, rng):
        for _ in range(20):
            p = random_trim_palindromic(rng, rng.randint(3, 10))
            lam = Q(rng.randint(1, 9), rng.randint(1, 5))
            a = interlace_number(p)
            b = interlace_number(p.scale(lam))
            with working_precision():
                from palinlace.polycore import as_mpf
                assert abs(b.value - as_mpf(lam) * a.value) < mpmath.mpf("1e-20") * (1 + abs(b.value))
            assert a.certs == b.certs

    def test_exponent_scaling(self, rng):
        for r in (2, 3):
            for _ in range(8):
                p = random_trim_palindromic(rng, rng.randint(3, 8))
                a = interlace_number(p)
                b = interlace_number(p.stretch(r))
                with working_precision():
                    assert abs(a.value - b.value) < mpmath.mpf("1e-20") * (1 + abs(a.value))

    def test_sign_rotation_even_darga(self, rng):
        for _ in range(10):
            p = random_trim_palindromic(rng, 2 * rng.randint(2, 5))
            a = interlace_number(p)
            b = interlace_number(p.sign_flip())
            with working_precision():
                assert abs(a.value - b.value) < mpmath.mpf("1e-20") * (1 + abs(a.value))

    def test_threshold_semantics(self, rng):
        for _ in range(8):
            p = random_trim_palindromic(rng, rng.randint(3, 9))
            res = interlace_number(p)
            ap = p_alpha(p)
            with working_precision():
                delta = mpmath.mpf("1e-6") * (1 + abs(res.value))
                hi = res.value + delta
                lo = res.value - delta
            assert angle_interlaces(instantiate(ap, hi))
            if lo > 0:
                assert not angle_interlaces(instantiate(ap, lo))

    def test_bound_sandwich(self, rng):
        for _ in range(20):
            p = random_trim_palindromic(rng, rng.randint(3, 10))
            ladder = bound_ladder(p)
            res = interlace_number(p)
            with working_precision():
                from palinlace.polycore import as_mpf
                eps = mpmath.mpf("1e-20")
                assert as_mpf(ladder.ramanujan_lower) <= res.value + eps
                assert res.value <= as_mpf(ladder.ll) + eps
                if ladder.kwon is not None:
                    assert as_mpf(ladder.kwon) <= as_mpf(ladder.ll) + eps

    def test_shifta_inequality(self, rng):
        checked = 0
        while checked < 10:
            p = random_trim_palindromic(rng, rng.randint(3, 9))
            res = interlace_number(p)
            if 0 in res.certs:
                continue
            a = Q(rng.randint(1, 6), rng.randint(1, 3))
            shifted = interlace_number(shift_geometric(p, a))
            with working_precision():
                from palinlace.polycore import as_mpf
                assert shifted.value >= res.value + as_mpf(a) / 2 - mpmath.mpf("1e-20")
            # equality regime: a >= -(2 il + p(1)) / (n - 1)
            n = p.darga
            p1 = p.evaluate(1)
            with working_precision():
                from palinlace.polycore import as_mpf
                if as_mpf(a) >= -(2 * res.value + as_mpf(p1)) / (n - 1):
                    assert abs(shifted.value - (res.value + as_mpf(a) / 2)) \
                        < mpmath.mpf("1e-20") * (1 + abs(shifted.value))
            checked += 1

    def test_cert_conditions(self, rng):
        # every reported cert attains the max and p_alpha is nonnegative on V_n
        from palinlace.polycore import unity_values_raw
        for _ in range(10):
            p = random_trim_palindromic(rng, rng.randint(3, 10))
            res = interlace_number(p)
            n = p.darga
            vals = unity_values_raw(p, range(n // 2 + 1))
            with working_precision():
                for j, v in enumerate(vals):
                    shifted = 2 * res.value + v.real  # p_alpha(omega) at alpha = il
                    assert shifted >= -mpmath.mpf("1e-18") * (1 + abs(res.value))
                    if j in res.certs:
                        assert abs(shifted) < mpmath.mpf("1e-8") * (1 + abs(res.value))
