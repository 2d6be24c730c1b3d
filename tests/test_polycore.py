"""Representation, palindromic structure, sigma round trips, evaluation."""

import random
from fractions import Fraction as Q

import mpmath
import pytest

from palinlace.errors import (
    DargaMismatch,
    EmptyPolynomial,
    NotSelfInversive,
    NotTrim,
)
from palinlace.polycore import (
    AlphaPolynomial,
    Polynomial,
    SigmaRep,
    as_mpf,
    cyclotomic,
    eval_unity,
    exact_gcd,
    format_coeff_text,
    instantiate,
    make_polynomial,
    p_alpha,
    parse_coeff_text,
    parse_scalar_token,
    parse_sigma_text,
    poly_of,
    sigma_of,
    trim_part,
    unity_residue,
    unity_root,
    unity_values_raw,
    zero_polynomial,
)
from palinlace import ratpoly as rp
from palinlace.arith import divisors
from palinlace.precision import working_precision
from palinlace.families import random_trim_palindromic

from conftest import approx, ge


class TestConstruction:
    def test_darga_from_support(self):
        p = make_polynomial([1, 2, 3, 2, 1])
        assert p.darga == 4 and p.degree == 4 and p.is_full

    def test_offset_input(self):
        p = make_polynomial([1, 1], offset=1)  # x + x^2
        assert p.darga == 3 and p.is_trim

    def test_normalization_trims_zero_edges(self):
        p = make_polynomial([0, 5, 0])
        assert p.darga == 2 and p.degree == 1 and p.lowest == 1

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyPolynomial):
            make_polynomial([0, 0, 0])

    def test_zero_polynomial_carries_context_darga(self):
        z = zero_polynomial(6)
        assert z.is_zero and z.darga == 6 and z.is_trim


class TestPredicates:
    def test_palindromic_examples(self):
        assert make_polynomial([1, 1], offset=1).is_palindromic()
        fekete5 = make_polynomial([1, -1, -1, 1], offset=1)
        assert fekete5.is_palindromic()
        assert not make_polynomial([1, 2], offset=1).is_palindromic()

    def test_self_inversive_complex(self):
        p = Polynomial([0, 1, 1], [0, 1, -1])  # (1+i)x + (1-i)x^2
        assert p.is_self_inversive() and not p.is_palindromic()

    def test_self_inversive_mixes_int_and_fraction(self):
        p = Polynomial([0, Q(3, 2), 2, Q(3, 2), 0], [0, Q(1, 3), 0, Q(-1, 3), 0])
        assert p.is_self_inversive()
        assert Polynomial([0, 2, Q(4, 2), 0]).is_self_inversive()
        assert not Polynomial([0, 1, Q(1, 2), 0]).is_self_inversive()
        assert not Polynomial([0, 1, 1, 0], [0, 1, 1, 0]).is_self_inversive()

    def test_float_track_tolerance(self):
        with working_precision():
            c = mpmath.mpf(1) - mpmath.mpf(2) ** -100
            p = Polynomial([0, mpmath.mpf(1), c])
        assert p.is_palindromic()


class TestTrimPart:
    def test_binomial_power(self):
        p = make_polynomial([1, 4, 6, 4, 1])
        assert trim_part(p) == make_polynomial([4, 6, 4], offset=1)

    def test_sigma0_trims_to_zero(self):
        p = make_polynomial([1, 0, 0, 0, 0, 1])
        assert trim_part(p).is_zero

    def test_simple(self):
        p = make_polynomial([2, 3, 2])
        assert trim_part(p) == make_polynomial([3], offset=1)

    def test_rejects_non_self_inversive(self):
        with pytest.raises(NotSelfInversive):
            trim_part(make_polynomial([1, 2]))


class TestSigma:
    def test_sigma_of_halves_middle(self):
        p = make_polynomial([50, 86, 99, 86, 50], offset=1)
        s = sigma_of(p)
        assert list(s.sigma) == [0, 50, 86, Q(99, 2)]
        assert s.is_palindromic

    def test_poly_of_doubles_middle(self):
        s = SigmaRep(6, (Q(0), Q(172), Q(100), Q(198)), (Q(0), Q(0), Q(0)))
        p = poly_of(s)
        assert [Q(c) for c in p.re] == [0, 172, 100, 396, 100, 172]

    def test_zero_round_trip(self):
        s = sigma_of(zero_polynomial(6))
        assert all(c == 0 for c in s.sigma)

    def test_round_trip_random(self, rng):
        for _ in range(30):
            p = random_trim_palindromic(rng, rng.randint(2, 11))
            assert poly_of(sigma_of(p)) == p

    def test_complex_round_trip(self):
        p = Polynomial([0, 1, 2, 1], [0, 2, 0, -2])
        assert p.is_self_inversive()
        s = sigma_of(p)
        assert any(c != 0 for c in s.sigma_hat)
        assert poly_of(s) == p


class TestAlphaFamily:
    def test_mononomial(self):
        ap = p_alpha(make_polynomial([-2], offset=1))
        assert instantiate(ap, 1) == make_polynomial([1, -2, 1])

    def test_darga3(self):
        ap = p_alpha(make_polynomial([2, 2], offset=1))
        p = instantiate(ap, Q(2, 3))
        assert [Q(c) for c in p.re] == [Q(2, 3), 2, 2, Q(2, 3)]

    def test_alpha_zero_is_identity(self, rng):
        for _ in range(10):
            p = random_trim_palindromic(rng, rng.randint(2, 9))
            assert instantiate(p_alpha(p), 0) == p

    def test_trim_of_instance_recovers_input(self, rng):
        for _ in range(10):
            p = random_trim_palindromic(rng, rng.randint(2, 9))
            assert trim_part(instantiate(p_alpha(p), Q(7, 3))) == p

    def test_full_rejected(self):
        with pytest.raises(NotTrim):
            p_alpha(make_polynomial([1, 2, 1]))

    def test_slope_structure(self):
        ap = p_alpha(ge(6))
        assert ap.slope[0] == 1 and ap.slope[6] == 1
        assert all(c == 0 for c in ap.slope[1:6])


class TestEvalUnity:
    def test_geometric_values(self):
        p = ge(6)
        assert approx(eval_unity(p, 6, 0), 5, "1e-30")
        assert approx(eval_unity(p, 6, 1), -1, "1e-30")

    def test_tgcd6_value(self):
        p = make_polynomial([1, 2, 3, 2, 1], offset=1)
        assert approx(eval_unity(p, 6, 1), -4, "1e-30")

    def test_darga_mismatch(self):
        with pytest.raises(DargaMismatch):
            eval_unity(ge(6), 5, 1)

    def test_palindromic_symmetry(self, rng):
        p = random_trim_palindromic(rng, 9)
        for j in range(1, 9):
            assert approx(eval_unity(p, 9, j), eval_unity(p, 9, 9 - j), "1e-25")

    def test_value_sum_vanishes(self, rng):
        for _ in range(5):
            n = rng.randint(3, 12)
            p = random_trim_palindromic(rng, n)
            vals = unity_values_raw(p, range(n))
            with working_precision():
                total = sum(v.real for v in vals)
                assert abs(total) < mpmath.mpf("1e-25") * n


class TestCyclotomic:
    def test_product_over_divisors_is_x_n_minus_1(self):
        for n in range(1, 41):
            prod = [1]
            for d in divisors(n):
                prod = rp.mul(prod, cyclotomic(d))
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_phi_105_has_coefficient_minus_2(self):
        assert min(cyclotomic(105)) == -2

    def test_residue_is_the_value_at_a_primitive_root(self, rng):
        for _ in range(5):
            n = rng.randint(3, 12)
            p = random_trim_palindromic(rng, n)
            vals = unity_values_raw(p, range(n))
            for j in range(n):
                r, _ = unity_residue(p, j)
                with working_precision():
                    got = rp.evaluate([as_mpf(c) for c in r], unity_root(n, j))
                    assert abs(got + vals[j] / 2) < mpmath.mpf("1e-25") * p.norm1()


class TestArithmetic:
    def test_derivative(self):
        p = make_polynomial([1, 0, 0, 1])
        assert p.derivative() == make_polynomial([3], offset=2)

    def test_exact_gcd(self):
        g = exact_gcd(make_polynomial([-1, 0, 1]), make_polynomial([-1, 0, 0, 1]))
        assert g == make_polynomial([-1, 1])

    def test_multiply(self):
        p = make_polynomial([1, 1])
        assert p * p == make_polynomial([1, 2, 1])

    def test_mixed_track_promotes(self):
        p = make_polynomial([1, 1])
        q = Polynomial([mpmath.mpf("0.5"), mpmath.mpf(1)])
        s = p + q
        assert not s.is_exact

    def test_darga_additivity(self, rng):
        p = random_trim_palindromic(rng, 5)
        q = random_trim_palindromic(rng, 4)
        assert (p * q).darga == 9


class TestTextFormat:
    def test_round_trip(self):
        p = parse_coeff_text("1,2/3,0,2/3,1")
        assert p.darga == 6
        assert format_coeff_text(p) == "1,2/3,0,2/3,1"

    def test_decimal_tokens_are_exact(self):
        for tok, want in [("0.1", Q(1, 10)), ("-.5", Q(-1, 2)), ("2.50", Q(5, 2)),
                          ("1e-3", Q(1, 1000)), ("2.5E2", Q(250)), ("1/-2", Q(-1, 2))]:
            got = parse_scalar_token(tok)
            assert type(got) is Q and got == want, tok
        p = parse_coeff_text("1.5,1.5")
        assert p.is_exact and p.is_palindromic()
        assert parse_sigma_text("0.5,0.25", 4).is_exact

    @pytest.mark.parametrize("tok", ["inf", "-inf", "nan"])
    def test_non_finite_tokens_are_rejected(self, tok):
        with pytest.raises(ValueError):
            parse_scalar_token(tok)

    def test_sigma_parse(self):
        p = parse_sigma_text("172,100,198", 6)
        assert [Q(c) for c in p.re] == [0, 172, 100, 396, 100, 172]

    def test_trailing_zero_keeps_darga_in_text(self):
        p = parse_coeff_text("0,5,0")
        assert p.darga == 4  # darga is intrinsic: 5x^2 has darga 4
