"""Circle number (both routes), certs, exactness, bounding error."""

import random
from fractions import Fraction as Q

import mpmath
import pytest

from palinlace import circle as ci
from palinlace.errors import NotApplicable
from palinlace.interlace import interlace_number
from palinlace.polycore import (
    Polynomial,
    as_mpf,
    instantiate,
    make_polynomial,
    p_alpha,
    parse_coeff_text,
    to_fraction_coeffs,
    trim_part,
    x_pow_n_plus_1,
)
from palinlace.precision import default_precision, working_precision
from palinlace import ratpoly as rp
from palinlace import realroots as rr
from palinlace.families import random_trim_palindromic

from conftest import approx, ge


def exact_disc(f):
    """Independent discriminant over Q: (-1)^(d(d-1)/2) Res(f, f') / lc."""
    f = [Q(c) for c in rp.strip(f)]
    d = len(f) - 1
    res = rp.resultant_frac(f, rp.derivative(f))
    return Q(-1) ** (d * (d - 1) // 2) * res / f[-1]


class TestCayley:
    def test_x2_plus_1(self):
        s = ci.cayley(make_polynomial([1, 0, 1]), 0)
        assert s == make_polynomial([-2, 0, 2])

    def test_x_plus_1(self):
        s = ci.cayley(make_polynomial([1, 1]), 0)
        assert s == make_polynomial([0, 2])

    def test_even_darga_gives_even_image(self, rng):
        p = random_trim_palindromic(rng, 8)
        q = instantiate(p_alpha(p), Q(3))
        s = ci.cayley(q, 0)
        for j in range(1, len(s.re), 2):
            assert s.re[j] == 0

    def test_float_omega_matches_exact(self, rng):
        p = random_trim_palindromic(rng, 6)
        q = instantiate(p_alpha(p), Q(2))
        exact = ci.cayley(q, 0)
        approx_img = ci.cayley(
            Polynomial([as_mpf(c) for c in q.re]), 0)
        with working_precision():
            for a, b in zip(exact.re, approx_img.re):
                assert abs(as_mpf(a) - as_mpf(b)) < mpmath.mpf("1e-30")

    def test_degree_drop_iff_root_at_omega(self):
        # q(1) = 0 for q = x^2 - 2x + 1
        s = ci.cayley(make_polynomial([1, -2, 1]), 0)
        assert s.degree < 2


class TestHeckeOperator:
    def test_even_extraction(self):
        q = make_polynomial([5, 0, 3, 0, 1])
        assert ci.hecke(q) == make_polynomial([5, 3, 1])

    def test_shifted(self):
        assert ci.hecke(make_polynomial([-2, 0, 2])) == make_polynomial([-2, 2])

    def test_odd_polynomial_collapses(self):
        h = ci.hecke(make_polynomial([0, 1, 0, 1]))
        assert h.is_zero


class TestChooseOmega:
    def test_geometric(self):
        assert ci.choose_omega(ge(6)) == 0

    def test_negated_geometric(self):
        assert ci.choose_omega(ge(6).scale(-1)) == 1

    def test_monomial(self):
        assert ci.choose_omega(make_polynomial([-2], offset=1)) == 1

    def test_tie_is_relative_to_the_coefficients(self):
        assert ci.choose_omega(ge(6).scale(Q(-1, 10**12))) == 1


class TestGcdWithXn1:
    def test_coprime(self, rng):
        g = ci.gcd_xn1(ge(6))
        assert g == make_polynomial([1])

    def test_constructed_factor(self):
        # x(x^2+1)^2 = x + 2x^3 + x^5, darga 6; x^2 + 1 divides x^6 + 1
        p = make_polynomial([1, 0, 2, 0, 1], offset=1)
        g = ci.gcd_xn1(p)
        _, rem = rp.divmod_exact(to_fraction_coeffs(g), [Q(1), Q(0), Q(1)])
        assert not rem

    def test_odd_darga_always_divisible_by_x_plus_1(self, rng):
        for _ in range(5):
            p = random_trim_palindromic(rng, 2 * rng.randint(1, 4) + 1)
            g = ci.gcd_xn1(p)
            assert g.evaluate(-1) == 0

    def test_float_track_detects_intended_factor(self):
        with working_precision(128):
            r2 = mpmath.sqrt(2)
            p = Polynomial([0, -r2, mpmath.mpf(2), -r2])  # -sqrt2 x (x^2 - sqrt2 x + 1)
        g = ci.gcd_xn1(p)
        assert g.degree == 2
        # perturbed coefficients must not be treated as divisible
        with working_precision(128):
            p2 = Polynomial([0, -r2 + mpmath.mpf("1e-6"), mpmath.mpf(2), -r2 + mpmath.mpf("1e-6")])
        assert ci.gcd_xn1(p2).degree == 0

    def test_float_track_threshold_is_relative(self):
        # 1e-12 (x + x^2) = 1e-12 x (x + 1): only x + 1 divides x^3 + 1
        with working_precision(128):
            tiny = mpmath.mpf("1e-12")
            p = Polynomial([0, tiny, tiny])
        assert ci.gcd_xn1(p) == Polynomial([1, 1])
        with working_precision(256):
            assert abs(as_mpf(ci.circle_number(p).value) * 3 / tiny - 1) < mpmath.mpf("1e-20")


class TestCircleNumber:
    def test_geometric_odd(self):
        assert ci.circle_number(ge(5)).value == Q(2, 5)

    def test_geometric_even(self):
        assert ci.circle_number(ge(6)).value == Q(1, 2)

    def test_negated_geometric(self):
        res = ci.circle_number(ge(6).scale(-1))
        assert res.value == Q(5, 2)

    def test_darga3(self):
        res = ci.circle_number(make_polynomial([2, 2], offset=1))
        assert res.value == Q(2, 3)
        assert any(abs(z + 1) < mpmath.mpf("1e-9") for z in res.certs)

    def test_darga2_monomial(self):
        res = ci.circle_number(make_polynomial([-2], offset=1))
        assert res.value == 1
        assert any(abs(z - 1) < mpmath.mpf("1e-9") for z in res.certs)

    def test_counterexample_darga9(self):
        p = make_polynomial([15, 14, 12, 2, 2, 12, 14, 15], offset=1)
        res = ci.circle_number(p)
        assert res.value == Q(23, 3)

    def test_counterexample_darga10(self):
        p = make_polynomial([80, 75, 73, 11, 2, 11, 73, 75, 80], offset=1)
        res = ci.circle_number(p)
        assert res.value == 68

    def test_both_routes_at_huge_scale(self):
        # Sturm isolation bisects about a thousand times here: once per
        # factor of two between the coefficients and the root spacing
        lam = Q(10) ** 300
        p = make_polynomial([9, -18, 9], offset=1).scale(lam)
        assert ci.circle_number_palindromic(p).value == 18 * lam
        value = ci.circle_number(p).value
        with working_precision(256):
            assert abs(as_mpf(value) / as_mpf(18 * lam) - 1) < mpmath.mpf("1e-15")

    def test_self_inversive_complex(self):
        # (1+i)x + (1-i)x^2: trim self-inversive of darga 3
        p = Polynomial([0, 1, 1], [0, 1, -1])
        res = ci.circle_number(p)
        il = interlace_number(p)
        with working_precision():
            assert as_mpf(res.value) <= il.value + mpmath.mpf("1e-9")
        ap = p_alpha(p)
        probe = instantiate(ap, as_mpf(res.value) + mpmath.mpf("0.01"))
        assert ci.numeric_oracle_circle_rooted(probe, mpmath.mpf("1e-4"))


class TestHeckePath:
    def test_geometric_odd(self):
        res = ci.circle_number_palindromic(ge(7))
        assert res.value == Q(3, 7)

    def test_darga4_disc_poly(self):
        # sigma (b, c) = (1, 1): halved discriminant is 8a^2 - 8ac + b^2 up to scale
        p = make_polynomial([1, 2, 1], offset=1)
        res = ci.circle_number_palindromic(p)
        target = rp.primitive_int([1, -8, 8])  # b=c=1: 8a^2 - 8a + 1
        got = [int(c) for c in res.disc_poly]
        assert got == target or got == [-c for c in target]

    def test_darga5_disc_poly(self):
        # sigma (b, c) = (2, 3): 5a^2 - (4c - 2b) a + b^2 = 5a^2 - 8a + 4
        p = make_polynomial([2, 3, 3, 2], offset=1)
        res = ci.circle_number_palindromic(p)
        got = [int(c) for c in res.disc_poly]
        assert got == [4, -8, 5] or got == [-4, 8, -5]

    def test_agreement_with_disc_path(self, rng):
        for _ in range(15):
            p = random_trim_palindromic(rng, rng.randint(3, 9))
            a = ci.circle_number(p)
            b = ci.circle_number_palindromic(p)
            with working_precision():
                assert abs(as_mpf(a.value) - as_mpf(b.value)) \
                    < mpmath.mpf("1e-9") * (1 + abs(as_mpf(a.value)))


def cayley_halved_disc(p):
    """The halved route's discriminant built the long way: the even half of
    the Cayley image S_1(q_alpha), divided by its endpoint factor."""
    q0, q1 = ci._alpha_pair(p)
    h0, h1 = (ci.cayley_exact(q, None, 1)[::2] for q in (q0, q1))
    d = max(len(h0), len(h1)) - 1
    h0, h1 = (h + [0] * (d + 1 - len(h)) for h in (h0, h1))
    disc = ci._resultant_alpha_exact(h0, h1) if d >= 2 else []
    if disc and rp.degree([h0[d], h1[d]]) >= 1:
        disc = rp.div_exact(disc, [h0[d], h1[d]])
    return ci._normalize_disc(disc)


class TestHalvedImage:
    def test_route_matches_cayley_construction(self):
        for p in criterion09_stream(40):
            variants = [p, p.stretch(2), p.scale(Q(3, 7)), p.scale(Q(1, 10**12))]
            if p.darga % 2 == 0:
                variants.append(p.sign_flip())
            for q in variants:
                got = list(ci.circle_number_palindromic(q).disc_poly)
                assert got == cayley_halved_disc(q), q

    def test_zero_padded_q0_keeps_full_degree(self):
        # q0 = 2x + 3x^2 + 2x^3 padded to degree 4: G = 3 + 2y + 0 y^2
        assert rr.halved_variable_image([0, 2, 3, 2, 0], 2) == [3, 2, 0]
        # stripped, the same list reads as degree 3 and gives the wrong G
        assert rr.halved_variable_image([0, 2, 3, 2, 0]) != [3, 2, 0]
        for p in criterion09_stream(8):
            q0, q1 = ci._alpha_pair(p)
            m = (len(q1) - 1) // 2
            for q in (q0, q1):
                g = rr.halved_variable_image(q, m)
                assert len(g) == m + 1 and g[m] == q[0]
                for x in (Q(2), Q(-3, 5), Q(7, 3)):
                    assert x ** m * rp.evaluate(g, x + 1 / x) == rp.evaluate(q, x)

    def test_mpf_image_equals_fraction_image(self, rng):
        for _ in range(10):
            m = rng.randint(1, 6)
            half = [Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(m + 1)]
            q = half + half[-2::-1]
            exact = rr.halved_variable_image(q, m)
            with working_precision(256):
                got = rr.halved_variable_image([as_mpf(c) for c in q], m)
                scale = max(abs(as_mpf(c)) for c in exact)
                for a, b in zip(got, exact):
                    assert isinstance(a, mpmath.mpf)
                    assert abs(a - as_mpf(b)) <= mpmath.mpf(2) ** -240 * scale

    def test_float_track_with_imaginary_noise(self):
        # be = 4 fixture, cn = 27/2, with an imaginary part that is noise at 1e-60
        with working_precision(256):
            re = [0] + [mpmath.mpf(c) for c in (50, 86, 99, 86, 50)] + [0]
            noise = mpmath.mpf("1e-60")
            im = [0, noise, -noise, 0, noise, -noise, 0]
        p = Polynomial(re, im)
        assert p.is_palindromic() and not p.is_real
        res = ci.circle_number_palindromic(p)
        with working_precision(256):
            assert abs(as_mpf(res.value) - mpmath.mpf(27) / 2) < mpmath.mpf("1e-40")
        assert same_certs(res.certs, ci.circle_number_palindromic(
            make_polynomial([50, 86, 99, 86, 50], offset=1)).certs, "1e-30")


class TestRPolynomial:
    def test_monomial(self):
        r = ci.R_polynomial(make_polynomial([-2], offset=1))
        assert r == make_polynomial([2, 0, -2])

    def test_geometric_certs_only_at_minus_one(self):
        r = ci.R_polynomial(ge(5))
        roots = ci.polynomial_roots(r)
        with working_precision():
            on_circle = [z for z in roots if abs(abs(z) - 1) < mpmath.mpf("1e-10")]
            assert all(abs(z - 1) < mpmath.mpf("1e-8")
                       or abs(z + 1) < mpmath.mpf("1e-8") for z in on_circle)

    def test_certs_annihilate_R(self, rng):
        for _ in range(10):
            p = random_trim_palindromic(rng, rng.randint(3, 8))
            res = ci.circle_number_palindromic(p)
            r = ci.R_polynomial(p)
            with working_precision():
                scale = sum(abs(as_mpf(c)) for c in r.re)
                for z in res.certs:
                    assert abs(r.evaluate_complex(z)) < mpmath.mpf("1e-7") * (1 + scale)


class TestCnBounds:
    def test_geometric7(self):
        b = ci.cn_lower_bounds(ge(7))
        assert b["derivative_at_minus_one"] == Q(3, 7)

    def test_basis_odd(self):
        p = make_polynomial([1, 0, 0, 0, 0, 1], offset=1)  # x + x^6, darga 7
        b = ci.cn_lower_bounds(p)
        assert b["derivative_at_minus_one"] == Q(5, 7)  # 1 - 2/7

    def test_negated_geometric(self):
        b = ci.cn_lower_bounds(ge(6).scale(-1))
        assert b["at_one"] == Q(5, 2)

    def test_binomial_bound_respected(self, rng):
        for _ in range(10):
            p = random_trim_palindromic(rng, rng.randint(3, 8))
            res = ci.circle_number_palindromic(p)
            b = ci.cn_lower_bounds(p)
            with working_precision():
                assert as_mpf(res.value) >= as_mpf(b["binomial"]) - mpmath.mpf("1e-9")


class TestChen:
    def test_geometric(self):
        assert ci.chen_bound(ge(6)) == 1
        res = ci.circle_number_palindromic(ge(6))
        assert res.value <= 1

    def test_decreasing(self):
        p = make_polynomial([3, 2, 1, 2, 3], offset=1)
        assert ci.chen_bound(p) == 3
        res = ci.circle_number_palindromic(p)
        with working_precision():
            assert as_mpf(res.value) <= 3

    def test_increasing_inapplicable(self):
        assert ci.chen_bound(make_polynomial([1, 2, 3, 2, 1], offset=1)) is None


class TestSelfInterlaceUpper:
    def test_mirror_symmetry_blocks_generic_input(self):
        # conjugate symmetry puts an even root count into the sector of
        # x^n + 1 roots that straddles the positive real axis, so a real
        # palindromic q without ties can never satisfy the hypothesis
        for alpha in (Q(3, 4), Q(10)):
            q = instantiate(p_alpha(ge(6)), alpha)
            with pytest.raises(NotApplicable):
                ci.self_interlace_upper(q)

    def test_two_interval_product_does_not_interlace(self):
        # circle rooted, but every root has negative real part: two roots of
        # x^6 + 1 go unseparated, so the hypothesis genuinely fails
        q = Polynomial([Q(1)])
        for a, b in [(5, 1), (5, 2), (5, 3)]:
            q = q * Polynomial([a, 2 * b, a])
        with pytest.raises(NotApplicable):
            ci.self_interlace_upper(q)

    def test_degenerate_rejected(self):
        with pytest.raises(NotApplicable):
            ci.self_interlace_upper(x_pow_n_plus_1(6))

    def test_non_interlacing_rejected(self):
        q = instantiate(p_alpha(ge(6)), Q(1, 4))  # below the threshold
        with pytest.raises(NotApplicable):
            ci.self_interlace_upper(q)


class TestExactness:
    def test_exapol(self):
        with working_precision(256):
            b = 1 - mpmath.sqrt(5)
            p = make_polynomial([b, 6, 6, b], offset=1)
        v = ci.is_exact(p)
        assert v.exact and v.route == "double_root_test" and v.witness == 1
        res = ci.circle_number(p)
        cert_angle = mpmath.expjpi(mpmath.mpf(2) / 5)
        with working_precision():
            assert any(abs(z - cert_angle) < mpmath.mpf("1e-8") for z in res.certs)

    def test_geometric_even_exact(self):
        v = ci.is_exact(ge(4))
        assert v.exact and v.route == "pofone_fast_path"

    def test_geometric_odd_not_exact(self):
        assert not ci.is_exact(ge(5)).exact

    def test_exact_family(self):
        from palinlace.families import exact_family
        p = exact_family(5, Q(1, 4))
        v = ci.is_exact(p)
        assert v.exact
        certs = interlace_number(p).certs
        assert sorted(certs) == [2, 4]
        assert 0 not in certs and 5 not in certs
        flipped = p.sign_flip()
        certs2 = interlace_number(flipped).certs
        assert sorted(certs2) == [1, 3]

    def test_consistency_with_value_comparison(self, rng):
        for _ in range(12):
            p = random_trim_palindromic(rng, rng.randint(3, 8))
            v = ci.is_exact(p)
            il = interlace_number(p).value
            cn = ci.circle_number_palindromic(p).value
            with working_precision():
                gap = abs(il - as_mpf(cn))
                if v.exact:
                    assert gap < mpmath.mpf("1e-7") * (1 + abs(il))
                else:
                    assert gap > mpmath.mpf("1e-9") * (1 + abs(il))

    @pytest.mark.parametrize("coeffs", ["2,-3,-12,96,-12,-3,2", "17,12,-18,7,-18,12,17",
                                        "-4,18,18,-4", "1,0,-4,20,20,-4,0,1"])
    def test_near_miss_is_not_exact(self, coeffs):
        # il and cn differ by 1e-5 to 1e-1 relative
        assert not ci.is_exact(parse_coeff_text(coeffs)).exact

    def test_stretched_near_miss_is_not_exact(self):
        p = parse_coeff_text("4,8,5,38,5,8,4")
        assert not ci.is_exact(p.stretch(2)).exact

    def test_verdict_survives_stretch(self):
        rng = random.Random(7)  # the first rows of scan --darga 8 --seed 7
        for _ in range(100):
            p = random_trim_palindromic(rng, 8)
            assert ci.is_exact(p).exact == ci.is_exact(p.stretch(2)).exact

    def test_exact_witness_matches_the_sine_sum(self):
        rng = random.Random(7)  # the first rows of scan --darga 8 --seed 7
        found = 0
        for _ in range(40):
            base = random_trim_palindromic(rng, 8)
            for p in (base, base.stretch(2)):
                certs = interlace_number(p).certs
                with working_precision():
                    floats = make_polynomial([as_mpf(c) for c in p.re])
                witness = ci._twocerts_witness(p, certs)
                assert witness == ci._twocerts_witness(floats, certs)
                found += witness is not None
        assert found > 0


# the paper's analyze fixtures and tgcd(6): il 171, il 135, be 4, cn 23/3, cn 68
SCALE_FIXTURES = ([172, 100, 198, 100, 172], [100, 172, 198, 172, 100],
                  [50, 86, 99, 86, 50], [15, 14, 12, 2, 2, 12, 14, 15],
                  [80, 75, 73, 11, 2, 11, 73, 75, 80], [1, 2, 3, 2, 1])


class TestMaxOverCandidates:
    """The interval case: a rational candidate inside the top root's bracket."""

    # convergents of sqrt(2): 239/169 < 1393/985 < sqrt(2) < 3363/2378 < 577/408
    BRACKET = (Q(239, 169), Q(577, 408), None)
    BELOW, ABOVE = Q(1393, 985), Q(3363, 2378)

    @pytest.mark.parametrize("disc", [[-2, 0, 1], rp.mul([-2, 0, 1], [-2, 0, 1])])
    def test_candidate_beside_an_irrational_root(self, disc):
        assert ci._max_over_candidates([self.ABOVE], self.BRACKET, disc) == self.ABOVE
        got = ci._max_over_candidates([1, self.BELOW], self.BRACKET, disc)
        lo, hi, _ = self.BRACKET
        assert isinstance(got, mpmath.mpf)
        with working_precision(4 * default_precision()):
            assert got == (as_mpf(lo) + as_mpf(hi)) / 2

    def test_candidate_equal_to_an_unidentified_root(self):
        disc = rp.mul(rp.mul([-3, 2], [-3, 2]), [5, 1])  # (2x - 3)^2 (x + 5)
        got = ci._max_over_candidates([Q(3, 2)], (Q(1), Q(2), None), disc)
        assert got == Q(3, 2) and isinstance(got, Q)


class TestScaleInvariance:
    """Scaling p scales il and cn; certs and verdicts must not move."""

    @pytest.mark.parametrize("lam", [Q(1, 10**12), Q(10**12)])
    @pytest.mark.parametrize("coeffs", SCALE_FIXTURES)
    def test_certs_rational_il_and_verdict(self, coeffs, lam):
        p = make_polynomial(coeffs, offset=1)
        q = p.scale(lam)
        il_p, il_q = interlace_number(p), interlace_number(q)
        assert il_q.certs == il_p.certs
        assert il_q.rational == (None if il_p.rational is None else lam * il_p.rational)
        assert ci.is_exact(q) == ci.is_exact(p)

    @pytest.mark.parametrize("lam", [Q(1, 10**12), Q(1, 10**30)])
    @pytest.mark.parametrize("coeffs", SCALE_FIXTURES + ([17, 12, -18, 7, -18, 12, 17],))
    def test_small_scale_circle_number(self, coeffs, lam):
        p = make_polynomial(coeffs, offset=1)
        for route in (ci.circle_number, ci.circle_number_palindromic):
            base, small = route(p), route(p.scale(lam))
            with working_precision(256):
                want = as_mpf(lam) * as_mpf(base.value)
                assert abs(as_mpf(small.value) - want) <= mpmath.mpf("1e-15") * want
                assert len(small.certs) == len(base.certs)
                assert all(abs(z - w) < mpmath.mpf("1e-15")
                           for z, w in zip(small.certs, base.certs))

    def test_twocerts_witness(self):
        p = make_polynomial([50, 86, 99, 86, 50], offset=1)
        assert ci._twocerts_witness(p.scale(Q(1, 10**12)), {1}) is None
        assert ci._twocerts_witness(p, {1}) is None

    def test_float_track_double_root_test(self):
        # il = 67.5e-12 is far above cn = 13.5e-12
        with working_precision():
            p = make_polynomial([mpmath.mpf(c) * mpmath.mpf("1e-12")
                                 for c in (50, 86, 99, 86, 50)], offset=1)
        assert not ci.is_exact(p).exact


class TestBoundingError:
    def test_geometric_odd(self):
        assert ci.bounding_error(ge(7)) == Q(1, 6)

    def test_darga3(self):
        assert ci.bounding_error(make_polynomial([2, 2], offset=1)) == Q(1, 2)

    def test_d6_fixture_exact_four(self):
        p = make_polynomial([50, 86, 99, 86, 50], offset=1)
        assert ci.bounding_error(p) == 4

    def test_be_upper_bound(self):
        assert ci.be_upper_bound(4) == Q(3, 2) * 6 - 1
        for n in (3, 4, 5, 6):
            p = ge(n)
            with working_precision():
                assert as_mpf(ci.bounding_error(p)) <= as_mpf(ci.be_upper_bound(n))


class TestOracle:
    def test_roots_of_unity(self):
        assert ci.numeric_oracle_circle_rooted(x_pow_n_plus_1(6), mpmath.mpf("1e-9"))

    def test_real_roots_rejected(self):
        p = make_polynomial([2, -5, 2])
        assert not ci.numeric_oracle_circle_rooted(p, mpmath.mpf("1e-3"))

    def test_just_above_threshold(self):
        q = instantiate(p_alpha(ge(5)), Q(41, 100))
        assert ci.numeric_oracle_circle_rooted(q, mpmath.mpf("1e-2"))


class TestHeckeDiscIdentity:
    def test_exact_identity(self, rng):
        # In the standard discriminant convention the squared-variable
        # identity reads Disc(f(x^2)) = (-1)^n 4^n lc f0 Disc(f)^2; the sign
        # and the first power of the leading coefficient both follow from
        # the root-product derivation and are confirmed here exactly.
        for _ in range(25):
            d = rng.randint(1, 8)
            f = [Q(rng.randint(-9, 9)) for _ in range(d)] + [Q(rng.choice([1, 2, 3, -2]))]
            if f[0] == 0:
                f[0] = Q(1)
            fx2 = [Q(0)] * (2 * len(f) - 1)
            for i, c in enumerate(f):
                fx2[2 * i] = c
            lhs = exact_disc(fx2)
            rhs = Q(-1) ** d * Q(4) ** d * f[-1] * f[0] * exact_disc(f) ** 2
            assert lhs == rhs


def reference_certs(p, value):
    """Certs by solving all of p_value' at 768 bits (the original method)."""
    bits = 2 * default_precision()
    n = p.darga
    with working_precision(bits):
        alpha = as_mpf(value)
        coeffs = []
        for k in range(n + 1):
            a, b = p.coeff(k)
            c = mpmath.mpc(as_mpf(a), as_mpf(b))
            if k == 0 or k == n:
                c = c + alpha
            coeffs.append(c)
        dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
        scale = sum(abs(c) for c in coeffs)
        desc = list(reversed(dcoeffs))
        droots = mpmath.polyroots(desc, maxsteps=100 + 5 * bits,
                                  extraprec=2 * bits, error=False)
        tol_p = mpmath.mpf("1e-9") * (1 + scale)
        certs = []
        for z in droots:
            if abs(abs(z) - 1) > ci.CERT_CLUSTER_TOL:
                continue
            val = mpmath.mpc(0)
            for c in reversed(coeffs):
                val = val * z + c
            if abs(val) > tol_p:
                continue
            z = z / abs(z)
            if p.is_real and z.imag < 0:
                z = mpmath.conj(z)
            if any(abs(z - w) < ci.CERT_CLUSTER_TOL for w in certs):
                continue
            certs.append(z)
        return tuple(certs)


def same_certs(a, b, tol="1e-12"):
    with working_precision(256):
        t = mpmath.mpf(tol)
        return len(a) == len(b) and \
            all(any(abs(x - y) < t for y in b) for x in a) and \
            all(any(abs(x - y) < t for x in a) for y in b)


def criterion09_stream(count):
    """The first polynomials of criterion 09's stream, drawn the same way."""
    rng = random.Random(987654321)
    for i in range(count):
        p = random_trim_palindromic(rng, 3 + i % 8)
        rng.randint(1, 9), rng.randint(1, 4)  # the scale factor it draws
        yield p


class TestCertSolve:
    def test_matches_full_solve_on_criterion09_stream(self):
        for p in criterion09_stream(24):
            variants = [p, p.stretch(2)]
            if p.darga % 2 == 0:
                variants.append(p.sign_flip())
            for q in variants:
                for route in (ci.circle_number, ci.circle_number_palindromic):
                    res = route(q)
                    assert same_certs(res.certs, reference_certs(q, res.value), "1e-30"), \
                        (q, route)

    @pytest.mark.parametrize("b", [Q(1, 3), Q(2, 5), Q(-6, 7)])
    def test_double_root_off_the_real_axis(self, b):
        # p_1 = (x^2 + b x + 1)^2: the common factor is x^2 + b x + 1, whose
        # coefficients are not binary fractions
        p = make_polynomial([2 * b, 2 + b * b, 2 * b], offset=1)
        for route in (ci.circle_number, ci.circle_number_palindromic):
            res = route(p)
            assert res.value == 1
            assert same_certs(res.certs, reference_certs(p, res.value), "1e-30")
            with working_precision(256):
                assert abs(res.certs[0].real + as_mpf(b) / 2) < mpmath.mpf("1e-30")

    def test_scaling_keeps_certs_on_both_routes(self):
        lam = Q(3, 7)
        for p in criterion09_stream(8):
            for route in (ci.circle_number, ci.circle_number_palindromic):
                assert same_certs(route(p.scale(lam)).certs, route(p).certs)

    @pytest.mark.parametrize("lam", [Q(3, 7), Q(10) ** 300])
    def test_scaling_keeps_certs_on_both_paths(self, lam):
        # exact common factor when the value is rational, float seeds when it
        # is an mpf; coefficients near 1e301 must not reach float64 unscaled
        for p in criterion09_stream(16):
            base = ci.circle_number_palindromic(p)
            q = p.scale(lam)
            with working_precision(512):
                value = as_mpf(base.value) * as_mpf(lam)
            assert same_certs(ci._certs_for(q, value), base.certs)
            if isinstance(base.value, Q):
                assert same_certs(ci._certs_for(q, base.value * lam), base.certs)

    def test_complex_self_inversive_on_float_path(self, monkeypatch):
        # (2+i)x + 3x^2 + (2-i)x^3: trim self-inversive of darga 4
        p = Polynomial([0, 2, 3, 2], [0, 1, 0, -1])
        res = ci.circle_number(p)
        assert not isinstance(res.value, Q)
        assert res.certs
        assert same_certs(res.certs, reference_certs(p, res.value))

        def no_full_solve(*args):
            raise AssertionError("fell back to the full solve")

        monkeypatch.setattr(ci, "all_roots", no_full_solve)
        assert same_certs(ci._certs_for(p, res.value), res.certs)

    def test_multiple_root_falls_back_to_full_solve(self, monkeypatch):
        # p_1 = (x + 1)^4 on float input: float64 cannot resolve the triple
        # root of the derivative, so the whole derivative is solved instead
        p = Polynomial([0, mpmath.mpf(4), mpmath.mpf(6), mpmath.mpf(4), 0])
        solved = []
        real_all_roots = ci.all_roots
        monkeypatch.setattr(ci, "all_roots",
                            lambda c, b=None: solved.append(len(c)) or real_all_roots(c, b))
        certs = ci._certs_for(p, mpmath.mpf(1))
        assert solved == [p.darga]
        assert same_certs(certs, reference_certs(p, mpmath.mpf(1)))
        assert same_certs(certs, (mpmath.mpc(-1),))
