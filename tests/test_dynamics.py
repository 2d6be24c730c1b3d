"""Alpha-sweep: subdiscriminants, breakpoints, circle-rooted intervals."""

from fractions import Fraction as Q

import mpmath
import pytest

from palinlace import circle as ci
from palinlace import dynamics as dy
from palinlace import ratpoly as rp
from palinlace import realroots as rr
from palinlace.errors import NotSupported
from palinlace.families import two_interval
from palinlace.polycore import AlphaPolynomial, Polynomial, as_mpf, make_polynomial, p_alpha
from palinlace.precision import working_precision
from palinlace.families import random_trim_palindromic

from conftest import ge


class TestSubdiscriminants:
    def test_quadratic_family(self):
        ap = AlphaPolynomial(2, (Q(0), Q(-2), Q(0)), (Q(1), Q(0), Q(1)))
        entries = dy.subdiscriminant_sequence(ap)
        # discriminant entry proportional to 4 - 4 alpha^2, lead entry = alpha
        disc = rp.primitive_int(rp.clear_denominators(entries[0])[0])
        assert disc in ([-1, 0, 1], [1, 0, -1])
        assert rp.degree(entries[-1]) == 1 and rp.evaluate(entries[-1], Q(0)) == 0

    def test_degree_one_family_is_trivial(self):
        ap = AlphaPolynomial(1, (Q(1), Q(2)), (Q(0), Q(0)))
        entries = dy.subdiscriminant_sequence(ap)
        assert len(entries) == 1  # just the leading coefficient

    def test_cayley_reduced_geometric3(self):
        fam = ci.alpha_family_reduced(ge(3))
        cay = ci.cayley_alpha(fam, 1)
        entries = dy.subdiscriminant_sequence(cay)
        lo, hi, exact = rr.largest_real_root(entries[0])
        assert exact == Q(1, 3)

    def test_float_rejected(self):
        ap = AlphaPolynomial(2, (mpmath.mpf(0), mpmath.mpf(-2), mpmath.mpf(0)),
                             (Q(1), Q(0), Q(1)))
        with pytest.raises(NotSupported):
            dy.subdiscriminant_sequence(ap)


class TestAlphaProfile:
    def test_monomial_profile(self):
        prof = dy.alpha_profile(make_polynomial([-2], offset=1))
        exacts = [bp.exact for bp in prof.breakpoints]
        assert Q(1) in exacts and Q(-1) in exacts
        pos = prof.circle_rooted_intervals(positive_only=True)
        assert len(pos) == 1
        assert pos[0].lo == 1 and pos[0].hi is None
        # circle rooted exactly on |alpha| >= 1
        neg = [iv for iv in prof.circle_rooted_intervals() if iv.hi is not None
               and iv.hi <= 0]
        assert neg and neg[0].hi == -1

    def test_geometric6_single_transition(self):
        prof = dy.alpha_profile(ge(6))
        pos = prof.circle_rooted_intervals(positive_only=True)
        assert len(pos) == 1 and pos[0].lo == Q(1, 2)

    def test_two_interval_fixture(self):
        p = two_interval([(5, 1), (5, 1), (5, 1)])
        prof = dy.alpha_profile(p)
        pos = prof.circle_rooted_intervals(positive_only=True)
        assert len(pos) >= 2
        # the bounded occurrence is the point alpha = q(0) = 125
        assert any(iv.is_point and iv.lo == 125 for iv in pos)
        res = ci.circle_number(p)
        last = pos[-1]
        with working_precision():
            assert abs(as_mpf(last.lo) - as_mpf(res.value)) < mpmath.mpf("1e-9")

    def test_circle_rooted_below_cn_lies_in_a_lower_interval(self):
        # criterion 09's sub-threshold law on an input that reaches it: the
        # oracle finds p_alpha circle rooted at alpha = q(0) = 60, below
        # cn ~ 186.16, and the sweep has a bounded interval there
        p = two_interval([(3, 1), (4, 2), (5, 3)])
        cn = ci.circle_number_palindromic(p)
        alpha = Q(60)
        assert as_mpf(alpha) < as_mpf(cn.value)
        assert ci.numeric_oracle_circle_rooted(p_alpha(p).instantiate(alpha),
                                               mpmath.mpf("1e-5"))
        intervals = dy.alpha_profile(p).circle_rooted_intervals()
        below = [iv for iv in intervals[:-1] if iv.lo is not None and iv.lo <= alpha <= iv.hi]
        assert len(below) == 1
        assert Q(59) < below[0].lo and below[0].hi < Q(61)
        last = intervals[-1]
        assert last.hi is None
        with working_precision(256):
            assert abs(as_mpf(last.lo) / as_mpf(cn.value) - 1) < mpmath.mpf("1e-15")

    def test_last_interval_matches_circle_number(self, rng):
        for _ in range(6):
            p = random_trim_palindromic(rng, rng.randint(3, 7))
            prof = dy.alpha_profile(p)
            res = ci.circle_number(p)
            merged = prof.circle_rooted_intervals()
            last = merged[-1]
            assert last.hi is None
            with working_precision():
                assert abs(as_mpf(last.lo) - as_mpf(res.value)) < mpmath.mpf("1e-9")

    def test_counts_constant_inside_intervals(self, rng):
        from palinlace.circle import _alpha_pair
        for _ in range(4):
            p = random_trim_palindromic(rng, rng.randint(3, 6))
            prof = dy.alpha_profile(p)
            q0, q1 = _alpha_pair(p)
            for iv in prof.intervals:
                if iv.is_point or iv.lo is None or iv.hi is None:
                    continue
                width = iv.hi - iv.lo
                for frac in (Q(1, 7), Q(1, 2), Q(6, 7)):
                    a = iv.lo + width * frac
                    qa = rp.add(q0, rp.scale(q1, a))
                    assert rr.count_circle_roots_distinct(qa) == iv.real_root_count


class TestTrajectories:
    def test_monomial_stages(self):
        p = make_polynomial([-2], offset=1)
        out = dy.root_trajectories(p, [mpmath.mpf("0.5"), mpmath.mpf(1), mpmath.mpf(2)])
        with working_precision():
            (a0, r0), (a1, r1), (a2, r2) = out
            # two real roots straddling 1, then a double root at 1, then circle
            assert all(abs(z.imag) < 1e-20 for z in r0)
            assert sorted(abs(z - 1) < 1e-10 for z in r1) == [True, True]
            assert all(abs(abs(z) - 1) < 1e-20 for z in r2)

    def test_multiset_size_is_darga(self, rng):
        p = random_trim_palindromic(rng, 7)
        out = dy.root_trajectories(p, [mpmath.mpf(x) / 4 for x in range(1, 6)])
        assert all(len(roots) == 7 for _, roots in out)

    def test_geometric5_above_threshold(self):
        out = dy.root_trajectories(ge(5), [mpmath.mpf("0.4001")])
        _, roots = out[0]
        with working_precision():
            assert all(abs(abs(z) - 1) < mpmath.mpf("1e-2") for z in roots)
