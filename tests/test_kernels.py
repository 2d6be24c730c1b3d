"""Exact-arithmetic kernels: resultants, Sturm counting, circle counting."""

import random
from fractions import Fraction as Q

import mpmath
import pytest

from palinlace import ratpoly as rp
from palinlace import realroots as rr


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(7)
    for _ in range(200):
        da, db = rng.randint(1, 6), rng.randint(1, 6)
        a = [rng.randint(-5, 5) for _ in range(da)] + [rng.choice([1, 2, -3, 5])]
        b = [rng.randint(-5, 5) for _ in range(db)] + [rng.choice([1, -1, 4, -2])]
        assert rp.resultant_int(a, b) == rp.bareiss_det_int(rp.sylvester_matrix(a, b))


def test_pseudo_rem_is_scaled_true_remainder():
    rng = random.Random(8)
    for _ in range(100):
        da = rng.randint(2, 6)
        db = rng.randint(1, da)
        a = [Q(rng.randint(-5, 5)) for _ in range(da)] + [Q(rng.choice([1, 2, -3]))]
        b = [Q(rng.randint(-5, 5)) for _ in range(db)] + [Q(rng.choice([1, -1, 4]))]
        pr = rp.pseudo_rem(a, b)
        c = Q(b[-1]) ** (len(a) - len(b) + 1)
        _, r = rp.divmod_exact(rp.scale(a, c), b)
        assert rp.strip([Q(x) for x in pr]) == rp.strip(r)


def test_sturm_root_counting_and_isolation():
    f = [6, -7, 0, 1]  # (x-1)(x-2)(x+3)
    assert rr.count_real_roots(f) == 3
    assert rr.count_real_roots(f, 0, None) == 2
    assert rr.count_real_roots(f, Q(3, 2), Q(5, 2)) == 1
    roots = rr.real_roots(f)
    assert [e for _, _, e in roots] == [Q(-3), Q(1), Q(2)]


def test_largest_real_root_irrational_is_isolated():
    lo, hi, exact = rr.largest_real_root([-2, 0, 1])
    assert exact is None
    assert lo <= hi and float(hi - lo) < 1e-11
    assert abs(float(lo) - 2**0.5) < 1e-10


def test_largest_real_root_refines_only_the_top_interval(monkeypatch):
    f = rp.mul([-2, 0, 1], [6, -7, 0, 1])  # roots -3, -sqrt 2, 1, sqrt 2, 2
    refined = []
    real_refine = rr.refine_root
    monkeypatch.setattr(rr, "refine_root", lambda g, lo, hi, rel:
                        refined.append((lo, hi)) or real_refine(g, lo, hi, rel))
    top = rr.largest_real_root(f)
    assert top[2] == 2
    assert refined and all(lo <= 2 <= hi for lo, hi in refined)
    assert rr.real_roots(f)[-1] == top


def test_simplest_rational_reconstruction():
    assert rr.simplest_rational_between(Q(66, 10), Q(68, 10)) == Q(20, 3)
    assert rr.simplest_rational_between(Q(-1, 3), Q(1, 7)) == 0
    assert rr.simplest_rational_between(Q(141, 100), Q(142, 100)) == Q(17, 12)


def test_circle_root_counting():
    assert rr.count_circle_roots_distinct([1, 1, 1]) == 2
    assert rr.all_roots_on_circle([1, 1, 1])
    assert rr.count_circle_roots_distinct([2, -5, 2]) == 0
    assert not rr.all_roots_on_circle([2, -5, 2])
    assert rr.count_circle_roots_distinct([1, 2, 1]) == 1   # (x+1)^2
    assert rr.all_roots_on_circle([1, 2, 1])
    assert rr.count_circle_roots_distinct([1, 0, 0, 0, 1]) == 4
    mixed = rp.mul([1, 1, 1], [2, -5, 2])
    assert rr.count_circle_roots_distinct(mixed) == 2
    assert not rr.all_roots_on_circle(mixed)
    # factors of x are discarded: x * (x^2+x+1)
    assert rr.count_circle_roots_distinct([0, 1, 1, 1]) == 2
    assert not rr.all_roots_on_circle([0, 1, 1, 1])


def test_circle_count_against_numeric_roots():
    import mpmath
    from palinlace.circle import all_roots

    rng = random.Random(99)
    for _ in range(40):
        half = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        coeffs = half + [rng.randint(-4, 4)] + half[::-1]
        if not any(coeffs):
            continue
        got = rr.count_circle_roots_distinct(coeffs)
        with mpmath.workprec(160):
            roots = all_roots([mpmath.mpf(c) for c in coeffs], 160)
            keep = []
            for z in roots:
                if abs(abs(z) - 1) < mpmath.mpf("1e-20"):
                    if not any(abs(z - w) < mpmath.mpf("1e-12") for w in keep):
                        keep.append(z)
            assert got == len(keep), coeffs


def test_squarefree_decomposition_and_odd_part():
    f = rp.mul(rp.mul([-1, 1], [-1, 1]), rp.mul(rp.mul([2, 1], [2, 1]), [2, 1]))
    assert rp.squarefree_decomposition(f) == [([Q(-1), Q(1)], 2), ([Q(2), Q(1)], 3)]
    assert rp.odd_multiplicity_part(f) == [Q(2), Q(1)]


def test_newton_interpolation_exact():
    target = [Q(3), Q(-1), Q(2), Q(5)]
    xs = [1, 2, 3, 4]
    ys = [rp.evaluate(target, x) for x in xs]
    assert rp.newton_interpolate(xs, ys) == target


def test_newton_interpolation_of_int_samples_is_exact():
    got = rp.newton_interpolate([1, 2, 3], [1, 2, 4])
    assert got == [Q(1), Q(-1, 2), Q(1, 2)]
    assert all(isinstance(c, Q) for c in got)


def test_newton_interpolation_mpf():
    with mpmath.workprec(128):
        target = [mpmath.sqrt(2), -mpmath.pi, mpmath.mpf(1) / 3, mpmath.e]
        xs = [1, 2, 3, 5]
        got = rp.newton_interpolate(xs, [rp.evaluate(target, x) for x in xs])
        assert len(got) == len(target)
        assert all(abs(a - b) < mpmath.mpf("1e-32") for a, b in zip(got, target))


@pytest.mark.parametrize("ring", [mpmath.mpf, lambda x: mpmath.mpc(x, x / 7)])
def test_divmod_float_leading_term_need_not_cancel(ring):
    with mpmath.workprec(128):
        num = [ring(mpmath.mpf(c) / 3) for c in (2, -5, 7, 1, -4, 11)]
        den = [ring(mpmath.mpf(c) / 7) for c in (3, -1, 5)]
        # the premise: rounding leaves a residue in the leading position
        assert num[-1] - (num[-1] / den[-1]) * den[-1] != 0
        quo, rem = rp.divmod_exact(num, den)
        assert len(quo) == len(num) - len(den) + 1
        assert len(rem) == len(den) - 1
        back = rp.add(rp.mul(quo, den), rem)
        assert len(back) == len(num)
        assert all(abs(a - b) < mpmath.mpf("1e-35") for a, b in zip(back, num))


def test_evaluate_mpf_coefficients_at_mpc_point():
    with mpmath.workprec(128):
        p = [mpmath.mpf(2), -mpmath.mpf(1) / 3, mpmath.sqrt(5)]
        z = mpmath.mpc("0.3", "-1.1")
        got = rp.evaluate(p, z)
        assert isinstance(got, mpmath.mpc)
        assert abs(got - (p[0] + p[1] * z + p[2] * z * z)) < mpmath.mpf("1e-35")


def test_subresultant_principal_coeffs_specialize():
    # q = t x^2 - 2x + t over Q[t]; sres_0 specialises to resultants
    A = [[Q(0), Q(1)], [Q(-2)], [Q(0), Q(1)]]
    B = [[Q(-2)], [Q(0), Q(2)]]
    s = rp.subresultant_principal_coeffs(A, B)
    for t in (2, 3, 5, -4):
        assert rp.evaluate(s[0], Q(t)) == rp.resultant_int([t, -2, t], [-2, 2 * t])
