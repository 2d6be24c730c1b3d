"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 11's circle-number certificate is implemented exactly as
stated and fails honestly: the witness family's double roots all divide
x^n + 1, so the self-interlacing hypothesis cannot hold and the true circle
number sits strictly below one (see the growth test, which passes with the
computed values).
"""

import random
import time
from fractions import Fraction as Q

import mpmath
import pytest

from palinlace import circle as ci
from palinlace import dynamics as dy
from palinlace import families as fa
from palinlace import foic
from palinlace import ratpoly as rp
from palinlace.errors import NotApplicable
from palinlace.interlace import interlace_number, is_interlace_rational, ll_bound
from palinlace.polycore import (
    as_mpf,
    instantiate,
    make_polynomial,
    p_alpha,
    sigma_of,
)
from palinlace.precision import working_precision
from palinlace.smalldarga import darga4_numbers, darga5_numbers
from palinlace.families import random_trim_palindromic

from conftest import ge


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>3}] {tag} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_geometric_family():
    start = time.time()
    with working_precision(256):
        half = mpmath.mpf(1) / 2
        for n in range(2, 65):
            assert abs(interlace_number(ge(n)).value - half) < mpmath.mpf("1e-10")
    for n in range(2, 17):
        assert ci.circle_number(ge(n)).value == Q(n // 2, n)
        assert ci.circle_number_palindromic(ge(n)).value == Q(n // 2, n)
    for n in range(3, 17, 2):
        assert ci.bounding_error(ge(n)) == Q(1, n - 1)
    elapsed = time.time() - start
    report(1, elapsed < 30,
           f"geometric il/cn/be closed forms, {elapsed:.1f}s < 30s")


def test_criterion_02_darga_2_and_3():
    p = make_polynomial([-2], offset=1)
    ok_il, il = is_interlace_rational(p)
    res = ci.circle_number(p)
    assert ok_il and il == 1 and res.value == 1
    assert 0 in interlace_number(p).certs           # theta^0 = 1
    assert any(abs(z - 1) < 1e-9 for z in res.certs)

    q = make_polynomial([2, 2], offset=1)
    ok_il, il = is_interlace_rational(q)
    resq = ci.circle_number(q)
    assert ok_il and il == 1
    assert resq.value == Q(2, 3)
    assert ci.bounding_error(q) == Q(1, 2)
    report(2, True, "darga 2/3 closed forms exact on the rational track")


def test_criterion_03_darga4_sweep():
    with working_precision(256):
        r2 = mpmath.sqrt(2)
        cases = [Q(-2), Q(-3, 2), -r2 - mpmath.mpf("1e-6"), -r2 + mpmath.mpf("1e-6"),
                 Q(-1), Q(0), Q(1, 2), r2 / 2, Q(1), Q(2)]
    for b in cases:
        if isinstance(b, Q):
            p = make_polynomial([b, 2, b], offset=1) if b else make_polynomial([0, 2, 0], offset=1)
        else:
            with working_precision(256):
                p = make_polynomial([b, mpmath.mpf(2), b], offset=1)
        res = ci.circle_number(p)
        _, cn_formula, _ = darga4_numbers(b, 1)
        with working_precision(256):
            assert abs(as_mpf(res.value) - cn_formula) < mpmath.mpf("1e-8"), b

    # sup of the bounding error over a 10^4-point grid.  The supremum is
    # approached on the ray family b in (sqrt 2, 2] at c = 1, so the grid
    # samples that branch; the complementary branch keeps be <= 1.
    with working_precision(256):
        sup = mpmath.mpf(0)
        lo, hi = mpmath.sqrt(2), mpmath.mpf(2)
        for i in range(1, 10**4 + 1):
            b = lo + (hi - lo) * i / 10**4
            _, _, be = darga4_numbers(b, 1)
            assert be < mpmath.sqrt(2)
            sup = max(sup, be)
        for i in range(0, 200):
            b = lo * i / 200
            _, _, be = darga4_numbers(b, 1)
            assert be <= 1 + mpmath.mpf("1e-30")
        ok = mpmath.sqrt(2) - mpmath.mpf("1e-3") <= sup <= mpmath.sqrt(2)
    report(3, ok, f"darga-4 case formula + grid sup {mpmath.nstr(sup, 10)} "
                  "inside [sqrt2 - 1e-3, sqrt2]")


def test_criterion_04_darga5():
    with working_precision(256):
        s5 = mpmath.sqrt(5)
        exapol = make_polynomial([1 - s5, 6, 6, 1 - s5], offset=1)
        res = interlace_number(exapol)
        assert abs(res.value - (3 + s5)) < mpmath.mpf("1e-9")
    verdict = ci.is_exact(exapol)
    assert verdict.exact
    assert verdict.witness == 1  # theta_5
    circ = ci.circle_number(exapol)
    with working_precision(256):
        cert_target = mpmath.expjpi(mpmath.mpf(2) / 5)
        assert any(abs(z - cert_target) < mpmath.mpf("1e-8") for z in circ.certs)

    # halved-route discriminant reproduced exactly on rational (b, c)
    for b, c in [(Q(2), Q(3)), (Q(-1), Q(2)), (Q(1), Q(1))]:
        p = make_polynomial([b, c, c, b], offset=1)
        res5 = ci.circle_number_palindromic(p)
        target = rp.primitive_int(rp.clear_denominators(
            [b * b, -(4 * c - 2 * b), Q(5)])[0])
        got = [int(x) for x in res5.disc_poly]
        assert got == target or got == [-t for t in target], (b, c, got)

    # boundary behaviour of the bounding error near b = (sqrt5 - 1)/2+
    with working_precision(256):
        b0 = (s5 - 1) / 2
        limit = (3 + s5) / 2
        sup = mpmath.mpf(0)
        for i in range(1, 10**4 + 1):
            b = b0 + (1 - b0) * i / 10**4
            _, _, be = darga5_numbers(b, 1)
            assert be < limit
            sup = max(sup, be)
        ok = sup > limit - mpmath.mpf("1e-2")
        # the rest of the sigma-circle stays below the same bound
        for i in range(720):
            t = mpmath.mpf(i) / 720
            bb, cc = mpmath.cospi(2 * t), mpmath.sinpi(2 * t)
            il, cn, be = darga5_numbers(bb, cc)
            if cn > 0 and il > 0:
                assert be < limit
    report(4, ok, f"exapol + halved discriminant + BE(5) boundary "
                  f"(sup {mpmath.nstr(sup, 10)})")


def test_criterion_05_darga6_fixtures():
    ok1, v1 = is_interlace_rational(make_polynomial([172, 100, 198, 100, 172], offset=1))
    assert ok1 and v1 == 171
    ok2, v2 = is_interlace_rational(make_polynomial([100, 172, 198, 172, 100], offset=1))
    assert ok2 and v2 == 135

    p = make_polynomial([50, 86, 99, 86, 50], offset=1)
    be = ci.bounding_error(p)
    assert be == 4
    okp, ilp = is_interlace_rational(p)
    cnp = ci.circle_number_palindromic(p).value
    assert okp and isinstance(cnp, Q) and ilp == 5 * cnp

    q = make_polynomial([1150, 1978, 2276, 1978, 1150], offset=1)  # 23 p - x^3
    beq = ci.bounding_error(q)
    with working_precision(256):
        assert as_mpf(beq) >= mpmath.mpf("4.0064516")
    report(5, True, f"darga-6: il 171/135 exact, be(p)=4 exact, "
                    f"be(23p - x^3) = {float(as_mpf(beq)):.10f} >= 4.0064516")


def test_criterion_06_section_9_4_counterexamples():
    p = make_polynomial([15, 14, 12, 2, 2, 12, 14, 15], offset=1)
    res = interlace_number(p)
    with working_precision(256):
        assert abs(res.value - mpmath.mpf("15.018885")) < mpmath.mpf("1e-5")
    assert ci.circle_number(p).value == Q(23, 3)

    q = make_polynomial([80, 75, 73, 11, 2, 11, 73, 75, 80], offset=1)
    resq = interlace_number(q)
    with working_precision(256):
        assert abs(resq.value - mpmath.mpf("90.6139")) < mpmath.mpf("1e-3")
    assert ci.circle_number(q).value == 68
    report(6, True, "decreasing-coefficient counterexamples: cn = 23/3 and 68 exact")


def test_criterion_07_families():
    for n in range(2, 101):
        for k in (1, 2):
            ok, v = is_interlace_rational(fa.gcd_poly(n, k))
            assert ok and v == Q(n**k - fa.jordan_totient(k, n), 2), (n, k)
    from palinlace.arith import prime_factors
    for n in range(2, 101):
        ok, v = is_interlace_rational(fa.coprime_support(n))
        q = prime_factors(n)[0]
        assert ok and v == Q(fa.euler_phi(n), 2 * (q - 1)), n
    with working_precision(256):
        for n in (5, 13, 17, 29):
            res = interlace_number(fa.fekete(n))
            assert abs(res.value - mpmath.sqrt(n) / 2) < mpmath.mpf("1e-9"), n
        # interlace number of the trimmed binomials; the closed form carries
        # +1 (direct evaluation at n = 3 gives 3/2, so the sign of the
        # trailing term is forced)
        for n in range(3, 31):
            res = interlace_number(fa.binomial_poly(n))
            expect = 2 ** (n - 1) * mpmath.cospi(mpmath.mpf(1) / n) ** n + 1
            assert abs(res.value - expect) < mpmath.mpf("1e-8") * (1 + expect), n
        from palinlace.polycore import unity_values_raw
        f13 = fa.fekete(13)
        for v in unity_values_raw(f13, range(1, 13), 256):
            assert abs(abs(v) - mpmath.sqrt(13)) < mpmath.mpf("1e-9")
    report(7, True, "gcd/coprime exact to n=100, Fekete, binomial, Gauss magnitude")


def test_criterion_08_foic():
    expected = {
        0: [(-1, -3, -4), (-1, -1, 0), (-1, 0, -1)],
        1: [(1, 3, 4), (-1, 0, 2), (-1, 1, 0)],
        2: [(1, 1, 0), (1, 0, -2), (-1, 3, -4)],
        3: [(1, 0, 1), (1, -1, 0), (1, -3, 4)],
    }
    for j, rows in expected.items():
        got = foic.cone_halfspaces(6, j)
        assert got == rows, (j, got)  # rows are primitive-integer scaled

    for n in range(3, 25):
        assert foic.count_colored_automorphisms(foic.isometry_graph(n)) == \
            foic.isometry_group(n)[0], n

    with working_precision(256):
        for n in range(2, 17):
            verts = foic.polar_vertices(n)
            for j, v in enumerate(verts):
                s = sigma_of(v)
                for r in range(n // 2 + 1):
                    if r == j:
                        continue
                    val = foic.apply(foic.functional(n, r), s)
                    assert abs(as_mpf(val) - 1) < mpmath.mpf("1e-9"), (n, j, r)
    report(8, True, "halfspace rows, automorphism counts to n=24, polar identity")


def test_criterion_09_property_suite():
    start = time.time()
    rng = random.Random(987654321)
    count = 500
    checked_lower_interval = 0
    for i in range(count):
        darga = 3 + (i % 8)
        p = random_trim_palindromic(rng, darga)
        il = interlace_number(p)
        disc = ci.circle_number(p)
        heck = ci.circle_number_palindromic(p)
        ladder_ll = ll_bound(p)
        lower = ci.cn_lower_bounds(p)
        with working_precision():
            cn_v = as_mpf(heck.value)
            # cn <= il and the sandwich from the coefficient bounds
            assert cn_v <= il.value + mpmath.mpf("1e-9")
            assert il.value <= as_mpf(ladder_ll) + mpmath.mpf("1e-9")
            assert cn_v >= as_mpf(lower["binomial"]) - mpmath.mpf("1e-9")
            # the two circle-number routes agree
            assert abs(as_mpf(disc.value) - cn_v) <= \
                mpmath.mpf("1e-9") * (1 + cn_v)
        # scaling laws for both numbers
        lam = Q(rng.randint(1, 9), rng.randint(1, 4))
        il_s = interlace_number(p.scale(lam))
        cn_s = ci.circle_number_palindromic(p.scale(lam))
        il_x = interlace_number(p.stretch(2))
        cn_x = ci.circle_number_palindromic(p.stretch(2))
        with working_precision():
            assert abs(il_s.value - as_mpf(lam) * il.value) <= \
                mpmath.mpf("1e-9") * (1 + abs(il_s.value))
            assert abs(as_mpf(cn_s.value) - as_mpf(lam) * cn_v) <= \
                mpmath.mpf("1e-9") * (1 + as_mpf(cn_s.value))
            assert abs(il_x.value - il.value) <= mpmath.mpf("1e-9") * (1 + abs(il.value))
            assert abs(as_mpf(cn_x.value) - cn_v) <= mpmath.mpf("1e-9") * (1 + cn_v)
        if darga % 2 == 0:
            il_f = interlace_number(p.sign_flip())
            cn_f = ci.circle_number_palindromic(p.sign_flip())
            with working_precision():
                assert abs(il_f.value - il.value) <= mpmath.mpf("1e-9") * (1 + abs(il.value))
                assert abs(as_mpf(cn_f.value) - cn_v) <= mpmath.mpf("1e-9") * (1 + cn_v)
        # oracle agreement at the threshold
        ap = p_alpha(p)
        with working_precision():
            delta = mpmath.mpf("1e-3") * (1 + cn_v)
            above, below = cn_v + delta, cn_v - delta
        assert ci.numeric_oracle_circle_rooted(ap.instantiate(above),
                                               mpmath.mpf("1e-5"))
        if below > 0 and ci.numeric_oracle_circle_rooted(ap.instantiate(below),
                                                         mpmath.mpf("1e-5")):
            # below the threshold circle-rootedness may only come from a
            # lower circle-rooted interval of the alpha sweep
            prof = dy.alpha_profile(p)
            hit = False
            for iv in prof.circle_rooted_intervals():
                lo_ok = iv.lo is None or as_mpf(iv.lo) <= below + mpmath.mpf("1e-12")
                hi_ok = iv.hi is None or as_mpf(iv.hi) >= below - mpmath.mpf("1e-12")
                if lo_ok and hi_ok:
                    hit = True
            assert hit, "oracle true below cn without a supporting interval"
            checked_lower_interval += 1
        # reported circle certs annihilate R(p)
        rp_poly = ci.R_polynomial(p)
        with working_precision():
            scale = sum(abs(as_mpf(rp_poly.coeff(k)[0]))
                        for k in range(len(rp_poly.re)))
            for z in heck.certs:
                assert abs(rp_poly.evaluate_complex(z)) < \
                    mpmath.mpf("1e-7") * (1 + scale)
    elapsed = time.time() - start
    report(9, elapsed < 300,
           f"500 random polynomials, all laws hold, {elapsed:.0f}s < 300s "
           f"({checked_lower_interval} sub-threshold interval confirmations)")


def test_criterion_10_dynamics():
    p = fa.two_interval([(5, 1), (5, 1), (5, 1)])
    prof = dy.alpha_profile(p)
    pos = prof.circle_rooted_intervals(positive_only=True)
    assert len(pos) >= 2
    res = ci.circle_number(p)
    with working_precision(256):
        assert abs(as_mpf(pos[-1].lo) - as_mpf(res.value)) < mpmath.mpf("1e-9")

    prof2 = dy.alpha_profile(make_polynomial([-2], offset=1))
    assert any(bp.exact == 1 for bp in prof2.breakpoints)

    rng = random.Random(321)
    from test_circle import exact_disc
    for _ in range(100):
        d = rng.randint(1, 8)
        f = [Q(rng.randint(-9, 9)) for _ in range(d)] + [Q(rng.choice([1, 2, 3, -2]))]
        if f[0] == 0:
            f[0] = Q(1)
        fx2 = [Q(0)] * (2 * len(f) - 1)
        for i, c in enumerate(f):
            fx2[2 * i] = c
        assert exact_disc(fx2) == Q(-1) ** d * Q(4) ** d * f[-1] * f[0] * exact_disc(f) ** 2
    report(10, True, "two disjoint circle-rooted intervals, breakpoint at 1, "
                     "squared-variable discriminant identity on 100 samples")


def test_criterion_11_be_growth():
    values = {}
    for n in (8, 16, 24, 32):
        p = fa.be_witness(n)
        il = interlace_number(p).value
        cn = ci.circle_number_palindromic(p).value
        with working_precision():
            values[n] = il / as_mpf(cn) - 1
    ordered = [values[n] for n in (8, 16, 24, 32)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert values[32] > values[8] + 1
    report("11a", True,
           "be strictly increasing along the witness family: "
           + ", ".join(f"{n}: {float(values[n]):.3f}" for n in (8, 16, 24, 32)))


def test_criterion_11_cn_certificate_as_stated():
    """cn(P_n) = 1 certified via the self-interlacing bound, as stated.

    This is implemented faithfully and fails: every root of the squared
    product divides x^n + 1, so the double roots drop out of the reduced
    alpha family and two roots of x^n + 1 next to the real axis share a
    sector; the certificate's interlacing hypothesis cannot hold, and the
    actual circle number is strictly below one (0.9114 at n = 8, tending
    to 1 from below).  See the decisions ledger for the full analysis.
    """
    outcomes = []
    for n in (8, 16, 24, 32):
        p = fa.be_witness(n)
        q2 = instantiate(p_alpha(p), 1)
        try:
            bound, attained = ci.self_interlace_upper(q2)
            with working_precision():
                outcomes.append(attained and abs(as_mpf(bound) - 1) < mpmath.mpf("1e-9"))
        except NotApplicable:
            outcomes.append(False)
    report("11b", all(outcomes),
           "cn(P_n) = 1 via the self-interlacing certificate "
           "(unattainable as stated: hypothesis cannot hold for the "
           "squared construction; true cn < 1)")
