"""Circle number via discriminants, the Cayley transform, certs, exactness.

Two routes compute the circle number of a trim self-inversive p of darga n:

* discriminant route: cn is the largest real root, in alpha, of the
  discriminant of q_alpha = (alpha (x^n + 1) + p) / gcd(p, x^n + 1);
* halved route (palindromic p): write the palindromic q_alpha of degree 2m
  as x^m G_alpha(y) with y = x + 1/x, and take the largest real root of the
  half-size discriminant Disc_y(G_alpha) together with the two endpoint
  candidates -p(1)/2 and -p(-1)/2 (n even) or -p'(-1)/n (n odd).  G_alpha
  is a Moebius transform of the even half of the Cayley image S_1(q_alpha),
  so both have the same discriminant up to a constant.

Rational input stays exact end to end (integer resultants on sample values
of alpha, exact interpolation, Sturm isolation, rational reconstruction of
the largest root); floating input falls back to high-precision numerics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import ratpoly as rp
from . import realroots as rr
from .arith import binomial
from .errors import (
    EmptyPolynomial,
    InternalInconsistency,
    NotApplicable,
    NotSelfInversive,
    NotSupported,
    NotTrim,
    OracleFailure,
)
from .interlace import CERT_REL_TOL, interlace_number
from .polycore import (
    Polynomial,
    as_mpf,
    sigma_of,
    to_fraction_coeffs,
    trim_part,
    unity_residue,
    unity_values_raw,
    x_pow_n_plus_1,
)
from .precision import default_precision, escalate, working_precision

GCD_REL_TOL = mpmath.mpf("1e-9")       # float-track divisibility threshold
CERT_CLUSTER_TOL = mpmath.mpf("1e-6")  # double-root clustering
ROOT_IM_TOL = mpmath.mpf("1e-9")       # accept near-real roots of the alpha poly
SEED_REL_TOL = 1e-12                   # float64 Durand-Kerner convergence
SEED_MAX_STEPS = 200
SEED_CIRCLE_TOL = 1e-3                 # seeds this near |z| = 1 get polished
POLISH_MAX_STEPS = 12


@dataclass(frozen=True)
class CircleResult:
    value: object          # Fraction when identified exactly, else mpf
    certs: tuple           # unit-circle double roots of p at alpha = value
    method: str            # "discriminant" | "hecke"
    disc_poly: tuple       # alpha-polynomial whose largest real root was taken


@dataclass(frozen=True)
class ExactnessVerdict:
    exact: bool
    route: str             # "pofone_fast_path" | "double_root_test"
    witness: object | None  # cert index whose root doubles, when detected


def _require_trim_si(p: Polynomial):
    if p.is_zero:
        raise EmptyPolynomial("circle number of the zero polynomial")
    if not p.is_trim:
        raise NotTrim("circle number is defined for trim polynomials")
    if not p.is_self_inversive():
        raise NotSelfInversive("circle number needs self-inversive input")


# -- numeric root finding -----------------------------------------------------

def all_roots(coeffs, bits: int | None = None):
    """All complex roots of a polynomial given by ascending mpf/mpc coefficients.

    Multiple roots slow the simultaneous iteration down to a linear rate, so
    the step budget and guard precision scale with the working precision and
    the whole solve escalates twice before giving up.
    """
    bits = bits or default_precision()
    last_err = None
    for attempt in range(3):
        wp = bits * (2**attempt)
        try:
            with working_precision(wp):
                cof = [mpmath.mpc(c) for c in coeffs]
                while cof and abs(cof[-1]) == 0:
                    cof.pop()
                if len(cof) <= 1:
                    return []
                desc = list(reversed(cof))
                roots = mpmath.polyroots(desc, maxsteps=100 + 5 * wp,
                                         extraprec=2 * wp, error=False)
                return [mpmath.mpc(r) for r in roots]
        except (mpmath.libmp.NoConvergence, ZeroDivisionError) as exc:
            last_err = exc
    raise OracleFailure(f"root solver did not converge: {last_err}")


def polynomial_roots(p: Polynomial, bits: int | None = None):
    with working_precision(bits):
        coeffs = p.mpc_coeffs()
    return all_roots(coeffs, bits)


def numeric_oracle_circle_rooted(p: Polynomial, tol=None) -> bool:
    """Independent oracle: solve for all roots and test | |z| - 1 | < tol."""
    if p.is_zero:
        raise EmptyPolynomial("oracle needs a nonzero polynomial")
    bits = 2 * default_precision()
    tol = mpmath.mpf(tol) if tol is not None else mpmath.mpf("1e-6")
    roots = polynomial_roots(p, bits)
    with working_precision(bits):
        return all(abs(abs(z) - 1) < tol for z in roots)


# -- exact complex-rational helpers (Cayley at omega = +-1) -------------------

def _cpoly(rel, iml):
    return [Fraction(c) for c in rel], [Fraction(c) for c in iml]


def _cmul(a, b):
    ar, ai = a
    br, bi = b
    return (rp.sub(rp.mul(ar, br), rp.mul(ai, bi)),
            rp.add(rp.mul(ar, bi), rp.mul(ai, br)))


def _cadd(a, b):
    return rp.add(a[0], b[0]), rp.add(a[1], b[1])


def _cscale(a, re, im=Fraction(0)):
    ar, ai = a
    return (rp.sub(rp.scale(ar, re), rp.scale(ai, im)),
            rp.add(rp.scale(ai, re), rp.scale(ar, im)))


def cayley_exact(coeffs_re, coeffs_im, omega_sign: int):
    """S_omega(p) for omega = +1 or -1 on exact coefficients.

    Returns the real coefficient list of (x + i)^n p(omega (x - i)/(x + i));
    raises if the imaginary part does not vanish identically.
    """
    n = len(coeffs_re) - 1
    minus = (_cpoly([0, 1], [-1]))   # x - i
    plus = (_cpoly([0, 1], [1]))     # x + i
    minus_pows = [(_cpoly([1], [0]))]
    plus_pows = [(_cpoly([1], [0]))]
    for _ in range(n):
        minus_pows.append(_cmul(minus_pows[-1], minus))
        plus_pows.append(_cmul(plus_pows[-1], plus))
    acc = _cpoly([], [])
    for k in range(n + 1):
        cre = Fraction(coeffs_re[k]) * omega_sign**k
        cim = Fraction(coeffs_im[k]) * omega_sign**k if coeffs_im else Fraction(0)
        if cre == 0 and cim == 0:
            continue
        term = _cmul(minus_pows[k], plus_pows[n - k])
        acc = _cadd(acc, _cscale(term, cre, cim))
    re, im = acc
    if rp.strip(im):
        raise InternalInconsistency("Cayley image of self-inversive input must be real")
    return rp.strip(re) or []


def cayley(p: Polynomial, j: int) -> Polynomial:
    """The real polynomial S_omega(p) for omega = theta_n^j.

    Exact for rational p with omega = +-1; floating (with an imaginary-residue
    check) otherwise.
    """
    if not p.is_self_inversive():
        raise NotSelfInversive("the Cayley image is real only for self-inversive input")
    n = p.darga
    j = j % n
    if p.is_exact and (j == 0 or 2 * j == n):
        re = [Fraction(p.coeff(k)[0]) for k in range(n + 1)]
        im = [Fraction(p.coeff(k)[1]) for k in range(n + 1)]
        sign = 1 if j == 0 else -1
        return Polynomial(cayley_exact(re, im, sign), zero_darga=n)
    bits = 2 * default_precision()
    with working_precision(bits):
        w = mpmath.expjpi(mpmath.mpf(2 * j) / n)
        # powers of x - i and of x + i: Gaussian integers, exact at this precision
        minus, plus = [[1]], [[1]]
        for _ in range(n):
            minus.append(rp.mul(minus[-1], [mpmath.mpc(0, -1), 1]))
            plus.append(rp.mul(plus[-1], [mpmath.mpc(0, 1), 1]))
        acc = [mpmath.mpc(0)] * (n + 1)
        for k, c in enumerate(p.mpc_coeffs(n + 1)):
            c *= w**k
            if c != 0:
                for i, t in enumerate(rp.mul(minus[k], plus[n - k])):
                    acc[i] += c * t
        scalemax = max(abs(c) for c in acc)
        eps = scalemax * mpmath.mpf(2) ** (-(bits - 48))
        if any(abs(c.imag) > eps for c in acc):
            raise InternalInconsistency("Cayley image has a nonvanishing imaginary part")
        return Polynomial([c.real for c in acc], zero_darga=n)


def hecke(q: Polynomial) -> Polynomial:
    """Keep even-indexed coefficients: coefficient of x^j becomes that of x^(2j)."""
    re = [q.coeff(2 * j)[0] for j in range(q.degree // 2 + 1)] if not q.is_zero else []
    im = None
    if q.im is not None:
        im = [q.coeff(2 * j)[1] for j in range(q.degree // 2 + 1)]
    return Polynomial(re, im, zero_darga=q.darga // 2)


def choose_omega(p: Polynomial) -> int:
    """Index j maximising p(theta_n^j); guarantees a full-degree Cayley image."""
    _require_trim_si(p)
    n = p.darga
    norm = p.norm1()

    def compute(bits):
        vals = unity_values_raw(p, range(n), bits)
        with working_precision(bits):
            reals = [v.real for v in vals]
            vmax = max(reals)
            eps = mpmath.mpf("1e-9") * as_mpf(norm)
            return min(j for j, v in enumerate(reals) if v >= vmax - eps)

    j, _ = escalate(compute)
    return j


# -- gcd with x^n + 1 ---------------------------------------------------------

def gcd_xn1(p: Polynomial) -> Polynomial:
    """The factor gcd(p, x^n + 1); exact on the rational track.

    On the floating track the divisor is assembled from the real irreducible
    factors of x^n + 1 whose roots nearly annihilate p, repeated while the
    quotient stays divisible.
    """
    _require_trim_si(p)
    n = p.darga
    if p.is_exact and p.is_real:
        g = rp.gcd(to_fraction_coeffs(p), to_fraction_coeffs(x_pow_n_plus_1(n)))
        return Polynomial(g, zero_darga=0)
    bits = 2 * default_precision()
    with working_precision(bits):
        thresh = GCD_REL_TOL * as_mpf(p.norm1())
        rem = p.mpc_coeffs()
        one = mpmath.mpf(1)
        factors = []
        if n % 2 == 1:
            factors.append(([one, one], mpmath.mpc(-1)))
        for k in range(n // 2):
            c = mpmath.cospi(mpmath.mpf(2 * k + 1) / n)
            z = mpmath.expjpi(mpmath.mpf(2 * k + 1) / n)
            factors.append(([one, -2 * c, one], z))
        g = [one]
        for f, z in factors:
            while len(rem) >= len(f) and abs(rp.evaluate(rem, z)) < thresh:
                rem = rp.divmod_exact(rem, f)[0]
                g = rp.mul(g, f)
        return Polynomial(g, zero_darga=len(g) - 1)


def _alpha_pair(p: Polynomial):
    """q0, q1 with (p + alpha (x^n + 1)) / gcd(p, x^n + 1) = q0 + alpha q1.

    Exact on the exact real track, mpf or mpc at twice the default precision
    otherwise.  q0 is zero-padded to the length of q1, the family's x-degree
    plus one.
    """
    g = gcd_xn1(p)
    xn1 = to_fraction_coeffs(x_pow_n_plus_1(p.darga))
    if p.is_exact and p.is_real:
        gc = to_fraction_coeffs(g)
        q0, q1 = rp.div_exact(to_fraction_coeffs(p), gc), rp.div_exact(xn1, gc)
    else:
        with working_precision(2 * default_precision()):
            gc = [as_mpf(c) for c in g.re]
            pc = [as_mpf(c) for c in p.re] if p.is_real else p.mpc_coeffs()
            q0 = rp.divmod_exact(pc, gc)[0]
            q1 = rp.divmod_exact([as_mpf(c) for c in xn1], gc)[0]
    return q0 + [0 * q1[-1]] * (len(q1) - len(q0)), q1


# -- alpha-discriminant machinery --------------------------------------------

def _resultant_alpha_exact(f0, f1):
    """Res_x(f, df/dx) for f = f0 + alpha f1 as an exact alpha-polynomial.

    f0 and f1 are rational lists of one length d + 1.  The resultant is
    sampled at integers alpha where the x-degree does not drop and
    interpolated exactly; clearing a common denominator first scales it by
    a positive constant.
    """
    d = len(f1) - 1
    ints = rp.clear_denominators(list(f0) + list(f1))[0]
    i0, i1 = ints[:d + 1], ints[d + 1:]
    xs, ys = [], []
    a = 1
    while len(xs) < 2 * d:
        fa = [i0[k] + a * i1[k] for k in range(d + 1)]
        if fa[d] != 0:
            xs.append(a)
            ys.append(rp.resultant_int(fa, rp.derivative(fa)))
        a += 1
    return rp.newton_interpolate(xs, ys)


def _resultant_alpha_float(f0, f1, bits: int):
    """Floating counterpart: numeric Sylvester determinants, interpolated."""
    with working_precision(bits):
        d = len(f1) - 1
        xs, ys = [], []
        a = 1
        while len(xs) < 2 * d:
            fa = [f0[k] + a * f1[k] for k in range(d + 1)]
            scale = max(abs(c) for c in fa)
            if abs(fa[d]) > mpmath.mpf(2) ** (-(bits // 2)) * (1 + scale):
                rows = rp.sylvester_matrix(fa, rp.derivative(fa))
                # det gives the int 0 for a singular matrix
                ys.append(mpmath.mpmathify(mpmath.det(mpmath.matrix(rows))))
                xs.append(a)
            a += 1
        return rp.newton_interpolate(xs, ys)


def _alpha_discriminant(p: Polynomial):
    """Disc_x(p_alpha / gcd(p, x^n + 1)) in alpha, up to a constant factor.

    Exact on the exact real track, where the factor alpha that the leading
    x-coefficient alpha q1[d] contributes is divided out; mpf or mpc at twice
    the default precision otherwise.
    """
    q0, q1 = _alpha_pair(p)
    if p.is_exact and p.is_real:
        disc = _resultant_alpha_exact(q0, q1)
        if disc and disc[0] == 0:
            disc = rp.div_exact(disc, [0, 1])
    else:
        disc = _resultant_alpha_float(q0, q1, 2 * default_precision())
    if not disc:
        raise InternalInconsistency("alpha-discriminant vanished identically")
    return disc


def _largest_real_root_float(coeffs, bits: int):
    """Largest real root of an mpf alpha-polynomial, Newton-polished."""
    roots = all_roots(coeffs, bits)
    with working_precision(bits):
        cands = [r.real for r in roots if abs(r.imag) <= ROOT_IM_TOL * (1 + abs(r))]
        if not cands:
            return None
        best = max(cands)
        complex_coeffs = any(isinstance(c, mpmath.mpc) and abs(c.imag) > 0
                             for c in coeffs)
        if complex_coeffs:
            return best
        der = rp.derivative(coeffs)
        x = best
        for _ in range(4):
            fx = rp.evaluate(coeffs, x)
            dx = rp.evaluate(der, x)
            if abs(dx) > 0:
                step = fx / dx
                if abs(step) < 1 + abs(x):
                    x = x - step
        if abs(rp.evaluate(coeffs, x)) <= abs(rp.evaluate(coeffs, best)):
            best = x
        return best


def _max_over_candidates(cands, root_info, disc_poly):
    """max of exact rationals and one isolated algebraic root."""
    cands = [Fraction(c) for c in cands]
    best_c = max(cands) if cands else None
    if root_info is None:
        if best_c is None:
            raise InternalInconsistency("no circle-number candidate exists")
        return best_c
    lo, hi, exact = root_info
    if exact is not None:
        return max(best_c, exact) if best_c is not None else exact
    if best_c is not None:
        sf = rp.squarefree_part(disc_poly)
        for _ in range(8):
            if best_c >= hi:
                return best_c
            if best_c <= lo:
                break
            lo, hi = rr.refine_root(sf, lo, hi, (hi - lo) / 2**40)
        if best_c >= hi:
            return best_c
    with working_precision(4 * default_precision()):
        mid = (as_mpf(lo) + as_mpf(hi)) / 2
        if best_c is not None and as_mpf(best_c) > mid:
            return best_c
        return mid


def _float_seeds(coeffs):
    """Roots of a complex (float64) polynomial by Durand-Kerner iteration.

    ``coeffs`` are ascending with nonzero first and last entries.  Returns
    None when an iterate is not finite, two iterates collide, or some
    Weierstrass correction does not fall below SEED_REL_TOL within
    SEED_MAX_STEPS sweeps -- which is also what happens at a multiple root,
    where float64 cannot resolve the cluster.
    """
    d = len(coeffs) - 1
    a = [c / coeffs[-1] for c in coeffs]
    radius = abs(a[0]) ** (1.0 / d)
    if not (math.isfinite(radius) and radius > 0):
        return None
    z = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4)) for k in range(d)]
    for _ in range(SEED_MAX_STEPS):
        converged = True
        for i in range(d):
            zi = z[i]
            num = 0j
            for c in reversed(a):
                num = num * zi + c
            den = 1 + 0j
            for j in range(d):
                if j != i:
                    den *= zi - z[j]
            if den == 0:
                return None
            w = num / den
            rel = abs(w) / max(1.0, abs(zi))
            if not math.isfinite(rel):
                return None
            converged = converged and rel <= SEED_REL_TOL
            z[i] = zi - w
        if converged:
            return z
    return None


def _newton_polish(coeffs, seed: complex, bits: int):
    """Newton on ascending mpc ``coeffs`` from ``seed`` at ``bits``.

    None if the iteration stalls or leaves the seed's root: a converged seed
    lies far closer than CERT_CLUSTER_TOL to it.
    """
    with working_precision(bits):
        der = rp.derivative(coeffs)
        z = mpmath.mpc(seed)
        tol = mpmath.mpf(2) ** (-(bits // 2))
        last = False  # quadratic convergence: one step past tol is full precision
        for _ in range(POLISH_MAX_STEPS):
            df = rp.evaluate(der, z)
            if df == 0:
                return None
            step = rp.evaluate(coeffs, z) / df
            z -= step
            if last:
                break
            last = abs(step) <= tol * (1 + abs(z))
        else:
            return None
        if abs(z - seed) > CERT_CLUSTER_TOL * (1 + abs(z)):
            return None
        return z


def _polished_circle_roots(dcoeffs, bits: int):
    """Roots of dcoeffs within SEED_CIRCLE_TOL of |z| = 1, to ``bits`` bits.

    Float64 Durand-Kerner seeds, then Newton at ``bits`` on each seed near the
    circle; roots farther out cannot pass the cert filter and are dropped.
    Returns None when the float stage or a polish fails, or when two seeds
    polish to the same root, so the caller can solve in full precision.
    """
    with working_precision(bits):
        cof = list(dcoeffs)
        while cof and cof[-1] == 0:
            cof.pop()
        while cof and cof[0] == 0:      # roots at 0 are never certs
            cof.pop(0)
        if len(cof) <= 1:
            return []
        top = max(abs(c) for c in cof)
        floats = [complex(c / top) for c in cof]
    if floats[0] == 0 or floats[-1] == 0:
        return None
    seeds = _float_seeds(floats)
    if seeds is None:
        return None
    out = []
    for s in seeds:
        if abs(abs(s) - 1) > SEED_CIRCLE_TOL:
            continue
        z = _newton_polish(cof, s, bits)
        if z is None:
            return None
        out.append(z)
    with working_precision(bits):
        tol = mpmath.mpf(2) ** (-(bits // 2))
        for i, z in enumerate(out):
            if any(abs(z - w) <= tol * (1 + abs(z)) for w in out[:i]):
                return None
    return out


def _double_root_factor(p: Polynomial, value: Fraction, bits: int):
    """Square-free part of gcd(p_value, p_value') over Q, as mpf at ``bits``."""
    n = p.darga
    pc = to_fraction_coeffs(p) + [Fraction(0)] * (n + 1 - len(p.re))
    pc[0] += value
    pc[n] += value
    g = rp.squarefree_part(rp.gcd(pc, rp.derivative(pc)))
    with working_precision(bits):
        return [as_mpf(c) for c in g]


def _certs_for(p: Polynomial, value) -> tuple:
    """Unit-circle double roots of p at alpha = value; upper-half reps for real p.

    A double root of p_cn is a common root of p_cn and its derivative.  For
    exact real p at a rational value the candidates are the roots of the
    exact common factor, which has low degree and simple roots.  Otherwise
    they are the roots of the (generically simple-rooted) derivative near the
    circle, seeded in float64 and Newton-polished; a failed seed or polish
    falls back to solving the whole derivative at full precision.  Either
    way the candidates must sit on the circle and annihilate p_cn.
    """
    bits = 2 * default_precision()
    n = p.darga
    with working_precision(bits):
        alpha = as_mpf(value)
        coeffs = p.mpc_coeffs(n + 1)
        coeffs[0] += alpha
        coeffs[n] += alpha
        dcoeffs = rp.derivative(coeffs)
        scale = sum(abs(c) for c in coeffs)
    if p.is_exact and p.is_real and isinstance(value, Fraction):
        droots = all_roots(_double_root_factor(p, value, bits), bits)
    else:
        droots = _polished_circle_roots(dcoeffs, bits)
        if droots is None:
            droots = all_roots(dcoeffs, bits)
    with working_precision(bits):
        tol_p = mpmath.mpf("1e-9") * (1 + scale)
        certs = []
        for z in droots:
            if abs(abs(z) - 1) > CERT_CLUSTER_TOL:
                continue
            if abs(rp.evaluate(coeffs, z)) > tol_p:
                continue
            z = z / abs(z)
            if p.is_real and z.imag < 0:
                z = mpmath.conj(z)
            if any(abs(z - w) < CERT_CLUSTER_TOL for w in certs):
                continue
            certs.append(z)
        return tuple(certs)


def circle_number(p: Polynomial) -> CircleResult:
    """Discriminant route: largest real root of Disc_x(p_alpha / gcd(p, x^n+1))."""
    _require_trim_si(p)
    disc = _alpha_discriminant(p)
    if p.is_exact and p.is_real:
        root = rr.largest_real_root(disc)
        value = None if root is None else _max_over_candidates([], root, disc)
        disc_poly = _normalize_disc(disc)
    else:
        value = _largest_real_root_float(disc, 2 * default_precision())
        disc_poly = disc
    if value is None:
        raise InternalInconsistency("discriminant has no real root; "
                                    "the theorem guarantees one")
    return CircleResult(value, _certs_for(p, value), "discriminant", tuple(disc_poly))


def _normalize_disc(disc):
    """Primitive integer coefficients with positive leading term."""
    ints, _ = rp.clear_denominators(disc)
    ints = rp.primitive_int(ints)
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return [Fraction(c) for c in ints]


def circle_number_palindromic(p: Polynomial) -> CircleResult:
    """Halved route for trim palindromic p: endpoint candidates + Disc_y(G_alpha)."""
    _require_trim_si(p)
    if not p.is_palindromic():
        raise NotSelfInversive("the halved route needs palindromic input")
    bits = 2 * default_precision()
    q0, q1 = _alpha_pair(p)
    m = (len(q1) - 1) // 2  # q1 = (x^n + 1)/gcd has even degree: x + 1 | gcd for odd n
    with working_precision(bits):
        cands = list(_endpoint_candidates(p).values())
        if not p.is_exact:  # a palindromic mpc q0 has only noise in its imaginary part
            q0 = [c.real for c in q0]
        g0, g1 = rr.halved_variable_image(q0, m), rr.halved_variable_image(q1, m)
    if p.is_exact:
        disc = _resultant_alpha_exact(g0, g1) if m >= 2 else []
        if disc:  # Res_y(G, G') = +-lc(G) Disc_y(G), and lc(G) = q_alpha(0) = alpha q1[0]
            disc = rp.div_exact(disc, [g0[m], g1[m]])
        root = rr.largest_real_root(disc) if disc else None
        value = _max_over_candidates(cands, root, disc)
        disc_poly = _normalize_disc(disc)
    else:
        # undivided: the extra root alpha = 0 never exceeds cn, as p_0 = p vanishes at 0
        disc = _resultant_alpha_float(g0, g1, bits) if m >= 2 else []
        root = _largest_real_root_float(disc, bits) if disc else None
        value = max(v for v in cands + [root] if v is not None)
        disc_poly = disc
    return CircleResult(value, _certs_for(p, value), "hecke", tuple(disc_poly))


def _endpoint_candidates(p: Polynomial) -> dict:
    """-p(1)/2, and -p(-1)/2 (n even) or -p'(-1)/n (n odd), on p's track.

    Floating values take the ambient precision.
    """
    n = p.darga
    conv = (lambda c: c) if p.is_exact else as_mpf
    out = {"at_one": -rp.evaluate([conv(c) for c in p.re], 1) / 2}
    if n % 2 == 0:
        out["at_minus_one"] = -rp.evaluate([conv(c) for c in p.re], -1) / 2
    else:
        der = [conv(c) for c in rp.derivative(list(p.re))]
        out["derivative_at_minus_one"] = -rp.evaluate(der, -1) / n
    return out


def alpha_family_reduced(p: Polynomial):
    """The family q(alpha, x) = (alpha (x^n+1) + p) / gcd(p, x^n+1), exact track."""
    from .polycore import AlphaPolynomial
    _require_trim_si(p)
    if not (p.is_exact and p.is_real):
        raise NotSupported("the reduced family is built on the exact rational track")
    q0, q1 = _alpha_pair(p)
    return AlphaPolynomial(p.darga, tuple(q0), tuple(q1))


def cayley_alpha(ap, omega_sign: int = 1):
    """S_omega applied across an exact alpha-family, omega = +1 or -1."""
    from .polycore import AlphaPolynomial
    d = max(len(ap.const), len(ap.slope)) - 1
    c0 = [Fraction(c) for c in ap.const] + [Fraction(0)] * (d + 1 - len(ap.const))
    c1 = [Fraction(c) for c in ap.slope] + [Fraction(0)] * (d + 1 - len(ap.slope))
    s0 = cayley_exact(c0, None, omega_sign)
    s1 = cayley_exact(c1, None, omega_sign)
    top = max(len(s0), len(s1))
    s0 = s0 + [Fraction(0)] * (top - len(s0))
    s1 = s1 + [Fraction(0)] * (top - len(s1))
    return AlphaPolynomial(d, tuple(s0), tuple(s1))


def R_polynomial(p: Polynomial) -> Polynomial:
    """n x^(n-1) p(x) - (x^n + 1) p'(x); circle certs are among its roots."""
    _require_trim_si(p)
    n = p.darga
    xnm1 = Polynomial([Fraction(0)] * (n - 1) + [Fraction(n)])
    return xnm1 * p - x_pow_n_plus_1(n) * p.derivative()


def cn_lower_bounds(p: Polynomial) -> dict:
    """Unconditional lower bounds for the circle number."""
    _require_trim_si(p)
    n = p.darga
    out = {}
    if p.is_exact and p.is_real:
        best = max(abs(Fraction(p.coeff(k)[0])) / binomial(n, k) for k in range(1, n))
    else:
        with working_precision():
            coeffs = p.mpc_coeffs(n)
            best = max(abs(coeffs[k]) / binomial(n, k) for k in range(1, n))
    out["binomial"] = best
    if p.is_palindromic():
        with working_precision():
            out.update(_endpoint_candidates(p))
    return out


def chen_bound(p: Polynomial):
    """cn(p) <= p_1 for half-monotone decreasing nonnegative p; None otherwise."""
    _require_trim_si(p)
    if not p.is_palindromic():
        return None
    n = p.darga
    row = [p.coeff(j)[0] for j in range(1, n // 2 + 1)]
    if any(c < 0 for c in row):
        return None
    if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
        return None
    return row[0]


def _interlace_angle_multisets(args_a, args_b, tol) -> bool:
    """Weak alternation of two equal-size argument multisets in [0, 2 pi)."""
    if len(args_a) != len(args_b):
        return False
    events = []
    for t in sorted(args_a):
        events.append((t, "a"))
    for t in sorted(args_b):
        events.append((t, "b"))
    events.sort(key=lambda e: e[0])
    # group near-equal angles, then greedily alternate inside each group
    groups = []
    for t, tag in events:
        if groups and abs(t - groups[-1][0]) <= tol:
            groups[-1][1].append(tag)
        else:
            groups.append((t, [tag]))
    need = None  # next required tag, or None if either works
    for _, tags in groups:
        na, nb = tags.count("a"), tags.count("b")
        if abs(na - nb) > 1:
            return False
        if na == nb:
            if na == 0:
                continue
            start = need if need is not None else "a"
            need = start
        elif na == nb + 1:
            if need == "b":
                return False
            need = "b"
        else:
            if need == "a":
                return False
            need = "a"
    return True


def self_interlace_upper(q: Polynomial):
    """cn(trim q) <= q(0) when the full palindromic q angle-interlaces x^n + 1.

    Returns (bound, equality_flag); the flag is set when q has a double root.
    Note the hypothesis is hard to meet for real input: conjugate symmetry
    forces an even number of roots into the sector of x^n + 1 roots that
    straddles +1, so the required alternation can only go through argument
    ties (roots of q sitting exactly on roots of x^n + 1).
    """
    if q.is_zero or not q.is_full:
        raise NotApplicable("the self-interlacing bound needs a full polynomial")
    if not q.is_palindromic():
        raise NotApplicable("the self-interlacing bound needs palindromic input")
    n = q.darga
    if trim_part(q).is_zero:
        raise NotApplicable("the trimmed part is zero")
    bits = 2 * default_precision()
    roots = polynomial_roots(q, bits)
    with working_precision(bits):
        args_q = sorted((mpmath.arg(z)) % (2 * mpmath.pi) for z in roots)
        args_b = sorted((mpmath.pi * (2 * k + 1) / n) for k in range(n))
        if not _interlace_angle_multisets(args_q, args_b, mpmath.mpf("1e-9")):
            raise NotApplicable("q does not angle-interlace x^n + 1")
        # double-root detection by clustering
        double = False
        srt = sorted(roots, key=lambda z: mpmath.arg(z))
        for i in range(len(srt)):
            if abs(srt[i] - srt[(i + 1) % len(srt)]) < CERT_CLUSTER_TOL * (1 + abs(srt[i])):
                double = True
                break
    a0, _ = q.coeff(0)
    return a0, double


def is_exact(p: Polynomial) -> ExactnessVerdict:
    """Whether the interlace number already equals the circle number."""
    _require_trim_si(p)
    if not p.is_palindromic():
        raise NotSelfInversive("exactness is defined for palindromic input")
    return _exactness(p, interlace_number(p), circle_number_palindromic(p))


def _exactness(p: Polynomial, il, cn) -> ExactnessVerdict:
    """is_exact for trim palindromic p from its interlace and halved-route results:
    cn is the largest of the endpoint candidates and the real roots of
    ``cn.disc_poly``, and cn <= il, so il == cn iff il is one of them."""
    n = p.darga
    if 0 in il.certs or (n % 2 == 0 and n // 2 in il.certs):
        w = 0 if 0 in il.certs else n // 2
        return ExactnessVerdict(True, "pofone_fast_path", w)
    witness = _twocerts_witness(p, il.certs)
    if p.is_exact:
        exact = il.rational in _endpoint_candidates(p).values() or (
            bool(cn.disc_poly) and all(_vanishes_at_residue(cn.disc_poly, *unity_residue(p, j))
                                       for j in il.certs))
    else:
        with working_precision():
            exact = abs(il.value - as_mpf(cn.value)) <= CERT_REL_TOL * as_mpf(p.norm1())
    return ExactnessVerdict(exact, "double_root_test", witness)


def _vanishes_at_residue(f, r, phi) -> bool:
    """f(r) == 0 in Q[x]/phi, by Horner with a reduction at each step."""
    acc = []
    for c in reversed(f):
        acc = rp.divmod_exact(rp.add(rp.mul(acc, r), [c]), phi)[1]
    return not acc


def _twocerts_witness(p: Polynomial, certs):
    """Cert j whose sine sum vanishes (the cert itself doubles), if any."""
    n = p.darga
    sig = sigma_of(p).sigma
    with working_precision():
        scale = sum(abs(as_mpf(c)) * n for c in sig[1:])
        for j in sorted(certs):
            if j == 0 or 2 * j == n:
                continue
            total = mpmath.mpf(0)
            for k in range(1, n // 2 + 1):
                total += as_mpf(sig[k]) * (n - 2 * k) * mpmath.sinpi(mpmath.mpf(2 * j * k) / n)
            if abs(total) < mpmath.mpf("1e-9") * scale:
                return j
    return None


def bounding_error(p: Polynomial):
    """be(p) = il(p)/cn(p) - 1; exact when both numbers are rational."""
    _require_trim_si(p)
    if not p.is_palindromic():
        raise NotSelfInversive("bounding error is defined for palindromic input")
    return _bounding_error(interlace_number(p), circle_number_palindromic(p))


def _bounding_error(il, cn):
    """il/cn - 1 from the two results: a Fraction when both are rational."""
    if il.rational is not None and isinstance(cn.value, Fraction):
        return il.rational / cn.value - 1
    with working_precision():
        return as_mpf(il.value) / as_mpf(cn.value) - 1


def be_upper_bound(n: int):
    """Coefficient-free bound (n-1)/2 * C(n, floor(n/2)) - 1."""
    return Fraction(n - 1, 2) * binomial(n, n // 2) - 1
