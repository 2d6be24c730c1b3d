"""Reference answers computed without palinlace.

* ``cn``: largest real root, in alpha, of the discriminant of
  ``(alpha (x^n + 1) + p) / gcd(p, x^n + 1)``, by sympy.  Exact (a
  ``Fraction``) when the root is rational.
* ``il``: half the largest value of ``-p`` over the n-th roots of unity,
  by direct evaluation at ``IL_BITS`` bits.
* circle-rootedness of ``p + alpha (x^n + 1)``: numpy companion-matrix roots.

Polynomials are dense ascending lists of ``Fraction`` coefficients of
``x^0 .. x^n``; a trim palindromic polynomial has ``c[0] = c[n] = 0``.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np
import sympy as sp

IL_BITS = 400
CN_DIGITS = 60

_X, _A = sp.symbols("x a")


def parse_token(tok: str) -> Fraction:
    """Exact value of a coefficient token as typed: integer, a/b or decimal."""
    return Fraction(tok.strip())


def coeffs_from_text(text: str) -> list:
    """Dense x^0..x^n coefficients of a trim polynomial given as x^1..x^(n-1)."""
    inner = [parse_token(t) for t in text.split(",") if t.strip()]
    return [Fraction(0)] + inner + [Fraction(0)]


def to_mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


class CircleNumber:
    """Reference circle number: ``exact`` is a Fraction or None; ``value`` an mpf."""

    def __init__(self, exact, value):
        self.exact = exact
        self.value = value


def circle_number(coeffs) -> CircleNumber:
    n = len(coeffs) - 1
    p = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                _X, domain=sp.QQ)
    xn1 = sp.Poly(_X**n + 1, _X, domain=sp.QQ)
    g = sp.gcd(p, xn1)
    q = sp.Poly(p.quo(g).as_expr() + _A * xn1.quo(g).as_expr(), _X)
    disc = sp.Poly(sp.discriminant(q.as_expr(), _X), _A)
    roots = disc.real_roots()
    if not roots:
        raise ValueError("discriminant has no real root")
    top = roots[-1]
    with mpmath.workprec(4 * CN_DIGITS):
        if top.is_Rational:
            exact = Fraction(int(top.p), int(top.q))
            return CircleNumber(exact, to_mpf(exact))
        return CircleNumber(None, mpmath.mpf(str(top.evalf(CN_DIGITS))))


def interlace_number(coeffs):
    """il of a trim palindromic polynomial, as an mpf at IL_BITS bits."""
    n = len(coeffs) - 1
    with mpmath.workprec(IL_BITS):
        cs = [to_mpf(c) for c in coeffs]
        best = None
        for j in range(n):
            val = mpmath.fsum(c * mpmath.cospi(mpmath.mpf(2 * j * k) / n)
                              for k, c in enumerate(cs) if c)
            cand = -val / 2
            best = cand if best is None or cand > best else best
        return +best


def family_at(coeffs, alpha: Fraction) -> list:
    """Coefficients of p + alpha (x^n + 1)."""
    out = list(coeffs)
    out[0] += alpha
    out[-1] += alpha
    return out


def circle_rooted(coeffs, tol: float) -> bool:
    """All roots on the unit circle within tol; a root at 0 never is.

    The roots are those of the exact square-free part (sympy), so a
    multiple root at a breakpoint costs numpy no accuracy.
    """
    top = max(k for k, c in enumerate(coeffs) if c != 0)
    poly = sp.Poly([sp.Rational(c.numerator, c.denominator)
                    for c in reversed(coeffs[:top + 1])], _X, domain=sp.QQ)
    roots = np.roots([float(c) for c in poly.sqf_part().all_coeffs()])
    return bool(np.all(np.abs(np.abs(roots) - 1.0) < tol))


def correct_bits(value, ref) -> float:
    """-log2 of the relative error of value against ref, capped at IL_BITS."""
    with mpmath.workprec(IL_BITS):
        v, r = mpmath.mpf(value), mpmath.mpf(ref)
        err = abs(v - r)
        scale = max(abs(r), mpmath.mpf(2) ** -IL_BITS)
        if err == 0:
            return float(IL_BITS)
        return float(min(-mpmath.log(err / scale, 2), IL_BITS))
