"""Dense polynomial kernels, generic over the coefficient ring.

Polynomials are dense coefficient lists, x^0 first.  The ring kernels
(``strip``, ``add``, ``sub``, ``scale``, ``mul``, ``derivative``,
``evaluate``, ``divmod_exact`` and ``newton_interpolate``) use only
``+ - * /`` and accept ``int``, ``fractions.Fraction``, ``mpmath.mpf`` or
``mpmath.mpc`` coefficients: exact on the first two, rounded at the
ambient mpmath precision on the others.  Within one call Fractions must
not meet mpmath numbers; ``divmod_exact`` and ``newton_interpolate`` read
ints as Fractions.  The rest (gcd, square-free parts, resultants,
determinants, subresultants) is exact over Q and backs the discriminant,
Sturm and subdiscriminant machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


def strip(p):
    """Drop trailing (high-order) zero coefficients."""
    d = len(p)
    while d > 0 and p[d - 1] == 0:
        d -= 1
    return p[:d]


def degree(p) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(strip(p)) - 1


def lc(p):
    q = strip(p)
    return q[-1] if q else Fraction(0)


def is_zero(p) -> bool:
    return all(c == 0 for c in p)


def add(p, q):
    n = max(len(p), len(q))
    return strip([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def sub(p, q):
    n = max(len(p), len(q))
    return strip([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p):
    return [-c for c in p]


def scale(p, c):
    if c == 0:
        return []
    return [c * a for a in p]


def mul(p, q):
    if is_zero(p) or is_zero(q):
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return strip(out)


def derivative(p):
    return strip([i * p[i] for i in range(1, len(p))])


def evaluate(p, x):
    """p(x) by Horner's rule; mpf coefficients may be evaluated at an mpc point."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _field(c):
    """An int as a Fraction, so that division stays exact; else unchanged."""
    return Fraction(c) if isinstance(c, int) else c


def divmod_exact(num, den):
    """Quotient and remainder over the field of fractions of the ring.

    The loop runs over the quotient positions rather than until the
    leading term cancels, which it need not do exactly over mpf or mpc.
    """
    den = strip(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = [_field(c) for c in strip(num)]
    dlc = _field(den[-1])
    dd = len(den) - 1
    quo = [0 * dlc] * max(len(num) - dd, 0)
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd] / dlc
        if c != 0:
            quo[k] = c
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    return strip(quo), strip(num[:dd])


def div_exact(num, den):
    """Exact quotient; raises if the division leaves a remainder."""
    q, r = divmod_exact(num, den)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def monic(p):
    p = strip(p)
    if not p:
        return []
    c = Fraction(p[-1])
    return [Fraction(a) / c for a in p]


def gcd(p, q):
    """Monic gcd over Q."""
    a, b = [Fraction(c) for c in strip(p)], [Fraction(c) for c in strip(q)]
    while b:
        a, b = b, divmod_exact(a, b)[1]
        # keep coefficients small: normalise to monic each step
        b = monic(b) if b else b
    return monic(a)


def squarefree_part(p):
    p = strip(p)
    if degree(p) <= 0:
        return monic(p)
    return div_exact(p, gcd(p, derivative(p)))


def squarefree_decomposition(p):
    """Yun's algorithm: list of (monic factor, multiplicity), product = p up to constant."""
    p = monic(p)
    if degree(p) <= 0:
        return []
    out = []
    g = gcd(p, derivative(p))
    c = div_exact(p, g)
    d = sub(div_exact(derivative(p), g), derivative(c))
    i = 1
    while degree(c) > 0:
        a = gcd(c, d)
        if degree(a) > 0:
            out.append((a, i))
        c = div_exact(c, a)
        d = sub(div_exact(d, a), derivative(c))
        i += 1
    return out


def odd_multiplicity_part(p):
    """Product of the squarefree factors of odd multiplicity (monic)."""
    prod = [Fraction(1)]
    for fac, m in squarefree_decomposition(p):
        if m % 2 == 1:
            prod = mul(prod, fac)
    return prod


def content_int(p):
    """Positive integer content of an integer polynomial."""
    g = 0
    for c in p:
        g = int_gcd(g, abs(int(c)))
    return g or 1


def primitive_int(p):
    g = content_int(p)
    return [int(c) // g for c in p]


def clear_denominators(p):
    """Integer polynomial c*p with minimal positive c; returns (int list, c)."""
    mult = 1
    for c in p:
        f = Fraction(c)
        mult = mult * f.denominator // int_gcd(mult, f.denominator)
    return [int(Fraction(c) * mult) for c in p], mult


def pseudo_rem(a, b):
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a  mod  b, over any integral domain."""
    a = strip(a)
    b = strip(b)
    da, db = len(a) - 1, len(b) - 1
    if db < 0:
        raise ZeroDivisionError("pseudo-remainder by zero")
    if da < db:
        return list(a)
    blc = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        t = r[k + db] if k + db < len(r) else 0
        r = [blc * x for x in r]
        if t != 0:
            for i in range(db + 1):
                r[k + i] -= t * b[i]
    return strip(r)


def resultant_int(a, b) -> int:
    """Resultant of two integer polynomials via the subresultant PRS."""
    a, b = strip([int(c) for c in a]), strip([int(c) for c in b])
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return 1
    sign = 1
    if da < db:
        a, b = b, a
        if da * db % 2 == 1:
            sign = -sign
        da, db = db, da
    if db == 0:
        return sign * b[0] ** da
    g, h = 1, 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = pseudo_rem(a, b)
        if not r:
            return 0
        denom = g * h**delta
        a, b = b, [c // denom for c in r]
        g = a[-1]
        if delta == 0:
            h = h
        elif delta == 1:
            h = g
        else:
            h = g**delta // h ** (delta - 1)
        if len(b) - 1 == 0:
            break
    da = len(a) - 1
    if da == 0:
        return sign
    res = b[0] ** da // h ** (da - 1)
    return sign * res


def resultant_frac(a, b) -> Fraction:
    """Resultant over Q, by clearing denominators first."""
    a = strip(a)
    b = strip(b)
    if not a or not b:
        return Fraction(0)
    ia, ca = clear_denominators(a)
    ib, cb = clear_denominators(b)
    r = resultant_int(ia, ib)
    return Fraction(r) / (Fraction(ca) ** (len(b) - 1) * Fraction(cb) ** (len(a) - 1))


# -- determinants -----------------------------------------------------------

def bareiss_det_int(rows) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _poly_is_zero(p):
    return not strip(p)


def bareiss_det_poly(rows):
    """Fraction-free determinant of a matrix whose entries are Q[t] polynomials.

    Entries are dense Fraction lists; exact divisions stay in Q[t].
    """
    m = [[strip(list(e)) for e in r] for r in rows]
    n = len(m)
    if n == 0:
        return [Fraction(1)]
    sign = 1
    prev = [Fraction(1)]
    for k in range(n - 1):
        if _poly_is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _poly_is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(m[i][j], pivot), mul(m[i][k], m[k][j]))
                m[i][j] = div_exact(num, prev) if num else []
            m[i][k] = []
        prev = pivot
    out = m[n - 1][n - 1]
    return scale(out, sign) if sign < 0 else out


def sylvester_matrix(a, b):
    """Sylvester matrix of a (deg p) and b (deg q); det = Res(a, b)."""
    a, b = strip(a), strip(b)
    p, q = len(a) - 1, len(b) - 1
    size = p + q
    rows = []
    arev = list(reversed(a))
    brev = list(reversed(b))
    for i in range(q):
        rows.append([0] * i + arev + [0] * (size - p - 1 - i))
    for i in range(p):
        rows.append([0] * i + brev + [0] * (size - q - 1 - i))
    return rows


def subresultant_principal_coeffs(a, b):
    """Principal subresultant coefficients sres_j(a, b), j = 0..deg(b)-1.

    ``a`` and ``b`` are polynomials in x whose coefficients are themselves
    Q[t] polynomials (dense Fraction lists); sres_0 is Res(a, b).  Each
    sres_j is the determinant of the order-j Sylvester-Habicht truncation.
    """
    a = [strip(list(e)) for e in a]
    b = [strip(list(e)) for e in b]
    while a and not a[-1]:
        a = a[:-1]
    while b and not b[-1]:
        b = b[:-1]
    p, q = len(a) - 1, len(b) - 1

    def shifted_row(coeffs, deg, i, j):
        # row of x^i * poly over columns x^(p+q-j-1) .. x^j
        ncols = p + q - 2 * j
        row = []
        for t in range(ncols):
            c = p + q - j - 1 - t
            k = c - i
            row.append(coeffs[k] if 0 <= k <= deg else [])
        return row

    out = []
    for j in range(q):
        rows = [shifted_row(a, p, i, j) for i in range(q - j - 1, -1, -1)]
        rows += [shifted_row(b, q, i, j) for i in range(p - j - 1, -1, -1)]
        out.append(bareiss_det_poly(rows))
    return out


def newton_interpolate(xs, ys):
    """Interpolating polynomial through (xs[i], ys[i]), ascending coeffs.

    Exact on int or Fraction samples at integer or rational nodes.
    """
    n = len(xs)
    coef = [_field(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = []
    for i in range(n - 1, -1, -1):
        poly = mul(poly, [-xs[i], 1]) or [0]
        poly[0] += coef[i]
    return strip(poly)
