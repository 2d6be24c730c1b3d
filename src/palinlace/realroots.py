"""Exact real-root machinery: Sturm chains, isolation, refinement.

Also hosts the unit-circle root counter for rational palindromic
polynomials, which rewrites an even palindromic polynomial in the variable
y = x + 1/x and counts roots of the image in [-2, 2] by Sturm's theorem.
The halved circle-number route takes the discriminant of the same image.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, ceil

from . import ratpoly as rp


def _int_chain_input(f):
    ints, _ = rp.clear_denominators(rp.strip(f))
    return rp.primitive_int(ints)


def _positive_primitive(r):
    g = rp.content_int(r)
    return [int(c) // g for c in r]


def sturm_chain(f):
    """Sturm chain of f (integer, primitive scaling per step)."""
    a = _int_chain_input(f)
    if rp.degree(a) <= 0:
        return [a] if a else [[0]]
    b = _positive_primitive(rp.derivative(a))
    chain = [a, b]
    while rp.degree(chain[-1]) > 0:
        a, b = chain[-2], chain[-1]
        r = rp.pseudo_rem(a, b)
        if not r:
            break
        c_sign = 1 if b[-1] > 0 else (-1) ** ((len(a) - len(b) + 1) % 2)
        nxt = rp.neg(r) if c_sign > 0 else list(r)
        chain.append(_positive_primitive(nxt))
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    prev, count = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain, x) -> int:
    return _variations([_sign(rp.evaluate(p, x)) for p in chain])


def _variations_at_inf(chain, direction: int) -> int:
    signs = []
    for p in chain:
        s = _sign(rp.lc(p))
        if direction < 0 and rp.degree(p) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_real_roots(f, lo=None, hi=None, chain=None) -> int:
    """Distinct real roots of f in (lo, hi] (None = unbounded side)."""
    if rp.degree(f) <= 0:
        return 0
    if chain is None:
        chain = sturm_chain(rp.squarefree_part(f))
    va = _variations_at_inf(chain, -1) if lo is None else _variations_at(chain, Fraction(lo))
    vb = _variations_at_inf(chain, +1) if hi is None else _variations_at(chain, Fraction(hi))
    return va - vb


def cauchy_bound(f) -> Fraction:
    """All real roots lie strictly inside (-M, M)."""
    f = rp.strip(f)
    top = abs(Fraction(f[-1]))
    m = max((abs(Fraction(c)) for c in f[:-1]), default=Fraction(0))
    return 1 + m / top


def isolate_real_roots(g):
    """Disjoint open rational intervals, one per real root of square-free g, sorted."""
    if rp.degree(g) <= 0:
        return []
    chain = sturm_chain(g)
    bound = cauchy_bound(g)
    total = count_real_roots(g, -bound, bound, chain=chain)
    out = []

    def nudge_off_root(x, width):
        step = width / 16
        while rp.evaluate(g, x) == 0:
            x += step
            step /= 3
        return x

    # a work list, not recursion: huge coefficients need more bisections
    # than the interpreter's stack allows
    work = [(-bound, bound, total)]
    while work:
        lo, hi, n = work.pop()
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = nudge_off_root((lo + hi) / 2, hi - lo)
            nl = _variations_at(chain, lo) - _variations_at(chain, mid)
            work += [(lo, mid, nl), (mid, hi, n - nl)]
    out.sort(key=lambda iv: iv[0])
    return out


def refine_root(g, lo, hi, rel=Fraction(1, 10**12)):
    """Bisect an isolating interval of a root of square-free g to relative width rel."""
    lo, hi = Fraction(lo), Fraction(hi)
    flo = rp.evaluate(g, lo)
    if flo == 0:
        return lo, lo
    fhi = rp.evaluate(g, hi)
    if fhi == 0:
        return hi, hi
    if lo < 0 < hi and rp.evaluate(g, 0) == 0:
        return Fraction(0), Fraction(0)
    slo = _sign(flo)
    while hi - lo > rel * max(abs(lo), abs(hi)):
        mid = (lo + hi) / 2
        v = rp.evaluate(g, mid)
        if v == 0:
            return mid, mid
        if _sign(v) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def simplest_rational_between(lo, hi) -> Fraction:
    """The rational with smallest denominator in the closed interval [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    n = floor(lo)
    if ceil(lo) <= floor(hi):
        return Fraction(ceil(lo))
    rest = simplest_rational_between(1 / (hi - n), 1 / (lo - n))
    return n + 1 / rest


def _refined(g, lo, hi, rel):
    """(lo, hi, exact_or_None) for the root of square-free g isolated in (lo, hi)."""
    lo, hi = refine_root(g, lo, hi, rel)
    if lo == hi:
        return lo, hi, lo
    cand = simplest_rational_between(lo, hi)
    if rp.evaluate(g, cand) == 0:
        return lo, hi, cand
    lo, hi = refine_root(g, lo, hi, rel / 10**6)
    cand = simplest_rational_between(lo, hi)
    return lo, hi, (cand if rp.evaluate(g, cand) == 0 else None)


def real_roots(f, rel=Fraction(1, 10**12)):
    """Refined isolating intervals plus exact rational value where one exists.

    Returns a list of (lo, hi, exact_or_None), sorted increasing.
    """
    g = rp.squarefree_part(f)
    return [_refined(g, lo, hi, rel) for lo, hi in isolate_real_roots(g)]


def largest_real_root(f, rel=Fraction(1, 10**12)):
    """(lo, hi, exact_or_None) for the largest real root, or None if none.

    Only the largest isolating interval is refined.
    """
    g = rp.squarefree_part(f)
    intervals = isolate_real_roots(g)
    return _refined(g, *intervals[-1], rel) if intervals else None


# -- unit-circle root counting for palindromic rational polynomials --------

def halved_variable_image(q, m=None):
    """G(y) with q(x) = x^m G(x + 1/x), for q palindromic of degree 2m.

    Reads q[0..m] only and returns m + 1 coefficients in q's ring; G's
    leading coefficient is q[0].  Without ``m``, q is stripped and m is half
    its degree; pass ``m`` when q is zero-padded to the degree of a family,
    so that G keeps that degree.  Roots of G in the open interval (-2, 2)
    correspond to conjugate circle-root pairs of q.
    """
    if m is None:
        q = rp.strip(q)
        m = rp.degree(q) // 2
    basis = [[2], [0, 1]]  # x^k + x^-k as a polynomial in y, k = 0, 1, ...
    for _ in range(2, m + 1):
        basis.append(rp.sub(rp.mul([0, 1], basis[-1]), basis[-2]))
    g = [q[m]]
    for k in range(m):
        g = rp.add(g, rp.scale(basis[m - k], q[k]))
    return g + [0 * q[m]] * (m + 1 - len(g))


def count_circle_roots_distinct(q) -> int:
    """Number of distinct roots of a rational polynomial q on the unit circle.

    q must be palindromic up to factors of x (roots at the origin are
    discarded; they are never on the circle).
    """
    q = rp.strip(q)
    low = 0
    while low < len(q) and q[low] == 0:
        low += 1
    q = q[low:]
    if rp.degree(q) <= 0:
        return 0
    sf = rp.squarefree_part(q)
    cnt = 0
    if rp.evaluate(sf, 1) == 0:
        sf = rp.div_exact(sf, [Fraction(-1), Fraction(1)])
        cnt += 1
    if rp.evaluate(sf, -1) == 0:
        sf = rp.div_exact(sf, [Fraction(1), Fraction(1)])
        cnt += 1
    d = rp.degree(sf)
    if d <= 0:
        return cnt
    if d % 2 != 0 or any(sf[k] != sf[d - k] for k in range(d + 1)):
        raise ValueError("circle-root counting needs a palindromic polynomial")
    g = halved_variable_image(sf)
    cnt += 2 * count_real_roots(g, Fraction(-2), Fraction(2))
    return cnt


def all_roots_on_circle(q) -> bool:
    """True iff every root of the rational palindromic q lies on |z| = 1."""
    q = rp.strip(q)
    if rp.degree(q) <= 0:
        return rp.degree(q) == 0
    if q[0] == 0:
        return False  # root at the origin
    sf = rp.squarefree_part(q)
    return count_circle_roots_distinct(sf) == rp.degree(sf)
