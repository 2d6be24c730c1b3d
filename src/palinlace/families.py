"""Generators for the named polynomial families and their number theory.

Every generator returns a trim palindromic polynomial unless noted; exact
rational coefficients wherever the family permits, high-precision floats
for the intrinsically irrational ones (roots-of-unity products, Fekete is
exact, the squared-factor witnesses are not).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import mpmath

from .arith import (
    binomial as binom,
    euler_phi,
    is_prime,
    jordan_totient,
    legendre_symbol,
    mobius,
    ramanujan_sum,
    ramanujan_sum_bruteforce,
)
from .circle import self_interlace_upper
from .errors import InvalidParameter, TooLarge
from .polycore import (Polynomial, SigmaRep, make_polynomial, poly_of, scalar_add,
                       scalar_mul, trim_part)
from .precision import (at_working_precision, default_precision,
                        working_precision)

__all__ = [
    "geometric", "sigma_basis", "gcd_poly", "coprime_support", "fekete",
    "binomial_poly", "hadamard_binomial", "be_witness", "exact_family",
    "two_interval", "cut_polynomial", "ly_threshold", "random_trim_palindromic",
    "FamilySpec",
    "mobius", "euler_phi", "jordan_totient", "ramanujan_sum",
    "ramanujan_sum_bruteforce", "legendre_symbol",
]


def geometric(n: int) -> Polynomial:
    """x + x^2 + ... + x^(n-1)."""
    if n < 2:
        raise InvalidParameter("geometric polynomial needs n >= 2")
    return make_polynomial([1] * (n - 1), offset=1)


def sigma_basis(n: int, k: int) -> Polynomial:
    """x^k + x^(n-k)  (2 x^(n/2) in the middle case)."""
    if not 1 <= k <= n // 2:
        raise InvalidParameter(f"basis index {k} outside 1..{n // 2}")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[k] += 1
    coeffs[n - k] += 1
    return Polynomial(coeffs)


def gcd_poly(n: int, k_exp: int = 1) -> Polynomial:
    """Trimmed gcd-power polynomial: coefficients gcd(n, j)^k for j = 1..n-1."""
    if n < 2 or k_exp < 0:
        raise InvalidParameter("gcd polynomial needs n >= 2, k >= 0")
    return make_polynomial([gcd(n, j) ** k_exp for j in range(1, n)], offset=1)


def coprime_support(n: int) -> Polynomial:
    """Indicator polynomial of residues coprime to n."""
    if n < 2:
        raise InvalidParameter("coprime-support polynomial needs n >= 2")
    return make_polynomial([1 if gcd(n, j) == 1 else 0 for j in range(1, n)],
                           offset=1)


def fekete(n: int) -> Polynomial:
    """Legendre-symbol coefficients; trim palindromic for prime n = 1 mod 4."""
    if not is_prime(n) or n % 4 != 1:
        raise InvalidParameter("Fekete regime needs a prime n = 1 (mod 4)")
    return make_polynomial([legendre_symbol(j, n) for j in range(1, n)], offset=1)


def binomial_poly(n: int) -> Polynomial:
    """(1+x)^n - (1 + x^n)."""
    if n < 2:
        raise InvalidParameter("binomial polynomial needs n >= 2")
    return make_polynomial([binom(n, j) for j in range(1, n)], offset=1)


def hadamard_binomial(n: int) -> Polynomial:
    """Entrywise-reciprocal binomial: sum of C(n,k)^-1 x^k."""
    if n < 2:
        raise InvalidParameter("Hadamard-inverse binomial needs n >= 2")
    return make_polynomial([Fraction(1, binom(n, j)) for j in range(1, n)],
                           offset=1)


def be_witness(n: int, *, certify: bool = False) -> Polynomial:
    """Squared root-of-unity product whose bounding error grows with n.

    For n = 4m, the quadratics x^2 - 2 cos(k pi / n) x + 1 over k = 1 mod 4
    multiply into Q; the witness is trim(Q^2).  Its interlace number grows
    like sqrt(n) squared while its circle number stays below (and tends to)
    one, so the bounding error grows without bound along the family.

    ``certify`` attempts to certify cn = 1 through the self-interlacing
    bound.  That certificate cannot actually fire: every root of Q divides
    x^n + 1, so the double roots of Q^2 drop out of the reduced alpha
    family, and two roots of x^n + 1 adjacent to the real axis are left
    unseparated (the true circle number is slightly below one).  The
    attempt is kept for callers who want the check to fail loudly.
    """
    if n % 4 != 0 or n < 4:
        raise InvalidParameter("witness family needs n divisible by 4")
    m = n // 4
    bits = 2 * default_precision()
    with working_precision(bits):
        q = Polynomial([mpmath.mpf(1)])
        for j in range(m):
            k = 4 * j + 1
            f = Polynomial([mpmath.mpf(1), -2 * mpmath.cospi(mpmath.mpf(k) / n),
                            mpmath.mpf(1)])
            q = q * f
        q2 = q * q
    p = trim_part(q2)
    if certify:
        bound, attained = self_interlace_upper(q2)  # raises NotApplicable
        if not attained or abs(bound - 1) > mpmath.mpf("1e-20"):
            raise InvalidParameter("witness construction failed its certificate")
    return p


def exact_family(n: int, a, *, certify: bool = True) -> Polynomial:
    """Exact darga-2n polynomials with only nonreal certs (odd n >= 5)."""
    if n < 5 or n % 2 == 0:
        raise InvalidParameter("exact family needs odd n >= 5")
    upper = Fraction(9, n * n)
    a_cmp = Fraction(a) if isinstance(a, (int, Fraction)) else a
    if not a_cmp > 0:
        raise InvalidParameter("parameter a must be positive")
    if not a_cmp < (upper if isinstance(a_cmp, Fraction)
                    else mpmath.mpf(9) / (n * n)):
        raise InvalidParameter(f"parameter a must be below 9/n^2 = {upper}")
    geom = make_polynomial([1] * n)           # 1 + x + ... + x^(n-1)
    head = make_polynomial([1, -2, 1])        # (1 - x)^2
    head = head + make_polynomial([a], offset=1, allow_zero=True, zero_darga=2)
    f = head * geom * geom
    p = trim_part(f)
    if certify:
        from .circle import is_exact
        from .interlace import interlace_number
        res = interlace_number(p)
        if any(j % 2 == 1 for j in res.certs):
            raise InvalidParameter("exact family produced odd-index certs")
        verdict = is_exact(p)
        if not verdict.exact:
            raise InvalidParameter("exact family failed its exactness certificate")
    return p


def two_interval(params) -> Polynomial:
    """trim of a product of k >= 3 negative-real-part circle quadratics.

    params: sequence of (a, b) with 0 < b < a; each factor is
    a x^2 + 2 b x + a.  The alpha-sweep of the result is circle rooted both
    at alpha = q(0) and beyond cn, with a gap in between.
    """
    params = list(params)
    if len(params) < 3:
        raise InvalidParameter("the two-interval fixture needs at least 3 factors")
    q = Polynomial([Fraction(1)])
    for a, b in params:
        if not 0 < Fraction(b) < Fraction(a):
            raise InvalidParameter("each factor needs 0 < b < a")
        q = q * Polynomial([a, scalar_mul(2, b), a])
    return trim_part(q)


@at_working_precision
def cut_polynomial(matrix) -> Polynomial:
    """Subset-product generating polynomial of a Hermitian matrix.

    Coefficient of x^|S| sums, over subsets S, the product of entries a_ij
    with i in S, j outside.  Exhaustive in 2^n; capped at n = 20.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if n > 20:
        raise TooLarge("cut polynomial enumeration is capped at n = 20")
    for i in range(n):
        if len(a[i]) != n:
            raise InvalidParameter("matrix must be square")

    def conj(x):
        if isinstance(x, tuple):
            return (x[0], -x[1])
        if isinstance(x, complex):
            return x.conjugate()
        return x

    def as_pair(x):
        if isinstance(x, tuple):
            return x
        if isinstance(x, complex):
            return (x.real, x.imag)
        return (x, 0)

    for i in range(n):
        for j in range(n):
            if as_pair(a[i][j]) != as_pair(conj(a[j][i])):
                raise InvalidParameter("matrix must be Hermitian")

    re = [Fraction(0)] * (n + 1)
    im = [Fraction(0)] * (n + 1)
    for mask in range(1 << n):
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [j for j in range(n) if not mask >> j & 1]
        prod_re, prod_im = Fraction(1), Fraction(0)
        for i in inside:
            if prod_re == 0 and prod_im == 0:
                break
            for j in outside:
                xr, xi = as_pair(a[i][j])
                prod_re, prod_im = (
                    scalar_add(scalar_mul(prod_re, xr), -scalar_mul(prod_im, xi)),
                    scalar_add(scalar_mul(prod_re, xi), scalar_mul(prod_im, xr)),
                )
        k = len(inside)
        re[k] = scalar_add(re[k], prod_re)
        im[k] = scalar_add(im[k], prod_im)
    return Polynomial(re, im)


def ly_threshold(n: int):
    """The unique positive root of LY(x) = 1, LY(x) = sum C(n,k) x^(k(n-k))."""
    if n < 3:
        raise InvalidParameter("threshold needs n >= 3")
    bits = 2 * default_precision()
    with working_precision(bits):
        def ly(x):
            return sum(binom(n, k) * x ** (k * (n - k))
                       for k in range(1, n // 2 + 1))

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(bits):
            mid = (lo + hi) / 2
            if ly(mid) < 1:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def random_trim_palindromic(rng: random.Random, darga: int) -> Polynomial:
    """Random nonzero trim palindromic polynomial of the given darga.

    Each sigma coefficient is a/b with a in -20..20 and b drawn from
    1, 1, 1, 2, 3; ``palinlace scan`` rows and the tests draw from it.
    """
    half = darga // 2
    while True:
        sigma = [Fraction(0)] + [Fraction(rng.randint(-20, 20),
                                          rng.choice([1, 1, 1, 2, 3]))
                                 for _ in range(half)]
        if any(sigma):
            break
    hat = tuple([Fraction(0)] * ((darga - 1) // 2 + 1))
    return poly_of(SigmaRep(darga, tuple(sigma), hat))


@dataclass(frozen=True)
class FamilySpec:
    """Dispatch record for the CLI: family name plus validated parameters."""

    name: str
    parameters: dict = field(default_factory=dict)

    def build(self) -> Polynomial:
        p = self.parameters
        if self.name == "geometric":
            return geometric(int(p["n"]))
        if self.name == "sigma-basis":
            return sigma_basis(int(p["n"]), int(p["k"]))
        if self.name == "gcd":
            return gcd_poly(int(p["n"]), int(p.get("k", 1)))
        if self.name == "coprime":
            return coprime_support(int(p["n"]))
        if self.name == "fekete":
            return fekete(int(p["n"]))
        if self.name == "binomial":
            return binomial_poly(int(p["n"]))
        if self.name == "hadamard-binomial":
            return hadamard_binomial(int(p["n"]))
        if self.name == "be-witness":
            return be_witness(int(p["n"]))
        if self.name == "exact":
            return exact_family(int(p["n"]), p.get("a", Fraction(1, 4)))
        if self.name == "two-interval":
            return two_interval(p["params"])
        raise InvalidParameter(f"unknown family {self.name!r}")
