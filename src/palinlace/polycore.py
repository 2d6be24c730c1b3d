"""Polynomial foundation: representation, palindromic structure, evaluation.

Coefficients run on a dual numeric track: exact ``fractions.Fraction``
wherever the input permits, ``mpmath.mpf`` at an explicit working precision
otherwise.  Mixed arithmetic promotes rational operands to floats.

A polynomial ``p = a_r x^r + ... + a_s x^s`` (a_r, a_s nonzero) carries its
*darga* ``r + s`` rather than just its degree; a *full* polynomial has a
nonzero constant term (darga = degree), a *trim* one does not.  The zero
polynomial is representable with an explicit darga assigned by context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

import mpmath

from .arith import divisors, euler_phi, mobius
from .errors import (
    DargaMismatch,
    EmptyPolynomial,
    NotSelfInversive,
    NotTrim,
)
from .precision import (at_working_precision, default_precision,
                        eval_epsilon, working_precision)
from . import ratpoly as rp

Scalar = Union[Fraction, int, mpmath.mpf]

EQ_TOLERANCE_BITS = 40  # relative 2^-40 for float-track structural predicates


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def as_mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def scalar_add(a, b):
    if is_exact_scalar(a) and is_exact_scalar(b):
        return Fraction(a) + Fraction(b)
    return as_mpf(a) + as_mpf(b)


def scalar_mul(a, b):
    if is_exact_scalar(a) and is_exact_scalar(b):
        return Fraction(a) * Fraction(b)
    return as_mpf(a) * as_mpf(b)


def _norm_scalar(x):
    """Canonicalise a coefficient: ints stay int-backed Fractions."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return mpmath.mpf(x)
    if isinstance(x, mpmath.mpf):
        return x
    raise TypeError(f"unsupported scalar type {type(x)!r}")


class Polynomial:
    """Immutable dense polynomial with complex coefficients and a darga."""

    __slots__ = ("re", "im", "darga")

    def __init__(self, re: Sequence[Scalar], im: Sequence[Scalar] | None = None,
                 *, zero_darga: int = 0):
        re = [_norm_scalar(c) for c in re]
        im = [_norm_scalar(c) for c in im] if im is not None else None
        top = len(re)
        if im is not None:
            top = max(top, len(im))
            re = re + [Fraction(0)] * (top - len(re))
            im = im + [Fraction(0)] * (top - len(im))
        while top > 0 and re[top - 1] == 0 and (im is None or im[top - 1] == 0):
            top -= 1
        re = re[:top]
        im = im[:top] if im is not None else None
        if im is not None and all(c == 0 for c in im):
            im = None
        object.__setattr__(self, "re", tuple(re))
        object.__setattr__(self, "im", tuple(im) if im is not None else None)
        if top == 0:
            object.__setattr__(self, "darga", zero_darga)
        else:
            low = 0
            while re[low] == 0 and (im is None or im[low] == 0):
                low += 1
            object.__setattr__(self, "darga", low + top - 1)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Polynomial is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    @property
    def lowest(self) -> int:
        if self.is_zero:
            return -1
        low = 0
        while self.re[low] == 0 and (self.im is None or self.im[low] == 0):
            low += 1
        return low

    @property
    def is_full(self) -> bool:
        return not self.is_zero and self.lowest == 0

    @property
    def is_trim(self) -> bool:
        return self.is_zero or self.lowest >= 1

    @property
    def is_real(self) -> bool:
        return self.im is None

    @property
    def is_exact(self) -> bool:
        if not all(is_exact_scalar(c) for c in self.re):
            return False
        return self.im is None or all(is_exact_scalar(c) for c in self.im)

    def coeff(self, j: int):
        """Coefficient of x^j as (re, im)."""
        if 0 <= j < len(self.re):
            return self.re[j], (self.im[j] if self.im is not None else Fraction(0))
        return Fraction(0), Fraction(0)

    def real_coeffs(self) -> list:
        """Dense real coefficients from x^0; requires a real polynomial."""
        if self.im is not None:
            raise NotSelfInversive("polynomial has nonreal coefficients")
        return list(self.re)

    def mpc_coeffs(self, length: int | None = None) -> list:
        """Dense mpc coefficients from x^0 at the ambient precision, zero-padded."""
        top = len(self.re) if length is None else length
        return [mpmath.mpc(as_mpf(a), as_mpf(b)) for a, b in map(self.coeff, range(top))]

    @at_working_precision
    def norm1(self):
        total = Fraction(0) if self.is_exact else mpmath.mpf(0)
        for j in range(len(self.re)):
            a, b = self.coeff(j)
            if is_exact_scalar(a) and is_exact_scalar(b) and isinstance(total, Fraction):
                total += abs(Fraction(a)) + abs(Fraction(b))
            else:
                total = as_mpf(total) + abs(as_mpf(a)) + abs(as_mpf(b))
        return total

    def _eq_eps(self):
        """Absolute tolerance for structural predicates on the float track."""
        m = mpmath.mpf(0)
        for j in range(len(self.re)):
            a, b = self.coeff(j)
            m = max(m, abs(as_mpf(a)), abs(as_mpf(b)))
        return m * mpmath.mpf(2) ** (-EQ_TOLERANCE_BITS)

    # -- predicates ----------------------------------------------------------

    def is_self_inversive(self) -> bool:
        """p_j = conj(p_{n-j}) for all j (exact, or within tolerance on floats)."""
        if self.is_zero:
            return True
        n = self.darga
        if self.is_exact:
            for j in range(n + 1):
                a, b = self.coeff(j)
                c, d = self.coeff(n - j)
                if a != c or b != -d:
                    return False
            return True
        eps = self._eq_eps()
        with working_precision():
            for j in range(n + 1):
                a, b = self.coeff(j)
                c, d = self.coeff(n - j)
                if abs(as_mpf(a) - as_mpf(c)) > eps or abs(as_mpf(b) + as_mpf(d)) > eps:
                    return False
        return True

    def is_palindromic(self) -> bool:
        """Real coefficients with p_j = p_{n-j}."""
        if self.is_zero:
            return True
        if self.im is not None:
            if self.is_exact:
                return False
            eps = self._eq_eps()
            if any(abs(as_mpf(b)) > eps for b in self.im):
                return False
        return self.is_self_inversive()

    # -- arithmetic ----------------------------------------------------------

    def _parts(self, top: int):
        re = list(self.re) + [Fraction(0)] * (top - len(self.re))
        im = (list(self.im) if self.im is not None else [Fraction(0)] * len(self.re))
        im = im + [Fraction(0)] * (top - len(im))
        return re, im

    @at_working_precision
    def __add__(self, other: "Polynomial") -> "Polynomial":
        top = max(len(self.re), len(other.re))
        a_re, a_im = self._parts(top)
        b_re, b_im = other._parts(top)
        re = [scalar_add(a_re[i], b_re[i]) for i in range(top)]
        im = [scalar_add(a_im[i], b_im[i]) for i in range(top)]
        return Polynomial(re, im, zero_darga=max(self.darga, other.darga))

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.re],
                          [-c for c in self.im] if self.im is not None else None,
                          zero_darga=self.darga)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    @at_working_precision
    def scale(self, c) -> "Polynomial":
        c = _norm_scalar(c)
        re = [scalar_mul(a, c) for a in self.re]
        im = [scalar_mul(a, c) for a in self.im] if self.im is not None else None
        return Polynomial(re, im, zero_darga=self.darga)

    @at_working_precision
    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([], zero_darga=self.darga + other.darga)
        top = len(self.re) + len(other.re) - 1
        a_re, a_im = self._parts(len(self.re))
        b_re, b_im = other._parts(len(other.re))
        re = [Fraction(0)] * top
        im = [Fraction(0)] * top
        for i in range(len(self.re)):
            for j in range(len(other.re)):
                re[i + j] = scalar_add(re[i + j], scalar_mul(a_re[i], b_re[j]))
                re[i + j] = scalar_add(re[i + j], -scalar_mul(a_im[i], b_im[j]))
                im[i + j] = scalar_add(im[i + j], scalar_mul(a_re[i], b_im[j]))
                im[i + j] = scalar_add(im[i + j], scalar_mul(a_im[i], b_re[j]))
        return Polynomial(re, im)

    def derivative(self) -> "Polynomial":
        re = [scalar_mul(self.re[i], i) for i in range(1, len(self.re))]
        im = ([scalar_mul(self.im[i], i) for i in range(1, len(self.im))]
              if self.im is not None else None)
        return Polynomial(re, im, zero_darga=max(self.darga - 2, 0))

    def stretch(self, r: int) -> "Polynomial":
        """Substitute x -> x^r."""
        if self.is_zero:
            return Polynomial([], zero_darga=self.darga * r)
        re = [Fraction(0)] * (r * (len(self.re) - 1) + 1)
        im = list(re) if self.im is not None else None
        for i, c in enumerate(self.re):
            re[r * i] = c
        if self.im is not None:
            for i, c in enumerate(self.im):
                im[r * i] = c
        return Polynomial(re, im)

    def sign_flip(self) -> "Polynomial":
        """Substitute x -> -x."""
        re = [c if i % 2 == 0 else -c for i, c in enumerate(self.re)]
        im = ([c if i % 2 == 0 else -c for i, c in enumerate(self.im)]
              if self.im is not None else None)
        return Polynomial(re, im, zero_darga=self.darga)

    def evaluate(self, x):
        """Exact evaluation at a rational point (real polynomial only)."""
        return rp.evaluate([Fraction(c) for c in self.real_coeffs()], Fraction(x))

    def evaluate_complex(self, z, bits: int | None = None):
        """Float evaluation at an arbitrary complex point."""
        with working_precision(bits):
            return rp.evaluate(self.mpc_coeffs(), mpmath.mpc(z))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.re) != len(other.re):
            return False
        for j in range(len(self.re)):
            a, b = self.coeff(j)
            c, d = other.coeff(j)
            if a != c or b != d:
                return False
        return True

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.is_zero:
            return f"Polynomial(0, darga={self.darga})"
        terms = []
        for j in range(len(self.re)):
            a, b = self.coeff(j)
            if a == 0 and b == 0:
                continue
            coef = f"{a}" if b == 0 else f"({a}{'+' if b >= 0 else ''}{b}i)"
            terms.append(f"{coef}*x^{j}" if j else coef)
        return "Polynomial(" + " + ".join(terms) + f", darga={self.darga})"


# -- construction -----------------------------------------------------------

def make_polynomial(coeffs, offset: int = 0, *, allow_zero: bool = False,
                    zero_darga: int = 0) -> Polynomial:
    """Build a polynomial from a dense scalar sequence starting at x^offset.

    Raises EmptyPolynomial on an all-zero sequence unless ``allow_zero``.
    Coefficients may be scalars or (re, im) pairs.
    """
    re, im = [], []
    for c in coeffs:
        if isinstance(c, tuple):
            a, b = c
        elif isinstance(c, complex):
            a, b = c.real, c.imag
        else:
            a, b = c, 0
        re.append(a)
        im.append(b)
    re = [Fraction(0)] * offset + re
    im = [Fraction(0)] * offset + im
    p = Polynomial(re, im, zero_darga=zero_darga)
    if p.is_zero and not allow_zero:
        raise EmptyPolynomial("all coefficients are zero")
    return p


def zero_polynomial(darga: int) -> Polynomial:
    return Polynomial([], zero_darga=darga)


# -- sigma representation ----------------------------------------------------

@dataclass(frozen=True)
class SigmaRep:
    """Coordinates in the basis x^j + x^(n-j) (and i(x^j - x^(n-j)))."""

    darga: int
    sigma: tuple
    sigma_hat: tuple

    @property
    def is_palindromic(self) -> bool:
        return all(c == 0 for c in self.sigma_hat)


@at_working_precision
def sigma_of(p: Polynomial) -> SigmaRep:
    """Sigma-representation of a self-inversive polynomial.

    sigma runs j = 0..floor(n/2) with the middle coefficient halved for
    even n; sigma_hat runs j = 0..floor((n-1)/2) and is all-zero for
    palindromic input.
    """
    if not p.is_self_inversive():
        raise NotSelfInversive("sigma representation needs a self-inversive polynomial")
    n = p.darga
    half = n // 2
    sigma, sigma_hat = [], []
    for j in range(half + 1):
        a, b = p.coeff(j)
        c, d = p.coeff(n - j)
        if 2 * j == n:
            sigma.append(scalar_mul(a, Fraction(1, 2)))
        else:
            sigma.append(scalar_mul(scalar_add(a, c), Fraction(1, 2)))
    for j in range((n - 1) // 2 + 1):
        a, b = p.coeff(j)
        c, d = p.coeff(n - j)
        sigma_hat.append(scalar_mul(scalar_add(b, -d), Fraction(1, 2)))
    return SigmaRep(n, tuple(sigma), tuple(sigma_hat))


@at_working_precision
def poly_of(s: SigmaRep) -> Polynomial:
    """Inverse of sigma_of; exact on the rational track."""
    n = s.darga
    re = [Fraction(0)] * (n + 1)
    im = [Fraction(0)] * (n + 1)
    for j, c in enumerate(s.sigma):
        re[j] = scalar_add(re[j], c)
        re[n - j] = scalar_add(re[n - j], c)
    for j, c in enumerate(s.sigma_hat):
        im[j] = scalar_add(im[j], c)
        im[n - j] = scalar_add(im[n - j], -c)
    return Polynomial(re, im, zero_darga=n)


# -- trimming and the alpha family -------------------------------------------

@at_working_precision
def trim_part(p: Polynomial) -> Polynomial:
    """p minus its constant and darga-degree terms: p - conj(p(0)) x^n - p(0)."""
    if not p.is_self_inversive():
        raise NotSelfInversive("trimmed part needs a self-inversive polynomial")
    if p.is_zero:
        return p
    n = p.darga
    a0, b0 = p.coeff(0)
    re = list(p.re) + [Fraction(0)] * (n + 1 - len(p.re))
    im = list(p.im) if p.im is not None else [Fraction(0)] * len(re)
    im = im + [Fraction(0)] * (n + 1 - len(im))
    re[0], im[0] = scalar_add(re[0], -a0), scalar_add(im[0], -b0)
    re[n], im[n] = scalar_add(re[n], -a0), scalar_add(im[n], b0)
    return Polynomial(re, im, zero_darga=n)


@dataclass(frozen=True)
class AlphaPolynomial:
    """Polynomial in x whose coefficients are degree <= 1 polynomials in alpha.

    The alpha-slope is always real; a nonreal baseline (self-inversive trim
    input) is carried in const_im.
    """

    darga: int
    const: tuple   # real coefficient baseline, dense from x^0
    slope: tuple   # alpha-coefficients, dense from x^0
    const_im: tuple | None = None

    def instantiate(self, alpha) -> Polynomial:
        alpha = _norm_scalar(alpha)
        top = max(len(self.const), len(self.slope))
        re = []
        for j in range(top):
            c = self.const[j] if j < len(self.const) else Fraction(0)
            s = self.slope[j] if j < len(self.slope) else Fraction(0)
            re.append(scalar_add(c, scalar_mul(s, alpha)))
        im = None
        if self.const_im is not None:
            im = list(self.const_im) + [Fraction(0)] * (top - len(self.const_im))
        return Polynomial(re, im, zero_darga=self.darga)


def p_alpha(p: Polynomial) -> AlphaPolynomial:
    """The parametric family alpha*(x^n + 1) + p for trim p."""
    if not p.is_trim:
        raise NotTrim("the alpha family is defined for trim polynomials")
    n = p.darga
    const = list(p.re) + [Fraction(0)] * (n + 1 - len(p.re))
    slope = [Fraction(0)] * (n + 1)
    slope[0] = Fraction(1)
    slope[n] = Fraction(1)
    const_im = None
    if p.im is not None:
        const_im = tuple(list(p.im) + [Fraction(0)] * (n + 1 - len(p.im)))
    return AlphaPolynomial(n, tuple(const), tuple(slope), const_im)


def instantiate(ap: AlphaPolynomial, alpha) -> Polynomial:
    return ap.instantiate(alpha)


# -- evaluation at roots of unity --------------------------------------------

def unity_root(n: int, j: int):
    """theta_n^j = exp(2 pi i j / n) at the ambient working precision."""
    return mpmath.expjpi(mpmath.mpf(2 * (j % n)) / n)


def unity_values_raw(p: Polynomial, indices, bits: int | None = None):
    """Complex values p(theta_n^j) for j in indices, one precision block."""
    with working_precision(bits):
        coeffs = p.mpc_coeffs()
        return [rp.evaluate(coeffs, unity_root(p.darga, j)) for j in indices]


def cyclotomic(d: int) -> list:
    """Phi_d as ascending ints: for d > 1, the product over e | d of
    (1 - x^e)^mu(d/e) as a power series mod x^(phi(d) + 1)."""
    f = [1] + [0] * euler_phi(d)
    for e in divisors(d):
        mu = mobius(d // e)
        if mu:  # times 1 - x^e: shift and subtract; over it: a running sum
            span = range(e, len(f))
            for i in (reversed(span) if mu == 1 else span):
                f[i] -= mu * f[i - e]
    return f if d > 1 else [-1, 1]


def unity_residue(p: Polynomial, j: int):
    """(r, Phi_d) with r = -p/2 mod Phi_d, d = n / gcd(j, n), for exact real p:
    r(xi) = -p(xi)/2 at each primitive d-th root of unity xi, theta_n^j among
    them, so the value at theta_n^j is rational iff r is constant."""
    phi = cyclotomic(p.darga // gcd(j, p.darga))
    return rp.divmod_exact([-c / 2 for c in p.re], phi)[1], phi


def eval_unity(p: Polynomial, n: int, j: int, bits: int | None = None):
    """The (provably real) value p(theta_n^j) for self-inversive p of darga n."""
    if p.darga != n:
        raise DargaMismatch(f"polynomial has darga {p.darga}, not {n}")
    if not p.is_self_inversive():
        raise NotSelfInversive("evaluation at roots of unity is real only "
                               "for self-inversive input")
    if not 0 <= j < n:
        raise DargaMismatch(f"index {j} outside 0..{n - 1}")
    val = unity_values_raw(p, [j], bits)[0]
    with working_precision(bits):
        eps = eval_epsilon(p.norm1(), bits or default_precision())
        if abs(val.imag) >= eps:
            raise NotSelfInversive(
                f"imaginary residue {val.imag} exceeds tolerance {eps}")
        return val.real


# -- ring helpers -------------------------------------------------------------

def poly_from_fractions(coeffs, zero_darga: int = 0) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs], zero_darga=zero_darga)


def to_fraction_coeffs(p: Polynomial) -> list:
    """Dense Fraction coefficients of an exact real polynomial."""
    if not p.is_exact:
        raise ValueError("exact track required")
    return [Fraction(c) for c in p.real_coeffs()]


def exact_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd on the exact rational track (real polynomials)."""
    a = to_fraction_coeffs(p)
    b = to_fraction_coeffs(q)
    return poly_from_fractions(rp.gcd(a, b))


def x_pow_n_plus_1(n: int) -> Polynomial:
    re = [Fraction(0)] * (n + 1)
    re[0] = Fraction(1)
    re[n] = Fraction(1)
    return Polynomial(re)


# -- shared text format -------------------------------------------------------

def parse_scalar_token(tok: str):
    """Integer, rational 'a/b', or decimal literal (decimal -> float track)."""
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    if any(c in tok for c in ".eE") and not tok.lstrip("+-").isdigit():
        return mpmath.mpf(tok)
    return Fraction(int(tok))


def parse_coeff_text(text: str) -> Polynomial:
    """Trim polynomial from comma-separated coefficients of x^1..x^(n-1)."""
    toks = [t for t in text.split(",") if t.strip() != ""]
    if not toks:
        raise EmptyPolynomial("no coefficients given")
    return make_polynomial([parse_scalar_token(t) for t in toks], offset=1)


def parse_sigma_text(text: str, darga: int) -> Polynomial:
    """Trim polynomial from sigma-coefficients sigma_1..sigma_floor(n/2)."""
    toks = [t for t in text.split(",") if t.strip() != ""]
    vals = [parse_scalar_token(t) for t in toks]
    half = darga // 2
    if len(vals) != half:
        raise DargaMismatch(
            f"darga {darga} needs {half} sigma coefficients, got {len(vals)}")
    sigma = (Fraction(0),) + tuple(vals)
    hat = tuple([Fraction(0)] * ((darga - 1) // 2 + 1))
    p = poly_of(SigmaRep(darga, sigma, hat))
    if p.is_zero:
        raise EmptyPolynomial("all sigma coefficients are zero")
    return p


def format_scalar(x) -> str:
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return mpmath.nstr(x, 30, strip_zeros=True)


def format_coeff_text(p: Polynomial) -> str:
    """Inverse of parse_coeff_text for trim real polynomials."""
    if not p.is_trim:
        raise NotTrim("text format covers trim polynomials")
    coeffs = p.real_coeffs() + [Fraction(0)] * (p.darga - p.degree - 1)
    return ",".join(format_scalar(c) for c in coeffs[1:])
