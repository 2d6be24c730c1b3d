"""Interlace number, certs, the angle-interlacing test, and bound ladder.

The interlace number of a trim self-inversive p of darga n is
half the largest value of -p over the n-th roots of unity; indices
attaining the maximum are the interlace certs.  For palindromic p the
upper half (j = 0..floor(n/2)) suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import arith
from .errors import EmptyPolynomial, NotApplicable, NotFull, NotTrim, NotSelfInversive
from .polycore import (
    Polynomial,
    as_mpf,
    eval_epsilon,
    make_polynomial,
    sigma_of,
    to_fraction_coeffs,
    unity_residue,
    unity_values_raw,
)
from .precision import (at_working_precision, default_precision,
                        escalate, working_precision)

CERT_REL_TOL = mpmath.mpf("1e-9")


@dataclass(frozen=True)
class InterlaceResult:
    value: object            # mpf, the certified maximum
    certs: frozenset         # indices j naming theta_n^j
    certified: bool          # cert set stable under precision escalation
    rational: object = None  # Fraction when the maximum is rational, decided
                             # exactly (exact palindromic input only), else None


@dataclass(frozen=True)
class BoundLadder:
    ll: object
    kwon: object | None
    kwon_simple: object | None
    increasing_upper: object | None
    ramanujan_lower: object | None
    monotonic_lower: object | None


def _require_trim_si(p: Polynomial):
    if p.is_zero:
        raise EmptyPolynomial("interlace number of the zero polynomial")
    if not p.is_trim:
        raise NotTrim("interlace number is defined for trim polynomials")
    if not p.is_self_inversive():
        raise NotSelfInversive("interlace number needs self-inversive input")


def interlace_number(p: Polynomial) -> InterlaceResult:
    """Certified value and cert set; ties resolved by precision escalation.

    Ties are judged relative to the 1-norm, so they do not change under
    scaling.  On exact palindromic input the maximum, at index ``top``, is
    rational iff its residue modulo Phi_d is a constant.
    """
    _require_trim_si(p)
    palindromic = p.is_palindromic()
    indices = list(range(p.darga // 2 + 1 if palindromic else p.darga))
    norm = p.norm1()

    def compute(bits):
        vals = unity_values_raw(p, indices, bits)
        with working_precision(bits):
            halves = [-v.real / 2 for v in vals]
            vmax = max(halves)
            eps = CERT_REL_TOL * as_mpf(norm)
            certs = frozenset(j for j, v in zip(indices, halves) if v >= vmax - eps)
            return vmax, certs, indices[halves.index(vmax)]

    (value, certs, top), certified = escalate(compute, key=lambda r: r[1])
    rational = None
    if palindromic and p.is_exact:
        r, _ = unity_residue(p, top)
        if len(r) <= 1:
            rational = r[0] if r else Fraction(0)
    return InterlaceResult(value, certs, certified, rational)


def angle_interlaces(p: Polynomial) -> bool:
    """True iff all values of a full self-inversive p on U_n share one strict sign."""
    if p.is_zero or not p.is_full:
        raise NotFull("angle-interlacing test expects a full polynomial")
    if not p.is_self_inversive():
        raise NotSelfInversive("angle-interlacing test needs self-inversive input")
    n = p.darga
    indices = list(range(n // 2 + 1)) if p.is_palindromic() else list(range(n))

    def compute(bits):
        vals = unity_values_raw(p, indices, bits)
        with working_precision(bits):
            eps = eval_epsilon(p.norm1(), bits)
            reals = [v.real for v in vals]
            if any(abs(v) <= eps for v in reals):
                return False
            return all(v > 0 for v in reals) or all(v < 0 for v in reals)

    result, _ = escalate(compute)
    return result


def _coeff_row(p: Polynomial) -> list:
    """Coefficients p_1 .. p_(n-1), dense, exact Fractions or mpf."""
    n = p.darga
    if p.is_exact:
        c = to_fraction_coeffs(p) + [Fraction(0)] * (n + 1 - len(p.re))
        return c[1:n]
    row = []
    for j in range(1, n):
        a, _ = p.coeff(j)
        row.append(as_mpf(a))
    return row


def _require_trim_pal(p: Polynomial):
    if p.is_zero:
        raise EmptyPolynomial("bounds of the zero polynomial")
    if not p.is_trim or not p.is_palindromic():
        raise NotTrim("bound ladder is defined for trim palindromic polynomials")


@at_working_precision
def ll_bound(p: Polynomial):
    """Upper bound: half the 1-norm of the inner coefficients."""
    _require_trim_pal(p)
    row = _coeff_row(p)
    return sum(abs(c) for c in row) / 2


def _median(row):
    n = len(row) + 1  # darga
    return sorted(row)[n // 2 - 1]


@at_working_precision
def kwon_bound(p: Polynomial):
    """Median-recentred upper bound; requires p(1) >= 0, else None."""
    _require_trim_pal(p)
    row = _coeff_row(p)
    if sum(row) < 0:  # p(1) = 2 * sum of inner coefficients / ... sign test only
        return None
    m = _median(row)
    return (m + sum(abs(c - m) for c in row)) / 2


@at_working_precision
def kwon_simple_bound(p: Polynomial):
    """Cheaper special case; needs p(1) >= 0 and middle coefficient >= median."""
    _require_trim_pal(p)
    n = p.darga
    row = _coeff_row(p)
    if sum(row) < 0:
        return None
    m = _median(row)
    if n % 2 == 0 and row[n // 2 - 1] < m:
        return None
    low = [row[j - 1] for j in range(1, (n + 1) // 2) if row[j - 1] < m]
    p_at_1 = sum(row)
    return p_at_1 / 2 - 2 * sum(low) - ((n - 1) // 2 - 2 * len(low)) * m


def _is_half_monotone(p: Polynomial, increasing: bool, strict: bool = False) -> bool:
    n = p.darga
    row = _coeff_row(p)
    half = row[: n // 2]
    pairs = zip(half, half[1:])
    if increasing:
        return all(a < b for a, b in pairs) if strict else all(a <= b for a, b in pairs)
    return all(a > b for a, b in pairs) if strict else all(a >= b for a, b in pairs)


@at_working_precision
def increasing_upper_bound(p: Polynomial):
    """Upper bound for strictly half-monotone increasing p; None if inapplicable."""
    _require_trim_pal(p)
    n = p.darga
    if n < 4 or not _is_half_monotone(p, increasing=True, strict=True):
        return None
    row = _coeff_row(p)
    quarter = n // 4
    if quarter < 1:
        return None
    c = [1, 2, 2, 3][n % 4]
    p_at_1 = sum(row)
    return p_at_1 / 2 - 2 * sum(row[j - 1] for j in range(1, quarter)) - c * row[quarter - 1]


def ramanujan_lower(p: Polynomial):
    """Exact rational lower bound via Ramanujan sums, maximised over divisors."""
    return max(interlace_rational_candidates(p).values())


@at_working_precision
def monotonic_lower(p: Polynomial):
    """Parity-split lower bound for half-monotone increasing p."""
    _require_trim_pal(p)
    n = p.darga
    m = n // 2
    if m < 2 or not _is_half_monotone(p, increasing=True):
        raise NotApplicable("monotonic lower bound needs a half-monotone "
                            "increasing polynomial of darga >= 4")
    sig = sigma_of(p).sigma
    if not p.is_exact:  # mixed tokens: Fraction and mpf do not combine
        sig = [as_mpf(c) for c in sig]
    if n % 2 == 0:
        shrink = 1 - Fraction(5, m * m)
        return sig[m] + (sig[m - 1] - sig[1]) * shrink
    shrink = 1 - Fraction(5, n * n)
    return (sig[m] - sig[1]) * shrink


def interlace_rational_candidates(p: Polynomial) -> dict:
    """Exact candidates by divisor d of the darga: the mean of -p/2 over the
    primitive d-th roots of unity, a Ramanujan sum per coefficient."""
    _require_trim_pal(p)
    if not p.is_exact:
        raise NotApplicable("candidates exist on the rational track only")
    return {d: Fraction(-sum(c * arith.ramanujan_sum(d, j) for j, c in enumerate(p.re)),
                        2 * arith.euler_phi(d))
            for d in arith.divisors(p.darga)}


def is_interlace_rational(p: Polynomial):
    """(True, exact rational value) when the certified value meets a candidate."""
    _require_trim_pal(p)
    if not p.is_exact:
        raise NotApplicable("candidates exist on the rational track only")
    rational = interlace_number(p).rational
    return rational is not None, rational


def shift_geometric(p: Polynomial, a) -> Polynomial:
    """p + a * (x + x^2 + ... + x^(n-1))."""
    if p.is_zero:
        n = p.darga
    else:
        _require_trim_pal(p)
        n = p.darga
    ge = make_polynomial([a] * (n - 1), offset=1, allow_zero=True, zero_darga=n)
    return p + ge


def bound_ladder(p: Polynomial) -> BoundLadder:
    """All applicable bounds; inapplicable entries are None, never defaulted."""
    _require_trim_pal(p)
    try:
        ram = ramanujan_lower(p)
    except NotApplicable:
        ram = None
    try:
        mono = monotonic_lower(p)
    except NotApplicable:
        mono = None
    return BoundLadder(
        ll=ll_bound(p),
        kwon=kwon_bound(p),
        kwon_simple=kwon_simple_bound(p),
        increasing_upper=increasing_upper_bound(p),
        ramanujan_lower=ram,
        monotonic_lower=mono,
    )
