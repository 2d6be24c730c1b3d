"""Alpha-sweep analysis: subdiscriminants, breakpoints, circle-rooted intervals.

The real-root structure of the family q(alpha, x) = (alpha (x^n+1) + p)/gcd
changes only where a subdiscriminant (or the leading coefficient) changes
sign.  We isolate those alpha exactly, then decide each open interval --
and each rational breakpoint itself -- by counting roots of q on the unit
circle at a sample value with Sturm's theorem.  This stays entirely on the
exact rational track.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratpoly as rp
from . import realroots as rr
from .circle import all_roots, alpha_family_reduced
from .errors import NotSupported, NotTrim, EmptyPolynomial, NotSelfInversive
from .polycore import AlphaPolynomial, Polynomial, as_mpf
from .precision import default_precision, working_precision


def subdiscriminant_sequence(q: AlphaPolynomial) -> list:
    """Principal subdiscriminant coefficients of q in x, as alpha-polynomials.

    Entry 0 is the discriminant (resultant divided by the leading
    coefficient); the last entry is the leading coefficient itself, whose
    vanishing marks degree drops.  Exact rational input only.
    """
    if not all(isinstance(c, (int, Fraction)) for c in list(q.const) + list(q.slope)):
        raise NotSupported("subdiscriminants run on the exact rational track")
    d = max(rp.degree(list(q.const)), rp.degree(list(q.slope)))
    if d < 1:
        return []
    coeffs = []
    for k in range(d + 1):
        c = Fraction(q.const[k]) if k < len(q.const) else Fraction(0)
        s = Fraction(q.slope[k]) if k < len(q.slope) else Fraction(0)
        coeffs.append(rp.strip([c, s]))
    dcoeffs = [rp.scale(coeffs[k], Fraction(k)) for k in range(1, d + 1)]
    sres = rp.subresultant_principal_coeffs(coeffs, dcoeffs)
    lead = coeffs[d]
    out = []
    for j, entry in enumerate(sres):
        if j == 0:
            # divide out the leading coefficient: sres_0 = lc * Disc
            entry = rp.div_exact(entry, lead) if rp.strip(entry) else entry
        out.append(entry)
    out.append(lead)
    return out


@dataclass(frozen=True)
class AlphaInterval:
    lo: object            # Fraction, or None for -infinity
    hi: object            # Fraction, or None for +infinity
    real_root_count: int  # distinct unit-circle roots of q at a sample point
    circle_rooted: bool

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi


@dataclass(frozen=True)
class Breakpoint:
    lo: Fraction
    hi: Fraction
    exact: Fraction | None

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class AlphaProfile:
    breakpoints: tuple
    intervals: tuple

    def circle_rooted_intervals(self, positive_only: bool = False):
        """Maximal circle-rooted intervals (degenerate points included).

        An unclassified breakpoint (irrational, marked with count -1) that
        sits between two circle-rooted open intervals is absorbed: the set
        of polynomials with all roots on the circle is closed, so the limit
        point inherits circle-rootedness from both sides.
        """
        ivs = list(self.intervals)
        resolved = []
        for i, iv in enumerate(ivs):
            if iv.is_point and iv.real_root_count == -1:
                left_ok = i > 0 and ivs[i - 1].circle_rooted
                right_ok = i + 1 < len(ivs) and ivs[i + 1].circle_rooted
                if left_ok and right_ok:
                    iv = AlphaInterval(iv.lo, iv.hi, -1, True)
            resolved.append(iv)
        merged = []
        for iv in resolved:
            if not iv.circle_rooted:
                continue
            if merged and merged[-1].hi is not None and iv.lo is not None \
                    and merged[-1].hi == iv.lo:
                prev = merged.pop()
                merged.append(AlphaInterval(prev.lo, iv.hi, iv.real_root_count,
                                            True))
            else:
                merged.append(iv)
        if positive_only:
            merged = [iv for iv in merged
                      if iv.hi is None or iv.hi > 0]
        return merged


def _validate(p: Polynomial):
    if p.is_zero:
        raise EmptyPolynomial("alpha profile of the zero polynomial")
    if not p.is_trim:
        raise NotTrim("alpha profile runs over trim polynomials")
    if not p.is_palindromic():
        raise NotSelfInversive("alpha profile needs palindromic input")
    if not p.is_exact:
        raise NotSupported("alpha profile runs on the exact rational track")


def alpha_profile(p: Polynomial) -> AlphaProfile:
    """Breakpoints and per-interval circle-rootedness of alpha -> p_alpha."""
    _validate(p)
    ap = alpha_family_reduced(p)
    entries = subdiscriminant_sequence(ap)
    master = [Fraction(1)]
    for entry in entries:
        if rp.degree(entry) >= 1:
            master = rp.mul(master, rp.odd_multiplicity_part(entry))
    master = rp.squarefree_part(master)
    bps = [Breakpoint(lo, hi, exact) for lo, hi, exact in rr.real_roots(master)]

    def q_at(alpha: Fraction):
        return rp.add(ap.const, rp.scale(ap.slope, alpha))

    def classify(alpha: Fraction):
        qa = q_at(alpha)
        count = rr.count_circle_roots_distinct(qa)
        return count, rr.all_roots_on_circle(qa)

    intervals = []
    if not bps:
        count, rooted = classify(Fraction(1))
        intervals.append(AlphaInterval(None, None, count, rooted))
        return AlphaProfile((), tuple(intervals))

    # leftmost open interval
    first = bps[0].lo - 1 - abs(bps[0].lo)
    count, rooted = classify(first)
    intervals.append(AlphaInterval(None, bps[0].exact if bps[0].exact is not None
                                   else bps[0].midpoint(), count, rooted))
    for i, bp in enumerate(bps):
        loc = bp.exact if bp.exact is not None else bp.midpoint()
        if bp.exact is not None:
            count, rooted = classify(bp.exact)
            intervals.append(AlphaInterval(loc, loc, count, rooted))
        else:
            intervals.append(AlphaInterval(loc, loc, -1, False))
        if i + 1 < len(bps):
            sample = (bp.hi + bps[i + 1].lo) / 2
            hi_loc = bps[i + 1].exact if bps[i + 1].exact is not None \
                else bps[i + 1].midpoint()
            count, rooted = classify(sample)
            intervals.append(AlphaInterval(loc, hi_loc, count, rooted))
    last = bps[-1].hi + 1 + abs(bps[-1].hi)
    count, rooted = classify(last)
    intervals.append(AlphaInterval(bps[-1].exact if bps[-1].exact is not None
                                   else bps[-1].midpoint(), None, count, rooted))
    return AlphaProfile(tuple(bps), tuple(intervals))


def root_trajectories(p: Polynomial, alphas):
    """Numeric roots of p_alpha per grid value, greedily matched for continuity.

    Returns a list of (alpha, roots or None); a None entry flags solver
    failure at that grid point without aborting the sweep.
    """
    if p.is_zero:
        raise EmptyPolynomial("trajectories of the zero polynomial")
    n = p.darga
    bits = default_precision()
    out = []
    prev = None
    for alpha in alphas:
        with working_precision(bits):
            coeffs = p.mpc_coeffs(n + 1)
            coeffs[0] += as_mpf(alpha)
            coeffs[n] += as_mpf(alpha)
        try:
            roots = all_roots(coeffs, bits)
        except Exception:
            out.append((alpha, None))
            prev = None
            continue
        if prev is not None and len(prev) == len(roots):
            matched = []
            pool = list(roots)
            for z in prev:
                best = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
                matched.append(pool.pop(best))
            roots = matched
        out.append((alpha, tuple(roots)))
        prev = roots
    return out
