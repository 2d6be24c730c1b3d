"""Command-line front end: analyze, family, foic, dynamics, scan, plotdata.

Reports are JSON objects whose numeric leaves carry a machine float, a
full-precision decimal ``repr`` and, when the value is exactly rational, an
exact ``rational`` string, so results like 23/3 survive serialisation.
Exit codes: 0 ok, 2 input error (with a machine-readable error object on
stdout), 3 internal inconsistency (a theorem-guaranteed object could not
be produced numerically) or any other unexpected exception, with the same
error object on stdout and the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath

from . import __version__
from . import circle as ci
from . import dynamics as dy
from . import foic
from .errors import (
    InternalInconsistency,
    NotApplicable,
    OracleFailure,
    PalinlaceError,
)
from .families import FamilySpec, random_trim_palindromic
from .interlace import bound_ladder, interlace_number
from .polycore import (
    Polynomial,
    as_mpf,
    format_coeff_text,
    format_scalar,
    parse_coeff_text,
    parse_scalar_token,
    parse_sigma_text,
    sigma_of,
)
from .precision import default_precision, working_precision
from .smalldarga import darga4_numbers, darga5_numbers

CSV_COLUMNS = ("index", "darga", "coeffs", "il", "il_rational", "cn",
               "cn_rational", "be", "exact", "certs", "circle_certs")


def _num(x) -> dict:
    """JSON leaf for a Scalar: float + full-precision repr + exact rational."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return {"float": float(f), "repr": format_scalar(f),
                "rational": format_scalar(f)}
    with working_precision():
        return {"float": float(x), "repr": mpmath.nstr(x, 30, strip_zeros=True),
                "rational": None}


def _cnum(z) -> dict:
    with working_precision():
        return {"re": float(z.real), "im": float(z.imag),
                "repr": mpmath.nstr(z, 25)}


def _parse_poly(args) -> Polynomial:
    if getattr(args, "sigma", None):
        if not getattr(args, "darga", None):
            raise NotApplicable("--sigma input needs --darga")
        return parse_sigma_text(args.sigma, args.darga)
    if getattr(args, "coeffs", None):
        return parse_coeff_text(args.coeffs)
    raise NotApplicable("give the polynomial via --coeffs or --sigma/--darga")


def analysis_report(p: Polynomial, *, with_timings: bool = True) -> dict:
    """Full AnalysisReport for a trim self-inversive polynomial."""
    t0 = time.perf_counter()
    timings = {}
    report: dict = {
        "version": __version__,
        "precision_bits": default_precision(),
        "darga": p.darga,
        "coefficients": [format_scalar(c) for c in p.re],
        "palindromic": p.is_palindromic(),
    }
    srep = sigma_of(p)
    report["sigma"] = [format_scalar(c) for c in srep.sigma]

    t = time.perf_counter()
    il = interlace_number(p)
    timings["interlace_ms"] = 1000 * (time.perf_counter() - t)
    uncertainty = []
    if not il.certified:
        uncertainty.append("interlace cert set unstable under escalation")
    report["il"] = _num(il.value if il.rational is None else il.rational)
    report["interlace_certs"] = sorted(il.certs)
    report["interlace_certified"] = il.certified

    t = time.perf_counter()
    if p.is_palindromic():
        cn = ci.circle_number_palindromic(p)
    else:
        cn = ci.circle_number(p)
    timings["circle_ms"] = 1000 * (time.perf_counter() - t)
    report["cn"] = _num(cn.value)
    report["cn_method"] = cn.method
    report["circle_certs"] = [_cnum(z) for z in cn.certs]

    report["be"] = _num(ci._bounding_error(il, cn))

    if p.is_palindromic():
        t = time.perf_counter()
        verdict = ci._exactness(p, il, cn)
        timings["exactness_ms"] = 1000 * (time.perf_counter() - t)
        report["exact"] = {"exact": verdict.exact, "route": verdict.route,
                           "witness": verdict.witness}
        report["cones"] = sorted(il.certs)
        ladder = bound_ladder(p)
        report["bounds"] = {
            name: (_num(v) if v is not None else None)
            for name, v in (
                ("ll", ladder.ll), ("kwon", ladder.kwon),
                ("kwon_simple", ladder.kwon_simple),
                ("increasing_upper", ladder.increasing_upper),
                ("ramanujan_lower", ladder.ramanujan_lower),
                ("monotonic_lower", ladder.monotonic_lower),
            )
        }
        lower = ci.cn_lower_bounds(p)
        report["cn_bounds"] = {k: _num(v) for k, v in lower.items()}
    else:
        report["exact"] = None
        report["cones"] = None
        report["bounds"] = None
        report["cn_bounds"] = None

    report["uncertainty_flags"] = uncertainty
    if with_timings:
        timings["total_ms"] = 1000 * (time.perf_counter() - t0)
        report["timings_ms"] = {k: round(v, 3) for k, v in timings.items()}
    return report


def canonical_json(report: dict) -> str:
    """Deterministic serialisation: timings stripped, fixed separators."""
    clean = {k: v for k, v in report.items() if k != "timings_ms"}
    return json.dumps(clean, separators=(",", ":"))


def cmd_analyze(args) -> int:
    p = _parse_poly(args)
    report = analysis_report(p)
    if args.canonical:
        sys.stdout.write(canonical_json(report) + "\n")
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_family(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.k is not None:
        params["k"] = args.k
    if args.a is not None:
        params["a"] = parse_scalar_token(args.a)
    if args.params is not None:
        pairs = []
        for chunk in args.params.split(","):
            a, b = chunk.split(":")
            pairs.append((parse_scalar_token(a), parse_scalar_token(b)))
        params["params"] = pairs
    spec = FamilySpec(args.name, params)
    p = spec.build()
    sys.stdout.write(format_coeff_text(p) + "\n")
    return 0


def cmd_foic(args) -> int:
    n = args.n
    out = {
        "n": n,
        "functionals": [
            {"j": j, "row": [format_scalar(c) if isinstance(c, Fraction)
                             else mpmath.nstr(c, 25)
                             for c in foic.functional(n, j).coefficients]}
            for j in range(n // 2 + 1)
        ],
        "cones": [
            {"j": j, "halfspaces": [[format_scalar(c) if isinstance(c, (int, Fraction))
                                     else mpmath.nstr(c, 25) for c in row]
                                    for row in foic.cone_halfspaces(n, j)]}
            for j in range(n // 2 + 1)
        ],
        "polar_vertices": [
            [format_scalar(c) if isinstance(c, Fraction) else mpmath.nstr(c, 25)
             for c in v.re]
            for v in foic.polar_vertices(n)
        ],
    }
    order, structure = foic.isometry_group(n)
    out["isometry_group"] = {"order": order, "structure": structure}
    try:
        out["colored_automorphisms"] = foic.count_colored_automorphisms(
            foic.isometry_graph(n))
    except PalinlaceError:
        out["colored_automorphisms"] = None
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_dynamics(args) -> int:
    p = _parse_poly(args)
    prof = dy.alpha_profile(p)

    def loc(x):
        return None if x is None else _num(x)

    out = {
        "darga": p.darga,
        "breakpoints": [
            {"value": _num(bp.exact) if bp.exact is not None
             else {"float": float((bp.lo + bp.hi) / 2), "repr": None,
                   "rational": None},
             "exact": bp.exact is not None}
            for bp in prof.breakpoints
        ],
        "intervals": [
            {"lo": loc(iv.lo), "hi": loc(iv.hi), "point": iv.is_point,
             "real_root_count": iv.real_root_count,
             "circle_rooted": iv.circle_rooted}
            for iv in prof.intervals
        ],
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.grid:
        lo, hi, steps = args.grid.split(":")
        lo, hi, steps = mpmath.mpf(lo), mpmath.mpf(hi), int(steps)
        alphas = [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]
        sys.stdout.write("alpha\troot_index\tre\tim\n")
        for alpha, roots in dy.root_trajectories(p, alphas):
            if roots is None:
                sys.stdout.write(f"{mpmath.nstr(alpha, 17)}\tNA\tNA\tNA\n")
                continue
            for idx, z in enumerate(roots):
                sys.stdout.write(
                    f"{mpmath.nstr(alpha, 17)}\t{idx}\t"
                    f"{mpmath.nstr(z.real, 17)}\t{mpmath.nstr(z.imag, 17)}\n")
    return 0


def _scan_row(index: int, p: Polynomial) -> list:
    il = interlace_number(p)
    cn = ci.circle_number_palindromic(p)
    verdict = ci._exactness(p, il, cn)
    # one block at the configured precision: the row must not depend on
    # whatever precision another scan thread has set
    with working_precision(default_precision()):
        be = ci._bounding_error(il, cn)
        return [
            str(index),
            str(p.darga),
            format_coeff_text(p),
            mpmath.nstr(il.value, 20),
            format_scalar(il.rational) if il.rational is not None else "",
            mpmath.nstr(as_mpf(cn.value), 20),
            format_scalar(cn.value) if isinstance(cn.value, Fraction) else "",
            mpmath.nstr(as_mpf(be), 20),
            "1" if verdict.exact else "0",
            " ".join(str(j) for j in sorted(il.certs)),
            " ".join(mpmath.nstr(z, 17) for z in cn.certs),
        ]


def cmd_scan(args) -> int:
    rng = random.Random(args.seed)
    polys = []
    if args.inject:
        for chunk in args.inject.split(";"):
            polys.append(parse_coeff_text(chunk))
    polys += [random_trim_palindromic(rng, args.darga)
              for _ in range(args.count)]
    sys.stdout.write(f"# palinlace scan v{__version__} seed={args.seed} "
                     f"darga={args.darga} columns={','.join(CSV_COLUMNS)}\n")
    sys.stdout.write(",".join(CSV_COLUMNS) + "\n")
    with ThreadPoolExecutor(max_workers=max(args.workers, 1)) as pool:
        rows = pool.map(lambda item: _scan_row(item[0], item[1]),
                        enumerate(polys))
        for row in rows:
            sys.stdout.write(",".join(f'"{cell}"' if "," in cell else cell
                                      for cell in row) + "\n")
    return 0


def cmd_plotdata(args) -> int:
    if args.darga not in (4, 5):
        raise NotApplicable("plot data covers darga 4 and 5")
    fn = darga4_numbers if args.darga == 4 else darga5_numbers
    steps = args.steps
    sys.stdout.write("angle_over_2pi\tb\tc\til\tcn\tbe\n")
    with working_precision():
        for i in range(steps):
            t = mpmath.mpf(i) / steps
            b = mpmath.cospi(2 * t)
            c = mpmath.sinpi(2 * t)
            il, cn, be = fn(b, c)
            if cn <= 0 or il <= 0:
                continue  # outside the trim cone of interest (p = 0 rays excluded)
            sys.stdout.write("\t".join(mpmath.nstr(v, 17)
                                       for v in (t, b, c, il, cn, be)) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="palinlace",
        description="interlace/circle numbers of palindromic polynomials")
    ap.add_argument("--precision", type=int, default=None,
                    help="working precision in bits (default 128, or "
                         "PALINLACE_PRECISION)")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one polynomial")
    pa.add_argument("--coeffs", help="coefficients of x^1..x^(n-1), comma separated")
    pa.add_argument("--sigma", help="sigma coefficients sigma_1..sigma_floor(n/2)")
    pa.add_argument("--darga", type=int)
    pa.add_argument("--canonical", action="store_true",
                    help="one-line canonical JSON (timings stripped)")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("family", help="print a named family member")
    pf.add_argument("name", help="geometric | sigma-basis | gcd | coprime | "
                                 "fekete | binomial | hadamard-binomial | "
                                 "be-witness | exact | two-interval")
    pf.add_argument("--n", type=int)
    pf.add_argument("--k", type=int)
    pf.add_argument("--a")
    pf.add_argument("--params", help="a:b pairs, comma separated (two-interval)")
    pf.set_defaults(func=cmd_family)

    pc = sub.add_parser("foic", help="fan data for a given darga")
    pc.add_argument("--n", type=int, required=True)
    pc.set_defaults(func=cmd_foic)

    pd = sub.add_parser("dynamics", help="alpha-sweep profile")
    pd.add_argument("--coeffs")
    pd.add_argument("--sigma")
    pd.add_argument("--darga", type=int)
    pd.add_argument("--grid", help="lo:hi:steps trajectory grid (adds TSV)")
    pd.set_defaults(func=cmd_dynamics)

    ps = sub.add_parser("scan", help="seeded random batch, CSV per polynomial")
    ps.add_argument("--darga", type=int, required=True)
    ps.add_argument("--count", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--workers", type=int, default=2)
    ps.add_argument("--inject", help="semicolon-separated coeff lists to prepend")
    ps.set_defaults(func=cmd_scan)

    pp = sub.add_parser("plotdata", help="closed-form ray data for darga 4/5")
    pp.add_argument("--darga", type=int, required=True)
    pp.add_argument("--steps", type=int, default=3600)
    pp.set_defaults(func=cmd_plotdata)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.precision:
        import os
        os.environ["PALINLACE_PRECISION"] = str(args.precision)
    try:
        return args.func(args)
    except (InternalInconsistency, OracleFailure) as exc:
        return _error_object(exc, 3)
    except (PalinlaceError, ValueError) as exc:
        return _error_object(exc, 2)
    except Exception as exc:  # the CLI's boundary: answer, never a bare traceback
        traceback.print_exc()
        return _error_object(exc, 3)


def _error_object(exc: Exception, code: int) -> int:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stdout)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
