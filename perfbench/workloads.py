"""Workload inputs and timed loops.  Runs inside the worker process.

Every workload builds a pool of rounds from the benchmark seed in its set-up
phase, using the program's own constructors and parsers, then runs whole
rounds until the run length is spent.  Nothing here compares answers; the
worker only records what the program returned, and ``checks.py`` judges it
in the parent process against ``reference.py``.

Program objects are recorded as they come back and encoded after the timed
phase: a ``Fraction`` as ``{"q": "a/b"}``, an mpmath float as its exact
binary value ``{"f": "a/b"}``, a complex float as ``{"re": .., "im": ..}``.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from fractions import Fraction

# criterion 09's stream: this seed, darga 3..10 in rotation
CORPUS_STREAM_SEED = 987654321
CORPUS_POLYS = 16          # base polynomials in one pass over the corpus

SCAN_STREAM_SEED = 19080308
SCAN_DARGA = 8
SCAN_BASE = 23             # fixed base rows, scaled afresh in every scan call
# a darga-8 row whose exact column reads 1 although il != cn; every scan call
# carries it unscaled, so it fails once per call (see checks.check_scan)
EXACT_FAILING = "2,-3,-12,96,-12,-3,2"
SCAN_ROWS = SCAN_BASE + 1  # CSV rows per scan call
SCAN_RERUNS = 1            # calls rerun with --workers 1 after the timed phase

ANALYZE_MIN_CALLS = 100
EXAPOL_FAILING = "-1.2360679774997896964,6,6,-1.2360679774997896964"
EXAPOL_INNER = "-1.2360679774997896964"  # 1 - sqrt(5) to 20 digits

# the paper's fixtures with known answers (coefficients of x^1 .. x^(n-1))
FIXTURES = {
    "il171": [172, 100, 198, 100, 172],
    "il135": [100, 172, 198, 172, 100],
    "be4": [50, 86, 99, 86, 50],
    "cn23_3": [15, 14, 12, 2, 2, 12, 14, 15],
    "cn68": [80, 75, 73, 11, 2, 11, 73, 75, 80],
}

SWEEP_STREAM_SEED = 19080320
SWEEP_ROUND = (4, 5, 6, 6, 6, "two_interval")
SWEEP_STEPS = 17


def encode(x):
    """JSON form of a program value (see the module docstring)."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return {"q": f"{f.numerator}/{f.denominator}"}
    if hasattr(x, "imag") and hasattr(x, "real") and type(x).__name__ == "mpc":
        return {"re": encode(x.real), "im": encode(x.imag)}
    if type(x).__name__ == "mpf":
        sign, man, exp, _ = x._mpf_
        f = (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)
        return {"f": f"{f.numerator}/{f.denominator}"}
    raise TypeError(f"cannot encode {type(x).__name__}")


def run_cli(pal, argv):
    """One in-process ``palinlace`` call: (exit code or error, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = pal.cli.main(argv)
        error = None
    except Exception as exc:  # the known fault surfaces as a raw exception
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, error, buf.getvalue(), time.perf_counter() - t0


def decimal_text(q: Fraction) -> str:
    """Terminating decimal of q (denominator 2^a 5^b), always with a point."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    places = 0
    while (q * 10**places).denominator != 1:
        places += 1
    digits = str(int(q * 10**places)).rjust(places + 1, "0")
    head, tail = digits[:len(digits) - places], digits[len(digits) - places:]
    return f"{sign}{head}.{tail or '0'}"


def _decimal_scale(rng) -> Fraction:
    return Fraction(rng.randint(1, 99), rng.choice([1, 2, 4, 5, 8, 10, 20, 25]))


def _random_sigma(rng, darga, lo, hi, dens):
    half = darga // 2
    while True:
        sigma = [Fraction(0)] + [Fraction(rng.randint(lo, hi), rng.choice(dens))
                                 for _ in range(half)]
        if any(sigma):
            return sigma


def _from_sigma(pal, darga, sigma):
    pc = pal.polycore
    hat = tuple([Fraction(0)] * ((darga - 1) // 2 + 1))
    return pc.poly_of(pc.SigmaRep(darga, tuple(sigma), hat))


class Workload:
    """Defaults: one operation per record, CLI calls given as argv lists."""

    def run_round(self, pal, calls):
        out = []
        for argv in calls:
            code, error, text, dt = run_cli(pal, argv)
            out.append({"argv": argv, "code": code, "error": error, "stdout": text,
                        "latency_s": dt})
        return out

    def op_count(self, records):
        return len(records)

    def enough(self, ops):
        return True

    def after(self, pal, records):
        """Untimed work after the timed phase."""

    def encode(self, pal, records):
        return records


# -- corpus ---------------------------------------------------------------------

class Corpus(Workload):
    """Criterion 09's library calls on its stream, with copies of each polynomial.

    The base polynomials are the first ``CORPUS_POLYS`` of criterion 09's
    stream.  The benchmark seed draws the scale factor of every scaled copy,
    a new one on every pass.
    """

    name = "corpus"

    def build(self, pal, seed, seconds):
        stream = random.Random(CORPUS_STREAM_SEED)
        base = []
        for i in range(CORPUS_POLYS):
            darga = 3 + (i % 8)
            p = _from_sigma(pal, darga, _random_sigma(stream, darga, -20, 20,
                                                      [1, 1, 1, 2, 3]))
            stream.randint(1, 9)  # criterion 09 draws its scale factor here;
            stream.randint(1, 4)  # consume it so the stream stays aligned
            flip = p.sign_flip() if darga % 2 == 0 else None
            base.append((i, p, p.stretch(2), flip))
        rng = random.Random(seed)
        passes = max(4, seconds)
        rounds = []
        for _ in range(passes):
            ops = []
            for i, p, stretched, flip in base:
                lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                ops.append((i, p, lam, p.scale(lam), stretched, flip))
            rounds.append(ops)
        return rounds

    def run_round(self, pal, ops):
        import mpmath
        ci, il_, dy = pal.circle, pal.interlace, pal.dynamics
        as_mpf = pal.polycore.as_mpf
        working_precision = pal.precision.working_precision
        out = []
        for i, p, lam, scaled, stretched, flip in ops:
            t0 = time.perf_counter()
            r = {"index": i, "p": p, "lam": lam}
            r["il"] = il_.interlace_number(p)
            r["disc"] = ci.circle_number(p)
            r["heck"] = ci.circle_number_palindromic(p)
            r["ll"] = il_.ll_bound(p)
            r["lower"] = ci.cn_lower_bounds(p)
            r["il_s"] = il_.interlace_number(scaled)
            r["cn_s"] = ci.circle_number_palindromic(scaled)
            r["il_x"] = il_.interlace_number(stretched)
            r["cn_x"] = ci.circle_number_palindromic(stretched)
            if flip is not None:
                r["il_f"] = il_.interlace_number(flip)
                r["cn_f"] = ci.circle_number_palindromic(flip)
            ap = pal.polycore.p_alpha(p)
            with working_precision():
                cn_v = as_mpf(r["heck"].value)
                delta = mpmath.mpf("1e-3") * (1 + cn_v)
                above, below = cn_v + delta, cn_v - delta
            r["above"], r["below"] = above, below
            r["oracle_above"] = ci.numeric_oracle_circle_rooted(
                ap.instantiate(above), mpmath.mpf("1e-5"))
            r["oracle_below"] = None
            r["profile"] = None
            if below > 0:
                r["oracle_below"] = ci.numeric_oracle_circle_rooted(
                    ap.instantiate(below), mpmath.mpf("1e-5"))
                if r["oracle_below"]:
                    r["profile"] = dy.alpha_profile(p).circle_rooted_intervals()
            r["latency_s"] = time.perf_counter() - t0
            out.append(r)
        return out

    def encode(self, pal, records):
        fmt = pal.polycore.format_coeff_text
        out = []
        for r in records:
            e = {"index": r["index"], "coeffs": fmt(r["p"]), "lam": encode(r["lam"]),
                 "latency_s": r["latency_s"]}
            e["il"] = encode(r["il"].value)
            for key in ("disc", "heck"):
                e[key] = encode(r[key].value)
            e["certs"] = [encode(z) for z in r["heck"].certs]
            e["ll"] = encode(r["ll"])
            e["lower"] = {k: encode(v) for k, v in r["lower"].items()}
            for key in ("il_s", "il_x", "il_f"):
                e[key] = encode(r[key].value) if key in r else None
            for key in ("cn_s", "cn_x", "cn_f"):
                e[key] = encode(r[key].value) if key in r else None
            e["above"], e["below"] = encode(r["above"]), encode(r["below"])
            e["oracle_above"], e["oracle_below"] = r["oracle_above"], r["oracle_below"]
            e["profile"] = None if r["profile"] is None else [
                [encode(iv.lo), encode(iv.hi)] for iv in r["profile"]]
            out.append(e)
        return out


# -- scan -------------------------------------------------------------------------

class Scan(Workload):
    """``palinlace scan`` calls at darga 8, one per round, two workers.

    The base rows are fixed: ``SCAN_BASE`` darga-8 polynomials drawn from
    ``SCAN_STREAM_SEED`` as the program's own row generator draws them.
    Every call passes ``EXACT_FAILING`` and each base row, scaled by a
    factor the benchmark seed draws, through ``--inject`` with ``--count 0``.
    """

    name = "scan"

    def build(self, pal, seed, seconds):
        stream = random.Random(SCAN_STREAM_SEED)
        base = [_from_sigma(pal, SCAN_DARGA, _random_sigma(
            stream, SCAN_DARGA, -20, 20, [1, 1, 1, 2, 3])) for _ in range(SCAN_BASE)]
        rng = random.Random(seed)
        fmt = pal.polycore.format_coeff_text
        rounds = []
        for _ in range(max(8, 2 * seconds)):
            rows = [EXACT_FAILING] + [
                fmt(p.scale(Fraction(rng.randint(1, 9), rng.randint(1, 4))))
                for p in base]
            rounds.append([["scan", "--darga", str(SCAN_DARGA), "--count", "0",
                            "--seed", str(seed), "--inject", ";".join(rows)]])
        pal.cli.build_parser().parse_args(rounds[0][0])
        return rounds

    def op_count(self, records):
        return SCAN_ROWS * len(records)

    def after(self, pal, records):
        """Rerun the first calls with one worker, outside the timed phase."""
        for r in records[:SCAN_RERUNS]:
            _, _, text, _ = run_cli(pal, r["argv"] + ["--workers", "1"])
            r["stdout_workers1"] = text


# -- analyze ----------------------------------------------------------------------

class Analyze(Workload):
    """A closed loop of ``palinlace analyze --canonical`` calls, one caller.

    Each round holds the paper's five fixtures (the 23/3 one twice), a
    geometric polynomial and a named family member (exact track, each
    scaled by a fresh factor), a
    random decimal polynomial, the be = 4 fixture and the darga-5 exapol
    typed with decimal tokens (float track), and the exapol typed with
    integer middle tokens, which fails on every pass.
    """

    name = "analyze"

    def build(self, pal, seed, seconds):
        rng = random.Random(seed)
        seen = set()
        rounds = []
        for _ in range(max(12, 5 * seconds)):
            items = []

            def add(kind, text, **known):
                items.append({"kind": kind, "text": text, "known": {
                    k: f"{v.numerator}/{v.denominator}" for k, v in known.items()}})

            def fresh(kind, make):
                for _ in range(1000):
                    value = make()
                    if (kind, value) not in seen:
                        seen.add((kind, value))
                        return value
                raise RuntimeError(f"no fresh {kind} input left")

            mk = pal.polycore.make_polynomial
            fmt = pal.polycore.format_coeff_text
            for kind, coeffs in FIXTURES.items():
                # the slowest fixture twice, with integer factors (one cost
                # mode), so the 90th percentile lies inside its class
                for _ in range(2 if kind == "cn23_3" else 1):
                    lam = fresh(kind, (lambda: Fraction(rng.randint(1, 999)))
                                if kind == "cn23_3" else (lambda: _decimal_scale(rng)))
                    p = mk(coeffs, offset=1).scale(lam)
                    known = {"il171": {"il": 171 * lam}, "il135": {"il": 135 * lam},
                             "be4": {"cn": Fraction(27, 2) * lam,
                                     "il": Fraction(135, 2) * lam, "be": Fraction(4)},
                             "cn23_3": {"cn": Fraction(23, 3) * lam},
                             "cn68": {"cn": 68 * lam}}[kind]
                    add(kind, fmt(p), **known)
            n, lam = fresh("geometric", lambda: (rng.randint(3, 6), _decimal_scale(rng)))
            add("geometric", fmt(pal.families.geometric(n).scale(lam)),
                cn=Fraction(n // 2, n) * lam, il=lam / 2)
            fam = fresh("family", lambda: self._family_choice(rng))
            add("family", fmt(self._family(pal, fam)))
            text = fresh("decimal", lambda: self._decimal_poly(rng))
            add("decimal", text)
            lam = fresh("be4_decimal", lambda: _decimal_scale(rng))
            add("be4_decimal", ",".join(decimal_text(c * lam) for c in FIXTURES["be4"]),
                cn=Fraction(27, 2) * lam, il=Fraction(135, 2) * lam)
            lam = fresh("exapol_decimal", lambda: _decimal_scale(rng))
            add("exapol_decimal", self._exapol_scaled(lam))
            add("exapol_failing", EXAPOL_FAILING)
            rounds.append(items)
        for items in rounds:
            for item in items:  # the program's parser accepts every input
                pal.polycore.parse_coeff_text(item["text"])
        return rounds

    @staticmethod
    def _family_choice(rng):
        kind = rng.choice(["gcd", "coprime", "binomial", "hadamard", "fekete",
                           "sigma_basis"])
        if kind == "fekete":
            return kind, 5, 1, _decimal_scale(rng)
        n = rng.randint(3, 6)
        return kind, n, rng.randint(1, max(1, n // 2)), _decimal_scale(rng)

    @staticmethod
    def _family(pal, choice):
        kind, n, k, lam = choice
        fa = pal.families
        p = {"gcd": lambda: fa.gcd_poly(n, k), "coprime": lambda: fa.coprime_support(n),
             "binomial": lambda: fa.binomial_poly(n),
             "hadamard": lambda: fa.hadamard_binomial(n),
             "fekete": lambda: fa.fekete(n),
             "sigma_basis": lambda: fa.sigma_basis(n, k)}[kind]()
        return p.scale(lam)

    @staticmethod
    def _decimal_poly(rng):
        darga = rng.randint(4, 6)
        sigma = _random_sigma(rng, darga, -999, 999, [10, 100, 100])
        inner = [sigma[min(j, darga - j)] * (2 if 2 * j == darga else 1)
                 for j in range(1, darga)]
        if inner[0] == 0:
            inner[0] = inner[-1] = Fraction(1, 10)
        return ",".join(decimal_text(c) for c in inner)

    @staticmethod
    def _exapol_scaled(lam):
        inner = Fraction(EXAPOL_INNER) * lam
        six = decimal_text(6 * lam)
        # lam has a terminating decimal expansion, so inner prints exactly
        return ",".join([decimal_text(inner), six, six, decimal_text(inner)])

    def run_round(self, pal, items):
        out = []
        for item in items:
            code, error, text, dt = run_cli(
                pal, ["analyze", "--canonical", f"--coeffs={item['text']}"])
            out.append(dict(item, code=code, error=error, stdout=text, latency_s=dt))
        return out

    def enough(self, ops):
        return ops >= ANALYZE_MIN_CALLS


# -- sweep ------------------------------------------------------------------------

class Sweep(Workload):
    """``palinlace dynamics --grid`` on palindromic inputs, one caller.

    The base inputs are fixed: one polynomial each of darga 4, 5 and 6 and a
    two-interval fixture, drawn from ``SWEEP_STREAM_SEED``.  A round runs the
    darga-6 input three times and the others once, each scaled by a factor
    the benchmark seed draws, so the median call is a darga-6 sweep.
    """

    name = "sweep"

    def build(self, pal, seed, seconds):
        stream = random.Random(SWEEP_STREAM_SEED)
        base = {d: _from_sigma(pal, d, _random_sigma(stream, d, -6, 6, [1, 1, 2]))
                for d in (4, 5, 6)}
        params = []
        for _ in range(3):
            a = stream.randint(2, 7)
            params.append((a, stream.randint(1, a - 1)))
        base["two_interval"] = pal.families.two_interval(params)
        rng = random.Random(seed)
        fmt = pal.polycore.format_coeff_text
        rounds = []
        for _ in range(max(8, 2 * seconds)):
            calls = []
            for key in SWEEP_ROUND:
                p = base[key].scale(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                ll = sum(abs(c) for c in p.real_coeffs()) / 2
                step = Fraction(1)
                while step * (SWEEP_STEPS - 1) < ll * 5 / 4:
                    step *= 2
                while step * (SWEEP_STEPS - 1) >= ll * 5 / 2:
                    step /= 2
                # a third of a step off zero keeps grid values off the
                # rational breakpoints, where p_alpha has multiple roots
                hi = step * (SWEEP_STEPS - 1)
                lo = f"{float(step / 3):.12g}"
                calls.append(["dynamics", f"--coeffs={fmt(p)}",
                              "--grid", f"{lo}:{decimal_text(hi)}:{SWEEP_STEPS}"])
            rounds.append(calls)
        return rounds


WORKLOADS = {w.name: w for w in (Corpus, Scan, Analyze, Sweep)}
