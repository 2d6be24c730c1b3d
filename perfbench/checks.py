"""Per-workload checks of the program's outputs against ``reference.py``.

Each ``check_<workload>`` takes the worker's records and returns a
``Verdict``: the failed checks (any one fails the run), the operations that
failed, and the correct bits of every answer that is not an exact rational
(the source of ``float_correct_bits``).
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import mpmath

import reference as ref
from workloads import EXACT_FAILING

LAW_TOL = Fraction(1, 10**9)         # criterion 09's own tolerance
FLOAT_TOL = Fraction(1, 10**6)       # float-track answers against references
PRINTED_TOL = Fraction(1, 10**15)    # printed exact-track floats
CERT_TOL = Fraction(1, 10**10)       # circle certs: p_cn(z), p_cn'(z), |z| - 1
ROOT_TOL = Fraction(1, 10**12)       # trajectory roots: |p_alpha(z)|
CIRCLE_TOL = 1e-6                    # numpy | |z| - 1 | of square-free roots
EQUAL_TOL = mpmath.mpf(10) ** -50    # il == cn, well inside reference precision

# the inputs that fail on every pass: this analyze kind (workloads.EXAPOL_FAILING)
# and the scan row workloads.EXACT_FAILING
KNOWN_FAILURE_KIND = "exapol_failing"
FLOAT_KINDS = ("decimal", "be4_decimal", "exapol_decimal", "exapol_failing")


class Verdict:
    def __init__(self):
        self.failures = []
        self.failed_ops = 0
        self.bits = []

    def fail(self, msg):
        if len(self.failures) < 50:
            self.failures.append(msg)
        else:
            self.failures[-1] = f"... and more; last: {msg}"

    def expect(self, ok, msg):
        if not ok:
            self.fail(msg)
        return ok


def decode(obj):
    """Inverse of workloads.encode: Fraction, (Fraction, Fraction), bool or None."""
    if obj is None or isinstance(obj, bool):
        return obj
    if "q" in obj:
        return Fraction(obj["q"])
    if "f" in obj:
        return Fraction(obj["f"])
    return decode(obj["re"]), decode(obj["im"])


def rel_close(x, y, tol) -> bool:
    x, y = Fraction(x), Fraction(y)
    return abs(x - y) <= tol * (1 + abs(y))


def mp(q):
    return ref.to_mpf(Fraction(q))


def number(leaf) -> Fraction:
    """Exact value of a JSON number leaf: its rational if given, else its repr."""
    return Fraction(leaf["rational"] if leaf["rational"] is not None else leaf["repr"])


def complex_text(text):
    """'(a + bj)' as printed by mpmath.nstr, to a pair of Fractions."""
    m = re.fullmatch(r"\(?\s*([-+0-9.eE]+)\s*([-+])\s*([0-9.eE+-]+)j\s*\)?", text.strip())
    if not m:
        raise ValueError(f"unreadable complex number {text!r}")
    im = Fraction(m.group(3))
    return Fraction(m.group(1)), (im if m.group(2) == "+" else -im)


def _eval(coeffs, z, bits=400):
    """|p(z)| and the scale sum |c_k| |z|^k, for complex z = (re, im)."""
    with mpmath.workprec(bits):
        w = mpmath.mpc(mp(z[0]), mp(z[1]))
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * w + mp(c)
        scale = sum(abs(mp(c)) * abs(w) ** k for k, c in enumerate(coeffs))
        return abs(acc), scale


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _r_polynomial(coeffs):
    """R(p) = n x^(n-1) p(x) - (x^n + 1) p'(x)."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * (2 * n)
    for k, c in enumerate(coeffs):
        out[k + n - 1] += n * c
    for k, c in enumerate(_derivative(coeffs)):
        out[k] -= c
        out[k + n] -= c
    return out


def certs_are_double_roots(v, coeffs, cn, certs, label):
    """Each cert is a unit-circle root of both p_cn and p_cn'."""
    pc = ref.family_at(coeffs, cn)
    dpc = _derivative(pc)
    for z in certs:
        with mpmath.workprec(200):
            modulus = abs(mpmath.mpc(mp(z[0]), mp(z[1])))
            v.expect(abs(modulus - 1) <= mp(CERT_TOL), f"{label}: cert {z} off the circle")
        val, scale = _eval(pc, z)
        v.expect(val <= mp(CERT_TOL) * (1 + scale), f"{label}: p_cn(cert) = {val}")
        val, scale = _eval(dpc, z)
        v.expect(val <= mp(CERT_TOL) * (1 + scale), f"{label}: p_cn'(cert) = {val}")


def cn_matches(v, got, exact_claimed, cn_ref, tol, label, exact_track=True):
    """A program cn against the sympy reference.

    A rational answer must equal the reference exactly; on the exact track a
    rational reference must also have been identified as one.
    """
    if exact_claimed:
        return v.expect(cn_ref.exact is not None and Fraction(got) == cn_ref.exact,
                        f"{label}: cn {got} (exact) != reference {mpmath.nstr(cn_ref.value, 20)}")
    ok = v.expect(cn_ref.exact is None or not exact_track,
                  f"{label}: cn {float(got)} not identified as the rational {cn_ref.exact}")
    return ok and v.expect(
        abs(mp(got) - cn_ref.value) <= mp(tol) * (1 + abs(cn_ref.value)),
        f"{label}: cn {float(got)} != reference {mpmath.nstr(cn_ref.value, 20)}")


def il_matches(v, got, il_ref, tol, label):
    return v.expect(abs(mp(got) - il_ref) <= mp(tol) * (1 + abs(il_ref)),
                    f"{label}: il {float(got)} != reference {mpmath.nstr(il_ref, 20)}")


# -- corpus ---------------------------------------------------------------------

def check_corpus(records) -> Verdict:
    v = Verdict()
    refs = {}
    for r in records:
        label = f"corpus poly {r['index']} ({r['coeffs']})"
        coeffs = ref.coeffs_from_text(r["coeffs"])
        if r["coeffs"] not in refs:
            refs[r["coeffs"]] = (ref.circle_number(coeffs), ref.interlace_number(coeffs))
        cn_ref, il_ref = refs[r["coeffs"]]
        il, cn, disc, ll = (decode(r[k]) for k in ("il", "heck", "disc", "ll"))
        lam = decode(r["lam"])
        lower = {k: decode(x) for k, x in r["lower"].items()}
        # criterion 09's laws
        v.expect(cn <= il + LAW_TOL, f"{label}: cn > il")
        v.expect(il <= ll + LAW_TOL, f"{label}: il > ll")
        v.expect(cn >= lower["binomial"] - LAW_TOL, f"{label}: cn < binomial bound")
        v.expect(abs(disc - cn) <= LAW_TOL * (1 + cn), f"{label}: the two routes differ")
        v.expect(rel_close(decode(r["il_s"]), lam * il, LAW_TOL), f"{label}: il(lam p)")
        v.expect(rel_close(decode(r["cn_s"]), lam * cn, LAW_TOL), f"{label}: cn(lam p)")
        v.expect(rel_close(decode(r["il_x"]), il, LAW_TOL), f"{label}: il(stretch)")
        v.expect(rel_close(decode(r["cn_x"]), cn, LAW_TOL), f"{label}: cn(stretch)")
        if r["il_f"] is not None:
            v.expect(rel_close(decode(r["il_f"]), il, LAW_TOL), f"{label}: il(flip)")
            v.expect(rel_close(decode(r["cn_f"]), cn, LAW_TOL), f"{label}: cn(flip)")
        v.expect(r["oracle_above"] is True, f"{label}: not circle rooted above cn")
        if r["oracle_below"]:
            below = decode(r["below"])
            hit = any((lo is None or decode(lo) <= below + Fraction(1, 10**12))
                      and (hi is None or decode(hi) >= below - Fraction(1, 10**12))
                      for lo, hi in r["profile"])
            v.expect(hit, f"{label}: circle rooted below cn without an interval")
        rpoly = _r_polynomial(coeffs)
        for z in (decode(c) for c in r["certs"]):
            val, scale = _eval(rpoly, z)
            v.expect(val < mpmath.mpf("1e-7") * (1 + scale), f"{label}: cert misses R(p)")
        # against the references
        for key in ("heck", "disc"):
            exact = "q" in r[key]
            cn_matches(v, decode(r[key]), exact, cn_ref, PRINTED_TOL, f"{label} {key}")
            if not exact:
                v.bits.append(ref.correct_bits(mp(decode(r[key])), cn_ref.value))
        il_matches(v, il, il_ref, Fraction(1, 2**100), label)
        v.bits.append(ref.correct_bits(mp(il), il_ref))
    return v


# -- scan -------------------------------------------------------------------------

def _scan_rows(text):
    lines = text.splitlines()
    return lines[0], list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def same_scan_csv(v, label, rows, text_workers1):
    """A ``--workers 1`` rerun prints the same CSV.

    Every cell must match byte for byte except ``cn``, whose digits past the
    16th the program formats at whatever precision the other worker thread
    has set (see the README); ``cn`` must agree to PRINTED_TOL.
    """
    _, rows1 = _scan_rows(text_workers1)
    if not v.expect(len(rows1) == len(rows), f"{label}: --workers 1 gives "
                                             f"{len(rows1)} rows, not {len(rows)}"):
        return
    for i, (a, b) in enumerate(zip(rows, rows1)):
        for key in a:
            same = (rel_close(Fraction(a[key]), Fraction(b[key]), PRINTED_TOL)
                    if key == "cn" else a[key] == b[key])
            v.expect(same, f"{label} row {i}: {key} {a[key]!r} with two workers, "
                           f"{b[key]!r} with --workers 1")


def check_scan(records, count) -> Verdict:
    v = Verdict()
    for r in records:
        argv = r["argv"]
        label = " ".join(argv[:argv.index("--inject")] + ["--inject", "..."])
        if not v.expect(r["code"] == 0 and r["error"] is None,
                        f"{label}: exit {r['code']} {r['error']}"):
            v.failed_ops += count
            continue
        head, rows = _scan_rows(r["stdout"])
        v.expect(head.startswith("# palinlace scan"), f"{label}: no header")
        if "stdout_workers1" in r:
            same_scan_csv(v, label, rows, r["stdout_workers1"])
        darga = int(argv[argv.index("--darga") + 1])
        injected = argv[argv.index("--inject") + 1].split(";")
        v.expect(len(rows) == count, f"{label}: {len(rows)} rows, not {count}")
        for i, row in enumerate(rows):
            rl = f"{label} row {i} ({row['coeffs']})"
            v.expect(row["index"] == str(i) and row["darga"] == str(darga),
                     f"{rl}: index/darga columns")
            coeffs = ref.coeffs_from_text(row["coeffs"])
            v.expect(i < len(injected) and coeffs == ref.coeffs_from_text(injected[i]),
                     f"{rl}: not the injected row")
            cn_ref, il_ref = ref.circle_number(coeffs), ref.interlace_number(coeffs)
            il = Fraction(row["il"])
            il_matches(v, il, il_ref, PRINTED_TOL, rl)
            v.bits.append(ref.correct_bits(mp(il), il_ref))
            if row["il_rational"]:
                il_matches(v, Fraction(row["il_rational"]), il_ref,
                           Fraction(1, 10**40), rl + " il_rational")
            if row["cn_rational"]:
                cn_matches(v, Fraction(row["cn_rational"]), True, cn_ref, 0, rl)
                v.expect(rel_close(Fraction(row["cn"]), cn_ref.exact, PRINTED_TOL),
                         f"{rl}: cn column disagrees with cn_rational")
            else:
                cn_matches(v, Fraction(row["cn"]), False, cn_ref, PRINTED_TOL, rl)
                v.bits.append(ref.correct_bits(mp(Fraction(row["cn"])), cn_ref.value))
            equal = abs(il_ref - cn_ref.value) <= EQUAL_TOL * (1 + abs(il_ref))
            if row["exact"] != ("1" if equal else "0"):
                v.failed_ops += 1
                if injected[i] != EXACT_FAILING:
                    v.fail(f"{rl}: exact column {row['exact']}, but il "
                           f"{'==' if equal else '!='} cn")
    return v


# -- analyze ----------------------------------------------------------------------

def check_analyze(records) -> Verdict:
    v = Verdict()
    for r in records:
        label = f"analyze {r['kind']} --coeffs={r['text']}"
        if r["error"] is not None or r["code"] != 0:
            v.failed_ops += 1
            if r["kind"] != KNOWN_FAILURE_KIND:
                v.fail(f"{label}: exit {r['code']} {r['error']} {r['stdout'][:200]}")
            continue
        rep = json.loads(r["stdout"])
        coeffs = ref.coeffs_from_text(r["text"])
        cn_ref, il_ref = ref.circle_number(coeffs), ref.interlace_number(coeffs)
        il, cn = number(rep["il"]), number(rep["cn"])
        float_track = r["kind"] in FLOAT_KINDS
        for key, want in r["known"].items():
            got = rep[key]
            if float_track:
                v.expect(rel_close(number(got), Fraction(want), FLOAT_TOL),
                         f"{label}: {key} {got['repr']} != {want}")
            else:
                v.expect(got["rational"] is not None
                         and Fraction(got["rational"]) == Fraction(want),
                         f"{label}: {key} {got['repr']} != {want}")
        tol = FLOAT_TOL if float_track else PRINTED_TOL
        il_matches(v, il, il_ref, tol, label)
        if rep["il"]["rational"] is not None and not float_track:
            il_matches(v, il, il_ref, Fraction(1, 10**40), label + " (rational)")
        cn_matches(v, cn, rep["cn"]["rational"] is not None, cn_ref, tol, label,
                   exact_track=not float_track)
        certs = [complex_text(c["repr"]) for c in rep["circle_certs"]]
        v.expect(len(certs) > 0, f"{label}: no circle certs")
        certs_are_double_roots(v, coeffs, cn, certs, label)
        if float_track:
            v.bits.append(ref.correct_bits(mp(il), il_ref))
            v.bits.append(ref.correct_bits(mp(cn), cn_ref.value))
    return v


# -- sweep ------------------------------------------------------------------------

def _bound(leaf):
    return None if leaf is None else number(leaf)


def _samples(lo, hi):
    if lo is None and hi is None:
        return [Fraction(-4), Fraction(1), Fraction(4)]
    if hi is None:
        return [lo + (1 + abs(lo)), lo + 4 * (1 + abs(lo))]
    if lo is None:
        return [hi - (1 + abs(hi)), hi - 4 * (1 + abs(hi))]
    return [lo + (hi - lo) * t for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]


def check_sweep(records) -> Verdict:
    v = Verdict()
    for r in records:
        argv = r["argv"]
        text = argv[1].split("=", 1)[1]
        label = f"dynamics --coeffs={text}"
        if not v.expect(r["code"] == 0 and r["error"] is None,
                        f"{label}: exit {r['code']} {r['error']}"):
            v.failed_ops += 1
            continue
        out = r["stdout"]
        head, _, tsv = out.partition("alpha\troot_index\tre\tim\n")
        prof = json.loads(head)
        coeffs = ref.coeffs_from_text(text)
        cn_ref = ref.circle_number(coeffs)
        ivs = prof["intervals"]
        for iv in ivs:
            lo, hi = _bound(iv["lo"]), _bound(iv["hi"])
            if iv["point"]:
                if iv["real_root_count"] < 0:
                    continue  # irrational breakpoint: left unclassified
                got = ref.circle_rooted(ref.family_at(coeffs, lo), CIRCLE_TOL)
                v.expect(got == iv["circle_rooted"],
                         f"{label}: verdict at alpha = {lo} is {iv['circle_rooted']}")
                continue
            for alpha in _samples(lo, hi):
                got = ref.circle_rooted(ref.family_at(coeffs, alpha), CIRCLE_TOL)
                v.expect(got == iv["circle_rooted"],
                         f"{label}: interval ({lo}, {hi}) says {iv['circle_rooted']}, "
                         f"numpy at {float(alpha)} says {got}")
        # the final circle-rooted stretch is unbounded and starts at cn
        rooted = []
        for i, iv in enumerate(ivs):
            ok = iv["circle_rooted"] or (
                iv["point"] and iv["real_root_count"] < 0 and 0 < i < len(ivs) - 1
                and ivs[i - 1]["circle_rooted"] and ivs[i + 1]["circle_rooted"])
            rooted.append(ok)
        start = len(ivs)
        while start > 0 and rooted[start - 1]:
            start -= 1
        if v.expect(start < len(ivs) and ivs[-1]["hi"] is None,
                    f"{label}: not circle rooted for large alpha"):
            lo = _bound(ivs[start]["lo"])
            if lo is None:
                v.fail(f"{label}: circle rooted for every alpha")
            elif cn_ref.exact is not None:
                v.expect(lo == cn_ref.exact, f"{label}: last interval starts at "
                                             f"{lo}, reference cn {cn_ref.exact}")
            else:
                v.expect(abs(mp(lo) - cn_ref.value) <= mpmath.mpf("1e-9") * (1 + abs(cn_ref.value)),
                         f"{label}: last interval starts at {float(lo)}, "
                         f"reference cn {mpmath.nstr(cn_ref.value, 15)}")
                if cn_ref.exact is None:
                    v.bits.append(ref.correct_bits(mp(lo), cn_ref.value))
        # trajectory roots annihilate p_alpha
        lo, hi, steps = argv[argv.index("--grid") + 1].split(":")
        lo, hi, steps = Fraction(lo), Fraction(hi), int(steps)
        by_alpha = {}
        for line in tsv.splitlines():
            a, idx, re_, im_ = line.split("\t")
            if idx == "NA":
                v.fail(f"{label}: root solver failed at alpha = {a}")
                continue
            # the grid is computed in binary64, which 17 digits round-trip
            by_alpha.setdefault(Fraction(float(a)), []).append(
                (Fraction(re_), Fraction(im_)))
        want = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
        v.expect(len(by_alpha) == steps and all(
            rel_close(a, w, ROOT_TOL) for a, w in zip(sorted(by_alpha), want)),
            f"{label}: grid alphas")
        for alpha, roots in by_alpha.items():
            pc = ref.family_at(coeffs, alpha)
            degree = max(k for k, c in enumerate(pc) if c != 0)
            v.expect(len(roots) == degree, f"{label}: {len(roots)} roots at alpha = {alpha}")
            for z in roots:
                val, scale = _eval(pc, z, bits=200)
                v.expect(val <= mp(ROOT_TOL) * (1 + scale),
                         f"{label}: |p_alpha(z)| = {mpmath.nstr(val, 5)} at alpha = {alpha}")
    return v
