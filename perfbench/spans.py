"""Span recorder that instruments palinlace from the outside.

The recorder replaces module attributes of the loaded ``palinlace`` modules
with timing wrappers, including every other module's imported reference to
the same function (``interlace.unity_values_raw``, ``dynamics.all_roots``,
``cli.interlace_number`` and so on), so a call is recorded however the
program reaches it.  A function that a later version of the program no
longer has is skipped and reports zero calls.

Each span is a tuple ``(id, parent, name, start, end)``.  Spans stay in
memory until ``write_spans`` dumps them at the end of the run.  A span
opened in a thread with no open span of its own (a ``scan`` pool worker)
takes the outermost span open in the main thread as its parent, so the
time ``cli.main`` spends waiting on its pool is covered by its children.

Besides spans the recorder keeps counters measured at the same boundaries:
the ``bits`` argument of ``all_roots``, bisection halvings of
``refine_root``, the computes run by ``escalate``, and acquires of and
waits for ``precision._PREC_LOCK``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from fractions import Fraction

# (module, function) pairs wrapped in a traced run.  The first group holds the
# layers the per-layer metrics report; the second group adds boundaries under
# cli.main so that its self time is argument parsing and formatting only.
LAYERS = (
    ("cli", "main"),
    ("circle", "all_roots"),
    ("circle", "circle_number"),
    ("circle", "circle_number_palindromic"),
    ("circle", "gcd_xn1"),
    ("circle", "cayley_exact"),
    ("circle", "is_exact"),
    ("circle", "numeric_oracle_circle_rooted"),
    ("realroots", "largest_real_root"),
    ("realroots", "isolate_real_roots"),
    ("realroots", "refine_root"),
    ("realroots", "count_circle_roots_distinct"),
    ("ratpoly", "resultant_int"),
    ("ratpoly", "newton_interpolate"),
    ("ratpoly", "subresultant_principal_coeffs"),
    ("ratpoly", "squarefree_part"),
    ("dynamics", "alpha_profile"),
    ("dynamics", "subdiscriminant_sequence"),
    ("dynamics", "root_trajectories"),
    ("interlace", "interlace_number"),
    ("interlace", "bound_ladder"),
    ("polycore", "unity_values_raw"),
    ("precision", "escalate"),
)
BOUNDARIES = (
    ("interlace", "is_interlace_rational"),
    ("circle", "cn_lower_bounds"),
    ("polycore", "sigma_of"),
)

# all_roots time is attributed to the nearest of these enclosing spans
ALL_ROOTS_PARENTS = {
    "circle.circle_number": "cn_s",
    "circle.circle_number_palindromic": "cn_s",
    "circle.numeric_oracle_circle_rooted": "oracle_s",
    "dynamics.root_trajectories": "sweep_s",
}

# per-layer metric names reported by a traced run, with their units
PER_LAYER = (
    ("circle.all_roots.calls", "count"),
    ("circle.all_roots.bits_p50", "bits"),
    ("circle.all_roots.cn_s", "s"),
    ("circle.all_roots.oracle_s", "s"),
    ("circle.all_roots.sweep_s", "s"),
    ("circle.circle_number.total_s", "s"),
    ("circle.circle_number.self_s", "s"),
    ("circle.circle_number_palindromic.calls", "count"),
    ("circle.circle_number_palindromic.total_s", "s"),
    ("circle.circle_number_palindromic.self_s", "s"),
    ("circle.gcd_xn1.calls", "count"),
    ("circle.gcd_xn1.total_s", "s"),
    ("circle.cayley_exact.total_s", "s"),
    ("circle.is_exact.total_s", "s"),
    ("circle.numeric_oracle_circle_rooted.calls", "count"),
    ("circle.numeric_oracle_circle_rooted.total_s", "s"),
    ("realroots.largest_real_root.calls", "count"),
    ("realroots.largest_real_root.total_s", "s"),
    ("realroots.isolate_real_roots.total_s", "s"),
    ("realroots.refine_root.calls", "count"),
    ("realroots.refine_root.total_s", "s"),
    ("realroots.refine_root.halvings", "count"),
    ("realroots.count_circle_roots_distinct.calls", "count"),
    ("realroots.count_circle_roots_distinct.total_s", "s"),
    ("ratpoly.resultant_int.calls", "count"),
    ("ratpoly.resultant_int.total_s", "s"),
    ("ratpoly.newton_interpolate.total_s", "s"),
    ("ratpoly.subresultant_principal_coeffs.total_s", "s"),
    ("ratpoly.squarefree_part.calls", "count"),
    ("ratpoly.squarefree_part.total_s", "s"),
    ("dynamics.alpha_profile.calls", "count"),
    ("dynamics.alpha_profile.self_s", "s"),
    ("dynamics.subdiscriminant_sequence.total_s", "s"),
    ("dynamics.root_trajectories.total_s", "s"),
    ("interlace.interlace_number.calls", "count"),
    ("interlace.interlace_number.self_s", "s"),
    ("interlace.bound_ladder.total_s", "s"),
    ("polycore.unity_values_raw.calls", "count"),
    ("polycore.unity_values_raw.total_s", "s"),
    ("precision.escalate.calls", "count"),
    ("precision.escalate.computes", "count"),
    ("precision.lock.acquires", "count"),
    ("precision.lock.wait_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.ops", "count"),
)


class CountingRLock:
    """Re-entrant lock that counts acquires and the time spent waiting."""

    def __init__(self):
        self._lock = threading.RLock()
        self.acquires = 0
        self.wait_s = 0.0

    def acquire(self, blocking=True, timeout=-1):
        if self._lock.acquire(blocking=False):
            self.acquires += 1  # safe: this thread now holds the lock
            return True
        if not blocking:
            return False
        t0 = time.perf_counter()
        if not self._lock.acquire(True, timeout):
            return False
        self.acquires += 1
        self.wait_s += time.perf_counter() - t0
        return True

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


def _halvings(lo, hi, out) -> int:
    """Bisection steps that shrank (lo, hi) to the returned interval."""
    lo, hi = Fraction(lo), Fraction(hi)
    new_lo, new_hi = Fraction(out[0]), Fraction(out[1])
    width = hi - lo
    if width <= 0:
        return 0
    if new_hi > new_lo:
        return round(math.log2(width / (new_hi - new_lo)))
    # an exact hit at a midpoint: the step count is the power of two in the
    # denominator of its offset within the starting interval
    offset = (new_lo - lo) / width
    if offset in (0, 1):
        return 0
    return offset.denominator.bit_length() - 1


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()  # next() on a count is atomic in CPython
        self._local = threading.local()
        self._main_root = None
        self.all_roots_bits = []
        self.halvings = 0
        self.computes = 0
        self._count_lock = threading.Lock()  # scan's pool threads share counters
        self.lock = None

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            in_main = threading.current_thread() is threading.main_thread()
            if stack:
                parent = stack[-1]
            elif in_main:
                parent = None
                recorder._main_root = sid
            else:
                parent = recorder._main_root
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if in_main and not stack:
                    recorder._main_root = None
                recorder.spans.append((sid, parent, name, t0, t1))

        return traced

    # -- counters at layer boundaries ----------------------------------------

    def _all_roots_hook(self, fn, args, kwargs):
        bits = kwargs.get("bits", args[1] if len(args) > 1 else None)
        if not bits:
            bits = sys.modules["palinlace.precision"].default_precision()
        self.all_roots_bits.append(bits)
        return fn(*args, **kwargs)

    def _refine_hook(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        lo = kwargs.get("lo", args[1] if len(args) > 1 else None)
        hi = kwargs.get("hi", args[2] if len(args) > 2 else None)
        h = _halvings(lo, hi, out)
        with self._count_lock:
            self.halvings += h
        return out

    def _escalate_hook(self, fn, args, kwargs):
        compute = args[0] if args else kwargs.pop("compute")
        recorder = self

        def counted(bits):
            with recorder._count_lock:
                recorder.computes += 1
            return compute(bits)

        return fn(counted, *args[1:], **kwargs)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded palinlace module."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "palinlace"
                                      or name.startswith("palinlace."))]
        hooks = {"circle.all_roots": self._all_roots_hook,
                 "realroots.refine_root": self._refine_hook,
                 "precision.escalate": self._escalate_hook}
        for modname, fname in LAYERS + BOUNDARIES:
            home = sys.modules.get("palinlace." + modname)
            orig = getattr(home, fname, None) if home is not None else None
            if orig is None:
                continue
            name = f"{modname}.{fname}"
            wrapper = self.wrap(name, orig, hooks.get(name))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        precision = sys.modules.get("palinlace.precision")
        if precision is not None and hasattr(precision, "_PREC_LOCK"):
            self.lock = CountingRLock()
            precision._PREC_LOCK = self.lock

    # -- aggregation ---------------------------------------------------------

    def metrics(self, wall_s: float, ops: int) -> dict:
        by_id = {s[0]: s for s in self.spans}
        children = {}
        for s in self.spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append(s)
        calls, total, self_s = {}, {}, {}
        all_roots_by = {v: 0.0 for v in ALL_ROOTS_PARENTS.values()}
        for sid, parent, name, t0, t1 in self.spans:
            calls[name] = calls.get(name, 0) + 1
            dur = t1 - t0
            # a span nested in one of the same name is already counted
            anc, outer = parent, True
            attributed = None
            while anc is not None:
                a = by_id[anc]
                if a[2] == name:
                    outer = False
                if attributed is None and a[2] in ALL_ROOTS_PARENTS:
                    attributed = ALL_ROOTS_PARENTS[a[2]]
                anc = a[1]
            if outer:
                total[name] = total.get(name, 0.0) + dur
            if name == "circle.all_roots" and outer and attributed:
                all_roots_by[attributed] += dur
            covered = _union_length([(max(c[3], t0), min(c[4], t1))
                                     for c in children.get(sid, ())])
            self_s[name] = self_s.get(name, 0.0) + max(dur - covered, 0.0)
        out = {}
        for metric, _unit in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(layer, 0)
            elif stat == "total_s":
                out[metric] = total.get(layer, 0.0)
            elif stat == "self_s":
                out[metric] = self_s.get(layer, 0.0)
        bits = self.all_roots_bits
        out["circle.all_roots.bits_p50"] = statistics.median(bits) if bits else 0
        for key, value in all_roots_by.items():
            out[f"circle.all_roots.{key}"] = value
        out["realroots.refine_root.halvings"] = self.halvings
        out["precision.escalate.computes"] = self.computes
        out["precision.lock.acquires"] = self.lock.acquires if self.lock else 0
        out["precision.lock.wait_s"] = self.lock.wait_s if self.lock else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.ops"] = ops
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
