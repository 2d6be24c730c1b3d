"""Working-precision policy for the floating track.

All floating-point work in this package runs through mpmath at an explicit
binary precision.  The default is 128 bits (overridable via the
PALINLACE_PRECISION environment variable); comparisons that land within
epsilon of a tie are retried at doubled precision, up to MAX_ESCALATIONS
times, before the tie is reported as genuine.

mpmath keeps its precision in a process-global context, so every block of
floating work is wrapped in ``working_precision``, which takes a lock for
library callers that run threads (palinlace itself starts none); it
serialises the floating sections, and the exact-rational kernels run unlocked.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import mpmath

DEFAULT_PRECISION = 128
MAX_ESCALATIONS = 4

_PREC_LOCK = threading.RLock()


def default_precision() -> int:
    """Configured base precision in bits (env override included)."""
    raw = os.environ.get("PALINLACE_PRECISION")
    if raw:
        try:
            bits = int(raw)
        except ValueError:
            return DEFAULT_PRECISION
        if bits >= 8:
            return bits
    return DEFAULT_PRECISION


@contextmanager
def working_precision(bits: int | None = None):
    """Run a block at the given binary precision, serialised process-wide.

    With no explicit request the configured default applies, except that an
    ambient block that is already more precise is never downgraded.
    """
    with _PREC_LOCK:
        # read the ambient precision under the lock: another thread's block
        # sets the process-global mpmath context while it holds the lock
        if bits is None:
            bits = max(default_precision(), mpmath.mp.prec)
        with mpmath.workprec(bits):
            yield mpmath.mp


def at_working_precision(fn):
    """Run the wrapped function at the configured precision.

    Keeps mixed-track scalar arithmetic away from mpmath's 53-bit default
    when callers have not opened a precision block themselves.
    """
    from functools import wraps

    @wraps(fn)
    def wrapper(*args, **kwargs):
        with working_precision():
            return fn(*args, **kwargs)

    return wrapper


def eval_epsilon(scale, bits: int | None = None):
    """Absolute tolerance for root-of-unity evaluations: 2^-(bits-48) * scale.

    At the default 128 bits this is 2^-80 scaled by the coefficient 1-norm.
    """
    if bits is None:
        bits = default_precision()
    try:
        s = mpmath.mpf(scale)
    except TypeError:  # exact rational scale
        s = mpmath.mpf(scale.numerator) / scale.denominator
    return mpmath.mpf(2) ** (-(bits - 48)) * (1 + s)


def escalate(compute, *, key=lambda result: result, bits: int | None = None):
    """Re-run ``compute(bits)`` at doubling precision until its key stabilises.

    Returns ``(result, certified)`` where ``certified`` is False only if the
    key was still moving after MAX_ESCALATIONS doublings.
    """
    if bits is None:
        bits = default_precision()
    result = compute(bits)
    fingerprint = key(result)
    for _ in range(MAX_ESCALATIONS):
        bits *= 2
        nxt = compute(bits)
        if key(nxt) == fingerprint:
            return nxt, True
        result, fingerprint = nxt, key(nxt)
    return result, False
