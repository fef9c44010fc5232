"""Correctness gate: every operation is checked against its reference.

A miss never stops the run.  An operation that raises or misses its
reference counts as failed; a result whose actual error exceeds the
error the library reported for it counts as a bound violation.  Both
are kept with a message so the record says what went wrong.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

_KEEP_MESSAGES = 50


def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


class OpAborted(Exception):
    """Raised out of a library call that failed; ends the operation."""


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layer_failed: Counter = Counter()
        self.rel_errors: dict[str, float] = {}
        self.violations: dict[str, tuple[float, float]] = {}
        self.bound_checked = 0
        self._op = None
        self._op_failed = False

    # -- operation bracket -------------------------------------------------

    def begin(self, op: str) -> None:
        self._op = op
        self._op_failed = False
        self.attempted += 1

    def end(self) -> bool:
        if self._op_failed:
            self.failed += 1
        self._op = None
        return not self._op_failed

    # -- checks --------------------------------------------------------------

    def fail(self, layer: str, msg: str) -> None:
        self._op_failed = True
        self.layer_failed[layer] += 1
        if len(self.failures) < _KEEP_MESSAGES:
            self.failures.append(f"{self._op}: {msg}")

    def check(self, layer: str, ok: bool, msg: str) -> bool:
        if not ok:
            self.fail(layer, msg)
        return ok

    def close(self, layer: str, label: str, got: float, want: float,
              rel: float) -> bool:
        """Two floats agree to a relative tolerance (no exact reference)."""
        d = rel_diff(got, want)
        return self.check(layer, d <= rel,
                          f"{label}: {got!r} vs {want!r} (rel {d:.3e} > {rel:g})")

    def exact(self, layer: str, label: str, got: float | Fraction, ref: Fraction, *,
              rel: float | None = None, abs_tol: float | None = None,
              reported: float | None = None, exact_ref: bool = True) -> float | None:
        """Compare a result (a float, or a Fraction taken from an mpmath
        value) with a reference value.

        The relative error enters max_rel_err.  `rel` or `abs_tol` is the
        miss tolerance (a miss fails the operation).  `reported` is the
        error the library claimed for this result; when the reference is
        exact, an actual error above it is a bound violation.
        """
        if not isinstance(got, Fraction) and not (isinstance(got, float) and math.isfinite(got)):
            self.fail(layer, f"{label}: not a finite float: {got!r}")
            return None
        err = abs(Fraction(got) - ref)
        r = float(err / abs(ref)) if ref != 0 else float(err)
        self.rel_errors[label] = max(r, self.rel_errors.get(label, 0.0))
        if rel is not None and not r <= rel:
            self.fail(layer, f"{label}: {got!r} vs {float(ref)!r} (rel {r:.3e} > {rel:g})")
        if abs_tol is not None and not err <= abs_tol:
            self.fail(layer, f"{label}: {got!r} vs {float(ref)!r} "
                             f"(abs {float(err):.3e} > {abs_tol:g})")
        if reported is not None and exact_ref:
            self.bound_checked += 1
            if err > Fraction(reported):
                self.violations[label] = (float(err), float(reported))
        return r

    @property
    def max_rel_err(self) -> float:
        return max(self.rel_errors.values(), default=0.0)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "layer_failed": dict(self.layer_failed),
            "rel_errors": self.rel_errors,
            "max_rel_err": self.max_rel_err,
            "bound_checked": self.bound_checked,
            "violations": {k: list(v) for k, v in self.violations.items()},
        }
