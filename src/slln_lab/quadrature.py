"""Adaptive Simpson quadrature.

Deliberately self-contained: the integrals verified here feed inequality
assertions, so the integration rule must be deterministic and auditable.
Improper integrals are handled by the callers, which split at known kinks
and add closed-form tail remainders.
"""

from __future__ import annotations

from typing import Callable, Sequence


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-9) -> float:
    """Integrate ``f`` over [a, b], a < b, to absolute tolerance ``tol``.

    Classic recursive scheme with Richardson acceptance |S_half - S| <= 15 tol,
    run on an explicit stack.  The error estimate is only trusted after 4
    splits (pre-asymptotic intervals can fool it on steeply decaying
    integrands).  Refinement stops at depth 60; hitting that cap degrades
    accuracy rather than raising, and it goes unnoticed unless the caller
    cross-checks the result, as only ``envelope_constant`` does
    (``cesaro_tail_constant`` and ``truncated_power_moment`` do not).
    """
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    total = 0.0
    stack = [(a, fa, b, fb, m, fm, whole, tol, 0)]
    while stack:
        a0, fa0, b0, fb0, m0, fm0, whole0, tol0, depth = stack.pop()
        lm, flm, left = _simpson(f, a0, fa0, m0, fm0)
        rm, frm, right = _simpson(f, m0, fm0, b0, fb0)
        delta = left + right - whole0
        if depth >= 60 or (depth >= 4 and abs(delta) <= 15.0 * tol0):
            total += left + right + delta / 15.0
        else:
            half_tol = 0.5 * tol0
            stack.append((a0, fa0, m0, fm0, lm, flm, left, half_tol, depth + 1))
            stack.append((m0, fm0, b0, fb0, rm, frm, right, half_tol, depth + 1))
    return total


def integrate_piecewise(
    f: Callable[[float], float],
    points: Sequence[float],
    tol: float = 1e-9,
) -> float:
    """Integrate over consecutive subintervals of sorted ``points``.

    Splitting at kinks keeps the Simpson error estimate honest; the overall
    tolerance is divided across pieces.
    """
    pts = sorted(points)
    pieces = [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]
    if not pieces:
        return 0.0
    piece_tol = tol / len(pieces)
    return sum(adaptive_simpson(f, lo, hi, piece_tol) for lo, hi in pieces)
