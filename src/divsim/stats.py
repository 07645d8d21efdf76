"""Paired t-test for behaviour-count comparisons.

Only the two-tailed paired test is needed, so instead of pulling in a full
statistics stack the t-distribution tail is computed here via the
regularized incomplete beta function (Lentz's continued fraction), which is
accurate to well below the 1e-6 the results table needs.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .record import Record

_CF_MAX_ITERATIONS = 300
_CF_EPS = 3e-14
_CF_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be within [0, 1], got {x!r}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be at least 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


class TTestResult(Record):
    t: float
    p: float
    df: int
    degenerate: bool = False


def paired_t_test(pairs: Sequence[Tuple[float, float]]) -> TTestResult:
    """Two-tailed paired t-test on differences first - second.

    With all differences equal the statistic is undefined (zero variance);
    the result is then flagged degenerate with p = 1.0 when the common
    difference is 0 (the samples are literally identical) and p = 0.0
    otherwise (a perfectly consistent shift).
    """
    import statistics

    if len(pairs) < 2:
        raise ValueError("paired t-test needs at least two pairs")
    diffs = [float(a) - float(b) for a, b in pairs]
    n = len(diffs)
    df = n - 1
    mean = statistics.fmean(diffs)
    sd = statistics.stdev(diffs)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, df, degenerate=True)
        return TTestResult(math.copysign(math.inf, mean), 0.0, df, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, t_two_tailed_p(t, df), df)
