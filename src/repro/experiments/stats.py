"""Statistics used throughout the paper's presentation.

The paper reports three kinds of summaries:

* box-and-whisker plots (median, quartiles, min/max) for download
  times -- :func:`five_number`;
* "sample mean +- standard error" for loss rates, RTTs and OFO delays
  (Tables 2-6) -- :func:`mean_stderr`;
* complementary CDFs on log axes for RTT and OFO-delay tails
  (Figures 12/13) -- :func:`ccdf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of unsorted ``samples``.

    ``q`` in [0, 1].  Hyndman & Fan type 7, the common 'linear'
    default of statistics packages.
    """
    if not samples:
        raise ValueError("quantile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction {q!r} outside [0, 1]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    value = ordered[lower] * (1 - weight) + ordered[upper] * weight
    # Guard against float rounding pushing the interpolation outside
    # its bracket (observable with denormal inputs).
    return min(max(value, ordered[lower]), ordered[upper])


@dataclass(frozen=True)
class FiveNumber:
    """Box-and-whisker summary: whiskers at min/max as in the paper."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int

    def as_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum)


def five_number(samples: Sequence[float]) -> FiveNumber:
    """The paper's box plot: quartiles plus min/max whiskers."""
    if not samples:
        raise ValueError("five_number of empty sample set")
    return FiveNumber(
        minimum=min(samples),
        q1=quantile(samples, 0.25),
        median=quantile(samples, 0.5),
        q3=quantile(samples, 0.75),
        maximum=max(samples),
        count=len(samples),
    )


def mean_stderr(samples: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and standard error of the mean.

    Returns ``(mean, 0.0)`` for a single sample (no spread estimate).
    """
    if not samples:
        raise ValueError("mean_stderr of empty sample set")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = sum((value - mean) ** 2 for value in samples) / (n - 1)
    return mean, math.sqrt(variance / n)


def ccdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Complementary CDF points: (value, P[X > value]).

    One point per distinct sample value, ascending.  Suitable for the
    log-log tail plots of Figures 12 and 13.
    """
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    index = 0
    while index < n:
        value = ordered[index]
        while index < n and ordered[index] == value:
            index += 1
        points.append((value, (n - index) / n))
    return points


def ccdf_fraction_above(samples: Sequence[float], threshold: float) -> float:
    """P[X > threshold] -- e.g. 'packets with OFO delay above 150 ms'."""
    if not samples:
        return 0.0
    return sum(1 for value in samples if value > threshold) / len(samples)


def jain_fairness(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is worst.

    The standard metric for "does the MPTCP flow leave the background
    flow its share?" -- used by the fairness extension.
    """
    if not allocations:
        raise ValueError("jain_fairness of an empty allocation set")
    if any(value < 0 for value in allocations):
        raise ValueError("allocations must be non-negative")
    peak = max(allocations)
    if peak == 0:
        return 1.0  # everyone got zero: vacuously fair
    # The index is scale-invariant; normalizing by the peak keeps the
    # squares away from subnormal underflow (squaring ~1e-159 loses
    # precision and can push the ratio above 1).
    scaled = [value / peak for value in allocations]
    total = sum(scaled)
    squares = sum(value * value for value in scaled)
    return (total * total) / (len(allocations) * squares)


#: Two-sided 97.5% t quantiles for df = 1..30 (then the normal 1.96).
_T_975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
          2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
          2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
          2.060, 2.056, 2.052, 2.048, 2.045, 2.042)


def confidence_interval_95(samples: Sequence[float]
                           ) -> Tuple[float, float]:
    """Two-sided 95% confidence interval for the mean (Student t)."""
    if len(samples) < 2:
        raise ValueError("need at least two samples for an interval")
    mean, stderr = mean_stderr(samples)
    df = len(samples) - 1
    t = _T_975[df - 1] if df <= len(_T_975) else 1.96
    return mean - t * stderr, mean + t * stderr


def ccdf_at_fractions(samples: Sequence[float],
                      fractions: Iterable[float]) -> List[Tuple[float, float]]:
    """Inverse view: for each survival fraction, the threshold value.

    Useful to tabulate a CCDF at fixed probabilities (a text rendering
    of Figures 12/13): returns ``(fraction, value)`` pairs where
    ``P[X > value] ~= fraction``.
    """
    if not samples:
        return [(fraction, float("nan")) for fraction in fractions]
    return [(fraction, quantile(samples, min(max(1.0 - fraction, 0.0), 1.0)))
            for fraction in fractions]
